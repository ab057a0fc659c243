"""Combinatorics and homology of root-multiplicity stratifications.

The package builds the posets and chain complexes attached to the
stratification of monic real polynomials by root multiplicities and computes
exact integral homology of the compactified strata, cross-validating several
independent pipelines against each other and against closed-form predictions.
"""

from .compositions import (
    c_lambda_poset,
    coarsening_poset,
    compositions_of,
    compositions_of_type,
    closure_collapse_report,
    delta_lambda_complex,
    composition_from_merged_set,
    merged_set,
)
from .homology import (
    ChainComplex,
    HomologyResult,
    SimplicialComplex,
    chain_homology,
    simplicial_homology,
    smith_normal_form,
    sphere_homology,
    suspension_shift,
)
from .hyperbolic import hook_prediction, hyp_homology, resonance_free_prediction
from .iterated import IteratedComposition, c_lambda_d_poset, cell_contains, iterated_poset
from .permutahedron import (
    permutahedron_face_poset,
    quotient_report,
    young_subgroup_action,
)
from .polyspace import (
    FactoredPolynomial,
    MonicPolynomial,
    affine_normalize,
    cell_of,
    stabilize,
)
from .posets import (
    GroupAction,
    Poset,
    are_isomorphic,
    closure_image,
    order_complex,
    product_of_chains,
    quotient_poset,
)
from .resonance import is_free_of_resonances, primitive_identities
from .strata import (
    StratumCell,
    boundary,
    closure_cells,
    complement_cohomology,
    pol_chain_complex,
    pol_homology,
    stabilization_report,
)

__version__ = "0.1.0"
