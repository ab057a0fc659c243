"""The face poset of the permutahedron and its Young-subgroup quotients.

Faces of the permutahedron on t letters are ordered set partitions of [t]
with at least two blocks (the improper single-block element is excluded);
merging adjacent blocks of the ordered sequence moves up in the face poset,
so the t! linear orders sit at the bottom.  Everything is combinatorial;
no polytope geometry appears.

For a partition with all subset sums behaving freely the quotient of the
face poset by the Young subgroup permuting equal parts is isomorphic to the
coarsening poset of the type, via summing the parts over each block.  With
a resonance present the block-sum map collides; the report exhibits a
witness instead of an isomorphism.

Two ordered set partitions lie in one orbit of the Young subgroup exactly
when relabelling each letter x by its part gives the same sequence of
blocks, so the orbits are the fibres of that relabelling
(``young_orbit_key``) and no group element is built.  The face poset of t
letters is built once and memoised per t (``_permutahedron``): the
``prop-3-7`` suite quotients the same few face posets, t <= 5, for every
type it checks.  ``quotient_report`` takes C_lambda's homology from
``hyperbolic.PIPELINES["order-complex"]``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache

from .compositions import as_partition, coarsening_poset
from .homology import HomologyResult, sphere_homology
from .hyperbolic import PIPELINES
from .posets import Poset, check_isomorphism, quotient_poset
from .resonance import primitive_identities


def ordered_set_partitions(t, min_blocks=1):
    """Ordered set partitions of [t], as tuples of sorted element tuples.

    Each ordered set partition of [x - 1] gives those of [x] once each:
    element x joins one of its blocks or forms a new block in one of its gaps.
    """
    out = [()]
    for x in range(1, t + 1):
        grown = []
        for blocks in out:
            for k, block in enumerate(blocks):
                grown.append(blocks[:k] + ((x,),) + blocks[k:])
                grown.append(blocks[:k] + (block + (x,),) + blocks[k + 1 :])
            grown.append(blocks + ((x,),))
        out = grown
    return sorted((p for p in out if len(p) >= min_blocks), key=lambda p: (-len(p), p))


def merge_adjacent_blocks(blocks, i):
    """Merge blocks i and i+1 (0-based) of an ordered set partition."""
    merged = tuple(sorted(blocks[i] + blocks[i + 1]))
    return blocks[:i] + (merged,) + blocks[i + 2 :]


@cache
def _permutahedron(t):
    """The face poset of t letters, built once per t."""
    if t < 2:
        raise ValueError("need t >= 2")
    elements = ordered_set_partitions(t, min_blocks=2)
    index = {e: i for i, e in enumerate(elements)}
    covers = set()
    for blocks in elements:
        if len(blocks) == 2:
            continue  # merging would leave a single block, which is excluded
        for i in range(len(blocks) - 1):
            covers.add((index[blocks], index[merge_adjacent_blocks(blocks, i)]))
    return Poset(elements, covers)


def permutahedron_face_poset(t):
    """Ordered set partitions of [t] with >= 2 blocks; finer below coarser.

    The poset is built once per t and shared by every caller.
    """
    return _permutahedron(operator.index(t))


def young_orbit_key(partition):
    """Key whose fibres on the face poset are the Young-subgroup orbits.

    Parts are sorted ascending and assigned to ground elements 1..t; the key
    relabels each letter x by its part, so two faces share a key exactly when
    a permutation of letters with equal parts carries one to the other.  The
    letters of a block ascend and so do their parts: no sort is needed.
    """
    part = (None, *as_partition(partition)).__getitem__
    return lambda blocks: tuple([tuple(map(part, b)) for b in blocks])


def block_sums(partition, blocks):
    """The composition obtained by summing the parts over each block."""
    partition = as_partition(partition)
    return tuple(sum(partition[x - 1] for x in b) for b in blocks)


@dataclass(frozen=True)
class QuotientReport:
    """Outcome of comparing the quotient face poset with the coarsening poset."""

    partition: tuple
    identities: tuple  # primitive identities among the parts
    isomorphism: dict | None  # orbit key -> composition, when applicable
    homology: HomologyResult
    expected: HomologyResult | None  # sphere / zero prediction, when applicable
    collision: tuple | None  # (blocks, blocks, composition) witness when resonant

    @property
    def applicable(self):
        return not self.identities

    @property
    def passed(self):
        if self.applicable:
            return self.isomorphism is not None and (
                self.expected is None or self.homology == self.expected
            )
        return self.collision is not None


def quotient_report(partition):
    """Quotient the face poset by the Young subgroup and compare with C_lambda.

    When the parts admit no primitive identity the block-sum map on orbit
    representatives must be an order-isomorphism onto the coarsening poset,
    whose order complex is a (t-2)-sphere for pairwise distinct parts and
    has vanishing reduced homology when a part repeats.  Otherwise the
    block-sum map collides and a witness pair is returned.

    The target is the full coarsening poset of the type; the union-generated
    subposet is homotopy equivalent but strictly smaller whenever a part
    repeats, and the quotient matches only the former.  The homology check
    may use either; it uses the smaller one.
    """
    partition = as_partition(partition)
    t = len(partition)
    identities = tuple(primitive_identities(partition))
    faces = _permutahedron(t) if t >= 2 else Poset((), ())
    quotient = quotient_poset(faces, young_orbit_key(partition))
    homology = PIPELINES["order-complex"](partition)
    if identities:
        seen = {}
        collision = None
        for orbit in quotient.elements:
            comp = block_sums(partition, orbit[0])
            if comp in seen:
                collision = (seen[comp], orbit[0], comp)
                break
            seen[comp] = orbit[0]
        return QuotientReport(partition, identities, None, homology, None, collision)
    mapping = {
        orbit: block_sums(partition, orbit[0]) for orbit in quotient.elements
    }
    c_poset = coarsening_poset(partition)
    iso = mapping if check_isomorphism(quotient, c_poset, mapping) else None
    if len(set(partition)) == t:
        expected = sphere_homology(t - 2)
    else:
        expected = HomologyResult.of({})
    return QuotientReport(partition, identities, iso, homology, expected, None)
