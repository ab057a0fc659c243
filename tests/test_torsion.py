"""Torsion in the strata, checked without ``homology._reduce``.

Every pipeline ends in ``_reduce`` (coreduction, then the dense Smith core),
so their agreement cannot catch a fault there, and the Euler check is blind
to torsion.  The oracle here is plain elimination over GF(p) on the raw
boundary columns: by universal coefficients,
dim H_q(C; F_p) = b_q + t_p(q) + t_p(q - 1), where t_p(q) counts the
invariant factors of H_q divisible by p.  The pinned answers below were
confirmed by this oracle, not read off the program's own output.
"""

import pytest
from click.testing import CliRunner

from polystrata import cli
from polystrata.compositions import delta_lambda_complex
from polystrata.homology import HomologyResult, suspension_shift
from polystrata.hyperbolic import PIPELINES
from polystrata.strata import complement_cohomology, pol_chain_complex, pol_homology
from polystrata.verify import partitions_of

TORSION_CASES = [((1, 1, 1, 2, 2, 3, 4), 14), ((1, 1, 3, 4), 15), ((1, 1, 1, 3, 4), 16)]


def rank_mod(columns, p):
    """Rank over GF(p) of the columns {column: {row: integer coefficient}}."""
    pivots = {}  # lead row -> reduced column with lead coefficient 1
    for col in columns:
        v = {r: x % p for r, x in col.items() if x % p}
        while v:
            lead = max(v)
            if lead not in pivots:
                inverse = pow(v[lead], -1, p)
                pivots[lead] = {r: x * inverse % p for r, x in v.items()}
                break
            f = v[lead]
            for r, x in pivots[lead].items():
                y = (v.get(r, 0) - f * x) % p
                if y:
                    v[r] = y
                else:
                    del v[r]
    return len(pivots)


def dims_mod(sizes, boundaries, p):
    """dim H_q over GF(p), per degree q of ``sizes`` (generator counts), of
    the complex with boundary columns ``boundaries[q]``."""
    ranks = {q: rank_mod(cols.values(), p) for q, cols in boundaries.items()}
    dims = {q: n - ranks.get(q, 0) - ranks.get(q + 1, 0) for q, n in sizes.items()}
    return {q: d for q, d in dims.items() if d}


def cells_dims_mod(partition, n, p):
    complex_ = pol_chain_complex(partition, n)
    sizes = {q: len(g) for q, g in complex_.generators.items()}
    return dims_mod(sizes, complex_.boundaries, p)


def simplicial_dims_mod(complex_, p):
    """The augmented simplicial chains of ``complex_``, degree -1 the empty face."""
    by_degree = {-1: [()]}
    for face in sorted(complex_.faces):
        by_degree.setdefault(len(face) - 1, []).append(face)
    index = {face: i for faces in by_degree.values() for i, face in enumerate(faces)}
    boundaries = {
        q: {
            c: {index[face[:k] + face[k + 1 :]]: (-1) ** k for k in range(len(face))}
            for c, face in enumerate(faces)
        }
        for q, faces in by_degree.items()
        if q >= 0
    }
    return dims_mod({q: len(f) for q, f in by_degree.items()}, boundaries, p)


def predicted_dims(result, p):
    """b_q + t_p(q) + t_p(q - 1), per degree, from an integral answer."""
    t = {q: sum(1 for d in tors if d % p == 0) for q, _, tors in result.groups}
    degrees = {*t, *(q + 1 for q in t)}
    dims = {q: result.betti(q) + t.get(q, 0) + t.get(q - 1, 0) for q in degrees}
    return {q: d for q, d in dims.items() if d}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("partition, n", TORSION_CASES)
def test_torsion_cases_match_gf_p_ranks(partition, n, p):
    assert cells_dims_mod(partition, n, p) == predicted_dims(pol_homology(partition, n), p)


@pytest.mark.parametrize("p", [2, 3])
def test_delta_torsion_matches_gf_p_ranks(p):
    partition = (1, 1, 1, 2, 2, 3, 4)
    dims = simplicial_dims_mod(delta_lambda_complex(partition).complex, p)
    assert dims == predicted_dims(PIPELINES["delta"](partition), p)


@pytest.mark.parametrize("p", [2, 3])
def test_every_hyperbolic_type_of_weight_at_most_9_matches_gf_p_ranks(p):
    for weight in range(1, 10):
        for partition in partitions_of(weight):
            expected = predicted_dims(pol_homology(partition, weight), p)
            assert cells_dims_mod(partition, weight, p) == expected, partition


def test_oracle_sees_the_two_torsion():
    # the oracle's own answer: over GF(2) one more class in H_6 and H_7 than
    # over GF(3), which sees the Betti numbers alone
    partition = (1, 1, 1, 2, 2, 3, 4)
    assert cells_dims_mod(partition, 14, 2) == {6: 34, 7: 4}
    assert cells_dims_mod(partition, 14, 3) == {6: 33, 7: 3}
    assert cells_dims_mod((1, 1, 3, 4), 15, 2) == {6: 22, 7: 2, 9: 1}
    assert cells_dims_mod((1, 1, 3, 4), 15, 3) == {6: 21, 7: 1, 9: 1}


@pytest.mark.parametrize(
    "args, expected",
    [
        *(
            (["hyp", "--lambda", "1,1,1,2,2,3,4", "--backend", b], "H_6 = Z^33 + Z/2; H_7 = Z^3")
            for b in ("cells", "delta")
        ),
        (["pol", "--lambda", "1,1,3,4", "--n", "15"], "H_6 = Z^21 + Z/2; H_7 = Z; H_9 = Z"),
        (
            ["pol", "--lambda", "1,1,1,3,4", "--n", "16"],
            "H_7 = Z^69 + Z/2 + Z/2; H_8 = Z^2; H_10 = Z^2",
        ),
    ],
)
def test_torsion_pins(args, expected):
    result = CliRunner().invoke(cli.main, args)
    assert result.exit_code == 0
    assert result.stdout_bytes == expected.encode() + b"\n"


def test_complement_shifts_torsion_one_degree_down():
    # H_6 = Z^21 + Z/2, H_7 = Z, H_9 = Z of the closure at n = 15 read, by
    # duality, as degrees 8, 7 and 5 of the complement, the Z/2 in degree 7
    expected = HomologyResult.of({5: (1, ()), 7: (1, (2,)), 8: (21, ())})
    assert complement_cohomology((1, 1, 3, 4), 15) == expected


def test_delta_pin_is_the_cells_pin_suspended():
    partition = (1, 1, 1, 2, 2, 3, 4)
    assert suspension_shift(PIPELINES["delta"](partition), 2) == pol_homology(partition, 14)
