import random
import re
import tracemalloc
from ast import literal_eval
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polystrata import compositions, homology
from polystrata.compositions import (
    c_lambda_poset,
    coarsening_poset,
    delta_lambda_complex,
)
from polystrata.homology import (
    BoundarySquareError,
    ChainComplex,
    HomologyResult,
    InvariantError,
    SimplicialComplex,
    _face,
    _faces,
    chain_homology,
    simplicial_homology,
    smith_normal_form,
    sphere_homology,
    suspension_shift,
)
from polystrata.hyperbolic import hyp_homology
from polystrata.posets import face_poset, order_complex
from polystrata.strata import pol_chain_complex
from polystrata.verify import partitions_of

# ---------------------------------------------------------------------------
# Oracle: one Smith pass over each whole boundary matrix, no cell dropped.
# Its sparse unit-pivot elimination is its own, independent of the
# coreduction that chain_homology runs; only the dense Smith core on the
# residual is shared, and TestSmithNormalForm checks that against sympy.


def _sparse_eliminate(rows, cols, pi, pj):
    """Eliminate with the unit pivot at (pi, pj); removes its row and column."""
    s = rows[pi][pj]  # +-1, its own inverse
    prow = rows.pop(pi)
    for j in prow:
        cols[j].discard(pi)
    for i in list(cols.get(pj, ())):
        row = rows[i]
        factor = row[pj] * s
        for j, v in prow.items():
            nv = row.get(j, 0) - factor * v
            if nv:
                row[j] = nv
                cols[j].add(i)
            elif j in row:
                del row[j]
                cols[j].discard(i)
        if not row:
            del rows[i]
    cols.pop(pj, None)


def _unit_pivots(rows, cols):
    """Eliminate unit pivots until none is left; returns the (row, column) pairs.

    ``rows`` and ``cols`` are reduced in place to the residual matrix.
    """
    pairs = []
    progress = True
    while progress:
        progress = False
        for i in list(rows):
            row = rows.get(i)
            if not row:
                rows.pop(i, None)
                continue
            best = None
            for j, v in row.items():
                if v == 1 or v == -1:
                    if best is None or len(cols[j]) < len(cols[best]):
                        best = j
            if best is not None:
                _sparse_eliminate(rows, cols, i, best)
                pairs.append((i, best))
                progress = True
    return pairs


def _invariant_factors(units, rows, cols):
    """``units`` ones, then the dense Smith factors of a residual, checked."""
    factors = [1] * units
    if rows:
        col_index = {j: k for k, j in enumerate(sorted(cols))}
        dense = []
        for i in sorted(rows):
            r = [0] * len(col_index)
            for j, v in rows[i].items():
                r[col_index[j]] = v
            dense.append(r)
        factors.extend(smith_normal_form(dense))
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise InvariantError(
                "invariant factors %r are not a divisibility chain" % (factors,)
            )
    return tuple(factors)


def oracle_chain_homology(complex_):
    factors = {}
    for q in complex_.degrees():
        rows, cols = {}, {}
        for c, col in complex_.boundaries.get(q, {}).items():
            for r, v in col.items():
                rows.setdefault(r, {})[c] = v
                cols.setdefault(c, set()).add(r)
        units = len(_unit_pivots(rows, cols))
        factors[q] = _invariant_factors(units, rows, cols)
    groups = {}
    for q, gens in complex_.generators.items():
        up = factors.get(q + 1, ())
        betti = len(gens) - len(factors.get(q, ())) - len(up)
        groups[q] = (betti, tuple(d for d in up if d > 1))
    return HomologyResult.of(groups)


def augmented_chain_complex(complex_):
    """Oracle: the whole augmented chain complex, one generator per face."""
    generators = {-1: ("*",)}
    for face in sorted(complex_.faces):
        generators.setdefault(len(face) - 1, []).append(face)
    index = {f: i for gens in generators.values() for i, f in enumerate(gens)}
    boundaries = {}
    for d, faces in generators.items():
        if d == 0:
            boundaries[0] = {i: {0: 1} for i in range(len(faces))}
        elif d > 0:
            boundaries[d] = {
                c: {index[f[:k] + f[k + 1 :]]: (-1) ** k for k in range(len(f))}
                for c, f in enumerate(faces)
            }
    return ChainComplex(generators, boundaries)


def oracle_simplicial_homology(complex_):
    return oracle_chain_homology(augmented_chain_complex(complex_))


def reversed_labels(complex_):
    """The same complex with vertex i renamed n - 1 - i: another matching."""
    top = len(complex_.vertices) - 1
    faces = frozenset(tuple(sorted(top - v for v in f)) for f in complex_.faces)
    return SimplicialComplex(complex_.vertices[::-1], faces)


def random_complexes(seed, count=20):
    rng = random.Random(seed)
    for _ in range(count):
        vertices = range(7)
        facets = [
            tuple(sorted(rng.sample(vertices, rng.randint(1, 4))))
            for _ in range(rng.randint(1, 8))
        ]
        yield SimplicialComplex.generated(vertices, facets)


def oracle_check_squares_to_zero(generators, boundaries):
    """Oracle: the d(d(x)) = 0 check with one dict accumulator per column."""
    for q, cols in boundaries.items():
        lower = boundaries.get(q - 1)
        if not lower:
            continue
        for c, col in cols.items():
            acc = {}
            for r, v in col.items():
                for r2, v2 in lower.get(r, {}).items():
                    acc[r2] = acc.get(r2, 0) + v * v2
            if any(acc.values()):
                surv = {generators[q - 2][r]: v for r, v in acc.items() if v}
                raise BoundarySquareError(
                    "d(d(%r)) = %r is nonzero" % (generators[q][c], surv)
                )


def numbered_check(generators, boundaries):
    """``ChainComplex._numbered`` on given +-1 columns, split by sign here and
    checked in the order ``ChainComplex`` checks them."""
    gens = {q: generators[q] for q in sorted(generators)}
    starts = list(accumulate(map(len, gens.values()), initial=0))
    first = dict(zip(gens, starts))
    plus, minus = [[] for _ in range(starts[-1])], [[] for _ in range(starts[-1])]
    order = []
    for q, cols in boundaries.items():
        for c, col in cols.items():
            order.append(first[q] + c)
            for r, v in col.items():
                (plus if v == 1 else minus)[first[q] + c].append(first[q - 1] + r)
    ChainComplex._numbered(gens, (plus, minus), starts[:-1], order)


def unit_columns(boundaries):
    """Whether every given coefficient is +-1."""
    cols = [col for cols in boundaries.values() for col in cols.values()]
    return all(v in (1, -1) for col in cols for v in col.values())


def square_verdicts(generators, boundaries):
    """The messages of the oracle check and of ``ChainComplex``, None for a
    pass, and of ``numbered_check`` when every coefficient is +-1."""
    messages = []
    checks = [oracle_check_squares_to_zero, ChainComplex]
    for check in checks + [numbered_check] * unit_columns(boundaries):
        try:
            check(generators, boundaries)
            messages.append(None)
        except BoundarySquareError as error:
            messages.append(str(error))
    return messages


def verdict(message):
    """A check's message as its offender and its {row: value}, whose order
    follows the check's own facet order."""
    if message is None:
        return None
    match = re.fullmatch(r"d\(d\((.*)\)\) = (\{.*\}) is nonzero", message)
    offender, rows = match.groups()
    return literal_eval(offender), literal_eval(rows)


def signed_scaled_chains(complex_, rng):
    """The augmented chains of a simplicial complex with every face's sign
    flipped and every degree's boundary scaled at random: a basis change and
    scalars, so d(d(x)) = 0 still holds, with coefficients in -3..3."""
    generators = {-1: ("*",)}
    for face in sorted(complex_.faces):
        generators.setdefault(len(face) - 1, []).append(face)
    index = {f: i for gens in generators.values() for i, f in enumerate(gens)}
    sign = {f: rng.choice((-1, 1)) for f in index}
    boundaries = {}
    for d, faces in generators.items():
        if d < 0:
            continue
        scale = rng.choice((-3, -2, -1, 1, 2, 3))
        boundaries[d] = {
            c: {
                index[f[:k] + f[k + 1 :] or "*"]: (-1) ** k
                * scale
                * sign[f]
                * sign[f[:k] + f[k + 1 :] or "*"]
                for k in range(len(f))
            }
            for c, f in enumerate(faces)
        }
    return generators, boundaries


def facets_by_subset_scan(complex_):
    """Oracle: faces contained in no other face, by comparing every pair."""
    face_sets = [set(f) for f in complex_.faces]
    return sorted(
        f for f in complex_.faces if not any(set(f) < g for g in face_sets)
    )


def projective_planes():
    """RP^2 and its first and second barycentric subdivisions."""
    rp2 = SimplicialComplex.generated(range(6), RP2_FACETS)
    once = order_complex(face_poset(rp2))
    return [rp2, once, order_complex(face_poset(once))]


@lru_cache(maxsize=1)  # shared by the two cases of one weight
def type_complexes(weight):
    """Every type's C_lambda, coarsening-poset and delta complexes, each with
    its oracle homology."""
    cases = []
    for partition in partitions_of(weight):
        complexes = [
            order_complex(c_lambda_poset(partition)),
            order_complex(coarsening_poset(partition)),
        ]
        if weight >= 2:
            complexes.append(delta_lambda_complex(partition).complex)
        cases.extend((c, oracle_simplicial_homology(c)) for c in complexes)
    return cases


def spy_coreduce(monkeypatch):
    """Record what every ``_coreduce`` call returns, in call order."""
    seen = []
    coreduce = homology._coreduce
    monkeypatch.setattr(
        homology, "_coreduce", lambda *a: seen.append(coreduce(*a)) or seen[-1]
    )
    return seen


def critical_counts(monkeypatch, complex_):
    """Critical cells per degree of the one coreduction that
    ``simplicial_homology`` runs, placed by the face table's level starts."""
    seen = spy_coreduce(monkeypatch)
    simplicial_homology(complex_)
    (boundary,) = seen
    return dict(Counter(bisect_right(complex_._table[2], c) - 2 for c in boundary))


def unimodular(rng, n, steps):
    """A random n x n integer matrix of determinant +-1 and its inverse."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in a]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            a[i][k] += c * a[j][k]  # a <- E a, E = 1 + c e_ij
            inv[k][j] -= c * inv[k][i]  # inv <- inv E^-1
    if n:
        k = rng.randrange(n)
        a[k] = [-v for v in a[k]]
        for row in inv:
            row[k] = -row[k]
    return a, inv


def matmul(x, y):
    return [[sum(u * v for u, v in zip(row, col)) for col in zip(*y)] for row in x]


# RP^2 with six vertices: the antipodal quotient of the icosahedron
RP2_FACETS = [
    (0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5),
]


class TestSmithNormalForm:
    def test_diagonal(self):
        assert smith_normal_form([[1, 0], [0, 2]]) == (1, 2)

    def test_gcd_and_determinant(self):
        assert smith_normal_form([[2, 4], [6, 8]]) == (2, 4)

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == ()
        assert smith_normal_form([]) == ()

    def test_single_entry(self):
        assert smith_normal_form([[6]]) == (6,)
        assert smith_normal_form([[-6]]) == (6,)

    def test_rectangular(self):
        assert smith_normal_form([[1, 2, 3]]) == (1,)
        assert smith_normal_form([[2], [4]]) == (2,)

    def test_torsion_pair(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)

    def test_broken_divisibility_chain_raises(self, monkeypatch):
        monkeypatch.setattr(homology, "_dense_snf", lambda m: [2, 3])
        with pytest.raises(InvariantError, match="divisibility chain"):
            smith_normal_form([[2, 0], [0, 3]])

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda m: len({len(r) for r in m}) == 1)
    )
    @settings(max_examples=80, deadline=None)
    def test_divisibility_chain(self, matrix):
        factors = smith_normal_form(matrix)
        assert all(f > 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        # sympy pads with zeros up to min(rows, cols); ours lists nonzeros only
        @given(
            st.integers(1, 6).flatmap(
                lambda nc: st.lists(
                    st.one_of(
                        st.just([0] * nc),
                        st.lists(st.integers(-12, 12), min_size=nc, max_size=nc),
                    ),
                    min_size=1,
                    max_size=6,
                )
            )
        )
        @settings(max_examples=80, deadline=None)
        def check(matrix):
            theirs = invariant_factors(sympy.Matrix(matrix), domain=sympy.ZZ)
            assert smith_normal_form(matrix) == tuple(abs(int(d)) for d in theirs if d)

        check()

    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda m: len({len(r) for r in m}) == 1)
    )
    @settings(max_examples=40, deadline=None)
    def test_product_of_factors_is_gcd_of_minors(self, matrix):
        # the product d_1 ... d_r equals the gcd of all r x r minors
        factors = smith_normal_form(matrix)
        r = len(factors)
        if r == 0:
            return

        def minor(rows, cols):
            sub = [[matrix[i][j] for j in cols] for i in rows]
            if len(sub) == 1:
                return sub[0][0]
            det = 0
            for j in range(len(sub)):
                sign = -1 if j % 2 else 1
                det += sign * sub[0][j] * _det(
                    [row[:j] + row[j + 1 :] for row in sub[1:]]
                )
            return det

        def _det(m):
            if not m:
                return 1
            if len(m) == 1:
                return m[0][0]
            det = 0
            for j in range(len(m)):
                sign = -1 if j % 2 else 1
                det += sign * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
            return det

        minors = [
            abs(minor(rows, cols))
            for rows in combinations(range(len(matrix)), r)
            for cols in combinations(range(len(matrix[0])), r)
        ]
        from math import gcd
        from functools import reduce

        total = reduce(gcd, minors)
        product = 1
        for f in factors:
            product *= f
        assert product == total


class TestChainHomology:
    def test_triangle_boundary_is_circle(self):
        complex_ = SimplicialComplex.generated("abc", [(0, 1), (1, 2), (0, 2)])
        result = simplicial_homology(complex_)
        assert result == sphere_homology(1)

    def test_single_generator_no_boundary(self):
        complex_ = ChainComplex({1: ("x",)}, {})
        assert chain_homology(complex_) == HomologyResult.of({1: (1, ())})

    def test_multiplication_by_two_gives_torsion(self):
        complex_ = ChainComplex({0: ("a",), 1: ("b",)}, {1: {0: {0: 2}}})
        assert chain_homology(complex_) == HomologyResult.of({0: (0, (2,))})

    def test_torsion_below_a_unit_pair(self):
        # d(x1) = y1 pairs y1 with x1; the residual 2 of d(x0) = 2 y0 must stay
        complex_ = ChainComplex(
            {0: ("y0",), 1: ("x0", "y1"), 2: ("x1",)},
            {1: {0: {0: 2}}, 2: {0: {1: 1}}},
        )
        assert chain_homology(complex_) == HomologyResult.of({0: (0, (2,))})

    def test_no_pair_across_a_coefficient_two(self, monkeypatch):
        # cells a, b, e, f in degree order, d(e) = b - a and d(f) = 2a: f's
        # only facet has coefficient 2, so a is critical, e pairs with b, and
        # f is critical with boundary 2a
        seen = spy_coreduce(monkeypatch)
        complex_ = ChainComplex(
            {0: ("a", "b"), 1: ("e", "f")}, {1: {0: {0: -1, 1: 1}, 1: {0: 2}}}
        )
        assert chain_homology(complex_) == HomologyResult.of({0: (0, (2,))})
        assert seen == [{0: {}, 3: {0: 2}}]

    def test_euler_mismatch_raises(self, monkeypatch):
        # a coreduction that loses its last critical cell, which no critical
        # boundary reaches, is caught by the generators-versus-Betti check
        coreduce = homology._coreduce
        monkeypatch.setattr(
            homology, "_coreduce", lambda *a: dict(list(coreduce(*a).items())[:-1])
        )
        complex_ = pol_chain_complex((1,) * 8, 12)  # H_11 = Z
        with pytest.raises(InvariantError, match="-1 from cells, 0 from Betti"):
            chain_homology(complex_)

    def test_rejects_nonzero_square(self):
        generators = {0: ("a",), 1: ("b", "c"), 2: ("d",)}
        boundaries = {1: {0: {0: 1}, 1: {0: 1}}, 2: {0: {0: 1, 1: 1}}}
        with pytest.raises(BoundarySquareError) as info:
            ChainComplex(generators, boundaries)
        assert str(info.value) == "d(d('d')) = {'a': 2} is nonzero"

    def test_square_check_matches_dict_oracle(self):
        # half the complexes get one entry changed, which may or may not
        # leave d(d(x)) = 0; both checks must give the same verdict and message
        rng = random.Random(5)
        verdicts = Counter()
        for simplicial in random_complexes(7, count=200):
            generators, boundaries = signed_scaled_chains(simplicial, rng)
            if rng.random() < 0.5:
                q = rng.choice(sorted(boundaries))
                col = boundaries[q][rng.randrange(len(generators[q]))]
                r = rng.randrange(len(generators[q - 1]))
                col[r] = rng.choice([v for v in range(-3, 4) if v != col.get(r, 0)])
            messages = square_verdicts(generators, boundaries)
            assert messages[0] == messages[1]
            assert all(verdict(m) == verdict(messages[0]) for m in messages[2:])
            verdicts[messages[0] is None] += 1
        assert verdicts[True] >= 50 and verdicts[False] >= 50

    def test_numbered_check_matches_dict_oracle(self):
        # signed chains with every scale dropped, so every coefficient is +-1
        # and all three checks run; half get one entry changed to +-1
        rng = random.Random(11)
        verdicts = Counter()
        for simplicial in random_complexes(13, count=200):
            generators, boundaries = signed_scaled_chains(simplicial, rng)
            for cols in boundaries.values():
                for c, col in cols.items():
                    cols[c] = {r: 1 if v > 0 else -1 for r, v in col.items()}
            if rng.random() < 0.5:
                q = rng.choice(sorted(boundaries))
                col = boundaries[q][rng.randrange(len(generators[q]))]
                r = rng.randrange(len(generators[q - 1]))
                col[r] = rng.choice([v for v in (-1, 1) if v != col.get(r, 0)])
            messages = square_verdicts(generators, boundaries)
            assert len(messages) == 3 and messages[0] == messages[1]
            assert verdict(messages[2]) == verdict(messages[0])
            verdicts[messages[0] is None] += 1
        assert verdicts[True] >= 50 and verdicts[False] >= 50

    @pytest.mark.parametrize(
        "boundaries,message",
        [
            # d(e) = -b - c: every coefficient -1, so no +1 facet to gather
            ({1: {0: {0: 1}, 1: {0: -1}}, 2: {0: {0: -1, 1: -1}}}, None),
            (
                {1: {0: {0: 1}, 1: {0: 1}}, 2: {0: {0: -1, 1: -1}}},
                "d(d('e')) = {'a': -2} is nonzero",
            ),
            # d(e) is +-1 over facets with coefficient 2: summed exactly
            ({1: {0: {0: 2}, 1: {0: 2}}, 2: {0: {0: 1, 1: -1}}}, None),
            (
                {1: {0: {0: 2}, 1: {0: 1}}, 2: {0: {0: 1}}},
                "d(d('e')) = {'a': 2} is nonzero",
            ),
        ],
    )
    def test_square_check_edge_columns(self, boundaries, message):
        generators = {0: ("a",), 1: ("b", "c"), 2: ("e",)}
        messages = [message] * (2 + unit_columns(boundaries))
        assert square_verdicts(generators, boundaries) == messages

    def test_huge_coefficients_decided_exactly(self):
        # d(b) = N a, d(c) = M a, d(e) = b - c: d(d(e)) = (N - M) a, summed
        # exactly without allocating anything the size of N
        generators = {0: ("a",), 1: ("b", "c"), 2: ("e",)}
        n = 10**12
        tracemalloc.start()
        try:
            complex_ = ChainComplex(
                generators, {1: {0: {0: n}, 1: {0: n}}, 2: {0: {0: 1, 1: -1}}}
            )
            assert chain_homology(complex_) == HomologyResult.of({0: (0, (n,))})
            with pytest.raises(BoundarySquareError) as info:
                ChainComplex(
                    generators, {1: {0: {0: n}, 1: {0: n + 1}}, 2: {0: {0: 1, 1: -1}}}
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "d(d('e')) = {'a': -1} is nonzero"
        assert peak < 2**20

    @pytest.mark.parametrize("value", [0.5, 2.0, "1", None])
    def test_non_integer_coefficient_refused(self, value):
        # a float must not reach the integer reduction, where 2.0 reads as Z/2
        generators = {0: ("a",), 1: ("b", "c")}
        with pytest.raises(ValueError, match="in degree 1, column 1$"):
            ChainComplex(generators, {1: {0: {0: 1}, 1: {0: value}}})

    def test_boundaries_decoded_on_first_read(self):
        # reducing a complex reads its cell table only; the decoded columns
        # equal the given ones, empty columns and degrees dropped
        rng = random.Random(3)
        for simplicial in random_complexes(9):
            generators, boundaries = signed_scaled_chains(simplicial, rng)
            complex_ = ChainComplex(generators, boundaries)
            chain_homology(complex_)
            assert "boundaries" not in vars(complex_)
            assert complex_.boundaries == boundaries
            assert "boundaries" in vars(complex_)
        complex_ = ChainComplex({0: ("a",), 1: ("b",)}, {1: {0: {}}})
        assert complex_.boundaries == {}

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ChainComplex({1: ("x",)}, {1: {0: {5: 1}}})
        with pytest.raises(ValueError):
            ChainComplex({}, {1: {0: {0: 1}}})
        with pytest.raises(ValueError):
            ChainComplex({0: ("a", "b"), 1: ("e",)}, {1: {-1: {0: 1, 1: -1}}})

    @pytest.mark.parametrize("row", [0.5, "a"])
    def test_non_integer_row_refused(self, row):
        # a row key is read like a coefficient, before the range check
        with pytest.raises(ValueError, match="in degree 1, column 0$"):
            ChainComplex({0: ("a", "b"), 1: ("e",)}, {1: {0: {row: 1}}})

    @pytest.mark.parametrize("row", [-1, 2])
    def test_row_out_of_range(self, row):
        # rows run over 0 .. count of degree-(q-1) generators - 1
        with pytest.raises(ValueError, match="row out of range in degree 1"):
            ChainComplex({0: ("a", "b"), 1: ("e",)}, {1: {0: {0: 1, row: -1}}})


class TestDegreeReduction:
    @pytest.mark.parametrize("weight", range(9))
    def test_pol_complexes_match_oracle(self, weight):
        for partition in partitions_of(weight):
            for n in range(weight, 13, 2):
                complex_ = pol_chain_complex(partition, n)
                assert chain_homology(complex_) == oracle_chain_homology(complex_)

    # the Morse path against the oracle on the whole augmented complex;
    # ``reverse`` renames the vertices, which changes the matching but not
    # the homology
    @pytest.mark.parametrize("reverse", [True, False])
    @pytest.mark.parametrize("weight", range(1, 9))
    def test_order_complexes_match_oracle(self, weight, reverse):
        for complex_, expected in type_complexes(weight):
            if reverse:
                complex_ = reversed_labels(complex_)
            assert simplicial_homology(complex_) == expected

    @pytest.mark.parametrize("reverse", [True, False])
    def test_projective_plane_has_two_torsion(self, reverse):
        expected = HomologyResult.of({1: (0, (2,))})
        for complex_ in projective_planes():
            if reverse:
                complex_ = reversed_labels(complex_)
            assert simplicial_homology(complex_) == expected
            assert oracle_simplicial_homology(complex_) == expected

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from((0, 1, 2, 6, 12))),
            max_size=8,
        ),
        st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_conjugated_normal_forms(self, blocks, seed):
        # block (q, 0) is a free generator in degree q; block (q, f) is a pair
        # x, y in degrees q + 1, q with d(x) = f y.  Random unimodular bases
        # hide the pairs, but the homology stays known: Z per free generator,
        # Z/f per f > 1, and 2 | 6 | 12 keeps the torsion a divisibility chain
        sizes = {q: 0 for q in range(5)}
        pairs = []
        expected = {q: [0, []] for q in range(5)}
        for q, f in blocks:
            if f == 0:
                expected[q][0] += 1
            else:
                pairs.append((q, sizes[q], sizes[q + 1], f))
                sizes[q + 1] += 1
                if f > 1:
                    expected[q][1].append(f)
            sizes[q] += 1
        rng = random.Random(seed)
        bases = {q: unimodular(rng, n, 3 * n) for q, n in sizes.items()}
        generators = {q: tuple("%d.%d" % (q, i) for i in range(n)) for q, n in sizes.items()}
        boundaries = {}
        for q in range(1, 5):
            d = [[0] * sizes[q] for _ in range(sizes[q - 1])]
            for low, row, col, f in pairs:
                if low == q - 1:
                    d[row][col] = f
            if d and d[0]:
                conj = matmul(matmul(bases[q - 1][0], d), bases[q][1])
                boundaries[q] = {
                    c: {r: row[c] for r, row in enumerate(conj) if row[c]}
                    for c in range(sizes[q])
                }
        complex_ = ChainComplex(generators, boundaries)
        known = HomologyResult.of(
            {q: (b, tuple(sorted(t))) for q, (b, t) in expected.items()}
        )
        assert chain_homology(complex_) == known
        assert oracle_chain_homology(complex_) == known


class TestSimplicialComplex:
    def test_downward_closure_enforced(self):
        with pytest.raises(ValueError):
            SimplicialComplex(("a", "b"), frozenset({(0, 1)}))

    def test_generated_closes_downward(self):
        complex_ = SimplicialComplex.generated("abc", [(0, 1, 2)])
        assert len(complex_.faces) == 7
        assert complex_.facets() == [(0, 1, 2)]

    def test_empty_complex_convention(self):
        empty = SimplicialComplex((), frozenset())
        assert simplicial_homology(empty) == sphere_homology(-1)

    def test_point_is_acyclic(self):
        point = SimplicialComplex.generated("a", [(0,)])
        assert simplicial_homology(point) == HomologyResult.of({})

    def test_two_points_are_a_zero_sphere(self):
        complex_ = SimplicialComplex.generated("ab", [(0,), (1,)])
        assert simplicial_homology(complex_) == sphere_homology(0)

    def test_octahedron_boundary(self):
        # vertices 0/1, 2/3, 4/5 are antipodal pairs
        facets = [
            (a, b, c)
            for a in (0, 1)
            for b in (2, 3)
            for c in (4, 5)
        ]
        complex_ = SimplicialComplex.generated(range(6), facets)
        assert simplicial_homology(complex_) == sphere_homology(2)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_simplex_boundary_is_sphere(self, k):
        facets = list(combinations(range(k + 1), k))
        complex_ = SimplicialComplex.generated(range(k + 1), facets)
        assert simplicial_homology(complex_) == sphere_homology(k - 1)

    def test_euler_characteristic(self):
        complex_ = SimplicialComplex.generated("abc", [(0, 1), (1, 2), (0, 2)])
        assert complex_.euler_characteristic() == 0

    @pytest.mark.parametrize(
        "faces, message",
        [
            ([()], r"face \(\) is not a sorted duplicate-free tuple"),
            ([(0,), (1,), (1, 0)], r"face \(1, 0\) is not a sorted"),
            ([(0,), (0, 0)], r"face \(0, 0\) is not a sorted"),
            ([(0,), (3,)], r"face \(3,\) has out-of-range vertices"),
            ([(0,), (-1,)], r"face \(-1,\) has out-of-range vertices"),
            (
                [(0,), (0, 2)],
                r"not downward closed: \(0, 2\) present, \(2,\) missing",
            ),
            # faces of three vertices
            (
                [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 2, 1)],
                r"face \(0, 2, 1\) is not a sorted",
            ),
            ([(0,), (1,), (0, 1), (0, 0, 1)], r"face \(0, 0, 1\) is not a sorted"),
            (
                [(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)],
                r"not downward closed: \(0, 1, 2\) present, \(0, 2\) missing",
            ),
            (
                [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), frozenset({0, 1, 2})],
                r"face frozenset\(\{0, 1, 2\}\) is not a sorted",
            ),
        ],
    )
    def test_validation_errors(self, faces, message):
        with pytest.raises(ValueError, match=message):
            SimplicialComplex(tuple("abc"), frozenset(faces))

    @pytest.mark.parametrize(
        "faces, message",
        [
            # a later face's missing parent wins over an earlier face's other
            # missing facet
            (
                [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 3), (2, 3)]
                + [(0, 1, 2), (1, 2, 3)],
                r"not downward closed: \(1, 2, 3\) present, \(1, 2\) missing",
            ),
            # a level is built before the next one is checked
            (
                [(0,), (0, 2), (0, 1, 0)],
                r"not downward closed: \(0, 2\) present, \(2,\) missing",
            ),
        ],
    )
    def test_error_precedence(self, faces, message):
        # on four vertices, as the cases above pin vertex 3 out of range
        with pytest.raises(ValueError, match=message):
            SimplicialComplex(tuple("abcd"), frozenset(faces))

    def test_equal_faces_compare_and_hash_equal(self):
        faces = [(0,), (1,), (2,), (0, 1), (1, 2)]
        built = SimplicialComplex(tuple("abc"), frozenset(faces))
        generated = SimplicialComplex.generated("abc", [(1, 2), (0, 1)])
        assert built == generated and hash(built) == hash(generated)
        assert built != SimplicialComplex(tuple("abc"), frozenset(faces[:4]))
        assert "_table" not in repr(built)

    def test_facets_match_subset_scan(self):
        complexes = list(random_complexes(3, count=60))
        for weight in range(2, 9):
            for partition in partitions_of(weight):
                complexes.append(delta_lambda_complex(partition).complex)
        complexes.append(SimplicialComplex((), frozenset()))
        for complex_ in complexes:
            assert complex_.facets() == facets_by_subset_scan(complex_)


def chains_by_comparison(poset):
    """Oracle: the chains of a poset whose index order is a linear extension,
    each grown by every later element above its last, by ``Poset.lt``."""
    elements = poset.elements
    chains, level = [], [(i,) for i in range(len(elements))]
    while level:
        chains += level
        level = [
            c + (k,)
            for c in level
            for k in range(c[-1] + 1, len(elements))
            if poset.lt(elements[c[-1]], elements[k])
        ]
    return frozenset(chains)


def table_complexes():
    """Given, generated and grown complexes, each with its faces by an oracle."""
    complexes = [(c, c.faces) for c in random_complexes(5, count=40)]
    empty = SimplicialComplex((), frozenset())
    complexes.append((empty, frozenset()))
    for weight in range(2, 9):
        for partition in partitions_of(weight):
            delta = delta_lambda_complex(partition).complex
            complexes.append((delta, delta.faces))
    for weight in range(1, 7):
        for partition in partitions_of(weight):
            poset = c_lambda_poset(partition)
            complexes.append((order_complex(poset), chains_by_comparison(poset)))
    return complexes


class TestFaceTable:
    def test_decoded_faces_and_counts_match_oracle(self):
        for complex_, faces in table_complexes():
            table = complex_._table
            decoded = _faces(table)
            assert decoded[0] == () and len(decoded) == len(faces) + 1
            assert frozenset(decoded[1:]) == faces == complex_.faces
            assert [_face(table, c) for c in range(len(decoded))] == decoded
            sizes = Counter(map(len, faces))
            assert complex_.dimension == max(sizes, default=0) - 1
            assert complex_.euler_characteristic() == sum(
                m if k % 2 else -m for k, m in sizes.items()
            )

    def test_grown_and_given_compare_and_hash_equal(self):
        for partition in [(1,), (1, 2), (1, 1, 2), (1, 2, 3), (1, 1, 2, 2)]:
            poset = c_lambda_poset(partition)
            grown = order_complex(poset)
            given = SimplicialComplex(poset.elements, chains_by_comparison(poset))
            assert hash(grown) == hash(given) and grown == given and given == grown
            if given.faces:  # a complex one facet short differs
                fewer = given.faces - {given.facets()[-1]}
                assert order_complex(poset) != SimplicialComplex(poset.elements, fewer)

    def test_hyp_homology_builds_no_face_tuple_or_label(self, monkeypatch):
        # no face is decoded to reduce a complex, even a critical one; all
        # faces and labels are decoded when read
        seen = spy_coreduce(monkeypatch)
        decoded, whole, labels, critical = [], [], [], 0
        face, faces = homology._face, homology._faces
        mask = compositions._face_mask  # read once per label
        monkeypatch.setattr(homology, "_face", lambda t, c: decoded.append(c) or face(t, c))
        monkeypatch.setattr(homology, "_faces", lambda t: whole.append(t) or faces(t))
        monkeypatch.setattr(compositions, "_face_mask", lambda f: labels.append(f) or mask(f))
        for partition in [(1, 2, 3), (1, 1, 2, 2), (1, 1, 1, 3), (1, 2, 3, 4)]:
            grown = order_complex(c_lambda_poset(partition))
            labeled = delta_lambda_complex(partition)
            seen.clear()
            hyp_homology(partition)
            critical += sum(map(len, seen[1:]))  # those of the two simplicial runs
            assert decoded == [] and whole == [] and labels == []
            assert len(labeled.labels) == len(labels) == len(labeled.complex.faces)
            assert len(grown.faces) == len(grown._table[0]) - 1 and len(whole) == 1
            whole.clear()
            labels.clear()
        assert critical


class TestMorseComplex:
    def test_random_complexes_match_oracle(self):
        for complex_ in random_complexes(7):
            expected = oracle_simplicial_homology(complex_)
            assert simplicial_homology(complex_) == expected
            assert simplicial_homology(reversed_labels(complex_)) == expected

    def test_simplex_leaves_no_critical_cells(self, monkeypatch):
        complex_ = SimplicialComplex.generated(range(5), [tuple(range(5))])
        assert critical_counts(monkeypatch, complex_) == {}

    def test_empty_complex_keeps_the_augmentation_cell(self, monkeypatch):
        empty = SimplicialComplex((), frozenset())
        assert critical_counts(monkeypatch, empty) == {-1: 1}

    def test_matching_is_perfect_on_spheres(self, monkeypatch):
        # boundary of the 4-simplex: 30 faces and the augmentation cell
        sphere = SimplicialComplex.generated(range(5), combinations(range(5), 4))
        assert critical_counts(monkeypatch, sphere) == {3: 1}

    def test_matching_order_is_pinned(self, monkeypatch):
        # the queue seeded with the vertices in index order pairs the
        # augmentation cell with the first vertex; the rest follows
        complex_ = order_complex(c_lambda_poset((1, 2, 3, 4, 5)))
        assert critical_counts(monkeypatch, complex_) == {2: 6, 3: 6}

    def test_euler_mismatch_raises(self, monkeypatch):
        # the faces' Euler characteristic, less the augmentation cell, is
        # checked against the Betti numbers: RP^2's reduced ones give 0
        monkeypatch.setattr(SimplicialComplex, "euler_characteristic", lambda self: 99)
        complex_ = SimplicialComplex.generated(range(6), RP2_FACETS)
        with pytest.raises(InvariantError, match="98 from cells, 0 from Betti"):
            simplicial_homology(complex_)

    def test_critical_square_names_faces(self, monkeypatch):
        # a coreduction whose Morse boundaries fail d(d(x)) = 0: the check
        # on the critical cells decodes faces only to name the offender
        complex_ = SimplicialComplex.generated(range(2), [(0, 1)])  # (), 0, 1, 01
        monkeypatch.setattr(homology, "_coreduce", lambda *a: {0: {}, 1: {0: 1}, 3: {1: 1}})
        with pytest.raises(BoundarySquareError) as info:
            simplicial_homology(complex_)
        assert str(info.value) == "d(d((0, 1))) = {'*': 1} is nonzero"

    def test_critical_square_names_generators(self, monkeypatch):
        complex_ = ChainComplex({3: ("x",), 4: ("y",), 5: ("z",)}, {})
        monkeypatch.setattr(homology, "_coreduce", lambda *a: {0: {}, 1: {0: 2}, 2: {1: 1}})
        with pytest.raises(BoundarySquareError) as info:
            chain_homology(complex_)
        assert str(info.value) == "d(d('z')) = {'x': 2} is nonzero"

    def test_boundaries_match_sympy(self, monkeypatch):
        # every matrix the reduction hands to the Smith core, against sympy
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        matrices = []
        snf = homology.smith_normal_form
        monkeypatch.setattr(
            homology, "smith_normal_form", lambda m: matrices.append(m) or snf(m)
        )
        complexes = list(random_complexes(11)) + projective_planes()
        for weight in range(1, 7):
            for partition in partitions_of(weight):
                complexes.append(order_complex(c_lambda_poset(partition)))
        for complex_ in complexes:
            simplicial_homology(complex_)
        for matrix in matrices:
            theirs = invariant_factors(sympy.Matrix(matrix), domain=sympy.ZZ)
            assert snf(matrix) == tuple(abs(int(d)) for d in theirs if d)
        assert matrices


class TestSinglePass:
    def test_one_coreduction_per_chain_complex(self, monkeypatch):
        seen = spy_coreduce(monkeypatch)
        for partition, n in [((), 2), ((1, 1), 4), ((1, 1, 2), 6), ((1,) * 8, 12)]:
            seen.clear()
            chain_homology(pol_chain_complex(partition, n))
            assert len(seen) == 1

    def test_one_coreduction_per_simplicial_complex(self, monkeypatch):
        seen = spy_coreduce(monkeypatch)
        complexes = [SimplicialComplex((), frozenset())] + projective_planes()
        for partition in [(1, 2), (1, 2, 3), (1, 1, 2, 2), (1, 2, 3, 4)]:
            complexes.append(order_complex(c_lambda_poset(partition)))
            complexes.append(delta_lambda_complex(partition).complex)
        for complex_ in complexes:
            seen.clear()
            simplicial_homology(complex_)
            assert len(seen) == 1

    @pytest.mark.parametrize("partition", [(1, 2), (2, 2), (1, 2, 3), (1, 1, 2, 2)])
    def test_three_coreductions_per_hyp_call(self, monkeypatch, partition):
        # one per pipeline: cells, order complex and delta
        seen = spy_coreduce(monkeypatch)
        hyp_homology(partition)
        assert len(seen) == 3


class TestHomologyResult:
    def test_of_drops_trivial_groups(self):
        result = HomologyResult.of({0: (0, ()), 1: (2, (1, 3))})
        assert result.groups == ((1, 2, (3,)),)

    @pytest.mark.parametrize(
        "groups",
        [{0: (1.5, (2.7,))}, {0: (1.5, ())}, {1: (0, (2.7,))}, {0.5: (1, ())}],
    )
    def test_non_integer_refused(self, groups):
        # {0: (1.5, (2.7,))} must not read as H_0 = Z + Z/2
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            HomologyResult.of(groups)

    def test_suspension_shift(self):
        assert suspension_shift(sphere_homology(-1), 2) == sphere_homology(1)
        assert suspension_shift(sphere_homology(0), 2) == sphere_homology(2)
        torsion = HomologyResult.of({1: (0, (2,))})
        assert suspension_shift(torsion, 2) == HomologyResult.of({3: (0, (2,))})

    def test_accessors(self):
        result = HomologyResult.of({2: (3, (2, 4))})
        assert result.betti(2) == 3
        assert result.betti(1) == 0
        assert result.torsion(2) == (2, 4)
        assert "H_2" in str(result)

    def test_json_round_trip(self):
        import json

        result = HomologyResult.of({1: (1, (2,))})
        data = json.loads(result.to_json())
        assert data["groups"] == [{"degree": 1, "betti": 1, "torsion": [2]}]
