import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polystrata.homology import (
    BoundarySquareError,
    ChainComplex,
    HomologyResult,
    SimplicialComplex,
    _collapse,
    chain_homology,
    simplicial_homology,
    smith_normal_form,
    sphere_homology,
    suspension_shift,
)


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

    def test_rejects_nonzero_square(self):
        generators = {0: ("a",), 1: ("b", "c"), 2: ("d",)}
        boundaries = {1: {0: {0: 1}, 1: {0: 1}}, 2: {0: {0: 1, 1: 1}}}
        with pytest.raises(BoundarySquareError):
            ChainComplex(generators, boundaries)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ChainComplex({1: ("x",)}, {1: {0: {5: 1}}})
        with pytest.raises(ValueError):
            ChainComplex({}, {1: {0: {0: 1}}})


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
        assert simplicial_homology(point).is_zero

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


class TestCollapse:
    def test_collapse_preserves_homology(self):
        rng = random.Random(7)
        for _ in range(20):
            vertices = range(7)
            facets = [
                tuple(sorted(rng.sample(vertices, rng.randint(1, 4))))
                for _ in range(rng.randint(1, 8))
            ]
            complex_ = SimplicialComplex.generated(vertices, facets)
            fast = simplicial_homology(complex_, precollapse=True)
            slow = simplicial_homology(complex_, precollapse=False)
            assert fast == slow

    def test_collapsible_simplex_shrinks(self):
        complex_ = SimplicialComplex.generated(range(5), [tuple(range(5))])
        collapsed = _collapse(complex_.faces)
        assert len(collapsed) < len(complex_.faces)


class TestHomologyResult:
    def test_of_drops_trivial_groups(self):
        result = HomologyResult.of({0: (0, ()), 1: (2, (1, 3))})
        assert result.groups == ((1, 2, (3,)),)

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
        assert not result.is_zero
        assert "H_2" in str(result)

    def test_json_round_trip(self):
        import json

        result = HomologyResult.of({1: (1, (2,))})
        data = json.loads(result.to_json())
        assert data["groups"] == [{"degree": 1, "betti": 1, "torsion": [2]}]
