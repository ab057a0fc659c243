import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polystrata.compositions import c_lambda_poset, merged_set, positions
from polystrata.iterated import (
    IteratedComposition,
    c_lambda_d_poset,
    cell_contains,
    from_merge_counts,
    iterated_poset,
)
from polystrata.posets import are_isomorphic, check_isomorphism, product_of_chains
from polystrata.verify import partitions_of


def counts_strategy(n, d):
    return st.tuples(*[st.integers(0, d) for _ in range(n - 1)])


class TestIteratedComposition:
    def test_nesting_enforced(self):
        with pytest.raises(ValueError):
            IteratedComposition(4, ((1, 2), (2,)))

    def test_positions_in_range(self):
        with pytest.raises(ValueError):
            IteratedComposition(3, ((3,),))

    def test_compositions_view(self):
        pi = IteratedComposition(4, ((2,), (1, 2)))
        assert pi.compositions == ((1, 2, 1), (3, 1))

    def test_dimension(self):
        pi = IteratedComposition(4, ((2,), (1, 2)))
        assert pi.dimension == 4 * 2 - 3

    def test_merge_counts_round_trip(self):
        pi = IteratedComposition(4, ((2,), (1, 2), (1, 2, 3)))
        assert pi.merge_counts() == (2, 3, 1)
        assert from_merge_counts(4, 3, (2, 3, 1)) == pi

    @given(st.integers(2, 5), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, n, d, data):
        counts = data.draw(counts_strategy(n, d))
        pi = from_merge_counts(n, d, counts)
        assert pi.merge_counts() == counts
        assert pi.dimension == n * d - sum(counts)

    def test_json(self):
        pi = IteratedComposition(3, ((1,), (1, 2)))
        assert json.loads(pi.to_json()) == {"ambient": 3, "levels": [[1], [1, 2]]}


class TestIteratedPoset:
    @pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (3, 2), (4, 2), (2, 3)])
    def test_size(self, n, d):
        assert len(iterated_poset(n, d)) == (d + 1) ** (n - 1)

    def test_isomorphic_to_product_of_chains(self):
        poset = iterated_poset(3, 2)
        chains = product_of_chains(2, 3)
        assert are_isomorphic(poset, chains) is not None

    def test_degenerate_arguments(self):
        with pytest.raises(ValueError):
            iterated_poset(0, 1)
        with pytest.raises(ValueError):
            iterated_poset(2, 0)

    def test_covers_increment_one_count(self):
        poset = iterated_poset(3, 2)
        for a, b in poset.covers:
            ca = poset.elements[a].merge_counts()
            cb = poset.elements[b].merge_counts()
            diffs = [y - x for x, y in zip(ca, cb)]
            assert sorted(diffs) == [0, 1]


class TestCellMembership:
    def test_shape_validation(self):
        pi = IteratedComposition(2, ((1,),))
        with pytest.raises(ValueError):
            cell_contains(pi, [(0,)])

    def test_fully_merged_cell(self):
        # both points share every coordinate
        pi = IteratedComposition(2, ((1,), (1,)))
        assert cell_contains(pi, [(0, 3), (0, 3)])
        assert not cell_contains(pi, [(0, 3), (0, 4)])

    def test_finest_cell_orders_first_coordinate(self):
        # nothing merged: the first coordinates must be weakly increasing
        pi = IteratedComposition(2, ((), ()))
        assert cell_contains(pi, [(0, 9), (1, -5)])
        assert not cell_contains(pi, [(1, 0), (0, 0)])

    def test_split_then_merged_above(self):
        # split at level 1, merged at level 2: x weakly increasing, y equal
        pi = IteratedComposition(2, ((), (1,)))
        assert cell_contains(pi, [(0, 1), (1, 1)])
        assert not cell_contains(pi, [(1, 1), (0, 1)])
        assert not cell_contains(pi, [(0, 1), (1, 2)])

    def test_no_constraint_across_unrelated_pairs(self):
        # split already at level 1: level-2 coordinates are unconstrained
        pi = IteratedComposition(2, ((), ()))
        assert cell_contains(pi, [(0, 9), (1, -9)])

    def test_exact_arithmetic(self):
        pi = IteratedComposition(2, ((), (1,)))
        third = Fraction(1, 3)
        assert cell_contains(pi, [(0, third), (1, third)])

    def test_boundary_inclusion(self):
        # equality is allowed on the weak inequalities
        pi = IteratedComposition(2, ((), ()))
        assert cell_contains(pi, [(0, 0), (0, 0)])


class TestCLambdaD:
    def test_d_one_matches_union_closure(self):
        # constant chains: placing each element of C_lambda diagonally at
        # every level is an isomorphism onto C_lambda,d, for d = 1, 2, 3
        for n in range(1, 8):
            for partition in partitions_of(n):
                flat = c_lambda_poset(partition)
                for d in (1, 2, 3):
                    diagonal = {
                        c: IteratedComposition(n, (positions(merged_set(c)),) * d)
                        for c in flat.elements
                    }
                    iterated = c_lambda_d_poset(partition, d)
                    assert check_isomorphism(flat, iterated, diagonal), (partition, d)

    def test_top_excluded_by_default(self):
        # for (1, 2) the union of the two merged sets is everything
        partition = (1, 2)
        poset = c_lambda_d_poset(partition, 2)
        full = tuple((1, 2) for _ in range(2))
        assert all(e.levels != full for e in poset.elements)
        with_top = c_lambda_d_poset(partition, 2, include_top=True)
        assert len(with_top) == len(poset) + 1

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            c_lambda_d_poset((1, 2), 0)

    def test_elements_are_constant_chains_of_unions(self):
        poset = c_lambda_d_poset((1, 2), 2)
        for e in poset.elements:
            assert len(set(e.levels)) == 1
