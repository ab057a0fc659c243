from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polystrata.compositions import c_lambda_poset, merged_set, positions
from polystrata.iterated import (
    IteratedComposition,
    c_lambda_d_poset,
    iterated_poset,
)
from polystrata.posets import (
    Poset,
    check_isomorphism,
    product_of_chains,
)
from polystrata.verify import partitions_of


def from_merge_counts(n, d, counts):
    """Oracle: position p is merged at the last counts[p - 1] of d levels."""
    levels = [[p for p in range(1, n) if counts[p - 1] >= d - s] for s in range(d)]
    return IteratedComposition(n, levels)


def counts_strategy(n, d):
    return st.tuples(*[st.integers(0, d) for _ in range(n - 1)])


def iterated_poset_oracle(n, d):
    """Every element through the validating constructor, covers by lookup."""
    elements = [
        from_merge_counts(n, d, counts)
        for counts in product(range(d + 1), repeat=n - 1)
    ]
    elements.sort(key=lambda e: e.levels)
    index = {e: i for i, e in enumerate(elements)}
    covers = set()
    for e in elements:
        counts = e.merge_counts()
        for p in range(n - 1):
            if counts[p] < d:
                up = counts[:p] + (counts[p] + 1,) + counts[p + 1 :]
                covers.add((index[e], index[from_merge_counts(n, d, up)]))
    return Poset(elements, covers)


class TestIteratedComposition:
    def test_nesting_enforced(self):
        with pytest.raises(ValueError):
            IteratedComposition(4, ((1, 2), (2,)))

    def test_positions_in_range(self):
        with pytest.raises(ValueError):
            IteratedComposition(3, ((3,),))

    @pytest.mark.parametrize(
        "position", [1.5, Fraction(3, 2), "1"], ids=["float", "fraction", "string"]
    )
    def test_non_integral_positions_refused(self, position):
        with pytest.raises(ValueError, match="integers"):
            IteratedComposition(3, ((position,),))

    def test_integer_positions_normalised(self):
        pi = IteratedComposition(4, ([2], (3, 1, 2, 2)))
        assert pi.levels == ((2,), (1, 2, 3))

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


class TestIteratedPoset:
    @pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (3, 2), (4, 2), (2, 3)])
    def test_size(self, n, d):
        assert len(iterated_poset(n, d)) == (d + 1) ** (n - 1)

    def test_isomorphic_to_product_of_chains(self):
        poset = iterated_poset(3, 2)
        chains = product_of_chains(2, 3)
        counts = {e: e.merge_counts() for e in poset.elements}
        assert check_isomorphism(poset, chains, counts)

    def test_degenerate_arguments(self):
        with pytest.raises(ValueError):
            iterated_poset(0, 1)
        with pytest.raises(ValueError):
            iterated_poset(2, 0)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("d", range(1, 4))
    def test_matches_constructor_oracle(self, n, d):
        poset = iterated_poset(n, d)
        oracle = iterated_poset_oracle(n, d)
        # equal elements have equal ambient degrees and levels
        assert poset.elements == oracle.elements
        assert poset.covers == oracle.covers

    def test_covers_increment_one_count(self):
        poset = iterated_poset(3, 2)
        for a, b in poset.covers:
            ca = poset.elements[a].merge_counts()
            cb = poset.elements[b].merge_counts()
            diffs = [y - x for x, y in zip(ca, cb)]
            assert sorted(diffs) == [0, 1]


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

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            c_lambda_d_poset((1, 2), 0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_unchecked_elements_pass_the_constructor(self, d):
        # elements built unchecked from masks equal those the validating
        # constructor makes from the same levels, in positions order
        for n in range(1, 9):
            for partition in partitions_of(n):
                elements = c_lambda_d_poset(partition, d).elements
                rebuilt = tuple(IteratedComposition(n, e.levels) for e in elements)
                assert rebuilt == elements, (partition, d)
                assert all(type(p) is int for e in elements for a in e.levels for p in a)
                assert all(e.ambient == n and e.levels == (e.levels[0],) * d for e in elements)
                levels = [e.levels[0] for e in elements]
                assert levels == sorted(levels)
                flat = c_lambda_poset(partition).elements
                assert set(levels) == {positions(merged_set(c)) for c in flat}

    def test_elements_are_constant_chains_of_unions(self):
        poset = c_lambda_d_poset((1, 2), 2)
        for e in poset.elements:
            assert len(set(e.levels)) == 1
