from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polystrata.resonance import is_free_of_resonances, primitive_identities
from polystrata.verify import partitions_of

compositions = st.lists(st.integers(1, 8), min_size=1, max_size=5).map(tuple)


def resonance_hyperplanes(parts):
    """Oracle: the resonance hyperplanes through (a_1, ..., a_t), that is every
    unordered pair (I, J) of disjoint nonempty 1-based index subsets with equal
    part sums, by brute force over the 3^t assignments of each index to I, J or
    neither; canonically ordered, min(I) < min(J)."""
    out = set()
    for signs in product((0, 1, 2), repeat=len(parts)):
        left = tuple(i + 1 for i, s in enumerate(signs) if s == 1)
        right = tuple(i + 1 for i, s in enumerate(signs) if s == 2)
        if not left or not right:
            continue
        if sum(parts[i - 1] for i in left) != sum(parts[j - 1] for j in right):
            continue
        out.add((left, right) if left[0] < right[0] else (right, left))
    return sorted(out)


def oracle_identities(parts):
    """Oracle: the hyperplanes whose two sides share no part value."""
    return [
        (left, right)
        for left, right in resonance_hyperplanes(parts)
        if {parts[i - 1] for i in left}.isdisjoint(parts[j - 1] for j in right)
    ]


class TestPrimitiveIdentities:
    def test_single_part_is_free(self):
        assert is_free_of_resonances((5,))

    def test_repeated_part_alone_is_not_an_identity(self):
        # {1} and {2} share the part value, so (3, 3) has no primitive identity
        assert primitive_identities((3, 3)) == []
        assert is_free_of_resonances((3, 3))

    def test_simplest_identity(self):
        assert primitive_identities((1, 2, 3)) == [((1, 2), (3,))]
        assert not is_free_of_resonances((1, 2, 3))

    def test_known_tables(self):
        assert tuple(primitive_identities((1, 2, 3, 5))) == (
            ((1, 2), (3,)),
            ((2, 3), (4,)),
        )
        assert tuple(primitive_identities((1, 2, 4, 7))) == (((1, 2, 3), (4,)),)

    def test_powers_of_two_are_free(self):
        assert is_free_of_resonances((1, 2, 4, 8, 16))

    def test_canonical_ordering(self):
        for left, right in primitive_identities((1, 1, 2, 2, 3)):
            assert left[0] < right[0]

    @given(compositions)
    @settings(max_examples=100, deadline=None)
    def test_identities_are_valid(self, parts):
        for left, right in primitive_identities(parts):
            assert set(left).isdisjoint(right)
            assert sum(parts[i - 1] for i in left) == sum(parts[j - 1] for j in right)
            lvals = {parts[i - 1] for i in left}
            rvals = {parts[j - 1] for j in right}
            assert lvals.isdisjoint(rvals)

    @given(compositions)
    @settings(max_examples=60, deadline=None)
    def test_order_invariance(self, parts):
        # freeness depends only on the multiset of parts
        assert is_free_of_resonances(parts) == is_free_of_resonances(
            tuple(sorted(parts))
        )


class TestHyperplanes:
    def test_repeated_part_gives_a_hyperplane(self):
        # (3, 3) has the equal-sum pair {1} = {2} but no primitive identity
        assert ((1,), (2,)) in resonance_hyperplanes((3, 3))
        assert oracle_identities((3, 3)) == primitive_identities((3, 3)) == []

    def test_empty_iff_distinct_and_free(self):
        assert resonance_hyperplanes((1, 2, 4)) == []
        assert resonance_hyperplanes((1, 2, 4, 8)) == []

    def test_primitive_subset_of_hyperplanes(self):
        for parts in [(1, 2, 3), (1, 1, 2), (2, 3, 5, 10)]:
            assert set(primitive_identities(parts)) <= set(
                resonance_hyperplanes(parts)
            )

    @given(compositions)
    @settings(max_examples=60, deadline=None)
    def test_internal_consistency_assertion(self, parts):
        # no equal-sum pair exactly when the parts are distinct and free
        distinct_and_free = len(set(parts)) == len(parts) and is_free_of_resonances(
            parts
        )
        assert (not resonance_hyperplanes(parts)) == distinct_and_free


class TestDifferential:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_small_type(self, n):
        for partition in partitions_of(n):
            if len(partition) > 8:
                continue
            expected = oracle_identities(partition)
            assert primitive_identities(partition) == expected
            assert is_free_of_resonances(partition) == (not expected)

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=8).map(tuple))
    @settings(max_examples=150, deadline=None)
    def test_unsorted_compositions(self, parts):
        expected = oracle_identities(parts)
        assert primitive_identities(parts) == expected
        assert is_free_of_resonances(parts) == (not expected)

    @pytest.mark.parametrize(
        "parts,count", [((1,) * 6 + (2,) * 3, 91), ((1, 1, 2, 2, 3, 3), 15)]
    )
    def test_identity_counts(self, parts, count):
        assert len(oracle_identities(parts)) == count
        assert len(primitive_identities(parts)) == count

    def test_many_equal_parts(self):
        # far past the oracle's reach: 3^40 and 3^21 index assignments
        assert is_free_of_resonances((1,) * 40)
        assert primitive_identities((1,) * 40) == []
        assert not is_free_of_resonances((1,) * 20 + (2,))
        # one identity 1 + 1 = 2 per pair of ones
        assert len(primitive_identities((1,) * 20 + (2,))) == 190


class TestJson:
    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            primitive_identities((0, 1))
