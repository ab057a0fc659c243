import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polystrata.resonance import (
    is_free_of_resonances,
    primitive_identities,
    resonance_hyperplanes,
)

compositions = st.lists(st.integers(1, 8), min_size=1, max_size=5).map(tuple)


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
        assert (((1,), (2,))) in resonance_hyperplanes((3, 3))

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
        # the call itself asserts the distinct-and-free equivalence
        resonance_hyperplanes(parts)


class TestJson:
    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            primitive_identities((0, 1))
