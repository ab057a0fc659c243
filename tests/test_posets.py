import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polystrata.homology import simplicial_homology, sphere_homology
from polystrata.posets import (
    ClosureLawError,
    CycleError,
    GroupAction,
    Poset,
    PosetError,
    are_isomorphic,
    check_isomorphism,
    closure_image,
    order_complex,
    product_of_chains,
    quotient_poset,
)


def divisor_poset(n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return Poset.from_le(divisors, lambda x, y: y % x == 0)


class TestPosetConstruction:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(PosetError):
            Poset(("a", "a"), set())

    def test_reflexive_cover_rejected(self):
        with pytest.raises(PosetError):
            Poset(("a", "b"), {(0, 0)})

    def test_redundant_cover_rejected(self):
        with pytest.raises(PosetError):
            Poset("abc", {(0, 1), (1, 2), (0, 2)})

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            Poset("ab", {(0, 1), (1, 0)})

    def test_from_le_transitive_reduction(self):
        poset = divisor_poset(12)
        assert sorted(poset.covers) == sorted(
            {
                (poset.index(a), poset.index(b))
                for a, b in [(1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12)]
            }
        )

    def test_chain_and_antichain(self):
        chain = Poset.chain("abc")
        assert chain.lt("a", "c")
        anti = Poset.antichain("abc")
        assert not anti.covers


class TestPosetQueries:
    def test_order_queries(self):
        poset = divisor_poset(12)
        assert poset.leq(2, 2)
        assert poset.lt(2, 12)
        assert not poset.lt(4, 6)
        assert poset.above(4) == frozenset({12})

    def test_extremes_and_heights(self):
        poset = divisor_poset(12)
        assert poset.minimal_elements() == (1,)
        assert poset.maximal_elements() == (12,)
        heights = dict(zip(poset.elements, poset.heights()))
        assert heights[1] == 0 and heights[12] == 3

    def test_dual_and_subposet(self):
        poset = divisor_poset(12)
        dual = poset.dual()
        assert dual.lt(12, 1)
        sub = poset.subposet([1, 4, 12])
        assert sub.covers == {(sub.index(1), sub.index(4)), (sub.index(4), sub.index(12))}

    def test_exports(self):
        import json

        poset = Poset.chain("ab")
        data = json.loads(poset.to_json())
        assert data["covers"] == [[0, 1]]
        dot = poset.to_dot()
        assert "n0 -> n1;" in dot and dot.startswith("digraph")


class TestOrderComplex:
    def test_chain_gives_full_simplex(self):
        complex_ = order_complex(Poset.chain("abc"))
        assert max(len(f) for f in complex_.faces) == 3
        assert simplicial_homology(complex_).is_zero

    def test_antichain_gives_points(self):
        complex_ = order_complex(Poset.antichain("ab"))
        assert simplicial_homology(complex_) == sphere_homology(0)

    def test_boolean_lattice_minus_bounds_is_sphere(self):
        # proper part of the subset lattice of [k]: order complex is S^(k-2)
        for k in (2, 3, 4):
            subsets = [
                frozenset(s)
                for s in _powerset(range(k))
                if 0 < len(s) < k
            ]
            poset = Poset.from_le(subsets, lambda x, y: x <= y)
            assert simplicial_homology(order_complex(poset)) == sphere_homology(k - 2)


def _powerset(items):
    from itertools import chain, combinations

    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


class TestGroupAction:
    def test_rejects_non_permutation(self):
        poset = Poset.chain("ab")
        with pytest.raises(PosetError):
            GroupAction(poset, [(0, 0)])

    def test_rejects_non_automorphism(self):
        poset = Poset.chain("ab")
        with pytest.raises(PosetError):
            GroupAction(poset, [(1, 0)])

    def test_orbits(self):
        poset = Poset.antichain("abcd")
        action = GroupAction(poset, [(1, 0, 2, 3), (0, 1, 3, 2)])
        assert action.orbits() == [(0, 1), (2, 3)]

    def test_trivial_orbits_are_singletons(self):
        poset = divisor_poset(6)
        action = GroupAction.trivial(poset)
        assert action.orbits() == [(i,) for i in range(len(poset))]


class TestQuotient:
    def test_quotient_by_trivial_action_is_isomorphic(self):
        poset = divisor_poset(12)
        quotient = quotient_poset(poset, GroupAction.trivial(poset))
        assert are_isomorphic(poset, quotient) is not None

    def test_diamond_quotient_is_chain(self):
        # subsets of [2] ordered by inclusion; swap the two singletons
        subsets = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
        poset = Poset.from_le(subsets, lambda x, y: x <= y)
        swap = {1: 2, 2: 1}
        perm = tuple(
            poset.index(frozenset(swap[x] for x in s)) for s in subsets
        )
        quotient = quotient_poset(poset, GroupAction(poset, [perm]))
        assert are_isomorphic(quotient, Poset.chain("abc")) is not None

    @given(st.integers(2, 30))
    @settings(max_examples=15, deadline=None)
    def test_trivial_quotient_property(self, n):
        poset = divisor_poset(n)
        quotient = quotient_poset(poset, GroupAction.trivial(poset))
        assert len(quotient) == len(poset)
        assert are_isomorphic(poset, quotient) is not None


class TestProductOfChains:
    def test_sizes(self):
        assert len(product_of_chains(0, 3)) == 1
        assert len(product_of_chains(3, 2)) == 8

    def test_cover_count(self):
        poset = product_of_chains(2, 3)
        # covers: for each element, one per coordinate that can still grow
        assert len(poset.covers) == 2 * 3 * 2

    def test_boolean_case_matches_subset_lattice(self):
        cube = product_of_chains(3, 2)
        subsets = [frozenset(s) for s in _powerset(range(3))]
        lattice = Poset.from_le(subsets, lambda x, y: x <= y)
        assert are_isomorphic(cube, lattice) is not None

    def test_invalid_arguments(self):
        with pytest.raises(PosetError):
            product_of_chains(-1, 2)
        with pytest.raises(PosetError):
            product_of_chains(2, 0)


class TestClosureImage:
    def test_valid_closure(self):
        from math import lcm

        poset = divisor_poset(12)
        image = closure_image(poset, lambda x: lcm(x, 2))
        assert set(image.elements) == {2, 4, 6, 12}

    def test_identity_closure(self):
        poset = divisor_poset(12)
        image = closure_image(poset, lambda x: x)
        assert are_isomorphic(poset, image) is not None

    def test_non_inflationary_rejected(self):
        poset = Poset.chain((1, 2))
        with pytest.raises(ClosureLawError) as info:
            closure_image(poset, lambda x: 1)
        assert info.value.law == "inflationary"

    def test_non_idempotent_rejected(self):
        poset = Poset.chain((1, 2, 3))
        with pytest.raises(ClosureLawError) as info:
            closure_image(poset, lambda x: min(x + 1, 3))
        assert info.value.law == "idempotent"

    def test_closure_homotopy_equivalence(self):
        # the image of a closure operator carries the same order-complex homology
        subsets = [frozenset(s) for s in _powerset(range(3)) if s]
        poset = Poset.from_le(subsets, lambda x, y: x <= y)

        def add_zero(s):
            return s | {0}

        image = closure_image(poset, add_zero)
        assert simplicial_homology(order_complex(image)) == simplicial_homology(
            order_complex(poset)
        )


class TestIsomorphism:
    def test_non_isomorphic_same_size(self):
        chain = Poset.chain("abc")
        vee = Poset("xyz", {(0, 1), (0, 2)})
        assert are_isomorphic(chain, vee) is None

    def test_check_isomorphism_rejects_bad_map(self):
        chain = Poset.chain("ab")
        other = Poset.chain("xy")
        assert not check_isomorphism(chain, other, {"a": "y", "b": "x"})
        assert check_isomorphism(chain, other, {"a": "x", "b": "y"})

    def test_finds_nontrivial_isomorphism(self):
        p = divisor_poset(30)
        subsets = [frozenset(s) for s in _powerset(range(3))]
        q = Poset.from_le(subsets, lambda x, y: x <= y)
        mapping = are_isomorphic(p, q)
        assert mapping is not None
        assert check_isomorphism(p, q, mapping)

    @given(st.permutations(list(range(6))))
    @settings(max_examples=25, deadline=None)
    def test_relabeling_is_isomorphic(self, perm):
        poset = product_of_chains(2, 2)  # 4 elements; relabel via a chain poset
        chain = Poset.chain(tuple(perm[:4]))
        base = Poset.chain((0, 1, 2, 3))
        mapping = are_isomorphic(base, chain)
        assert mapping is not None
