from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polystrata.compositions import (
    as_composition,
    as_partition,
    c_lambda_poset,
    closure_collapse_report,
    coarsening_poset,
    coarsenings,
    composition_from_merged_set,
    composition_from_partial_sums,
    compositions_of,
    compositions_of_type,
    delta_lambda_complex,
    merged_set,
    multiplicities,
    parse_parts,
    partial_sums,
    partition_join,
    positions,
    set_partition_of_composition,
    submasks,
    type_merged_sets,
    weight,
)
from polystrata.homology import simplicial_homology, sphere_homology
from polystrata.posets import are_isomorphic, order_complex

compositions = st.lists(st.integers(1, 6), min_size=1, max_size=6).map(tuple)


class TestBasics:
    def test_as_composition_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            as_composition((1, 0))

    def test_as_partition_sorts(self):
        assert as_partition((3, 1, 2)) == (1, 2, 3)

    def test_parse_parts(self):
        assert parse_parts("1,1,2") == (1, 1, 2)
        with pytest.raises(ValueError):
            parse_parts("1,x")

    def test_multiplicities(self):
        assert multiplicities((1, 1, 3)) == {1: 2, 3: 1}

    def test_compositions_of_count(self):
        for n in range(1, 7):
            assert len(compositions_of(n)) == 2 ** (n - 1)

    def test_compositions_of_type_count(self):
        # multinomial t! / prod(e_i!)
        for partition in [(1, 2), (1, 1, 3), (2, 2, 2), (1, 2, 3)]:
            t = len(partition)
            expected = factorial(t)
            for e in multiplicities(partition).values():
                expected //= factorial(e)
            result = compositions_of_type(partition)
            assert len(result) == len(set(result)) == expected
            assert all(as_partition(c) == as_partition(partition) for c in result)


class TestMergedSets:
    def test_partial_sums(self):
        assert partial_sums((2, 1, 3)) == 0b00110

    def test_merged_set_complements_partial_sums(self):
        assert merged_set((2, 1, 3)) == 0b11001
        assert positions(merged_set((2, 1, 3))) == (1, 4, 5)

    def test_submasks(self):
        assert list(submasks(0b101)) == [0b101, 0b100, 0b001, 0]
        assert list(submasks(0)) == [0]

    @given(compositions)
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, parts):
        n = weight(parts)
        assert composition_from_merged_set(n, merged_set(parts)) == parts
        assert composition_from_partial_sums(n, partial_sums(parts)) == parts

    @given(compositions, compositions)
    @settings(max_examples=100, deadline=None)
    def test_coarsening_iff_inclusion(self, a, b):
        if weight(a) != weight(b):
            return
        is_coarsening = b in coarsenings(a)
        assert is_coarsening == (not merged_set(a) & ~merged_set(b))

    def test_coarsenings_count(self):
        # one coarsening per subset of the t-1 internal cuts
        for parts in [(1, 1, 1), (2, 3), (1, 2, 1, 2)]:
            assert len(coarsenings(parts)) == 2 ** (len(parts) - 1)

    def test_out_of_range_positions(self):
        with pytest.raises(ValueError):
            composition_from_merged_set(3, 0b100)
        with pytest.raises(ValueError):
            composition_from_partial_sums(3, 0b100)


class TestSetPartitions:
    def test_join(self):
        pi = [{1, 2}, {3}, {4}]
        rho = [{1}, {2, 3}, {4}]
        assert partition_join(pi, rho) == frozenset(
            {frozenset({1, 2, 3}), frozenset({4})}
        )

    def test_join_ground_mismatch(self):
        with pytest.raises(ValueError):
            partition_join([{1}], [{2}])

    @given(compositions, compositions)
    @settings(max_examples=60, deadline=None)
    def test_join_of_interval_partitions_matches_union(self, a, b):
        # interval partitions: join corresponds to union of merged sets
        if weight(a) != weight(b):
            return
        n = weight(a)
        join = partition_join(
            set_partition_of_composition(a), set_partition_of_composition(b)
        )
        merged = composition_from_merged_set(n, merged_set(a) | merged_set(b))
        assert join == set_partition_of_composition(merged)


class TestCoarseningPosets:
    def test_distinct_parts_gives_full_coarsening_poset(self):
        # every coarsening of every ordering appears; the two posets agree
        partition = (1, 2, 3)
        union_poset = c_lambda_poset(partition)
        up_closure = coarsening_poset(partition)
        assert are_isomorphic(union_poset, up_closure) is not None

    def test_repeated_part_posets_differ(self):
        union_poset = c_lambda_poset((1, 1, 3))
        up_closure = coarsening_poset((1, 1, 3))
        assert len(union_poset) == 5
        assert len(up_closure) == 7
        assert set(union_poset.elements) < set(up_closure.elements)

    def test_one_part_type_is_empty(self):
        assert len(c_lambda_poset((4,))) == 0
        assert len(coarsening_poset((4,))) == 0

    def test_all_ones_type(self):
        # the union closure of the single all-ones merged set is a point ...
        assert len(c_lambda_poset((1, 1, 1, 1))) == 1
        # ... while the up-closure is the proper part of the boolean lattice
        poset = coarsening_poset((1, 1, 1, 1))
        assert len(poset) == 2 ** 3 - 1
        assert simplicial_homology(order_complex(poset)).is_zero

    @pytest.mark.parametrize("partition", [(1, 2), (1, 1, 2), (2, 2), (1, 1, 3)])
    def test_posets_are_homotopy_equivalent(self, partition):
        small = simplicial_homology(order_complex(c_lambda_poset(partition)))
        large = simplicial_homology(order_complex(coarsening_poset(partition)))
        assert small == large

    def test_type_merged_sets(self):
        assert type_merged_sets((1, 2)) == {0b01, 0b10}


class TestDeltaComplex:
    def test_two_part_type(self):
        delta = delta_lambda_complex((1, 2))
        # two vertices (cut after 1 or after 2), no edges
        assert simplicial_homology(delta.complex) == sphere_homology(0)
        assert delta.label_of((0,)) == (1, 2)
        assert delta.label_of((1,)) == (2, 1)

    def test_all_ones_gives_full_simplex(self):
        delta = delta_lambda_complex((1, 1, 1))
        assert len(delta.complex.faces) == 3
        assert simplicial_homology(delta.complex).is_zero

    def test_empty_face_set_for_one_part(self):
        delta = delta_lambda_complex((3,))
        assert not delta.complex.faces
        assert simplicial_homology(delta.complex) == sphere_homology(-1)

    def test_labels_cover_all_faces(self):
        delta = delta_lambda_complex((1, 1, 2))
        n = 4
        for face, comp in delta.labels.items():
            assert weight(comp) == n
            assert positions(partial_sums(comp)) == tuple(i + 1 for i in face)

    def test_weight_one_rejected(self):
        with pytest.raises(ValueError):
            delta_lambda_complex((1,))


class TestClosureCollapse:
    @pytest.mark.parametrize(
        "partition", [(1, 1), (1, 2), (2, 2), (1, 1, 2), (1, 1, 1, 1), (1, 2, 3)]
    )
    def test_collapse_report_passes(self, partition):
        report = closure_collapse_report(partition)
        assert report.passed
        assert report.homology_match

    def test_face_poset_matches_delta_homology(self):
        partition = (1, 1, 3)
        report = closure_collapse_report(partition)
        delta = delta_lambda_complex(partition)
        assert report.face_poset_homology == simplicial_homology(delta.complex)
