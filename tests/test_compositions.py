import re
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polystrata.compositions import (
    _by_size,
    _mask_order,
    as_composition,
    as_partition,
    c_lambda_poset,
    closure_collapse_report,
    coarsening_poset,
    composition_from_merged_set,
    composition_from_partial_sums,
    compositions_of_type,
    delta_lambda_complex,
    merged_set,
    multiplicities,
    parse_parts,
    partial_sums,
    positions,
    submasks,
    weight,
)
from polystrata.homology import HomologyResult, simplicial_homology, sphere_homology
from polystrata.posets import order_complex
from polystrata.verify import partitions_of

compositions = st.lists(st.integers(1, 6), min_size=1, max_size=6).map(tuple)


def coarsenings(parts):
    """Oracle: every composition made by merging runs of adjacent parts."""
    out = []
    for cuts in product((False, True), repeat=len(parts) - 1):
        merged = [parts[0]]
        for cut, part in zip(cuts, parts[1:]):
            if cut:
                merged.append(part)
            else:
                merged[-1] += part
        out.append(tuple(merged))
    return out


def union_closure(masks):
    """Oracle: the unions of all nonempty subfamilies of ``masks``."""
    closure = set()
    for g in masks:
        closure |= {g | u for u in closure}
        closure.add(g)
    return closure


def element_masks(poset):
    return [merged_set(c) for c in poset.elements]


class TestBasics:
    def test_as_composition_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            as_composition((1, 0))

    @pytest.mark.parametrize("part", [1.5, Fraction(3, 2)])
    def test_as_composition_rejects_non_integers(self, part):
        # a part is never truncated to an int
        with pytest.raises(ValueError, match="must be integers"):
            as_composition((1, part))

    def test_as_composition_keeps_integers(self):
        assert as_composition([3, 1, 2]) == (3, 1, 2)
        assert as_composition(a for a in (2, 2)) == (2, 2)
        assert as_composition(()) == ()

    def test_as_partition_sorts(self):
        assert as_partition((3, 1, 2)) == (1, 2, 3)

    def test_parse_parts(self):
        assert parse_parts("1,1,2") == (1, 1, 2)
        assert parse_parts("2,1,1") == (1, 1, 2)  # the type: parts sorted
        with pytest.raises(ValueError):
            parse_parts("1,x")

    def test_multiplicities(self):
        assert multiplicities((1, 1, 3)) == {1: 2, 3: 1}

    def test_compositions_of_count(self):
        # the coarsenings of (1, ..., 1) are all 2^(n-1) compositions of n
        for n in range(1, 7):
            result = coarsenings((1,) * n)
            assert len(set(result)) == 2 ** (n - 1)
            assert all(sum(c) == n for c in result)

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


# ---------------------------------------------------------------------------
# The per-bit decoders that reading binary strings replaced, kept as oracles


def positions_oracle(mask):
    return tuple(p + 1 for p in range(mask.bit_length()) if mask >> p & 1)


def from_partial_sums_oracle(n, sums):
    if sums < 0 or sums >> (n - 1):
        raise ValueError("positions must lie in 1..%d" % (n - 1))
    bounds = (0,) + positions_oracle(sums) + (n,)
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def by_size_oracle(mask):
    return mask.bit_count(), positions_oracle(mask)


class TestDecoders:
    @pytest.mark.parametrize("n", range(1, 14))
    def test_match_per_bit_oracles(self, n):
        masks = range(2 ** (n - 1))
        full = masks[-1]
        for m in masks:
            assert positions(m) == positions_oracle(m)
            assert composition_from_partial_sums(n, m) == from_partial_sums_oracle(n, m)
            assert composition_from_merged_set(n, m) == from_partial_sums_oracle(
                n, full ^ m
            )
        assert sorted(masks, key=_by_size) == sorted(masks, key=by_size_oracle)

    def test_mask_order_sorts_one_size_by_positions(self):
        by_size = {}
        for m in range(2**12):
            by_size.setdefault(m.bit_count(), []).append(m)
        for masks in by_size.values():
            assert sorted(masks, key=_mask_order) == sorted(masks, key=positions_oracle)
        # across sizes it does not: 0 sorts after (1,), hence positions as the
        # sort key of c_lambda_d_poset
        assert _mask_order(0) > _mask_order(1)
        assert positions(0) < positions(1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_out_of_range_messages(self, n):
        for sums in (-1, -6, 2 ** (n - 1), 2 ** (n - 1) + 3, 2**n, 2 ** (n + 3)):
            with pytest.raises(ValueError) as expected:
                from_partial_sums_oracle(n, sums)
            message = re.escape(str(expected.value))
            with pytest.raises(ValueError, match="^%s$" % message):
                composition_from_partial_sums(n, sums)
            with pytest.raises(ValueError, match="^%s$" % message):
                composition_from_merged_set(n, ((1 << (n - 1)) - 1) ^ sums)


# ---------------------------------------------------------------------------
# Set partitions: the interval-partition view of merged-set unions, kept as
# the oracle of TestSetPartitions


def as_set_partition(blocks):
    blocks = frozenset(frozenset(b) for b in blocks)
    if any(not b for b in blocks):
        raise ValueError("empty block")
    elems = [x for b in blocks for x in b]
    if len(elems) != len(set(elems)):
        raise ValueError("blocks are not disjoint")
    return blocks


def partition_join(pi, rho):
    """Join in the partition lattice: components of the union of block relations."""
    pi, rho = as_set_partition(pi), as_set_partition(rho)
    ground_pi = {x for b in pi for x in b}
    ground_rho = {x for b in rho for x in b}
    if ground_pi != ground_rho:
        raise ValueError("ground-set mismatch")
    parent = {x: x for x in ground_pi}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for block in list(pi) + list(rho):
        first = min(block)
        for x in block:
            union(first, x)
    out = {}
    for x in ground_pi:
        out.setdefault(find(x), set()).add(x)
    return as_set_partition(out.values())


def set_partition_of_composition(parts):
    """The interval set-partition |1..a1|a1+1..a1+a2|... of [n]."""
    blocks, start = [], 1
    for a in parts:
        blocks.append(frozenset(range(start, start + a)))
        start += a
    return as_set_partition(blocks)


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
        distinct = [
            p for n in range(1, 11) for p in partitions_of(n) if len(set(p)) == len(p)
        ]
        assert len(distinct) == 42
        for partition in distinct:
            union_poset = c_lambda_poset(partition)
            up_closure = coarsening_poset(partition)
            assert union_poset.elements == up_closure.elements, partition
            assert union_poset.covers == up_closure.covers, partition

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
        assert simplicial_homology(order_complex(poset)) == HomologyResult.of({})

    @pytest.mark.parametrize("partition", [(1, 2), (1, 1, 2), (2, 2), (1, 1, 3)])
    def test_posets_are_homotopy_equivalent(self, partition):
        small = simplicial_homology(order_complex(c_lambda_poset(partition)))
        large = simplicial_homology(order_complex(coarsening_poset(partition)))
        assert small == large

    def test_masks_match_oracles(self):
        # C_lambda is the union closure of the type merged sets, the
        # coarsening poset their up-closure; neither holds the full set
        types = [p for n in range(1, 13) for p in partitions_of(n)]
        assert len(types) == 271
        for partition in types:
            gens = {merged_set(c) for c in compositions_of_type(partition)}
            full = (1 << (weight(partition) - 1)) - 1
            unions = union_closure(gens) - {full}
            up = {m for m in range(full) if any(not g & ~m for g in gens)}
            assert set(element_masks(c_lambda_poset(partition))) == unions, partition
            assert set(element_masks(coarsening_poset(partition))) == up, partition

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(
            [p for n in range(5, 15) for p in partitions_of(n) if 5 <= len(p) <= 6]
        )
    )
    def test_c_lambda_covers_are_inclusions(self, partition):
        # the poset-export range: C_lambda lies inside the coarsening poset,
        # and each cover is an inclusion with no C_lambda mask strictly between
        poset = c_lambda_poset(partition)
        masks = element_masks(poset)
        inside = set(masks)
        assert inside <= set(element_masks(coarsening_poset(partition)))
        for a, b in poset.covers:
            low, high = masks[a], masks[b]
            assert low != high and not low & ~high
            gap = high & ~low
            assert not [s for s in submasks(gap) if s not in (0, gap) and low | s in inside]


class TestDeltaComplex:
    def test_two_part_type(self):
        delta = delta_lambda_complex((1, 2))
        # two vertices (cut after 1 or after 2), no edges
        assert simplicial_homology(delta.complex) == sphere_homology(0)
        assert delta.labels[(0,)] == (1, 2)
        assert delta.labels[(1,)] == (2, 1)

    def test_all_ones_gives_full_simplex(self):
        delta = delta_lambda_complex((1, 1, 1))
        assert len(delta.complex.faces) == 3
        assert simplicial_homology(delta.complex) == HomologyResult.of({})

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

    def test_weight_one_is_empty(self):
        delta = delta_lambda_complex((1,))
        assert delta.complex.vertices == () and not delta.complex.faces
        assert simplicial_homology(delta.complex) == sphere_homology(-1)


class TestClosureCollapse:
    @pytest.mark.parametrize(
        "partition",
        [(1,), (1, 1), (1, 2), (2, 2), (1, 1, 2), (1, 1, 1, 1), (1, 2, 3)],
    )
    def test_collapse_report_passes(self, partition):
        report = closure_collapse_report(partition)
        assert report.passed
        assert report.homology_match

    @pytest.mark.parametrize("n", range(2, 8))
    def test_isomorphism_is_the_partial_sum_map(self, n):
        # a face of Delta_lambda goes to the composition with those partial sums
        for partition in partitions_of(n):
            expected = {
                tuple(p - 1 for p in positions(partial_sums(c))): c
                for c in c_lambda_poset(partition).elements
            }
            assert closure_collapse_report(partition).isomorphism == expected

    def test_face_poset_matches_delta_homology(self):
        partition = (1, 1, 3)
        report = closure_collapse_report(partition)
        delta = delta_lambda_complex(partition)
        assert report.face_poset_homology == simplicial_homology(delta.complex)
