from itertools import permutations, product
from math import factorial

import pytest

from polystrata.homology import HomologyResult, simplicial_homology, sphere_homology
from polystrata.permutahedron import (
    _permutahedron,
    block_sums,
    merge_adjacent_blocks,
    ordered_set_partitions,
    permutahedron_face_poset,
    quotient_report,
    young_orbit_key,
)
from polystrata.posets import order_complex, quotient_poset


def ordered_set_partitions_oracle(t, min_blocks=1):
    """Every assignment of [t] to s numbered blocks, kept when none is empty."""
    out = []
    for s in range(min_blocks, t + 1):
        for assign in product(range(s), repeat=t):
            if set(assign) != set(range(s)):
                continue
            blocks = tuple(
                tuple(i + 1 for i in range(t) if assign[i] == b) for b in range(s)
            )
            out.append(blocks)
    return sorted(out, key=lambda p: (-len(p), p))


def young_orbits_oracle(partition, poset):
    """Orbits of every permutation of [t] preserving the parts, applied by relabelling.

    Each orbit lists its members in index order; orbits sort by least member.
    """
    t = len(partition)
    group = [
        g
        for g in permutations(range(1, t + 1))
        if all(partition[g[x - 1] - 1] == partition[x - 1] for x in range(1, t + 1))
    ]
    orbits = {
        frozenset(
            tuple(tuple(sorted(g[x - 1] for x in b)) for b in blocks) for g in group
        )
        for blocks in poset.elements
    }
    orbits = [tuple(sorted(orbit, key=poset.index)) for orbit in orbits]
    return sorted(orbits, key=lambda orbit: poset.index(orbit[0]))


def equal_part_patterns(t):
    """One ascending type of t parts per pattern of equal adjacent parts."""
    for equal in product((False, True), repeat=t - 1):
        parts = [1]
        for same in equal:
            parts.append(parts[-1] if same else parts[-1] + 1)
        yield tuple(parts)


def fubini(t):
    """Ordered set partitions of [t] (ordered Bell number)."""
    from math import comb

    if t == 0:
        return 1
    return sum(comb(t, k) * fubini(t - k) for k in range(1, t + 1))


class TestOrderedSetPartitions:
    def test_counts(self):
        for t in range(1, 5):
            assert len(ordered_set_partitions(t)) == fubini(t)

    def test_min_blocks_filter(self):
        assert len(ordered_set_partitions(3, min_blocks=2)) == fubini(3) - 1

    def test_blocks_partition_the_ground_set(self):
        for blocks in ordered_set_partitions(3):
            elems = sorted(x for b in blocks for x in b)
            assert elems == [1, 2, 3]
            assert all(b == tuple(sorted(b)) for b in blocks)

    @pytest.mark.parametrize("t", range(7))
    def test_match_assignment_oracle(self, t):
        for min_blocks in range(t + 2):
            assert ordered_set_partitions(t, min_blocks) == (
                ordered_set_partitions_oracle(t, min_blocks)
            )

    def test_merge_adjacent_blocks(self):
        blocks = ((2,), (1, 3), (4,))
        assert merge_adjacent_blocks(blocks, 0) == ((1, 2, 3), (4,))
        assert merge_adjacent_blocks(blocks, 1) == ((2,), (1, 3, 4))


class TestFacePoset:
    def test_small_sizes(self):
        # t=2: the two orderings; t=3: 6 vertices + 6 edges of the hexagon
        assert len(permutahedron_face_poset(2)) == 2
        assert len(permutahedron_face_poset(3)) == 12

    def test_rejects_degenerate(self):
        # refused on every call: a raised error is not memoised
        for t in (1, 0, -1, 1):
            with pytest.raises(ValueError):
                permutahedron_face_poset(t)

    def test_built_once_per_t(self):
        for t in (2, 3, 4, 5):
            poset = permutahedron_face_poset(t)
            assert permutahedron_face_poset(t) is poset
            fresh = _permutahedron.__wrapped__(t)
            assert fresh.elements == poset.elements
            assert fresh.covers == poset.covers

    def test_minimal_elements_are_linear_orders(self):
        poset = permutahedron_face_poset(3)
        elements = poset.elements
        minimal = [x for x in elements if not any(poset.lt(y, x) for y in elements)]
        assert len(minimal) == factorial(3)
        assert all(all(len(b) == 1 for b in blocks) for blocks in minimal)

    def test_boundary_sphere(self):
        # the face poset of a (t-1)-polytope boundary has a (t-2)-sphere order complex
        for t in (2, 3, 4):
            poset = permutahedron_face_poset(t)
            assert simplicial_homology(order_complex(poset)) == sphere_homology(t - 2)


class TestYoungAction:
    # the Young subgroup's orbits, taken as the fibres of young_orbit_key

    def test_distinct_parts_give_trivial_action(self):
        faces = permutahedron_face_poset(3)
        quotient = quotient_poset(faces, young_orbit_key((1, 2, 4)))
        assert quotient.elements == tuple((x,) for x in faces.elements)

    def test_orbit_count_for_swap(self):
        faces = permutahedron_face_poset(2)
        assert len(quotient_poset(faces, young_orbit_key((5, 5)))) == 1

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_fibres_match_orbit_oracle(self, t):
        faces = permutahedron_face_poset(t)
        for partition in equal_part_patterns(t):
            quotient = quotient_poset(faces, young_orbit_key(partition))
            expected = young_orbits_oracle(partition, faces)
            assert list(quotient.elements) == expected, partition


class TestBlockSums:
    def test_sums(self):
        assert block_sums((1, 2, 4), ((1, 3), (2,))) == (5, 2)

    def test_collision_for_resonant_parts(self):
        assert block_sums((1, 2, 3), ((1, 2), (3,))) == block_sums(
            (1, 2, 3), ((3,), (1, 2))
        )[::-1]


class TestQuotientReport:
    def test_distinct_free_parts(self):
        report = quotient_report((1, 2, 4))
        assert report.applicable
        assert report.isomorphism is not None
        assert report.expected == sphere_homology(1)
        assert report.passed

    def test_repeated_free_parts(self):
        report = quotient_report((1, 1, 3))
        assert report.applicable
        assert report.isomorphism is not None
        assert report.homology == HomologyResult.of({})
        assert report.passed

    def test_resonant_parts_give_collision(self):
        report = quotient_report((1, 2, 3))
        assert not report.applicable
        assert report.collision is not None
        blocks_a, blocks_b, comp = report.collision
        assert block_sums((1, 2, 3), blocks_a) == comp
        assert block_sums((1, 2, 3), blocks_b) == comp
        assert report.passed

    def test_quotient_size_matches_coarsening_poset(self):
        from polystrata.compositions import coarsening_poset

        for partition in [(1, 2), (1, 1, 3), (2, 2, 2), (1, 2, 4)]:
            faces = permutahedron_face_poset(len(partition))
            quotient = quotient_poset(faces, young_orbit_key(partition))
            assert len(quotient) == len(coarsening_poset(partition))
