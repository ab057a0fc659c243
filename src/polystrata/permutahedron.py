"""The face poset of the permutahedron and its Young-subgroup quotients.

Faces of the permutahedron on t letters are ordered set partitions of [t]
with at least two blocks (the improper single-block element is excluded);
merging adjacent blocks of the ordered sequence moves up in the face poset,
so the t! linear orders sit at the bottom.  Everything is combinatorial;
no polytope geometry appears.

For a partition with all subset sums behaving freely the quotient of the
face poset by the Young subgroup permuting equal parts is isomorphic to the
coarsening poset of the type, via summing the parts over each block.  With
a resonance present the block-sum map collides; the report exhibits a
witness instead of an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .compositions import as_partition, c_lambda_poset, coarsening_poset
from .homology import HomologyResult, simplicial_homology, sphere_homology
from .posets import (
    GroupAction,
    Poset,
    check_isomorphism,
    order_complex,
    quotient_poset,
)
from .resonance import primitive_identities


def ordered_set_partitions(t, min_blocks=1):
    """Ordered set partitions of [t], as tuples of sorted element tuples."""
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


def merge_adjacent_blocks(blocks, i):
    """Merge blocks i and i+1 (0-based) of an ordered set partition."""
    merged = tuple(sorted(blocks[i] + blocks[i + 1]))
    return blocks[:i] + (merged,) + blocks[i + 2 :]


def permutahedron_face_poset(t):
    """Ordered set partitions of [t] with >= 2 blocks; finer below coarser."""
    if t < 2:
        raise ValueError("need t >= 2")
    elements = ordered_set_partitions(t, min_blocks=2)
    index = {e: i for i, e in enumerate(elements)}
    covers = set()
    for blocks in elements:
        if len(blocks) == 2:
            continue  # merging would leave a single block, which is excluded
        for i in range(len(blocks) - 1):
            covers.add((index[blocks], index[merge_adjacent_blocks(blocks, i)]))
    return Poset(elements, covers)


def young_subgroup_action(partition, poset=None):
    """Action of the subgroup permuting positions with equal part values.

    Parts are sorted ascending and assigned to ground elements 1..t; the
    generators are the adjacent transpositions inside each run of equal
    parts, acting on ordered set partitions by relabeling.
    """
    partition = as_partition(partition)
    t = len(partition)
    if poset is None:
        poset = permutahedron_face_poset(t)
    index = {e: i for i, e in enumerate(poset.elements)}
    gens = []
    for p in range(1, t):
        if partition[p - 1] != partition[p]:
            continue
        swap = {p: p + 1, p + 1: p}
        perm = []
        for blocks in poset.elements:
            image = tuple(
                tuple(sorted(swap.get(x, x) for x in b)) for b in blocks
            )
            perm.append(index[image])
        gens.append(tuple(perm))
    return GroupAction(poset, gens)


def block_sums(partition, blocks):
    """The composition obtained by summing the parts over each block."""
    partition = as_partition(partition)
    return tuple(sum(partition[x - 1] for x in b) for b in blocks)


@dataclass(frozen=True)
class QuotientReport:
    """Outcome of comparing the quotient face poset with the coarsening poset."""

    partition: tuple
    identities: tuple  # primitive identities among the parts
    isomorphism: dict | None  # orbit key -> composition, when applicable
    homology: HomologyResult
    expected: HomologyResult | None  # sphere / zero prediction, when applicable
    collision: tuple | None  # (blocks, blocks, composition) witness when resonant

    @property
    def applicable(self):
        return not self.identities

    @property
    def passed(self):
        if self.applicable:
            return self.isomorphism is not None and (
                self.expected is None or self.homology == self.expected
            )
        return self.collision is not None


def quotient_report(partition):
    """Quotient the face poset by the Young subgroup and compare with C_lambda.

    When the parts admit no primitive identity the block-sum map on orbit
    representatives must be an order-isomorphism onto the coarsening poset,
    whose order complex is a (t-2)-sphere for pairwise distinct parts and
    has vanishing reduced homology when a part repeats.  Otherwise the
    block-sum map collides and a witness pair is returned.

    The target is the full coarsening poset of the type; the union-generated
    subposet is homotopy equivalent but strictly smaller whenever a part
    repeats, and the quotient matches only the former.  The homology check
    may use either; it uses the smaller one.
    """
    partition = as_partition(partition)
    t = len(partition)
    identities = tuple(primitive_identities(partition))
    faces = permutahedron_face_poset(t) if t >= 2 else Poset((), set())
    action = young_subgroup_action(partition, faces) if t >= 2 else GroupAction.trivial(faces)
    quotient = quotient_poset(faces, action)
    c_poset = coarsening_poset(partition)
    homology = simplicial_homology(order_complex(c_lambda_poset(partition)))
    if identities:
        seen = {}
        collision = None
        for orbit in quotient.elements:
            comp = block_sums(partition, orbit[0])
            if comp in seen:
                collision = (seen[comp], orbit[0], comp)
                break
            seen[comp] = orbit[0]
        return QuotientReport(partition, identities, None, homology, None, collision)
    mapping = {
        orbit: block_sums(partition, orbit[0]) for orbit in quotient.elements
    }
    iso = mapping if check_isomorphism(quotient, c_poset, mapping) else None
    if len(set(partition)) == t:
        expected = sphere_homology(t - 2)
    else:
        expected = HomologyResult.of({})
    return QuotientReport(partition, identities, iso, homology, expected, None)
