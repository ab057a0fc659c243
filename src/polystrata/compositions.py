"""Compositions, number-partitions and the merged-set encoding.

A composition of n is a tuple of positive parts; its merged set is the subset
of positions i in [n-1] where slots i and i+1 of [n] fall in the same part
(the complement of the partial-sum set).  Coarsening a composition by merging
adjacent parts corresponds exactly to enlarging the merged set, which turns
the refinement order into plain set inclusion.

Merged and partial-sum sets are ints over n - 1 bits, bit p - 1 standing for
position p: inclusion is ``not a & ~b`` and coarsening is a submask walk.
Every decoder reads the binary string ``bin(mask)[:1:-1]``, bit 0 first; so
does ``strata``, which reads its cell keys with ``_parts`` and ``_mask_order``.

Here live the two posets of a type, without the one-part composition: the
unions of the merged sets of its compositions (C_lambda), and all coarsenings
of its compositions, both read off one coarsening pass (``_coarsenings``),
C_lambda's masks by one rule (``_unions``, which ``iterated`` shares); and
the complex generated by their partial-sum faces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import and_, index

from .homology import HomologyResult, SimplicialComplex, simplicial_homology
from .posets import (
    check_isomorphism,
    closure_image,
    face_poset,
    inclusion_poset,
    order_complex,
)


def as_composition(parts):
    """A tuple of positive integer parts; any other part raises ValueError."""
    try:
        parts = tuple(map(index, parts))
    except TypeError as exc:
        raise ValueError("composition parts must be integers: %s" % exc) from None
    if parts and min(parts) < 1:
        raise ValueError("composition parts must be positive: %r" % (parts,))
    return parts


def as_partition(parts):
    """Normalize to an ascending tuple (the type of a composition)."""
    return tuple(sorted(as_composition(parts)))


def nonempty_partition(parts):
    """``as_partition``, refusing the empty type (weight 0)."""
    if partition := as_partition(parts):
        return partition
    raise ValueError("need weight >= 1")


def parse_parts(text):
    """The type written as comma-separated parts: '2,1,1' is (1, 1, 2)."""
    try:
        return as_partition(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError("cannot parse %r as comma-separated parts" % text) from exc


def weight(parts):
    return sum(parts)


def multiplicities(partition):
    """Multiplicity e_i of each part value i, as a dict."""
    out = {}
    for a in partition:
        out[a] = out.get(a, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Merged-set encoding


def positions(mask):
    """The positions in a mask, ascending (bit p - 1 is position p)."""
    return tuple([p for p, c in enumerate(bin(mask)[:1:-1], 1) if c == "1"])


def _parts(key):
    """The composition whose boundary set is ``key``: bit 0, bit p for each
    partial sum p and bit n.  From bit 0 up, part a reads 1 then a - 1 zeros."""
    return tuple([len(z) + 1 for z in bin(key)[:1:-1].split("1")[1:-1]])


_SWAP = str.maketrans("01", "10")


def _mask_order(mask):
    """The bits from bit 0 up, 0 and 1 swapped: the positions' order on masks
    of one size (not across sizes: 0 sorts after 1), composition order on
    boundary sets (a part a reads 0 then a - 1 ones)."""
    return bin(mask)[:1:-1].translate(_SWAP)


def submasks(mask):
    """Every submask of ``mask``, from ``mask`` itself down to 0."""
    s = mask
    while True:
        yield s
        if not s:
            return
        s = (s - 1) & mask


def _by_size(mask):
    """Sort key: fewer positions first, then the positions lexicographically."""
    return mask.bit_count(), _mask_order(mask)


def partial_sums(parts):
    """The proper partial sums P_1, ..., P_{t-1} as a mask."""
    acc, out = 0, 0
    for a in parts[:-1]:
        acc += a
        out |= 1 << (acc - 1)
    return out


def merged_set(parts):
    """Positions of [n-1] merged by the composition (complement of partial sums)."""
    return ((1 << (weight(parts) - 1)) - 1) & ~partial_sums(parts)


def composition_from_partial_sums(n, sums):
    if sums < 0 or sums >> (n - 1):
        raise ValueError("positions must lie in 1..%d" % (n - 1))
    return _parts(1 | sums << 1 | 1 << n)


def composition_from_merged_set(n, mask):
    return composition_from_partial_sums(n, ((1 << (n - 1)) - 1) ^ mask)


def compositions_of_type(partition):
    """Distinct orderings of the part multiset, lexicographically.

    Each part value in turn takes every combination of the slots still free
    (marked 0, as parts are positive); the orderings are sorted once.
    """
    partition = as_partition(partition)
    fills = [[0] * len(partition)]
    for value, count in multiplicities(partition).items():
        grown = []
        for fill in fills:
            for chosen in combinations([i for i, v in enumerate(fill) if not v], count):
                order = fill.copy()
                for i in chosen:
                    order[i] = value
                grown.append(order)
        fills = grown
    return sorted(map(tuple, fills))


# ---------------------------------------------------------------------------
# The coarsening poset of a type


def _coarsenings(partition):
    """Each coarsening M of a type composition but the one-part composition,
    mapped to the OR of the type merged sets inside M.

    One walk over the pairs (type composition c, submask s of its partial
    sums) reaches M = merged_set(c) | s from every c whose merged set lies in
    M, so M is a union of type merged sets exactly when its OR equals M.
    """
    out = {}
    for c in compositions_of_type(partition):
        g = merged_set(c)
        for m in map(g.__or__, submasks(partial_sums(c))):
            out[m] = out.get(m, 0) | g
    out.pop((1 << (weight(partition) - 1)) - 1)
    return out


def _unions(partition):
    """C_lambda's masks: the coarsenings whose OR of type merged sets is themselves."""
    return [m for m, u in _coarsenings(partition).items() if u == m]


def _poset_of_merged_sets(n, masks):
    masks = sorted(masks, key=_by_size)
    return inclusion_poset([composition_from_merged_set(n, m) for m in masks], masks)


def c_lambda_poset(partition):
    """Poset of unions of type merged sets, ordered by inclusion.

    The fully merged position set (the one-part composition) is excluded;
    element keys are the corresponding compositions.
    """
    partition = nonempty_partition(partition)
    return _poset_of_merged_sets(weight(partition), _unions(partition))


def coarsening_poset(partition):
    """All coarsenings of the type compositions except the one-part composition.

    This up-closure contains the union-generated poset and is homotopy
    equivalent to it (sending a composition to the union of the type merged
    sets below it is a homotopy equivalence), but the two differ as posets
    whenever a part repeats: a coarsening need not be a union of type merged
    sets.  The quotient of the permutahedron face poset by the Young subgroup
    matches this poset, not the union-generated one.
    """
    partition = nonempty_partition(partition)
    return _poset_of_merged_sets(weight(partition), _coarsenings(partition))


# ---------------------------------------------------------------------------
# The partial-sum face complex of a type


@dataclass(frozen=True)
class LabeledComplex:
    """A partial-sum complex whose faces carry composition labels, made when read."""

    complex: SimplicialComplex

    @cached_property
    def labels(self):
        """Face tuple (of vertex indices) -> its composition."""
        n = len(self.complex.vertices) + 1
        return {
            face: composition_from_partial_sums(n, _face_mask(face))
            for face in self.complex.faces
        }

    def to_json(self):
        """The vertices, the faces and each face's label, keyed by its vertices."""
        return json.dumps(
            {
                "vertices": list(self.complex.vertices),
                "faces": sorted(map(list, self.complex.faces)),
                "labels": {
                    ",".join(map(str, f)): list(c) for f, c in sorted(self.labels.items())
                },
            }
        )

    def to_dot(self, name):
        """The face poset of the complex, in DOT."""
        return face_poset(self.complex).to_dot(name)


def _face_mask(face):
    """Vertex i of a partial-sum face is position i + 1, that is bit i."""
    return sum(1 << i for i in face)


def delta_lambda_complex(partition):
    """Downward closure of the partial-sum faces of all type compositions.

    Vertex i (0-based index) stands for position i+1 of [n-1].  The face of a
    composition with t >= 2 parts is its partial-sum set; the all-ones
    composition contributes the full top face, so the complex is a subcomplex
    of the full simplex on [n-1].  Weight 1 gives the empty complex.
    """
    partition = nonempty_partition(partition)
    n = weight(partition)
    vertices = tuple(range(1, n))
    tops = [
        tuple(p - 1 for p in positions(partial_sums(c)))
        for c in compositions_of_type(partition)
        if len(c) >= 2
    ]
    return LabeledComplex(SimplicialComplex.generated(vertices, tops))


# ---------------------------------------------------------------------------
# Collapsing the face poset onto the coarsening poset


@dataclass(frozen=True)
class CollapseReport:
    partition: tuple
    isomorphism: dict | None
    face_poset_homology: HomologyResult
    c_lambda_homology: HomologyResult

    @property
    def homology_match(self):
        return self.face_poset_homology == self.c_lambda_homology

    @property
    def passed(self):
        return self.isomorphism is not None and self.homology_match


def closure_collapse_report(partition):
    """Collapse the face poset of the partial-sum complex onto its facet skeleton.

    The operator sends a face to the intersection of all facets containing it;
    this is a closure operator on the inclusion-ordered face poset.  Its image
    must be C_lambda with the order reversed, through the map sending a face
    to the composition with those partial sums; that map is the certificate,
    checked with ``check_isomorphism``.  The order complexes on both sides
    must have equal reduced homology.
    """
    partition = as_partition(partition)
    delta = delta_lambda_complex(partition)
    faces = face_poset(delta.complex)
    facets = [_face_mask(f) for f in delta.complex.facets()]

    def closure(face):
        m = _face_mask(face)
        meet = reduce(and_, [g for g in facets if not m & ~g])
        return tuple(p - 1 for p in positions(meet))

    image = closure_image(faces, closure)
    c_poset = c_lambda_poset(partition)
    iso = {face: delta.labels[face] for face in image.elements}
    return CollapseReport(
        partition,
        iso if check_isomorphism(image, c_poset.dual(), iso) else None,
        simplicial_homology(order_complex(faces)),
        simplicial_homology(order_complex(c_poset)),
    )
