"""Iterated compositions: nested chains of coarsenings and their cells.

An iterated composition of n of degree d is a chain of merged sets
A_1 <= A_2 <= ... <= A_d inside [n-1], i.e. a chain of d compositions each
coarsening the previous.  Sending each position to the number of levels that
merge it identifies the componentwise order with a direct product of n - 1
chains of d + 1 elements; the poset therefore has (d+1)^(n-1) elements.

Cells of configurations of n points in d-space are indexed by iterated
compositions: positions merged at level s force equal s-th coordinates, and
consecutive points split at level s but joined at level s - 1 (level 0 joins
everything) are weakly ordered in the s-th coordinate.  Only the poset and
dimensions live here; boundary maps of these cells for d >= 2 are out of
scope.

``iterated_poset`` reads its covers off the product of chains it is
certified against: the chains' elements are the merge counts, each
element's levels are built straight from them, and each chain cover maps to
a cover of the levels.  The merge counts are still re-read from the levels
and checked against the product of chains on every call.
``c_lambda_d_poset`` reads C_lambda's masks through ``compositions._unions``,
where that rule lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import index

from .compositions import _unions, nonempty_partition, positions
from .homology import InvariantError
from .posets import Poset, check_isomorphism, inclusion_poset, product_of_chains


@dataclass(frozen=True)
class IteratedComposition:
    """Nested merged sets A_1 <= ... <= A_d inside [n-1]."""

    ambient: int
    levels: tuple  # d sorted position tuples, each a subset of the next

    def __post_init__(self):
        n = self.ambient
        try:
            levels = tuple(tuple(sorted(set(map(index, a)))) for a in self.levels)
        except TypeError as exc:
            raise ValueError("positions must be integers: %s" % exc) from None
        object.__setattr__(self, "levels", levels)
        for a in levels:
            if any(p < 1 or p >= n for p in a):
                raise ValueError("positions must lie in 1..%d" % (n - 1))
        for a, b in zip(levels, levels[1:]):
            if not set(a) <= set(b):
                raise ValueError("levels must be nested: %r !<= %r" % (a, b))

    @property
    def degree(self):
        return len(self.levels)

    @property
    def dimension(self):
        """n*d minus one for each merged position at each level."""
        return self.ambient * self.degree - sum(len(a) for a in self.levels)

    def merge_counts(self):
        """Per position of [n-1], the number of levels merging it."""
        counts = [0] * (self.ambient - 1)
        for a in self.levels:
            for p in a:
                counts[p - 1] += 1
        return tuple(counts)


def _unchecked(n, levels):
    """An element whose levels are sorted, nested and in range by construction."""
    e = object.__new__(IteratedComposition)
    object.__setattr__(e, "ambient", n)
    object.__setattr__(e, "levels", levels)
    return e


def _merged_levels(n, d, counts):
    """The d levels merging position p at the last counts[p - 1] of them."""
    return tuple(
        [tuple(compress(range(1, n), map(k.__le__, counts))) for k in range(d, 0, -1)]
    )


def iterated_poset(n, d):
    """All iterated compositions of n of degree d, ordered levelwise by inclusion.

    The merge-count coordinates identify it with a product of n - 1 chains of
    cardinality d + 1; the identification is verified on construction.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    chains = product_of_chains(n - 1, d + 1)
    levels = [_merged_levels(n, d, counts) for counts in chains.elements]
    order = sorted(range(len(levels)), key=levels.__getitem__)
    rank = [0] * len(levels)
    elements = []
    for i, k in enumerate(order):
        rank[k] = i
        elements.append(_unchecked(n, levels[k]))
    poset = Poset(elements, [(rank[a], rank[b]) for a, b in chains.covers])
    if not check_isomorphism(poset, chains, {e: e.merge_counts() for e in elements}):
        raise InvariantError("merge counts do not map onto the product of chains")
    return poset


def c_lambda_d_poset(partition, d):
    """Levelwise-union closure of the constant chains over type compositions.

    Levelwise unions of constant chains are constant, so the closure is
    C_lambda's masks, the coarsenings that are unions of type merged sets,
    placed diagonally at every level.  The tuple that is fully merged at
    every level is dropped; for d = 1 this reproduces C_lambda
    (``c_lambda_poset``).  Elements sort by positions (``_mask_order`` puts
    the empty set after {1}) and are built unchecked.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    partition = nonempty_partition(partition)
    n = sum(partition)
    masks = sorted(_unions(partition), key=positions)
    elements = [_unchecked(n, (positions(u),) * d) for u in masks]
    return inclusion_poset(elements, masks)
