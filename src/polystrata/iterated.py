"""Iterated compositions: nested chains of coarsenings and their cells.

An iterated composition of n of degree d is a chain of merged sets
A_1 <= A_2 <= ... <= A_d inside [n-1], i.e. a chain of d compositions each
coarsening the previous.  Sending each position to the number of levels that
merge it identifies the componentwise order with a direct product of n - 1
chains of d + 1 elements; the poset therefore has (d+1)^(n-1) elements.

Cells of configurations of n points in d-space are indexed by iterated
compositions: positions merged at level s force equal s-th coordinates, and
consecutive points split at level s but joined at level s - 1 (level 0 joins
everything) are weakly ordered in the s-th coordinate.  Only the poset,
dimensions and membership tests live here; boundary maps of these cells for
d >= 2 are out of scope.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from .compositions import (
    as_partition,
    composition_from_merged_set,
    positions,
    type_merged_sets,
    union_closure,
)
from .posets import Poset, check_isomorphism, product_of_chains


@dataclass(frozen=True)
class IteratedComposition:
    """Nested merged sets A_1 <= ... <= A_d inside [n-1]."""

    ambient: int
    levels: tuple  # d sorted position tuples, each a subset of the next

    def __post_init__(self):
        n = self.ambient
        levels = tuple(tuple(sorted(set(int(p) for p in a))) for a in self.levels)
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
    def compositions(self):
        return tuple(
            composition_from_merged_set(self.ambient, sum(1 << (p - 1) for p in a))
            for a in self.levels
        )

    @property
    def dimension(self):
        """n*d minus one for each merged position at each level."""
        return self.ambient * self.degree - sum(len(a) for a in self.levels)

    def merge_counts(self):
        """Per position of [n-1], the number of levels merging it."""
        return tuple(
            sum(1 for a in self.levels if p in a) for p in range(1, self.ambient)
        )

    def to_json(self):
        return json.dumps(
            {"ambient": self.ambient, "levels": [list(a) for a in self.levels]}
        )


def from_merge_counts(n, d, counts):
    """Inverse of merge_counts: position p is merged at the last counts[p] levels."""
    levels = tuple(
        tuple(p for p in range(1, n) if counts[p - 1] >= d - s)
        for s in range(d)
    )
    return IteratedComposition(n, levels)


def iterated_poset(n, d):
    """All iterated compositions of n of degree d, ordered levelwise by inclusion.

    The merge-count coordinates identify it with a product of n - 1 chains of
    cardinality d + 1; the identification is verified on construction.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
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
    poset = Poset(elements, covers)
    chains = product_of_chains(n - 1, d + 1)
    assert check_isomorphism(poset, chains, {e: e.merge_counts() for e in elements})
    return poset


def _blocks(comp):
    """Interval blocks of [n] cut by a composition of n."""
    out, start = [], 1
    for a in comp:
        out.append(tuple(range(start, start + a)))
        start += a
    return out


def cell_contains(pi, config):
    """Ordered membership of a point configuration in the cell of ``pi``.

    ``config`` is a sequence of n points, each a d-tuple of exact numbers, in
    the order matching the block structure.  Positions sharing a block at
    level s must agree in coordinate s; pairs split at level s but joined at
    level s - 1 (level 0 is a single block) must be weakly increasing there.
    """
    n, d = pi.ambient, pi.degree
    config = [tuple(x) for x in config]
    if len(config) != n or any(len(x) != d for x in config):
        raise ValueError("need %d points with %d coordinates each" % (n, d))
    block_of = []  # per level s (0 = the single block), block index per point
    block_of.append([0] * n)
    for comp in pi.compositions:
        assign = [None] * n
        for b, block in enumerate(_blocks(comp)):
            for i in block:
                assign[i - 1] = b
        block_of.append(assign)
    for s in range(1, d + 1):
        for i in range(n):
            for j in range(i + 1, n):
                same = block_of[s][i] == block_of[s][j]
                if same and config[i][s - 1] != config[j][s - 1]:
                    return False
                joined_below = block_of[s - 1][i] == block_of[s - 1][j]
                if not same and joined_below and not config[i][s - 1] <= config[j][s - 1]:
                    return False
    return True


def c_lambda_d_poset(partition, d, include_top=False):
    """Levelwise-union closure of the constant chains over type compositions.

    Levelwise unions of constant chains are constant, so the closure is the
    union closure of the type merged sets, placed diagonally at every level.
    With ``include_top`` false the tuple that is fully merged at every level
    is dropped; for d = 1 this reproduces C_lambda (``c_lambda_poset``).
    """
    if d < 1:
        raise ValueError("need d >= 1")
    partition = as_partition(partition)
    n = sum(partition)
    closure = union_closure(type_merged_sets(partition))
    if not include_top:
        closure.discard((1 << (n - 1)) - 1)
    masks = {IteratedComposition(n, (positions(u),) * d): u for u in closure}
    elements = sorted(masks, key=lambda e: e.levels)
    return Poset.from_le(elements, lambda x, y: not masks[x] & ~masks[y])
