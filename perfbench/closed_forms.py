"""Answers the benchmark knows without the code under test.

Nothing here imports ``polystrata``: these are the benchmark's own closed
forms and counts, used to write reference data and to pick inputs.  Homology
tables use the ``[[degree, betti, [torsion, ...]], ...]`` layout of
``HomologyResult.groups`` with lists in place of tuples.
"""

from __future__ import annotations

from itertools import product


def partitions(n, max_part=None):
    """Ascending-tuple partitions of n (n >= 1), in a fixed order."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for largest in range(1, min(n, max_part) + 1):
        for rest in partitions(n - largest, largest):
            out.append(rest + (largest,))
    return out


def sphere(d):
    return [[d, 1, []]]


ZERO = []


# ---------------------------------------------------------------------------
# Resonances, on part values


def is_resonance_free(partition):
    """No two disjoint groups of parts with no shared value have equal sums.

    Such a pair exists iff some nonzero vector of signed counts s_v, with
    |s_v| at most the multiplicity of the value v, has sum(s_v * v) == 0.
    """
    counts = {}
    for a in partition:
        counts[a] = counts.get(a, 0) + 1
    values = sorted(counts)
    ranges = [range(-counts[v], counts[v] + 1) for v in values]
    for signs in product(*ranges):
        if any(signs) and sum(s * v for s, v in zip(signs, values)) == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Closed-form homology of compactified strata


def hook_table(partition):
    """Table for a hook type (1^(n-k), k) with k >= 2, else None."""
    k = partition[-1]
    if k < 2 or any(a != 1 for a in partition[:-1]):
        return None
    n = sum(partition)
    if n % k == 1:
        return sphere(2 * (n - 1) // k)
    if n % k == 0:
        return sphere(2 * n // k - 1)
    return ZERO


def free_table(partition):
    """Table for a resonance-free type: t-sphere for distinct parts, else zero."""
    if not is_resonance_free(partition):
        return None
    t = len(partition)
    return sphere(t) if len(set(partition)) == t else ZERO


def closed_form_table(partition):
    """The hook or resonance-free answer for hyp_homology, or None."""
    table = hook_table(partition)
    return table if table is not None else free_table(partition)


def shift(table, k):
    return [[q + k, b, list(t)] for q, b, t in table]


# ---------------------------------------------------------------------------
# Iterated-composition posets: products of n - 1 chains of d + 1 elements


def iterated_counts(n, d):
    """(elements, covers) of the product of n - 1 chains of length d + 1."""
    k, m = n - 1, d + 1
    return m**k, k * (m - 1) * m ** (k - 1) if k else 0


# ---------------------------------------------------------------------------
# C_lambda as bitmasks: element and chain counts


def _merged_mask(composition):
    """Bit i - 1 set iff position i of [n-1] is merged (not a partial sum)."""
    n = sum(composition)
    cuts, acc = 0, 0
    for a in composition[:-1]:
        acc += a
        cuts |= 1 << (acc - 1)
    return ((1 << (n - 1)) - 1) & ~cuts


def _orderings(partition):
    out = set()

    def rec(prefix, rest):
        if not rest:
            out.add(prefix)
            return
        for v in set(rest):
            r = list(rest)
            r.remove(v)
            rec(prefix + (v,), r)

    rec((), list(partition))
    return out


def c_lambda_masks(partition):
    """Union closure of the type's merged sets, minus the full set."""
    full = (1 << (sum(partition) - 1)) - 1
    closure = {_merged_mask(c) for c in _orderings(partition)}
    frontier = set(closure)
    while frontier:
        new = {a | b for a in frontier for b in closure} - closure
        closure |= new
        frontier = new
    closure.discard(full)
    return sorted(closure, key=lambda m: (bin(m).count("1"), m))


def closure_cell_count(partition):
    """Cells of the closure of the type's stratum in degree |lambda|.

    They are the compositions coarser than some type composition, that is the
    merged sets containing a type merged set.
    """
    n = sum(partition)
    seen = {_merged_mask(c) for c in _orderings(partition)}
    frontier = list(seen)
    while frontier:
        m = frontier.pop()
        for bit in range(n - 1):
            up = m | 1 << bit
            if up not in seen:
                seen.add(up)
                frontier.append(up)
    return len(seen)


def _covers(masks):
    """Cover pairs (i, j) of the inclusion order, indices into ``masks``."""
    index = {m: i for i, m in enumerate(masks)}
    covers = []
    for i, m in enumerate(masks):
        supersets = [x for x in masks if x != m and m & ~x == 0]
        for x in supersets:
            if not any(y != x and y & ~x == 0 and m & ~y == 0 for y in supersets):
                covers.append((i, index[x]))
    return covers


def chain_count(partition):
    """Chains of C_lambda: the faces of its order complex.

    Strictly-below sets are propagated along covers in order of size; the
    number of chains topped by x is 1 plus the chains topped by anything
    strictly below x.
    """
    masks = c_lambda_masks(partition)
    lower = [[] for _ in masks]
    for i, j in _covers(masks):
        lower[j].append(i)
    below = [0] * len(masks)  # bitset over indices
    topped = [0] * len(masks)
    for j in range(len(masks)):  # masks are sorted by size: covers go upward
        for i in lower[j]:
            below[j] |= below[i] | (1 << i)
        topped[j] = 1 + sum(topped[i] for i in range(j) if below[j] >> i & 1)
    return sum(topped)
