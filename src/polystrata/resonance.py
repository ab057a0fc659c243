"""Partition identities among the parts of a composition.

A primitive partition identity is an unordered pair of disjoint nonempty index
subsets with equal part sums whose two sides share no part value.  A
composition is free of resonances when it admits none; the property depends
only on the multiset of parts.  Dropping the shared-value filter gives the
full set of resonance hyperplanes containing the point (a_1, ..., a_t).

Enumeration is brute force over the 3^t assignments of each index to the left
side, the right side, or neither; t stays tiny in every use case.
"""

from __future__ import annotations

from itertools import product

from .compositions import as_composition


def _disjoint_pairs(parts):
    """All unordered pairs (I, J) of disjoint nonempty 1-based index subsets
    with equal part sums, canonically ordered with min(I) < min(J)."""
    t = len(parts)
    out = set()
    for signs in product((0, 1, 2), repeat=t):
        left = tuple(i + 1 for i, s in enumerate(signs) if s == 1)
        right = tuple(i + 1 for i, s in enumerate(signs) if s == 2)
        if not left or not right:
            continue
        if sum(parts[i - 1] for i in left) != sum(parts[j - 1] for j in right):
            continue
        pair = (left, right) if left[0] < right[0] else (right, left)
        out.add(pair)
    return sorted(out)


def primitive_identities(parts):
    """Primitive partition identities of a composition, as (I, J) index pairs."""
    parts = as_composition(parts)
    out = []
    for left, right in _disjoint_pairs(parts):
        lvals = {parts[i - 1] for i in left}
        rvals = {parts[j - 1] for j in right}
        if lvals.isdisjoint(rvals):
            out.append((left, right))
    return out


def is_free_of_resonances(parts):
    """True iff there is no primitive partition identity among the parts."""
    return not primitive_identities(parts)


def resonance_hyperplanes(parts):
    """All equal-sum disjoint index pairs (no primitivity filter).

    Empty exactly when the parts are pairwise distinct and free of resonances;
    that equivalence is asserted on every call.
    """
    parts = as_composition(parts)
    pairs = _disjoint_pairs(parts)
    distinct_and_free = len(set(parts)) == len(parts) and is_free_of_resonances(
        parts
    )
    assert (not pairs) == distinct_and_free
    return pairs

