"""Partition identities among the parts of a composition.

A primitive partition identity is an unordered pair of disjoint nonempty index
subsets with equal part sums whose two sides share no part value.  A
composition is free of resonances when it admits none.

Since each part value sits on one side or on none, an identity is decided by
part values alone: a signed count c_v in [-e_v, e_v] for each distinct value v
of multiplicity e_v, with sum c_v v = 0.  One walk over the values in
ascending order finds these vectors, pruning once the partial sum exceeds what
the values not yet visited can offset; at worst it visits prod (2 e_v + 1)
count vectors.  Index pairs are expanded from the vectors only when asked for.
"""

from __future__ import annotations

from itertools import chain, combinations, product

from .compositions import as_composition


def _value_identities(parts):
    """Yield each vector of (value, count) pairs, nonzero counts only, with
    sum count * value = 0; the first count is positive, so each sign pair of
    vectors comes once."""
    values = sorted(set(parts))
    mult = [parts.count(v) for v in values]
    room = [sum(parts)]  # room[k]: the largest |sum| values[k:] can offset
    for v, e in zip(values, mult):
        room.append(room[-1] - e * v)

    def walk(k, total, vector):
        if abs(total) > room[k]:
            return
        if k == len(values):
            if vector:
                yield vector
            return
        for c in range(-mult[k] if vector else 0, mult[k] + 1):
            step = ((values[k], c),) if c else ()
            yield from walk(k + 1, total + c * values[k], vector + step)

    return walk(0, 0, ())


def primitive_identities(parts):
    """Primitive partition identities of a composition, as sorted (I, J) pairs
    of 1-based index tuples with min(I) < min(J)."""
    parts = as_composition(parts)
    indices = {v: [i for i, a in enumerate(parts, 1) if a == v] for v in set(parts)}
    out = []
    for vector in _value_identities(parts):
        sides = [
            product(*(combinations(indices[v], abs(c)) for v, c in vector if sign * c > 0))
            for sign in (1, -1)
        ]
        for left, right in product(*sides):
            left, right = tuple(sorted(chain(*left))), tuple(sorted(chain(*right)))
            out.append((left, right) if left[0] < right[0] else (right, left))
    return sorted(out)


def is_free_of_resonances(parts):
    """True iff there is no primitive partition identity among the parts."""
    return next(_value_identities(as_composition(parts)), None) is None
