"""A fixed unit of pure-Python work that times the machine, not the package.

On a machine whose cores are shared with other work, the same call runs up
to 1.6 times slower for seconds at a time, and every piece of Python code
slows down together.  ``run.py`` runs one unit right before and right after
each timed call and scales the call's CPU time by ``REFERENCE_S`` over the
unit's time there, the mean of the two.  A scaled time is what the call would
take on a machine where one unit takes ``REFERENCE_S``: it falls in
proportion when the package gets faster, and it no longer follows the
machine's load.

The unit builds the closure of a few small frozensets under union, then sorts
it: hashing, set and tuple work, as in the package's poset and complex
construction.  It never imports the package.
"""

from __future__ import annotations

import random
import statistics

from spans import CLOCK

# CPU seconds of one unit on the baseline machine (see README.md), so that
# scaled times read as that machine's seconds
REFERENCE_S = 0.0025

_rng = random.Random(1)
_BASE = tuple(frozenset(_rng.sample(range(12), 3)) for _ in range(12))


def unit():
    """One unit of work; returns the closure's size, always 378."""
    seen = set(_BASE)
    frontier = list(_BASE)
    while frontier:
        a = frontier.pop()
        for b in _BASE:
            u = a | b
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(sorted(tuple(sorted(s)) for s in seen))


def timed_unit():
    """CPU seconds of one unit."""
    t0 = CLOCK()
    unit()
    return CLOCK() - t0


def sample(k):
    """Median CPU seconds of k units in a row."""
    return statistics.median(timed_unit() for _ in range(k))


def scale(seconds, before, after):
    """``seconds`` of CPU time in reference seconds, given the unit's time
    right before and right after it."""
    return seconds * REFERENCE_S * 2 / (before + after)
