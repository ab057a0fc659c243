"""Homology of compactified strata of hyperbolic polynomials.

Three independent pipelines compute the reduced homology of the one-point
compactification of the closed stratum of a type: the cellular chain complex
of the closure, the order complex of the coarsening poset shifted by a double
suspension, and the partial-sum face complex shifted the same way.  They must
agree; the default invocation runs all three and treats disagreement as a
fatal implementation error.

Each pipeline is written once, in ``PIPELINES`` (backend name -> homology of
a type; ``hyp_homology`` shifts the two complexes').  Every command and suite
that runs a pipeline looks its entry up there at call time.

Closed-form predictors cover hook types (one part k, the rest 1's) and
resonance-free types: distinct parts give a t-sphere, a repeated part kills
all reduced homology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compositions import c_lambda_poset, delta_lambda_complex, nonempty_partition
from .homology import (
    HomologyResult,
    simplicial_homology,
    sphere_homology,
    suspension_shift,
)
from .posets import order_complex
from .resonance import is_free_of_resonances
from .strata import pol_homology

PIPELINES = {
    "cells": lambda p: pol_homology(p, sum(p)),
    "order-complex": lambda p: simplicial_homology(order_complex(c_lambda_poset(p))),
    "delta": lambda p: simplicial_homology(delta_lambda_complex(p).complex),
}
BACKENDS = tuple(PIPELINES)


class BackendDisagreement(Exception):
    """Two pipelines computed different homology for the same type."""

    def __init__(self, partition, tables):
        self.partition = partition
        self.tables = tables
        lines = ["pipelines disagree for %r:" % (partition,)]
        lines += ["  %-14s %s" % (name, h) for name, h in tables.items()]
        super().__init__("\n".join(lines))


def hyp_homology(partition, backend=None):
    """Reduced homology of the compactified closed stratum of a type.

    ``backend`` picks one pipeline; by default all three run and must agree.
    """
    partition = nonempty_partition(partition)
    if backend is None:
        tables = {name: hyp_homology(partition, name) for name in BACKENDS}
        first = next(iter(tables.values()))
        if any(h != first for h in tables.values()):
            raise BackendDisagreement(partition, tables)
        return first
    if backend not in PIPELINES:
        raise ValueError("unknown backend %r" % backend)
    result = PIPELINES[backend](partition)
    return result if backend == "cells" else suspension_shift(result, 2)


@dataclass(frozen=True)
class Prediction:
    """A closed-form answer: a sphere of some dimension, a point, or neither."""

    kind: str  # "sphere" | "point" | "none"
    dimension: int | None = None
    source: str = ""

    def homology(self):
        if self.kind == "sphere":
            return sphere_homology(self.dimension)
        if self.kind == "point":
            return HomologyResult.of({})
        raise ValueError("no homology for an empty prediction")

    def matches(self, result):
        return self.kind != "none" and result == self.homology()


def hook_prediction(n, k):
    """Predicted compactified-stratum homotopy type for the type (1^(n-k), k).

    Sphere of dimension 2(n-1)/k when n = 1 mod k, of dimension 2n/k - 1
    when n = 0 mod k, and a point otherwise.
    """
    if k < 2 or k > n:
        raise ValueError("need 2 <= k <= n")
    if n % k == 1:
        return Prediction("sphere", 2 * (n - 1) // k, "hook, n = 1 mod k")
    if n % k == 0:
        return Prediction("sphere", 2 * n // k - 1, "hook, n = 0 mod k")
    return Prediction("point", None, "hook, other residue")


def resonance_free_prediction(partition):
    """t-sphere for distinct resonance-free parts, point for a repeated part."""
    partition = nonempty_partition(partition)
    if not is_free_of_resonances(partition):
        return Prediction("none", None, "resonances present")
    t = len(partition)
    if len(set(partition)) == t:
        return Prediction("sphere", t, "resonance-free, distinct parts")
    return Prediction("point", None, "resonance-free, repeated part")
