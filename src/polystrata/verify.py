"""Named verification suites shared by the command line and the test surface.

Each suite runs a family of independent cases comparing a computed value
against an expected one and collects them into a report; the report passes
exactly when every case matches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import strata
from .compositions import c_lambda_poset
from .homology import HomologyResult, simplicial_homology
from .hyperbolic import hook_prediction, hyp_homology, resonance_free_prediction
from .iterated import iterated_poset
from .permutahedron import quotient_report
from .posets import are_isomorphic, order_complex, product_of_chains
from .resonance import is_free_of_resonances, primitive_identities

ZERO = HomologyResult.of({})


@dataclass(frozen=True)
class Case:
    label: str
    expected: object
    computed: object

    @property
    def match(self):
        return self.expected == self.computed


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    cases: tuple

    @property
    def passed(self):
        return all(c.match for c in self.cases)

    def to_json(self):
        return json.dumps(
            {
                "suite": self.suite,
                "passed": self.passed,
                "cases": [
                    {
                        "label": c.label,
                        "expected": str(c.expected),
                        "computed": str(c.computed),
                        "match": c.match,
                    }
                    for c in self.cases
                ],
            }
        )

    def to_text(self):
        lines = []
        for c in self.cases:
            status = "ok  " if c.match else "FAIL"
            lines.append("%s %s" % (status, c.label))
            if not c.match:
                lines.append("     expected: %s" % (c.expected,))
                lines.append("     computed: %s" % (c.computed,))
        lines.append(
            "%s: %d/%d cases passed"
            % (self.suite, sum(c.match for c in self.cases), len(self.cases))
        )
        return "\n".join(lines)


def partitions_of(n, max_part=None):
    """Ascending-tuple partitions of n."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for largest in range(1, min(n, max_part) + 1):
        for rest in partitions_of(n - largest, largest):
            out.append(rest + (largest,))
    return out


def hook_suite(n_range=(2, 12), k_range=(2, 12)):
    """Hook types (1^(n-k), k): the predicted sphere/point answer holds."""
    cases = []
    for n in range(n_range[0], n_range[1] + 1):
        for k in range(k_range[0], min(k_range[1], n) + 1):
            partition = (1,) * (n - k) + (k,)
            prediction = hook_prediction(n, k)
            computed = hyp_homology(partition, backend="cells")
            cases.append(
                Case("hook n=%d k=%d" % (n, k), prediction.homology(), computed)
            )
    return VerificationReport("hook", tuple(cases))


def resonance_free_suite(max_weight=12):
    """Resonance-free types: t-sphere for distinct parts, zero for a repeat."""
    cases = []
    for n in range(1, max_weight + 1):
        for partition in sorted(partitions_of(n)):
            prediction = resonance_free_prediction(partition)
            if prediction.kind == "none":
                continue
            computed = hyp_homology(partition, backend="cells")
            cases.append(
                Case("free lambda=%s" % (partition,), prediction.homology(), computed)
            )
    return VerificationReport("resonance-free", tuple(cases))


def quotient_suite(max_t=5, max_weight=12, exemplars=((1, 2, 4, 8), (1, 2, 4, 8, 16))):
    """Young-subgroup quotients of the permutahedron match the coarsening posets.

    Covers every resonance-free type with at most ``max_t`` parts and weight
    at most ``max_weight``, plus distinct-part exemplars reaching t = 4, 5.
    """
    seen = set()
    for n in range(1, max_weight + 1):
        for partition in partitions_of(n):
            if len(partition) <= max_t and is_free_of_resonances(partition):
                seen.add(partition)
    for partition in exemplars:
        if not is_free_of_resonances(partition):
            raise ValueError("exemplar %r has resonances" % (partition,))
        seen.add(tuple(sorted(partition)))
    cases = []
    for partition in sorted(seen, key=lambda p: (sum(p), p)):
        report = quotient_report(partition)
        cases.append(Case("quotient lambda=%s" % (partition,), True, report.passed))
    return VerificationReport("quotient", tuple(cases))


def chain_product_suite(n_range=(2, 6), d_range=(1, 3)):
    """Iterated-composition posets are products of chains of the right size."""
    cases = []
    for n in range(n_range[0], n_range[1] + 1):
        for d in range(d_range[0], d_range[1] + 1):
            poset = iterated_poset(n, d)
            chains = product_of_chains(n - 1, d + 1)
            count_ok = len(poset) == (d + 1) ** (n - 1)
            if len(poset) <= 81:
                iso_ok = are_isomorphic(poset, chains) is not None
            else:
                # construction already verified the explicit merge-count map
                iso_ok = len(chains) == len(poset)
            cases.append(
                Case("iterated n=%d d=%d" % (n, d), True, count_ok and iso_ok)
            )
    return VerificationReport("chain-product", tuple(cases))


def _delta_c_homology(partition):
    return simplicial_homology(order_complex(c_lambda_poset(partition)))


def machine_table_suite():
    """The four reported machine computations for order complexes of C_lambda."""
    cases = []
    for n in range(5, 10):
        partition = (1,) * (n - 4) + (2, 2)
        cases.append(
            Case("zero lambda=%s" % (partition,), ZERO, _delta_c_homology(partition))
        )
    for n in range(7, 12):
        partition = (1,) * (n - 6) + (3, 3)
        cases.append(
            Case("zero lambda=%s" % (partition,), ZERO, _delta_c_homology(partition))
        )
    partition = (1, 2, 3, 5)
    cases.append(
        Case(
            "identities of %s" % (partition,),
            (((1, 2), (3,)), ((2, 3), (4,))),
            tuple(primitive_identities(partition)),
        )
    )
    cases.append(
        Case(
            "rank-3 lambda=%s" % (partition,),
            HomologyResult.of({2: (3, ())}),
            _delta_c_homology(partition),
        )
    )
    partition = (1, 2, 4, 7)
    cases.append(
        Case(
            "identities of %s" % (partition,),
            (((1, 2, 3), (4,)),),
            tuple(primitive_identities(partition)),
        )
    )
    cases.append(
        Case(
            "rank-1 lambda=%s" % (partition,),
            HomologyResult.of({1: (1, ()), 2: (1, ())}),
            _delta_c_homology(partition),
        )
    )
    return VerificationReport("machine-table", tuple(cases))


def d_squared_suite(max_weight=6, max_ambient=10):
    """The boundary operator squares to zero; the uncorrected sign rule fails."""
    cases = []
    for l in range(0, max_weight + 1):
        for partition in partitions_of(l):
            for n in range(max(l, 1), max_ambient + 1):
                if (n - l) % 2:
                    continue
                try:
                    strata.pol_chain_complex(partition, n)  # asserts d(d(x)) = 0
                    ok = True
                except Exception:
                    ok = False
                cases.append(Case("d2 lambda=%s n=%d" % (partition, n), True, ok))
    cell = strata.StratumCell((1, 1), 4)
    literal = strata.boundary_of_chain(
        strata.boundary(cell, literal_parity=True), literal_parity=True
    )
    cases.append(
        Case(
            "literal-parity regression",
            {strata.StratumCell((2, 2), 4): -1},
            literal,
        )
    )
    return VerificationReport("d-squared", tuple(cases))


SUITES = {
    "hook": hook_suite,
    "resonance-free": resonance_free_suite,
    "prop-3-7": quotient_suite,
    "prop-3-11": chain_product_suite,
    "paper-table": machine_table_suite,
    "d-squared": d_squared_suite,
}
