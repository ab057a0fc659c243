"""The four workloads: seeded inputs, the timed call, the answer and its replay.

Every input is a tuple whose first element names its kind.  ``call`` runs the
package's public functions on it and is the only part that is timed;
``answer`` turns what ``call`` returned into plain JSON data that is compared
with ``data/reference.json`` under ``input_key``.  ``replay`` does the same work
from the pipeline's public pieces inside spans of a ``spans.Recorder`` and
returns the same raw result, so a traced run can split the time by module
and still be checked.

Input selection reads only ``data/population.json``, never the code under
test.  The smallest inputs of a population are drawn, one from each run of
STRATUM neighbours by a committed size that predicts cost, so a new seed gives
new inputs without changing the work much.  The larger ones are fixed rungs
spaced over their size range, and there are more rungs than drawn inputs, so
the median input and the slowest ones, which set ``call_p50_ms`` and the tail
percentile, are the same for every seed.  Every call takes at most a few
tenths of a second, so that a run times each input many times (see
``run.py``).
"""

from __future__ import annotations

import hashlib
import random

from closed_forms import partitions

HYP_TOP = (1, 1, 1, 2, 2, 2)  # 11,725 chains; the next type, (1^6,2), has 47,292 and takes 2 s
HYP_HEAVY = 2_000  # size: every 2nd heavier type up to HYP_TOP is a rung
HYP_DRAWN_SHARE = 0.4  # of the lighter types, the smaller 2/5 are drawn ...
HYP_LADDER_STEP = 3  # ... and every 3rd of the others is a rung
HYP_CELL_WEIGHT = 4  # the cost of a closure cell, in C_lambda chains
POL_TOP = ((1,) * 8, 12)  # 2,665 cells; the 16 pairs with more take 0.3-2 s each
POL_DRAWN_SHARE = 0.4  # the smaller 2/5 of the pairs are drawn ...
POL_LADDER_STEP = 4  # ... and every 4th of the others is a rung
VERIFY_MAX_WEIGHT = 10  # the suites go to 12; (1^11) alone takes 1.3 s, (1^12) 6 s
VERIFY_TOP = (1,) * VERIFY_MAX_WEIGHT
VERIFY_EXEMPLARS = ((1, 2, 4, 8),)  # the suite's (1,2,4,8,16) takes 1.1 s
EXPORT_TOP = (1, 1, 2, 5, 5)  # 134 elements; C_lambda of (1,1,2,3,4,5) has 1,582 and takes 4 s
EXPORT_DRAWN_SHARE = 1 / 3  # the smaller third of the types are drawn ...
EXPORT_LADDER_STEP = 3  # ... and every 3rd of the others is a rung
STRATUM = 3  # a draw takes one input from each run of STRATUM similar ones


def key(parts):
    return ",".join(map(str, parts))


def parse_key(text):
    return tuple(int(a) for a in text.split(","))


def table(result):
    """A HomologyResult as the JSON table layout of the reference data."""
    return [[q, b, list(t)] for q, b, t in result.groups]


def _draw_and_ladder(rng, items, size, drawn_share, step):
    """Sorted by size then key, the smaller ``drawn_share`` of the items give
    one drawn item from each run of STRATUM; every ``step``-th of the others
    is a fixed rung."""
    items = sorted(items, key=lambda x: (size(x), x))
    cut = int(len(items) * drawn_share)
    drawn = [rng.choice(items[i : min(i + STRATUM, cut)]) for i in range(0, cut, STRATUM)]
    return drawn + items[cut::step]


# ---------------------------------------------------------------------------
# hyp-sweep: default three-way hyp_homology


def hyp_size(population):
    """{type: size} over every type of weight <= 11, for input selection.

    The order-complex backend grows with chains, the cells backend with cells.
    """
    return {
        parse_key(k): chains + HYP_CELL_WEIGHT * cells
        for k, (chains, cells) in population["hyp_sizes"].items()
    }


def hyp_inputs(rng, population):
    size = hyp_size(population)
    capped = [p for p in size if size[p] <= size[HYP_TOP] and p != HYP_TOP]
    light = [p for p in capped if size[p] <= HYP_HEAVY]
    heavy = sorted((p for p in capped if size[p] > HYP_HEAVY), key=lambda p: (size[p], p))
    types = _draw_and_ladder(rng, light, size.get, HYP_DRAWN_SHARE, HYP_LADDER_STEP)
    types += heavy[::2] + [HYP_TOP]
    return [("hyp", p) for p in types]


def hyp_call(api, x):
    return api.hyp_homology(x[1])


def hyp_replay(api, rec, xid, x):
    """The default call: three backends, then the cross-check."""
    partition = x[1]
    n = sum(partition)
    with rec.span("hyperbolic.hyp_homology", xid):
        tables = {
            "cells": _replay_cells(api, rec, xid, partition, n),
            "order-complex": _replay_order_complex(api, rec, xid, partition),
            "delta": _replay_delta(api, rec, xid, partition, n),
        }
        first = tables["cells"]
        if any(h != first for h in tables.values()):
            raise api.hyperbolic.BackendDisagreement(partition, tables)
    return first


def _replay_cells(api, rec, xid, partition, n):
    with rec.span("hyperbolic.cells", xid):
        return _replay_pol(api, rec, xid, partition, n)


def _replay_chain_homology(api, rec, xid, complex_):
    with rec.span("homology.chain_homology", xid) as s:
        result = api.chain_homology(complex_)
    _count_reduction(s, sum(len(g) for g in complex_.generators.values()), result)
    return result


def _replay_simplicial(api, rec, xid, complex_):
    with rec.span("homology.simplicial_homology", xid) as s:
        result = api.simplicial_homology(complex_)
    # the augmented chain complex: every face plus the empty simplex
    _count_reduction(s, len(complex_.faces) + 1, result)
    return result


def _count_reduction(span, generators, result):
    """Generators, boundary rank sum and torsion factors of one reduction."""
    betti = sum(b for _, b, _ in result.groups)
    span.count("homology.generators", generators)
    span.count("homology.rank", (generators - betti) // 2)
    span.count("homology.torsion_factors", sum(len(t) for _, _, t in result.groups))


def _replay_order_complex(api, rec, xid, partition):
    with rec.span("hyperbolic.order_complex", xid):
        poset = _replay_c_lambda(api, rec, xid, partition)
        with rec.span("posets.order_complex", xid) as s:
            complex_ = api.order_complex(poset)
        s.count("posets.chains", len(complex_.faces))
        result = api.suspension_shift(_replay_simplicial(api, rec, xid, complex_), 2)
    return result


def _replay_c_lambda(api, rec, xid, partition):
    with rec.span("compositions.c_lambda_poset", xid) as s:
        poset = api.c_lambda_poset(partition)
    s.count("compositions.poset_elements", len(poset))
    s.count("compositions.poset_covers", len(poset.covers))
    return poset


def _replay_delta(api, rec, xid, partition, n):
    with rec.span("hyperbolic.delta", xid):
        if n < 2:  # the face complex is empty; the backend answers directly
            return api.hyp_homology(partition, "delta")
        with rec.span("compositions.delta_lambda_complex", xid) as s:
            complex_ = api.delta_lambda_complex(partition).complex
        s.count("compositions.delta_faces", len(complex_.faces))
        result = api.suspension_shift(_replay_simplicial(api, rec, xid, complex_), 2)
    return result


# ---------------------------------------------------------------------------
# pol-ladder: pol_homology(lambda, n), the cells pipeline alone


def pol_size(population):
    """{(type, n): closure cells} over the pol-ladder population."""
    cells = {}
    for k, c in population["pol_cells"].items():
        parts, n = k.split("@")
        cells[(parse_key(parts), int(n))] = c
    return cells


def pol_inputs(rng, population):
    cells = pol_size(population)
    pairs = [p for p in cells if cells[p] <= cells[POL_TOP] and p != POL_TOP]
    pairs = _draw_and_ladder(rng, pairs, cells.get, POL_DRAWN_SHARE, POL_LADDER_STEP)
    return [("pol", p, n) for p, n in pairs + [POL_TOP]]


def pol_call(api, x):
    return api.pol_homology(x[1], x[2])


def pol_replay(api, rec, xid, x):
    with rec.span("strata.pol_homology", xid):
        return _replay_pol(api, rec, xid, x[1], x[2])


def _replay_pol(api, rec, xid, partition, n):
    with rec.span("strata.closure_cells", xid) as s:
        cells = api.closure_cells(partition, n)
    s.count("strata.cells", len(cells))
    with rec.span("strata.pol_chain_complex", xid) as s:
        complex_ = api.pol_chain_complex(partition, n)
    s.count(
        "strata.boundary_nnz",
        sum(len(col) for cols in complex_.boundaries.values() for col in cols.values()),
    )
    return _replay_chain_homology(api, rec, xid, complex_)


# ---------------------------------------------------------------------------
# verify-sweep: the per-case work of resonance-free, prop-3-7 and prop-3-11


def verify_inputs(rng, population):
    cases = [("type", p) for w in range(1, VERIFY_MAX_WEIGHT + 1) for p in partitions(w)]
    cases += [("quotient", p) for p in VERIFY_EXEMPLARS]
    # prop-3-11: two of the three degrees for n < 4, where every poset is
    # smaller than the median case; every degree for the larger n
    for n in (2, 3):
        cases += [("iterated", n, d) for d in sorted(rng.sample((1, 2, 3), 2))]
    cases += [("iterated", n, d) for n in (4, 5, 6) for d in (1, 2, 3)]
    return cases


def verify_call(api, x):
    kind = x[0]
    if kind == "iterated":
        return api.iterated_poset(x[1], x[2])
    partition = x[1]
    if kind == "quotient":
        return api.quotient_report(partition)
    if not api.is_free_of_resonances(partition):
        return (False,)
    prediction = api.resonance_free_prediction(partition)
    cells = api.hyp_homology(partition, "cells")
    quotient = api.quotient_report(partition) if len(partition) <= 5 else None
    return True, prediction, cells, quotient


def verify_answer(x, raw):
    kind = x[0]
    if kind == "iterated":
        return [len(raw), len(raw.covers)]
    if kind == "quotient":
        return [raw.passed, table(raw.homology)]
    if not raw[0]:
        return {"free": False}
    _, prediction, cells, quotient = raw
    out = {"free": True, "prediction": table(prediction.homology()), "cells": table(cells)}
    if quotient is not None:
        out["quotient"] = [quotient.passed, table(quotient.homology)]
    return out


def verify_replay(api, rec, xid, x):
    kind = x[0]
    if kind == "iterated":
        with rec.span("iterated.iterated_poset", xid) as s:
            poset = api.iterated_poset(x[1], x[2])
        s.count("iterated.elements", len(poset))
        return poset
    partition = x[1]
    if kind == "quotient":
        return _replay_quotient(api, rec, xid, partition)
    if not _replay_is_free(api, rec, xid, partition):
        return (False,)
    # the predictor checks freedom again inside; that time stays in this span
    with rec.span("hyperbolic.resonance_free_prediction", xid):
        prediction = api.resonance_free_prediction(partition)
    cells = _replay_cells(api, rec, xid, partition, sum(partition))
    quotient = None
    if len(partition) <= 5:
        quotient = _replay_quotient(api, rec, xid, partition)
    return True, prediction, cells, quotient


def _replay_is_free(api, rec, xid, partition):
    with rec.span("resonance.is_free_of_resonances", xid) as s:
        free = api.is_free_of_resonances(partition)
    s.count("resonance.types_checked", 1)
    s.count("resonance.free", int(free))
    return free


def _replay_quotient(api, rec, xid, partition):
    with rec.span("permutahedron.quotient_report", xid) as s:
        report = api.quotient_report(partition)
    s.count("permutahedron.cases", 1)
    return report


# ---------------------------------------------------------------------------
# poset-export: C_lambda, its JSON and DOT exports, coarsenings, C_lambda,2


def export_size(population):
    """{type: size} over the poset-export population, for input selection.

    Building a poset compares all pairs of elements; a 5-part type also
    builds C_lambda,2, as large as C_lambda and about 3 times as slow.
    """
    size = {}
    for k, e in population["export_elements"].items():
        p = parse_key(k)
        size[p] = e * e * (4 if len(p) == 5 else 1)
    return size


def export_inputs(rng, population):
    size = export_size(population)
    types = [p for p in size if size[p] <= size[EXPORT_TOP] and p != EXPORT_TOP]
    types = _draw_and_ladder(rng, types, size.get, EXPORT_DRAWN_SHARE, EXPORT_LADDER_STEP)
    return [("export", p) for p in types + [EXPORT_TOP]]


def export_call(api, x):
    partition = x[1]
    poset = api.c_lambda_poset(partition)
    exports = poset.to_json(), poset.to_dot("clambda")
    coarse = api.coarsening_poset(partition)
    iterated = api.c_lambda_d_poset(partition, 2) if len(partition) == 5 else None
    return poset, exports, coarse, iterated


def export_answer(x, raw):
    poset, (js, dot), coarse, iterated = raw
    out = {
        "elements": len(poset),
        "covers": len(poset.covers),
        "json_sha256": hashlib.sha256(js.encode()).hexdigest(),
        "dot_sha256": hashlib.sha256(dot.encode()).hexdigest(),
        "coarsening": [len(coarse), len(coarse.covers)],
    }
    if iterated is not None:
        out["d2"] = [len(iterated), len(iterated.covers)]
    return out


def export_replay(api, rec, xid, x):
    partition = x[1]
    poset = _replay_c_lambda(api, rec, xid, partition)
    with rec.span("posets.to_json", xid) as s:
        js = poset.to_json()
    s.count("posets.export_bytes", len(js.encode()))
    with rec.span("posets.to_dot", xid) as s:
        dot = poset.to_dot("clambda")
    s.count("posets.export_bytes", len(dot.encode()))
    with rec.span("compositions.coarsening_poset", xid) as s:
        coarse = api.coarsening_poset(partition)
    s.count("compositions.poset_elements", len(coarse))
    s.count("compositions.poset_covers", len(coarse.covers))
    iterated = None
    if len(partition) == 5:
        with rec.span("iterated.c_lambda_d_poset", xid) as s:
            iterated = api.c_lambda_d_poset(partition, 2)
        s.count("iterated.elements", len(iterated))
    return poset, (js, dot), coarse, iterated


# ---------------------------------------------------------------------------


def input_key(x):
    kind = x[0]
    if kind == "pol":
        return "%s@%d" % (key(x[1]), x[2])
    if kind == "iterated":
        return "iterated:%d,%d" % (x[1], x[2])
    if kind in ("type", "quotient"):
        return "%s:%s" % (kind, key(x[1]))
    return key(x[1])


WORKLOADS = {
    "hyp-sweep": dict(
        inputs=hyp_inputs,
        call=hyp_call,
        answer=lambda x, raw: table(raw),
        replay=hyp_replay,
        top=("hyp", HYP_TOP),
        warmup=("hyp", (1, 2, 3)),
    ),
    "pol-ladder": dict(
        inputs=pol_inputs,
        call=pol_call,
        answer=lambda x, raw: table(raw),
        replay=pol_replay,
        top=("pol",) + POL_TOP,
        warmup=("pol", (1, 2), 5),
    ),
    "verify-sweep": dict(
        inputs=verify_inputs,
        call=verify_call,
        answer=verify_answer,
        replay=verify_replay,
        top=("type", VERIFY_TOP),
        warmup=("type", (1, 2, 4)),
    ),
    "poset-export": dict(
        inputs=export_inputs,
        call=export_call,
        answer=export_answer,
        replay=export_replay,
        top=("export", EXPORT_TOP),
        warmup=("export", (1, 1, 1, 3, 4)),
    ),
}


def make_inputs(name, seed, population):
    """The workload's inputs for a seed, in the seeded order of one pass."""
    rng = random.Random("%s/%d" % (name, seed))
    inputs = WORKLOADS[name]["inputs"](rng, population)
    rng.shuffle(inputs)
    return inputs
