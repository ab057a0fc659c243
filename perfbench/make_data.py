"""Write ``data/population.json`` and ``data/reference.json``.

Run from the repository root::

    python3 perfbench/make_data.py

The population file holds what input selection needs: C_lambda chain counts
and closure cell counts of the types of weight <= 11 and C_lambda sizes of
the ``poset-export`` types, all from ``closed_forms``, and the closure cell
counts of the ``pol-ladder`` pairs, from the package at the commit this is
run on.  Input selection reads only this file, never the code under test.  The reference file holds the expected answer of every input a
workload can draw.  Hook and resonance-free types, resonance
freedom and the iterated posets take their answers from ``closed_forms``;
the rest come from the package at the commit this is run on, and are written
only where its pipelines agree (the default ``hyp_homology`` call
cross-checks all three).  Every closed-form answer is also compared with the
package, and the script stops on the first difference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import closed_forms as cf
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def populations(api):
    hyp = {
        wl.key(p): [cf.chain_count(p), cf.closure_cell_count(p)]
        for w in range(1, 12)
        for p in cf.partitions(w)
    }
    pairs = [
        (p, n)
        for w in range(1, 9)
        for p in cf.partitions(w)
        for n in range(max(w, 4), 15)
        if (n - w) % 2 == 0
    ]
    pol = {"%s@%d" % (wl.key(p), n): len(api.closure_cells(p, n)) for p, n in pairs}
    export_types = [p for w in range(10, 15) for p in cf.partitions(w) if len(p) in (5, 6)]
    export = {wl.key(p): len(cf.c_lambda_masks(p)) for p in export_types}
    return {"hyp_sizes": hyp, "pol_cells": pol, "export_elements": export}


def answer(api, name, x):
    spec = wl.WORKLOADS[name]
    return spec["answer"](x, spec["call"](api, x))


def checked(api, name, x, expected):
    got = answer(api, name, x)
    if got != expected:
        sys.exit("closed form %r != package %r for %r" % (expected, got, x))
    return expected


def references(api, population):
    refs = {name: {} for name in wl.WORKLOADS}

    size = wl.hyp_size(population)
    for p in size:
        if size[p] > size[wl.HYP_TOP]:
            continue
        x = ("hyp", p)
        closed = cf.closed_form_table(p)
        got = answer(api, "hyp-sweep", x) if closed is None else checked(api, "hyp-sweep", x, closed)
        refs["hyp-sweep"][wl.input_key(x)] = got

    cells = wl.pol_size(population)
    for p, n in cells:
        if cells[p, n] > cells[wl.POL_TOP]:
            continue
        x = ("pol", p, n)
        closed = cf.closed_form_table(p) if n == sum(p) else None
        got = answer(api, "pol-ladder", x) if closed is None else checked(api, "pol-ladder", x, closed)
        refs["pol-ladder"][wl.input_key(x)] = got

    verify = [("type", p) for w in range(1, wl.VERIFY_MAX_WEIGHT + 1) for p in cf.partitions(w)]
    verify += [("quotient", p) for p in wl.VERIFY_EXEMPLARS]
    verify += [("iterated", n, d) for n in range(2, 7) for d in (1, 2, 3)]
    for x in verify:
        if x[0] == "iterated":
            expected = list(cf.iterated_counts(x[1], x[2]))
        elif x[0] == "quotient":
            expected = [True, cf.shift(cf.free_table(x[1]), -2)]
        elif not cf.is_resonance_free(x[1]):
            expected = {"free": False}
        else:
            h = cf.free_table(x[1])
            expected = {"free": True, "prediction": h, "cells": h}
            if len(x[1]) <= 5:
                expected["quotient"] = [True, cf.shift(h, -2)]
        refs["verify-sweep"][wl.input_key(x)] = checked(api, "verify-sweep", x, expected)

    size = wl.export_size(population)
    for p in size:
        if size[p] > size[wl.EXPORT_TOP]:
            continue
        x = ("export", p)
        got = answer(api, "poset-export", x)
        elements = population["export_elements"][wl.input_key(x)]
        if got["elements"] != elements:
            sys.exit("C_lambda of %s has %d elements, not %d" % (wl.input_key(x), got["elements"], elements))
        refs["poset-export"][wl.input_key(x)] = got
    return refs


def _write(path, sections):
    """JSON with one line per entry, so that a changed answer shows in a diff."""
    blocks = []
    for name in sorted(sections):
        rows = ",\n".join(
            "  %s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True))
            for k, v in sorted(sections[name].items())
        )
        blocks.append(" %s: {\n%s\n }" % (json.dumps(name), rows))
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import polystrata as api

    population = populations(api)
    DATA.mkdir(exist_ok=True)
    _write(DATA / "population.json", population)
    _write(DATA / "reference.json", references(api, population))


if __name__ == "__main__":
    main()
