"""Benchmark runner: one workload, one seed, one closed-loop caller.

Run from the repository root::

    python3 perfbench/run.py --workload hyp-sweep --seed 1 --seconds 25 --trace 0

The caller issues each call after the previous one returns, in this single
process; nothing runs in parallel.  Every answer is compared with
``data/reference.json``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print each metric by name with its unit.

``--trace 0`` measures the end-to-end metrics.  Set-up (import of
``polystrata.cli``, input generation, loading the reference data and one
warm-up call) is timed in five fresh interpreters and the median reported.
Then passes over the inputs run until ``--seconds`` of wall-clock time have
gone by (at least MIN_PASSES passes), and each input counts with its median
time over the passes.  The top rung runs once more after each pass, and
``largest_s`` is the median of all its times.  All times are CPU time (see ``spans.CLOCK``), scaled
to the baseline machine's speed by a calibration unit run next to each timed
call or set-up (see ``calibrate.py``).

``--trace 1`` runs one untraced pass and one traced pass, both unscaled, in which every
input is replayed from the public pieces of its pipeline inside spans (see
``workloads.py``); it reports the per-module metrics, checks every replayed
answer against the untraced one, and writes the spans to
``.bench_traces/<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import spans
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACES = ROOT / ".bench_traces"
SETUP_SAMPLES = 5
MIN_PASSES = 5
SETUP_UNITS = 3  # calibration units before and after each set-up
MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
SETUP_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import run; run.setup(sys.argv[2], int(sys.argv[3]))"


def setup(name, seed):
    """Import the package, make the inputs, load the answers, warm up once."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("polystrata.cli")
    api = importlib.import_module("polystrata")
    population = json.loads((BENCH / "data" / "population.json").read_text())
    refs = json.loads((BENCH / "data" / "reference.json").read_text())[name]
    inputs = wl.make_inputs(name, seed, population)
    spec = wl.WORKLOADS[name]
    spec["call"](api, spec["warmup"])
    return api, inputs, refs


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_setup(name, seed):
    """Median CPU time of set-up in fresh interpreters, in reference seconds."""
    times = []
    for _ in range(SETUP_SAMPLES):
        before = calibrate.sample(SETUP_UNITS)
        t0 = _children_cpu()
        subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(BENCH), name, str(seed)],
            check=True,
            timeout=120,
        )
        seconds = _children_cpu() - t0
        times.append(calibrate.scale(seconds, before, calibrate.sample(SETUP_UNITS)))
    return statistics.median(times)


class Tally:
    """Calls attempted and failed; a failure is an exception or a wrong answer."""

    def __init__(self, refs):
        self.refs = refs
        self.attempted = 0
        self.failed = 0

    def run(self, call, x):
        """Time one call; return (seconds, raw result or None if it raised)."""
        self.attempted += 1
        t0 = spans.CLOCK()
        try:
            raw = call(x)
        except Exception as exc:  # every exception counts against error_rate
            seconds = spans.CLOCK() - t0
            self.failed += 1
            print("failed %s: %s: %s" % (wl.input_key(x), type(exc).__name__, exc), file=sys.stderr)
            return seconds, None
        return spans.CLOCK() - t0, raw

    def check(self, x, got):
        if got != self.refs.get(wl.input_key(x)):
            self.failed += 1
            print("wrong answer for %s: %r" % (wl.input_key(x), got), file=sys.stderr)


def release_memory():
    """Free garbage and return free heap pages to the OS between calls, so that
    peak RSS is set by the largest call rather than by the order of calls."""
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def one_pass(spec, api, inputs, tally, call=None, calibrated=False):
    """Call every input once; return (seconds, per-call seconds, answers).

    The time of a pass is the sum of its calls: checking answers and
    releasing memory between calls are not timed.  With ``calibrated``, a
    calibration unit runs before the first call and after each call, and
    each call's time is scaled by the units on either side of it.
    """
    call = call or (lambda x: spec["call"](api, x))
    latencies, answers = [], []
    unit_s = calibrate.timed_unit() if calibrated else None
    for x in inputs:
        release_memory()
        seconds, raw = tally.run(call, x)
        if calibrated:
            before, unit_s = unit_s, calibrate.timed_unit()
            seconds = calibrate.scale(seconds, before, unit_s)
        latencies.append(seconds)
        got = None if raw is None else spec["answer"](x, raw)
        del raw
        if got is not None:
            tally.check(x, got)
        answers.append(got)
    return sum(latencies), latencies, answers


def tail(latencies):
    """(percentile, value): the highest whole percentile with >= 10 samples
    above it, interpolated between the two nearest samples."""
    n = len(latencies)
    pct = max(1, math.floor(100 - 1000 / n)) if n > 10 else 1
    return pct, statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]


def end_to_end_metrics(setup_s, latencies, top_s):
    """The end-to-end metrics as {name: (value, unit)}, and the tail percentile.

    ``latencies`` holds each input's median time over the run's passes;
    ``top_s`` is the top rung's median time.
    """
    pct, tail_s = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (sum(latencies), "s"),
        "call_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "call_tail_ms": (tail_s * 1e3, "ms"),
        "largest_s": (top_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, pct


def end_to_end(name, seed, seconds):
    setup_s = timed_setup(name, seed)
    api, inputs, refs = setup(name, seed)
    # what set-up allocated is never garbage; keep collections between calls short
    gc.freeze()
    spec = wl.WORKLOADS[name]
    tally = Tally(refs)
    top = inputs.index(spec["top"])
    passes, top_times = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(one_pass(spec, api, inputs, tally, calibrated=True)[1])
        # the top rung is the longest call, so the drift inside it is the
        # least corrected; a second timing per pass doubles its samples
        top_times.append(passes[-1][top])
        top_times += one_pass(spec, api, [spec["top"]], tally, calibrated=True)[1]
    latencies = [statistics.median(ts) for ts in zip(*passes)]
    metrics, pct = end_to_end_metrics(setup_s, latencies, statistics.median(top_times))
    info = {
        "passes": len(passes),
        "inputs": len(inputs),
        "top rung samples": len(top_times),
        "tail percentile": pct,
        "error_rate": tally.failed / tally.attempted,
    }
    return tally, metrics, info


def traced(name, seed):
    api, inputs, refs = setup(name, seed)
    spec = wl.WORKLOADS[name]
    tally = Tally(refs)
    untraced_s, _, expected = one_pass(spec, api, inputs, tally)
    rec = spans.Recorder()
    traced_s, _, replayed = one_pass(
        spec, api, inputs, tally, call=lambda x: spec["replay"](api, rec, wl.input_key(x), x)
    )
    mismatches = sum(a != b for a, b in zip(expected, replayed))
    tally.failed += mismatches
    rec.write(TRACES / ("%s-%d.json" % (name, seed)))
    info = {"spans": len(rec.spans), "replay mismatches": mismatches}
    return tally, layer_metrics(rec, traced_s, untraced_s), info


def layer_metrics(rec, traced_s, untraced_s):
    t = rec.total
    c = rec.counts()
    checked = c.get("resonance.types_checked", 0)
    seconds = {
        "hyperbolic.cells_s": t("hyperbolic.cells"),
        "hyperbolic.order_complex_s": t("hyperbolic.order_complex"),
        "hyperbolic.delta_s": t("hyperbolic.delta"),
        "hyperbolic.crosscheck_s": rec.self_time("hyperbolic.hyp_homology"),
        "hyperbolic.resonance_free_prediction_s": t("hyperbolic.resonance_free_prediction"),
        "posets.order_complex_s": t("posets.order_complex"),
        "posets.export_s": t("posets.to_json") + t("posets.to_dot"),
        "homology.simplicial_homology_s": t("homology.simplicial_homology"),
        "homology.chain_homology_s": t("homology.chain_homology"),
        "strata.closure_cells_s": t("strata.closure_cells"),
        # pol_chain_complex enumerates the closure again before assembling
        "strata.assembly_s": t("strata.pol_chain_complex") - t("strata.closure_cells"),
        "compositions.c_lambda_poset_s": t("compositions.c_lambda_poset"),
        "compositions.coarsening_poset_s": t("compositions.coarsening_poset"),
        "compositions.delta_lambda_complex_s": t("compositions.delta_lambda_complex"),
        "resonance.is_free_of_resonances_s": t("resonance.is_free_of_resonances"),
        "permutahedron.quotient_report_s": t("permutahedron.quotient_report"),
        "iterated.c_lambda_d_poset_s": t("iterated.c_lambda_d_poset"),
        "iterated.iterated_poset_s": t("iterated.iterated_poset"),
    }
    metrics = {k: (v, "s") for k, v in seconds.items()}
    for k in (
        "posets.chains",
        "homology.generators",
        "homology.rank",
        "homology.torsion_factors",
        "strata.cells",
        "strata.boundary_nnz",
        "compositions.poset_elements",
        "compositions.poset_covers",
        "compositions.delta_faces",
        "resonance.types_checked",
        "permutahedron.cases",
        "iterated.elements",
    ):
        metrics[k] = (c.get(k, 0), "count")
    metrics["posets.export_bytes"] = (c.get("posets.export_bytes", 0), "bytes")
    metrics["resonance.free_ratio"] = (c.get("resonance.free", 0) / checked if checked else 0, "ratio")
    metrics["trace.coverage"] = (rec.root_total() / traced_s, "ratio")
    metrics["trace.overhead"] = (traced_s / untraced_s - 1, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polystrata" / "__init__.py").is_file():
        sys.exit("perfbench: no package sources at %s" % SRC)
    if args.trace:
        tally, metrics, info = traced(args.workload, args.seed)
    else:
        tally, metrics, info = end_to_end(args.workload, args.seed, args.seconds)
    print("workload %s seed %d: %s" % (args.workload, args.seed, json.dumps(info)))
    for k, (v, unit) in metrics.items():
        print("%-42s %14.6f %s" % (k, v, unit))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
