"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

sys.path.insert(0, str(run.SRC))
import polystrata as api  # noqa: E402

POPULATION = json.loads((BENCH / "data" / "population.json").read_text())
REFERENCE = json.loads((BENCH / "data" / "reference.json").read_text())
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_fixes_the_inputs(name):
    first = wl.make_inputs(name, 7, POPULATION)
    assert first == wl.make_inputs(name, 7, POPULATION)
    assert first != wl.make_inputs(name, 8, POPULATION)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_most_inputs_are_fixed_rungs(name):
    """More than half of the inputs are the same for every seed, so the
    median input does not depend on the draw."""
    draws = [wl.make_inputs(name, seed, POPULATION) for seed in range(20)]
    fixed = set.intersection(*map(set, draws))
    assert all(len(fixed) > len(inputs) / 2 for inputs in draws)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_every_drawn_input_has_a_reference(name):
    spec = wl.WORKLOADS[name]
    for seed in range(20):
        inputs = wl.make_inputs(name, seed, POPULATION)
        assert spec["top"] in inputs
        assert {wl.input_key(x) for x in inputs} <= set(REFERENCE[name])


def test_corrupted_reference_counts_as_failure():
    inputs = [("hyp", (1, 2)), ("hyp", (1, 1, 2)), ("hyp", (1, 2, 3))]
    refs = dict(REFERENCE["hyp-sweep"])
    spec = wl.WORKLOADS["hyp-sweep"]
    clean = run.Tally(refs)
    run.one_pass(spec, api, inputs, clean)
    assert clean.failed == 0

    refs["1,1,2"] = [[3, 2, []]]
    corrupted = run.Tally(refs)
    run.one_pass(spec, api, inputs, corrupted)
    assert corrupted.attempted == 3
    assert corrupted.failed / corrupted.attempted > 0


def test_exceptions_count_as_failures():
    def boom(api_, x):
        raise ArithmeticError("injected")

    spec = dict(wl.WORKLOADS["hyp-sweep"], call=boom)
    tally = run.Tally(REFERENCE["hyp-sweep"])
    run.one_pass(spec, api, [("hyp", (1, 2))], tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_metric_names():
    name = re.compile(r"[A-Za-z0-9_.-]+")
    e2e, _ = run.end_to_end_metrics(0.1, [0.001] * 20, 0.5)
    layers = run.layer_metrics(spans.Recorder(), 1.0, 1.0)
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    for metrics in (e2e, layers):
        for key, (_, unit) in metrics.items():
            assert name.fullmatch(key), key
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert {k: u for k, (_, u) in {**e2e, **layers}.items()} == units


def test_tail_percentile_leaves_ten_samples_above():
    pct, value = run.tail([float(i) for i in range(1, 112)])
    assert pct == 90
    assert sum(x > value for x in range(1, 112)) >= 10


def test_committed_sizes_match_the_package():
    sizes = POPULATION["hyp_sizes"]
    small = sorted(k for k, (c, _) in sizes.items() if c <= 5000)
    for k in random.Random(0).sample(small, 6):
        partition = wl.parse_key(k)
        chains = len(api.order_complex(api.c_lambda_poset(partition)).faces)
        cells = len(api.closure_cells(partition, sum(partition)))
        assert sizes[k] == [chains, cells], k


def test_replay_gives_the_untraced_answer():
    rec = spans.Recorder()
    for name, x in [
        ("hyp-sweep", ("hyp", (1, 2, 3))),
        ("pol-ladder", ("pol", (1, 2), 7)),
        ("verify-sweep", ("type", (1, 2, 4))),
        ("verify-sweep", ("iterated", 3, 2)),
        ("poset-export", ("export", (1, 1, 1, 3, 4))),
    ]:
        spec = wl.WORKLOADS[name]
        replayed = spec["answer"](x, spec["replay"](api, rec, wl.input_key(x), x))
        assert replayed == spec["answer"](x, spec["call"](api, x))
        assert replayed == REFERENCE[name][wl.input_key(x)]
    assert all(s.end >= s.start for s in rec.spans)
