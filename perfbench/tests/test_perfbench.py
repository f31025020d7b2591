"""Tests of the benchmark's own arithmetic and checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import os
from types import SimpleNamespace

import pytest

from perfbench import layers
from perfbench.tracing import Instrumentation, account, self_times
from perfbench.workloads import cell_digest, check_grid, load_reference

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def span(id, name, start, end, parent=None, pid=1, **attrs):
    return {"id": id, "name": name, "start": start, "end": end,
            "parent": parent, "cell": None, "pid": pid, "attrs": attrs}


def test_self_time_subtracts_children_once():
    spans = [span("r", "bench.body", 0, 100),
             span("a", "harness.plan", 10, 30, "r"),
             span("b", "harness.key", 15, 25, "a"),
             span("c", "harness.key", 40, 50, "r"),
             # overlapping children are covered once, not twice
             span("d", "pipeline.run", 60, 80, "r"),
             span("e", "pipeline.run", 70, 90, "r")]
    selfs = self_times(spans)
    assert selfs == {"r": 100 - 20 - 10 - 30, "a": 10, "b": 10, "c": 10,
                     "d": 20, "e": 20}


def test_self_time_ignores_children_of_other_processes():
    spans = [span("r", "harness.run_many", 0, 100),
             span("w", "harness.run_one", 10, 90, "r", pid=2)]
    assert self_times(spans)["r"] == 100


def test_account_sums_to_wall_with_pool_workers():
    # 100 ns body; the driver waits on a 2-worker pool for 80 ns while
    # the workers spend 60 + 40 ns in their cells.
    spans = [span("r", "bench.body", 0, 100),
             span("m", "harness.run_many", 10, 90, "r"),
             span("w1", "harness.run_one", 12, 72, "m", pid=2),
             span("p1", "pipeline.run", 20, 70, "w1", pid=2),
             span("w2", "harness.run_one", 12, 52, "m", pid=3),
             span("p2", "pipeline.run", 12, 42, "w2", pid=3)]
    charged = account(spans, "r", jobs=2)
    assert sum(charged.values()) == pytest.approx(100)
    assert charged["pipeline"] == pytest.approx((50 + 30) / 2)
    assert charged["unaccounted"] == pytest.approx(20)
    # the pool wait minus the workers' wall-clock share
    assert charged["harness"] == pytest.approx(80 - (60 + 40) / 2 + 10 / 2
                                               + 10 / 2)


@pytest.mark.parametrize("n, pct", [(200, 95), (199, 90), (100, 90),
                                    (99, 75), (40, 75), (39, 50), (20, 50),
                                    (19, 0), (0, 0), (1000, 99)])
def test_tail_percentile_needs_ten_samples_beyond(n, pct):
    samples = list(range(n))
    got, value = layers.tail_percentile(samples)
    assert got == pct
    if pct:
        beyond = sum(1 for s in samples if s > value)
        assert beyond >= layers.MIN_BEYOND


def test_percentile_is_nearest_rank():
    assert layers.percentile([5, 1, 3, 2, 4], 50) == 3
    assert layers.percentile(range(1, 101), 95) == 95


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_names_match_the_pattern_and_are_unique():
    spec = benchmark_spec()
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert layers.METRIC_NAME.fullmatch(name), name
        assert len(name) <= 64 and name[0].isalnum(), name
    assert not layers.METRIC_NAME.fullmatch("bad name")
    assert not layers.METRIC_NAME.fullmatch("p95%")


def fake_result(cycles=100, retired=50):
    return SimpleNamespace(cycles=cycles, retired=retired,
                           stats={"fetched": 70}, trace_digests={})


def test_tampered_cell_is_caught():
    reference = load_reference()
    cells = dict(reference["cells"])
    headline = reference["headline"]
    assert check_grid(cells, headline, reference) == []
    victim = sorted(cells)[3]
    cells[victim] = cell_digest(fake_result())
    failures = check_grid(cells, headline, reference)
    assert len(failures) == 1 and victim in failures[0]


def test_one_changed_counter_changes_the_digest():
    assert cell_digest(fake_result()) == cell_digest(fake_result())
    assert cell_digest(fake_result(cycles=101)) != cell_digest(fake_result())


def test_headline_drift_is_caught():
    reference = load_reference()
    headline = dict(reference["headline"])
    key = sorted(headline)[0]
    headline[key] += 1e-12
    assert check_grid(dict(reference["cells"]), headline, reference) == [
        "Section 9.2 headline differs from the reference"]


def test_traced_run_many_spans_cover_every_layer_and_sum_to_wall():
    from repro.core.attack_model import AttackModel
    from repro.experiments import figure7
    from repro.harness import parallel
    from repro.harness.parallel import RunSpec

    original = parallel.run_one
    inst = Instrumentation()
    inst.install()
    try:
        with inst.recorder.span("bench.body") as root:
            [result] = figure7.run_many(
                [RunSpec("chacha20", "SPT{Bwd,ShadowL1}",
                         AttackModel.SPECTRE, max_instructions=40)],
                jobs=1, use_cache=False)
    finally:
        inst.uninstall()
    assert parallel.run_one is original
    names = {s["name"] for s in inst.recorder.spans}
    assert {"harness.run_many", "harness.plan", "harness.key",
            "harness.run_one", "workloads.build", "pipeline.build",
            "pipeline.run", "obs.metrics"} <= names
    assert not hasattr(result, Instrumentation.SPANS_ATTR)
    [run] = [s for s in inst.recorder.spans if s["name"] == "pipeline.run"]
    assert run["attrs"]["counts"]["sim.retired"] == result.retired
    assert sum(run["attrs"]["stalls"].values()) == result.cycles
    charged = account(inst.recorder.spans, root["id"], jobs=1)
    assert sum(charged.values()) == pytest.approx(
        root["end"] - root["start"])
    metrics, _ = layers.layer_metrics(
        inst.recorder.spans,
        {"setup": root["id"], "body": root["id"], "rerender": [],
         "vector": None},
        jobs=1, extra={})
    assert metrics["pipeline.retired"] == result.retired
    assert metrics["pipeline.simulations"] == 1


def test_every_per_layer_metric_is_computed():
    """The traced run reports each per-layer metric BENCHMARK.json names."""
    root = span("r", "bench.body", 0, 10)
    extra = {name: 0.0 for name in ("rerender_s", "trace.untraced_wall_s",
                                    "trace.overhead_s",
                                    "trace.overhead_ratio",
                                    "harness.pickle_us",
                                    "fuzz.invalid_ratio")}
    metrics, _ = layers.layer_metrics(
        [root], {"setup": "r", "body": "r", "rerender": [], "vector": None},
        jobs=1, extra=extra)
    missing = [m["name"] for m in benchmark_spec()["per_layer"]
               if m["name"] not in metrics]
    assert missing == []
