"""Per-layer metrics and tables computed from the traced run's spans.

Times named ``*_ms`` or ``*_us`` are host time.  Unless the README says
otherwise they are the mean per call of the span they name; the
``*.p50`` and ``*.tail`` pairs follow the percentile rule in
:func:`tail_percentile`.  Counts come from the simulations' own counters
and repeat exactly between runs of one seed.
"""

from __future__ import annotations

import math
import re
import statistics
from collections import defaultdict

from perfbench.tracing import account, descendants, duration

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Table 2 configuration -> metric slug.
CONFIG_SLUGS = {
    "SecureBaseline": "secure",
    "SPT{Fwd,NoShadowL1}": "spt-fwd",
    "SPT{Bwd,NoShadowL1}": "spt-bwd",
    "SPT{Bwd,ShadowL1}": "spt-full",
    "SPT{Bwd,ShadowMem}": "spt-bwd-mem",
    "SPT{Ideal,ShadowMem}": "spt-ideal-mem",
    "STT": "stt",
}

STALL_CAUSES = ("retiring", "fetch-starved", "rob-full", "rs-full",
                "lsq-full", "memory-miss", "squash-recovery",
                "engine-delayed-transmitter", "engine-delayed-resolution",
                "untaint-broadcast-wait")

# Layers whose self time the traced run can separate.  The protection
# engines and the memory model run inside ``core.run``; they get counts
# and derived costs, not self times (that needs spans inside the program).
LAYERS = ("harness", "workloads", "fuzz", "pipeline", "fastpath",
          "observer", "verify", "experiments", "unaccounted")

TAIL_PERCENTILES = (99, 95, 90, 75, 50)
MIN_BEYOND = 10


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1]


def tail_percentile(samples) -> tuple:
    """``(pct, value)``: the highest percentile with ten samples beyond it.

    With nearest rank, ``n - ceil(pct * n / 100)`` samples lie beyond the
    ``pct`` percentile.  Returns ``(0, 0.0)`` when even the median has
    fewer than ten samples beyond it.
    """
    n = len(samples)
    for pct in TAIL_PERCENTILES:
        if n - math.ceil(pct * n / 100) >= MIN_BEYOND:
            return pct, percentile(samples, pct)
    return 0, 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _ms(ns: float) -> float:
    return ns / 1e6


def _distribution(prefix: str, samples_ms: list) -> dict:
    pct, tail = tail_percentile(samples_ms)
    return {f"{prefix}.p50": statistics.median(samples_ms) if samples_ms else 0.0,
            f"{prefix}.tail": tail, f"{prefix}.tail_pct": pct,
            f"{prefix}.n": len(samples_ms)}


def _named(spans: list, name: str) -> list:
    return [span for span in spans if span["name"] == name]


def _cell_key(attrs: dict) -> str:
    return f"{attrs['workload']}|{attrs['config']}|{attrs['model']}"


def _cells(spans: list, driver_pid: int) -> list:
    """``harness.run_one`` spans with their pipeline run span attached."""
    runs = {}
    for span in spans:
        if span["name"] in ("pipeline.run", "fastpath.run"):
            runs[span["cell"]] = span
    cells = []
    for span in _named(spans, "harness.run_one"):
        cells.append({"span": span, "run": runs.get(span["cell"]),
                      "pooled": span["pid"] != driver_pid})
    return cells


def layer_metrics(spans: list, roots: dict, jobs: int, extra: dict) -> tuple:
    """``(metrics, tables)`` for one traced run.

    ``roots`` names the root span ids of the traced phases: ``setup``,
    ``body`` (the traced wall time), ``rerender`` (a list) and ``vector``
    (the body's cells re-run on the vector backend, or None).  ``extra``
    carries what the spans cannot show (pickling cost, fuzz validity,
    tracing overhead).
    """
    by_id = {span["id"]: span for span in spans}
    root_id = roots["body"]
    driver = by_id[root_id]["pid"]
    wall_ns = duration(by_id[root_id])
    body = descendants(spans, root_id)
    warm = [s for r in roots["rerender"] for s in descendants(spans, r)]
    vector = descendants(spans, roots["vector"]) if roots["vector"] else []
    setup = _named(descendants(spans, roots["setup"]), "workloads.build")
    m: dict = {}

    layers = account(spans, root_id, jobs)
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms"] = _ms(layers.get(layer, 0.0))
    m["trace.wall_s"] = wall_ns / 1e9
    m.update(extra)

    # -- harness: planning, keys, cache I/O, the pool
    loads = _named(body + warm, "harness.cache_load")
    m["harness.plan_ms"] = _mean(_ms(duration(s))
                                 for s in _named(body, "harness.plan"))
    m["harness.key_us"] = _mean(duration(s) / 1e3
                                for s in _named(body + warm, "harness.key"))
    m["harness.cache_store_us"] = _mean(
        duration(s) / 1e3 for s in _named(body, "harness.cache_store"))
    m["harness.cache_load_us"] = _mean(duration(s) / 1e3 for s in loads)
    body_plans = [s["attrs"] for s in _named(body, "harness.plan")]
    m["harness.dedup_ratio"] = 1 - _ratio(
        sum(p["unique"] for p in body_plans),
        sum(p["specs"] for p in body_plans)) if body_plans else 0.0
    m["harness.cache_hit_ratio"] = _ratio(
        sum(1 for s in loads if s["attrs"].get("hit")), len(loads))
    cells = _cells(body, driver)
    cell_ns = [duration(c["span"]) for c in cells]
    m["harness.pool_efficiency"] = _ratio(
        sum(duration(c["span"]) for c in cells if c["pooled"]),
        jobs * wall_ns)
    m["harness.tail_cell_s"] = max(cell_ns) / 1e9 if cell_ns else 0.0
    m["harness.pool_tail_s"] = _pool_tail(cells) / 1e9

    # -- workloads and fuzz: program builds, plan generation, validation
    m["workloads.build_ms"] = _ms(sum(
        duration(s) for s in setup + _named(body, "workloads.build")))
    m["fuzz.generate_ms"] = _mean(_ms(duration(s))
                                  for s in _named(body, "fuzz.generate"))
    m["fuzz.validate_ms"] = _mean(_ms(duration(s))
                                  for s in _named(body, "fuzz.validate"))

    # -- pipeline: the reference core
    runs = _named(body, "pipeline.run")
    builds = _named(body, "pipeline.build")
    counts = _sum_counts(runs)
    stalls = _sum_stalls(runs)
    run_ns = sum(duration(s) for s in runs)
    m["pipeline.build_ms"] = _mean(_ms(duration(s)) for s in builds)
    m.update(_distribution("pipeline.run_ms",
                           [_ms(duration(s)) for s in runs]))
    m["pipeline.us_per_cycle"] = _ratio(run_ns / 1e3, counts["sim.cycles"])
    m["pipeline.us_per_retired"] = _ratio(run_ns / 1e3, counts["sim.retired"])
    m["pipeline.share"] = _ratio(layers.get("pipeline", 0.0), wall_ns)
    m["pipeline.simulations"] = len(runs)
    m["pipeline.cycles"] = counts["sim.cycles"]
    m["pipeline.retired"] = counts["sim.retired"]
    m["pipeline.fetched"] = counts["frontend.fetched"]
    m["pipeline.wrong_path_ratio"] = _ratio(
        counts["speculation.squashed_insts"], counts["frontend.fetched"])
    m["bp.mispredicts_per_kinst"] = 1000 * _ratio(
        counts["speculation.mispredicts"], counts["sim.retired"])
    for cause in STALL_CAUSES:
        m[f"pipeline.stall.{cause}"] = stalls.get(cause, 0)

    # -- protection engines: cost per simulated cycle over UnsafeBaseline
    per_config = _per_config_cost(cells)
    base = per_config.get("UnsafeBaseline")
    for config, slug in CONFIG_SLUGS.items():
        cost = per_config.get(config)
        m[f"core.{slug}.us_per_cycle_extra"] = (
            cost - base if cost is not None and base is not None else 0.0)
    m["core.transmitters_delayed_cycles"] = \
        counts["protection.transmitters_delayed_cycles"]
    m["core.resolutions_delayed_cycles"] = \
        counts["protection.resolutions_delayed_cycles"]
    m["core.untaints"] = counts["engine.untaint.total"]
    m["core.broadcast_stall_cycles"] = counts["engine.broadcast.stall_cycles"]

    # -- memory model: counts only
    for level in ("l1d", "l2", "l3"):
        hits = counts[f"memory.{level}.hits"]
        m[f"memory.{level}.hit_ratio"] = _ratio(
            hits, hits + counts[f"memory.{level}.misses"])
    m["memory.accesses"] = counts["memory.l1d.hits"] + \
        counts["memory.l1d.misses"]

    # -- observer and metrics serialisation
    m["observer.digest_ms"] = _mean(_ms(duration(s))
                                    for s in _named(body, "observer.digest"))
    m["obs.metrics_ms"] = _ratio(
        _ms(sum(duration(s) for s in _named(body, "obs.metrics"))), len(runs))

    # -- verify: the symbolic and concrete oracles
    symbolic = _named(body, "verify.symbolic")
    m.update(_distribution("verify.symbolic_ms",
                           [_ms(duration(s)) for s in symbolic]))
    m.update(_distribution("verify.concrete_ms", [
        _ms(duration(s)) for s in _named(body, "verify.concrete")]))
    m["verify.transient_insts"] = sum(s["attrs"].get("explored", 0)
                                      for s in symbolic)
    m["verify.share"] = _ratio(layers.get("verify", 0.0), wall_ns)

    # -- experiments: rendering the figures from the warm cache
    m["experiments.render_ms"] = _ratio(_ms(sum(
        duration(s) for s in _named(warm, "experiments.render"))),
        len(roots["rerender"]))

    # -- fastpath: the same cells on the vector backend
    vector_cells = _cells(vector, driver)
    m.update(_fastpath(vector, vector_cells, cells))

    tables = {
        "layers_ms": {layer: _ms(ns) for layer, ns in sorted(layers.items())},
        "cells": _cell_table(cells, vector_cells),
    }
    tables.update(_shares(tables["cells"]))
    return m, tables


def _pool_tail(cells: list) -> int:
    """From the first pool worker running dry to the last cell's end, ns."""
    last_end: dict = {}
    for cell in cells:
        if cell["pooled"]:
            span = cell["span"]
            last_end[span["pid"]] = max(last_end.get(span["pid"], 0),
                                        span["end"])
    if len(last_end) < 2:
        return 0
    return max(last_end.values()) - min(last_end.values())


def _sum_counts(runs: list) -> dict:
    total: dict = defaultdict(int)
    for span in runs:
        for name, value in span["attrs"].get("counts", {}).items():
            total[name] += value
    return total


def _sum_stalls(runs: list) -> dict:
    total: dict = defaultdict(int)
    for span in runs:
        for name, value in span["attrs"].get("stalls", {}).items():
            total[name] += value
    return total


def _per_config_cost(cells: list) -> dict:
    """config -> host µs per simulated cycle over the body's cells."""
    ns: dict = defaultdict(int)
    cycles: dict = defaultdict(int)
    for cell in cells:
        run = cell["run"]
        if run is None:
            continue
        config = cell["span"]["attrs"]["config"]
        ns[config] += duration(run)
        cycles[config] += run["attrs"]["counts"]["sim.cycles"]
    return {config: ns[config] / 1e3 / cycles[config]
            for config in ns if cycles[config]}


def _fastpath(vector: list, vector_cells: list, cells: list) -> dict:
    runs = _named(vector, "fastpath.run")
    builds = defaultdict(int)
    for span in _named(vector, "fastpath.build"):
        builds[span["cell"]] += duration(span)
    cycles = sum(s["attrs"]["counts"]["sim.cycles"] for s in runs)
    reference = {_cell_key(c["span"]["attrs"]): duration(c["run"])
                 for c in cells if c["run"] is not None}
    speedups = []
    for cell in vector_cells:
        key = _cell_key(cell["span"]["attrs"])
        if cell["run"] is not None and key in reference:
            speedups.append(reference[key] / duration(cell["run"]))
    return {
        "fastpath.build_ms": _mean(_ms(ns) for ns in builds.values()),
        "fastpath.us_per_cycle": _ratio(
            sum(duration(s) for s in runs) / 1e3, cycles),
        "fastpath.speedup.median": (statistics.median(speedups)
                                    if speedups else 0.0),
        "fastpath.speedup.min": min(speedups) if speedups else 0.0,
        "fastpath.cells": len(speedups),
    }


def _cell_table(cells: list, vector_cells: list) -> list:
    vector = {_cell_key(c["span"]["attrs"]): c for c in vector_cells}
    rows = []
    for cell in cells:
        attrs = cell["span"]["attrs"]
        row = {"workload": attrs["workload"], "config": attrs["config"],
               "model": attrs["model"],
               "reference_ms": _ms(duration(cell["span"]))}
        if cell["run"] is not None:
            row["cycles"] = cell["run"]["attrs"]["counts"]["sim.cycles"]
            row["retired"] = cell["run"]["attrs"]["counts"]["sim.retired"]
        twin = vector.get(_cell_key(attrs))
        if twin is not None:
            row["vector_ms"] = _ms(duration(twin["span"]))
            row["vector_speedup"] = _ratio(row["reference_ms"],
                                           row["vector_ms"])
        rows.append(row)
    return rows


def _group(workload: str) -> str:
    """Fuzz victims group by plan (both secrets); kernels by name."""
    return workload.rsplit(":", 1)[0] if workload.startswith("fuzz:") \
        else workload


def _shares(rows: list) -> dict:
    """Each config's and each workload's share of cell time per backend."""
    out = {}
    for backend, column in (("reference", "reference_ms"),
                            ("vector", "vector_ms")):
        timed = [row for row in rows if column in row]
        total = sum(row[column] for row in timed)
        for axis, key in (("config", lambda r: r["config"]),
                          ("workload", lambda r: _group(r["workload"]))):
            share: dict = defaultdict(float)
            for row in timed:
                share[key(row)] += _ratio(row[column], total)
            out[f"{axis}_share_{backend}"] = dict(sorted(share.items()))
    return out
