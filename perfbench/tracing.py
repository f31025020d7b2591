"""Spans for the traced benchmark run, recorded from the benchmark's side.

A span is a plain dict: ``id``, ``name``, ``start`` and ``end`` (from
``time.perf_counter_ns``, which reads CLOCK_MONOTONIC on Linux and so is
comparable between the driver and its forked pool workers), ``parent``
(the id of the span that caused it), ``cell`` (spans of one simulation
share it), ``pid`` and free-form ``attrs``.  Spans stay in memory and are
written out when the run ends.

:class:`Instrumentation` wraps the public functions of each ``repro``
layer in spans by replacing module attributes for the duration of the
traced run.  No source under ``src/`` changes, and nothing is wrapped in
the untraced run that the end-to-end metrics come from.  The span name's
first dotted component names the layer that does the work inside it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import time
from collections import defaultdict
from typing import Callable, Optional

# Unique span ids within one process; the pid makes them unique across
# the driver and its workers.
_SERIAL = itertools.count()

# Counters a pipeline span keeps from the simulation it ran: enough for
# the per-layer count metrics, cheap enough to record for every cell.
SIM_COUNTERS = (
    "sim.cycles", "sim.retired", "frontend.fetched",
    "speculation.squashed_insts", "speculation.mispredicts",
    "memory.l1d.hits", "memory.l1d.misses", "memory.l2.hits",
    "memory.l2.misses", "memory.l3.hits", "memory.l3.misses",
    "protection.transmitters_delayed_cycles",
    "protection.resolutions_delayed_cycles",
    "engine.untaint.total", "engine.broadcast.stall_cycles",
)


class Recorder:
    """An in-memory span list with a stack of open spans."""

    def __init__(self, cell: Optional[str] = None):
        self.pid = os.getpid()
        self.cell = cell
        self.spans: list = []
        self._stack: list = []

    def open(self, name: str, attrs: Optional[dict] = None) -> dict:
        span = {"id": f"{self.pid}:{next(_SERIAL)}", "name": name,
                "start": time.perf_counter_ns(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "cell": self.cell, "pid": self.pid, "attrs": attrs or {}}
        self._stack.append(span["id"])
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != span["id"]:
            raise RuntimeError(f"span {span['name']} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        handle = self.open(name, attrs)
        try:
            yield handle
        finally:
            self.close(handle)


class NullRecorder:
    """The untraced run's recorder: every span is a no-op."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext({"attrs": {}})


def duration(span: dict) -> int:
    return span["end"] - span["start"]


def _covered(start: int, end: int, intervals: list) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list) -> dict:
    """``{span id: self time in ns}``: duration minus covered child time.

    Only children recorded by the same process count: a pool worker's
    spans run beside the driver's, not inside its time line.
    """
    pid_of = {span["id"]: span["pid"] for span in spans}
    children: dict = defaultdict(list)
    for span in spans:
        parent = span["parent"]
        if parent is not None and pid_of.get(parent) == span["pid"]:
            children[parent].append((span["start"], span["end"]))
    return {span["id"]: duration(span) - _covered(
                span["start"], span["end"], children[span["id"]])
            for span in spans}


def layer_of(name: str) -> str:
    """The layer a span's self time is charged to."""
    head = name.split(".", 1)[0]
    return {"obs": "observer", "bench": "unaccounted"}.get(head, head)


def descendants(spans: list, root_id: str) -> list:
    """``root_id``'s span and every span below it, across processes."""
    children: dict = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    out, todo = [], [span for span in spans if span["id"] == root_id]
    while todo:
        span = todo.pop()
        out.append(span)
        todo.extend(children[span["id"]])
    return out


def account(spans: list, root_id: str, jobs: int) -> dict:
    """Charge the wall time of ``root_id``'s span to layers, in ns.

    The driver's spans contribute their self time.  A pool worker's span
    contributes its self time divided by ``jobs``, the pool's share of
    one wall-clock second, and that amount is taken from the self time of
    the driver span that waited on the pool.  The remainder of that wait
    is pool idle time and inter-process overhead, charged to the harness.
    The values therefore sum to the root span's duration; the
    ``unaccounted`` entry is driver time inside no layer's span.
    """
    tree = descendants(spans, root_id)
    selfs = self_times(tree)
    by_id = {span["id"]: span for span in tree}
    driver = by_id[root_id]["pid"]
    layers: dict = defaultdict(float)
    for span in tree:
        share = selfs[span["id"]]
        if span["pid"] != driver:
            share /= jobs
            waiter = span
            while waiter["pid"] != driver:
                waiter = by_id[waiter["parent"]]
            layers[layer_of(waiter["name"])] -= share
        layers[layer_of(span["name"])] += share
    return dict(layers)


class Instrumentation:
    """Wraps ``repro``'s public layer entry points in spans.

    ``install`` replaces module attributes with span-issuing wrappers and
    ``uninstall`` restores them.  Pool workers are forked from the driver
    while the wrappers are installed, so they record spans too: each
    simulation records into its own :class:`Recorder`, whose spans travel
    back on the ``RunResult`` and are collected by the ``run_many``
    wrapper in the driver.
    """

    SPANS_ATTR = "_perfbench_spans"

    def __init__(self):
        self.recorder = Recorder()
        self._undo: list = []
        self._as_dict_depth = 0
        # (cell attrs, RunResult) per simulation the spans came back on.
        self.results: list = []

    # ----------------------------------------------------------- plumbing
    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def spanned(self, fn: Callable, name: str,
                on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``on_result(attrs, result)`` annotates."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder = self.recorder
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if on_result is not None:
                on_result(span["attrs"], result)
            return result
        return wrapper

    def wrap(self, owner, attr: str, name: str,
             on_result: Optional[Callable] = None) -> None:
        self._replace(owner, attr,
                      self.spanned(getattr(owner, attr), name, on_result))

    # ---------------------------------------------------------- install
    def install(self) -> None:
        from repro.experiments import figure7, figure8, figure9
        from repro.fuzz import campaign, oracle
        from repro.harness import cache, parallel, runner
        from repro.obs import metrics
        from repro.serve import planner
        from repro.verify import crosscheck

        for module in (figure7, figure8, figure9, campaign):
            self._replace(module, "run_many", self._run_many(module.run_many))
        self.wrap(planner, "plan_sweep", "harness.plan", _plan_attrs)
        self.wrap(cache, "result_key", "harness.key")
        self.wrap(cache, "load", "harness.cache_load",
                  lambda attrs, result: attrs.update(hit=result is not None))
        self.wrap(cache, "store", "harness.cache_store")
        self._replace(parallel, "run_one", self.cell(parallel.run_one))
        self._replace(runner, "get_workload",
                      self._get_workload(runner.get_workload))
        self._replace(runner, "build_core", self._build_core(runner.build_core))
        self.wrap(runner, "channel_digests", "observer.digest")
        self._replace(metrics.Metrics, "as_dict",
                      self._as_dict(metrics.Metrics.as_dict))

        for module in (campaign, crosscheck):
            self.wrap(module, "generate_plan", "fuzz.generate")
            self.wrap(module, "render", "workloads.build")
        self.wrap(campaign, "architectural_dependence", "fuzz.validate")
        self.wrap(crosscheck, "check_plan", "verify.symbolic",
                  lambda attrs, result: attrs.update(
                      explored=result.stats.explored, verdict=result.verdict))
        self.wrap(crosscheck, "check_pair_direct", "verify.concrete")
        self._replace(oracle, "OoOCore", self._core_factory(oracle.OoOCore))
        self.wrap(oracle, "channel_digests", "observer.digest")
        try:
            from repro.fastpath import vector_core
        except ImportError:
            return      # no vector backend here; its spans never occur
        self.wrap(vector_core, "lower_program", "fastpath.build")

    # ---------------------------------------------------------- wrappers
    def cell(self, run_one: Callable) -> Callable:
        """``run_one`` recording into a per-simulation recorder."""
        from repro.pipeline.params import MachineParams

        @functools.wraps(run_one)
        def wrapper(workload, config, model, **kwargs):
            backend = (kwargs.get("params") or MachineParams()).backend
            outer = self.recorder
            self.recorder = Recorder(
                cell=f"{workload}|{config}|{model.value}|{backend}")
            try:
                with self.recorder.span(
                        "harness.run_one", workload=workload, config=config,
                        model=model.value, backend=backend,
                        scale=kwargs.get("scale", 1),
                        budget=kwargs.get("max_instructions"),
                        collect_trace=kwargs.get("collect_trace", False)):
                    result = run_one(workload, config, model, **kwargs)
            finally:
                cell_recorder, self.recorder = self.recorder, outer
            setattr(result, self.SPANS_ATTR, cell_recorder.spans)
            return result
        return wrapper

    def harvest(self, results, parent: Optional[str]) -> None:
        """Move the spans that rode back on ``results`` into the recorder."""
        for result in results:
            spans = result.__dict__.pop(self.SPANS_ATTR, None)
            if spans is None:
                continue
            for span in spans:
                if span["parent"] is None:
                    self.results.append((span["attrs"], result))
                    span["parent"] = parent
            self.recorder.spans.extend(spans)

    def _run_many(self, run_many: Callable) -> Callable:
        @functools.wraps(run_many)
        def wrapper(specs, *args, **kwargs):
            with self.recorder.span("harness.run_many") as span:
                results = run_many(specs, *args, **kwargs)
            self.harvest(results, span["id"])
            return results
        return wrapper

    def _get_workload(self, get_workload: Callable) -> Callable:
        instrumentation = self

        class TracedWorkload:
            def __init__(self, workload):
                self._workload = workload

            def __getattr__(self, name):
                return getattr(self._workload, name)

            def program(self, scale: int = 1):
                with instrumentation.recorder.span("workloads.build"):
                    return self._workload.program(scale)

        @functools.wraps(get_workload)
        def wrapper(name):
            return TracedWorkload(get_workload(name))
        return wrapper

    def _instrument_core(self, core, layer: str) -> None:
        core.run = self.spanned(core.run, f"{layer}.run", _sim_attrs)
        core.build_metrics = self.spanned(core.build_metrics, "obs.metrics")
        core.legacy_stats = self.spanned(core.legacy_stats, "obs.metrics")

    def _build_core(self, build_core: Callable) -> Callable:
        from repro.pipeline.params import MachineParams

        @functools.wraps(build_core)
        def wrapper(program, engine=None, params=None, **kwargs):
            vector = (params or MachineParams()).backend == "vector"
            layer = "fastpath" if vector else "pipeline"
            with self.recorder.span(f"{layer}.build"):
                core = build_core(program, engine=engine, params=params,
                                  **kwargs)
            self._instrument_core(core, layer)
            return core
        return wrapper

    def _core_factory(self, core_class) -> Callable:
        def factory(program, *args, **kwargs):
            with self.recorder.span("pipeline.build"):
                core = core_class(program, *args, **kwargs)
            self._instrument_core(core, "pipeline")
            return core
        return factory

    def _as_dict(self, as_dict: Callable) -> Callable:
        """``Metrics.as_dict`` spanned at its outermost call only."""
        @functools.wraps(as_dict)
        def wrapper(metrics_self):
            if self._as_dict_depth:
                return as_dict(metrics_self)
            self._as_dict_depth += 1
            try:
                with self.recorder.span("obs.metrics"):
                    return as_dict(metrics_self)
            finally:
                self._as_dict_depth -= 1
        return wrapper


def _plan_attrs(attrs: dict, plan) -> None:
    attrs.update(specs=len(plan.specs), unique=plan.unique_cells)


def _sim_attrs(attrs: dict, sim) -> None:
    flat = sim.metrics.flatten()
    attrs["counts"] = {name: flat.get(name, 0) for name in SIM_COUNTERS}
    attrs["stalls"] = {name[len("stalls."):]: value
                       for name, value in flat.items()
                       if name.startswith("stalls.") and name != "stalls.total"}
