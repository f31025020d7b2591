"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {paper-grid,fuzz-campaign,crosscheck}
        [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` the run times the workload's body again and again on
fresh caches for about ``--seconds`` and prints the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` it alternates untraced and traced
bodies on one input and prints the per-layer metrics; the traced run's
spans and tables go to ``perfbench_out/``.  Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit status is 0 only when every
output passed its check.  README.md in this directory has the details.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import pickle
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, "perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

# Knobs a caller's environment could use to change what a run measures.
CLEARED_ENV = ("REPRO_NO_CACHE", "REPRO_BENCH_BUDGET", "REPRO_BENCH_SCALE",
               "REPRO_JOBS", "REPRO_RUN_TIMEOUT")

DEFAULT_SEED = 0
HELD_OUT_SEED = 7       # for confirming a claimed gain; never tune on it
DEFAULT_SECONDS = 25
SETUP_PROBES = 8        # fresh interpreters timed per run
RUN_DEADLINE_S = 165    # a run that is not done by then fails


class RunTimeout(BaseException):
    """Raised by the run's alarm; a BaseException so no handler eats it."""


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_DEADLINE_S}s")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-grid", "fuzz-campaign", "crosscheck"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="record paper-grid's reference outputs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def prepare(work: str) -> None:
    """Isolate the run and make ``repro`` and ``perfbench`` importable."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro sources under {ROOT}/src")
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    # Every cache the run touches lives under its own work directory.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(work, "cache")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def bodies_for(cls, seconds: int) -> int:
    return max(1, round(seconds / cls.nominal_body_s))


def fresh_cache(work: str, label: str) -> str:
    path = os.path.join(work, f"cache-{label}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    os.environ["REPRO_CACHE_DIR"] = path
    return path


def stop_children() -> None:
    """End every process this run started and wait for each."""
    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()


# ------------------------------------------------------------------ set-up
def setup_probe(args) -> int:
    """Fresh-interpreter set-up: imports, fingerprint, program builds."""
    from perfbench.tracing import NullRecorder
    from perfbench.workloads import WORKLOAD_CLASSES
    from repro.harness import cache

    cache.source_fingerprint()
    cls = WORKLOAD_CLASSES[args.workload]
    cls(args.seed, nproc(), bodies_for(cls, args.seconds)).setup(
        NullRecorder())
    print("ready", flush=True)
    return 0


def measure_setup(args) -> float:
    """Seconds from launching a fresh interpreter to a ready workload.

    The driver has imported everything first, so the bytecode caches are
    written before the first probe.
    """
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


def environment(args, jobs: int) -> dict:
    from repro.harness import cache
    from repro.pipeline.params import MachineParams

    return {"workload": args.workload, "seed": args.seed,
            "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": jobs, "python": platform.python_version(),
            "default_backend": MachineParams().backend,
            "source_fingerprint": cache.source_fingerprint()}


# ------------------------------------------------------------- timed body
class Tally:
    """Operations attempted and failed across a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def add(self, ops: int, failures: list) -> None:
        self.attempted += ops
        self.failures += failures


def timed_body(workload, index: int, work: str, recorder):
    """``(seconds, raw, cache_dir, root span)`` for one body, fresh cache."""
    cache_dir = fresh_cache(work, str(index))
    start = time.perf_counter()
    with recorder.span("bench.body") as root:
        raw = workload.run_body(index, recorder)
    return time.perf_counter() - start, raw, cache_dir, root


def run_untraced(args, work: str, tally: Tally) -> dict:
    from perfbench.tracing import NullRecorder
    from perfbench.workloads import WORKLOAD_CLASSES

    null = NullRecorder()
    cls = WORKLOAD_CLASSES[args.workload]
    workload = cls(args.seed, nproc(), bodies_for(cls, args.seconds))
    workload.setup(null)
    walls, instructions, setup, outcomes = [], [], [], []
    # Set-up probes are spread over the run, between bodies, so that one
    # slow stretch of the host does not hold all of them.
    probes_per_body = -(-SETUP_PROBES // workload.bodies)
    for index in range(workload.bodies):
        wall, raw, cache_dir, _ = timed_body(workload, index, work, null)
        outcome = workload.check_body(index, raw, cache_dir)
        tally.add(outcome.ops, outcome.failures)
        walls.append(wall)
        instructions.append(outcome.instructions)
        outcomes.append(outcome)
        warm = workload.run_rerender(index, null, raw)
        tally.add(1, workload.check_rerender(warm, outcome))
        shutil.rmtree(cache_dir, ignore_errors=True)
        for _ in range(min(probes_per_body, SETUP_PROBES - len(setup))):
            setup.append(measure_setup(args))
    tally.add(0, workload.check_run(outcomes))
    rss = {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "children": resource.getrusage(
               resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
    return {"setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            # Over the whole run: bodies differ in size, and a ratio of
            # sums weighs each by its length.
            "sim_kips": sum(instructions) / sum(walls) / 1e3,
            "peak_rss_mb": max(rss.values()), "rss_mb": rss,
            "bodies": workload.bodies, "walls": walls,
            "setup_times": setup, "inputs": workload.describe()}


# ------------------------------------------------------------- traced run
def vector_pass(inst, tally: Tally):
    """Re-run the traced body's simulations on the vector backend."""
    from perfbench.workloads import cell_digest
    from repro.core.attack_model import AttackModel
    from repro.harness import runner
    from repro.pipeline.params import MachineParams

    run_one = inst.cell(runner.run_one)
    with inst.recorder.span("bench.vector") as span:
        for attrs, result in list(inst.results):
            twin = run_one(attrs["workload"], attrs["config"],
                           AttackModel(attrs["model"]), scale=attrs["scale"],
                           max_instructions=attrs["budget"],
                           collect_trace=attrs["collect_trace"],
                           params=MachineParams(backend="vector"))
            inst.harvest([twin], span["id"])
            if cell_digest(twin) != cell_digest(result):
                tally.add(0, [f"vector backend differs on {attrs['workload']}"
                              f"|{attrs['config']}|{attrs['model']}"])
    return span["id"]


def run_traced(args, work: str, tally: Tally) -> dict:
    """Alternate untraced and traced bodies; spans of the first traced one."""
    from perfbench import layers
    from perfbench.tracing import Instrumentation, NullRecorder
    from perfbench.workloads import WORKLOAD_CLASSES

    jobs = nproc()
    null = NullRecorder()
    inst = Instrumentation()
    cls = WORKLOAD_CLASSES[args.workload]
    workload = cls(args.seed, jobs, 1)
    pairs = max(1, bodies_for(cls, args.seconds) // 2)
    roots: dict = {"rerender": [], "vector": None}

    inst.install()
    try:
        with inst.recorder.span("bench.setup") as span:
            workload.setup(inst.recorder)
        roots["setup"] = span["id"]
    finally:
        inst.uninstall()

    walls: dict = {"untraced": [], "traced": []}
    outcomes, rerenders = [], []
    for label in ("untraced", "traced") * pairs + ("untraced",):
        if label == "untraced":
            wall, raw, cache_dir, _ = timed_body(workload, 0, work, null)
            for _ in range(workload.rerender_repeats):
                start = time.perf_counter()
                warm = workload.run_rerender(0, null, raw)
                rerenders.append(time.perf_counter() - start)
        else:
            # Later traced bodies only time the wrappers' cost.
            tracer = inst if "body" not in roots else Instrumentation()
            tracer.install()
            try:
                wall, raw, cache_dir, root = timed_body(
                    workload, 0, work, tracer.recorder)
                if tracer is inst:
                    roots["body"], traced_raw = root["id"], raw
                    for _ in range(workload.rerender_repeats):
                        with inst.recorder.span("bench.rerender") as span:
                            workload.run_rerender(0, inst.recorder, raw)
                        roots["rerender"].append(span["id"])
                    if inst.results:
                        roots["vector"] = vector_pass(inst, tally)
            finally:
                tracer.uninstall()
        outcome = workload.check_body(0, raw, cache_dir)
        tally.add(outcome.ops, outcome.failures)
        if label == "untraced":
            tally.add(1, workload.check_rerender(warm, outcome))
        walls[label].append(wall)
        outcomes.append(outcome)
        shutil.rmtree(cache_dir, ignore_errors=True)
    if any(o.summary != outcomes[0].summary for o in outcomes):
        tally.add(0, ["traced run's results differ from the untraced run's"])
    tally.add(0, workload.check_run(outcomes))

    pickled = [result for attrs, result in inst.results
               if attrs["backend"] == "reference"]
    start = time.perf_counter_ns()
    for result in pickled:
        pickle.loads(pickle.dumps(result))
    pickle_ns = time.perf_counter_ns() - start
    untraced = statistics.median(walls["untraced"])
    traced = statistics.median(walls["traced"])
    print(json.dumps({"walls": walls}))
    extra = {
        "rerender_s": statistics.median(rerenders),
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_ratio": traced / untraced - 1,
        "harness.pickle_us": pickle_ns / 1e3 / len(pickled) if pickled
        else 0.0,
        "fuzz.invalid_ratio": workload.invalid_ratio(traced_raw),
    }
    metrics, tables = layers.layer_metrics(inst.recorder.spans, roots, jobs,
                                           extra)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump({"environment": environment(args, jobs),
                   "inputs": workload.describe(), "walls": walls,
                   "metrics": metrics, "tables": tables,
                   "spans": inst.recorder.spans}, handle)
    print(f"perfbench: traced-run spans and tables in {path}",
          file=sys.stderr)
    return metrics


# -------------------------------------------------------------------- main
def write_reference(args, work: str) -> int:
    """Record paper-grid's per-cell digests and headline for the check."""
    from perfbench.tracing import NullRecorder
    from perfbench.workloads import REFERENCE_PATH, PaperGrid
    from repro.experiments import figure7

    null = NullRecorder()
    grid = PaperGrid(0, nproc(), 1)
    grid.setup(null)
    _, data, _, _ = timed_body(grid, 0, work, null)
    reference = {"cells": grid.cells(), "headline": figure7.headline(data)}
    reference.update(grid.describe())
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


def spec_metrics(trace: int) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    work = os.path.join(WORK_DIR, str(os.getpid()))
    prepare(work)
    if args.setup_probe:
        return setup_probe(args)
    os.makedirs(work, exist_ok=True)
    tally = Tally()
    values: dict = {}
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_DEADLINE_S)
    try:
        if args.write_reference:
            return write_reference(args, work)
        print(json.dumps({"environment": environment(args, nproc())}))
        values = (run_traced if args.trace else run_untraced)(
            args, work, tally)
    except (Exception, RunTimeout) as exc:  # noqa: BLE001 — reported below
        tally.add(1, [f"{type(exc).__name__}: {exc}"])
    finally:
        signal.alarm(0)
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)      # only when no other run is using it
    for failure in tally.failures:
        print(f"perfbench: FAILED: {failure}", file=sys.stderr)
    attempted = max(1, tally.attempted)
    failed = len(tally.failures)
    values["ok_ratio"] = 1 - failed / attempted
    if not args.trace and "walls" in values:
        print(json.dumps({key: values[key] for key in (
            "bodies", "walls", "setup_times", "rss_mb", "inputs")}))
    metrics = {}
    for entry in spec_metrics(args.trace):
        if entry["name"] in values:
            metrics[entry["name"]] = {"value": values[entry["name"]],
                                      "unit": entry["unit"]}
        elif not failed:
            failed += 1
            print(f"perfbench: metric {entry['name']} was not measured",
                  file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
