"""The ``repro serve`` and ``repro sweep`` subcommands.

``repro serve`` stands up the long-running service; ``repro sweep``
drives a (by default Figure-7-shaped) grid either locally through
``run_many`` or — with ``--server URL`` — through a running service,
rendering per-cell progress as the NDJSON events stream in.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional

from repro.core.attack_model import AttackModel
from repro.harness.configs import (FIGURE7_ORDER,
                                   parse_config_names)
from repro.harness.parallel import RunFailure, RunSpec, default_timeout
from repro.harness.report import format_table
from repro.harness.runner import bench_budget, bench_scale
from repro.pipeline.params import MachineParams
from repro.serve.client import ServerClient, ServerUnavailable, sweep_or_local
from repro.serve.store import DEFAULT_MEMORY_BYTES
from repro.workloads.registry import WORKLOADS

DEFAULT_PORT = 8737


# ---------------------------------------------------------------- repro serve
def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the sweep service: a shared tiered result store "
                    "with request coalescing and fair-share scheduling.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"listen port (default {DEFAULT_PORT}; "
                             f"0 picks an ephemeral port)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS/CPUs)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-run timeout in seconds "
                             "(default: REPRO_RUN_TIMEOUT)")
    parser.add_argument("--memory-mb", type=int, default=None,
                        help="in-process LRU tier budget in MiB "
                             f"(default {DEFAULT_MEMORY_BYTES // 2**20})")
    parser.add_argument("--no-disk", action="store_true",
                        help="disable the disk cache tier")
    parser.add_argument("--remote", default=None, metavar="URL",
                        help="another repro serve instance to consult as a "
                             "read-through tier on local misses")
    parser.add_argument("--gc-max-bytes", type=int, default=None,
                        help="periodically bound the disk tier to this "
                             "many bytes (mtime-LRU eviction)")
    parser.add_argument("--gc-interval", type=float, default=300.0,
                        help="seconds between disk gc passes")
    return parser


async def _serve(args: argparse.Namespace) -> int:
    from repro.harness import cache
    from repro.serve.server import ServeApp

    app = ServeApp(
        host=args.host, port=args.port, jobs=args.jobs,
        timeout=(args.timeout if args.timeout is not None
                 else default_timeout()),
        memory_bytes=(args.memory_mb * 2**20 if args.memory_mb is not None
                      else DEFAULT_MEMORY_BYTES),
        use_disk=not args.no_disk,
        remote_url=args.remote)
    await app.start()
    print(f"repro serve listening on {app.url} "
          f"(jobs={app.scheduler.jobs}, "
          f"memory={app.store.memory.max_bytes // 2**20}MiB, "
          f"disk={'on' if app.store.use_disk else 'off'}, "
          f"remote={args.remote or 'none'})", flush=True)

    async def gc_loop() -> None:
        while True:
            await asyncio.sleep(args.gc_interval)
            swept = await asyncio.to_thread(cache.gc, args.gc_max_bytes)
            if swept["evicted"] or swept["tmp_removed"]:
                print(f"disk gc: evicted {swept['evicted']} entries "
                      f"({swept['evicted_bytes']} B), "
                      f"{swept['tmp_removed']} stale tmp", flush=True)

    gc_task = (asyncio.create_task(gc_loop())
               if args.gc_max_bytes is not None and not args.no_disk
               else None)
    try:
        await app.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        if gc_task is not None:
            gc_task.cancel()
        await app.stop()
    return 0


def serve_main(argv: Optional[list] = None) -> int:
    args = _build_serve_parser().parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        print("repro serve: shutting down")
        return 0


# ---------------------------------------------------------------- repro sweep
def _build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Run a (workload x config x model) grid — locally, or "
                    "through a repro serve instance with --server.")
    parser.add_argument("--workloads", default="all",
                        help="comma-separated workload names, or 'all'")
    parser.add_argument("--configs", default="figure7",
                        help="comma-separated Table 2 configuration names, "
                             "or 'figure7' for the Figure 7 set")
    parser.add_argument("--models", default="futuristic,spectre",
                        help="comma-separated attack models")
    parser.add_argument("--budget", type=int, default=None,
                        help="max retired instructions per cell "
                             "(default: REPRO_BENCH_BUDGET)")
    parser.add_argument("--scale", type=int, default=None,
                        help="workload scale (default: REPRO_BENCH_SCALE)")
    parser.add_argument("--backend", choices=["reference", "vector"],
                        default=MachineParams().backend)
    parser.add_argument("--collect-trace", action="store_true",
                        help="also hash the attacker-visible trace per cell")
    parser.add_argument("--server", default=None, metavar="URL",
                        help="drive the sweep through a repro serve "
                             "instance instead of a local pool")
    parser.add_argument("--priority", choices=["interactive", "batch"],
                        default="batch")
    parser.add_argument("--no-fallback", action="store_true",
                        help="fail if the server is unreachable instead of "
                             "falling back to local execution")
    parser.add_argument("--jobs", type=int, default=None,
                        help="local worker count (no-server or fallback)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the local result cache (local path)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    return parser


def _sweep_grid(args: argparse.Namespace) -> list:
    workloads = (sorted(WORKLOADS) if args.workloads == "all"
                 else args.workloads.split(","))
    for name in workloads:
        if name not in WORKLOADS:
            raise SystemExit(f"error: unknown workload {name!r}")
    configs = (list(FIGURE7_ORDER) if args.configs == "figure7"
               else parse_config_names(args.configs))
    models = [AttackModel(name) for name in args.models.split(",")]
    budget = args.budget if args.budget is not None else bench_budget()
    scale = args.scale if args.scale is not None else bench_scale()
    params = MachineParams(backend=args.backend)
    return [RunSpec(workload, config, model, scale=scale,
                    max_instructions=budget, params=params,
                    collect_trace=args.collect_trace)
            for model in models
            for workload in workloads
            for config in configs]


def sweep_main(argv: Optional[list] = None) -> int:
    args = _build_sweep_parser().parse_args(argv)
    specs = _sweep_grid(args)
    print(f"sweep: {len(specs)} cells "
          f"({'server ' + args.server if args.server else 'local'})")

    landed = [0]

    def on_event(event: dict) -> None:
        if args.quiet:
            return
        kind = event.get("event")
        if kind == "planned":
            print(f"  planned: {event['cells']} cells, "
                  f"{event['unique']} unique")
        elif kind == "result":
            landed[0] += len(event["indexes"])
            print(f"  [{landed[0]}/{len(specs)}] "
                  f"{event['source']}: {event['key'][:12]}...")
        elif kind == "error":
            print(f"  FAILED {event['key'][:12]}...: {event['error']}")

    try:
        results = sweep_or_local(
            specs, server=args.server, jobs=args.jobs,
            use_cache=False if args.no_cache else None,
            priority=args.priority, on_event=on_event,
            fallback=not args.no_fallback)
    except ServerUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RunFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    headers = ["workload", "config", "model", "cycles", "retired", "IPC"]
    rows = [[r.workload, r.config, r.model.value, r.cycles, r.retired,
             round(r.ipc, 3)] for r in results]
    print(format_table(headers, rows, title="Sweep results"))
    return 0


def probe_server(url: str) -> dict:
    """Convenience: health + stats for scripts (raises ServerUnavailable)."""
    client = ServerClient(url)
    health = client.health()
    stats = client.stats()
    return {"health": health, "stats": stats}
