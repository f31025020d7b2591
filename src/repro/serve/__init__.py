"""Sweep planning for ``repro.harness.run_many``.

The planner belongs with the harness, but it stays at this import path
for now: the repository benchmark's tracer (``perfbench/tracing.py``)
patches ``repro.serve.planner.plan_sweep`` by name, and ``run_many``
imports it from here at call time so that the patch is seen.
"""

from repro.serve.planner import SweepPlan, plan_sweep

__all__ = ["SweepPlan", "plan_sweep"]
