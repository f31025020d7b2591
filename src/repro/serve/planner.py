"""Sweep planning: dedup, cache prefill and spec-order reassembly.

A sweep arrives as an ordered list of :class:`RunSpec` cells.  Identical
cells must be simulated once, cells already in the disk cache must not
be simulated at all, and results must come back in spec order regardless
of completion order.  :class:`SweepPlan` is that bookkeeping;
``run_many`` is its executor.
"""

from __future__ import annotations

from typing import Sequence

from repro.harness import cache


class SweepPlan:
    """The execution plan for one sweep: unique misses plus hit prefill.

    Build with :func:`plan_sweep`.  ``miss_keys``/``miss_specs`` list the
    distinct cells that still need simulating (in first-appearance
    order); feed each computed result back with :meth:`record` and
    collect the full spec-ordered result list from :meth:`results`.
    """

    def __init__(self, specs: Sequence, keys: Sequence[str]):
        self.specs = list(specs)
        self.keys = list(keys)
        self._by_key: dict = {}         # key -> RunResult (hit or computed)
        self.miss_keys: list = []
        self.miss_specs: list = []

    @property
    def unique_cells(self) -> int:
        """Distinct simulations this sweep names (hit or miss)."""
        return len(set(self.keys))

    def record(self, key: str, result) -> None:
        """Store the result for ``key`` (a cache hit or a computed miss)."""
        self._by_key[key] = result

    def results(self) -> list:
        """All results in spec order; raises if any cell is unrecorded."""
        missing = [key for key in self.keys if key not in self._by_key]
        if missing:
            raise RuntimeError(
                f"sweep plan incomplete: {len(missing)} cell(s) never "
                f"recorded (first: {missing[0][:16]}...)")
        return [self._by_key[key] for key in self.keys]


def plan_sweep(specs: Sequence, use_cache: bool) -> SweepPlan:
    """Plan a sweep: compute keys, prefill disk-cache hits, list misses."""
    keys = [spec.key() for spec in specs]
    plan = SweepPlan(specs, keys)
    seen: set = set()
    for spec, key in zip(plan.specs, keys):
        if key in seen:
            continue
        seen.add(key)
        if use_cache:
            known = cache.load(key)
            if known is not None:
                plan.record(key, known)
                continue
        plan.miss_keys.append(key)
        plan.miss_specs.append(spec)
    return plan
