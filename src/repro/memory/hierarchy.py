"""Three-level cache hierarchy with MSHR-limited misses.

Latencies follow Table 1 of the paper: L1D 2 cycles, L2 20, L3 40, DRAM a
fixed latency beyond that.  An access walks L1D -> L2 -> L3 -> DRAM, filling
every level it missed in (inclusive hierarchy), and reports which L1 line (if
any) was evicted so the shadow L1 can mirror the decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.memory.cache import Cache, CacheParams


@dataclass
class HierarchyParams:
    """Latency/geometry knobs for the whole hierarchy (paper Table 1)."""

    l1 = None  # placeholder for dataclass default workaround
    l1_params: CacheParams = field(default_factory=lambda: CacheParams(
        "L1D", size_bytes=32 * 1024, line_bytes=64, ways=8, latency=2))
    l2_params: CacheParams = field(default_factory=lambda: CacheParams(
        "L2", size_bytes=256 * 1024, line_bytes=64, ways=16, latency=20))
    l3_params: CacheParams = field(default_factory=lambda: CacheParams(
        "L3", size_bytes=2 * 1024 * 1024, line_bytes=64, ways=16, latency=40))
    dram_latency: int = 90
    mshrs: int = 16


class AccessResult:
    """Outcome of one hierarchy access (slotted: one is built per access)."""

    __slots__ = ("latency", "level", "l1_evicted_line", "stalled")

    def __init__(self, latency: int, level: str,
                 l1_evicted_line: Optional[int], stalled: bool = False):
        self.latency = latency
        self.level = level                      # "L1D", "L2", "L3" or "DRAM"
        self.l1_evicted_line = l1_evicted_line
        self.stalled = stalled                  # MSHRs exhausted; retry


class MemoryHierarchy:
    """L1D/L2/L3/DRAM timing model with a finite MSHR pool."""

    def __init__(self, params: Optional[HierarchyParams] = None):
        self.params = params or HierarchyParams()
        self.l1 = Cache(self.params.l1_params)
        self.l2 = Cache(self.params.l2_params)
        self.l3 = Cache(self.params.l3_params)
        # Completion cycles of the MSHRs in use; entries at or before the
        # current cycle are free and are purged lazily by ``access``.
        self._mshr_busy_until: list[int] = []
        # Notified with the line address of every L1 line dropped by an
        # explicit flush (clflush-style harness helpers below).  Demand
        # evictions flow through AccessResult.l1_evicted_line instead; the
        # core wires this to the engine so the shadow L1 never tracks a
        # non-resident line (the shadow-residency invariant).
        self.on_l1_invalidate = None

    @property
    def line_bytes(self) -> int:
        return self.params.l1_params.line_bytes

    def access(self, address: int, now: int, is_write: bool = False) -> AccessResult:
        """Perform a timed access at cycle ``now``.

        Returns the latency until data is available and which level supplied
        it.  A miss consumes an MSHR until completion; if all MSHRs are busy
        the access stalls (no state is changed) and must be retried.
        """
        if not self.l1.probe(address):
            busy = self._mshr_busy_until
            # Expired entries are purged only when the list looks full: the
            # access stalls iff the MSHRs still busy after ``now`` fill it.
            if len(busy) >= self.params.mshrs:
                busy = [t for t in busy if t > now]
                self._mshr_busy_until = busy
                if len(busy) >= self.params.mshrs:
                    return AccessResult(0, "STALL", None, stalled=True)
        latency = self.params.l1_params.latency
        hit, l1_evicted = self.l1.access(address)
        if hit:
            return AccessResult(latency, "L1D", None)
        latency += self.params.l2_params.latency
        hit, _ = self.l2.access(address)
        if hit:
            level = "L2"
        else:
            latency += self.params.l3_params.latency
            hit, _ = self.l3.access(address)
            if hit:
                level = "L3"
            else:
                latency += self.params.dram_latency
                level = "DRAM"
        self._mshr_busy_until.append(now + latency)
        return AccessResult(latency, level, l1_evicted)

    def l1_resident(self, address: int) -> bool:
        """Tag-check the L1D without touching replacement state."""
        return self.l1.probe(address)

    def flush_l1_line(self, address: int) -> bool:
        """Invalidate one L1 line (used by attack harnesses, clflush-style)."""
        flushed = self.l1.invalidate(address)
        if flushed and self.on_l1_invalidate is not None:
            self.on_l1_invalidate(self.l1.line_address(address))
        return flushed

    def flush_all(self) -> None:
        """Invalidate every level (attack harness helper)."""
        for line in self.l1.resident_lines():
            self.l1.invalidate(line)
            if self.on_l1_invalidate is not None:
                self.on_l1_invalidate(line)
        for cache in (self.l2, self.l3):
            for line in cache.resident_lines():
                cache.invalidate(line)
