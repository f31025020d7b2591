"""Set-associative cache model (tags + LRU only).

Caches in this simulator model *timing and presence*: architectural data
always lives in :class:`~repro.memory.main_memory.MainMemory`, which keeps the
functional semantics trivially correct, while the caches decide hit level and
latency and report L1 evictions (the shadow L1 mirrors those decisions,
Section 7.5 of the paper).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional


@dataclass
class CacheParams:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    ways: int
    latency: int

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.line_bytes * self.ways)
        if sets <= 0:
            raise ValueError(f"{self.name}: size too small for geometry")
        return sets


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class Cache:
    """One level of set-associative, LRU, write-allocate cache."""

    def __init__(self, params: CacheParams):
        self.params = params
        self.stats = CacheStats()
        self._num_sets = params.num_sets
        # Set index -> line addresses, most recently used last.  A set is
        # allocated the first time it is looked up.
        self._sets: defaultdict[int, list[int]] = defaultdict(list)

    def line_address(self, address: int) -> int:
        return address - address % self.params.line_bytes

    def _set_index(self, line: int) -> int:
        return (line // self.params.line_bytes) % self._num_sets

    def probe(self, address: int) -> bool:
        """Tag check without any state change."""
        line = self.line_address(address)
        return line in self._sets[self._set_index(line)]

    def access(self, address: int) -> tuple[bool, Optional[int]]:
        """Access ``address``; returns (hit, evicted_line_or_None).

        On a miss the line is filled, evicting the LRU line if the set is
        full.
        """
        line = self.line_address(address)
        ways = self._sets[self._set_index(line)]
        if line in ways:
            ways.remove(line)
            ways.append(line)
            self.stats.hits += 1
            return True, None
        self.stats.misses += 1
        evicted = None
        if len(ways) >= self.params.ways:
            evicted = ways.pop(0)
            self.stats.evictions += 1
        ways.append(line)
        return False, evicted

    def invalidate(self, address: int) -> bool:
        """Drop the line holding ``address``; returns whether it was present."""
        line = self.line_address(address)
        ways = self._sets[self._set_index(line)]
        if line in ways:
            ways.remove(line)
            return True
        return False

    def resident_lines(self) -> list[int]:
        return [line for ways in self._sets.values() for line in ways]
