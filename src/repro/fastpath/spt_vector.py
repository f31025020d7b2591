"""Struct-of-arrays SPT engine for the vector backend.

:class:`VectorSPTEngine` is a drop-in :class:`~repro.core.spt.SPTEngine`
producing bit-identical results, with the per-cycle work restructured
around a fixed window of *slots* (one per ROB entry, allocated circularly
in program order):

* the per-entry taint bits (``t_src1``/``t_src2``/``t_dst``) are mirrored
  into packed Python-int bitmasks indexed by slot, so the Section 6.6
  forward/backward local rules evaluate over the whole window in a
  handful of bitwise operations instead of a per-DynInst Python loop;
* the static rule class of every instruction (pure, invertible-monadic,
  invertible-ALU) comes from the decode-time tables of
  :mod:`repro.fastpath.tables`, and the rename-time taint initialisation
  is folded into the same table lookup (one ``on_rename``, no chained
  parent call on the hot path);
* the dependence matrix is kept as packed bitmasks *per physical
  register* (a flat row per preg: bitset of window slots referencing
  it), so an untaint broadcast clears matching operand bits by walking
  one lazily-validated row instead of scanning the window;
* the STL rules only visit a watch list of forwarded loads instead of the
  whole LSQ.

Every mutation of taint state also bumps the core's activity counter, so
the vector core can prove cycles quiescent and fast-forward them (see
:mod:`repro.fastpath.vector_core`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.attack_model import AttackModel
from repro.core.events import UntaintKind
from repro.core.shadow_l1 import ShadowMode
from repro.core.spt import SPTEngine
from repro.fastpath.tables import (F_BRANCH, F_INV_ALU, F_INV_MONO, F_JUMP_REG,
                                   F_LOAD, F_PC_INFERABLE, F_PURE,
                                   F_TRANSMITTER, lower_program)
from repro.pipeline.dyninst import DynInst

# Newly-VP kinds the tick loop declassifies (Section 6.6).
_F_DECLASS = F_TRANSMITTER | F_BRANCH | F_JUMP_REG


class VectorSPTEngine(SPTEngine):
    """SPT with packed-bitmask window state (bit-identical to the parent)."""

    def __init__(self, model: AttackModel, backward: bool = True,
                 shadow: ShadowMode = ShadowMode.L1, ideal: bool = False):
        super().__init__(model, backward=backward, shadow=shadow, ideal=ideal)
        self._cap = 0
        self._head = 0
        self._tail = 0
        self._slot_di: list[Optional[DynInst]] = []
        # Packed per-slot bitmasks (Python ints as bitsets over slots).
        self._t_src1_m = 0
        self._t_src2_m = 0
        self._t_dst_m = 0
        self._pure_m = 0
        self._inv_mono_m = 0
        self._inv_alu_m = 0
        # Dependence matrix rows: preg -> bitset of slots whose entry
        # references it (as src1, src2 or dst), stored as a flat list
        # indexed by physical register.  Rows are built at rename and
        # validated lazily by the broadcast walk (slot frees do not prune
        # them), so a broadcast touches at most the slots that referenced
        # the register since its last broadcast — and clears exactly the
        # entries the reference's whole-window scan would have matched.
        self._preg_slots: list[int] = []
        self._pc_flags: list[int] = []
        # Forwarded loads currently subject to the STL rules (Section 6.7).
        self._stl_watch: list[DynInst] = []
        self._stl_seen: set[int] = set()

    def attach(self, core) -> None:
        super().attach(core)
        self._cap = core.params.rob_entries
        self._head = 0
        self._tail = 0
        self._slot_di = [None] * self._cap
        self._t_src1_m = self._t_src2_m = self._t_dst_m = 0
        self._pure_m = self._inv_mono_m = self._inv_alu_m = 0
        self._preg_slots = [0] * core.params.num_phys_regs
        self._pc_flags = lower_program(core.program).flags
        self._stl_watch = []
        self._stl_seen = set()

    # ------------------------------------------------------- slot lifecycle
    def on_rename(self, di: DynInst) -> None:
        # Merged parent rename: the taint initialisation (SPTEngine
        # .on_rename / taint_algebra.initial_output_taint, Section 6.3)
        # re-expressed over the decode-table flags so one pass fills both
        # the per-entry bits and the packed window masks.
        taint = self.taint
        prs1 = di.prs1
        prs2 = di.prs2
        prd = di.prd
        t1 = prs1 >= 0 and taint[prs1]
        t2 = prs2 >= 0 and taint[prs2]
        di.t_src1 = t1
        di.t_src2 = t2
        flags = self._pc_flags[di.pc]
        if flags & F_LOAD:
            tainted = True             # memory taint unknown at rename
        elif flags & F_PC_INFERABLE:
            tainted = False            # Section 6.5
        else:
            tainted = t1 or t2
        # t_dst is kept even for discarded destinations (rd = x0): the
        # backward rules must not treat a never-observable result as public.
        di.t_dst = tainted
        if prd >= 0:
            taint[prd] = tainted
            if tainted:
                self._taint_since[prd] = self.core.cycle
            else:
                self._taint_since.pop(prd, None)
        slot = self._tail
        self._tail = slot + 1 if slot + 1 < self._cap else 0
        di.fp_slot = slot
        self._slot_di[slot] = di
        bit = 1 << slot
        if flags & F_PURE:
            self._pure_m |= bit
        if flags & F_INV_MONO:
            self._inv_mono_m |= bit
        elif flags & F_INV_ALU:
            self._inv_alu_m |= bit
        if t1:
            self._t_src1_m |= bit
        if t2:
            self._t_src2_m |= bit
        if tainted:
            self._t_dst_m |= bit
        rows = self._preg_slots
        if prs1 >= 0:
            rows[prs1] |= bit
        if prs2 >= 0 and prs2 != prs1:
            rows[prs2] |= bit
        if prd >= 0:
            # A fresh destination register cannot alias a source row: prd
            # comes off the free list, sources off the RAT.
            rows[prd] |= bit

    def _free_slot(self, di: DynInst) -> None:
        # O(1): clear the slot's bit in every packed mask.  The dependence
        # rows are *not* pruned here — stale row bits are filtered lazily
        # by the broadcast walk (``_clear_entry_bits``), which validates
        # each slot against the live entry's registers before clearing.
        slot = di.fp_slot
        di.fp_slot = -1
        bit = 1 << slot
        nbit = ~bit
        self._t_src1_m &= nbit
        self._t_src2_m &= nbit
        self._t_dst_m &= nbit
        self._pure_m &= nbit
        self._inv_mono_m &= nbit
        self._inv_alu_m &= nbit
        self._slot_di[slot] = None

    def on_retire(self, di: DynInst) -> None:
        # Parent declassification runs first, while the slot is still live.
        super().on_retire(di)
        slot = di.fp_slot
        self._free_slot(di)
        self._head = slot + 1 if slot + 1 < self._cap else 0

    def on_squash(self, squashed: list) -> None:
        super().on_squash(squashed)
        if not squashed:
            return
        # Youngest first: the tail retracts to the oldest victim's slot.
        # All victims' mask bits fall in one batched clear.
        self._tail = squashed[-1].fp_slot
        slot_di = self._slot_di
        dead = 0
        for di in squashed:
            dead |= 1 << di.fp_slot
            slot_di[di.fp_slot] = None
            di.fp_slot = -1
        live = ~dead
        self._t_src1_m &= live
        self._t_src2_m &= live
        self._t_dst_m &= live
        self._pure_m &= live
        self._inv_mono_m &= live
        self._inv_alu_m &= live

    # ------------------------------------------------------ untaint requests
    def _request(self, di: Optional[DynInst], slot: str, preg: int,
                 cause: UntaintKind) -> None:
        # Mirror the parent's per-entry bit clears into the packed masks
        # (the parent's early-outs are replicated so a no-op request leaves
        # the masks untouched), and flag the cycle as active.
        if di is not None:
            fp = di.fp_slot
            if slot == "src1":
                if not di.t_src1:
                    return
                if fp >= 0:
                    self._t_src1_m &= ~(1 << fp)
            elif slot == "src2":
                if not di.t_src2:
                    return
                if fp >= 0:
                    self._t_src2_m &= ~(1 << fp)
            else:
                if not di.t_dst:
                    return
                if fp >= 0:
                    self._t_dst_m &= ~(1 << fp)
        self.core._activity += 1
        super()._request(di, slot, preg, cause)

    # ------------------------------------------------------------------ tick
    def tick(self) -> None:
        # Parent tick with the empty cases short-circuited: no watch list
        # means no STL rules, and an empty broadcast queue means the parent
        # would only have recorded a zero cycle width — a no-op on the
        # histogram (UntaintEvents.record_cycle_width ignores zeros).
        newly_vp = self.core.advance_vp(self.vp_predicate)
        if newly_vp:
            flags = self._pc_flags
            for di in newly_vp:
                if flags[di.pc] & _F_DECLASS:
                    self._declassify(di)
        if self.ideal:
            self._tick_ideal()
            return
        if self._stl_watch:
            self._stl_rules()
        self._local_rules()
        if self._pending:
            self.core._activity += 1
            SPTEngine._broadcast(self, self.width)

    # ---------------------------------------------------------------- rules
    def _local_rules(self) -> None:
        # Whole-window evaluation of the Section 6.6 rules in O(1) bitops.
        if not (self._t_dst_m | self._t_src1_m | self._t_src2_m):
            return    # no tainted bit anywhere: neither rule can fire
        # Forward: pure entry, tainted output, both sources untainted.
        fwd = (self._t_dst_m & self._pure_m
               & ~self._t_src1_m & ~self._t_src2_m)
        # Backward: output untainted (counting a forward fire this pass,
        # matching the reference's within-entry dst-then-src ordering),
        # and the single remaining tainted source is inferable.
        if self.backward:
            t_dst_eff = self._t_dst_m & ~fwd
            bwd = ~t_dst_eff & (
                (self._inv_mono_m & self._t_src1_m)
                | (self._inv_alu_m & (self._t_src1_m ^ self._t_src2_m)))
        else:
            bwd = 0
        fire = fwd | bwd
        if not fire:
            return
        # Process firing slots in window (program) order: the broadcast
        # queue is FIFO, so enqueue order is architecturally visible.
        slots = []
        mask = fire
        while mask:
            low = mask & -mask
            slots.append(low.bit_length() - 1)
            mask ^= low
        head, cap = self._head, self._cap
        if len(slots) > 1:
            slots.sort(key=lambda s: s - head if s >= head else s + cap - head)
        slot_di = self._slot_di
        for s in slots:
            di = slot_di[s]
            bit = 1 << s
            if fwd & bit:
                self._request(di, "dst", di.prd, UntaintKind.FORWARD)
            else:
                if self._inv_mono_m & bit or di.t_src1:
                    self._request(di, "src1", di.prs1, UntaintKind.BACKWARD)
                else:
                    self._request(di, "src2", di.prs2, UntaintKind.BACKWARD)

    def skip_cache_for_forwarding(self, load: DynInst, store: DynInst) -> bool:
        # First sighting of a forwarded load: put it on the STL watch list.
        if load.fwding_st >= 0 and load.seq not in self._stl_seen:
            self._stl_seen.add(load.seq)
            self._stl_watch.append(load)
        return super().skip_cache_for_forwarding(load, store)

    def _stl_rules(self) -> None:
        # Same per-load body as the parent, but only over forwarded loads.
        watch = self._stl_watch
        if not watch:
            return
        if any(ld.retired or ld.squashed for ld in watch):
            watch = [ld for ld in watch if not ld.retired and not ld.squashed]
            self._stl_watch = watch
            self._stl_seen = {ld.seq for ld in watch}
            if not watch:
                return
        if len(watch) > 1:
            watch.sort(key=lambda d: d.seq)    # LSQ (program) order
        for load in watch:
            store = load.forwarded_from
            if not load.stl_public:
                if not self._stl_public(load, store):
                    continue
                load.stl_public = True
            if not store.t_src2 and load.t_dst:
                self._request(load, "dst", load.prd, UntaintKind.STL_FORWARD)
            elif self.backward and not load.t_dst and store.t_src2:
                target = store if not store.retired else None
                self._request(target, "src2", store.prs2,
                              UntaintKind.STL_BACKWARD)
                store.t_src2 = False
                if store.fp_slot >= 0:
                    self._t_src2_m &= ~(1 << store.fp_slot)
                self.core._activity += 1

    # -------------------------------------------------------------- broadcast
    def _broadcast(self, limit: Optional[int]) -> int:
        if self._pending:
            self.core._activity += 1
        return super()._broadcast(limit)

    def _clear_entry_bits(self, preg: int) -> None:
        # The reference scans the whole window per broadcast register; the
        # dependence row reduces that to one dict lookup plus a walk of the
        # slots recorded as referencing the register.  Rows are not pruned
        # when slots free (``_free_slot`` is O(1)), so the walk validates
        # each slot — an emptied or reused slot whose entry no longer
        # references ``preg`` is exactly what the reference's per-entry
        # field test would skip, and its stale bit is dropped from the row
        # here.  A reused slot whose *new* entry references ``preg`` again
        # is a true match (rename re-ORed its bit).  The per-slot clears
        # are independent, so the ascending-slot walk is equivalent to the
        # reference's program-order ROB scan.
        rows = self._preg_slots
        mask = rows[preg]
        if not mask:
            return
        slot_di = self._slot_di
        row = mask
        while mask:
            low = mask & -mask
            mask ^= low
            di = slot_di[low.bit_length() - 1]
            if di is None:
                row ^= low
                continue
            nbit = ~low
            hit = False
            if di.prs1 == preg:
                hit = True
                di.t_src1 = False
                di.pend_src1 = False
                self._t_src1_m &= nbit
            if di.prs2 == preg:
                hit = True
                di.t_src2 = False
                di.pend_src2 = False
                self._t_src2_m &= nbit
            if di.prd == preg:
                hit = True
                di.t_dst = False
                di.pend_dst = False
                self._t_dst_m &= nbit
            if not hit:
                row ^= low
        rows[preg] = row


def vectorize_engine(engine):
    """Upgrade a reference engine to its vector twin where one exists.

    Engines without a vector implementation (baselines, STT) run unchanged
    under the vector core — they still benefit from quiescent-cycle
    fast-forwarding.  Exact-type match on purpose: an unknown SPTEngine
    subclass must not be silently replaced.
    """
    if type(engine) is SPTEngine:
        return VectorSPTEngine(engine.model, backward=engine.backward,
                               shadow=engine.shadow_mode, ideal=engine.ideal)
    return engine
