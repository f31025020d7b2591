"""Vector-backend core: batched pipeline phases + quiescent fast-forwarding.

:class:`VectorCore` is an :class:`~repro.pipeline.core.OoOCore` with two
layers of mechanical speed work, both bit-identical to the reference by
construction and by the differential suite (``repro backend-diff``, the
commit-lockstep sanitizer, the bench stall witnesses):

**Quiescent-cycle fast-forwarding** (PR 5).  The core's activity counter
is bumped at every true state mutation; a :meth:`step` that leaves it
unchanged demonstrated that *nothing* in the machine moved, so every
following cycle is an identical no-op until the next scheduled event (a
completion bucket, the fetch-redirect resume, the fetch buffer's
frontend delay, or an MSHR expiry).  Time then jumps straight to the
cycle before that event, with the skipped cycles accounted for in batch:

* stall-cause buckets get ``skipped`` cycles of the same cause the
  detection cycle had (split at the squash-recovery boundary, the single
  cycle-dependent attribution);
* the per-cycle delayed-transmitter/-resolution counters get the
  detection cycle's delta replayed ``skipped`` times;
* engines replay their own per-cycle counters via
  :meth:`~repro.pipeline.engine_api.ProtectionEngine.on_quiet_cycles`.

**Batched phases over the decode tables** (this layer).  The stepped
cycles that remain are dominated by per-instruction Python in the shared
frontend/scheduler, amplified ~8.6x by wrong-path overfetch.  When no
observer needs per-instruction materialisation (no sanitizer, no
tracer), the phases switch to table-driven fast paths:

* **batch fetch** decodes whole straight-line runs against the
  :class:`~repro.fastpath.tables.ProgramTable` run-length column in one
  tight loop, re-stamping pooled :class:`DynInst` carcasses
  (:meth:`DynInst.reinit`) instead of allocating — squash victims are
  quarantined until their squash cycle has passed *and* any still
  scheduled completion-bucket entry has drained, then recycled;
* **table-driven dispatch** replaces the per-instruction kind tests and
  method calls with precomputed ``dclass``/``hasdest``/``needs_rs``
  columns and registers each entry with the wakeup network;
* **wakeup-driven select** replaces the per-RS-entry scan: waiters are
  keyed by physical register, writeback wakes them by decrementing a
  pending-operand count, and ready candidates merge with the
  engine-gated list in seq order — reproducing the reference issue
  loop's program-order width/gating semantics without touching entries
  whose operands cannot have changed.  Structures hold ``(seq, di)``
  pairs and revalidate ``di.seq`` before trusting an entry, which makes
  stale references from squashes (and pooled recycling) self-cleaning;
* **event-driven memory stage** replaces the per-cycle LSQ walk with two
  seq-tagged worklists filled at address resolution — unissued loads in
  seq order and stores waiting for their data — reuses each load's
  dependence decision until a store address resolves or a store
  retires, and parks a non-forwarded load that stalled on exhausted
  MSHRs until the earliest busy MSHR expires.

Both layers are disabled under ``check_level != "off"`` (the lockstep
sanitizer wants to see every cycle and every real ``DynInst``) and when
a tracer installed a squash sink — exactly the modes CI uses to pin the
vector backend against the golden interpreter.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Optional

from repro.fastpath.spt_vector import VectorSPTEngine, vectorize_engine
from repro.fastpath.tables import (DC_JUMP, DC_LOAD, DC_NONE, DC_STORE,
                                   F_INV_ALU, F_INV_MONO, F_LOAD,
                                   F_PC_INFERABLE, F_PURE,
                                   KC_HALT, KC_SIMPLE, lower_program)
from repro.isa.opcodes import WORD_MASK
from repro.isa.semantics import alu_result
from repro.obs.stall import StallCause, attribute_cycle
from repro.pipeline.core import OoOCore, SimResult, SimulationError
from repro.pipeline.dyninst import DynInst
from repro.pipeline.engine_api import ProtectionEngine

def _seq_of(di):
    return di.seq


_RETIRING = int(StallCause.RETIRING)
_SQUASH_RECOVERY = int(StallCause.SQUASH_RECOVERY)
_FETCH_STARVED = int(StallCause.FETCH_STARVED)
_ROB_FULL = int(StallCause.ROB_FULL)
_RS_FULL = int(StallCause.RS_FULL)
_LSQ_FULL = int(StallCause.LSQ_FULL)


class VectorCore(OoOCore):
    """OoO core with the struct-of-arrays fast path (backend="vector")."""

    def __init__(self, program, engine=None, params=None, **kwargs):
        if engine is not None:
            engine = vectorize_engine(engine)
        super().__init__(program, engine=engine, params=params, **kwargs)
        # Batched-phase state.  ``_fast`` is decided once, at the first
        # ``run()`` call: direct ``step()`` driving, the sanitizer, and the
        # tracer's squash sink all keep the reference phases (and their
        # per-instruction DynInst materialisation) live.
        self._fast = False
        self._fast_decided = False
        self._table = None
        # Recycling pools, keyed by pc: a carcass is only ever reused as
        # the same static instruction, which lets the re-stamp skip every
        # field whose value is pc-determined or dead across same-pc lives
        # (DynInst.reinit_recycled documents the proof per field).
        self._pool: dict[int, list[DynInst]] = {}
        self._quar: list = []              # heap of (release_cycle, seq, di)
        # Squash victims with no still-scheduled completion-bucket entry
        # (``ready_cycle <= cycle``): they only need to stay visible as
        # ``squashed = True`` until the squash cycle's remaining observers
        # (this cycle's engine tick, the STL watch prune) have run, so they
        # cool in a plain list tagged with the squash cycle and re-pool in
        # one batch on the first later cycle — no heap traffic.
        self._cool: list[DynInst] = []
        self._cool_cycle = -1
        # Wakeup network: preg -> [(seq, di), ...] waiting on that register;
        # a min-heap of operand-ready candidates; and the seq-sorted list of
        # ready candidates the engine gated (or the width cut off) last
        # cycle.  All entries are revalidated by seq before use.
        self._rs_wait: dict[int, list] = {}
        self._rs_ready: list = []
        self._rs_gated: list = []
        self._rs_count = 0                 # reference len(self.rs) twin
        # Loads whose data arrived this cycle (writeback bucket pop), to be
        # finalised by _finish_loads without scanning the LSQ.
        self._fin_loads: list[DynInst] = []
        # Memory-stage worklists, filled when an address resolves (see
        # _memory_stage).  Loads not yet issued, in seq order, as
        # [seq, di, epoch, blocked, forward_store, parked_until]; stores
        # waiting for their data, as (seq, di).  ``_mem_epoch`` counts the
        # events that can change a load's dependence decision: a store
        # address resolving, a store retiring.
        self._ld_wait: list = []
        self._st_wait: list = []
        self._mem_epoch = 0

    # ------------------------------------------------------------------ run
    def _simulate(self, max_instructions: int) -> SimResult:
        """Reference run loop plus fast-forwarding and batched phases."""
        if not self._fast_decided:
            self._fast_decided = True
            if (self.checker is None and self.squash_sink is None
                    and self.cycle == 0):
                self._fast = True
                self._table = lower_program(self.program)
        if self._fast:
            return self._run_fast(max_instructions)
        budget = max_instructions
        last_progress_cycle = 0
        last_retired = 0
        quiet_before: tuple = ()
        trans_before = res_before = 0
        # Under the lockstep sanitizer every cycle must be stepped.
        jumping = self.checker is None
        engine = self.engine
        while not self.halted and self.retired_count < budget:
            if jumping:
                activity = self._activity
                quiet_before = engine.quiet_state()
                trans_before = self._transmitters_delayed
                res_before = self._resolutions_delayed
            self.step()
            if self.retired_count != last_retired:
                last_retired = self.retired_count
                last_progress_cycle = self.cycle
            elif self.cycle - last_progress_cycle > 100_000:
                raise SimulationError(
                    f"{self.engine.name}/{self.program.name}: no retirement "
                    f"for 100k cycles at cycle {self.cycle} "
                    f"(head={self.head_inst()!r})")
            if self.cycle >= self.params.max_cycles:
                raise SimulationError(
                    f"{self.program.name}: exceeded max_cycles")
            if (jumping and not self.halted
                    and self._activity == activity):
                self._quiet_jump(last_progress_cycle, quiet_before,
                                 trans_before, res_before)
                if self.cycle >= self.params.max_cycles:
                    raise SimulationError(
                        f"{self.program.name}: exceeded max_cycles")
        if self.checker is not None:
            self.checker.on_finish(self.halted)
        return SimResult(self, self.halted)

    def _run_fast(self, budget: int) -> SimResult:
        """The run loop with ``step()`` inlined (fast mode has no checker).

        Phase order, the retirement/deadlock/cycle-cap accounting and the
        quiescence detection replicate :meth:`OoOCore.step` plus the
        generic loop above statement for statement; the only change is
        mechanical (bound methods hoisted out of the loop).
        """
        engine = self.engine
        quiet_state = engine.quiet_state
        # Engines without per-cycle monotone counters inherit the base
        # quiet_state, a constant ``()`` — no point calling it every step.
        if type(engine).quiet_state is ProtectionEngine.quiet_state:
            quiet_state = None
        engine_tick = engine.tick
        writeback = self._writeback
        memory_stage = self._memory_stage
        resolve_control = self._resolve_control
        commit = self._commit
        issue = self._issue
        dispatch = self._dispatch
        fetch = self._fetch
        stall_counts = self.stall_counts
        max_cycles = self.params.max_cycles
        last_progress_cycle = 0
        quiet_before: tuple = ()
        while not self.halted and self.retired_count < budget:
            activity = self._activity
            if quiet_state is not None:
                quiet_before = quiet_state()
            trans_before = self._transmitters_delayed
            res_before = self._resolutions_delayed
            self.cycle += 1
            retired_before = self.retired_count
            writeback()
            memory_stage()
            resolve_control()
            commit()
            issue()
            dispatch()
            fetch()
            engine_tick()
            if self.retired_count != retired_before:
                stall_counts[_RETIRING] += 1
                last_progress_cycle = self.cycle
            else:
                stall_counts[attribute_cycle(self)] += 1
                if self.cycle - last_progress_cycle > 100_000:
                    raise SimulationError(
                        f"{engine.name}/{self.program.name}: no retirement "
                        f"for 100k cycles at cycle {self.cycle} "
                        f"(head={self.head_inst()!r})")
            if self.cycle >= max_cycles:
                raise SimulationError(
                    f"{self.program.name}: exceeded max_cycles")
            if not self.halted and self._activity == activity:
                self._quiet_jump(last_progress_cycle, quiet_before,
                                 trans_before, res_before)
                if self.cycle >= max_cycles:
                    raise SimulationError(
                        f"{self.program.name}: exceeded max_cycles")
        return SimResult(self, self.halted)

    # ---------------------------------------------------------- fast-forward
    def _next_event_cycle(self) -> Optional[int]:
        """First future cycle at which the quiescent machine can move."""
        candidates = []
        if self._completion_buckets:
            candidates.append(min(self._completion_buckets))
        if (not self.fetch_halted and self.fetch_wait_for is None
                and self.cycle < self.fetch_resume_cycle
                and len(self.fetch_buffer) < 4 * self.params.fetch_width):
            candidates.append(self.fetch_resume_cycle)
        if self.fetch_buffer:
            ready = self.fetch_buffer[0][0]
            if ready > self.cycle:
                candidates.append(ready)
        # A load stalled on exhausted MSHRs unblocks at the expiry that
        # first brings the busy count under the pool size.
        for di in self.lsq:
            if (di.is_load and di.addr_ready and not di.mem_issued
                    and not di.mem_complete and not di.squashed):
                busy = sorted(t for t in self.hierarchy._mshr_busy_until
                              if t > self.cycle)
                mshrs = self.hierarchy.params.mshrs
                if len(busy) >= mshrs:
                    candidates.append(busy[len(busy) - mshrs])
                break
        if not candidates:
            return None
        return min(candidates)

    def _quiet_jump(self, last_progress_cycle: int, quiet_before: tuple,
                    trans_before: int, res_before: int) -> None:
        """Jump time to just before the next event, accounting in batch."""
        cycle = self.cycle
        # Never jump past the deadlock detector or the cycle cap: landing
        # exactly on them reproduces the reference's raises byte-for-byte.
        horizon = last_progress_cycle + 100_000
        if self.params.max_cycles < horizon:
            horizon = self.params.max_cycles
        event = self._next_event_cycle()
        if event is None:
            land = horizon
        else:
            land = min(event - 1, horizon)
        skipped = land - cycle
        if skipped <= 0:
            return
        # Stall attribution: the skipped cycles repeat the detection
        # cycle's cause; only the empty-window case is cycle-dependent
        # (squash-recovery turns into fetch-starved at the refill boundary).
        if self.rob_head >= len(self.rob):
            recovery_end = (self.last_squash_cycle
                            + self.params.redirect_penalty
                            + self.params.frontend_delay)
            n_recovery = min(land, recovery_end) - cycle
            if n_recovery < 0:
                n_recovery = 0
            self.stall_counts[_SQUASH_RECOVERY] += n_recovery
            self.stall_counts[_FETCH_STARVED] += skipped - n_recovery
        else:
            self.stall_counts[int(attribute_cycle(self))] += skipped
        # Per-cycle monotone counters: replay the detection cycle's delta.
        delta = self._transmitters_delayed - trans_before
        if delta:
            self._transmitters_delayed += delta * skipped
        delta = self._resolutions_delayed - res_before
        if delta:
            self._resolutions_delayed += delta * skipped
        self.engine.on_quiet_cycles(skipped, quiet_before)
        self.cycle = land

    # ------------------------------------------------------- batched phases
    # Each override takes the reference path unless the fast mode was
    # enabled at run() time; the fast bodies replicate the reference
    # semantics statement for statement (deviations are commented at the
    # point of proof).

    def _writeback(self) -> None:
        if not self._fast:
            return super()._writeback()
        done = self._completion_buckets.pop(self.cycle, None)
        if not done:
            return
        cycle = self.cycle
        rename = self.rename
        value = rename.value
        ready = rename.ready
        wait = self._rs_wait
        heap = self._rs_ready
        fin = self._fin_loads
        for di in done:
            # A quarantined squash victim stays un-recycled until this pop
            # has happened, so the skip below always sees the squashed
            # incarnation that scheduled the entry.
            if di.squashed:
                continue
            # Lifecycle timestamps (complete_cycle etc.) are tracer-only
            # reads; fast mode never materialises them.
            self._activity += 1
            di.complete = True
            if di.is_load:
                fin.append(di)
            result = di.result
            if result is not None:
                prd = di.prd
                if prd >= 0:
                    value[prd] = result
                    ready[prd] = True
                    waiters = wait.pop(prd, None)
                    if waiters:
                        for wseq, wdi in waiters:
                            if wdi.seq == wseq:
                                n = wdi.fp_wait - 1
                                wdi.fp_wait = n
                                if n == 0:
                                    heappush(heap, (wseq, wdi))

    # ------------------------------------------------------------------ issue
    def _issue(self) -> None:
        if not self._fast:
            return super()._issue()
        heap = self._rs_ready
        gated = self._rs_gated
        if not heap and not gated:
            return
        width = self.params.issue_width
        may_compute_address = self.engine.may_compute_address
        aluc = self._table.aluc
        value = self.rename.value
        buckets = self._completion_buckets
        cycle = self.cycle
        issued = 0
        delayed = 0
        new_gated: list = []
        keep = new_gated.append
        gi = 0
        glen = len(gated)
        # Merge the gated list (seq-sorted) with the ready heap so
        # candidates are examined in program order — the reference scans
        # its RS list, which is dispatch order, which is seq order.
        while True:
            if gi < glen:
                if heap and heap[0][0] < gated[gi][0]:
                    entry = heappop(heap)
                else:
                    entry = gated[gi]
                    gi += 1
            elif heap:
                entry = heappop(heap)
            else:
                break
            seq, di = entry
            # Lazy purge: squashes (and pooled recycling) invalidate
            # entries in place instead of scanning these structures.
            if di.seq != seq or di.squashed or di.issued:
                continue
            if issued >= width:
                # Width exhausted: the reference appends the rest of the RS
                # untouched — in particular gated transmitters past this
                # point are not counted delayed and the engine is not
                # consulted.
                keep(entry)
                continue
            if di.is_transmitter and not (di.reached_vp
                                          or may_compute_address(di)):
                delayed += 1
                di.engine_delayed = True
                keep(entry)
                continue
            if aluc[di.pc]:
                # Inlined reference _execute, ALU arm only (compute and
                # schedule; issue_cycle is a tracer-only timestamp).
                self._activity += 1
                di.issued = True
                if di.engine_delayed:
                    di.engine_delayed = False
                info = di.info
                if info.reads_rs1:
                    di.rs1_value = value[di.prs1]
                if info.reads_rs2:
                    di.rs2_value = value[di.prs2]
                di.result = alu_result(di.inst, di.rs1_value or 0,
                                       di.rs2_value or 0)
                lat = info.latency
                rc = cycle + (lat if lat > 1 else 1)
                di.ready_cycle = rc
                b = buckets.get(rc)
                if b is None:
                    buckets[rc] = [di]
                else:
                    b.append(di)
            else:
                self._execute(di)
                if di.is_load:
                    insort(self._ld_wait, [seq, di, -1, False, None, 0])
                elif di.is_store:
                    self._st_wait.append(entry)
                    self._mem_epoch += 1
            self._rs_count -= 1
            issued += 1
        if delayed:
            self._transmitters_delayed += delayed
        self._rs_gated = new_gated

    # ----------------------------------------------------------- memory stage
    def _memory_stage(self) -> None:
        if not self._fast:
            return super()._memory_stage()
        if self._pending_mds_checks:
            for store in self._pending_mds_checks:
                if not store.squashed:
                    self._check_memory_order_violation(store)
            self._pending_mds_checks.clear()
        # Event-driven: instead of walking the LSQ, visit the stores whose
        # address resolved and whose data is still missing, then the loads
        # with a known address that have not issued.  A store's data
        # capture only matters to younger loads (the forwarding source must
        # be complete), which the reference reaches later in its LSQ walk,
        # so draining every store first is equivalent.
        stores = self._st_wait
        if stores:
            ready = self.rename.ready
            value = self.rename.value
            waiting = []
            for entry in stores:
                st = entry[1]
                if st.seq != entry[0] or st.squashed:
                    continue
                prs2 = st.prs2
                if prs2 < 0 or ready[prs2]:
                    st.rs2_value = 0 if prs2 < 0 else value[prs2]
                    st.complete = True
                    self._activity += 1
                else:
                    waiting.append(entry)
            self._st_wait = waiting
        loads = self._ld_wait
        if not loads:
            return
        # Loads go in seq order: issue order decides MSHR and LRU order.
        # The dependence decision is reused while ``_mem_epoch`` is
        # unchanged: only an older store's address or its retirement can
        # change it.  A squash cannot: it removes only instructions younger
        # than a surviving load, never a store older than one.  A blocked
        # load, a parked one and one whose forwarding store has no data yet
        # are skipped without an attempt: the reference's attempt would do
        # nothing.
        #
        # A load that stalls on exhausted MSHRs without forwarding is
        # parked until the earliest busy MSHR expires: until then every
        # MSHR stays busy, so no access fills a line and the load's L1 miss
        # would stall again.  A forwarded load is never parked, because
        # ``skip_cache_for_forwarding`` has side effects on every consult
        # (SPT's ``stl_public``, the STL watch list).
        cycle = self.cycle
        epoch = self._mem_epoch
        waiting = []
        keep = waiting.append
        for entry in loads:
            ld = entry[1]
            if ld.seq != entry[0] or ld.squashed:
                continue
            if entry[2] != epoch:
                entry[2] = epoch
                entry[3], entry[4] = self._memory_dependences(ld)
            fwd = entry[4]
            if entry[3] or (entry[5] > cycle if fwd is None
                            else not fwd.complete):
                keep(entry)
            elif not self._issue_load(ld, fwd):
                if fwd is None:
                    entry[5] = min(self.hierarchy._mshr_busy_until)
                keep(entry)
        self._ld_wait = waiting

    def _retire(self, di) -> None:
        # A store leaving the LSQ can unblock a partially overlapping load
        # or end a forwarding: the loads' dependence decisions are stale.
        if di.is_store:
            self._mem_epoch += 1
        super()._retire(di)

    # ------------------------------------------------------- load finalising
    def _finish_loads(self) -> None:
        if not self._fast:
            return super()._finish_loads()
        # Event-driven: every load completes through a writeback bucket pop
        # (the only site that sets ``complete`` on loads), which queued it
        # here — no LSQ scan.  Drained in seq order (the reference walks the
        # program-ordered LSQ; bucket order is schedule order) and
        # re-checked for squashes, which _memory_stage's memory-order
        # violation check can raise between writeback and this phase.
        pending = self._fin_loads
        if not pending:
            return
        self._fin_loads = []
        if len(pending) > 1:
            pending.sort(key=_seq_of)
        on_load_data = self.engine.on_load_data
        for di in pending:
            if di.squashed:
                continue
            di.mem_complete = True
            self._activity += 1
            on_load_data(di)

    # ----------------------------------------------------------------- commit
    def _commit(self) -> None:
        if self._fast:
            rob = self.rob
            head = self.rob_head
            # Universal early-out: an incomplete head can never retire
            # (HALT/NOP complete at dispatch; a load's ``mem_complete``
            # implies ``complete``; predicted control needs ``complete``
            # too), and retirement is strictly in order.  Retiring cycles
            # fall through to the reference body.
            if head >= len(rob) or not rob[head].complete:
                return
        super()._commit()

    # --------------------------------------------------------------- dispatch
    def _dispatch(self) -> None:
        if not self._fast:
            return super()._dispatch()
        self.dispatch_block = -1
        buf = self.fetch_buffer
        cycle = self.cycle
        if not buf or buf[0][0] > cycle:
            return
        params = self.params
        width = params.issue_width
        rob_entries = params.rob_entries
        rs_entries = params.rs_entries
        lq_entries = params.lq_entries
        sq_entries = params.sq_entries
        rename = self.rename
        rat = rename.rat
        free = rename.free
        ready = rename.ready
        value = rename.value
        engine = self.engine
        # The engine's rename hook is the per-dispatch hot call; for the
        # exact vector SPT engine its body is inlined below with the window
        # masks accumulated in locals for the whole dispatch group.  Any
        # other engine (baselines, STT, subclasses) keeps the call.
        vspt = engine if type(engine) is VectorSPTEngine else None
        if vspt is None:
            engine_on_rename = engine.on_rename
        else:
            taint = vspt.taint
            taint_since = vspt._taint_since
            pc_flags = vspt._pc_flags
            cap = vspt._cap
            slot_di = vspt._slot_di
            rows = vspt._preg_slots
            tail = vspt._tail
            t_src1_m = vspt._t_src1_m
            t_src2_m = vspt._t_src2_m
            t_dst_m = vspt._t_dst_m
            pure_m = vspt._pure_m
            inv_mono_m = vspt._inv_mono_m
            inv_alu_m = vspt._inv_alu_m
        rob = self.rob
        rob_head = self.rob_head
        table = self._table
        hasdest = table.hasdest
        dclass_t = table.dclass
        rs_wait = self._rs_wait
        heap = self._rs_ready
        lsq = self.lsq
        dispatched = 0
        while buf and dispatched < width and buf[0][0] <= cycle:
            di = buf[0][1]
            pc = di.pc
            dc = dclass_t[pc]
            if len(rob) - rob_head >= rob_entries:
                self.dispatch_block = _ROB_FULL
                break
            if not free and hasdest[pc]:
                self.dispatch_block = _ROB_FULL
                break
            if dc <= DC_STORE:                        # RS/LQ/SQ resources
                if self._rs_count >= rs_entries:
                    self.dispatch_block = _RS_FULL
                    break
                if dc == DC_LOAD and self._lq_used >= lq_entries:
                    self.dispatch_block = _LSQ_FULL
                    break
                if dc == DC_STORE and self._sq_used >= sq_entries:
                    self.dispatch_block = _LSQ_FULL
                    break
            buf.popleft()
            self._activity += 1
            # Inlined RenameUnit.rename: the free-list check above already
            # guaranteed a register when one is needed.  (dispatch_cycle is
            # a tracer-only timestamp; fast mode skips it.)
            inst = di.inst
            info = di.info
            # A pc that does not read/write a register leaves the recycled
            # carcass's field at -1 (no life at this pc ever set it), so the
            # locals mirror di.prs1/prs2/prd exactly.
            prs1 = prs2 = prd = -1
            if info.reads_rs1:
                di.prs1 = prs1 = rat[inst.rs1]
            if info.reads_rs2:
                di.prs2 = prs2 = rat[inst.rs2]
            if info.writes_rd and inst.rd != 0:
                prd = free.popleft()
                di.old_prd = rat[inst.rd]
                di.prd = prd
                rat[inst.rd] = prd
                ready[prd] = False
                value[prd] = 0
            if vspt is None:
                engine_on_rename(di)
            else:
                # Inlined VectorSPTEngine.on_rename — that method is the
                # specification (and the path every other call site takes);
                # the lockstep suite pins the two against each other.
                t1 = prs1 >= 0 and taint[prs1]
                t2 = prs2 >= 0 and taint[prs2]
                di.t_src1 = t1
                di.t_src2 = t2
                flags = pc_flags[pc]
                if flags & F_LOAD:
                    tainted = True
                elif flags & F_PC_INFERABLE:
                    tainted = False
                else:
                    tainted = t1 or t2
                di.t_dst = tainted
                if prd >= 0:
                    taint[prd] = tainted
                    if tainted:
                        taint_since[prd] = cycle
                    else:
                        taint_since.pop(prd, None)
                slot = tail
                tail = slot + 1 if slot + 1 < cap else 0
                di.fp_slot = slot
                slot_di[slot] = di
                bit = 1 << slot
                if flags & F_PURE:
                    pure_m |= bit
                if flags & F_INV_MONO:
                    inv_mono_m |= bit
                elif flags & F_INV_ALU:
                    inv_alu_m |= bit
                if t1:
                    t_src1_m |= bit
                if t2:
                    t_src2_m |= bit
                if tainted:
                    t_dst_m |= bit
                if prs1 >= 0:
                    rows[prs1] |= bit
                if prs2 >= 0 and prs2 != prs1:
                    rows[prs2] |= bit
                if prd >= 0:
                    rows[prd] |= bit
            rob.append(di)
            if dc <= DC_STORE:
                self._rs_count += 1
                seq = di.seq
                nwait = 0
                if prs1 >= 0 and not ready[prs1]:
                    w = rs_wait.get(prs1)
                    if w is None:
                        rs_wait[prs1] = [(seq, di)]
                    else:
                        w.append((seq, di))
                    nwait = 1
                if dc != DC_STORE:
                    # Stores split address (rs1) from data (rs2): address
                    # issue only needs rs1; data is captured in the LSQ.
                    if prs2 >= 0 and prs2 != prs1 and not ready[prs2]:
                        w = rs_wait.get(prs2)
                        if w is None:
                            rs_wait[prs2] = [(seq, di)]
                        else:
                            w.append((seq, di))
                        nwait += 1
                di.fp_wait = nwait
                if nwait == 0:
                    heappush(heap, (seq, di))
                if dc:                                # DC_LOAD / DC_STORE
                    lsq.append(di)
                    if dc == DC_STORE:
                        self._sq_used += 1
                    else:
                        self._lq_used += 1
            elif dc == DC_NONE:                       # HALT / NOP
                di.complete = True
            else:                                     # DC_JUMP: JAL
                result = (pc + 1) & WORD_MASK
                di.result = result
                di.actual_taken = True
                di.actual_target = inst.imm
                di.resolution_applied = True
                if prd >= 0:
                    # write_result on a just-allocated register: no live
                    # waiter can exist for it, so no wakeup scan is needed.
                    value[prd] = result
                    ready[prd] = True
                di.complete = True
            dispatched += 1
        if vspt is not None:
            vspt._tail = tail
            vspt._t_src1_m = t_src1_m
            vspt._t_src2_m = t_src2_m
            vspt._t_dst_m = t_dst_m
            vspt._pure_m = pure_m
            vspt._inv_mono_m = inv_mono_m
            vspt._inv_alu_m = inv_alu_m

    # ------------------------------------------------------------------ fetch
    def _fetch(self) -> None:
        if not self._fast:
            return super()._fetch()
        cycle = self.cycle
        cool = self._cool
        if cool and cycle > self._cool_cycle:
            pool = self._pool
            for d in cool:
                p = pool.get(d.pc)
                if p is None:
                    pool[d.pc] = [d]
                else:
                    p.append(d)
            cool.clear()
        quar = self._quar
        if quar and quar[0][0] <= cycle:
            pool = self._pool
            while quar and quar[0][0] <= cycle:
                d = heappop(quar)[2]
                p = pool.get(d.pc)
                if p is None:
                    pool[d.pc] = [d]
                else:
                    p.append(d)
        if (self.fetch_halted or self.fetch_wait_for is not None
                or cycle < self.fetch_resume_cycle):
            self._maybe_release_fetch_wait()
            return
        buf = self.fetch_buffer
        if len(buf) >= 4 * self.params.fetch_width:
            return
        table = self._table
        kindc = table.kindc
        runlen = table.runlen
        insts = table.insts
        infos = table.infos
        rtier = table.rtier
        prog_len = len(insts)
        pool_get = self._pool.get
        new = DynInst.__new__
        cls = DynInst
        append = buf.append
        checkpoints = self._bp_checkpoints
        predictor = self.predictor
        pc = self.fetch_pc
        seq = self.seq
        fetched = 0
        budget = self.params.fetch_width
        ready = cycle + self.params.frontend_delay
        while budget > 0:
            if pc < 0 or pc >= prog_len:
                # Off-program wrong-path fetch: implicit halt bubble.
                self.fetch_halted = True
                self._activity += 1
                break
            kc = kindc[pc]
            if kc == KC_SIMPLE:
                n = runlen[pc]
                if n > budget:
                    n = budget
                end = pc + n
                while pc < end:
                    p = pool_get(pc)
                    if p:
                        # Inlined DynInst.reinit_recycled (hot path): the
                        # same-pc slim re-stamp, tier 0/1 only (KC_SIMPLE
                        # has no branches).
                        di = p.pop()
                        di.seq = seq
                        di.issued = False
                        di.complete = False
                        di.ready_cycle = -1
                        di.retired = False
                        di.squashed = False
                        di.engine_delayed = False
                        di.resolution_delayed = False
                        di.reached_vp = False
                        if rtier[pc]:
                            di.declassified = False
                            di.addr_ready = False
                            di.mem_issued = False
                            di.mem_complete = False
                            di.forwarded_from = None
                            di.fwding_st = -1
                            di.stl_public = False
                    else:
                        di = new(cls)
                        di.reinit(seq, pc, insts[pc], infos[pc])
                    append((ready, di))
                    seq += 1
                    pc += 1
                budget -= n
                fetched += n
                continue
            inst = insts[pc]
            p = pool_get(pc)
            if p:
                di = p.pop()
                di.reinit_recycled(seq, rtier[pc])
            else:
                di = new(cls)
                di.reinit(seq, pc, inst, infos[pc])
            seq += 1
            fetched += 1
            if kc == KC_HALT:
                append((ready, di))
                self.fetch_halted = True
                break
            # Control flow: checkpoint the speculative predictor state (RAS,
            # gshare history) before the prediction mutates it; restored by
            # ``_squash_after`` if this instruction gets squashed.
            checkpoints.append((di.seq, predictor.speculative_state()))
            taken, target, snapshot = predictor.predict(pc, inst)
            di.predicted_taken = taken
            di.predicted_target = target
            di.history_snapshot = snapshot
            append((ready, di))
            if target is None:
                di.prediction_missing = True
                di.mispredicted = True
                self.fetch_wait_for = di
                break
            pc = target
            budget -= 1
        self.fetch_pc = pc
        self.seq = seq
        if fetched:
            self.n_fetched += fetched
            self._activity += fetched

    # ----------------------------------------------------------------- squash
    def _squash_after(self, di) -> None:
        if not self._fast:
            return super()._squash_after(di)
        self._activity += 1
        self.n_squashes += 1
        self.last_squash_cycle = self.cycle
        self.observer.squash(self.cycle, di.pc)
        checkpoints = self._bp_checkpoints
        restore = None
        target_seq = di.seq
        while checkpoints and checkpoints[-1][0] > target_seq:
            restore = checkpoints.pop()
        if restore is not None:
            self.predictor.restore_speculative_state(restore[1])
        rob = self.rob
        rob_head = self.rob_head
        squashed: list[DynInst] = []
        append = squashed.append
        while len(rob) > rob_head and rob[-1].seq > target_seq:
            victim = rob.pop()
            victim.squashed = True
            append(victim)
        self.n_squashed_insts += len(squashed)
        if squashed:
            # The reference filters by a dead-seq set; every squash filters
            # immediately, so no stale squashed entries linger and the
            # ``squashed`` flag is an equivalent membership test.  The RS
            # list stays empty in fast mode (only the sanitizer reads it);
            # its occupancy twin is adjusted below.
            if self.lsq:
                self.lsq = lsq = [d for d in self.lsq if not d.squashed]
                sq = 0
                for d in lsq:
                    if d.is_store:
                        sq += 1
                self._sq_used = sq
                self._lq_used = len(lsq) - sq
            if self.pending_control:
                self.pending_control = [d for d in self.pending_control
                                        if not d.squashed]
            # The engine sees victims before rename-undo recycles their
            # destination registers (it must drop pending taint broadcasts).
            self.engine.on_squash(squashed)
            sink = self.squash_sink
            if sink is not None:
                sink.extend(squashed)
            # Inlined RenameUnit.undo, youngest-first as popped.
            rename = self.rename
            rat = rename.rat
            appendleft = rename.free.appendleft
            ready = rename.ready
            needs_rs = self._table.needs_rs
            rs_lost = 0
            for victim in squashed:
                prd = victim.prd
                if prd >= 0:
                    rat[victim.inst.rd] = victim.old_prd
                    appendleft(prd)
                    ready[prd] = True
                    victim.prd = -1
                if not victim.issued and needs_rs[victim.pc]:
                    rs_lost += 1
            self._rs_count -= rs_lost
            if sink is None:
                # Park victims for pooled recycling: safe once the squash
                # cycle has passed (within-cycle references check the
                # ``squashed`` flag or a seq tag) and any still-scheduled
                # completion-bucket entry has been popped by writeback.
                # Victims with no future bucket entry take the cheap
                # cooldown list; only in-flight ones (``ready_cycle`` still
                # ahead) pay the release-ordering heap.
                cycle = self.cycle
                cool = self._cool
                if cool and cycle > self._cool_cycle:
                    pool = self._pool
                    for d in cool:
                        p = pool.get(d.pc)
                        if p is None:
                            pool[d.pc] = [d]
                        else:
                            p.append(d)
                    cool.clear()
                self._cool_cycle = cycle
                quar = self._quar
                for victim in squashed:
                    rc = victim.ready_cycle
                    if rc > cycle:
                        heappush(quar, (rc, victim.seq, victim))
                    else:
                        cool.append(victim)
        buf = self.fetch_buffer
        if buf:
            if self.squash_sink is None:
                # Cleared fetch-buffer entries were never renamed and are
                # referenced by nothing else: recycle them immediately.
                pool = self._pool
                for _, d in buf:
                    p = pool.get(d.pc)
                    if p is None:
                        pool[d.pc] = [d]
                    else:
                        p.append(d)
            buf.clear()
        self.fetch_wait_for = None
        self._vp_scan = min(self._vp_scan, len(rob))
