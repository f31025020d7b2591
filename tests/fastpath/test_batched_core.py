"""Adversarial micro-programs for the batched vector core.

The registry workloads exercise the fast path at steady state; these
programs are built to hit the batched sweeps where they are weakest:

* a branch that alternates taken/not-taken every iteration, so squashes
  land *mid fetch-group* and the group's younger half must be recycled
  the same cycle it was renamed;
* a wrong-path overfetch storm — a chase-dependent branch whose
  resolution is delayed behind a missing load while the predicted path
  runs into a long straight-line block, maximising pool/quarantine
  churn per squash;
* the sanitizer-on configuration, where the vector core must *refuse*
  the fast path (flyweights would be invisible to the lockstep checker)
  and still match the reference bit for bit.

Each cell is compared with the same comparator as ``repro backend-diff``
(:func:`repro.fastpath.diff.compare_cell`), so "match" means cycles,
retired-PC stream, architectural registers, stats, the metrics tree and
the attacker-visible trace digests are all identical.
"""

from __future__ import annotations

import pytest

from repro.core.attack_model import AttackModel
from repro.fastpath.diff import compare_cell
from repro.harness.configs import make_engine
from repro.harness.runner import build_core
from repro.isa.builder import ProgramBuilder
from repro.pipeline.core import SimulationError
from repro.pipeline.params import MachineParams
from repro.security.observer import channel_digests

BUDGET = 4000
CONFIGS = ("UnsafeBaseline", "SecureBaseline", "STT", "SPT{Bwd,ShadowL1}")


def _run(program, config, backend, *, model=AttackModel.FUTURISTIC,
         budget=BUDGET, check_level="off"):
    """One cell reduced to its comparable outcome, plus the core itself.

    Mirrors :func:`repro.fastpath.diff.run_backend`, but for a locally
    built :class:`Program` instead of a registered workload.
    """
    engine = make_engine(config, model)
    params = MachineParams(backend=backend, check_level=check_level)
    core = build_core(program, engine=engine, params=params,
                      record_retired_pcs=True)
    try:
        sim = core.run(max_instructions=budget)
    except SimulationError as exc:
        return core, {"error": f"{type(exc).__name__}: {exc}"}
    return core, {
        "cycles": sim.cycles,
        "retired": sim.retired,
        "halted": sim.halted,
        "retired_pcs": sim.retired_pcs,
        "arch_regs": sim.arch_regs,
        "stats": sim.stats,
        "metrics": sim.metrics.as_dict(),
        "digests": channel_digests(sim.observer, sim.cycles),
    }


def _assert_identical(program, config, **kwargs):
    _, ref = _run(program, config, "reference", **kwargs)
    vec_core, vec = _run(program, config, "vector", **kwargs)
    mismatches = compare_cell(ref, vec)
    assert not mismatches, (
        f"{program.name}/{config}: {'; '.join(mismatches)}")
    return vec_core


def parity_flip_program():
    """A branch that alternates direction every iteration.

    The two-bit counters in the direction predictor can never settle, so
    roughly every other iteration squashes — and because the taken path
    skips a 10-instruction straight-line run, the squash consistently
    lands in the middle of an 8-wide fetch group, recycling instructions
    that were renamed earlier the *same* cycle.
    """
    b = ProgramBuilder("parity-flip", data_base=0x4000)
    b.li("t0", 0)                     # i
    b.li("t1", 48)                    # trip count
    b.li("a1", 0)                     # accumulator
    top = b.label()
    b.andi("t3", "t0", 1)
    odd = b.forward_label()
    b.bne("t3", "zero", odd)          # taken on odd iterations only
    for k in range(10):               # even path: fills the fetch group
        b.addi("a1", "a1", k + 1)
    b.place(odd)
    b.addi("t0", "t0", 1)
    b.bne("t0", "t1", top)
    b.halt()
    return b.build()


def overfetch_storm_program():
    """Wrong-path fetch storm behind a chase-delayed branch.

    Every iteration loads the next pointer (a dependent chase, so the
    load's value arrives late — later still under SPT, which delays the
    dependent branch until the visibility point) and branches on it.
    While the branch sits unresolved, fetch runs ahead into a
    40-instruction straight-line block on the fall-through path; each
    mispredict therefore squashes dozens of in-flight wrong-path
    instructions at once, stressing same-cycle recycling, the cooldown
    list and the quarantine heap together.
    """
    base = 0x10000
    b = ProgramBuilder("overfetch-storm", data_base=base)
    nodes = 24
    # A shuffled ring of word offsets: node i points at node (i*7+3)%n,
    # closing back on node 0 whose next pointer is 0 (the chase's halt
    # sentinel after every node was visited exactly once: 7 and 24 are
    # coprime, so the walk is a full cycle).
    order = [(i * 7 + 3) % nodes for i in range(nodes)]
    words = [0 if nxt == 0 else nxt * 8 for nxt in order]
    b.alloc_words("ring", words)

    b.li("s0", base)                  # arena base
    b.mov("a0", "s0")                 # current node
    b.li("a1", 0)                     # nodes visited
    top = b.label()
    b.ld("a5", "a0", 0)               # next offset (dependent chase)
    b.addi("a1", "a1", 1)
    done = b.forward_label()
    b.beq("a5", "zero", done)         # resolves only when the load lands
    b.add("a0", "a5", "s0")
    b.jal("zero", top)
    b.place(done)
    # The fall-through block fetch speculates into while the branch is
    # pending: long enough to overflow a fetch group several times over.
    for k in range(40):
        b.addi("a2", "a2", k + 1)
    b.sd("a2", "s0", 0)
    b.halt()
    return b.build()


@pytest.mark.parametrize("config", CONFIGS)
def test_squash_mid_fetch_group(config):
    core = _assert_identical(parity_flip_program(), config)
    assert core._fast, "micro-program unexpectedly fell off the fast path"


@pytest.mark.parametrize("config", CONFIGS)
def test_wrong_path_overfetch_storm(config):
    core = _assert_identical(overfetch_storm_program(), config)
    assert core._fast, "micro-program unexpectedly fell off the fast path"


@pytest.mark.parametrize("model",
                         [AttackModel.SPECTRE, AttackModel.FUTURISTIC])
def test_storm_under_both_attack_models(model):
    _assert_identical(overfetch_storm_program(), "SPT{Bwd,ShadowL1}",
                      model=model)


def test_recycled_window_drains_clean():
    """After an overfetch storm, no stale state survives in the window.

    The engine's window masks and slot map must be empty, and every
    pooled carcass (retired or squashed) must have released its
    fast-path window slot — a leak here would silently corrupt the
    *next* allocation from the pool rather than this run.
    """
    core, _ = _run(overfetch_storm_program(), "SPT{Bwd,ShadowL1}", "vector")
    engine = core.engine
    for mask in (engine._t_src1_m, engine._t_src2_m, engine._t_dst_m,
                 engine._pure_m, engine._inv_mono_m, engine._inv_alu_m):
        assert mask == 0
    assert all(di is None for di in engine._slot_di)
    for carcasses in core._pool.values():
        for di in carcasses:
            assert di.fp_slot == -1
    # Cooldown victims not yet re-pooled are still squashed carcasses.
    for di in core._cool:
        assert di.squashed


def test_sanitizer_forces_materialisation():
    """check_level != off must disable the fast path, not break it.

    The lockstep sanitizer walks real DynInst objects at retirement, so
    the vector core must fall back to full materialisation — and the
    checked run must still be bit-identical to the reference backend at
    the same check level.
    """
    program = overfetch_storm_program()
    core = _assert_identical(program, "SPT{Bwd,ShadowL1}",
                             check_level="commit")
    assert core._fast is False
    assert core.checker is not None


def test_sanitizer_off_enables_fast_path():
    core, _ = _run(parity_flip_program(), "UnsafeBaseline", "vector")
    assert core._fast is True
    assert core.checker is None
