"""Differential tests for the vector core's event-driven memory stage.

The lockstep sanitizer turns the fast path off, so it never sees this
code: these micro-programs pin it against the reference core instead, with
:func:`repro.fastpath.diff.program_outcome` and the ``backend-diff``
comparator.  Each one targets a decision the worklists, the reused
dependence decision or MSHR parking could get wrong:

* a store whose address resolves after younger loads, with conservative
  disambiguation and with memory-dependence speculation (which squashes);
* partial overlaps, which block the load until the store retires;
* forwarding from a store whose data arrives late, and a forwarded load
  whose cache access (STT) stalls on the MSHRs;
* MSHR exhaustion with one and two MSHRs, including a squash of loads
  parked on the MSHRs.
"""

import pytest

from repro.core.attack_model import AttackModel
from repro.fastpath.diff import compare_cell, program_outcome
from repro.isa.assembler import assemble
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.params import MachineParams
from repro.workloads.random_programs import RandomProgramConfig, random_program

BUDGET = 4000
CONFIGS = ("UnsafeBaseline", "SecureBaseline", "STT", "SPT{Bwd,ShadowL1}",
           "SPT{Ideal,ShadowMem}")
MODELS = (AttackModel.SPECTRE, AttackModel.FUTURISTIC)

LATE_STORE_ADDRESS = """
    li s2, 0x4000
    li a0, 111
    sd a0, 0(s2)          # architectural initial value
    li t0, 3
    mul t1, t0, t0
    mul t1, t1, t1
    mul t1, t1, t1
    mul t1, t1, t1
    andi t1, t1, 0
    add t1, t1, s2        # t1 = 0x4000, computed slowly
    li a1, 222
    sd a1, 0(t1)          # store with a late-resolving address
    ld a2, 0(s2)          # younger aliasing load
    ld a3, 64(s2)         # younger independent loads
    ld a4, 8(s2)
    add a5, a2, a3
    halt
"""

PARTIAL_OVERLAP = """
    li s2, 0x4000
    li a0, 0x11223344
    sd a0, 0(s2)
    lw a1, 4(s2)          # inside the store, other address: waits for retire
    sw a0, 16(s2)
    ld a2, 16(s2)         # wider than the store: waits for retire
    ld a3, 0(s2)          # exact cover: forwards
    add a4, a1, a2
    halt
"""

LATE_STORE_DATA = """
    li s2, 0x4000
    li s3, 0x9000
    ld t0, 0(s3)          # cold miss: the store's data arrives late
    add t1, t0, t0
    addi t1, t1, 5
    sd t1, 0(s2)          # address known early, data late
    ld a0, 0(s2)          # forwards once the data is captured
    ld a1, 0(s2)
    add a2, a0, a1
    halt
"""

# STT performs the cache access of a forwarded load until both the load
# and its store reach the visibility point; the older cold miss holds the
# only MSHR, so that access stalls and retries.  Under Spectre the branch
# lets them reach the VP long before the MSHR frees, so the load switches
# to forwarding without a cache access mid-stall.
STALLED_FORWARD = """
    li s1, 0x4000
    li s2, 0x8000
    li a0, 7
    li t2, 3
    ld t0, 0(s1)          # cold miss: holds the only MSHR
    mul t3, t2, t2
    mul t3, t3, t3
    mul t3, t3, t3
    beq t3, zero, done    # not taken; resolves after the mul chain
    sd a0, 0(s2)
    ld a1, 0(s2)          # forwarded, but STT first accesses the cache
done:
    halt
"""

# The branch is always taken but predicted not-taken, and resolves only
# when the cold miss it depends on returns.  The wrong path's loads to
# distinct cold lines find every MSHR busy, park, and are squashed.
# (SecureBaseline issues loads only at the visibility point, so it never
# has two misses in flight here.)
PARKED_SQUASH = """
    li s2, 0x100000
    ld t0, 0(s2)          # cold miss
    beq t0, t0, taken     # resolves when the miss returns
    ld a0, 4096(s2)
    ld a1, 8192(s2)
    ld a2, 12288(s2)
    ld a3, 16384(s2)
    halt
taken:
    ld a4, 20480(s2)
    ld a5, 24576(s2)
    ld a6, 4096(s2)
    add a7, a4, a5
    add a7, a7, a6
    halt
"""


def _params(backend, mshrs=16, mds=False):
    params = MachineParams(backend=backend,
                           memory_dependence_speculation=mds)
    params.hierarchy.mshrs = mshrs
    return params


def _assert_backends_agree(program, config, model, **kwargs) -> dict:
    ref = program_outcome(program, config, model, BUDGET,
                          _params("reference", **kwargs))
    vec = program_outcome(program, config, model, BUDGET,
                          _params("vector", **kwargs))
    assert "error" not in ref, ref
    assert compare_cell(ref, vec) == []
    return ref


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("source", [LATE_STORE_ADDRESS, PARTIAL_OVERLAP,
                                    LATE_STORE_DATA],
                         ids=["late-store-address", "partial-overlap",
                              "late-store-data"])
def test_memory_stage_matches_reference(source, config, model):
    outcome = _assert_backends_agree(assemble(source), config, model)
    assert outcome["halted"]


def test_memory_dependence_speculation_squash_matches_reference():
    outcome = _assert_backends_agree(assemble(LATE_STORE_ADDRESS),
                                     "UnsafeBaseline", AttackModel.FUTURISTIC,
                                     mds=True)
    assert outcome["stats"]["mem_order_violations"] >= 1
    assert outcome["arch_regs"][12] == 222


def test_late_store_data_forwards():
    outcome = _assert_backends_agree(assemble(LATE_STORE_DATA),
                                     "UnsafeBaseline", AttackModel.FUTURISTIC)
    assert outcome["stats"]["loads_forwarded"] == 2
    assert outcome["arch_regs"][12] == 10


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
@pytest.mark.parametrize("config", CONFIGS)
def test_forward_across_mshr_stalls_matches_reference(config, model):
    _assert_backends_agree(assemble(STALLED_FORWARD), config, model,
                           mshrs=1)


@pytest.mark.parametrize("backend", ["reference", "vector"])
def test_forwarded_load_is_counted_once_across_mshr_stalls(backend):
    outcome = program_outcome(assemble(STALLED_FORWARD), "STT",
                              AttackModel.FUTURISTIC, BUDGET,
                              _params(backend, mshrs=1))
    assert outcome["arch_regs"][11] == 7
    assert outcome["stats"]["loads_forwarded"] == 1
    assert outcome["stats"]["loads_forwarded_with_cache_access"] == 1


@pytest.fixture
def load_stalls(monkeypatch):
    """Record MSHR-stalled load accesses, to prove a run hit them."""
    stalls = []
    access = MemoryHierarchy.access

    def counting(self, address, now, is_write=False):
        result = access(self, address, now, is_write)
        if result.stalled and not is_write:
            stalls.append(now)
        return result
    monkeypatch.setattr(MemoryHierarchy, "access", counting)
    return stalls


@pytest.mark.parametrize("mshrs", [1, 2])
@pytest.mark.parametrize("config", [c for c in CONFIGS
                                    if c != "SecureBaseline"])
def test_squash_of_parked_loads_matches_reference(config, mshrs,
                                                  load_stalls):
    program = assemble(PARKED_SQUASH)
    model = AttackModel.FUTURISTIC
    ref = program_outcome(program, config, model, BUDGET,
                          _params("reference", mshrs=mshrs))
    assert "error" not in ref, ref
    assert ref["stats"]["squashes"] >= 1
    # Only the vector run's stalls count: a stalled load is what parks.
    load_stalls.clear()
    vec = program_outcome(program, config, model, BUDGET,
                          _params("vector", mshrs=mshrs))
    assert compare_cell(ref, vec) == []
    assert load_stalls, "no load of the vector run found the MSHRs exhausted"


@pytest.mark.parametrize("mds", [False, True], ids=["conservative", "mds"])
@pytest.mark.parametrize("mshrs", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_random_memory_programs_match_reference(seed, mshrs, mds):
    program = random_program(8100 + seed, RandomProgramConfig(
        blocks=14, mem_probability=0.7))
    for config in ("UnsafeBaseline", "STT", "SPT{Bwd,ShadowL1}"):
        _assert_backends_agree(program, config, AttackModel.FUTURISTIC,
                               mshrs=mshrs, mds=mds)
