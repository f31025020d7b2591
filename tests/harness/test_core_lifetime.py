"""A finished core is freed by reference counting.

Nothing a core owns references it once ``run()`` has returned (DESIGN
§6), so every caller that builds a core, runs it and drops it leaves no
cyclic garbage behind: the core and its ``DynInst`` graph go the moment
the last reference does, not whenever the cyclic collector next runs.
"""

import gc
import weakref

import pytest

from repro import cli
from repro.core.attack_model import AttackModel
from repro.fastpath.diff import run_backend
from repro.fuzz import oracle
from repro.harness.configs import CONFIGURATIONS
from repro.harness.runner import run_one
from repro.isa.assembler import assemble
from repro.pipeline.core import OoOCore
from repro.pipeline.params import MachineParams
from repro.security.scenarios import run_scenario

BUDGET = 400

PROGRAM = """
    li s2, 0x4000
    li t0, 8
loop:
    sd t0, 0(s2)
    ld a0, 0(s2)
    add a1, a1, a0
    addi s2, s2, 64
    addi t0, t0, -1
    bne t0, zero, loop
    halt
"""

CLI_FLAGS = {
    "UnsafeBaseline": [],
    "SecureBaseline": ["--enable-spt", "--untaint-method", "none"],
    "STT": ["--stt"],
    "SPT{Fwd,NoShadowL1}": ["--enable-spt", "--untaint-method", "fwd"],
    "SPT{Bwd,NoShadowL1}": ["--enable-spt", "--untaint-method", "bwd"],
    "SPT{Bwd,ShadowL1}": ["--enable-spt", "--untaint-method", "bwd",
                          "--enable-shadow-l1"],
    "SPT{Bwd,ShadowMem}": ["--enable-spt", "--untaint-method", "bwd",
                           "--enable-shadow-mem"],
    "SPT{Ideal,ShadowMem}": ["--enable-spt", "--untaint-method", "ideal",
                             "--enable-shadow-mem"],
}


# Each entry prepares its inputs (argument parsing and assembly leave
# garbage of their own) and returns the call under test.
def _run_one(config, backend, tmp_path):
    params = MachineParams(backend=backend)
    return lambda: run_one("mcf", config, AttackModel.FUTURISTIC,
                           max_instructions=BUDGET, params=params)


def _run_traced(config, backend, tmp_path):
    program = assemble(PROGRAM)
    params = MachineParams(backend=backend)
    return lambda: oracle.run_traced(program, config,
                                     AttackModel.FUTURISTIC, params)


def _run_scenario(config, backend, tmp_path):
    params = MachineParams(backend=backend)
    return lambda: run_scenario("spectre-pht", config, AttackModel.SPECTRE,
                                params)


def _run_backend(config, backend, tmp_path):
    return lambda: run_backend("mcf", config, AttackModel.FUTURISTIC, 1,
                               BUDGET, backend)


def _run_direct(config, backend, tmp_path):
    path = tmp_path / "victim.asm"
    path.write_text(PROGRAM)
    args = cli.build_parser().parse_args(
        [str(path), "--threat-model", "futuristic", "--backend", backend,
         *CLI_FLAGS[config]])
    assert cli.config_name_from_args(args) == config
    params = MachineParams(backend=backend)
    return lambda: cli._run_direct(args, str(path), params)


CALLERS = {
    "run_one": _run_one,
    "run_traced": _run_traced,
    "run_scenario": _run_scenario,
    "run_backend": _run_backend,
    "cli._run_direct": _run_direct,
}


def test_cli_flags_cover_every_configuration():
    assert sorted(CLI_FLAGS) == sorted(CONFIGURATIONS)


@pytest.fixture
def built_cores(monkeypatch):
    """Weak references to every core constructed during the test."""
    refs = []
    init = OoOCore.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))
    monkeypatch.setattr(OoOCore, "__init__", recording_init)
    return refs


@pytest.mark.parametrize("backend", ["reference", "vector"])
@pytest.mark.parametrize("config", sorted(CONFIGURATIONS))
@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_finished_core_is_freed_without_the_collector(caller, config,
                                                      backend, tmp_path,
                                                      built_cores):
    call = CALLERS[caller](config, backend, tmp_path)
    gc.collect()
    gc.disable()
    try:
        result = call()
        assert len(built_cores) == 1
        del result
        assert built_cores[0]() is None, "the core outlived its result"
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_running_core_is_linked_to_its_engine_and_hierarchy():
    # step()-driven callers (the pipeline tracer, the flush tests) rely on
    # the links existing between construction and the end of run().
    core = OoOCore(assemble(PROGRAM))
    assert core.engine.core is core
    assert core.hierarchy.on_l1_invalidate is not None
    core.run()
    assert core.engine.core is None
    assert core.hierarchy.on_l1_invalidate is None
