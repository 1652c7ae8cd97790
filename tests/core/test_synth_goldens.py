"""Bit-identity goldens for the micro-benchmark synthesizer.

Synthesis performance work must not move a single generated kernel or
emitted instruction.  ``tests/golden/synth_digests.json`` pins:

* ``Kernel.digest()`` of both bootstrap benchmarks (chained and free)
  for every probeable POWER7 mnemonic, plus the nop reference loop;
* the section-4 training suites (targeted micro families and the
  Random family) at scale 0.05, seed 0;
* the Figure-2 pipeline for synthesizer seeds 0-9, both as kernel
  digests and as the SHA-256 of the emitted assembly.  Kernel digests
  carry no register numbers, so the assembly hash is what pins
  register allocation and dependency wiring;
* the same pair for a mixed pipeline touching every register file
  (GPR, FPR, VR, VSR, CR, SPR), indexed/update memory forms and
  planted branches, seeds 0-4.

Regenerate with ``pytest --update-goldens`` only for a deliberate
change to what the synthesizer produces.
"""

import hashlib

import pytest

from repro.core.emit.asm_emitter import emit_assembly
from repro.core.passes import (
    BranchBehavior,
    DependencyDistance,
    EndlessLoopSkeleton,
    InitImmediates,
    InitRegisters,
    InstructionDistribution,
    MemoryModel,
)
from repro.core.synthesizer import Synthesizer
from repro.march import get_architecture
from repro.march.bootstrap import Bootstrapper
from repro.power_model.training import (
    generate_micro_suite,
    generate_random_suite,
)

LOOP_SIZE = 256
SUITE_SCALE = 0.05
FIGURE2_LOOP_SIZE = 4096
MIXED_POOL = (
    "add", "addic", "mulldo", "fmadd", "dadd", "xvmaddadp", "vand",
    "xscmpudp", "mtctr", "mfctr", "lwzx", "lwzu", "lfd", "lxvd2x",
    "stw", "stdu", "stfdx",
)


def _bootstrap_digests(arch) -> dict:
    bootstrapper = Bootstrapper(arch, machine=None, loop_size=LOOP_SIZE)
    digests = {"nop": bootstrapper._build("nop", chained=False).digest()}
    for definition in arch.isa:
        if definition.is_branch or definition.is_nop:
            continue
        digests[definition.mnemonic] = [
            bootstrapper._build(definition.mnemonic, chained).digest()
            for chained in (True, False)
        ]
    return digests


def _suite_digests(suite) -> list:
    return [[bench.kernel.name, bench.kernel.digest()] for bench in suite]


def _figure2_program(arch, seed: int):
    loads = [ins for ins in arch.isa if ins.is_load and not ins.is_prefetch]
    vector_loads = [ins for ins in loads if ins.is_vector or ins.width == 128]
    synth = Synthesizer(arch, seed=seed, name_prefix="example")
    synth.add_pass(EndlessLoopSkeleton(FIGURE2_LOOP_SIZE))
    synth.add_pass(InstructionDistribution(vector_loads))
    synth.add_pass(MemoryModel({"L1": 0.33, "L2": 0.33, "L3": 0.34}))
    synth.add_pass(InitRegisters("pattern", pattern=0b01010101))
    synth.add_pass(InitImmediates("pattern", pattern=0b01010101))
    synth.add_pass(DependencyDistance("random"))
    return synth.synthesize()


def _mixed_program(arch, seed: int):
    synth = Synthesizer(arch, seed=seed, name_prefix="mixed")
    synth.add_pass(EndlessLoopSkeleton(512))
    synth.add_pass(InstructionDistribution(list(MIXED_POOL)))
    synth.add_pass(MemoryModel({"L1": 0.5, "L2": 0.3, "L3": 0.2}))
    synth.add_pass(BranchBehavior(0.05))
    synth.add_pass(InitRegisters("random"))
    synth.add_pass(InitImmediates("random"))
    synth.add_pass(DependencyDistance("random", max_distance=16))
    return synth.synthesize()


def _asm_sha256(program) -> str:
    return hashlib.sha256(emit_assembly(program).encode()).hexdigest()


@pytest.fixture(scope="module")
def synth_payload():
    arch = get_architecture("POWER7")
    figure2 = [_figure2_program(arch, seed) for seed in range(10)]
    mixed = [_mixed_program(arch, seed) for seed in range(5)]
    return {
        "bootstrap_loop256": _bootstrap_digests(arch),
        "campaign_micro": _suite_digests(
            generate_micro_suite(arch, LOOP_SIZE, SUITE_SCALE, seed=0)
        ),
        "campaign_random": _suite_digests(
            generate_random_suite(arch, LOOP_SIZE, SUITE_SCALE, seed=0)
        ),
        "figure2_kernels": [
            program.to_kernel().digest() for program in figure2
        ],
        "figure2_asm_sha256": [_asm_sha256(program) for program in figure2],
        "mixed_kernels": [program.to_kernel().digest() for program in mixed],
        "mixed_asm_sha256": [_asm_sha256(program) for program in mixed],
    }


def test_synthesizer_output_matches_goldens(synth_payload, golden):
    golden("synth_digests.json", synth_payload)
