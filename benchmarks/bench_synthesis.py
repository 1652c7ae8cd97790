"""Synthesizer throughput: whole-ISA bootstrap synthesis, no measurement.

Times the pass pipeline alone -- skeleton, instruction distribution,
memory model, value initialisation, dependency wiring, validation and
the kernel view -- over the 315 bootstrap benchmarks: the chained and
the free loop of every probeable POWER7 mnemonic plus the nop
reference, at loop size 256: the synthesis work of every pass of the
stressmark case study's bootstrap.

Records ``synthesis.kernels_per_sec`` and ``synthesis.ms_per_kernel``
(best of three rounds) and asserts a floor at half the rate measured
when per-instruction operand facts became cached views: a median of
785 kernels/s (1.3 ms per kernel) on a 2-core x86-64 host under Python
3.11, where the per-slot code before it ran at 140-190 kernels/s
(5.3-7.0 ms per kernel).
"""

from __future__ import annotations

import time

from benchmarks.conftest import record_result
from repro.march import get_architecture
from repro.march.bootstrap import Bootstrapper

LOOP_SIZE = 256
ROUNDS = 3
#: Half the rate measured when the cached operand views landed.
KERNELS_PER_SEC_FLOOR = 390


def test_synthesis_throughput():
    arch = get_architecture("POWER7")
    bootstrapper = Bootstrapper(arch, machine=None, loop_size=LOOP_SIZE)
    builds = [("nop", False)] + [
        (definition.mnemonic, chained)
        for definition in arch.isa
        if not definition.is_branch and not definition.is_nop
        for chained in (True, False)
    ]
    assert len(builds) == 315

    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for mnemonic, chained in builds:
            bootstrapper._build(mnemonic, chained)
        best = min(best, time.perf_counter() - start)

    kernels_per_sec = len(builds) / best
    ms_per_kernel = 1000 * best / len(builds)
    print(
        f"\nsynthesis: {len(builds)} kernels (loop {LOOP_SIZE}) in "
        f"{best:.3f} s -> {kernels_per_sec:.0f} kernels/s, "
        f"{ms_per_kernel:.2f} ms/kernel"
    )
    record_result(
        "synthesis",
        kernels=len(builds),
        kernels_per_sec=round(kernels_per_sec),
        ms_per_kernel=round(ms_per_kernel, 3),
    )
    assert kernels_per_sec >= KERNELS_PER_SEC_FLOOR, (
        f"synthesis throughput {kernels_per_sec:.0f} kernels/s is below "
        f"the {KERNELS_PER_SEC_FLOOR} kernels/s floor"
    )
