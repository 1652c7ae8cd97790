"""Fault-tolerance overhead: what the hardened engine costs when
nothing goes wrong, and what the degraded path delivers when a batch
fails.

Two numbers (recorded in ``BENCH_results.json``):

* **clean-path wall time** -- the report/quarantine plumbing must be
  nearly free when no fault plan is armed: a fault-free in-process
  campaign (asserted bit-identical to the bare measurement plane,
  reported as wall time for trend tracking);
* **degraded-mode throughput** -- cells/second when a batch fails and
  every cell re-executes in-process one at a time (the last resort
  before quarantine), again bit-identical.
"""

from __future__ import annotations

import time

from benchmarks.conftest import LOOP_SIZE, record_result
from repro.exec import ExperimentPlan, SerialExecutor
from repro.exec import faults
from repro.exec.faults import FaultPlan
from repro.sim import Machine
from repro.sim.config import standard_configurations
from repro.stressmark.search import build_stressmark, covering_sequences

_CANDIDATES = ("mulldo", "lxvw4x", "xvnmsubmdp")
_KERNELS = 12
_DURATION = 1.0


def _plan(arch) -> ExperimentPlan:
    sequences = covering_sequences(_CANDIDATES)[:_KERNELS]
    built = [
        build_stressmark(arch, sequence, LOOP_SIZE) for sequence in sequences
    ]
    configs = standard_configurations(
        arch.chip.max_cores, arch.chip.smt_modes()
    )
    return ExperimentPlan.cross(built, configs, duration=_DURATION)


def _single_poison(plan: ExperimentPlan) -> FaultPlan:
    """A plan that poisons exactly one cell, once.

    The batch fails on that cell, and every cell then re-measures on
    the degraded per-cell path without a retry (so no backoff sleep
    enters the throughput).
    """
    for seed in range(1000):
        candidate = FaultPlan(seed=seed)
        candidate.arm("poison", probability=1.0 / plan.size, times=1)
        fired = [
            cell
            for cell in plan.cells
            if candidate.fire("poison", faults.cell_key(cell), attempt=0)
        ]
        if len(fired) == 1:
            return candidate
    raise AssertionError("no seed poisons exactly one cell")


def test_fault_tolerance_overhead_and_recovery(arch):
    plan = _plan(arch)
    bare = Machine(arch).run_plan(plan)

    # Clean path: no fault plan armed, report plumbing active.
    executor = SerialExecutor(Machine(arch))
    start = time.perf_counter()
    clean = executor.execute(plan)
    clean_elapsed = time.perf_counter() - start
    assert clean.ok and not clean.fault_counters
    assert list(clean) == bare

    # Degraded mode: the batch fails, every cell re-executes
    # in-process one at a time -- the engine's floor, not its gait.
    with faults.injected(_single_poison(plan)):
        executor = SerialExecutor(Machine(arch), retries=0)
        start = time.perf_counter()
        degraded = executor.execute(plan)
        degraded_elapsed = time.perf_counter() - start
    assert degraded.ok
    assert list(degraded) == bare
    assert degraded.fault_counters["degraded_cells"] == plan.size
    degraded_rate = plan.size / degraded_elapsed

    print(
        f"\n=== Fault tolerance: {plan.size} cells "
        f"({_KERNELS} kernels x 24 configurations) ===\n"
        f"clean in-process: {clean_elapsed * 1e3:.0f} ms, "
        f"degraded per-cell fallback: {degraded_rate:,.0f} cells/sec"
    )
    record_result(
        "fault_tolerance",
        clean_serial_ms=round(clean_elapsed * 1e3),
        degraded_cells_per_sec=round(degraded_rate),
    )
    # The degraded path is still a working measurement engine.
    assert degraded_rate > 20
