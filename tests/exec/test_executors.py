"""Executor contracts: batching, deduplication, bit-identity.

The headline property: the :class:`SerialExecutor` batching the full
24-configuration CMP/SMT sweep returns the exact byte-identical
measurements -- counters, powers, noise draws -- that one direct
``Machine.run`` per cell produces.
"""

import pytest

from repro.exec import ExperimentPlan, SerialExecutor, default_executor
from repro.sim import Machine, MachineConfig, Placement, get_pstate
from repro.sim.config import standard_configurations
from repro.workloads import spec_cpu2006

_DURATION = 1.0


@pytest.fixture(scope="module")
def sweep_plan(small_kernel_factory):
    """Kernels + a SPEC proxy across the paper's full 24-config sweep."""
    workloads = [
        small_kernel_factory("add", count=24),
        small_kernel_factory("lxvw4x", count=24, level="L1"),
        small_kernel_factory("xvnmsubmdp", count=24, dep=4),
        spec_cpu2006()[5],  # mcf: a memory-bound profiled workload
    ]
    return ExperimentPlan.cross(
        workloads, standard_configurations(), duration=_DURATION
    )


class TestSerialExecutor:
    def test_full_sweep_matches_direct_runs(self, power7_arch, sweep_plan):
        """24-config sweep, counters, powers and noise draws all exactly
        equal between the batched executor and per-cell runs."""
        batched = SerialExecutor(Machine(power7_arch)).run(sweep_plan)
        machine = Machine(power7_arch)
        direct = [
            machine.run(cell.workload, cell.config, cell.duration)
            for cell in sweep_plan.cells
        ]
        assert batched == sweep_plan.expand(direct)

    def test_p_state_cells_match_direct_runs(
        self, power7_arch, small_kernel_factory
    ):
        kernel = small_kernel_factory("xvmaddadp", count=24)
        plan = ExperimentPlan.cross(
            [kernel],
            [MachineConfig(4, 2), MachineConfig(8, 4)],
            p_states=(get_pstate("turbo"), get_pstate("p3")),
            duration=_DURATION,
        )
        batched = SerialExecutor(Machine(power7_arch)).run(plan)
        machine = Machine(power7_arch)
        assert batched == plan.expand(
            [
                machine.run(cell.workload, cell.config, cell.duration)
                for cell in plan.cells
            ]
        )

    def test_matches_direct_machine_runs(self, machine, small_kernel_factory):
        kernel = small_kernel_factory("add", count=24)
        config = MachineConfig(2, 2)
        plan = ExperimentPlan.single(kernel, config, _DURATION)
        via_engine = SerialExecutor(machine).run(plan)[0]
        direct = machine.run(kernel, config, _DURATION)
        assert via_engine == direct

    def test_deduplicated_cells_measured_once(
        self, power7_arch, small_kernel_factory
    ):
        machine = Machine(power7_arch)
        calls = []
        original = machine.run_cells

        def counting(cells, plan=None):
            calls.append(len(list(cells)))
            return original(cells, plan=plan)

        machine.run_cells = counting
        kernel = small_kernel_factory("add", count=24)
        copy = small_kernel_factory("add", count=24)
        plan = ExperimentPlan.cross(
            [kernel, copy, kernel], [MachineConfig(1, 1)], duration=_DURATION
        )
        results = SerialExecutor(machine).run(plan)
        assert calls == [1]  # one batch, one unique cell
        assert results[0] == results[1] == results[2]

    def test_placement_cells(self, machine, small_kernel_factory):
        config = MachineConfig(1, 2)
        mix = Placement(
            "mix",
            (
                (
                    small_kernel_factory("addic", count=24),
                    small_kernel_factory("ld", count=24, level="MEM"),
                ),
            ),
        )
        plan = ExperimentPlan.single(mix, config, _DURATION)
        via_engine = SerialExecutor(machine).run(plan)[0]
        assert via_engine == machine.run(mix, config, _DURATION)


class TestDefaultExecutor:
    def test_plain_environment_is_serial(self, machine, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        executor = default_executor(machine)
        assert isinstance(executor, SerialExecutor)
        assert executor.store is None

    def test_environment_selects_store(self, machine, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        executor = default_executor(machine)
        assert isinstance(executor, SerialExecutor)
        assert executor.store.root == tmp_path / "store"

    def test_arguments_override_environment(self, machine, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        executor = default_executor(machine, store=str(tmp_path / "arg-store"))
        assert isinstance(executor, SerialExecutor)
        assert executor.store.root == tmp_path / "arg-store"


class TestRetryBudget:
    def test_environment_sets_retries(self, machine, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "5")
        assert SerialExecutor(machine).retries == 5
        assert SerialExecutor(machine, retries=0).retries == 0
