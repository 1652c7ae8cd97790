"""The Machine facade: run a workload, get a Measurement back.

``Machine.run`` is the substitute for "deploy one copy per hardware
thread, pin the copies, run for 10 seconds, read TPMD power sensors
and PCL performance counters".  Workloads are either
:class:`~repro.sim.kernel.Kernel` objects (generated micro-benchmarks)
or any object implementing the small workload protocol used by the
SPEC proxies::

    workload.name                              -> str
    workload.thread_activity(machine, smt)     -> ThreadActivity

``Machine.run_many`` / ``Machine.run_cells`` / ``Machine.run_plan``
are the batched entry points the measurement campaigns use: they
amortize per-kernel steady-state analysis across the whole batch
through the evaluation engine's summary-digest memoization, and they
route kernel batches through the vectorized measurement plane
(:mod:`repro.sim.vector`), which evaluates whole plans as dense NumPy
tensor passes -- bit-identical to the scalar walk, which remains in
place as the reference implementation (``REPRO_VECTOR=0`` forces it).
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence
from typing import Protocol, runtime_checkable

from repro.caching import LRUCache
from repro.errors import MeasurementError, MicroProbeError
from repro.march.definition import MicroArchitecture, get_architecture
from repro.measure.measurement import DEFAULT_DURATION_S, Measurement
from repro.sim.activity import ThreadActivity
from repro.sim.config import MachineConfig
from repro.sim.kernel import Kernel
from repro.sim.placement import Placement, strict_workload_key, workload_key
from repro.sim.pipeline import CorePipelineModel
from repro.sim.power import GroundTruthPowerModel, topology_power
from repro.sim.sensors import PowerSensor, stable_seed
from repro.sim.topology import ChipTopology, CoreCluster
from repro.sim.vector import VectorPlane

#: Activity vectors retained per machine (LRU eviction past this);
#: one-shot sweeps over huge design spaces never revisit a kernel.
ACTIVITY_CACHE_LIMIT = 65_536


def _vector_enabled_by_default() -> bool:
    """``REPRO_VECTOR=0`` opts out of the tensor plane (debug knob)."""
    return os.environ.get("REPRO_VECTOR", "1") != "0"


class ClusterView:
    """What a cluster hands a profiled workload as "the machine".

    Protocol workloads compute their activity from machine-level facts
    (today: the clock).  On a heterogeneous chip each cluster *is* a
    different machine -- its own core class at its own nominal clock --
    so profiled workloads placed on a cluster resolve against this
    narrow view instead of the whole-machine facade.
    """

    __slots__ = ("arch", "pipeline", "seed")

    def __init__(self, arch, pipeline, seed: int) -> None:
        self.arch = arch
        self.pipeline = pipeline
        self.seed = seed

    @property
    def frequency(self) -> float:
        """The cluster core class's nominal clock, cycles per second."""
        return self.arch.chip.cycles_per_second


@runtime_checkable
class Workload(Protocol):
    """Anything the machine can deploy across its hardware threads."""

    name: str

    def thread_activity(
        self, machine: "Machine", smt: int
    ) -> ThreadActivity:  # pragma: no cover - protocol signature
        ...


class Machine:
    """A POWER7-like CMP/SMT machine with sensors and counters."""

    def __init__(
        self,
        arch: MicroArchitecture | None = None,
        seed: int = 0,
        vector: bool | None = None,
    ) -> None:
        self.arch = arch if arch is not None else get_architecture("POWER7")
        self.pipeline = CorePipelineModel(self.arch)
        self.seed = seed
        self._power = GroundTruthPowerModel(self.arch)
        self._sensor = PowerSensor()
        # Keyed on the kernel's analytic digest: kernels with identical
        # loop-body content share one steady-state analysis regardless
        # of how many Kernel objects carry it; distinct kernels that
        # happen to share a name never alias.
        self._activity_cache: LRUCache[
            tuple[int, int], ThreadActivity
        ] = LRUCache(ACTIVITY_CACHE_LIMIT, "machine.activity")
        # Mixed-core contention solves, keyed on the canonical workload
        # keys of the co-runners plus the SMT way: a placement sweep
        # re-deploying the same mix across cores, configurations and
        # p-states runs the bisection once (solutions are stored at
        # nominal frequency; the p-state re-clock applies on top).
        self._mixed_cache: LRUCache[tuple, list[ThreadActivity]] = LRUCache(
            ACTIVITY_CACHE_LIMIT, "machine.mixed_core"
        )
        # Per-core-class substrate of heterogeneous topologies: each
        # cluster class resolves to its own architecture, pipeline
        # model and hidden power model.  The base class (``None`` or
        # the machine's own architecture name) aliases this machine's
        # objects, so bootstrap write-backs and cache warmth are shared
        # with the homogeneous paths.
        self._cluster_parts: dict[str | None, tuple] = {}
        # The vectorized measurement plane (sim/vector.py): kernel
        # batches evaluate as dense tensor ops, bit-identical to the
        # scalar walk.  ``vector=False`` (or REPRO_VECTOR=0) keeps
        # every measurement on the scalar reference path.
        if vector is None:
            vector = _vector_enabled_by_default()
        self._vector = VectorPlane(self) if vector else None

    @property
    def frequency(self) -> float:
        """Clock frequency in cycles per second."""
        return self.arch.chip.cycles_per_second

    @property
    def vector_enabled(self) -> bool:
        """Whether batches route through the vectorized plane."""
        return self._vector is not None

    # -- running workloads ---------------------------------------------------

    def run(
        self,
        workload: Kernel | Workload | Placement,
        config: MachineConfig | ChipTopology,
        duration: float = DEFAULT_DURATION_S,
    ) -> Measurement:
        """Deploy ``workload`` and measure one window.

        A plain workload is replicated once per hardware thread (the
        paper's deployment); a :class:`~repro.sim.placement.Placement`
        assigns its explicit per-thread workloads instead.  The
        configuration's p-state re-clocks the run and scales dynamic
        power by ``V^2 f``.

        ``config`` may be a heterogeneous
        :class:`~repro.sim.topology.ChipTopology`: the workload is
        deployed across every cluster, each cluster evaluating on its
        own core class at its own operating point.  A degenerate
        single-cluster topology collapses to its
        :class:`~repro.sim.config.MachineConfig` and reproduces the
        homogeneous run bit for bit.

        Raises:
            MeasurementError: If the configuration does not fit the
                chip, the placement does not fit the configuration, or
                the workload does not follow the protocol.
        """
        config = self._canonical(config)
        self._validate(config)
        return self._measure(workload, config, duration)

    def run_many(
        self,
        workloads: Iterable[Kernel | Workload | Placement],
        config: MachineConfig,
        duration: float = DEFAULT_DURATION_S,
    ) -> list[Measurement]:
        """Measure a batch of workloads or placements on one configuration.

        Semantically identical to ``[run(w, config, duration) for w in
        workloads]`` -- same measurements, same sensor noise draws --
        but validates the configuration once and drives every workload
        through the shared summary/activity memoization, which is the
        fast path for design-space exploration and training-suite
        campaigns.  Placements batch the same way: every distinct
        kernel appearing in the batch is summarized once regardless of
        how many placements (or threads) carry it.

        Raises:
            MeasurementError: If the configuration does not fit the chip
                or some workload does not follow the protocol.
        """
        config = self._canonical(config)
        self._validate(config)
        workloads = list(workloads)
        if self._vector is not None:
            batched = self._vector.try_measure_cells(
                [(workload, config, duration) for workload in workloads]
            )
            if batched is not None:
                return batched
        return [
            self._measure(workload, config, duration)
            for workload in workloads
        ]

    def run_cells(self, cells, plan=None) -> list[Measurement]:
        """Measure a heterogeneous batch of plan cells in one pass.

        ``cells`` is any sequence of objects with ``workload``,
        ``config`` and ``duration`` attributes (e.g.
        :class:`~repro.exec.plan.PlanCell`).  Unlike :meth:`run_many`,
        the batch may span many configurations and windows: the
        vectorized measurement plane evaluates every kernel cell of
        the whole batch as *one* tensor pass, which is what lets a
        full 24-configuration sweep amortize its per-batch setup (and
        its sensor seeding) across all cells.  Results are returned in
        cell order, bit-identical to per-cell :meth:`run` calls.

        With ``plan`` given (the immutable
        :class:`~repro.exec.plan.ExperimentPlan` whose ``plan.cells``
        *is* ``cells``), the vector plane compiles the batch into a
        fused tensor program cached weakly under the plan: the first
        run pays canonicalization, validation and compilation once,
        and every re-execution of the same plan object (resident
        service engines, steady-state benches, DSE loops) jumps
        straight to the fused pass.

        Raises:
            MeasurementError: If some configuration does not fit the
                chip or some workload does not follow the protocol.
        """
        if plan is not None and self._vector is not None:
            # Plans are immutable and content-addressed: the compiled
            # program already embeds the canonicalized, validated
            # batch, so a cache hit skips straight to execution.
            program = self._vector.cached_program(plan)
            if program is not None:
                return program.execute()
        # Deduplicate by object identity: plans reuse config objects
        # across cells, and hashing a MachineConfig per cell is more
        # expensive than the validation itself.  Degenerate topologies
        # collapse to their MachineConfig spelling here (plan cells
        # already arrive collapsed; this covers hand-built cells), so
        # the whole downstream batch machinery sees canonical configs.
        distinct = {
            id(cell.config): self._canonical(cell.config) for cell in cells
        }
        for config in distinct.values():
            self._validate(config)
        triples = [
            (cell.workload, distinct[id(cell.config)], cell.duration)
            for cell in cells
        ]
        if self._vector is not None:
            batched = self._vector.try_measure_cells(triples, plan=plan)
            if batched is not None:
                return batched
        return [
            self._measure(workload, config, duration)
            for workload, config, duration in triples
        ]

    def run_plan(self, plan) -> list[Measurement]:
        """Execute a whole :class:`~repro.exec.plan.ExperimentPlan`.

        The plan's unique cells evaluate through :meth:`run_cells`
        (one tensor pass across every configuration), and results fan
        back out to the plan's requested order.  This is the
        in-process fast path; executors add stores, fault recovery and
        replica sharding on top.
        """
        return plan.expand(self.run_cells(plan.cells, plan=plan))

    def cache_stats(self) -> dict:
        """Hit/miss/size counters of every memo cache in the substrate.

        Covers the machine's activity and mixed-core solve caches, the
        pipeline's kernel-digest summary cache, and (when the vector
        plane is enabled) its packed-kernel and stacked-batch caches.
        All of them are size-capped LRUs, so week-long campaigns hold
        memory flat; these counters show whether they are earning
        their keep.
        """
        stats = {
            "activity": self._activity_cache.stats(),
            "mixed_core": self._mixed_cache.stats(),
            "summaries": self.pipeline.cache_stats(),
        }
        if self._vector is not None:
            stats.update(self._vector.cache_stats())
        return stats

    def run_idle(
        self,
        config: MachineConfig | ChipTopology | None = None,
        duration: float = DEFAULT_DURATION_S,
    ) -> Measurement:
        """Measure the machine with no workload (workload-independent power)."""
        config = self._canonical(config or MachineConfig(cores=1, smt=1))
        if isinstance(config, ChipTopology):
            per_thread = []
            for cluster in config.clusters:
                arch = self.cluster_arch(cluster.core_class)
                zeros = {name: 0.0 for name in arch.counters}
                per_thread.extend([zeros] * cluster.threads)
            thread_counters = tuple(per_thread)
        else:
            zero_counters = {name: 0.0 for name in self.arch.counters}
            thread_counters = tuple([zero_counters] * config.threads)
        summary = self._sensor.measure(
            self._power.idle_power(),
            duration,
            stable_seed("<idle>", config.label, duration, self.seed),
        )
        return Measurement(
            workload_name="<idle>",
            config=config,
            duration=duration,
            thread_counters=thread_counters,
            mean_power=summary.mean_power,
            power_std=summary.power_std,
            sample_count=summary.sample_count,
        )

    # -- heterogeneous cluster substrate --------------------------------------

    def cluster_arch(self, core_class: str | None) -> MicroArchitecture:
        """The architecture implementing one cluster core class.

        ``None`` (and the machine's own architecture name) is the base
        class -- this machine's architecture object itself, so bootstrap
        write-backs apply to base-class clusters.  Other names resolve
        through the architecture registry once and are cached.

        Raises:
            MeasurementError: If the class is not a registered
                architecture.
        """
        return self._parts(core_class)[0]

    def _parts(self, core_class: str | None) -> tuple:
        """``(arch, pipeline, power model, cluster view)`` of a class."""
        if core_class == self.arch.name:
            core_class = None
        parts = self._cluster_parts.get(core_class)
        if parts is None:
            if core_class is None:
                arch, pipeline, power = self.arch, self.pipeline, self._power
            else:
                try:
                    arch = get_architecture(core_class)
                except MicroProbeError as exc:
                    raise MeasurementError(
                        f"unknown cluster core class {core_class!r}: {exc}"
                    ) from None
                pipeline = CorePipelineModel(arch)
                power = GroundTruthPowerModel(arch)
            parts = (arch, pipeline, power, ClusterView(arch, pipeline, self.seed))
            self._cluster_parts[core_class] = parts
        return parts

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _canonical(
        config: MachineConfig | ChipTopology,
    ) -> MachineConfig | ChipTopology:
        """Collapse degenerate topologies to their MachineConfig.

        The collapse is the refactor's invariance mechanism: a
        single-cluster base-class topology takes the *same code path*
        (and therefore the same labels, seeds, counters and noise
        draws) as the configuration it degenerates to.
        """
        if isinstance(config, ChipTopology):
            degenerate = config.degenerate_config()
            if degenerate is not None:
                return degenerate
        return config

    def _validate(self, config: MachineConfig | ChipTopology) -> None:
        if isinstance(config, ChipTopology):
            for cluster in config.clusters:
                chip = self._parts(cluster.core_class)[0].chip
                if cluster.cores > chip.max_cores:
                    raise MeasurementError(
                        f"topology {config.label}: cluster "
                        f"{cluster.label!r} needs {cluster.cores} cores, "
                        f"core class has {chip.max_cores}"
                    )
                if cluster.smt > chip.max_smt:
                    raise MeasurementError(
                        f"topology {config.label}: cluster "
                        f"{cluster.label!r} needs SMT-{cluster.smt}, "
                        f"core class supports SMT-{chip.max_smt}"
                    )
            return
        try:
            config.validate_against(self.arch.chip)
        except ValueError as exc:
            raise MeasurementError(str(exc)) from None

    def validate_config(self, config: MachineConfig | ChipTopology) -> None:
        """Public fit check used by plan-build validation.

        Raises:
            MeasurementError: If this machine cannot run ``config``.
        """
        self._validate(self._canonical(config))

    def _measure(
        self,
        workload: Kernel | Workload | Placement,
        config: MachineConfig | ChipTopology,
        duration: float,
    ) -> Measurement:
        if isinstance(config, ChipTopology):
            return self._measure_topology(workload, config, duration)
        if isinstance(workload, Placement):
            return self._measure_placement(workload, config, duration)
        activity = self._run_activity(workload, config)
        counters = self.pipeline.counters_from_activity(
            activity, duration, frequency=self._run_frequency(config)
        )
        true_power = self._power.chip_power(
            [activity] * config.threads, config
        )
        salt = workload.digest() if isinstance(workload, Kernel) else 0
        summary = self._sensor.measure(
            true_power,
            duration,
            stable_seed(workload.name, config.label, duration, self.seed, salt),
        )
        return Measurement(
            workload_name=workload.name,
            config=config,
            duration=duration,
            thread_counters=tuple([counters] * config.threads),
            mean_power=summary.mean_power,
            power_std=summary.power_std,
            sample_count=summary.sample_count,
        )

    def _measure_placement(
        self,
        placement: Placement,
        config: MachineConfig,
        duration: float,
    ) -> Measurement:
        """Measure an explicit per-thread workload assignment.

        Per-thread counters keep the placement's declaration order;
        chip power and the sensor noise salt are evaluated over the
        placement's canonical ordering, so permuting co-runners within
        a core (or whole cores) reproduces the measurement exactly.
        The homogeneous placement takes the same arithmetic path as
        ``run`` -- same activity objects, same power sum, same noise
        seed -- and is therefore bit-identical to it.
        """
        try:
            placement.validate_against(config)
        except ValueError as exc:
            raise MeasurementError(str(exc)) from None
        # Cores carrying the same group (every round-robin mix) share
        # one activity resolution, so their counter dicts alias too.
        group_memo: dict[tuple, list[ThreadActivity]] = {}
        core_activities = []
        for group in placement.core_groups:
            group_key = tuple(
                strict_workload_key(workload) for workload in group
            )
            activities = group_memo.get(group_key)
            if activities is None:
                activities = self._core_activities(group, config)
                group_memo[group_key] = activities
            core_activities.append(activities)
        frequency = self._run_frequency(config)
        # One counter synthesis per distinct activity object: threads
        # sharing an activity (homogeneous cores, repeated mixes) share
        # the counter dict, exactly as the plain path replicates one.
        counter_memo: dict[int, dict[str, float]] = {}

        def counters_for(activity: ThreadActivity) -> dict[str, float]:
            found = counter_memo.get(id(activity))
            if found is None:
                found = self.pipeline.counters_from_activity(
                    activity, duration, frequency=frequency
                )
                counter_memo[id(activity)] = found
            return found

        counters = tuple(
            counters_for(activity)
            for activities in core_activities
            for activity in activities
        )
        true_power = self._power.chip_power(
            [
                core_activities[core][slot]
                for core, slot in placement.canonical_order()
            ],
            config,
        )
        summary = self._sensor.measure(
            true_power,
            duration,
            stable_seed(
                placement.name,
                config.label,
                duration,
                self.seed,
                placement.canonical_salt(),
            ),
        )
        return Measurement(
            workload_name=placement.name,
            config=config,
            duration=duration,
            thread_counters=counters,
            mean_power=summary.mean_power,
            power_std=summary.power_std,
            sample_count=summary.sample_count,
            thread_workloads=placement.thread_names,
        )

    def _run_frequency(self, config: MachineConfig) -> float:
        """Effective clock under the configuration's p-state."""
        return self.frequency * config.p_state.freq_scale

    def _run_activity(
        self, workload: Kernel | Workload, config: MachineConfig
    ) -> ThreadActivity:
        """Steady-state activity re-clocked to the config's p-state."""
        activity = self._resolve_activity(workload, config.smt)
        return activity.at_frequency_scale(config.p_state.freq_scale)

    def _core_activities(
        self, group: Sequence[Kernel | Workload], config: MachineConfig
    ) -> list[ThreadActivity]:
        """Per-slot activities of one core of a placement.

        A homogeneous core degenerates to the cached single-workload
        path; a core mixing distinct kernels goes through the
        pipeline's mixed-core contention solver.  Cores mixing
        profiled workloads (whose SMT behaviour is a published scaling
        curve, not an occupancy model) fall back to each workload's
        own SMT-way activity.
        """
        strict_keys = {
            strict_workload_key(workload) for workload in group
        }
        freq_scale = config.p_state.freq_scale
        if len(strict_keys) == 1:
            activity = self._run_activity(group[0], config)
            return [activity] * config.smt
        if all(isinstance(workload, Kernel) for workload in group):
            # Solve in canonical (workload-identity) order: the
            # solver's accumulation order then never depends on which
            # SMT slot a co-runner was declared in, so permuting
            # co-runners permutes the resulting activities *exactly*
            # (same floats), keeping chip power and noise draws
            # permutation-invariant to the last bit.
            order = sorted(
                range(len(group)),
                key=lambda slot: workload_key(group[slot]),
            )
            cache_key = (
                None,  # base core class (cluster solves carry theirs)
                tuple(workload_key(group[slot]) for slot in order),
                config.smt,
            )
            solved = self._mixed_cache.get(cache_key)
            if solved is None:
                summaries = [
                    self.pipeline.summarize(group[slot]) for slot in order
                ]
                solved = self.pipeline.mixed_core_activities(
                    summaries, config.smt
                )
                self._mixed_cache.put(cache_key, solved)
            activities: list[ThreadActivity | None] = [None] * len(group)
            for slot, activity in zip(order, solved):
                activities[slot] = activity.at_frequency_scale(freq_scale)
            return activities
        return [
            self._run_activity(workload, config) for workload in group
        ]

    def _resolve_activity(
        self, workload: Kernel | Workload, smt: int
    ) -> ThreadActivity:
        # Base-class resolution: protocol workloads see the machine
        # facade itself, exactly as before the cluster refactor.
        return self._resolve_activity_on(
            workload, smt, None, self.pipeline, self
        )

    def _resolve_activity_on(
        self,
        workload: Kernel | Workload,
        smt: int,
        class_key: str | None,
        pipeline: CorePipelineModel,
        view,
    ) -> ThreadActivity:
        """Steady-state activity of one thread on one core class."""
        if isinstance(workload, Kernel):
            key = (class_key, workload.digest(), smt)
            cached = self._activity_cache.get(key)
            if cached is None:
                cached = pipeline.activity(workload, smt)
                self._activity_cache.put(key, cached)
            return cached
        if isinstance(workload, Workload):
            return workload.thread_activity(view, smt)
        raise MeasurementError(
            f"cannot deploy {type(workload).__name__}: not a Kernel and "
            "does not implement the workload protocol"
        )

    # -- heterogeneous topology measurement ------------------------------------

    def _class_key(self, core_class: str | None) -> str | None:
        """Cache-key normalization: the base class is always ``None``."""
        return None if core_class == self.arch.name else core_class

    def _cluster_activity(
        self, workload: Kernel | Workload, cluster: CoreCluster
    ) -> ThreadActivity:
        """One thread's activity on a cluster, re-clocked to its p-state."""
        _, pipeline, _, view = self._parts(cluster.core_class)
        activity = self._resolve_activity_on(
            workload,
            cluster.smt,
            self._class_key(cluster.core_class),
            pipeline,
            view,
        )
        return activity.at_frequency_scale(cluster.p_state.freq_scale)

    def _measure_topology(
        self,
        workload: Kernel | Workload | Placement,
        topology: ChipTopology,
        duration: float,
    ) -> Measurement:
        """Measure a workload replicated across every cluster thread.

        Each cluster resolves the workload on its own core class
        (pipeline widths, unit mix, caches, clock) at its own operating
        point; chip power combines the per-cluster dynamic draws over
        the shared uncore (:func:`~repro.sim.power.topology_power`).
        Counter readings are core-major in cluster declaration order,
        one reading set per hardware thread, synthesized at each
        cluster's effective clock.
        """
        if isinstance(workload, Placement):
            return self._measure_topology_placement(
                workload, topology, duration
            )
        parts = []
        thread_counters: list[dict] = []
        for cluster in topology.clusters:
            arch, pipeline, power, _ = self._parts(cluster.core_class)
            activity = self._cluster_activity(workload, cluster)
            counters = pipeline.counters_from_activity(
                activity,
                duration,
                frequency=arch.chip.cycles_per_second
                * cluster.p_state.freq_scale,
            )
            thread_counters.extend([counters] * cluster.threads)
            parts.append((cluster, power, [activity] * cluster.threads))
        true_power = topology_power(parts, topology.cores)
        salt = workload.digest() if isinstance(workload, Kernel) else 0
        summary = self._sensor.measure(
            true_power,
            duration,
            stable_seed(
                workload.name, topology.label, duration, self.seed, salt
            ),
        )
        return Measurement(
            workload_name=workload.name,
            config=topology,
            duration=duration,
            thread_counters=tuple(thread_counters),
            mean_power=summary.mean_power,
            power_std=summary.power_std,
            sample_count=summary.sample_count,
        )

    def _measure_topology_placement(
        self,
        placement: Placement,
        topology: ChipTopology,
        duration: float,
    ) -> Measurement:
        """Measure an explicit per-thread assignment across clusters.

        Core groups are cluster-major: the first ``clusters[0].cores``
        groups land on cluster 0 (each as wide as that cluster's SMT
        way), and so on.  Chip power and the noise salt are evaluated
        over each cluster segment's canonical ordering, so permuting
        co-runners within a core -- or whole cores *within a cluster*
        -- reproduces the measurement exactly, while moving work
        between clusters is a physically different placement.  The
        homogeneous placement takes the same per-cluster arithmetic as
        the plain topology run and is bit-identical to it.
        """
        try:
            placement.validate_against(topology)
        except ValueError as exc:
            raise MeasurementError(str(exc)) from None
        group_memo: dict[tuple, list[ThreadActivity]] = {}
        counter_memo: dict[tuple, dict[str, float]] = {}
        core_activities: list[list[ThreadActivity]] = []
        thread_counters: list[dict] = []
        core_index = 0
        for cluster in topology.clusters:
            arch, pipeline, _, _ = self._parts(cluster.core_class)
            frequency = (
                arch.chip.cycles_per_second * cluster.p_state.freq_scale
            )
            class_key = self._class_key(cluster.core_class)
            for _ in range(cluster.cores):
                group = placement.core_groups[core_index]
                group_key = (
                    class_key,
                    cluster.smt,
                    cluster.p_state.freq_scale,
                    tuple(strict_workload_key(w) for w in group),
                )
                activities = group_memo.get(group_key)
                if activities is None:
                    activities = self._cluster_core_activities(
                        group, cluster
                    )
                    group_memo[group_key] = activities
                core_activities.append(activities)
                for activity in activities:
                    memo_key = (id(activity), frequency)
                    counters = counter_memo.get(memo_key)
                    if counters is None:
                        counters = pipeline.counters_from_activity(
                            activity, duration, frequency=frequency
                        )
                        counter_memo[memo_key] = counters
                    thread_counters.append(counters)
                core_index += 1
        parts = []
        offset = 0
        for cluster in topology.clusters:
            _, _, power, _ = self._parts(cluster.core_class)
            order = placement.segment_order(offset, offset + cluster.cores)
            parts.append(
                (
                    cluster,
                    power,
                    [core_activities[core][slot] for core, slot in order],
                )
            )
            offset += cluster.cores
        true_power = topology_power(parts, topology.cores)
        summary = self._sensor.measure(
            true_power,
            duration,
            stable_seed(
                placement.name,
                topology.label,
                duration,
                self.seed,
                placement.canonical_salt_for(topology),
            ),
        )
        return Measurement(
            workload_name=placement.name,
            config=topology,
            duration=duration,
            thread_counters=tuple(thread_counters),
            mean_power=summary.mean_power,
            power_std=summary.power_std,
            sample_count=summary.sample_count,
            thread_workloads=placement.thread_names,
        )

    def _cluster_core_activities(
        self, group: Sequence[Kernel | Workload], cluster: CoreCluster
    ) -> list[ThreadActivity]:
        """Per-slot activities of one core of a cluster placement.

        The cluster analogue of :meth:`_core_activities`: homogeneous
        cores take the cached single-workload path, mixed kernel cores
        go through the *cluster pipeline's* contention solver (memoized
        per core class), and profiled mixes fall back to per-workload
        activities -- all re-clocked to the cluster's operating point.
        """
        _, pipeline, _, view = self._parts(cluster.core_class)
        class_key = self._class_key(cluster.core_class)
        freq_scale = cluster.p_state.freq_scale
        strict_keys = {
            strict_workload_key(workload) for workload in group
        }
        if len(strict_keys) == 1:
            activity = self._resolve_activity_on(
                group[0], cluster.smt, class_key, pipeline, view
            ).at_frequency_scale(freq_scale)
            return [activity] * cluster.smt
        if all(isinstance(workload, Kernel) for workload in group):
            order = sorted(
                range(len(group)),
                key=lambda slot: workload_key(group[slot]),
            )
            cache_key = (
                class_key,
                tuple(workload_key(group[slot]) for slot in order),
                cluster.smt,
            )
            solved = self._mixed_cache.get(cache_key)
            if solved is None:
                summaries = [
                    pipeline.summarize(group[slot]) for slot in order
                ]
                solved = pipeline.mixed_core_activities(
                    summaries, cluster.smt
                )
                self._mixed_cache.put(cache_key, solved)
            activities: list[ThreadActivity | None] = [None] * len(group)
            for slot, activity in zip(order, solved):
                activities[slot] = activity.at_frequency_scale(freq_scale)
            return activities
        return [
            self._resolve_activity_on(
                workload, cluster.smt, class_key, pipeline, view
            ).at_frequency_scale(freq_scale)
            for workload in group
        ]
