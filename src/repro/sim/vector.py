"""Array-backed evaluation plane: whole measurement plans as tensors.

The scalar walk (:meth:`repro.sim.machine.Machine._measure`) evaluates
one (kernel, configuration, window) cell at a time through per-mnemonic
dict arithmetic.  This module compiles the same analytic state into
dense NumPy arrays and evaluates an entire plan's worth of cells --
spanning *different* configurations, heterogeneous
:class:`~repro.sim.topology.ChipTopology` chips and windows -- in one
vectorized pass.

The unit of execution is a **fused per-lane tensor program**
(:class:`_FusedProgram`): one batch of cells compiles -- once -- into

* a **packed** form of :class:`~repro.sim.summary.KernelSummary` --
  fixed unit/level/counter index spaces derived from the architecture,
  with each kernel's occupancy/operation/level-count vectors stored as
  small dense arrays (:class:`PackedKernel`, LRU-memoized by kernel
  digest);
* packed kernels stacked into ``(kernels x units)`` / ``(kernels x
  levels)`` matrices, memoized under a **canonical (digest-sorted)
  batch key** so permuted compositions of the same kernel set share
  one stack, and gathered per cell by row index at compile time;
* per-configuration scalar **broadcast tables** (SMT share, frequency
  scale, effective clock, static power, dynamic V^2 scale) repeated
  across each configuration's cell span, computed once per ladder in
  plain Python with bit-for-bit the scalar walk's arithmetic;
* the per-cell ``stable_seed`` values and their sensor draw constants
  (resolved through the sensor draw cache, see
  :func:`repro.sim.sensors.draw_constants`), bucketed per window
  length;
* one :class:`_Lane` of index spaces *per core class*: heterogeneous
  topology cells evaluate cluster by cluster through each cluster core
  class's own lane (its own widths, unit mix, cache latencies, clock
  and energy scale).

Executing the program then runs the steady-state bounds, activity,
performance-counter synthesis, hidden-power and sensor stages as *one
fused pass per lane* -- pure elementwise tensor arithmetic with no
Python orchestration between stages -- and assembles Measurements
through a lazy counters view that defers per-cell dict
materialization until a reader asks.  ``Machine.run_plan`` keys
compiled programs weakly by plan object, so a resident campaign
(service engines, perf-bench steady state, DSE loops) re-executes the
same plan at tensor speed with zero recompilation.

**Bit-identity contract.**  Every floating-point operation of the
scalar walk is replayed here with the same operand values in the same
order (IEEE-754 double arithmetic is deterministic, and NumPy
elementwise ops round exactly like Python floats), and reductions whose
accumulation order matters (the per-mnemonic energy sums, the
per-thread dynamic-power sum, the per-cluster dynamic accumulation)
are evaluated as explicit sequential adds rather than ``np.sum``
(whose pairwise blocking would re-associate them).  The vectorized
path therefore produces *bit-identical* Measurements -- counters,
powers and sensor noise draws -- to the scalar reference, which stays
in place as the executable specification and property-test oracle
(``tests/sim/test_vector_plane.py``,
``tests/sim/test_heterogeneous_machine.py``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from weakref import WeakKeyDictionary
from zlib import crc32

import numpy as np

from repro.caching import LRUCache
from repro.measure.measurement import Measurement
from repro.sim.config import MachineConfig
from repro.sim.kernel import Kernel
from repro.sim.pipeline import MSHRS_PER_THREAD, SMT_OVERHEAD
from repro.sim.power import (
    CMP_CONCAVE,
    CMP_EXPONENT,
    CMP_LINEAR,
    IDLE_POWER,
    LEVEL_ENERGY_NJ,
    SMT_LOGIC,
    UNCORE_ACTIVE,
    cmp_effect,
    data_multiplier,
    order_multiplier,
)
from repro.sim.sensors import (
    QUANTUM_W,
    SAMPLE_INTERVAL_S,
    SAMPLE_NOISE_W,
    draw_constants,
)
from repro.sim.topology import ChipTopology

#: Packed kernels retained per lane (LRU past this).
PACKED_CACHE_LIMIT = 65_536
#: Stacked batch matrices retained per lane (LRU past this); a
#: configuration sweep re-uses one stack across its whole ladder.
STACK_CACHE_LIMIT = 256
#: Below this many kernel cells the scalar walk is faster than the
#: tensor pass's fixed setup cost.  Both paths are bit-identical, so
#: this is purely a latency knob.
MIN_VECTOR_BATCH = 8


class PackedKernel:
    """One kernel's summary, packed into dense index-space arrays."""

    __slots__ = (
        "digest",
        "size",
        "unit_bound",
        "dependency_bound",
        "miss_latency",
        "alternation",
        "entropy",
        "active",
        "insn_e9",
        "insn_counts",
        "unit_ops",
        "counter_levels",
        "level_e9",
        "level_counts",
    )

    def __init__(self, summary, unit_names, counter_level_names, power_model):
        self.digest = summary.digest
        self.size = summary.size
        self.unit_bound = summary.unit_bound
        self.dependency_bound = summary.dependency_bound
        self.miss_latency = summary.miss_latency
        self.alternation = summary.alternation
        self.entropy = summary.entropy
        # Kernels always commit work (empty loop bodies are rejected at
        # construction); the flag guards the idle-power degenerate case
        # exactly as the scalar walk's activity check does.
        self.active = bool(summary.mnemonic_counts)
        # Per-mnemonic energies and counts, in the summary's dict
        # insertion order: the scalar energy sum iterates that order,
        # and sequential column adds must replay it term for term.
        items = list(summary.mnemonic_counts.items())
        self.insn_e9 = np.array(
            [power_model.instruction_energy(m) * 1e-9 for m, _ in items]
        )
        self.insn_counts = np.array([float(c) for _, c in items])
        self.unit_ops = np.array(
            [summary.unit_ops.get(name, 0.0) for name in unit_names]
        )
        self.counter_levels = np.array(
            [summary.level_counts.get(name, 0.0) for name in counter_level_names]
        )
        energy_levels = [
            (LEVEL_ENERGY_NJ[level] * 1e-9, float(count))
            for level, count in summary.level_counts.items()
            if level in LEVEL_ENERGY_NJ
        ]
        self.level_e9 = np.array([e for e, _ in energy_levels])
        self.level_counts = np.array([c for _, c in energy_levels])


class _KernelStack:
    """Matrices of one distinct kernel-set, shared across configurations."""

    __slots__ = (
        "size",
        "unit_bound",
        "dependency_bound",
        "miss_latency",
        "order_mult",
        "data_mult",
        "all_active",
        "active",
        "insn_e9",
        "insn_counts",
        "unit_ops",
        "counter_levels",
        "level_e9",
        "level_counts",
    )

    def __init__(self, packs: Sequence[PackedKernel]) -> None:
        count = len(packs)
        self.size = np.array([float(pack.size) for pack in packs])
        self.unit_bound = np.array([pack.unit_bound for pack in packs])
        self.dependency_bound = np.array(
            [pack.dependency_bound for pack in packs]
        )
        self.miss_latency = np.array([pack.miss_latency for pack in packs])
        # The order/data multipliers only depend on the kernel, so they
        # stack once per batch composition; computed with the exact
        # scalar helpers so each element carries the scalar's bits.
        self.order_mult = np.array(
            [order_multiplier(pack.alternation) for pack in packs]
        )
        self.data_mult = np.array(
            [data_multiplier(pack.entropy) for pack in packs]
        )
        self.active = np.array([pack.active for pack in packs])
        self.all_active = all(pack.active for pack in packs)
        # Ragged per-mnemonic/per-level vectors pad with trailing
        # zeros: a zero term adds exactly nothing to a non-negative
        # sequential sum, so padding never perturbs the accumulation.
        mnemonics = max((len(pack.insn_e9) for pack in packs), default=0)
        levels = max((len(pack.level_e9) for pack in packs), default=0)
        self.insn_e9 = np.zeros((count, mnemonics))
        self.insn_counts = np.zeros((count, mnemonics))
        self.level_e9 = np.zeros((count, levels))
        self.level_counts = np.zeros((count, levels))
        for row, pack in enumerate(packs):
            width = len(pack.insn_e9)
            self.insn_e9[row, :width] = pack.insn_e9
            self.insn_counts[row, :width] = pack.insn_counts
            depth = len(pack.level_e9)
            self.level_e9[row, :depth] = pack.level_e9
            self.level_counts[row, :depth] = pack.level_counts
        self.unit_ops = np.vstack([pack.unit_ops for pack in packs])
        self.counter_levels = np.vstack(
            [pack.counter_levels for pack in packs]
        )


def _sequential_row_sum(terms: np.ndarray) -> np.ndarray:
    """Left-to-right row sums, replaying Python's ``sum()`` exactly.

    ``np.sum`` uses pairwise blocking, which re-associates the
    floating-point adds; the scalar reference accumulates strictly left
    to right starting from zero, so the vector plane must too.
    """
    total = np.zeros(terms.shape[0])
    for column in range(terms.shape[1]):
        total = total + terms[:, column]
    return total


# -- lazy counter views -------------------------------------------------------
#
# At fused-program throughput the dominant per-cell cost is no longer
# arithmetic but *materializing* each cell's counter dict (16-odd
# float boxings plus a dict build per hardware-thread view).  The
# program instead hands每 measurement a lazy, read-only mapping over
# its row of the counters matrix: construction is one tuple allocation
# (matrix reference + row index), and values box to Python floats only
# when a reader actually asks.  The view satisfies the Mapping
# contract -- ``dict(view)``, ``items()``, ``get``, equality with the
# scalar walk's plain dicts -- and pickles/deep-copies *as* a plain
# dict, so pickled copies and serialized store records are
# indistinguishable from scalar-plane output.


class _LazyReadings(tuple):
    """Read-only counter mapping over one row of a counters matrix.

    Instances are 2-tuples ``(matrix, row)``; the counter-name schema
    lives on the subclass (one per lane counter layout), so per-cell
    construction is a single C-level tuple allocation.
    """

    __slots__ = ()
    _names: tuple = ()
    _column_of: dict = {}

    def _values(self) -> list:
        matrix = tuple.__getitem__(self, 0)
        return matrix[tuple.__getitem__(self, 1)].tolist()

    def __getitem__(self, key):
        matrix = tuple.__getitem__(self, 0)
        return float(
            matrix[tuple.__getitem__(self, 1), self._column_of[key]]
        )

    def get(self, key, default=None):
        column = self._column_of.get(key)
        if column is None:
            return default
        matrix = tuple.__getitem__(self, 0)
        return float(matrix[tuple.__getitem__(self, 1), column])

    def keys(self):
        return self._names

    def values(self):
        return self._values()

    def items(self):
        return list(zip(self._names, self._values()))

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, key) -> bool:
        return key in self._column_of

    def __eq__(self, other):
        if isinstance(other, _LazyReadings):
            return (
                self._names == other._names
                and self._values() == other._values()
            )
        if isinstance(other, Mapping):
            if len(other) != len(self._names):
                return False
            sentinel = object()
            get = other.get
            for name, value in zip(self._names, self._values()):
                found = get(name, sentinel)
                if found is sentinel or found != value:
                    return False
            return True
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # Mutable-mapping parity with the scalar walk's dicts: unhashable.
    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        # Pickle and deepcopy materialize to the plain
        # dict the scalar walk would have produced.
        return (dict, (list(zip(self._names, self._values())),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(dict(zip(self._names, self._values())))


Mapping.register(_LazyReadings)

_READINGS_CLASSES: dict[tuple, type] = {}


def _readings_class(names: tuple) -> type:
    """The lazy-view subclass carrying one counter-name schema."""
    cls = _READINGS_CLASSES.get(names)
    if cls is None:
        cls = type(
            "_LazyReadingsView",
            (_LazyReadings,),
            {
                "__slots__": (),
                "_names": names,
                "_column_of": {
                    name: column for column, name in enumerate(names)
                },
            },
        )
        _READINGS_CLASSES[names] = cls
    return cls


class _Lane:
    """One core class's index spaces, packs and stacks.

    The homogeneous machine is the single base lane; each additional
    cluster core class of a heterogeneous topology gets its own lane,
    so kernels pack against the right unit mix, cache latencies,
    dispatch width, clock and energy scale.
    """

    __slots__ = (
        "arch",
        "pipeline",
        "power",
        "width",
        "frequency",
        "energy_scale",
        "unit_names",
        "counter_names",
        "counter_level_names",
        "readings_cls",
        "packed",
        "stacks",
    )

    def __init__(self, arch, pipeline, power_model, tag: str) -> None:
        self.arch = arch
        self.pipeline = pipeline
        self.power = power_model
        self.width = arch.chip.dispatch_width
        self.frequency = arch.chip.cycles_per_second
        self.energy_scale = arch.chip.energy_scale
        self.unit_names = tuple(arch.units)
        # Fixed counter layout: exactly the key order
        # ``counters_from_activity`` emits.
        names = ["PM_RUN_CYC", "PM_RUN_INST_CMPL"]
        names.extend(unit.counter for unit in arch.units.values())
        names.extend(["PM_LD_REF_L1", "PM_ST_REF_L1"])
        names.extend(cache.counter for cache in arch.caches[1:])
        names.append(arch.memory.counter)
        self.counter_names = tuple(names)
        self.readings_cls = _readings_class(self.counter_names)
        # The hierarchy levels backing the level-derived counters, in
        # the same column order as the counter tail above.
        self.counter_level_names = (
            "_loads",
            "_stores",
            *(cache.name for cache in arch.caches[1:]),
            arch.memory.name,
        )
        self.packed: LRUCache[int, PackedKernel] = LRUCache(
            PACKED_CACHE_LIMIT, f"vector.packed{tag}"
        )
        self.stacks: LRUCache[tuple, _KernelStack] = LRUCache(
            STACK_CACHE_LIMIT, f"vector.stacks{tag}"
        )

    def pack(self, kernel: Kernel) -> PackedKernel:
        digest = kernel.digest()
        pack = self.packed.get(digest)
        if pack is None:
            pack = PackedKernel(
                self.pipeline.summarize(kernel),
                self.unit_names,
                self.counter_level_names,
                self.power,
            )
            self.packed.put(digest, pack)
        return pack

    def stack(self, kernels: Sequence[Kernel]) -> tuple[_KernelStack, list[int]]:
        """``(stack, remap)`` for a kernel batch, canonically keyed.

        The memo key is the *digest-sorted* composition, so permuted
        batches of the same kernel (multi)set share one stack instead
        of restacking per arrival order; ``remap[i]`` is the canonical
        stack row of input kernel ``i``.  Rows with equal digests are
        interchangeable by construction (packs memoize per digest), so
        the canonical stack is identical whichever order produced it.
        """
        packs = [self.pack(kernel) for kernel in kernels]
        order = sorted(range(len(packs)), key=lambda i: packs[i].digest)
        key = tuple(packs[i].digest for i in order)
        stack = self.stacks.get(key)
        if stack is None:
            stack = _KernelStack([packs[i] for i in order])
            self.stacks.put(key, stack)
        remap = [0] * len(packs)
        for row, index in enumerate(order):
            remap[index] = row
        return stack, remap


class _Group:
    """One (configuration, window) span of a cell batch."""

    __slots__ = ("config", "duration", "cells")

    def __init__(self, config, duration: float) -> None:
        self.config = config
        self.duration = duration
        self.cells: list[int] = []  # positions in the kernel-cell order


def _group_span(cells, span: Sequence[int]):
    """Group one homogeneity class of kernel cells for compilation.

    Returns ``(kernels, cell_rows, groups)``: unique kernels by
    measurement identity (the noise seed folds in the workload *name*
    and content digest, so two equal-content kernels under different
    names stay distinct), each span cell's unique-kernel row, and the
    (configuration, window) groups in first-seen order.  Grouping is
    purely an evaluation-shape choice -- every cell's result is an
    independent pure function of its own content -- so object-identity
    grouping (plans reuse config objects, and hashing a MachineConfig
    per cell is costly) is always sound; equal configs arriving as
    distinct objects just form separate, identically-evaluated spans.
    """
    groups: dict[tuple, _Group] = {}
    unique_of: dict[tuple, int] = {}
    kernels: list[Kernel] = []
    cell_rows: list[int] = []
    for index in span:
        workload, config, duration = cells[index]
        group_key = (id(config), duration)
        group = groups.get(group_key)
        if group is None:
            group = groups[group_key] = _Group(config, duration)
        key = (workload.name, workload.digest())
        row = unique_of.get(key)
        if row is None:
            row = len(kernels)
            unique_of[key] = row
            kernels.append(workload)
        group.cells.append(len(cell_rows))
        cell_rows.append(row)
    return kernels, cell_rows, list(groups.values())


def _sensor_buckets(groups, group_sizes, seeds):
    """Per-window sensor tables: positions, draw constants, sigma.

    Windows can differ across groups; draws are per-cell-seeded, so
    bucketing by duration cannot change them.  Draw constants resolve
    once at compile time through the sensor draw cache (vectorized
    MT19937 seeding for wide fresh batches), leaving the program's
    per-execution sensor stage pure elementwise arithmetic.
    """
    by_duration: dict[float, tuple[list[int], list[int]]] = {}
    position = 0
    for group, count in zip(groups, group_sizes):
        bucket = by_duration.setdefault(group.duration, ([], []))
        bucket[0].extend(range(position, position + count))
        bucket[1].extend(seeds[position : position + count])
        position += count
    buckets = []
    for duration, (positions, bucket_seeds) in by_duration.items():
        sample_count = max(1, int(duration / SAMPLE_INTERVAL_S))
        sigma = SAMPLE_NOISE_W / sample_count ** 0.5
        zo1, z2 = draw_constants(bucket_seeds)
        buckets.append(
            (np.asarray(positions, dtype=np.intp), zo1, z2, sigma)
        )
    return buckets


def _apply_sensor(power, buckets) -> list[float]:
    """The fused sensor stage: cached draws applied elementwise.

    Replays ``PowerSensor.measure_batch``'s arithmetic exactly:
    ``mean = (p + zo1*p) + (0.0 + z2*sigma)``, quantized half-even to
    the sensor quantum (``np.round`` rounds exactly like ``round``).
    """
    means = np.empty(power.shape[0])
    for positions, zo1, z2, sigma in buckets:
        p = power[positions]
        mean = (p + zo1 * p) + (0.0 + z2 * sigma)
        means[positions] = np.round(mean / QUANTUM_W) * QUANTUM_W
    return means.tolist()


class _FusedSpan:
    """Fused program for the homogeneous (MachineConfig) cells of a batch.

    Compilation precomputes every plan-constant table -- the canonical
    kernel stack gathered per cell, the per-ladder config-scalar
    broadcast tables, seeds and sensor draw constants -- so execution
    is the physics stages (bounds, counters, hidden power), the fused
    sensor pass and Measurement assembly, with no grouping, hashing,
    seeding or stacking left on the hot path.
    """

    __slots__ = (
        "lane",
        "machine",
        "cell_count",
        "targets",
        "cell_names",
        "share",
        "fs",
        "freq_eff",
        "window",
        "dyn_scale",
        "static_power",
        "g_size",
        "g_unit_bound",
        "g_dep_bound",
        "g_miss_latency",
        "g_unit_ops",
        "g_counter_levels",
        "g_insn_e9",
        "g_insn_counts",
        "g_level_e9",
        "g_level_counts",
        "g_order_mult",
        "g_data_mult",
        "g_active",
        "all_active",
        "thread_segments",
        "sensor_buckets",
        "assembly",
    )

    def __init__(self, plane: "VectorPlane", cells, span: Sequence[int]) -> None:
        lane = plane._base
        machine = plane.machine
        self.lane = lane
        self.machine = machine
        kernels, cell_rows, groups = _group_span(cells, span)
        stack, remap = lane.stack(kernels)
        machine_seed = machine.seed
        machine_frequency = machine.frequency

        # Per-configuration scalars, computed once per group in plain
        # Python (bit-for-bit the scalar walk's arithmetic) and
        # repeated across the group's cell span: the broadcast tables.
        group_sizes = []
        share_g, fs_g, freq_eff_g, duration_g = [], [], [], []
        dyn_scale_g, static_g = [], []
        scatter: list[int] = []  # tensor position -> span cell position
        assembly = []
        thread_segments = []
        position = 0
        for group in groups:
            config = group.config
            p_state = config.p_state
            count = len(group.cells)
            group_sizes.append(count)
            scatter.extend(group.cells)
            share_g.append(config.smt / (1.0 - SMT_OVERHEAD[config.smt]))
            fs_g.append(p_state.freq_scale)
            freq_eff_g.append(machine_frequency * p_state.freq_scale)
            duration_g.append(group.duration)
            dyn_scale_g.append(
                1.0 if p_state.is_nominal else p_state.dynamic_scale
            )
            static = IDLE_POWER
            static += UNCORE_ACTIVE
            static += cmp_effect(config.cores)
            if config.smt_enabled:
                static += SMT_LOGIC * config.cores
            static_g.append(static)
            sample_count = max(1, int(group.duration / SAMPLE_INTERVAL_S))
            assembly.append(
                (
                    position,
                    position + count,
                    config,
                    group.duration,
                    config.threads,
                    sample_count,
                )
            )
            thread_segments.append(
                (position, position + count, config.threads)
            )
            position += count

        self.cell_count = len(cell_rows)
        rows = np.asarray(cell_rows, dtype=np.intp)
        order = np.asarray(scatter, dtype=np.intp)
        span_rows = rows[order]  # tensor position -> unique kernel row
        krows = np.asarray(remap, dtype=np.intp)[span_rows]
        repeats = np.asarray(group_sizes)
        self.share = np.repeat(np.asarray(share_g), repeats)
        self.fs = np.repeat(np.asarray(fs_g), repeats)[:, None]
        self.freq_eff = np.repeat(np.asarray(freq_eff_g), repeats)
        self.window = np.repeat(np.asarray(duration_g), repeats)
        self.dyn_scale = np.repeat(np.asarray(dyn_scale_g), repeats)
        self.static_power = np.repeat(np.asarray(static_g), repeats)
        self.thread_segments = thread_segments
        self.assembly = assembly

        # Tensor position -> caller batch index, for direct writes.
        self.targets = [span[index] for index in scatter]

        # Plan-constant gathers of the canonical stack (fancy indexing
        # copies, so LRU eviction of the stack cannot alias us).
        self.g_size = stack.size[krows]
        self.g_unit_bound = stack.unit_bound[krows]
        self.g_dep_bound = stack.dependency_bound[krows]
        self.g_miss_latency = stack.miss_latency[krows]
        self.g_unit_ops = stack.unit_ops[krows]
        self.g_counter_levels = stack.counter_levels[krows]
        self.g_insn_e9 = stack.insn_e9[krows]
        self.g_insn_counts = stack.insn_counts[krows]
        self.g_level_e9 = stack.level_e9[krows]
        self.g_level_counts = stack.level_counts[krows]
        self.g_order_mult = stack.order_mult[krows]
        self.g_data_mult = stack.data_mult[krows]
        self.g_active = stack.active[krows]
        self.all_active = stack.all_active

        # Sensor plane: per-cell stable_seed draws, exactly as the
        # scalar walk salts them (workload name, configuration label,
        # window, machine seed, kernel digest).
        names = [kernel.name for kernel in kernels]
        digests = [kernel.digest() for kernel in kernels]
        span_rows_list = span_rows.tolist()
        self.cell_names = [names[row] for row in span_rows_list]
        seeds = []
        position = 0
        for group, count in zip(groups, group_sizes):
            mid = f"|{group.config.label}|{group.duration}|{machine_seed}|"
            for row in span_rows_list[position : position + count]:
                seeds.append(
                    crc32(f"{names[row]}{mid}{digests[row]}".encode())
                )
            position += count
        self.sensor_buckets = _sensor_buckets(groups, group_sizes, seeds)

    def execute(self, out: list) -> None:
        """One fused pass: physics, sensors, assembly, in lane order."""
        lane = self.lane
        share = self.share
        fs_col = self.fs
        window = self.window
        window_col = window[:, None]

        # Steady-state bounds and period (same operand order as
        # bounds_from_summary), from the compile-time gathers.
        size = self.g_size
        dispatch = (size / lane.width) * share
        unit = self.g_unit_bound * share
        memory = (self.g_miss_latency / MSHRS_PER_THREAD) * share
        period = np.maximum(
            np.maximum(dispatch, unit),
            np.maximum(self.g_dep_bound, memory),
        )
        iterations = lane.frequency / period
        ipc = size / period

        # Performance counters: a (cells x counters) matrix in the
        # scalar synthesizer's exact column order and operand order
        # (rate = (per-iteration count * iterations) * freq_scale, then
        # * duration).
        rate_scale = iterations[:, None]
        unit_block = (
            (self.g_unit_ops * rate_scale) * fs_col
        ) * window_col
        level_block = (
            (self.g_counter_levels * rate_scale) * fs_col
        ) * window_col
        counter_names = lane.counter_names
        counters = np.empty((self.cell_count, len(counter_names)))
        counters[:, 0] = self.freq_eff * window
        counters[:, 1] = (ipc * self.freq_eff) * window
        units = len(lane.unit_names)
        counters[:, 2 : 2 + units] = unit_block
        counters[:, 2 + units :] = level_block

        # Hidden power: per-thread dynamic watts, then the chip sum.
        insn_terms = self.g_insn_e9 * (
            (self.g_insn_counts * rate_scale) * fs_col
        )
        core_joules = _sequential_row_sum(insn_terms)
        level_terms = self.g_level_e9 * (
            (self.g_level_counts * rate_scale) * fs_col
        )
        level_joules = _sequential_row_sum(level_terms)
        thread_dynamic = (
            self.g_order_mult * self.g_data_mult
        ) * core_joules + self.g_data_mult * level_joules
        # A machine whose *base* class declares a dynamic-energy scale
        # (running the eco definition directly, as per-cluster
        # campaigns do) scales here exactly like the scalar walk's
        # thread_dynamic_power.
        if lane.energy_scale != 1.0:
            thread_dynamic = thread_dynamic * lane.energy_scale
        # The scalar walk sums the identical per-thread power once per
        # hardware thread; replay that accumulation exactly (the thread
        # count is constant per configuration segment).
        dynamic = np.empty(self.cell_count)
        for start, stop, threads in self.thread_segments:
            segment = thread_dynamic[start:stop]
            acc = np.zeros(stop - start)
            for _ in range(threads):
                acc = acc + segment
            dynamic[start:stop] = acc
        dynamic = dynamic * self.dyn_scale
        power = self.static_power + dynamic
        if not self.all_active:
            power = np.where(self.g_active, power, IDLE_POWER)

        # Fused sensor stage from the compile-time draw constants.
        means = _apply_sensor(power, self.sensor_buckets)

        # Assembly: validation-free Measurement construction (the
        # plane guarantees the invariants) around lazy counter views.
        new = object.__new__
        measurement_cls = Measurement
        readings_cls = lane.readings_cls
        names = self.cell_names
        targets = self.targets
        for start, stop, config, duration, threads, sample_count in (
            self.assembly
        ):
            prototype = {
                "workload_name": None,
                "config": config,
                "duration": duration,
                "thread_counters": None,
                "mean_power": 0.0,
                "power_std": SAMPLE_NOISE_W,
                "sample_count": sample_count,
                "thread_workloads": None,
            }
            fresh = prototype.copy
            for position in range(start, stop):
                fields = fresh()
                fields["workload_name"] = names[position]
                fields["thread_counters"] = (
                    readings_cls((counters, position)),
                ) * threads
                fields["mean_power"] = means[position]
                measurement = new(measurement_cls)
                measurement.__dict__.update(fields)
                out[targets[position]] = measurement


class _FusedTopoSpan:
    """Fused program for the heterogeneous (ChipTopology) cells.

    Each (topology, window) group evaluates cluster by cluster through
    the cluster core class's lane, replaying the scalar topology walk
    exactly: static chip power accumulated in plain Python floats, each
    cluster's per-thread dynamic power summed by sequential adds and
    ``V^2``-scaled by its own operating point, counters synthesized at
    each cluster's effective clock.  All grouping, stacking, gathers,
    per-cluster scalars, seeds and draw constants resolve at compile
    time; execution is one fused pass per (group, lane).
    """

    __slots__ = (
        "machine",
        "cell_count",
        "targets",
        "cell_names",
        "group_runs",
        "sensor_buckets",
    )

    def __init__(self, plane: "VectorPlane", cells, span: Sequence[int]) -> None:
        machine = plane.machine
        self.machine = machine
        kernels, cell_rows, groups = _group_span(cells, span)
        machine_seed = machine.seed
        names = [kernel.name for kernel in kernels]
        digests = [kernel.digest() for kernel in kernels]
        rows = np.asarray(cell_rows, dtype=np.intp)

        self.cell_count = len(cell_rows)
        scatter: list[int] = []
        group_sizes: list[int] = []
        seeds: list[int] = []
        cell_names: list[str] = []
        group_runs = []
        position = 0
        for group in groups:
            topology: ChipTopology = group.config
            duration = group.duration
            count = len(group.cells)
            group_sizes.append(count)
            scatter.extend(group.cells)
            group_rows = rows[np.asarray(group.cells, dtype=np.intp)]

            # Static chip power: plain-float accumulation in the exact
            # order of power.topology_power (concave CMP part over the
            # total core count, the linear per-core part per cluster
            # scaled by its class's energy scale).
            static = IDLE_POWER
            static += UNCORE_ACTIVE
            static += CMP_CONCAVE * topology.cores ** CMP_EXPONENT
            for cluster in topology.clusters:
                lane = plane._lane(cluster.core_class)
                static += CMP_LINEAR * cluster.cores * lane.energy_scale
                if cluster.smt_enabled:
                    static += SMT_LOGIC * cluster.cores

            g_active = None
            all_active = True
            clusters = []
            for cluster in topology.clusters:
                lane = plane._lane(cluster.core_class)
                stack, remap = lane.stack(kernels)
                krows = np.asarray(remap, dtype=np.intp)[group_rows]
                if g_active is None:
                    g_active = stack.active[krows]
                    all_active = stack.all_active
                p_state = cluster.p_state
                clusters.append(
                    {
                        "lane": lane,
                        "share": cluster.smt
                        / (1.0 - SMT_OVERHEAD[cluster.smt]),
                        "fs": p_state.freq_scale,
                        "freq_eff": lane.frequency * p_state.freq_scale,
                        "threads": cluster.threads,
                        "dyn_scale": (
                            None
                            if p_state.is_nominal
                            else p_state.dynamic_scale
                        ),
                        "size": stack.size[krows],
                        "unit_bound": stack.unit_bound[krows],
                        "dep_bound": stack.dependency_bound[krows],
                        "miss_latency": stack.miss_latency[krows],
                        "unit_ops": stack.unit_ops[krows],
                        "counter_levels": stack.counter_levels[krows],
                        "insn_e9": stack.insn_e9[krows],
                        "insn_counts": stack.insn_counts[krows],
                        "level_e9": stack.level_e9[krows],
                        "level_counts": stack.level_counts[krows],
                        "order_mult": stack.order_mult[krows],
                        "data_mult": stack.data_mult[krows],
                    }
                )

            sample_count = max(1, int(duration / SAMPLE_INTERVAL_S))
            group_runs.append(
                {
                    "start": position,
                    "stop": position + count,
                    "config": topology,
                    "duration": duration,
                    "static": static,
                    "active": g_active,
                    "all_active": all_active,
                    "clusters": clusters,
                    "sample_count": sample_count,
                }
            )

            mid = f"|{topology.label}|{duration}|{machine_seed}|"
            for row in krows_names_rows(group_rows):
                seeds.append(
                    crc32(f"{names[row]}{mid}{digests[row]}".encode())
                )
                cell_names.append(names[row])
            position += count

        self.targets = [span[index] for index in scatter]
        self.cell_names = cell_names
        self.group_runs = group_runs
        self.sensor_buckets = _sensor_buckets(groups, group_sizes, seeds)

    def execute(self, out: list) -> None:
        power = np.empty(self.cell_count)
        per_group_state = []
        for run in self.group_runs:
            start, stop = run["start"], run["stop"]
            count = stop - start
            duration = run["duration"]
            group_power = np.full(count, run["static"])
            cluster_views = []
            for cluster in run["clusters"]:
                lane = cluster["lane"]
                share = cluster["share"]
                fs = cluster["fs"]
                size = cluster["size"]
                dispatch = (size / lane.width) * share
                unit = cluster["unit_bound"] * share
                memory = (
                    cluster["miss_latency"] / MSHRS_PER_THREAD
                ) * share
                period = np.maximum(
                    np.maximum(dispatch, unit),
                    np.maximum(cluster["dep_bound"], memory),
                )
                iterations = lane.frequency / period
                ipc = size / period
                rate_scale = iterations[:, None]

                # The cluster's counter block at its effective clock.
                unit_block = (
                    (cluster["unit_ops"] * rate_scale) * fs
                ) * duration
                level_block = (
                    (cluster["counter_levels"] * rate_scale) * fs
                ) * duration
                counters = np.empty((count, len(lane.counter_names)))
                counters[:, 0] = cluster["freq_eff"] * duration
                counters[:, 1] = (ipc * cluster["freq_eff"]) * duration
                units = len(lane.unit_names)
                counters[:, 2 : 2 + units] = unit_block
                counters[:, 2 + units :] = level_block
                cluster_views.append(
                    (lane.readings_cls, counters, cluster["threads"])
                )

                # The cluster's dynamic power.
                insn_terms = cluster["insn_e9"] * (
                    (cluster["insn_counts"] * rate_scale) * fs
                )
                core_joules = _sequential_row_sum(insn_terms)
                level_terms = cluster["level_e9"] * (
                    (cluster["level_counts"] * rate_scale) * fs
                )
                level_joules = _sequential_row_sum(level_terms)
                thread_dynamic = (
                    cluster["order_mult"] * cluster["data_mult"]
                ) * core_joules + cluster["data_mult"] * level_joules
                if lane.energy_scale != 1.0:
                    thread_dynamic = thread_dynamic * lane.energy_scale
                dynamic = np.zeros(count)
                for _ in range(cluster["threads"]):
                    dynamic = dynamic + thread_dynamic
                if cluster["dyn_scale"] is not None:
                    dynamic = dynamic * cluster["dyn_scale"]
                group_power = group_power + dynamic

            if not run["all_active"]:
                group_power = np.where(
                    run["active"], group_power, IDLE_POWER
                )
            power[start:stop] = group_power
            per_group_state.append(cluster_views)

        means = _apply_sensor(power, self.sensor_buckets)

        new = object.__new__
        measurement_cls = Measurement
        names = self.cell_names
        targets = self.targets
        for run, cluster_views in zip(self.group_runs, per_group_state):
            start, stop = run["start"], run["stop"]
            prototype = {
                "workload_name": None,
                "config": run["config"],
                "duration": run["duration"],
                "thread_counters": None,
                "mean_power": 0.0,
                "power_std": SAMPLE_NOISE_W,
                "sample_count": run["sample_count"],
                "thread_workloads": None,
            }
            fresh = prototype.copy
            for position in range(start, stop):
                offset = position - start
                thread_counters = ()
                for readings_cls, counters, threads in cluster_views:
                    thread_counters += (
                        readings_cls((counters, offset)),
                    ) * threads
                fields = fresh()
                fields["workload_name"] = names[position]
                fields["thread_counters"] = thread_counters
                fields["mean_power"] = means[position]
                measurement = new(measurement_cls)
                measurement.__dict__.update(fields)
                out[targets[position]] = measurement


def krows_names_rows(group_rows: np.ndarray) -> list[int]:
    """Unique-kernel row per group cell, as Python ints."""
    return group_rows.tolist()


class _FusedProgram:
    """A whole cell batch compiled to fused spans plus passthrough.

    Kernel cells -- homogeneous and topology spans alike -- execute as
    fused tensor passes; placements and protocol workloads re-measure
    through the scalar walk cell by cell (order preserved), exactly as
    the pre-fusion plane routed them.
    """

    __slots__ = ("machine", "size", "spans", "passthrough")

    def __init__(self, plane, cells, kernel_span, topo_span) -> None:
        self.machine = plane.machine
        self.size = len(cells)
        self.spans = []
        covered: set[int] = set()
        if kernel_span is not None:
            self.spans.append(_FusedSpan(plane, cells, kernel_span))
            covered.update(kernel_span)
        if topo_span is not None:
            self.spans.append(_FusedTopoSpan(plane, cells, topo_span))
            covered.update(topo_span)
        self.passthrough = [
            (index, cells[index])
            for index in range(len(cells))
            if index not in covered
        ]

    def execute(self) -> list[Measurement]:
        out: list[Measurement] = [None] * self.size  # type: ignore[list-item]
        for span in self.spans:
            span.execute(out)
        if self.passthrough:
            measure = self.machine._measure
            for index, (workload, config, duration) in self.passthrough:
                out[index] = measure(workload, config, duration)
        return out


class VectorPlane:
    """Vectorized batch evaluator bound to one machine."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.arch = machine.arch
        self._base = _Lane(
            machine.arch, machine.pipeline, machine._power, ""
        )
        self._lanes: dict[str | None, _Lane] = {None: self._base}
        # Compiled programs, weakly keyed by plan object: a resident
        # plan (service engine, bench steady state, DSE loop)
        # re-executes with zero recompilation; a dropped plan frees its
        # program with it.
        self._programs: WeakKeyDictionary = WeakKeyDictionary()

    def _lane(self, core_class: str | None) -> _Lane:
        """The lane of one cluster core class (base lane for ``None``)."""
        key = self.machine._class_key(core_class)
        lane = self._lanes.get(key)
        if lane is None:
            arch, pipeline, power, _ = self.machine._parts(key)
            lane = _Lane(arch, pipeline, power, f".{key}")
            self._lanes[key] = lane
        return lane

    def cache_stats(self) -> dict:
        """Hit/miss/size counters of the plane's memo caches.

        The base lane reports under the historical ``packed``/``stacks``
        keys; additional cluster-class lanes report under
        ``packed:<class>`` / ``stacks:<class>``.
        """
        stats = {
            "packed": self._base.packed.stats(),
            "stacks": self._base.stacks.stats(),
        }
        for key, lane in self._lanes.items():
            if key is None:
                continue
            stats[f"packed:{key}"] = lane.packed.stats()
            stats[f"stacks:{key}"] = lane.stacks.stats()
        return stats

    # -- batch evaluation --------------------------------------------------------

    def cached_program(self, plan) -> _FusedProgram | None:
        """The compiled program of a previously measured plan, if any."""
        return self._programs.get(plan)

    def try_measure_cells(
        self,
        cells: Sequence[tuple[object, MachineConfig, float]],
        plan=None,
    ) -> list[Measurement] | None:
        """Measure ``(workload, config, duration)`` cells, or decline.

        Kernel cells -- across *all* configurations, heterogeneous
        topologies and windows in the batch -- compile into a fused
        tensor program and execute in one pass; placements and protocol
        workloads fall back to the scalar walk cell by cell (order
        preserved).  Batches with too few kernel cells to amortize the
        tensor setup are declined entirely: the caller runs the scalar
        walk, which is bit-identical anyway.  With ``plan`` given (the
        immutable :class:`~repro.exec.plan.ExperimentPlan` these cells
        came from, in plan-cell order), the compiled program is cached
        weakly under the plan, so re-executions skip compilation.
        """
        kernel_indices: list[int] = []
        topo_indices: list[int] = []
        for index, (workload, config, _) in enumerate(cells):
            if isinstance(workload, Kernel):
                if isinstance(config, ChipTopology):
                    topo_indices.append(index)
                else:
                    kernel_indices.append(index)
        # The threshold applies per homogeneity span: each span pays
        # its own tensor setup, so a minority span below the crossover
        # rides the scalar walk even when the other span vectorizes.
        kernel_span = (
            kernel_indices
            if len(kernel_indices) >= MIN_VECTOR_BATCH
            else None
        )
        topo_span = (
            topo_indices if len(topo_indices) >= MIN_VECTOR_BATCH else None
        )
        if kernel_span is None and topo_span is None:
            return None
        program = _FusedProgram(self, cells, kernel_span, topo_span)
        if plan is not None:
            self._programs[plan] = program
        return program.execute()
