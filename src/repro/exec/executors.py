"""Plan executor: in-process measurement with a store and fault recovery.

:class:`SerialExecutor` takes an :class:`~repro.exec.plan.ExperimentPlan`
and returns measurements in the plan's requested order.  Every
measurement is a deterministic pure function of the architecture
definition, the machine seed and the cell content (sensor noise is
seeded from stable content digests, never from run order or wall
clock), so a retried or degraded cell reproduces the fault-free bytes
and recovery never perturbs results.  The same purity lets
:class:`~repro.exec.shards.ShardedExecutor` split a plan across
``repro serve`` replicas -- the one way to spread a campaign over
several processes or hosts -- and reassemble it bit for bit.

Batching: cells are grouped by (configuration, window) and driven
through :meth:`Machine.run_many` (or one :meth:`Machine.run_cells`
tensor pass when nothing is persisted per batch), so every distinct
kernel is summarized once regardless of how many cells carry it.

With a :class:`~repro.exec.store.ResultStore` attached, warm cells are
served from disk and only the misses are measured; a fully warm plan
never touches ``Machine.run`` at all.  Store-backed executions also
write a per-run :class:`~repro.exec.journal.RunJournal` next to the
store, so an interrupted campaign (``kill -9`` mid-batch) is visible
as such and resumes measuring only its unfinished cells.

Fault tolerance (long unattended campaigns treat partial failure as
the normal case):

* a batch that raises re-executes *cell by cell* (degraded mode), each
  cell with a bounded, deterministic exponential-backoff retry budget
  (``REPRO_RETRIES``, default 2) -- and only a cell that still fails is
  quarantined into a :class:`~repro.exec.report.CellFailure` instead
  of aborting the campaign;
* store appends retry the same way; an abandoned append costs a warm
  cell next run, never a result this run.

:meth:`~_ExecutorBase.execute` returns the full
:class:`~repro.exec.report.ExecutionReport` (measurements + failures +
fault counters); :meth:`~_ExecutorBase.run` is the historical
list-returning convenience, raising
:class:`~repro.errors.ExecutionError` if anything was quarantined.
Every recovery path is exercised deterministically in the test suite
via :mod:`repro.exec.faults` (the ``REPRO_FAULTS`` knob).
"""

from __future__ import annotations

import logging
import os
import time
from collections.abc import Sequence

from repro.errors import SettingError
from repro.exec import faults
from repro.exec.journal import RunJournal, run_id
from repro.exec.plan import ExperimentPlan, PlanCell
from repro.exec.report import ExecutionReport, ReportBuilder
from repro.exec.store import ResultStore
from repro.measure.measurement import Measurement
from repro.sim.machine import Machine
from repro.sim.topology import ChipTopology

logger = logging.getLogger("repro.exec")

#: Default bounded-retry budget per cell/store append (``REPRO_RETRIES``).
DEFAULT_RETRIES = 2

#: Deterministic exponential backoff: base * 2**attempt, capped.  No
#: jitter -- retried runs must stay reproducible.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0


def _env_int(name: str, default: int) -> int:
    """The integer ``REPRO_*`` knob ``name``, or ``default`` when unset.

    The one reader of numeric environment knobs: a set value that is
    not an integer ``>= 0`` raises :class:`SettingError` naming the
    variable and the value, never a silent fallback.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    if not raw.isdecimal():
        raise SettingError(f"{name} must be an integer >= 0, got {raw!r}")
    return int(raw)


def backoff_sleep(attempt: int, retry_after: float | None = None) -> None:
    """Sleep before retry ``attempt`` (0-based) of a transient failure.

    The one retry schedule of the engine: local cell and store-append
    retries and the service client's resubmissions share it.  A server's
    ``Retry-After`` lengthens the delay, never beyond the cap.
    """
    delay = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2.0**attempt))
    if retry_after is not None:
        delay = max(delay, min(_BACKOFF_CAP_S, retry_after))
    time.sleep(delay)


def _group_cells(cells: Sequence[PlanCell]) -> dict[tuple, list[int]]:
    """Indices of ``cells`` grouped per measurement batch, first-seen order.

    Keyed by label as well as configuration: configuration equality
    ignores the p-state *name*, but the label seeds sensor noise, so
    same-scale differently-named operating points must run as separate
    batches.
    """
    groups: dict[tuple, list[int]] = {}
    for index, cell in enumerate(cells):
        groups.setdefault(
            (cell.config, cell.config.label, cell.duration), []
        ).append(index)
    return groups


def _measure_on(
    machine: Machine,
    cells: Sequence[PlanCell],
    persist=None,
    plan: ExperimentPlan | None = None,
) -> list[Measurement]:
    """Measure ``cells`` on ``machine``, grouped by configuration.

    Without a ``persist`` callback all of ``cells`` evaluate as one
    :meth:`Machine.run_cells` batch, so the vectorized measurement
    plane sees every configuration in a single tensor
    pass; with ``plan`` given (the whole plan is being measured cold,
    in plan-cell order), the plane additionally compiles and caches a
    fused tensor program under the plan, so re-executions skip
    compilation entirely.  With ``persist(cells, measurements)`` --
    called after each configuration group so progress stays durable
    mid-campaign -- the cells evaluate group by group through
    ``run_many``; grouping preserves first-seen configuration order
    either way, and the output list is in ``cells`` order.
    """
    fault_plan = faults.active()
    if fault_plan is not None and fault_plan.wants("poison"):
        for cell in cells:
            fault_plan.maybe_poison(faults.cell_key(cell))
    if persist is None:
        return machine.run_cells(cells, plan=plan)
    out: list[Measurement | None] = [None] * len(cells)
    for (config, label, duration), indices in _group_cells(cells).items():
        if fault_plan is not None and fault_plan.wants("slow"):
            fault_plan.maybe_slow(f"batch:{label}:{duration}")
        measurements = machine.run_many(
            [cells[index].workload for index in indices], config, duration
        )
        for index, measurement in zip(indices, measurements):
            out[index] = measurement
        persist(
            [cells[index] for index in indices], measurements
        )
    return out  # type: ignore[return-value]


def _degraded_cells(
    machine: Machine,
    cells: Sequence[PlanCell],
    persist,
    builder: ReportBuilder,
    retries: int,
    key_of=None,
) -> list[Measurement | None]:
    """Last-resort serial re-execution, one cell at a time.

    Each cell gets its own bounded retry budget; a cell that still
    fails is quarantined into a CellFailure (``None`` in the result
    slot) instead of poisoning its whole batch.  Measurement is pure,
    so cells that *do* succeed here are bit-identical to a fault-free
    run.
    """
    builder.count("degraded_cells", len(cells))
    out: list[Measurement | None] = []
    for cell in cells:
        measurement: Measurement | None = None
        attempt = 0
        while True:
            try:
                measurement = _measure_on(machine, [cell], None)[0]
                break
            except Exception as exc:
                if attempt >= retries:
                    failure = builder.quarantine(
                        cell,
                        attempt + 1,
                        exc,
                        key_of(cell) if key_of is not None else None,
                    )
                    logger.error(
                        "quarantining cell %s on %s after %d attempts: "
                        "%s: %s",
                        failure.workload_name,
                        failure.config_label,
                        failure.attempts,
                        failure.kind,
                        failure.message,
                    )
                    break
                builder.count("retries")
                backoff_sleep(attempt)
                attempt += 1
        if measurement is not None and persist is not None:
            persist([cell], [measurement])
        out.append(measurement)
    return out


class _ExecutorBase:
    """Shared store/plan/fault-handling plumbing of the executors."""

    def __init__(
        self,
        machine: Machine,
        store: ResultStore | None = None,
        retries: int | None = None,
    ) -> None:
        self.machine = machine
        self.store = store
        #: Bounded retry budget (degraded cells, store appends).
        self.retries = (
            retries
            if retries is not None
            else _env_int("REPRO_RETRIES", DEFAULT_RETRIES)
        )
        #: The last execution's report (also returned by execute()).
        self.last_report: ExecutionReport | None = None
        # (arch object, digest) memo: rendering the digest costs
        # ~1.5 ms, which would dominate warm single-cell plans
        # (per-point DSE loops) if recomputed per run.  The memo holds
        # the architecture object itself (identity via ``is``, never a
        # bare ``id()`` that a recycled allocation could collide with).
        # Swapping in a different architecture object re-digests;
        # mutating one *in place* while reusing an executor does not --
        # build a fresh architecture (``get_architecture`` always
        # returns one) for definition edits, as the bootstrap's epi
        # write-backs (excluded from the digest by design) are the only
        # sanctioned in-place mutation.
        self._arch_digest_memo = None
        self._arch_digest = 0
        # Cluster-class definition digests (topology cell keys), by
        # class name.  Cluster classes resolve through the registry --
        # freshly parsed, never mutated in place -- so one digest per
        # class per executor lifetime is sound; the *base* class rides
        # the per-object memo above instead.
        self._cluster_digest_memo: dict[str, int] = {}

    def _refresh_arch_digest(self) -> None:
        arch = self.machine.arch
        memo = self._arch_digest_memo
        if memo is None or memo[0] is not arch:
            self._arch_digest_memo = (arch, arch.content_digest())
        self._arch_digest = self._arch_digest_memo[1]

    def _cluster_digests(self, topology) -> dict:
        """Per-class definition digests a topology cell's key folds in."""
        digests: dict = {}
        for cluster in topology.clusters:
            core_class = cluster.core_class
            if self.machine._class_key(core_class) is None:
                digests[core_class] = self._arch_digest
                continue
            found = self._cluster_digest_memo.get(core_class)
            if found is None:
                found = self.machine.cluster_arch(
                    core_class
                ).content_digest()
                self._cluster_digest_memo[core_class] = found
            digests[core_class] = found
        return digests

    def _key(self, cell: PlanCell) -> str:
        cluster_digests = (
            self._cluster_digests(cell.config)
            if isinstance(cell.config, ChipTopology)
            else None
        )
        return cell.key(
            self.machine.arch.name,
            self.machine.seed,
            self._arch_digest,
            cluster_digests,
        )

    def key_of(self, cell: PlanCell) -> str:
        """The content-addressed store key of ``cell`` on this machine.

        The public spelling of the key the executor persists and the
        store serves -- the campaign service uses it for its
        single-flight dedup registry, so service-side identity can
        never drift from store identity.
        """
        self._refresh_arch_digest()
        return self._key(cell)

    def run(self, plan: ExperimentPlan) -> list[Measurement]:
        """Execute the plan; measurements in requested order.

        The historical list-returning contract: raises
        :class:`~repro.errors.ExecutionError` (carrying the full
        :class:`~repro.exec.report.ExecutionReport`) if any cell was
        quarantined after retries and the degraded fallback.  Callers
        that want partial results use :meth:`execute` directly.
        """
        return self.execute(plan).require_complete()

    def execute(self, plan: ExperimentPlan, progress=None) -> ExecutionReport:
        """Execute the plan; the full structured outcome.

        The plan's configurations are validated against the machine
        up front (:meth:`ExperimentPlan.validate_against`), so an
        infeasible sweep raises ``PlanValidationError`` before any
        cell is measured or served from the store.  With a store
        attached, a per-run journal is written next to it; re-running
        an interrupted campaign resumes measuring only the cells the
        store does not already hold.

        ``progress``, if given, is called as ``progress(cells,
        measurements, warm)`` whenever a batch of unique cells lands:
        once with ``warm=True`` for the store-served cells (if any),
        then per measured batch with ``warm=False`` as results arrive
        -- the streaming hook the campaign service fans results out on.
        Quarantined cells never reach ``progress``; they surface in the
        returned report's failures.  Note that a ``progress`` callback
        forces per-batch evaluation on store-less plans (the same
        granularity a store's persistence cadence imposes anyway).
        """
        plan.validate_against(self.machine)
        cells = plan.cells
        builder = ReportBuilder()
        results: list[Measurement | None] = [None] * len(cells)
        journal: RunJournal | None = None
        persist = None
        store_faults_before: dict[str, int] = {}
        if self.store is None:
            misses = list(range(len(cells)))
        else:
            store_faults_before = dict(self.store.fault_stats())
            # Cell keys must reflect the architecture definition *as
            # measured*; the digest is memoized per architecture object
            # (see __init__) so warm single-cell runs stay cheap.
            self._refresh_arch_digest()
            keys = [self._key(cell) for cell in cells]
            journal = RunJournal(self.store.root, run_id(keys))
            journal.start(len(cells), plan.describe())
            misses = []
            for index, cell in enumerate(cells):
                found = self.store.get(keys[index])
                if found is None:
                    misses.append(index)
                else:
                    results[index] = found
            logger.info(
                "plan %s: %d warm from %s, %d to measure",
                plan.describe(),
                len(cells) - len(misses),
                self.store,
                len(misses),
            )

            def persist(batch_cells, batch_measurements):
                self._persist(batch_cells, batch_measurements, journal, builder)

        if progress is not None:
            warm_indices = [
                index for index in range(len(cells)) if index not in set(misses)
            ]
            if warm_indices:
                progress(
                    [cells[index] for index in warm_indices],
                    [results[index] for index in warm_indices],
                    True,
                )
            store_persist = persist

            def persist(batch_cells, batch_measurements):
                if store_persist is not None:
                    store_persist(batch_cells, batch_measurements)
                progress(batch_cells, batch_measurements, False)

        if misses:
            # Persistence happens inside _measure_cells (per batch),
            # so an interrupted campaign keeps everything
            # measured so far; re-runs resume from the store.  Without
            # a store there is nothing to persist, and passing no
            # callback lets the measurement plane evaluate the whole
            # miss set as one tensor pass.  A fully cold store-less
            # run measures the plan's own cell list verbatim, so the
            # plan rides along as the vector plane's program-cache
            # key: repeated executions of the same plan object jump
            # straight to the compiled fused program.
            plan_hint = (
                plan if persist is None and len(misses) == len(cells) else None
            )
            measured = self._measure_cells(
                [cells[index] for index in misses], persist, builder,
                plan=plan_hint,
            )
            for index, measurement in zip(misses, measured):
                results[index] = measurement
        if self.store is not None:
            for name, value in self.store.fault_stats().items():
                delta = value - store_faults_before.get(name, 0)
                builder.count(f"store_{name}", delta)
        if journal is not None:
            journal.mark_quarantined(builder.failures)
            journal.complete(
                sum(1 for index in misses if results[index] is not None),
                builder.counters,
            )
        report = builder.build(plan.expand(results))
        self.last_report = report
        if not report.ok:
            logger.error("plan finished degraded: %s", report.describe())
        elif report.fault_counters:
            logger.warning(
                "plan finished after recovery: %s", report.describe()
            )
        return report

    def _persist(
        self,
        cells: Sequence[PlanCell],
        measurements: Sequence[Measurement],
        journal: RunJournal | None = None,
        builder: ReportBuilder | None = None,
    ) -> None:
        """Persist one measured batch, one locked write per touched shard.

        Each shard group carries its own bounded ``OSError`` retry
        budget (a transient fault on one shard must not starve the
        others), and already-appended groups are never re-written by a
        later group's retry.  A group abandoned after the budget is
        logged and counted, never raised -- the measurements are
        already in memory and at worst re-measure next run.
        """
        if self.store is None:
            return
        by_shard: dict[str, list[tuple[str, Measurement]]] = {}
        for cell, measurement in zip(cells, measurements):
            key = self._key(cell)
            by_shard.setdefault(key[:2], []).append((key, measurement))
        landed: list[str] = []
        for name, entries in by_shard.items():
            attempt = 0
            while True:
                try:
                    self.store.put_many(entries)
                    landed.extend(key for key, _ in entries)
                    break
                except OSError as exc:
                    if attempt >= self.retries:
                        if builder is not None:
                            builder.count("store_put_failures")
                        logger.warning(
                            "abandoning store append of %d cell(s) to "
                            "shard %s after %d attempts (%s); results "
                            "kept in memory, cells will re-measure "
                            "next run",
                            len(entries),
                            name,
                            attempt + 1,
                            exc,
                        )
                        break
                    if builder is not None:
                        builder.count("store_put_retries")
                    backoff_sleep(attempt)
                    attempt += 1
        if journal is not None and landed:
            journal.mark_done(landed)

    def _key_of(self):
        """Per-cell store-key function for failure records (or None)."""
        return self._key if self.store is not None else None

    def _measure_inprocess(
        self,
        cells: Sequence[PlanCell],
        persist,
        builder: ReportBuilder,
        plan: ExperimentPlan | None = None,
    ) -> list[Measurement | None]:
        """In-process measurement with per-cell degraded fallback."""
        try:
            return _measure_on(self.machine, cells, persist, plan=plan)
        except Exception as exc:
            builder.count("batch_failures")
            logger.warning(
                "batch of %d cells failed in-process (%s: %s); "
                "re-executing cell by cell",
                len(cells),
                type(exc).__name__,
                exc,
            )
            return _degraded_cells(
                self.machine,
                cells,
                persist,
                builder,
                self.retries,
                self._key_of(),
            )

    def _measure_cells(
        self,
        cells: Sequence[PlanCell],
        persist,
        builder: ReportBuilder,
        plan: ExperimentPlan | None = None,
    ) -> list[Measurement | None]:
        raise NotImplementedError


class SerialExecutor(_ExecutorBase):
    """In-process execution, batched per configuration."""

    def _measure_cells(
        self,
        cells: Sequence[PlanCell],
        persist,
        builder: ReportBuilder,
        plan: ExperimentPlan | None = None,
    ) -> list[Measurement | None]:
        logger.info("serial: measuring %d cells", len(cells))
        return self._measure_inprocess(cells, persist, builder, plan=plan)


def default_executor(
    machine: Machine,
    store: ResultStore | str | None = None,
) -> SerialExecutor:
    """The executor the environment asks for.

    ``REPRO_STORE`` (a directory path) attaches a persistent
    :class:`ResultStore`; ``REPRO_RETRIES`` tunes the fault-tolerance
    envelope.  An explicit ``store`` wins over the environment.  With
    neither, this is a plain store-less :class:`SerialExecutor`.
    """
    if store is None:
        store_dir = os.environ.get("REPRO_STORE")
        store = ResultStore(store_dir) if store_dir else None
    elif isinstance(store, (str, os.PathLike)):
        store = ResultStore(store)
    return SerialExecutor(machine, store=store)
