"""Multi-host shard scheduler: one plan across N serve replicas.

:class:`ShardedExecutor` is how a campaign scales past one process,
on one host's cores or across hosts: the plan's unique cells are
partitioned by **content-addressed cell-key prefix** across N ``python -m repro serve`` endpoints (plus,
optionally, this process's own measurement plane as one more shard),
each shard executes as an ordinary sub-plan on its backend, and the
results merge back -- through the local content-addressed
:class:`~repro.exec.store.ResultStore` when one is attached -- into
plan order.

Why this is sound, and bit-identical to one-shot serial execution:

* **Purity.**  Every measurement is a deterministic pure function of
  the architecture definition, the machine seed and the cell content.
  *Where* a cell runs can never change a byte of its result, so any
  partition of the plan reassembles into exactly the serial bytes.
* **Content-addressed sharding.**  The shard of a cell is a prefix of
  the same key the store files it under (``int(key[:8], 16) % N``) --
  deterministic across runs and hosts, uniformly spread (the key is a
  content hash), and independent of plan order.  Re-running a
  campaign routes every cell to the same replica, so replica-side
  store warmth accumulates per shard.
* **Digest probing.**  Before any cell is routed, every endpoint is
  probed (``POST /probe``) with the content digests the plan depends
  on -- the base architecture's and every cluster core class's.  A
  replica that cannot rebuild them exactly (version skew, customized
  definitions, unregistered classes) is excluded up front with a log
  line, instead of silently serving divergent bytes.
* **Failover.**  A shard whose endpoint dies mid-run (connection
  refused, torn stream, HTTP failure) falls back to the local
  measurement plane: its cells re-measure in-process, bit-identical
  by purity.  Losing a replica costs time, never correctness -- and
  with a store attached, whatever the dead replica already persisted
  locally is not re-measured on the next run.
* **Self-healing.**  Each replica sits behind a circuit breaker:
  consecutive failures (probe or mid-run) open it, an open breaker
  takes no cells, and after a cooldown the next plan half-opens it --
  one fresh health + digest probe re-admits a recovered replica
  mid-campaign (a campaign is many plans through one executor).  The
  transient layer underneath -- :class:`~repro.exec.client.RemoteExecutor`
  resubmitting on transport deaths and 429/503 backpressure with
  capped deterministic backoff -- means the breaker only ever counts
  *exhausted* failures, not blips.  Per-replica fault counters ride
  the :class:`~repro.exec.report.ExecutionReport` and
  :meth:`ShardedExecutor.replica_stats`.

The scheduler subclasses the executor base, so stores, journals, warm
serving, quarantine reports and the ``execute``/``run`` surface all
behave exactly like the local executors; only ``_measure_cells`` --
"measure these cold cells" -- is sharded.  Remote shards execute on
daemon threads (each blocks on its HTTP stream); the local shard, when
enabled, runs on the calling thread and doubles as the failover
target.
"""

from __future__ import annotations

import logging
import threading
import time
from collections.abc import Sequence
from urllib.parse import urlsplit

from repro.errors import ServiceError
from repro.exec.client import RemoteExecutor, ServiceClient
from repro.exec.executors import _ExecutorBase
from repro.exec.plan import ExperimentPlan, PlanCell
from repro.exec.report import ReportBuilder
from repro.exec.store import ResultStore
from repro.measure.measurement import Measurement
from repro.sim.machine import Machine
from repro.sim.topology import ChipTopology

logger = logging.getLogger("repro.exec.shards")

#: Hex digits of the cell key folded into the shard index.  Eight
#: digits (32 bits of content hash) spread uniformly at any realistic
#: replica count.
_SHARD_PREFIX = 8

#: Consecutive exhausted failures (probe or mid-run, each already past
#: the transient-retry layer) that open a replica's circuit breaker.
_BREAKER_THRESHOLD = 3

#: Seconds an open breaker sits out before the next plan half-opens it
#: with a fresh probe.
_BREAKER_COOLDOWN_S = 5.0


def parse_shard_endpoints(spec: str) -> list[str]:
    """Split a ``--shards host1:port,host2:port`` spec into endpoints.

    Entries are normalized (surrounding whitespace and trailing
    slashes stripped) and deduplicated on their resolved (host, port)
    -- ``http://a:1/`` and ``a:1`` are the same replica, and routing
    the same shard twice would silently halve the fabric's width.
    """
    endpoints: list[str] = []
    seen: set[tuple] = set()
    for entry in spec.split(","):
        entry = entry.strip().rstrip("/")
        if not entry:
            continue
        parts = urlsplit(entry if "//" in entry else f"http://{entry}")
        identity = (parts.hostname or "127.0.0.1", parts.port or 80)
        if identity in seen:
            logger.warning(
                "duplicate shard endpoint %s (same host:port already "
                "listed); ignoring it", entry,
            )
            continue
        seen.add(identity)
        endpoints.append(entry)
    return endpoints


class _CircuitBreaker:
    """Consecutive-failure breaker guarding one replica.

    ``closed`` routes normally; ``threshold`` consecutive failures trip
    it ``open`` (the replica takes no cells); once ``cooldown`` seconds
    pass, the next routing decision half-opens it -- exactly one fresh
    probe is allowed, whose outcome either closes the breaker (the
    replica rejoins mid-campaign) or re-opens it for another cooldown.
    All counters are lifetime totals for observability.
    """

    __slots__ = (
        "threshold",
        "cooldown",
        "state",
        "consecutive",
        "failures",
        "successes",
        "opened",
        "opened_at",
    )

    def __init__(
        self,
        threshold: int = _BREAKER_THRESHOLD,
        cooldown: float = _BREAKER_COOLDOWN_S,
    ) -> None:
        self.threshold = max(1, threshold)
        self.cooldown = cooldown
        self.state = "closed"
        self.consecutive = 0
        self.failures = 0
        self.successes = 0
        self.opened = 0
        self.opened_at: float | None = None

    def admits(self) -> bool:
        """Whether the replica may be probed/routed right now.

        An open breaker past its cooldown transitions to half-open and
        admits one probe; before the cooldown it admits nothing.
        """
        if self.state == "open":
            if (
                self.opened_at is not None
                and time.monotonic() - self.opened_at >= self.cooldown
            ):
                self.state = "half-open"
                return True
            return False
        return True

    def record_success(self) -> None:
        rejoined = self.state != "closed"
        self.state = "closed"
        self.consecutive = 0
        self.successes += 1
        self.opened_at = None
        if rejoined:
            logger.info("circuit breaker closed: replica rejoins routing")

    def record_failure(self) -> None:
        self.failures += 1
        self.consecutive += 1
        if self.state == "half-open" or self.consecutive >= self.threshold:
            if self.state != "open":
                self.opened += 1
            self.state = "open"
            self.opened_at = time.monotonic()

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive,
            "failures": self.failures,
            "successes": self.successes,
            "opened": self.opened,
        }


class _RemoteShard:
    """One serve replica: its client, executor adapter and breaker."""

    __slots__ = ("endpoint", "client", "executor", "breaker")

    def __init__(
        self,
        endpoint: str,
        executor: RemoteExecutor,
        breaker: _CircuitBreaker,
    ) -> None:
        self.endpoint = endpoint
        self.client = executor.client
        self.executor = executor
        #: Health state machine: probe/mid-run failures (each already
        #: past the transient-retry layer) open it, a cooldown-gated
        #: half-open probe re-admits a recovered replica.
        self.breaker = breaker


class ShardedExecutor(_ExecutorBase):
    """Plan execution sharded by cell-key prefix across serve replicas.

    ``endpoints`` are ``repro serve`` base URLs; ``local=True`` (the
    default) adds this process's machine as one more shard and as the
    failover target for dead replicas.  With ``local=False`` and at
    least one live endpoint, nothing measures in this process -- but a
    plan whose every endpoint is dead or digest-unsound still
    completes locally (loudly) rather than failing: the scheduler
    prioritizes campaign completion, and purity makes the fallback
    invisible in the bytes.

    The executor surface is the standard one (``execute``/``run``/
    ``last_report``/``close``), with a store attaching exactly like
    the local executors: warm cells serve from disk before any shard
    is contacted, and every remotely measured cell is persisted into
    the local store, which is how N replicas' outputs merge into one
    content-addressed corpus.
    """

    def __init__(
        self,
        machine: Machine,
        endpoints: Sequence[str] | str,
        store: ResultStore | None = None,
        local: bool = True,
        retries: int | None = None,
        request_timeout: float | None = None,
        breaker_threshold: int = _BREAKER_THRESHOLD,
        breaker_cooldown: float = _BREAKER_COOLDOWN_S,
    ) -> None:
        super().__init__(machine, store, retries=retries)
        if isinstance(endpoints, str):
            endpoints = parse_shard_endpoints(endpoints)
        self.local = bool(local)
        arch_name = machine.arch.name
        self._shards = [
            _RemoteShard(
                endpoint,
                RemoteExecutor(
                    ServiceClient(endpoint, timeout=request_timeout),
                    arch=arch_name,
                    seed=machine.seed,
                    vector=machine.vector_enabled,
                ),
                _CircuitBreaker(breaker_threshold, breaker_cooldown),
            )
            for endpoint in endpoints
        ]
        if not self._shards and not self.local:
            raise ValueError(
                "ShardedExecutor needs at least one endpoint or local=True"
            )
        #: Endpoint -> positive digest verdict, memoized per (plan
        #: class-set).  Only *answers* memoize; transport failures feed
        #: the breaker and are always re-probed, which is what lets a
        #: restarted replica rejoin.
        self._probe_memo: dict[tuple, bool] = {}

    # -- probing ---------------------------------------------------------------

    def _plan_digests(self, cells: Sequence[PlanCell]) -> dict:
        """Cluster-class content digests this cell batch depends on."""
        digests: dict = {}
        for cell in cells:
            if not isinstance(cell.config, ChipTopology):
                continue
            for cluster in cell.config.clusters:
                core_class = cluster.core_class
                if self.machine._class_key(core_class) is None:
                    continue  # the base class is probed separately
                if core_class not in digests:
                    digests[core_class] = self.machine.cluster_arch(
                        core_class
                    ).content_digest()
        return digests

    def _probe_shard(self, shard: _RemoteShard, classes: dict) -> bool:
        """Whether one endpoint is reachable and rebuilds every
        definition exactly; feeds the replica's breaker.

        Digest verdicts memoize (content answers are stable), so a
        closed-breaker replica probes at most once per class-set; a
        half-open replica always re-probes over the wire -- that fresh
        round trip *is* the health re-check that rejoins a recovered
        replica mid-campaign.
        """
        memo_key = (shard.endpoint, tuple(sorted(classes)))
        recovering = shard.breaker.state != "closed"
        if not recovering:
            found = self._probe_memo.get(memo_key)
            if found is not None:
                return found
        try:
            verdict = shard.client.probe(
                self.machine.arch.name, self._arch_digest, classes
            )
            sound = bool(verdict.get("ok"))
            if not sound:
                logger.warning(
                    "shard %s cannot rebuild this plan's definitions "
                    "(%s); excluding it from routing",
                    shard.endpoint,
                    verdict,
                )
        except ServiceError as exc:
            logger.warning(
                "shard %s is unreachable (%s); excluding it from routing",
                shard.endpoint,
                exc,
            )
            shard.breaker.record_failure()
            return False
        # The replica answered: transport-wise it is healthy, whatever
        # the digest verdict (a digest-unsound replica is excluded by
        # the memo, not the breaker -- it is up, just wrong for this
        # plan).
        shard.breaker.record_success()
        self._probe_memo[memo_key] = sound
        return sound

    # -- execution -------------------------------------------------------------

    def _measure_cells(
        self,
        cells: Sequence[PlanCell],
        persist,
        builder: ReportBuilder,
        plan: ExperimentPlan | None = None,
    ) -> list[Measurement | None]:
        self._refresh_arch_digest()
        classes = self._plan_digests(cells)
        live = [
            shard
            for shard in self._shards
            if shard.breaker.admits() and self._probe_shard(shard, classes)
        ]
        lanes = len(live) + (1 if self.local else 0)
        if lanes == 0 or (lanes == 1 and not live):
            if self._shards:
                logger.warning(
                    "no usable shard endpoint; measuring all %d cells "
                    "locally",
                    len(cells),
                )
            return self._measure_inprocess(cells, persist, builder, plan=plan)

        # Content-addressed routing: the shard index is a prefix of
        # the same key the store files the cell under.  Remote shards
        # take indices [0, len(live)); the local lane, when enabled,
        # is the last index.
        keys = [self._key(cell) for cell in cells]
        routed: list[list[int]] = [[] for _ in range(lanes)]
        for index, key in enumerate(keys):
            routed[int(key[:_SHARD_PREFIX], 16) % lanes].append(index)
        logger.info(
            "sharding %d cells across %d remote replica(s)%s: %s",
            len(cells),
            len(live),
            " + local" if self.local else "",
            [len(lane) for lane in routed],
        )

        results: list[Measurement | None] = [None] * len(cells)
        failed_lanes: list[list[int]] = []
        lock = threading.Lock()

        def run_remote(shard: _RemoteShard, indices: list[int]) -> None:
            subplan = ExperimentPlan([cells[i] for i in indices])
            retries_before = shard.executor.transport_retries
            try:
                report = shard.executor.execute(subplan)
            except Exception as exc:
                # ServiceError for transport/HTTP deaths (already past
                # RemoteExecutor's transient retries); anything else a
                # sick replica managed to produce routes through the
                # same failover -- a shard must never take the campaign
                # down with it.
                with lock:
                    shard.breaker.record_failure()
                    failed_lanes.append(indices)
                    builder.count(f"shard[{shard.endpoint}].failures")
                logger.warning(
                    "shard %s died mid-run (%s); its %d cells fail over "
                    "to the local plane (breaker: %s)",
                    shard.endpoint,
                    exc,
                    len(indices),
                    shard.breaker.state,
                )
                return
            with lock:
                shard.breaker.record_success()
                for position, index in enumerate(indices):
                    results[index] = report.measurements[position]
                # A remotely quarantined cell failed *measurement*, not
                # transport (the replica already retried and degraded);
                # carry the failure through instead of re-failing it
                # locally.
                builder.failures.extend(report.failures)
                for name, value in report.fault_counters.items():
                    builder.count(name, value)
                retried = shard.executor.transport_retries - retries_before
                if retried:
                    builder.count(
                        f"shard[{shard.endpoint}].retries", retried
                    )

        threads = [
            threading.Thread(
                target=run_remote,
                args=(shard, indices),
                name=f"shard-{shard.endpoint}",
                daemon=True,
            )
            for shard, indices in zip(live, routed)
            if indices
        ]
        for thread in threads:
            thread.start()

        if self.local and routed[-1]:
            local_indices = routed[-1]
            local_cells = [cells[i] for i in local_indices]
            measured = self._measure_inprocess(local_cells, None, builder)
            for position, index in enumerate(local_indices):
                results[index] = measured[position]

        for thread in threads:
            thread.join()

        # Failover: cells of dead shards re-measure in-process --
        # bit-identical by purity, so losing a replica costs time,
        # never correctness.
        for indices in failed_lanes:
            builder.count("shard_failovers")
            builder.count("shard_failover_cells", len(indices))
            rerouted = [cells[i] for i in indices]
            measured = self._measure_inprocess(rerouted, None, builder)
            for position, index in enumerate(indices):
                results[index] = measured[position]

        # Merge: persistence (store append + journal + progress
        # streaming) happens here on the calling thread, in routing
        # order, so the content-addressed store absorbs every shard's
        # output through the ordinary single-writer path.
        if persist is not None:
            landed = [
                index
                for index in range(len(cells))
                if results[index] is not None
            ]
            if landed:
                persist(
                    [cells[index] for index in landed],
                    [results[index] for index in landed],
                )
        return results

    # -- observability ---------------------------------------------------------

    def replica_stats(self) -> list[dict]:
        """Per-replica health: breaker state + lifetime fault counters.

        The campaign CLI logs this after a sharded run; the same
        numbers ride the :class:`~repro.exec.report.ExecutionReport`
        fault counters as ``shard[<endpoint>].*`` keys.
        """
        return [
            {
                "endpoint": shard.endpoint,
                "transport_retries": shard.executor.transport_retries,
                **shard.breaker.to_dict(),
            }
            for shard in self._shards
        ]

    def close(self) -> None:
        """Release backend adapters (remote shards hold no sockets open)."""
        for shard in self._shards:
            shard.executor.close()

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
