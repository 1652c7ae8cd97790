"""The workloads of the end-to-end benchmark and their metrics.

Each workload answers the paper's queries the way a user would run
them, and every timed pass is checked against a store-less serial
in-process reference computed once per run (untimed):

``campaign``
    Query (a), power projection: the section-4 ``ModelingCampaign`` at
    scale 0.05, loop size 256, on a ``SerialExecutor`` with a
    ``ResultStore``.  Many cells per kernel, so store writes lead the
    cold pass and synthesis and store reads split the warm pass.  In a
    traced run each repetition then serves the same query remotely: a
    fresh
    ``python -m repro serve`` and one closed-loop ``RemoteExecutor``
    client sending 100 equal-sized requests (one pre-synthesized kernel
    x the 24-configuration grid, as a DSE loop evaluates one point).
    Synthesis is set-up there, so wire encode/decode, the client, the
    service and its store do the work.
``stressmark``
    Queries (b) and (c), EPI values and worst-case power: the CLI
    default hunt (whole-ISA bootstrap, candidates, SPEC baseline,
    540-sequence search).  Few cells per kernel, so synthesis leads.

A repetition is a cold pass on a fresh store, then a warm pass on that
store, for the bulk query and for the requests alike.  Only the bulk
passes feed the end-to-end metrics, so an untraced run (``--trace 0``)
makes no request passes and spends its whole window on them.

Drift control: one untimed warm-up pass, ``gc.collect()`` before every
timed pass, cold and warm passes alternating, and a fixed pure-Python
loop (``host.ref_ms``) timed before every pass.  A :class:`HostMeter`
samples that loop all through every untraced bulk pass and set-up
spawn; see :func:`end_to_end` for how it corrects the end-to-end times.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from bench_spans import Tracer, instrument, layer_totals

from repro.errors import ReproError
from repro.exec.client import RemoteExecutor, ServiceClient
from repro.exec.executors import SerialExecutor
from repro.exec.plan import ExperimentPlan
from repro.exec.store import ResultStore
from repro.march import bootstrap, get_architecture
from repro.power_model.campaign import ModelingCampaign
from repro.power_model.metrics import paae
from repro.sim import Machine, standard_configurations
from repro.stressmark import heuristics, report, search
from repro.workloads.random_gen import RandomBenchmarkPolicy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ARCH = "POWER7"
#: Section-4 campaign size: 2,751 plan cells per pass.
CAMPAIGN_SCALE = 0.05
CAMPAIGN_LOOP = 256
#: The CLI defaults of ``python -m repro stressmark``.
BOOTSTRAP_LOOP = 256
STRESSMARK_LOOP = 384
DURATION = 10.0
#: Request kernels (random mixes) use the campaign's loop size.
REQUEST_LOOP = 256
#: End-to-end times are reported at the host speed on which
#: :data:`REF_ITERATIONS` turns of :func:`host_reference_loop` take
#: :data:`REF_SECONDS` (see :class:`HostMeter`).
REF_ITERATIONS = 20_000
REF_SECONDS = 0.020
#: A :class:`HostMeter` times this many turns every ``METER_INTERVAL``
#: seconds: about 0.6 ms in 50 ms on the test host, 1.3 % of a pass.
METER_ITERATIONS = 1_000
METER_INTERVAL = 0.05


@dataclass
class Sizes:
    """Run-size knobs; the defaults are the benchmark, tests shrink them."""

    #: Remote requests per request pass: p90 keeps >= 10 samples beyond.
    requests: int = 100
    #: Fresh interpreters timed for ``setup_s`` (odd, for a true median).
    setup_spawns: int = 11
    warmup: bool = True


@dataclass
class PassRecord:
    rep: int
    family: str  # "bulk" or "requests"
    kind: str  # "cold" or "warm"
    traced: bool
    wall: float
    cells: int
    latencies: list = field(default_factory=list)
    #: Per span name, from :func:`bench_spans.layer_totals` (traced).
    layers: dict = field(default_factory=dict)
    #: Store bytes written, service /stats deltas, ...
    counters: dict = field(default_factory=dict)
    #: The checked outputs of a bulk pass (PAAE, max-power ratio, ...).
    outputs: dict = field(default_factory=dict)
    unattributed: float = 0.0
    #: The reference-loop time sampled just before the pass.
    host_ref: float = 0.0
    #: Metered passes (untraced bulk ones): seconds the meter itself
    #: took inside the pass, and the pass at nominal host speed.
    meter_s: float = 0.0
    nominal: float = 0.0


class RecordingExecutor(SerialExecutor):
    """A ``SerialExecutor`` that keeps every report for the output check."""

    def __init__(self, machine, store=None) -> None:
        super().__init__(machine, store=store)
        self.reports = []

    def execute(self, plan, progress=None):
        result = super().execute(plan, progress)
        self.reports.append(result)
        return result


def digest(measurements) -> str:
    """SHA-256 over every measurement's values, in order, bit for bit.

    Thread counter dicts that compare equal within one measurement are
    hashed once plus a per-thread index: a store-loaded measurement has
    one dict per thread where a freshly measured one shares them, and
    rendering every thread's floats would cost a second per campaign.
    """
    hasher = hashlib.sha256()
    for measurement in measurements:
        distinct: list[dict] = []
        index = []
        for counters in measurement.thread_counters:
            for position, seen in enumerate(distinct):
                if seen is counters or seen == counters:
                    index.append(position)
                    break
            else:
                index.append(len(distinct))
                distinct.append(counters)
        # Counter views can be lazy dict subclasses whose storage the
        # C JSON encoder would read directly: render plain copies.
        distinct = [dict(counters) for counters in distinct]
        row = [
            measurement.workload_name,
            measurement.config.to_dict(),
            measurement.duration,
            measurement.mean_power,
            measurement.power_std,
            measurement.sample_count,
            measurement.thread_workloads,
            distinct,
            index,
        ]
        hasher.update(json.dumps(row, sort_keys=True).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def host_reference_loop(iterations: int = REF_ITERATIONS) -> float:
    """Seconds for a fixed pure-Python loop that touches no repro code.

    It builds small dicts, tuples, lists and strings, as the program
    does.  On the test host such a loop followed the program's speed
    changes closely; a loop of plain integer arithmetic followed them
    about half as well.  The garbage collector is held off while it
    runs and its objects are freed before it is let back, so the loop
    neither pays for nor brings forward a collection of the program's
    objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        rows = []
        for value in range(iterations):
            rows.append(
                {"a": value, "b": (value, str(value)), "c": [value] * 3}
            )
        seconds = time.perf_counter() - started
        del rows
    finally:
        if enabled:
            gc.enable()
    return seconds


class HostMeter:
    """Samples the host's speed all through a block.

    The host switches between speeds every few seconds, more often than
    a pass lasts, so one sample taken before a pass misses most of its
    changes.  Inside the block a ``SIGALRM`` interval timer fires every
    :data:`METER_INTERVAL` seconds and its handler times
    :data:`METER_ITERATIONS` turns of :func:`host_reference_loop`; one
    more sample is taken on entry, so even a short block has one.
    Signals only reach the main thread, between bytecodes; a blocking
    call they interrupt is resumed (PEP 475).
    """

    def __init__(self) -> None:
        self.samples = [host_reference_loop(METER_ITERATIONS)]
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(host_reference_loop(METER_ITERATIONS))

    def __enter__(self) -> "HostMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, METER_INTERVAL, METER_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def meter_s(self) -> float:
        """Seconds the handler took inside the block."""
        return sum(self.samples[1:])

    def nominal(self, seconds: float) -> float:
        """``seconds`` measured around the block, at nominal host speed.

        The meter's own time comes out first.  Samples are evenly spaced
        in time and work advances at ``1 / slowdown`` of its nominal
        rate, so the rest is scaled by the mean of ``1 / slowdown``.
        """
        nominal = REF_SECONDS * METER_ITERATIONS / REF_ITERATIONS
        speed = statistics.fmean(nominal / sample for sample in self.samples)
        return (seconds - self.meter_s) * speed


def tree_bytes(path: Path) -> int:
    return sum(
        entry.stat().st_size for entry in path.rglob("*") if entry.is_file()
    )


def src_env() -> dict:
    """Child environment: this checkout's ``src`` first, no REPRO_ knobs."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_setup_probe() -> tuple[float, dict]:
    """Launch-to-ready seconds of a fresh interpreter, and its own split."""
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py")],
        cwd=ROOT,
        env=src_env(),
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - started
        child.stdout.read()
        code = child.wait(timeout=60)
    if code != 0 or not line:
        raise RuntimeError(f"setup probe exited with code {code}")
    return ready, json.loads(line)


class Server:
    """A ``python -m repro serve`` child on an ephemeral port."""

    def __init__(self, store_dir: Path, log) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--store", str(store_dir),
            ],
            cwd=ROOT,
            env=src_env(),
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
        try:
            banner = self.process.stdout.readline()
            match = re.search(r"http://[\d.]+:\d+", banner)
            if match is None:
                raise RuntimeError(f"server did not start: {banner!r}")
            self.url = match.group(0)
            self.client = ServiceClient(self.url, retries=0)
            deadline = started + 60
            while True:
                try:
                    self.client.health()
                    break
                except ReproError:
                    if time.perf_counter() > deadline:
                        raise
                    time.sleep(0.005)
            #: Launch until ``/health`` answers.
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kib = re.search(r"VmHWM:\s+(\d+) kB", status).group(1)
        return int(kib) / 1024

    def stop(self) -> None:
        """SIGTERM (the server drains and exits 0); kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Workload:
    """One query run as store-backed bulk passes, timed and checked.

    Subclasses give the query (:meth:`bulk`) and its checked outputs
    (:meth:`outputs`).
    """

    name = ""

    def __init__(self, seed: int, workdir: Path, sizes: Sizes) -> None:
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes
        self.passes: list[PassRecord] = []
        self.rep = 0
        self.attempted = 0
        self.failed = 0
        self.traced = False
        self.host_ref: list[float] = []
        #: Per set-up spawn: launch-to-ready seconds, raw, and scaled
        #: to nominal host speed (see :meth:`prepare`).
        self.setup_raw: list[float] = []
        self.setup_samples: list[float] = []
        self.probe_splits: list[dict] = []
        self.store_bytes_per_cell: list[float] = []
        #: Per remote server (campaign only): launch until ``/health``
        #: answers, seconds, and its peak RSS, MB.
        self.server_ready: list[float] = []
        self.server_rss_mb: list[float] = []
        self.reference: dict = {}
        self.tracer = Tracer()
        self._dirs = 0

    # -- helpers ---------------------------------------------------------------

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.workdir / f"store-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a mismatch with the reference fails it."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"output check failed: {what}", file=sys.stderr)

    def fail(self, what: str) -> None:
        """Count one operation that raised; log its traceback."""
        self.attempted += 1
        self.failed += 1
        print(f"operation failed: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def sample_host(self) -> None:
        """Time the reference loop (median of three) into ``host_ref``."""
        self.host_ref.append(
            statistics.median(host_reference_loop() for _ in range(3))
        )

    def timed_pass(self, family, kind, tracer, body) -> PassRecord:
        """Time ``body() -> (cells, latencies)`` as one pass.

        Untraced bulk passes, the ones the end-to-end metrics use, run
        under a :class:`HostMeter`.
        """
        gc.collect()
        self.sample_host()
        mark = len(tracer.spans) if tracer is not None else 0
        meter = None
        if tracer is not None:
            started = time.perf_counter()
            with tracer.span("pass"):
                cells, latencies = body()
        elif family == "bulk":
            meter = HostMeter()
            started = time.perf_counter()
            with meter:
                cells, latencies = body()
        else:
            started = time.perf_counter()
            cells, latencies = body()
        wall = time.perf_counter() - started
        record = PassRecord(
            self.rep, family, kind, tracer is not None, wall, cells, latencies
        )
        record.host_ref = self.host_ref[-1]
        if meter is not None:
            record.meter_s = meter.meter_s
            record.nominal = meter.nominal(wall)
        if tracer is not None:
            record.layers = layer_totals(tracer.spans[mark:], mark)
            record.unattributed = record.layers["pass"]["self"] / wall
        self.passes.append(record)
        return record

    # -- bulk passes -------------------------------------------------------------

    def bulk(self, arch, machine, executor):
        """Run the workload's query; return its result object."""
        raise NotImplementedError

    def outputs(self, result, executor) -> dict:
        """The checked outputs of one bulk pass (digest included)."""
        raise NotImplementedError

    def fresh_executor(self, store):
        """A fresh architecture and machine, so every pass starts alike
        (the bootstrap writes measured EPI back into its architecture)."""
        arch = get_architecture(ARCH)
        machine = Machine(arch)
        return arch, machine, RecordingExecutor(machine, store)

    def bulk_pass(self, store_dir: Path, kind: str, tracer) -> None:
        """One timed bulk pass on ``store_dir``, checked."""
        store = ResultStore(store_dir)
        arch, machine, executor = self.fresh_executor(store)
        results = []

        def body():
            results.append(self.bulk(arch, machine, executor))
            return sum(len(r.measurements) for r in executor.reports), []

        try:
            before = tree_bytes(store_dir)
            record = self.timed_pass("bulk", kind, tracer, body)
            record.counters["bytes_written"] = tree_bytes(store_dir) - before
            if kind == "cold":
                self.store_bytes_per_cell.append(
                    tree_bytes(store_dir) / len(store)
                )
            record.outputs = self.outputs(results[0], executor)
        except Exception:
            # Boundary: a pass that raises is a failed operation.
            self.fail(f"{self.name} {kind} pass")
            return
        finally:
            store.close()
        self.check(
            record.outputs == self.reference["bulk"],
            f"{self.name} {kind} pass differs from the serial reference: "
            f"{record.outputs} != {self.reference['bulk']}",
        )

    # -- the run -----------------------------------------------------------------

    def prepare(self, traced: bool) -> None:
        """Set-up spawns, the reference, and the warm-up pass.

        Each spawn runs under a :class:`HostMeter` and is reported at
        nominal host speed.  The child runs on this process's CPU, so
        the meter's own time, which it takes out, is time the child
        waited.
        """
        for _ in range(self.sizes.setup_spawns):
            with HostMeter() as meter:
                ready, split = spawn_setup_probe()
            self.setup_raw.append(ready)
            self.setup_samples.append(meter.nominal(ready))
            self.probe_splits.append(split)
        arch, machine, executor = self.fresh_executor(None)
        self.reference["bulk"] = self.outputs(
            self.bulk(arch, machine, executor), executor
        )
        if self.sizes.warmup:
            store_dir = self.fresh_dir()
            self.bulk_pass(store_dir, "cold", None)
            shutil.rmtree(store_dir)

    def repetition(self, tracer: Tracer | None) -> None:
        store_dir = self.fresh_dir()
        self.bulk_pass(store_dir, "cold", tracer)
        self.bulk_pass(store_dir, "warm", tracer)
        shutil.rmtree(store_dir)

    def close(self) -> None:
        """Release what :meth:`prepare` opened."""

    def run(self, seconds: float, traced: bool) -> None:
        """Prepare, then time repetitions for about ``seconds``.

        Another repetition starts only while at least half of the last
        one's duration is left, so a run overshoots by at most half a
        repetition.  A traced run makes at least two repetitions.
        """
        self.traced = traced
        self.prepare(traced)
        # Warm-up passes are checked, and sample the host, but their
        # times are not reported.
        self.passes.clear()
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            # A traced run alternates untraced and traced repetitions,
            # so the tracing overhead is measured under the same drift.
            tracer = self.tracer if traced and self.rep % 2 else None
            if tracer is None:
                self.repetition(None)
            else:
                with instrument(tracer):
                    self.repetition(tracer)
            self.rep += 1
            now = time.perf_counter()
            if deadline - now < (now - started) / 2 and (
                not traced or self.rep >= 2
            ):
                break


def _service_deltas(before: dict, after: dict) -> dict:
    def intern(stats, key):
        tables = stats.get("intern") or {}
        return sum(
            tables.get(table, {}).get(key, 0)
            for table in ("workloads", "configs")
        )

    service = {
        key: after["service"][key] - before["service"][key]
        for key in (
            "cells_requested", "warm_cells", "measured_cells",
            "rejected_requests",
        )
    }
    service["intern_hits"] = intern(after, "hits") - intern(before, "hits")
    service["intern_misses"] = (
        intern(after, "misses") - intern(before, "misses")
    )
    return service


class CampaignWorkload(Workload):
    name = "campaign"
    log = None

    def bulk(self, arch, machine, executor):
        return ModelingCampaign(
            machine,
            scale=CAMPAIGN_SCALE,
            loop_size=CAMPAIGN_LOOP,
            duration=DURATION,
            seed=self.seed,
            executor=executor,
        ).run()

    def outputs(self, result, executor) -> dict:
        validation = [
            measurement
            for measurements in result.spec_by_config.values()
            for measurement in measurements
        ]
        models = {"BU": result.bottom_up, **result.top_down}
        measured = [
            measurement
            for plan_report in executor.reports
            for measurement in plan_report.measurements
        ]
        return {
            "digest": digest(measured + [result.idle]),
            "paae": {
                name: paae(model.predict, validation)
                for name, model in models.items()
            },
        }

    # -- remote requests ---------------------------------------------------------

    def prepare(self, traced: bool) -> None:
        super().prepare(traced)
        if traced:
            self.prepare_requests(get_architecture(ARCH))
            self.log = open(self.workdir / "server.log", "a")

    def repetition(self, tracer) -> None:
        """The bulk passes; in a traced run, then the request passes.

        Only a traced run reports the request passes' figures, so an
        untraced run spends its window on the bulk passes alone.
        """
        super().repetition(tracer)
        if self.traced:
            self.serve(tracer)

    def close(self) -> None:
        if self.log is not None:
            self.log.close()

    def prepare_requests(self, arch) -> None:
        """Synthesize the request kernels and their reference digests.

        The kernels are seeded random mixes; the reference measures all
        requests as one store-less plan, which is configuration-major,
        so request ``k`` is every ``len(kernels)``-th measurement from
        ``k``.
        """
        policy = RandomBenchmarkPolicy(
            arch, loop_size=REQUEST_LOOP, seed=self.seed
        )
        self.kernels = policy.build(self.sizes.requests)
        self.configs = list(
            standard_configurations(arch.chip.max_cores, arch.chip.smt_modes())
        )
        measured = SerialExecutor(Machine(arch)).run(
            ExperimentPlan.cross(self.kernels, self.configs)
        )
        step = len(self.kernels)
        self.reference["requests"] = [
            digest(measured[index::step]) for index in range(step)
        ]

    def request_pass(self, executor, kind, tracer) -> PassRecord:
        """The closed loop: one request per kernel, each timed and checked."""
        outcomes = []

        def body():
            latencies, cells = [], 0
            for kernel in self.kernels:
                started = time.perf_counter()
                try:
                    plan = ExperimentPlan.cross([kernel], self.configs)
                    measurements = executor.execute(plan).require_complete()
                except Exception:
                    # Boundary: a failed request is counted, not fatal.
                    self.fail(f"{self.name} {kind} request")
                    outcomes.append(None)
                    continue
                latencies.append(time.perf_counter() - started)
                cells += len(measurements)
                outcomes.append(measurements)
            return cells, latencies

        record = self.timed_pass("requests", kind, tracer, body)
        expected = self.reference["requests"]
        for index, measurements in enumerate(outcomes):
            if measurements is not None:
                self.check(
                    digest(measurements) == expected[index],
                    f"{self.name} {kind} request {index} differs from "
                    "the serial reference",
                )
        return record

    def serve(self, tracer) -> None:
        """A fresh server; a cold and a warm request pass against it."""
        store_dir = self.fresh_dir()
        try:
            server = Server(store_dir, self.log)
        except Exception:
            # Boundary: a server that does not start is a failed operation.
            self.fail("server start")
            return
        try:
            self.server_ready.append(server.setup_s)
            executor = RemoteExecutor(server.client)
            for kind in ("cold", "warm"):
                before = server.client.stats()
                bytes_before = tree_bytes(store_dir)
                record = self.request_pass(executor, kind, tracer)
                record.counters = _service_deltas(
                    before, server.client.stats()
                )
                record.counters["retries"] = executor.transport_retries
                record.counters["bytes_written"] = (
                    tree_bytes(store_dir) - bytes_before
                )
                executor.transport_retries = 0
            self.server_rss_mb.append(server.peak_rss_mb())
        finally:
            server.stop()
            shutil.rmtree(store_dir, ignore_errors=True)


class StressmarkWorkload(Workload):
    name = "stressmark"

    def bulk(self, arch, machine, executor):
        records = bootstrap.Bootstrapper(
            arch, machine, loop_size=BOOTSTRAP_LOOP, executor=executor
        ).run()
        candidates = heuristics.select_candidates(arch, records)
        baseline = search.spec_power_baseline(
            machine, duration=DURATION, executor=executor
        )
        sequences = search.covering_sequences(tuple(candidates.values()))
        results = search.stressmark_search(
            machine,
            sequences,
            loop_size=STRESSMARK_LOOP,
            duration=DURATION,
            executor=executor,
        )
        return records, candidates, baseline, sequences, results

    def outputs(self, result, executor) -> dict:
        records, candidates, baseline, sequences, results = result
        measured = [
            measurement
            for plan_report in executor.reports
            for measurement in plan_report.measurements
        ]
        return {
            "digest": digest(measured),
            "candidates": candidates,
            "baseline_w": baseline,
            "best": list(report.best_sequence(results)),
            "max_power_ratio": report.summarize_set(
                "MicroProbe", results, baseline
            ).maximum,
            "records": len(records),
            "sequences": len(sequences),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (CampaignWorkload, StressmarkWorkload)
}


# -- metrics ---------------------------------------------------------------------


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def host_slowdown(workload: Workload) -> float:
    """Wall time over nominal time, summed over the metered passes."""
    metered = [p for p in workload.passes if p.nominal]
    return sum(p.wall - p.meter_s for p in metered) / sum(
        p.nominal for p in metered
    )


def end_to_end(workload: Workload) -> dict:
    """Every end-to-end metric, from the untraced bulk passes only.

    Times are at nominal host speed, as a :class:`HostMeter` measured
    it all through each pass and each set-up spawn.  The shared host
    switches between speeds up to 2x apart every few seconds; rescaled,
    the bulk throughput of runs minutes apart spreads a fraction as
    much.  The raw figures stay in the run record.
    """
    passes = [p for p in workload.passes if not p.traced]

    def rate(kind):
        chosen = [p for p in passes if p.family == "bulk" and p.kind == kind]
        cells = sum(p.cells for p in chosen)
        return cells / sum(p.nominal for p in chosen)

    return {
        "setup_s": (statistics.median(workload.setup_samples), "s"),
        "cold_cells_per_s": (rate("cold"), "cells/s"),
        "warm_cells_per_s": (rate("warm"), "cells/s"),
        "store_bytes_per_cell": (
            statistics.median(workload.store_bytes_per_cell), "B/cell"
        ),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def request_latencies(workload: Workload) -> dict:
    """Remote request p50/p90 per kind, ms, from untraced passes (raw)."""
    metrics = {}
    for kind in ("cold", "warm"):
        samples = [
            latency
            for p in workload.passes
            if not p.traced and p.family == "requests" and p.kind == kind
            for latency in p.latencies
        ]
        p50 = p90 = 0.0
        if len(samples) >= 2:
            p50 = _ms(statistics.median(samples))
            p90 = _ms(statistics.quantiles(samples, n=10)[8])
        metrics[f"{kind}_request_p50_ms"] = (p50, "ms")
        metrics[f"{kind}_request_p90_ms"] = (p90, "ms")
    return metrics


def _merge(records: list[PassRecord]) -> tuple[dict, dict]:
    layers: dict = {}
    counters: dict = {}
    for record in records:
        for name, entry in record.layers.items():
            merged = layers.setdefault(
                name, {"total": 0.0, "self": 0.0, "calls": 0, "counts": {}}
            )
            for key in ("total", "self", "calls"):
                merged[key] += entry[key]
            for key, value in entry["counts"].items():
                merged["counts"][key] = merged["counts"].get(key, 0) + value
        for key, value in record.counters.items():
            counters[key] = counters.get(key, 0) + value
    return layers, counters


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _repetition_layers(records: list[PassRecord], first_lines) -> dict:
    """Per-layer metrics of one traced repetition (its passes summed).

    ``Measurement.from_dict`` also decodes every warm store read, so the
    wire decode figure comes from the request passes alone: there it is
    only the client decoding streamed lines (the server is another
    process).
    """
    layers, counters = _merge(records)
    wire, _ = _merge([r for r in records if r.family == "requests"])

    def total(name):
        return layers.get(name, {}).get("total", 0.0)

    def own(name):
        return layers.get(name, {}).get("self", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def count(name, key):
        return layers.get(name, {}).get("counts", {}).get(key, 0)

    outputs = next((r.outputs for r in records if r.outputs), {})
    paaes = outputs.get("paae", {})
    synthesized = calls("core.synthesize")
    gets = count("exec.store.get", "gets")
    measured = count("sim.run", "cells")
    requested = counters.get("cells_requested", 0)
    interned = counters.get("intern_hits", 0) + counters.get(
        "intern_misses", 0
    )
    return {
        "core.synthesize_s": (total("core.synthesize"), "s"),
        "core.kernels": (synthesized, "count"),
        "core.ms_per_kernel": (
            _ms(_ratio(total("core.synthesize"), synthesized)), "ms"
        ),
        "power_model.suite_gen_self_s": (own("power_model.suite_gen"), "s"),
        "power_model.fit_s": (total("power_model.fit"), "s"),
        "power_model.campaign_self_s": (own("power_model.campaign"), "s"),
        "power_model.bu_paae_pct": (paaes.get("BU", 0.0), "%"),
        "march.bootstrap_self_s": (own("march.bootstrap"), "s"),
        "march.bootstrap_records": (outputs.get("records", 0), "count"),
        "stressmark.baseline_s": (total("stressmark.baseline"), "s"),
        "stressmark.search_self_s": (own("stressmark.search"), "s"),
        "stressmark.sequences": (outputs.get("sequences", 0), "count"),
        "stressmark.max_power_ratio": (
            outputs.get("max_power_ratio", 0.0), "ratio"
        ),
        "exec.plan.cross_s": (total("exec.plan.cross"), "s"),
        "exec.plan.cells": (count("exec.plan.cross", "cells"), "count"),
        "exec.plan.unique_cells": (
            count("exec.plan.cross", "unique_cells"), "count"
        ),
        "exec.execute_self_s": (own("exec.execute"), "s"),
        "exec.execute_calls": (calls("exec.execute"), "count"),
        "exec.store.get_s": (total("exec.store.get"), "s"),
        "exec.store.gets": (gets, "count"),
        "exec.store.hit_ratio": (
            _ratio(count("exec.store.get", "hits"), gets), "ratio"
        ),
        "exec.store.put_s": (total("exec.store.put"), "s"),
        "exec.store.cells_put": (count("exec.store.put", "cells_put"), "count"),
        "exec.store.bytes_written": (counters.get("bytes_written", 0), "B"),
        "sim.run_s": (total("sim.run"), "s"),
        "sim.cells_measured": (measured, "count"),
        "sim.cells_per_s": (_ratio(measured, total("sim.run")), "cells/s"),
        "exec.serialize.encode_us_per_cell": (
            1e6 * _ratio(
                total("exec.serialize.encode"),
                count("exec.serialize.encode", "cells"),
            ),
            "us",
        ),
        "measure.decode_us_per_cell": (
            1e6 * _ratio(
                wire.get("measure.decode", {}).get("total", 0.0),
                wire.get("measure.decode", {}).get("calls", 0),
            ),
            "us",
        ),
        "exec.client.execute_s": (total("exec.client.execute"), "s"),
        "exec.client.first_line_ms": (
            _ms(statistics.median(first_lines)) if first_lines else 0.0, "ms"
        ),
        "exec.client.retries": (counters.get("retries", 0), "count"),
        "service.cells_measured": (counters.get("measured_cells", 0), "count"),
        "service.store_hit_ratio": (
            _ratio(counters.get("warm_cells", 0), requested), "ratio"
        ),
        "service.intern_hit_ratio": (
            _ratio(counters.get("intern_hits", 0), interned), "ratio"
        ),
        "service.rejected": (counters.get("rejected_requests", 0), "count"),
    }


def per_layer(workload: Workload) -> dict:
    """Every per-layer metric: per traced repetition, averaged."""
    traced = [p for p in workload.passes if p.traced]
    reps = sorted({p.rep for p in traced})
    rows = [
        _repetition_layers(
            [p for p in traced if p.rep == rep], workload.tracer.first_lines
        )
        for rep in reps
    ]
    metrics = {
        name: (statistics.fmean(row[name][0] for row in rows), unit)
        for name, (_, unit) in rows[0].items()
    }
    splits = workload.probe_splits
    metrics["import.s"] = (
        statistics.median(s["import_s"] for s in splits), "s"
    )
    metrics["march.load_s"] = (
        statistics.median(s["arch_s"] for s in splits), "s"
    )
    metrics["sim.machine_build_s"] = (
        statistics.median(s["machine_s"] for s in splits), "s"
    )
    untraced_wall = [
        p.wall - p.meter_s for p in workload.passes if not p.traced
    ]
    traced_wall = [p.wall for p in traced]
    untraced_reps = len({p.rep for p in workload.passes if not p.traced})
    metrics["trace.overhead_pct"] = (
        100.0 * (
            (sum(traced_wall) / len(reps))
            / (sum(untraced_wall) / untraced_reps) - 1.0
        ),
        "%",
    )
    metrics["trace.unattributed_pct"] = (
        100.0 * max(p.unattributed for p in traced), "%"
    )
    metrics["host.ref_ms"] = (
        _ms(statistics.median(workload.host_ref)), "ms"
    )
    metrics.update(request_latencies(workload))
    ready, rss = workload.server_ready, workload.server_rss_mb
    metrics["service.ready_s"] = (
        statistics.median(ready) if ready else 0.0, "s"
    )
    metrics["service.peak_rss_mb"] = (
        statistics.median(rss) if rss else 0.0, "MB"
    )
    return metrics


def pass_summary(workload: Workload) -> list[dict]:
    """Per pass: wall, cells, latency quartiles and layer self shares."""
    rows = []
    for record in workload.passes:
        row = {
            "rep": record.rep,
            "family": record.family,
            "kind": record.kind,
            "traced": record.traced,
            "wall_s": record.wall,
            "host_ref_ms": _ms(record.host_ref),
            "meter_s": record.meter_s,
            "nominal_s": record.nominal,
            "cells": record.cells,
            "counters": record.counters,
        }
        if record.latencies:
            row["latencies_ms"] = [_ms(value) for value in record.latencies]
        if record.traced:
            row["unattributed_pct"] = 100.0 * record.unattributed
            row["self_share_pct"] = {
                name: 100.0 * entry["self"] / record.wall
                for name, entry in sorted(
                    record.layers.items(), key=lambda item: -item[1]["self"]
                )
            }
            row["sim_cells_measured"] = (
                record.layers.get("sim.run", {}).get("counts", {}).get("cells", 0)
            )
        rows.append(row)
    return rows
