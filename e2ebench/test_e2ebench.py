"""Smoke-size tests of the end-to-end benchmark.

Run from the root of a checkout::

    python3 -m pytest -q e2ebench

Each workload runs once at a smoke size (a dozen remote requests, one
set-up spawn, no warm-up) with ``trace=1``, which times one untraced
and one traced repetition, so both metric sets come out of a single
run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench_passes  # noqa: E402
import bench_spans  # noqa: E402
import run  # noqa: E402

SMOKE = bench_passes.Sizes(requests=12, setup_spawns=1, warmup=False)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _workload(cls, name):
    return cls(0, ROOT / ".e2ebench" / f"test-{name}", SMOKE)


@pytest.fixture(scope="module")
def traced_runs():
    runs = {}
    for name, cls in bench_passes.WORKLOADS.items():
        workload = _workload(cls, name)
        result, _ = run.execute(workload, seconds=0, trace=1)
        runs[name] = (workload, result)
    return runs


@pytest.mark.parametrize("name", sorted(bench_passes.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(traced_runs, name):
    workload, result = traced_runs[name]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    per_layer = {
        metric: entry["unit"] for metric, entry in result["metrics"].items()
    }
    assert per_layer == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    end_to_end = {
        metric: unit
        for metric, (value, unit) in bench_passes.end_to_end(workload).items()
    }
    assert end_to_end == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for value, _ in bench_passes.end_to_end(workload).values():
        assert value > 0


@pytest.mark.parametrize("name", sorted(bench_passes.WORKLOADS))
def test_warm_passes_measure_nothing(traced_runs, name):
    workload, _ = traced_runs[name]
    traced = [p for p in bench_passes.pass_summary(workload) if p["traced"]]
    kinds = {(p["family"], p["kind"]) for p in traced}
    assert {("bulk", "cold"), ("bulk", "warm")} <= kinds
    for row in traced:
        if row["family"] == "bulk" and row["kind"] == "warm":
            assert row["sim_cells_measured"] == 0
        elif row["family"] == "bulk":
            assert row["sim_cells_measured"] > 0


def test_remote_request_passes_do_not_synthesize(traced_runs):
    workload, result = traced_runs["campaign"]
    requests = [
        p for p in workload.passes if p.traced and p.family == "requests"
    ]
    assert {p.kind for p in requests} == {"cold", "warm"}
    for record in requests:
        assert "core.synthesize" not in record.layers
        assert "exec.client.execute" in record.layers
    assert result["metrics"]["service.cells_measured"]["value"] > 0
    assert result["metrics"]["warm_request_p50_ms"]["value"] > 0
    assert result["metrics"]["measure.decode_us_per_cell"]["value"] > 0


def test_wire_decode_excludes_store_reads(traced_runs):
    # stressmark has no request passes: its warm store reads decode
    # measurements too, but they are not wire decoding.
    workload, result = traced_runs["stressmark"]
    assert any(
        "measure.decode" in p.layers for p in workload.passes if p.traced
    )
    assert result["metrics"]["measure.decode_us_per_cell"]["value"] == 0


class _CorruptedCampaign(bench_passes.CampaignWorkload):
    def prepare(self, traced):
        super().prepare(traced)
        self.reference["bulk"] = {**self.reference["bulk"], "digest": "0" * 64}
        self.reference["requests"][0] = "0" * 64


def test_corrupted_reference_counts_failed_operations(traced_runs):
    workload = _workload(_CorruptedCampaign, "campaign-corrupt")
    result, record = run.execute(workload, seconds=0, trace=1)
    # Two repetitions, one untraced and one traced.  Each fails its cold
    # and its warm bulk pass, and request 0 of the cold and of the warm
    # request pass.
    assert result["failed"] == 8
    assert not result["correct"]
    assert record["failed_share"] == 8 / result["attempted"]
    # The same operations pass against the true reference.
    _, clean = traced_runs["campaign"]
    assert result["attempted"] == clean["attempted"]


def test_untraced_run_makes_no_request_passes():
    workload = _workload(bench_passes.CampaignWorkload, "campaign-untraced")
    result, _ = run.execute(workload, seconds=0, trace=0)
    assert result["correct"] and result["attempted"] == 2
    assert {(p.family, p.kind) for p in workload.passes} == {
        ("bulk", "cold"), ("bulk", "warm"),
    }
    assert workload.server_ready == [] and "requests" not in workload.reference


def test_instrument_restores_every_entry_point():
    from repro.exec.executors import SerialExecutor
    from repro.measure.measurement import Measurement
    import repro.exec.client as client

    before = {
        (owner, attribute): bench_spans.inspect.getattr_static(owner, attribute)
        for owner, attribute, _, _ in bench_spans._entry_points()
    }
    with bench_spans.instrument(bench_spans.Tracer()):
        assert "execute" in SerialExecutor.__dict__
    assert "execute" not in SerialExecutor.__dict__
    assert isinstance(Measurement.__dict__["from_dict"], classmethod)
    assert client.json is json
    for (owner, attribute), original in before.items():
        assert bench_spans.inspect.getattr_static(owner, attribute) is original


def test_layer_totals_subtract_children():
    tracer = bench_spans.Tracer()
    with tracer.span("pass"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
    totals = bench_spans.layer_totals(tracer.spans, 0)
    spans = {span.name: span.end - span.start for span in tracer.spans}
    assert totals["a"]["self"] == pytest.approx(spans["a"] - spans["b"])
    assert totals["pass"]["self"] == pytest.approx(spans["pass"] - spans["a"])
    assert totals["b"]["total"] == pytest.approx(spans["b"])


def test_host_meter_samples_through_a_block_and_restores_sigalrm():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with bench_passes.HostMeter() as meter:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.3:
            pass
    wall = time.perf_counter() - started
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # One sample on entry, then one every METER_INTERVAL seconds.
    assert len(meter.samples) >= 4
    assert 0 < meter.meter_s < wall
    assert meter.nominal(wall) > 0
