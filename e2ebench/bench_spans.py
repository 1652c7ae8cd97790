"""Span recording for the traced run of the end-to-end benchmark.

The benchmark never edits the program it measures.  For a traced run
it installs wrappers on the public entry points of each layer
(:func:`instrument`), records one span per call -- name, start, end,
parent -- in memory, and removes the wrappers again when the run ends.
Untraced runs install nothing, so their timings carry no tracing cost.

A span's *self time* is its duration minus the durations of its direct
children; :func:`layer_totals` folds a pass's spans into per-name
inclusive times, self times, call counts and the counters the wrappers
attach (cells measured, store hits, bytes, ...).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: Seconds from each ``ServiceClient.submit`` to its first line.
        self.first_lines: list[float] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent=parent)
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        """Write every span as one JSON document (name/start/end/parent)."""
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(rows, handle)


def layer_totals(spans: list[Span], offset: int) -> dict[str, dict]:
    """Per span name: ``total`` and ``self`` seconds, ``calls``, counts.

    ``offset`` is the tracer index of ``spans[0]``, so parent indices
    (absolute in the tracer) map back into the slice.  ``total`` sums
    only the outermost span of each name, so a name that nests in
    itself is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None and span.parent >= offset:
            child_time[span.parent - offset] += span.end - span.start
    totals: dict[str, dict] = {}
    for position, span in enumerate(spans):
        entry = totals.setdefault(
            span.name, {"total": 0.0, "self": 0.0, "calls": 0, "counts": {}}
        )
        duration = span.end - span.start
        entry["self"] += duration - child_time[position]
        entry["calls"] += 1
        if not _nested_in_same(spans, span, offset):
            entry["total"] += duration
        for key, value in span.counts.items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return totals


def _nested_in_same(spans: list[Span], span: Span, offset: int) -> bool:
    parent = span.parent
    while parent is not None and parent >= offset:
        ancestor = spans[parent - offset]
        if ancestor.name == span.name:
            return True
        parent = ancestor.parent
    return False


def _entry_points():
    """(owner, attribute, span name, count hook) per wrapped entry point.

    Functions that a module imported by name are wrapped where they are
    looked up (``repro.power_model.campaign.generate_micro_suite``), not
    only where they are defined.
    """
    import repro.exec.client as client
    import repro.march.bootstrap as bootstrap
    import repro.power_model.campaign as campaign
    import repro.stressmark.search as search
    from repro.core.synthesizer import Synthesizer
    from repro.exec.executors import SerialExecutor
    from repro.exec.plan import ExperimentPlan
    from repro.exec.store import ResultStore
    from repro.measure.measurement import Measurement
    from repro.power_model.bottom_up import BottomUpTrainer
    from repro.power_model.top_down import TopDownTrainer
    from repro.sim.machine import Machine

    def cells_of_plan(span, args, kwargs, result):
        span.counts["cells"] = result.requested
        span.counts["unique_cells"] = result.size

    def store_get(span, args, kwargs, result):
        span.counts["gets"] = 1
        span.counts["hits"] = 0 if result is None else 1

    def store_put(span, args, kwargs, result):
        entries = args[1] if len(args) > 1 else kwargs["entries"]
        span.counts["cells_put"] = len(entries)

    def run_many(span, args, kwargs, result):
        span.counts["cells"] = len(result)

    def plan_encode(span, args, kwargs, result):
        span.counts["cells"] = len(result["cells"])

    return [
        (Synthesizer, "synthesize", "core.synthesize", None),
        (campaign, "generate_micro_suite", "power_model.suite_gen", None),
        (campaign, "generate_random_suite", "power_model.suite_gen", None),
        (BottomUpTrainer, "train", "power_model.fit", None),
        (TopDownTrainer, "train", "power_model.fit", None),
        (campaign.ModelingCampaign, "run", "power_model.campaign", None),
        (bootstrap.Bootstrapper, "run", "march.bootstrap", None),
        (search, "spec_power_baseline", "stressmark.baseline", None),
        (search, "stressmark_search", "stressmark.search", None),
        (ExperimentPlan, "cross", "exec.plan.cross", cells_of_plan),
        (SerialExecutor, "execute", "exec.execute", None),
        (ResultStore, "get", "exec.store.get", store_get),
        (ResultStore, "put_many", "exec.store.put", store_put),
        (Machine, "run_many", "sim.run", run_many),
        (Machine, "run_cells", "sim.run", run_many),
        (client, "plan_to_dict_v2", "exec.serialize.encode", plan_encode),
        (Measurement, "from_dict", "measure.decode", None),
        (client.RemoteExecutor, "execute", "exec.client.execute", None),
    ]


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

    return wrapper


class _TimedJson:
    """Stand-in for the ``json`` module the service client encodes with.

    ``plan_to_dict_v2`` builds the request document and ``json.dumps``
    renders it; timing both is what the wire encode costs per cell.
    """

    def __init__(self, tracer: Tracer, module) -> None:
        self._tracer = tracer
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)

    def dumps(self, *args, **kwargs):
        with self._tracer.span("exec.serialize.encode"):
            return self._module.dumps(*args, **kwargs)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer entry point for the duration of the block.

    Also times ``ServiceClient.submit`` to its first streamed line;
    those latencies collect in ``tracer.first_lines`` (seconds).
    """
    import repro.exec.client as client

    saved = []

    def replace(owner, attribute, replacement):
        # Inherited methods are shadowed on ``owner`` and the shadow is
        # deleted afterwards, so the class dict ends exactly as found.
        shadowed = (
            isinstance(owner, type) and attribute not in owner.__dict__
        )
        original = inspect.getattr_static(owner, attribute)
        saved.append((owner, attribute, original, shadowed))
        setattr(owner, attribute, replacement)

    for owner, attribute, name, hook in _entry_points():
        original = inspect.getattr_static(owner, attribute)
        if isinstance(original, classmethod):
            replace(
                owner,
                attribute,
                classmethod(_wrap(tracer, name, original.__func__, hook)),
            )
        else:
            replace(owner, attribute, _wrap(tracer, name, original, hook))
    replace(client, "json", _TimedJson(tracer, client.json))
    submit = client.ServiceClient.submit

    def timed_submit(self, *args, **kwargs):
        started = time.perf_counter()
        lines = submit(self, *args, **kwargs)
        for count, line in enumerate(lines):
            if count == 0:
                tracer.first_lines.append(time.perf_counter() - started)
            yield line

    replace(client.ServiceClient, "submit", timed_submit)
    try:
        yield tracer
    finally:
        for owner, attribute, original, shadowed in reversed(saved):
            if shadowed:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
