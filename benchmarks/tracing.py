"""Span recorder for the benchmark's traced run.

``installed(tracer)`` replaces the public functions through which
nomalink's layers call each other with wrappers that record one span per
call, and puts the originals back on exit.  Nothing in the package changes;
the untraced run never installs anything.

A span holds its name, an optional tag (the scheme), a work count (symbol
pairs for ``simulate``), its start and end, and the span that was open when
it began.  Open spans sit on a per-thread stack.  A call on a sweep pool
thread, whose stack is empty, takes as parent the innermost open span of
the thread that installed the tracer: the ``run_sweep`` that submitted it.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

from nomalink import analytic, cli, experiments, simulator
from nomalink.model import SystemConfig

LAYERS = ("cli", "experiments", "simulator", "analytic", "model")


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    tag: str | None
    work: int
    start: float
    end: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _scheme(args, kwargs):
    scheme = args[1] if len(args) > 1 else kwargs.get("scheme")
    return str(scheme).lower(), 0


def _scheme_and_symbols(args, kwargs):
    scheme, _ = _scheme(args, kwargs)
    spec = args[2] if len(args) > 2 else kwargs.get("spec")
    return scheme, getattr(spec, "n_symbols", 0)


# (span name, owner, attribute, describe(args, kwargs) -> (tag, work))
TARGETS = (
    ("cli.main", cli, "main", None),
    ("experiments.parse_config", experiments, "parse_config", None),
    ("experiments.run_sweep", experiments, "run_sweep", None),
    ("experiments.emit_csv", experiments, "emit_csv", None),
    ("simulator.simulate", simulator, "simulate", _scheme_and_symbols),
    ("analytic.scheme_ber", analytic, "scheme_ber", _scheme),
    ("analytic.scheme_ber_floor", analytic, "scheme_ber_floor", _scheme),
    ("model.link_budget", SystemConfig, "link_budget", None),
    ("model.config", SystemConfig, "with_snr_db", None),
    ("model.config", SystemConfig, "with_hwi", None),
    ("model.config", SystemConfig, "with_alpha1", None),
)


class Tracer:
    """Collects spans from every thread; create it on the thread that runs
    the workload."""

    def __init__(self):
        # Plain tuples of atomic values, which the garbage collector stops
        # tracking; a list of tracked objects this long would make every
        # full collection in the traced program slower.
        self._records: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._local.stack = self._root_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func, describe=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            root = self._root_stack
            parent = stack[-1] if stack else (root[-1] if root else 0)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tag, work = describe(args, kwargs) if describe else (None, 0)
                self._records.append((span_id, parent, name, tag, work, start, end))

        traced.__wrapped__ = func
        return traced

    def spans(self) -> list[Span]:
        return [Span._make(r) for r in self._records]


@contextmanager
def installed(tracer: Tracer):
    """Route the layer boundaries through ``tracer`` for the ``with`` body."""
    originals = []
    try:
        for name, owner, attr, describe in TARGETS:
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, describe))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children on pool threads overlap one another; their union is what is
    subtracted, so a parent's self time is never negative.
    """
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    return {
        s.id: (s.end - s.start) - _covered(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[s.id])
        for s in spans
    }


def summarize(spans: list[Span]) -> dict:
    """Per-iteration totals: calls, seconds and work per (name, tag), and
    self seconds per layer."""
    calls, seconds, work = defaultdict(int), defaultdict(float), defaultdict(int)
    for s in spans:
        for key in ((s.name, None), (s.name, s.tag)) if s.tag else ((s.name, None),):
            calls[key] += 1
            seconds[key] += s.end - s.start
            work[key] += s.work
    layer_self = dict.fromkeys(LAYERS, 0.0)
    selfs = self_times(spans)
    for s in spans:
        layer_self[s.layer] += selfs[s.id]
    return {"calls": calls, "seconds": seconds, "work": work, "self": layer_self}


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-layer figures over the traced iterations.

    Counts are per iteration and must repeat exactly; self times and
    ``run_sweep`` durations are medians over iterations; per-call times and
    rates pool every traced call.  A layer the workload never calls reads 0.
    """
    def total(kind, name, tag=None):
        return sum(s[kind][(name, tag)] for s in summaries)

    def count(name):
        counts = {s["calls"][(name, None)] for s in summaries}
        if len(counts) != 1:
            raise ValueError(f"{name} call count differs between iterations: {sorted(counts)}")
        return counts.pop()

    def us_per_call(name, tag=None):
        n = total("calls", name, tag)
        return 1e6 * total("seconds", name, tag) / n if n else 0.0

    def median_self(layer):
        return statistics.median(s["self"][layer] for s in summaries)

    out = {}
    for scheme in analytic.SCHEMES:
        busy = total("seconds", "simulator.simulate", scheme)
        out[f"simulator.simulate.{scheme}.msym_per_s"] = (
            total("work", "simulator.simulate", scheme) / busy / 1e6 if busy else 0.0)
    out["simulator.simulate.calls"] = count("simulator.simulate")
    out["simulator.self_s"] = median_self("simulator")
    for scheme in analytic.SCHEMES:
        out[f"analytic.scheme_ber.{scheme}.us_per_call"] = us_per_call("analytic.scheme_ber",
                                                                       scheme)
    out["analytic.scheme_ber_floor.us_per_call"] = us_per_call("analytic.scheme_ber_floor")
    out["analytic.scheme_ber.calls"] = count("analytic.scheme_ber")
    out["analytic.self_s"] = median_self("analytic")
    out["model.link_budget.calls"] = count("model.link_budget")
    out["model.link_budget.us_per_call"] = us_per_call("model.link_budget")
    out["model.config.us_per_call"] = us_per_call("model.config")
    out["model.self_s"] = median_self("model")
    sweeps = [s["seconds"][("experiments.run_sweep", None)] for s in summaries]
    out["experiments.run_sweep.s"] = statistics.median(sweeps)
    out["experiments.parse_config.us"] = us_per_call("experiments.parse_config")
    out["experiments.emit_csv.us"] = us_per_call("experiments.emit_csv")
    out["experiments.self_s"] = median_self("experiments")
    out["cli.main.self_s"] = median_self("cli")
    return out


def write_spans(path, traced_spans: list[tuple[int, list[Span]]]):
    """Write every recorded span as tab-separated text, one line each."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration\tid\tparent\tname\ttag\twork\tstart_s\tend_s\n")
        for iteration, spans in traced_spans:
            for s in spans:
                fh.write(f"{iteration}\t{s.id}\t{s.parent}\t{s.name}\t{s.tag or ''}\t"
                         f"{s.work}\t{s.start!r}\t{s.end!r}\n")
