"""Per-layer timing from outside the program.

The traced run records spans on a benchmark-owned
:class:`repro.observability.tracing.Tracer` that is never installed as
the program's tracer: one span per public call into a layer, nested under
a per-tick or per-stage parent.  Scoring is timed by :class:`TimedScorer`,
a wrapper around the scoring callable the benchmark hands the program.

A span's *self* time is its duration minus that of its direct children.
Spans nest strictly (one thread), so this holds per path in aggregate:
``self(path) = total(path) - sum(total(path/child))``.

A traced run leaves one operation of each consecutive pair untraced;
the ratio of the traced operations' median time to the untraced ones'
is the tracing overhead, measured on interleaved operations so machine
drift falls on both alike.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager, nullcontext

#: Per-operation parent spans (one tick, one offline pass).
OPERATIONS = ("bench.tick", "bench.pass")

#: Layers whose self time every workload reports, matched as span-name
#: prefixes (longest first).  Benchmark spans (``bench.*``) are
#: reported in the table but belong to no program layer.
LAYERS = ("tree.compiled", "core.sampling", "detection", "smart", "tree")


class Spans:
    """Opens spans on a tracer, or nothing when the run is untraced."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __call__(self, name: str, **args):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, category="bench", **args)

    @contextmanager
    def paused(self, pause: bool = True):
        """Record nothing inside, when ``pause`` is true."""
        tracer = self.tracer
        if pause:
            self.tracer = None
        try:
            yield
        finally:
            self.tracer = tracer

    @contextmanager
    def wrapped(self, owner, attr: str, name: str):
        """Time every call of ``owner.attr`` (a module function or a
        method) as a span ``name`` while open; untraced runs leave the
        program untouched."""
        if self.tracer is None:
            yield
            return
        original = vars(owner)[attr]

        def timed(*args, **kwargs):
            with self(name):
                return original(*args, **kwargs)

        setattr(owner, attr, timed)
        try:
            yield
        finally:
            setattr(owner, attr, original)


class TimedScorer:
    """A ``matrix -> scores`` callable that records a span and counts rows."""

    def __init__(self, func, spans: Spans, name: str = "tree.compiled.score"):
        self.func = func
        self.spans = spans
        self.name = name
        self.rows = 0

    def __call__(self, X):
        with self.spans(self.name):
            scores = self.func(X)
        self.rows += len(X)
        return scores


def layer_of(name: str):
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return None


def span_table(spans) -> dict[str, dict]:
    """Total and self seconds and call count per span name."""
    total = defaultdict(float)
    calls = defaultdict(int)
    name_of = {}
    for span in spans:
        total[span.path] += span.dur_s
        calls[span.path] += 1
        name_of[span.path] = span.name
    children = defaultdict(float)
    for path, seconds in total.items():
        if "/" in path:
            children[path.rsplit("/", 1)[0]] += seconds
    table: dict[str, dict] = {}
    for path, seconds in total.items():
        row = table.setdefault(
            name_of[path], {"total_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        row["total_s"] += seconds
        row["self_s"] += seconds - children[path]
        row["calls"] += calls[path]
    return table


def layer_self(table: dict[str, dict]) -> dict[str, float]:
    """Self seconds summed per program layer (see :data:`LAYERS`)."""
    sums = {layer: 0.0 for layer in LAYERS}
    for name, row in table.items():
        layer = layer_of(name)
        if layer is not None:
            sums[layer] += row["self_s"]
    return sums


def format_table(table: dict[str, dict]) -> str:
    width = max([len(name) for name in table] + [4])
    lines = [f"{'span':<{width}}  {'calls':>6}  {'total_s':>10}  {'self_s':>10}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["total_s"]):
        lines.append(
            f"{name:<{width}}  {row['calls']:>6}  "
            f"{row['total_s']:>10.4f}  {row['self_s']:>10.4f}"
        )
    return "\n".join(lines)


def trace_overhead_ratio(op_s, op_traced) -> float:
    """Median traced operation time over median untraced operation time."""
    traced = [t for t, on in zip(op_s, op_traced) if on]
    untraced = [t for t, on in zip(op_s, op_traced) if not on]
    return statistics.median(traced) / statistics.median(untraced)


def layer_share(spans) -> float:
    """Program-layer self time inside traced operation spans over the
    wall time of those spans: the share of each traced operation the
    layers account for (the rest is the benchmark's own spans)."""
    layer_self_s = busy_s = 0.0
    for span in spans:
        names = span.path.split("/")
        if names[0] not in OPERATIONS:
            continue
        if len(names) == 1:
            busy_s += span.dur_s
        if layer_of(names[-1]):
            layer_self_s += span.dur_s
        if len(names) > 2 and layer_of(names[-2]):
            layer_self_s -= span.dur_s
    return layer_self_s / busy_s
