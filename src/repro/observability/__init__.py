"""Fleet observability: metrics, tracing, events, SLOs, exporters.

The measurement substrate for the production-scale north star.  Four
pillars, all zero-dependency and all free when disabled:

* :mod:`repro.observability.metrics` — counters / gauges / histograms
  with fixed bucket boundaries (deterministic snapshots);
* :mod:`repro.observability.tracing` — span-based wall/CPU tracing with
  nested-context propagation across ``run_tasks`` worker boundaries;
* :mod:`repro.observability.events` — append-only structured event log
  (``repro.events/v1`` JSONL) covering the alert lifecycle, with
  decision-path provenance on every raised alert and deterministic
  replay (:func:`~repro.observability.events.replay_health_counters`);
* :mod:`repro.observability.slo` — rolling FDR/FAR/lead-time SLO
  monitors with multi-window burn-rate evaluation emitting
  ``slo_burn`` events;
* :mod:`repro.observability.export` — JSON snapshot, Prometheus text
  exposition, Chrome-trace dumps.

Typical operator session::

    from repro import observability as obs

    obs.enable(events_path="events.jsonl")  # registry + tracer + log
    ...run experiments...
    obs.write_metrics("metrics.json")  # or metrics.prom
    obs.write_trace("trace.json")      # load in chrome://tracing
    obs.disable()
    # then: repro-events tail events.jsonl / explain alert-0000 / slo

The metric/span/event name catalog (and the tables rendered into
``docs/observability.md``) lives in :mod:`repro.observability.catalog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.observability.events import (
    EVENTS_SCHEMA,
    Event,
    EventLog,
    NullEventLog,
    decision_path_payload,
    disable_events,
    enable_events,
    get_event_log,
    iter_events,
    merge_event_streams,
    read_events,
    replay_health_counters,
    set_event_log,
    validate_events,
    write_events,
)
from repro.observability.export import (
    merge_or_version_metrics,
    prometheus_name,
    snapshot_document,
    to_chrome_trace,
    to_prometheus_text,
    write_metrics,
    write_trace,
)
from repro.observability.metrics import (
    LEAD_TIME_BUCKETS_H,
    METRICS_SCHEMA,
    ROW_BUCKETS,
    TIME_BUCKETS_S,
    MetricsRegistry,
    NullRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    set_registry,
)
from repro.observability.slo import (
    DEFAULT_BURN_WINDOWS,
    DEFAULT_OBJECTIVES,
    BurnWindow,
    SLOMonitor,
    SloObjective,
)
from repro.observability.tracing import (
    TRACE_SCHEMA,
    NullTracer,
    SpanRecord,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
)

__all__ = [
    "BurnWindow",
    "DEFAULT_BURN_WINDOWS",
    "DEFAULT_OBJECTIVES",
    "EVENTS_SCHEMA",
    "Event",
    "EventLog",
    "LEAD_TIME_BUCKETS_H",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NullEventLog",
    "NullRegistry",
    "NullTracer",
    "ROW_BUCKETS",
    "RemoteObservation",
    "SLOMonitor",
    "SloObjective",
    "SpanRecord",
    "TIME_BUCKETS_S",
    "TRACE_SCHEMA",
    "Tracer",
    "absorb_remote",
    "capture_remote",
    "decision_path_payload",
    "disable",
    "disable_events",
    "disable_metrics",
    "disable_tracing",
    "enable",
    "enable_events",
    "enable_metrics",
    "enable_tracing",
    "get_event_log",
    "get_registry",
    "get_tracer",
    "iter_events",
    "merge_event_streams",
    "merge_or_version_metrics",
    "prometheus_name",
    "read_events",
    "replay_health_counters",
    "validate_events",
    "set_event_log",
    "set_registry",
    "set_tracer",
    "snapshot_document",
    "to_chrome_trace",
    "to_prometheus_text",
    "worker_config",
    "write_events",
    "write_metrics",
    "write_trace",
]


def enable(
    *,
    metrics: bool = True,
    tracing: bool = True,
    events: bool = True,
    events_path=None,
):
    """Install fresh recording instruments; returns ``(registry, tracer, log)``.

    Any pillar can be enabled alone; the others keep their no-op
    defaults (pass ``tracing=False`` to collect metrics without paying
    for span records).  ``events_path`` tees the event log to a JSONL
    file as events are emitted (implies ``events=True``).
    """
    registry = enable_metrics() if metrics else get_registry()
    tracer = enable_tracing() if tracing else get_tracer()
    if events or events_path is not None:
        log = enable_events(events_path)
    else:
        log = get_event_log()
    return registry, tracer, log


def disable() -> None:
    """Restore all no-op defaults (recorded data is discarded)."""
    disable_metrics()
    disable_tracing()
    disable_events()


# -- cross-worker propagation --------------------------------------------------
#
# ``repro.utils.parallel.run_tasks`` workers are separate processes with
# their own module globals, so the parent's registry/tracer are invisible
# there.  The protocol: the parent ships ``worker_config()`` through the
# pool initializer, each task runs under ``capture_remote`` (a fresh
# per-task registry/tracer, so the shipped snapshot is exactly that
# task's delta), and the result travels home inside a
# :class:`RemoteObservation` envelope that the parent unwraps with
# ``absorb_remote`` — merging in task-submission order keeps the parent
# registry deterministic.


@dataclass
class RemoteObservation:
    """Envelope carrying a worker task's result plus its observations."""

    result: object
    metrics: Optional[dict] = None
    spans: list = field(default_factory=list)
    events: list = field(default_factory=list)


def worker_config() -> Optional[dict]:
    """What the parent ships to pool workers (``None`` when disabled)."""
    registry, tracer, log = get_registry(), get_tracer(), get_event_log()
    if not registry.enabled and not tracer.enabled and not log.enabled:
        return None
    return {
        "metrics": registry.enabled,
        "tracing": tracer.enabled,
        "events": log.enabled,
    }


def capture_remote(
    config: Optional[dict], func: Callable, *args
) -> object:
    """Run ``func(*args)`` under fresh per-task instruments.

    Returns the bare result when ``config`` is ``None`` (observability
    disabled at the parent), otherwise a :class:`RemoteObservation`
    whose snapshot/spans/events are exactly this task's contribution.
    Instruments are restored even when the task raises.
    """
    if not config:
        return func(*args)
    registry = MetricsRegistry() if config.get("metrics") else None
    tracer = Tracer() if config.get("tracing") else None
    log = EventLog() if config.get("events") else None
    previous_registry = set_registry(registry) if registry else None
    previous_tracer = set_tracer(tracer) if tracer else None
    previous_log = set_event_log(log) if log else None
    try:
        result = func(*args)
    finally:
        if registry is not None:
            set_registry(previous_registry)
        if tracer is not None:
            set_tracer(previous_tracer)
        if log is not None:
            set_event_log(previous_log)
    return RemoteObservation(
        result=result,
        metrics=registry.snapshot() if registry else None,
        spans=tracer.drain() if tracer else [],
        events=log.drain() if log else [],
    )


def absorb_remote(value: object, *, parent_path: str = "") -> object:
    """Unwrap a worker result, folding any observations into the parent.

    Passes non-envelope values straight through, so call sites can apply
    it unconditionally to everything a pool hands back.  Worker events
    are re-sequenced into the parent log in arrival (task-submission)
    order, keeping the merged stream deterministic.
    """
    if not isinstance(value, RemoteObservation):
        return value
    if value.metrics is not None:
        get_registry().merge_snapshot(value.metrics)
    if value.spans:
        get_tracer().absorb(value.spans, parent_path=parent_path)
    if value.events:
        get_event_log().absorb(value.events)
    return value.result
