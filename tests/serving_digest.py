"""The serving contract, stated once: a canonical run digest.

However the detection loop is deployed — one :class:`FleetMonitor`, a
:class:`ShardedFleetMonitor` at any shard count on either host type, or
a :class:`SupervisedShardedMonitor` whose shards are killed and
recovered mid-stream — the same input stream must leave the same
observable surface.  :func:`run_surfaces` collects that surface and
:func:`digest` hashes it as canonical JSON (sorted keys, no
whitespace), so one sha256 per scenario pins every deployment.

The surface:

* alerts (serial, hour, score, alert id) and faults (serial, hour,
  kind, detail), in the order the monitor holds them;
* watched drives, degraded drives, per-drive fault counts, vote flips;
* ``health_report()`` without its topology sections (``"sharding"``,
  ``"supervision"``), and the metrics registry; both without the
  ``serve.tick_seconds`` wall-time histogram and the coordinator-only
  ``shard.*`` family;
* the SLO status;
* the event *set*: every event without its ``seq``, sorted.  A
  coordinator absorbs shard events in (hour, shard, seq) order, not a
  single monitor's record order.  The supervision lifecycle family
  (:data:`SUPERVISION_EVENTS`) describes crashes, not the stream, and
  is left out;
* the health counters replayed from those events, which must equal the
  live report's counters;
* the explain report rebuilt from those events, as canonical JSON.

The module also holds what the serving suites share: the feature set,
module-level (so picklable) scorers, the synthetic dirty tick, the
scenario drivers and the monitor builders.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import signal
import time

import numpy as np

from repro.detection import (
    FleetMonitor,
    ShardedFleetMonitor,
    SupervisedShardedMonitor,
    VoterSpec,
)
from repro.explain import build_explain_report, canonical_json
from repro.features.vectorize import Feature
from repro.observability import disable_metrics, enable_metrics, get_registry
from repro.observability.events import (
    disable_events,
    enable_events,
    replay_health_counters,
)
from repro.robustness import dataset_events, inject_stream, replay_stream
from repro.smart.attributes import N_CHANNELS
from repro.smart.dataset import SmartDataset
from repro.smart.generator import default_fleet_config
from repro.tree import ClassificationTree

FEATURES = (Feature("POH"), Feature("TC"), Feature("RSC", 6.0), Feature("RRER", 12.0))

#: Event types only a supervised run emits: the recovery lifecycle.
SUPERVISION_EVENTS = frozenset({
    "shard_died",
    "shard_recovered",
    "shard_quarantined",
    "shard_snapshot",
    "shard_restored",
})

# -- scorers -------------------------------------------------------------------
# Module-level so a process shard can unpickle them.  A row holding both
# +inf and -inf sums to NaN (scored healthy); the errstate keeps that
# intended NaN from warning.


def score_sample(row):
    with np.errstate(invalid="ignore"):
        total = np.nansum(row)
    return -1.0 if total < 0.0 else 1.0


def score_batch(X):
    with np.errstate(invalid="ignore"):
        return np.where(np.nansum(X, axis=1) < 0.0, -1.0, 1.0)


def score_sum_sample(row):
    """A continuous score for the mean-threshold voter."""
    with np.errstate(invalid="ignore"):
        return float(np.nansum(row))


def score_sum_batch(X):
    with np.errstate(invalid="ignore"):
        return np.nansum(X, axis=1)


#: Normalized SMART values fall as a drive wears; on the generated fleet
#: a feature row summing below this reads as failing.
WORN_BELOW = 115.0


def score_worn_sample(row):
    with np.errstate(invalid="ignore"):
        total = np.nansum(row)
    return -1.0 if total < WORN_BELOW else 1.0


def score_worn_batch(X):
    with np.errstate(invalid="ignore"):
        return np.where(np.nansum(X, axis=1) < WORN_BELOW, -1.0, 1.0)


#: A reading no healthy drive reports; the poisoned scorers reject it.
POISON = 1e9


def score_batch_poisoned(X):
    if np.any(np.abs(np.nan_to_num(X)) >= POISON):
        raise RuntimeError("scorer rejected a poisoned drive")
    return score_batch(X)


def score_batch_missing_file(X):
    if np.any(np.abs(np.nan_to_num(X)) >= POISON):
        raise FileNotFoundError("scorer rejected a poisoned drive")
    return score_batch(X)


# -- builders ------------------------------------------------------------------


def _voter_kwargs(kwargs):
    kwargs.setdefault("score_batch", score_batch)
    return kwargs.pop("score_sample", score_sample), kwargs.pop(
        "detector_factory", VoterSpec("majority", 3)
    )


def build_single(**kwargs) -> FleetMonitor:
    sample, voter = _voter_kwargs(kwargs)
    return FleetMonitor(FEATURES, sample, voter, **kwargs)


def build_sharded(n_shards, **kwargs) -> ShardedFleetMonitor:
    """A coordinator in the requested mode; a silent serial fallback fails."""
    sample, voter = _voter_kwargs(kwargs)
    monitor = ShardedFleetMonitor(FEATURES, sample, voter, n_shards=n_shards, **kwargs)
    assert monitor.mode == kwargs.get("mode", "serial")
    return monitor


def build_supervised(n_shards, run_dir, **kwargs) -> SupervisedShardedMonitor:
    sample, voter = _voter_kwargs(kwargs)
    monitor = SupervisedShardedMonitor(
        FEATURES, sample, voter, n_shards=n_shards, run_dir=run_dir, **kwargs
    )
    assert monitor.mode == kwargs.get("mode", "serial")
    return monitor


def sigkill(monitor, sid, *, wait=True):
    """SIGKILL shard ``sid``'s worker; with ``wait``, until its host sees it."""
    (pid,) = monitor._hosts[sid].pids()
    os.kill(pid, signal.SIGKILL)
    if wait:
        deadline = time.monotonic() + 10.0
        while monitor._hosts[sid].poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
        assert monitor._hosts[sid].alive is False


def kill(monitor, sid, *, wait=True):
    """Lose shard ``sid``'s state: SIGKILL its worker, or drop a local host."""
    if monitor.mode == "process":
        sigkill(monitor, sid, wait=wait)
    else:
        monitor.kill_shard(sid)


# -- scenario drivers ----------------------------------------------------------
# Each driver feeds one stream and calls ``before(monitor, at)`` ahead of
# dispatch number ``at`` (every observe, observe_fleet and observe_tick
# call is one dispatch), which is where a lifecycle kills or
# checkpoints.


def _no_hook(monitor, at):
    return None


def dirty_tick(rng, hour, n_drives):
    """One synthetic collection tick exercising every fault kind."""
    pairs = []
    for d in range(n_drives):
        values = rng.normal(size=N_CHANNELS)
        roll = rng.random()
        if roll < 0.08:
            values = np.ones(3)  # wrong shape
        elif roll < 0.16:
            values = np.full(N_CHANNELS, np.nan)  # unscorable, not a fault
        pairs.append((f"d{d:03d}", values))
    if rng.random() < 0.3:
        pairs.append((f"d{rng.integers(n_drives):03d}", rng.normal(size=N_CHANNELS)))
    tick_hour = float(hour)
    roll = rng.random()
    if roll < 0.05:
        tick_hour = float("nan")
    elif roll < 0.15:
        tick_hour = float(hour - 2)  # duplicate or out-of-order per drive
    return tick_hour, pairs


def drive_records(monitor, before=_no_hook, ticks=40, n_drives=12, seed=42):
    """Record ticks with every fault kind, duplicate serials and outcomes."""
    rng = np.random.default_rng(seed)
    for hour in range(ticks):
        tick = dirty_tick(rng, hour, n_drives)
        before(monitor, hour)
        monitor.observe_fleet(*tick)
    monitor.finalize()
    monitor.resolve_outcome("d000", failed=True, failure_hour=100.0)
    monitor.resolve_outcome("d001", failed=False)


def drive_matrix(monitor, before=_no_hook, ticks=25, n_drives=30, seed=7):
    """Clean roster ticks on the registered-matrix path."""
    monitor.register_fleet(tuple(f"m{d:03d}" for d in range(n_drives)))
    rng = np.random.default_rng(seed)
    for hour in range(ticks):
        matrix = rng.normal(size=(n_drives, N_CHANNELS))
        before(monitor, hour)
        monitor.observe_tick(float(hour), matrix)
    monitor.finalize()


def drive_matrix_faults(monitor, before=_no_hook, n_drives=30, seed=13):
    """Roster ticks whose rows fault on several shards, then a re-ordered roster.

    Records push some drives to the next tick's hour (duplicate time)
    and others past it (out of order) before the roster ticks again;
    re-registering the roster reversed changes every drive's position.
    """
    serials = tuple(f"m{d:03d}" for d in range(n_drives))
    same, ahead = serials[4::6], serials[1::6]
    rng = np.random.default_rng(seed)
    at = 0

    def dispatch(call, hour, *args):
        nonlocal at
        before(monitor, at)
        at += 1
        call(hour, *args)

    def tick(hour):
        dispatch(monitor.observe_tick, float(hour), rng.normal(size=(n_drives, N_CHANNELS)))

    monitor.register_fleet(serials)
    for hour in range(4):
        tick(hour)
    dispatch(monitor.observe_fleet, 4.0, [(s, rng.normal(size=N_CHANNELS)) for s in same])
    dispatch(monitor.observe_fleet, 6.0, [(s, rng.normal(size=N_CHANNELS)) for s in ahead])
    tick(4)  # same: duplicate time; ahead: out of order
    tick(5)  # ahead: out of order
    monitor.register_fleet(serials[::-1])
    for hour in range(6, 10):
        tick(hour)  # ahead: duplicate time at hour 6
    monitor.finalize()


def drive_pinned_feed(monitor, before=_no_hook, ticks=12, n_drives=24, seed=17):
    """One static feed: pinned shard-side where the monitor can pin it.

    A single monitor cannot pin, so it is sent the same matrix each
    tick; six drives read low and vote to alert.
    """
    feed = np.random.default_rng(seed).normal(size=(n_drives, N_CHANNELS))
    feed[:6] -= 3.0
    monitor.register_fleet(tuple(f"k{d:02d}" for d in range(n_drives)))
    pinned = hasattr(monitor, "pin_feed")
    if pinned:
        monitor.pin_feed(feed)
    for hour in range(ticks):
        before(monitor, hour)
        if pinned:
            monitor.observe_tick(float(hour))
        else:
            monitor.observe_tick(float(hour), feed)
    monitor.finalize()


def drive_single_observe(monitor, before=_no_hook, hours=20, n_drives=6, seed=7):
    """One record per call through ``observe``."""
    rng = np.random.default_rng(seed)
    for hour in range(hours):
        for d in range(n_drives):
            values = rng.normal(size=N_CHANNELS)
            before(monitor, hour * n_drives + d)
            monitor.observe(f"d{d}", float(hour), values)
    monitor.finalize()


def tiny_tree():
    """A small fitted CART over :data:`FEATURES`, for alert provenance."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, len(FEATURES)))
    y = np.where(X.sum(axis=1) < 0.0, -1, 1)
    return ClassificationTree(minsplit=8, minbucket=3, cp=0.001).fit(X, y)


#: The generated fleet the columnar suite's profile digests replay.
PROFILE_FLEET = {
    "w_good": 4, "w_failed": 3, "q_good": 2, "q_failed": 1, "collection_days": 2, "seed": 13,
}


@functools.lru_cache(maxsize=None)
def _fleet_events(**config):
    """A generated fleet as one time-ordered record stream."""
    return tuple(dataset_events(SmartDataset.generate(default_fleet_config(**config))))


def profile_driver(profile, seed, fleet=PROFILE_FLEET):
    """Replay ``fleet``'s clean stream corrupted by one fault-injection profile."""
    events = inject_stream(list(_fleet_events(**fleet)), profile, seed=seed)

    def drive(monitor):
        replay_stream(monitor, events)

    return drive


# -- the digest ----------------------------------------------------------------


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not canonical JSON: {type(value).__name__}")


def digest(surfaces: dict) -> str:
    """sha256 of the canonical JSON of a run's observable surfaces."""
    blob = json.dumps(surfaces, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _strip_metrics(metrics: dict) -> dict:
    return {
        k: v for k, v in metrics.items()
        if k != "serve.tick_seconds" and not k.startswith("shard.")
    }


def _event_key(event) -> str:
    """An event as canonical JSON without its ``seq``."""
    payload = {k: v for k, v in event.to_json_dict().items() if k != "seq"}
    return json.dumps(payload, sort_keys=True, default=repr)


def alert_rows(alerts) -> list:
    return [[a.serial, a.hour, a.score, a.alert_id] for a in alerts]


def monitor_surfaces(monitor) -> dict:
    """What the monitor itself reports, its topology sections removed."""
    report = monitor.health_report()
    report.pop("sharding", None)
    report.pop("supervision", None)
    report["metrics"] = _strip_metrics(report["metrics"])
    return {
        "alerts": alert_rows(monitor.alerts),
        "faults": [[f.serial, f.hour, f.kind.value, f.detail] for f in monitor.faults],
        "watched": monitor.watched_drives(),
        "degraded": monitor.degraded_drives(),
        "fault_counts": monitor.fault_counts(),
        "vote_flips": monitor.vote_flips,
        "slo": monitor.slo.status() if monitor.slo is not None else None,
        "report": report,
    }


def run_surfaces(build, drive) -> dict:
    """Run ``drive(monitor)`` under live metrics and events; collect surfaces.

    ``build()`` makes the monitor; a sharded one is closed afterwards.
    """
    enable_metrics()
    log = enable_events()
    try:
        monitor = build()
        try:
            drive(monitor)
            surfaces = monitor_surfaces(monitor)
        finally:
            if isinstance(monitor, ShardedFleetMonitor):
                monitor.close()
        surfaces["metrics"] = _strip_metrics(get_registry().snapshot()["metrics"])
        events = [e for e in log.events if e.type not in SUPERVISION_EVENTS]
        surfaces["events"] = sorted(_event_key(e) for e in events)
        counters = replay_health_counters(events)
        assert counters == {key: surfaces["report"][key] for key in counters}
        surfaces["replayed_counters"] = counters
        surfaces["explain"] = canonical_json(build_explain_report(events))
        return surfaces
    finally:
        disable_metrics()
        disable_events()


def run_digest(build, drive) -> str:
    """The digest of ``drive(build())``'s observable surfaces."""
    return digest(run_surfaces(build, drive))
