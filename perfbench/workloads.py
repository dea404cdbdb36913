"""The benchmark's four workloads, each a closed loop in one process.

A serving workload sends tick ``k+1`` only after ``observe_tick`` /
``observe_fleet`` has returned for tick ``k`` (the supervised journal's
write-ahead order needs one tick in flight); the offline workload runs
one ingest-to-evaluate pass after another.  The amount of work is a
fixed function of ``--seconds`` and the scale, so two runs on one seed
see identical inputs and must produce identical outputs.

Each workload returns an :class:`Outcome`: set-up times, per-operation
latencies, output checks and its own figures under the names used in
``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from repro.core import predictor as predictor_module
from repro.core.config import FAILED_LABEL, CTConfig
from repro.core.predictor import DriveFailurePredictor
from repro.core.sampling import score_drives
from repro.detection import (
    FleetMonitor,
    ShardedFleetMonitor,
    SupervisedShardedMonitor,
    VoterSpec,
)
from repro.detection.evaluator import evaluate_detection
from repro.detection.voting import MajorityVoteDetector
from repro.explain.report import (
    build_explain_report,
    canonical_json,
    explain_report_from_logs,
)
from repro.observability.events import (
    disable_events,
    enable_events,
    merge_event_streams,
    read_events,
    replay_health_counters,
)
from repro.smart.dataset import SmartDataset
from repro.smart.generator import default_fleet_config
from repro.smart.ingest import IngestConfig, ingest_backblaze, load_store
from repro.smart.registry import resolve
from repro.tree.classification import ClassificationTree

from inputs import TickStream, audit_records, write_backblaze_dump
from layers import Spans, TimedScorer

VOTERS = 11
VOTER = VoterSpec("majority", VOTERS)

#: Voters of the offline detector over daily Backblaze samples.
DAILY_VOTERS = 3

#: Set-up repetition ``r`` fits on ``seed + r * REP_STRIDE``: a distinct
#: handle, so every repetition resolves cold; repetition 0 is kept.
REP_STRIDE = 7919

#: Counters that ``replay_health_counters`` rebuilds from a log.
REPLAYED_KEYS = ("alerts", "faults_total", "faults_by_kind", "degraded_drives",
                 "vote_flips")


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale (``full`` or the smoke-test ``tiny``)."""

    fleet: int
    audit_fleet: int
    training: dict
    setup_reps: int
    tick_rate: float
    audit_tick_rate: float
    min_ticks: int
    onset_range: tuple
    ramp_hours: int
    snapshot_every: int
    replay_ticks: int
    dump_drives: int
    dump_days: int
    pass_rate: float
    min_passes: int

    @property
    def kill_tick(self) -> int:
        """The tick before which shard 0 is killed: half-way
        between the first and second snapshots."""
        return self.snapshot_every + self.snapshot_every // 2


SCALES = {
    "full": Scale(
        fleet=100_000, audit_fleet=5_000, training={}, setup_reps=3,
        tick_rate=14.0, audit_tick_rate=10.0, min_ticks=100,
        onset_range=(8, 60), ramp_hours=12, snapshot_every=48,
        replay_ticks=40, dump_drives=600, dump_days=40, pass_rate=1.6,
        min_passes=6,
    ),
    "tiny": Scale(
        fleet=2_000, audit_fleet=300,
        training={"w_good": 120, "w_failed": 20, "q_good": 30, "q_failed": 6},
        setup_reps=1, tick_rate=8.0, audit_tick_rate=8.0, min_ticks=40,
        onset_range=(2, 8), ramp_hours=4, snapshot_every=12, replay_ticks=8,
        dump_drives=60, dump_days=14, pass_rate=1.0, min_passes=2,
    ),
}


@dataclass
class Bench:
    """One run: seed, seconds of work, scale, work directory, tracing."""

    seed: int
    seconds: float
    scale: Scale
    work: Path
    spans: Spans
    dump: Optional[Path] = None

    def __post_init__(self):
        self.traced = self.spans.tracer is not None

    def n_ops(self, rate: float, minimum: int) -> int:
        return max(minimum, round(self.seconds * rate))

    def traced_op(self, index: int) -> bool:
        """A traced run traces one operation of each consecutive pair and
        leaves the other untraced, for ``bench.trace_overhead_ratio``.
        Which one is drawn per pair, so the traced set does not line up
        with a periodic cost such as the snapshot cadence."""
        first = random.Random(index // 2).random() < 0.5
        return self.traced and (index % 2 == 0) == first

    def op(self, index: int):
        """The context operation ``index`` runs in (spans paused or not)."""
        return self.spans.paused(self.traced and not self.traced_op(index))


@dataclass
class Outcome:
    setup_s: list
    op_s: list
    op_traced: list
    samples: int
    checks: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    rows_scored: int = 0
    n_leaves: int = 0
    digest: str = ""
    peak_rss_mb: Optional[float] = None


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()[:16]


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- set-up ---------------------------------------------------------------------


def fit_ct(spans: Spans, split) -> DriveFailurePredictor:
    """The paper's CT on a split, fitted by ``DriveFailurePredictor``.

    A traced run times the predictor's calls to ``build_training_set``
    and ``ClassificationTree.fit`` as spans of their own.
    """
    with spans.wrapped(predictor_module, "build_training_set",
                       "core.sampling.build_training_set"), \
            spans.wrapped(ClassificationTree, "fit", "tree.fit"):
        return DriveFailurePredictor(CTConfig()).fit(split)


def training_handle(b: Bench, seed: int) -> str:
    query = urllib.parse.urlencode({**b.scale.training, "seed": seed})
    return f"synthetic:default?{query}"


def make_stream(b: Bench, n_drives: int) -> TickStream:
    """The tick stream, drawn from the training fleet of repetition 0.

    Generated directly (not through the registry), so the timed
    resolve of the same handle in set-up stays cold.
    """
    fleet = SmartDataset.generate(
        default_fleet_config(**b.scale.training, seed=b.seed)
    )
    return TickStream(
        fleet, n_drives, b.seed,
        ramp_hours=b.scale.ramp_hours, onset_range=b.scale.onset_range,
    )


def serving_setup(b: Bench, start: Callable, stop: Callable):
    """Resolve, split, fit and ``start`` a monitor, cold, several times.

    Untraced runs repeat set-up ``scale.setup_reps`` times (the median
    is ``setup_s``); the traced run sets up once.  Repetition 0 runs last
    and is the one kept; ``stop`` releases the others.
    """
    reps = 1 if b.traced else b.scale.setup_reps
    times = []
    for rep in reversed(range(reps)):
        seed = b.seed + rep * REP_STRIDE
        begin = perf_counter()
        with b.spans("bench.setup"):
            with b.spans("smart.registry.resolve"):
                fleet = resolve(training_handle(b, seed))
            with b.spans("smart.dataset.split"):
                split = fleet.split(seed=seed)
            model = fit_ct(b.spans, split)
            monitor = start(model, rep)
        times.append(perf_counter() - begin)
        if rep:
            stop(monitor)
    return model, monitor, times


def timed_scoring(b: Bench, monitor) -> Optional[TimedScorer]:
    """On a traced run, route the monitor's batch scorer through a timer."""
    if not b.traced:
        return None
    monitor.score_batch = TimedScorer(monitor.score_batch, b.spans)
    return monitor.score_batch


def run_ticks(b: Bench, ticks, make: Callable, observe: Callable,
              name: str) -> tuple[list[float], list[bool]]:
    """Closed loop: generate tick ``k``, then time ``observe(k, input)``.

    Returns each tick's latency and whether it was traced.
    """
    latencies, traced = [], []
    for index, k in enumerate(ticks):
        data = make(k)
        with b.op(index), b.spans("bench.tick"):
            begin = perf_counter()
            with b.spans(name):
                observe(float(k), data)
            latencies.append(perf_counter() - begin)
        traced.append(b.traced_op(index))
    return latencies, traced


def replay(spans: Spans, monitors: dict, stream: TickStream,
           n_ticks: int) -> dict:
    """Ticks ``1..n_ticks`` through several monitors in lockstep.

    ``monitors`` maps span names to monitors.  Each is warmed on tick 0;
    then every tick goes to each monitor in turn, so drift in the
    machine's speed falls on all of them alike.  Returns each monitor's
    tick latencies under its span name.
    """
    first = stream.tick(0)
    for monitor in monitors.values():
        monitor.register_fleet(stream.serials)
        monitor.observe_tick(0.0, first)
    latencies = {name: [] for name in monitors}
    for k in range(1, n_ticks + 1):
        matrix = stream.tick(k)
        for name, monitor in monitors.items():
            with spans("bench.replay"):
                begin = perf_counter()
                with spans(name):
                    monitor.observe_tick(float(k), matrix)
                latencies[name].append(perf_counter() - begin)
    return latencies


def alert_keys(alerts) -> list:
    return [(a.alert_id, a.serial, a.hour) for a in alerts]


#: Share of the degrading drives that must page after their onset.  A
#: ramp ends on a real failed-drive sample, which the tree classifies
#: as failed about nine times in ten.
MIN_RECALL = 0.8


def degrading_recall(stream: TickStream, n_ticks: int, alerts) -> float:
    """Share of the degrading drives whose ramp completes with a full
    vote window left that raise their alert at or after the onset hour."""
    first = {a.serial: a.hour for a in alerts}
    matured = stream.matured(n_ticks, VOTERS)
    caught = [s for s, onset in matured.items() if first.get(s, -1.0) >= onset]
    return len(caught) / len(matured)


def detection_checks(recall: float, alerts) -> dict:
    ids = [a.alert_id for a in alerts]
    return {
        "alert ids dense": ids == [f"alert-{i:04d}" for i in range(len(ids))],
        "degrading drives page after onset": recall >= MIN_RECALL,
    }


def tick_detail(latencies, n_drives: int) -> dict:
    return {
        "tick_p50_ms": (median(latencies) * 1e3, "ms"),
        "tick_p90_ms": (float(np.percentile(latencies, 90)) * 1e3, "ms"),
        "timed_ticks": (len(latencies), "count"),
        "drive_samples_per_s": (n_drives * len(latencies) / sum(latencies), "1/s"),
    }


# -- serve-100k -----------------------------------------------------------------


def serve(b: Bench) -> Outcome:
    """One columnar ``FleetMonitor`` on the 100k-drive stream, no log."""
    stream = make_stream(b, b.scale.fleet)
    first = stream.tick(0)
    scorers = []

    def start(model, rep):
        with b.spans("detection.streaming.start"):
            monitor = FleetMonitor.from_predictor(model, VOTER)
            scorers.append(timed_scoring(b, monitor))
            monitor.register_fleet(stream.serials)
            monitor.observe_tick(0.0, first)
        return monitor

    model, monitor, setup = serving_setup(b, start, lambda m: None)
    n_ticks = b.n_ops(b.scale.tick_rate, b.scale.min_ticks)
    latencies, traced = run_ticks(b, range(1, n_ticks), stream.tick,
                                  monitor.observe_tick,
                                  "detection.streaming.observe_tick")
    with b.spans("detection.streaming.finalize"):
        monitor.finalize()
    health = monitor.health_report()
    recall = degrading_recall(stream, n_ticks, monitor.alerts)
    outcome = Outcome(
        setup_s=setup, op_s=latencies, op_traced=traced,
        samples=stream.n_drives * len(latencies),
        checks=detection_checks(recall, monitor.alerts),
        detail={
            **tick_detail(latencies, stream.n_drives),
            "degrading_recall": (recall, "ratio"),
        },
        n_leaves=model.tree_.n_leaves_,
        digest=digest(alert_keys(monitor.alerts)),
    )
    outcome.layer.update(health_counts(health))
    if b.traced:
        outcome.rows_scored = scorers[-1].rows
    return outcome


def health_counts(health: dict) -> dict:
    return {
        "detection.streaming.alerts": (health["alerts"], "count"),
        "detection.streaming.faults": (health["faults_total"], "count"),
        "detection.streaming.vote_flips": (health["vote_flips"], "count"),
    }


# -- supervised-100k ------------------------------------------------------------


def supervisor(b: Bench, model, name: str) -> SupervisedShardedMonitor:
    """Two process shards, fsync'd journal, snapshots on the scale's cadence."""
    return SupervisedShardedMonitor.from_predictor(
        model, VOTER, n_shards=2, mode="process",
        run_dir=b.work / "runs" / name,
        snapshot_every=b.scale.snapshot_every, journal_fsync=True,
    )


def supervised(b: Bench) -> Outcome:
    """The serve-100k stream through a supervised 2-shard process fleet.

    fsync'd journal, a snapshot every ``scale.snapshot_every`` ticks, and
    shard 0 killed (``kill_shard``) before ``scale.kill_tick``.  The parity
    reference is a single columnar monitor fed the same ticks.  An
    untraced run replays them through it after the supervisor has closed
    and its peak RSS has been read, so neither the reference's memory nor
    its work falls on the measured run.  The traced run feeds it in
    lockstep instead, as the yardstick of the journal overhead ratio.
    """
    # Spawned, not forked, workers: a fork inherits the benchmark's
    # large heap, and ticks then ran up to 1.5x slower until the first
    # snapshot, by an amount that changed from run to run.
    os.environ["REPRO_PARALLEL_START_METHOD"] = "spawn"
    stream = make_stream(b, b.scale.fleet)
    first = stream.tick(0)
    shutil.rmtree(b.work / "runs", ignore_errors=True)

    def start(model, rep):
        with b.spans("detection.supervision.start"):
            monitor = supervisor(b, model, f"setup-{rep}")
            monitor.register_fleet(stream.serials)
            monitor.observe_tick(0.0, first)
        return monitor

    model, monitor, setup = serving_setup(b, start, lambda m: m.close())
    checkpoint = monitor.checkpoint
    checkpoints = []

    def timed_checkpoint():
        begin = perf_counter()
        with b.spans("detection.supervision.checkpoint"):
            store = checkpoint()
        checkpoints.append(perf_counter() - begin)
        return store

    monitor.checkpoint = timed_checkpoint

    def single_monitor():
        reference = FleetMonitor.from_predictor(model, VOTER)
        reference.register_fleet(stream.serials)
        reference.observe_tick(0.0, first)
        return reference

    reference = single_monitor() if b.traced else None
    n_ticks = b.n_ops(b.scale.tick_rate, b.scale.min_ticks)
    kill = b.scale.kill_tick
    latencies, traced, single = [], [], []
    recovery = None
    for k in range(1, n_ticks):
        matrix = stream.tick(k)
        if reference is not None:
            begin = perf_counter()
            reference.observe_tick(float(k), matrix)
            single.append(perf_counter() - begin)
        if k == kill:
            monitor.kill_shard(0)
        with b.op(len(latencies)), b.spans("bench.tick"):
            begin = perf_counter()
            with b.spans("detection.supervision.observe_tick"):
                monitor.observe_tick(float(k), matrix)
            elapsed = perf_counter() - begin
        if k == kill:
            recovery = elapsed
        else:
            traced.append(b.traced_op(len(latencies)))
            latencies.append(elapsed)
    with b.spans("detection.supervision.finalize"):
        monitor.finalize()
    health = monitor.health_report()["supervision"]
    run_dir_bytes = sum(
        path.stat().st_size for path in monitor.run_dir.rglob("*") if path.is_file()
    )
    monitor.close()
    rss = peak_rss_mb()
    if reference is None:
        reference = single_monitor()
        for k in range(1, n_ticks):
            reference.observe_tick(float(k), stream.tick(k))
    reference.finalize()
    recall = degrading_recall(stream, n_ticks, monitor.alerts)
    outcome = Outcome(
        setup_s=setup, op_s=latencies, op_traced=traced,
        samples=stream.n_drives * len(latencies), peak_rss_mb=rss,
        checks={
            "alerts equal a single monitor's": (
                alert_keys(monitor.alerts) == alert_keys(reference.alerts)
            ),
            "one recovery after the kill": health["recoveries"] == 1,
            "journal replayed": health["replayed_ticks"] > 0,
            **detection_checks(recall, monitor.alerts),
        },
        detail={
            **tick_detail(latencies, stream.n_drives),
            "recovery_s": (recovery, "s"),
            "checkpoints": (len(checkpoints), "count"),
        },
        n_leaves=model.tree_.n_leaves_,
        digest=digest(alert_keys(monitor.alerts)),
    )
    outcome.layer.update({
        "detection.supervision.checkpoint_s": (sum(checkpoints), "s"),
        "detection.supervision.run_dir_bytes": (run_dir_bytes, "bytes"),
        "detection.supervision.replayed_ticks": (health["replayed_ticks"], "count"),
    })
    if b.traced:
        supervised_replays(b, model, stream, n_ticks, latencies, single, outcome)
    shutil.rmtree(b.work / "runs", ignore_errors=True)
    return outcome


def supervised_replays(b, model, stream, n_ticks, latencies, single, outcome):
    """Differencing replays of the first ticks (traced run only).

    The same ticks go, in lockstep, through a single columnar monitor,
    an unsupervised process-mode sharded monitor, and serial mode (the
    single-thread baseline, scored in-process through the timer).  Each
    sharded figure is taken over the single monitor's ticks from the
    same phase, so the journal overhead compares two ratios measured
    against the same yardstick rather than two stretches of wall time.
    """
    k = min(b.scale.replay_ticks, b.scale.kill_tick - 1, n_ticks - 1)
    scorer = TimedScorer(model.tree_.batch_scorer(), b.spans)
    serial = ShardedFleetMonitor(
        model.extractor.features, model.tree_.sample_scorer(), VOTER,
        score_batch=scorer, tree=model.tree_, n_shards=2, mode="serial",
    )
    with ShardedFleetMonitor.from_predictor(
        model, VOTER, n_shards=2, mode="process"
    ) as sharded:
        ticks = replay(b.spans, {
            "detection.streaming.observe_tick":
                FleetMonitor.from_predictor(model, VOTER),
            "detection.sharded.observe_tick": sharded,
            "detection.sharded.serial_observe_tick": serial,
        }, stream, k)
    outcome.rows_scored = scorer.rows
    replay_single = median(ticks["detection.streaming.observe_tick"])
    unsupervised = ticks["detection.sharded.observe_tick"]
    serial_ticks = ticks["detection.sharded.serial_observe_tick"]
    sharded_vs_single = median(unsupervised) / replay_single
    outcome.layer.update({
        "detection.supervision.tick_busy_s": (sum(latencies), "s"),
        "detection.sharded.tick_busy_s": (sum(unsupervised), "s"),
        "detection.sharded.serial_tick_busy_s": (sum(serial_ticks), "s"),
        "detection.supervision.journal_overhead_ratio": (
            median(latencies[:k]) / median(single[:k]) / sharded_vs_single,
            "ratio"),
        "detection.sharded.vs_single_ratio": (sharded_vs_single, "ratio"),
        "detection.sharded.serial_vs_single_ratio": (
            median(serial_ticks) / replay_single, "ratio"),
    })


# -- audit-5k -------------------------------------------------------------------


def audit(b: Bench) -> Outcome:
    """Record-path serving with a recording event log, then explain it."""
    stream = make_stream(b, b.scale.audit_fleet)
    first = audit_records(stream, 0)
    logs = b.work / "events"
    shutil.rmtree(logs, ignore_errors=True)
    scorers = []

    def start(model, rep):
        with b.spans("detection.streaming.start"):
            enable_events(logs / f"setup-{rep}.jsonl")
            monitor = FleetMonitor.from_predictor(model, VOTER)
            scorers.append(timed_scoring(b, monitor))
            monitor.observe_fleet(0.0, first)
        return monitor

    model, monitor, setup = serving_setup(b, start, lambda m: disable_events())
    log_path = logs / "setup-0.jsonl"
    n_ticks = b.n_ops(b.scale.audit_tick_rate, b.scale.min_ticks)
    latencies, traced = run_ticks(
        b, range(1, n_ticks), lambda k: audit_records(stream, k),
        monitor.observe_fleet, "detection.streaming.observe_fleet",
    )
    with b.spans("detection.streaming.finalize"):
        monitor.finalize()
    health = monitor.health_report()
    disable_events()

    begin = perf_counter()
    if b.traced:
        with b.spans("bench.explain"):
            with b.spans("observability.events.merge_event_streams"):
                events = merge_event_streams([log_path])
            with b.spans("explain.report.build_explain_report"):
                report = build_explain_report(events)
        explain_s = perf_counter() - begin
        with b.spans("observability.events.replay_health_counters"):
            replayed = replay_health_counters(events)
        staged_equals_public = (
            canonical_json(report)
            == canonical_json(explain_report_from_logs([log_path]))
        )
    else:
        report = explain_report_from_logs([log_path])
        explain_s = perf_counter() - begin
        events = read_events(log_path)
        replayed = replay_health_counters(events)
        staged_equals_public = True

    outcome = Outcome(
        setup_s=setup, op_s=latencies, op_traced=traced,
        samples=stream.n_drives * len(latencies),
        checks={
            "log replay equals live counters": replayed == {
                key: health[key] for key in REPLAYED_KEYS
            },
            "faults and quarantine exercised": (
                health["faults_total"] > 0 and len(health["degraded_drives"]) > 0
            ),
            "every alert explained": (
                report["alerts_total"] == health["alerts"]
                and report["alerts_with_path"] == health["alerts"]
            ),
            "traced explain stages give explain_report_from_logs's bytes": (
                staged_equals_public
            ),
        },
        detail={
            **tick_detail(latencies, stream.n_drives),
            "explain_s": (explain_s, "s"),
        },
        n_leaves=model.tree_.n_leaves_,
        digest=digest(canonical_json(report)),
    )
    outcome.layer.update(health_counts(health))
    outcome.layer.update({
        "observability.events.events": (len(events), "count"),
        "observability.events.log_bytes": (log_path.stat().st_size, "bytes"),
    })
    if b.traced:
        outcome.rows_scored = scorers[-1].rows
        audit_replays(b, model, stream, n_ticks, latencies, outcome)
    shutil.rmtree(logs, ignore_errors=True)
    return outcome


def audit_replays(b, model, stream, n_ticks, latencies, outcome):
    """The first ticks again with the null event log: the emission cost
    is the difference from the same ticks of the run itself."""
    k = min(b.scale.replay_ticks, n_ticks - 1)
    monitor = FleetMonitor.from_predictor(model, VOTER)
    monitor.observe_fleet(0.0, audit_records(stream, 0))
    with b.spans.paused():
        null_ticks, _ = run_ticks(
            b, range(1, k + 1), lambda tick: audit_records(stream, tick),
            monitor.observe_fleet, "",
        )
    per_tick = median(latencies[:k]) - median(null_ticks)
    outcome.layer.update({
        "detection.streaming.tick_busy_s": (sum(latencies), "s"),
        "observability.events.emit_overhead_s": (per_tick * len(latencies), "s"),
    })


# -- ingest-train ---------------------------------------------------------------


#: Manifest totals and detection result of the full-scale dump at the
#: default seed, keyed by ``(seed, dump drives, dump days)``.
PINNED = {
    (1, 600, 40): {
        "totals": {
            "n_files": 40, "n_rows": 22715, "n_filtered_rows": 0,
            "n_skipped_rows": 80, "n_drives": 600, "n_failed": 28,
            "n_samples": 22715, "epoch_day": "2024-01-01",
        },
        "fdr": 0.625,
        "far": 0.0,
    },
}


def ingest_train(b: Bench) -> Outcome:
    """Backblaze-schema dump → ingest → load → split → fit → score → evaluate."""
    expected = None
    source = b.dump
    if source is None:
        source = b.work / "dump"
        shutil.rmtree(source, ignore_errors=True)
        expected = write_backblaze_dump(
            source, b.seed, b.scale.dump_drives, b.scale.dump_days
        )
    stores = b.work / "stores"
    shutil.rmtree(stores, ignore_errors=True)
    results = []
    rows_scored = 0

    def one_pass(index: int, spans: Spans, parent: str) -> dict:
        nonlocal rows_scored
        store = stores / f"store-{index}"
        stages = {}
        with spans(parent):
            begin = perf_counter()
            with spans("smart.ingest.ingest_backblaze"):
                manifest = ingest_backblaze(
                    IngestConfig(source=str(source), out=str(store), n_jobs=2)
                )
            stages["ingest"] = perf_counter() - begin
            mark = perf_counter()
            with spans("smart.ingest.load_store"):
                dataset = load_store(store)
            with spans("smart.dataset.split"):
                split = dataset.split(seed=b.seed)
            model = fit_ct(spans, split)
            stages["train"] = perf_counter() - mark
            mark = perf_counter()
            scorer = model.tree_.predict
            if spans.tracer is not None:
                scorer = TimedScorer(scorer, spans)
            with spans("core.sampling.score_drives"):
                series = score_drives(
                    model.extractor,
                    list(split.test_good) + list(split.test_failed),
                    scorer,
                )
            with spans("detection.evaluator.evaluate_detection"):
                result = evaluate_detection(
                    series,
                    MajorityVoteDetector(n_voters=DAILY_VOTERS,
                                         failed_label=FAILED_LABEL),
                )
            stages["evaluate"] = perf_counter() - mark
            stages["pipeline"] = perf_counter() - begin
        rows_scored += getattr(scorer, "rows", 0)
        shutil.rmtree(store)
        results.append({
            "totals": manifest["totals"],
            "missing": sorted({c for cols in manifest["missing_columns"].values()
                               for c in cols}),
            "fdr": result.fdr, "far": result.far, "n_leaves": model.tree_.n_leaves_,
        })
        return stages

    reps = 1 if b.traced else b.scale.setup_reps
    setup = [one_pass(-1 - rep, b.spans, "bench.setup")["pipeline"]
             for rep in range(reps)]
    passes, traced = [], []
    for i in range(b.n_ops(b.scale.pass_rate, b.scale.min_passes)):
        with b.op(i):
            passes.append(one_pass(i, b.spans, "bench.pass"))
        traced.append(b.traced_op(i))
    totals = results[0]["totals"]
    pipeline = [p["pipeline"] for p in passes]
    checks = {
        "every pass gives the same store and result": all(
            r == results[0] for r in results
        ),
        "missing mapped column reported": (
            "smart_189_normalized" in results[0]["missing"]
        ),
    }
    if expected is not None:
        checks["manifest totals match the dump"] = (
            totals["n_files"] == expected.n_files
            and totals["n_rows"] == expected.n_rows
            and totals["n_skipped_rows"] == expected.n_malformed
            and totals["n_drives"] == expected.n_drives
            and totals["n_failed"] == expected.n_failed
        )
    pinned = PINNED.get((b.seed, b.scale.dump_drives, b.scale.dump_days))
    if pinned is not None and b.dump is None:
        checks["totals and FDR/FAR equal the pinned values"] = (
            {k: results[0][k] for k in pinned} == pinned
        )
    outcome = Outcome(
        setup_s=setup, op_s=pipeline, op_traced=traced,
        samples=totals["n_rows"] * len(passes),
        checks=checks,
        detail={
            "ingest_rows_per_s": (
                totals["n_rows"] / median([p["ingest"] for p in passes]), "1/s"),
            "train_s": (median([p["train"] for p in passes]), "s"),
            "evaluate_s": (median([p["evaluate"] for p in passes]), "s"),
            "pipeline_s": (median(pipeline), "s"),
            "passes": (len(passes), "count"),
            "fdr": (results[0]["fdr"], "ratio"),
            "far": (results[0]["far"], "ratio"),
        },
        n_leaves=results[0]["n_leaves"],
        digest=digest(results[0]),
    )
    outcome.layer.update({
        "smart.ingest.rows": (totals["n_rows"], "count"),
        "smart.ingest.skipped_rows": (totals["n_skipped_rows"], "count"),
    })
    if b.traced:
        outcome.rows_scored = rows_scored
    shutil.rmtree(stores, ignore_errors=True)
    if b.dump is None:
        shutil.rmtree(source, ignore_errors=True)
    return outcome


WORKLOADS = {
    "serve-100k": serve,
    "supervised-100k": supervised,
    "ingest-train": ingest_train,
    "audit-5k": audit,
}
