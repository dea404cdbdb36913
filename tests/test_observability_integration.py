"""Live end-to-end check: the catalog matches what the code emits.

One module-scoped scenario exercises every instrumented subsystem —
tree fitting, compiled batch scoring, fleet routing, streaming serving
(including the fault gate), sharded fleet serving (shard ticks,
snapshot/restore, canary rollouts), supervised serving (shard death,
journal-replay recovery, restart-budget quarantine), offline detection,
the updating simulator
with checkpoint/drift, the parallel pool (pooled, salvaged and
serially-degraded tasks), the out-of-core Backblaze ingest (chunk
parsing, the lenient ledger, the model filter, interrupt-and-resume
checkpointing, store assembly), the experiment grid and the explain
layer (report folding over the scenario's own alert provenance,
crossfit, uplift simulation, redundancy summaries) — under a
recording registry and tracer.  The tests then diff the emitted names against
:mod:`repro.observability.catalog` in both directions, so an
undocumented emission or a documented-but-dead name fails the suite.
"""

from __future__ import annotations

import json
import os
import re
import signal
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro import observability as obs
from repro.core.config import CTConfig
from repro.core.fleet import FleetPredictor
from repro.core.predictor import DriveFailurePredictor
from repro.detection.evaluator import evaluate_detection
from repro.detection.streaming import (
    HEALTH_REPORT_SCHEMA,
    FleetMonitor,
    QuarantinePolicy,
    VoterSpec,
)
from repro.detection.voting import MajorityVoteDetector
from repro.experiments.common import ExperimentScale, run_experiment_grid
from repro.features.selection import basic_features
from repro.observability import catalog
from repro.observability.slo import SLOMonitor
from repro.smart.attributes import N_CHANNELS
from repro.tree import ClassificationTree
from repro.smart.drive import DriveRecord
from repro.updating.drift import DriftDetector
from repro.updating.simulator import simulate_updating
from repro.updating.strategies import FixedStrategy, ReplacingStrategy
from repro.utils import parallel
from repro.utils.parallel import run_tasks

CONFIG = CTConfig(minsplit=4, minbucket=2, cp=0.002)


# -- module-level task functions (pooled tasks must be importable) ----------

def _evaluate_empty_fleet(context, task):
    """Pooled task that itself runs instrumented code inside the worker."""
    return evaluate_detection([], MajorityVoteDetector(n_voters=1)).n_detected


def _die_in_worker(context, task):
    """Kills its pool worker, succeeds on the serial salvage."""
    if parallel._IN_WORKER:
        os.kill(os.getpid(), signal.SIGKILL)
    return task


def _grid_cell_a(scale):
    return {"cell": "a", "seed": scale.seed}


def _grid_cell_b(scale):
    return {"cell": "b", "seed": scale.seed}


def _counter_total(registry, name):
    entry = registry.snapshot()["metrics"].get(name)
    if entry is None:
        return 0.0
    return sum(entry["series"].values())


def _run_serving():
    """Drive the streaming monitor through every serve.* code path."""
    flip = {"calls": 0}

    def alternating_score(row):
        flip["calls"] += 1
        return -1.0 if flip["calls"] % 2 else 1.0

    monitor = FleetMonitor(
        basic_features(),
        score_sample=alternating_score,
        detector_factory=VoterSpec("majority", 1),
        quarantine=QuarantinePolicy(fault_limit=0),
        slo=SLOMonitor(),
    )
    fitted = ClassificationTree(minsplit=4, minbucket=2, cp=0.001).fit(
        np.vstack([np.ones((20, len(basic_features()))),
                   -np.ones((20, len(basic_features())))]),
        np.array([1] * 20 + [-1] * 20),
    )
    monitor.set_model(          # model_replaced + provenance tree attached
        alternating_score, tree=fitted,
    )
    clean = np.ones(N_CHANNELS)
    for hour in range(4):  # alternating signal -> alert + vote flips
        monitor.observe("d-ok", float(hour), clean)
    monitor.observe("d-bad", 0.0, np.ones(3))       # wrong shape -> quarantine
    monitor.observe("d-bad", np.nan, clean)         # non-finite timestamp
    monitor.observe("d-dup", 0.0, clean)
    monitor.observe("d-dup", 0.0, clean)            # duplicate timestamp
    # Ground truth: one detection with lead time, one miss.  A 50% miss
    # rate burns the 5% FDR budget at 10x, tripping the 72h/168h
    # windows -> outcome_resolved + slo_burn land in the event log.
    monitor.resolve_outcome("d-ok", failed=True, failure_hour=40.0)
    monitor.resolve_outcome("d-gone", failed=True)

    batch = FleetMonitor(
        basic_features(),
        score_sample=lambda row: -1.0,
        detector_factory=VoterSpec("majority", 3),
        score_batch=lambda X: -np.ones(len(X)),
    )
    for hour in range(2):
        batch.observe_fleet(
            float(hour), {f"b-{i}": clean for i in range(3)}
        )
    batch.finalize()  # short histories, all failed votes -> flush alerts
    return monitor.health_report()


def _score_healthy(row):
    return 1.0


def _score_paging(row):
    return -1.0


def _run_sharded_serving(tmp):
    """Drive the sharded coordinator through every shard.* code path."""
    from repro.detection.sharded import (
        CanaryPolicy,
        ShardedFleetMonitor,
        VoterSpec,
    )

    def build():
        return ShardedFleetMonitor(
            basic_features(),
            score_sample=_score_healthy,
            detector_factory=VoterSpec("majority", 1),
            n_shards=2,
        )

    clean = np.ones(N_CHANNELS)
    records = [(f"s-{i}", clean) for i in range(6)]

    # Identical candidate -> alert parity -> canary_verdict + fleet_cutover.
    monitor = build()
    monitor.begin_deployment(
        _score_healthy, canary_shards=(0,), policy=CanaryPolicy(soak_ticks=2)
    )
    for hour in range(2):
        monitor.observe_fleet(float(hour), records)
    assert monitor.last_verdict["passed"]

    # Mid-stream snapshot, then kill-and-resume one shard.
    snapshot_path = tmp / "shard-snapshot"
    monitor.snapshot(snapshot_path)
    monitor.restore_shard(0, snapshot_path)

    # Page-everything candidate -> rate divergence -> fleet_rollback.
    noisy = build()
    noisy.begin_deployment(
        _score_paging, canary_shards=(0,), policy=CanaryPolicy(soak_ticks=2)
    )
    for hour in range(2):
        noisy.observe_fleet(float(hour), records)
    assert not noisy.last_verdict["passed"]


def _run_supervised_serving(tmp):
    """Drive the supervisor through recovery and quarantine code paths."""
    from repro.detection.supervision import (
        RestartPolicy,
        SupervisedShardedMonitor,
    )
    from repro.detection.sharded import VoterSpec

    monitor = SupervisedShardedMonitor(
        basic_features(),
        _score_healthy,
        VoterSpec("majority", 1),
        n_shards=2,
        run_dir=tmp / "supervised-run",
        restart_policy=RestartPolicy(max_restarts=1, window_ticks=100),
        snapshot_every=0,
    )
    try:
        clean = np.ones(N_CHANNELS)
        records = [(f"v-{i}", clean) for i in range(6)]
        monitor.observe_fleet(0.0, records)
        # First death: recovered by journal replay -> shard_died,
        # shard_recovered, shard.recoveries, shard.journal_replayed_ticks.
        monitor.kill_shard(0)
        monitor.observe_fleet(1.0, records)
        # Second death exhausts max_restarts=1 -> shard_quarantined.
        monitor.kill_shard(0)
        monitor.observe_fleet(2.0, records)
        assert monitor.recoveries == 1
        assert monitor.quarantined_shards == [0]
    finally:
        monitor.close()


def _run_ingest(tmp):
    """Drive the Backblaze ingest through every ingest.* code path."""
    from repro.smart.ingest import IngestConfig, ingest_backblaze
    from repro.utils.errors import IngestInterrupted

    source = tmp / "backblaze-days"
    source.mkdir()
    header = (
        "date,serial_number,model,capacity_bytes,failure,"
        "smart_5_raw,smart_197_raw\n"
    )
    (source / "2024-01-01.csv").write_text(
        header
        + "2024-01-01,S-1,ST4000DM000,4000,0,0,0\n"
        + "2024-01-01,S-2,OTHER9000,4000,0,0,0\n"  # dropped by the filter
        + "not-a-date,S-1,ST4000DM000,4000,0,0,0\n"  # skipped into ledger
    )
    (source / "2024-01-02.csv").write_text(
        header + "2024-01-02,S-1,ST4000DM000,4000,1,5,1\n"
    )
    config = IngestConfig(
        source=str(source), out=str(tmp / "backblaze-store"),
        models=("ST",), chunk_files=1,
    )
    # Die after the first of two chunks, then resume against the same
    # store: the resumed run reloads chunk 0 from the mid-ingest
    # checkpoint (ingest.checkpoint_hits) and parses only chunk 1.
    with pytest.raises(IngestInterrupted):
        ingest_backblaze(replace(config, stop_after_chunks=1))
    return ingest_backblaze(config)


def _run_explain():
    """Drive the explain layer through every explain.* code path."""
    from functools import partial

    from repro.explain import (
        build_explain_report,
        crossfit_models,
        simulate_uplift,
        summarize_redundancy,
    )
    from repro.observability.events import get_event_log

    # Fold the scenario's own event stream (the serving legs above
    # raised alerts with decision-path provenance) into a report.
    report = build_explain_report(get_event_log().events, top=5)
    assert report["alerts_with_path"] >= 1

    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 4))
    y = np.where(X[:, 0] + X[:, 1] > 0, 1, -1)
    crossfit = crossfit_models(
        partial(ClassificationTree, minsplit=4, minbucket=2, cp=0.001),
        X, y, n_folds=3, n_jobs=1,
    )
    simulate_uplift(crossfit, X, 0, shifts=[-1.0, 1.0], n_jobs=1)
    summarize_redundancy(crossfit, X, top=3)


def _run_scenario(tiny_fleet, tiny_split, aging_fleet_small, tmp, registry):
    # fit + compiled scoring + offline detection
    predictor = DriveFailurePredictor(CONFIG).fit(tiny_split)
    predictor.evaluate(tiny_split, n_voters=3)

    # per-family routing, including an unroutable alien family
    fleet_model = FleetPredictor(
        lambda: DriveFailurePredictor(CONFIG), split_seed=2
    ).fit(tiny_fleet)
    donor = tiny_fleet.drives[0]
    alien = DriveRecord(
        serial="X-1", family="X", failed=False,
        hours=donor.hours.copy(), values=donor.values.copy(),
    )
    fleet_model.score_drives(list(tiny_fleet.drives[:10]) + [alien])

    health = _run_serving()
    _run_sharded_serving(tmp)
    _run_supervised_serving(tmp)
    _run_ingest(tmp)
    _run_explain()  # folds the alerts the serving legs just raised

    # updating: run twice against one checkpoint for checkpoint_hits;
    # the two strategies share the (week-1, week-2) cell for cache_hits
    checkpoint = tmp / "updating.json"
    strategies = [FixedStrategy(), ReplacingStrategy(1)]
    for _ in range(2):
        simulate_updating(
            aging_fleet_small,
            lambda: DriveFailurePredictor(CONFIG),
            strategies,
            n_weeks=4, n_voters=5, split_seed=2,
            checkpoint_path=checkpoint,
        )

    good = tiny_fleet.filter_family("W").good_drives
    drift = DriftDetector(basic_features(), z_threshold=4.0, seed=1)
    drift.fit_reference(good)
    drift.check(good)  # no drift: check + statistic gauge
    shifted = [
        DriveRecord(
            serial=d.serial, family=d.family, failed=False,
            hours=d.hours.copy(), values=d.values - 25.0,
        )
        for d in good
    ]
    drift.check(shifted)  # injected shift -> drift alarm

    # parallel: pooled success (worker metrics absorbed), worker death
    # (serial salvage), unpicklable payload (serial fallback)
    evals_before_pool = _counter_total(registry, "detect.evaluations")
    run_tasks(_evaluate_empty_fleet, [0, 1, 2, 3], n_jobs=2)
    evals_after_pool = _counter_total(registry, "detect.evaluations")
    run_tasks(_die_in_worker, [10, 11], n_jobs=2)
    run_tasks(lambda context, task: task, [1, 2], n_jobs=2)

    # grid: run twice against one checkpoint for grid.checkpoint_hits
    grid_checkpoint = tmp / "grid.json"
    runs = {"cell_a": _grid_cell_a, "cell_b": _grid_cell_b}
    for _ in range(2):
        run_experiment_grid(
            runs, ExperimentScale.tiny(), n_jobs=1,
            checkpoint_path=grid_checkpoint,
        )
    return health, evals_before_pool, evals_after_pool


@pytest.fixture(scope="module")
def live(tiny_fleet, tiny_split, aging_fleet_small, tmp_path_factory):
    """Run the whole scenario once; hand every test the captured state."""
    tmp = tmp_path_factory.mktemp("obs-live")
    obs.disable()
    registry, tracer, event_log = obs.enable(
        events_path=tmp / "events.jsonl"
    )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # fallback warnings are the point
            health, evals_before, evals_after = _run_scenario(
                tiny_fleet, tiny_split, aging_fleet_small, tmp, registry
            )
        return {
            "snapshot": registry.snapshot(),
            "span_names": tracer.span_names(),
            "prometheus": obs.to_prometheus_text(registry),
            "chrome": obs.to_chrome_trace(tracer),
            "health": health,
            "events": list(event_log.events),
            "event_types": event_log.event_types(),
            "events_path": event_log.path,
            "detect_evals_before_pool": evals_before,
            "detect_evals_after_pool": evals_after,
        }
    finally:
        obs.disable()


class TestCatalogCoverage:
    def test_every_documented_metric_is_emitted(self, live):
        emitted = set(live["snapshot"]["metrics"])
        documented = catalog.metric_names()
        assert documented - emitted == set(), "documented but never emitted"
        assert emitted - documented == set(), "emitted but undocumented"

    def test_every_documented_span_is_emitted(self, live):
        assert catalog.span_names() - live["span_names"] == set()
        assert live["span_names"] - catalog.span_names() == set()

    def test_kinds_units_and_buckets_match_catalog(self, live):
        for spec in catalog.METRICS:
            entry = live["snapshot"]["metrics"][spec.name]
            assert entry["kind"] == spec.kind, spec.name
            assert entry.get("unit", "") == spec.unit, spec.name
            if spec.kind == "histogram":
                for series in entry["series"].values():
                    assert tuple(series["buckets"]) == spec.buckets, spec.name

    def test_documented_labels_appear_as_series(self, live):
        tasks = live["snapshot"]["metrics"]["parallel.tasks"]["series"]
        assert "mode=pool" in tasks and "mode=serial" in tasks
        faults = live["snapshot"]["metrics"]["serve.faults"]["series"]
        kinds = {key.split("=", 1)[1] for key in faults}
        assert {"wrong-shape", "non-finite-time", "duplicate-time"} <= kinds

    def test_fault_path_counters_fired(self, live):
        metrics = live["snapshot"]["metrics"]

        def total(name):
            return sum(metrics[name]["series"].values())

        assert total("serve.quarantined") >= 1
        assert total("serve.vote_flips") >= 1
        assert total("serve.alerts") >= 1
        assert total("parallel.salvaged") >= 2
        assert total("parallel.serial_fallbacks") >= 1
        assert total("updating.checkpoint_hits") >= 1
        assert total("updating.cache_hits") >= 1
        assert total("updating.drift_alarms") >= 1
        assert total("grid.checkpoint_hits") >= 2
        assert total("fleet.unroutable_drives") == 1
        assert total("ingest.checkpoint_hits") == 1
        assert total("ingest.filtered_rows") == 1
        assert total("ingest.skipped_rows") == 1


class TestEventCatalogCoverage:
    def test_every_documented_event_is_emitted(self, live):
        emitted = live["event_types"]
        documented = catalog.event_names()
        assert documented - emitted == set(), "documented but never emitted"
        assert emitted - documented == set(), "emitted but undocumented"

    def test_payload_keys_stay_inside_catalog(self, live):
        by_name = {spec.name: spec for spec in catalog.EVENTS}
        for event in live["events"]:
            spec = by_name[event.type]
            required = {k for k in spec.payload if not k.endswith("?")}
            optional = {k[:-1] for k in spec.payload if k.endswith("?")}
            assert required <= set(event.data) <= required | optional, (
                event.type
            )

    def test_streamed_jsonl_matches_in_memory_log(self, live):
        from repro.observability.events import read_events

        assert read_events(live["events_path"]) == live["events"]

    def test_alert_provenance_recorded_live(self, live):
        raised = [e for e in live["events"] if e.type == "alert_raised"]
        assert raised, "scenario raised no alerts"
        with_path = [e for e in raised if "path" in e.data]
        assert with_path, "no alert carried a decision path"
        assert with_path[0].data["path"][-1]["leaf"] is True


class TestCrossWorkerPropagation:
    def test_pooled_worker_metrics_reach_parent(self, live):
        # Four pooled tasks each ran evaluate_detection inside a worker;
        # their envelopes must merge into the parent registry.
        gained = (
            live["detect_evals_after_pool"] - live["detect_evals_before_pool"]
        )
        assert gained == 4


_PROM_COMMENT = re.compile(r"^# (HELP|TYPE) repro_[a-zA-Z0-9_:]+ .+$")
_PROM_SAMPLE = re.compile(
    r"^repro_[a-zA-Z0-9_:]+(\{[^{}]*\})? -?\d+(\.\d+)?([eE][-+]?\d+)?$"
)


class TestLiveExports:
    def test_prometheus_text_parses(self, live):
        lines = [line for line in live["prometheus"].splitlines() if line]
        assert lines, "live run produced an empty exposition"
        for line in lines:
            assert _PROM_COMMENT.match(line) or _PROM_SAMPLE.match(line), line

    def test_chrome_trace_parses(self, live):
        document = json.loads(json.dumps(live["chrome"]))
        assert document["schema"] == obs.TRACE_SCHEMA
        assert document["traceEvents"], "live run produced no spans"
        for event in document["traceEvents"]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert "path" in event["args"] and "cpu_s" in event["args"]

    def test_snapshot_is_schema_tagged_json(self, live):
        document = json.loads(json.dumps(live["snapshot"]))
        assert document["schema"] == obs.METRICS_SCHEMA


class TestHealthReport:
    def test_schema_tag(self, live):
        assert live["health"]["schema"] == HEALTH_REPORT_SCHEMA

    def test_metrics_section_carries_serve_family(self, live):
        section = live["health"]["metrics"]
        assert section, "enabled registry must populate the metrics section"
        assert all(name.startswith("serve.") for name in section)
        assert "serve.ticks" in section and "serve.faults" in section

    def test_slo_and_lifecycle_keys_present(self, live):
        health = live["health"]
        assert health["vote_flips"] >= 1
        assert health["model_generation"] == 1
        slo = health["slo"]["objectives"]
        assert slo["fdr"]["burning"] is True  # 50% miss rate vs 5% budget
        assert slo["far"]["burning"] is False
