"""Tests for the structured event log, alert provenance, SLOs and CLI.

The contract under test, end to end:

* the JSONL persistence round-trips every event exactly (schema header
  enforced both ways);
* replaying a live run's event stream reconstructs the run's
  ``health_report`` fault/quarantine/vote-flip counters — the log is an
  audit artefact, not a best-effort trace;
* ``alert_raised`` provenance (decision path, voting window, model
  generation) is identical under the compiled and node tree backends;
* SLO burn-rate monitors ignite exactly once per excursion and replay
  from the log;
* events emitted inside pooled workers ship home in the result
  envelope;
* the ``repro-events`` CLI renders tail/query/explain/slo from a file.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import observability as obs
from repro.detection.metrics import DetectionResult
from repro.detection.streaming import (
    FleetMonitor,
    QuarantinePolicy,
    VoterSpec,
)
from repro.features.selection import basic_features
from repro.observability.cli import main as events_cli
from repro.observability.events import (
    EVENTS_SCHEMA,
    Event,
    EventLog,
    NullEventLog,
    decision_path_payload,
    merge_event_streams,
    read_events,
    render_decision_path,
    replay_health_counters,
    set_event_log,
    validate_events,
    write_events,
)
from repro.observability.slo import (
    DEFAULT_BURN_WINDOWS,
    FAR_OBJECTIVE,
    FDR_OBJECTIVE,
    SLOMonitor,
    SloObjective,
)
from repro.smart.attributes import N_CHANNELS
from repro.tree import ClassificationTree
from repro.utils.errors import TornEventLogWarning
from repro.utils.parallel import run_tasks


@pytest.fixture(autouse=True)
def _restore_instruments():
    yield
    obs.disable()


def _recording_log() -> EventLog:
    log = EventLog()
    set_event_log(log)
    return log


# -- module-level task (pooled tasks must be importable) -----------------------

def _evaluate_in_worker(context, task):
    """Runs an instrumented evaluation inside the worker process."""
    from repro.detection.evaluator import evaluate_detection
    from repro.detection.voting import MajorityVoteDetector

    return evaluate_detection([], MajorityVoteDetector(n_voters=1)).n_detected


class TestEvent:
    def test_json_round_trip_omits_none_fields(self):
        event = Event(seq=3, type="vote_flip", drive="d1", hour=2.0,
                      data={"signal": True})
        line = event.to_json_dict()
        assert line == {"seq": 3, "type": "vote_flip", "drive": "d1",
                        "hour": 2.0, "data": {"signal": True}}
        assert Event.from_json_dict(line) == event
        bare = Event(seq=0, type="run_completed")
        assert bare.to_json_dict() == {"seq": 0, "type": "run_completed"}
        assert Event.from_json_dict(bare.to_json_dict()) == bare

    def test_render_one_line_skips_bulky_keys(self):
        event = Event(seq=7, type="alert_raised", drive="d9", hour=13.0,
                      data={"alert_id": "alert-0000", "score": -1.0,
                            "path": [{"feature": 0}], "window": [True]})
        line = event.render()
        assert line.startswith("#7")
        assert "alert-0000" in line and "d9" in line
        assert "path" not in line and "window" not in line
        assert "\n" not in line


class TestEventLog:
    def test_emit_assigns_monotone_seq(self):
        log = EventLog()
        first = log.emit("sample_scored", drive="d1", hour=0.0, score=1.0)
        second = log.emit("vote_flip", drive="d1", hour=1.0, signal=True)
        assert (first.seq, second.seq) == (0, 1)
        assert log.by_type("vote_flip") == [second]
        assert log.event_types() == {"sample_scored", "vote_flip"}

    def test_non_finite_hour_becomes_none(self):
        log = EventLog()
        event = log.emit("alert_raised", drive="d1", hour=float("nan"))
        assert event.hour is None
        # Still strict JSON after a round trip.
        assert json.loads(json.dumps(event.to_json_dict()))["seq"] == 0

    def test_path_bound_log_streams_jsonl(self, tmp_path):
        target = tmp_path / "events.jsonl"
        log = EventLog(target)
        log.emit("sample_scored", drive="d1", hour=0.0, score=-1.0)
        # Flushed per emit: the file is complete before close().
        lines = target.read_text().splitlines()
        assert json.loads(lines[0]) == {"schema": EVENTS_SCHEMA}
        assert json.loads(lines[1])["type"] == "sample_scored"
        log.close()
        assert [e.type for e in read_events(target)] == ["sample_scored"]

    def test_append_to_existing_log_keeps_single_header(self, tmp_path):
        target = tmp_path / "events.jsonl"
        first = EventLog(target)
        first.emit("run_completed", n_cells=1)
        first.close()
        second = EventLog(target)
        second.emit("run_completed", n_cells=2)
        second.close()
        text = target.read_text()
        assert text.count("schema") == 1
        cells = [e.data["n_cells"] for e in read_events(target)]
        assert cells == [1, 2]

    def test_write_and_read_events_round_trip(self, tmp_path):
        log = EventLog()
        log.emit("tick_faulted", drive="d1", hour=4.0, kind="wrong-shape",
                 detail="boom")
        log.emit("drive_quarantined", drive="d1", hour=4.0, fault_count=1,
                 fault_limit=0)
        target = write_events(tmp_path / "log.jsonl", log.events)
        assert read_events(target) == log.events

    def test_reader_rejects_missing_header(self, tmp_path):
        target = tmp_path / "bad.jsonl"
        target.write_text('{"seq": 0, "type": "vote_flip"}\n')
        with pytest.raises(ValueError, match="missing .* header"):
            read_events(target)

    def test_reader_rejects_wrong_schema(self, tmp_path):
        target = tmp_path / "bad.jsonl"
        target.write_text('{"schema": "repro.events/v999"}\n')
        with pytest.raises(ValueError, match="repro.events/v999"):
            read_events(target)

    def test_drain_and_absorb_resequence(self):
        worker = EventLog()
        worker.emit("sample_scored", drive="w1", hour=0.0, score=1.0)
        worker.emit("vote_flip", drive="w1", hour=1.0, signal=True)
        parent = EventLog()
        parent.emit("run_completed", n_cells=0)
        parent.absorb(worker.drain())
        assert worker.events == []
        assert [e.seq for e in parent.events] == [0, 1, 2]
        assert [e.type for e in parent.events] == [
            "run_completed", "sample_scored", "vote_flip",
        ]
        assert parent.events[2].data == {"signal": True}

    def test_null_log_is_inert(self):
        log = NullEventLog()
        assert log.enabled is False
        event = log.emit("sample_scored", drive="d", hour=0.0, score=1.0)
        assert event is log.emit("vote_flip")  # shared null sentinel
        assert log.events == []

    def test_enable_disable_install_and_restore(self, tmp_path):
        assert obs.get_event_log().enabled is False
        log = obs.enable_events(tmp_path / "e.jsonl")
        assert obs.get_event_log() is log
        obs.disable_events()
        assert obs.get_event_log().enabled is False
        # disable closed the file; the header is still on disk.
        assert (tmp_path / "e.jsonl").exists()

    def test_next_alert_id_is_dense(self):
        log = EventLog()
        assert log.next_alert_id() == "alert-0000"
        log.emit("alert_raised", drive="d", hour=0.0, alert_id="alert-0000")
        assert log.next_alert_id() == "alert-0001"


def _write_log_with_torn_tail(tmp_path):
    """Two good events, then a line cut mid-write (crashed appender)."""
    target = tmp_path / "torn.jsonl"
    log = EventLog(target)
    log.emit("vote_flip", drive="d1", hour=0.0, signal=True)
    log.emit("vote_flip", drive="d1", hour=1.0, signal=False)
    log.close()
    with target.open("a") as handle:
        handle.write('{"seq": 2, "type": "alert_rai')
    return target


class TestTornTailTolerance:
    """Satellite: crash-consistent event logs — fsync, torn tails, doctor."""

    def test_fsync_log_reads_back_identically(self, tmp_path):
        target = tmp_path / "durable.jsonl"
        log = EventLog(target, fsync=True)
        log.emit("vote_flip", drive="d1", hour=0.0, signal=True)
        log.emit("alert_raised", drive="d1", hour=1.0, alert_id="alert-0000")
        assert read_events(target) == log.events
        log.close()

    def test_strict_read_raises_on_torn_tail(self, tmp_path):
        target = _write_log_with_torn_tail(tmp_path)
        with pytest.raises(json.JSONDecodeError):
            read_events(target)

    def test_tolerant_read_skips_torn_tail_with_warning(self, tmp_path):
        target = _write_log_with_torn_tail(tmp_path)
        with pytest.warns(TornEventLogWarning, match="torn final line"):
            events = read_events(target, tolerant=True)
        assert [e.type for e in events] == ["vote_flip", "vote_flip"]

    def test_tolerant_read_still_raises_mid_file_corruption(self, tmp_path):
        target = tmp_path / "corrupt.jsonl"
        log = EventLog(target)
        log.emit("vote_flip", drive="d1", hour=0.0, signal=True)
        log.close()
        lines = target.read_text().splitlines()
        lines[1] = lines[1][:-5]  # corrupt a NON-final line
        lines.append('{"seq": 1, "type": "vote_flip", "data": {}}')
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_events(target, tolerant=True)

    def test_validate_events_on_a_healthy_log(self, tmp_path):
        target = tmp_path / "ok.jsonl"
        log = EventLog(target)
        log.emit("vote_flip", drive="d1", hour=0.0, signal=True)
        log.close()
        report = validate_events(target)
        assert report["ok"] is True
        assert report["events"] == 1
        assert report["torn_tail"] is None
        assert report["errors"] == []

    def test_validate_events_flags_a_torn_tail_as_recoverable(self, tmp_path):
        target = _write_log_with_torn_tail(tmp_path)
        report = validate_events(target)
        assert report["ok"] is True  # torn tail alone: recoverable
        assert report["events"] == 2
        assert report["torn_tail"] is not None

    def test_doctor_exits_zero_on_healthy_logs(self, tmp_path, capsys):
        target = tmp_path / "ok.jsonl"
        log = EventLog(target)
        log.emit("vote_flip", drive="d1", hour=0.0, signal=True)
        log.close()
        assert events_cli(["doctor", str(target)]) == 0
        assert "ok (1 events)" in capsys.readouterr().out

    def test_doctor_exits_nonzero_on_torn_tail(self, tmp_path, capsys):
        target = _write_log_with_torn_tail(tmp_path)
        assert events_cli(["doctor", str(target)]) == 1
        out = capsys.readouterr().out
        assert "TORN TAIL" in out
        assert "recoverable" in out

    def test_doctor_exits_nonzero_on_corruption(self, tmp_path, capsys):
        target = tmp_path / "bad.jsonl"
        target.write_text('{"schema": "repro.events/v999"}\n')
        assert events_cli(["doctor", str(target)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_doctor_checks_each_log_independently(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        log = EventLog(good)
        log.emit("vote_flip", drive="d1", hour=0.0, signal=True)
        log.close()
        torn = _write_log_with_torn_tail(tmp_path)
        assert events_cli(["doctor", str(good), str(torn)]) == 1
        out = capsys.readouterr().out
        assert "ok (1 events)" in out and "TORN TAIL" in out


def _fit_tree(backend: str, seed: int = 0) -> ClassificationTree:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, N_CHANNELS))
    X[rng.random(X.shape) < 0.1] = np.nan
    y = np.where(np.nansum(X[:, :3], axis=1) > 0, 1, -1)
    return ClassificationTree(
        minsplit=8, minbucket=3, cp=0.001, n_surrogates=2, backend=backend
    ).fit(X, y)


def _alerting_monitor(tree=None, *, slo=None) -> FleetMonitor:
    """A monitor whose model alarms on every scored tick."""
    return FleetMonitor(
        basic_features(),
        score_sample=lambda row: -1.0,
        detector_factory=VoterSpec("majority", 1),
        quarantine=QuarantinePolicy(fault_limit=0),
        tree=tree,
        slo=slo,
    )


def _drive_scenario(monitor: FleetMonitor) -> None:
    """Faults, quarantine, vote flips and an alert, deterministically."""
    clean = np.ones(N_CHANNELS)
    monitor.observe("d-alert", 0.0, clean)          # alert at hour 0
    monitor.observe("d-bad", 0.0, np.ones(3))       # wrong shape -> quarantine
    monitor.observe("d-bad", 1.0, np.ones(3))       # second fault, same drive
    monitor.observe("d-dup", 0.0, clean)
    monitor.observe("d-dup", 0.0, clean)            # duplicate -> quarantine


class TestReplayInvariant:
    def test_replay_reconstructs_health_counters(self):
        log = _recording_log()
        flip = {"n": 0}

        def alternating(row):
            flip["n"] += 1
            return -1.0 if flip["n"] % 2 else 1.0

        monitor = FleetMonitor(
            basic_features(),
            score_sample=alternating,
            detector_factory=VoterSpec("majority", 1),
            quarantine=QuarantinePolicy(fault_limit=0),
        )
        clean = np.ones(N_CHANNELS)
        for hour in range(6):   # alternating signal: alert + vote flips
            monitor.observe("d-flip", float(hour), clean)
        _drive_scenario(monitor)
        report = monitor.health_report()
        replayed = replay_health_counters(log.events)
        assert replayed == {
            "alerts": report["alerts"],
            "faults_total": report["faults_total"],
            "faults_by_kind": report["faults_by_kind"],
            "degraded_drives": report["degraded_drives"],
            "vote_flips": report["vote_flips"],
        }
        # The scenario actually exercised every counter.
        assert replayed["alerts"] >= 2
        assert replayed["vote_flips"] >= 2
        assert set(replayed["faults_by_kind"]) == {
            "wrong-shape", "duplicate-time",
        }
        assert replayed["degraded_drives"] == ["d-bad", "d-dup"]

    def test_replay_survives_jsonl_round_trip(self, tmp_path):
        log = _recording_log()
        monitor = _alerting_monitor()
        _drive_scenario(monitor)
        target = write_events(tmp_path / "run.jsonl", log.events)
        assert replay_health_counters(read_events(target)) == (
            replay_health_counters(log.events)
        )


class TestAlertProvenance:
    def test_alert_event_carries_window_path_and_generation(self):
        log = _recording_log()
        tree = _fit_tree("compiled")
        monitor = _alerting_monitor(tree)
        monitor.observe("d1", 0.0, np.ones(N_CHANNELS))
        (event,) = log.by_type("alert_raised")
        assert event.data["alert_id"] == "alert-0000"
        assert event.data["score"] == -1.0
        assert event.data["model_generation"] == 0
        assert event.data["window"] == [True]
        path = event.data["path"]
        assert path[-1]["leaf"] is True
        feature_names = [f.name for f in basic_features()]
        for step in path[:-1]:
            assert step["name"] == feature_names[step["feature"]]
        # The payload is pure JSON (NaN-free), ready for the log.
        json.dumps(event.data, allow_nan=False)

    def test_provenance_identical_under_both_backends(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(25, N_CHANNELS))
        rows[rng.random(rows.shape) < 0.2] = np.nan
        compiled, node = _fit_tree("compiled"), _fit_tree("node")
        names = [f"f{i}" for i in range(N_CHANNELS)]
        for row in rows:
            payload_compiled = decision_path_payload(compiled, row, names)
            payload_node = decision_path_payload(node, row, names)
            assert payload_compiled == payload_node

    def test_render_decision_path_reads_like_a_rule(self):
        steps = [
            {"feature": 1, "threshold": -0.05, "value": 1.0,
             "went_left": False, "n_samples": 400, "prediction": 1.0,
             "impurity": 0.995, "name": "RUE"},
            {"feature": 3, "threshold": 2.0, "value": None,
             "went_left": True, "n_samples": 120, "prediction": -1.0,
             "impurity": 0.4, "name": "d6h(RRER)"},
            {"leaf": True, "node_id": 15, "n_samples": 124,
             "prediction": 1.0, "impurity": 0.0, "confidence": 1.0},
        ]
        lines = render_decision_path(steps)
        assert lines[0] == "RUE = 1 >= -0.05 -> right (n=400, impurity 0.995)"
        assert lines[1] == (
            "d6h(RRER) = missing < 2 -> left (n=120, impurity 0.400)"
        )
        assert lines[2] == "leaf node 15: predict 1 (n=124, confidence 100%)"

    def test_mean_threshold_window_in_provenance(self):
        log = _recording_log()
        monitor = FleetMonitor(
            basic_features(),
            score_sample=lambda row: -1.0,
            detector_factory=VoterSpec("mean", 2, threshold=0.0),
        )
        clean = np.ones(N_CHANNELS)
        monitor.observe("d1", 0.0, clean)
        monitor.observe("d1", 1.0, clean)
        (event,) = log.by_type("alert_raised")
        assert event.data["window"] == [-1.0, -1.0]


class TestModelLifecycleEvents:
    def test_set_model_bumps_generation_and_emits(self):
        log = _recording_log()
        monitor = _alerting_monitor()
        assert monitor.set_model(lambda row: 1.0) == 1
        (event,) = log.by_type("model_replaced")
        assert event.data == {"from_generation": 0, "to_generation": 1}
        monitor.observe("d1", 0.0, np.ones(N_CHANNELS))  # healthy model now
        assert monitor.alerts == []
        assert monitor.health_report()["model_generation"] == 1

    def test_outcome_resolution_labels_and_lead_time(self):
        log = _recording_log()
        monitor = _alerting_monitor()
        monitor.observe("d-fail", 0.0, np.ones(N_CHANNELS))   # alerted
        monitor.observe("d-miss", 0.5, np.ones(3))            # faulted only
        assert monitor.resolve_outcome(
            "d-fail", failed=True, failure_hour=48.0
        ) == "detected"
        assert monitor.resolve_outcome("d-miss", failed=True) == "missed"
        assert monitor.resolve_outcome("d-unseen", failed=False) == "good"
        events = log.by_type("outcome_resolved")
        assert [e.data["outcome"] for e in events] == [
            "detected", "missed", "good",
        ]
        assert events[0].data["lead_hours"] == 48.0
        assert "lead_hours" not in events[1].data

    def test_false_alarm_outcome(self):
        _recording_log()
        monitor = _alerting_monitor()
        monitor.observe("d-ok", 0.0, np.ones(N_CHANNELS))
        assert monitor.resolve_outcome("d-ok", failed=False) == "false_alarm"


class TestSLOMonitor:
    def test_rejects_unknown_outcome_and_objective(self):
        monitor = SLOMonitor()
        with pytest.raises(ValueError, match="unknown outcome"):
            monitor.record(0.0, "exploded")
        with pytest.raises(ValueError, match="unknown objective"):
            SLOMonitor(objectives=(SloObjective("uptime", 0.1),))
        with pytest.raises(ValueError, match="budget"):
            SloObjective("fdr", 0.0)

    def test_burn_ignites_once_per_excursion(self):
        log = _recording_log()
        monitor = SLOMonitor(objectives=(FDR_OBJECTIVE,))
        for hour in range(10):
            monitor.record(float(hour), "missed")   # 100% miss >> 5% budget
        burns = log.by_type("slo_burn")
        assert len(burns) == 1                       # sustained burn, one event
        assert burns[0].data["objective"] == "fdr"
        assert burns[0].data["budget"] == 0.05
        assert all(
            w["burn_rate"] >= w["threshold"] for w in burns[0].data["windows"]
        )
        status = monitor.status()
        assert status["objectives"]["fdr"]["burning"] is True
        assert status["objectives"]["fdr"]["worst_burn_rate"] == 20.0

    def test_burn_clears_and_reignites(self):
        log = _recording_log()
        monitor = SLOMonitor(objectives=(FAR_OBJECTIVE,),)
        monitor.record(0.0, "false_alarm")
        assert len(log.by_type("slo_burn")) == 1
        # A flood of good outcomes inside the windows dilutes the rate
        # below every threshold; the widest window needs 1/0.001 samples.
        for _ in range(1200):
            monitor.record(1.0, "good")
        assert monitor.status()["objectives"]["far"]["burning"] is False
        # Far beyond the widest window the history has aged out, so a
        # fresh excursion ignites a second event.
        monitor.record(2000.0, "false_alarm")
        assert len(log.by_type("slo_burn")) == 2

    def test_lead_time_objective_counts_short_leads(self):
        monitor = SLOMonitor()
        monitor.record(0.0, "detected", lead_hours=6.0)    # short
        monitor.record(0.0, "detected", lead_hours=300.0)  # long
        entry = monitor.status()["objectives"]["lead_time"]
        assert entry["samples"] == 2
        assert entry["worst_burn_rate"] == pytest.approx(0.5 / 0.25)

    def test_record_result_expands_detection_result(self):
        monitor = SLOMonitor()
        result = DetectionResult(
            n_good=100, n_false_alarms=1, n_failed=10, n_detected=9,
            tia_hours=(200.0,) * 9,
        )
        monitor.record_result(0.0, result)
        status = monitor.status()
        assert status["objectives"]["fdr"]["samples"] == 10
        assert status["objectives"]["far"]["samples"] == 100
        assert status["objectives"]["fdr"]["worst_burn_rate"] == (
            pytest.approx(0.1 / 0.05)
        )

    def test_replay_matches_live_monitor(self):
        log = _recording_log()
        slo = SLOMonitor()
        monitor = _alerting_monitor(slo=slo)
        monitor.observe("d1", 0.0, np.ones(N_CHANNELS))       # alerted
        monitor.resolve_outcome("d1", failed=True, failure_hour=10.0)
        monitor.resolve_outcome("d2", failed=True)            # missed
        monitor.resolve_outcome("d3", failed=False)           # good
        set_event_log(None)
        replayed = SLOMonitor().replay(log.events)
        assert replayed.status() == slo.status()

    def test_replay_expands_detection_evaluated_aggregates(self):
        result = DetectionResult(
            n_good=50, n_false_alarms=2, n_failed=8, n_detected=7,
            tia_hours=(100.0,) * 7,
        )
        live = SLOMonitor()
        live.record_result(5.0, result)
        replayed = SLOMonitor().replay([Event(
            seq=0, type="detection_evaluated", hour=5.0,
            data={"n_series": 58, "n_detected": 7, "n_failed": 8,
                  "n_false_alarms": 2, "n_good": 50},
        )])
        for name in ("fdr", "far"):
            assert (
                replayed.status()["objectives"][name]
                == live.status()["objectives"][name]
            )

    def test_monitor_embeds_slo_in_health_report(self):
        _recording_log()
        slo = SLOMonitor()
        monitor = _alerting_monitor(slo=slo)
        monitor.observe("d1", 0.0, np.ones(N_CHANNELS))
        monitor.resolve_outcome("d1", failed=True, failure_hour=30.0)
        report = monitor.health_report()
        assert report["slo"]["objectives"]["fdr"]["samples"] == 1
        assert report["slo"]["objectives"]["fdr"]["burning"] is False

    def test_default_windows_sorted_ascending(self):
        hours = [w.hours for w in DEFAULT_BURN_WINDOWS]
        assert hours == sorted(hours)


class TestWorkerEventPropagation:
    def test_pooled_worker_events_reach_parent_log(self):
        _registry, _tracer, log = obs.enable()
        results = run_tasks(_evaluate_in_worker, [0, 1, 2], n_jobs=2)
        assert results == [0, 0, 0]
        evaluated = log.by_type("detection_evaluated")
        assert len(evaluated) == 3
        # Re-sequenced into the parent's total order.
        assert [e.seq for e in log.events] == list(range(len(log.events)))

    def test_worker_config_round_trip_carries_events(self):
        obs.enable()
        config = obs.worker_config()
        assert config == {"metrics": True, "tracing": True, "events": True}

        def emit_one():
            obs.get_event_log().emit(
                "sample_scored", drive="w", hour=0.0, score=1.0
            )
            return 42

        observation = obs.capture_remote(config, emit_one)
        assert observation.result == 42
        assert [e.type for e in observation.events] == ["sample_scored"]
        before = len(obs.get_event_log().events)
        assert obs.absorb_remote(observation) == 42
        assert len(obs.get_event_log().events) == before + 1


class TestEventsCLI:
    def _write_scenario(self, tmp_path, backend: str):
        log = EventLog(tmp_path / f"run-{backend}.jsonl")
        previous = set_event_log(log)
        try:
            tree = _fit_tree(backend)
            monitor = _alerting_monitor(tree, slo=SLOMonitor())
            _drive_scenario(monitor)
            monitor.resolve_outcome("d-alert", failed=True, failure_hour=72.0)
        finally:
            set_event_log(previous)
            log.close()
        return log.path

    def test_tail_prints_trailing_events(self, tmp_path, capsys):
        path = self._write_scenario(tmp_path, "compiled")
        assert events_cli(["tail", str(path), "-n", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert "outcome_resolved" in lines[-1]

    def test_query_filters_by_drive_type_and_hour(self, tmp_path, capsys):
        path = self._write_scenario(tmp_path, "compiled")
        assert events_cli(
            ["query", str(path), "--drive", "d-bad", "--type", "tick_faulted"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("tick_faulted") == 2
        assert "d-dup" not in out
        assert events_cli(["query", str(path), "--since", "0.5"]) == 0
        assert "t=1h" in capsys.readouterr().out

    def test_query_reports_no_matches(self, tmp_path, capsys):
        path = self._write_scenario(tmp_path, "compiled")
        assert events_cli(["query", str(path), "--drive", "nope"]) == 0
        assert "no matching events" in capsys.readouterr().err

    def test_explain_renders_identically_under_both_backends(
        self, tmp_path, capsys
    ):
        outputs = {}
        for backend in ("compiled", "node"):
            path = self._write_scenario(tmp_path, backend)
            assert events_cli(["explain", str(path), "alert-0000"]) == 0
            outputs[backend] = capsys.readouterr().out
        assert outputs["compiled"] == outputs["node"]
        text = outputs["compiled"]
        assert "alert-0000: drive d-alert alerted at hour 0" in text
        assert "model generation: 0" in text
        assert "voting window (oldest first): [FAIL]" in text
        assert "decision path:" in text
        assert "leaf node" in text

    def test_explain_unknown_alert_lists_known_ids(self, tmp_path, capsys):
        path = self._write_scenario(tmp_path, "compiled")
        assert events_cli(["explain", str(path), "alert-9999"]) == 1
        err = capsys.readouterr().err
        assert "alert-9999" in err and "alert-0000" in err

    def test_slo_reports_burn_status(self, tmp_path, capsys):
        path = self._write_scenario(tmp_path, "compiled")
        assert events_cli(["slo", str(path)]) == 0
        out = capsys.readouterr().out
        assert "SLO status" in out
        assert "fdr" in out and "far" in out and "lead_time" in out
        # One detection with 72h lead: nothing burns.
        assert "BURNING" not in out

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert events_cli(["tail", str(tmp_path / "absent.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def _write_shard_logs(self, tmp_path):
        """Two per-shard logs whose fleet hours interleave."""
        left = tmp_path / "shard-0.jsonl"
        right = tmp_path / "shard-1.jsonl"
        write_events(left, [
            Event(seq=0, type="sample_scored", drive="a", hour=0.0,
                  data={"score": 1.0}),
            Event(seq=1, type="sample_scored", drive="c", hour=2.0,
                  data={"score": 1.0}),
        ])
        write_events(right, [
            Event(seq=0, type="sample_scored", drive="b", hour=1.0,
                  data={"score": -1.0}),
        ])
        return left, right

    def test_tail_merges_multiple_logs_in_fleet_time(self, tmp_path, capsys):
        left, right = self._write_shard_logs(tmp_path)
        assert events_cli(["tail", str(left), str(right), "-n", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[2] for line in lines] == ["a", "b", "c"]

    def test_query_spans_multiple_logs(self, tmp_path, capsys):
        left, right = self._write_shard_logs(tmp_path)
        assert events_cli([
            "query", str(left), str(right), "--type", "sample_scored",
        ]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_explain_finds_alert_across_merged_logs(self, tmp_path, capsys):
        # Satellite: the alert lives in one shard's log; explain must
        # accept several logs and resolve it from the merged stream,
        # rendering exactly what the single-log invocation renders.
        scenario = self._write_scenario(tmp_path, "compiled")
        assert events_cli(["explain", str(scenario), "alert-0000"]) == 0
        single = capsys.readouterr().out
        other, _ = self._write_shard_logs(tmp_path)  # no alerts in here
        assert events_cli(
            ["explain", str(other), str(scenario), "alert-0000"]
        ) == 0
        assert capsys.readouterr().out == single

    def test_slo_replays_outcomes_from_every_log(self, tmp_path, capsys):
        first = self._write_scenario(tmp_path, "compiled")
        second = self._write_scenario(tmp_path, "node")
        assert events_cli(["slo", str(first), str(second)]) == 0
        out = capsys.readouterr().out
        assert "SLO status" in out
        assert events_cli([
            "query", str(first), str(second), "--type", "outcome_resolved",
        ]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2


class TestMergeEventStreams:
    """Satellite: the deterministic multi-log merge behind the CLI."""

    def test_orders_by_hour_then_log_position_then_seq(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_events(a, [
            Event(seq=0, type="sample_scored", drive="a0", hour=0.0),
            Event(seq=1, type="sample_scored", drive="a1", hour=2.0),
        ])
        write_events(b, [
            Event(seq=0, type="sample_scored", drive="b0", hour=0.0),
            Event(seq=1, type="sample_scored", drive="b1", hour=1.0),
        ])
        merged = merge_event_streams([a, b])
        assert [e.drive for e in merged] == ["a0", "b0", "b1", "a1"]
        # Swapping the command-line order breaks hour ties the other way.
        merged = merge_event_streams([b, a])
        assert [e.drive for e in merged] == ["b0", "a0", "b1", "a1"]

    def test_hourless_events_inherit_their_logs_previous_hour(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_events(a, [
            Event(seq=0, type="run_completed"),  # leading: sorts first
            Event(seq=1, type="sample_scored", drive="a0", hour=5.0),
            Event(seq=2, type="run_completed", data={"mark": "after-5"}),
        ])
        write_events(b, [
            Event(seq=0, type="sample_scored", drive="b0", hour=1.0),
            Event(seq=1, type="sample_scored", drive="b1", hour=9.0),
        ])
        merged = merge_event_streams([a, b])
        assert [e.type for e in merged] == [
            "run_completed",        # no hour yet: before all fleet time
            "sample_scored",        # b0 @ 1
            "sample_scored",        # a0 @ 5
            "run_completed",        # carries hour 5 from its own log
            "sample_scored",        # b1 @ 9
        ]
        assert merged[3].data == {"mark": "after-5"}

    def test_single_log_merge_is_the_identity(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_events(path, [
            Event(seq=0, type="sample_scored", drive="x", hour=3.0),
            Event(seq=1, type="run_completed"),
        ])
        assert merge_event_streams([path]) == read_events(path)

    def test_preserves_per_log_sequence_numbers(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_events(a, [Event(seq=7, type="sample_scored", hour=0.0)])
        write_events(b, [Event(seq=7, type="sample_scored", hour=0.0)])
        assert [e.seq for e in merge_event_streams([a, b])] == [7, 7]


class TestRunnerIntegration:
    def test_events_out_writes_replayable_log(self, tmp_path, capsys):
        from repro.experiments.runner import main as runner_main

        events_path = tmp_path / "run-events.jsonl"
        code = runner_main([
            "--tiny", "--experiments", "fig12",
            "--events-out", str(events_path),
        ])
        assert code == 0
        assert f"events written to {events_path}" in capsys.readouterr().out
        events = read_events(events_path)
        (completed,) = [e for e in events if e.type == "run_completed"]
        assert completed.data["experiments"] == ["fig12"]
        assert completed.data["n_cells"] == 1
        assert "checkpoint_id" not in completed.data
        # The global log is restored afterwards.
        assert obs.get_event_log().enabled is False

    def test_metrics_out_merges_on_second_run(self, tmp_path, capsys):
        from repro.experiments.runner import main as runner_main

        metrics_path = tmp_path / "metrics.json"
        for expected_action in ("written", "merged"):
            code = runner_main([
                "--tiny", "--experiments", "fig12",
                "--metrics-out", str(metrics_path),
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert f"metrics {expected_action}: {metrics_path}" in out
        assert not (tmp_path / "metrics.1.json").exists()

    def test_grid_run_records_checkpoint_id(self, tmp_path):
        from repro.experiments.runner import main as runner_main

        events_path = tmp_path / "grid-events.jsonl"
        checkpoint = tmp_path / "grid.json"
        code = runner_main([
            "--tiny", "--experiments", "fig12",
            "--checkpoint", str(checkpoint),
            "--events-out", str(events_path),
        ])
        assert code == 0
        (completed,) = [
            e for e in read_events(events_path) if e.type == "run_completed"
        ]
        assert completed.data["checkpoint_id"] == "experiment-grid:grid.json"
        assert completed.data["n_cached"] == 0
