"""Tests for the top-failing-subtrees explain report.

The contract under test:

* folding ``alert_raised`` decision paths attributes every step to its
  heap node id, with training statistics carried over and alert shares
  per model generation;
* the ``outcome_resolved`` join attributes per-subtree precision via
  ``alert_id`` (exact) or drive serial (legacy fallback), and alerts
  without ground truth count as ``unresolved`` — they can never skew a
  subtree's precision;
* (hypothesis) reports aggregated under ``backend="compiled"`` and
  ``backend="node"`` path extraction are identical, and a report
  replayed from a torn-tail-tolerant log matches the live run
  byte-for-byte;
* multi-log merges fold exactly like the equivalent single stream.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability as obs
from repro.detection.streaming import (
    FleetMonitor,
    QuarantinePolicy,
    VoterSpec,
)
from repro.explain import (
    EXPLAIN_REPORT_SCHEMA,
    build_explain_report,
    canonical_json,
    explain_report_from_logs,
    render_explain_report,
)
from repro.features.selection import basic_features
from repro.observability.events import (
    Event,
    EventLog,
    set_event_log,
    write_events,
)
from repro.smart.attributes import N_CHANNELS
from repro.tree import ClassificationTree
from repro.utils.errors import TornEventLogWarning


@pytest.fixture(autouse=True)
def _restore_instruments():
    yield
    obs.disable()


@functools.lru_cache(maxsize=4)
def _fit_tree(backend: str, seed: int = 0) -> ClassificationTree:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, N_CHANNELS))
    X[rng.random(X.shape) < 0.1] = np.nan
    y = np.where(np.nansum(X[:, :3], axis=1) > 0, 1, -1)
    return ClassificationTree(
        minsplit=8, minbucket=3, cp=0.001, n_surrogates=2, backend=backend
    ).fit(X, y)


def _alerting_monitor(tree) -> FleetMonitor:
    return FleetMonitor(
        basic_features(),
        score_sample=lambda row: -1.0,
        detector_factory=VoterSpec("majority", 1),
        quarantine=QuarantinePolicy(fault_limit=0),
        tree=tree,
    )


def _run_fleet(tree, rows: np.ndarray) -> EventLog:
    """Alert every drive on its own sample row; resolve half the fleet."""
    log = EventLog()
    set_event_log(log)
    monitor = _alerting_monitor(tree)
    for index, row in enumerate(rows):
        monitor.observe(f"d{index:03d}", 0.0, row)
    for index in range(len(rows)):
        if index % 4 == 0:
            monitor.resolve_outcome(f"d{index:03d}", True, failure_hour=9.0)
        elif index % 4 == 1:
            monitor.resolve_outcome(f"d{index:03d}", False, hour=9.0)
        # index % 4 in (2, 3): unresolved on purpose
    set_event_log(None)
    return log


def _alert_event(
    seq: int,
    drive: str,
    alert_id: str,
    steps: list[dict],
    generation: int = 0,
) -> Event:
    return Event(
        seq=seq, type="alert_raised", drive=drive, hour=0.0,
        data={
            "alert_id": alert_id, "score": -1.0,
            "model_generation": generation, "path": steps,
        },
    )


#: A two-step path: root split right, then the leaf (heap ids 1 -> 3).
_RIGHT_PATH = [
    {"feature": 0, "threshold": 0.5, "value": 1.0, "went_left": False,
     "n_samples": 10, "prediction": 1.0, "impurity": 0.9},
    {"leaf": True, "node_id": 3, "n_samples": 4, "prediction": -1.0,
     "impurity": 0.2},
]


class TestReportFolding:
    def test_schema_tag_and_counts(self):
        tree = _fit_tree("compiled")
        rng = np.random.default_rng(1)
        log = _run_fleet(tree, rng.normal(size=(8, N_CHANNELS)))
        report = build_explain_report(log.events)
        assert report["schema"] == EXPLAIN_REPORT_SCHEMA
        assert report["alerts_total"] == 8
        assert report["alerts_with_path"] == 8
        assert report["alerts_resolved"] == 4
        assert report["alerts_unresolved"] == 4

    def test_root_carries_every_explained_alert(self):
        tree = _fit_tree("compiled")
        rng = np.random.default_rng(2)
        log = _run_fleet(tree, rng.normal(size=(6, N_CHANNELS)))
        report = build_explain_report(log.events)
        (section,) = report["generations"]
        root = next(n for n in section["nodes"] if n["node_id"] == 1)
        assert root["alerts"] == 6
        assert root["alert_share"] == 1.0
        assert root["depth"] == 0
        assert root["leaf"] is False

    def test_node_ids_derived_without_recorded_internal_ids(self):
        # Logs written before steps carried node_id must fold the same:
        # ids come from the went_left chain.
        legacy = [
            {k: v for k, v in step.items() if k != "node_id"}
            for step in _RIGHT_PATH
        ]
        legacy[-1]["node_id"] = 3  # the leaf always recorded its id
        report = build_explain_report(
            [_alert_event(0, "d1", "alert-0000", legacy)]
        )
        ids = [n["node_id"] for n in report["generations"][0]["nodes"]]
        assert ids == [1, 3]

    def test_generations_fold_separately_and_top_limits_nodes(self):
        events = [
            _alert_event(0, "d1", "alert-0000", _RIGHT_PATH, generation=0),
            _alert_event(1, "d2", "alert-0001", _RIGHT_PATH, generation=1),
            _alert_event(2, "d3", "alert-0002", _RIGHT_PATH, generation=1),
        ]
        report = build_explain_report(events, top=1)
        assert [s["model_generation"] for s in report["generations"]] == [0, 1]
        assert [s["alerts"] for s in report["generations"]] == [1, 2]
        for section in report["generations"]:
            assert len(section["nodes"]) == 1  # top=1 kept only the root

    def test_alert_without_path_counts_but_does_not_fold(self):
        bare = Event(
            seq=0, type="alert_raised", drive="d1", hour=0.0,
            data={"alert_id": "alert-0000", "score": -1.0,
                  "model_generation": 0},
        )
        report = build_explain_report([bare])
        assert report["alerts_total"] == 1
        assert report["alerts_with_path"] == 0
        assert report["generations"] == []

    def test_render_mentions_schema_and_nodes(self):
        report = build_explain_report(
            [_alert_event(0, "d1", "alert-0000", _RIGHT_PATH)]
        )
        lines = render_explain_report(report)
        assert EXPLAIN_REPORT_SCHEMA in lines[0]
        assert any("node 1" in line for line in lines)


class TestOutcomeJoin:
    def test_alert_id_join_attributes_precision(self):
        events = [
            _alert_event(0, "d1", "alert-0000", _RIGHT_PATH),
            _alert_event(1, "d2", "alert-0001", _RIGHT_PATH),
            Event(seq=2, type="outcome_resolved", drive="d1", hour=5.0,
                  data={"outcome": "detected", "alert_id": "alert-0000"}),
            Event(seq=3, type="outcome_resolved", drive="d2", hour=5.0,
                  data={"outcome": "false_alarm", "alert_id": "alert-0001"}),
        ]
        report = build_explain_report(events)
        root = report["generations"][0]["nodes"][0]
        assert root["outcomes"] == {"detected": 1, "false_alarm": 1}
        assert root["precision"] == 0.5

    def test_drive_fallback_join_for_legacy_logs(self):
        events = [
            _alert_event(0, "d1", "alert-0000", _RIGHT_PATH),
            Event(seq=1, type="outcome_resolved", drive="d1", hour=5.0,
                  data={"outcome": "detected"}),  # no alert_id recorded
        ]
        report = build_explain_report(events)
        root = report["generations"][0]["nodes"][0]
        assert root["outcomes"] == {"detected": 1}
        assert root["precision"] == 1.0

    def test_unresolved_alerts_never_skew_precision(self):
        # Two alerts through the same subtree; only one resolved.  The
        # unresolved one must not enter the precision denominator.
        events = [
            _alert_event(0, "d1", "alert-0000", _RIGHT_PATH),
            _alert_event(1, "d2", "alert-0001", _RIGHT_PATH),
            Event(seq=2, type="outcome_resolved", drive="d1", hour=5.0,
                  data={"outcome": "detected", "alert_id": "alert-0000"}),
        ]
        report = build_explain_report(events)
        root = report["generations"][0]["nodes"][0]
        assert root["alerts"] == 2
        assert root["outcomes"] == {"detected": 1, "unresolved": 1}
        assert root["precision"] == 1.0  # 1/1 resolved, not 1/2

    def test_fully_unresolved_subtree_has_null_precision(self):
        report = build_explain_report(
            [_alert_event(0, "d1", "alert-0000", _RIGHT_PATH)]
        )
        root = report["generations"][0]["nodes"][0]
        assert root["precision"] is None
        assert report["alerts_unresolved"] == 1

    def test_live_resolve_outcome_carries_alert_id(self):
        tree = _fit_tree("compiled")
        log = EventLog()
        set_event_log(log)
        monitor = _alerting_monitor(tree)
        monitor.observe("d-hit", 0.0, np.ones(N_CHANNELS))
        monitor.resolve_outcome("d-hit", True, failure_hour=8.0)
        monitor.resolve_outcome("d-unseen", True)  # missed: no alert id
        set_event_log(None)
        resolved = log.by_type("outcome_resolved")
        assert resolved[0].data["alert_id"] == "alert-0000"
        assert "alert_id" not in resolved[1].data


class TestBackendAndReplayParity:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_report_identical_under_compiled_and_node_paths(self, seed):
        compiled, node = _fit_tree("compiled", seed=7), _fit_tree("node", seed=7)
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(5, N_CHANNELS))
        rows[rng.random(rows.shape) < 0.2] = np.nan
        reports = [
            canonical_json(build_explain_report(_run_fleet(tree, rows).events))
            for tree in (compiled, node)
        ]
        assert reports[0] == reports[1]

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_torn_tail_replay_matches_live_run(self, tmp_path_factory, seed):
        tree = _fit_tree("compiled")
        rng = np.random.default_rng(seed)
        log = _run_fleet(tree, rng.normal(size=(4, N_CHANNELS)))
        live = canonical_json(build_explain_report(log.events))
        tmp = tmp_path_factory.mktemp("explain-torn")
        path = tmp / f"events-{seed}.jsonl"
        write_events(path, log.events)
        with path.open("a") as handle:
            handle.write('{"seq": 9999, "type": "alert_ra')  # torn append
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TornEventLogWarning)
            replayed = explain_report_from_logs([path], tolerant=True)
        assert canonical_json(replayed) == live


class TestMultiLogFolding:
    def test_merged_logs_fold_like_one_stream(self, tmp_path):
        tree = _fit_tree("compiled")
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(6, N_CHANNELS))
        combined = _run_fleet(tree, rows)
        live = canonical_json(build_explain_report(combined.events))
        # Split the stream across two logs (even/odd events by position);
        # the hour-ordered merge must rebuild the same report.
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_events(first, combined.events[0::2])
        write_events(second, combined.events[1::2])
        merged = explain_report_from_logs([first, second])
        assert canonical_json(merged) == live
