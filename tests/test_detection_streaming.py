"""Tests for the streaming monitor, including offline equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.errors import FaultKind

from repro.core.config import CTConfig
from repro.core.predictor import DriveFailurePredictor
from repro.detection.columnar import MajorityVoteMatrix, MeanThresholdMatrix
from repro.detection.streaming import (
    Alert,
    DriveStatus,
    FleetMonitor,
    QuarantinePolicy,
    VoterSpec,
)
from repro.detection.voting import MajorityVoteDetector, MeanThresholdDetector
from repro.features.selection import critical_features
from repro.features.vectorize import Feature
from repro.smart.attributes import N_CHANNELS, channel_index


def _feature_rows(features, ticks, serial="d"):
    """The monitor's online feature row after each ``(hour, values)`` tick."""
    monitor = FleetMonitor(
        features, score_sample=lambda row: 1.0,
        detector_factory=VoterSpec("majority", 1), quarantine=None,
    )
    rows = []
    for hour, values in ticks:
        monitor.observe(serial, hour, values)
        rows.append(monitor._last_rows[monitor._row[serial]].copy())
    return rows


def _strict_monitor(features):
    return FleetMonitor(
        features, score_sample=lambda row: 1.0,
        detector_factory=VoterSpec("majority", 1), quarantine=None,
    )


class TestOnlineFeatureBuffer:
    """Incremental value and change-rate features of the monitor."""

    def test_value_features_pass_through(self):
        values = np.ones(N_CHANNELS)
        values[channel_index("POH")] = 42.0
        [row] = _feature_rows([Feature("POH")], [(0.0, values)])
        assert row[0] == 42.0

    def test_change_rate_needs_lag_history(self):
        base = np.zeros(N_CHANNELS)
        rows = _feature_rows(
            [Feature("RRER", 2.0)],
            [(0.0, base), (1.0, base + 1.0), (2.0, base + 4.0)],
        )
        assert np.isnan(rows[0][0]) and np.isnan(rows[1][0])
        assert rows[2][0] == pytest.approx(2.0)  # (4 - 0) / 2

    def test_gap_in_history_yields_nan(self):
        rows = _feature_rows(
            [Feature("RRER", 2.0)],
            [(0.0, np.zeros(N_CHANNELS)), (3.0, np.ones(N_CHANNELS))],
        )
        assert np.isnan(rows[1][0])  # lag hour 1 never seen

    def test_non_increasing_hours_rejected(self):
        monitor = _strict_monitor([Feature("POH")])
        monitor.observe("d", 5.0, np.zeros(N_CHANNELS))
        with pytest.raises(ValueError, match="duplicate-time"):
            monitor.observe("d", 5.0, np.zeros(N_CHANNELS))
        with pytest.raises(ValueError, match="out-of-order"):
            monitor.observe("d", 4.0, np.zeros(N_CHANNELS))

    def test_wrong_shape_rejected(self):
        monitor = _strict_monitor([Feature("POH")])
        with pytest.raises(ValueError, match="wrong-shape"):
            monitor.observe("d", 0.0, np.zeros(3))

    def test_matches_offline_extractor(self, tiny_fleet):
        from repro.features.vectorize import FeatureExtractor

        features = critical_features()
        for drive in (tiny_fleet.good_drives[0], tiny_fleet.failed_drives[0]):
            offline = FeatureExtractor(features).extract(drive)
            online = _feature_rows(
                features, zip(drive.hours, drive.values), drive.serial
            )
            for index, row in enumerate(online):
                np.testing.assert_allclose(
                    row, offline[index], equal_nan=True,
                    err_msg=f"divergence at sample {index}",
                )

    def test_fleet_tick_rows_match_per_drive_rows(self, tiny_fleet):
        drives = tiny_fleet.good_drives[:3]
        features = critical_features()
        monitor = FleetMonitor(
            features, score_sample=lambda row: 1.0,
            detector_factory=VoterSpec("majority", 1),
        )
        serials = [drive.serial for drive in drives]
        monitor.register_fleet(serials)
        n_ticks = min(len(drive.hours) for drive in drives)
        for tick in range(n_ticks):
            # a shared clock per tick; each drive keeps its own readings
            monitor.observe_tick(
                float(tick), np.stack([drive.values[tick] for drive in drives])
            )
        for drive in drives:
            expected = _feature_rows(
                features,
                [(float(t), drive.values[t]) for t in range(n_ticks)],
                drive.serial,
            )[-1]
            got = monitor._last_rows[monitor._row[drive.serial]]
            np.testing.assert_array_equal(got, expected)


def _first_alarm(voter, series):
    """Index of a one-row matrix voter's first alarm, the offline way.

    Streams ``series`` through row 0; a history that never filled the
    window is judged once at its end (the short-history flush), like
    ``first_alarm`` on the offline detectors.
    """
    rows = np.array([0])
    for index, score in enumerate(series):
        if voter.push(rows, np.array([score]))[0]:
            return index
    return len(series) - 1 if voter.flush(0) else None


def _push(voter, score):
    return bool(voter.push(np.array([0]), np.array([score]))[0])


class TestOnlineDetectors:
    @given(
        st.lists(st.sampled_from([1.0, -1.0, float("nan")]), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=13),
    )
    @settings(max_examples=60, deadline=None)
    def test_majority_vote_matches_offline(self, scores, n_voters):
        series = np.array(scores)
        offline = MajorityVoteDetector(n_voters=n_voters).first_alarm(series)
        online = MajorityVoteMatrix(n_voters, -1.0, 1)
        assert _first_alarm(online, series) == offline

    @given(
        st.lists(
            st.floats(min_value=-1, max_value=1, allow_nan=False),
            min_size=1, max_size=60,
        ),
        st.integers(min_value=1, max_value=13),
        st.floats(min_value=-0.9, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_mean_threshold_matches_offline(self, scores, n_voters, threshold):
        series = np.array(scores)
        offline = MeanThresholdDetector(
            n_voters=n_voters, threshold=threshold
        ).first_alarm(series)
        online = MeanThresholdMatrix(n_voters, threshold, 1)
        assert _first_alarm(online, series) == offline

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=-1, max_value=1, allow_nan=False),
                st.just(float("nan")),
            ),
            min_size=1, max_size=60,
        ),
        st.integers(min_value=1, max_value=13),
        st.floats(min_value=-0.9, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_mean_threshold_matches_offline_with_gaps(
        self, scores, n_voters, threshold
    ):
        # Gap-ridden health streams: NaN samples occupy window slots but
        # are excluded from the mean, exactly like the offline rule.
        series = np.array(scores)
        offline = MeanThresholdDetector(
            n_voters=n_voters, threshold=threshold
        ).first_alarm(series)
        online = MeanThresholdMatrix(n_voters, threshold, 1)
        assert _first_alarm(online, series) == offline


class TestShortHistoryProperties:
    """The short-history flush on shorter-than-window, gap-ridden streams."""

    short_majority_streams = st.lists(
        st.sampled_from([1.0, -1.0, float("nan")]), min_size=1, max_size=12
    )

    @given(short_majority_streams, st.integers(min_value=1, max_value=10))
    @settings(max_examples=80, deadline=None)
    def test_majority_flush_is_strict_majority_of_failed(self, scores, extra):
        n_voters = len(scores) + extra  # guaranteed shorter than the window
        online = MajorityVoteMatrix(n_voters, -1.0, 1)
        for score in scores:
            assert _push(online, score) is False  # window can never fill
        failed = sum(1 for s in scores if np.isfinite(s) and s == -1.0)
        assert online.flush(0) == (failed > len(scores) / 2.0)

    @given(short_majority_streams, st.integers(min_value=1, max_value=10))
    @settings(max_examples=80, deadline=None)
    def test_majority_gaps_never_create_flush_alarms(self, scores, extra):
        # A NaN occupies a slot without voting, so inserting gaps can
        # only make the strict-majority bar harder to clear.
        n_voters = len(scores) + extra + len(scores) + 1
        with_gaps = MajorityVoteMatrix(n_voters, -1.0, 1)
        for score in scores:
            _push(with_gaps, score)
            _push(with_gaps, float("nan"))
        without_gaps = MajorityVoteMatrix(n_voters, -1.0, 1)
        for score in scores:
            _push(without_gaps, score)
        if with_gaps.flush(0):
            assert without_gaps.flush(0)

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=-1, max_value=1, allow_nan=False),
                st.just(float("nan")),
            ),
            min_size=1, max_size=12,
        ),
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=-0.9, max_value=0.9),
    )
    @settings(max_examples=80, deadline=None)
    def test_mean_flush_is_nanmean_rule(self, scores, extra, threshold):
        n_voters = len(scores) + extra
        online = MeanThresholdMatrix(n_voters, threshold, 1)
        for score in scores:
            assert _push(online, score) is False
        finite = [s for s in scores if np.isfinite(s)]
        expected = bool(finite) and float(np.mean(finite)) < threshold
        assert online.flush(0) == expected

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=13))
    @settings(max_examples=40, deadline=None)
    def test_all_gap_stream_never_alarms(self, n_samples, n_voters):
        majority = MajorityVoteMatrix(n_voters, -1.0, 1)
        mean = MeanThresholdMatrix(n_voters, 0.5, 1)
        for _ in range(n_samples):
            assert _push(majority, float("nan")) is False
            assert _push(mean, float("nan")) is False
        assert majority.flush(0) is False
        assert mean.flush(0) is False

    @given(short_majority_streams, st.integers(min_value=1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_flush_disabled_once_window_fills(self, scores, n_voters):
        # The flush judges *only* short histories; a filled window must
        # never re-judge the tail.
        majority = MajorityVoteMatrix(n_voters, -1.0, 1)
        mean = MeanThresholdMatrix(n_voters, 0.5, 1)
        for score in list(scores) + [-1.0] * n_voters:
            _push(majority, score)
            _push(mean, score)
        assert majority.flush(0) is False
        assert mean.flush(0) is False


class TestFleetMonitor:
    def test_streaming_replay_matches_offline_pipeline(self, tiny_split):
        """The headline equivalence: replaying drives sample-by-sample
        through the FleetMonitor alarms on exactly the drives the offline
        evaluation alarms on."""
        ct = DriveFailurePredictor(CTConfig(minsplit=4, minbucket=2, cp=0.002))
        ct.fit(tiny_split)
        n_voters = 3
        drives = list(tiny_split.test_good)[:20] + list(tiny_split.test_failed)

        offline_detector = MajorityVoteDetector(n_voters=n_voters)
        offline_alarmed = {
            series.serial
            for series in ct.score_drives(drives)
            if offline_detector.first_alarm(series.scores) is not None
        }

        monitor = FleetMonitor(
            ct.extractor.features,
            score_sample=lambda row: float(ct.tree_.predict(row.reshape(1, -1))[0]),
            detector_factory=VoterSpec("majority", n_voters),
        )
        for drive in drives:
            for hour, values in zip(drive.hours, drive.values):
                monitor.observe(drive.serial, hour, values)
        monitor.finalize()
        online_alarmed = {alert.serial for alert in monitor.alerts}
        assert online_alarmed == offline_alarmed

    def test_one_alert_per_drive(self):
        monitor = FleetMonitor(
            [Feature("POH")],
            score_sample=lambda row: -1.0,
            detector_factory=VoterSpec("majority", 1),
        )
        values = np.ones(N_CHANNELS)
        first = monitor.observe("d", 0.0, values)
        second = monitor.observe("d", 1.0, values)
        assert isinstance(first, Alert)
        assert second is None
        assert len(monitor.alerts) == 1

    def test_watched_drives(self):
        monitor = FleetMonitor(
            [Feature("POH")],
            score_sample=lambda row: 1.0,
            detector_factory=VoterSpec("majority", 1),
        )
        monitor.observe("b", 0.0, np.ones(N_CHANNELS))
        monitor.observe("a", 0.0, np.ones(N_CHANNELS))
        assert monitor.watched_drives() == ["a", "b"]

    def test_all_nan_record_scored_without_model_call(self):
        calls = []

        def scorer(row):
            calls.append(row)
            return -1.0

        monitor = FleetMonitor(
            [Feature("POH")],
            score_sample=scorer,
            detector_factory=VoterSpec("majority", 1),
        )
        monitor.observe("d", 0.0, np.full(N_CHANNELS, np.nan))
        assert calls == []


class TestQuarantine:
    def _monitor(self, **kwargs):
        return FleetMonitor(
            [Feature("POH")],
            score_sample=lambda row: -1.0,
            detector_factory=VoterSpec("majority", 1),
            **kwargs,
        )

    def test_malformed_ticks_counted_and_excluded(self):
        monitor = self._monitor()
        values = np.ones(N_CHANNELS)
        monitor.observe("d", 2.0, values)
        assert monitor.observe("d", 2.0, values) is None  # duplicate
        assert monitor.observe("d", 1.0, values) is None  # out of order
        assert monitor.observe("d", np.nan, values) is None  # bad timestamp
        assert monitor.observe("d", 3.0, np.ones(3)) is None  # wrong shape
        assert monitor.fault_counts() == {"d": 4}
        kinds = [fault.kind for fault in monitor.faults]
        assert kinds == [
            FaultKind.DUPLICATE_TIME,
            FaultKind.OUT_OF_ORDER,
            FaultKind.NON_FINITE_TIME,
            FaultKind.WRONG_SHAPE,
        ]

    def test_drive_degrades_past_fault_limit_and_stops_alerting(self):
        monitor = FleetMonitor(
            [Feature("POH")],
            score_sample=lambda row: 1.0,  # healthy until we flip it
            detector_factory=VoterSpec("majority", 1),
            quarantine=QuarantinePolicy(fault_limit=2),
        )
        values = np.ones(N_CHANNELS)
        monitor.observe("d", 0.0, values)
        for _ in range(3):  # three duplicates > fault_limit=2
            monitor.observe("d", 0.0, values)
        assert monitor.drive_status("d") is DriveStatus.DEGRADED
        assert monitor.degraded_drives() == ["d"]
        # A clean, would-be-alarming tick must not page for a
        # quarantined drive.
        monitor.score_sample = lambda row: -1.0
        assert monitor.observe("d", 1.0, values) is None
        assert monitor.alerts == []

    def test_ok_drives_unaffected_by_neighbour_quarantine(self):
        monitor = self._monitor(quarantine=QuarantinePolicy(fault_limit=0))
        values = np.ones(N_CHANNELS)
        monitor.observe("bad", 1.0, values)
        monitor.observe("bad", 1.0, values)  # degrades immediately
        alert = monitor.observe("good", 1.0, values)
        assert monitor.degraded_drives() == ["bad"]
        assert isinstance(alert, Alert)
        assert monitor.drive_status("good") is DriveStatus.OK

    def test_strict_mode_raises_on_malformed_tick(self):
        monitor = self._monitor(quarantine=None)
        values = np.ones(N_CHANNELS)
        monitor.observe("d", 1.0, values)
        with pytest.raises(ValueError, match="out-of-order"):
            monitor.observe("d", 0.5, values)

    def test_finalize_skips_degraded_drives(self):
        monitor = FleetMonitor(
            [Feature("POH")],
            score_sample=lambda row: -1.0,
            detector_factory=VoterSpec("majority", 5),
            quarantine=QuarantinePolicy(fault_limit=0),
        )
        values = np.ones(N_CHANNELS)
        monitor.observe("d", 1.0, values)
        monitor.observe("d", 1.0, values)  # degrade
        assert monitor.finalize() == []

    def test_health_report_summarises_faults(self):
        monitor = self._monitor(quarantine=QuarantinePolicy(fault_limit=1))
        values = np.ones(N_CHANNELS)
        monitor.observe("d", 1.0, values)
        monitor.observe("d", 1.0, values)
        monitor.observe("d", 0.5, values)
        report = monitor.health_report()
        assert report["watched_drives"] == 1
        assert report["faults_total"] == 2
        assert report["faults_by_kind"] == {
            "duplicate-time": 1, "out-of-order": 1,
        }
        assert report["degraded_drives"] == ["d"]

    def test_observe_fleet_routes_through_the_gate(self):
        monitor = FleetMonitor(
            [Feature("POH")],
            score_sample=lambda row: -1.0,
            detector_factory=VoterSpec("majority", 1),
            score_batch=lambda rows: -np.ones(rows.shape[0]),
        )
        values = np.ones(N_CHANNELS)
        monitor.observe_fleet(1.0, {"a": values, "b": values})
        alerts = monitor.observe_fleet(1.0, {"a": values, "b": np.ones(3)})
        assert alerts == []  # a: duplicate hour; b: wrong shape
        assert monitor.fault_counts() == {"a": 1, "b": 1}
