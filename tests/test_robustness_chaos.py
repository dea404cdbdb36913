"""Chaos end-to-end suite: every built-in fault profile, whole pipeline.

For each profile the corrupted fleet is driven through fit, batch
scoring, streaming replay and weekly retraining, asserting (a) no
unhandled exception anywhere, (b) quarantined drives are *reported*
rather than silently mis-scored, and (c) detection quality degrades by
at most a bounded margin under the profiles' <=10% corruption budget
(the budget itself is asserted in ``test_robustness_faults.py``).

When ``REPRO_CHAOS_REPORT_JSON`` names a path, the per-profile outcomes
are written there as JSON so CI can archive the chaos numbers alongside
the pass/fail signal.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import CTConfig, SamplingConfig
from repro.core.predictor import DriveFailurePredictor
from repro.detection.streaming import (
    DriveStatus,
    FleetMonitor,
    QuarantinePolicy,
    VoterSpec,
)
from repro.robustness import (
    BUILTIN_PROFILES,
    CHAOS_REPORT_SCHEMA,
    dataset_events,
    inject_dataset,
    inject_stream,
    replay_stream,
)
from repro.smart.dataset import SmartDataset, TrainTestSplit
from repro.updating.simulator import simulate_updating
from repro.smart.attributes import N_CHANNELS
from repro.updating.strategies import FixedStrategy
from tests.serving_digest import build_single, build_supervised, run_digest, sigkill

PROFILES = list(BUILTIN_PROFILES)

#: Bounded-degradation margins under the <=10% corruption budget.
#: FDR may drop by at most this much relative to the clean baseline...
FDR_MARGIN = 0.34
#: ...and FAR may rise by at most this much.
FAR_MARGIN = 0.15

N_VOTERS = 3


@pytest.fixture(scope="module")
def chaos_config() -> CTConfig:
    return CTConfig(
        minsplit=4,
        minbucket=2,
        cp=0.001,
        sampling=SamplingConfig(failed_window_hours=168.0, good_samples_per_drive=3),
    )


@pytest.fixture(scope="module")
def chaos_split(tiny_fleet) -> TrainTestSplit:
    """Both families: more failed test drives than the family-W split."""
    return tiny_fleet.split(seed=9)


@pytest.fixture(scope="module")
def clean_predictor(chaos_split, chaos_config) -> DriveFailurePredictor:
    return DriveFailurePredictor(chaos_config).fit(chaos_split)


@pytest.fixture(scope="module")
def clean_result(clean_predictor, chaos_split):
    return clean_predictor.evaluate(chaos_split, n_voters=N_VOTERS)


@pytest.fixture(scope="module")
def chaos_report():
    """Per-profile outcome collector, persisted as the CI artifact."""
    report: dict = {
        "schema": CHAOS_REPORT_SCHEMA,
        "margins": {"fdr": FDR_MARGIN, "far": FAR_MARGIN},
        "profiles": {name: {} for name in PROFILES},
    }
    yield report
    target = os.environ.get("REPRO_CHAOS_REPORT_JSON")
    if target:
        Path(target).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


def _corrupt_split(split: TrainTestSplit, profile: str, seed: int) -> TrainTestSplit:
    """Inject each split component separately.

    Good drives appear in both train and test as different time slices
    of the same serial, so components must not be pooled into one
    dataset (the per-serial corruption streams would collapse them).
    """

    def inject(drives):
        return tuple(
            inject_dataset(SmartDataset(list(drives)), profile, seed=seed).drives
        )

    return TrainTestSplit(
        train_good=inject(split.train_good),
        test_good=inject(split.test_good),
        train_failed=inject(split.train_failed),
        test_failed=inject(split.test_failed),
    )


class TestChaosEndToEnd:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_fit_and_score_degrade_boundedly(
        self, chaos_split, chaos_config, clean_result, chaos_report, profile
    ):
        """Fit on the corrupted fleet, evaluate on the corrupted fleet."""
        dirty = _corrupt_split(chaos_split, profile, seed=17)
        result = DriveFailurePredictor(chaos_config).fit(dirty).evaluate(
            dirty, n_voters=N_VOTERS
        )
        assert 0.0 <= result.fdr <= 1.0
        assert 0.0 <= result.far <= 1.0
        assert result.fdr >= clean_result.fdr - FDR_MARGIN
        assert result.far <= clean_result.far + FAR_MARGIN
        chaos_report["profiles"][profile]["batch"] = {
            "fdr": result.fdr,
            "far": result.far,
            "clean_fdr": clean_result.fdr,
            "clean_far": clean_result.far,
        }

    @pytest.mark.parametrize("profile", PROFILES)
    def test_streaming_replay_survives(
        self, chaos_split, clean_predictor, chaos_report, profile
    ):
        """A clean-fitted model serves a corrupted live feed."""
        ct = clean_predictor
        test_drives = list(chaos_split.test_good) + list(chaos_split.test_failed)
        events = inject_stream(
            dataset_events(SmartDataset(test_drives)), profile, seed=17
        )
        monitor = FleetMonitor(
            ct.extractor.features,
            score_sample=lambda row: float(ct.tree_.predict(row.reshape(1, -1))[0]),
            detector_factory=VoterSpec("majority", N_VOTERS),
            quarantine=QuarantinePolicy(fault_limit=3),
        )
        alerts = replay_stream(monitor, events)
        health = monitor.health_report()

        assert health["faults_total"] == sum(health["faults_by_kind"].values())
        assert health["faults_total"] == len(monitor.faults)
        assert len(alerts) == health["alerts"]
        if profile == "clean":
            assert health["faults_total"] == 0
        if profile == "dirty-feed":
            # Ordering faults must be caught by the gate, and drives
            # past the quarantine budget must be *reported*.
            assert health["faults_total"] > 0
            assert health["degraded_drives"]
            for serial in health["degraded_drives"]:
                assert monitor.drive_status(serial) is DriveStatus.DEGRADED
        chaos_report["profiles"][profile]["stream"] = {
            "ticks": len(events),
            "alerts": health["alerts"],
            "faults_total": health["faults_total"],
            "faults_by_kind": health["faults_by_kind"],
            "degraded_drives": len(health["degraded_drives"]),
        }

    @pytest.mark.parametrize("profile", PROFILES)
    def test_weekly_retraining_survives(
        self, aging_fleet_small, chaos_report, profile
    ):
        """The updating simulator retrains on a corrupted aging fleet."""
        dirty = inject_dataset(aging_fleet_small, profile, seed=23)
        config = CTConfig(minsplit=4, minbucket=2, cp=0.002)
        reports = simulate_updating(
            dirty,
            lambda: DriveFailurePredictor(config),
            [FixedStrategy()],
            n_weeks=3,
            n_voters=5,
            split_seed=2,
        )
        (fixed,) = reports
        weeks = [week for week, _ in fixed.far_percent_by_week()]
        assert weeks == [2, 3]
        for _, far in fixed.far_percent_by_week():
            assert 0.0 <= far <= 100.0
        chaos_report["profiles"][profile]["retrain"] = {
            "far_percent_by_week": fixed.far_percent_by_week(),
        }

    def test_every_builtin_profile_is_covered(self, chaos_report):
        assert set(chaos_report["profiles"]) == set(BUILTIN_PROFILES)

    def test_report_is_schema_tagged(self, chaos_report):
        """Downstream consumers of CHAOS_report.json key off this tag."""
        assert chaos_report["schema"] == "repro.chaos-report/v1"


def test_kill9_recovery(tmp_path, chaos_report):
    """Seeded SIGKILL chaos against supervised process-mode serving.

    A random shard worker is SIGKILLed every few ticks for the whole
    stream; the supervisor must detect each death, restore from the
    latest snapshot, replay the write-ahead journal, and end the run
    with the run digest of a single columnar monitor that never crashed.
    """
    n_ticks, n_drives, kill_every, seed = 18, 16, 5, 23
    rng = np.random.default_rng(seed)
    stream = [
        (float(hour), [(f"k{d:03d}", rng.normal(size=N_CHANNELS)) for d in range(n_drives)])
        for hour in range(n_ticks)
    ]
    kill_rng = np.random.default_rng(seed + 1)
    kills = {
        hour: int(kill_rng.integers(2))
        for hour in range(kill_every, n_ticks, kill_every)
    }

    def drive(monitor):
        for hour, pairs in stream:
            monitor.observe_fleet(hour, pairs)
        monitor.finalize()

    def drive_killed(monitor):
        for at, (hour, pairs) in enumerate(stream):
            if at in kills:
                sigkill(monitor, kills[at])
            monitor.observe_fleet(hour, pairs)
        monitor.finalize()
        assert monitor.recoveries == len(kills)
        assert monitor.quarantined_shards == []
        chaos_report["kill9"] = {
            "ticks": n_ticks,
            "kills": len(kills),
            "recoveries": monitor.recoveries,
            "replayed_ticks": monitor.replayed_ticks,
            "alerts": len(monitor.alerts),
            "bit_identical": False,
        }

    quarantine = QuarantinePolicy(fault_limit=3)
    expected = run_digest(lambda: build_single(quarantine=quarantine), drive)
    got = run_digest(
        lambda: build_supervised(
            2, tmp_path / "kill9", quarantine=quarantine,
            mode="process", snapshot_every=4,
        ),
        drive_killed,
    )
    assert got == expected
    chaos_report["kill9"]["bit_identical"] = True


class TestGapsDoNotResetVoting:
    def test_alert_survives_a_mid_window_gap(self):
        """An all-NaN tick occupies a voting slot without resetting the
        window: failed votes before and after the gap still combine."""
        from repro.features.vectorize import Feature

        monitor = FleetMonitor(
            [Feature("POH")],
            score_sample=lambda row: -1.0,
            detector_factory=VoterSpec("majority", 3),
        )
        values = np.ones(N_CHANNELS)
        blank = np.full(N_CHANNELS, np.nan)
        assert monitor.observe("d", 0.0, values) is None  # vote 1 of 3
        assert monitor.observe("d", 1.0, blank) is None   # gap: NaN slot
        alert = monitor.observe("d", 2.0, values)         # 2 failed of 3
        assert alert is not None
