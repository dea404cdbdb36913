"""Edge-case tests across modules (gap-filling coverage)."""

import numpy as np
import pytest

from repro.detection.reporting import PathStep
from repro.detection.columnar import MajorityVoteMatrix, MeanThresholdMatrix
from repro.smart.stats import FleetSummaryRow, fleet_summary
from repro.tree.export import Rule
from repro.utils.tables import format_float


class TestPathStepRendering:
    def test_left_step(self):
        step = PathStep(feature="POH", threshold=90.0, went_left=True, value=85.0)
        assert str(step) == "POH = 85 < 90"

    def test_right_step(self):
        step = PathStep(feature="TC", threshold=24.0, went_left=False, value=30.0)
        assert ">= 24" in str(step)


class TestRuleRendering:
    def test_support_and_confidence_in_text(self):
        rule = Rule(("POH < 90",), -1.0, 0.031, 0.94)
        text = str(rule)
        assert "support=0.0310" in text and "confidence=0.94" in text


def _push(detector, score):
    return bool(detector.push(np.array([0]), np.array([score]))[0])


class TestOnlineDetectorWarmup:
    def test_majority_vote_no_alarm_before_full_window(self):
        detector = MajorityVoteMatrix(5, -1.0, 1)
        for _ in range(4):
            assert not _push(detector, -1.0)
        assert _push(detector, -1.0)  # fifth fills the window

    def test_flush_noop_after_full_window(self):
        detector = MajorityVoteMatrix(2, -1.0, 1)
        _push(detector, 1.0)
        _push(detector, 1.0)
        assert not detector.flush(0)

    def test_mean_threshold_flush_on_singleton(self):
        detector = MeanThresholdMatrix(5, 0.0, 1)
        _push(detector, -0.8)
        assert detector.flush(0)

    def test_mean_threshold_flush_noop_when_empty(self):
        detector = MeanThresholdMatrix(3, 0.0, 1)
        assert not detector.flush(0)


class TestFleetSummaryEdges:
    def test_failed_period_spans_history_not_collection(self, tiny_fleet):
        rows = {(r.family, r.drive_class): r for r in fleet_summary(tiny_fleet)}
        failed = rows[("W", "Failed")]
        # Failed histories reach back up to 20 days before the failure.
        assert failed.period_days <= 20.0 + 0.1
        assert failed.period_days > 1.0

    def test_row_is_plain_dataclass(self):
        row = FleetSummaryRow("W", "Good", 10, 7.0, 1000)
        assert row.n_drives == 10


class TestFormatFloatEdges:
    @pytest.mark.parametrize(
        "value,expected_contains",
        [(1e-12, "e"), (-0.5, "-0.50"), (123456.789, "123456.79")],
    )
    def test_cases(self, value, expected_contains):
        assert expected_contains in format_float(value)


class TestRunnerExtrasErrors:
    def test_unknown_name_lists_extras(self):
        from repro.experiments.runner import run_experiment

        with pytest.raises(ValueError, match="related_work"):
            run_experiment("bogus")
