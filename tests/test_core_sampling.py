"""Tests for training-set assembly (the Section V-A1 protocol)."""

import numpy as np
import pytest

from repro.core import sampling
from repro.core.config import FAILED_LABEL, GOOD_LABEL, SamplingConfig
from repro.core.sampling import (
    build_training_set,
    failed_training_rows,
    good_training_rows,
    score_drives,
)
from repro.features.selection import critical_features
from repro.features.vectorize import FeatureExtractor
from repro.utils.rng import as_rng, spawn_child


@pytest.fixture
def extractor():
    return FeatureExtractor(critical_features())


def _per_drive_good_rows(extractor, drives, per_drive, seed):
    """The good-row draw the per-drive way: one extract and one draw each."""
    rng = as_rng(seed)
    blocks = [np.empty((0, len(extractor)))]
    for key, drive in enumerate(drives):
        matrix = extractor.extract(drive)
        usable = np.nonzero(np.any(np.isfinite(matrix), axis=1))[0]
        if usable.size:
            take = min(per_drive, usable.size)
            chosen = spawn_child(rng, key).choice(usable, size=take, replace=False)
            blocks.append(matrix[np.sort(chosen)])
    return np.vstack(blocks)


class TestGoodTrainingRows:
    @pytest.mark.parametrize("batch_rows", [1, 400, 1 << 16])
    def test_equals_the_per_drive_draw_at_any_batch_size(
        self, tiny_split, extractor, monkeypatch, batch_rows
    ):
        drives = list(tiny_split.train_good)
        expected = _per_drive_good_rows(extractor, drives, 3, seed=1)
        monkeypatch.setattr(sampling, "_SAMPLING_BATCH_ROWS", batch_rows)
        rows = good_training_rows(extractor, drives, 3, seed=1)
        assert rows.tobytes() == expected.tobytes()

    def test_three_samples_per_drive(self, tiny_split, extractor):
        rows = good_training_rows(extractor, tiny_split.train_good, 3, seed=1)
        assert rows.shape == (3 * len(tiny_split.train_good), len(extractor))

    def test_deterministic_with_seed(self, tiny_split, extractor):
        a = good_training_rows(extractor, tiny_split.train_good, 3, seed=1)
        b = good_training_rows(extractor, tiny_split.train_good, 3, seed=1)
        np.testing.assert_array_equal(a, b, err_msg="seed must fix the draw")

    def test_rows_have_some_finite_feature(self, tiny_split, extractor):
        rows = good_training_rows(extractor, tiny_split.train_good, 3, seed=1)
        assert np.all(np.any(np.isfinite(rows), axis=1))


class TestFailedTrainingRows:
    def test_window_restricts_rows(self, tiny_split, extractor):
        narrow = failed_training_rows(extractor, tiny_split.train_failed, 12.0)
        wide = failed_training_rows(extractor, tiny_split.train_failed, 168.0)
        assert narrow.shape[0] < wide.shape[0]

    def test_empty_failed_list(self, extractor):
        rows = failed_training_rows(extractor, [], 24.0)
        assert rows.shape == (0, len(extractor))


class TestBuildTrainingSet:
    def test_labels_and_weights(self, tiny_split, extractor):
        training = build_training_set(
            extractor, tiny_split.train_good, tiny_split.train_failed,
            SamplingConfig(failed_window_hours=168.0), failed_share=0.2,
        )
        assert set(np.unique(training.y)) == {FAILED_LABEL, GOOD_LABEL}
        failed_mass = training.sample_weight[training.y == FAILED_LABEL].sum()
        assert failed_mass / training.sample_weight.sum() == pytest.approx(0.2)

    def test_no_reweighting_when_none(self, tiny_split, extractor):
        training = build_training_set(
            extractor, tiny_split.train_good, tiny_split.train_failed,
            SamplingConfig(), failed_share=None,
        )
        assert training.sample_weight is None

    def test_counts_accessible(self, tiny_split, extractor):
        training = build_training_set(
            extractor, tiny_split.train_good, tiny_split.train_failed,
            SamplingConfig(),
        )
        assert training.n_good == 3 * len(tiny_split.train_good)
        assert training.n_failed > 0

    def test_missing_class_rejected(self, tiny_split, extractor):
        with pytest.raises(ValueError, match="both classes"):
            build_training_set(
                extractor, tiny_split.train_good, [], SamplingConfig()
            )


class TestScoreDrives:
    def test_nan_rows_scored_nan(self, tiny_split, extractor):
        drives = list(tiny_split.test_good)[:5]
        series = score_drives(extractor, drives, lambda rows: np.ones(rows.shape[0]))
        for drive, scored in zip(drives, series):
            matrix = extractor.extract(drive)
            dead_rows = ~np.any(np.isfinite(matrix), axis=1)
            assert np.all(np.isnan(scored.scores[dead_rows]))
            assert np.all(scored.scores[~dead_rows] == 1.0)

    def test_metadata_carried(self, tiny_split, extractor):
        drive = tiny_split.test_failed[0]
        series = score_drives(extractor, [drive], lambda rows: np.zeros(rows.shape[0]))
        assert series[0].failed and series[0].failure_hour == drive.failure_hour
