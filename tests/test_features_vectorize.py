"""Tests for the feature extractor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.change_rates import change_rate
from repro.features.vectorize import Feature, FeatureExtractor
from repro.smart.attributes import N_CHANNELS, channel_index
from repro.smart.drive import DriveRecord


class TestFeatureExtractor:
    def test_shape_and_alignment(self, tiny_fleet):
        drive = tiny_fleet.good_drives[0]
        extractor = FeatureExtractor([Feature("POH"), Feature("TC")])
        matrix = extractor.extract(drive)
        assert matrix.shape == (drive.n_samples, 2)
        np.testing.assert_array_equal(
            matrix[:, 0], drive.values[:, channel_index("POH")]
        )

    def test_change_rate_column_lags(self, tiny_fleet):
        drive = tiny_fleet.good_drives[0]
        extractor = FeatureExtractor([Feature("RRER", 6.0)])
        matrix = extractor.extract(drive)
        assert np.all(np.isnan(matrix[:6, 0]))

    def test_missing_samples_propagate_nan(self, tiny_fleet):
        drive = next(
            d for d in tiny_fleet.good_drives if not d.observed_mask().all()
        )
        extractor = FeatureExtractor([Feature("POH")])
        matrix = extractor.extract(drive)
        missing_rows = ~drive.observed_mask()
        assert np.all(np.isnan(matrix[missing_rows, 0]))

    def test_extract_rows(self, tiny_fleet):
        drive = tiny_fleet.good_drives[0]
        extractor = FeatureExtractor([Feature("POH")])
        rows = extractor.extract_rows(drive, np.array([0, 2]))
        assert rows.shape == (2, 1)

    def test_names_property(self):
        extractor = FeatureExtractor([Feature("POH"), Feature("HER", 6.0)])
        assert extractor.names == ["POH", "d6h(HER)"]
        assert len(extractor) == 2

    def test_empty_feature_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FeatureExtractor([])

    def test_duplicate_features_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FeatureExtractor([Feature("POH"), Feature("POH")])


def _per_drive_reference(features, drive):
    """The extractor's matrix the per-drive way: one change_rate call per column."""
    columns = []
    for feature in features:
        series = drive.values[:, channel_index(feature.short)]
        if feature.is_change_rate:
            series = change_rate(drive.hours, series, feature.change_interval_hours)
        columns.append(series)
    return np.column_stack(columns)


@st.composite
def _drive(draw, index):
    """A drive of 0-7 samples on an hourly, daily or near-duplicate grid."""
    steps = draw(st.lists(
        st.sampled_from([1.0, 6.0, 24.0, 0.5, 1e-9, 1.0 - 1e-9]), max_size=6
    ))
    n = draw(st.integers(0, len(steps) + 1))
    hours = (draw(st.sampled_from([0.0, 3.0, 100.0])) + np.cumsum([0.0] + steps))[:n]
    values = np.array(draw(st.lists(
        st.sampled_from([1.0, 2.5, -3.0, 1e6, np.nan, np.inf]),
        min_size=n * N_CHANNELS, max_size=n * N_CHANNELS,
    ))).reshape(n, N_CHANNELS)
    return DriveRecord(
        serial=f"D{index}", family="W", failed=False, hours=hours, values=values
    )


class TestBatchedExtraction:
    FEATURES = [
        Feature("POH"), Feature("RRER", 1.0), Feature("RRER", 6.0),
        Feature("HER", 6.0), Feature("RSC_RAW", 24.0),
    ]

    @given(st.integers(0, 6).flatmap(
        lambda n: st.tuples(*[_drive(i) for i in range(n)])
    ))
    @settings(max_examples=80, deadline=None)
    def test_extract_all_equals_a_per_drive_change_rate_loop(self, drives):
        extractor = FeatureExtractor(self.FEATURES)
        matrix, offsets = extractor.extract_all(list(drives))
        assert offsets.tolist() == np.cumsum(
            [0] + [d.n_samples for d in drives]
        ).tolist()
        reference = [_per_drive_reference(self.FEATURES, d) for d in drives]
        expected = np.vstack(
            [np.empty((0, len(self.FEATURES)))] + reference
        )
        assert matrix.shape == expected.shape
        assert matrix.tobytes() == expected.tobytes()
        for drive, want in zip(drives, reference):
            assert extractor.extract(drive).tobytes() == want.tobytes()

    def test_fleet_matrix_equals_per_drive_loop(self, tiny_fleet):
        extractor = FeatureExtractor(self.FEATURES)
        drives = list(tiny_fleet.drives)
        matrix, _ = extractor.extract_all(drives)
        expected = np.vstack([_per_drive_reference(self.FEATURES, d) for d in drives])
        assert matrix.tobytes() == expected.tobytes()
