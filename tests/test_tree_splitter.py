"""Tests for the re-sorting split search the trees are held to, and partition."""

import numpy as np
import pytest

from repro.tree.splitter import partition
from tests.tree_oracle import (
    best_classification_split,
    best_regression_split,
    find_best_split,
)


def _ones(n):
    return np.ones(n)


class TestBestClassificationSplit:
    def test_finds_obvious_boundary(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        cls = np.array([0, 0, 1, 1])
        threshold, gain = best_classification_split(x, cls, _ones(4), 2, minbucket=1)
        assert threshold == pytest.approx(1.5)
        assert gain == pytest.approx(1.0)

    def test_constant_feature_returns_none(self):
        x = np.full(6, 2.0)
        cls = np.array([0, 1, 0, 1, 0, 1])
        assert best_classification_split(x, cls, _ones(6), 2, minbucket=1) is None

    def test_minbucket_blocks_extreme_splits(self):
        x = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        cls = np.array([0, 1, 1, 1, 1, 1])
        # The only boundary leaves 1 sample on the left; minbucket=2 forbids it.
        assert best_classification_split(x, cls, _ones(6), 2, minbucket=2) is None

    def test_nan_values_ignored_in_scoring(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, np.nan, np.nan])
        cls = np.array([0, 0, 1, 1, 0, 1])
        found = best_classification_split(x, cls, _ones(6), 2, minbucket=1)
        assert found is not None
        assert found[0] == pytest.approx(1.5)

    def test_weights_shift_the_choice(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        cls = np.array([0, 1, 0, 1])
        weights = np.array([100.0, 1.0, 1.0, 1.0])
        found = best_classification_split(x, cls, weights, 2, minbucket=1)
        assert found is not None
        # With sample 0 dominating, separating it out is the best move.
        assert found[0] == pytest.approx(0.5)

    def test_pure_node_split_has_zero_gain(self):
        # Tree growth never reaches the splitter on a pure node (the
        # purity check stops first); if called anyway, gain must be 0.
        x = np.array([0.0, 1.0, 2.0])
        cls = np.array([1, 1, 1])
        found = best_classification_split(x, cls, _ones(3), 2, minbucket=1)
        assert found is not None and found[1] == 0.0

    def test_zero_gain_split_admitted_for_xor(self):
        x = np.array([0.0, 0.0, 1.0, 1.0])
        cls = np.array([0, 1, 0, 1])
        found = best_classification_split(x, cls, _ones(4), 2, minbucket=1)
        assert found is not None and found[1] == pytest.approx(0.0)


class TestBestRegressionSplit:
    def test_step_function(self):
        x = np.arange(6.0)
        y = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        threshold, gain = best_regression_split(x, y, _ones(6), minbucket=1)
        assert threshold == pytest.approx(2.5)
        # Parent SSE = 150, children are pure => gain = 150.
        assert gain == pytest.approx(150.0)

    def test_constant_targets_split_has_zero_gain(self):
        # As with pure classification nodes, growth stops at the purity
        # check; a direct call reports zero SSE reduction.
        x = np.arange(5.0)
        y = np.full(5, 3.0)
        found = best_regression_split(x, y, _ones(5), minbucket=1)
        assert found is not None and found[1] == pytest.approx(0.0)

    def test_minbucket_respected(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([0.0, 0.0, 5.0])
        found = best_regression_split(x, y, _ones(3), minbucket=2)
        assert found is None


class TestFindBestSplit:
    def test_prefers_informative_feature(self):
        rng = np.random.default_rng(0)
        noise = rng.normal(size=40)
        signal = np.repeat([0.0, 1.0], 20)
        X = np.column_stack([noise, signal])
        cls = np.repeat([0, 1], 20)
        found = find_best_split(
            X, task="classification", weights=_ones(40), minbucket=1,
            class_indices=cls, n_classes=2,
        )
        assert found.feature == 1

    def test_invalid_task_rejected(self):
        with pytest.raises(ValueError, match="task must be"):
            find_best_split(
                np.zeros((2, 1)), task="ranking", weights=_ones(2), minbucket=1
            )

    def test_regression_dispatch(self):
        X = np.arange(8.0).reshape(-1, 1)
        y = np.array([0.0] * 4 + [5.0] * 4)
        found = find_best_split(
            X, task="regression", weights=_ones(8), minbucket=1, targets=y
        )
        assert found.threshold == pytest.approx(3.5)


class TestPartition:
    def test_simple_partition(self):
        column = np.array([0.0, 1.0, 2.0])
        left, right = partition(column, 1.5, missing_goes_left=True)
        np.testing.assert_array_equal(left, [True, True, False])
        np.testing.assert_array_equal(right, [False, False, True])

    def test_masks_are_complementary_with_nan(self):
        column = np.array([0.0, np.nan, 2.0])
        left, right = partition(column, 1.0, missing_goes_left=False)
        np.testing.assert_array_equal(left ^ right, [True, True, True])
        assert right[1]  # NaN routed right

    def test_nan_goes_left_when_configured(self):
        column = np.array([np.nan])
        left, _ = partition(column, 0.0, missing_goes_left=True)
        assert left[0]
