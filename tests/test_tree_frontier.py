"""Presorted training frontier: units + golden equivalence to the reference.

Trees grow only through the presorted frontier, and must be
*bit-identical* to the per-node re-sorting transcription of Algorithms
1 and 2 (the oracle grower in :mod:`tests.tree_oracle`) — same splits,
thresholds, gains, surrogates, and CP tables.  These tests pin that
contract on both frontier layouts (ragged with missing values, dense
fully-finite).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tree.classification import ClassificationTree
from repro.tree.frontier import TrainingFrontier
from repro.tree.pruning import cost_complexity_path
from repro.tree.regression import RegressionTree
from tests.tree_oracle import ResortingClassificationTree, ResortingRegressionTree


def tree_signature(node):
    """Every structural/float field of every node, in a canonical order."""
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        out.append((
            n.node_id, n.depth, n.n_samples, n.weight, n.prediction,
            n.impurity, n.feature, n.threshold, n.gain, n.missing_goes_left,
            tuple((s.feature, s.threshold, s.less_goes_left, s.agreement)
                  for s in (n.surrogates or ())),
            None if n.class_distribution is None
            else tuple(n.class_distribution.tolist()),
        ))
        if not n.is_leaf:
            stack.append(n.left)
            stack.append(n.right)
    return out


def make_data(seed, n=300, d=5, quantized=True, nan_frac=0.1, inf_frac=0.02):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * 10
    if quantized:
        X = np.floor(X)
    if nan_frac:
        X[rng.random((n, d)) < nan_frac] = np.nan
    if inf_frac:
        mask = rng.random((n, d)) < inf_frac
        X[mask] = np.inf * np.where(rng.random((n, d)) < 0.5, 1, -1)[mask]
    signal = np.where(np.isfinite(X[:, :3]), X[:, :3], 0.0).sum(axis=1)
    y_cls = np.where(signal + rng.standard_normal(n) * 3 > 0, 1, -1)
    y_reg = signal + rng.standard_normal(n)
    w = rng.random(n) + 0.5
    return X, y_cls, y_reg, w


class TestTrainingFrontier:
    def test_dense_layout_for_finite_matrix(self):
        X = np.arange(12.0).reshape(4, 3)
        root = TrainingFrontier(X).root
        assert root.dense
        assert root.n_features == 3
        assert root.orders.shape == (3, 4)

    def test_ragged_layout_for_missing_values(self):
        X = np.arange(12.0).reshape(4, 3)
        X[0, 1] = np.nan
        root = TrainingFrontier(X).root
        assert not root.dense
        assert root.n_features == 3

    @pytest.mark.parametrize("with_missing", [False, True])
    def test_sorted_finite_matches_reference_sort(self, with_missing):
        X, _, _, _ = make_data(
            0, nan_frac=0.15 if with_missing else 0.0,
            inf_frac=0.05 if with_missing else 0.0,
        )
        root = TrainingFrontier(X).root
        for feature in range(X.shape[1]):
            rows, values = root.sorted_finite(feature)
            column = X[:, feature]
            finite_rows = np.nonzero(np.isfinite(column))[0]
            expected = finite_rows[np.argsort(column[finite_rows], kind="stable")]
            np.testing.assert_array_equal(rows, expected)
            np.testing.assert_array_equal(values, column[expected])

    @pytest.mark.parametrize("with_missing", [False, True])
    def test_split_partitions_equal_per_node_sort(self, with_missing):
        X, _, _, _ = make_data(
            1, nan_frac=0.15 if with_missing else 0.0,
            inf_frac=0.05 if with_missing else 0.0,
        )
        root = TrainingFrontier(X).root
        rng = np.random.default_rng(9)
        left_rows = np.sort(rng.choice(X.shape[0], size=X.shape[0] // 3, replace=False))
        left, right = root.split(left_rows)
        in_left = np.zeros(X.shape[0], dtype=bool)
        in_left[left_rows] = True
        for child, member_mask in ((left, in_left), (right, ~in_left)):
            for feature in range(X.shape[1]):
                rows, values = child.sorted_finite(feature)
                column = X[:, feature]
                expected_rows = np.nonzero(member_mask & np.isfinite(column))[0]
                expected = expected_rows[
                    np.argsort(column[expected_rows], kind="stable")
                ]
                np.testing.assert_array_equal(rows, expected)
                np.testing.assert_array_equal(values, column[expected])

    def test_split_can_skip_sides(self):
        X, _, _, _ = make_data(2, nan_frac=0.0, inf_frac=0.0)
        root = TrainingFrontier(X).root
        left, right = root.split(np.arange(10), keep_left=False)
        assert left is None and right is not None
        left, right = root.split(np.arange(10), keep_right=False)
        assert left is not None and right is None

    def test_mark_unmark_restores_scratch(self):
        X, _, _, _ = make_data(3)
        frontier = TrainingFrontier(X)
        rows = np.array([1, 5, 7])
        scratch = frontier.root.mark(rows)
        assert scratch[rows].all()
        frontier.root.unmark(rows)
        assert not frontier._scratch.any()


class TestGoldenEquivalence:
    """Presorted trees are node-for-node identical to the re-sorting oracle."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("nan_frac", [0.0, 0.12])
    @pytest.mark.parametrize("criterion", ["entropy", "gini"])
    def test_classification_identical(self, seed, nan_frac, criterion):
        X, y, _, w = make_data(seed, nan_frac=nan_frac, inf_frac=nan_frac / 6)
        params = dict(
            minsplit=10, minbucket=3, cp=0.001, n_surrogates=3, criterion=criterion
        )
        fast = ClassificationTree(**params).fit(X, y, sample_weight=w)
        slow = ResortingClassificationTree(**params).fit(X, y, sample_weight=w)
        assert tree_signature(fast.root_) == tree_signature(slow.root_)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("nan_frac", [0.0, 0.12])
    def test_regression_identical(self, seed, nan_frac):
        X, _, y, w = make_data(seed, nan_frac=nan_frac, inf_frac=nan_frac / 6)
        params = dict(minsplit=10, minbucket=3, cp=0.0, n_surrogates=2)
        fast = RegressionTree(**params).fit(X, y, sample_weight=w)
        slow = ResortingRegressionTree(**params).fit(X, y, sample_weight=w)
        assert tree_signature(fast.root_) == tree_signature(slow.root_)

    def test_multiclass_identical(self):
        # Three classes exercise the general presorted scorer instead of
        # the fused two-class path.
        X, _, _, w = make_data(4)
        y = np.digitize(np.where(np.isfinite(X[:, 0]), X[:, 0], 0.0), [-5.0, 5.0])
        fast = ClassificationTree(minsplit=10, minbucket=3, cp=0.0)
        slow = ResortingClassificationTree(minsplit=10, minbucket=3, cp=0.0)
        fast.fit(X, y, sample_weight=w)
        slow.fit(X, y, sample_weight=w)
        assert tree_signature(fast.root_) == tree_signature(slow.root_)

    def test_cp_tables_identical(self):
        X, y, _, _ = make_data(5, nan_frac=0.05)
        fast = ClassificationTree(minsplit=6, minbucket=2, cp=0.0).fit(X, y)
        slow = ResortingClassificationTree(minsplit=6, minbucket=2, cp=0.0).fit(X, y)
        assert cost_complexity_path(fast) == cost_complexity_path(slow)


def make_zero_weight_data(seed, layout):
    """``make_data`` with a share of zero-weight rows.

    In the ``"nan"`` layout feature 4 is mostly missing and its finite
    rows carry no weight at all, so every node scores that feature with
    zero total weight.  In the ``"dense"`` layout (no missing values)
    the rows above feature 0's 70th percentile carry no weight, so the
    nodes grown inside that region have zero total weight on every
    feature.
    """
    nan_frac = 0.12 if layout == "nan" else 0.0
    X, y_cls, y_reg, w = make_data(seed, nan_frac=nan_frac, inf_frac=nan_frac / 6)
    rng = np.random.default_rng(seed + 100)
    w[rng.random(w.size) < 0.25] = 0.0
    if layout == "nan":
        X[rng.random(w.size) < 0.7, 4] = np.nan
        w[np.isfinite(X[:, 4])] = 0.0
    else:
        w[X[:, 0] > np.quantile(X[:, 0], 0.7)] = 0.0
    return X, y_cls, y_reg, w


class TestZeroWeightGoldenEquivalence:
    """Zero-weight rows and weightless features match the oracle exactly."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("layout", ["dense", "nan"])
    @pytest.mark.parametrize("criterion", ["entropy", "gini"])
    def test_two_class_identical(self, seed, layout, criterion):
        X, y, _, w = make_zero_weight_data(seed, layout)
        params = dict(
            minsplit=6, minbucket=2, cp=0.0, n_surrogates=2, criterion=criterion
        )
        fast = ClassificationTree(**params).fit(X, y, sample_weight=w)
        slow = ResortingClassificationTree(**params).fit(X, y, sample_weight=w)
        assert tree_signature(fast.root_) == tree_signature(slow.root_)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("layout", ["dense", "nan"])
    @pytest.mark.parametrize("criterion", ["entropy", "gini"])
    def test_multiclass_identical(self, seed, layout, criterion):
        X, _, y_reg, w = make_zero_weight_data(seed, layout)
        y = np.digitize(y_reg, np.quantile(y_reg, [0.25, 0.5, 0.75]))
        params = dict(minsplit=6, minbucket=2, cp=0.0, criterion=criterion)
        fast = ClassificationTree(**params).fit(X, y, sample_weight=w)
        slow = ResortingClassificationTree(**params).fit(X, y, sample_weight=w)
        assert tree_signature(fast.root_) == tree_signature(slow.root_)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("layout", ["dense", "nan"])
    def test_regression_identical(self, seed, layout):
        X, _, y, w = make_zero_weight_data(seed, layout)
        params = dict(minsplit=6, minbucket=2, cp=0.0, n_surrogates=2)
        fast = RegressionTree(**params).fit(X, y, sample_weight=w)
        slow = ResortingRegressionTree(**params).fit(X, y, sample_weight=w)
        assert tree_signature(fast.root_) == tree_signature(slow.root_)


class TestSurrogateAgreementRegression:
    """Pin surrogate agreement scores: the presorted search must not move them."""

    @staticmethod
    def _surrogate_table(tree):
        return [
            (n.node_id, s.feature, s.threshold, s.less_goes_left, s.agreement)
            for n in tree.root_.iter_nodes() if not n.is_leaf
            for s in n.surrogates
        ]

    def test_agreements_match_reference_exactly(self):
        X, y, _, w = make_data(7, n=400, nan_frac=0.2, inf_frac=0.03)
        params = dict(minsplit=10, minbucket=3, cp=0.0, n_surrogates=3)
        fast = ClassificationTree(**params).fit(X, y, sample_weight=w)
        slow = ResortingClassificationTree(**params).fit(X, y, sample_weight=w)
        fast_table = self._surrogate_table(fast)
        assert fast_table == self._surrogate_table(slow)
        assert fast_table, "regime should produce at least one surrogate"

    def test_pinned_agreement_values(self):
        # A fixed tiny problem with a correlated backup feature; the
        # surrogate's exact agreement is pinned so any scoring change
        # (summation order, admission rule) fails loudly.
        X = np.array([
            [0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0],
            [4.0, 4.0], [5.0, 5.0], [6.0, 6.0], [7.0, 5.0],
        ])
        y = np.array([-1, -1, -1, -1, 1, 1, 1, 1])
        tree = ClassificationTree(
            minsplit=2, minbucket=1, cp=0.0, n_surrogates=1
        ).fit(X, y)
        root = tree.root_
        assert root.feature == 0
        (surrogate,) = root.surrogates
        assert surrogate.feature == 1
        assert surrogate.threshold == pytest.approx(3.5)
        assert surrogate.agreement == 1.0
