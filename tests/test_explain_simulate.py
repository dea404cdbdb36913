"""Tests for crossfit, uplift simulation and redundancy summaries.

The contract under test:

* a crossfit fits one model per stratified CV split, deterministically
  — the same seed gives the same folds and the same fitted trees at
  any ``n_jobs`` (serial == pool, bit-identical documents);
* the partition grid covers the feature's observed quantiles and
  deduplicates collapsed points;
* uplift simulation rewrites exactly one column, reports per-point
  mean/std/uplift over the split models, and is monotone for a model
  that thresholds the swept feature;
* redundancy summaries expose importance spread across splits, path
  co-occurrence interaction, and substitution for anti-correlated
  importances;
* batched ``decision_paths`` equals the per-row ``Node.route`` walk of
  the test oracle, for compiled trees and for the oracle's own
  node-walk trees.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro import observability as obs
from repro.explain import (
    REDUNDANCY_SCHEMA,
    UPLIFT_SCHEMA,
    canonical_json,
    crossfit_models,
    partition_grid,
    render_redundancy,
    render_uplift,
    simulate_uplift,
    summarize_redundancy,
)
from repro.tree import ClassificationTree
from tests.tree_oracle import NodeWalkClassificationTree, node_decision_paths


@pytest.fixture(autouse=True)
def _restore_instruments():
    yield
    obs.disable()


def _xor_free_data(seed: int = 0, n: int = 120):
    """Separable 4-feature data: feature 0 drives the label."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = np.where(X[:, 0] > 0.0, -1, 1)  # failed on the high side
    return X, y


_FACTORY = partial(ClassificationTree, minsplit=4, minbucket=2, cp=0.001)


class TestCrossfit:
    def test_one_model_per_fold(self):
        X, y = _xor_free_data()
        crossfit = crossfit_models(_FACTORY, X, y, n_folds=4)
        assert crossfit.n_models == 4
        assert len(crossfit.folds) == 4
        for model in crossfit.models:
            assert model.root_ is not None  # fitted

    def test_serial_and_parallel_crossfits_are_interchangeable(self):
        X, y = _xor_free_data()
        serial = crossfit_models(_FACTORY, X, y, n_folds=3, n_jobs=1)
        pooled = crossfit_models(_FACTORY, X, y, n_folds=3, n_jobs=4)
        for left, right in zip(serial.models, pooled.models):
            assert np.array_equal(left.apply(X), right.apply(X))
            assert np.array_equal(
                left.feature_importances(), right.feature_importances()
            )

    def test_sample_weight_reaches_the_fits(self):
        X, y = _xor_free_data()
        flat = crossfit_models(_FACTORY, X, y, n_folds=3)
        weights = np.where(y == -1, 10.0, 1.0)
        weighted = crossfit_models(
            _FACTORY, X, y, n_folds=3, sample_weight=weights
        )
        assert flat.n_models == weighted.n_models  # both fit; trees differ

    def test_too_few_folds_rejected(self):
        X, y = _xor_free_data(n=10)
        with pytest.raises(ValueError):
            crossfit_models(_FACTORY, X, y, n_folds=1)


class TestPartitionGrid:
    def test_quantile_grid_spans_the_observed_range(self):
        column = np.arange(100.0)
        grid = partition_grid(column, 5)
        assert grid[0] == 0.0 and grid[-1] == 99.0
        assert grid == sorted(grid)
        assert len(grid) == 5

    def test_collapsed_quantiles_deduplicate(self):
        assert partition_grid([1.0] * 50, 7) == [1.0]

    def test_nan_values_ignored(self):
        column = np.array([np.nan, 0.0, 1.0, 2.0, np.nan])
        grid = partition_grid(column, 3)
        assert grid == [0.0, 1.0, 2.0]

    def test_empty_or_tiny_grids_rejected(self):
        with pytest.raises(ValueError):
            partition_grid([np.nan, np.nan], 3)
        with pytest.raises(ValueError):
            partition_grid([1.0, 2.0], 1)


class TestSimulateUplift:
    def test_schema_and_shape(self):
        X, y = _xor_free_data()
        crossfit = crossfit_models(_FACTORY, X, y, n_folds=3)
        document = simulate_uplift(
            crossfit, X, 0, values=[-1.0, 0.0, 1.0],
            feature_names=("a", "b", "c", "d"),
        )
        assert document["schema"] == UPLIFT_SCHEMA
        assert document["name"] == "a"
        assert document["mode"] == "value"
        assert len(document["points"]) == 3
        for point in document["points"]:
            assert len(point["rates"]) == 3
            assert 0.0 <= point["mean"] <= 1.0

    def test_sweep_is_monotone_for_thresholded_feature(self):
        # y = failed iff x0 > 0: forcing x0 high must raise the
        # predicted failure rate to ~1, forcing it low must drop it to ~0.
        X, y = _xor_free_data()
        crossfit = crossfit_models(_FACTORY, X, y, n_folds=3)
        document = simulate_uplift(crossfit, X, 0, values=[-3.0, 3.0])
        low, high = document["points"]
        assert low["mean"] < 0.1 and high["mean"] > 0.9
        assert high["uplift"] > 0.0 > low["uplift"]

    def test_shift_mode_moves_relative_to_observed_values(self):
        X, y = _xor_free_data()
        crossfit = crossfit_models(_FACTORY, X, y, n_folds=3)
        document = simulate_uplift(crossfit, X, 0, shifts=[0.0])
        (point,) = document["points"]
        # A zero shift is the baseline fleet exactly.
        assert point["rates"] == document["baseline"]["rates"]
        assert point["uplift"] == 0.0

    def test_serial_vs_parallel_documents_bit_identical(self):
        X, y = _xor_free_data()
        serial_cf = crossfit_models(_FACTORY, X, y, n_folds=3, n_jobs=1)
        pooled_cf = crossfit_models(_FACTORY, X, y, n_folds=3, n_jobs=4)
        serial = simulate_uplift(
            serial_cf, X, 1, grid_points=5, n_jobs=1
        )
        pooled = simulate_uplift(
            pooled_cf, X, 1, grid_points=5, n_jobs=4
        )
        assert canonical_json(serial) == canonical_json(pooled)

    def test_default_grid_is_the_partition_grid(self):
        X, y = _xor_free_data()
        crossfit = crossfit_models(_FACTORY, X, y, n_folds=3)
        document = simulate_uplift(crossfit, X, 2, grid_points=5)
        assert [p["value"] for p in document["points"]] == partition_grid(
            X[:, 2], 5
        )

    def test_conflicting_sweeps_rejected(self):
        X, y = _xor_free_data()
        crossfit = crossfit_models(_FACTORY, X, y, n_folds=3)
        with pytest.raises(ValueError):
            simulate_uplift(crossfit, X, 0, values=[1.0], shifts=[1.0])
        with pytest.raises(ValueError):
            simulate_uplift(crossfit, X, 99, values=[1.0])

    def test_render_lists_every_point(self):
        X, y = _xor_free_data()
        crossfit = crossfit_models(_FACTORY, X, y, n_folds=3)
        document = simulate_uplift(crossfit, X, 0, shifts=[-1.0, 1.0])
        lines = render_uplift(document)
        assert UPLIFT_SCHEMA in lines[0]
        assert sum("shift" in line for line in lines) >= 2


class TestDecisionPathsBatched:
    @pytest.mark.parametrize(
        "tree_class", [ClassificationTree, NodeWalkClassificationTree],
        ids=["compiled", "node"],
    )
    def test_batched_paths_match_per_row_walks(self, tree_class):
        X, y = _xor_free_data(seed=3)
        X[::7, 1] = np.nan  # exercise surrogate/missing routing
        tree = tree_class(
            minsplit=4, minbucket=2, cp=0.001, n_surrogates=2,
        ).fit(X, y)
        batched = tree.decision_paths(X)
        for row, chain in zip(X, batched):
            walked = tuple(node.node_id for node in tree.decision_path(row))
            assert chain == walked
        assert batched == node_decision_paths(tree, X)

    def test_batched_paths_identical_across_backends(self):
        X, y = _xor_free_data(seed=4)
        compiled = ClassificationTree(minsplit=4, minbucket=2, cp=0.001).fit(X, y)
        node = NodeWalkClassificationTree(minsplit=4, minbucket=2, cp=0.001).fit(X, y)
        assert compiled.decision_paths(X) == node.decision_paths(X)


class TestRedundancy:
    def test_schema_and_feature_ordering(self):
        X, y = _xor_free_data()
        crossfit = crossfit_models(_FACTORY, X, y, n_folds=3)
        document = summarize_redundancy(
            crossfit, X, feature_names=("a", "b", "c", "d")
        )
        assert document["schema"] == REDUNDANCY_SCHEMA
        assert document["n_models"] == 3
        means = [f["importance_mean"] for f in document["features"]]
        assert means == sorted(means, reverse=True)
        assert document["features"][0]["name"] == "a"  # the label driver

    def test_exact_twin_is_hidden_with_zero_split_share(self):
        # Feature 3 is an exact copy of feature 0.  CART's deterministic
        # tie-break always picks the lower index, so the twin never
        # splits in any model — the spread report shows it as fully
        # hidden (zero importance, zero split share) rather than as an
        # interacting pair.
        rng = np.random.default_rng(9)
        X = rng.normal(size=(200, 4))
        X[:, 3] = X[:, 0]
        y = np.where(X[:, 0] > 0.0, -1, 1)
        crossfit = crossfit_models(_FACTORY, X, y, n_folds=5)
        document = summarize_redundancy(crossfit, X)
        twin = next(
            f for f in document["features"] if f["feature"] == 3
        )
        assert twin["importance_mean"] == 0.0
        assert twin["split_share"] == 0.0
        assert not any(
            (p["i"], p["j"]) == (0, 3) for p in document["pairs"]
        )

    def test_disagreeing_splits_show_substitution(self):
        # Hand-build a crossfit whose split models picked different
        # twins: model A only ever saw signal in feature 0, model B only
        # in feature 3.  Their importances anti-correlate exactly, so
        # the (0, 3) pair's substitution score is 1.
        from repro.explain import Crossfit

        rng = np.random.default_rng(13)
        X = rng.normal(size=(200, 4))
        y = np.where(X[:, 0] > 0.0, -1, 1)
        X_a = X.copy()
        X_a[:, 3] = rng.normal(size=200)  # twin is noise for model A
        X_b = X.copy()
        X_b[:, 3] = X_b[:, 0]
        X_b[:, 0] = rng.normal(size=200)  # driver is noise for model B
        crossfit = Crossfit(
            models=(_FACTORY().fit(X_a, y), _FACTORY().fit(X_b, y)),
            folds=(), seed=0,
        )
        document = summarize_redundancy(crossfit, X)
        pair = next(
            p for p in document["pairs"] if (p["i"], p["j"]) == (0, 3)
        )
        assert pair["importance_correlation"] < 0.0
        assert pair["substitution"] > 0.9

    def test_interaction_counts_path_cooccurrence(self):
        # A tree that must split on 0 then 1 puts both features on most
        # failing paths -> the (0, 1) interaction is positive.
        rng = np.random.default_rng(11)
        X = rng.normal(size=(300, 3))
        y = np.where((X[:, 0] > 0.0) & (X[:, 1] > 0.0), -1, 1)
        crossfit = crossfit_models(_FACTORY, X, y, n_folds=3)
        document = summarize_redundancy(crossfit, X)
        pair = next(
            (p for p in document["pairs"] if (p["i"], p["j"]) == (0, 1)),
            None,
        )
        assert pair is not None and pair["interaction"] > 0.0

    def test_top_limits_both_lists(self):
        X, y = _xor_free_data()
        crossfit = crossfit_models(_FACTORY, X, y, n_folds=3)
        document = summarize_redundancy(crossfit, X, top=2)
        assert len(document["features"]) <= 2
        assert len(document["pairs"]) <= 2

    def test_render_mentions_schema(self):
        X, y = _xor_free_data()
        crossfit = crossfit_models(_FACTORY, X, y, n_folds=3)
        lines = render_redundancy(summarize_redundancy(crossfit, X))
        assert REDUNDANCY_SCHEMA in lines[0]
