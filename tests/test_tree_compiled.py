"""Golden-equivalence tests for the compiled flat-array backend.

The compiled representation must be *bit-identical* to the paper-faithful
node-walk reference (``backend="node"``) — including NaN/inf routing,
surrogate splits, pruning, ensembles and serialization — so every check
here uses exact comparisons, never tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CTConfig, SamplingConfig
from repro.core.predictor import DriveFailurePredictor
from repro.core.sampling import build_training_set
from repro.features.selection import critical_features
from repro.features.vectorize import FeatureExtractor
from repro.tree import (
    AdaBoostClassifier,
    ClassificationTree,
    CompiledForest,
    CompiledTree,
    RandomForestClassifier,
    RandomForestRegressor,
    RegressionTree,
    cost_complexity_path,
    load_model,
    prune_to_alpha,
    save_model,
)
from repro.tree.serialization import (
    classification_tree_from_dict,
    classification_tree_to_dict,
)


def make_matrix(n_rows, n_features=8, *, nan_frac=0.15, inf_frac=0.01, seed=0):
    """A feature matrix with injected NaN and +/-inf (both count as missing)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, n_features))
    X[rng.random(X.shape) < nan_frac] = np.nan
    X[rng.random(X.shape) < inf_frac] = np.inf
    X[rng.random(X.shape) < inf_frac] = -np.inf
    return X


def make_labels(X, seed=0):
    rng = np.random.default_rng(seed)
    # +inf and -inf in one row sum to NaN (labelled -1); that NaN is
    # intended, so it must not warn.
    with np.errstate(invalid="ignore"):
        signal = np.nansum(X[:, : min(3, X.shape[1])], axis=1)
    return np.where(signal + 0.5 * rng.normal(size=X.shape[0]) > 0, 1, -1)


def fit_pair(X, y, **params):
    """The same tree fitted under both backends."""
    compiled = ClassificationTree(backend="compiled", **params).fit(X, y)
    node = ClassificationTree(backend="node", **params).fit(X, y)
    return compiled, node


class TestGoldenEquivalence:
    @pytest.mark.parametrize("n_surrogates", [0, 2])
    def test_classification_outputs_identical(self, n_surrogates):
        X = make_matrix(600, seed=1)
        y = make_labels(X, seed=2)
        Xt = make_matrix(400, seed=3)
        compiled, node = fit_pair(
            X, y, minsplit=8, minbucket=3, cp=0.001, n_surrogates=n_surrogates
        )
        assert np.array_equal(compiled.apply(Xt), node.apply(Xt))
        assert np.array_equal(compiled.predict(Xt), node.predict(Xt))
        assert np.array_equal(compiled.predict_proba(Xt), node.predict_proba(Xt))

    @pytest.mark.parametrize("n_surrogates", [0, 2])
    def test_decision_path_identical(self, n_surrogates):
        X = make_matrix(500, seed=4)
        y = make_labels(X, seed=5)
        Xt = make_matrix(60, seed=6)
        compiled, node = fit_pair(
            X, y, minsplit=8, minbucket=3, cp=0.001, n_surrogates=n_surrogates
        )
        for row in Xt:
            path_compiled = [n.node_id for n in compiled.decision_path(row)]
            path_node = [n.node_id for n in node.decision_path(row)]
            assert path_compiled == path_node

    def test_regression_outputs_identical(self):
        X = make_matrix(600, seed=7)
        target = np.where(np.isfinite(X[:, 0]), X[:, 0], 0.0) + 0.1 * np.arange(
            X.shape[0]
        )
        compiled = RegressionTree(cp=0.001, n_surrogates=2).fit(X, target)
        node = RegressionTree(cp=0.001, n_surrogates=2, backend="node").fit(X, target)
        Xt = make_matrix(400, seed=8)
        assert np.array_equal(compiled.predict(Xt), node.predict(Xt))
        assert np.array_equal(compiled.apply(Xt), node.apply(Xt))

    def test_fleet_matrix_identical(self, tiny_split):
        """Real generated-fleet features (native missing patterns)."""
        extractor = FeatureExtractor(critical_features())
        training = build_training_set(
            extractor,
            tiny_split.train_good,
            tiny_split.train_failed,
            SamplingConfig(good_samples_per_drive=3),
            failed_share=0.2,
        )
        compiled, node = fit_pair(
            training.X, training.y, minsplit=4, minbucket=2, cp=0.001, n_surrogates=2
        )
        fleet = np.vstack(
            [extractor.extract(drive) for drive in tiny_split.test_failed]
        )
        usable = fleet[np.any(np.isfinite(fleet), axis=1)]
        assert np.array_equal(
            compiled.predict_proba(usable), node.predict_proba(usable)
        )

    def test_backend_switch_on_fitted_tree(self):
        """Flipping ``backend`` after fit reroutes without refitting."""
        X = make_matrix(300, seed=9)
        y = make_labels(X)
        tree = ClassificationTree(minsplit=8, cp=0.001).fit(X, y)
        batched = tree.predict(X)
        tree.backend = "node"
        assert np.array_equal(tree.predict(X), batched)


class TestEnsembleEquivalence:
    def test_random_forest_identical(self):
        X = make_matrix(500, seed=10)
        y = make_labels(X)
        Xt = make_matrix(300, seed=11)
        compiled = RandomForestClassifier(n_trees=8, seed=2).fit(X, y)
        node = RandomForestClassifier(n_trees=8, seed=2, backend="node").fit(X, y)
        assert np.array_equal(compiled.predict_proba(Xt), node.predict_proba(Xt))
        assert np.array_equal(compiled.predict(Xt), node.predict(Xt))

    def test_regression_forest_identical(self):
        X = make_matrix(500, seed=12)
        target = np.where(np.isfinite(X[:, 1]), X[:, 1], 0.0) * 3.0
        Xt = make_matrix(300, seed=13)
        compiled = RandomForestRegressor(n_trees=6, seed=2).fit(X, target)
        node = RandomForestRegressor(n_trees=6, seed=2, backend="node").fit(X, target)
        assert np.array_equal(compiled.predict(Xt), node.predict(Xt))

    def test_adaboost_identical(self):
        X = make_matrix(500, seed=14)
        y = make_labels(X)
        Xt = make_matrix(300, seed=15)
        compiled = AdaBoostClassifier(n_rounds=6).fit(X, y)
        node = AdaBoostClassifier(n_rounds=6, backend="node").fit(X, y)
        assert np.array_equal(
            compiled.decision_function(Xt), node.decision_function(Xt)
        )
        assert np.array_equal(compiled.predict(Xt), node.predict(Xt))

    def test_forest_stacking_matches_members(self):
        """CompiledForest.predict_matrix row t == member t's predictions."""
        X = make_matrix(400, seed=16)
        y = make_labels(X)
        forest = RandomForestClassifier(n_trees=5, seed=3).fit(X, y)
        Xt = make_matrix(200, seed=17)
        stacked = CompiledForest(
            [tree.compiled_ for tree in forest.trees_]
        ).predict_matrix(Xt)
        for member, tree in enumerate(forest.trees_):
            assert np.array_equal(stacked[member], tree.compiled_.predict(Xt))


class TestPruningAndSerialization:
    def test_pruning_recompiles(self):
        X = make_matrix(600, seed=18)
        y = make_labels(X)
        Xt = make_matrix(300, seed=19)
        compiled, node = fit_pair(X, y, minsplit=6, minbucket=2, cp=0.0)
        path = cost_complexity_path(compiled)
        for step in path[1 : len(path) : max(1, len(path) // 3)]:
            pruned_c = prune_to_alpha(compiled, step.alpha)
            pruned_n = prune_to_alpha(node, step.alpha)
            assert np.array_equal(
                pruned_c.predict_proba(Xt), pruned_n.predict_proba(Xt)
            )
            assert pruned_c.compiled_.n_nodes == sum(
                1 for _ in pruned_c.root_.iter_nodes()
            )

    def test_round_trip_is_lossless(self, tmp_path):
        X = make_matrix(500, seed=20)
        y = make_labels(X)
        tree = ClassificationTree(minsplit=8, cp=0.001, n_surrogates=2).fit(X, y)
        path = tmp_path / "model.json"
        save_model(path, tree, feature_names=[f"f{i}" for i in range(X.shape[1])])
        loaded, names = load_model(path)
        assert names == [f"f{i}" for i in range(X.shape[1])]
        Xt = make_matrix(300, seed=21)
        assert np.array_equal(loaded.predict_proba(Xt), tree.predict_proba(Xt))
        assert np.array_equal(loaded.apply(Xt), tree.apply(Xt))
        for field in CompiledTree._ARRAY_FIELDS:
            before = getattr(tree.compiled_, field)
            after = getattr(loaded.compiled_, field)
            if before.dtype.kind == "f":
                assert np.array_equal(before, after, equal_nan=True), field
            else:
                assert np.array_equal(before, after), field

    def test_legacy_payload_without_compiled_section(self):
        """Pre-backend payloads recompile from the node graph."""
        X = make_matrix(300, seed=22)
        y = make_labels(X)
        tree = ClassificationTree(minsplit=8, cp=0.001).fit(X, y)
        payload = classification_tree_to_dict(tree)
        del payload["compiled"]
        del payload["params"]["backend"]
        loaded = classification_tree_from_dict(payload)
        assert loaded.compiled_ is not None
        Xt = make_matrix(100, seed=23)
        assert np.array_equal(loaded.predict(Xt), tree.predict(Xt))


class TestCompiledStructure:
    def test_flat_arrays_shape_and_order(self):
        X = make_matrix(400, seed=24)
        y = make_labels(X)
        tree = ClassificationTree(minsplit=8, cp=0.001, n_surrogates=2).fit(X, y)
        compiled = tree.compiled_
        n = compiled.n_nodes
        assert n == sum(1 for _ in tree.root_.iter_nodes())
        # Pre-order: slot 0 is the root, children come after their parent.
        assert compiled.node_id[0] == tree.root_.node_id
        internal = compiled.feature >= 0
        assert np.all(compiled.children_left[internal] > np.nonzero(internal)[0])
        # CSR surrogate table is monotone and sized to the payload arrays.
        assert compiled.surrogate_offset[0] == 0
        assert np.all(np.diff(compiled.surrogate_offset) >= 0)
        assert compiled.surrogate_offset[-1] == compiled.surrogate_feature.shape[0]
        # Leaf values sum to the class-distribution mass per node.
        assert compiled.values.shape == (n, 2)

    def test_single_leaf_tree(self):
        X = np.zeros((6, 4))
        y = np.ones(6, dtype=int)
        tree = ClassificationTree().fit(X, y)
        assert tree.compiled_.n_nodes == 1
        assert np.array_equal(tree.predict(X), np.ones(6, dtype=int))
        assert np.array_equal(tree.apply(X), np.ones(6, dtype=np.int64))

    def test_empty_matrix(self):
        X = make_matrix(200, seed=25)
        y = make_labels(X)
        tree = ClassificationTree(minsplit=8).fit(X, y)
        empty = np.empty((0, X.shape[1]))
        assert tree.predict(empty).shape == (0,)
        assert tree.predict_proba(empty).shape == (0, 2)

    def test_all_missing_rows_follow_fallback(self):
        """Rows that are entirely missing still route deterministically."""
        X = make_matrix(400, seed=26)
        y = make_labels(X)
        compiled, node = fit_pair(X, y, minsplit=8, cp=0.001, n_surrogates=2)
        blank = np.full((5, X.shape[1]), np.nan)
        assert np.array_equal(compiled.predict(blank), node.predict(blank))


class TestPipelineBatching:
    def test_predictor_scores_match_per_drive_loop(self, tiny_split):
        """The batched fleet call equals scoring each drive separately."""
        predictor = DriveFailurePredictor(
            CTConfig(minsplit=4, minbucket=2, cp=0.001)
        ).fit(tiny_split)
        drives = list(tiny_split.test_good[:5]) + list(tiny_split.test_failed[:5])
        batched = predictor.score_drives(drives)
        for drive, series in zip(drives, batched):
            single = predictor.score_drive(drive)
            assert np.array_equal(series.scores, single.scores, equal_nan=True)
            assert series.serial == single.serial == drive.serial


class TestScoreTimeFaultInjection:
    """Golden check: fault-injected fleets route identically per backend.

    Trees are fitted on the *clean* fleet; the corruption arrives only at
    score time (the degraded-serving scenario), so every injected NaN/inf
    must flow through surrogate order and the ``missing_goes_left``
    fallback the same way in the compiled arrays and the node walk.
    """

    @pytest.mark.parametrize("profile", ["sensor-noise", "dropout", "everything"])
    def test_corrupted_fleet_scores_identically(self, tiny_split, profile):
        from repro.robustness import corrupted_cell_fraction, inject_dataset
        from repro.smart.dataset import SmartDataset

        extractor = FeatureExtractor(critical_features())
        training = build_training_set(
            extractor,
            tiny_split.train_good,
            tiny_split.train_failed,
            SamplingConfig(good_samples_per_drive=3),
            failed_share=0.2,
        )
        compiled, node = fit_pair(
            training.X, training.y, minsplit=4, minbucket=2, cp=0.001, n_surrogates=2
        )

        clean = SmartDataset(
            list(tiny_split.test_good[:12]) + list(tiny_split.test_failed)
        )
        dirty = inject_dataset(clean, profile, seed=13)
        assert corrupted_cell_fraction(clean, dirty) > 0.0
        rows = np.vstack([extractor.extract(drive) for drive in dirty.drives])
        usable = rows[np.any(np.isfinite(rows), axis=1)]
        assert usable.size > 0

        assert np.array_equal(compiled.apply(usable), node.apply(usable))
        assert np.array_equal(compiled.predict(usable), node.predict(usable))
        assert np.array_equal(
            compiled.predict_proba(usable), node.predict_proba(usable)
        )

    def test_injected_rows_fall_back_without_surrogates(self, tiny_split):
        # n_surrogates=0 exercises the pure missing_goes_left fallback.
        from repro.robustness import NaNInjection, FaultProfile, inject_dataset
        from repro.smart.dataset import SmartDataset

        extractor = FeatureExtractor(critical_features())
        training = build_training_set(
            extractor,
            tiny_split.train_good,
            tiny_split.train_failed,
            SamplingConfig(good_samples_per_drive=3),
            failed_share=0.2,
        )
        compiled, node = fit_pair(
            training.X, training.y, minsplit=4, minbucket=2, cp=0.001, n_surrogates=0
        )
        heavy = FaultProfile(
            "heavy-nan", (NaNInjection(rate=0.5, inf_fraction=0.2),)
        )
        dirty = inject_dataset(
            SmartDataset(list(tiny_split.test_failed)), heavy, seed=29
        )
        rows = np.vstack([extractor.extract(drive) for drive in dirty.drives])
        usable = rows[np.any(np.isfinite(rows), axis=1)]
        assert np.array_equal(compiled.apply(usable), node.apply(usable))
        assert np.array_equal(compiled.predict(usable), node.predict(usable))


@st.composite
def matrix_with_missing(draw):
    n_rows = draw(st.integers(30, 120))
    n_features = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**16))
    nan_frac = draw(st.floats(0.0, 0.4))
    return make_matrix(n_rows, n_features, nan_frac=nan_frac, seed=seed)


class TestPropertyEquivalence:
    @given(matrix_with_missing(), st.integers(0, 3), st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_random_problems_identical(self, X, n_surrogates, label_seed):
        y = make_labels(X, seed=label_seed)
        if len(np.unique(y)) < 2:
            return
        compiled, node = fit_pair(
            X, y, minsplit=4, minbucket=2, cp=0.0, n_surrogates=n_surrogates
        )
        Xt = make_matrix(
            80, X.shape[1], nan_frac=0.3, inf_frac=0.05, seed=label_seed + 1
        )
        assert np.array_equal(compiled.apply(Xt), node.apply(Xt))
        assert np.array_equal(compiled.predict(Xt), node.predict(Xt))
        assert np.array_equal(compiled.predict_proba(Xt), node.predict_proba(Xt))

    @given(matrix_with_missing(), st.integers(0, 3), st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_decision_paths_agree_node_for_node(self, X, n_surrogates, label_seed):
        """Alert provenance depends on both backends walking the same path.

        `alert_raised` events record the decision path of whatever
        backend the monitor's tree happens to use, so the node walk
        (`Node.route`, surrogate + majority fallback) and the compiled
        walk (`decision_path_ids` over flat arrays) must agree
        node-for-node — including rows with NaN/inf that exercise
        surrogate routing.
        """
        y = make_labels(X, seed=label_seed)
        if len(np.unique(y)) < 2:
            return
        compiled, node = fit_pair(
            X, y, minsplit=4, minbucket=2, cp=0.0, n_surrogates=n_surrogates
        )
        Xt = make_matrix(
            40, X.shape[1], nan_frac=0.35, inf_frac=0.05, seed=label_seed + 3
        )
        backend = compiled._use_compiled()
        assert backend is not None
        for row in Xt:
            ids_compiled = backend.decision_path_ids(row)
            path_node = node.decision_path(row)
            assert ids_compiled == [n.node_id for n in path_node]
            # Same leaf, same stats: provenance payloads match exactly.
            leaf = path_node[-1]
            assert leaf.is_leaf
            assert ids_compiled[-1] == leaf.node_id

    @given(matrix_with_missing(), st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_random_serialization_round_trip(self, X, label_seed):
        y = make_labels(X, seed=label_seed)
        if len(np.unique(y)) < 2:
            return
        tree = ClassificationTree(minsplit=4, minbucket=2, cp=0.0, n_surrogates=2)
        tree.fit(X, y)
        restored = classification_tree_from_dict(classification_tree_to_dict(tree))
        Xt = make_matrix(60, X.shape[1], nan_frac=0.3, seed=label_seed + 7)
        assert np.array_equal(restored.predict_proba(Xt), tree.predict_proba(Xt))
        assert np.array_equal(restored.apply(Xt), tree.apply(Xt))
