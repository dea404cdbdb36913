"""Golden-equivalence tests for compiled flat-array scoring.

The compiled representation must be *bit-identical* to the paper-faithful
node walk kept in :mod:`tests.tree_oracle` — including NaN/inf routing,
surrogate splits, pruning, ensembles and serialization — so every check
here uses exact comparisons, never tolerances.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CTConfig, SamplingConfig
from repro.core.predictor import DriveFailurePredictor
from repro.core.sampling import build_training_set
from repro.features.selection import critical_features
from repro.features.vectorize import FeatureExtractor
from repro.robustness import BUILTIN_PROFILES
from repro.tree import (
    AdaBoostClassifier,
    ClassificationTree,
    CompiledForest,
    RandomForestClassifier,
    RandomForestRegressor,
    RegressionTree,
    cost_complexity_path,
    load_model,
    prune_to_alpha,
    save_model,
)
from repro.tree.compiled import MASK_SHARE, CompiledTree
from repro.tree.node import Node
from repro.tree.serialization import (
    classification_tree_from_dict,
    classification_tree_to_dict,
)
from repro.tree.surrogates import SurrogateSplit
from tests.tree_oracle import (
    NodeWalkClassificationTree,
    NodeWalkRegressionTree,
    node_adaboost_decision_function,
    node_decision_paths,
    node_forest_predict,
    node_forest_predict_proba,
    node_forest_regressor_predict,
    route_rows_node_ids,
)

#: The flat arrays a :class:`~repro.tree.compiled.CompiledTree` is built from.
ARRAY_FIELDS = (
    "feature", "threshold", "children_left", "children_right",
    "missing_goes_left", "node_id", "prediction", "values",
    "surrogate_offset", "surrogate_feature", "surrogate_threshold",
    "surrogate_less_goes_left",
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
    """The same tree fitted twice: scored compiled, and by the oracle walk."""
    compiled = ClassificationTree(**params).fit(X, y)
    node = NodeWalkClassificationTree(**params).fit(X, y)
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
        assert compiled.decision_paths(Xt) == node_decision_paths(node, Xt)

    def test_regression_outputs_identical(self):
        X = make_matrix(600, seed=7)
        target = np.where(np.isfinite(X[:, 0]), X[:, 0], 0.0) + 0.1 * np.arange(
            X.shape[0]
        )
        compiled = RegressionTree(cp=0.001, n_surrogates=2).fit(X, target)
        node = NodeWalkRegressionTree(cp=0.001, n_surrogates=2).fit(X, target)
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


class TestEnsembleEquivalence:
    def test_random_forest_identical(self):
        X = make_matrix(500, seed=10)
        y = make_labels(X)
        Xt = make_matrix(300, seed=11)
        forest = RandomForestClassifier(n_trees=8, seed=2).fit(X, y)
        assert np.array_equal(
            forest.predict_proba(Xt), node_forest_predict_proba(forest, Xt)
        )
        assert np.array_equal(forest.predict(Xt), node_forest_predict(forest, Xt))

    def test_regression_forest_identical(self):
        X = make_matrix(500, seed=12)
        target = np.where(np.isfinite(X[:, 1]), X[:, 1], 0.0) * 3.0
        Xt = make_matrix(300, seed=13)
        forest = RandomForestRegressor(n_trees=6, seed=2).fit(X, target)
        assert np.array_equal(
            forest.predict(Xt), node_forest_regressor_predict(forest, Xt)
        )

    def test_adaboost_identical(self):
        X = make_matrix(500, seed=14)
        y = make_labels(X)
        Xt = make_matrix(300, seed=15)
        model = AdaBoostClassifier(n_rounds=6).fit(X, y)
        margin = node_adaboost_decision_function(model, Xt)
        assert np.array_equal(model.decision_function(Xt), margin)
        assert np.array_equal(
            model.predict(Xt),
            np.where(margin >= 0, model.classes_[1], model.classes_[0]),
        )

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
        for field in ARRAY_FIELDS:
            before = getattr(tree.compiled_, field)
            after = getattr(loaded.compiled_, field)
            if before.dtype.kind == "f":
                assert np.array_equal(before, after, equal_nan=True), field
            else:
                assert np.array_equal(before, after), field

    def test_legacy_payload_without_compiled_section(self):
        """Payloads hold only the node graph; loading recompiles from it."""
        X = make_matrix(300, seed=22)
        y = make_labels(X)
        tree = ClassificationTree(minsplit=8, cp=0.001).fit(X, y)
        payload = classification_tree_to_dict(tree)
        assert "compiled" not in payload
        assert not {"backend", "presort"} & set(payload["params"])
        loaded = classification_tree_from_dict(payload)
        assert loaded.compiled_ is not None
        Xt = make_matrix(100, seed=23)
        assert np.array_equal(loaded.predict(Xt), tree.predict(Xt))

    @staticmethod
    def _with_compiled_section(payload, tree):
        """``payload`` as older builds wrote it: flat arrays next to the graph."""
        payload["compiled"] = {
            field: getattr(tree.compiled_, field).tolist() for field in ARRAY_FIELDS
        }
        return payload

    def test_disagreeing_compiled_section_scores_like_the_graph(self):
        """A stale or edited ``compiled`` copy never overrides the graph."""
        X = make_matrix(500, seed=30)
        y = make_labels(X, seed=31)
        tree = ClassificationTree(minsplit=8, minbucket=3, cp=0.001, n_surrogates=2)
        tree.fit(X, y)
        payload = self._with_compiled_section(classification_tree_to_dict(tree), tree)
        thresholds = payload["compiled"]["threshold"]
        payload["compiled"]["threshold"] = [t + 1.0 for t in thresholds]
        loaded = classification_tree_from_dict(payload)
        Xt = make_matrix(400, seed=32)
        assert np.array_equal(loaded.predict(Xt), tree.predict(Xt))
        assert np.array_equal(loaded.predict_proba(Xt), tree.predict_proba(Xt))
        assert loaded.decision_paths(Xt) == node_decision_paths(loaded, Xt)
        assert loaded.decision_paths(Xt) == tree.decision_paths(Xt)
        assert np.array_equal(
            loaded.compiled_.threshold, tree.compiled_.threshold, equal_nan=True
        )

    def test_parent_format_payload_round_trips(self):
        """Payloads carrying the retired ``backend``/``presort`` keys still load."""
        X = make_matrix(400, seed=33)
        y = make_labels(X, seed=34)
        tree = ClassificationTree(minsplit=8, minbucket=3, cp=0.001, n_surrogates=2)
        tree.fit(X, y)
        payload = self._with_compiled_section(classification_tree_to_dict(tree), tree)
        payload["params"].update(backend="node", presort=False)
        loaded = classification_tree_from_dict(payload)
        assert not hasattr(loaded, "backend") and not hasattr(loaded, "presort")
        Xt = make_matrix(300, seed=35)
        assert np.array_equal(loaded.predict(Xt), tree.predict(Xt))
        assert loaded.decision_paths(Xt) == tree.decision_paths(Xt)
        assert classification_tree_to_dict(loaded) == classification_tree_to_dict(tree)


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
    """Golden check: fault-injected fleets route like the oracle walk.

    Trees are fitted on the *clean* fleet; the corruption arrives only at
    score time (the degraded-serving scenario), so every injected NaN/inf
    must flow through surrogate order and the ``missing_goes_left``
    fallback the same way in the compiled arrays and the node walk.
    """

    @pytest.mark.parametrize("profile", sorted(BUILTIN_PROFILES))
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
        if profile not in ("clean", "dirty-feed"):
            # The control and the stream-only reordering leave cells intact;
            # every other profile must corrupt some.
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
        """Alert provenance must read like the Figure-1 tree.

        `alert_raised` events record the compiled walk
        (`decision_path_ids` over flat arrays), so it must agree
        node-for-node with the oracle walk (`Node.route`, surrogate +
        majority fallback) — including rows with NaN/inf that exercise
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
        for row in Xt:
            ids_compiled = compiled.compiled_.decision_path_ids(row)
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


#: Split and surrogate thresholds, and most matrix cells, come from one
#: small grid, so cells tie with thresholds exactly (a tie goes right).
_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)
_CELLS = np.array(_GRID + (np.nan, np.inf, -np.inf))


def _random_node(draw, n_features, depth, ids, max_depth):
    """A random Figure-1 subtree with random surrogates and NaN fallbacks."""
    base = dict(
        node_id=next(ids), depth=depth, n_samples=1, weight=1.0, impurity=0.0,
    )
    base["prediction"] = float(base["node_id"])
    if depth == max_depth or not draw(st.integers(0, 3)):
        return Node(**base)
    features = st.integers(0, n_features - 1)
    surrogates = tuple(
        SurrogateSplit(
            draw(features), draw(st.sampled_from(_GRID)), draw(st.booleans()), 0.5
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    return Node(
        **base,
        feature=draw(features),
        threshold=draw(st.sampled_from(_GRID)),
        missing_goes_left=draw(st.booleans()),
        surrogates=surrogates,
        left=_random_node(draw, n_features, depth + 1, ids, max_depth),
        right=_random_node(draw, n_features, depth + 1, ids, max_depth),
    )


@st.composite
def routing_problems(draw):
    """``(roots, X)``: random trees and a batch built to straddle the switch.

    The batch has ``8 * k`` rows.  When ``n_left`` is drawn, every root
    splits on column 0 at 0.0 and exactly ``n_left`` rows go left — one
    below, at or above ``1/MASK_SHARE`` of the batch — so the left
    subtree starts as an index array or as a mask.  Column 0 then holds
    no missing cell; every other cell is a grid value, NaN, +/-inf or a
    normal draw.  ``X`` comes C-ordered, feature-major (each column
    contiguous) or strided in both axes.
    """
    n_features = draw(st.integers(1, 5))
    k = draw(st.integers(1, 40))
    n_rows = MASK_SHARE * k
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    weights = rng.dirichlet(np.ones(len(_CELLS)))
    X = rng.choice(_CELLS, size=(n_rows, n_features), p=weights)
    normal = rng.random(X.shape) < draw(st.floats(0.0, 0.5))
    X[normal] = rng.normal(size=int(normal.sum()))
    n_left = draw(st.sampled_from([None, k - 1, k, k + 1]))
    if n_left is not None:
        column = np.ones(n_rows)
        column[:n_left] = -1.0
        X[:, 0] = rng.permutation(column)
    roots = []
    for _ in range(draw(st.integers(1, 3))):
        ids = itertools.count(1)
        if n_left is None:
            root = _random_node(draw, n_features, 0, ids, draw(st.integers(0, 6)))
        else:
            root = Node(
                node_id=next(ids), depth=0, n_samples=1, weight=1.0, prediction=0.0,
                impurity=0.0, feature=0, threshold=0.0,
                left=_random_node(draw, n_features, 1, ids, 6),
                right=_random_node(draw, n_features, 1, ids, 6),
            )
        roots.append(root)
    layout = draw(st.sampled_from(["C", "feature-major", "strided"]))
    if layout == "feature-major":
        X = np.ascontiguousarray(X.T).T
    elif layout == "strided":
        wide = np.full((2 * n_rows, 2 * n_features), 7.0)
        wide[::2, ::2] = X
        X = wide[::2, ::2]
    return roots, X


class TestRouterDifferential:
    """The two-mode router against the node walk of ``tests/tree_oracle.py``.

    Random trees carry random surrogates and fallbacks; random batches
    carry NaN and +/-inf, come in three memory layouts and put nodes on
    both sides of the mask/index switch, including exactly at it.
    """

    @given(routing_problems())
    @settings(max_examples=80, deadline=None)
    def test_compiled_tree_matches_node_walk(self, problem):
        roots, X = problem
        for root in roots:
            compiled = CompiledTree.from_node(root)
            slots = compiled.apply_slots(X)
            assert compiled.is_leaf[slots].all()
            assert np.array_equal(compiled.node_id[slots], route_rows_node_ids(root, X))

    @given(routing_problems())
    @settings(max_examples=60, deadline=None)
    def test_compiled_forest_matches_node_walk(self, problem):
        roots, X = problem
        forest = CompiledForest([CompiledTree.from_node(root) for root in roots])
        slots = forest.apply_slots(X)
        assert slots.shape == (len(roots), X.shape[0])
        for member, root in enumerate(roots):
            assert np.array_equal(
                forest.node_id[slots[member]], route_rows_node_ids(root, X)
            )
