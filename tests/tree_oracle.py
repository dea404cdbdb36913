"""Reference oracle for the tree package: the node walk and the re-sorting grower.

The estimators in :mod:`repro.tree` have one scoring path (the compiled
flat arrays) and one growth path (the presorted frontier).  This module
keeps the two straightforward implementations those replace, so the
golden tests — and the micro-benchmarks' baselines — can compare
against them exactly:

* **Node walk.**  :func:`route_rows` descends a batch of rows through
  the Figure-1 :class:`~repro.tree.node.Node` graph (primary split, then
  surrogates, then the ``missing_goes_left`` fallback), and
  :func:`node_decision_path` follows one row with
  :meth:`~repro.tree.node.Node.route`.  :class:`NodeWalkClassificationTree`
  and :class:`NodeWalkRegressionTree` are trees that score only through
  it, so they plug in wherever a fitted tree is expected (monitors,
  pruning, ``decision_paths``).  The ``node_forest_*`` and
  ``node_adaboost_*`` functions score a fitted ensemble member by member
  through the walk.
* **Re-sorting grower.**  :class:`ResortingClassificationTree` and
  :class:`ResortingRegressionTree` ignore the presorted frontier and
  search every node with :func:`~repro.tree.splitter.find_best_split`
  and :func:`~repro.tree.surrogates.find_surrogate_splits`, which re-sort
  the node's rows — Algorithms 1 and 2 as the paper writes them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tree.classification import ClassificationTree
from repro.tree.node import Node
from repro.tree.regression import RegressionTree
from repro.tree.splitter import SplitCandidate, find_best_split, partition
from repro.tree.surrogates import find_surrogate_splits, route_left_with_surrogates

# -- node walk ----------------------------------------------------------------


def partition_rows(
    rows: np.ndarray,
    feature: int,
    threshold: float,
    surrogates,
    missing_goes_left: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Left/right masks using the primary split, surrogates, fallback."""
    column = rows[:, feature]
    left, right = partition(column, threshold, missing_goes_left)
    if surrogates:
        for index in np.nonzero(~np.isfinite(column))[0]:
            goes_left = route_left_with_surrogates(
                rows[index], feature, threshold, surrogates, missing_goes_left
            )
            left[index] = goes_left
            right[index] = not goes_left
    return left, right


def route_rows(root: Node, X: np.ndarray, out: np.ndarray, leaf_value) -> None:
    """Descend all rows through the tree, writing ``leaf_value(leaf)`` to ``out``."""
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if len(rows) == 0:
            continue
        if node.is_leaf:
            out[rows] = leaf_value(node)
            continue
        left_mask, right_mask = partition_rows(
            X[rows], node.feature, node.threshold,
            node.surrogates, node.missing_goes_left,
        )
        stack.append((node.left, rows[left_mask]))
        stack.append((node.right, rows[right_mask]))


def route_rows_node_ids(root: Node, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.int64)
    route_rows(root, X, out, lambda leaf: leaf.node_id)
    return out


def route_rows_predictions(root: Node, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=float)
    route_rows(root, X, out, lambda leaf: leaf.prediction)
    return out


def node_apply(tree, X) -> np.ndarray:
    """Leaf node id per row of ``X``, by the batched node walk."""
    root = tree._check_fitted()
    return route_rows_node_ids(root, tree._validate_X(X))


def node_leaf_predictions(tree, X) -> np.ndarray:
    """Leaf ``prediction`` per row of ``X``, by the batched node walk."""
    root = tree._check_fitted()
    return route_rows_predictions(root, tree._validate_X(X))


def node_predict(tree, X) -> np.ndarray:
    """``tree.predict(X)`` by the batched node walk (integer labels stay integer)."""
    raw = node_leaf_predictions(tree, X)
    classes = getattr(tree, "classes_", None)
    if classes is not None and np.issubdtype(classes.dtype, np.integer):
        return raw.astype(classes.dtype)
    return raw


def node_predict_proba(tree: ClassificationTree, X) -> np.ndarray:
    """Leaf class distribution per row of ``X``, by the batched node walk."""
    root = tree._check_fitted()
    leaf_ids = route_rows_node_ids(root, tree._validate_X(X))
    by_id = {
        node.node_id: node.class_distribution
        for node in root.iter_nodes()
        if node.is_leaf
    }
    return np.vstack([by_id[int(i)] for i in leaf_ids])


def node_decision_path(tree, sample) -> list[Node]:
    """The root-to-leaf nodes one sample visits under :meth:`Node.route`."""
    root = tree._check_fitted()
    row = np.asarray(sample, dtype=float)
    if row.ndim != 1 or row.shape[0] != tree.n_features_:
        raise ValueError(
            f"sample must be 1-D with {tree.n_features_} features, got shape {row.shape}"
        )
    path = [root]
    node = root
    while not node.is_leaf:
        node = node.route(row)
        path.append(node)
    return path


def node_decision_paths(tree, X) -> list[tuple[int, ...]]:
    """Per-row node-id chains, each walked separately with :meth:`Node.route`."""
    return [
        tuple(node.node_id for node in node_decision_path(tree, row))
        for row in np.asarray(X, dtype=float)
    ]


class _NodeWalkScoring:
    """Scores a fitted tree through the node walk instead of its flat arrays."""

    def apply(self, X) -> np.ndarray:
        return node_apply(self, X)

    def _leaf_predictions(self, X) -> np.ndarray:
        return node_leaf_predictions(self, X)

    def decision_path(self, sample) -> list[Node]:
        return node_decision_path(self, sample)


class NodeWalkClassificationTree(_NodeWalkScoring, ClassificationTree):
    """A :class:`ClassificationTree` that scores only through the node walk."""

    def predict_proba(self, X) -> np.ndarray:
        return node_predict_proba(self, X)


class NodeWalkRegressionTree(_NodeWalkScoring, RegressionTree):
    """A :class:`RegressionTree` that scores only through the node walk."""


# Ensembles, member by member.


def node_forest_predict_proba(forest, X) -> np.ndarray:
    """:meth:`RandomForestClassifier.predict_proba`, one member walk at a time."""
    matrix = np.asarray(X, dtype=float)
    votes = np.zeros((matrix.shape[0], len(forest.classes_)), dtype=float)
    for tree in forest.trees_:
        predictions = node_predict(tree, matrix)
        for column, cls in enumerate(forest.classes_):
            votes[:, column] += predictions == cls
    return votes / len(forest.trees_)


def node_forest_predict(forest, X) -> np.ndarray:
    """:meth:`RandomForestClassifier.predict` through the member walks."""
    return forest.classes_[np.argmax(node_forest_predict_proba(forest, X), axis=1)]


def node_forest_regressor_predict(forest, X) -> np.ndarray:
    """:meth:`RandomForestRegressor.predict`, one member walk at a time."""
    matrix = np.asarray(X, dtype=float)
    return np.mean([node_predict(tree, matrix) for tree in forest.trees_], axis=0)


def node_adaboost_decision_function(model, X) -> np.ndarray:
    """:meth:`AdaBoostClassifier.decision_function`, one member walk at a time."""
    matrix = np.asarray(X, dtype=float)
    margin = np.zeros(matrix.shape[0], dtype=float)
    for alpha, tree in zip(model.alphas_, model.trees_):
        predictions = node_predict(tree, matrix)
        margin += alpha * np.where(predictions == model.classes_[1], 1.0, -1.0)
    return margin


# -- re-sorting grower ---------------------------------------------------------


class _ResortingGrowth:
    """Surrogate search that re-sorts the node's rows; the frontier is ignored."""

    def _find_surrogates(self, indices, candidate: SplitCandidate, frontier_node):
        if self.n_surrogates <= 0:
            return ()
        rows = self._X[indices]
        column = rows[:, candidate.feature]
        finite = np.isfinite(column)
        if finite.sum() < 2:
            return ()
        return find_surrogate_splits(
            rows[finite],
            column[finite] < candidate.threshold,
            self._w[indices][finite],
            exclude_feature=candidate.feature,
            max_surrogates=self.n_surrogates,
        )


class ResortingClassificationTree(_ResortingGrowth, ClassificationTree):
    """A :class:`ClassificationTree` grown by re-sorting at every node."""

    def _search_split(self, indices, frontier_node) -> Optional[SplitCandidate]:
        return find_best_split(
            self._X[indices],
            task="classification",
            weights=self._w[indices],
            minbucket=self.minbucket,
            class_indices=self._class_indices[indices],
            n_classes=self._n_classes,
            criterion=self.criterion,
        )


class ResortingRegressionTree(_ResortingGrowth, RegressionTree):
    """A :class:`RegressionTree` grown by re-sorting at every node."""

    def _search_split(self, indices, frontier_node) -> Optional[SplitCandidate]:
        return find_best_split(
            self._X[indices],
            task="regression",
            weights=self._w[indices],
            minbucket=self.minbucket,
            targets=self._y[indices],
        )
