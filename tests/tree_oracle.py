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
* **Re-sorting split search.**  :func:`find_best_split` (built on
  :func:`best_classification_split` and :func:`best_regression_split`)
  and :func:`find_surrogate_splits` re-sort the node's rows for every
  feature (``O(d * n log n)`` per node) — Algorithms 1 and 2 as the
  paper writes them.  The trees' fused presorted search in
  :mod:`repro.tree.splitter` and :mod:`repro.tree.surrogates` must match
  them bit for bit.
* **Re-sorting grower.**  :class:`ResortingClassificationTree` and
  :class:`ResortingRegressionTree` ignore the presorted frontier and
  search every node with that reference.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tree.classification import ClassificationTree
from repro.tree.node import Node
from repro.tree.regression import RegressionTree
from repro.tree.splitter import (
    _NODE_IMPURITY,
    _ROW_IMPURITY,
    SplitCandidate,
    _missing_side,
    partition,
)
from repro.tree.surrogates import SurrogateSplit, route_left_with_surrogates

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


# -- re-sorting split search ---------------------------------------------------


def best_classification_split(
    feature_values: np.ndarray,
    class_indices: np.ndarray,
    weights: np.ndarray,
    n_classes: int,
    *,
    minbucket: int = 1,
    criterion: str = "entropy",
) -> Optional[tuple[float, float]]:
    """Best (threshold, gain) for one feature at a classification node.

    Returns ``None`` when no admissible split exists (constant feature,
    all-missing feature, or minbucket unreachable).  Gain is measured on
    the node's *finite-valued* samples, matching the convention that NaNs
    carry no split information.
    """
    finite = np.isfinite(feature_values)
    x = feature_values[finite]
    if x.size < 2 * minbucket:
        return None
    cls = class_indices[finite]
    w = weights[finite]

    order = np.argsort(x, kind="stable")
    return _sorted_classification_split(
        x[order], cls[order], w[order], n_classes,
        minbucket=minbucket, criterion=criterion,
    )


def _sorted_classification_split(
    x_sorted: np.ndarray,
    cls_sorted: np.ndarray,
    w_sorted: np.ndarray,
    n_classes: int,
    *,
    minbucket: int,
    criterion: str,
) -> Optional[tuple[float, float]]:
    """Score a classification feature whose finite values are pre-sorted.

    Inputs are the node's finite values ascending (ties in row order)
    with the matching class indices and weights.
    """
    if x_sorted.size < 2 * minbucket:
        return None
    boundaries = np.nonzero(x_sorted[:-1] < x_sorted[1:])[0]
    if boundaries.size == 0:
        return None
    left_sizes = boundaries + 1
    admissible = (left_sizes >= minbucket) & (x_sorted.size - left_sizes >= minbucket)
    boundaries = boundaries[admissible]
    if boundaries.size == 0:
        return None

    onehot = np.zeros((x_sorted.size, n_classes), dtype=float)
    onehot[np.arange(x_sorted.size), cls_sorted] = w_sorted
    prefix = np.cumsum(onehot, axis=0)
    totals = prefix[-1]

    left = prefix[boundaries]
    right = totals[None, :] - left
    impurity_rows = _ROW_IMPURITY[criterion]
    total_weight = totals.sum()
    if total_weight <= 0:
        return None
    parent_impurity = _NODE_IMPURITY[criterion](totals)
    child_impurity = (
        left.sum(axis=1) * impurity_rows(left)
        + right.sum(axis=1) * impurity_rows(right)
    ) / total_weight
    gains = parent_impurity - child_impurity

    best = int(np.argmax(gains))
    gain = float(gains[best])
    if gain < -1e-12 or not np.isfinite(gain):
        return None
    # Zero-gain splits are admitted (within rounding tolerance): XOR-like interactions have no
    # first-split gain, yet their children separate perfectly.  CP
    # pruning removes the ones that never pay off.
    boundary = boundaries[best]
    threshold = float((x_sorted[boundary] + x_sorted[boundary + 1]) / 2.0)
    return threshold, max(gain, 0.0)


def best_regression_split(
    feature_values: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    *,
    minbucket: int = 1,
) -> Optional[tuple[float, float]]:
    """Best (threshold, SSE-reduction) for one feature at a regression node.

    The paper's Algorithm 2 selects the split minimising
    ``sq = sq_left + sq_right``; we return the equivalent maximisation of
    ``SSE(parent) - sq`` so classification and regression share a single
    "larger gain is better" contract.
    """
    finite = np.isfinite(feature_values)
    x = feature_values[finite]
    if x.size < 2 * minbucket:
        return None
    y = targets[finite]
    w = weights[finite]

    order = np.argsort(x, kind="stable")
    return _sorted_regression_split(
        x[order], y[order], w[order], minbucket=minbucket
    )


def _sorted_regression_split(
    x_sorted: np.ndarray,
    y_sorted: np.ndarray,
    w_sorted: np.ndarray,
    *,
    minbucket: int,
) -> Optional[tuple[float, float]]:
    """Score a regression feature whose finite values are pre-sorted."""
    if x_sorted.size < 2 * minbucket:
        return None
    boundaries = np.nonzero(x_sorted[:-1] < x_sorted[1:])[0]
    if boundaries.size == 0:
        return None
    left_sizes = boundaries + 1
    admissible = (left_sizes >= minbucket) & (x_sorted.size - left_sizes >= minbucket)
    boundaries = boundaries[admissible]
    if boundaries.size == 0:
        return None

    wy = w_sorted * y_sorted
    wyy = wy * y_sorted
    cw = np.cumsum(w_sorted)
    cwy = np.cumsum(wy)
    cwyy = np.cumsum(wyy)

    def _sse(sum_w: np.ndarray, sum_wy: np.ndarray, sum_wyy: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            means_term = np.where(sum_w > 0, sum_wy**2 / sum_w, 0.0)
        return sum_wyy - means_term

    left_sse = _sse(cw[boundaries], cwy[boundaries], cwyy[boundaries])
    right_sse = _sse(cw[-1] - cw[boundaries], cwy[-1] - cwy[boundaries], cwyy[-1] - cwyy[boundaries])
    parent_sse = _sse(np.array([cw[-1]]), np.array([cwy[-1]]), np.array([cwyy[-1]]))[0]
    gains = parent_sse - (left_sse + right_sse)

    best = int(np.argmax(gains))
    gain = float(gains[best])
    if gain < -1e-12 or not np.isfinite(gain):
        return None
    boundary = boundaries[best]
    threshold = float((x_sorted[boundary] + x_sorted[boundary + 1]) / 2.0)
    return threshold, max(gain, 0.0)


def find_best_split(
    X: np.ndarray,
    *,
    task: str,
    weights: np.ndarray,
    minbucket: int,
    class_indices: Optional[np.ndarray] = None,
    n_classes: int = 0,
    targets: Optional[np.ndarray] = None,
    criterion: str = "entropy",
) -> Optional[SplitCandidate]:
    """Search every (feature, threshold) pair at a node; return the best."""
    if task not in ("classification", "regression"):
        raise ValueError(f"task must be classification or regression, got {task!r}")
    best: Optional[SplitCandidate] = None
    for feature in range(X.shape[1]):
        column = X[:, feature]
        if task == "classification":
            found = best_classification_split(
                column, class_indices, weights, n_classes,
                minbucket=minbucket, criterion=criterion,
            )
        else:
            found = best_regression_split(
                column, targets, weights, minbucket=minbucket
            )
        if found is None:
            continue
        threshold, gain = found
        if best is None or gain > best.gain:
            goes_left = _missing_side(column, weights, threshold)
            best = SplitCandidate(int(feature), threshold, gain, goes_left)
    return best


def find_surrogate_splits(
    X: np.ndarray,
    primary_left: np.ndarray,
    weights: np.ndarray,
    *,
    exclude_feature: int,
    max_surrogates: int = 3,
) -> tuple[SurrogateSplit, ...]:
    """Rank surrogate rules that mimic a primary split.

    Args:
        X: The node's sample matrix.
        primary_left: Boolean mask — the primary split's left assignment
            (only rows with a finite primary value should be passed).
        weights: Sample weights aligned with ``X``.
        exclude_feature: The primary split's feature (never a surrogate).
        max_surrogates: How many rules to keep (rpart default keeps up
            to 5; we default to 3).

    Returns surrogates sorted by agreement, best first; only rules that
    beat the majority-direction baseline are admitted.
    """
    if max_surrogates <= 0 or X.shape[0] == 0:
        return ()
    left_weight = float(weights[primary_left].sum())
    right_weight = float(weights[~primary_left].sum())
    total = left_weight + right_weight
    if total <= 0:
        return ()
    baseline = max(left_weight, right_weight) / total

    found: list[SurrogateSplit] = []
    for feature in range(X.shape[1]):
        if feature == exclude_feature:
            continue
        column = X[:, feature]
        finite = np.isfinite(column)
        if finite.sum() < 2:
            continue
        x = column[finite]
        is_left = primary_left[finite]
        w = weights[finite]
        observed = float(w.sum())
        if observed <= 0:
            continue

        order = np.argsort(x, kind="stable")
        x_sorted = x[order]
        boundaries = np.nonzero(x_sorted[:-1] < x_sorted[1:])[0]
        if boundaries.size == 0:
            continue
        left_w = np.where(is_left[order], w[order], 0.0)
        right_w = np.where(is_left[order], 0.0, w[order])
        cum_left = np.cumsum(left_w)
        cum_right = np.cumsum(right_w)
        total_left = cum_left[-1]
        total_right = cum_right[-1]

        # "x < thr goes left": matches = left-labeled below + right-labeled above.
        normal = cum_left[boundaries] + (total_right - cum_right[boundaries])
        # Reversed direction: the complement.
        reversed_ = cum_right[boundaries] + (total_left - cum_left[boundaries])

        best_normal = int(np.argmax(normal))
        best_reversed = int(np.argmax(reversed_))
        if normal[best_normal] >= reversed_[best_reversed]:
            boundary, matched, less_left = best_normal, normal[best_normal], True
        else:
            boundary, matched, less_left = best_reversed, reversed_[best_reversed], False
        agreement = float(matched) / observed
        if agreement <= baseline + 1e-12:
            continue
        index = boundaries[boundary]
        threshold = float((x_sorted[index] + x_sorted[index + 1]) / 2.0)
        found.append(
            SurrogateSplit(
                feature=int(feature),
                threshold=threshold,
                less_goes_left=less_left,
                agreement=agreement,
            )
        )

    found.sort(key=lambda s: s.agreement, reverse=True)
    return tuple(found[:max_surrogates])


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
