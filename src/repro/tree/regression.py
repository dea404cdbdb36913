"""The paper's Regression Tree (RT) model — Algorithm 2.

Splits minimise the within-child sum of squares (formula 4); leaves
predict the weighted target mean.  The health-degree pipeline feeds this
tree targets of +1 (good) down to -1 (at failure) built from the
deterioration-window functions (formulas 5 and 6, in
:mod:`repro.health.degree`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.tree.base import BaseDecisionTree
from repro.tree.node import Node
from repro.tree.splitter import SplitCandidate, regression_split
from repro.utils.validation import check_1d, check_2d, check_matching_length


class RegressionTree(BaseDecisionTree):
    """CART regressor implementing the paper's Algorithm 2.

    Args:
        minsplit: Minimum samples at a node to attempt a split (paper: 20).
        minbucket: Minimum samples at any leaf (paper: 7).
        cp: Complexity parameter for pruning (paper: 0.001); a split
            survives if it removes at least ``cp`` of the root's total
            sum of squares.
        max_depth: Optional depth cap.
        n_surrogates: Surrogate splits per node for missing-value
            routing (rpart behaviour; 0 disables).

    Example:
        >>> tree = RegressionTree(minsplit=2, minbucket=1, cp=0.0)
        >>> _ = tree.fit([[0.0], [1.0], [2.0], [3.0]], [0.0, 0.0, 1.0, 1.0])
        >>> tree.predict([[2.9]]).tolist()
        [1.0]
    """

    def fit(
        self,
        X: object,
        y: Sequence[float],
        sample_weight: Optional[Sequence[float]] = None,
    ) -> "RegressionTree":
        """Fit the tree on feature matrix ``X`` and real-valued targets ``y``."""
        matrix = check_2d("X", X)
        targets = check_1d("y", y)
        check_matching_length(("X", matrix), ("y", targets))
        if matrix.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if not np.all(np.isfinite(targets)):
            raise ValueError("y must be finite")
        weights = (
            np.ones(matrix.shape[0], dtype=float)
            if sample_weight is None
            else check_1d("sample_weight", sample_weight)
        )
        check_matching_length(("X", matrix), ("sample_weight", weights))
        if np.any(weights < 0):
            raise ValueError("sample_weight must be non-negative")
        self._y = targets
        # Fit-wide w·y / w·y·y columns for the split search.
        wy = weights * targets
        self._target_products = (wy, wy * targets)
        self.n_features_ = matrix.shape[1]
        self._grow(matrix, weights)
        del self._y, self._target_products
        return self

    # -- BaseDecisionTree hooks ----------------------------------------------

    def _node_statistics(self, indices: np.ndarray):
        y = self._y[indices]
        w = self._w[indices]
        weight = float(w.sum())
        mean = float(np.sum(w * y) / weight) if weight > 0 else 0.0
        sse = float(np.sum(w * (y - mean) ** 2))
        return mean, sse, None, weight

    def _is_pure(self, indices: np.ndarray) -> bool:
        y = self._y[indices]
        return bool(np.all(y == y[0]))

    def _search_split(self, indices, frontier_node) -> Optional[SplitCandidate]:
        return regression_split(
            frontier_node, self._X, indices, self._w, self._target_products,
            minbucket=self.minbucket,
        )

    def _relative_gain(self, node: Node, root: Node) -> float:
        # Regression impurity (SSE) is already weight-aggregated, so the
        # node's absolute SSE reduction is directly comparable to the
        # root's total SSE.
        if root.impurity <= 0:
            return 0.0
        return node.gain / root.impurity

    # -- inference ------------------------------------------------------------

    def predict(self, X: object) -> np.ndarray:
        """Predicted target mean (health degree) for each row of ``X``."""
        return self._leaf_predictions(X)
