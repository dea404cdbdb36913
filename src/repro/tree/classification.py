"""The paper's Classification Tree (CT) model — Algorithm 1.

Information-gain splitting (formulas 1-3), Minsplit/Minbucket split
conditions, CP pruning, and the two training strategies of Section V-A3:

* **class re-weighting** — boost the failed class so it occupies a target
  share of the training mass (the paper uses 20%/80%); see
  :func:`weights_for_priors` and the ``class_weight`` argument;
* **loss weighting** — penalise false alarms more than missed detections
  (the paper uses 10x) via a loss matrix, which both re-weights classes
  during split search (rpart's "altered priors") and moves leaf labels to
  the loss-minimising class.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.tree.base import BaseDecisionTree
from repro.tree.criteria import node_impurity
from repro.tree.node import Node
from repro.tree.splitter import SplitCandidate, multiclass_split, two_class_split
from repro.utils.validation import check_1d, check_2d, check_matching_length

ClassWeight = Union[None, str, Mapping[object, float]]


def weights_for_priors(
    y: Sequence[object], priors: Mapping[object, float]
) -> np.ndarray:
    """Per-sample weights that give each class the requested prior share.

    The paper "adjusts the failed sample set to occupy 20% of the total
    and the good sample set to occupy 80%"; with
    ``priors={-1: 0.2, +1: 0.8}`` the returned weights reproduce exactly
    that re-balancing regardless of the raw class counts.
    """
    labels = np.asarray(y)
    classes, counts = np.unique(labels, return_counts=True)
    missing = [c for c in classes if c not in priors]
    if missing:
        raise ValueError(f"priors missing entries for classes {missing}")
    total_prior = sum(priors[c] for c in classes)
    if total_prior <= 0:
        raise ValueError("priors must have positive total")
    weights = np.empty(labels.shape[0], dtype=float)
    for cls, count in zip(classes, counts):
        weights[labels == cls] = (priors[cls] / total_prior) * labels.shape[0] / count
    return weights


class ClassificationTree(BaseDecisionTree):
    """CART classifier implementing the paper's Algorithm 1.

    Args:
        minsplit: Minimum samples at a node to attempt a split (paper: 20).
        minbucket: Minimum samples at any leaf (paper: 7).
        cp: Complexity parameter for pruning (paper: 0.001).
        criterion: ``"entropy"`` (the paper's information gain) or
            ``"gini"``.
        class_weight: ``None``, a ``{label: weight}`` mapping, or
            ``"balanced"`` (equal total weight per class).
        loss_matrix: Optional (C, C) cost matrix in the order of the
            sorted class labels; ``loss_matrix[i, j]`` is the cost of
            predicting class ``j`` for a sample of true class ``i``.
        max_depth: Optional depth cap.
        n_surrogates: Surrogate splits per node for missing-value
            routing (rpart behaviour; 0 disables).

    Example:
        >>> tree = ClassificationTree(minsplit=2, minbucket=1, cp=0.0)
        >>> _ = tree.fit([[0.0], [1.0], [2.0], [3.0]], [-1, -1, 1, 1])
        >>> tree.predict([[0.5], [2.5]]).tolist()
        [-1, 1]
    """

    def __init__(
        self,
        minsplit: int = 20,
        minbucket: int = 7,
        cp: float = 0.001,
        criterion: str = "entropy",
        class_weight: ClassWeight = None,
        loss_matrix: Optional[Sequence[Sequence[float]]] = None,
        max_depth: Optional[int] = None,
        n_surrogates: int = 0,
    ):
        super().__init__(
            minsplit=minsplit, minbucket=minbucket, cp=cp,
            max_depth=max_depth, n_surrogates=n_surrogates,
        )
        if criterion not in ("entropy", "gini"):
            raise ValueError(f"criterion must be 'entropy' or 'gini', got {criterion!r}")
        self.criterion = criterion
        self.class_weight = class_weight
        self.loss_matrix = None if loss_matrix is None else np.asarray(loss_matrix, dtype=float)
        self.classes_: Optional[np.ndarray] = None

    # -- fitting ------------------------------------------------------------

    def fit(
        self,
        X: object,
        y: Sequence[object],
        sample_weight: Optional[Sequence[float]] = None,
    ) -> "ClassificationTree":
        """Fit the tree on feature matrix ``X`` and class labels ``y``."""
        matrix = check_2d("X", X)
        labels = np.asarray(y)
        check_matching_length(("X", matrix), ("y", labels))
        if matrix.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.classes_, class_indices = np.unique(labels, return_inverse=True)
        n_classes = len(self.classes_)
        if n_classes < 1:
            raise ValueError("y contains no classes")
        loss = self._validated_loss(n_classes)

        weights = (
            np.ones(matrix.shape[0], dtype=float)
            if sample_weight is None
            else check_1d("sample_weight", sample_weight)
        )
        check_matching_length(("X", matrix), ("sample_weight", weights))
        if np.any(weights < 0):
            raise ValueError("sample_weight must be non-negative")
        weights = weights * self._class_weight_vector(class_indices, n_classes)
        if loss is not None:
            # rpart-style altered priors: scale each class by the cost of
            # misclassifying it, so the split search already favours the
            # expensive class.
            per_class_cost = loss.sum(axis=1)
            scale = np.where(per_class_cost > 0, per_class_cost, 1.0)
            weights = weights * scale[class_indices]

        self._class_indices = class_indices
        self._n_classes = n_classes
        self._loss = loss
        # Fit-wide per-class weight columns for the split search.
        self._class_weights = [
            np.where(class_indices == c, weights, 0.0) for c in range(n_classes)
        ]
        self.n_features_ = matrix.shape[1]
        self._grow(matrix, weights)
        del self._class_indices, self._class_weights
        return self

    def _validated_loss(self, n_classes: int) -> Optional[np.ndarray]:
        if self.loss_matrix is None:
            return None
        loss = self.loss_matrix
        if loss.shape != (n_classes, n_classes):
            raise ValueError(
                f"loss_matrix must be ({n_classes}, {n_classes}) for the "
                f"observed classes, got {loss.shape}"
            )
        if np.any(loss < 0) or np.any(np.diag(loss) != 0):
            raise ValueError("loss_matrix needs non-negative costs and a zero diagonal")
        return loss

    def _class_weight_vector(self, class_indices: np.ndarray, n_classes: int) -> np.ndarray:
        if self.class_weight is None:
            return np.ones(class_indices.shape[0], dtype=float)
        if self.class_weight == "balanced":
            counts = np.bincount(class_indices, minlength=n_classes).astype(float)
            per_class = class_indices.shape[0] / (n_classes * np.maximum(counts, 1.0))
            return per_class[class_indices]
        if isinstance(self.class_weight, Mapping):
            per_class = np.ones(n_classes, dtype=float)
            for label, weight in self.class_weight.items():
                matches = np.nonzero(self.classes_ == label)[0]
                if matches.size == 0:
                    raise ValueError(f"class_weight names unknown class {label!r}")
                per_class[matches[0]] = float(weight)
            return per_class[class_indices]
        raise ValueError(
            f"class_weight must be None, 'balanced' or a mapping, got {self.class_weight!r}"
        )

    # -- BaseDecisionTree hooks ----------------------------------------------

    def _node_statistics(self, indices: np.ndarray):
        class_totals = np.bincount(
            self._class_indices[indices],
            weights=self._w[indices],
            minlength=self._n_classes,
        )
        weight = float(class_totals.sum())
        distribution = class_totals / weight if weight > 0 else class_totals
        if self._loss is None:
            label_index = int(np.argmax(class_totals))
        else:
            expected_costs = class_totals @ self._loss
            label_index = int(np.argmin(expected_costs))
        prediction = float(self.classes_[label_index])
        impurity = node_impurity(self.criterion, class_totals)
        return prediction, impurity, distribution, weight

    def _is_pure(self, indices: np.ndarray) -> bool:
        node_classes = self._class_indices[indices]
        return bool(np.all(node_classes == node_classes[0]))

    def _search_split(self, indices, frontier_node) -> Optional[SplitCandidate]:
        scorer = two_class_split if self._n_classes == 2 else multiclass_split
        return scorer(
            frontier_node, self._X, indices, self._w, self._class_weights,
            minbucket=self.minbucket, criterion=self.criterion,
        )

    def _relative_gain(self, node: Node, root: Node) -> float:
        if root.impurity <= 0 or root.weight <= 0:
            return 0.0
        return node.gain * (node.weight / root.weight) / root.impurity

    # -- inference ------------------------------------------------------------

    def predict(self, X: object) -> np.ndarray:
        """Predicted class label for each row of ``X``."""
        raw = self._leaf_predictions(X)
        if np.issubdtype(self.classes_.dtype, np.integer):
            return raw.astype(self.classes_.dtype)
        return raw

    def predict_proba(self, X: object) -> np.ndarray:
        """Per-class probability (leaf class distribution) for each row.

        One compiled routing pass plus a single fancy-index into the
        ``(n_nodes, n_classes)`` leaf-value matrix.
        """
        compiled = self._compiled()
        return compiled.predict_values(self._validate_X(X))
