"""Shared CART machinery: stack-based growth, application and pruning.

The growth loop is a direct transcription of the paper's Algorithm 1/2
skeleton: create a root holding all the data, push it on a stack, and
repeatedly pop a node, check the split conditions (Minsplit, Minbucket,
purity), find the criterion-maximising split, and push the children.
After growth, subtrees whose split gain falls below the Complexity
Parameter are pruned back (lines 18-22 of both algorithms).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from time import perf_counter
from typing import Optional

import numpy as np

from repro.observability import get_registry, get_tracer
from repro.tree.compiled import CompiledTree, compile_tree
from repro.tree.frontier import FrontierNode, TrainingFrontier
from repro.tree.node import Node
from repro.tree.splitter import SplitCandidate, partition
from repro.tree.surrogates import (
    find_surrogate_splits_presorted,
    route_left_with_surrogates,
)
from repro.utils.validation import check_2d, check_positive


class _SampleScorer:
    """Picklable ``row -> float`` scorer holding a fitted estimator."""

    __slots__ = ("estimator",)

    def __init__(self, estimator):
        self.estimator = estimator

    def __call__(self, row: np.ndarray) -> float:
        matrix = np.asarray(row, dtype=float).reshape(1, -1)
        return float(self.estimator.predict(matrix)[0])


class _BatchScorer:
    """Picklable ``matrix -> scores`` scorer holding a fitted estimator."""

    __slots__ = ("estimator",)

    def __init__(self, estimator):
        self.estimator = estimator

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.estimator.predict(X), dtype=float)


class ServingScorerMixin:
    """Serving-layer scoring entry points for fitted estimators.

    Anything with a vectorized ``predict`` gains the two callables the
    streaming layer (:class:`~repro.detection.streaming.FleetMonitor`)
    consumes: :meth:`sample_scorer` scores one feature row through a
    batch of one, :meth:`batch_scorer` scores a stacked
    ``(n_rows, n_features)`` matrix in a single call — one compiled
    routing pass per collection tick.  Both hold the estimator itself,
    so they track later refits of the same estimator, and they pickle
    whenever it does (which lets them ship to shard worker processes).
    """

    def sample_scorer(self) -> _SampleScorer:
        """A ``row -> float`` scorer for per-record serving."""
        return _SampleScorer(self)

    def batch_scorer(self) -> _BatchScorer:
        """A ``matrix -> scores`` scorer for whole-tick serving."""
        return _BatchScorer(self)


class BaseDecisionTree(ServingScorerMixin, ABC):
    """Common fit/apply/prune logic for classification and regression trees.

    Parameters mirror the paper's (and rpart's) controls.  Growth runs
    through the presorted :class:`~repro.tree.frontier.TrainingFrontier`
    (every feature argsorted once per fit, sorted index partitions kept
    per node, so split and surrogate search are linear scans); scoring
    runs through the flat-array :class:`CompiledTree`, rebuilt from the
    Figure-1 node graph after every fit.

    Args:
        minsplit: Minimum number of samples a node must hold to be
            considered for splitting (paper default 20).
        minbucket: Minimum number of samples in any leaf (paper default 7).
        cp: Complexity parameter; a split must improve the tree's overall
            relative criterion by at least ``cp`` to survive pruning
            (paper default 0.001).
        max_depth: Optional hard depth cap (``None`` = grow until the
            split conditions stop the recursion, as in the paper).
        n_surrogates: Surrogate splits kept per node for missing-value
            routing (0 = rpart surrogates disabled; NaNs then follow the
            heavier child).
    """

    def __init__(
        self,
        minsplit: int = 20,
        minbucket: int = 7,
        cp: float = 0.001,
        max_depth: Optional[int] = None,
        n_surrogates: int = 0,
    ):
        self.minsplit = int(check_positive("minsplit", minsplit))
        self.minbucket = int(check_positive("minbucket", minbucket))
        if cp < 0:
            raise ValueError(f"cp must be >= 0, got {cp}")
        self.cp = float(cp)
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {max_depth}")
        self.max_depth = max_depth
        if n_surrogates < 0:
            raise ValueError(f"n_surrogates must be >= 0, got {n_surrogates}")
        self.n_surrogates = int(n_surrogates)
        self.root_: Optional[Node] = None
        self.compiled_: Optional[CompiledTree] = None
        self.n_features_: Optional[int] = None

    # -- subclass hooks -----------------------------------------------------

    @abstractmethod
    def _node_statistics(self, indices: np.ndarray) -> tuple[float, float, Optional[np.ndarray], float]:
        """Return (prediction, impurity, class_distribution, weight) for a node."""

    @abstractmethod
    def _is_pure(self, indices: np.ndarray) -> bool:
        """True when the node's samples all share one target value."""

    @abstractmethod
    def _search_split(
        self, indices: np.ndarray, frontier_node: FrontierNode
    ) -> Optional[SplitCandidate]:
        """Best split over the node's samples, or None.

        ``frontier_node`` is the node's presorted partition.
        """

    @abstractmethod
    def _relative_gain(self, node: Node, root: Node) -> float:
        """Node split gain expressed as a fraction of the root criterion."""

    # -- fitting ------------------------------------------------------------

    def _grow(self, X: np.ndarray, sample_weight: np.ndarray) -> None:
        """Grow the full tree (Algorithm 1/2 lines 2-17), then CP-prune."""
        registry = get_registry()
        # Clock reads only happen on the enabled path; the null registry
        # turns every record below into a constant-time no-op.
        split_hist = registry.histogram(
            "fit.split_search_seconds", unit="seconds",
            help="node-level split search wall time",
        ) if registry.enabled else None
        fit_start = perf_counter() if registry.enabled else 0.0
        n_splits = 0
        with get_tracer().span(
            "fit.grow", category="fit",
            n_rows=int(X.shape[0]), n_features=int(X.shape[1]),
        ):
            self._X = X
            self._w = sample_weight
            all_indices = np.arange(X.shape[0])
            self.root_ = self._create_node(node_id=1, depth=0, indices=all_indices)
            stack: list[tuple[Node, np.ndarray, Optional[FrontierNode]]] = [
                (self.root_, all_indices, TrainingFrontier(X).root)
            ]
            while stack:
                node, indices, frontier_node = stack.pop()
                if not self._may_split(node, indices):
                    continue
                if split_hist is not None:
                    search_start = perf_counter()
                    candidate = self._search_split(indices, frontier_node)
                    split_hist.observe(perf_counter() - search_start)
                else:
                    candidate = self._search_split(indices, frontier_node)
                if candidate is None:
                    continue
                surrogates = self._find_surrogates(indices, candidate, frontier_node)
                left_mask, right_mask = self._partition_training_rows(
                    indices, candidate, surrogates
                )
                left_idx = indices[left_mask]
                right_idx = indices[right_mask]
                if len(left_idx) == 0 or len(right_idx) == 0:
                    # NaN routing can empty a side even though the finite-value
                    # split was admissible; treat the node as unsplittable.
                    continue
                node.feature = candidate.feature
                node.threshold = candidate.threshold
                node.missing_goes_left = candidate.missing_goes_left
                node.surrogates = surrogates
                node.gain = candidate.gain
                node.left = self._create_node(2 * node.node_id, node.depth + 1, left_idx)
                node.right = self._create_node(2 * node.node_id + 1, node.depth + 1, right_idx)
                n_splits += 1
                # Skip materialising a child's partition (None) when Minsplit
                # or the depth cap already rules out splitting it.
                left_frontier, right_frontier = frontier_node.split(
                    left_idx,
                    keep_left=self._child_may_split(len(left_idx), node.depth + 1),
                    keep_right=self._child_may_split(len(right_idx), node.depth + 1),
                )
                stack.append((node.left, left_idx, left_frontier))
                stack.append((node.right, right_idx, right_frontier))
            self._prune(self.cp)
            del self._X, self._w
            self.recompile()
        registry.counter("fit.trees", help="trees grown").inc()
        registry.counter("fit.rows", help="training rows seen").inc(X.shape[0])
        registry.counter("fit.nodes_split", help="internal nodes created").inc(n_splits)
        if registry.enabled:
            registry.histogram(
                "fit.seconds", unit="seconds", help="whole-tree growth wall time"
            ).observe(perf_counter() - fit_start)

    def recompile(self) -> None:
        """Rebuild the flat-array form from ``root_``.

        Called automatically after fitting; call it manually after
        mutating ``root_`` in place (e.g. custom pruning) so the
        flat arrays scoring reads stay in sync with the object graph.
        """
        self.compiled_ = compile_tree(self.root_)

    def _child_may_split(self, n_samples: int, depth: int) -> bool:
        """The cheap half of :meth:`_may_split` (no target access)."""
        if n_samples < self.minsplit:
            return False
        return self.max_depth is None or depth < self.max_depth

    def _partition_training_rows(
        self,
        indices: np.ndarray,
        candidate: SplitCandidate,
        surrogates,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Left/right masks for a training node, without copying X[indices].

        Same routing as :meth:`Node.route` (primary split, then
        surrogates, then the majority fallback for missing values), but
        gathers only the split column plus the individual missing-value
        rows instead of the node's full feature matrix.
        """
        column = self._X[indices, candidate.feature]
        left, right = partition(
            column, candidate.threshold, candidate.missing_goes_left
        )
        if surrogates:
            for position in np.nonzero(~np.isfinite(column))[0]:
                goes_left = route_left_with_surrogates(
                    self._X[indices[position]],
                    candidate.feature,
                    candidate.threshold,
                    surrogates,
                    candidate.missing_goes_left,
                )
                left[position] = goes_left
                right[position] = not goes_left
        return left, right

    def _find_surrogates(
        self,
        indices: np.ndarray,
        candidate: SplitCandidate,
        frontier_node: FrontierNode,
    ):
        """Rank surrogate splits on the node's primary-routable samples."""
        if self.n_surrogates <= 0:
            return ()
        return find_surrogate_splits_presorted(
            frontier_node,
            self._X,
            self._w,
            indices,
            primary_feature=candidate.feature,
            primary_threshold=candidate.threshold,
            max_surrogates=self.n_surrogates,
        )

    def _may_split(self, node: Node, indices: np.ndarray) -> bool:
        """The paper's split conditions: Minsplit, optional depth, purity."""
        if len(indices) < self.minsplit:
            return False
        if self.max_depth is not None and node.depth >= self.max_depth:
            return False
        return not self._is_pure(indices)

    def _create_node(self, node_id: int, depth: int, indices: np.ndarray) -> Node:
        prediction, impurity, distribution, weight = self._node_statistics(indices)
        return Node(
            node_id=node_id,
            depth=depth,
            n_samples=len(indices),
            weight=weight,
            prediction=prediction,
            impurity=impurity,
            class_distribution=distribution,
        )

    def _prune(self, cp: float) -> None:
        """Prune every subtree whose split gain is below ``cp`` (relative).

        Matches Algorithm 1/2 lines 18-22: the check is applied top-down
        and a failing node loses its *entire* subtree, even if deeper
        splits individually look strong.
        """
        root = self.root_
        if root is None or root.is_leaf:
            return
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            if self._relative_gain(node, root) < cp:
                node.make_leaf()
                continue
            stack.append(node.left)
            stack.append(node.right)

    # -- inference ----------------------------------------------------------

    def _check_fitted(self) -> Node:
        if self.root_ is None:
            raise RuntimeError(
                f"{type(self).__name__} is not fitted; call fit() first"
            )
        return self.root_

    def _validate_X(self, X: object) -> np.ndarray:
        matrix = check_2d("X", X)
        if matrix.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {matrix.shape[1]} features, tree was fitted on {self.n_features_}"
            )
        return matrix

    def _compiled(self) -> CompiledTree:
        """The fitted tree's flat arrays, compiled on first use."""
        self._check_fitted()
        if self.compiled_ is None:
            self.recompile()
        return self.compiled_

    def apply(self, X: object) -> np.ndarray:
        """Return the id of the leaf each row of ``X`` lands in."""
        compiled = self._compiled()
        return compiled.apply(self._validate_X(X))

    def _leaf_predictions(self, X: np.ndarray) -> np.ndarray:
        """Per-row leaf ``prediction`` values."""
        compiled = self._compiled()
        return compiled.predict(self._validate_X(X))

    # -- introspection --------------------------------------------------------

    @property
    def n_leaves_(self) -> int:
        """Leaf count of the fitted tree."""
        return self._check_fitted().count_leaves()

    @property
    def depth_(self) -> int:
        """Depth of the fitted tree (root = 0)."""
        return self._check_fitted().subtree_depth()

    def feature_importances(self) -> np.ndarray:
        """Gain-weighted feature importances, normalised to sum to one.

        Each internal node contributes its criterion gain scaled by the
        fraction of root weight it sees; pure decision-stump usage of a
        feature near the root therefore dominates deep incidental splits.
        This is the quantity behind the paper's interpretability claims
        ("the significant attributes inducing failures").
        """
        root = self._check_fitted()
        importances = np.zeros(self.n_features_, dtype=float)
        for node in root.iter_nodes():
            if not node.is_leaf:
                importances[node.feature] += node.gain * (node.weight / root.weight)
        total = importances.sum()
        return importances / total if total > 0 else importances

    def decision_path(self, sample: object) -> list[Node]:
        """The root-to-leaf node sequence a single 1-D sample follows."""
        root = self._check_fitted()
        row = np.asarray(sample, dtype=float)
        if row.ndim != 1 or row.shape[0] != self.n_features_:
            raise ValueError(
                f"sample must be 1-D with {self.n_features_} features, got shape {row.shape}"
            )
        by_id = {node.node_id: node for node in root.iter_nodes()}
        return [by_id[nid] for nid in self._compiled().decision_path_ids(row)]

    def decision_paths(self, X: object) -> list[tuple[int, ...]]:
        """Root-to-leaf node-id chains for every row of ``X``, batched.

        The batched counterpart of :meth:`decision_path`: rows are
        routed to leaves in one compiled :meth:`apply` call and each
        leaf's ancestor chain is recovered from the heap id convention
        (parent of ``i`` is ``i // 2``), so the result equals the
        per-row walk by construction.  One tuple of node ids per row,
        root (id 1) first, leaf last — the fleet-scale path extraction
        :mod:`repro.explain` aggregates over.
        """
        self._check_fitted()
        leaf_ids = self.apply(X)
        chains: dict[int, tuple[int, ...]] = {}
        paths = []
        for leaf_id in leaf_ids.tolist():
            chain = chains.get(leaf_id)
            if chain is None:
                ancestors = []
                node_id = int(leaf_id)
                while node_id >= 1:
                    ancestors.append(node_id)
                    node_id //= 2
                chain = tuple(reversed(ancestors))
                chains[leaf_id] = chain
            paths.append(chain)
        return paths
