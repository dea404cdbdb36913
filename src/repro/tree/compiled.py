"""Compiled flat-array trees: the one scoring path for fitted CARTs.

A fitted CART is, logically, the paper's Figure-1 object graph of
:class:`~repro.tree.node.Node` instances — ideal for rendering, rule
mining and introspection, but the wrong substrate for scoring millions
of drive-hours: every prediction hops Python objects node by node.

:class:`CompiledTree` flattens a fitted tree into contiguous numpy
arrays (one slot per node, pre-order):

* ``feature`` / ``threshold`` — the split, ``feature == -1`` at leaves;
* ``children_left`` / ``children_right`` — child slot indices (-1 at
  leaves);
* ``missing_goes_left`` — NaN fallback routing per node;
* ``node_id`` / ``prediction`` — the paper's Figure-1 node numbering and
  the leaf value;
* ``values`` — an ``(n_nodes, n_outputs)`` matrix holding each node's
  class distribution (classification) or target mean (regression), so
  ``predict_proba`` is a single fancy-index;
* a packed CSR-style surrogate table (``surrogate_offset`` +
  ``surrogate_feature`` / ``surrogate_threshold`` /
  ``surrogate_less_goes_left``) reproducing rpart's missing-value
  routing without per-row Python calls.

Routing is a vectorised descent over an explicit stack of (node, rows)
pairs — a few flat numpy passes per node actually visited, never a
Python frame per row.  Near the root, where a node holds a large share
of the batch, its rows are a boolean mask over the whole batch and the
node costs one contiguous compare on the split column and one AND; once
a node holds less than ``1/MASK_SHARE`` of the batch, its rows become
an index array and each node below costs one column gather, one compare
and two compressions of its own subset.  The semantics — including
NaN/inf handling and surrogate fallbacks — are bit-identical to walking
the Figure-1 node graph with :meth:`~repro.tree.node.Node.route`; the
golden-equivalence tests enforce that against a node-walk oracle kept
in the test suite.

:class:`CompiledForest` stacks the members of an ensemble into one flat
arena (child indices offset per member) and scores all of them against
one shared :class:`_RoutingContext` — the transposed matrix and
per-column missing masks are computed once and reused by every member —
which is what makes 50-tree forest scoring over a whole fleet's sample
matrix one call.  :func:`member_predictions` is the one entry point the
ensembles score their members through.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Sequence

import numpy as np

from repro.observability import get_registry, get_tracer
from repro.observability.metrics import ROW_BUCKETS
from repro.tree.node import Node
from repro.tree.surrogates import SurrogateSplit

#: Sentinel used in ``feature``/``children_*`` arrays at leaf slots.
LEAF = -1

#: A node holding at least ``1/MASK_SHARE`` of a batch routes its rows
#: as a boolean mask over the batch; a smaller node as an index array.
#: A mask node pays passes over the whole batch, an index node passes
#: over its own rows that cost several times more per row (a gather, and
#: compressions that write int64 indices).  Chosen on a captured
#: 100k-drive serving tick (99,033 rows, 13 features, 10.7k missing
#: cells; 2 cores, numpy 2.4), median ms per batch at each share —
#: index arrays below the root / 2 / 4 / 8 / 16 / 32 / masks throughout:
#: the paper CT (23 slots, depth 7) 3.9 / 2.0 / 2.0 / 1.7 / 1.7 / 2.0 /
#: 2.5; a 103-slot, depth-12 tree 7.5 / 7.3 / 7.7 / 7.5 / 9.0 / 11.2 /
#: 13.5.  The previous index-only router took 6.0 ms on the paper CT.
MASK_SHARE = 8


def _observe_batch(registry, n_rows: int, n_trees: int, elapsed: float) -> None:
    """Record one compiled batch routing call (enabled registries only)."""
    registry.counter("score.batches", help="compiled batch routing calls").inc()
    registry.counter("score.rows", help="rows routed").inc(n_rows * n_trees)
    registry.histogram(
        "score.batch_rows", ROW_BUCKETS, unit="rows", help="rows per batch call"
    ).observe(n_rows)
    registry.histogram(
        "score.batch_seconds", unit="seconds", help="batch routing wall time"
    ).observe(elapsed)


class _RoutingContext:
    """Per-matrix precomputation shared by every tree in a batch call.

    A node compares or gathers one column at a time, so each column a
    tree reads is made contiguous on first use, and only those: a
    column of a transposed feature-major block already is and is used
    as is, while a row-major matrix pays one strided copy per feature
    the trees split on, not a transpose of every feature.  Each
    column's missing mask is computed lazily too — ``None`` marks an
    all-finite column so clean columns never pay a missing pass.  A
    forest builds one context and routes all members through it.
    """

    def __init__(self, X: np.ndarray):
        self._X = X
        self._columns: dict[int, np.ndarray] = {}
        self._missing: dict[int, Optional[np.ndarray]] = {}

    def column(self, feature: int) -> np.ndarray:
        """Contiguous values of one feature, cached."""
        values = self._columns.get(feature)
        if values is None:
            values = np.ascontiguousarray(self._X[:, feature])
            self._columns[feature] = values
        return values

    def missing_mask(self, feature: int) -> Optional[np.ndarray]:
        """Cached non-finite mask for a column, ``None`` when all finite."""
        mask = self._missing.get(feature, False)
        if mask is False:
            column_missing = ~np.isfinite(self.column(feature))
            mask = column_missing if column_missing.any() else None
            self._missing[feature] = mask
        return mask


class _FlatArrays:
    """The shared flat representation + vectorised router.

    :meth:`_route_subtree` is the one router for :class:`CompiledTree`
    and every member of a :class:`CompiledForest`.  It partitions the
    batch down the tree with an explicit (node, rows) stack, holding a
    node's rows as a boolean mask while the node has at least
    ``1/MASK_SHARE`` of the batch and as an index array below that.
    Missing-value handling is hoisted out entirely for columns that
    contain no NaN/inf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children_left: np.ndarray
    children_right: np.ndarray
    missing_goes_left: np.ndarray
    node_id: np.ndarray
    prediction: np.ndarray
    values: np.ndarray
    surrogate_offset: np.ndarray
    surrogate_feature: np.ndarray
    surrogate_threshold: np.ndarray
    surrogate_less_goes_left: np.ndarray
    is_leaf: np.ndarray
    depth: int

    @property
    def n_nodes(self) -> int:
        """Total slot count (internal nodes plus leaves)."""
        return int(self.feature.shape[0])

    def _finalize(self, depth: Optional[int] = None) -> None:
        """Derive the routing-only fields from the canonical arrays.

        ``is_leaf`` masks leaf slots; ``depth`` is the number of levels
        below the deepest root (0 for a stump).  Pre-order guarantees
        parents precede children, so one forward pass computes levels.
        """
        self.is_leaf = self.feature < 0
        if depth is None:
            level = np.zeros(self.n_nodes, dtype=np.int64)
            for slot in np.nonzero(~self.is_leaf)[0]:
                level[self.children_left[slot]] = level[slot] + 1
                level[self.children_right[slot]] = level[slot] + 1
            depth = int(level.max()) if self.n_nodes else 0
        self.depth = depth

    # -- routing -------------------------------------------------------------

    def _route_subtree(
        self, ctx: _RoutingContext, root: int, out: np.ndarray
    ) -> None:
        """Route the whole batch from ``root``, writing each row's leaf slot to ``out``.

        Iterative descent over an explicit (node, rows) stack, in two
        modes.  A node that holds at least ``1/MASK_SHARE`` of the batch
        keeps its rows as a boolean mask over the whole batch: it costs
        one contiguous compare on the split column and one AND, with no
        gather.  Below that share the node's rows become an index array
        and the subset descent takes over: one column gather, one
        compare and two compressions, each the size of the subset.  Rows
        whose split value is missing take the surrogate/fallback path of
        :meth:`_route_missing_lanes` in either mode.
        """
        n_rows = out.shape[0]
        feature = self.feature
        threshold = self.threshold
        children_left = self.children_left
        children_right = self.children_right
        is_leaf = self.is_leaf
        stack = [(root, np.ones(n_rows, dtype=bool), n_rows)]
        while stack:
            slot, rows, n_held = stack.pop()
            if is_leaf[slot]:
                out[rows] = slot
                continue
            f = int(feature[slot])
            column_missing = ctx.missing_mask(f)
            as_mask = rows.dtype == bool
            if as_mask:
                goes_left = ctx.column(f) < threshold[slot]
                missing = column_missing & rows if column_missing is not None else None
            else:
                goes_left = ctx.column(f).take(rows) < threshold[slot]
                missing = column_missing.take(rows) if column_missing is not None else None
            if missing is not None and missing.any():
                lanes = np.flatnonzero(missing)
                goes_left[lanes] = self._route_missing_lanes(
                    ctx, lanes if as_mask else rows[lanes], slot
                )
            if as_mask:
                left = np.logical_and(goes_left, rows, out=goes_left)
                right = rows ^ left
                n_left = int(np.count_nonzero(left))
                n_right = n_held - n_left
            else:
                left, right = rows.compress(goes_left), rows.compress(~goes_left)
                n_left, n_right = left.size, right.size
            for child, child_rows, n_child in (
                (int(children_left[slot]), left, n_left),
                (int(children_right[slot]), right, n_right),
            ):
                if not n_child:
                    continue
                # A leaf writes through indices too: a masked store of a
                # data-dependent mask is several times slower.
                if as_mask and (is_leaf[child] or n_child * MASK_SHARE < n_rows):
                    child_rows = np.flatnonzero(child_rows)
                stack.append((child, child_rows, n_child))

    def _route_missing_lanes(
        self, ctx: _RoutingContext, rows: np.ndarray, slot: int
    ) -> np.ndarray:
        """Surrogate-then-fallback routing at ``slot`` of rows missing its split value.

        Mirrors :func:`repro.tree.surrogates.route_left_with_surrogates`:
        the highest-ranked surrogate with a finite value decides; rows no
        surrogate can place follow ``missing_goes_left``.
        """
        goes_left = np.full(rows.size, self.missing_goes_left[slot])
        undecided = np.arange(rows.size)
        for rank in range(
            int(self.surrogate_offset[slot]), int(self.surrogate_offset[slot + 1])
        ):
            candidate = ctx.column(self.surrogate_feature[rank]).take(rows[undecided])
            finite = np.isfinite(candidate)
            goes_less = candidate[finite] < self.surrogate_threshold[rank]
            goes_left[undecided[finite]] = (
                goes_less if self.surrogate_less_goes_left[rank] else ~goes_less
            )
            undecided = undecided[~finite]
            if not undecided.size:
                break
        return goes_left

    def _route_row(self, row: np.ndarray, slot: int) -> int:
        """Advance a single row one level from internal node ``slot``."""
        value = row[self.feature[slot]]
        if np.isfinite(value):
            goes_left = bool(value < self.threshold[slot])
        else:
            goes_left = bool(self.missing_goes_left[slot])
            for rank in range(
                int(self.surrogate_offset[slot]), int(self.surrogate_offset[slot + 1])
            ):
                candidate = row[self.surrogate_feature[rank]]
                if np.isfinite(candidate):
                    goes_less = bool(candidate < self.surrogate_threshold[rank])
                    goes_left = (
                        goes_less if self.surrogate_less_goes_left[rank] else not goes_less
                    )
                    break
        return int(self.children_left[slot] if goes_left else self.children_right[slot])


class CompiledTree(_FlatArrays):
    """A fitted tree flattened into contiguous arrays (see module docs).

    Build with :meth:`from_node`; all inference methods take an already
    validated ``(n_rows, n_features)`` float matrix.
    """

    def __init__(
        self,
        *,
        feature: np.ndarray,
        threshold: np.ndarray,
        children_left: np.ndarray,
        children_right: np.ndarray,
        missing_goes_left: np.ndarray,
        node_id: np.ndarray,
        prediction: np.ndarray,
        values: np.ndarray,
        surrogate_offset: np.ndarray,
        surrogate_feature: np.ndarray,
        surrogate_threshold: np.ndarray,
        surrogate_less_goes_left: np.ndarray,
    ):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.children_left = np.asarray(children_left, dtype=np.int64)
        self.children_right = np.asarray(children_right, dtype=np.int64)
        self.missing_goes_left = np.asarray(missing_goes_left, dtype=bool)
        self.node_id = np.asarray(node_id, dtype=np.int64)
        self.prediction = np.asarray(prediction, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.surrogate_offset = np.asarray(surrogate_offset, dtype=np.int64)
        self.surrogate_feature = np.asarray(surrogate_feature, dtype=np.int64)
        self.surrogate_threshold = np.asarray(surrogate_threshold, dtype=float)
        self.surrogate_less_goes_left = np.asarray(surrogate_less_goes_left, dtype=bool)
        self._validate()
        self._finalize()

    def _validate(self) -> None:
        n = self.n_nodes
        if n == 0:
            raise ValueError("a compiled tree needs at least one node")
        for name in ("threshold", "children_left", "children_right",
                     "missing_goes_left", "node_id", "prediction"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        if self.values.ndim != 2 or self.values.shape[0] != n:
            raise ValueError(f"values must be 2-D with {n} rows")
        if self.surrogate_offset.shape != (n + 1,):
            raise ValueError(f"surrogate_offset must have shape ({n + 1},)")
        internal = self.feature >= 0
        children = np.concatenate(
            [self.children_left[internal], self.children_right[internal]]
        )
        if internal.any() and (children.min() < 0 or children.max() >= n):
            raise ValueError("child indices out of range")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_node(cls, root: Node) -> "CompiledTree":
        """Flatten a fitted :class:`Node` graph (pre-order)."""
        nodes: list[Node] = list(root.iter_nodes())
        n = len(nodes)
        slot_of = {id(node): slot for slot, node in enumerate(nodes)}
        n_outputs = (
            len(root.class_distribution) if root.class_distribution is not None else 1
        )

        feature = np.full(n, LEAF, dtype=np.int64)
        threshold = np.full(n, np.nan)
        children_left = np.full(n, LEAF, dtype=np.int64)
        children_right = np.full(n, LEAF, dtype=np.int64)
        missing_goes_left = np.zeros(n, dtype=bool)
        node_id = np.empty(n, dtype=np.int64)
        prediction = np.empty(n)
        values = np.empty((n, n_outputs))
        surrogate_counts = np.zeros(n, dtype=np.int64)
        surrogate_rows: list[SurrogateSplit] = []

        for slot, node in enumerate(nodes):
            node_id[slot] = node.node_id
            prediction[slot] = node.prediction
            if node.class_distribution is not None:
                values[slot] = node.class_distribution
            else:
                values[slot] = node.prediction
            missing_goes_left[slot] = node.missing_goes_left
            if node.is_leaf:
                continue
            feature[slot] = node.feature
            threshold[slot] = node.threshold
            children_left[slot] = slot_of[id(node.left)]
            children_right[slot] = slot_of[id(node.right)]
            surrogate_counts[slot] = len(node.surrogates)
            surrogate_rows.extend(node.surrogates)

        surrogate_offset = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(surrogate_counts, out=surrogate_offset[1:])
        return cls(
            feature=feature,
            threshold=threshold,
            children_left=children_left,
            children_right=children_right,
            missing_goes_left=missing_goes_left,
            node_id=node_id,
            prediction=prediction,
            values=values,
            surrogate_offset=surrogate_offset,
            surrogate_feature=np.array(
                [s.feature for s in surrogate_rows], dtype=np.int64
            ),
            surrogate_threshold=np.array(
                [s.threshold for s in surrogate_rows], dtype=float
            ),
            surrogate_less_goes_left=np.array(
                [s.less_goes_left for s in surrogate_rows], dtype=bool
            ),
        )

    # -- inference -----------------------------------------------------------

    def apply_slots(self, X: np.ndarray) -> np.ndarray:
        """Flat leaf slot (array index) each row lands in."""
        registry = get_registry()
        tracer = get_tracer()
        if not registry.enabled and not tracer.enabled:
            return self._apply_slots_impl(X)
        start = perf_counter()
        with tracer.span(
            "score.batch", category="score", n_rows=int(X.shape[0]), n_trees=1
        ):
            out = self._apply_slots_impl(X)
        if registry.enabled:
            _observe_batch(registry, X.shape[0], 1, perf_counter() - start)
        return out

    def _apply_slots_impl(self, X: np.ndarray) -> np.ndarray:
        n_rows = X.shape[0]
        out = np.empty(n_rows, dtype=np.int64)
        self._route_subtree(_RoutingContext(X), 0, out)
        return out

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Figure-1 ``node_id`` of the leaf each row lands in."""
        return self.node_id[self.apply_slots(X)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf ``prediction`` for each row (labels or target means)."""
        return self.prediction[self.apply_slots(X)]

    def predict_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf value rows — class distributions or ``(n, 1)`` means."""
        return self.values[self.apply_slots(X)]

    def decision_path_slots(self, row: np.ndarray) -> list[int]:
        """Root-to-leaf flat slot sequence for one 1-D sample."""
        slot = 0
        path = [0]
        while self.feature[slot] >= 0:
            slot = self._route_row(row, slot)
            path.append(slot)
        return path

    def decision_path_ids(self, row: np.ndarray) -> list[int]:
        """Root-to-leaf Figure-1 ``node_id`` sequence for one 1-D sample."""
        return [int(self.node_id[slot]) for slot in self.decision_path_slots(row)]


class CompiledForest(_FlatArrays):
    """Ensemble members stacked into one flat arena for batch scoring.

    Child and surrogate indices of each member are offset into the
    shared arrays; ``roots`` holds each member's root slot.  One
    :meth:`predict_matrix` call routes all ``n_trees * n_rows`` lanes
    through the vectorised level loop.
    """

    def __init__(self, trees: Sequence[CompiledTree]):
        if not trees:
            raise ValueError("CompiledForest needs at least one member tree")
        self.n_trees = len(trees)
        bases = np.cumsum([0] + [t.n_nodes for t in trees])[:-1]
        self.roots = bases.astype(np.int64)
        surrogate_bases = np.cumsum(
            [0] + [t.surrogate_feature.shape[0] for t in trees]
        )[:-1]

        def offset_children(tree: CompiledTree, base: int) -> tuple[np.ndarray, np.ndarray]:
            internal = tree.feature >= 0
            left = np.where(internal, tree.children_left + base, LEAF)
            right = np.where(internal, tree.children_right + base, LEAF)
            return left, right

        lefts, rights = zip(
            *(offset_children(t, b) for t, b in zip(trees, bases))
        )
        self.feature = np.concatenate([t.feature for t in trees])
        self.threshold = np.concatenate([t.threshold for t in trees])
        self.children_left = np.concatenate(lefts)
        self.children_right = np.concatenate(rights)
        self.missing_goes_left = np.concatenate([t.missing_goes_left for t in trees])
        self.node_id = np.concatenate([t.node_id for t in trees])
        self.prediction = np.concatenate([t.prediction for t in trees])
        n_outputs = max(t.values.shape[1] for t in trees)
        if any(t.values.shape[1] != n_outputs for t in trees):
            raise ValueError("member trees disagree on the number of outputs")
        self.values = np.concatenate([t.values for t in trees])
        self.surrogate_offset = np.concatenate(
            [np.asarray([0], dtype=np.int64)]
            + [t.surrogate_offset[1:] + b for t, b in zip(trees, surrogate_bases)]
        )
        self.surrogate_feature = np.concatenate([t.surrogate_feature for t in trees])
        self.surrogate_threshold = np.concatenate(
            [t.surrogate_threshold for t in trees]
        )
        self.surrogate_less_goes_left = np.concatenate(
            [t.surrogate_less_goes_left for t in trees]
        )
        self._finalize(depth=max(t.depth for t in trees))

    def apply_slots(self, X: np.ndarray) -> np.ndarray:
        """Flat leaf slots, shape ``(n_trees, n_rows)``.

        One routing context (transpose + missing masks) is shared by all
        members, so the per-matrix setup is paid once per call rather
        than once per tree.
        """
        registry = get_registry()
        tracer = get_tracer()
        if not registry.enabled and not tracer.enabled:
            return self._apply_slots_impl(X)
        start = perf_counter()
        with tracer.span(
            "score.batch", category="score",
            n_rows=int(X.shape[0]), n_trees=self.n_trees,
        ):
            out = self._apply_slots_impl(X)
        if registry.enabled:
            _observe_batch(registry, X.shape[0], self.n_trees, perf_counter() - start)
        return out

    def _apply_slots_impl(self, X: np.ndarray) -> np.ndarray:
        n_rows = X.shape[0]
        out = np.empty((self.n_trees, n_rows), dtype=np.int64)
        ctx = _RoutingContext(X)
        for member, root in enumerate(self.roots):
            self._route_subtree(ctx, int(root), out[member])
        return out

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Per-member predictions, shape ``(n_trees, n_rows)``.

        Row ``t`` equals ``trees[t].predict(X)`` exactly, so consumers
        aggregate (vote, average, weight) without re-scoring.
        """
        return self.prediction[self.apply_slots(X)]


def compile_tree(root: Optional[Node]) -> Optional[CompiledTree]:
    """Compile a fitted root, or pass ``None`` through (unfitted trees)."""
    return None if root is None else CompiledTree.from_node(root)


def member_predictions(ensemble, X: np.ndarray) -> np.ndarray:
    """Per-member predictions ``(n_trees, n_rows)`` of a fitted ensemble.

    Stacks ``ensemble.trees_`` into one :class:`CompiledForest` on first
    use and caches it on the ensemble, keyed on the identity of the
    ``trees_`` list: every ``fit`` binds a new list, so a refit rebuilds
    the stack without the ensemble resetting anything.
    """
    cached = getattr(ensemble, "_member_stack", None)
    if cached is None or cached[0] is not ensemble.trees_:
        stack = CompiledForest([tree.compiled_ for tree in ensemble.trees_])
        cached = ensemble._member_stack = (ensemble.trees_, stack)
    return cached[1].predict_matrix(X)
