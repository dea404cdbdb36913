"""Exhaustive binary split search for CART induction.

Implements the inner loop of the paper's Algorithms 1 and 2: "for each
possible split based on v_i at D" — every feature, every boundary between
two distinct sorted values — scored by information gain (classification)
or by the resulting within-child sum of squares (regression).  Scoring
is vectorised over candidate thresholds with prefix sums.

Two entry points share that scoring:

* :func:`find_best_split` — the direct Algorithm 1/2 transcription;
  re-sorts each feature at the node (``O(d * n log n)`` per node).  The
  trees do not call it; it is the reference the test suite's re-sorting
  oracle grows with.
* :func:`find_best_split_presorted` — what the trees grow with; reads
  the node's pre-partitioned sort orders from a
  :class:`~repro.tree.frontier.FrontierNode` (``O(d * n)`` per node).
  Bit-identical to the reference because both feed element-for-element
  identical sorted sequences to the same scoring functions.

Missing values (NaN) are ignored while scoring a feature and are routed
to the heavier child when the node is actually split, mirroring how the
paper's dataset tolerates missed samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.tree.criteria import entropy, gini
from repro.tree.frontier import FrontierNode


@dataclass(frozen=True)
class SplitCandidate:
    """The best split found for a node.

    ``gain`` is the criterion improvement: information gain for
    classification, SSE reduction for regression.  ``threshold`` sends
    samples with ``x < threshold`` left.
    """

    feature: int
    threshold: float
    gain: float
    missing_goes_left: bool


def _entropy_rows(class_weights: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy of an (m, C) weight matrix."""
    totals = class_weights.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = np.where(totals > 0, class_weights / totals, 0.0)
        logs = np.log2(np.where(probs > 0, probs, 1.0))
    return -(probs * logs).sum(axis=1)


def _gini_rows(class_weights: np.ndarray) -> np.ndarray:
    """Row-wise Gini impurity of an (m, C) weight matrix."""
    totals = class_weights.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = np.where(totals > 0, class_weights / totals, 0.0)
    return 1.0 - (probs**2).sum(axis=1)


_ROW_IMPURITY = {"entropy": _entropy_rows, "gini": _gini_rows}
_NODE_IMPURITY = {"entropy": entropy, "gini": gini}


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

    The shared inner loop of the reference and presorted paths; inputs
    are the node's finite values ascending (ties in row order) with the
    matching class indices and weights.
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


def _binary_node_split_batched(
    frontier_node: FrontierNode,
    X: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    w0: np.ndarray,
    w1: np.ndarray,
    *,
    minbucket: int,
    criterion: str,
) -> Optional[SplitCandidate]:
    """Two-class node search scoring every feature in one fused pass.

    Per feature only the order-dependent prefix sums run; the candidate
    scoring — the bulk of the numpy call count — happens once on the
    concatenation of all features' (left; right) class totals, with
    per-feature parents/totals expanded by ``np.repeat``.  Every
    elementwise operation applies the identical IEEE-754 sequence to the
    identical operands as the per-feature reference, and the per-feature
    segment ``argmax`` equals the reference's per-feature ``argmax``, so
    the selected split is bit-for-bit the same (golden tests pin this).
    ``w0``/``w1`` are the fit-wide per-class weight columns.
    """
    scored: list = []  # (feature, x_sorted, boundaries)
    t0s: list = []
    t1s: list = []
    totals: list = []
    parents: list = []
    counts: list = []
    parent_cache: dict = {}
    if frontier_node.dense:
        # Dense layout: run both prefix sums as 2-D lane-wise cumsums (each
        # lane is exactly the ragged path's 1-D cumsum) and gather every
        # feature's candidate left sums from the flattened matrices in one
        # fancy index.
        orders = frontier_node.orders
        values = frontier_node.values
        d, n = orders.shape
        if n < 2 * minbucket:
            return None
        cum0 = w0[orders].cumsum(axis=1)
        cum1 = w1[orders].cumsum(axis=1)
        per_feature = _dense_admissible_boundaries(values, minbucket)
        if per_feature is None:
            return None
        last0 = cum0[:, -1]
        last1 = cum1[:, -1]
        for feature, boundaries in per_feature:
            t0 = last0[feature]
            t1 = last1[feature]
            total_weight = t0 + t1
            if total_weight <= 0:
                continue
            key = (t0, t1)
            parent_impurity = parent_cache.get(key)
            if parent_impurity is None:
                parent_impurity = _node_impurity_pair(t0, t1, criterion)
                parent_cache[key] = parent_impurity
            scored.append((feature, values[feature], boundaries))
            t0s.append(t0)
            t1s.append(t1)
            totals.append(total_weight)
            parents.append(parent_impurity)
            counts.append(boundaries.size)
        if not scored:
            return None
        flat = np.concatenate([entry[2] for entry in scored]) + np.repeat(
            np.array([entry[0] for entry in scored]) * n, counts
        )
        left0 = cum0.ravel()[flat]
        left1 = cum1.ravel()[flat]
    else:
        l0s: list = []
        l1s: list = []
        for feature in range(frontier_node.n_features):
            rows, x_sorted = frontier_node.sorted_finite(feature)
            n = rows.size
            if n < 2 * minbucket:
                continue
            boundaries = _admissible_boundaries(x_sorted, n, minbucket)
            if boundaries is None:
                continue
            cum0 = w0[rows].cumsum()
            cum1 = w1[rows].cumsum()
            t0 = cum0[-1]
            t1 = cum1[-1]
            total_weight = t0 + t1
            if total_weight <= 0:
                continue
            # Features with no missing values share the node's class totals,
            # so the cache collapses their parent impurities into one
            # computation (same float inputs → same float output).
            key = (t0, t1)
            parent_impurity = parent_cache.get(key)
            if parent_impurity is None:
                parent_impurity = _node_impurity_pair(t0, t1, criterion)
                parent_cache[key] = parent_impurity
            scored.append((feature, x_sorted, boundaries))
            l0s.append(cum0[boundaries])
            l1s.append(cum1[boundaries])
            t0s.append(t0)
            t1s.append(t1)
            totals.append(total_weight)
            parents.append(parent_impurity)
            counts.append(boundaries.size)
        if not scored:
            return None
        left0 = np.concatenate(l0s)
        left1 = np.concatenate(l1s)
    m = left0.size
    expand0 = np.repeat(np.array(t0s), counts)
    expand1 = np.repeat(np.array(t1s), counts)
    # Stacked (all-left; all-right) children of every feature: rows are
    # independent, so one impurity call scores them all.
    c0 = np.concatenate((left0, expand0 - left0))
    c1 = np.concatenate((left1, expand1 - left1))
    ct = c0 + c1
    impurity = _IMPURITY_PAIR[criterion](c0, c1, ct)
    weighted = ct * impurity
    gains = (
        np.repeat(np.array(parents), counts)
        - (weighted[:m] + weighted[m:]) / np.repeat(np.array(totals), counts)
    )

    best_feature = -1
    best_gain = 0.0
    best_threshold = 0.0
    start = 0
    for (feature, x_sorted, boundaries), count in zip(scored, counts):
        segment = gains[start:start + count]
        start += count
        local = int(segment.argmax())
        gain = float(segment[local])
        if gain < -1e-12 or not np.isfinite(gain):
            continue
        gain = max(gain, 0.0)
        if best_feature < 0 or gain > best_gain:
            boundary = boundaries[local]
            best_feature = feature
            best_gain = gain
            best_threshold = float((x_sorted[boundary] + x_sorted[boundary + 1]) / 2.0)
    if best_feature < 0:
        return None
    # The reference recomputes the NaN-routing side on every improving
    # feature, but only the winner's survives — one call suffices.
    goes_left = _missing_side(
        X[indices, best_feature], weights[indices], best_threshold
    )
    return SplitCandidate(best_feature, best_threshold, best_gain, goes_left)


def _admissible_boundaries(
    x_sorted: np.ndarray, n: int, minbucket: int
) -> Optional[np.ndarray]:
    """Minbucket-admissible boundary positions between distinct sorted values.

    Equivalent to masking ``boundaries`` with
    ``(boundaries + 1 >= minbucket) & (n - boundaries - 1 >= minbucket)``;
    since boundaries ascend, the mask selects a contiguous run, located
    here with two binary searches instead of O(m) boolean work.
    """
    boundaries = (x_sorted[:-1] < x_sorted[1:]).nonzero()[0]
    if boundaries.size == 0:
        return None
    lo, hi = boundaries.searchsorted((minbucket - 1, n - minbucket))
    if lo >= hi:
        return None
    return boundaries[lo:hi]


def _dense_admissible_boundaries(
    values: np.ndarray, minbucket: int
) -> Optional[list[tuple[int, np.ndarray]]]:
    """Per-feature :func:`_admissible_boundaries` over a dense value matrix.

    One 2-D comparison + ``nonzero`` finds every feature's distinct-value
    boundaries at once (``nonzero`` walks the matrix row-major, so each
    feature's positions come out contiguous and ascending); the minbucket
    window is then clipped per feature with the same two binary searches.
    Returns ``[(feature, boundaries), ...]`` for features with at least
    one admissible candidate, or ``None`` when no feature has any.
    """
    d, n = values.shape
    feat_idx, col_idx = (values[:, :-1] < values[:, 1:]).nonzero()
    if col_idx.size == 0:
        return None
    offsets = np.zeros(d + 1, dtype=np.intp)
    np.cumsum(np.bincount(feat_idx, minlength=d), out=offsets[1:])
    out: list[tuple[int, np.ndarray]] = []
    for feature in range(d):
        seg = col_idx[offsets[feature]:offsets[feature + 1]]
        if seg.size == 0:
            continue
        lo, hi = seg.searchsorted((minbucket - 1, n - minbucket))
        if lo < hi:
            out.append((feature, seg[lo:hi]))
    return out or None


def _entropy_pair(a: np.ndarray, b: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Shannon entropy of two-class weight columns; matches ``_entropy_rows``.

    ``a``/``b`` are freshly-allocated non-negative temporaries and are
    overwritten in place; where ``totals`` is zero both are exactly zero
    (non-negative weights), so the masked divide leaves the reference's
    zero probability.
    """
    positive = totals > 0
    pa = np.divide(a, totals, out=a, where=positive)
    pb = np.divide(b, totals, out=b, where=positive)
    # log2 over a where-substituted array beats a masked ufunc call;
    # log2(1) == 0 exactly, matching the reference's zero fill.
    la = np.log2(np.where(pa > 0, pa, 1.0))
    lb = np.log2(np.where(pb > 0, pb, 1.0))
    return -(pa * la + pb * lb)


def _gini_pair(a: np.ndarray, b: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Gini impurity of two-class weight columns; matches ``_gini_rows``."""
    positive = totals > 0
    pa = np.divide(a, totals, out=a, where=positive)
    pb = np.divide(b, totals, out=b, where=positive)
    return 1.0 - (pa * pa + pb * pb)


_IMPURITY_PAIR = {"entropy": _entropy_pair, "gini": _gini_pair}


def _node_impurity_pair(t0: float, t1: float, criterion: str) -> float:
    """Two-class node impurity; replays :func:`repro.tree.criteria.entropy`
    / :func:`~repro.tree.criteria.gini` on ``np.array([t0, t1])`` operation
    for operation (minus the non-negativity validation, which the fit-time
    weight checks already guarantee)."""
    total = t0 + t1
    if total <= 0:
        return 0.0
    probs = np.array([t0, t1]) / total
    if criterion == "entropy":
        if t0 > 0 and t1 > 0:
            logs = np.log2(probs)
            return float(-(probs[0] * logs[0] + probs[1] * logs[1]))
        kept = probs[probs > 0]
        return float(-np.sum(kept * np.log2(kept)))
    sq = probs**2
    return float(1.0 - (sq[0] + sq[1]))


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


def _regression_node_split_batched(
    frontier_node: FrontierNode,
    X: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    wy: np.ndarray,
    wyy: np.ndarray,
    *,
    minbucket: int,
) -> Optional[SplitCandidate]:
    """Regression node search scoring every feature in one fused pass.

    The SSE twin of :func:`_binary_node_split_batched`: per feature only
    the three prefix sums run; the masked mean-term divides and gain
    subtraction happen once over the concatenated (left; right) child
    statistics of all features.  ``wy``/``wyy`` are the fit-wide
    ``w · y`` / ``w · y · y`` columns.  Bit-identical to the per-feature
    reference — same elementwise IEEE-754 sequence, segment ``argmax``
    equals per-feature ``argmax``.
    """
    scored: list = []  # (feature, x_sorted, boundaries)
    tws: list = []
    twys: list = []
    twyys: list = []
    parents: list = []
    counts: list = []
    if frontier_node.dense:
        orders = frontier_node.orders
        values = frontier_node.values
        d, n = orders.shape
        if n < 2 * minbucket:
            return None
        cw = weights[orders].cumsum(axis=1)
        cwy = wy[orders].cumsum(axis=1)
        cwyy = wyy[orders].cumsum(axis=1)
        per_feature = _dense_admissible_boundaries(values, minbucket)
        if per_feature is None:
            return None
        last_w = cw[:, -1]
        last_wy = cwy[:, -1]
        last_wyy = cwyy[:, -1]
        for feature, boundaries in per_feature:
            tw = last_w[feature]
            twy = last_wy[feature]
            twyy = last_wyy[feature]
            scored.append((feature, values[feature], boundaries))
            tws.append(tw)
            twys.append(twy)
            twyys.append(twyy)
            parents.append(twyy - (twy * twy / tw if tw > 0 else 0.0))
            counts.append(boundaries.size)
        flat = np.concatenate([entry[2] for entry in scored]) + np.repeat(
            np.array([entry[0] for entry in scored]) * n, counts
        )
        lw = cw.ravel()[flat]
        lwy = cwy.ravel()[flat]
        lwyy = cwyy.ravel()[flat]
    else:
        lws: list = []
        lwys: list = []
        lwyys: list = []
        for feature in range(frontier_node.n_features):
            rows, x_sorted = frontier_node.sorted_finite(feature)
            n = rows.size
            if n < 2 * minbucket:
                continue
            boundaries = _admissible_boundaries(x_sorted, n, minbucket)
            if boundaries is None:
                continue
            cw = weights[rows].cumsum()
            cwy = wy[rows].cumsum()
            cwyy = wyy[rows].cumsum()
            tw = cw[-1]
            twy = cwy[-1]
            twyy = cwyy[-1]
            scored.append((feature, x_sorted, boundaries))
            lws.append(cw[boundaries])
            lwys.append(cwy[boundaries])
            lwyys.append(cwyy[boundaries])
            tws.append(tw)
            twys.append(twy)
            twyys.append(twyy)
            parents.append(twyy - (twy * twy / tw if tw > 0 else 0.0))
            counts.append(boundaries.size)
        if not scored:
            return None
        lw = np.concatenate(lws)
        lwy = np.concatenate(lwys)
        lwyy = np.concatenate(lwyys)
    m = lw.size
    w_all = np.concatenate((lw, np.repeat(np.array(tws), counts) - lw))
    wy_all = np.concatenate((lwy, np.repeat(np.array(twys), counts) - lwy))
    wyy_all = np.concatenate((lwyy, np.repeat(np.array(twyys), counts) - lwyy))
    sse = wyy_all - np.divide(
        wy_all * wy_all, w_all, out=np.zeros_like(w_all), where=w_all > 0
    )
    gains = np.repeat(np.array(parents), counts) - (sse[:m] + sse[m:])

    best_feature = -1
    best_gain = 0.0
    best_threshold = 0.0
    start = 0
    for (feature, x_sorted, boundaries), count in zip(scored, counts):
        segment = gains[start:start + count]
        start += count
        local = int(segment.argmax())
        gain = float(segment[local])
        if gain < -1e-12 or not np.isfinite(gain):
            continue
        gain = max(gain, 0.0)
        if best_feature < 0 or gain > best_gain:
            boundary = boundaries[local]
            best_feature = feature
            best_gain = gain
            best_threshold = float((x_sorted[boundary] + x_sorted[boundary + 1]) / 2.0)
    if best_feature < 0:
        return None
    goes_left = _missing_side(
        X[indices, best_feature], weights[indices], best_threshold
    )
    return SplitCandidate(best_feature, best_threshold, best_gain, goes_left)


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
    feature_subset: Optional[np.ndarray] = None,
) -> Optional[SplitCandidate]:
    """Search every (feature, threshold) pair at a node; return the best.

    ``feature_subset`` restricts the search to the given feature indices
    (used by the random-forest extension); ``None`` searches all columns.
    """
    if task not in ("classification", "regression"):
        raise ValueError(f"task must be classification or regression, got {task!r}")
    features = (
        np.arange(X.shape[1]) if feature_subset is None else np.asarray(feature_subset)
    )
    best: Optional[SplitCandidate] = None
    for feature in features:
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


def find_best_split_presorted(
    frontier_node: FrontierNode,
    X: np.ndarray,
    indices: np.ndarray,
    *,
    task: str,
    weights: np.ndarray,
    minbucket: int,
    class_indices: Optional[np.ndarray] = None,
    n_classes: int = 0,
    targets: Optional[np.ndarray] = None,
    criterion: str = "entropy",
    binary_class_weights: Optional[tuple[np.ndarray, np.ndarray]] = None,
    target_products: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> Optional[SplitCandidate]:
    """Presorted node split search — :func:`find_best_split` without sorts.

    ``frontier_node`` carries the node's per-feature sorted row ids and
    values; ``X``/``weights``/``class_indices``/``targets`` are the
    *fit-wide* arrays (indexed by global row id), and ``indices`` the
    node's rows in ascending order (used only for the NaN-routing
    tie-break, which the reference computes in row order).

    ``binary_class_weights`` (two-class fits) and ``target_products``
    (regression fits) are fit-wide precomputed product columns —
    ``(w·[cls==0], w·[cls==1])`` and ``(w·y, w·y·y)`` respectively —
    hoisted out of the per-node loop; elementwise products commute with
    row gathering, so the scored floats are unchanged.  When omitted
    the general scorers recompute them per feature.
    """
    if task not in ("classification", "regression"):
        raise ValueError(f"task must be classification or regression, got {task!r}")
    if task == "classification" and binary_class_weights is not None and n_classes == 2:
        w0, w1 = binary_class_weights
        return _binary_node_split_batched(
            frontier_node, X, indices, weights, w0, w1,
            minbucket=minbucket, criterion=criterion,
        )
    if task == "regression" and target_products is not None:
        wy, wyy = target_products
        return _regression_node_split_batched(
            frontier_node, X, indices, weights, wy, wyy,
            minbucket=minbucket,
        )
    best: Optional[SplitCandidate] = None
    node_weights: Optional[np.ndarray] = None
    for feature in range(frontier_node.n_features):
        rows, x_sorted = frontier_node.sorted_finite(feature)
        if rows.size < 2 * minbucket:
            continue
        if task == "classification":
            found = _sorted_classification_split(
                x_sorted, class_indices[rows], weights[rows], n_classes,
                minbucket=minbucket, criterion=criterion,
            )
        else:
            found = _sorted_regression_split(
                x_sorted, targets[rows], weights[rows], minbucket=minbucket
            )
        if found is None:
            continue
        threshold, gain = found
        if best is None or gain > best.gain:
            if node_weights is None:
                node_weights = weights[indices]
            goes_left = _missing_side(X[indices, feature], node_weights, threshold)
            best = SplitCandidate(int(feature), threshold, gain, goes_left)
    return best


def _missing_side(column: np.ndarray, weights: np.ndarray, threshold: float) -> bool:
    """True when the left child carries more training weight (NaN routing)."""
    finite = np.isfinite(column)
    left_weight = float(weights[finite & (column < threshold)].sum())
    right_weight = float(weights[finite & (column >= threshold)].sum())
    return left_weight >= right_weight


def partition(
    column: np.ndarray, threshold: float, missing_goes_left: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (left, right) masks for applying a split to a node's rows."""
    missing = ~np.isfinite(column)
    left = (column < threshold) & ~missing
    if missing_goes_left:
        left |= missing
    return left, ~left
