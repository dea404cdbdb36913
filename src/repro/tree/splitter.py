"""Exhaustive binary split search for CART induction.

Implements the inner loop of the paper's Algorithms 1 and 2: "for each
possible split based on v_i at D" — every feature, every boundary between
two distinct sorted values — scored by information gain (classification)
or by the resulting within-child sum of squares (regression).

The trees grow with one fused node search that reads the node's
pre-partitioned sort orders from a
:class:`~repro.tree.frontier.FrontierNode`, so no feature is re-sorted
(``O(d * n)`` per node):

* :func:`_candidate_sums` gathers every feature's admissible boundaries
  and the prefix sums of each fit-wide weight column at them;
* a gain formula scores all features' candidates in one vectorised
  pass — :func:`two_class_split`, :func:`multiclass_split` and
  :func:`regression_split`;
* :func:`_best_candidate` keeps each feature's best boundary, then the
  best feature, and decides where the winner sends missing values.

The re-sorting transcription of Algorithms 1 and 2 lives in the test
suite (``tests/tree_oracle.py``), which holds every fitted tree to it
bit for bit: both feed element-for-element identical sorted sequences
through the same IEEE-754 operations.

Missing values (NaN) are ignored while scoring a feature and are routed
to the heavier child when the node is actually split, mirroring how the
paper's dataset tolerates missed samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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


def _candidate_sums(
    frontier_node: FrontierNode, columns: Sequence[np.ndarray], minbucket: int
):
    """Every feature's admissible boundaries and its prefix sums at them.

    ``columns`` are fit-wide weight columns indexed by row id (per-class
    weights, or ``w``, ``w·y``, ``w·y·y``); products commute with row
    gathering, so hoisting them out of the node loop changes no scored
    float.  Per feature, each column is summed in the feature's sorted
    order over its finite rows — the reference's prefix sums, lane for
    lane.

    Returns ``None`` when no feature has a candidate, else
    ``(scored, counts, lefts, totals)``: ``scored`` lists
    ``(feature, x_sorted, boundaries)``, ``counts`` each feature's
    boundary count, ``lefts[k]`` column ``k``'s left-child sums at every
    candidate (features concatenated) and ``totals[k]`` column ``k``'s
    per-feature total.
    """
    if frontier_node.dense:
        # Dense layout: one 2-D lane-wise cumsum per column (each lane is
        # exactly the ragged path's 1-D cumsum), and one fancy index into
        # the flattened matrix gathers every feature's candidate sums.
        orders = frontier_node.orders
        values = frontier_node.values
        n = orders.shape[1]
        if n < 2 * minbucket:
            return None
        per_feature = _dense_admissible_boundaries(values, minbucket)
        if per_feature is None:
            return None
        features = np.array([feature for feature, _ in per_feature])
        counts = [boundaries.size for _, boundaries in per_feature]
        flat = np.concatenate([boundaries for _, boundaries in per_feature])
        flat += np.repeat(features * n, counts)
        cums = [column[orders].cumsum(axis=1) for column in columns]
        scored = [(feature, values[feature], b) for feature, b in per_feature]
        return (
            scored, counts,
            [cum.ravel()[flat] for cum in cums],
            [cum[features, -1] for cum in cums],
        )
    scored = []
    lefts: list[list] = [[] for _ in columns]
    totals: list[list] = [[] for _ in columns]
    for feature in range(frontier_node.n_features):
        rows, x_sorted = frontier_node.sorted_finite(feature)
        if rows.size < 2 * minbucket:
            continue
        boundaries = _admissible_boundaries(x_sorted, rows.size, minbucket)
        if boundaries is None:
            continue
        scored.append((feature, x_sorted, boundaries))
        for column, left, total in zip(columns, lefts, totals):
            cum = column[rows].cumsum()
            left.append(cum[boundaries])
            total.append(cum[-1])
    if not scored:
        return None
    return (
        scored,
        [boundaries.size for _, _, boundaries in scored],
        [np.concatenate(left) for left in lefts],
        [np.array(total) for total in totals],
    )


def _best_candidate(
    scored: list,
    counts: list,
    gains: np.ndarray,
    X: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
) -> Optional[SplitCandidate]:
    """The best split among every feature's candidate gains, or ``None``.

    Each feature's segment ``argmax`` is its first best boundary; a NaN
    (a classification feature whose finite rows carry no weight) or a
    clearly negative gain rules the feature out.  Zero-gain splits are admitted within
    rounding tolerance: XOR-like interactions have no first-split gain,
    yet their children separate perfectly, and CP pruning removes the
    ones that never pay off.  A later feature wins only with a strictly
    larger gain.
    """
    best = None
    start = 0
    for (feature, x_sorted, boundaries), count in zip(scored, counts):
        segment = gains[start:start + count]
        start += count
        local = int(segment.argmax())
        gain = float(segment[local])
        if gain < -1e-12 or not np.isfinite(gain):
            continue
        gain = max(gain, 0.0)
        if best is None or gain > best[1]:
            boundary = boundaries[local]
            threshold = float((x_sorted[boundary] + x_sorted[boundary + 1]) / 2.0)
            best = (int(feature), gain, threshold)
    if best is None:
        return None
    feature, gain, threshold = best
    goes_left = _missing_side(X[indices, feature], weights[indices], threshold)
    return SplitCandidate(feature, threshold, gain, goes_left)


def two_class_split(
    frontier_node: FrontierNode,
    X: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    class_weights: Sequence[np.ndarray],
    *,
    minbucket: int,
    criterion: str,
) -> Optional[SplitCandidate]:
    """Information-gain node search for a two-class fit.

    ``X``/``weights`` are the fit-wide arrays, ``indices`` the node's
    rows in ascending order and ``class_weights`` the fit-wide columns
    ``w·[cls == c]``.  The stacked (all-left; all-right) children of
    every feature are scored by one call of the two-column impurity
    kernel, which replays :func:`_entropy_rows`/:func:`_gini_rows`
    operation for operation.
    """
    found = _candidate_sums(frontier_node, class_weights, minbucket)
    if found is None:
        return None
    scored, counts, (left0, left1), (t0, t1) = found
    m = left0.size
    total = t0 + t1
    c0 = np.concatenate((left0, np.repeat(t0, counts) - left0))
    c1 = np.concatenate((left1, np.repeat(t1, counts) - left1))
    ct = c0 + c1
    impurity = _IMPURITY_PAIR[criterion]
    weighted = ct * impurity(c0, c1, ct)
    parents = impurity(t0, t1, total)  # overwrites t0/t1, used up above
    with np.errstate(invalid="ignore"):
        gains = np.repeat(parents, counts) - (
            (weighted[:m] + weighted[m:]) / np.repeat(total, counts)
        )
    return _best_candidate(scored, counts, gains, X, indices, weights)


def multiclass_split(
    frontier_node: FrontierNode,
    X: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    class_weights: Sequence[np.ndarray],
    *,
    minbucket: int,
    criterion: str,
) -> Optional[SplitCandidate]:
    """Information-gain node search for any number of classes.

    :func:`two_class_split` with the row-wise ``(m, C)`` impurity in
    place of the two-column kernel.
    """
    found = _candidate_sums(frontier_node, class_weights, minbucket)
    if found is None:
        return None
    scored, counts, lefts, totals = found
    left = np.column_stack(lefts)
    total = np.column_stack(totals)
    right = np.repeat(total, counts, axis=0) - left
    row_impurity = _ROW_IMPURITY[criterion]
    node_impurity = _NODE_IMPURITY[criterion]
    parents = np.array([node_impurity(row) for row in total])
    child = (
        left.sum(axis=1) * row_impurity(left)
        + right.sum(axis=1) * row_impurity(right)
    )
    with np.errstate(invalid="ignore"):
        gains = np.repeat(parents, counts) - child / np.repeat(
            total.sum(axis=1), counts
        )
    return _best_candidate(scored, counts, gains, X, indices, weights)


def regression_split(
    frontier_node: FrontierNode,
    X: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    target_products: Sequence[np.ndarray],
    *,
    minbucket: int,
) -> Optional[SplitCandidate]:
    """Sum-of-squares node search (formula 4).

    The paper's Algorithm 2 selects the split minimising
    ``sq = sq_left + sq_right``; the gain is the equivalent
    ``SSE(parent) - sq`` so both trees share one "larger gain is better"
    contract.  ``target_products`` are the fit-wide ``w·y`` and
    ``w·y·y`` columns.
    """
    wy, wyy = target_products
    found = _candidate_sums(frontier_node, (weights, wy, wyy), minbucket)
    if found is None:
        return None
    scored, counts, (lw, lwy, lwyy), (tw, twy, twyy) = found
    m = lw.size
    # (all-left; all-right; per-feature parent) statistics, one SSE pass.
    w = np.concatenate((lw, np.repeat(tw, counts) - lw, tw))
    sum_wy = np.concatenate((lwy, np.repeat(twy, counts) - lwy, twy))
    sum_wyy = np.concatenate((lwyy, np.repeat(twyy, counts) - lwyy, twyy))
    sse = sum_wyy - np.divide(
        sum_wy * sum_wy, w, out=np.zeros_like(w), where=w > 0
    )
    gains = np.repeat(sse[2 * m:], counts) - (sse[:m] + sse[m:2 * m])
    return _best_candidate(scored, counts, gains, X, indices, weights)


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
