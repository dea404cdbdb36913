"""Change rates of SMART attributes.

Besides the attribute values themselves, the paper feeds the models
*change rates* — "for every attribute, we test change rates with
different intervals" — and ends up selecting the 6-hour change rates of
Raw Read Error Rate, Hardware ECC Recovered and the raw Reallocated
Sectors Count.  A change rate over interval ``k`` hours at time ``t`` is
``(x[t] - x[t - k]) / k``; it is NaN wherever either endpoint is missing
or the history is shorter than the interval.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_1d, check_positive


def change_rate(
    hours: np.ndarray, series: np.ndarray, interval_hours: float
) -> np.ndarray:
    """Per-sample change rate of ``series`` over ``interval_hours``.

    ``hours`` is the sample time axis; the lagged value is looked up at
    exactly ``hour - interval_hours`` (sampling is hourly in the paper,
    but any regular grid that contains the lag works).  Samples whose lag
    falls before the first record, on a missed sample, or between grid
    points yield NaN.

    >>> hours = np.arange(4.0)
    >>> change_rate(hours, np.array([0.0, 2.0, 4.0, 6.0]), 2.0).tolist()
    [nan, nan, 2.0, 2.0]
    """
    t = check_1d("hours", hours)
    x = check_1d("series", series)
    if t.shape != x.shape:
        raise ValueError("hours and series must have equal length")
    check_positive("interval_hours", interval_hours)

    out = np.full(x.shape[0], np.nan)
    if x.shape[0] == 0:
        return out
    lag_hours = t - interval_hours
    # Positions of the lagged samples in the (sorted) hour axis.
    positions = np.searchsorted(t, lag_hours)
    positions = np.clip(positions, 0, t.shape[0] - 1)
    aligned = np.isclose(t[positions], lag_hours)
    valid = aligned & np.isfinite(x) & np.isfinite(x[positions])
    out[valid] = (x[valid] - x[positions[valid]]) / interval_hours
    return out


def lag_rows(
    hours: np.ndarray, offsets: np.ndarray, interval_hours: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`change_rate`'s lag lookup for many drives in one pass.

    ``hours`` concatenates the drives' sorted hour axes; drive ``i`` owns
    rows ``offsets[i]:offsets[i + 1]``.  Each row reads its drive's first
    hour at or after ``hour - interval_hours`` — :func:`change_rate`'s
    ``searchsorted``, per drive; the lag hour lies below the row's own
    hour, so the row found is never past it.  Returns those row indices
    and whether the hour found ``np.isclose``-matches the lag hour.

    >>> rows, aligned = lag_rows(np.array([0.0, 1.0, 0.0, 2.0]),
    ...                          np.array([0, 2, 4]), 1.0)
    >>> rows.tolist(), aligned.tolist()
    ([0, 0, 2, 3], [False, True, False, False])
    """
    check_positive("interval_hours", interval_hours)
    n = hours.shape[0]
    owner = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    lag = hours - interval_hours
    # Sort the lag hours together with the hours by (drive, hour), lag
    # hours first on ties: the hours placed before a lag hour are the
    # earlier drives' rows plus its own drive's hours below it.
    order = np.lexsort((
        np.repeat([0, 1], n),
        np.concatenate([lag, hours]),
        np.concatenate([owner, owner]),
    ))
    is_hour = order >= n
    below = np.cumsum(is_hour) - is_hour
    rows = np.empty(n, dtype=np.int64)
    rows[order[~is_hour]] = below[~is_hour]
    return rows, np.isclose(hours[rows], lag)


def change_rate_matrix(
    hours: np.ndarray, values: np.ndarray, interval_hours: float
) -> np.ndarray:
    """Column-wise :func:`change_rate` over a ``(T, C)`` value matrix."""
    matrix = np.asarray(values, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"values must be 2-D, got shape {matrix.shape}")
    columns = [
        change_rate(hours, matrix[:, c], interval_hours)
        for c in range(matrix.shape[1])
    ]
    return np.column_stack(columns) if columns else matrix.copy()
