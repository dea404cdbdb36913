"""Format-hiding state behind :class:`~repro.detection.streaming.FleetMonitor`.

The paper's deployment protocol scores every drive of a population once
per hour.  The monitor keeps every piece of per-drive state in
preallocated arrays keyed by a stable serial→row index, so a collection
tick is a handful of vectorized passes instead of ``n_drives`` python
round-trips.  This module holds the three structures whose storage
layout the monitor should not have to know:

* :class:`_LagHistory`, a ring-buffered ``(n_drives, capacity)`` raw
  channel history holding only the channels that change-rate features
  look back at;
* :class:`MajorityVoteMatrix` / :class:`MeanThresholdMatrix` —
  shift-left ``(n_drives, n_voters)`` voting windows whose storage order
  *is* window order, so provenance snapshots read straight out of a row.

The voters replicate the offline paper detectors
(:class:`~repro.detection.voting.MajorityVoteDetector`,
:class:`~repro.detection.voting.MeanThresholdDetector`) sample for
sample, including the short-history flush; ``tests/`` pins them against
those detectors.  Where a vectorized mean could diverge in float space
(pairwise summation reassociation) the mean voter re-judges boundary
rows with the exact per-row rule.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class _LagHistory:
    """Ring-buffered raw-channel history for change-rate lookback.

    ``hours`` is ``(n_rows, capacity)`` with NaN marking empty slots;
    ``values`` keeps only the channels change-rate features actually
    read.  A slot is *live* while its hour is within ``max_lag`` of the
    drive's newest push, so validity is decided at lookup time instead
    of by eviction, and a push that would overwrite a live slot doubles
    the capacity first.
    """

    def __init__(self, n_rows: int, channels: Sequence[int], max_lag: float):
        self.channels = tuple(channels)
        self.max_lag = float(max_lag)
        self.capacity = 8
        self.hours = np.full((n_rows, self.capacity), np.nan)
        self.values = np.full((n_rows, self.capacity, len(self.channels)), np.nan)
        self.pushes = np.zeros(n_rows, dtype=np.int64)

    def grow_rows(self, n_rows: int) -> None:
        extra = n_rows - self.hours.shape[0]
        self.hours = np.concatenate(
            [self.hours, np.full((extra, self.capacity), np.nan)]
        )
        self.values = np.concatenate(
            [self.values, np.full((extra, self.capacity, len(self.channels)), np.nan)]
        )
        self.pushes = np.concatenate([self.pushes, np.zeros(extra, dtype=np.int64)])

    def _grow_capacity(self) -> None:
        old = self.capacity
        n_rows = self.hours.shape[0]
        self.hours = np.concatenate(
            [self.hours, np.full((n_rows, old), np.nan)], axis=1
        )
        self.values = np.concatenate(
            [self.values, np.full((n_rows, old, len(self.channels)), np.nan)], axis=1
        )
        self.capacity = old * 2
        # Uniform write cursor: the next push of every row lands in the
        # first fresh slot.  Lookups rank by stored hour, never by slot
        # position, so re-aligning cursors is safe.
        self.pushes[:] = old

    def push(self, rows: np.ndarray, hour: float, lag_values: np.ndarray) -> None:
        slots = self.pushes[rows] % self.capacity
        stale = self.hours[rows, slots]
        if np.any(np.isfinite(stale) & (stale >= hour - self.max_lag)):
            self._grow_capacity()
            slots = self.pushes[rows] % self.capacity
        self.hours[rows, slots] = hour
        self.values[rows, slots, :] = lag_values
        self.pushes[rows] += 1

    def lookup(self, rows: np.ndarray, lag_hour: float, now: float) -> np.ndarray:
        """Lagged channel values per row; NaN where the lag hour is absent.

        Only slots still within ``max_lag`` of ``now`` count,
        ``np.isclose`` matches the lag hour, and among multiple matches
        the oldest wins (per-drive hours are strictly increasing, so
        oldest = smallest).
        """
        stored = self.hours[rows]
        live = np.isfinite(stored) & (stored >= now - self.max_lag)
        with np.errstate(invalid="ignore"):
            match = live & np.isclose(stored, lag_hour)
        found = match.any(axis=1)
        pick = np.argmin(np.where(match, stored, np.inf), axis=1)
        out = self.values[rows, pick, :]
        out[~found] = np.nan
        return out


class MajorityVoteMatrix:
    """Streaming :class:`~repro.detection.voting.MajorityVoteDetector`, fleet-wide.

    ``push`` alarms the first time a row's trailing window holds a
    strict failed majority, and never before the window has filled.
    NaN scores (missed/unusable samples) occupy a window slot but never
    count as failed votes.  One int8 shift-left window per row: ``-1``
    marks an unfilled slot, ``0``/``1`` a vote, and storage order is
    window order (oldest first), so provenance reads a row verbatim.
    """

    def __init__(self, n_voters: int, failed_label: float, n_rows: int):
        self.n_voters = int(n_voters)
        self.failed_label = failed_label
        self.window = np.full((n_rows, self.n_voters), -1, dtype=np.int8)
        self.length = np.zeros(n_rows, dtype=np.int64)

    def grow_rows(self, n_rows: int) -> None:
        extra = n_rows - self.window.shape[0]
        self.window = np.concatenate(
            [self.window, np.full((extra, self.n_voters), -1, dtype=np.int8)]
        )
        self.length = np.concatenate([self.length, np.zeros(extra, dtype=np.int64)])

    def push(self, rows: np.ndarray, scores: np.ndarray) -> np.ndarray:
        votes = (np.isfinite(scores) & (scores == self.failed_label)).astype(np.int8)
        window = self.window[rows]
        window[:, :-1] = window[:, 1:]
        window[:, -1] = votes
        self.window[rows] = window
        self.length[rows] = np.minimum(self.length[rows] + 1, self.n_voters)
        fails = (window == 1).sum(axis=1)
        return (self.length[rows] == self.n_voters) & (fails > self.n_voters / 2.0)

    def flush(self, row: int) -> bool:
        """Judge a row whose whole history is shorter than the window.

        Mirrors the offline rule that short series are judged once over
        all their samples; a filled (or empty) window is never judged.
        """
        filled = int(self.length[row])
        if filled == 0 or filled >= self.n_voters:
            return False
        fails = int((self.window[row] == 1).sum())
        return fails > filled / 2.0

    def window_contents(self, row: int) -> list:
        """The row's current window, oldest first (alert provenance)."""
        window = self.window[row]
        return [bool(vote) for vote in window[window >= 0]]


class MeanThresholdMatrix:
    """Streaming :class:`~repro.detection.voting.MeanThresholdDetector`, fleet-wide.

    Float64 shift-left windows with NaN both as the unfilled-slot marker
    and as the unscorable-sample gap (the first ``length`` check keeps
    the two apart).  The alarm decision masks NaN to ``0.0`` and divides
    by the finite count — the mean of the window's finite scores, except
    that numpy's pairwise summation may associate the additions
    differently; rows whose mean lands within the reassociation error
    bound of the threshold are re-judged with the exact per-row rule
    (:meth:`_judge_exact`), so the decision never depends on the
    summation order.
    """

    def __init__(self, n_voters: int, threshold: float, n_rows: int):
        self.n_voters = int(n_voters)
        self.threshold = float(threshold)
        self.window = np.full((n_rows, self.n_voters), np.nan)
        self.length = np.zeros(n_rows, dtype=np.int64)

    def grow_rows(self, n_rows: int) -> None:
        extra = n_rows - self.window.shape[0]
        self.window = np.concatenate(
            [self.window, np.full((extra, self.n_voters), np.nan)]
        )
        self.length = np.concatenate([self.length, np.zeros(extra, dtype=np.int64)])

    def push(self, rows: np.ndarray, scores: np.ndarray) -> np.ndarray:
        window = self.window[rows]
        window[:, :-1] = window[:, 1:]
        window[:, -1] = scores
        self.window[rows] = window
        self.length[rows] = np.minimum(self.length[rows] + 1, self.n_voters)
        full = self.length[rows] == self.n_voters
        finite = np.isfinite(window)
        counts = finite.sum(axis=1)
        sums = np.where(finite, window, 0.0).sum(axis=1)
        sums_abs = np.where(finite, np.abs(window), 0.0).sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = sums / counts
            alarm = full & (counts > 0) & (means < self.threshold)
            eps = np.finfo(float).eps
            tolerance = 4.0 * eps * (
                self.n_voters * sums_abs / np.maximum(counts, 1)
                + abs(self.threshold)
            )
            suspect = full & (counts > 0) & (
                np.abs(means - self.threshold) <= tolerance
            )
        for at in np.nonzero(suspect)[0]:
            alarm[at] = self._judge_exact(window[at])
        return alarm

    def _judge_exact(self, values: np.ndarray) -> bool:
        valid = values[np.isfinite(values)]
        return valid.size > 0 and float(valid.mean()) < self.threshold

    def flush(self, row: int) -> bool:
        filled = int(self.length[row])
        if filled == 0 or filled >= self.n_voters:
            return False
        return self._judge_exact(self.window[row, self.n_voters - filled:])

    def window_contents(self, row: int) -> list:
        filled = min(int(self.length[row]), self.n_voters)
        window = self.window[row, self.n_voters - filled:]
        return [float(v) if np.isfinite(v) else None for v in window]
