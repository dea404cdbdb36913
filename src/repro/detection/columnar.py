"""Format-hiding state behind :class:`~repro.detection.streaming.FleetMonitor`.

The paper's deployment protocol scores every drive of a population once
per hour.  The monitor keeps every piece of per-drive state in
preallocated arrays keyed by a stable serial→row index, so a collection
tick is a handful of vectorized passes instead of ``n_drives`` python
round-trips.  This module holds the three structures whose storage
layout the monitor should not have to know:

* :class:`_LagHistory`, a sparse hour-keyed raw-channel history: one
  block per pushed hour holding the rows pushed at that hour and only
  the channels that change-rate features look back at.  A lag lookup
  finds its hour with a binary search and reads one block, so its cost
  does not grow with the change-rate interval, and a full-roster tick
  reads its lagged values as one contiguous slice;
* :class:`MajorityVoteMatrix` / :class:`MeanThresholdMatrix` —
  voter-major ``(n_voters, capacity)`` voting windows whose axis 0 *is*
  window order, oldest first, so provenance reads one column.  A tick
  shifts a contiguous run of rows with ``n_voters - 1`` contiguous
  storage-row moves, and the majority voter keeps a running failed-vote
  count per row (incoming vote minus outgoing vote) instead of
  recounting every window.

Every per-row entry point takes ``rows`` as either an index array or a
unit-step ``slice`` of rows: the monitor passes a slice when a tick
covers a contiguous run of rows, and the structures then read, shift
and update their storage in place instead of gathering and scattering
copies.

The voters replicate the offline paper detectors
(:class:`~repro.detection.voting.MajorityVoteDetector`,
:class:`~repro.detection.voting.MeanThresholdDetector`) sample for
sample, including the short-history flush; ``tests/`` pins them against
those detectors.  Where a vectorized mean could diverge in float space
(the sum down the voter axis associates differently from a per-row
mean) the mean voter re-judges boundary rows with the exact per-row
rule.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence, Union

import numpy as np

from repro.utils.validation import check_finite

#: A tick's rows: an index array, or a unit-step slice of a contiguous run.
Rows = Union[np.ndarray, slice]


def _n_rows(rows: Rows) -> int:
    return rows.stop - rows.start if isinstance(rows, slice) else len(rows)


def _row_array(rows: Rows) -> np.ndarray:
    if isinstance(rows, slice):
        return np.arange(rows.start, rows.stop, dtype=np.intp)
    return rows


def _write_back(array: np.ndarray, rows: Rows, values: np.ndarray) -> None:
    """Scatter values gathered with ``array[rows]`` back into ``array``.

    A slice's values are a view, already updated in place.  Updating in
    place rather than storing a fresh result matters at fleet scale: a
    fresh row-sized buffer is page-faulted again on every tick.
    """
    if not isinstance(rows, slice):
        array[rows] = values


class _HourBlock:
    """The rows pushed at one hour and their lag-channel values.

    ``values`` is channel-major, ``(n_channels, n_rows)``.  ``rows`` is
    a unit-step slice when the rows form a contiguous run (a row's
    position is then ``row - first``) and a sorted index array
    otherwise.  Pushes that land on an existing hour queue in
    ``pending`` and are merged, once, the next time the block is read.
    """

    __slots__ = ("hour", "rows", "values", "pending")

    def __init__(self, hour: float, rows: Rows, values: np.ndarray):
        self.hour = hour
        self.pending: list = []
        self._store(rows, values)

    def _store(self, rows: Rows, values: np.ndarray) -> None:
        if not isinstance(rows, slice) and rows[-1] - rows[0] + 1 == len(rows):
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        self.rows = rows
        self.values = values

    def settle(self) -> "_HourBlock":
        """Merge queued same-hour pushes into the sorted rows."""
        if self.pending:
            parts = [(self.rows, self.values)] + self.pending
            rows = np.concatenate([_row_array(part_rows) for part_rows, _ in parts])
            values = np.concatenate(
                [part_values for _, part_values in parts], axis=1
            )
            order = np.argsort(rows, kind="stable")
            self.pending = []
            self._store(rows[order], values[:, order])
        return self

    def keep(self, live: np.ndarray) -> None:
        """Compact a settled block to the rows marked ``live``."""
        self._store(_row_array(self.rows)[live], self.values[:, live])

    def __len__(self) -> int:
        return _n_rows(self.rows) + sum(_n_rows(rows) for rows, _ in self.pending)

    def locate(self, rows: Rows):
        """``(query positions, block positions)`` of the query rows held here.

        Both are slices when a contiguous query meets a contiguous
        block, so the lagged values come back as a view.
        """
        held = self.rows
        if isinstance(held, slice):
            if isinstance(rows, slice):
                lo, hi = max(rows.start, held.start), min(rows.stop, held.stop)
                hi = max(lo, hi)
                return slice(lo - rows.start, hi - rows.start), slice(
                    lo - held.start, hi - held.start
                )
            at = rows - held.start
            hit = (at >= 0) & (at < held.stop - held.start)
        else:
            rows = _row_array(rows)
            at = np.minimum(np.searchsorted(held, rows), len(held) - 1)
            hit = held[at] == rows
        query = np.flatnonzero(hit)
        return query, at[query]


class _LagHistory:
    """Hour-keyed raw-channel history for change-rate lookback.

    One :class:`_HourBlock` per pushed hour, kept in a list parallel to
    the sorted ``hours``.  A lookup of lag hour ``L`` follows the offline
    rule of :func:`repro.features.change_rates.change_rate`: each row
    reads its first pushed hour at or after ``L``, and only when that
    hour ``np.isclose``-matches ``L`` — so the candidate blocks are the
    isclose band starting at ``bisect_left(hours, L)``, earliest first.

    The history holds no per-row storage.  Eviction reads the monitor's
    per-row newest hour: an entry ``(row, hour)`` is dead once
    ``hour < last_hour[row] - max_lag``, since every later lag hour of
    that row lies past it.  After each push the dead blocks at the
    front are dropped, and whenever the block count doubles a sweep
    drops every dead block and compacts partly-dead ones to their live
    rows (drives that stop reporting pin the front otherwise).
    """

    def __init__(self, channels: Sequence[int], max_lag: float):
        self.channels = tuple(channels)
        self.max_lag = float(max_lag)
        self.hours: list[float] = []
        self.blocks: list[_HourBlock] = []
        self._sweep_at = 8

    @property
    def n_entries(self) -> int:
        """Retained ``(row, hour)`` entries."""
        return sum(len(block) for block in self.blocks)

    def push(
        self, rows: Rows, hour: float, lag_values: np.ndarray, last_hour: np.ndarray
    ) -> None:
        """Record one tick's ``(n_channels, n_rows)`` lag channels.

        ``last_hour`` is the monitor's per-row newest hour, already
        holding ``hour`` for ``rows``.
        """
        if not isinstance(rows, slice) and len(rows) > 1 and np.any(rows[1:] < rows[:-1]):
            order = np.argsort(rows)
            rows, lag_values = rows[order], lag_values[:, order]
        at = bisect_left(self.hours, hour)
        if at < len(self.hours) and self.hours[at] == hour:
            self.blocks[at].pending.append((rows, lag_values))
        else:
            self.hours.insert(at, hour)
            self.blocks.insert(at, _HourBlock(hour, rows, lag_values))
        self._evict(last_hour)

    def _dead(self, block: _HourBlock, last_hour: np.ndarray) -> np.ndarray:
        """Per-row death mask of a settled block."""
        return block.hour < last_hour[block.rows] - self.max_lag

    def _evict(self, last_hour: np.ndarray) -> None:
        front = 0
        while front < len(self.blocks) and self._dead(
            self.blocks[front].settle(), last_hour
        ).all():
            front += 1
        del self.hours[:front], self.blocks[:front]
        if len(self.blocks) < self._sweep_at:
            return
        kept = []
        for block in self.blocks:
            dead = self._dead(block.settle(), last_hour)
            if dead.all():
                continue
            if dead.any():
                block.keep(~dead)
            kept.append(block)
        self.blocks = kept
        self.hours = [block.hour for block in kept]
        self._sweep_at = max(2 * len(kept), 8)

    def lookup(self, rows: Rows, lag_hour: float) -> np.ndarray:
        """Lagged ``(n_channels, n_rows)`` values; NaN where the lag hour is absent.

        Returns a view of the block's storage when one contiguous block
        covers a contiguous query (callers only read it).
        """
        tolerance = 1e-08 + 1e-05 * abs(lag_hour)  # np.isclose defaults
        at = bisect_left(self.hours, lag_hour)
        band = []
        while at < len(self.hours) and abs(self.hours[at] - lag_hour) <= tolerance:
            band.append(self.blocks[at].settle())
            at += 1
        n = _n_rows(rows)
        out = np.full((len(self.channels), n), np.nan) if len(band) != 1 else None
        # Latest block first, so a row's earliest matching hour wins.
        for block in reversed(band):
            query, held = block.locate(rows)
            if out is None:
                if isinstance(query, slice) and query.stop - query.start == n:
                    return block.values[:, held]
                out = np.full((len(self.channels), n), np.nan)
            out[:, query] = block.values[:, held]
        return out


class _WindowMatrix:
    """Voter-major ``(n_voters, capacity)`` windows plus per-row fill lengths.

    ``slots[i, row]`` is the row's ``i``-th oldest window slot: axis 0
    is window order, oldest first, so a row's window (provenance,
    ``flush``) is one column, and a tick's shift over a unit-step slice
    of rows is ``n_voters - 1`` contiguous row moves.

    Subclasses name the unfilled-slot marker ``_fill`` and its ``_dtype``.
    Snapshots record the layout, and one pickled in the row-major
    layout of earlier releases refuses to load (``ValueError``): read
    as voter-major it would serve transposed windows, and a shape check
    cannot tell the two apart when ``n_rows == n_voters``.
    """

    _fill: float
    _dtype: type
    _LAYOUT = "voter-major"

    def __init__(self, n_voters: int, n_rows: int):
        self.n_voters = int(n_voters)
        self.slots = np.full((self.n_voters, n_rows), self._fill, dtype=self._dtype)
        self.length = np.zeros(n_rows, dtype=np.int64)

    def __getstate__(self) -> dict:
        return dict(self.__dict__, layout=self._LAYOUT)

    def __setstate__(self, state: dict) -> None:
        if state.pop("layout", None) != self._LAYOUT:
            raise ValueError(
                f"{type(self).__name__} was pickled with row-major voting "
                "windows (a snapshot from before the voter-major layout); "
                "it cannot be restored"
            )
        self.__dict__.update(state)

    def grow_rows(self, n_rows: int) -> None:
        extra = n_rows - self.slots.shape[1]
        self.slots = np.concatenate(
            [self.slots, np.full((self.n_voters, extra), self._fill, dtype=self._dtype)],
            axis=1,
        )
        self.length = np.concatenate([self.length, np.zeros(extra, dtype=np.int64)])

    def _shift_in(self, rows: Rows, column: np.ndarray) -> tuple:
        """Append one column to the rows' windows; return them and a full mask.

        A slice moves each storage row down one slot in place and the
        windows come back as a view; an index array gathers the newer
        slots one down into a copy and scatters it back.
        """
        slots = self.slots
        if isinstance(rows, slice):
            for at in range(self.n_voters - 1):
                slots[at, rows] = slots[at + 1, rows]
            slots[-1, rows] = column
            window = slots[:, rows]
        else:
            window = np.empty((self.n_voters, len(rows)), dtype=slots.dtype)
            slots[1:].take(rows, axis=1, out=window[:-1])
            window[-1] = column
            slots[:, rows] = window
        length = self.length[rows]
        length += length < self.n_voters
        _write_back(self.length, rows, length)
        return window, length == self.n_voters


class MajorityVoteMatrix(_WindowMatrix):
    """Streaming :class:`~repro.detection.voting.MajorityVoteDetector`, fleet-wide.

    ``push`` alarms the first time a row's trailing window holds a
    strict failed majority, and never before the window has filled.
    NaN scores (missed/unusable samples) occupy a window slot but never
    count as failed votes.  The int8 window slots hold ``-1`` for an
    unfilled slot and ``0``/``1`` for a vote.  ``fails`` keeps each
    row's failed-vote count (int16 for any window that fits): a push
    adds the incoming vote and takes away the one shifted out, so no
    window is recounted.  ``failed_label`` must be finite, so a NaN or
    infinite score never equals it, as the offline detector never
    counts one.
    """

    _fill, _dtype = -1, np.int8

    def __init__(self, n_voters: int, failed_label: float, n_rows: int):
        super().__init__(n_voters, n_rows)
        self.failed_label = check_finite("failed_label", failed_label)
        count_dtype = np.int16 if self.n_voters < 2**15 else np.int64
        self.fails = np.zeros(n_rows, dtype=count_dtype)

    def grow_rows(self, n_rows: int) -> None:
        extra = n_rows - self.slots.shape[1]
        super().grow_rows(n_rows)
        self.fails = np.concatenate([self.fails, np.zeros(extra, dtype=self.fails.dtype)])

    def push(self, rows: Rows, scores: np.ndarray) -> np.ndarray:
        votes = (scores == self.failed_label).view(np.int8)
        change = votes - (self.slots[0, rows] == 1)
        _, full = self._shift_in(rows, votes)
        fails = self.fails[rows]
        fails += change
        _write_back(self.fails, rows, fails)
        return full & (fails > self.n_voters // 2)

    def flush(self, row: int) -> bool:
        """Judge a row whose whole history is shorter than the window.

        Mirrors the offline rule that short series are judged once over
        all their samples; a filled (or empty) window is never judged.
        """
        filled = int(self.length[row])
        if filled == 0 or filled >= self.n_voters:
            return False
        return int(self.fails[row]) > filled / 2.0

    def window_contents(self, row: int) -> list:
        """The row's current window, oldest first (alert provenance)."""
        window = self.slots[:, row]
        return [bool(vote) for vote in window[window >= 0]]


class MeanThresholdMatrix(_WindowMatrix):
    """Streaming :class:`~repro.detection.voting.MeanThresholdDetector`, fleet-wide.

    Float64 window slots with NaN both as the unfilled-slot marker and
    as the unscorable-sample gap (the first ``length`` check keeps the
    two apart).  The alarm decision masks NaN to ``0.0`` and divides by
    the finite count — the mean of the window's finite scores, except
    that the vectorised sum down the voter axis may associate the
    additions differently from the per-row mean; rows whose mean lands
    within the reassociation error bound of the threshold are re-judged
    with the exact per-row rule (:meth:`_judge_exact`), so the decision
    never depends on the summation order.
    """

    _fill, _dtype = np.nan, float

    def __init__(self, n_voters: int, threshold: float, n_rows: int):
        super().__init__(n_voters, n_rows)
        self.threshold = float(check_finite("threshold", threshold))

    def push(self, rows: Rows, scores: np.ndarray) -> np.ndarray:
        window, full = self._shift_in(rows, scores)
        finite = np.isfinite(window)
        counts = finite.sum(axis=0)
        sums = np.where(finite, window, 0.0).sum(axis=0)
        sums_abs = np.where(finite, np.abs(window), 0.0).sum(axis=0)
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
            alarm[at] = self._judge_exact(window[:, at])
        return alarm

    def _judge_exact(self, values: np.ndarray) -> bool:
        valid = values[np.isfinite(values)]
        return valid.size > 0 and float(valid.mean()) < self.threshold

    def flush(self, row: int) -> bool:
        filled = int(self.length[row])
        if filled == 0 or filled >= self.n_voters:
            return False
        return self._judge_exact(self.slots[self.n_voters - filled:, row])

    def window_contents(self, row: int) -> list:
        filled = min(int(self.length[row]), self.n_voters)
        window = self.slots[self.n_voters - filled:, row]
        return [float(v) if np.isfinite(v) else None for v in window]
