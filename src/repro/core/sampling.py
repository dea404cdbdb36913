"""Training-set assembly from a fleet split (Section V-A1's protocol).

Good training samples: a few random recorded samples per good drive.
Failed training samples: every recorded sample within the failed time
window (the last n hours before the failure).  Labels are +1 / -1 and
the failed class is re-weighted to the configured share of the training
mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.config import FAILED_LABEL, GOOD_LABEL, SamplingConfig
from repro.detection.evaluator import DriveScoreSeries
from repro.observability import get_registry
from repro.features.vectorize import FeatureExtractor
from repro.smart.drive import DriveRecord
from repro.tree.classification import weights_for_priors
from repro.utils.rng import as_rng, spawn_child


@dataclass(frozen=True)
class TrainingSet:
    """Feature matrix, labels and class-share weights ready for fitting."""

    X: np.ndarray
    y: np.ndarray
    sample_weight: Optional[np.ndarray]
    feature_names: tuple[str, ...]

    @property
    def n_failed(self) -> int:
        return int(np.sum(self.y == FAILED_LABEL))

    @property
    def n_good(self) -> int:
        return int(np.sum(self.y == GOOD_LABEL))


def _usable(matrix: np.ndarray) -> np.ndarray:
    """Mask of rows with at least one finite feature."""
    return np.any(np.isfinite(matrix), axis=1)


#: Rows extracted at once while sampling good drives, which keep only a
#: few rows each: bounds the stacked matrix and the lag lookup's
#: temporaries whatever the fleet's size.
_SAMPLING_BATCH_ROWS = 1 << 16


def _batches(drives: Sequence[DriveRecord]):
    """Runs of consecutive drives, as ``(index of the first, drives)``.

    A run holds at most :data:`_SAMPLING_BATCH_ROWS` rows; a longer
    drive runs alone.
    """
    start = rows = 0
    for end, drive in enumerate(drives):
        if rows and rows + drive.n_samples > _SAMPLING_BATCH_ROWS:
            yield start, drives[start:end]
            start, rows = end, 0
        rows += drive.n_samples
    if start < len(drives):
        yield start, drives[start:]


def good_training_rows(
    extractor: FeatureExtractor,
    drives: Sequence[DriveRecord],
    per_drive: int,
    seed,
) -> np.ndarray:
    """Random recorded samples per good drive, stacked."""
    rng = as_rng(seed)
    blocks = [np.empty((0, len(extractor)))]
    for first, batch in _batches(drives):
        matrix, offsets = extractor.extract_all(batch)
        usable = _usable(matrix)
        chosen = [np.empty(0, dtype=np.int64)]
        bounds = zip(offsets[:-1].tolist(), offsets[1:].tolist())
        for key, (start, stop) in enumerate(bounds, start=first):
            rows = np.flatnonzero(usable[start:stop])
            if rows.size == 0:
                continue
            take = min(per_drive, rows.size)
            picked = spawn_child(rng, key).choice(rows, size=take, replace=False)
            chosen.append(start + np.sort(picked))
        blocks.append(matrix[np.concatenate(chosen)])
    return np.vstack(blocks)


def failed_training_rows(
    extractor: FeatureExtractor,
    drives: Sequence[DriveRecord],
    window_hours: float,
) -> np.ndarray:
    """Every recorded sample within each failed drive's time window."""
    matrix, offsets = extractor.extract_all(drives)
    windows = matrix[np.concatenate([np.empty(0, dtype=np.int64)] + [
        start + drive.window_before_failure(window_hours)
        for drive, start in zip(drives, offsets.tolist())
    ])]
    return windows[_usable(windows)]


def build_training_set(
    extractor: FeatureExtractor,
    train_good: Sequence[DriveRecord],
    train_failed: Sequence[DriveRecord],
    sampling: SamplingConfig,
    *,
    failed_share: Optional[float] = None,
) -> TrainingSet:
    """Assemble (X, y, weights) per the paper's training protocol.

    ``failed_share`` re-weights the classes so failed samples carry that
    fraction of the total training mass (``None`` leaves raw weights).
    """
    good = good_training_rows(
        extractor, train_good, sampling.good_samples_per_drive, sampling.seed
    )
    failed = failed_training_rows(
        extractor, train_failed, sampling.failed_window_hours
    )
    if good.shape[0] == 0 or failed.shape[0] == 0:
        raise ValueError(
            f"training set needs both classes; got {good.shape[0]} good and "
            f"{failed.shape[0]} failed samples"
        )
    X = np.vstack([good, failed])
    y = np.concatenate(
        [
            np.full(good.shape[0], GOOD_LABEL, dtype=int),
            np.full(failed.shape[0], FAILED_LABEL, dtype=int),
        ]
    )
    weight = None
    if failed_share is not None:
        weight = weights_for_priors(
            y, {FAILED_LABEL: failed_share, GOOD_LABEL: 1.0 - failed_share}
        )
    return TrainingSet(
        X=X, y=y, sample_weight=weight, feature_names=tuple(extractor.names)
    )


def score_drives(
    extractor: FeatureExtractor,
    drives: Sequence[DriveRecord],
    score_rows,
) -> list[DriveScoreSeries]:
    """Per-drive chronological score series via a batched scoring callback.

    Every drive's usable feature rows are stacked into one fleet matrix
    and ``score_rows(matrix) -> scores`` is invoked exactly once — the
    compiled tree then routes the whole fleet in a single
    vectorised pass instead of paying per-drive call overhead.  Rows
    with no finite feature (missed samples) surface as NaN scores for
    the voting detectors to skip.
    """
    matrix, offsets = extractor.extract_all(drives)
    usable = _usable(matrix)
    n_usable = int(usable.sum())
    registry = get_registry()
    registry.counter("score.fleet_calls", help="stacked-fleet scoring passes").inc()
    registry.counter("score.fleet_drives", help="drives scored").inc(len(drives))
    registry.counter("score.fleet_rows", help="usable rows stacked").inc(n_usable)
    scores = np.full(matrix.shape[0], np.nan)
    if n_usable:
        fleet_scores = np.asarray(score_rows(matrix[usable]), dtype=float)
        if fleet_scores.shape != (n_usable,):
            raise ValueError(
                f"score_rows returned shape {fleet_scores.shape} for "
                f"{n_usable} stacked rows"
            )
        scores[usable] = fleet_scores
    return [
        DriveScoreSeries(
            serial=drive.serial,
            failed=drive.failed,
            hours=drive.hours,
            scores=scores[start:stop],
            failure_hour=drive.failure_hour,
        )
        for drive, start, stop in zip(
            drives, offsets[:-1].tolist(), offsets[1:].tolist()
        )
    ]
