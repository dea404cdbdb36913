"""Feature definitions and per-drive feature-matrix extraction.

A :class:`Feature` names either a SMART channel's value or its change
rate over some interval; a :class:`FeatureExtractor` turns a
:class:`~repro.smart.drive.DriveRecord` into the ``(T, F)`` matrix the
models consume, with one row per recorded sample — or a list of drives
into their stacked matrices in one whole-array pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.features.change_rates import lag_rows
from repro.smart.attributes import N_CHANNELS, channel_index
from repro.smart.drive import DriveRecord


@dataclass(frozen=True)
class Feature:
    """One model input.

    ``change_interval_hours == 0`` selects the attribute value itself;
    a positive interval selects the change rate over that many hours
    (the paper's 6-hour change rates use ``6.0``).
    """

    short: str
    change_interval_hours: float = 0.0

    def __post_init__(self) -> None:
        channel_index(self.short)  # validate the abbreviation eagerly
        if self.change_interval_hours < 0:
            raise ValueError(
                f"change_interval_hours must be >= 0, got {self.change_interval_hours}"
            )

    @property
    def is_change_rate(self) -> bool:
        return self.change_interval_hours > 0

    @property
    def name(self) -> str:
        """Readable column name, e.g. ``"RUE"`` or ``"d6h(RRER)"``."""
        if not self.is_change_rate:
            return self.short
        return f"d{self.change_interval_hours:g}h({self.short})"


class FeatureExtractor:
    """Maps drive records to model feature matrices.

    Example:
        >>> from repro.smart import default_fleet_config, SmartDataset
        >>> config = default_fleet_config(w_good=1, w_failed=0, q_good=0, q_failed=0)
        >>> drive = SmartDataset.generate(config).drives[0]
        >>> extractor = FeatureExtractor([Feature("POH"), Feature("RRER", 6.0)])
        >>> extractor.extract(drive).shape[1]
        2
    """

    def __init__(self, features: Sequence[Feature]):
        if not features:
            raise ValueError("at least one feature is required")
        self.features = tuple(features)
        if len(set(f.name for f in self.features)) != len(self.features):
            raise ValueError("duplicate features in extractor")

    @property
    def names(self) -> list[str]:
        """Column names of the extracted matrix."""
        return [feature.name for feature in self.features]

    def __len__(self) -> int:
        return len(self.features)

    def extract(self, drive: DriveRecord) -> np.ndarray:
        """The drive's full ``(n_samples, n_features)`` matrix.

        Rows align one-to-one with ``drive.hours``; missed samples and
        unavailable change-rate lags surface as NaN entries (the models
        route NaNs explicitly rather than imputing silently).
        """
        return self.extract_all([drive])[0]

    def extract_all(
        self, drives: Sequence[DriveRecord]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every drive's matrix, stacked, and each drive's row offsets.

        Drive ``i`` owns rows ``offsets[i]:offsets[i + 1]``, equal to
        ``extract(drives[i])``.  The work is whole-array over the
        concatenated hours and values: change rates follow
        :func:`~repro.features.change_rates.change_rate`'s rule through
        :func:`~repro.features.change_rates.lag_rows`, one lag lookup
        per distinct interval.
        """
        offsets = np.zeros(len(drives) + 1, dtype=np.int64)
        np.cumsum([drive.n_samples for drive in drives], out=offsets[1:])
        hours = np.concatenate([np.empty(0)] + [drive.hours for drive in drives])
        values = np.concatenate(
            [np.empty((0, N_CHANNELS))] + [drive.values for drive in drives]
        )
        matrix = np.full((hours.shape[0], len(self.features)), np.nan)
        lags = {}
        for column, feature in enumerate(self.features):
            series = values[:, channel_index(feature.short)]
            if not feature.is_change_rate:
                matrix[:, column] = series
                continue
            interval = feature.change_interval_hours
            if interval not in lags:
                lags[interval] = lag_rows(hours, offsets, interval)
            rows, aligned = lags[interval]
            valid = aligned & np.isfinite(series) & np.isfinite(series[rows])
            matrix[valid, column] = (series[valid] - series[rows[valid]]) / interval
        return matrix, offsets

    def extract_rows(self, drive: DriveRecord, row_indices: np.ndarray) -> np.ndarray:
        """Feature matrix restricted to the given sample indices."""
        return self.extract(drive)[row_indices]
