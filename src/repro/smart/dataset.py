"""Fleet container and the paper's train/test protocols.

Section V-A1: "For each good drive, we take the earlier 70% of the
samples within the week as training data, and the later 30% as test
data.  Since failed drives are much less than good drives and the
chronological order of them was not recorded, we use all failed drives
and divide them randomly into training and test sets in a 7 to 3 ratio."

:class:`SmartDataset` implements that split, plus the drive subsampling
behind Table V and the by-hour restriction behind the model-aging
experiments (Figures 6-9).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.smart.drive import DriveRecord
from repro.smart.generator import FleetConfig, FleetGenerator
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_fraction


@dataclass(frozen=True)
class TrainTestSplit:
    """The paper's four-way split of a fleet.

    ``train_good`` holds *time-sliced copies* of each good drive (the
    earlier fraction of its samples) and ``test_good`` the complementary
    later slices; ``train_failed``/``test_failed`` partition the failed
    drives whole (drive-level random 7:3).
    """

    train_good: tuple[DriveRecord, ...]
    test_good: tuple[DriveRecord, ...]
    train_failed: tuple[DriveRecord, ...]
    test_failed: tuple[DriveRecord, ...]


def _cut(drive: DriveRecord, rows: slice) -> DriveRecord:
    """A copy of ``drive`` restricted to a contiguous run of its samples."""
    return replace(
        drive, hours=drive.hours[rows].copy(), values=drive.values[rows].copy()
    )


@dataclass
class SmartDataset:
    """A fleet of drives plus the paper's selection protocols."""

    drives: list[DriveRecord]

    @classmethod
    def generate(cls, config: FleetConfig) -> "SmartDataset":
        """Generate a synthetic fleet from a :class:`FleetConfig`."""
        return cls(FleetGenerator(config).generate())

    # -- basic selections --------------------------------------------------------

    @property
    def good_drives(self) -> list[DriveRecord]:
        """Drives that survived the collection period."""
        return [drive for drive in self.drives if not drive.failed]

    @property
    def failed_drives(self) -> list[DriveRecord]:
        """Drives that failed during the collection period."""
        return [drive for drive in self.drives if drive.failed]

    def families(self) -> list[str]:
        """Family labels present, sorted."""
        return sorted({drive.family for drive in self.drives})

    def filter_family(self, family: str) -> "SmartDataset":
        """The sub-fleet of one family (the paper separates models per family)."""
        subset = [drive for drive in self.drives if drive.family == family]
        if not subset:
            raise ValueError(
                f"no drives of family {family!r}; present: {self.families()}"
            )
        return SmartDataset(subset)

    def summary(self) -> dict[str, dict[str, int]]:
        """Per-family good/failed drive counts (the paper's Table I shape)."""
        out: dict[str, dict[str, int]] = {}
        for drive in self.drives:
            entry = out.setdefault(drive.family, {"good": 0, "failed": 0})
            entry["failed" if drive.failed else "good"] += 1
        return out

    # -- Table V: smaller fleets ---------------------------------------------------

    def subsample_drives(self, fraction: float, seed: RandomState = None) -> "SmartDataset":
        """Randomly keep ``fraction`` of good and of failed drives.

        This is the synthesis behind Table V: datasets A/B/C/D keep 10%,
        25%, 50% and 75% of the full fleet.  At least one drive of each
        class is always kept when the class is non-empty.
        """
        check_fraction("fraction", fraction)
        if fraction == 0:
            raise ValueError("fraction must be > 0")
        rng = as_rng(seed)
        selected: list[DriveRecord] = []
        for population in (self.good_drives, self.failed_drives):
            if not population:
                continue
            keep = max(1, int(round(fraction * len(population))))
            chosen = rng.choice(len(population), size=keep, replace=False)
            selected.extend(population[i] for i in sorted(chosen))
        return SmartDataset(selected)

    # -- model-aging slicing ----------------------------------------------------------

    def restrict_good_hours(self, start_hour: float, end_hour: float) -> "SmartDataset":
        """Good drives sliced to ``[start_hour, end_hour)``; failed drives intact.

        The updating experiments retrain on specific weeks of good
        samples while reusing the single global failed-drive pool ("we
        use the same failed sample set in all experiments").  Good drives
        left with no samples in the window are dropped.
        """
        sliced: list[DriveRecord] = []
        for drive in self.drives:
            if drive.failed:
                sliced.append(drive)
                continue
            cut = drive.slice_hours(start_hour, end_hour)
            if cut.n_samples > 0:
                sliced.append(cut)
        return SmartDataset(sliced)

    # -- the paper's split protocol -----------------------------------------------------

    def split(
        self,
        *,
        train_fraction: float = 0.7,
        seed: RandomState = None,
    ) -> TrainTestSplit:
        """Split per Section V-A1 (time split for good, random for failed)."""
        check_fraction("train_fraction", train_fraction, inclusive=False)
        rng = as_rng(seed)
        train_good: list[DriveRecord] = []
        test_good: list[DriveRecord] = []
        for drive in self.good_drives:
            if drive.n_samples == 0:
                continue
            boundary = int(round(train_fraction * drive.n_samples))
            boundary = min(max(boundary, 1), drive.n_samples - 1) if drive.n_samples > 1 else 1
            # Hours are strictly increasing: the time split is an index cut.
            train_good.append(_cut(drive, slice(None, boundary)))
            if boundary < drive.n_samples:
                test_good.append(_cut(drive, slice(boundary, None)))

        failed = list(self.failed_drives)
        order = rng.permutation(len(failed))
        n_train = int(round(train_fraction * len(failed)))
        train_failed = [failed[i] for i in sorted(order[:n_train])]
        test_failed = [failed[i] for i in sorted(order[n_train:])]
        return TrainTestSplit(
            train_good=tuple(train_good),
            test_good=tuple(test_good),
            train_failed=tuple(train_failed),
            test_failed=tuple(test_failed),
        )
