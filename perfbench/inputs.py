"""Seeded input generators for the benchmark workloads.

Every input a workload feeds the program is built here from the
workload seed, so a figure can be re-checked on any other seed:

* :class:`TickStream` — an hourly fleet tick stream as one
  ``(n_drives, n_channels)`` matrix per tick.  Rows cycle through real
  good-drive histories of a synthetic training fleet plus per-tick noise;
  a share of drives ramps toward failed-drive readings from a known onset
  hour, and a share of cells is NaN so the tree's surrogate routing runs.
  Tick ``k`` depends only on ``(seed, k)``, so any replay of a prefix
  sees identical matrices.
* :func:`audit_records` — one tick of the same kind of stream as
  ``(serial, values)`` records, with a fixed share of malformed records
  (wrong shape, duplicate serial) for the fault and quarantine path.
* :func:`write_backblaze_dump` — a daily-CSV dump in the Backblaze
  schema of ``tools/make_backblaze_fixture.py``: the same header (one
  mapped column missing, one unmapped extra), malformed rows for the
  lenient ledger, late-arriving and early-retiring drives, and failing
  drives that degrade over their last days.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

#: Hours of good-drive history each stream row cycles through.
PERIOD = 168

#: Per-tick noise, as a share of each channel's spread across the pool.
NOISE = 0.05

#: Share of stream drives that ramp toward failure, and of NaN cells.
DEGRADE_SHARE = 0.01
NAN_SHARE = 0.005


class TickStream:
    """A seeded fleet tick stream drawn from a fleet's good-drive samples.

    Args:
        dataset: The fleet whose drives seed the stream (its good drives
            give the healthy rows, its failed drives the ramp targets).
        n_drives: Rows per tick.
        seed: The workload seed.
        ramp_hours: Hours from a drive's onset to fully failed readings.
        onset_range: ``(first, last)`` tick of the degradation onsets.
    """

    def __init__(
        self,
        dataset,
        n_drives: int,
        seed: int,
        *,
        ramp_hours: int = 12,
        onset_range: tuple[int, int] = (8, 96),
    ):
        good = [d.values[:PERIOD] for d in dataset.good_drives
                if d.values.shape[0] >= PERIOD]
        self.pool = np.stack(good)
        failed = np.concatenate([d.values[-24:] for d in dataset.failed_drives])
        failed = failed[np.isfinite(failed).all(axis=1)]
        self.seed = int(seed)
        self.ramp_hours = int(ramp_hours)
        rng = np.random.default_rng([self.seed, 0])
        self.source = rng.integers(0, len(self.pool), n_drives)
        self.phase = rng.integers(0, PERIOD, n_drives)
        spread = np.nanstd(self.pool.reshape(-1, self.pool.shape[-1]), axis=0)
        scale = NOISE * np.where(np.isfinite(spread), spread, 0.0)
        # Tick k adds a window of this bank at a seeded offset: fresh
        # noise per tick without drawing a fleet's worth of normals.
        self.noise = rng.standard_normal((2 * n_drives, len(scale))) * scale
        n_degrading = max(1, int(round(DEGRADE_SHARE * n_drives)))
        self.degrading = np.sort(rng.choice(n_drives, n_degrading, replace=False))
        self.onset = rng.integers(onset_range[0], onset_range[1] + 1, n_degrading)
        self.target = failed[rng.integers(0, len(failed), n_degrading)]
        self.serials = tuple(f"drive-{i:06d}" for i in range(n_drives))

    @property
    def n_drives(self) -> int:
        return len(self.serials)

    def tick(self, k: int) -> np.ndarray:
        """The channel matrix of tick ``k`` (hour ``k``)."""
        rng = np.random.default_rng([self.seed, 1, k])
        n = self.n_drives
        matrix = self.pool[self.source, (self.phase + k) % PERIOD]
        offset = rng.integers(0, n)
        matrix += self.noise[offset:offset + n]
        weight = np.clip((k - self.onset) / self.ramp_hours, 0.0, 1.0)[:, None]
        rows = matrix[self.degrading]
        matrix[self.degrading] = (1.0 - weight) * rows + weight * self.target
        cells = matrix.reshape(-1)
        n_nan = rng.binomial(cells.size, NAN_SHARE)
        cells[rng.integers(0, cells.size, n_nan)] = np.nan
        return matrix

    def matured(self, n_ticks: int, voters: int) -> dict[str, float]:
        """Degrading drives whose ramp completes with a full vote window
        left in ``n_ticks`` ticks, keyed by serial, valued by onset hour."""
        done = self.onset + self.ramp_hours + voters < n_ticks
        return {
            self.serials[row]: float(onset)
            for row, onset in zip(self.degrading[done], self.onset[done])
        }


#: The first ``FLAKY`` drives send a record one channel short with
#: probability ``FLAKY_RATE`` each tick, so they cross the quarantine
#: budget within the run; ``DUPLICATES`` other drives a tick appear twice.
FLAKY = 8
FLAKY_RATE = 0.3
DUPLICATES = 5


def audit_records(stream: TickStream, k: int) -> list[tuple[str, np.ndarray]]:
    """Tick ``k`` of ``stream`` as ``(serial, values)`` records."""
    matrix = stream.tick(k)
    records = list(zip(stream.serials, matrix))
    rng = np.random.default_rng([stream.seed, 2, k])
    for row in np.flatnonzero(rng.random(FLAKY) < FLAKY_RATE):
        serial, values = records[row]
        records[row] = (serial, values[:-1])
    picks = rng.choice(np.arange(FLAKY, stream.n_drives), DUPLICATES,
                       replace=False)
    records.extend(records[row] for row in picks)
    return records


# -- Backblaze-schema dump -----------------------------------------------------

#: The fixture's header: smart_189_normalized (a mapped column) is
#: missing and smart_4_raw is an unmapped extra readers must ignore.
COLUMNS = [
    "date", "serial_number", "model", "capacity_bytes", "failure",
    "smart_1_normalized", "smart_3_normalized", "smart_5_normalized",
    "smart_7_normalized", "smart_9_normalized", "smart_187_normalized",
    "smart_194_normalized", "smart_195_normalized", "smart_197_normalized",
    "smart_5_raw", "smart_197_raw",
    "smart_4_raw",
]

MODELS = (
    ("ST4000DM000", 4_000_787_030_016),
    ("ST12000NM0007", 12_000_138_625_024),
    ("HGST HMS5C4040BLE640", 4_000_787_030_016),
)

START = date(2024, 1, 1)


@dataclass(frozen=True)
class DumpSummary:
    """What :func:`write_backblaze_dump` wrote, for checking the ingest."""

    n_files: int
    n_rows: int
    n_malformed: int
    n_drives: int
    n_failed: int


def _cells(rng, n: int, stress: np.ndarray) -> np.ndarray:
    """One day's SMART cells for ``n`` drives (the fixture's channel recipe)."""
    u = rng.random((n, 9))
    return np.stack([
        110 + 10 * u[:, 0] - 40 * stress,  # smart_1  RRER
        92 + 6 * u[:, 1],                  # smart_3  SUT
        98 + 2 * u[:, 2] - 25 * stress,    # smart_5  RSC
        85 + 5 * u[:, 3] - 20 * stress,    # smart_7  SER
        95 + 2 * u[:, 4],                  # smart_9  POH
        100 - np.round(6 * stress),        # smart_187 RUE
        75 + 10 * u[:, 5],                 # smart_194 TC
        99 + u[:, 6] - 30 * stress,        # smart_195 HER
        99 + u[:, 7] - 40 * stress,        # smart_197 CPSC
        np.round(40 * stress),             # smart_5_raw
        np.round(24 * stress),             # smart_197_raw
        1 + np.floor(9 * u[:, 8]),         # smart_4_raw (unmapped)
    ], axis=1)


#: Share of dump drives that fail, share of those that fail without
#: degrading first (the detector's misses), malformed rows per day.
FAIL_SHARE = 0.05
SILENT_SHARE = 0.3
MALFORMED_PER_DAY = 2


def write_backblaze_dump(
    out: Path, seed: int, n_drives: int, n_days: int
) -> DumpSummary:
    """Write ``n_days`` daily CSVs for ``n_drives`` drives into ``out``.

    A failing drive raises its ``failure`` flag on its last day; all but
    ``SILENT_SHARE`` of them degrade over their final five days.  Healthy
    drives get rare one-day spikes (false-alarm bait).  Each day carries
    ``MALFORMED_PER_DAY`` malformed rows (an impossible date, a
    non-numeric cell), alternating.
    """
    rng = np.random.default_rng([int(seed), 3])
    out.mkdir(parents=True, exist_ok=True)
    model = rng.integers(0, len(MODELS), n_drives)
    late = rng.random(n_drives) < 0.1
    first = np.where(late, rng.integers(0, n_days // 2, n_drives), 0)
    last = np.full(n_drives, n_days - 1)
    retire = rng.random(n_drives) < 0.05
    last[retire] = rng.integers(n_days // 2, n_days, retire.sum())
    fails = rng.random(n_drives) < FAIL_SHARE
    last[fails] = rng.integers(n_days // 3, n_days, fails.sum())
    last = np.minimum(np.maximum(last, first + 7), n_days - 1)
    silent = fails & (rng.random(n_drives) < SILENT_SHARE)
    prefix = f"Z{int(seed) % 10000:04d}"
    serials = [f"{prefix}{i:06d}" for i in range(n_drives)]
    n_rows = n_malformed = 0
    for day in range(n_days):
        stamp = (START + timedelta(days=day)).isoformat()
        live = np.flatnonzero((first <= day) & (day <= last))
        ramp = np.clip(5.0 - (last[live] - day), 0.0, 5.0) / 5.0
        stress = np.where(fails[live] & ~silent[live], ramp, 0.0)
        spike = ~fails[live] & (rng.random(len(live)) < 0.003)
        stress = np.where(spike, 0.6, stress)
        cells = _cells(rng, len(live), stress)
        flags = (fails[live] & (last[live] == day)).astype(int)
        lines = [",".join(COLUMNS)]
        for row, drive in enumerate(live):
            name, capacity = MODELS[model[drive]]
            lines.append(
                f"{stamp},{serials[drive]},{name},{capacity},{flags[row]},"
                + ",".join(f"{value:.0f}" for value in cells[row])
            )
        for bad in range(MALFORMED_PER_DAY):
            name, capacity = MODELS[0]
            values = [f"{value:.0f}" for value in _cells(rng, 1, np.zeros(1))[0]]
            if bad % 2 == 0:
                head = f"2024-13-99,{prefix}BAD{day:04d},{name},{capacity},0"
            else:
                values[4] = "not-a-number"  # smart_9_normalized
                head = f"{stamp},{serials[live[0]]},{name},{capacity},0"
            lines.append(head + "," + ",".join(values))
        (out / f"{stamp}.csv").write_text("\n".join(lines) + "\n")
        n_rows += len(live)
        n_malformed += MALFORMED_PER_DAY
    return DumpSummary(
        n_files=n_days,
        n_rows=n_rows,
        n_malformed=n_malformed,
        n_drives=n_drives,
        n_failed=int(fails.sum()),
    )
