"""Adapter for Backblaze-style SMART snapshot CSVs.

The paper's dataset is proprietary, but the de-facto public benchmark
for drive-failure prediction is the Backblaze drive-stats corpus: one
CSV per day, one row per drive, with columns

    date, serial_number, model, capacity_bytes, failure,
    smart_<id>_normalized, smart_<id>_raw, ...

This module maps that schema onto the library's channel layout so real
Backblaze data (or anything exported in its shape) can flow through the
exact pipelines built for the synthetic fleet.  The SMART-id mapping
follows the standard attribute numbering:

    1   Raw Read Error Rate            RRER
    3   Spin Up Time                   SUT
    5   Reallocated Sectors Count      RSC (+ raw -> RSC_RAW)
    7   Seek Error Rate                SER
    9   Power On Hours                 POH
    187 Reported Uncorrectable Errors  RUE
    189 High Fly Writes                HFW
    194 Temperature Celsius            TC
    195 Hardware ECC Recovered         HER
    197 Current Pending Sector Count   CPSC (+ raw -> CPSC_RAW)

Backblaze samples daily rather than hourly; timestamps become hour
offsets from the earliest date (24h apart), and every downstream
component (change rates, voting windows) is cadence-agnostic as long as
intervals are expressed in hours.

Two consumers share the parse and merge core here
(:class:`BackblazeReader` parses a file in bounded blocks of rows,
column by column; :class:`DriveTable` merges blocks into drives with
one sort): :func:`read_backblaze_csv` for in-memory loads of one or a
few files, and :mod:`repro.smart.ingest` for chunked, parallel,
out-of-core ingest of whole quarterly dumps.  ``docs/datasets.md`` is
the guide.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from repro.smart.attributes import N_CHANNELS, BY_SHORT, channel_index
from repro.smart.drive import DriveRecord
from repro.utils.errors import IngestError

HOURS_PER_DAY = 24.0

#: Backblaze column name -> our channel abbreviation.
COLUMN_TO_CHANNEL: dict[str, str] = {
    "smart_1_normalized": "RRER",
    "smart_3_normalized": "SUT",
    "smart_5_normalized": "RSC",
    "smart_7_normalized": "SER",
    "smart_9_normalized": "POH",
    "smart_187_normalized": "RUE",
    "smart_189_normalized": "HFW",
    "smart_194_normalized": "TC",
    "smart_195_normalized": "HER",
    "smart_197_normalized": "CPSC",
    "smart_5_raw": "RSC_RAW",
    "smart_197_raw": "CPSC_RAW",
}

_REQUIRED_COLUMNS = ("date", "serial_number", "model", "failure")

#: How a failed drive's failure hour is placed relative to its last
#: reported day.  ``day-end``: the drive died sometime during its last
#: reported day, so the failure lands at the end of that day (the
#: historical default — lead times are >= one day).  ``last-sample``:
#: the failure lands on the last sample itself (lead time zero), which
#: is what sub-day failed-window protocols (the paper's 12h window)
#: need on daily-cadence data.
FAILURE_LABELS = ("day-end", "last-sample")


#: The store's column files, in the order the ingest writes and hashes
#: them (one ``np.save`` each: ``np.savez`` would embed zip timestamps
#: and break byte determinism).
STORE_ARRAYS = (
    "serials", "families", "failed", "failure_hour", "offsets",
    "hours", "values",
)

#: Rows in the reader's first block, the factor each next block grows
#: by, and the cap on a block.  A caller that takes only the first rows
#: reads only the first lines; memory is bounded by one capped block of
#: csv text, never by the file.
_FIRST_BLOCK_ROWS = 1
_BLOCK_GROWTH = 32
_MAX_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class RowBlock:
    """Consecutive parsed daily-snapshot rows, one array per field.

    ``day`` holds calendar days as ordinals (``date.toordinal``) so rows
    aggregate with integer arithmetic; ``failed`` is True where the
    row's ``failure`` column flagged the drive's death on that day;
    ``reading`` is ``(n_rows, N_CHANNELS)``, NaN where a mapped cell is
    empty or absent.
    """

    serial: np.ndarray
    model: np.ndarray
    day: np.ndarray
    failed: np.ndarray
    reading: np.ndarray

    def __len__(self) -> int:
        return int(self.day.shape[0])

    def take(self, rows: np.ndarray) -> "RowBlock":
        """The block restricted to ``rows`` (a mask or an index array)."""
        return RowBlock(
            self.serial[rows], self.model[rows], self.day[rows],
            self.failed[rows], self.reading[rows],
        )

    def matching(self, models: Sequence[str]) -> "RowBlock":
        """The rows whose model passes :func:`model_matches`."""
        if not models or not len(self):
            return self
        names, inverse = np.unique(self.model, return_inverse=True)
        keep = np.array([model_matches(str(name), models) for name in names])
        return self.take(keep[inverse])


_EMPTY_BLOCK = RowBlock(
    np.empty(0, dtype=np.str_), np.empty(0, dtype=np.str_),
    np.empty(0, dtype=np.int64), np.empty(0, dtype=bool),
    np.empty((0, N_CHANNELS)),
)


class BackblazeReader:
    """Block parser over one Backblaze daily-snapshot CSV.

    Wraps an open text handle (a plain file, or a zip member) and yields
    :class:`RowBlock` s of consecutive rows.  The C ``csv.reader`` splits
    the lines; each mapped SMART column of a block converts with one
    numpy call, and only a column whose conversion raised is re-read
    cell by cell to find its bad rows.  Date strings parse once per
    reader.  The first block is one row and blocks grow to
    ``_MAX_BLOCK_ROWS``, so memory is bounded by one block, not by the
    file.  Provenance surfaces in two ledgers:

    * ``errors`` — one :class:`~repro.utils.errors.IngestError` per
      malformed row skipped (``lenient=True``) with file/line/column,
      in file order; with ``lenient=False`` the first malformed row
      raises instead.  ``line`` is the csv reader's physical line count
      at the end of the row, so blank lines and quoted fields spanning
      lines are counted.  A row is malformed when it ends before a
      required field (blamed on the first such field of
      ``date, serial_number, model, failure``), else when its date does
      not parse, else at its first mapped SMART cell that ``float``
      rejects;
    * ``missing_columns`` — mapped SMART columns absent from this file's
      header entirely; every row of those channels loads as NaN, which
      downstream consumers should know is a schema gap, not noise.

    Blank lines are skipped, empty cells and cells missing from a short
    row's tail load as NaN, and cells past the header's width are
    ignored.  Missing required *columns* always raise — that is a wrong
    file, not a dirty row.  ``tests/backblaze_oracle.py`` holds the
    row-at-a-time parse this reader is tested against.
    """

    def __init__(self, handle: TextIO, *, source: str, lenient: bool = False):
        self._reader = csv.reader(handle)
        self.source = str(source)
        self.lenient = bool(lenient)
        self.errors: list[IngestError] = []
        header = next(self._reader, [])
        # A repeated column name reads its last occurrence.
        position = {name: index for index, name in enumerate(header)}
        missing = [c for c in _REQUIRED_COLUMNS if c not in position]
        if missing:
            raise IngestError(
                f"missing required columns {missing}",
                source=self.source, line=1,
            )
        self.missing_columns: tuple[str, ...] = tuple(
            column for column in COLUMN_TO_CHANNEL if column not in position
        )
        self._width = len(header)
        self._required = [position[c] for c in _REQUIRED_COLUMNS]
        self._mapped = [
            (column, channel_index(short))
            for column, short in COLUMN_TO_CHANNEL.items()
            if column in position
        ]
        self._pick = itemgetter(
            *self._required, *(position[column] for column, _ in self._mapped)
        )
        self._ordinals: dict[str, int] = {}
        self._bad_dates: dict[str, str] = {}

    def __iter__(self) -> Iterator[RowBlock]:
        size = _FIRST_BLOCK_ROWS
        while True:
            rows, lines = [], []
            for row in islice(self._reader, size):
                rows.append(row)
                lines.append(self._reader.line_num)
            if not rows:
                return
            block = self._parse(rows, lines)
            if len(block):
                yield block
            size = min(size * _BLOCK_GROWTH, _MAX_BLOCK_ROWS)

    def _error(self, message: str, line: int, column: str) -> IngestError:
        return IngestError(message, source=self.source, line=line, column=column)

    def _parse(self, rows: list, lines: list) -> RowBlock:
        if not all(rows):  # blank lines parse as []
            lines = [line for line, row in zip(lines, rows) if row]
            rows = [row for row in rows if row]
            if not rows:
                return _EMPTY_BLOCK
        errors: dict[int, IngestError] = {}  # row -> its first fault
        width = self._width
        if min(map(len, rows)) < width:
            for i, row in enumerate(rows):
                if len(row) < width:
                    for column, at in zip(_REQUIRED_COLUMNS, self._required):
                        if at >= len(row):
                            errors[i] = self._error(
                                "row ends before this required field",
                                lines[i], column,
                            )
                            break
                    rows[i] = row + [""] * (width - len(row))
        fields = list(zip(*map(self._pick, rows)))
        dates, serials, models, failures = fields[:4]
        n = len(rows)

        for text in set(dates).difference(self._ordinals):
            try:
                self._ordinals[text] = date.fromisoformat(text).toordinal()
            except ValueError as error:
                self._ordinals[text] = 0
                self._bad_dates[text] = f"bad date {text!r}: {error}"
        if not self._bad_dates.keys().isdisjoint(dates):
            for i, text in enumerate(dates):
                if text in self._bad_dates:
                    errors.setdefault(
                        i, self._error(self._bad_dates[text], lines[i], "date")
                    )

        reading = np.full((n, N_CHANNELS), np.nan)
        for (column, channel), cells in zip(self._mapped, fields[4:]):
            if "" in cells:
                cells = [cell or "nan" for cell in cells]
            try:
                reading[:, channel] = np.array(cells, dtype=np.float64)
                continue
            except ValueError:
                pass
            for i, cell in enumerate(cells):
                try:
                    reading[i, channel] = float(cell)
                except ValueError:
                    errors.setdefault(
                        i, self._error(f"bad SMART value {cell!r}", lines[i], column)
                    )

        block = RowBlock(
            serial=np.array(serials, dtype=np.str_),
            model=np.array(models, dtype=np.str_),
            day=np.fromiter(map(self._ordinals.__getitem__, dates), np.int64, n),
            failed=np.fromiter(map("1".__eq__, failures), bool, n),
            reading=reading,
        )
        if not errors:
            return block
        faulty = sorted(errors)
        if not self.lenient:
            raise errors[faulty[0]]
        self.errors.extend(errors[i] for i in faulty)
        keep = np.ones(n, dtype=bool)
        keep[faulty] = False
        return block.take(keep)


def model_matches(model: str, models: Sequence[str]) -> bool:
    """Per-model filter predicate: empty filter keeps everything.

    A drive matches when its ``model`` string starts with any of the
    requested prefixes, so ``("ST4000",)`` keeps every ST4000 variant.
    """
    if not models:
        return True
    return any(model.startswith(prefix) for prefix in models)


def _tight(strings: np.ndarray) -> np.ndarray:
    """A string array re-sized to its longest element."""
    return np.array(strings.tolist(), dtype=np.str_)


class DriveTable:
    """Parsed rows of many files, merged into drives.

    The one aggregation behind :func:`read_backblaze_csv`, the chunked
    ingest's parse workers and its assembly: feed it :class:`RowBlock` s
    in file order, then export the merged rows (:meth:`columnar`, the
    layout a chunk part stores), the store's columns
    (:meth:`store_columns`) or drive records (:meth:`build`).

    Merge rules, one set for every path: the last row added for a
    ``(serial, day)`` wins; a drive's model is the first one added for
    its serial; a drive failed when any of its rows flagged failure.
    """

    def __init__(self):
        self._blocks: list[RowBlock] = []

    def add(self, block: RowBlock) -> None:
        if len(block):
            self._blocks.append(block)

    def add_rows(self, reader: BackblazeReader, models: Sequence[str] = ()) -> int:
        """Add every row of ``reader`` passing the model filter.

        Returns how many rows the filter dropped.
        """
        n_filtered = 0
        for block in reader:
            kept = block.matching(models)
            n_filtered += len(block) - len(kept)
            self.add(kept)
        return n_filtered

    def epoch_ordinal(self) -> Optional[int]:
        """The earliest day added, or ``None`` when nothing was."""
        if not self._blocks:
            return None
        return int(min(block.day.min() for block in self._blocks))

    def columnar(self) -> dict[str, np.ndarray]:
        """Serial-sorted merged rows (the chunk-part layout).

        Keys: ``serials`` / ``models`` / ``failed`` (one element per
        drive) plus ``row_serial`` (index into ``serials``), ``row_day``
        (ordinals, increasing within each drive) and ``row_values`` —
        one row per ``(serial, day)``.
        """
        blocks = self._blocks or [_EMPTY_BLOCK]
        serial = np.concatenate([block.serial for block in blocks])
        day = np.concatenate([block.day for block in blocks])
        serials, first, owner = np.unique(
            serial, return_index=True, return_inverse=True
        )
        failed = np.zeros(len(serials), dtype=bool)
        failed[owner[np.concatenate([block.failed for block in blocks])]] = True
        # The sort is stable, so the rows of one (serial, day) stay in
        # the order they were added and the last of each run wins.
        order = np.lexsort((day, owner))
        owner, day = owner[order], day[order]
        last = np.ones(len(order), dtype=bool)
        last[:-1] = (owner[1:] != owner[:-1]) | (day[1:] != day[:-1])
        return {
            "serials": serials,
            "models": np.concatenate([block.model for block in blocks])[first],
            "failed": failed,
            "row_serial": owner[last],
            "row_day": day[last],
            "row_values": np.concatenate(
                [block.reading for block in blocks]
            )[order[last]],
        }

    def store_columns(
        self,
        *,
        family_from_model: bool = True,
        failure_window_days: Optional[int] = None,
        failure_label: str = "day-end",
    ) -> dict[str, np.ndarray]:
        """The merged drives as the store's columns (:data:`STORE_ARRAYS`).

        Hours count from the earliest day added (24 per day).  Failed
        drives get their ``failure_hour`` per ``failure_label`` (see
        :data:`FAILURE_LABELS`), and — when ``failure_window_days`` is
        set — their history trimmed to the last that-many days before
        failure, the paper's bounded failed-history protocol (its drives
        carry at most 20 days of pre-failure samples).
        """
        if failure_label not in FAILURE_LABELS:
            raise ValueError(
                f"failure_label must be one of {FAILURE_LABELS}, "
                f"got {failure_label!r}"
            )
        merged = self.columnar()
        n_drives = len(merged["serials"])
        owner, values = merged["row_serial"], merged["row_values"]
        failed = merged["failed"]
        epoch = self.epoch_ordinal() or 0
        hours = (merged["row_day"] - epoch).astype(float) * HOURS_PER_DAY
        last = np.cumsum(np.bincount(owner, minlength=n_drives)) - 1
        failure_hour = np.full(n_drives, np.nan)
        failure_hour[failed] = hours[last[failed]]
        if failure_label == "day-end":
            # The drive died sometime during its last reported day.
            failure_hour[failed] += HOURS_PER_DAY
        if failure_window_days is not None:
            cutoff = failure_hour[owner] - failure_window_days * HOURS_PER_DAY
            keep = ~failed[owner] | (hours > cutoff)
            owner, hours, values = owner[keep], hours[keep], values[keep]
        offsets = np.zeros(n_drives + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=n_drives), out=offsets[1:])
        return {
            "serials": _tight(merged["serials"]),
            "families": (
                _tight(merged["models"]) if family_from_model
                else np.array(["BB"] * n_drives, dtype=np.str_)
            ),
            "failed": failed,
            "failure_hour": failure_hour,
            "offsets": offsets,
            "hours": hours,
            "values": values if n_drives else np.empty((0, 0)),
        }

    def build(self, **options) -> list[DriveRecord]:
        """The merged drives as records, sorted by serial.

        Takes :meth:`store_columns`' keyword options.
        """
        return drives_from_columns(self.store_columns(**options))


def drives_from_columns(columns: dict[str, np.ndarray]) -> list[DriveRecord]:
    """Drive records over store columns (views sliced by ``offsets``)."""
    offsets = columns["offsets"].tolist()
    return [
        DriveRecord(
            serial=str(serial),
            family=str(family),
            failed=bool(failed),
            hours=columns["hours"][start:stop],
            values=columns["values"][start:stop],
            failure_hour=float(failure_hour) if failed else None,
        )
        for serial, family, failed, failure_hour, start, stop in zip(
            columns["serials"], columns["families"], columns["failed"],
            columns["failure_hour"], offsets[:-1], offsets[1:],
        )
    ]


class DriveLoadResult(list):
    """The drives loaded by a lenient ingest, plus what was skipped.

    Behaves exactly like ``list[DriveRecord]`` (all call sites keep
    working), with the skip ledger attached:

    Attributes:
        errors: One :class:`~repro.utils.errors.IngestError` per skipped
            row, each carrying ``source``/``line``/``column``.
        missing_columns: ``{source: (column, ...)}`` — mapped SMART
            columns absent from a file's header entirely (those channels
            load as NaN for every row of that file).  Only files with at
            least one absent mapped column appear.
    """

    def __init__(
        self,
        drives: Iterable[DriveRecord],
        errors: Sequence[IngestError],
        missing_columns: Optional[dict[str, tuple[str, ...]]] = None,
    ):
        super().__init__(drives)
        self.errors = tuple(errors)
        self.missing_columns = dict(missing_columns or {})

    @property
    def n_skipped_rows(self) -> int:
        """How many malformed rows were skipped during the load."""
        return len(self.errors)


def read_backblaze_csv(
    paths: Union[str, Path, Sequence[Union[str, Path]]],
    *,
    family_from_model: bool = True,
    lenient: bool = False,
    models: Sequence[str] = (),
    failure_window_days: Optional[int] = None,
    failure_label: str = "day-end",
) -> list[DriveRecord]:
    """Load one or more Backblaze daily-snapshot CSVs into drive records.

    Args:
        paths: A single CSV path or a sequence of them (typically one
            per day); rows are merged per serial across all files.
            Rows parse through :class:`BackblazeReader` a block at a
            time; the parsed rows are held, never a file's text.
            For directories, zips and out-of-core scale, use
            :func:`repro.smart.ingest.ingest_backblaze`.
        family_from_model: Use the ``model`` column as the drive family
            (the paper separates models per family); if False, every
            drive gets family ``"BB"``.
        lenient: Skip malformed rows (short rows, bad dates,
            unparseable SMART cells) instead of raising, and return a
            :class:`DriveLoadResult` whose ``errors`` attribute records
            every skipped row's location and whose ``missing_columns``
            ledger names mapped SMART columns a file does not expose at
            all.  Missing required *columns* still raise — that is a
            wrong file, not a dirty row.
        models: Optional per-model filter — keep only drives whose
            ``model`` starts with one of these prefixes (the hour epoch
            is computed after filtering, mirroring the paper's per-model
            datasets).
        failure_window_days: When set, trim each failed drive's history
            to the last that-many days before failure (the paper's
            20-day failed-history bound).
        failure_label: Where a failed drive's ``failure_hour`` lands —
            see :data:`FAILURE_LABELS`.

    A malformed cell raises :class:`~repro.utils.errors.IngestError`
    carrying the file, 1-based line number and offending column (it is
    a ``ValueError`` subclass, so existing handlers keep working).

    SMART columns outside the mapping are ignored, and mapped columns
    that are absent or empty load as NaN.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    table = DriveTable()
    skipped: list[IngestError] = []
    missing_columns: dict[str, tuple[str, ...]] = {}
    for path in paths:
        path = Path(path)
        with path.open(newline="") as handle:
            reader = BackblazeReader(handle, source=str(path), lenient=lenient)
            if reader.missing_columns:
                missing_columns[str(path)] = reader.missing_columns
            table.add_rows(reader, models)
            skipped.extend(reader.errors)

    drives = table.build(
        family_from_model=family_from_model,
        failure_window_days=failure_window_days,
        failure_label=failure_label,
    )
    if lenient:
        return DriveLoadResult(drives, skipped, missing_columns)
    return drives


def write_backblaze_csv(
    path: Union[str, Path],
    drives: Iterable[DriveRecord],
    *,
    start: date = date(2024, 1, 1),
) -> int:
    """Export drives to the Backblaze daily-snapshot schema (one file).

    Sample hours are binned to days relative to each drive's first
    sample (sub-daily samples collapse to the day's last reading, since
    the Backblaze corpus is daily).  Returns the number of rows written.
    Useful for round-trip testing and for feeding our synthetic fleets
    to external Backblaze-oriented tooling.
    """
    path = Path(path)
    header = list(_REQUIRED_COLUMNS[:3]) + ["capacity_bytes", "failure"] + list(
        COLUMN_TO_CHANNEL
    )
    rows_written = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for drive in drives:
            if drive.n_samples == 0:
                continue
            day_of = ((drive.hours - drive.hours[0]) // HOURS_PER_DAY).astype(int)
            last_day = int(day_of[-1])
            for day in sorted(set(day_of.tolist())):
                index = int(np.nonzero(day_of == day)[0][-1])
                reading = drive.values[index]
                failure_flag = int(drive.failed and day == last_day)
                cells = [
                    (start.fromordinal(start.toordinal() + day)).isoformat(),
                    drive.serial,
                    drive.family,
                    "",
                    failure_flag,
                ]
                for short in COLUMN_TO_CHANNEL.values():
                    value = reading[channel_index(short)]
                    cells.append("" if np.isnan(value) else repr(float(value)))
                writer.writerow(cells)
                rows_written += 1
    return rows_written


def render_backblaze_mapping_table() -> str:
    """The docs/paper_mapping.md attribute-mapping table, from the code.

    One row per paper channel: which Backblaze column feeds it (or that
    no public column does), regenerated from :data:`COLUMN_TO_CHANNEL`
    so the documentation cannot drift from the adapter.
    """
    by_short = {short: column for column, short in COLUMN_TO_CHANNEL.items()}
    lines = [
        "| Paper channel | Attribute | Backblaze column | Notes |",
        "|---|---|---|---|",
    ]
    notes = {
        "RUE": "SMART 187; absent on some models — ledgered as a missing column",
        "HFW": "SMART 189; absent on some models — ledgered as a missing column",
        "HER": "SMART 195; vendor-specific, sparse on modern fleets",
        "RSC_RAW": "raw counter (higher is worse)",
        "CPSC_RAW": "raw counter (higher is worse)",
    }
    for spec in sorted(BY_SHORT.values(), key=lambda s: s.index):
        column = by_short.get(spec.short, "—")
        note = notes.get(spec.short, "")
        lines.append(
            f"| `{spec.short}` | {spec.name} | `{column}` | {note} |"
        )
    return "\n".join(lines)
