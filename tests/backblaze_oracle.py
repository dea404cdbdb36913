"""Row-at-a-time reference for the Backblaze parse and merge.

:class:`repro.smart.backblaze.BackblazeReader` parses a day file a block
at a time, column by column, and :class:`repro.smart.backblaze.DriveTable`
merges rows into drives with one sort.  This module states the same
rules the slow, obvious way — one ``csv.DictReader`` row and one Python
``float`` per cell, one dict per drive — and the tests check the library
against it:

* a row that ends before a required field is malformed, blamed on the
  first such field of ``date, serial_number, model, failure``; then a
  date that ``date.fromisoformat`` rejects; then the first mapped SMART
  cell (in :data:`~repro.smart.backblaze.COLUMN_TO_CHANNEL` order) that
  ``float`` rejects.  Empty cells, and cells missing from a short row's
  tail, load as NaN;
* an error's ``line`` is the csv reader's ``line_num`` after the row;
* the last row of a ``(serial, day)`` wins, a drive keeps the first
  model seen for it, and it failed when any of its rows flagged failure.
"""

from __future__ import annotations

import csv
from datetime import date
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.smart.attributes import N_CHANNELS, channel_index
from repro.smart.backblaze import (
    COLUMN_TO_CHANNEL,
    FAILURE_LABELS,
    HOURS_PER_DAY,
    model_matches,
)
from repro.smart.drive import DriveRecord
from repro.utils.errors import IngestError

REQUIRED_COLUMNS = ("date", "serial_number", "model", "failure")


def parse_row(row: dict, *, source: str, line: int) -> tuple:
    """One ``DictReader`` row as ``(serial, model, day, failed, reading)``."""
    for column in REQUIRED_COLUMNS:
        if row.get(column) is None:
            raise IngestError(
                "row ends before this required field",
                source=source, line=line, column=column,
            )
    try:
        day = date.fromisoformat(row["date"]).toordinal()
    except ValueError as error:
        raise IngestError(
            f"bad date {row['date']!r}: {error}",
            source=source, line=line, column="date",
        ) from None
    reading = np.full(N_CHANNELS, np.nan)
    for column, short in COLUMN_TO_CHANNEL.items():
        cell = row.get(column, "")
        if cell in ("", None):
            continue
        try:
            reading[channel_index(short)] = float(cell)
        except ValueError:
            raise IngestError(
                f"bad SMART value {cell!r}",
                source=source, line=line, column=column,
            ) from None
    return row["serial_number"], row["model"], day, row["failure"] == "1", reading


def read_rows(handle, *, source: str, lenient: bool, errors: list):
    """Parsed rows of one file; skipped rows' errors append to ``errors``."""
    reader = csv.DictReader(handle)
    fields = reader.fieldnames or []
    missing = [c for c in REQUIRED_COLUMNS if c not in fields]
    if missing:
        raise IngestError(
            f"missing required columns {missing}", source=source, line=1
        )
    for row in reader:
        try:
            yield parse_row(row, source=source, line=reader.line_num)
        except IngestError as error:
            if not lenient:
                raise
            errors.append(error)


def build_drive(
    serial: str,
    family: str,
    days: np.ndarray,
    values: np.ndarray,
    *,
    failed: bool,
    epoch: int,
    failure_window_days: Optional[int],
    failure_label: str,
) -> DriveRecord:
    """One drive from its sorted day ordinals and readings."""
    hours = (days - epoch).astype(float) * HOURS_PER_DAY
    failure_hour = None
    if failed:
        failure_hour = float(hours[-1])
        if failure_label == "day-end":
            failure_hour += HOURS_PER_DAY
        if failure_window_days is not None:
            keep = hours > failure_hour - failure_window_days * HOURS_PER_DAY
            hours, values = hours[keep], values[keep]
    return DriveRecord(
        serial=serial, family=family, failed=failed, hours=hours,
        values=values, failure_hour=failure_hour,
    )


def load(
    paths: Sequence[Path],
    *,
    models: Sequence[str] = (),
    family_from_model: bool = True,
    failure_window_days: Optional[int] = None,
    failure_label: str = "day-end",
    lenient: bool = True,
) -> tuple[list[DriveRecord], list[IngestError]]:
    """The drives of ``paths`` (read in order) and the skipped rows."""
    assert failure_label in FAILURE_LABELS
    table: dict[str, dict] = {}
    errors: list[IngestError] = []
    for path in paths:
        with open(path, newline="") as handle:
            for serial, model, day, failed, reading in read_rows(
                handle, source=str(path), lenient=lenient, errors=errors
            ):
                if not model_matches(model, models):
                    continue
                entry = table.setdefault(
                    serial, {"model": model, "days": {}, "failed": False}
                )
                entry["days"][day] = reading
                entry["failed"] |= failed
    if not table:
        return [], errors
    epoch = min(min(entry["days"]) for entry in table.values())
    drives = []
    for serial in sorted(table):
        entry = table[serial]
        days = np.array(sorted(entry["days"]), dtype=np.int64)
        drives.append(
            build_drive(
                serial,
                entry["model"] if family_from_model else "BB",
                days,
                np.vstack([entry["days"][day] for day in days]),
                failed=entry["failed"],
                epoch=epoch,
                failure_window_days=failure_window_days,
                failure_label=failure_label,
            )
        )
    return drives, errors
