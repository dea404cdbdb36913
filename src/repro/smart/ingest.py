"""Chunked, parallel, out-of-core ingest of Backblaze quarterly dumps.

A Backblaze quarterly dump is ~90 daily CSVs totalling millions of
drive-days — far beyond what :func:`~repro.smart.backblaze.read_backblaze_csv`
should hold as text.  This module turns such a dump (a directory of
daily CSVs, a zip archive of one, or a single file) into an on-disk
**columnar store** the rest of the library loads in one ``np.load``
pass, without ever materializing the raw text:

1. **Chunk.**  The day files are partitioned into chunks of
   ``chunk_files`` files each.  Chunks are the unit of parallelism,
   checkpointing and memory: a parse worker holds one chunk's numeric
   aggregate, never the whole dump (the manifest records per-chunk row
   counts, so the bound is testable).
2. **Parse.**  Each chunk's files parse through
   :class:`~repro.smart.backblaze.BackblazeReader` inside a
   :func:`~repro.utils.parallel.run_tasks` worker, in blocks of at most
   a few thousand rows: the C csv reader splits the lines and each
   mapped SMART column converts with one numpy call.  Per-model
   filtering applies to each block, malformed rows are skipped into
   the lenient ledger, and the chunk's rows merge into one
   :class:`~repro.smart.backblaze.DriveTable` that lands as a columnar
   **part file** (``parts/part-*.npz``) plus a JSON summary beside it
   (``parts/part-*.json``, written atomically after the part), so a
   killed ingest resumes at chunk granularity at a constant cost per
   chunk.  A :class:`~repro.utils.checkpoint.JsonCheckpoint` holds only
   the config fingerprint the resume is guarded by.  A worker holds one
   block of text and one chunk of parsed rows, never a whole file's
   text.
3. **Assemble.**  Parts merge in chunk order through the same
   :class:`~repro.smart.backblaze.DriveTable`: one stable sort on
   ``(serial, day)`` re-joins a drive's rows across day files and
   chunk boundaries, later files win duplicate days, and a drive keeps
   the first model seen for it.  Failure-window labeling is applied
   column-wise and the store is written as one ``.npy`` file per
   column — byte deterministic, so serial and parallel ingests of the
   same dump are bit-identical, and so is a resumed one.

The store carries a schema-tagged ``manifest.json``
(:data:`INGEST_MANIFEST_SCHEMA`) recording the source files, the config
fingerprint, per-chunk statistics and the full skip ledger; re-running
the same ingest over a complete store is an idempotent no-op, and
running a *different* config into the same directory is a hard error
instead of a silent mix.

``docs/datasets.md`` walks through the pipeline end to end; the
``repro-smart ingest`` CLI wraps :func:`ingest_backblaze`.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro.observability import ROW_BUCKETS, get_registry, get_tracer
from repro.smart.backblaze import (
    STORE_ARRAYS,
    BackblazeReader,
    DriveTable,
    RowBlock,
    drives_from_columns,
)
from repro.smart.dataset import SmartDataset
from repro.utils.checkpoint import JsonCheckpoint
from repro.utils.errors import IngestError, IngestInterrupted
from repro.utils.parallel import run_tasks

#: Schema tag of the store manifest; bump on incompatible layout changes.
INGEST_MANIFEST_SCHEMA = "repro.ingest-manifest/v1"

#: The ``kind`` tag of the resume checkpoint (the config guard).
INGEST_CHECKPOINT_KIND = "backblaze-ingest"

#: A file reference inside a source: ``(kind, path, member)`` where kind
#: is ``"fs"`` (member empty) or ``"zip"`` (member names the archive
#: entry).  Plain tuples so they are picklable and JSON-able verbatim.
FileRef = tuple


@dataclass(frozen=True)
class IngestConfig:
    """Everything that determines an ingest's output bytes (plus knobs).

    The first group is the *fingerprint*: change any of these and the
    store's bytes change, so they are recorded in the manifest and
    guarded on resume.  ``n_jobs`` and ``stop_after_chunks`` are
    execution knobs — a serial, a parallel and an interrupted-and-resumed
    ingest of the same fingerprint produce bit-identical stores.

    Attributes:
        source: The dump — a directory of daily CSVs, a ``.zip`` of one,
            or a single CSV file.
        out: The store directory to create (holds ``manifest.json``,
            the column ``.npy`` files, and — transiently — ``parts/``
            and the resume checkpoint).
        models: Per-model filter; keep drives whose ``model`` starts
            with any of these prefixes (empty keeps all).
        family_from_model: Use the ``model`` column as drive family.
        failure_window_days: Trim failed drives to the last N days
            before failure (the paper's 20-day bound); ``None`` keeps
            full histories.
        failure_label: Where a failed drive's failure hour lands — see
            :data:`~repro.smart.backblaze.FAILURE_LABELS`.
        lenient: Skip malformed rows into the ledger (default) instead
            of failing the chunk.
        chunk_files: Day files per chunk — the parallelism/checkpoint/
            memory granule.
        n_jobs: Parse workers (:func:`~repro.utils.parallel.resolve_n_jobs`
            semantics; ``None`` defers to ``REPRO_N_JOBS``).
        stop_after_chunks: Test hook — parse this many fresh chunks
            serially, then raise
            :class:`~repro.utils.errors.IngestInterrupted` (checkpoint
            already persisted) to exercise resume paths.
    """

    source: str
    out: str
    models: tuple[str, ...] = ()
    family_from_model: bool = True
    failure_window_days: Optional[int] = None
    failure_label: str = "day-end"
    lenient: bool = True
    chunk_files: int = 8
    n_jobs: Optional[int] = None
    stop_after_chunks: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "source", str(self.source))
        object.__setattr__(self, "out", str(self.out))
        object.__setattr__(self, "models", tuple(self.models))
        if self.chunk_files < 1:
            raise ValueError(f"chunk_files must be >= 1, got {self.chunk_files}")

    def fingerprint(self) -> dict:
        """The JSON document the manifest and checkpoint guard against."""
        return {
            "source": os.path.basename(self.source.rstrip("/")) or self.source,
            "models": list(self.models),
            "family_from_model": self.family_from_model,
            "failure_window_days": self.failure_window_days,
            "failure_label": self.failure_label,
            "lenient": self.lenient,
            "chunk_files": self.chunk_files,
        }


def discover_source_files(source: Union[str, Path]) -> list[FileRef]:
    """Enumerate the day files of a dump, sorted by name.

    Accepts a directory (its ``*.csv``, non-recursive), a ``.zip``
    archive (its ``*.csv`` members, directory entries skipped), or a
    single CSV file.  Sorting by name orders Backblaze's
    ``YYYY-MM-DD.csv`` files chronologically, which is what makes
    "later file wins" equal "later day wins" for duplicate rows.
    """
    source = Path(source)
    if source.is_dir():
        refs = [("fs", str(path), "") for path in sorted(source.glob("*.csv"))]
    elif source.suffix == ".zip":
        if not source.exists():
            raise IngestError("source not found", source=str(source))
        with zipfile.ZipFile(source) as archive:
            refs = [
                ("zip", str(source), name)
                for name in sorted(archive.namelist())
                if name.endswith(".csv") and not name.endswith("/")
            ]
    elif source.exists():
        refs = [("fs", str(source), "")]
    else:
        raise IngestError("source not found", source=str(source))
    if not refs:
        raise IngestError("no CSV files in source", source=str(source))
    return refs


def _ref_label(ref: FileRef) -> str:
    kind, path, member = ref
    return f"{path}!{member}" if kind == "zip" else path


@contextmanager
def _open_ref(ref: FileRef) -> Iterator:
    """Open a file reference as a text handle (streams, never slurps)."""
    kind, path, member = ref
    if kind == "zip":
        with zipfile.ZipFile(path) as archive:
            with archive.open(member) as binary:
                yield io.TextIOWrapper(binary, encoding="utf-8", newline="")
    else:
        with open(path, newline="") as handle:
            yield handle


def _chunk_refs(refs: Sequence[FileRef], chunk_files: int) -> list[list[FileRef]]:
    return [
        list(refs[start:start + chunk_files])
        for start in range(0, len(refs), chunk_files)
    ]


def _part_path(out: Path, chunk: int) -> Path:
    return out / "parts" / f"part-{chunk:05d}.npz"


def _parse_chunk(config: IngestConfig, task: tuple) -> dict:
    """Parse one chunk of day files into a part file (run_tasks worker).

    ``task`` is ``(chunk_index, [file_ref, ...])``.  Parses every file
    through :class:`BackblazeReader`, keeps rows passing the model
    filter, and writes the chunk's merged rows
    (:meth:`DriveTable.columnar`) to ``parts/part-<index>.npz``, then
    its JSON-able summary to ``parts/part-<index>.json`` — including
    the chunk's slice of the lenient ledger, so row-level provenance
    survives into the manifest.  The summary is written last, so a
    chunk with both files on disk is complete.  Returns the summary.
    """
    chunk_index, refs = task
    registry = get_registry()
    tracer = get_tracer()
    table = DriveTable()
    n_filtered = 0
    errors: list[dict] = []
    missing_columns: dict[str, list[str]] = {}
    with tracer.span(
        "ingest.chunk", category="ingest", chunk=chunk_index, n_files=len(refs)
    ):
        for ref in refs:
            label = _ref_label(ref)
            with _open_ref(ref) as handle:
                reader = BackblazeReader(
                    handle, source=label, lenient=config.lenient
                )
                if reader.missing_columns:
                    missing_columns[label] = list(reader.missing_columns)
                n_filtered += table.add_rows(reader, config.models)
                errors.extend(
                    {
                        "source": error.source,
                        "line": error.line,
                        "column": error.column,
                        "message": str(error),
                    }
                    for error in reader.errors
                )
        columns = table.columnar()
        n_rows = len(columns["row_day"])
        part = _part_path(Path(config.out), chunk_index)
        part.parent.mkdir(parents=True, exist_ok=True)
        np.savez(part, **columns)
    registry.histogram(
        "ingest.chunk_rows", ROW_BUCKETS, unit="rows",
        help="rows kept per parsed chunk (the out-of-core memory granule)",
    ).observe(float(n_rows))
    summary = {
        "chunk": chunk_index,
        "files": [list(ref) for ref in refs],
        "n_rows": n_rows,
        "n_filtered_rows": n_filtered,
        "n_skipped_rows": len(errors),
        "n_serials": len(columns["serials"]),
        "errors": errors,
        "missing_columns": missing_columns,
    }
    _write_json(part.with_suffix(".json"), summary)
    return summary


def _assemble(config: IngestConfig, summaries: list[dict]) -> dict:
    """Merge part files into the columnar store; returns the manifest.

    Parts feed one :class:`DriveTable` in chunk order, so a row for the
    same ``(serial, day)`` in a later file overwrites an earlier one and
    a drive keeps the first model seen for it — the rules of feeding
    every file through one table serially, which is what makes the
    chunked and in-memory paths agree bit for bit.
    """
    out = Path(config.out)
    registry = get_registry()
    tracer = get_tracer()
    with tracer.span(
        "ingest.assemble", category="ingest", n_chunks=len(summaries)
    ):
        table = DriveTable()
        for summary in summaries:
            with np.load(_part_path(out, summary["chunk"])) as part:
                owner = part["row_serial"]
                table.add(RowBlock(
                    serial=part["serials"][owner],
                    model=part["models"][owner],
                    day=part["row_day"],
                    failed=part["failed"][owner],
                    reading=part["row_values"],
                ))
        epoch = table.epoch_ordinal()
        arrays = table.store_columns(
            family_from_model=config.family_from_model,
            failure_window_days=config.failure_window_days,
            failure_label=config.failure_label,
        )
        for name in STORE_ARRAYS:
            np.save(out / f"{name}.npy", arrays[name])
        n_drives = len(arrays["serials"])
        registry.counter(
            "ingest.drives", help="drives assembled into the store"
        ).inc(n_drives)

    missing_columns: dict[str, list[str]] = {}
    for summary in summaries:
        missing_columns.update(summary["missing_columns"])
    return {
        "schema": INGEST_MANIFEST_SCHEMA,
        "config": config.fingerprint(),
        "n_chunks": len(summaries),
        "chunks": [
            {key: value for key, value in summary.items() if key != "errors"}
            for summary in summaries
        ],
        "errors": [error for s in summaries for error in s["errors"]],
        "missing_columns": missing_columns,
        "totals": {
            "n_files": sum(len(s["files"]) for s in summaries),
            "n_rows": sum(s["n_rows"] for s in summaries),
            "n_filtered_rows": sum(s["n_filtered_rows"] for s in summaries),
            "n_skipped_rows": sum(s["n_skipped_rows"] for s in summaries),
            "n_drives": n_drives,
            "n_failed": int(arrays["failed"].sum()),
            "n_samples": int(arrays["offsets"][-1]),
            "epoch_day": (
                date.fromordinal(epoch).isoformat() if epoch is not None
                else None
            ),
        },
    }


def _write_json(path: Path, document: dict) -> None:
    """Atomic JSON write: the file exists complete or not at all."""
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=path.stem + ".", suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def read_manifest(store: Union[str, Path]) -> dict:
    """The store's manifest, schema-checked."""
    path = Path(store) / "manifest.json"
    with path.open() as handle:
        manifest = json.load(handle)
    if manifest.get("schema") != INGEST_MANIFEST_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {INGEST_MANIFEST_SCHEMA!r}, "
            f"got {manifest.get('schema')!r}"
        )
    return manifest


def ingest_backblaze(config: IngestConfig) -> dict:
    """Run (or resume, or no-op) one chunked ingest; returns the manifest.

    Idempotence and resume:

    * ``out/manifest.json`` present with the same fingerprint — the
      ingest already completed; returns the manifest without touching a
      file (a test can assert zero parse calls).
    * ``out`` holds a *different* fingerprint (manifest or mid-ingest
      checkpoint) — raises ``ValueError`` instead of mixing datasets.
    * A mid-ingest checkpoint — chunks already parsed (part file and
      its summary on disk) are reloaded, only the missing ones are
      parsed; the final store is bit-identical to an uninterrupted run.
      Without a checkpoint, leftover part files are deleted, never
      reused.

    Parallelism: chunks fan out through
    :func:`~repro.utils.parallel.run_tasks` (``config.n_jobs``); all
    merge decisions are keyed by chunk order, never completion order,
    so serial and parallel ingests agree bit for bit.
    """
    out = Path(config.out)
    registry = get_registry()
    tracer = get_tracer()
    manifest_path = out / "manifest.json"
    if manifest_path.exists():
        manifest = read_manifest(out)
        if manifest["config"] != config.fingerprint():
            raise ValueError(
                f"{out} already holds a completed ingest with a different "
                f"config ({manifest['config']}); use a fresh out directory "
                "or delete the store to re-ingest"
            )
        return manifest

    refs = discover_source_files(config.source)
    chunks = _chunk_refs(refs, config.chunk_files)
    out.mkdir(parents=True, exist_ok=True)
    checkpoint = JsonCheckpoint(
        out / "ingest-checkpoint.json", kind=INGEST_CHECKPOINT_KIND
    )
    guard = checkpoint.get("__config__")
    if guard is None:
        # Part files without a guard may come from another config (its
        # checkpoint deleted): never reuse them.
        shutil.rmtree(out / "parts", ignore_errors=True)
        checkpoint.set("__config__", config.fingerprint())
    elif guard != config.fingerprint():
        raise ValueError(
            f"{checkpoint.path} belongs to an ingest with a different "
            f"config ({guard}); use a fresh out directory or delete it"
        )

    with tracer.span(
        "ingest.run", category="ingest",
        n_files=len(refs), n_chunks=len(chunks),
    ):
        summaries: list[Optional[dict]] = [None] * len(chunks)
        pending: list[tuple] = []
        n_cached = 0
        for index, chunk in enumerate(chunks):
            part = _part_path(out, index)
            summary_path = part.with_suffix(".json")
            if summary_path.exists() and part.exists():
                with summary_path.open() as handle:
                    summaries[index] = json.load(handle)
                n_cached += 1
            else:
                pending.append((index, chunk))
        registry.counter(
            "ingest.checkpoint_hits",
            help="chunks reloaded from a mid-ingest checkpoint",
        ).inc(n_cached)

        def record(_: int, summary: dict) -> None:
            summaries[summary["chunk"]] = summary

        if config.stop_after_chunks is not None:
            # Test hook: deterministic interruption point, serial on
            # purpose so exactly the first k pending chunks are parsed.
            for done, task in enumerate(pending):
                if done >= config.stop_after_chunks:
                    raise IngestInterrupted(
                        f"stopped after {done} fresh chunk(s) of "
                        f"{len(pending)} pending ({n_cached} cached)",
                        chunks_done=done,
                    )
                record(0, _parse_chunk(config, task))
        else:
            run_tasks(
                _parse_chunk, pending,
                n_jobs=config.n_jobs, context=config, on_result=record,
            )
        registry.counter(
            "ingest.chunks", help="chunks parsed fresh this run"
        ).inc(len(pending))
        registry.counter(
            "ingest.files", help="day files parsed fresh this run"
        ).inc(sum(len(chunk) for _, chunk in pending))
        registry.counter(
            "ingest.rows", help="rows kept across all chunks of the ingest"
        ).inc(sum(s["n_rows"] for s in summaries))
        registry.counter(
            "ingest.filtered_rows",
            help="rows dropped by the per-model filter",
        ).inc(sum(s["n_filtered_rows"] for s in summaries))
        registry.counter(
            "ingest.skipped_rows",
            help="malformed rows skipped into the lenient ledger",
        ).inc(sum(s["n_skipped_rows"] for s in summaries))

        manifest = _assemble(config, summaries)
        # The store is complete iff its manifest exists.
        _write_json(out / "manifest.json", manifest)
        shutil.rmtree(out / "parts", ignore_errors=True)
        try:
            os.unlink(checkpoint.path)
        except OSError:
            pass
    return manifest


def load_store(store: Union[str, Path]) -> SmartDataset:
    """Load an ingested columnar store back into a :class:`SmartDataset`.

    The inverse of :func:`ingest_backblaze`'s assembly step: one
    ``np.load`` per column file, then per-drive views sliced by the
    offsets table.  Raises ``ValueError`` when the manifest is missing
    (an interrupted ingest leaves no manifest — finish it first) or
    carries the wrong schema.
    """
    store = Path(store)
    if not (store / "manifest.json").exists():
        raise ValueError(
            f"{store} has no manifest.json — not a completed ingest store "
            "(resume the ingest to completion first)"
        )
    read_manifest(store)  # schema check
    arrays = {name: np.load(store / f"{name}.npy") for name in STORE_ARRAYS}
    return SmartDataset(drives_from_columns(arrays))


def load_backblaze(
    source: Union[str, Path],
    *,
    models: Sequence[str] = (),
    family_from_model: bool = True,
    failure_window_days: Optional[int] = None,
    failure_label: str = "day-end",
    lenient: bool = True,
) -> SmartDataset:
    """One-shot in-memory load of a dump (no store directory).

    Same block parse, model filter, merge and labeling as the chunked
    ingest — :func:`load_store` after :func:`ingest_backblaze`
    returns a bit-identical dataset — but aggregates in memory, for
    sources small enough not to need resumability.  Accepts everything
    :func:`discover_source_files` accepts.
    """
    table = DriveTable()
    for ref in discover_source_files(source):
        with _open_ref(ref) as handle:
            table.add_rows(
                BackblazeReader(handle, source=_ref_label(ref), lenient=lenient),
                models,
            )
    return SmartDataset(
        table.build(
            family_from_model=family_from_model,
            failure_window_days=failure_window_days,
            failure_label=failure_label,
        )
    )


# Re-exported for CLI convenience.
__all__ = [
    "INGEST_MANIFEST_SCHEMA",
    "INGEST_CHECKPOINT_KIND",
    "IngestConfig",
    "discover_source_files",
    "ingest_backblaze",
    "load_backblaze",
    "load_store",
    "read_manifest",
]
