"""Structured error taxonomy for dirty telemetry and degraded infrastructure.

Datacenter-scale prediction lives or dies on tolerating dirty input: a
bad cell in a 100-million-row ingest, a stuck sensor in a streaming
feed, a worker process OOM-killed mid-retrain.  This module gives every
layer that survives such faults a *named* vocabulary for them, so
callers can count, filter and alert on fault categories instead of
pattern-matching exception strings:

* :class:`IngestError` — a parse failure with its exact location
  (file, row, column) attached, raised by the CSV adapters;
* :class:`FaultKind` / :class:`SampleFault` — the streaming validation
  taxonomy: what was wrong with one observed sample, recorded by the
  :class:`~repro.detection.streaming.FleetMonitor` quarantine gate;
* the :class:`SerialFallbackWarning` family — emitted (never silently
  swallowed) when the parallel fan-out degrades to serial execution,
  with the cause carried in the warning *category* so test suites and
  operators can filter on it.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional


class ReproError(Exception):
    """Base class for the library's structured errors."""


class IngestError(ReproError, ValueError):
    """A parse failure during bulk data ingest, with its location.

    Attributes:
        message: What was wrong, without the location.
        source: The file (or stream label) being parsed.
        line: 1-based line number of the offending row (header = 1).
        column: The offending column name, when one can be blamed.
    """

    def __init__(
        self,
        message: str,
        *,
        source: str = "<unknown>",
        line: Optional[int] = None,
        column: Optional[str] = None,
    ):
        location = str(source)
        if line is not None:
            location += f":{line}"
        if column is not None:
            location += f": column {column!r}"
        super().__init__(f"{location}: {message}")
        self.message = message
        self.source = str(source)
        self.line = line
        self.column = column

    def __reduce__(self):
        # Rebuild from the parts, so an error raised in a pool worker
        # reads the same as the serial one.
        rebuild = functools.partial(
            type(self), source=self.source, line=self.line, column=self.column
        )
        return rebuild, (self.message,)


class IngestInterrupted(ReproError, RuntimeError):
    """A chunked ingest stopped early by request (``stop_after_chunks``).

    The test hook behind resume-after-kill coverage: the ingest driver
    raises this after parsing the requested number of fresh chunks, with
    the per-chunk checkpoint already persisted, so a subsequent call
    resumes from exactly this point.  ``chunks_done`` counts the fresh
    chunks parsed before stopping.
    """

    def __init__(self, message: str, *, chunks_done: int = 0):
        super().__init__(message)
        self.chunks_done = chunks_done


class FaultKind(enum.Enum):
    """What was malformed about one streamed SMART sample."""

    #: Channel vector had the wrong shape.
    WRONG_SHAPE = "wrong-shape"
    #: Sample timestamp is not a finite number.
    NON_FINITE_TIME = "non-finite-time"
    #: Sample arrived with an hour earlier than one already ingested.
    OUT_OF_ORDER = "out-of-order"
    #: Sample repeated an hour already ingested for the drive.
    DUPLICATE_TIME = "duplicate-time"
    #: Serial appeared more than once within one collection tick; the
    #: last occurrence wins, every earlier one is faulted.
    DUPLICATE_SERIAL = "duplicate-serial"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class SampleFault:
    """One malformed sample a validation gate excluded.

    ``hour`` is the claimed timestamp (NaN when unparseable); ``detail``
    is a human-readable elaboration for logs.
    """

    serial: str
    hour: float
    kind: FaultKind
    detail: str = ""


class WorkerDiedError(ReproError, RuntimeError):
    """A long-lived shard host died (killed, crashed or OOM-reaped).

    Raised by :class:`~repro.utils.parallel.WorkerHost` (and by a killed
    :class:`~repro.utils.parallel.LocalHost`) instead of the
    raw ``BrokenProcessPool``/``EOFError``/``BrokenPipeError`` zoo, so a
    supervisor can catch *one* typed error and decide between respawn,
    replay and quarantine.  ``exit_code`` carries the dead worker's exit
    status when the host could observe it (``-9`` for SIGKILL), else
    ``None``.
    """

    def __init__(self, message: str, *, exit_code: Optional[int] = None):
        super().__init__(message)
        self.exit_code = exit_code


class RemoteTaskError(ReproError, RuntimeError):
    """A worker task raised an exception that could not be pickled home.

    The stand-in the worker sends instead (:mod:`repro.utils.parallel`),
    so the task still runs once and its failure still surfaces:
    ``type_name`` is the original exception's qualified type name,
    ``message`` its ``str()`` and ``remote_traceback`` the formatted
    traceback from the worker.
    """

    def __init__(self, type_name: str, message: str, remote_traceback: str):
        super().__init__(f"{type_name}: {message}")
        self.type_name = type_name
        self.message = message
        self.remote_traceback = remote_traceback

    def __reduce__(self):
        return type(self), (self.type_name, self.message, self.remote_traceback)


class TornEventLogWarning(RuntimeWarning):
    """A tolerant event-log read skipped a truncated final line.

    Emitted by ``read_events(path, tolerant=True)`` when the log's last
    line is torn (the writer crashed mid-append); the warning message is
    the ledger entry naming the file and line skipped.
    """


class SerialFallbackWarning(RuntimeWarning):
    """The parallel fan-out degraded to serial execution."""


class UnpicklableTaskWarning(SerialFallbackWarning):
    """Fallback cause: the payload could not cross a process boundary."""


class BrokenPoolWarning(SerialFallbackWarning):
    """Fallback cause: the worker pool died (crashed/killed workers)."""
