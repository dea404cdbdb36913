"""Self-healing sharded serving: supervisor, tick journal, recovery.

A :class:`~repro.detection.sharded.ShardedFleetMonitor` scales the
paper's detection loop out to millions of drives — and inherits the
failure modes of the machines it runs on.  A shard worker SIGKILLed by
the OOM reaper (or a chaos test) takes its voting windows, lag
histories and quarantine counters with it; without this module the
stream stops until an operator notices and calls ``restore_shard`` by
hand, and every tick since the last snapshot is silently gone.

:class:`SupervisedShardedMonitor` closes that gap with three pieces:

* **Liveness** — before every tick the coordinator polls
  each shard host's worker process
  (:meth:`~repro.utils.parallel.WorkerHost.poll`), so a killed shard is
  *detected* at the next tick rather than discovered via a broken pipe
  mid-dispatch.  Deaths during a dispatch surface as
  :class:`~repro.utils.errors.WorkerDiedError` and are handled at the
  same place.
* **Tick journal** — :class:`TickJournal` records every
  tick and pin dispatch as the ``(shard, func, payload)`` calls the
  shards are sent: schema-tagged JSONL (``repro.tick-journal/v3``)
  naming one pickled ``.pkl`` sidecar per dispatch with one
  self-contained segment per call, torn-tail tolerant on read.  The
  journal is also the transport, and it is pipelined: each payload is
  pickled once, into its segment, and the shard is sent that call as
  soon as the segment is flushed — a worker-hosted shard gets a
  reference and reads the segment itself (:class:`_SegmentPayload`),
  while the next shard's segment is still being written.  The entry is
  committed (sidecar fsync'd, then the line written and fsync'd) after
  the last call is sent and before the first result is collected, so
  the coordinator's fsyncs overlap the shards' work; an entry is durable
  before the tick returns and before any recovery reads the journal.
  Periodic snapshots
  (:meth:`~repro.detection.sharded.ShardedFleetMonitor.snapshot` into
  ``run_dir/snapshot``) truncate it once published, so the journal only
  ever holds the ticks since the last snapshot.
* **Recovery** — on a dead shard the supervisor respawns a fresh
  worker from the latest snapshot (or from the shard spec when none
  exists yet) and re-submits that shard's journaled calls verbatim, in
  order, with observability suppressed so nothing is
  double-counted.  Because the coordinator itself never died, its
  merged alerts/faults/events already include every completed tick;
  replay only rebuilds *shard-side* state — and the result is
  bit-identical to a never-crashed run (the golden-parity bar sharded
  serving already meets against a single monitor).  A tick that was
  in flight when the shard died is excluded from replay and re-submitted
  through the normal merge path instead.

A journal entry that fails to commit (an ``OSError`` writing or
fsyncing it) does not cut the tick short: every shard is still sent and
collected, the results merge, and then the error propagates from the
call.  The shards applied a tick that snapshot + journal do not hold, so
the supervisor refuses every further dispatch and recovery until
:meth:`SupervisedShardedMonitor.checkpoint` succeeds and snapshots the
state the shards really have.

Restarts are budgeted: :class:`RestartPolicy` allows ``max_restarts``
respawns per shard within a sliding ``window_ticks`` window.  A shard
that keeps flapping past the budget is **quarantined** — dropped from
the serving rotation, visible in ``health_report()`` and the
``shard_quarantined`` event, and never the source of another page.

Everything is observable: ``shard_died`` / ``shard_recovered`` /
``shard_quarantined`` events, ``shard.recoveries`` and
``shard.journal_replayed_ticks`` counters, and a ``"supervision"``
section in :meth:`SupervisedShardedMonitor.health_report`.  See
``docs/operations.md`` for the recovery runbook.
"""

from __future__ import annotations

import json
import os
import pickle
import warnings
from collections import deque
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.detection.sharded import ShardedFleetMonitor, _ShardBuilder, _shard_tick
from repro.observability import get_event_log, get_registry
from repro.utils.errors import TornEventLogWarning, WorkerDiedError
from repro.utils.validation import check_count

#: Schema tag on the journal's JSONL header line.
TICK_JOURNAL_SCHEMA = "repro.tick-journal/v3"

#: Suffix of a retired sidecar kept for reuse; never ``.pkl``, so a glob
#: for live sidecars sees only live ones.
_SPARE = ".spare"

SHARD_RECOVERIES_HELP = "shard workers respawned after an unexpected death"
SHARD_REPLAYED_HELP = "journaled tick slices replayed into recovered shards"


@dataclass(frozen=True)
class RestartPolicy:
    """How many respawns a flapping shard gets before quarantine.

    ``max_restarts`` deaths within any sliding window of
    ``window_ticks`` collection ticks are recovered automatically; the
    next death inside the window quarantines the shard instead — it is
    degraded-but-reported, never an endless respawn loop and never a
    page.  Old restarts age out of the window, so a shard that crashed
    twice last week still has its full budget today.
    """

    max_restarts: int = 3
    window_ticks: int = 24

    def __post_init__(self) -> None:
        check_count("max_restarts", self.max_restarts)
        check_count("window_ticks", self.window_ticks)


class _SegmentRef(Mapping):
    """A journaled payload as a worker process receives it.

    It holds only ``(path, start)`` and reads its segment on first use,
    inside the hosted call — so a missing or corrupt segment raises
    ``ValueError`` there, an ordinary task error, and the worker lives.
    """

    __slots__ = ("segment", "_payload")

    def __init__(self, path: str, start: int):
        self.segment = (path, start)
        self._payload: Optional[dict] = None

    def _load(self) -> dict:
        if self._payload is None:
            path, start = self.segment
            try:
                with open(path, "rb") as handle:
                    handle.seek(start)
                    self._payload = pickle.load(handle)[2]
            except (OSError, EOFError, ValueError, pickle.UnpicklingError) as error:
                raise ValueError(
                    f"unreadable journal segment {path} at byte {start}: {error!r}"
                ) from error
        return self._payload

    def __getitem__(self, key):
        return self._load()[key]

    def __iter__(self):
        return iter(self._load())

    def __len__(self) -> int:
        return len(self._load())


class _SegmentPayload(dict):
    """A journaled payload that pickles as a reference to its own segment.

    In memory it is the payload dict itself, so a shard called in
    process uses it as is.  Pickled on its way to a worker process it is
    a :class:`_SegmentRef` — about a hundred bytes, and the worker reads
    its own slice of the sidecar from the page cache instead of the
    coordinator pickling the payload a second time into the pipe.
    """

    __slots__ = ("segment",)

    def __init__(self, payload: dict, segment: tuple[str, int]):
        super().__init__(payload)
        self.segment = segment

    def __reduce__(self):
        return _SegmentRef, self.segment


class TickJournal:
    """Append-only log of the calls every shard was sent.

    One JSONL file (header line ``{"schema": "repro.tick-journal/v3"}``)
    plus a ``<path>.d/`` sidecar directory.  Each entry is one dispatch:
    the ``(shard, func, payload)`` call list the coordinator handed to
    its shards, pickled call by call into a ``NNNNNN.pkl`` sidecar, and
    a line ``{"sidecar": "NNNNNN.pkl", "tick": true, "segments": [[shard,
    start, stop], ...]}`` naming it and each call's byte range.  Every
    segment unpickles by itself, so a reader loads one shard's calls
    without touching another's bytes.  ``tick`` is false for
    roster/feed pins and true for collection ticks.  Recovery
    re-submits one shard's calls in order, so only
    :mod:`repro.detection.sharded` knows what a payload (a dict) holds.

    Durability contract (``fsync=True``, the default): a sidecar is
    written and fsync'd *before* the line referencing it, and each line
    is fsync'd after the write — so a crash at any instant leaves either
    a complete entry or a torn final line, never a line pointing at
    missing bytes.  :meth:`entries` drops a torn tail under a
    :class:`~repro.utils.errors.TornEventLogWarning`; corruption before
    the final line raises.

    :meth:`stream` journals a dispatch while it is being sent: it yields
    each call as soon as its segment is written and flushed, and commits
    the entry (sidecar fsync, then line) when the caller asks for the
    call after the last — so a caller that submits every call before it
    collects any result pays the fsyncs while its shards work.  An
    ``OSError`` on the way never stops the stream: the rest of the calls
    are yielded with their plain payloads, the entry is not committed,
    and :attr:`failure` holds the error until the next :meth:`reset`.

    The journal is per-run: construction truncates ``path``.  After a
    snapshot, :meth:`reset` truncates again and re-seeds the last pin
    dispatch, which post-snapshot ticks depend on.

    Sidecars are recycled, not freed: :meth:`reset` renames the closed
    window's ``NNNNNN.pkl`` files to ``NNNNNN.spare``, and each new entry
    renames a spare to its own name and overwrites it from byte 0,
    truncating it to the entry's end before the fsync.  A new file is
    created only when no spare is left.  So the directory holds as many
    files as the largest window had, and stays at that high-water mark
    until :meth:`close` deletes the spares.  Freeing and re-allocating
    the files was the cost: on 2 cores at 100k drives, with 48-tick
    windows of ≈9.6 MB sidecars, a checkpoint fell from 213–230 ms to
    76–84 ms and the median tick on recycled sidecars by 0.1–3.9 ms.
    Sequence numbers keep counting across resets (construction starts
    past a previous run's leftovers, which become spares too), so a name
    is never reused: a reference to a retired segment finds no file and
    raises instead of reading recycled bytes.
    """

    def __init__(self, path: Union[str, Path], *, fsync: bool = True):
        self.path = Path(path)
        # Absolute: a segment reference is resolved in a worker process.
        self.sidecar_dir = Path(str(self.path) + ".d").absolute()
        self._fsync = bool(fsync)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.sidecar_dir.mkdir(parents=True, exist_ok=True)
        self._handle = None
        self._spares = sorted(self.sidecar_dir.glob(f"*{_SPARE}"))
        leftovers = [*self._spares, *self.sidecar_dir.glob("*.pkl")]
        self._seq = 1 + max((int(path.stem) for path in leftovers), default=-1)
        self.reset()

    def _sync(self, handle) -> None:
        handle.flush()
        if self._fsync:
            os.fsync(handle.fileno())

    def _write_line(self, line: dict) -> None:
        self._handle.write(json.dumps(line) + "\n")
        self._sync(self._handle)

    def _open_sidecar(self, path: Path):
        """``path`` opened at byte 0: the oldest spare renamed, else a new file."""
        if not self._spares:
            return path.open("wb")
        self._spares.pop(0).rename(path)
        return path.open("r+b")

    def stream(self, calls: Iterable, *, tick: bool) -> Iterator[tuple]:
        """Journal one dispatch, yielding each call to send once it is written.

        Each yielded payload is a :class:`_SegmentPayload` over its
        just-flushed segment, journaled as a plain dict, so re-appending
        payloads that came out of this journal never points at a retired
        sidecar.  Exhausting the iterator commits the entry.
        """
        path = self.sidecar_dir / f"{self._seq:06d}.pkl"
        self._seq += 1
        segments: list[list[int]] = []
        handle = None
        try:
            for sid, func, payload in calls:
                if self.failure is None:
                    try:
                        handle = handle or self._open_sidecar(path)
                        start = handle.tell()
                        pickle.dump(
                            (sid, func, dict(payload)), handle,
                            protocol=pickle.HIGHEST_PROTOCOL,
                        )
                        # Flushed, so a worker can read it the moment it is sent.
                        handle.flush()
                        segments.append([sid, start, handle.tell()])
                        payload = _SegmentPayload(payload, (str(path), start))
                    except OSError as error:
                        self.failure = error
                yield sid, func, payload
            if self.failure is None:
                try:
                    handle = handle or self._open_sidecar(path)
                    # A recycled sidecar may run past this entry's end.
                    handle.truncate()
                    self._sync(handle)
                    self._write_line(
                        {"sidecar": path.name, "tick": bool(tick), "segments": segments}
                    )
                except OSError as error:
                    self.failure = error
                else:
                    if tick:
                        self.tick_count += 1
        finally:
            if handle is not None:
                handle.close()

    def append(self, calls: Iterable, *, tick: bool) -> list:
        """Journal and commit one whole dispatch; returns the calls to send.

        The eager form of :meth:`stream`: raises :attr:`failure` when
        the entry could not be committed.
        """
        sent = list(self.stream(calls, tick=tick))
        if self.failure is not None:
            raise self.failure
        return sent

    def entries(
        self, *, tolerant: bool = True, shard: Optional[int] = None
    ) -> list[dict]:
        """Every journal line with its ``calls`` loaded, in append order.

        ``shard`` loads only that shard's segments (each line's
        ``calls`` then holds its calls alone); every payload is a
        :class:`_SegmentPayload`, so re-sending it to a worker ships a
        reference, not the bytes.  ``tolerant=True`` (the default —
        this *is* the crash-recovery read) drops a torn final line with
        a :class:`~repro.utils.errors.TornEventLogWarning`; corruption
        before the final line always raises.
        """
        raw_lines: list[tuple[int, str]] = []
        with self.path.open() as handle:
            for number, raw in enumerate(handle, start=1):
                raw = raw.strip()
                if raw:
                    raw_lines.append((number, raw))
        loaded: list[dict] = []
        header_seen = False
        for at, (number, raw) in enumerate(raw_lines):
            last = at == len(raw_lines) - 1
            try:
                line = json.loads(raw)
                if "schema" in line:
                    if line["schema"] != TICK_JOURNAL_SCHEMA:
                        raise ValueError(
                            f"{self.path}:{number}: schema "
                            f"{line['schema']!r} is not "
                            f"{TICK_JOURNAL_SCHEMA!r}"
                        )
                    header_seen = True
                    continue
                if not header_seen:
                    raise ValueError(
                        f"{self.path}:{number}: missing "
                        f"{TICK_JOURNAL_SCHEMA!r} header line"
                    )
                sidecar = str(self.sidecar_dir / line["sidecar"])
                line["calls"] = []
                with open(sidecar, "rb") as handle:
                    for sid, start, _ in line["segments"]:
                        if shard is None or sid == shard:
                            handle.seek(start)
                            _, func, payload = pickle.load(handle)
                            segment = (sidecar, start)
                            line["calls"].append(
                                (sid, func, _SegmentPayload(payload, segment))
                            )
            except (json.JSONDecodeError, FileNotFoundError) as error:
                if tolerant and last:
                    warnings.warn(
                        TornEventLogWarning(
                            f"{self.path}:{number}: skipped torn final "
                            f"journal entry (writer crashed mid-append): "
                            f"{error}"
                        ),
                        stacklevel=2,
                    )
                    break
                raise ValueError(
                    f"{self.path}:{number}: corrupt journal entry: {error}"
                ) from error
            loaded.append(line)
        return loaded

    def reset(self, calls: Optional[list] = None) -> None:
        """Truncate after a snapshot, re-seeding the last pin dispatch.

        The snapshot owns everything up to now; the fresh journal only
        needs the roster/feed pin calls (when any) that post-snapshot
        ticks will replay against.  The old window's sidecars become
        spares, in the order they were written.
        """
        if self._handle is not None:
            self._handle.close()
        for retired in sorted(self.sidecar_dir.glob("*.pkl")):
            spare = retired.with_suffix(_SPARE)
            retired.rename(spare)
            self._spares.append(spare)
        self.tick_count = 0
        self._handle = self.path.open("w")
        self._write_line({"schema": TICK_JOURNAL_SCHEMA})
        #: The ``OSError`` that kept an entry from committing since the
        #: last reset, or ``None``.
        self.failure: Optional[OSError] = None
        if calls is not None:
            self.append(calls, tick=False)

    def close(self) -> None:
        """Close the journal file and delete the spares (entries stay readable)."""
        if self._handle is not None:
            self._handle.close()
        for spare in self.sidecar_dir.glob(f"*{_SPARE}"):
            spare.unlink()
        self._spares.clear()


class SupervisedShardedMonitor(ShardedFleetMonitor):
    """A :class:`ShardedFleetMonitor` that survives its own workers.

    Drop-in: same constructor plus the supervision knobs, same serving
    API, same bit-identical merge semantics.  It hooks the coordinator
    in three places: ``_serve`` (probe, serve, count the tick, snapshot
    at the cadence), ``_dispatch_input`` (journal each call as it is
    sent) and ``finalize`` (probe first).  The difference is what
    happens when a shard worker dies — instead of a
    :class:`~repro.utils.errors.WorkerDiedError` unwinding to the
    caller, the supervisor restores the shard from the latest snapshot,
    replays the tick journal, re-submits whatever call was in
    flight, and the stream continues as if nothing happened.

    Args:
        run_dir: Directory for this run's journal and snapshots.  Must
            be private to one supervisor (construction truncates the
            journal and deletes any previous run's snapshot).
        snapshot_every: Auto-snapshot cadence in collection ticks; each
            snapshot truncates the journal.  ``0`` disables automatic
            snapshots (the journal then grows for the whole run).
        restart_policy: The per-shard restart budget (see
            :class:`RestartPolicy`).
        journal_fsync: fsync journal appends (default True — the
            durability mode the crash story assumes; turn off only for
            throughput experiments).
        **kwargs: Everything :class:`ShardedFleetMonitor` accepts.
    """

    def __init__(
        self,
        *args,
        run_dir: Union[str, Path],
        snapshot_every: int = 256,
        restart_policy: RestartPolicy = RestartPolicy(),
        journal_fsync: bool = True,
        **kwargs,
    ):
        self.snapshot_every = check_count(
            "snapshot_every", snapshot_every, strict=False
        )
        super().__init__(*args, **kwargs)
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.restart_policy = restart_policy
        self._journal = TickJournal(
            self.run_dir / "journal.jsonl", fsync=journal_fsync
        )
        # A previous run's snapshot must not outlive its journal: a shard
        # lost before this run's first snapshot is rebuilt from the spec.
        self._snapshot_dir = self.run_dir / "snapshot"
        for stale in self._snapshot_dir.glob("*"):
            stale.unlink()
        self._tick_index = 0
        self._pin_calls: Optional[list] = None
        self._restarts: dict[int, deque] = {}
        self.recoveries = 0
        self.replayed_ticks = 0

    # -- lifecycle -------------------------------------------------------------

    @property
    def journal(self) -> TickJournal:
        """The tick journal (read-only access for tooling)."""
        return self._journal

    def close(self) -> None:
        """Shut down shard workers and close the journal."""
        super().close()
        self._journal.close()

    # -- journaled ingestion ---------------------------------------------------

    def _dispatch_input(self, calls, *, tick):
        self._require_committed()
        if not tick:
            calls = self._pin_calls = list(calls)  # re-journaled by every checkpoint
        # What the shards are sent comes out of the journal, each call as
        # soon as its segment is written; the entry commits after the
        # last send, before the first result (and any recovery) is read.
        responses = super()._dispatch_input(
            self._journal.stream(calls, tick=tick), tick=tick
        )
        if not tick and self._journal.failure is not None:
            raise self._journal.failure
        return responses

    def _require_committed(self) -> None:
        """Refuse to serve or recover while a journal entry is uncommitted.

        The shards applied that dispatch, but snapshot + journal do not
        hold it, so a replay would rebuild a shard without it; only a
        successful :meth:`checkpoint` makes the recipe whole again.
        """
        failure = self._journal.failure
        if failure is not None:
            raise RuntimeError(
                f"a tick journal entry failed to commit ({failure!r}); "
                "call checkpoint() before serving or recovering a shard"
            ) from failure

    def _serve(self, hour, items, duplicates, **kwargs):
        # Refuse before the coordinator notes the tick's serials, and
        # probe first: a shard quarantined by the probe gets no call.
        self._require_committed()
        self.probe_shards()
        alerts = super()._serve(hour, items, duplicates, **kwargs)
        self._tick_index += 1
        if self._journal.failure is not None:
            # Served and merged, but not journaled: surface it now.
            raise self._journal.failure
        if self.snapshot_every and self._tick_index % self.snapshot_every == 0:
            self.checkpoint()
        return alerts

    def finalize(self):
        self.probe_shards()
        return super().finalize()

    # -- snapshots -------------------------------------------------------------

    def checkpoint(self) -> Path:
        """Snapshot every live shard and truncate the journal.

        Called automatically every ``snapshot_every`` ticks and after
        every model change; call it by hand before risky operations.
        A shard that dies mid-export is recovered from the files still
        published plus the not-yet-truncated journal, then exports
        again; one quarantined instead is skipped.  The journal resets
        only after the new files are published, so the snapshot plus
        the journal is always a complete recipe for rebuilding any shard.
        After a journal entry failed to commit, this is the one way back
        to serving: the snapshot takes the state the shards really have.
        """
        self.snapshot(self._snapshot_dir)
        self._journal.reset(self._pin_calls)
        return self._snapshot_dir

    def set_model(self, *args, **kwargs) -> int:
        generation = super().set_model(*args, **kwargs)
        self.checkpoint()
        return generation

    def begin_deployment(self, *args, **kwargs) -> int:
        generation = super().begin_deployment(*args, **kwargs)
        self.checkpoint()
        return generation

    def _maybe_resolve_deployment(self) -> None:
        active = self._deployment is not None
        super()._maybe_resolve_deployment()
        if active and self._deployment is None:
            # Cutover or rollback changed shard-side models; snapshot so
            # a recovered shard never resurrects the losing generation.
            self.checkpoint()

    # -- liveness --------------------------------------------------------------

    def probe_shards(self) -> None:
        """Detect (and recover) dead shards before dispatching a tick.

        Polls each shard's host — O(1) per shard, no round trip: a
        worker host checks its process for an exit code, a local host
        only whether it was killed.  Any death found here is recovered
        *outside* a tick, so there is no in-flight payload to exclude
        from replay.
        """
        for sid in self._active_shards():
            host = self._hosts[sid]
            exit_code = host.poll()
            if host.alive:
                continue
            error = WorkerDiedError(
                f"shard {sid} worker found dead by the pre-tick probe",
                exit_code=exit_code,
            )
            self._supervise_death(sid, error, in_flight_tick=False)

    def ping_shards(self, timeout: float = 5.0) -> dict[int, bool]:
        """Request/response health of every active shard (operator tool).

        Unlike :meth:`probe_shards` this proves the host *responds* —
        a wedged worker polls alive but fails its ping.  Returns
        ``{shard_id: healthy}``; never raises and never recovers (the
        verdict is the operator's to act on).  A local host is healthy
        exactly while it is alive.
        """
        return {
            sid: self._hosts[sid].ping(timeout=timeout)
            for sid in self._active_shards()
        }

    # -- recovery --------------------------------------------------------------

    def _handle_shard_death(self, sid, func, payload, error):
        recovered = self._supervise_death(
            sid, error, in_flight_tick=func is _shard_tick
        )
        if not recovered:
            return None
        # Re-run the in-flight call on the fresh host through the
        # normal observed path, so its alerts/faults/events merge
        # exactly as the original dispatch would have.
        try:
            return self._hosts[sid].submit(func, payload).result()
        except WorkerDiedError as again:
            return self._handle_shard_death(sid, func, payload, again)

    def _supervise_death(
        self, sid: int, error: WorkerDiedError, *, in_flight_tick: bool
    ) -> bool:
        """Death → respawn-and-replay, or quarantine once the budget is gone.

        Returns True when the shard is back in service.  While a journal
        entry is uncommitted the death raises instead: a replay would
        rebuild the shard without that entry.
        """
        self._require_committed()
        log = get_event_log()
        death_data: dict = {
            "shard": sid,
            "error": str(error),
            "probe": not in_flight_tick,
        }
        if error.exit_code is not None:
            death_data["exit_code"] = error.exit_code
        log.emit("shard_died", hour=self._last_hour, **death_data)
        restarts = self._restarts.setdefault(sid, deque())
        horizon = self._tick_index - self.restart_policy.window_ticks
        while restarts and restarts[0] <= horizon:
            restarts.popleft()
        if len(restarts) >= self.restart_policy.max_restarts:
            self.quarantine_shard(sid)
            return False
        restarts.append(self._tick_index)
        self._recover(sid, exclude_in_flight=in_flight_tick)
        return True

    def _recover(self, sid: int, *, exclude_in_flight: bool) -> None:
        feed_was_pinned = self._feed_pinned
        try:
            self.restore_shard(sid, self._snapshot_dir)
            source = "snapshot"
        except KeyError:
            # No snapshot yet: the journal covers the whole run, so a
            # fresh shard built from the spec replays to parity.
            source = "fresh"
            self._replace_host(sid, _ShardBuilder(self._spec))
        replayed = self._replay_shard(sid, exclude_in_flight=exclude_in_flight)
        # Recovery re-established the shard's roster and feed from the
        # journal; the fleet-wide pin is intact again.
        self._feed_pinned = feed_was_pinned
        self.recoveries += 1
        self.replayed_ticks += replayed
        registry = get_registry()
        registry.counter("shard.recoveries", help=SHARD_RECOVERIES_HELP).inc()
        if replayed:
            registry.counter(
                "shard.journal_replayed_ticks", help=SHARD_REPLAYED_HELP
            ).inc(replayed)
        get_event_log().emit(
            "shard_recovered",
            hour=self._last_hour,
            shard=sid,
            replayed_ticks=replayed,
            source=source,
        )

    def _replay_shard(self, sid: int, *, exclude_in_flight: bool) -> int:
        """Re-submit every journaled call for one shard, in order.

        Only this shard's segments are read, and a worker-hosted shard
        is sent references to them, as in the live dispatch.
        Observability is suppressed for every replayed call (the
        original run already counted these ticks); only shard-side
        state is rebuilt.  Returns the number of tick entries actually
        executed on the shard.
        """
        entries = self._journal.entries(shard=sid)
        if exclude_in_flight and entries and entries[-1]["tick"]:
            # The dying dispatch's tick was committed (deaths are handled
            # only after the commit) but never merged; _handle_shard_death
            # re-submits it through the observed path instead.
            entries = entries[:-1]
        replayed = 0
        for entry in entries:
            for _, func, payload in entry["calls"]:
                # observed=False: the call runs under throwaway instruments
                # and resolves to the bare result, so the parent sees nothing.
                self._hosts[sid].submit(func, payload, observed=False).result()
            if entry["calls"] and entry["tick"]:
                replayed += 1
        return replayed

    # -- reporting -------------------------------------------------------------

    def health_report(self) -> dict[str, object]:
        """The sharded report plus a ``"supervision"`` section."""
        report = super().health_report()
        report["supervision"] = {
            "journal_path": str(self._journal.path),
            "journal_ticks": self._journal.tick_count,
            "snapshot_every": self.snapshot_every,
            "recoveries": self.recoveries,
            "replayed_ticks": self.replayed_ticks,
            "quarantined_shards": sorted(self._quarantined),
            "restart_policy": {
                "max_restarts": self.restart_policy.max_restarts,
                "window_ticks": self.restart_policy.window_ticks,
            },
            "restarts_in_window": {
                sid: len(restarts)
                for sid, restarts in sorted(self._restarts.items())
                if restarts
            },
        }
        return report
