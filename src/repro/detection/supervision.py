"""Self-healing sharded serving: supervisor, tick journal, recovery.

A :class:`~repro.detection.sharded.ShardedFleetMonitor` scales the
paper's detection loop out to millions of drives — and inherits the
failure modes of the machines it runs on.  A shard worker SIGKILLed by
the OOM reaper (or a chaos test) takes its voting windows, lag
histories and quarantine counters with it; without this module the
stream stops until an operator notices and calls ``restore_shard`` by
hand, and every tick since the last snapshot is silently gone.

:class:`SupervisedShardedMonitor` closes that gap with three pieces:

* **Liveness** — before every collection tick the coordinator polls
  each shard host's worker process
  (:meth:`~repro.utils.parallel.WorkerHost.poll`), so a killed shard is
  *detected* at the next tick rather than discovered via a broken pipe
  mid-dispatch.  Deaths during a dispatch surface as
  :class:`~repro.utils.errors.WorkerDiedError` and are handled at the
  same place.
* **Write-ahead tick journal** — :class:`TickJournal` records every
  tick payload (and the roster/feed context it depends on) *before* it
  is dispatched: schema-tagged JSONL (``repro.tick-journal/v1``) with
  ``.npy`` sidecars for matrices, fsync'd per append, torn-tail
  tolerant on read.  Periodic snapshots through
  :class:`~repro.utils.checkpoint.JsonCheckpoint` truncate it, so the
  journal only ever holds the ticks since the last snapshot.
* **Recovery** — on a dead shard the supervisor respawns a fresh
  worker from the latest snapshot (or from the shard spec when none
  exists yet) and deterministically replays the journaled ticks for
  that shard, with observability suppressed so nothing is
  double-counted.  Because the coordinator itself never died, its
  merged alerts/faults/events already include every completed tick;
  replay only rebuilds *shard-side* state — and the result is
  bit-identical to a never-crashed run (the golden-parity bar sharded
  serving already meets against a single monitor).  A tick that was
  in flight when the shard died is excluded from replay and re-submitted
  through the normal merge path instead.

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

import base64
import json
import os
import pickle
import warnings
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.detection.sharded import (
    ShardedFleetMonitor,
    _ShardBuilder,
    _shard_pin,
    _shard_tick,
    shard_for,
)
from repro.detection.streaming import _normalize_tick
from repro.observability import (
    capture_remote,
    get_event_log,
    get_registry,
    worker_config,
)
from repro.utils.checkpoint import SHARD_SNAPSHOT_KIND, JsonCheckpoint
from repro.utils.errors import TornEventLogWarning, WorkerDiedError
from repro.utils.parallel import WorkerHost

#: Schema tag on the journal's JSONL header line.
TICK_JOURNAL_SCHEMA = "repro.tick-journal/v1"

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
        if self.max_restarts < 1:
            raise ValueError(
                f"max_restarts must be >= 1, got {self.max_restarts}"
            )
        if self.window_ticks < 1:
            raise ValueError(
                f"window_ticks must be >= 1, got {self.window_ticks}"
            )


class TickJournal:
    """Append-only write-ahead log of everything a shard needs to replay.

    One JSONL file (header line ``{"schema": "repro.tick-journal/v1"}``)
    plus a ``<path>.d/`` sidecar directory holding matrices as ``.npy``
    files.  Entry kinds:

    * ``register`` — a tick roster was fixed (the serial list, inline);
    * ``pin`` — a fleet feed matrix was pinned (sidecar);
    * ``tick`` — one collection tick: ``mode="matrix"`` carries the full
      fleet matrix as a sidecar (or ``pinned: true`` for pinned-feed
      ticks), ``mode="fleet"`` carries the normalized
      ``(items, duplicates)`` payload as a base64 pickle inline.

    Durability contract (``fsync=True``, the default): a sidecar is
    written and fsync'd *before* the line referencing it, and each line
    is fsync'd after the write — so a crash at any instant leaves either
    a complete entry or a torn final line, never a line pointing at
    missing bytes.  :meth:`entries` drops a torn tail under a
    :class:`~repro.utils.errors.TornEventLogWarning`; corruption before
    the final line raises.

    The journal is per-run: construction truncates ``path``.  After a
    snapshot, :meth:`reset` truncates again and re-seeds the roster/pin
    context entries the post-snapshot ticks depend on.
    """

    def __init__(self, path: Union[str, Path], *, fsync: bool = True):
        self.path = Path(path)
        self.sidecar_dir = Path(str(self.path) + ".d")
        self._fsync = bool(fsync)
        self._seq = 0
        self.tick_count = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.sidecar_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.sidecar_dir.glob("*.npy"):
            stale.unlink()
        self._handle = self.path.open("w")
        self._write_line({"schema": TICK_JOURNAL_SCHEMA})

    def _write_line(self, line: dict) -> None:
        self._handle.write(json.dumps(line, separators=(", ", ": ")) + "\n")
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    def _write_sidecar(self, matrix: np.ndarray) -> str:
        name = f"{self._seq:06d}.npy"
        self._seq += 1
        target = self.sidecar_dir / name
        with target.open("wb") as handle:
            np.save(handle, np.ascontiguousarray(matrix))
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
        return name

    # -- appends ---------------------------------------------------------------

    def append_register(
        self, roster_id: int, roster: Sequence[str]
    ) -> None:
        """Record a roster registration (context for later matrix ticks)."""
        self._write_line({
            "kind": "register",
            "roster_id": int(roster_id),
            "roster": list(roster),
        })

    def append_pin(self, roster_id: int, matrix: np.ndarray) -> None:
        """Record a pinned fleet feed (context for ``pinned`` ticks)."""
        sidecar = self._write_sidecar(matrix)
        self._write_line({
            "kind": "pin", "roster_id": int(roster_id), "sidecar": sidecar,
        })

    def append_tick_matrix(
        self,
        hour: float,
        roster_id: int,
        *,
        matrix: Optional[np.ndarray] = None,
        pinned: bool = False,
    ) -> None:
        """Record one matrix-path tick, sidecar first (write-ahead order)."""
        line: dict = {
            "kind": "tick", "mode": "matrix",
            "hour": float(hour), "roster_id": int(roster_id),
        }
        if pinned:
            line["pinned"] = True
        else:
            line["sidecar"] = self._write_sidecar(matrix)
        self._write_line(line)
        self.tick_count += 1

    def append_tick_fleet(
        self, hour: float, items: list, duplicates: list, single: bool = False
    ) -> None:
        """Record one normalized fleet tick (items inline, pickled)."""
        blob = base64.b64encode(
            pickle.dumps(
                (items, duplicates), protocol=pickle.HIGHEST_PROTOCOL
            )
        ).decode("ascii")
        line: dict = {
            "kind": "tick", "mode": "fleet", "hour": float(hour), "blob": blob,
        }
        if single:
            line["single"] = True
        self._write_line(line)
        self.tick_count += 1

    # -- reads -----------------------------------------------------------------

    def _load_entry(self, line: dict) -> dict:
        entry = dict(line)
        if "sidecar" in entry:
            entry["matrix"] = np.load(self.sidecar_dir / entry["sidecar"])
        if "blob" in entry:
            items, duplicates = pickle.loads(base64.b64decode(entry["blob"]))
            entry["items"] = items
            entry["duplicates"] = duplicates
        return entry

    def entries(self, *, tolerant: bool = True) -> list[dict]:
        """Every journal entry with payloads loaded, in append order.

        ``tolerant=True`` (the default — this *is* the crash-recovery
        read) drops a torn final line with a
        :class:`~repro.utils.errors.TornEventLogWarning`; corruption
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
                entry = self._load_entry(line)
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
            loaded.append(entry)
        return loaded

    # -- rotation --------------------------------------------------------------

    def reset(
        self,
        *,
        roster_id: int = 0,
        roster: Optional[Sequence[str]] = None,
        pin: Optional[np.ndarray] = None,
    ) -> None:
        """Truncate after a snapshot, re-seeding the live context.

        The snapshot owns everything up to now; the fresh journal only
        needs the roster registration and pinned feed (when any) that
        post-snapshot ticks will replay against.
        """
        self._handle.close()
        for stale in self.sidecar_dir.glob("*.npy"):
            stale.unlink()
        self._seq = 0
        self.tick_count = 0
        self._handle = self.path.open("w")
        self._write_line({"schema": TICK_JOURNAL_SCHEMA})
        if roster is not None:
            self.append_register(roster_id, roster)
        if pin is not None:
            self.append_pin(roster_id, pin)

    def close(self) -> None:
        """Close the journal file handle (entries stay readable)."""
        if not self._handle.closed:
            self._handle.close()


class SupervisedShardedMonitor(ShardedFleetMonitor):
    """A :class:`ShardedFleetMonitor` that survives its own workers.

    Drop-in: same constructor plus the supervision knobs, same serving
    API, same bit-identical merge semantics.  The difference is what
    happens when a shard worker dies — instead of a
    :class:`~repro.utils.errors.WorkerDiedError` unwinding to the
    caller, the supervisor restores the shard from the latest snapshot,
    replays the write-ahead journal, re-submits whatever call was in
    flight, and the stream continues as if nothing happened.

    Args:
        run_dir: Directory for this run's journal and snapshots.  Must
            be private to one supervisor (construction truncates the
            journal).
        snapshot_every: Auto-snapshot cadence in collection ticks; each
            snapshot truncates the journal.  ``0`` disables automatic
            snapshots (the journal then grows for the whole run).
        restart_policy: The per-shard restart budget (see
            :class:`RestartPolicy`).
        journal_fsync: fsync journal appends (default True — the
            durability mode the crash story assumes; turn off only for
            throughput experiments).
        durable_snapshots: fsync snapshot checkpoint writes (default
            True).
        **kwargs: Everything :class:`ShardedFleetMonitor` accepts.
    """

    def __init__(
        self,
        *args,
        run_dir: Union[str, Path],
        snapshot_every: int = 256,
        restart_policy: RestartPolicy = RestartPolicy(),
        journal_fsync: bool = True,
        durable_snapshots: bool = True,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {snapshot_every}"
            )
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = int(snapshot_every)
        self.restart_policy = restart_policy
        self._journal = TickJournal(
            self.run_dir / "journal.jsonl", fsync=journal_fsync
        )
        self._snapshot_store = JsonCheckpoint(
            self.run_dir / "snapshot.json",
            kind=SHARD_SNAPSHOT_KIND,
            durable=durable_snapshots,
        )
        self._tick_index = 0
        self._roster_id = 0
        self._context_pin: Optional[np.ndarray] = None
        self._restarts: dict[int, deque] = {}
        self.recoveries = 0
        self.replayed_ticks = 0

    # -- lifecycle -------------------------------------------------------------

    @property
    def journal(self) -> TickJournal:
        """The write-ahead tick journal (read-only access for tooling)."""
        return self._journal

    def close(self) -> None:
        """Shut down shard workers and close the journal."""
        super().close()
        self._journal.close()

    # -- journaled ingestion ---------------------------------------------------

    def register_fleet(self, serials) -> tuple[str, ...]:
        roster = tuple(serials)
        self._roster_id += 1
        self._context_pin = None
        self._journal.append_register(self._roster_id, roster)
        return super().register_fleet(roster)

    def pin_feed(self, values: np.ndarray) -> None:
        matrix = self._check_matrix(values)
        self._journal.append_pin(self._roster_id, matrix)
        self._context_pin = matrix
        super().pin_feed(matrix)

    def _tick(self, hour, items, duplicates, single=False):
        # Every normalizing ingestion path (observe, observe_fleet, the
        # observe_tick fallbacks) funnels through here: probe, journal
        # the write-ahead entry, then dispatch.
        self.probe_shards()
        self._journal.append_tick_fleet(hour, items, duplicates, single)
        alerts = super()._tick(hour, items, duplicates, single)
        if single:
            self._after_tick()
        return alerts

    def _instrumented_tick(self, *args, **kwargs):
        alerts = super()._instrumented_tick(*args, **kwargs)
        self._after_tick()
        return alerts

    def observe_tick(self, hour, values=None, serials=None):
        if serials is None and self._roster is not None and self._partition is not None:
            # The partitioned matrix fast path dispatches without going
            # through _tick, so it gets its own write-ahead entry.
            self.probe_shards()
            if values is None and not self._feed_pinned:
                raise ValueError(
                    "no pinned feed: pass values= or call pin_feed() first"
                )
            matrix = self._check_matrix(values) if values is not None else None
            self._journal.append_tick_matrix(
                hour, self._roster_id, matrix=matrix, pinned=matrix is None,
            )
            return super().observe_tick(hour, matrix, None)
        # Explicit-roster and duplicate-roster paths normalize into
        # _tick, which journals them as fleet entries.
        return super().observe_tick(hour, values, serials)

    def finalize(self):
        self.probe_shards()
        return super().finalize()

    def _after_tick(self) -> None:
        self._tick_index += 1
        if self.snapshot_every and self._tick_index % self.snapshot_every == 0:
            self.checkpoint()

    # -- snapshots -------------------------------------------------------------

    def _export_shard(self, shard: int) -> dict:
        # A shard can die in the instant between serving and being
        # snapshotted; recover it (old snapshot + journal replay) and
        # export the rebuilt state instead of aborting the checkpoint.
        try:
            return super()._export_shard(shard)
        except WorkerDiedError as error:
            if shard in self._quarantined or not self._supervise_death(
                shard, error, in_flight_tick=False
            ):
                raise
            return super()._export_shard(shard)

    def checkpoint(self) -> JsonCheckpoint:
        """Snapshot every live shard and truncate the journal.

        Called automatically every ``snapshot_every`` ticks and after
        every model change; call it by hand before risky operations.
        The snapshot plus the (now empty) journal is always a complete
        recipe for rebuilding any shard.
        """
        for _ in range(self.n_shards + 1):
            try:
                self.snapshot(self._snapshot_store)
                break
            except WorkerDiedError:
                # A shard burned its restart budget mid-snapshot and was
                # quarantined; retry covers the remaining live shards.
                continue
        self._journal.reset(
            roster_id=self._roster_id,
            roster=self._roster,
            pin=self._context_pin if self._feed_pinned else None,
        )
        return self._snapshot_store

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

        Process mode polls each host's worker for an exit code — O(1)
        per shard, no round trip; serial mode checks for killed cells.
        Any death found here is recovered *outside* a tick, so there is
        no in-flight payload to exclude from replay.
        """
        for sid in self._active_shards():
            if self._hosts is not None:
                host = self._hosts[sid]
                exit_code = host.poll()
                if host.alive:
                    continue
                error = WorkerDiedError(
                    f"shard {sid} worker found dead by the pre-tick probe",
                    exit_code=exit_code,
                )
            else:
                if self._shards[sid] is not None:
                    continue
                error = WorkerDiedError(
                    f"shard {sid} cell found dead by the pre-tick probe"
                )
            self._supervise_death(sid, error, in_flight_tick=False)

    def ping_shards(self, timeout: float = 5.0) -> dict[int, bool]:
        """Request/response health of every active shard (operator tool).

        Unlike :meth:`probe_shards` this proves the worker *responds* —
        a wedged worker polls alive but fails its ping.  Returns
        ``{shard_id: healthy}``; never raises and never recovers (the
        verdict is the operator's to act on).  Serial shards are healthy
        exactly when their cell exists.
        """
        health: dict[int, bool] = {}
        for sid in self._active_shards():
            if self._hosts is not None:
                health[sid] = self._hosts[sid].ping(timeout=timeout)
            else:
                health[sid] = self._shards[sid] is not None
        return health

    # -- recovery --------------------------------------------------------------

    def _handle_shard_death(self, sid, func, payload, error):
        recovered = self._supervise_death(
            sid, error, in_flight_tick=func is _shard_tick
        )
        if not recovered:
            return None
        # Re-run the in-flight call on the fresh worker through the
        # normal observed path, so its alerts/faults/events merge
        # exactly as the original dispatch would have.
        if self._hosts is not None:
            try:
                return self._hosts[sid].submit(func, payload).result()
            except WorkerDiedError as again:
                return self._handle_shard_death(sid, func, payload, again)
        return capture_remote(worker_config(), func, self._shards[sid], payload)

    def _supervise_death(
        self, sid: int, error: WorkerDiedError, *, in_flight_tick: bool
    ) -> bool:
        """Death → respawn-and-replay, or quarantine once the budget is gone.

        Returns True when the shard is back in service.
        """
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
        if f"shard-{sid}" in self._snapshot_store:
            source = "snapshot"
            self.restore_shard(sid, self._snapshot_store)
        else:
            # No snapshot yet: the journal covers the whole run, so a
            # fresh shard built from the spec replays to parity.
            source = "fresh"
            builder = _ShardBuilder(self._spec)
            if self._hosts is not None:
                old = self._hosts[sid]
                if old.alive:
                    old.kill()
                self._hosts[sid] = WorkerHost(builder)
            else:
                self._shards[sid] = builder()
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
        """Deterministically re-run the journal's slice for one shard.

        Observability is suppressed for every replayed call (the
        original run already counted these ticks); only shard-side
        state is rebuilt.  Returns the number of tick entries actually
        executed on the shard.
        """
        entries = self._journal.entries()
        if exclude_in_flight and entries and entries[-1]["kind"] == "tick":
            # The dying dispatch's tick was journaled (write-ahead) but
            # never merged; _handle_shard_death re-submits it through
            # the observed path instead.
            entries = entries[:-1]
        n = self.n_shards
        partition: Optional[np.ndarray] = None
        roster: Optional[tuple[str, ...]] = None
        replayed = 0
        for entry in entries:
            kind = entry["kind"]
            if kind == "register":
                roster = tuple(entry["roster"])
                bucket = [
                    at for at, serial in enumerate(roster)
                    if shard_for(serial, n) == sid
                ]
                partition = np.asarray(bucket, dtype=np.intp)
                self._replay_call(
                    sid, _shard_pin,
                    {"roster": tuple(roster[at] for at in bucket)},
                )
            elif kind == "pin":
                if partition is None:
                    raise ValueError(
                        f"{self._journal.path}: pin entry without a "
                        f"preceding register entry"
                    )
                self._replay_call(
                    sid, _shard_pin, {"feed": entry["matrix"][partition]}
                )
            elif kind == "tick":
                if entry["mode"] == "fleet":
                    items = [
                        (serial, values)
                        for serial, values in entry["items"]
                        if shard_for(serial, n) == sid
                    ]
                    duplicates = [
                        serial for serial in entry["duplicates"]
                        if shard_for(serial, n) == sid
                    ]
                    if not items and not duplicates:
                        continue
                    payload = {
                        "hour": entry["hour"],
                        "shard": sid,
                        "items": items,
                        "duplicates": duplicates,
                        "single": bool(entry.get("single")),
                    }
                else:
                    if partition is None or len(partition) == 0:
                        continue
                    payload = {"hour": entry["hour"], "shard": sid}
                    if entry.get("pinned"):
                        payload["pinned"] = True
                    else:
                        payload["matrix"] = entry["matrix"][partition]
                self._replay_call(sid, _shard_tick, payload)
                replayed += 1
        return replayed

    def _replay_call(self, sid: int, func, payload) -> None:
        if self._hosts is not None:
            # observed=False ships no config: the worker runs under its
            # own no-op instruments and returns the bare result.
            self._hosts[sid].submit(func, payload, observed=False).result()
            return
        # Serial: run under throwaway captured instruments and discard
        # the envelope, so the parent's counters/events see nothing.
        capture_remote(worker_config(), func, self._shards[sid], payload)

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
