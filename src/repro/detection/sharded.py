"""Sharded fleet serving: one logical monitor over millions of drives.

A single :class:`~repro.detection.streaming.FleetMonitor` is one
process, so fleet throughput stops at one core.  This module scales the
same serving semantics *out*: :class:`ShardedFleetMonitor` partitions
drives across N shard monitors by a stable serial hash
(:func:`shard_for`), fans every collection tick out to the shards and
merges the per-shard results back into one coordinator-level truth.
Each shard lives on one host behind a single interface: a
:class:`~repro.utils.parallel.LocalHost` in this process
(``mode="serial"``) or a :class:`~repro.utils.parallel.WorkerHost`
worker process (``mode="process"``).  The mode only picks the host
type; every dispatch, kill, snapshot and restore goes through the same
host calls.

Every ingest — ``observe``, ``observe_fleet`` and each form of
``observe_tick`` — is one coordinator tick,
:meth:`ShardedFleetMonitor._serve`: it builds one :func:`_shard_tick`
call per shard, carrying either records (``items``/``duplicates``) or
a roster tick (this shard's ``matrix`` slice, or none for the pinned
feed), and merges the results through one ``_merge``, which
:meth:`ShardedFleetMonitor.finalize` uses too.  The merge orders
everything by position — a tick's record order, or first-seen order
for ``finalize``:

* **Alerts** come home per shard with shard-local ids, are re-ordered
  by position and re-assigned dense coordinator ids, so
  ``alerts``/``alert_id`` are bit-identical to a single monitor over
  the same stream.
* **Faults** merge deterministically: duplicate-serial faults in global
  discovery order, then record faults by position (a tick has one
  record per serial) — the exact list a single monitor would have
  appended.
* **Observability** ships home in
  :class:`~repro.observability.RemoteObservation` envelopes (the same
  protocol as :func:`~repro.utils.parallel.run_tasks`): shard counters
  merge into the coordinator registry, shard spans nest under the
  coordinator's ``serve.tick`` span, and shard events are absorbed in
  a deterministic merge order — logical hour, then shard id, then
  shard-local sequence — with ``alert_raised`` payloads rewritten to
  the coordinator alert ids, so replaying the coordinator's event log
  (``repro-events``) reconstructs its state exactly.
* **SLO state** lives only at the coordinator: shards serve,
  :meth:`ShardedFleetMonitor.resolve_outcome` feeds the one attached
  :class:`~repro.observability.slo.SLOMonitor`, and
  :meth:`health_report` embeds its burn status like a single monitor.

On top of the data path sit the operational tools the scale-out story
needs: :meth:`snapshot`/:meth:`restore_shard` persist state as one
snapshot directory — each shard pickles its own ``shard-<i>.pkl`` in
its host, the coordinator adds ``coordinator.pkl`` and publishes the
set together — so a killed shard resumes **bit-identically**
mid-stream, and :meth:`begin_deployment` rolls a new model out through
canary shards — the canaries serve generation N+1 while the control
shards stay on N, alert rates are compared over a soak window, and the
parity verdict drives an automatic fleet-wide cutover or rollback.

Parity contract (pinned by ``tests/test_detection_sharded.py``): over
any shard count, the coordinator's alerts, alert ids, faults,
quarantine decisions, ``health_report()`` counters, SLO state, and
event *set* are identical to a single ``FleetMonitor`` on the same
stream.  Only the tick-level wall-time histogram and the ``shard.*``
instrumentation family differ — sharding is a deployment choice, never
a semantic one.

Strict mode (``quarantine=None``) is not supported here: a mid-tick
``ValueError`` unwinding across process boundaries cannot preserve a
single monitor's partial-tick state (records before the raising one
ingested, serials first seen after it unregistered).  Use a single
``FleetMonitor`` when the feed is trusted enough for strict mode.
"""

from __future__ import annotations

import math
import os
import pickle
import warnings
import zlib
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.detection.streaming import (
    Alert,
    DriveStatus,
    FleetMonitor,
    QuarantinePolicy,
    VoterSpec,
    _DEFAULT_QUARANTINE,
    _normalize_tick,
    _ServingFacade,
)
from repro.features.vectorize import Feature
from repro.observability import (
    RemoteObservation,
    absorb_remote,
    get_event_log,
    get_registry,
    get_tracer,
)
from repro.utils.errors import (
    SampleFault,
    UnpicklableTaskWarning,
    WorkerDiedError,
)
from repro.utils.parallel import LocalHost, WorkerHost, resolve_shards
from repro.utils.validation import check_count

#: Execution modes, each naming a shard host type: ``"serial"`` hosts
#: every shard on a :class:`~repro.utils.parallel.LocalHost` (zero
#: processes; the only mode for unpicklable scorers), ``"process"`` on
#: its own :class:`~repro.utils.parallel.WorkerHost` (the scale-out
#: path).  Both produce identical output — dispatch and merge are shared.
SHARD_MODES = ("serial", "process")

# Counter/histogram help strings (shared so snapshots merge cleanly).
SHARD_TICKS_HELP = "shard tick slices dispatched"
SHARD_TICK_SECONDS_HELP = "wall time of one shard's tick slice"
SHARD_SNAPSHOTS_HELP = "shard states written to a snapshot"
SHARD_RESTORES_HELP = "shard states restored from a snapshot"


def shard_for(serial: str, n_shards: int) -> int:
    """The shard owning ``serial`` — a stable, platform-independent hash.

    CRC-32 of the UTF-8 serial modulo the shard count: deterministic
    across runs, interpreters and platforms (unlike ``hash()``, which
    is salted per process), independent of insertion order by
    construction, and balanced to within binomial noise for real-world
    serial populations (pinned by a hypothesis test from fleets of 10
    to 100k serials).
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return zlib.crc32(serial.encode("utf-8")) % n_shards


def _partition_roster(
    roster: Sequence[str], n_shards: int
) -> tuple[list[np.ndarray], list[tuple[str, ...]]]:
    """Each shard's row indices into ``roster`` and its sub-roster."""
    buckets: list[list[int]] = [[] for _ in range(n_shards)]
    for at, serial in enumerate(roster):
        buckets[shard_for(serial, n_shards)].append(at)
    return (
        [np.asarray(ix, dtype=np.intp) for ix in buckets],
        [tuple(roster[i] for i in ix) for ix in buckets],
    )


def _split_tick(
    items: Iterable[tuple], duplicates: Iterable[str], n_shards: int
) -> tuple[list[list[tuple]], list[list[str]]]:
    """Each shard's slice of a normalized tick: its records and duplicates."""
    per_items: list[list[tuple]] = [[] for _ in range(n_shards)]
    per_dups: list[list[str]] = [[] for _ in range(n_shards)]
    for serial, values in items:
        per_items[shard_for(serial, n_shards)].append((serial, values))
    for serial in duplicates:
        per_dups[shard_for(serial, n_shards)].append(serial)
    return per_items, per_dups


def _model(
    score_sample: Callable,
    score_batch: Optional[Callable],
    tree: Optional[object],
    feature_names: Optional[Sequence[str]],
) -> dict:
    """A serving model as the dict :func:`_shard_apply_model` reads."""
    return {
        "score_sample": score_sample,
        "score_batch": score_batch,
        "tree": tree,
        "feature_names": tuple(feature_names) if feature_names is not None else None,
    }


@dataclass(frozen=True)
class CanaryPolicy:
    """When does a canary generation win the fleet?

    After :meth:`ShardedFleetMonitor.begin_deployment` the canary
    shards serve the candidate model for ``soak_ticks`` collection
    ticks while the control shards stay on the incumbent.  At the end
    of the soak the per-drive-tick alert rates of the two groups are
    compared: the candidate passes when
    ``|canary_rate - control_rate| <= max_alert_rate_delta`` — alert
    parity, the serving-side analogue of the paper's updating story
    (a new model should page like the old one before it owns the
    fleet).
    """

    soak_ticks: int = 24
    max_alert_rate_delta: float = 0.01

    def __post_init__(self) -> None:
        check_count("soak_ticks", self.soak_ticks)
        delta = self.max_alert_rate_delta
        if not (math.isfinite(delta) and delta >= 0):
            raise ValueError(
                f"max_alert_rate_delta must be a finite number >= 0, got {delta!r}"
            )


@dataclass
class ShardSpec:
    """Everything needed to build one shard monitor, as picklable data.

    The coordinator ships this (not a built monitor) to worker
    processes; ``mode="process"`` therefore needs every field to be
    picklable — the tree scorers from
    :meth:`~repro.tree.base.ServingScorerMixin.sample_scorer` and
    :meth:`~repro.tree.base.ServingScorerMixin.batch_scorer` are, lambdas
    and closures are not.
    """

    features: tuple
    score_sample: Callable
    detector_factory: VoterSpec
    score_batch: Optional[Callable] = None
    quarantine: Optional[QuarantinePolicy] = None
    tree: Optional[object] = None
    feature_names: Optional[tuple] = None
    model_generation: int = 0

    def build(self) -> FleetMonitor:
        """A fresh shard monitor (SLO state stays coordinator-side)."""
        return FleetMonitor(**vars(self))


@dataclass(frozen=True)
class _ShardBuilder:
    """Worker-side state constructor: spec in, hosted shard cell out."""

    spec: ShardSpec

    def __call__(self) -> dict:
        return {"monitor": self.spec.build(), "roster": None, "feed": None}


@dataclass
class _Deployment:
    """In-flight canary rollout bookkeeping."""

    new_model: dict
    old_model: dict
    canaries: frozenset
    policy: CanaryPolicy
    generation: int
    ticks: int = 0
    canary_alerts: int = 0
    canary_drives: int = 0
    control_alerts: int = 0
    control_drives: int = 0


# -- shard-side entry points ---------------------------------------------------
#
# Module-level ``func(state, payload)`` callables submitted to a shard's
# host (LocalHost or WorkerHost).  ``state`` is the shard cell dict built
# by _ShardBuilder; everything they emit ships home in the envelope.


def _shard_tick(state: dict, payload: dict) -> dict:
    """One shard's slice of a tick, in one of two payload forms.

    Records carry ``items`` and ``duplicates`` (a normalized tick); a
    roster tick carries this shard's ``matrix`` slice of the registered
    roster, or no matrix to tick the pinned feed.
    """
    monitor: FleetMonitor = state["monitor"]
    hour = payload["hour"]
    shard = payload["shard"]
    registry = get_registry()
    n_faults = len(monitor.faults)
    start = perf_counter() if registry.enabled else 0.0
    items = payload.get("items")
    roster = state["roster"]
    with get_tracer().span(
        "shard.tick", category="shard", shard=shard,
        n_drives=len(items if items is not None else roster),
    ):
        if items is not None:
            alerts = monitor._tick(hour, items, payload["duplicates"])
        else:
            matrix = payload.get("matrix")
            alerts = monitor._tick_matrix(
                hour, roster, matrix if matrix is not None else state["feed"]
            )
    registry.counter(
        "shard.ticks", help=SHARD_TICKS_HELP, shard=str(shard)
    ).inc()
    if registry.enabled:
        registry.histogram(
            "shard.tick_seconds", unit="seconds", help=SHARD_TICK_SECONDS_HELP,
        ).observe(perf_counter() - start)
    return {"alerts": alerts, "faults": monitor.faults[n_faults:]}


def _shard_finalize(state: dict, payload: object) -> dict:
    return {"alerts": state["monitor"].finalize(), "faults": []}


def _shard_pin(state: dict, payload: dict) -> int:
    if "roster" in payload:
        state["roster"] = tuple(payload["roster"])
    if "feed" in payload:
        state["feed"] = payload["feed"]
    return len(state["roster"]) if state["roster"] is not None else 0


def _shard_status(state: dict, payload: object) -> dict:
    monitor: FleetMonitor = state["monitor"]
    watched = monitor.watched_drives()
    return {
        "n_watched": len(watched),
        "watched": watched,
        "degraded": monitor.degraded_drives(),
        "fault_counts": monitor.fault_counts(),
        "vote_flips": monitor.vote_flips,
    }


def _shard_drive_status(state: dict, serial: str) -> str:
    return state["monitor"].drive_status(serial).value


def _shard_apply_model(state: dict, payload: dict) -> int:
    """Swap a shard's model under full coordinator control.

    Deliberately *not* ``FleetMonitor.set_model``: generations are
    owned by the coordinator (canaries run ahead, rollbacks go back)
    and the lifecycle events (``model_replaced``, ``canary_*``) are
    emitted exactly once at the coordinator, never per shard.
    """
    monitor: FleetMonitor = state["monitor"]
    monitor.score_sample = payload["score_sample"]
    monitor.score_batch = payload["score_batch"]
    monitor.tree = payload["tree"]
    if payload.get("feature_names") is not None:
        monitor.feature_names = tuple(payload["feature_names"])
    monitor.model_generation = int(payload["generation"])
    return monitor.model_generation


def _dump(value: object, path: Union[str, Path]) -> None:
    """Pickle ``value`` to ``path`` and fsync it (one snapshot file)."""
    with open(path, "wb") as handle:
        pickle.dump(value, handle, protocol=5)
        handle.flush()
        os.fsync(handle.fileno())


def _shard_export(state: dict, path: str) -> int:
    """Write this shard's state to ``path``; returns its drive count.

    Pinned feeds are transient, not state.
    """
    _dump({"monitor": state["monitor"], "roster": state["roster"]}, path)
    return len(state["monitor"].watched_drives())


def _shard_load(state: dict, path: str) -> int:
    """Swap in the shard state stored at ``path``; returns its drive count.

    An unreadable file raises ``ValueError`` naming it, the error
    :meth:`ShardedFleetMonitor.restore_shard` documents for it; so does
    one whose state refuses to load, such as voting windows pickled in
    the row-major layout of earlier releases.
    """
    try:
        with open(path, "rb") as handle:
            loaded = pickle.load(handle)
    except (OSError, EOFError, ValueError, pickle.UnpicklingError) as error:
        raise ValueError(f"corrupt shard snapshot {path}: {error!r}") from error
    state["monitor"], state["roster"] = loaded["monitor"], loaded["roster"]
    return len(state["monitor"].watched_drives())


class ShardedFleetMonitor(_ServingFacade):
    """N shard monitors behind one ``FleetMonitor``-shaped facade.

    Args:
        features, score_sample, detector_factory, score_batch, tree,
        feature_names, model_generation: As
            :class:`~repro.detection.streaming.FleetMonitor`.  For
            ``mode="process"`` these must be picklable (a
            :class:`~repro.detection.streaming.VoterSpec` and the tree's
            ``sample_scorer()``/``batch_scorer()`` are).
        quarantine: The degraded-mode policy; required (strict mode is
            single-process only, see the module docs).
        slo: Optional coordinator-side
            :class:`~repro.observability.slo.SLOMonitor` fed by
            :meth:`resolve_outcome`.
        n_shards: Shard count; ``None`` defers to the ``REPRO_SHARDS``
            environment knob via
            :func:`~repro.utils.parallel.resolve_shards` (which also
            caps env-derived counts so shards x ``REPRO_N_JOBS`` never
            oversubscribes the machine).
        mode: The shard host type: ``"serial"`` (one
            :class:`~repro.utils.parallel.LocalHost` per shard, the
            zero-process reference) or ``"process"`` (one
            :class:`~repro.utils.parallel.WorkerHost` per shard).  An
            unpicklable spec degrades ``"process"`` to ``"serial"``
            under an :class:`~repro.utils.errors.UnpicklableTaskWarning`
            instead of failing.

    Example:
        >>> from repro.features.vectorize import Feature
        >>> monitor = ShardedFleetMonitor(
        ...     (Feature("POH"), Feature("TC")),
        ...     score_sample=lambda row: 1.0,
        ...     detector_factory=VoterSpec("majority", 3),
        ...     n_shards=2,
        ... )
        >>> import numpy as np
        >>> monitor.observe_fleet(0.0, [("d1", np.ones(12))])
        []
    """

    def __init__(
        self,
        features: Sequence[Feature],
        score_sample: Callable,
        detector_factory: VoterSpec,
        *,
        score_batch: Optional[Callable] = None,
        quarantine: Optional[QuarantinePolicy] = _DEFAULT_QUARANTINE,
        tree: Optional[object] = None,
        feature_names: Optional[Sequence[str]] = None,
        model_generation: int = 0,
        slo: Optional[object] = None,
        n_shards: Optional[int] = None,
        mode: str = "serial",
    ):
        if quarantine is None:
            raise ValueError(
                "ShardedFleetMonitor requires a quarantine policy; strict "
                "mode (quarantine=None) is only supported by a single "
                "FleetMonitor"
            )
        if mode not in SHARD_MODES:
            raise ValueError(f"mode must be one of {SHARD_MODES}, got {mode!r}")
        self._spec = ShardSpec(
            features=tuple(features),
            score_sample=score_sample,
            detector_factory=detector_factory,
            score_batch=score_batch,
            quarantine=quarantine,
            tree=tree,
            feature_names=tuple(feature_names) if feature_names is not None else None,
            model_generation=int(model_generation),
        )
        self.n_shards = resolve_shards(n_shards)
        self.quarantine = quarantine
        self.model_generation = int(model_generation)
        self.slo = slo
        self.alerts: list[Alert] = []
        self.faults: list[SampleFault] = []
        self._first_seen: list[str] = []
        self._seen: set[str] = set()
        self._last_hour: Optional[float] = None
        self._deployment: Optional[_Deployment] = None
        self.last_verdict: Optional[dict] = None
        self._current_model = _model(score_sample, score_batch, tree, feature_names)
        self._roster: Optional[tuple[str, ...]] = None
        self._positions: Optional[dict[str, int]] = None
        self._partition: Optional[list[np.ndarray]] = None
        self._sub_rosters: Optional[list[tuple[str, ...]]] = None
        self._roster_noted = False
        self._feed_pinned = False
        self._quarantined: set[int] = set()
        if mode == "process":
            try:
                pickle.dumps(self._spec)
            except Exception as error:
                warnings.warn(
                    "shard spec cannot cross a process boundary "
                    f"({error!r}); running shards in-process instead",
                    UnpicklableTaskWarning,
                    stacklevel=2,
                )
                mode = "serial"
        self.mode = mode
        self._host_type = WorkerHost if mode == "process" else LocalHost
        builder = _ShardBuilder(self._spec)
        self._hosts = [self._host_type(builder) for _ in range(self.n_shards)]

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Close every shard host (worker processes exit, state is released)."""
        for host in self._hosts:
            host.close()

    def __enter__(self) -> "ShardedFleetMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch plumbing -----------------------------------------------------

    def _raw_dispatch(
        self, calls: Iterable[tuple[int, Callable, object]]
    ) -> list[tuple[int, object]]:
        """Run ``func(state, payload)`` per shard; results in call order.

        ``calls`` may be lazy: each call is submitted as soon as it is
        produced, so a worker-hosted shard starts on its slice while the
        next one is still being cut (or journaled).  Every call is
        submitted before any result is collected, so worker-hosted shard
        slices execute concurrently (a local host runs each at submit
        time), and a hosted exception surfaces only once every shard has
        its slice.

        A shard that dies mid-call (or was already dead at submit time)
        surfaces as a :class:`~repro.utils.errors.WorkerDiedError`
        routed through :meth:`_handle_shard_death` — which re-raises
        here, and recovers in the supervised subclass.  A handler may
        return ``None`` to mean "this shard has no result this call"
        (quarantine); every merge path tolerates the gap.
        """
        submitted: list[tuple[int, Callable, object, object]] = []
        for sid, func, payload in calls:
            try:
                outcome: object = self._hosts[sid].submit(func, payload)
            except WorkerDiedError as error:
                outcome = error
            submitted.append((sid, func, payload, outcome))
        responses: list[tuple[int, object]] = []
        for sid, func, payload, outcome in submitted:
            if isinstance(outcome, WorkerDiedError):
                responses.append(
                    (sid, self._handle_shard_death(sid, func, payload, outcome))
                )
                continue
            try:
                responses.append((sid, outcome.result()))
            except WorkerDiedError as error:
                responses.append(
                    (sid, self._handle_shard_death(sid, func, payload, error))
                )
        return responses

    def _dispatch_input(
        self, calls: Iterable[tuple[int, Callable, object]], *, tick: bool
    ) -> list[tuple[int, object]]:
        """Dispatch calls that change what a shard serves: pins and ticks.

        Every roster/feed pin and every tick slice goes through here,
        so a subclass sees exactly the ``(shard, func, payload)`` calls
        the shards were sent; ``tick`` says which of the two it is.
        ``SupervisedShardedMonitor`` journals each call here as it is
        sent.
        """
        return self._raw_dispatch(calls)

    def _handle_shard_death(
        self, sid: int, func: Callable, payload: object, error: WorkerDiedError
    ) -> object:
        """What to do when shard ``sid`` died under ``func(payload)``.

        The base coordinator has no recovery machinery, so the death is
        fatal: the error propagates and the operator restores by hand
        (:meth:`restore_shard`).  ``SupervisedShardedMonitor`` overrides
        this with snapshot-restore + journal-replay and returns the
        replacement result for the in-flight call.
        """
        raise error

    def _replace_host(self, shard: int, build: Callable) -> None:
        """Kill shard ``shard``'s host and host ``build()`` in its place."""
        self._hosts[shard].kill()
        self._hosts[shard] = self._host_type(build)

    def _active_shards(self) -> list[int]:
        """Shard ids still serving (quarantined shards are excluded)."""
        return [
            sid for sid in range(self.n_shards) if sid not in self._quarantined
        ]

    def _check_shard(self, shard: int, name: str = "shard") -> int:
        """Validate a shard id: an integer (not a bool) in ``range(n_shards)``."""
        check_count(name, shard, strict=False)
        if shard >= self.n_shards:
            raise ValueError(
                f"{name} {shard!r} is outside 0..{self.n_shards - 1}"
            )
        return int(shard)

    def kill_shard(self, shard: int) -> None:
        """Kill one shard's host without warning (chaos/testing hook).

        The hosted state is dropped (a worker host's process is
        terminated), so the next dispatch to that shard raises
        :class:`~repro.utils.errors.WorkerDiedError` (or triggers
        supervised recovery).
        """
        self._hosts[self._check_shard(shard)].kill()

    def quarantine_shard(self, shard: int) -> None:
        """Permanently stop dispatching to one shard (degraded mode).

        The shard's drives stop being served and its worker is released;
        the hole is *reported* — ``health_report()['sharding']`` lists
        quarantined shards — but never paged.  This is the supervisor's
        last resort when a shard keeps flapping; the base class exposes
        it for operators who want to cut a shard loose by hand.
        """
        shard = self._check_shard(shard)
        if shard in self._quarantined:
            return
        self._quarantined.add(shard)
        self._hosts[shard].kill()
        get_event_log().emit(
            "shard_quarantined",
            hour=self._last_hour,
            shard=shard,
            n_shards=self.n_shards,
        )

    @property
    def quarantined_shards(self) -> list[int]:
        """Shard ids currently excluded from serving."""
        return sorted(self._quarantined)

    def _absorb(self, envelope: object, id_map: Optional[dict] = None) -> object:
        """Fold one shard envelope into the coordinator's instruments."""
        if not isinstance(envelope, RemoteObservation):
            return envelope
        if id_map and envelope.events:
            envelope.events = [
                self._rewrite_alert_id(event, id_map) for event in envelope.events
            ]
        return absorb_remote(envelope, parent_path=get_tracer().current_path())

    @staticmethod
    def _rewrite_alert_id(event, id_map: dict):
        if event.type != "alert_raised":
            return event
        renamed = id_map.get(event.data.get("alert_id"))
        if renamed is None:
            return event
        return replace(event, data={**event.data, "alert_id": renamed})

    def _note_seen(self, serial: str) -> None:
        if serial not in self._seen:
            self._seen.add(serial)
            self._first_seen.append(serial)

    # -- tick ingestion --------------------------------------------------------

    def observe(
        self, serial: str, hour: float, channel_values: Sequence[float]
    ) -> Optional[Alert]:
        """Ingest one record via its owning shard (see ``FleetMonitor.observe``)."""
        alerts = self._serve(hour, [(serial, channel_values)], [], collection=False)
        return alerts[0] if alerts else None

    def observe_fleet(
        self,
        hour: float,
        records: Union[Mapping[str, Sequence[float]], Iterable[tuple]],
    ) -> list[Alert]:
        """Ingest one collection tick, fanned out across the shards.

        Semantics (normalization, duplicate-serial faults, alert order,
        alert ids) are exactly ``FleetMonitor.observe_fleet`` on a
        single monitor — sharding is invisible in the result.
        """
        items, duplicates = _normalize_tick(records)
        return self._serve(hour, items, duplicates)

    def register_fleet(self, serials: Iterable[str]) -> tuple[str, ...]:
        """Fix the tick roster; partitions it and pins sub-rosters shard-side.

        Pinning resolves each shard's serial→row keying once (worker-
        resident in process mode), so repeated :meth:`observe_tick`
        calls ship only the matrix slices; the roster's serial→position
        map, which orders the merge, is built here once too.  A roster
        with duplicate serials cannot be partitioned statically and
        falls back to the normalizing path per tick.
        """
        roster = tuple(serials)
        positions = {serial: at for at, serial in enumerate(roster)}
        self._roster = roster
        self._roster_noted = False
        self._feed_pinned = False
        if len(positions) != len(roster):
            self._positions = self._partition = self._sub_rosters = None
            return roster
        self._positions = positions
        self._partition, self._sub_rosters = _partition_roster(
            roster, self.n_shards
        )
        calls = [
            (sid, _shard_pin, {"roster": self._sub_rosters[sid]})
            for sid in self._active_shards()
        ]
        for _, envelope in self._dispatch_input(calls, tick=False):
            self._absorb(envelope)
        return roster

    def pin_feed(self, values: np.ndarray) -> None:
        """Ship each shard its static slice of the fleet matrix, once.

        For stable fleets whose readings are generated or ingested
        shard-locally (and for throughput benchmarks): after pinning,
        ``observe_tick(hour)`` with no ``values`` ticks the worker-
        resident slice — the coordinator sends one float per shard per
        tick instead of re-serializing gigabytes of telemetry.
        """
        _, matrix = self._tick_values(values, None, self._roster)
        if self._partition is None:
            raise ValueError(
                "pin_feed needs a duplicate-free roster: call "
                "register_fleet() first"
            )
        calls = [
            (
                sid,
                _shard_pin,
                {
                    "roster": self._sub_rosters[sid],
                    "feed": matrix[self._partition[sid]],
                },
            )
            for sid in self._active_shards()
        ]
        for _, envelope in self._dispatch_input(calls, tick=False):
            self._absorb(envelope)
        self._feed_pinned = True

    def observe_tick(
        self,
        hour: float,
        values: Optional[np.ndarray] = None,
        serials: Optional[Sequence[str]] = None,
    ) -> list[Alert]:
        """Ingest one collection tick as a channel matrix (the array path).

        With ``values=None`` the shards tick their pinned feed (see
        :meth:`pin_feed`).  An explicit ``serials`` roster (or a
        registered roster with duplicates) takes the normalizing
        records path — correct, but re-partitioned per tick.
        """
        roster, matrix = self._tick_values(
            values, serials, self._roster, pinned=self._feed_pinned
        )
        if serials is not None or self._partition is None:
            items, duplicates = _normalize_tick(zip(roster, matrix))
            return self._serve(hour, items, duplicates)
        return self._serve(hour, None, None, matrix=matrix)

    def _serve(
        self,
        hour: float,
        items: Optional[list[tuple]],
        duplicates: Optional[list[str]],
        *,
        matrix: Optional[np.ndarray] = None,
        collection: bool = True,
    ) -> list[Alert]:
        """Dispatch one tick to its shards and merge what they return.

        Every ingest comes through here.  ``items``/``duplicates`` are a
        normalized records tick (:func:`_normalize_tick`);
        ``items=None`` ticks the registered roster with ``matrix``, or
        with the pinned feed when ``matrix`` is ``None``.
        ``collection=False`` is :meth:`observe`: no tick-level
        instrumentation and no canary soak count.
        """
        calls: Iterable[tuple[int, Callable, dict]]
        sizes: dict[int, int] = {}
        dup_counts: dict[int, int] = {}
        if items is None:
            positions, duplicates = self._positions, []
            if not self._roster_noted:
                for serial in self._roster:
                    self._note_seen(serial)
                self._roster_noted = True
            for sid in self._active_shards():
                if len(self._partition[sid]):
                    sizes[sid] = len(self._partition[sid])
            # Lazy: a shard's slice is cut only when its call is sent, so
            # shard k works while shard k+1's slice is cut and sent.
            calls = (
                (sid, _shard_tick, self._roster_payload(hour, sid, matrix))
                for sid in sizes
            )
        else:
            calls = []
            positions = {serial: at for at, (serial, _) in enumerate(items)}
            # First-seen bookkeeping mirrors a single monitor's row
            # allocation: duplicate occurrences register before the items.
            for serial in duplicates:
                self._note_seen(serial)
            for serial, _ in items:
                self._note_seen(serial)
            per_items, per_dups = _split_tick(items, duplicates, self.n_shards)
            for sid in self._active_shards():
                if not per_items[sid] and not per_dups[sid]:
                    continue
                sizes[sid] = len(per_items[sid])
                dup_counts[sid] = len(per_dups[sid])
                calls.append((sid, _shard_tick, {
                    "hour": hour, "shard": sid,
                    "items": per_items[sid], "duplicates": per_dups[sid],
                }))
        with self._collection_tick(len(positions)) if collection else nullcontext():
            responses = self._dispatch_input(calls, tick=True)
            alerts = self._merge(responses, positions, duplicates, dup_counts)
        self._last_hour = float(hour) if np.isfinite(hour) else self._last_hour
        deployment = self._deployment
        if collection and deployment is not None:
            # Canary soak accounting: drives served and alerts raised
            # per group, over collection ticks only.
            for sid, size in sizes.items():
                if sid in deployment.canaries:
                    deployment.canary_drives += size
                else:
                    deployment.control_drives += size
            for alert in alerts:
                if shard_for(alert.serial, self.n_shards) in deployment.canaries:
                    deployment.canary_alerts += 1
                else:
                    deployment.control_alerts += 1
            deployment.ticks += 1
            self._maybe_resolve_deployment()
        return alerts

    def _roster_payload(
        self, hour: float, sid: int, matrix: Optional[np.ndarray]
    ) -> dict:
        """Shard ``sid``'s roster-tick payload: its matrix slice, or none."""
        payload: dict = {"hour": hour, "shard": sid}
        if matrix is not None:
            payload["matrix"] = matrix[self._partition[sid]]
        return payload

    def _merge(
        self,
        responses: list[tuple[int, object]],
        positions: dict[str, int],
        duplicates: list[str],
        dup_counts: dict[int, int],
    ) -> list[Alert]:
        """Fold shard results into the coordinator's alerts, faults and logs.

        ``positions`` orders the merge: a tick's record order, or
        first-seen order for :meth:`finalize`.  Alerts take dense
        coordinator ids in that order, so ``alerts``/``alert_id`` are
        bit-identical to one monitor.  Faults append as one monitor
        appends them: duplicate-serial faults (each shard's first
        ``dup_counts[sid]``) in discovery order, then record faults in
        position order, since a tick has one record per serial.
        """
        results: dict[int, dict] = {}
        envelopes: list[tuple[int, RemoteObservation]] = []
        for sid, envelope in responses:
            if envelope is None:
                # Quarantined mid-call: the shard has no result this
                # tick; its drives go unserved, never unreported.
                continue
            if isinstance(envelope, RemoteObservation):
                results[sid] = envelope.result
                envelopes.append((sid, envelope))
            else:
                results[sid] = envelope

        found = sorted(
            (
                (positions[alert.serial], sid, alert)
                for sid, result in results.items()
                for alert in result["alerts"]
            ),
            key=lambda entry: entry[0],
        )
        id_maps: dict[int, dict] = {sid: {} for sid in results}
        merged: list[Alert] = []
        for _, sid, alert in found:
            renamed = replace(alert, alert_id=self._new_alert_id())
            id_maps[sid][alert.alert_id] = renamed.alert_id
            self.alerts.append(renamed)
            merged.append(renamed)

        dup_queues: dict[int, deque] = {}
        record_faults: list[SampleFault] = []
        for sid, result in results.items():
            k = dup_counts.get(sid, 0)
            dup_queues[sid] = deque(result["faults"][:k])
            record_faults.extend(result["faults"][k:])
        for serial in duplicates:
            queue = dup_queues.get(shard_for(serial, self.n_shards))
            if queue:
                self.faults.append(queue.popleft())
        record_faults.sort(key=lambda fault: positions[fault.serial])
        self.faults.extend(record_faults)

        # Observability: absorb envelopes in shard-id order with the
        # alert ids rewritten, so the merged event stream is ordered by
        # (logical hour, shard id, shard-local seq) and names the
        # coordinator's alerts.
        for sid, envelope in envelopes:
            self._absorb(envelope, id_maps.get(sid))
        return merged

    def finalize(self) -> list[Alert]:
        """Short-history flush, merged in global first-seen order."""
        calls = [(sid, _shard_finalize, None) for sid in self._active_shards()]
        positions = {serial: at for at, serial in enumerate(self._first_seen)}
        return self._merge(self._raw_dispatch(calls), positions, [], {})

    # -- model lifecycle and rolling deployment --------------------------------

    def set_model(
        self,
        score_sample: Callable,
        *,
        score_batch: Optional[Callable] = None,
        tree: Optional[object] = None,
        feature_names: Optional[Sequence[str]] = None,
    ) -> int:
        """Swap the serving model on every shard; returns the new generation.

        Emits exactly one ``model_replaced`` event (at the coordinator),
        like :meth:`FleetMonitor.set_model` on a single monitor.
        """
        if self._deployment is not None:
            raise RuntimeError(
                "a canary deployment is in flight; let it resolve (or "
                "restore from a snapshot) before swapping models directly"
            )
        model = _model(score_sample, score_batch, tree, feature_names)
        generation = self.model_generation + 1
        self._apply_model(range(self.n_shards), model, generation)
        previous = self.model_generation
        self.model_generation = generation
        self._current_model = model
        get_event_log().emit(
            "model_replaced",
            from_generation=previous,
            to_generation=generation,
        )
        return generation

    def _apply_model(
        self, shards: Iterable[int], model: dict, generation: int
    ) -> None:
        payload = {**model, "generation": generation}
        calls = [
            (sid, _shard_apply_model, payload)
            for sid in sorted(shards)
            if sid not in self._quarantined
        ]
        for _, envelope in self._raw_dispatch(calls):
            self._absorb(envelope)

    def begin_deployment(
        self,
        score_sample: Callable,
        *,
        canary_shards: Sequence[int] = (0,),
        policy: CanaryPolicy = CanaryPolicy(),
        score_batch: Optional[Callable] = None,
        tree: Optional[object] = None,
        feature_names: Optional[Sequence[str]] = None,
    ) -> int:
        """Start a rolling deployment: canary shards serve the candidate.

        The canaries switch to generation ``current + 1`` immediately;
        the control shards keep serving the incumbent.  For the next
        ``policy.soak_ticks`` collection ticks the coordinator compares
        alert rates between the two groups, then resolves the rollout
        automatically: parity within ``policy.max_alert_rate_delta``
        cuts the whole fleet over (``fleet_cutover``), anything else
        rolls the canaries back (``fleet_rollback``).  Returns the
        candidate generation.
        """
        if self._deployment is not None:
            raise RuntimeError("a canary deployment is already in flight")
        canaries = frozenset(
            self._check_shard(sid, "canary_shards entry") for sid in canary_shards
        )
        if not canaries:
            raise ValueError("canary_shards must name at least one shard")
        if len(canaries) == self.n_shards:
            raise ValueError(
                "canary_shards covers every shard; a deployment needs a "
                "control group to compare against"
            )
        new_model = _model(score_sample, score_batch, tree, feature_names)
        generation = self.model_generation + 1
        self._apply_model(canaries, new_model, generation)
        self._deployment = _Deployment(
            new_model=new_model,
            old_model=dict(self._current_model),
            canaries=canaries,
            policy=policy,
            generation=generation,
        )
        get_event_log().emit(
            "canary_started",
            hour=self._last_hour,
            generation=generation,
            canary_shards=sorted(canaries),
            soak_ticks=policy.soak_ticks,
        )
        return generation

    def _maybe_resolve_deployment(self) -> None:
        deployment = self._deployment
        if deployment is None or deployment.ticks < deployment.policy.soak_ticks:
            return
        canary_rate = (
            deployment.canary_alerts / deployment.canary_drives
            if deployment.canary_drives
            else 0.0
        )
        control_rate = (
            deployment.control_alerts / deployment.control_drives
            if deployment.control_drives
            else 0.0
        )
        passed = bool(
            abs(canary_rate - control_rate)
            <= deployment.policy.max_alert_rate_delta
        )
        log = get_event_log()
        log.emit(
            "canary_verdict",
            hour=self._last_hour,
            generation=deployment.generation,
            passed=passed,
            canary_alert_rate=round(canary_rate, 9),
            control_alert_rate=round(control_rate, 9),
            soak_ticks=deployment.policy.soak_ticks,
        )
        if passed:
            controls = set(range(self.n_shards)) - deployment.canaries
            self._apply_model(controls, deployment.new_model, deployment.generation)
            previous = self.model_generation
            self.model_generation = deployment.generation
            self._current_model = deployment.new_model
            log.emit(
                "fleet_cutover",
                hour=self._last_hour,
                from_generation=previous,
                to_generation=deployment.generation,
                canary_shards=sorted(deployment.canaries),
            )
        else:
            self._apply_model(
                deployment.canaries, deployment.old_model, self.model_generation
            )
            log.emit(
                "fleet_rollback",
                hour=self._last_hour,
                from_generation=deployment.generation,
                to_generation=self.model_generation,
                canary_shards=sorted(deployment.canaries),
            )
        self.last_verdict = {
            "passed": passed,
            "generation": deployment.generation,
            "canary_alert_rate": canary_rate,
            "control_alert_rate": control_rate,
        }
        self._deployment = None

    @property
    def deployment_active(self) -> bool:
        """Whether a canary rollout is currently soaking."""
        return self._deployment is not None

    # -- snapshot / restore ----------------------------------------------------

    def _coordinator_state(self) -> dict:
        return {
            "spec": self._spec,
            "mode": self.mode,
            "n_shards": self.n_shards,
            "alerts": self.alerts,
            "faults": self.faults,
            "first_seen": self._first_seen,
            "model_generation": self.model_generation,
            "current_model": self._current_model,
            "slo": self.slo,
            "last_hour": self._last_hour,
            "deployment": self._deployment,
            "last_verdict": self.last_verdict,
            "quarantined": sorted(self._quarantined),
        }

    def _snapshot(
        self, shards: list[int], directory: Union[str, Path], *, coordinator: bool
    ) -> Path:
        """Export ``shards`` into ``directory``, then publish them together.

        Every shard pickles itself to ``shard-<i>.pkl.tmp`` through one
        dispatch; a shard that dies mid-export goes through
        :meth:`_handle_shard_death` like any call, and one quarantined
        mid-export answers ``None`` and is skipped.  Only once every
        shard has answered are the files (plus ``coordinator.pkl``)
        renamed into place and the directory fsync'd, so a failed
        snapshot publishes nothing.  A crash *during* the renames leaves
        a per-file mix of old and new.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        calls = [
            (sid, _shard_export, str(directory / f"shard-{sid}.pkl.tmp"))
            for sid in shards
        ]
        exported = [
            (sid, self._absorb(envelope))
            for sid, envelope in self._raw_dispatch(calls)
            if envelope is not None
        ]
        names = [f"shard-{sid}.pkl" for sid, _ in exported]
        if coordinator:
            _dump(self._coordinator_state(), directory / "coordinator.pkl.tmp")
            names.append("coordinator.pkl")
        for name in names:
            os.replace(directory / f"{name}.tmp", directory / name)
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        for sid, n_drives in exported:
            get_registry().counter(
                "shard.snapshots", help=SHARD_SNAPSHOTS_HELP
            ).inc()
            get_event_log().emit(
                "shard_snapshot", hour=self._last_hour, shard=sid, n_drives=n_drives
            )
        return directory

    def snapshot_shard(self, shard: int, directory: Union[str, Path]) -> Path:
        """Write one shard's state to ``<directory>/shard-<i>.pkl``."""
        shard = self._check_shard(shard)
        if shard in self._quarantined:
            raise WorkerDiedError(
                f"shard {shard} is quarantined; it has no state to export"
            )
        return self._snapshot([shard], directory, coordinator=False)

    def snapshot(self, directory: Union[str, Path]) -> Path:
        """Write every live shard plus the coordinator into ``directory``.

        The directory holds one ``shard-<i>.pkl`` per shard and a
        ``coordinator.pkl``; it restores to a monitor that is
        bit-identical mid-stream: same alerts/faults/events-to-come,
        same voting windows, same SLO state.  Pinned feeds
        (:meth:`pin_feed`) are transient and must be re-pinned.
        """
        return self._snapshot(self._active_shards(), directory, coordinator=True)

    def restore_shard(self, shard: int, directory: Union[str, Path]) -> None:
        """Replace one shard's state from a snapshot (kill-and-resume).

        The shard's host (dead or not) is killed and replaced by a
        fresh host of the same type, which loads ``shard-<i>.pkl``
        itself — the resumed shard continues the stream bit-identically
        from the snapshot point.  A missing file raises ``KeyError``; an
        unreadable one raises ``ValueError`` and leaves the shard dead.
        """
        shard = self._check_shard(shard)
        path = Path(directory) / f"shard-{shard}.pkl"
        if not path.exists():
            raise KeyError(f"snapshot {directory} has no file for shard {shard}")
        self._replace_host(shard, _ShardBuilder(self._spec))
        try:
            n_drives = self._absorb(self._hosts[shard].call(_shard_load, str(path)))
        except ValueError:
            self._hosts[shard].kill()
            raise
        self._quarantined.discard(shard)
        # The snapshot's roster may predate the coordinator's current
        # registration; re-pin the live sub-roster so the matrix path
        # keys rows correctly on the restored shard.  Feeds are
        # transient on *every* shard-side cell, so one lost feed
        # invalidates the fleet-wide pin — callers re-pin via pin_feed.
        if self._sub_rosters is not None:
            for _, envelope in self._raw_dispatch(
                [(shard, _shard_pin, {"roster": self._sub_rosters[shard]})]
            ):
                self._absorb(envelope)
        self._feed_pinned = False
        get_registry().counter(
            "shard.restores", help=SHARD_RESTORES_HELP
        ).inc()
        get_event_log().emit(
            "shard_restored", hour=self._last_hour, shard=shard, n_drives=n_drives
        )

    @classmethod
    def restore(
        cls, directory: Union[str, Path], *, mode: Optional[str] = None
    ) -> "ShardedFleetMonitor":
        """Rebuild a whole coordinator (and all shards) from a snapshot.

        ``mode`` overrides the snapshotted execution mode — a snapshot
        taken from a process-mode fleet restores fine into serial mode
        and vice versa; the serving state is mode-independent.
        """
        path = Path(directory) / "coordinator.pkl"
        if not path.exists():
            raise KeyError(f"snapshot {directory} has no coordinator file")
        with path.open("rb") as handle:
            coord = pickle.load(handle)
        spec: ShardSpec = coord["spec"]
        self = cls(
            **vars(spec),
            slo=coord["slo"],
            n_shards=coord["n_shards"],
            mode=mode if mode is not None else coord["mode"],
        )
        self.alerts = coord["alerts"]
        self.faults = coord["faults"]
        self._first_seen = coord["first_seen"]
        self._seen = set(self._first_seen)
        self.model_generation = coord["model_generation"]
        self._current_model = coord["current_model"]
        self._last_hour = coord["last_hour"]
        self._deployment = coord["deployment"]
        self.last_verdict = coord["last_verdict"]
        quarantined = set(coord.get("quarantined", ()))
        for shard in range(self.n_shards):
            if shard in quarantined:
                # The shard was cut loose before the snapshot; there is
                # no file to restore and it stays out of the rotation.
                self._hosts[shard].kill()
                self._quarantined.add(shard)
                continue
            self.restore_shard(shard, directory)
        return self

    # -- reporting -------------------------------------------------------------

    #: What a quarantined shard reports: nothing is served, nothing is
    #: counted — the hole shows up in the topology section instead.
    _QUARANTINED_STATUS = {
        "n_watched": 0,
        "watched": [],
        "degraded": [],
        "fault_counts": {},
        "vote_flips": 0,
    }

    def _statuses(self) -> list[dict]:
        calls = [(sid, _shard_status, None) for sid in self._active_shards()]
        by_sid = {
            sid: self._absorb(envelope)
            for sid, envelope in self._raw_dispatch(calls)
        }
        return [
            by_sid.get(sid) or dict(self._QUARANTINED_STATUS)
            for sid in range(self.n_shards)
        ]

    @property
    def vote_flips(self) -> int:
        """Fleet-total alarm-signal transitions (summed over shards)."""
        return sum(status["vote_flips"] for status in self._statuses())

    def watched_drives(self) -> list[str]:
        """Serials currently tracked, fleet-wide."""
        serials: list[str] = []
        for status in self._statuses():
            serials.extend(status["watched"])
        return sorted(serials)

    def degraded_drives(self) -> list[str]:
        """Serials currently quarantined, fleet-wide."""
        serials: list[str] = []
        for status in self._statuses():
            serials.extend(status["degraded"])
        return sorted(serials)

    def fault_counts(self) -> dict[str, int]:
        """Per-drive count of quarantined ticks, fleet-wide."""
        counts: dict[str, int] = {}
        for status in self._statuses():
            counts.update(status["fault_counts"])
        return dict(sorted(counts.items()))

    def drive_status(self, serial: str) -> DriveStatus:
        """Serving status of one drive (resolved on its owning shard)."""
        sid = shard_for(serial, self.n_shards)
        if sid in self._quarantined:
            raise WorkerDiedError(
                f"drive {serial!r} lives on shard {sid}, which is quarantined"
            )
        return DriveStatus(
            self._absorb(self._hosts[sid].call(_shard_drive_status, serial))
        )

    def health_report(self) -> dict[str, object]:
        """One-call fleet summary, shaped exactly like a single monitor's.

        Every shared key (schema, counters, degraded list, SLO status,
        ``serve.*`` metrics) is bit-identical to the report a single
        ``FleetMonitor`` would produce on the same stream; the
        extra ``"sharding"`` section describes the deployment topology.
        """
        statuses = self._statuses()
        report = self._health_report(
            sum(status["n_watched"] for status in statuses),
            sorted(serial for status in statuses for serial in status["degraded"]),
            sum(status["vote_flips"] for status in statuses),
        )
        report["sharding"] = {
            "n_shards": self.n_shards,
            "mode": self.mode,
            "shard_drives": [status["n_watched"] for status in statuses],
            "quarantined_shards": sorted(self._quarantined),
        }
        return report
