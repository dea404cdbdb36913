"""Sharded fleet serving: one logical monitor over millions of drives.

A single :class:`~repro.detection.streaming.FleetMonitor` is one
process, so fleet throughput stops at one core.  This module scales the
same serving semantics *out*: :class:`ShardedFleetMonitor` partitions
drives across N shard monitors by a stable serial hash
(:func:`shard_for`), fans every collection tick out to the shards —
in-process (``mode="serial"``) or on long-lived worker processes
(``mode="process"``, one :class:`~repro.utils.parallel.WorkerHost` per
shard) — and merges the per-shard results back into one
coordinator-level truth:

* **Alerts** come home per shard with shard-local ids, are re-ordered
  into the tick's global record order and re-assigned dense coordinator
  ids, so ``alerts``/``alert_id`` are bit-identical to a single
  monitor over the same stream.
* **Faults** merge deterministically: duplicate-serial faults in global
  discovery order, then record faults in global record order — the
  exact list a single monitor would have appended.
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
needs: :meth:`snapshot`/:meth:`restore_shard` persist per-shard state
through :class:`~repro.utils.checkpoint.JsonCheckpoint` (kind
``shard-snapshot``) so a killed shard resumes **bit-identically**
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

import pickle
import warnings
import zlib
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.detection.streaming import (
    HEALTH_REPORT_SCHEMA,
    Alert,
    DriveStatus,
    FleetMonitor,
    QuarantinePolicy,
    VoterSpec,
    _normalize_tick,
)
from repro.features.vectorize import Feature
from repro.observability import (
    RemoteObservation,
    absorb_remote,
    capture_remote,
    get_event_log,
    get_registry,
    get_tracer,
    worker_config,
)
from repro.smart.attributes import N_CHANNELS
from repro.utils.checkpoint import (
    SHARD_SNAPSHOT_KIND,
    JsonCheckpoint,
    decode_object,
    encode_object,
)
from repro.utils.errors import (
    SampleFault,
    UnpicklableTaskWarning,
    WorkerDiedError,
)
from repro.utils.parallel import WorkerHost, resolve_shards

#: Execution modes: ``"serial"`` ticks shards in-process (deterministic
#: reference, zero processes), ``"process"`` hosts each shard on its own
#: long-lived worker (the scale-out path).  Both produce identical
#: output — the merge path is shared.
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
        if self.soak_ticks < 1:
            raise ValueError(f"soak_ticks must be >= 1, got {self.soak_ticks}")


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
        return FleetMonitor(
            self.features,
            score_sample=self.score_sample,
            detector_factory=self.detector_factory,
            score_batch=self.score_batch,
            quarantine=self.quarantine,
            tree=self.tree,
            feature_names=self.feature_names,
            model_generation=self.model_generation,
            slo=None,
        )


@dataclass(frozen=True)
class _ShardBuilder:
    """Worker-side state constructor: spec in, hosted shard cell out."""

    spec: ShardSpec

    def __call__(self) -> dict:
        return {"monitor": self.spec.build(), "roster": None, "feed": None}


@dataclass(frozen=True)
class _PickledShard:
    """Worker-side state constructor for restored shards (snapshot blob in)."""

    blob: bytes

    def __call__(self) -> dict:
        state = pickle.loads(self.blob)
        return {
            "monitor": state["monitor"],
            "roster": state.get("roster"),
            "feed": None,
        }


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
# Module-level ``func(state, payload)`` callables, executed either
# in-process (serial mode, under capture_remote) or inside a WorkerHost
# (process mode).  ``state`` is the shard cell dict built by
# _ShardBuilder; everything they emit ships home in the envelope.


def _shard_tick(state: dict, payload: dict) -> dict:
    monitor: FleetMonitor = state["monitor"]
    hour = payload["hour"]
    shard = payload["shard"]
    registry = get_registry()
    n_faults = len(monitor.faults)
    start = perf_counter() if registry.enabled else 0.0
    if "matrix" in payload or payload.get("pinned"):
        roster = payload.get("roster")
        if roster is None:
            roster = state["roster"]
        matrix = payload.get("matrix")
        if matrix is None:
            matrix = state["feed"]
        with get_tracer().span(
            "shard.tick", category="shard", shard=shard, n_drives=len(roster)
        ):
            alerts = monitor.shard_tick(hour, None, None, roster=roster, matrix=matrix)
    else:
        items = payload["items"]
        duplicates = payload["duplicates"]
        with get_tracer().span(
            "shard.tick", category="shard", shard=shard, n_drives=len(items)
        ):
            if payload.get("single"):
                serial, values = items[0]
                alert = monitor.observe(serial, hour, values)
                alerts = [alert] if alert is not None else []
            else:
                alerts = monitor.shard_tick(hour, items, duplicates)
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


def _shard_export(state: dict, payload: object) -> dict:
    """The picklable snapshot of one shard (pinned feeds are not state)."""
    return {"monitor": state["monitor"], "roster": state["roster"]}


class ShardedFleetMonitor:
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
        mode: ``"serial"`` (in-process shards, the deterministic
            reference) or ``"process"`` (one
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

    _DEFAULT_QUARANTINE = QuarantinePolicy()

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
        self._alerted_serials: set[str] = set()
        self._first_seen: list[str] = []
        self._seen: set[str] = set()
        self._last_hour: Optional[float] = None
        self._deployment: Optional[_Deployment] = None
        self.last_verdict: Optional[dict] = None
        self._current_model = {
            "score_sample": score_sample,
            "score_batch": score_batch,
            "tree": tree,
            "feature_names": self._spec.feature_names,
        }
        self._roster: Optional[tuple[str, ...]] = None
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
        builder = _ShardBuilder(self._spec)
        if mode == "process":
            self._shards: Optional[list[dict]] = None
            self._hosts: Optional[list[WorkerHost]] = [
                WorkerHost(builder) for _ in range(self.n_shards)
            ]
        else:
            self._shards = [builder() for _ in range(self.n_shards)]
            self._hosts = None

    @classmethod
    def from_predictor(
        cls,
        predictor,
        detector_factory: VoterSpec,
        **kwargs,
    ) -> "ShardedFleetMonitor":
        """Shard-serve a fitted pipeline's tree.

        The sharded counterpart of :meth:`FleetMonitor.from_predictor`:
        the tree's ``sample_scorer()``/``batch_scorer()`` ship to shard
        workers whenever the tree itself pickles.
        """
        tree = predictor.tree_
        if tree is None:
            raise RuntimeError("predictor is not fitted; call fit() first")
        return cls(
            predictor.extractor.features,
            score_sample=tree.sample_scorer(),
            detector_factory=detector_factory,
            score_batch=tree.batch_scorer(),
            tree=tree,
            **kwargs,
        )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut down shard workers (no-op in serial mode)."""
        if self._hosts is not None:
            for host in self._hosts:
                if host.alive:
                    host.close()

    def __enter__(self) -> "ShardedFleetMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch plumbing -----------------------------------------------------

    def _raw_dispatch(
        self, calls: list[tuple[int, Callable, object]]
    ) -> list[tuple[int, object]]:
        """Run ``func(state, payload)`` per shard; results in call order.

        Process mode submits every call before collecting any result,
        so shard slices execute concurrently; serial mode runs them
        in-process under :func:`~repro.observability.capture_remote`
        so both modes hand back the same envelope shape.

        A shard that dies mid-call (or was already dead at submit time)
        surfaces as a :class:`~repro.utils.errors.WorkerDiedError`
        routed through :meth:`_handle_shard_death` — which re-raises
        here, and recovers in the supervised subclass.  A handler may
        return ``None`` to mean "this shard has no result this call"
        (quarantine); every merge path tolerates the gap.
        """
        if self._hosts is not None:
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
        config = worker_config()
        responses = []
        for sid, func, payload in calls:
            shard = self._shards[sid]
            if shard is None:
                error = WorkerDiedError(
                    f"shard {sid} is dead (killed in serial mode); restore "
                    f"it from a snapshot before dispatching more calls"
                )
                responses.append(
                    (sid, self._handle_shard_death(sid, func, payload, error))
                )
                continue
            responses.append((sid, capture_remote(config, func, shard, payload)))
        return responses

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

    def _active_shards(self) -> list[int]:
        """Shard ids still serving (quarantined shards are excluded)."""
        return [
            sid for sid in range(self.n_shards) if sid not in self._quarantined
        ]

    def kill_shard(self, shard: int) -> None:
        """Kill one shard's worker without warning (chaos/testing hook).

        Process mode terminates the host's worker process; serial mode
        drops the in-process shard cell.  Either way the next dispatch
        to that shard raises :class:`~repro.utils.errors.WorkerDiedError`
        (or triggers supervised recovery).
        """
        if self._hosts is not None:
            self._hosts[shard].kill()
        else:
            self._shards[shard] = None

    def quarantine_shard(self, shard: int) -> None:
        """Permanently stop dispatching to one shard (degraded mode).

        The shard's drives stop being served and its worker is released;
        the hole is *reported* — ``health_report()['sharding']`` lists
        quarantined shards — but never paged.  This is the supervisor's
        last resort when a shard keeps flapping; the base class exposes
        it for operators who want to cut a shard loose by hand.
        """
        shard = int(shard)
        if shard in self._quarantined:
            return
        self._quarantined.add(shard)
        if self._hosts is not None:
            if self._hosts[shard].alive:
                self._hosts[shard].kill()
        else:
            self._shards[shard] = None
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
        alerts = self._tick(hour, [(serial, channel_values)], [], single=True)
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
        return self._tick(hour, items, duplicates)

    def register_fleet(self, serials: Iterable[str]) -> tuple[str, ...]:
        """Fix the tick roster; partitions it and pins sub-rosters shard-side.

        Pinning resolves each shard's serial→row keying once (worker-
        resident in process mode), so repeated :meth:`observe_tick`
        calls ship only the matrix slices.  A roster with duplicate
        serials cannot be partitioned statically and falls back to the
        normalizing path per tick.
        """
        roster = tuple(serials)
        self._roster = roster
        self._roster_noted = False
        self._feed_pinned = False
        if len(set(roster)) != len(roster):
            self._partition = None
            self._sub_rosters = None
            return roster
        buckets: list[list[int]] = [[] for _ in range(self.n_shards)]
        for at, serial in enumerate(roster):
            buckets[shard_for(serial, self.n_shards)].append(at)
        self._partition = [np.asarray(ix, dtype=np.intp) for ix in buckets]
        self._sub_rosters = [
            tuple(roster[i] for i in ix) for ix in buckets
        ]
        calls = [
            (sid, _shard_pin, {"roster": self._sub_rosters[sid]})
            for sid in self._active_shards()
        ]
        for _, envelope in self._raw_dispatch(calls):
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
        matrix = self._check_matrix(values)
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
        for _, envelope in self._raw_dispatch(calls):
            self._absorb(envelope)
        self._feed_pinned = True

    def _check_matrix(self, values: np.ndarray) -> np.ndarray:
        if self._roster is None:
            raise ValueError(
                "no tick roster: pass serials= or call register_fleet() first"
            )
        matrix = np.ascontiguousarray(values, dtype=float)
        if matrix.shape != (len(self._roster), N_CHANNELS):
            raise ValueError(
                f"values must have shape ({len(self._roster)}, {N_CHANNELS}), "
                f"got {matrix.shape}"
            )
        return matrix

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
        fallback path — correct, but re-partitioned per tick.
        """
        if serials is not None:
            roster = tuple(serials)
            if values is None:
                raise ValueError("values is required with an explicit roster")
            matrix = np.ascontiguousarray(values, dtype=float)
            if matrix.shape != (len(roster), N_CHANNELS):
                raise ValueError(
                    f"values must have shape ({len(roster)}, {N_CHANNELS}), "
                    f"got {matrix.shape}"
                )
            items, duplicates = _normalize_tick(zip(roster, matrix))
            return self._tick(hour, items, duplicates)
        if self._roster is None:
            raise ValueError(
                "no tick roster: pass serials= or call register_fleet() first"
            )
        if values is None and not self._feed_pinned:
            raise ValueError("no pinned feed: pass values= or call pin_feed() first")
        if self._partition is None:
            matrix = self._check_matrix(values)
            items, duplicates = _normalize_tick(zip(self._roster, matrix))
            return self._tick(hour, items, duplicates)
        matrix = self._check_matrix(values) if values is not None else None
        if not self._roster_noted:
            for serial in self._roster:
                self._note_seen(serial)
            self._roster_noted = True
        calls = []
        shard_sizes: dict[int, int] = {}
        for sid in self._active_shards():
            indices = self._partition[sid]
            if len(indices) == 0:
                continue
            payload: dict = {"hour": hour, "shard": sid}
            if matrix is not None:
                payload["matrix"] = matrix[indices]
            else:
                payload["pinned"] = True
            shard_sizes[sid] = len(indices)
            calls.append((sid, _shard_tick, payload))
        pos = {serial: at for at, serial in enumerate(self._roster)}
        return self._instrumented_tick(
            hour, len(self._roster), calls, pos, [], [], shard_sizes
        )

    def _tick(
        self,
        hour: float,
        items: list[tuple],
        duplicates: list[str],
        single: bool = False,
    ) -> list[Alert]:
        n = self.n_shards
        per_items: list[list[tuple]] = [[] for _ in range(n)]
        per_dups: list[list[str]] = [[] for _ in range(n)]
        pos: dict[str, int] = {}
        for at, (serial, values) in enumerate(items):
            pos[serial] = at
            per_items[shard_for(serial, n)].append((serial, values))
        for serial in duplicates:
            per_dups[shard_for(serial, n)].append(serial)
        # First-seen bookkeeping mirrors a single monitor's row
        # allocation: duplicate occurrences register before the items.
        for serial in duplicates:
            self._note_seen(serial)
        for serial, _ in items:
            self._note_seen(serial)
        calls = []
        shard_sizes: dict[int, int] = {}
        dup_counts: dict[int, int] = {}
        for sid in self._active_shards():
            if not per_items[sid] and not per_dups[sid]:
                continue
            shard_sizes[sid] = len(per_items[sid])
            dup_counts[sid] = len(per_dups[sid])
            calls.append(
                (
                    sid,
                    _shard_tick,
                    {
                        "hour": hour,
                        "shard": sid,
                        "items": per_items[sid],
                        "duplicates": per_dups[sid],
                        "single": single,
                    },
                )
            )
        if single:
            responses = self._raw_dispatch(calls)
            self._last_hour = float(hour) if np.isfinite(hour) else self._last_hour
            return self._merge_tick(responses, pos, duplicates, items, dup_counts)
        return self._instrumented_tick(
            hour, len(items), calls, pos, duplicates, items, shard_sizes, dup_counts
        )

    def _instrumented_tick(
        self,
        hour: float,
        n_drives: int,
        calls: list,
        pos: dict[str, int],
        duplicates: list[str],
        items: list[tuple],
        shard_sizes: dict[int, int],
        dup_counts: Optional[dict[int, int]] = None,
    ) -> list[Alert]:
        """Coordinator-level tick instrumentation (the single-monitor shape).

        ``serve.fleet_ticks``, the ``serve.tick`` span and
        ``serve.tick_seconds`` are emitted here exactly once per
        logical tick — never per shard — so the merged registry equals
        a single monitor's.
        """
        registry = get_registry()
        start = perf_counter() if registry.enabled else 0.0
        with get_tracer().span("serve.tick", category="serve", n_drives=n_drives):
            responses = self._raw_dispatch(calls)
            alerts = self._merge_tick(
                responses, pos, duplicates, items, dup_counts or {},
                shard_sizes=shard_sizes,
            )
        registry.counter("serve.fleet_ticks", help="collection ticks").inc()
        if registry.enabled:
            registry.histogram(
                "serve.tick_seconds", unit="seconds",
                help="collection tick wall time",
            ).observe(perf_counter() - start)
        self._last_hour = float(hour) if np.isfinite(hour) else self._last_hour
        self._maybe_resolve_deployment()
        return alerts

    def _merge_tick(
        self,
        responses: list[tuple[int, object]],
        pos: dict[str, int],
        duplicates: list[str],
        items: list[tuple],
        dup_counts: dict[int, int],
        *,
        shard_sizes: Optional[dict[int, int]] = None,
    ) -> list[Alert]:
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

        # Alerts: shard-local ids -> dense coordinator ids, in the
        # tick's global record order (bit-identical to one monitor).
        tick_alerts: list[tuple[int, int, Alert]] = []
        for sid in sorted(results):
            for alert in results[sid]["alerts"]:
                tick_alerts.append((pos[alert.serial], sid, alert))
        tick_alerts.sort(key=lambda entry: entry[0])
        id_maps: dict[int, dict] = {sid: {} for sid in results}
        merged: list[Alert] = []
        for _, sid, alert in tick_alerts:
            renamed = replace(alert, alert_id=f"alert-{len(self.alerts):04d}")
            id_maps[sid][alert.alert_id] = renamed.alert_id
            self.alerts.append(renamed)
            self._alerted_serials.add(renamed.serial)
            merged.append(renamed)

        # Faults: duplicate-serial faults in global discovery order,
        # then record faults in global record order.
        dup_queues: dict[int, deque] = {}
        record_faults: dict[int, dict[str, SampleFault]] = {}
        for sid, result in results.items():
            k = dup_counts.get(sid, 0)
            dup_queues[sid] = deque(result["faults"][:k])
            record_faults[sid] = {fault.serial: fault for fault in result["faults"][k:]}
        for serial in duplicates:
            queue = dup_queues.get(shard_for(serial, self.n_shards))
            if queue:
                self.faults.append(queue.popleft())
        for serial, _ in items:
            fault = record_faults.get(shard_for(serial, self.n_shards), {}).pop(
                serial, None
            )
            if fault is not None:
                self.faults.append(fault)
        if not items and shard_sizes:
            # Matrix path: records cannot fault by serial lookup order
            # ambiguity (roster is duplicate-free), so any shard faults
            # merge in roster order via the pos map.
            leftovers = [
                (pos[fault.serial], fault)
                for sid in sorted(record_faults)
                for fault in record_faults[sid].values()
            ]
            for _, fault in sorted(leftovers, key=lambda entry: entry[0]):
                self.faults.append(fault)

        # Observability: absorb envelopes in shard-id order with the
        # alert ids rewritten, so the merged event stream is ordered by
        # (logical hour, shard id, shard-local seq) and names the
        # coordinator's alerts.
        for sid, envelope in envelopes:
            self._absorb(envelope, id_maps.get(sid))

        # Canary soak accounting.
        deployment = self._deployment
        if deployment is not None and shard_sizes is not None:
            for sid, size in shard_sizes.items():
                if sid in deployment.canaries:
                    deployment.canary_drives += size
                else:
                    deployment.control_drives += size
            for _, sid, _alert in tick_alerts:
                if sid in deployment.canaries:
                    deployment.canary_alerts += 1
                else:
                    deployment.control_alerts += 1
            deployment.ticks += 1
        return merged

    def finalize(self) -> list[Alert]:
        """Short-history flush, merged in global first-seen order."""
        calls = [(sid, _shard_finalize, None) for sid in self._active_shards()]
        responses = self._raw_dispatch(calls)
        found: dict[str, tuple[int, Alert]] = {}
        envelopes: list[tuple[int, RemoteObservation]] = []
        for sid, envelope in responses:
            if envelope is None:
                continue
            if isinstance(envelope, RemoteObservation):
                result = envelope.result
                envelopes.append((sid, envelope))
            else:
                result = envelope
            for alert in result["alerts"]:
                found[alert.serial] = (sid, alert)
        id_maps: dict[int, dict] = {sid: {} for sid in range(self.n_shards)}
        merged: list[Alert] = []
        for serial in self._first_seen:
            entry = found.get(serial)
            if entry is None:
                continue
            sid, alert = entry
            renamed = replace(alert, alert_id=f"alert-{len(self.alerts):04d}")
            id_maps[sid][alert.alert_id] = renamed.alert_id
            self.alerts.append(renamed)
            self._alerted_serials.add(serial)
            merged.append(renamed)
        for sid, envelope in envelopes:
            self._absorb(envelope, id_maps.get(sid))
        return merged

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
        model = {
            "score_sample": score_sample,
            "score_batch": score_batch,
            "tree": tree,
            "feature_names": tuple(feature_names) if feature_names is not None else None,
        }
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
        canaries = frozenset(int(sid) for sid in canary_shards)
        if not canaries:
            raise ValueError("canary_shards must name at least one shard")
        if not canaries.issubset(range(self.n_shards)):
            raise ValueError(
                f"canary_shards {sorted(canaries)} outside 0..{self.n_shards - 1}"
            )
        if len(canaries) == self.n_shards:
            raise ValueError(
                "canary_shards covers every shard; a deployment needs a "
                "control group to compare against"
            )
        new_model = {
            "score_sample": score_sample,
            "score_batch": score_batch,
            "tree": tree,
            "feature_names": tuple(feature_names) if feature_names is not None else None,
        }
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

    def _export_shard(self, shard: int) -> dict:
        if shard in self._quarantined:
            raise WorkerDiedError(
                f"shard {shard} is quarantined; it has no state to export"
            )
        if self._hosts is not None:
            return self._absorb(self._hosts[shard].call(_shard_export))
        cell = self._shards[shard]
        if cell is None:
            raise WorkerDiedError(
                f"shard {shard} is dead (killed in serial mode); restore it "
                f"before snapshotting"
            )
        return _shard_export(cell, None)

    def _coordinator_state(self) -> dict:
        return {
            "spec": self._spec,
            "mode": self.mode,
            "n_shards": self.n_shards,
            "alerts": self.alerts,
            "faults": self.faults,
            "first_seen": self._first_seen,
            "alerted_serials": self._alerted_serials,
            "model_generation": self.model_generation,
            "current_model": self._current_model,
            "slo": self.slo,
            "last_hour": self._last_hour,
            "deployment": self._deployment,
            "last_verdict": self.last_verdict,
            "quarantined": sorted(self._quarantined),
        }

    def _open_store(
        self, store: Union[str, Path, JsonCheckpoint]
    ) -> JsonCheckpoint:
        if isinstance(store, JsonCheckpoint):
            return store
        return JsonCheckpoint(store, kind=SHARD_SNAPSHOT_KIND)

    def snapshot_shard(
        self, shard: int, store: Union[str, Path, JsonCheckpoint]
    ) -> JsonCheckpoint:
        """Persist one shard's full state into a ``shard-snapshot`` checkpoint."""
        store = self._open_store(store)
        state = self._export_shard(shard)
        store.set(f"shard-{shard}", encode_object(state))
        get_registry().counter(
            "shard.snapshots", help=SHARD_SNAPSHOTS_HELP
        ).inc()
        monitor: FleetMonitor = state["monitor"]
        get_event_log().emit(
            "shard_snapshot",
            hour=self._last_hour,
            shard=shard,
            n_drives=len(monitor.watched_drives()),
        )
        return store

    def snapshot(self, store: Union[str, Path, JsonCheckpoint]) -> JsonCheckpoint:
        """Persist every shard plus the coordinator state, atomically per cell.

        The written checkpoint restores to a monitor that is
        bit-identical mid-stream: same alerts/faults/events-to-come,
        same voting windows, same SLO state.  Pinned feeds
        (:meth:`pin_feed`) are transient and must be re-pinned.
        """
        store = self._open_store(store)
        for shard in self._active_shards():
            self.snapshot_shard(shard, store)
        store.set("coordinator", encode_object(self._coordinator_state()))
        return store

    def restore_shard(
        self, shard: int, store: Union[str, Path, JsonCheckpoint]
    ) -> None:
        """Replace one shard's state from a snapshot (kill-and-resume).

        In process mode a dead host (see
        :meth:`~repro.utils.parallel.WorkerHost.kill`) is replaced by a
        fresh worker whose state is rebuilt from the snapshot blob —
        the resumed shard continues the stream bit-identically from
        the snapshot point.
        """
        store = self._open_store(store)
        cell = store.get(f"shard-{shard}")
        if cell is None:
            raise KeyError(f"snapshot has no cell for shard {shard}")
        state = decode_object(cell)
        if self._hosts is not None:
            old = self._hosts[shard]
            if old.alive:
                old.kill()
            self._hosts[shard] = WorkerHost(
                _PickledShard(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
            )
        else:
            self._shards[shard] = {
                "monitor": state["monitor"],
                "roster": state.get("roster"),
                "feed": None,
            }
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
        monitor: FleetMonitor = state["monitor"]
        get_event_log().emit(
            "shard_restored",
            hour=self._last_hour,
            shard=shard,
            n_drives=len(monitor.watched_drives()),
        )

    @classmethod
    def restore(
        cls,
        store: Union[str, Path, JsonCheckpoint],
        *,
        mode: Optional[str] = None,
    ) -> "ShardedFleetMonitor":
        """Rebuild a whole coordinator (and all shards) from a snapshot.

        ``mode`` overrides the snapshotted execution mode — a snapshot
        taken from a process-mode fleet restores fine into serial mode
        and vice versa; the serving state is mode-independent.
        """
        if not isinstance(store, JsonCheckpoint):
            store = JsonCheckpoint(store, kind=SHARD_SNAPSHOT_KIND)
        cell = store.get("coordinator")
        if cell is None:
            raise KeyError("snapshot has no coordinator cell")
        coord = decode_object(cell)
        spec: ShardSpec = coord["spec"]
        self = cls(
            spec.features,
            spec.score_sample,
            spec.detector_factory,
            score_batch=spec.score_batch,
            quarantine=spec.quarantine,
            tree=spec.tree,
            feature_names=spec.feature_names,
            model_generation=spec.model_generation,
            slo=coord["slo"],
            n_shards=coord["n_shards"],
            mode=mode if mode is not None else coord["mode"],
        )
        self.alerts = coord["alerts"]
        self.faults = coord["faults"]
        self._first_seen = coord["first_seen"]
        self._seen = set(self._first_seen)
        self._alerted_serials = coord["alerted_serials"]
        self.model_generation = coord["model_generation"]
        self._current_model = coord["current_model"]
        self._last_hour = coord["last_hour"]
        self._deployment = coord["deployment"]
        self.last_verdict = coord["last_verdict"]
        quarantined = set(coord.get("quarantined", ()))
        for shard in range(self.n_shards):
            if shard in quarantined:
                # The shard was cut loose before the snapshot; there is
                # no cell to restore and it stays out of the rotation.
                if self._hosts is not None:
                    self._hosts[shard].kill()
                else:
                    self._shards[shard] = None
                self._quarantined.add(shard)
                continue
            self.restore_shard(shard, store)
        return self

    # -- ground truth and SLO --------------------------------------------------

    def resolve_outcome(
        self,
        serial: str,
        failed: bool,
        *,
        hour: Optional[float] = None,
        failure_hour: Optional[float] = None,
    ) -> str:
        """Record ground truth for a drive (see ``FleetMonitor.resolve_outcome``).

        Outcomes resolve against the coordinator's merged alert list
        and feed the coordinator-side SLO monitor — shards never see
        ground truth.
        """
        alerted = serial in self._alerted_serials
        if failed:
            outcome = "detected" if alerted else "missed"
        else:
            outcome = "false_alarm" if alerted else "good"
        alert = next((a for a in self.alerts if a.serial == serial), None)
        lead_hours: Optional[float] = None
        if (
            outcome == "detected" and alert is not None
            and failure_hour is not None and np.isfinite(alert.hour)
        ):
            lead_hours = float(failure_hour) - float(alert.hour)
        if hour is None:
            if failure_hour is not None:
                hour = failure_hour
            elif alert is not None and np.isfinite(alert.hour):
                hour = alert.hour
            else:
                hour = 0.0
        get_event_log().emit(
            "outcome_resolved", drive=serial, hour=hour,
            outcome=outcome,
            **({"alert_id": alert.alert_id}
               if alert is not None and alert.alert_id else {}),
            **({"lead_hours": lead_hours} if lead_hours is not None else {}),
        )
        if self.slo is not None:
            self.slo.record(float(hour), outcome, lead_hours=lead_hours, drive=serial)
        return outcome

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
        if sid in self._quarantined or (
            self._shards is not None and self._shards[sid] is None
        ):
            raise WorkerDiedError(
                f"drive {serial!r} lives on shard {sid}, which is "
                f"{'quarantined' if sid in self._quarantined else 'dead'}"
            )
        if self._hosts is not None:
            value = self._absorb(self._hosts[sid].call(_shard_drive_status, serial))
        else:
            value = capture_remote(
                worker_config(), _shard_drive_status, self._shards[sid], serial
            )
            value = self._absorb(value)
        return DriveStatus(value)

    def health_report(self) -> dict[str, object]:
        """One-call fleet summary, shaped exactly like a single monitor's.

        Every shared key (schema, counters, degraded list, SLO status,
        ``serve.*`` metrics) is bit-identical to the report a single
        ``FleetMonitor`` would produce on the same stream; the
        extra ``"sharding"`` section describes the deployment topology.
        """
        statuses = self._statuses()
        kinds: dict[str, int] = {}
        for fault in self.faults:
            kinds[fault.kind.value] = kinds.get(fault.kind.value, 0) + 1
        degraded: list[str] = []
        for status in statuses:
            degraded.extend(status["degraded"])
        snapshot = get_registry().snapshot()
        report: dict[str, object] = {
            "schema": HEALTH_REPORT_SCHEMA,
            "watched_drives": sum(status["n_watched"] for status in statuses),
            "alerts": len(self.alerts),
            "faults_total": len(self.faults),
            "faults_by_kind": kinds,
            "degraded_drives": sorted(degraded),
            "vote_flips": sum(status["vote_flips"] for status in statuses),
            "model_generation": self.model_generation,
            "metrics": {
                name: entry
                for name, entry in snapshot["metrics"].items()
                if name.startswith("serve.")
            },
        }
        if self.slo is not None:
            report["slo"] = self.slo.status()
        report["sharding"] = {
            "n_shards": self.n_shards,
            "mode": self.mode,
            "shard_drives": [status["n_watched"] for status in statuses],
            "quarantined_shards": sorted(self._quarantined),
        }
        return report
