"""Online (streaming) failure monitoring.

The paper's deployment story is a monitoring daemon: every hour each
drive reports a SMART record, the model scores it, and the voting rule
decides whether to raise a warning (Section V-A3).  :class:`FleetMonitor`
provides that streaming surface with *exactly* the offline semantics
(score_drives + first_alarm), pinned by the test suite.

Every piece of per-drive state lives in a preallocated array keyed by a
stable serial→row index, so a collection tick is a handful of
vectorized passes instead of ``n_drives`` python round-trips: one 2-D
``(n_drives, n_channels)`` ingest, mask-based validation, online
features from an hour-keyed lag history, voter-major voting windows
with a running failed-vote count (:mod:`repro.detection.columnar`) and
a single batched model call.
:meth:`FleetMonitor.observe` is the same tick with one row.

**Degraded-mode serving.**  A production feed is dirty: ticks arrive
out of order, repeat, carry the wrong shape or a non-finite timestamp.
The monitor therefore runs every observation through a validation gate
before it touches a drive's feature history: malformed ticks are
counted and excluded (never scored, never a voting slot) and recorded
as structured :class:`~repro.utils.errors.SampleFault` events.  A drive
whose fault count passes the :class:`QuarantinePolicy` threshold is
flagged ``DEGRADED`` — its alerts are suppressed and it is reported via
:meth:`FleetMonitor.degraded_drives` instead of being silently
mis-scored on garbage input.  Missing *values* (NaN/inf cells injected
by flaky sensors) are not faults: they flow through unchanged and the
tree's surrogate/``missing_goes_left`` machinery routes them, exactly
as at fit time; voting treats unscorable samples as NaN gaps without
resetting its window.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from repro.detection.columnar import MajorityVoteMatrix, MeanThresholdMatrix, Rows, _LagHistory
from repro.features.vectorize import Feature
from repro.observability import get_event_log, get_registry, get_tracer
from repro.observability.events import decision_path_payload
from repro.smart.attributes import N_CHANNELS, channel_index
from repro.utils.errors import FaultKind, SampleFault
from repro.utils.validation import check_count, check_finite, check_in_choices

#: Schema tag on :meth:`FleetMonitor.health_report` (bump on breaking change).
HEALTH_REPORT_SCHEMA = "repro.health-report/v1"

#: Scores one feature row; returns a class label or health degree.
SampleScorer = Callable[[np.ndarray], float]

#: Scores a stacked ``(n_rows, n_features)`` matrix in one call.
BatchScorer = Callable[[np.ndarray], np.ndarray]

# Counter help strings (one registration text per counter name).
TICKS_HELP = "observations offered"
FAULTS_HELP = "malformed ticks excluded by the gate"
SCORED_HELP = "ticks scored"
FLIPS_HELP = "alarm-signal transitions"
ALERTS_HELP = "alerts raised"
QUARANTINED_HELP = "drives transitioned to DEGRADED"

# Gate verdict codes (record-order fault emission keys off these).
_CLEAN, _SHAPE, _NF_TIME, _DUP_TIME, _OOO = 0, 1, 2, 3, 4

#: Rows per chunk when a tick's readings are copied into feature-major
#: rows: small enough that a chunk of readings stays in cache.
_CHUNK = 4096


def _change_rate_into(out: np.ndarray, now: np.ndarray, lag: np.ndarray, interval: float):
    """``(now - lag) / interval`` into ``out``; NaN where an input is non-finite.

    Computed in place, then only the non-finite results are checked
    against their inputs: a finite pair that overflows keeps its ±inf,
    as ``np.where(isfinite(now) & isfinite(lag), rate, nan)`` would.
    """
    with np.errstate(invalid="ignore"):
        np.subtract(now, lag, out=out)
        np.divide(out, interval, out=out)
    suspect = np.flatnonzero(~np.isfinite(out))
    out[suspect[~(np.isfinite(now[suspect]) & np.isfinite(lag[suspect]))]] = np.nan


def _json_score(score: float) -> Optional[float]:
    """A score as event-payload JSON: non-finite values become None."""
    return float(score) if np.isfinite(score) else None


def _duplicate_serial_fault(serial: str, hour: float) -> SampleFault:
    """The fault recorded for each overridden duplicate-serial record."""
    return SampleFault(
        serial,
        float(hour) if np.isfinite(hour) else np.nan,
        FaultKind.DUPLICATE_SERIAL,
        f"serial {serial!r} repeated within one tick; last write wins",
    )


def _normalize_tick(
    records: Union[Mapping[str, Sequence[float]], Iterable[tuple]],
) -> tuple[list[tuple], list[str]]:
    """Canonicalise one collection tick into unique ``(serial, values)`` pairs.

    ``records`` may be a serial→values mapping (the historical API,
    duplicates impossible) or an iterable of ``(serial, values)`` pairs
    (the array-friendly form).  A serial repeated within one tick
    resolves **last-write-wins**: the serial keeps its first position in
    the tick but carries the values of its final occurrence, and every
    overridden occurrence is returned in ``duplicates`` (discovery
    order) so the gate can record a ``duplicate-serial`` fault instead
    of silently double-pushing the drive's voting window.
    """
    if isinstance(records, Mapping):
        return list(records.items()), []
    items: list[tuple] = []
    position: dict[str, int] = {}
    duplicates: list[str] = []
    for serial, values in records:
        at = position.get(serial)
        if at is None:
            position[serial] = len(items)
            items.append((serial, values))
        else:
            items[at] = (serial, values)
            duplicates.append(serial)
    return items, duplicates


@dataclass(frozen=True)
class Alert:
    """A raised warning: which drive, when, and the triggering score.

    ``alert_id`` is deterministic (dense per monitor, in raise order) and
    names the matching ``alert_raised`` event in the structured log, so
    ``repro-events explain <alert-id>`` can pull up its provenance.
    """

    serial: str
    hour: float
    score: float
    alert_id: str = ""


class DriveStatus(enum.Enum):
    """Serving status of one monitored drive."""

    #: Feed is healthy; the drive is scored and may alert.
    OK = "ok"
    #: Too many malformed ticks; alerts suppressed, drive reported.
    DEGRADED = "degraded"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class QuarantinePolicy:
    """When does a dirty feed degrade a drive?

    A malformed tick (wrong shape, non-finite/out-of-order/duplicate
    timestamp) is always excluded from scoring; once a drive has
    accumulated more than ``fault_limit`` of them it is flagged
    :attr:`DriveStatus.DEGRADED` — its alerts stop (an operator page
    driven by garbage telemetry is worse than none) and it surfaces in
    :meth:`FleetMonitor.degraded_drives` for operator attention.
    """

    fault_limit: int = 10

    def __post_init__(self) -> None:
        check_count("fault_limit", self.fault_limit, strict=False)

    def degrades(self, fault_count: int) -> bool:
        """True when ``fault_count`` malformed ticks exceed the budget."""
        return fault_count > self.fault_limit


#: The quarantine policy both monitors install when none is passed.
_DEFAULT_QUARANTINE = QuarantinePolicy()


@dataclass(frozen=True)
class VoterSpec:
    """The voting rule a monitor applies to each drive's score series.

    ``"majority"`` alarms when more than half of the last ``n_voters``
    scores equal ``failed_label`` (Section V-A3); ``"mean"`` alarms when
    the mean of the last ``n_voters`` finite scores falls below
    ``threshold`` (the health-degree rule, Section V-C).  A spec is
    plain data, so it pickles across shard process boundaries; the
    monitor builds the fleet-wide voting matrix from it with
    :meth:`build`.  ``failed_label`` and ``threshold`` must be finite
    (``ValueError`` otherwise).  A non-finite one is a degenerate rule:
    no score equals a NaN label, no mean falls below a NaN or ``-inf``
    threshold, and every mean falls below ``+inf``.
    """

    kind: str  # "majority" | "mean"
    n_voters: int
    failed_label: float = -1.0
    threshold: float = 0.0

    def __post_init__(self) -> None:
        check_in_choices("kind", self.kind, ("majority", "mean"))
        check_count("n_voters", self.n_voters)
        check_finite("failed_label", self.failed_label)
        check_finite("threshold", self.threshold)

    def build(self, n_rows: int = 0) -> Union[MajorityVoteMatrix, MeanThresholdMatrix]:
        """The voting matrix applying this rule to ``n_rows`` drives."""
        if self.kind == "majority":
            return MajorityVoteMatrix(self.n_voters, self.failed_label, n_rows)
        return MeanThresholdMatrix(self.n_voters, self.threshold, n_rows)


class _ServingFacade:
    """The monitor surface that does not depend on where drive state lives.

    :class:`FleetMonitor` and
    :class:`~repro.detection.sharded.ShardedFleetMonitor` share it:
    building from a fitted pipeline, the ``observe_tick`` argument
    contract, the tick-level instrumentation, the alert-id format,
    ground-truth resolution against the monitor's alert list, and the
    body of the health report.  A subclass keeps ``alerts``,
    ``faults``, ``slo`` and ``model_generation``.
    """

    alerts: list[Alert]
    faults: list[SampleFault]
    slo: Optional[object]
    model_generation: int

    @classmethod
    def from_predictor(cls, predictor, detector_factory: VoterSpec, **kwargs):
        """Build a monitor serving a fitted pipeline's tree.

        ``predictor`` is any fitted pipeline exposing ``extractor`` and
        ``tree_`` (e.g. :class:`~repro.core.predictor.DriveFailurePredictor`
        or :class:`~repro.core.predictor.HealthDegreePredictor`): the
        monitor scores through the tree's compiled batch entry point
        (:meth:`~repro.tree.base.BaseDecisionTree.batch_scorer`) and
        attaches the tree for decision-path provenance.  The tree's
        scorers pickle whenever the tree does, so they also ship to
        shard workers.  Extra keyword arguments pass through to the
        constructor.
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

    def _tick_values(
        self,
        values: Optional[np.ndarray],
        serials: Optional[Sequence[str]],
        registered: Optional[tuple[str, ...]],
        *,
        pinned: bool = False,
    ) -> tuple[tuple[str, ...], Optional[np.ndarray]]:
        """Check :meth:`observe_tick` arguments; return its roster and matrix.

        ``serials`` overrides the ``registered`` roster.  The matrix is
        ``None`` only for a registered roster whose feed is ``pinned``
        (a sharded monitor's :meth:`pin_feed`); every other call must
        pass a ``(len(roster), N_CHANNELS)`` matrix.
        """
        roster = tuple(serials) if serials is not None else registered
        if roster is None:
            raise ValueError(
                "no tick roster: pass serials= or call register_fleet() first"
            )
        if values is None:
            if pinned and serials is None:
                return roster, None
            raise ValueError("values is required: no feed is pinned for this roster")
        matrix = np.ascontiguousarray(values, dtype=float)
        if matrix.shape != (len(roster), N_CHANNELS):
            raise ValueError(
                f"values must have shape ({len(roster)}, {N_CHANNELS}), "
                f"got {matrix.shape}"
            )
        return roster, matrix

    @contextmanager
    def _collection_tick(self, n_drives: int) -> Iterator[None]:
        """Tick-level instrumentation around one collection tick.

        The ``serve.tick`` span, ``serve.fleet_ticks`` and
        ``serve.tick_seconds``, emitted once per logical tick (a sharded
        coordinator's shards do not emit them), and not at all when the
        tick raises.
        """
        registry = get_registry()
        start = perf_counter() if registry.enabled else 0.0
        with get_tracer().span("serve.tick", category="serve", n_drives=n_drives):
            yield
        registry.counter("serve.fleet_ticks", help="collection ticks").inc()
        if registry.enabled:
            registry.histogram(
                "serve.tick_seconds", unit="seconds",
                help="collection tick wall time",
            ).observe(perf_counter() - start)

    def _new_alert_id(self) -> str:
        """The id of the next alert: dense per monitor, in raise order."""
        return f"alert-{len(self.alerts):04d}"

    def resolve_outcome(
        self,
        serial: str,
        failed: bool,
        *,
        hour: Optional[float] = None,
        failure_hour: Optional[float] = None,
    ) -> str:
        """Record ground truth for a drive; returns its outcome label.

        Once an operator learns a drive's fate the alert latch resolves
        to one of ``detected`` / ``missed`` / ``false_alarm`` / ``good``.
        The outcome feeds the attached SLO monitor (when one was passed
        at construction) with the detection's lead time, and an
        ``outcome_resolved`` event lands in the log — the bridge from
        the alert lifecycle to the FDR/FAR/lead-time budgets.  When the
        drive had alerted, the event carries the resolving alert's id,
        so explain reports can attribute precision to the exact
        subtree that paged (:mod:`repro.explain.report`).  A sharded
        monitor resolves against its merged alert list; shards never
        see ground truth.
        """
        alert = next((a for a in self.alerts if a.serial == serial), None)
        if failed:
            outcome = "detected" if alert is not None else "missed"
        else:
            outcome = "false_alarm" if alert is not None else "good"
        lead_hours: Optional[float] = None
        if (
            outcome == "detected"
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

    def _health_report(
        self, n_watched: int, degraded: list[str], vote_flips: int
    ) -> dict[str, object]:
        """The ``health_report`` body, from the monitor's drive counts."""
        kinds: dict[str, int] = {}
        for fault in self.faults:
            kinds[fault.kind.value] = kinds.get(fault.kind.value, 0) + 1
        snapshot = get_registry().snapshot()
        report: dict[str, object] = {
            "schema": HEALTH_REPORT_SCHEMA,
            "watched_drives": n_watched,
            "alerts": len(self.alerts),
            "faults_total": len(self.faults),
            "faults_by_kind": kinds,
            "degraded_drives": degraded,
            "vote_flips": vote_flips,
            "model_generation": self.model_generation,
            "metrics": {
                name: entry
                for name, entry in snapshot["metrics"].items()
                if name.startswith("serve.")
            },
        }
        if self.slo is not None:
            report["slo"] = self.slo.status()
        return report


class FleetMonitor(_ServingFacade):
    """Routes streaming SMART records through a fitted model.

    Per-drive state lives in parallel arrays grown by capacity doubling;
    rows are allocated in first-seen order, so :meth:`finalize` walks
    drives in that order and assigns dense alert ids deterministically.
    Change-rate lags come from an hour-keyed history (one block per
    pushed hour, see :class:`~repro.detection.columnar._LagHistory`)
    that holds no per-row storage.  The last feature row of each drive
    is kept feature-major, ``(n_features, capacity)``.  A registered
    roster whose rows form one contiguous run is served by slice: with
    no faulted row, the tick indexes every per-row array, the history
    and the voting windows by that slice, builds its feature rows in
    place in ``_last_rows`` and hands the scorer a transposed view of
    them.  Every other tick runs the same code with row arrays.

    Args:
        features: The feature definitions the model was trained on.
        score_sample: Callable scoring one feature row (e.g.
            ``tree.sample_scorer()``); used only when no
            ``score_batch`` is installed.  Rows with no finite feature
            are scored NaN without calling the model.
        detector_factory: The :class:`VoterSpec` (majority vote or mean
            threshold) every drive's score series is judged by.
        score_batch: Optional callable scoring a stacked matrix in one
            call (e.g. ``tree.batch_scorer()``).  When set, every
            tick's usable rows are scored through it — one compiled
            routing pass for the fleet — instead of one
            ``score_sample`` call per drive.  Read at every tick, so it
            may be reassigned between ticks.
        quarantine: The degraded-mode policy (see
            :class:`QuarantinePolicy`; a default policy is installed when
            omitted).  Pass ``quarantine=None`` for strict mode, where a
            malformed tick raises ``ValueError`` instead of being
            quarantined (useful when the feed is trusted and corruption
            means a caller bug).
        tree: Optional fitted tree (anything with
            ``decision_path(row)``, e.g. ``predictor.tree_``) used to
            attach decision-path provenance to every ``alert_raised``
            event.  The compiled walk visits the same nodes as
            :meth:`~repro.tree.node.Node.route`, so provenance reads
            like the Figure-1 tree.
        feature_names: Optional names for the feature columns, rendered
            into provenance steps (defaults to the ``features``
            descriptions).
        model_generation: Generation number of the serving model,
            stamped on alert provenance; bumped by :meth:`set_model`.
        slo: Optional :class:`~repro.observability.slo.SLOMonitor` fed
            by :meth:`resolve_outcome`; its burn status is embedded in
            :meth:`health_report`.

    Example:
        >>> from repro.features.selection import critical_features
        >>> monitor = FleetMonitor(
        ...     critical_features(),
        ...     score_sample=lambda row: 1.0,
        ...     detector_factory=VoterSpec("majority", 3),
        ... )
        >>> import numpy as np
        >>> monitor.observe("d1", 0.0, np.ones(12)) is None
        True
    """

    def __init__(
        self,
        features: Sequence[Feature],
        score_sample: SampleScorer,
        detector_factory: VoterSpec,
        *,
        score_batch: Optional[BatchScorer] = None,
        quarantine: Optional[QuarantinePolicy] = _DEFAULT_QUARANTINE,
        tree: Optional[object] = None,
        feature_names: Optional[Sequence[str]] = None,
        model_generation: int = 0,
        slo: Optional[object] = None,
    ):
        if not isinstance(detector_factory, VoterSpec):
            raise TypeError(
                "detector_factory must be a VoterSpec, got "
                f"{type(detector_factory).__name__}"
            )
        self.features = tuple(features)
        self.score_sample = score_sample
        self.detector_factory = detector_factory
        self.score_batch = score_batch
        self.quarantine = quarantine
        self.tree = tree
        self.feature_names = (
            tuple(feature_names)
            if feature_names is not None
            else tuple(f.name for f in self.features)
        )
        self.model_generation = int(model_generation)
        self.slo = slo
        self.alerts: list[Alert] = []
        self.faults: list[SampleFault] = []
        self.vote_flips = 0
        self._tick_serials: Optional[tuple[str, ...]] = None

        self._n_features = len(self.features)
        self._value_cols = [
            (j, channel_index(f.short))
            for j, f in enumerate(self.features)
            if not f.is_change_rate
        ]
        self._rate_cols = [
            (j, channel_index(f.short), float(f.change_interval_hours))
            for j, f in enumerate(self.features)
            if f.is_change_rate
        ]
        self._value_col = {channel: j for j, channel in self._value_cols}
        lag_channels = sorted({channel for _, channel, _ in self._rate_cols})
        self._lag_col = {channel: at for at, channel in enumerate(lag_channels)}
        self._intervals = sorted({interval for _, _, interval in self._rate_cols})
        max_lag = max((interval for _, _, interval in self._rate_cols), default=0.0)
        self._voter = detector_factory.build()
        self._history = (
            _LagHistory(lag_channels, max_lag) if self._rate_cols else None
        )
        self._capacity = 0
        self._row: dict[str, int] = {}
        self._serials: list[str] = []
        self._roster_cache: Optional[tuple] = None
        self._last_hour = np.empty(0)
        self._fault_count = np.empty(0, dtype=np.int64)
        self._degraded = np.empty(0, dtype=bool)
        self._alerted = np.empty(0, dtype=bool)
        self._cleared = np.empty(0, dtype=bool)
        #: Last instantaneous alarm signal per row (-1 until the first
        #: scored tick); ``serve.vote_flips`` tracks its transitions.
        self._last_signal = np.empty(0, dtype=np.int8)
        #: Feature row of each drive's most recent well-formed tick —
        #: the SMART evidence an ``alert_raised`` decision path explains.
        #: Feature-major ``(n_features, capacity)``: a full-roster tick
        #: builds its feature rows in place, as a view of this array.
        self._last_rows = np.empty((self._n_features, 0))
        self._has_row = np.empty(0, dtype=bool)

    def __getstate__(self) -> dict:
        """Pickle support for shard snapshot/restore.

        The roster cache is keyed by tuple *identity*, which cannot
        survive a pickle round-trip; drop it so a restored monitor
        re-resolves rows on its first tick (state, not caches, is what
        a snapshot preserves).
        """
        state = self.__dict__.copy()
        state["_roster_cache"] = None
        return state

    # -- row allocation -------------------------------------------------------

    def _ensure_capacity(self, n: int) -> None:
        if n <= self._capacity:
            return
        capacity = max(self._capacity * 2, 64)
        while capacity < n:
            capacity *= 2
        grow = capacity - self._capacity
        self._last_hour = np.concatenate([self._last_hour, np.full(grow, np.nan)])
        self._fault_count = np.concatenate(
            [self._fault_count, np.zeros(grow, dtype=np.int64)]
        )
        self._degraded = np.concatenate(
            [self._degraded, np.zeros(grow, dtype=bool)]
        )
        self._alerted = np.concatenate([self._alerted, np.zeros(grow, dtype=bool)])
        self._cleared = np.concatenate([self._cleared, np.zeros(grow, dtype=bool)])
        self._last_signal = np.concatenate(
            [self._last_signal, np.full(grow, -1, dtype=np.int8)]
        )
        self._last_rows = np.concatenate(
            [self._last_rows, np.full((self._n_features, grow), np.nan)], axis=1
        )
        self._has_row = np.concatenate([self._has_row, np.zeros(grow, dtype=bool)])
        self._voter.grow_rows(capacity)
        self._capacity = capacity

    def _row_for(self, serial: str) -> int:
        row = self._row.get(serial)
        if row is None:
            row = len(self._serials)
            self._ensure_capacity(row + 1)
            self._row[serial] = row
            self._serials.append(serial)
        return row

    # -- tick entry points ----------------------------------------------------

    def observe(
        self, serial: str, hour: float, channel_values: Sequence[float]
    ) -> Optional[Alert]:
        """Ingest one record; return an :class:`Alert` if the drive trips.

        A one-row tick, without the tick-level instrumentation.  A
        drive raises at most one alert (further records are ignored for
        alerting but still tracked, so health queries stay current).
        Malformed ticks are quarantined — counted, excluded from scoring
        and voting — rather than raised (see the class docs); missing
        values inside a well-formed tick flow through to the model's
        surrogate routing unchanged.
        """
        alerts = self._tick(hour, [(serial, channel_values)], [])
        return alerts[0] if alerts else None

    def observe_fleet(
        self,
        hour: float,
        records: Union[Mapping[str, Sequence[float]], Iterable[tuple]],
    ) -> list[Alert]:
        """Ingest one collection tick for many drives at once.

        ``records`` maps serials to that hour's channel readings, or is
        an iterable of ``(serial, values)`` pairs (a serial repeated
        within the tick resolves last-write-wins with a
        ``duplicate-serial`` fault per overridden record, see
        :func:`_normalize_tick`).  The tick's usable feature rows are
        stacked and scored together — one ``score_batch`` call when a
        batch scorer is installed.  Returns the alerts raised by this
        tick, in record order.
        """
        items, duplicates = _normalize_tick(records)
        return self._run_tick(hour, items, duplicates)

    def register_fleet(self, serials: Iterable[str]) -> tuple[str, ...]:
        """Fix the tick roster for :meth:`observe_tick`.

        Serving a stable fleet from arrays means the serial→row keying
        is resolved once, not per tick: register the roster, then feed
        each tick as one ``(n_drives, n_channels)`` matrix whose rows
        align with it.  Returns the normalized roster tuple.  No drive
        state is created until a tick actually arrives (a registered
        but never-observed fleet is not "watched").
        """
        self._tick_serials = tuple(serials)
        return self._tick_serials

    def observe_tick(
        self,
        hour: float,
        values: np.ndarray,
        serials: Optional[Sequence[str]] = None,
    ) -> list[Alert]:
        """Ingest one collection tick as a channel matrix (the array path).

        ``values`` is a ``(n_drives, n_channels)`` float matrix; row
        ``i`` is the reading of ``serials[i]`` (default: the roster from
        :meth:`register_fleet`).  With a registered roster this is the
        zero-copy hot path: no per-drive python objects are touched.
        Semantically identical to
        ``observe_fleet(hour, zip(serials, values))``.
        """
        roster, matrix = self._tick_values(values, serials, self._tick_serials)
        return self._run_tick(hour, None, None, roster=roster, matrix=matrix)

    def _run_tick(
        self,
        hour: float,
        items: Optional[list[tuple]],
        duplicates: Optional[list[str]],
        *,
        roster: Optional[tuple[str, ...]] = None,
        matrix: Optional[np.ndarray] = None,
    ) -> list[Alert]:
        """A collection tick wrapped in its tick-level instrumentation.

        Pass either normalized ``items``/``duplicates`` (from
        :func:`_normalize_tick`) or an aligned ``roster``/``matrix``
        pair.  A sharded coordinator's shards call :meth:`_tick` and
        :meth:`_tick_matrix` directly: the coordinator emits the
        tick-level instrumentation once per logical tick, so the merged
        registry matches a single monitor's instead of multiplying
        per-tick counters by the shard count.  Record-level counters
        and lifecycle events still come from the shards.
        """
        with self._collection_tick(len(roster) if roster is not None else len(items)):
            if roster is not None:
                return self._tick_matrix(hour, roster, matrix)
            return self._tick(hour, items, duplicates)

    def _tick(
        self, hour: float, items: list[tuple], duplicates: list[str]
    ) -> list[Alert]:
        """One collection tick from ``(serial, values)`` pairs."""
        registry = get_registry()
        strict = self.quarantine is None
        if duplicates:
            if strict:
                # The tick counter covers the record that raises; nothing
                # past it is reached.
                registry.counter("serve.ticks", help=TICKS_HELP).inc()
                serial = duplicates[0]
                self._fault_row(
                    serial, self._row_for(serial),
                    _duplicate_serial_fault(serial, hour),
                )
            registry.counter("serve.ticks", help=TICKS_HELP).inc(len(duplicates))
            for serial in duplicates:
                self._fault_row(
                    serial, self._row_for(serial),
                    _duplicate_serial_fault(serial, hour),
                )
        n_before = len(self._serials)
        n = len(items)
        serials = [serial for serial, _ in items]
        rows = np.fromiter(
            (self._row_for(serial) for serial in serials), dtype=np.intp, count=n
        )
        values = np.empty((n, N_CHANNELS))
        bad_shape: dict[int, tuple] = {}
        for at, (_, channel_values) in enumerate(items):
            array = np.asarray(channel_values, dtype=float)
            if array.shape != (N_CHANNELS,):
                bad_shape[at] = array.shape
                values[at] = np.nan
            else:
                values[at] = array
        return self._process(hour, serials, rows, values, bad_shape, n_before)

    def _tick_matrix(
        self, hour: float, roster: tuple, matrix: np.ndarray
    ) -> list[Alert]:
        """One collection tick as an aligned channel matrix (zero-copy).

        Row resolution is cached by roster identity: register a fleet
        once and repeated ticks touch no per-drive python at all.  The
        cache also records whether the roster's rows are one contiguous
        ascending run (true for a registered fleet observed from its
        first tick), so the tick can index per-row state by a slice.
        """
        cache = self._roster_cache
        if cache is not None and cache[0] is roster:
            _, rows, span = cache
            n_before = len(self._serials)
        else:
            if len(set(roster)) != len(roster):
                items, duplicates = _normalize_tick(zip(roster, matrix))
                return self._tick(hour, items, duplicates)
            n_before = len(self._serials)
            rows = np.fromiter(
                (self._row_for(serial) for serial in roster),
                dtype=np.intp, count=len(roster),
            )
            span = None
            if len(rows) and np.array_equal(
                rows, np.arange(rows[0], rows[0] + len(rows))
            ):
                span = slice(int(rows[0]), int(rows[0]) + len(rows))
            self._roster_cache = (roster, rows, span)
        return self._process(hour, roster, rows, matrix, {}, n_before, span)

    # -- the vectorized hot path ----------------------------------------------

    def _process(
        self,
        hour: float,
        serials: Sequence[str],
        rows: np.ndarray,
        values: np.ndarray,
        bad_shape: dict[int, tuple],
        n_before: int,
        span: Optional[slice] = None,
    ) -> list[Alert]:
        """Gate, ingest, score and vote one tick's ``rows``.

        ``span`` is the same rows as a contiguous slice, when they are
        one; a tick with no faulted row then indexes every per-row
        array with it (views and in-place updates), any other tick
        with index arrays, through the same code.
        """
        registry = get_registry()
        strict = self.quarantine is None
        n = len(rows)

        # Vectorized validation gate; per-record verdicts in priority
        # order: shape, then non-finite time, then duplicate/out-of-order.
        verdict = np.zeros(n, dtype=np.int8)
        for at in bad_shape:
            verdict[at] = _SHAPE
        # A view under ``span``: ingest later overwrites the clean
        # positions, but only faulted positions are read after it.
        last = self._last_hour[rows if span is None else span]
        if not np.isfinite(hour):
            verdict[verdict == _CLEAN] = _NF_TIME
        else:
            unjudged = verdict == _CLEAN
            verdict[unjudged & (last == hour)] = _DUP_TIME
            verdict[unjudged & (last > hour)] = _OOO
        faulted = verdict != _CLEAN

        if strict and faulted.any():
            first = int(np.argmax(faulted))
            # Strict mode stops at the raising record: records before it
            # are ingested, serials first seen after it are unregistered.
            doomed = rows[first + 1:]
            doomed = doomed[doomed >= n_before]
            if doomed.size:
                cutoff = int(doomed.min())
                for serial in self._serials[cutoff:]:
                    del self._row[serial]
                del self._serials[cutoff:]
                self._roster_cache = None
            registry.counter("serve.ticks", help=TICKS_HELP).inc(first + 1)
            head = ~faulted
            head[first:] = False
            if head.any():
                self._ingest(hour, rows[head], values[head])
            self._fault_row(
                serials[first], int(rows[first]),
                self._build_fault(
                    serials[first], hour, int(verdict[first]),
                    bad_shape.get(first), last[first],
                ),
            )  # raises

        if n:
            registry.counter("serve.ticks", help=TICKS_HELP).inc(n)
        if faulted.any():
            for at in np.nonzero(faulted)[0]:
                self._fault_row(
                    serials[at], int(rows[at]),
                    self._build_fault(
                        serials[at], hour, int(verdict[at]),
                        bad_shape.get(at), last[at],
                    ),
                )

        clean = ~faulted
        all_clean = not faulted.any()
        clean_rows = rows if all_clean else rows[clean]
        index = span if span is not None and all_clean else clean_rows
        k = len(clean_rows)
        alerts: list[Alert] = []
        if k == 0:
            return alerts
        feature_rows = self._ingest(
            hour, index, values if all_clean else values[clean]
        )

        # One scoring pass for the whole tick over the usable rows,
        # handed to the scorer as a transposed feature-major block (a
        # view of ``_last_rows`` when every row is usable), so each
        # feature column it routes on is contiguous.
        usable = np.any(np.isfinite(feature_rows), axis=0)
        scores = np.full(k, np.nan)
        n_usable = int(np.count_nonzero(usable))
        if n_usable:
            stacked = feature_rows
            if n_usable < k:
                stacked = np.empty((self._n_features, n_usable))
                for column, source in zip(stacked, feature_rows):
                    column[:] = source[usable]
            stacked = stacked.T
            if self.score_batch is None:
                scores[usable] = [
                    float(self.score_sample(stacked[at]))
                    for at in range(n_usable)
                ]
            else:
                scores[usable] = np.asarray(
                    self.score_batch(stacked), dtype=float
                )
            registry.counter("serve.scored", help=SCORED_HELP).inc(n_usable)

        # Fleet-wide voting and alert latching.  Degraded drives keep
        # their windows current but never alert.
        alarmed = self._voter.push(index, scores)
        previous = self._last_signal[index]
        previous_true = previous == 1
        flips = (previous >= 0) & (alarmed != previous_true)
        n_flips = int(np.count_nonzero(flips))
        if n_flips:
            self.vote_flips += n_flips
            registry.counter("serve.vote_flips", help=FLIPS_HELP).inc(n_flips)
        healthy = ~self._degraded[index]
        latched = self._alerted[index]
        new_alert = alarmed & ~latched & healthy
        cleared = (
            ~alarmed & previous_true & latched
            & ~self._cleared[index] & healthy
        )

        log = get_event_log()
        if log.enabled:
            # Per-drive lifecycle events in record order (sample_scored →
            # vote_flip → alert_raised/alert_cleared); the arrays above
            # did the work, this loop only narrates it.
            clean_at = np.nonzero(clean)[0]
            for at in range(k):
                serial = serials[clean_at[at]]
                score = scores[at]
                if np.isfinite(score):
                    log.emit(
                        "sample_scored", drive=serial, hour=hour,
                        score=float(score),
                    )
                if flips[at]:
                    log.emit(
                        "vote_flip", drive=serial, hour=hour,
                        signal=bool(alarmed[at]),
                    )
                if new_alert[at]:
                    alerts.append(
                        self._raise_alert(
                            serial, int(clean_rows[at]), hour, float(score), log
                        )
                    )
                elif cleared[at]:
                    log.emit(
                        "alert_cleared", drive=serial, hour=hour,
                        score=_json_score(score),
                    )
        elif new_alert.any():
            clean_at = np.nonzero(clean)[0]
            for at in np.nonzero(new_alert)[0]:
                alerts.append(
                    self._raise_alert(
                        serials[clean_at[at]], int(clean_rows[at]),
                        hour, float(scores[at]), log,
                    )
                )

        self._last_signal[index] = alarmed
        if new_alert.any():
            self._alerted[index] |= new_alert
        if cleared.any():
            self._cleared[index] |= cleared
        return alerts

    def _ingest(
        self, hour: float, rows: Rows, values: np.ndarray
    ) -> np.ndarray:
        """Push one tick of raw channels; return its feature-major rows.

        ``rows`` is an index array or a contiguous slice; for a slice
        the ``(n_features, n_rows)`` result is a view of ``_last_rows``,
        written in place.  A change rate whose lag hour was never
        observed (or holds a non-finite reading) is NaN, matching
        :func:`repro.features.change_rates.change_rate`.
        """
        now = float(hour)
        in_place = isinstance(rows, slice)
        feature_rows = (
            self._last_rows[:, rows] if in_place
            else np.empty((self._n_features, len(rows)))
        )
        self._last_hour[rows] = now
        # Row-major readings to feature-major rows, in cache-sized chunks.
        for start in range(0, len(values), _CHUNK):
            chunk = values[start:start + _CHUNK]
            for column, channel in self._value_cols:
                feature_rows[column, start:start + _CHUNK] = chunk[:, channel]
        if self._rate_cols:
            # Channel-major current readings: the lag channels that are
            # also value features are already contiguous rows above.
            current = np.stack([
                feature_rows[self._value_col[channel]]
                if channel in self._value_col else values[:, channel]
                for channel in self._lag_col
            ])
            self._history.push(rows, now, current, self._last_hour)
            lagged = {
                interval: self._history.lookup(rows, now - interval)
                for interval in self._intervals
            }
        for column, channel, interval in self._rate_cols:
            at = self._lag_col[channel]
            _change_rate_into(feature_rows[column], current[at], lagged[interval][at], interval)
        if not in_place:
            self._last_rows[:, rows] = feature_rows
        self._has_row[rows] = True
        return feature_rows

    # -- fault and alert bookkeeping -------------------------------------------

    def _build_fault(
        self,
        serial: str,
        hour: float,
        verdict: int,
        shape: Optional[tuple],
        last: float,
    ) -> SampleFault:
        if verdict == _SHAPE:
            return SampleFault(
                serial, float(hour) if np.isfinite(hour) else np.nan,
                FaultKind.WRONG_SHAPE,
                f"expected ({N_CHANNELS},) channel values, got {shape}",
            )
        if verdict == _NF_TIME:
            return SampleFault(
                serial, np.nan, FaultKind.NON_FINITE_TIME,
                f"timestamp {hour!r} is not a finite hour",
            )
        if verdict == _DUP_TIME:
            return SampleFault(
                serial, float(hour), FaultKind.DUPLICATE_TIME,
                f"hour {hour} already ingested",
            )
        return SampleFault(
            serial, float(hour), FaultKind.OUT_OF_ORDER,
            f"hour {hour} arrived after {last}",
        )

    def _fault_row(self, serial: str, row: int, fault: SampleFault) -> None:
        """Record one malformed tick against a drive's quarantine budget.

        Strict mode (``quarantine=None``) raises instead.  Every fault
        kind, duplicate serials included, flows through here.
        """
        if self.quarantine is None:
            raise ValueError(f"drive {serial}: {fault.kind}: {fault.detail}")
        registry = get_registry()
        self.faults.append(fault)
        self._fault_count[row] += 1
        registry.counter(
            "serve.faults", help=FAULTS_HELP, kind=fault.kind.value,
        ).inc()
        log = get_event_log()
        log.emit(
            "tick_faulted", drive=serial, hour=fault.hour,
            kind=fault.kind.value, detail=fault.detail,
        )
        if self.quarantine.degrades(int(self._fault_count[row])):
            if not self._degraded[row]:
                registry.counter(
                    "serve.quarantined", help=QUARANTINED_HELP
                ).inc()
                log.emit(
                    "drive_quarantined", drive=serial, hour=fault.hour,
                    fault_count=int(self._fault_count[row]),
                    fault_limit=self.quarantine.fault_limit,
                )
            self._degraded[row] = True

    def _raise_alert(
        self, serial: str, row: int, hour: float, score: float, log
    ) -> Alert:
        self._alerted[row] = True
        alert = Alert(
            serial=serial, hour=float(hour), score=score,
            alert_id=self._new_alert_id(),
        )
        self.alerts.append(alert)
        get_registry().counter("serve.alerts", help=ALERTS_HELP).inc()
        if log.enabled:
            log.emit(
                "alert_raised", drive=serial, hour=hour,
                **self._provenance(alert, row),
            )
        return alert

    def _provenance(self, alert: Alert, row: int) -> dict:
        """The evidence payload of an ``alert_raised`` event.

        Built only when a recording event log is installed: the alert
        id, the triggering score, the serving model's generation, the
        voting-window contents at the flip, and — when the monitor
        knows its ``tree`` — the CART decision path that classified the
        last well-formed sample (the same nodes
        :meth:`~repro.tree.node.Node.route` walks).
        """
        payload: dict = {
            "alert_id": alert.alert_id,
            "score": _json_score(alert.score),
            "model_generation": self.model_generation,
            "window": self._voter.window_contents(row),
        }
        if self.tree is not None and self._has_row[row]:
            payload["path"] = decision_path_payload(
                self.tree, self._last_rows[:, row], self.feature_names
            )
        return payload

    def finalize(self) -> list[Alert]:
        """Apply the short-history rule to drives that never filled a window.

        Call once at the end of a replay; returns (and records) the extra
        alerts, in first-seen drive order.  Idempotent per drive thanks
        to the alert latch.
        """
        log = get_event_log()
        extra: list[Alert] = []
        for row, serial in enumerate(self._serials):
            if self._alerted[row] or self._degraded[row]:
                continue
            if not self._voter.flush(row):
                continue
            self._alerted[row] = True
            alert = Alert(
                serial=serial, hour=np.nan, score=np.nan,
                alert_id=self._new_alert_id(),
            )
            self.alerts.append(alert)
            get_registry().counter("serve.alerts", help=ALERTS_HELP).inc()
            if log.enabled:
                log.emit(
                    "alert_raised", drive=serial, hour=None,
                    short_history=True, **self._provenance(alert, row),
                )
            extra.append(alert)
        return extra

    # -- model lifecycle and ground truth --------------------------------------

    def set_model(
        self,
        score_sample: SampleScorer,
        *,
        score_batch: Optional[BatchScorer] = None,
        tree: Optional[object] = None,
        feature_names: Optional[Sequence[str]] = None,
    ) -> int:
        """Swap the serving model in place; returns the new generation.

        The paper's Section V-C updating story, seen from the serving
        side: detector windows and alert latches survive the swap (the
        fleet keeps streaming), the generation counter bumps, and a
        ``model_replaced`` event records the transition so every later
        alert's provenance names the model that raised it.
        """
        self.score_sample = score_sample
        self.score_batch = score_batch
        self.tree = tree
        if feature_names is not None:
            self.feature_names = tuple(feature_names)
        previous = self.model_generation
        self.model_generation = previous + 1
        get_event_log().emit(
            "model_replaced",
            from_generation=previous,
            to_generation=self.model_generation,
        )
        return self.model_generation

    def watched_drives(self) -> list[str]:
        """Serials currently tracked."""
        return sorted(self._row)

    # -- degraded-mode reporting ----------------------------------------------

    def drive_status(self, serial: str) -> DriveStatus:
        """Serving status of one drive (unknown serials are ``OK``)."""
        row = self._row.get(serial)
        if row is not None and self._degraded[row]:
            return DriveStatus.DEGRADED
        return DriveStatus.OK

    def degraded_drives(self) -> list[str]:
        """Serials currently quarantined (reported, never mis-scored)."""
        return sorted(
            serial for serial, row in self._row.items() if self._degraded[row]
        )

    def fault_counts(self) -> dict[str, int]:
        """Per-drive count of quarantined (malformed, excluded) ticks."""
        return {
            serial: int(self._fault_count[row])
            for serial, row in sorted(self._row.items())
            if self._fault_count[row]
        }

    def health_report(self) -> dict[str, object]:
        """One-call summary for operators: faults, quarantine, alerts.

        The dict is schema-tagged (``"schema"``, see
        ``docs/observability.md``) so downstream tooling can detect
        format changes.  When a recording metrics registry is installed
        the ``"metrics"`` section carries the serving-family
        (``serve.*``) series from the live snapshot; with the default
        no-op registry it is empty.
        """
        return self._health_report(
            len(self._serials), self.degraded_drives(), self.vote_flips
        )
