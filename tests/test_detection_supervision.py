"""Self-healing serving suite: supervisor, tick journal, crash recovery.

The golden-parity bar from ``test_detection_sharded.py`` extended to
crashes: a :class:`SupervisedShardedMonitor` whose shards are killed
mid-stream — between ticks (probe-detected) or mid-dispatch (typed
error path) — must end bit-identical to a single columnar
``FleetMonitor`` that never crashed: same alerts and alert ids, same
faults, same ``health_report()``, same SLO state, same event set and
metrics (modulo the supervision lifecycle family, which only the
supervised run emits).  On top of parity it pins the journal's
durability contract, the restart budget's quarantine behaviour, the
auto-snapshot cadence, and recovery with a canary deployment in
flight.
"""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.detection import (
    CanaryPolicy,
    FleetMonitor,
    RestartPolicy,
    ShardedFleetMonitor,
    SupervisedShardedMonitor,
    TickJournal,
    VoterSpec,
    shard_for,
)
from repro.detection.supervision import TICK_JOURNAL_SCHEMA
from repro.features.vectorize import Feature
from repro.observability import disable_metrics, enable_metrics, get_registry
from repro.observability.events import (
    disable_events,
    enable_events,
    read_events,
    validate_events,
)
from repro.observability.slo import SLOMonitor
from repro.smart.attributes import N_CHANNELS
from repro.utils.errors import TornEventLogWarning

FEATURES = (Feature("POH"), Feature("TC"), Feature("RSC", 6.0), Feature("RRER", 12.0))

#: Event types only the supervised run emits: the recovery lifecycle.
#: Parity over everything else is the whole point.
SUPERVISION_EVENTS = {
    "shard_died",
    "shard_recovered",
    "shard_quarantined",
    "shard_snapshot",
    "shard_restored",
}


def _score_sample(row):
    total = np.nansum(row)
    return -1.0 if total < 0.0 else 1.0


def _score_batch(X):
    return np.where(np.nansum(X, axis=1) < 0.0, -1.0, 1.0)


def _build_single(**kwargs):
    kwargs.setdefault("score_batch", _score_batch)
    kwargs.setdefault("detector_factory", VoterSpec("majority", 3))
    return FleetMonitor(
        FEATURES, score_sample=_score_sample, **kwargs
    )


def _build_supervised(n_shards, run_dir, **kwargs):
    kwargs.setdefault("score_batch", _score_batch)
    kwargs.setdefault("detector_factory", VoterSpec("majority", 3))
    return SupervisedShardedMonitor(
        FEATURES, _score_sample, kwargs.pop("detector_factory"),
        n_shards=n_shards, run_dir=run_dir, **kwargs,
    )


def _dirty_tick(rng, hour, n_drives):
    """One synthetic collection tick exercising every fault kind."""
    pairs = []
    for d in range(n_drives):
        values = rng.normal(size=N_CHANNELS)
        roll = rng.random()
        if roll < 0.08:
            values = np.ones(3)  # wrong shape
        elif roll < 0.16:
            values = np.full(N_CHANNELS, np.nan)
        pairs.append((f"d{d:03d}", values))
    if rng.random() < 0.3:
        pairs.append((f"d{rng.integers(n_drives):03d}", rng.normal(size=N_CHANNELS)))
    tick_hour = float(hour)
    roll = rng.random()
    if roll < 0.05:
        tick_hour = float("nan")
    elif roll < 0.15:
        tick_hour = float(hour - 2)
    return tick_hour, pairs


def _stream(ticks=30, n_drives=12, seed=42):
    rng = np.random.default_rng(seed)
    return [_dirty_tick(rng, hour, n_drives) for hour in range(ticks)]


def _nan_eq(a, b):
    return a == b or (
        isinstance(a, float) and isinstance(b, float)
        and np.isnan(a) and np.isnan(b)
    )


def assert_alerts_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.serial == b.serial and a.alert_id == b.alert_id
        assert _nan_eq(a.hour, b.hour) and _nan_eq(a.score, b.score)


def assert_faults_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert (a.serial, a.kind, a.detail) == (b.serial, b.kind, b.detail)
        assert _nan_eq(a.hour, b.hour)


def _strip_metrics(metrics):
    return {
        k: v for k, v in metrics.items()
        if k != "serve.tick_seconds" and not k.startswith("shard.")
    }


def _event_key(event):
    payload = {k: v for k, v in event.to_json_dict().items() if k != "seq"}
    return json.dumps(payload, sort_keys=True, default=repr)


def _run_instrumented(build, drive):
    """Run ``drive(monitor)`` under live metrics + event log; capture state.

    Supervision lifecycle events and the ``shard.*`` metric family are
    filtered out — they describe the crashes, not the served stream —
    and the reports' topology sections are popped, so the remainder is
    comparable 1:1 against a single never-crashed monitor.
    """
    enable_metrics()
    log = enable_events()
    try:
        monitor = build()
        try:
            drive(monitor)
            report = monitor.health_report()
            report.pop("sharding", None)
            report.pop("supervision", None)
            report["metrics"] = _strip_metrics(report["metrics"])
            return {
                "alerts": monitor.alerts,
                "faults": monitor.faults,
                "watched": monitor.watched_drives(),
                "degraded": monitor.degraded_drives(),
                "fault_counts": monitor.fault_counts(),
                "report": report,
                "slo": monitor.slo.status() if monitor.slo is not None else None,
                "events": sorted(
                    _event_key(e) for e in log.events
                    if e.type not in SUPERVISION_EVENTS
                ),
                "metrics": _strip_metrics(get_registry().snapshot()["metrics"]),
            }
        finally:
            if isinstance(monitor, ShardedFleetMonitor):
                monitor.close()
    finally:
        disable_metrics()
        disable_events()


def assert_states_equal(left, right):
    left, right = dict(left), dict(right)
    assert_alerts_equal(left.pop("alerts"), right.pop("alerts"))
    assert_faults_equal(left.pop("faults"), right.pop("faults"))
    assert left == right


def _finish(monitor, stream):
    for hour, pairs in stream:
        monitor.observe_fleet(hour, pairs)
    monitor.finalize()
    monitor.resolve_outcome("d000", failed=True, failure_hour=100.0)
    monitor.resolve_outcome("d001", failed=False)


class TestTickJournal:
    def _matrix(self, rows=4, seed=0):
        return np.random.default_rng(seed).normal(size=(rows, N_CHANNELS))

    def test_entries_round_trip_every_kind(self, tmp_path):
        journal = TickJournal(tmp_path / "j.jsonl")
        feed = self._matrix()
        journal.append_register(1, ("a", "b", "c", "d"))
        journal.append_pin(1, feed)
        journal.append_tick_matrix(0.0, 1, matrix=feed)
        journal.append_tick_matrix(1.0, 1, pinned=True)
        items = [("a", np.ones(N_CHANNELS))]
        journal.append_tick_fleet(2.0, items, ["a"], single=True)
        journal.close()

        entries = journal.entries()
        assert [e["kind"] for e in entries] == [
            "register", "pin", "tick", "tick", "tick",
        ]
        assert entries[0]["roster"] == ["a", "b", "c", "d"]
        assert np.array_equal(entries[1]["matrix"], feed)
        assert np.array_equal(entries[2]["matrix"], feed)
        assert entries[3]["pinned"] is True
        assert entries[4]["items"][0][0] == "a"
        assert np.array_equal(entries[4]["items"][0][1], np.ones(N_CHANNELS))
        assert entries[4]["duplicates"] == ["a"]
        assert entries[4]["single"] is True
        assert journal.tick_count == 3

    def test_header_line_is_schema_tagged(self, tmp_path):
        journal = TickJournal(tmp_path / "j.jsonl")
        journal.close()
        first = json.loads((tmp_path / "j.jsonl").read_text().splitlines()[0])
        assert first == {"schema": TICK_JOURNAL_SCHEMA}

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = TickJournal(path)
        journal.close()
        path.write_text('{"schema": "repro.tick-journal/v999"}\n')
        with pytest.raises(ValueError, match="v999"):
            journal.entries()

    def test_torn_final_line_dropped_under_warning(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = TickJournal(path)
        journal.append_register(1, ("a",))
        journal.append_tick_fleet(0.0, [("a", np.ones(N_CHANNELS))], [])
        journal.close()
        with path.open("a") as handle:
            handle.write('{"kind": "tick", "mode": "fl')  # crashed mid-append
        with pytest.warns(TornEventLogWarning, match="torn final"):
            entries = journal.entries()
        assert [e["kind"] for e in entries] == ["register", "tick"]
        with pytest.raises(ValueError, match="corrupt"):
            journal.entries(tolerant=False)

    def test_missing_final_sidecar_treated_as_torn(self, tmp_path):
        journal = TickJournal(tmp_path / "j.jsonl")
        journal.append_register(1, ("a", "b", "c", "d"))
        journal.append_tick_matrix(0.0, 1, matrix=self._matrix())
        journal.append_tick_matrix(1.0, 1, matrix=self._matrix(seed=1))
        journal.close()
        sidecars = sorted(journal.sidecar_dir.glob("*.npy"))
        sidecars[-1].unlink()  # the crash window: line landed, bytes did not
        with pytest.warns(TornEventLogWarning):
            entries = journal.entries()
        assert len([e for e in entries if e["kind"] == "tick"]) == 1

    def test_mid_file_corruption_raises_even_when_tolerant(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = TickJournal(path)
        journal.append_register(1, ("a",))
        journal.close()
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-4]
        lines.append('{"kind": "register", "roster_id": 2, "roster": []}')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            journal.entries()

    def test_reset_truncates_and_reseeds_context(self, tmp_path):
        journal = TickJournal(tmp_path / "j.jsonl")
        feed = self._matrix()
        journal.append_register(1, ("a", "b", "c", "d"))
        journal.append_tick_matrix(0.0, 1, matrix=feed)
        journal.reset(roster_id=2, roster=("a", "b", "c", "d"), pin=feed)
        assert journal.tick_count == 0
        entries = journal.entries()
        assert [e["kind"] for e in entries] == ["register", "pin"]
        assert entries[0]["roster_id"] == 2
        # Old tick sidecars are gone; only the re-seeded pin remains.
        assert len(list(journal.sidecar_dir.glob("*.npy"))) == 1
        journal.close()

    def test_construction_truncates_a_previous_run(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = TickJournal(path)
        first.append_register(1, ("a", "b", "c", "d"))
        first.append_tick_matrix(0.0, 1, matrix=self._matrix())
        first.close()
        second = TickJournal(path)
        assert second.entries() == []
        assert list(second.sidecar_dir.glob("*.npy")) == []
        second.close()


class TestPolicies:
    def test_restart_policy_validates(self):
        with pytest.raises(ValueError, match="max_restarts"):
            RestartPolicy(max_restarts=0)
        with pytest.raises(ValueError, match="window_ticks"):
            RestartPolicy(window_ticks=0)
        policy = RestartPolicy(max_restarts=2, window_ticks=8)
        assert (policy.max_restarts, policy.window_ticks) == (2, 8)

    def test_snapshot_cadence_validates(self, tmp_path):
        with pytest.raises(ValueError, match="snapshot_every"):
            _build_supervised(2, tmp_path / "run", snapshot_every=-1)


class TestSerialRecoveryParity:
    """Killed-and-recovered serial shards == one never-crashed monitor."""

    def test_kills_across_snapshot_boundaries_stay_bit_identical(self, tmp_path):
        stream = _stream(ticks=30, n_drives=40, seed=42)
        kills = {3: 0, 9: 2, 17: 1, 25: 0}  # tick -> shard to kill

        golden = _run_instrumented(
            lambda: _build_single(slo=SLOMonitor()),
            lambda monitor: _finish(monitor, stream),
        )
        assert golden["alerts"], "stream must alert for parity to mean anything"
        assert golden["faults"]

        def drive(monitor):
            for at, (hour, pairs) in enumerate(stream):
                if at in kills:
                    monitor.kill_shard(kills[at])
                monitor.observe_fleet(hour, pairs)
            monitor.finalize()
            monitor.resolve_outcome("d000", failed=True, failure_hour=100.0)
            monitor.resolve_outcome("d001", failed=False)
            assert monitor.recoveries == len(kills)
            assert monitor.quarantined_shards == []

        state = _run_instrumented(
            lambda: _build_supervised(
                3, tmp_path / "run", slo=SLOMonitor(), snapshot_every=8
            ),
            drive,
        )
        assert_states_equal(golden, state)

    def test_recovery_before_any_snapshot_rebuilds_from_fresh(self, tmp_path):
        stream = _stream(ticks=10, n_drives=16, seed=5)
        golden = _run_instrumented(
            lambda: _build_single(slo=SLOMonitor()),
            lambda monitor: _finish(monitor, stream),
        )

        def drive(monitor):
            for at, (hour, pairs) in enumerate(stream):
                if at == 4:
                    monitor.kill_shard(1)
                monitor.observe_fleet(hour, pairs)
            monitor.finalize()
            monitor.resolve_outcome("d000", failed=True, failure_hour=100.0)
            monitor.resolve_outcome("d001", failed=False)

        # snapshot_every=0: no snapshot ever exists; the journal covers
        # the whole run and recovery replays it from a fresh shard.
        state = _run_instrumented(
            lambda: _build_supervised(
                2, tmp_path / "run", slo=SLOMonitor(), snapshot_every=0
            ),
            drive,
        )
        assert_states_equal(golden, state)

    def test_matrix_path_recovery_parity(self, tmp_path):
        serials = tuple(f"m{d:03d}" for d in range(30))
        rng = np.random.default_rng(7)
        ticks = [rng.normal(size=(30, N_CHANNELS)) for _ in range(20)]

        def drive_clean(monitor):
            monitor.register_fleet(serials)
            for hour, matrix in enumerate(ticks):
                monitor.observe_tick(float(hour), matrix)
            monitor.finalize()

        def drive_killed(monitor):
            monitor.register_fleet(serials)
            for hour, matrix in enumerate(ticks):
                if hour in (5, 13):
                    monitor.kill_shard(hour % monitor.n_shards)
                monitor.observe_tick(float(hour), matrix)
            monitor.finalize()

        golden = _run_instrumented(lambda: _build_single(), drive_clean)
        assert golden["alerts"]
        state = _run_instrumented(
            lambda: _build_supervised(3, tmp_path / "run", snapshot_every=6),
            drive_killed,
        )
        assert_states_equal(golden, state)

    def test_pinned_feed_recovery_parity(self, tmp_path):
        serials = tuple(f"p{d:02d}" for d in range(20))
        rng = np.random.default_rng(3)
        feed = rng.normal(size=(20, N_CHANNELS))

        def drive_clean(monitor):
            monitor.register_fleet(serials)
            for hour in range(12):
                monitor.observe_tick(float(hour), feed)
            monitor.finalize()

        def drive_killed(monitor):
            monitor.register_fleet(serials)
            monitor.pin_feed(feed)
            for hour in range(12):
                if hour == 6:
                    monitor.kill_shard(0)
                monitor.observe_tick(float(hour))  # pinned: no payload
            monitor.finalize()

        golden = _run_instrumented(lambda: _build_single(), drive_clean)
        state = _run_instrumented(
            lambda: _build_supervised(2, tmp_path / "run", snapshot_every=5),
            drive_killed,
        )
        # The journal re-pins the recovered shard's feed slice; the other
        # shard keeps its original pin — no caller-side re-pin needed.
        assert_states_equal(golden, state)


class TestProcessRecoveryParity:
    """Real SIGKILL against worker processes, probe and mid-dispatch paths."""

    def _sigkill_shard(self, monitor, sid, *, wait=True):
        pids = monitor._hosts[sid].pids()
        assert pids, "worker must be spawned before it can be killed"
        os.kill(pids[0], signal.SIGKILL)
        if wait:
            deadline = time.monotonic() + 10.0
            while monitor._hosts[sid].poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
            assert monitor._hosts[sid].alive is False

    def test_probe_detected_sigkill_parity(self, tmp_path):
        stream = _stream(ticks=15, n_drives=10, seed=11)
        golden = _run_instrumented(
            lambda: _build_single(slo=SLOMonitor()),
            lambda monitor: _finish(monitor, stream),
        )

        def drive(monitor):
            assert monitor.mode == "process"
            for at, (hour, pairs) in enumerate(stream):
                if at in (2, 7, 11):
                    self._sigkill_shard(monitor, at % monitor.n_shards)
                monitor.observe_fleet(hour, pairs)
            monitor.finalize()
            monitor.resolve_outcome("d000", failed=True, failure_hour=100.0)
            monitor.resolve_outcome("d001", failed=False)
            assert monitor.recoveries == 3

        state = _run_instrumented(
            lambda: _build_supervised(
                2, tmp_path / "run", slo=SLOMonitor(),
                snapshot_every=5, mode="process",
            ),
            drive,
        )
        assert_states_equal(golden, state)

    def test_mid_dispatch_sigkill_excludes_in_flight_tick(
        self, tmp_path, monkeypatch
    ):
        """Death discovered *during* a dispatch, not by the probe.

        The dying tick was journaled (write-ahead) but never merged;
        replay must exclude it and the supervisor must re-submit it
        through the observed path — applying it twice (or zero times)
        breaks parity.
        """
        stream = _stream(ticks=12, n_drives=10, seed=19)
        golden = _run_instrumented(
            lambda: _build_single(slo=SLOMonitor()),
            lambda monitor: _finish(monitor, stream),
        )
        monkeypatch.setattr(
            SupervisedShardedMonitor, "probe_shards", lambda self: None
        )

        def drive(monitor):
            for at, (hour, pairs) in enumerate(stream):
                if at == 6:
                    # No poll wait: the next dispatch runs into the corpse.
                    self._sigkill_shard(monitor, 1, wait=False)
                monitor.observe_fleet(hour, pairs)
            monitor.finalize()
            monitor.resolve_outcome("d000", failed=True, failure_hour=100.0)
            monitor.resolve_outcome("d001", failed=False)
            assert monitor.recoveries >= 1

        state = _run_instrumented(
            lambda: _build_supervised(
                2, tmp_path / "run", slo=SLOMonitor(),
                snapshot_every=4, mode="process",
            ),
            drive,
        )
        assert_states_equal(golden, state)

    def test_ping_shards_reports_request_response_health(self, tmp_path):
        monitor = _build_supervised(2, tmp_path / "run", mode="process")
        try:
            monitor.observe_fleet(
                0.0, {f"d{d}": np.ones(N_CHANNELS) for d in range(4)}
            )
            assert monitor.ping_shards(timeout=30.0) == {0: True, 1: True}
        finally:
            monitor.close()

    def test_recovery_keeps_a_file_backed_event_log_doctor_clean(
        self, tmp_path
    ):
        """Forked workers must not write through an inherited event log.

        Fork inherits the parent's file-backed ``EventLog`` — object,
        open handle, and a stale sequence counter.  If a worker's
        ambient instruments are not reset at spawn, the recovery
        replay's unobserved calls interleave duplicate events with
        rewound seqs into the parent's JSONL file, and the log fails
        ``repro-events doctor``.
        """
        log_path = tmp_path / "events.jsonl"
        enable_events(log_path)
        stream = _stream(ticks=10, n_drives=8, seed=31)
        monitor = _build_supervised(
            2, tmp_path / "run", snapshot_every=3, mode="process"
        )
        try:
            for at, (hour, pairs) in enumerate(stream):
                if at == 5:
                    self._sigkill_shard(monitor, 1)
                monitor.observe_fleet(hour, pairs)
            monitor.finalize()
            assert monitor.recoveries == 1
        finally:
            monitor.close()
            disable_events()
        verdict = validate_events(log_path)
        assert verdict["errors"] == []
        assert verdict["ok"] is True
        assert verdict["torn_tail"] is None
        # No replayed tick may surface twice in the merged stream.
        scored = [
            (event.drive, event.hour)
            for event in read_events(log_path)
            if event.type == "sample_scored"
        ]
        assert len(scored) == len(set(scored))


class TestRestartBudget:
    """A flapping shard is quarantined: degraded and reported, never paged."""

    def _flapping_run(self, tmp_path, log):
        monitor = _build_supervised(
            2, tmp_path / "run",
            detector_factory=VoterSpec("majority", 1),
            restart_policy=RestartPolicy(max_restarts=2, window_ticks=100),
            snapshot_every=0,
        )
        records = {f"d{d:03d}": np.ones(N_CHANNELS) for d in range(12)}
        victims = sorted(s for s in records if shard_for(s, 2) == 0)
        survivors = sorted(s for s in records if shard_for(s, 2) == 1)
        for hour in range(12):
            if hour in (2, 5, 8):  # third death exhausts max_restarts=2
                monitor.kill_shard(0)
            monitor.observe_fleet(float(hour), records)
        monitor.finalize()
        return monitor, victims, survivors

    def test_budget_exhaustion_quarantines_without_raising(self, tmp_path):
        log = enable_events()
        try:
            monitor, victims, survivors = self._flapping_run(tmp_path, log)
            assert monitor.quarantined_shards == [0]
            assert monitor.recoveries == 2  # budget, not the death count
            # The stream never raised and the survivors are still served.
            assert monitor.watched_drives() == survivors
            report = monitor.health_report()
            assert report["sharding"]["quarantined_shards"] == [0]
            assert report["supervision"]["quarantined_shards"] == [0]
            assert report["watched_drives"] == len(survivors)
            # Visible in the event stream: two recoveries, then the cut.
            types = [
                e.type for e in log.events if e.type in SUPERVISION_EVENTS
            ]
            assert types.count("shard_died") == 3
            assert types.count("shard_recovered") == 2
            assert types.count("shard_quarantined") == 1
            quarantined = next(
                e for e in log.events if e.type == "shard_quarantined"
            )
            assert quarantined.data == {"shard": 0, "n_shards": 2}
            monitor.close()
        finally:
            disable_events()

    def test_quarantined_shard_never_pages(self, tmp_path):
        log = enable_events()
        try:
            monitor, victims, survivors = self._flapping_run(tmp_path, log)
            # No alert names a drive from the quarantined shard after the
            # cut, and the lifecycle events are not alerts.
            alert_events = [e for e in log.events if e.type == "alert_raised"]
            assert all(e.drive not in victims or e.hour < 8 for e in alert_events)
            monitor.close()
        finally:
            disable_events()

    def test_restart_window_ages_old_deaths_out(self, tmp_path):
        monitor = _build_supervised(
            2, tmp_path / "run",
            detector_factory=VoterSpec("majority", 1),
            restart_policy=RestartPolicy(max_restarts=2, window_ticks=4),
            snapshot_every=0,
        )
        try:
            records = {f"d{d:03d}": np.ones(N_CHANNELS) for d in range(8)}
            # Three deaths, each 5 ticks apart: every death falls outside
            # the previous window, so the budget never exhausts.
            for hour in range(16):
                if hour in (2, 7, 12):
                    monitor.kill_shard(0)
                monitor.observe_fleet(float(hour), records)
            assert monitor.recoveries == 3
            assert monitor.quarantined_shards == []
        finally:
            monitor.close()


class TestSnapshotCadence:
    def test_auto_snapshot_truncates_the_journal(self, tmp_path):
        monitor = _build_supervised(2, tmp_path / "run", snapshot_every=4)
        try:
            records = {f"d{d}": np.ones(N_CHANNELS) for d in range(6)}
            for hour in range(10):
                monitor.observe_fleet(float(hour), records)
            # Ticks 4 and 8 snapshotted; the journal holds only 9 and 10.
            assert monitor.journal.tick_count == 2
            store = monitor._snapshot_store
            assert "coordinator" in store
            assert "shard-0" in store and "shard-1" in store
        finally:
            monitor.close()

    def test_model_change_forces_a_snapshot(self, tmp_path):
        monitor = _build_supervised(2, tmp_path / "run", snapshot_every=0)
        try:
            records = {f"d{d}": np.ones(N_CHANNELS) for d in range(6)}
            for hour in range(3):
                monitor.observe_fleet(float(hour), records)
            assert monitor.journal.tick_count == 3
            monitor.set_model(_score_sample, score_batch=_score_batch)
            # The snapshot owns the ticks; the journal restarts empty.
            assert monitor.journal.tick_count == 0
            assert "coordinator" in monitor._snapshot_store
        finally:
            monitor.close()

    def test_health_report_supervision_section(self, tmp_path):
        monitor = _build_supervised(
            2, tmp_path / "run", snapshot_every=16,
            restart_policy=RestartPolicy(max_restarts=5, window_ticks=50),
        )
        try:
            records = {f"d{d}": np.ones(N_CHANNELS) for d in range(6)}
            monitor.observe_fleet(0.0, records)
            monitor.kill_shard(0)
            monitor.observe_fleet(1.0, records)
            section = monitor.health_report()["supervision"]
            assert section["journal_path"].endswith("journal.jsonl")
            assert section["journal_ticks"] == 2
            assert section["snapshot_every"] == 16
            assert section["recoveries"] == 1
            assert section["replayed_ticks"] >= 1
            assert section["quarantined_shards"] == []
            assert section["restart_policy"] == {
                "max_restarts": 5, "window_ticks": 50,
            }
            assert section["restarts_in_window"] == {0: 1}
        finally:
            monitor.close()


class TestExplainReportChaos:
    """Chaos satellite: explanation survives kill-and-resume byte-for-byte.

    The explain report folds only served provenance (``alert_raised``
    paths joined with ``outcome_resolved``); the supervision lifecycle
    family describes the crashes, not the stream, and is not folded.  A
    supervised run that was killed and recovered mid-stream must
    therefore produce the byte-identical report of a run that never
    crashed.
    """

    def _fit_tree(self):
        from repro.tree import ClassificationTree

        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, len(FEATURES)))
        y = np.where(X.sum(axis=1) < 0.0, -1, 1)
        return ClassificationTree(minsplit=8, minbucket=3, cp=0.001).fit(X, y)

    def test_report_identical_before_and_after_kill_and_resume(self, tmp_path):
        from repro.explain import build_explain_report, canonical_json

        stream = _stream(ticks=20, n_drives=16, seed=23)
        tree = self._fit_tree()

        def run(run_dir, kills):
            log = enable_events()
            try:
                monitor = _build_supervised(
                    2, run_dir, slo=SLOMonitor(), snapshot_every=6, tree=tree
                )
                try:
                    for at, (hour, pairs) in enumerate(stream):
                        if at in kills:
                            monitor.kill_shard(kills[at])
                        monitor.observe_fleet(hour, pairs)
                    monitor.finalize()
                    monitor.resolve_outcome(
                        "d000", failed=True, failure_hour=100.0
                    )
                    monitor.resolve_outcome("d001", failed=False)
                    assert monitor.recoveries == len(kills)
                finally:
                    monitor.close()
                return build_explain_report(list(log.events))
            finally:
                disable_events()

        clean = run(tmp_path / "clean", {})
        killed = run(tmp_path / "killed", {4: 0, 11: 1, 16: 0})
        assert clean["alerts_with_path"] >= 1
        assert clean["alerts_resolved"] >= 1
        assert canonical_json(killed) == canonical_json(clean)


class TestCanaryRecovery:
    def test_canary_shard_killed_mid_soak_still_resolves(self, tmp_path):
        records = {f"c{d}": np.ones(N_CHANNELS) for d in range(8)}

        def run(run_dir, kill):
            monitor = _build_supervised(
                2, run_dir, detector_factory=VoterSpec("majority", 1),
                snapshot_every=0,
            )
            try:
                monitor.observe_fleet(0.0, records)
                monitor.begin_deployment(
                    _score_sample, score_batch=_score_batch,
                    canary_shards=(0,), policy=CanaryPolicy(soak_ticks=4),
                )
                for hour in range(1, 5):
                    if kill and hour == 3:
                        monitor.kill_shard(0)  # the canary, mid-soak
                    monitor.observe_fleet(float(hour), records)
                assert not monitor.deployment_active
                return monitor.last_verdict, monitor.model_generation
            finally:
                monitor.close()

        clean_verdict, clean_generation = run(tmp_path / "clean", kill=False)
        killed_verdict, killed_generation = run(tmp_path / "killed", kill=True)
        # begin_deployment checkpointed the canary model, so the
        # recovered shard serves generation 1 — not the incumbent — and
        # the soak resolves identically to the uninterrupted rollout.
        assert killed_verdict == clean_verdict
        assert killed_verdict["passed"] is True
        assert killed_generation == clean_generation == 1
