"""Golden parity suite for the sharded coordinator (`ShardedFleetMonitor`).

The contract: for any shard count and either execution mode, the
coordinator's alerts, alert ids, faults, quarantine decisions,
`health_report()` counters, SLO state, metrics and event *set* must
equal a single `FleetMonitor` on the same stream.  Exemptions: the `serve.tick_seconds` wall-time histogram, the
coordinator-only `shard.*` family, and the report's extra `"sharding"`
section.  On top of the data path it pins the partitioner properties,
kill-and-resume bit-identity, and the canary rollout lifecycle.
"""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection import (
    FleetMonitor,
    CanaryPolicy,
    QuarantinePolicy,
    ShardedFleetMonitor,
    VoterSpec,
    shard_for,
)
from repro.features.vectorize import Feature
from repro.observability import disable_metrics, enable_metrics, get_registry
from repro.observability.events import disable_events, enable_events
from repro.observability.slo import SLOMonitor
from repro.smart.attributes import N_CHANNELS
from repro.utils.errors import UnpicklableTaskWarning

SHARD_COUNTS = (1, 2, 7)

FEATURES = (Feature("POH"), Feature("TC"), Feature("RSC", 6.0), Feature("RRER", 12.0))


def _score_sample(row):
    total = np.nansum(row)
    return -1.0 if total < 0.0 else 1.0


def _score_batch(X):
    return np.where(np.nansum(X, axis=1) < 0.0, -1.0, 1.0)


def _score_paging(row):
    return -1.0


def _score_paging_batch(X):
    return np.full(len(X), -1.0)


def _build_single(**kwargs):
    kwargs.setdefault("score_batch", _score_batch)
    kwargs.setdefault("detector_factory", VoterSpec("majority", 3))
    return FleetMonitor(
        FEATURES, score_sample=_score_sample, **kwargs
    )


def _build_sharded(n_shards, **kwargs):
    kwargs.setdefault("score_batch", _score_batch)
    kwargs.setdefault("detector_factory", VoterSpec("majority", 3))
    return ShardedFleetMonitor(
        FEATURES, _score_sample, kwargs.pop("detector_factory"),
        n_shards=n_shards, **kwargs,
    )


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
    # seq is assigned at absorption and the coordinator's per-tick shard
    # interleave legitimately differs from a single monitor's record
    # order — the parity contract is over the event *set*.
    payload = {k: v for k, v in event.to_json_dict().items() if k != "seq"}
    return json.dumps(payload, sort_keys=True, default=repr)


def _dirty_tick(rng, hour, n_drives):
    """One synthetic collection tick exercising every fault kind."""
    pairs = []
    for d in range(n_drives):
        values = rng.normal(size=N_CHANNELS)
        roll = rng.random()
        if roll < 0.08:
            values = np.ones(3)  # wrong shape
        elif roll < 0.16:
            values = np.full(N_CHANNELS, np.nan)  # unscorable, not a fault
        pairs.append((f"d{d:03d}", values))
    if rng.random() < 0.3:
        pairs.append((f"d{rng.integers(n_drives):03d}", rng.normal(size=N_CHANNELS)))
    tick_hour = float(hour)
    roll = rng.random()
    if roll < 0.05:
        tick_hour = float("nan")
    elif roll < 0.15:
        tick_hour = float(hour - 2)  # duplicate or out-of-order per drive
    return tick_hour, pairs


def _drive_dirty_stream(monitor, ticks=40, n_drives=12, seed=42):
    rng = np.random.default_rng(seed)
    for hour in range(ticks):
        monitor.observe_fleet(*_dirty_tick(rng, hour, n_drives))
    monitor.finalize()
    monitor.resolve_outcome("d000", failed=True, failure_hour=100.0)
    monitor.resolve_outcome("d001", failed=False)


def _drive_matrix_stream(monitor, ticks=25, n_drives=30, seed=7):
    serials = tuple(f"m{d:03d}" for d in range(n_drives))
    monitor.register_fleet(serials)
    rng = np.random.default_rng(seed)
    for hour in range(ticks):
        monitor.observe_tick(float(hour), rng.normal(size=(n_drives, N_CHANNELS)))
    monitor.finalize()


def _run_instrumented(build, drive):
    """Run ``drive(monitor)`` under live metrics + event log.

    Returns the full observable-state dict the parity assertions
    compare; events are captured as an order-independent sorted key
    list because shard envelopes interleave per tick.
    """
    enable_metrics()
    log = enable_events()
    try:
        monitor = build()
        try:
            drive(monitor)
            report = monitor.health_report()
            report.pop("sharding", None)
            report["metrics"] = _strip_metrics(report["metrics"])
            return {
                "alerts": monitor.alerts,
                "faults": monitor.faults,
                "vote_flips": monitor.vote_flips,
                "watched": monitor.watched_drives(),
                "degraded": monitor.degraded_drives(),
                "fault_counts": monitor.fault_counts(),
                "report": report,
                "slo": monitor.slo.status() if monitor.slo is not None else None,
                "events": sorted(_event_key(e) for e in log.events),
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


class TestPartitioner:
    """Satellite: the CRC-32 serial partitioner's contract."""

    def test_pinned_assignments_guard_hash_stability(self):
        # Literal expected shards: a partitioner change silently
        # reshuffles every snapshot and cross-process fleet, so the
        # hash function is pinned by value, not by formula.
        assert [shard_for("drive-000", n) for n in (2, 7, 16)] == [0, 6, 0]
        assert [shard_for("drive-001", n) for n in (2, 7, 16)] == [0, 1, 6]
        assert [shard_for("ZCH07B8B", n) for n in (2, 7, 16)] == [1, 6, 5]
        assert [shard_for("WD-WX11A", n) for n in (2, 7, 16)] == [1, 6, 1]

    def test_rejects_nonpositive_shard_counts(self):
        with pytest.raises(ValueError):
            shard_for("x", 0)
        with pytest.raises(ValueError):
            shard_for("x", -3)

    @given(
        serial=st.text(min_size=0, max_size=40),
        n_shards=st.integers(min_value=1, max_value=64),
    )
    @settings(deadline=None)
    def test_deterministic_and_in_range(self, serial, n_shards):
        first = shard_for(serial, n_shards)
        assert 0 <= first < n_shards
        assert shard_for(serial, n_shards) == first

    @given(
        serials=st.lists(st.text(min_size=1, max_size=20), unique=True,
                         max_size=50),
        n_shards=st.integers(min_value=1, max_value=16),
        rnd=st.randoms(use_true_random=False),
    )
    @settings(deadline=None)
    def test_insertion_order_invariant(self, serials, n_shards, rnd):
        mapping = {s: shard_for(s, n_shards) for s in serials}
        shuffled = list(serials)
        rnd.shuffle(shuffled)
        assert {s: shard_for(s, n_shards) for s in shuffled} == mapping

    @pytest.mark.parametrize("n_serials", [10_000, 100_000])
    def test_balanced_within_binomial_tolerance(self, n_serials):
        serials = [f"drive-{i:06d}" for i in range(n_serials)]
        for n_shards in (2, 7, 16):
            counts = Counter(shard_for(s, n_shards) for s in serials)
            assert set(counts) == set(range(n_shards))
            p = 1.0 / n_shards
            expected = n_serials * p
            sigma = math.sqrt(n_serials * p * (1.0 - p))
            for count in counts.values():
                assert abs(count - expected) < 6.0 * sigma


class TestPicklableSpecs:
    """The callables that cross process/snapshot boundaries."""

    def test_voter_spec_builds_builtin_voters(self):
        rows, failed = np.array([0]), np.array([-1.0])
        voter = VoterSpec("majority", 3).build(1)
        assert voter.push(rows, failed).tolist() == [False]
        mean = VoterSpec("mean", 2, threshold=0.5).build(1)
        assert mean.push(rows, np.array([0.0])).tolist() == [False]
        assert mean.push(rows, np.array([0.0])).tolist() == [True]

    def test_voter_spec_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            VoterSpec("plurality", 3)

    def test_canary_policy_requires_positive_soak(self):
        with pytest.raises(ValueError):
            CanaryPolicy(soak_ticks=0)

    def _fit_predictor(self, split):
        from repro.core.config import CTConfig
        from repro.core.predictor import DriveFailurePredictor

        config = CTConfig(minsplit=4, minbucket=2, cp=0.002)
        return DriveFailurePredictor(config).fit(split)

    def test_from_predictor_builds_a_sharded_monitor(self, tiny_split):
        predictor = self._fit_predictor(tiny_split)
        with ShardedFleetMonitor.from_predictor(
            predictor, detector_factory=VoterSpec("majority", 3), n_shards=2
        ) as monitor:
            rng = np.random.default_rng(0)
            for hour in range(3):
                monitor.observe_fleet(
                    float(hour),
                    {f"d{d}": rng.normal(size=N_CHANNELS) for d in range(6)},
                )
            assert sorted(monitor.watched_drives()) == [f"d{d}" for d in range(6)]


class TestConstruction:
    def test_rejects_strict_mode(self):
        with pytest.raises(ValueError, match="quarantine"):
            _build_sharded(2, quarantine=None)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            _build_sharded(2, mode="threads")

    def test_unpicklable_spec_falls_back_to_serial(self):
        with pytest.warns(UnpicklableTaskWarning):
            monitor = ShardedFleetMonitor(
                FEATURES,
                lambda row: 1.0,  # lambda cannot cross a process boundary
                VoterSpec("majority", 3),
                score_batch=None,
                n_shards=2,
                mode="process",
            )
        assert monitor.mode == "serial"
        monitor.observe("a", 0.0, np.ones(N_CHANNELS))
        assert monitor.watched_drives() == ["a"]
        monitor.close()


class TestGoldenParity:
    """One logical monitor: sharded == single columnar, bit for bit."""

    def test_dirty_stream_parity_at_pinned_shard_counts(self):
        golden = _run_instrumented(
            lambda: _build_single(slo=SLOMonitor()), _drive_dirty_stream
        )
        assert golden["alerts"], "stream must raise alerts for parity to mean anything"
        assert golden["faults"]
        for n_shards in SHARD_COUNTS:
            state = _run_instrumented(
                lambda: _build_sharded(n_shards, slo=SLOMonitor()),
                _drive_dirty_stream,
            )
            assert_states_equal(golden, state)

    def test_matrix_path_parity_at_pinned_shard_counts(self):
        golden = _run_instrumented(
            lambda: _build_single(slo=SLOMonitor()), _drive_matrix_stream
        )
        assert golden["alerts"]
        for n_shards in SHARD_COUNTS:
            state = _run_instrumented(
                lambda: _build_sharded(n_shards, slo=SLOMonitor()),
                _drive_matrix_stream,
            )
            assert_states_equal(golden, state)

    def test_single_record_observe_parity(self):
        def drive(monitor):
            rng = np.random.default_rng(7)
            for hour in range(30):
                for d in range(4):
                    monitor.observe(f"d{d}", float(hour), rng.normal(size=N_CHANNELS))
            monitor.finalize()

        golden = _run_instrumented(lambda: _build_single(slo=SLOMonitor()), drive)
        state = _run_instrumented(lambda: _build_sharded(3, slo=SLOMonitor()), drive)
        assert_states_equal(golden, state)

    def test_process_mode_parity(self):
        def drive(monitor):
            rng = np.random.default_rng(5)
            for hour in range(12):
                monitor.observe_fleet(*_dirty_tick(rng, hour, 8))
            monitor.finalize()
            monitor.resolve_outcome("d000", failed=True, failure_hour=50.0)

        golden = _run_instrumented(lambda: _build_single(slo=SLOMonitor()), drive)

        def build():
            monitor = _build_sharded(2, slo=SLOMonitor(), mode="process")
            assert monitor.mode == "process", "spec must pickle; no silent fallback"
            return monitor

        assert_states_equal(golden, _run_instrumented(build, drive))

    def test_pinned_feed_matches_per_tick_matrix(self):
        serials = tuple(f"p{d:02d}" for d in range(20))
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(20, N_CHANNELS))

        explicit = _build_sharded(3)
        explicit.register_fleet(serials)
        pinned = _build_sharded(3)
        pinned.register_fleet(serials)
        pinned.pin_feed(matrix)
        for hour in range(8):
            left = explicit.observe_tick(float(hour), matrix)
            right = pinned.observe_tick(float(hour))
            assert_alerts_equal(left, right)
        assert explicit.health_report() == pinned.health_report()

    def test_observe_tick_requires_roster_or_feed(self):
        monitor = _build_sharded(2)
        with pytest.raises(ValueError, match="roster"):
            monitor.observe_tick(0.0, np.ones((2, N_CHANNELS)))
        monitor.register_fleet(["a", "b"])
        with pytest.raises(ValueError, match="pinned"):
            monitor.observe_tick(0.0)
        with pytest.raises(ValueError, match="shape"):
            monitor.observe_tick(0.0, np.ones((3, N_CHANNELS)))

    def test_health_report_names_the_sharding(self):
        monitor = _build_sharded(2)
        monitor.observe_fleet(0.0, {"a": np.ones(N_CHANNELS), "b": np.ones(N_CHANNELS)})
        sharding = monitor.health_report()["sharding"]
        assert sharding["n_shards"] == 2
        assert sharding["mode"] == "serial"
        assert len(sharding["shard_drives"]) == 2
        assert sum(sharding["shard_drives"]) == 2

    def test_drive_status_routes_to_owning_shard(self):
        single = _build_single(quarantine=QuarantinePolicy(fault_limit=2))
        sharded = _build_sharded(3, quarantine=QuarantinePolicy(fault_limit=2))
        for monitor in (single, sharded):
            for _ in range(4):
                monitor.observe("bad", 0.0, np.ones(N_CHANNELS))  # dup time x3
        assert sharded.drive_status("bad") == single.drive_status("bad")
        assert sharded.degraded_drives() == single.degraded_drives()


class TestKillAndResume:
    """Satellite: a killed shard restored from snapshot resumes bit-identically."""

    def _stream(self, ticks=30, n_drives=10, seed=11):
        rng = np.random.default_rng(seed)
        return [_dirty_tick(rng, hour, n_drives) for hour in range(ticks)]

    def _finish(self, monitor, stream):
        for hour, pairs in stream:
            monitor.observe_fleet(hour, pairs)
        monitor.finalize()
        monitor.resolve_outcome("d000", failed=True, failure_hour=80.0)

    def _state(self, monitor):
        report = monitor.health_report()
        report["metrics"] = _strip_metrics(report["metrics"])
        return {
            "alerts": monitor.alerts,
            "faults": monitor.faults,
            "watched": monitor.watched_drives(),
            "degraded": monitor.degraded_drives(),
            "fault_counts": monitor.fault_counts(),
            "report": report,
            "slo": monitor.slo.status(),
        }

    def test_process_mode_kill_and_resume(self, tmp_path):
        stream = self._stream()
        with _build_sharded(2, slo=SLOMonitor(), mode="process") as golden:
            assert golden.mode == "process"
            self._finish(golden, stream)
            expected = self._state(golden)

        with _build_sharded(2, slo=SLOMonitor(), mode="process") as resumed:
            for hour, pairs in stream[:20]:
                resumed.observe_fleet(hour, pairs)
            store = resumed.snapshot(tmp_path / "snap.json")
            resumed._hosts[1].kill()
            with pytest.raises(RuntimeError, match="dead"):
                resumed._hosts[1].submit(len)
            resumed.restore_shard(1, store)
            self._finish(resumed, stream[20:])
            assert_states_equal(expected, self._state(resumed))

    def test_full_restore_crosses_execution_modes(self, tmp_path):
        stream = self._stream(ticks=24, seed=29)
        with _build_sharded(3, slo=SLOMonitor()) as golden:
            self._finish(golden, stream)
            expected = self._state(golden)

        first = _build_sharded(3, slo=SLOMonitor())
        for hour, pairs in stream[:12]:
            first.observe_fleet(hour, pairs)
        first.snapshot(tmp_path / "snap.json")
        first.close()

        # The snapshot is mode-independent: restore into serial mode
        # and keep going; only the "sharding" report section may differ.
        resumed = ShardedFleetMonitor.restore(tmp_path / "snap.json", mode="serial")
        assert resumed.n_shards == 3
        self._finish(resumed, stream[12:])
        got = self._state(resumed)
        expected["report"].pop("sharding")
        got["report"].pop("sharding")
        assert_states_equal(expected, got)
        resumed.close()

    def test_restored_shard_repins_the_current_roster(self, tmp_path):
        """Regression: a snapshot can predate the live registration.

        The snapshot's worker-side roster is whatever was pinned when it
        was taken; if ``restore_shard`` did not re-pin the coordinator's
        *current* sub-roster, matrix-path ticks after the restore would
        key rows against the stale roster and silently mis-assign
        drives.
        """
        old = tuple(f"old{d:02d}" for d in range(6))
        new = tuple(f"new{d:02d}" for d in range(10))
        rng = np.random.default_rng(13)
        old_feed = rng.normal(size=(len(old), N_CHANNELS))
        new_ticks = [rng.normal(size=(len(new), N_CHANNELS)) for _ in range(10)]

        golden = _build_sharded(2)
        golden.register_fleet(old)
        golden.observe_tick(0.0, old_feed)
        golden.register_fleet(new)
        for hour, matrix in enumerate(new_ticks, start=1):
            golden.observe_tick(float(hour), matrix)
        expected_alerts = list(golden.alerts)
        expected_watched = golden.watched_drives()

        monitor = _build_sharded(2)
        monitor.register_fleet(old)
        monitor.observe_tick(0.0, old_feed)
        store = monitor.snapshot(tmp_path / "stale.json")  # roster: old
        monitor.register_fleet(new)
        monitor.observe_tick(1.0, new_ticks[0])
        monitor.kill_shard(1)
        monitor.restore_shard(1, store)
        # Shard 1 replays tick 1 from nothing?  No — the snapshot holds
        # its state *before* the re-registration; re-drive tick 1's
        # slice is gone.  Parity here is over the re-pin only: further
        # ticks must key the NEW roster, not the snapshot's old one.
        for hour, matrix in enumerate(new_ticks[1:], start=2):
            monitor.observe_tick(float(hour), matrix)
        restored_serials = {
            s for s in monitor.watched_drives() if s.startswith("new")
            and shard_for(s, 2) == 1
        }
        expected_serials = {
            s for s in expected_watched if s.startswith("new")
            and shard_for(s, 2) == 1
        }
        assert restored_serials == expected_serials
        # Shard 0 was never killed: its alerts must match golden exactly.
        golden_shard0 = [
            a.serial for a in expected_alerts if shard_for(a.serial, 2) == 0
        ]
        resumed_shard0 = [
            a.serial for a in monitor.alerts if shard_for(a.serial, 2) == 0
        ]
        assert resumed_shard0 == golden_shard0
        monitor.close()

    def test_restore_missing_cells_raise(self, tmp_path):
        monitor = _build_sharded(2)
        monitor.observe_fleet(0.0, {"a": np.ones(N_CHANNELS)})
        store = monitor.snapshot_shard(0, tmp_path / "partial.json")
        with pytest.raises(KeyError, match="shard 1"):
            monitor.restore_shard(1, store)
        with pytest.raises(KeyError, match="coordinator"):
            ShardedFleetMonitor.restore(tmp_path / "partial.json")
        monitor.close()


class TestCanaryDeployment:
    """Satellite: rolling model deployment end to end."""

    def _quiet_fleet(self, n_shards=2):
        monitor = ShardedFleetMonitor(
            FEATURES, _score_sample, VoterSpec("majority", 1),
            score_batch=_score_batch, n_shards=n_shards,
        )
        monitor.observe_fleet(
            0.0, {f"c{d}": np.ones(N_CHANNELS) for d in range(8)}
        )
        return monitor

    def _soak(self, monitor, hours):
        for hour in hours:
            monitor.observe_fleet(
                float(hour), {f"c{d}": np.ones(N_CHANNELS) for d in range(8)}
            )

    def test_parity_candidate_cuts_the_fleet_over(self):
        log = enable_events()
        try:
            monitor = self._quiet_fleet()
            generation = monitor.begin_deployment(
                _score_sample, score_batch=_score_batch,
                canary_shards=(0,), policy=CanaryPolicy(soak_ticks=2),
            )
            assert generation == 1
            assert monitor.deployment_active
            self._soak(monitor, (1, 2))
            assert not monitor.deployment_active
            assert monitor.last_verdict["passed"] is True
            assert monitor.model_generation == 1
            types = [e.type for e in log.events if e.type.startswith(("canary", "fleet"))]
            assert types == ["canary_started", "canary_verdict", "fleet_cutover"]
            verdict = next(e for e in log.events if e.type == "canary_verdict")
            assert verdict.data["passed"] is True
            assert verdict.data["canary_alert_rate"] == 0.0
        finally:
            disable_events()
            monitor.close()

    def test_noisy_candidate_rolls_back(self):
        log = enable_events()
        try:
            monitor = self._quiet_fleet()
            monitor.begin_deployment(
                _score_paging, score_batch=_score_paging_batch,
                canary_shards=(1,), policy=CanaryPolicy(soak_ticks=2),
            )
            self._soak(monitor, (1, 2))
            assert monitor.last_verdict["passed"] is False
            assert monitor.last_verdict["canary_alert_rate"] > 0.0
            assert monitor.model_generation == 0
            types = [e.type for e in log.events if e.type.startswith(("canary", "fleet"))]
            assert types == ["canary_started", "canary_verdict", "fleet_rollback"]
            # The canaries serve the incumbent again: no further alerts.
            n_alerts = len(monitor.alerts)
            self._soak(monitor, (3, 4))
            assert len(monitor.alerts) == n_alerts
        finally:
            disable_events()
            monitor.close()

    def test_deployment_guard_rails(self):
        monitor = self._quiet_fleet(n_shards=3)
        try:
            with pytest.raises(ValueError, match="at least one"):
                monitor.begin_deployment(_score_sample, canary_shards=())
            with pytest.raises(ValueError, match="outside"):
                monitor.begin_deployment(_score_sample, canary_shards=(5,))
            with pytest.raises(ValueError, match="control group"):
                monitor.begin_deployment(_score_sample, canary_shards=(0, 1, 2))
            monitor.begin_deployment(
                _score_sample, canary_shards=(0,),
                policy=CanaryPolicy(soak_ticks=4),
            )
            with pytest.raises(RuntimeError, match="in flight"):
                monitor.begin_deployment(_score_sample, canary_shards=(1,))
            with pytest.raises(RuntimeError, match="deployment"):
                monitor.set_model(_score_sample)
        finally:
            monitor.close()

    def test_set_model_broadcasts_everywhere(self):
        log = enable_events()
        try:
            monitor = self._quiet_fleet()
            monitor.set_model(_score_paging, score_batch=_score_paging_batch)
            assert monitor.model_generation == 1
            replaced = [e for e in log.events if e.type == "model_replaced"]
            assert len(replaced) == 1
            assert replaced[0].data["to_generation"] == 1
            # Every shard now pages: each drive alerts on the next tick.
            self._soak(monitor, (1,))
            assert sorted(a.serial for a in monitor.alerts) == [
                f"c{d}" for d in range(8)
            ]
        finally:
            disable_events()
            monitor.close()
