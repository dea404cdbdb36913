"""The sharded coordinator (`ShardedFleetMonitor`) beyond the digest matrix.

Its data-path contract — for any shard count and either execution mode,
the same observable surface as a single `FleetMonitor` on the same
stream — is checked once, across deployments, by
``tests/test_serving_matrix.py``.  This suite pins what that matrix
does not see: the partitioner's properties, construction guards, the
pipelined roster dispatch, the state both modes are left in after a
hosted error, malformed-call errors, kill-and-resume bit-identity, and
the canary rollout lifecycle.
"""

import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection import (
    SHARD_MODES,
    FleetMonitor,
    CanaryPolicy,
    QuarantinePolicy,
    ShardedFleetMonitor,
    VoterSpec,
    shard_for,
)
from repro.observability.events import disable_events, enable_events
from repro.observability.slo import SLOMonitor
from repro.smart.attributes import N_CHANNELS
from repro.utils.errors import UnpicklableTaskWarning
from tests.serving_digest import (
    FEATURES,
    POISON,
    alert_rows,
    build_sharded,
    build_single,
    digest,
    dirty_tick,
    monitor_surfaces,
    score_batch,
    score_batch_missing_file,
    score_batch_poisoned,
    score_sample,
)


def _score_paging(row):
    return -1.0


def _score_paging_batch(X):
    return np.full(len(X), -1.0)


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

    @pytest.mark.parametrize("delta", [float("nan"), -0.01])
    def test_canary_policy_requires_a_finite_nonnegative_delta(self, delta):
        # A NaN delta fails every parity check, even an identical candidate.
        with pytest.raises(ValueError, match="max_alert_rate_delta"):
            CanaryPolicy(max_alert_rate_delta=delta)

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
            build_sharded(2, quarantine=None)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            build_sharded(2, mode="threads")

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
    """Sharded == single where the digest matrix does not reach."""

    @pytest.mark.parametrize("mode", SHARD_MODES)
    def test_process_mode_sends_each_slice_before_cutting_the_next(
        self, mode, monkeypatch
    ):
        # The roster tick is pipelined: shard k is already working on its
        # slice while shard k+1's is cut from the tick matrix.
        order = []
        cut = ShardedFleetMonitor._roster_payload

        def recording_cut(self, hour, sid, matrix):
            order.append(("cut", sid))
            return cut(self, hour, sid, matrix)

        monkeypatch.setattr(ShardedFleetMonitor, "_roster_payload", recording_cut)
        serials = tuple(f"q{d:02d}" for d in range(24))
        matrix = np.random.default_rng(8).normal(size=(24, N_CHANNELS))
        single = build_single()
        single.register_fleet(serials)
        with build_sharded(3, mode=mode) as monitor:
            assert monitor.mode == mode
            for sid, host in enumerate(monitor._hosts):
                def submit(func, payload=None, *, _sid=sid, _submit=host.submit, **kw):
                    order.append(("send", _sid))
                    return _submit(func, payload, **kw)

                host.submit = submit
            monitor.register_fleet(serials)
            order.clear()
            alerts = monitor.observe_tick(0.0, matrix)
            assert order == [
                ("cut", 0), ("send", 0), ("cut", 1), ("send", 1), ("cut", 2), ("send", 2),
            ]
            assert alert_rows(alerts) == alert_rows(single.observe_tick(0.0, matrix))
            assert monitor.watched_drives() == single.watched_drives()

    def _assert_modes_converge_after(self, score_batch, error_type):
        # Every shard receives its slice before a hosted error surfaces,
        # so both modes are left in the same state after the raise.
        serials = [f"d{d:03d}" for d in range(40)]
        poisoned = next(s for s in serials if shard_for(s, 2) == 0)
        tick = {s: np.ones(N_CHANNELS) for s in serials}
        tick[poisoned] = np.full(N_CHANNELS, POISON)
        outcomes = {}
        for mode in SHARD_MODES:
            with build_sharded(2, score_batch=score_batch, mode=mode) as monitor:
                assert monitor.mode == mode
                with pytest.raises(error_type) as err:
                    monitor.observe_fleet(0.0, tick)
                report = monitor.health_report()
                assert report["sharding"].pop("mode") == mode
                outcomes[mode] = (type(err.value), str(err.value), report)
        assert outcomes["serial"] == outcomes["process"]
        assert outcomes["serial"][0] is error_type
        assert outcomes["serial"][1] == "scorer rejected a poisoned drive"
        assert outcomes["serial"][2]["watched_drives"] == len(serials)

    def test_modes_converge_after_a_hosted_error(self):
        self._assert_modes_converge_after(score_batch_poisoned, RuntimeError)

    def test_modes_converge_after_a_hosted_os_error(self):
        # An OSError the scorer raises is its error in process mode too,
        # not a dead shard worker.
        self._assert_modes_converge_after(score_batch_missing_file, FileNotFoundError)

    def test_observe_tick_requires_roster_or_feed(self):
        monitor = build_sharded(2)
        with pytest.raises(ValueError, match="roster"):
            monitor.observe_tick(0.0, np.ones((2, N_CHANNELS)))
        monitor.register_fleet(["a", "b"])
        with pytest.raises(ValueError, match="pinned"):
            monitor.observe_tick(0.0)
        with pytest.raises(ValueError, match="shape"):
            monitor.observe_tick(0.0, np.ones((3, N_CHANNELS)))

    def test_health_report_names_the_sharding(self):
        monitor = build_sharded(2)
        monitor.observe_fleet(0.0, {"a": np.ones(N_CHANNELS), "b": np.ones(N_CHANNELS)})
        sharding = monitor.health_report()["sharding"]
        assert sharding["n_shards"] == 2
        assert sharding["mode"] == "serial"
        assert len(sharding["shard_drives"]) == 2
        assert sum(sharding["shard_drives"]) == 2

    def test_drive_status_routes_to_owning_shard(self):
        single = build_single(quarantine=QuarantinePolicy(fault_limit=2))
        sharded = build_sharded(3, quarantine=QuarantinePolicy(fault_limit=2))
        for monitor in (single, sharded):
            for _ in range(4):
                monitor.observe("bad", 0.0, np.ones(N_CHANNELS))  # dup time x3
        assert sharded.drive_status("bad") == single.drive_status("bad")
        assert sharded.degraded_drives() == single.degraded_drives()


#: Malformed ``observe_tick`` calls: (registered roster, call kwargs,
#: the error message every monitor gives).
MALFORMED_TICKS = {
    "no-roster": (
        None, {"values": np.ones((2, N_CHANNELS))},
        "no tick roster: pass serials= or call register_fleet() first",
    ),
    "registered-without-values": (
        ("a", "b"), {"values": None},
        "values is required: no feed is pinned for this roster",
    ),
    "explicit-serials-without-values": (
        ("a", "b"), {"values": None, "serials": ("c", "d")},
        "values is required: no feed is pinned for this roster",
    ),
    "duplicate-roster-without-values": (
        ("a", "a"), {"values": None},
        "values is required: no feed is pinned for this roster",
    ),
    "extra-rows": (
        ("a", "b"), {"values": np.ones((3, N_CHANNELS))},
        f"values must have shape (2, {N_CHANNELS}), got (3, {N_CHANNELS})",
    ),
    "missing-channels": (
        ("a", "b"), {"values": np.ones((2, 3))},
        f"values must have shape (2, {N_CHANNELS}), got (2, 3)",
    ),
    "explicit-serials-misaligned": (
        ("a", "b"), {"values": np.ones((2, N_CHANNELS)), "serials": ("c",)},
        f"values must have shape (1, {N_CHANNELS}), got (2, {N_CHANNELS})",
    ),
}


class TestObserveTickContract:
    """Both monitors reject a malformed ``observe_tick`` the same way."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_TICKS))
    @pytest.mark.parametrize("monitor_type", [FleetMonitor, ShardedFleetMonitor])
    def test_malformed_call_error(self, monitor_type, case):
        roster, kwargs, message = MALFORMED_TICKS[case]
        if monitor_type is FleetMonitor:
            monitor = build_single()
        else:
            monitor = build_sharded(2)
        if roster is not None:
            monitor.register_fleet(roster)
        with pytest.raises(ValueError) as err:
            monitor.observe_tick(0.0, **kwargs)
        assert str(err.value) == message
        assert monitor.watched_drives() == []


class TestKillAndResume:
    """Satellite: a killed shard restored from snapshot resumes bit-identically."""

    def _stream(self, ticks=30, n_drives=10, seed=11):
        rng = np.random.default_rng(seed)
        return [dirty_tick(rng, hour, n_drives) for hour in range(ticks)]

    def _finish(self, monitor, stream):
        for hour, pairs in stream:
            monitor.observe_fleet(hour, pairs)
        monitor.finalize()
        monitor.resolve_outcome("d000", failed=True, failure_hour=80.0)

    def test_process_mode_kill_and_resume(self, tmp_path):
        stream = self._stream()
        with build_sharded(2, slo=SLOMonitor(), mode="process") as golden:
            assert golden.mode == "process"
            self._finish(golden, stream)
            expected = digest(monitor_surfaces(golden))
            sharding = golden.health_report()["sharding"]

        with build_sharded(2, slo=SLOMonitor(), mode="process") as resumed:
            for hour, pairs in stream[:20]:
                resumed.observe_fleet(hour, pairs)
            store = resumed.snapshot(tmp_path / "snap")
            resumed._hosts[1].kill()
            with pytest.raises(RuntimeError, match="dead"):
                resumed._hosts[1].submit(len)
            resumed.restore_shard(1, store)
            self._finish(resumed, stream[20:])
            assert digest(monitor_surfaces(resumed)) == expected
            assert resumed.health_report()["sharding"] == sharding

    def test_full_restore_crosses_execution_modes(self, tmp_path):
        stream = self._stream(ticks=24, seed=29)
        with build_sharded(3, slo=SLOMonitor()) as golden:
            self._finish(golden, stream)
            expected = digest(monitor_surfaces(golden))

        first = build_sharded(3, slo=SLOMonitor())
        for hour, pairs in stream[:12]:
            first.observe_fleet(hour, pairs)
        first.snapshot(tmp_path / "snap")
        first.close()

        # The snapshot is mode-independent: restore into serial mode
        # and keep going; only the "sharding" report section may differ.
        resumed = ShardedFleetMonitor.restore(tmp_path / "snap", mode="serial")
        assert resumed.n_shards == 3
        self._finish(resumed, stream[12:])
        assert digest(monitor_surfaces(resumed)) == expected
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

        golden = build_sharded(2)
        golden.register_fleet(old)
        golden.observe_tick(0.0, old_feed)
        golden.register_fleet(new)
        for hour, matrix in enumerate(new_ticks, start=1):
            golden.observe_tick(float(hour), matrix)
        expected_alerts = list(golden.alerts)
        expected_watched = golden.watched_drives()

        monitor = build_sharded(2)
        monitor.register_fleet(old)
        monitor.observe_tick(0.0, old_feed)
        store = monitor.snapshot(tmp_path / "stale")  # roster: old
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

    @pytest.mark.parametrize("shard", [-1, True, 3])
    @pytest.mark.parametrize(
        "method", ["kill_shard", "quarantine_shard", "snapshot_shard", "restore_shard"]
    )
    def test_shard_ids_are_validated(self, tmp_path, method, shard):
        monitor = build_sharded(3)
        try:
            records = {f"d{d}": np.ones(N_CHANNELS) for d in range(9)}
            monitor.observe_fleet(0.0, records)
            store = monitor.snapshot(tmp_path / "snap")
            args = (store,) if method in ("snapshot_shard", "restore_shard") else ()
            with pytest.raises(ValueError, match="shard"):
                getattr(monitor, method)(shard, *args)
            # The rejected id touched no shard: serving goes on.
            assert monitor.quarantined_shards == []
            monitor.observe_fleet(1.0, records)
            assert monitor.health_report()["watched_drives"] == len(records)
            assert not (store / f"shard-{shard}.pkl").exists()
        finally:
            monitor.close()

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_truncated_snapshot_file_raises_in_both_modes(self, tmp_path, mode):
        """A cut-off ``shard-<i>.pkl`` is a corrupt file, not a dead worker."""
        monitor = build_sharded(2, mode=mode)
        try:
            monitor.observe_fleet(0.0, {f"d{d}": np.ones(N_CHANNELS) for d in range(6)})
            store = monitor.snapshot(tmp_path / "snap")
            path = store / "shard-1.pkl"
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                monitor.restore_shard(1, store)
            assert monitor._hosts[1].alive is False
        finally:
            monitor.close()

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_unwritable_snapshot_file_raises_in_both_modes(self, tmp_path, mode):
        """A failed export write is an error, not a dead worker."""
        monitor = build_sharded(2, mode=mode)
        try:
            records = {f"d{d}": np.ones(N_CHANNELS) for d in range(6)}
            monitor.observe_fleet(0.0, records)
            (tmp_path / "snap" / "shard-1.pkl.tmp").mkdir(parents=True)
            with pytest.raises(OSError, match="shard-1.pkl.tmp"):
                monitor.snapshot(tmp_path / "snap")
            # Nothing was published and both shards still serve.
            assert sorted(p.name for p in (tmp_path / "snap").iterdir()) == [
                "shard-0.pkl.tmp", "shard-1.pkl.tmp",
            ]
            monitor.observe_fleet(1.0, records)
            assert monitor.health_report()["watched_drives"] == len(records)
        finally:
            monitor.close()

    def test_restore_missing_cells_raise(self, tmp_path):
        monitor = build_sharded(2)
        monitor.observe_fleet(0.0, {"a": np.ones(N_CHANNELS)})
        store = monitor.snapshot_shard(0, tmp_path / "partial")
        with pytest.raises(KeyError, match="shard 1"):
            monitor.restore_shard(1, store)
        with pytest.raises(KeyError, match="coordinator"):
            ShardedFleetMonitor.restore(tmp_path / "partial")
        monitor.close()


class TestCanaryDeployment:
    """Satellite: rolling model deployment end to end."""

    def _quiet_fleet(self, n_shards=2):
        monitor = ShardedFleetMonitor(
            FEATURES, score_sample, VoterSpec("majority", 1),
            score_batch=score_batch, n_shards=n_shards,
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
                score_sample, score_batch=score_batch,
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
                monitor.begin_deployment(score_sample, canary_shards=())
            with pytest.raises(ValueError, match="outside"):
                monitor.begin_deployment(score_sample, canary_shards=(5,))
            with pytest.raises(ValueError, match="control group"):
                monitor.begin_deployment(score_sample, canary_shards=(0, 1, 2))
            monitor.begin_deployment(
                score_sample, canary_shards=(0,),
                policy=CanaryPolicy(soak_ticks=4),
            )
            with pytest.raises(RuntimeError, match="in flight"):
                monitor.begin_deployment(score_sample, canary_shards=(1,))
            with pytest.raises(RuntimeError, match="deployment"):
                monitor.set_model(score_sample)
        finally:
            monitor.close()

    @pytest.mark.parametrize("canary_shards", [(0.7,), (True,), ("1",)])
    def test_canary_shards_must_be_shard_ids(self, canary_shards):
        monitor = self._quiet_fleet(n_shards=3)
        try:
            with pytest.raises(ValueError, match="canary_shards"):
                monitor.begin_deployment(
                    score_sample, canary_shards=canary_shards
                )
            assert not monitor.deployment_active
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
