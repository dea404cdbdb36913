"""The columnar serving core, pinned by oracles that live in the tests.

``FleetMonitor`` serves every drive from structure-of-arrays state.
Its observable surface — alerts and alert ids, faults, quarantine
state, fault counts, vote flips, ``health_report()``, the ordered
structured-event stream, the metrics registry and SLO state — is pinned
per scenario by a canonical-JSON sha256 digest (:data:`DIGESTS`).  The
digests were recorded while a second, per-drive object engine still
existed, at a moment when both engines were asserted identical on every
scenario; they are that engine's verdict, kept as data.  Only the
``serve.tick_seconds`` wall-time histogram is left out of a digest.

The matrix voters are pinned vote-for-vote against a per-drive deque
voter kept here as an oracle (:class:`_ObjectVoter`), and against the
offline paper detectors (:mod:`repro.detection.voting`); the monitor's
online feature rows are pinned against the offline :class:`~repro.features.vectorize.FeatureExtractor`,
in ``tests/test_detection_streaming.py``.
"""

import functools
import hashlib
import json

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CTConfig
from repro.core.predictor import DriveFailurePredictor
from repro.detection import (
    FleetMonitor,
    MajorityVoteMatrix,
    MeanThresholdMatrix,
    QuarantinePolicy,
    VoterSpec,
)
from repro.features.vectorize import Feature
from repro.observability import disable_metrics, enable_metrics, get_registry
from repro.observability.events import disable_events, enable_events
from repro.observability.slo import SLOMonitor
from repro.robustness import BUILTIN_PROFILES, dataset_events, inject_stream, replay_stream
from repro.smart.attributes import N_CHANNELS
from repro.smart.dataset import SmartDataset
from repro.smart.generator import default_fleet_config
from repro.utils.errors import FaultKind

FEATURES = (Feature("POH"), Feature("TC"), Feature("RSC", 6.0), Feature("RRER", 12.0))


# A row holding both +inf and -inf sums to NaN (scored healthy); the
# errstate keeps that intended NaN from warning.


def _score_sample(row):
    with np.errstate(invalid="ignore"):
        total = np.nansum(row)
    return -1.0 if total < 0.0 else 1.0


def _score_batch(X):
    with np.errstate(invalid="ignore"):
        return np.where(np.nansum(X, axis=1) < 0.0, -1.0, 1.0)


def _build(detector=VoterSpec("majority", 3), **kwargs):
    kwargs.setdefault("score_batch", _score_batch)
    kwargs.setdefault("score_sample", _score_sample)
    return FleetMonitor(FEATURES, detector_factory=detector, **kwargs)


# -- canonical run digests -------------------------------------------------------


def _strip_wall_time(metrics):
    return {k: v for k, v in metrics.items() if k != "serve.tick_seconds"}


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not canonical JSON: {type(value).__name__}")


def digest(surfaces: dict) -> str:
    """sha256 of the canonical JSON of a run's observable surfaces."""
    blob = json.dumps(
        surfaces, sort_keys=True, separators=(",", ":"), default=_plain
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_surfaces(drive, **build_kwargs) -> dict:
    """Run ``drive(monitor)`` under live metrics and events; collect surfaces.

    ``drive`` returns an error message (strict mode) or None; it is part
    of the digest.
    """
    enable_metrics()
    log = enable_events()
    try:
        monitor = _build(slo=SLOMonitor(), **build_kwargs)
        error = drive(monitor)
        report = monitor.health_report()
        report["metrics"] = _strip_wall_time(report["metrics"])
        return {
            "alerts": [
                [a.serial, a.hour, a.score, a.alert_id] for a in monitor.alerts
            ],
            "faults": [
                [f.serial, f.hour, f.kind.value, f.detail] for f in monitor.faults
            ],
            "watched": monitor.watched_drives(),
            "degraded": monitor.degraded_drives(),
            "fault_counts": monitor.fault_counts(),
            "vote_flips": monitor.vote_flips,
            "report": report,
            "slo": monitor.slo.status(),
            "events": [e.to_json_dict() for e in log.events],
            "metrics": _strip_wall_time(get_registry().snapshot()["metrics"]),
            "error": error,
        }
    finally:
        disable_metrics()
        disable_events()


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


def _all_fault_kinds(monitor):
    rng = np.random.default_rng(42)
    for hour in range(40):
        monitor.observe_fleet(*_dirty_tick(rng, hour, 12))
    monitor.finalize()
    monitor.resolve_outcome("d000", failed=True, failure_hour=100.0)
    monitor.resolve_outcome("d001", failed=False)


def _single_observe(monitor):
    rng = np.random.default_rng(7)
    for hour in range(30):
        for d in range(4):
            monitor.observe(f"d{d}", float(hour), rng.normal(size=N_CHANNELS))
    monitor.finalize()


def _mean_threshold(monitor):
    rng = np.random.default_rng(11)
    for hour in range(30):
        monitor.observe_fleet(
            float(hour), {f"d{d}": rng.normal(size=N_CHANNELS) for d in range(10)}
        )
    monitor.finalize()


def _strict(monitor):
    monitor.observe_fleet(0.0, {"a": np.ones(N_CHANNELS)})
    try:
        monitor.observe_fleet(1.0, [
            ("a", np.ones(N_CHANNELS)),
            ("new1", np.ones(N_CHANNELS)),
            ("bad", np.ones(5)),
            ("new2", np.ones(N_CHANNELS)),
        ])
    except ValueError as error:
        return str(error)
    return None


@functools.lru_cache(maxsize=None)
def clean_events():
    config = default_fleet_config(
        w_good=4, w_failed=3, q_good=2, q_failed=1, collection_days=2, seed=13
    )
    return tuple(dataset_events(SmartDataset.generate(config)))


def profile_surfaces(profile: str, seed: int) -> dict:
    events = inject_stream(list(clean_events()), profile, seed=seed)

    def replay(monitor):
        replay_stream(monitor, events)

    return run_surfaces(
        replay,
        detector=VoterSpec("majority", 5),
        quarantine=QuarantinePolicy(fault_limit=3),
    )


def predictor_surfaces(split) -> dict:
    """A real fitted tree served record by record, with provenance."""
    predictor = DriveFailurePredictor(
        CTConfig(minsplit=4, minbucket=2, cp=0.002)
    ).fit(split)
    drives = list(split.test_failed + split.test_good)[:6]
    log = enable_events()
    try:
        monitor = FleetMonitor.from_predictor(predictor, VoterSpec("majority", 3))
        assert monitor.tree is predictor.tree_
        for drive in drives:
            for hour, values in zip(drive.hours, drive.values):
                monitor.observe(drive.serial, float(hour), values)
        monitor.finalize()
        return {
            "alerts": [
                [a.serial, a.hour, a.score, a.alert_id] for a in monitor.alerts
            ],
            "events": [e.to_json_dict() for e in log.events],
        }
    finally:
        disable_events()


SCENARIOS = {
    "all-fault-kinds": lambda: run_surfaces(_all_fault_kinds),
    "single-observe": lambda: run_surfaces(_single_observe),
    "mean-threshold": lambda: run_surfaces(
        _mean_threshold,
        detector=VoterSpec("mean", 4, threshold=0.0),
        score_sample=lambda row: float(np.nansum(row)),
        score_batch=lambda X: np.nansum(X, axis=1),
    ),
    "strict": lambda: run_surfaces(_strict, quarantine=None),
}

PROFILE_CASES = [
    (profile, seed) for profile in sorted(BUILTIN_PROFILES) for seed in range(4)
]

#: Recorded with both serving engines live and asserted identical.
DIGESTS = {
    "all-fault-kinds":
        "9af1ffdba04ea23ca45b787168a48ecdb203000ad2ad21980f8b46f4e03af131",
    "single-observe":
        "a468ecc2698a0a2b06b3fbc17cdaa59c1de056664dde04c756524bd01571a8b6",
    "mean-threshold":
        "2c313955b29639ee841aa75b0ad3a84776bb89ca0f21b4024ba5a382faf1898c",
    "strict":
        "7bbb6073f8b766c8b2be496e13d63bbd5bfa5aab171a9889fd5df0b0dedfd8bf",
    "clean-0":
        "04bf13a306ad6ebecdec8e8ba34ab230b2410e83c46bbde36ab0fcddb0d4defd",
    "clean-1":
        "04bf13a306ad6ebecdec8e8ba34ab230b2410e83c46bbde36ab0fcddb0d4defd",
    "clean-2":
        "04bf13a306ad6ebecdec8e8ba34ab230b2410e83c46bbde36ab0fcddb0d4defd",
    "clean-3":
        "04bf13a306ad6ebecdec8e8ba34ab230b2410e83c46bbde36ab0fcddb0d4defd",
    "dirty-feed-0":
        "4bdf1b2b19d9b8237c4e85644d046d6727ec6473fba2a46dbd4a826762c7b550",
    "dirty-feed-1":
        "0754f6e47c67ec057bd1728f88098d16d7f6844a78ee6d897ee7f38b112cd821",
    "dirty-feed-2":
        "8b822fad23bbecffffe9f850433063edaed21e6054f27c55e8768dcdc3f340c8",
    "dirty-feed-3":
        "2e4fbad64e1f6a0d9a62def13c0cd8c0de47886722ee151ed5e960705e483138",
    "dropout-0":
        "c59701fb810039a0a02bc93230507294a5805a5e40657b127f47c6242491fb12",
    "dropout-1":
        "156bc168c805e2a777d7dfe8e11b96ecac956a6b0ef0cc9afc02611f2f7be04e",
    "dropout-2":
        "f37c9a7fad73be8cc5d0b80cd03db8ccd9670a8f7c466de96279d8524be551bc",
    "dropout-3":
        "a1ac3b3aa27b2488f5807498b28458384fbaf79dffc71136cc0c0e12699d9541",
    "everything-0":
        "26e32a253196408748295319f731f3f6c274f707f81463891b5c6d157b53e791",
    "everything-1":
        "447ff6a57f7fc5243b7539ae9414340fd6f322a51e5a7d8648af09a1d696092f",
    "everything-2":
        "92b249d3740206d831c074019c9153f1aa46d18f2d83cb158fc54ee79bb23bcd",
    "everything-3":
        "32c3007613965dae1a4273942a5d4ab9b51c38f854de2810269ca6ad09565057",
    "sensor-noise-0":
        "58075bacfcb1f6d4eac553b8e9b5537bdf00634088f6a15e983c30a1559a5785",
    "sensor-noise-1":
        "6940e4f2bc73932b7c93c929857fc1229660905a73f5de87d19f25e68538a781",
    "sensor-noise-2":
        "09eca09e700598fce803a341506ade9b67bf1875bc763af5008ad864008a203d",
    "sensor-noise-3":
        "4af630e071227f39df4f547028285bb1c1002e9546f62d61310fdbc7c6ae174b",
    "stuck-sensor-0":
        "04bf13a306ad6ebecdec8e8ba34ab230b2410e83c46bbde36ab0fcddb0d4defd",
    "stuck-sensor-1":
        "46bf94e971f5fcba4e7ce924e86859b063355ea7a56c104a20432b30ae5078d7",
    "stuck-sensor-2":
        "ebb2fd881471a9fbd684cd34a712d8ac0c0fa784968be17de6525f8e5bc1b4be",
    "stuck-sensor-3":
        "04bf13a306ad6ebecdec8e8ba34ab230b2410e83c46bbde36ab0fcddb0d4defd",
    "truncated-0":
        "04bf13a306ad6ebecdec8e8ba34ab230b2410e83c46bbde36ab0fcddb0d4defd",
    "truncated-1":
        "f9a2e2e35ec24ad93018ee5b22ddd13d9c49077a60b5fc229c7c277729b50576",
    "truncated-2":
        "41487480c78cfcc764b9dee985c31bd275068e12d5a127f26b96c8e3858b9799",
    "truncated-3":
        "b04a850d1566d20ff0eb84a05b9dee1dba8ad67c1c74fd439549c0c88b77f18d",
    "from-predictor":
        "1f8bddfeb3c4e314732d8f02b48d1a9099c2d2d9affa69fa5c9f8410d24aceb5",
    "quarantine":
        "cf28ea91472b3c466ce3b9a760187abc38f6748d6d541079454d074e994c67fe",
}


class TestWindowedVoterBase:
    """Window mechanics shared by both matrix voters."""

    def test_push_never_alarms_before_window_fills(self):
        voter = MajorityVoteMatrix(3, -1.0, 1)
        rows = np.array([0])
        assert [bool(voter.push(rows, np.array([-1.0]))[0]) for _ in range(3)] == [
            False, False, True,
        ]

    def test_flush_judges_short_history_once(self):
        voter = MajorityVoteMatrix(5, -1.0, 1)
        for _ in range(2):
            voter.push(np.array([0]), np.array([-1.0]))
        assert voter.flush(0) is True

    def test_flush_is_a_noop_on_full_or_empty_windows(self):
        assert MeanThresholdMatrix(2, 0.0, 1).flush(0) is False
        voter = MeanThresholdMatrix(2, 0.0, 1)
        for _ in range(2):
            voter.push(np.array([0]), np.array([-1.0]))
        assert voter.flush(0) is False  # full window, never re-judged

    def test_window_contents_render_per_rule(self):
        majority = MajorityVoteMatrix(3, -1.0, 1)
        for score in (-1.0, 1.0):
            majority.push(np.array([0]), np.array([score]))
        assert majority.window_contents(0) == [True, False]
        mean = MeanThresholdMatrix(3, 0.0, 1)
        for score in (0.5, float("nan")):
            mean.push(np.array([0]), np.array([score]))
        assert mean.window_contents(0) == [0.5, None]


class _ObjectVoter:
    """Per-drive windowed voter: the oracle the matrix voters replicate.

    A bounded deque of one drive's scores.  ``push`` never alarms before
    the window fills; a shorter-than-window history is judged once, over
    all its samples, by ``flush_short_history``.  ``rule`` is
    ``"majority"`` (strict failed majority, NaN never a failed vote) or
    ``"mean"`` (NaN-excluded mean below ``threshold``).
    """

    def __init__(self, rule, n_voters, threshold=0.0, failed_label=-1.0):
        self.rule, self.n_voters = rule, n_voters
        self.threshold, self.failed_label = threshold, failed_label
        self._window = collections.deque(maxlen=n_voters)

    def push(self, score):
        self._window.append(float(score))
        return len(self._window) == self.n_voters and self._judge()

    def flush_short_history(self):
        return 0 < len(self._window) < self.n_voters and self._judge()

    def window_contents(self):
        if self.rule == "majority":
            return [s == self.failed_label for s in self._window]
        return [s if np.isfinite(s) else None for s in self._window]

    def _judge(self):
        values = np.array(self._window)
        if self.rule == "majority":
            return bool((values == self.failed_label).sum() > values.size / 2.0)
        valid = values[np.isfinite(values)]
        return bool(valid.size > 0 and valid.mean() < self.threshold)


def _assert_vote_for_vote(matrix, voter, scores):
    rows = np.array([0])
    for score in scores:
        expected = voter.push(score)
        got = matrix.push(rows, np.array([score]))
        assert bool(got[0]) is expected
        assert matrix.window_contents(0) == voter.window_contents()
    assert matrix.flush(0) is voter.flush_short_history()


class TestVoterMatrices:
    """Row layout and construction of the matrix voters, and their
    vote-for-vote equivalence with the per-drive :class:`_ObjectVoter`.

    Their equivalence with the offline paper detectors is pinned in
    ``tests/test_detection_streaming.py``.
    """

    @given(
        st.lists(
            st.sampled_from([-1.0, 1.0, float("nan")]), min_size=1, max_size=40
        ),
        st.integers(min_value=1, max_value=9),
    )
    @settings(deadline=None)
    def test_majority_matrix_matches_object_voter(self, scores, n_voters):
        _assert_vote_for_vote(
            VoterSpec("majority", n_voters).build(1),
            _ObjectVoter("majority", n_voters),
            scores,
        )

    @given(
        st.lists(
            st.floats(
                min_value=-5, max_value=5, allow_nan=False
            ).flatmap(lambda x: st.sampled_from([x, float("nan")])),
            min_size=1, max_size=40,
        ),
        st.integers(min_value=1, max_value=9),
        st.floats(min_value=-1, max_value=1, allow_nan=False),
    )
    @settings(deadline=None)
    def test_mean_matrix_matches_object_voter(self, scores, n_voters, threshold):
        _assert_vote_for_vote(
            VoterSpec("mean", n_voters, threshold=threshold).build(1),
            _ObjectVoter("mean", n_voters, threshold),
            scores,
        )

    def test_rows_are_independent(self):
        voter = MajorityVoteMatrix(2, -1.0, 3)
        rows = np.array([0, 2])
        voter.push(rows, np.array([-1.0, 1.0]))
        alarmed = voter.push(rows, np.array([-1.0, -1.0]))
        assert alarmed.tolist() == [True, False]
        assert voter.window_contents(1) == []

    def test_factory_builds_matching_matrix(self):
        assert isinstance(VoterSpec("majority", 3).build(), MajorityVoteMatrix)
        mean = VoterSpec("mean", 5, threshold=0.5).build(4)
        assert isinstance(mean, MeanThresholdMatrix)
        assert (mean.n_voters, mean.threshold, mean.window.shape) == (5, 0.5, (4, 5))

    def test_factory_rejects_custom_detectors(self):
        with pytest.raises(TypeError, match="VoterSpec"):
            _build(detector=lambda: VoterSpec("majority", 3))

    def test_columnar_monitor_rejects_custom_detectors_early(self):
        class Custom:
            def push(self, score):
                return False

        with pytest.raises(TypeError, match="Custom"):
            _build(detector=Custom())


class TestVoterSpec:
    @pytest.mark.parametrize("n_voters", [0, -1, 2.5, True])
    def test_rejects_non_positive_integer_voters(self, n_voters):
        with pytest.raises(ValueError, match="n_voters"):
            VoterSpec("majority", n_voters)

    def test_accepts_numpy_integers(self):
        assert VoterSpec("mean", np.int64(4)).build().n_voters == 4


class TestDuplicateSerials:
    """Duplicate serials in one tick are last-write-wins + faulted."""

    def test_last_write_wins_and_faults(self):
        def drive(monitor):
            monitor.observe_fleet(0.0, [
                ("a", np.full(N_CHANNELS, 1.0)),
                ("b", np.full(N_CHANNELS, 1.0)),
                ("a", np.full(N_CHANNELS, -1.0)),
            ])

        events = run_surfaces(drive)["events"]
        faulted = [e for e in events if e["type"] == "tick_faulted"]
        assert [e["drive"] for e in faulted] == ["a"]
        assert faulted[0]["data"]["kind"] == "duplicate-serial"
        # Last write wins: drive "a" was scored once, on the -1 values.
        scored = [e for e in events if e["type"] == "sample_scored"]
        assert [(e["drive"], e["data"]["score"]) for e in scored] == [
            ("a", -1.0), ("b", 1.0),
        ]

    def test_duplicates_count_toward_quarantine(self):
        monitor = _build(quarantine=QuarantinePolicy(fault_limit=0))
        monitor.observe_fleet(
            0.0, [("a", np.ones(N_CHANNELS)), ("a", np.ones(N_CHANNELS))]
        )
        assert monitor.degraded_drives() == ["a"]
        assert [f.kind for f in monitor.faults] == [FaultKind.DUPLICATE_SERIAL]
        assert monitor.fault_counts() == {"a": 1}

    def test_mapping_input_cannot_duplicate(self):
        monitor = _build()
        monitor.observe_fleet(0.0, {"a": np.ones(N_CHANNELS)})
        assert monitor.faults == []

    def test_strict_mode_raises_on_duplicate_serial(self):
        monitor = _build(quarantine=None)
        with pytest.raises(ValueError, match="duplicate-serial"):
            monitor.observe_fleet(
                0.0, [("a", np.ones(N_CHANNELS)), ("a", np.ones(N_CHANNELS))]
            )


class TestObserveTick:
    """The zero-copy matrix ingest path."""

    def test_matches_observe_fleet(self):
        serials = tuple(f"s{i}" for i in range(20))
        matrix_path = _build()
        pairs_path = _build()
        matrix_path.register_fleet(serials)
        rng = np.random.default_rng(5)
        for hour in range(15):
            matrix = rng.normal(size=(20, N_CHANNELS))
            a = matrix_path.observe_tick(float(hour), matrix)
            b = pairs_path.observe_fleet(
                float(hour), {s: matrix[i] for i, s in enumerate(serials)}
            )
            assert a == b
        assert matrix_path.health_report() == pairs_path.health_report()

    def test_requires_a_roster(self):
        monitor = _build()
        with pytest.raises(ValueError, match="roster"):
            monitor.observe_tick(0.0, np.ones((2, N_CHANNELS)))

    def test_rejects_misaligned_matrix(self):
        monitor = _build()
        monitor.register_fleet(["a", "b"])
        with pytest.raises(ValueError, match="shape"):
            monitor.observe_tick(0.0, np.ones((3, N_CHANNELS)))
        with pytest.raises(ValueError, match="shape"):
            monitor.observe_tick(0.0, np.ones((2, 3)))

    def test_ad_hoc_serials_override_roster(self):
        monitor = _build()
        monitor.register_fleet(["a", "b"])
        monitor.observe_tick(0.0, np.ones((1, N_CHANNELS)), serials=["solo"])
        assert monitor.watched_drives() == ["solo"]

    def test_duplicate_roster_serials_fault(self):
        monitor = _build()
        monitor.observe_tick(0.0, np.ones((2, N_CHANNELS)), serials=["a", "a"])
        assert [f.kind for f in monitor.faults] == [FaultKind.DUPLICATE_SERIAL]


class TestGoldenParity:
    def test_fleet_ticks_with_every_fault_kind(self):
        surfaces = SCENARIOS["all-fault-kinds"]()
        kinds = {
            e["data"].get("kind")
            for e in surfaces["events"] if e["type"] == "tick_faulted"
        }
        assert {"wrong-shape", "non-finite-time", "duplicate-serial"} <= kinds
        assert digest(surfaces) == DIGESTS["all-fault-kinds"]

    def test_single_record_observe_path(self):
        assert digest(SCENARIOS["single-observe"]()) == DIGESTS["single-observe"]

    def test_mean_threshold_engine_parity(self):
        assert digest(SCENARIOS["mean-threshold"]()) == DIGESTS["mean-threshold"]

    def test_strict_mode_exception_and_state_match(self):
        surfaces = SCENARIOS["strict"]()
        assert "wrong-shape" in surfaces["error"]
        # drives past the raising record were never registered
        assert "new2" not in surfaces["watched"]
        assert digest(surfaces) == DIGESTS["strict"]

    def test_quarantine_decisions_match(self):
        monitor = _build(quarantine=QuarantinePolicy(fault_limit=2))
        for _ in range(4):
            monitor.observe("bad", 0.0, np.ones(N_CHANNELS))  # dup time x3
        assert monitor.drive_status("bad").value == "degraded"
        monitor = _build(quarantine=QuarantinePolicy(fault_limit=2))
        rng = np.random.default_rng(9)
        for hour in range(20):
            monitor.observe_fleet(*_dirty_tick(rng, hour, 8))
        assert digest({
            "degraded": monitor.degraded_drives(),
            "fault_counts": monitor.fault_counts(),
        }) == DIGESTS["quarantine"]


class TestFaultProfileParity:
    """Every built-in fault profile, four seeds each, against its digest."""

    @pytest.mark.parametrize("profile,seed", PROFILE_CASES)
    def test_profile_stream_matches_digest(self, profile, seed):
        assert digest(profile_surfaces(profile, seed)) == DIGESTS[f"{profile}-{seed}"]


class TestFromPredictor:
    def test_real_tree_provenance_is_engine_invariant(self, tiny_split):
        surfaces = predictor_surfaces(tiny_split)
        raised = [e for e in surfaces["events"] if e["type"] == "alert_raised"]
        if raised:  # provenance carries the CART decision path
            assert "path" in raised[0]["data"]
        assert digest(surfaces) == DIGESTS["from-predictor"]

    def test_serves_through_the_compiled_batch_scorer(self, tiny_split):
        predictor = DriveFailurePredictor(
            CTConfig(minsplit=4, minbucket=2, cp=0.002)
        ).fit(tiny_split)
        monitor = FleetMonitor.from_predictor(predictor, VoterSpec("majority", 3))
        X = np.zeros((2, len(predictor.extractor.features)))
        np.testing.assert_array_equal(
            monitor.score_batch(X), predictor.tree_.predict(X)
        )

    def test_unfitted_predictor_is_rejected(self):
        predictor = DriveFailurePredictor(CTConfig(minsplit=4, minbucket=2))
        with pytest.raises(RuntimeError, match="not fitted"):
            FleetMonitor.from_predictor(predictor, VoterSpec("majority", 3))
