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
The same contract across shard counts, host types and supervised
recovery, with the event stream compared as a set, is
``tests/test_serving_matrix.py``; the drivers, scorers and
:func:`~tests.serving_digest.digest` are shared from
``tests/serving_digest.py``.

The matrix voters are pinned vote-for-vote against a per-drive deque
voter kept here as an oracle (:class:`_ObjectVoter`), and against the
offline paper detectors (:mod:`repro.detection.voting`); the monitor's
online feature rows are pinned against the offline :class:`~repro.features.vectorize.FeatureExtractor`,
in ``tests/test_detection_streaming.py``.
"""

import collections
import functools
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CTConfig
from repro.core.predictor import DriveFailurePredictor
from repro.detection import (
    FleetMonitor,
    MajorityVoteDetector,
    MajorityVoteMatrix,
    MeanThresholdDetector,
    MeanThresholdMatrix,
    QuarantinePolicy,
    ShardedFleetMonitor,
    VoterSpec,
)
from repro.observability import disable_metrics, enable_metrics, get_registry
from repro.observability.events import disable_events, enable_events
from repro.observability.slo import SLOMonitor
from repro.robustness import BUILTIN_PROFILES
from repro.smart.attributes import N_CHANNELS
from repro.utils.errors import FaultKind
from tests.serving_digest import (
    FEATURES,
    alert_rows,
    build_single,
    digest,
    dirty_tick,
    drive_records,
    drive_single_observe,
    profile_driver,
    score_batch,
    score_sample,
    score_sum_batch,
    score_sum_sample,
)

# -- canonical run digests -------------------------------------------------------


def _strip_wall_time(metrics):
    return {k: v for k, v in metrics.items() if k != "serve.tick_seconds"}


def ordered_surfaces(drive, **build_kwargs) -> dict:
    """Run ``drive(monitor)`` under live metrics and events; collect surfaces.

    The event stream is kept in order, with its ``seq``.  ``drive``
    returns an error message (strict mode) or None; it is part of the
    digest.
    """
    enable_metrics()
    log = enable_events()
    try:
        monitor = build_single(slo=SLOMonitor(), **build_kwargs)
        error = drive(monitor)
        report = monitor.health_report()
        report["metrics"] = _strip_wall_time(report["metrics"])
        return {
            "alerts": alert_rows(monitor.alerts),
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


def profile_surfaces(profile: str, seed: int) -> dict:
    return ordered_surfaces(
        profile_driver(profile, seed),
        detector_factory=VoterSpec("majority", 5),
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
            "alerts": alert_rows(monitor.alerts),
            "events": [e.to_json_dict() for e in log.events],
        }
    finally:
        disable_events()


SCENARIOS = {
    "all-fault-kinds": lambda: ordered_surfaces(drive_records),
    "single-observe": lambda: ordered_surfaces(
        functools.partial(drive_single_observe, hours=30, n_drives=4)
    ),
    "mean-threshold": lambda: ordered_surfaces(
        _mean_threshold,
        detector_factory=VoterSpec("mean", 4, threshold=0.0),
        score_sample=score_sum_sample,
        score_batch=score_sum_batch,
    ),
    "strict": lambda: ordered_surfaces(_strict, quarantine=None),
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
        assert (mean.n_voters, mean.threshold, mean.slots.shape) == (5, 0.5, (5, 4))

    def test_factory_rejects_custom_detectors(self):
        with pytest.raises(TypeError, match="VoterSpec"):
            build_single(detector_factory=lambda: VoterSpec("majority", 3))

    def test_columnar_monitor_rejects_custom_detectors_early(self):
        class Custom:
            def push(self, score):
                return False

        with pytest.raises(TypeError, match="Custom"):
            build_single(detector_factory=Custom())


class _RowMajorPickle:
    """Pickles a voter the way the earlier row-major layout did.

    It unpickles as such a ``_WindowMatrix`` did: a bare instance of the
    class, then its plain ``__dict__`` as state, with ``window`` holding
    the row-major ``(n_rows, n_voters)`` windows.
    """

    def __init__(self, voter):
        self.cls = type(voter)
        state = {
            "n_voters": voter.n_voters,
            "window": np.ascontiguousarray(voter.slots.T),
            "length": voter.length.copy(),
        }
        for name in ("failed_label", "threshold"):
            if hasattr(voter, name):
                state[name] = getattr(voter, name)
        self.state = state

    def __reduce__(self):
        return object.__new__, (self.cls,), self.state


def _filled_voter(kind, n_voters, n_rows):
    voter = VoterSpec(kind, n_voters, threshold=0.0).build(n_rows)
    rng = np.random.default_rng(n_voters)
    for _ in range(n_voters - 1):
        voter.push(slice(0, n_rows), rng.choice([-1.0, 1.0, np.nan], n_rows))
    return voter


class TestWindowLayout:
    """Voter-major storage, and snapshots written in the row-major layout."""

    @pytest.mark.parametrize("kind", ["majority", "mean"])
    def test_storage_is_voter_major(self, kind):
        voter = _filled_voter(kind, 4, 6)
        assert voter.slots.shape == (4, 6)
        assert voter.slots.flags.c_contiguous

    @pytest.mark.parametrize("kind", ["majority", "mean"])
    def test_pickle_round_trips_mid_window(self, kind):
        voter = _filled_voter(kind, 5, 5)
        restored = pickle.loads(pickle.dumps(voter))
        rows = slice(0, 5)
        scores = np.array([-1.0, 1.0, np.nan, -1.0, 0.5])
        assert np.array_equal(restored.push(rows, scores), voter.push(rows, scores))
        assert np.array_equal(restored.slots, voter.slots, equal_nan=True)
        assert [restored.window_contents(r) for r in range(5)] == [
            voter.window_contents(r) for r in range(5)
        ]

    @pytest.mark.parametrize("kind", ["majority", "mean"])
    @pytest.mark.parametrize("n_rows", [5, 7])
    def test_row_major_pickle_refuses_to_load(self, kind, n_rows):
        # n_rows == n_voters is the case a shape check cannot catch: a
        # row-major (5, 5) window would read as five transposed windows.
        blob = pickle.dumps(_RowMajorPickle(_filled_voter(kind, 5, n_rows)))
        with pytest.raises(ValueError, match="row-major"):
            pickle.loads(blob)

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_row_major_shard_snapshot_raises_naming_the_file(self, tmp_path, mode):
        # 64 voters on the 64-row minimum roster: both layouts are (64, 64).
        monitor = ShardedFleetMonitor(
            FEATURES, score_sample, VoterSpec("majority", 64),
            score_batch=score_batch, n_shards=2, mode=mode,
        )
        try:
            monitor.observe_fleet(0.0, {f"d{d}": np.ones(N_CHANNELS) for d in range(6)})
            store = monitor.snapshot(tmp_path / "snap")
            path = store / "shard-1.pkl"
            state = pickle.loads(path.read_bytes())
            voter = state["monitor"]._voter
            assert voter.slots.shape == (64, 64)
            state["monitor"]._voter = _RowMajorPickle(voter)
            path.write_bytes(pickle.dumps(state))
            with pytest.raises(ValueError, match=re.escape(str(path))):
                monitor.restore_shard(1, store)
            assert monitor._hosts[1].alive is False
        finally:
            monitor.close()


def _draw_rows(data, n_rows):
    """One tick's rows: a unit-step slice, or an unsorted index array."""
    if data.draw(st.booleans(), label="slice tick"):
        start = data.draw(st.integers(0, n_rows - 1))
        return slice(start, data.draw(st.integers(start + 1, n_rows)))
    order = data.draw(st.permutations(range(n_rows)))
    return np.array(order[: data.draw(st.integers(1, n_rows))], dtype=np.intp)


#: Scores are dyadic, so every window sum is exact and the per-row
#: oracles see the same means the matrices do.
_MAJORITY_SCORES = st.sampled_from([-1.0, 1.0, 0.5, np.nan, np.inf, -np.inf])
_MEAN_SCORES = st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, np.nan, np.inf])


class TestVoterMatricesUnderMixedTicks:
    """Random tick sequences against the per-row offline detectors.

    Ticks mix unit-step slices with unsorted partial index arrays, the
    roster grows and the matrix goes through a pickle round trip, all
    mid-window.  After every push each row's alarm, ``flush`` and
    ``window_contents`` must be what the offline paper detector says of
    that row's history, and the majority voter's running failed-vote
    count must equal a recount of the window.
    """

    @staticmethod
    def _offline(kind, n_voters, threshold):
        if kind == "majority":
            return MajorityVoteDetector(n_voters=n_voters)
        return MeanThresholdDetector(n_voters=n_voters, threshold=threshold)

    @staticmethod
    def _expected_contents(kind, window):
        if kind == "majority":
            return [bool(s == -1.0) for s in window]
        return [float(s) if np.isfinite(s) else None for s in window]

    def _check(self, voter, kind, histories, threshold):
        n_voters = voter.n_voters
        offline = self._offline(kind, n_voters, threshold)
        for row, history in enumerate(histories):
            window = history[-n_voters:]
            short = 0 < len(history) < n_voters
            assert voter.flush(row) is (
                short and offline.first_alarm(history) is not None
            )
            assert voter.window_contents(row) == self._expected_contents(kind, window)
            if kind == "majority":
                recount = int(np.count_nonzero(voter.slots[:, row] == 1))
                assert int(voter.fails[row]) == recount
                assert recount == sum(1 for s in window if s == -1.0)

    @pytest.mark.parametrize("kind", ["majority", "mean"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_offline_detectors(self, kind, data):
        n_voters = data.draw(st.integers(1, 6), label="n_voters")
        threshold = data.draw(st.sampled_from([-0.25, 0.0, 0.125, 0.5]))
        n_rows = data.draw(st.integers(1, 6), label="n_rows")
        voter = VoterSpec(kind, n_voters, threshold=threshold).build(n_rows)
        histories = [[] for _ in range(n_rows)]
        offline = self._offline(kind, n_voters, threshold)
        scores_of = _MAJORITY_SCORES if kind == "majority" else _MEAN_SCORES
        for _ in range(data.draw(st.integers(1, 14), label="n_steps")):
            step = data.draw(st.sampled_from(["tick", "tick", "tick", "grow", "pickle"]))
            if step == "grow":
                n_rows += data.draw(st.integers(1, 4))
                voter.grow_rows(n_rows)
                histories.extend([] for _ in range(n_rows - len(histories)))
            elif step == "pickle":
                voter = pickle.loads(pickle.dumps(voter))
            else:
                rows = _draw_rows(data, n_rows)
                row_ids = range(n_rows)[rows] if isinstance(rows, slice) else rows
                k = len(row_ids)
                scores = np.array(data.draw(st.lists(scores_of, min_size=k, max_size=k)))
                alarmed = voter.push(rows, scores)
                for at, row in enumerate(row_ids):
                    histories[row].append(float(scores[at]))
                    window = histories[row][-n_voters:]
                    expected = (
                        len(window) == n_voters
                        and offline.first_alarm(window) is not None
                    )
                    assert bool(alarmed[at]) is expected
            self._check(voter, kind, histories, threshold)


class TestVoterSpec:
    @pytest.mark.parametrize("n_voters", [0, -1, 2.5, True])
    def test_rejects_non_positive_integer_voters(self, n_voters):
        with pytest.raises(ValueError, match="n_voters"):
            VoterSpec("majority", n_voters)

    def test_accepts_numpy_integers(self):
        assert VoterSpec("mean", np.int64(4)).build().n_voters == 4

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "kind, field", [("majority", "failed_label"), ("mean", "threshold")]
    )
    def test_rejects_non_finite_settings(self, kind, field, value):
        # Such a rule is degenerate: it never alarms, or for a +inf
        # threshold alarms on every scored window.
        with pytest.raises(ValueError, match=field):
            VoterSpec(kind, 3, **{field: value})
        matrix = MajorityVoteMatrix if kind == "majority" else MeanThresholdMatrix
        with pytest.raises(ValueError, match=field):
            matrix(3, value, 1)

    def test_rejects_unknown_kinds(self):
        with pytest.raises(ValueError, match="kind"):
            VoterSpec("median", 3)


class TestDuplicateSerials:
    """Duplicate serials in one tick are last-write-wins + faulted."""

    def test_last_write_wins_and_faults(self):
        def drive(monitor):
            monitor.observe_fleet(0.0, [
                ("a", np.full(N_CHANNELS, 1.0)),
                ("b", np.full(N_CHANNELS, 1.0)),
                ("a", np.full(N_CHANNELS, -1.0)),
            ])

        events = ordered_surfaces(drive)["events"]
        faulted = [e for e in events if e["type"] == "tick_faulted"]
        assert [e["drive"] for e in faulted] == ["a"]
        assert faulted[0]["data"]["kind"] == "duplicate-serial"
        # Last write wins: drive "a" was scored once, on the -1 values.
        scored = [e for e in events if e["type"] == "sample_scored"]
        assert [(e["drive"], e["data"]["score"]) for e in scored] == [
            ("a", -1.0), ("b", 1.0),
        ]

    def test_duplicates_count_toward_quarantine(self):
        monitor = build_single(quarantine=QuarantinePolicy(fault_limit=0))
        monitor.observe_fleet(
            0.0, [("a", np.ones(N_CHANNELS)), ("a", np.ones(N_CHANNELS))]
        )
        assert monitor.degraded_drives() == ["a"]
        assert [f.kind for f in monitor.faults] == [FaultKind.DUPLICATE_SERIAL]
        assert monitor.fault_counts() == {"a": 1}

    def test_mapping_input_cannot_duplicate(self):
        monitor = build_single()
        monitor.observe_fleet(0.0, {"a": np.ones(N_CHANNELS)})
        assert monitor.faults == []

    def test_strict_mode_raises_on_duplicate_serial(self):
        monitor = build_single(quarantine=None)
        with pytest.raises(ValueError, match="duplicate-serial"):
            monitor.observe_fleet(
                0.0, [("a", np.ones(N_CHANNELS)), ("a", np.ones(N_CHANNELS))]
            )


class TestObserveTick:
    """The zero-copy matrix ingest path."""

    def test_matches_observe_fleet(self):
        serials = tuple(f"s{i}" for i in range(20))
        matrix_path = build_single()
        pairs_path = build_single()
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
        monitor = build_single()
        with pytest.raises(ValueError, match="roster"):
            monitor.observe_tick(0.0, np.ones((2, N_CHANNELS)))

    def test_rejects_misaligned_matrix(self):
        monitor = build_single()
        monitor.register_fleet(["a", "b"])
        with pytest.raises(ValueError, match="shape"):
            monitor.observe_tick(0.0, np.ones((3, N_CHANNELS)))
        with pytest.raises(ValueError, match="shape"):
            monitor.observe_tick(0.0, np.ones((2, 3)))

    def test_ad_hoc_serials_override_roster(self):
        monitor = build_single()
        monitor.register_fleet(["a", "b"])
        monitor.observe_tick(0.0, np.ones((1, N_CHANNELS)), serials=["solo"])
        assert monitor.watched_drives() == ["solo"]

    def test_duplicate_roster_serials_fault(self):
        monitor = build_single()
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
        monitor = build_single(quarantine=QuarantinePolicy(fault_limit=2))
        for _ in range(4):
            monitor.observe("bad", 0.0, np.ones(N_CHANNELS))  # dup time x3
        assert monitor.drive_status("bad").value == "degraded"
        monitor = build_single(quarantine=QuarantinePolicy(fault_limit=2))
        rng = np.random.default_rng(9)
        for hour in range(20):
            monitor.observe_fleet(*dirty_tick(rng, hour, 8))
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
