"""Self-healing serving suite: supervisor, tick journal, crash recovery.

That a :class:`SupervisedShardedMonitor` whose shards are killed
mid-stream — between ticks (probe-detected) or mid-dispatch — ends
bit-identical to a single ``FleetMonitor`` that never crashed is
checked once, across scenarios and lifecycles, by
``tests/test_serving_matrix.py``.  This suite pins the rest: the
journal's format and durability contract, that the journal is what the
shards were sent, the pipelined dispatch order, a failed commit,
sidecar reads and recycling, the restart budget's quarantine
behaviour, the auto-snapshot cadence, hosted errors, and recovery with
a canary deployment in flight.
"""

from __future__ import annotations

import json
import os
import pickle

import numpy as np
import pytest

from repro.detection import (
    CanaryPolicy,
    RestartPolicy,
    ShardedFleetMonitor,
    SupervisedShardedMonitor,
    TickJournal,
    VoterSpec,
    shard_for,
)
from repro.detection.sharded import _shard_pin, _shard_tick
from repro.detection.supervision import (
    TICK_JOURNAL_SCHEMA,
    _SegmentPayload,
    _SegmentRef,
)
from repro.observability.events import (
    disable_events,
    enable_events,
    read_events,
    validate_events,
)
from repro.smart.attributes import N_CHANNELS
from repro.utils.errors import TornEventLogWarning
from repro.utils.parallel import LocalHost, WorkerHost
from tests.serving_digest import (
    FEATURES,
    POISON,
    SUPERVISION_EVENTS,
    alert_rows,
    build_single,
    build_supervised,
    digest,
    dirty_tick,
    drive_matrix,
    kill,
    run_digest,
    run_surfaces,
    score_batch,
    score_batch_missing_file,
    score_sample,
    sigkill,
)


def _stream(ticks=30, n_drives=12, seed=42):
    rng = np.random.default_rng(seed)
    return [dirty_tick(rng, hour, n_drives) for hour in range(ticks)]


@pytest.fixture
def open_journal():
    """Open a ``TickJournal``; every one opened is closed at teardown.

    A journal left open by a failing test would leak its file, and the
    ``ResourceWarning`` would fail whichever test runs next.
    """
    journals = []

    def open_(path):
        journals.append(TickJournal(path))
        return journals[-1]

    yield open_
    for journal in journals:
        journal.close()


def _calls_equal(left, right):
    """Deep equality of call lists, with array equality for payloads."""
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.array_equal(left, right, equal_nan=True)
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            _calls_equal(left[k], right[k]) for k in left
        )
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return len(left) == len(right) and all(
            _calls_equal(a, b) for a, b in zip(left, right)
        )
    return left == right


class TestTickJournal:
    def _matrix(self, rows=4, seed=0):
        return np.random.default_rng(seed).normal(size=(rows, N_CHANNELS))

    def _pin(self, roster=("a", "b", "c", "d"), feed=None):
        payload = {"roster": roster}
        if feed is not None:
            payload["feed"] = feed
        return [(0, _shard_pin, payload)]

    def _tick(self, hour, **payload):
        return [(0, _shard_tick, {"hour": hour, "shard": 0, **payload})]

    def _served(self):
        """Every pin and tick dispatch a one-shard coordinator sends.

        Two pins (roster, feed), then one tick of each payload form the
        coordinator serves: a matrix slice, the pinned feed, and records
        carrying a duplicate serial.
        """
        sent = []

        class Recording(ShardedFleetMonitor):
            def _dispatch_input(self, calls, *, tick):
                calls = list(calls)  # a roster tick's calls are lazy
                sent.append((calls, tick))
                return super()._dispatch_input(calls, tick=tick)

        feed = self._matrix()
        with Recording(
            FEATURES, score_sample, VoterSpec("majority", 3), n_shards=1
        ) as monitor:
            monitor.register_fleet(("a", "b", "c", "d"))
            monitor.pin_feed(feed)
            monitor.observe_tick(0.0, feed)
            monitor.observe_tick(1.0)
            monitor.observe_fleet(
                2.0, [("a", np.ones(N_CHANNELS)), ("a", np.zeros(N_CHANNELS))]
            )
        return sent

    def test_entries_round_trip_every_kind(self, tmp_path, open_journal):
        journal = open_journal(tmp_path / "j.jsonl")
        appended = self._served()
        assert [
            sorted(calls[0][2]) for calls, tick in appended if tick
        ] == [
            ["hour", "matrix", "shard"],
            ["hour", "shard"],
            ["duplicates", "hour", "items", "shard"],
        ]
        for calls, tick in appended:
            journal.append(calls, tick=tick)

        entries = journal.entries()
        assert [e["tick"] for e in entries] == [tick for _, tick in appended]
        for entry, (calls, _) in zip(entries, appended):
            assert _calls_equal(entry["calls"], calls)
        assert entries[2]["calls"][0][1] is _shard_tick
        assert journal.tick_count == 3

    def test_header_line_is_schema_tagged(self, tmp_path, open_journal):
        journal = open_journal(tmp_path / "j.jsonl")
        journal.close()
        first = json.loads((tmp_path / "j.jsonl").read_text().splitlines()[0])
        assert first == {"schema": TICK_JOURNAL_SCHEMA}

    def test_wrong_schema_rejected(self, tmp_path, open_journal):
        path = tmp_path / "j.jsonl"
        journal = open_journal(path)
        journal.close()
        path.write_text('{"schema": "repro.tick-journal/v999"}\n')
        with pytest.raises(ValueError, match="v999"):
            journal.entries()

    def test_torn_final_line_dropped_under_warning(self, tmp_path, open_journal):
        path = tmp_path / "j.jsonl"
        journal = open_journal(path)
        journal.append(self._pin(("a",)), tick=False)
        journal.append(
            self._tick(0.0, items=[("a", np.ones(N_CHANNELS))], duplicates=[]),
            tick=True,
        )
        journal.close()
        with path.open("a") as handle:
            handle.write('{"sidecar": "000002.pkl", "tick": true, "segm')  # crashed mid-append
        with pytest.warns(TornEventLogWarning, match="torn final"):
            entries = journal.entries()
        assert [e["tick"] for e in entries] == [False, True]
        with pytest.raises(ValueError, match="corrupt"):
            journal.entries(tolerant=False)

    def test_missing_final_sidecar_treated_as_torn(self, tmp_path, open_journal):
        journal = open_journal(tmp_path / "j.jsonl")
        journal.append(self._pin(), tick=False)
        journal.append(self._tick(0.0, matrix=self._matrix()), tick=True)
        journal.append(self._tick(1.0, matrix=self._matrix(seed=1)), tick=True)
        journal.close()
        sidecars = sorted(journal.sidecar_dir.glob("*.pkl"))
        sidecars[-1].unlink()  # the crash window: line landed, bytes did not
        with pytest.warns(TornEventLogWarning):
            entries = journal.entries()
        assert len([e for e in entries if e["tick"]]) == 1

    def test_mid_file_corruption_raises_even_when_tolerant(self, tmp_path, open_journal):
        path = tmp_path / "j.jsonl"
        journal = open_journal(path)
        journal.append(self._pin(("a",)), tick=False)
        journal.close()
        lines = path.read_text().splitlines()
        intact = lines[1]
        lines[1] = lines[1][:-4]
        lines.append(intact)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            journal.entries()

    def test_reset_truncates_and_reseeds_context(self, tmp_path, open_journal):
        journal = open_journal(tmp_path / "j.jsonl")
        feed = self._matrix()
        # What a dispatch sends: payloads referring to their own sidecar,
        # which the reset below deletes.
        sent = journal.append(self._pin(feed=feed), tick=False)
        journal.append(self._tick(0.0, matrix=feed), tick=True)
        journal.reset(sent)
        assert journal.tick_count == 0
        entries = journal.entries()
        assert [e["tick"] for e in entries] == [False]
        assert _calls_equal(entries[0]["calls"], self._pin(feed=feed))
        # Old tick sidecars are gone; only the re-seeded pin remains, and
        # its segment holds the payload itself, not a reference.
        (sidecar,) = journal.sidecar_dir.glob("*.pkl")
        ((sid, start, stop),) = entries[0]["segments"]
        with sidecar.open("rb") as handle:
            handle.seek(start)
            _, func, payload = pickle.load(handle)
            assert handle.tell() == stop
        assert (sid, func, type(payload)) == (0, _shard_pin, dict)

    def test_shard_read_loads_only_that_shards_segments(self, tmp_path, open_journal):
        journal = open_journal(tmp_path / "j.jsonl")
        calls = [
            (sid, _shard_tick, {"hour": 0.0, "shard": sid, "matrix": self._matrix(seed=sid)})
            for sid in range(2)
        ]
        sent = journal.append(calls, tick=True)
        journal.close()
        (line,) = [
            json.loads(raw) for raw in (tmp_path / "j.jsonl").read_text().splitlines()[1:]
        ]
        assert [segment[0] for segment in line["segments"]] == [0, 1]
        # Shard 1's bytes are destroyed; shard 0 still loads without them.
        _, start, stop = line["segments"][1]
        sidecar = journal.sidecar_dir / line["sidecar"]
        data = bytearray(sidecar.read_bytes())
        data[start:stop] = bytes(stop - start)
        sidecar.write_bytes(bytes(data))
        (entry,) = journal.entries(shard=0)
        assert _calls_equal(entry["calls"], calls[:1])
        # A worker unpickles a reference and reads shard 0's segment alone.
        assert _calls_equal(dict(pickle.loads(pickle.dumps(sent[0][2]))), calls[0][2])
        with pytest.raises(pickle.UnpicklingError):
            journal.entries()

    def test_failed_write_keeps_sending_and_holds_the_error(self, tmp_path, open_journal):
        class Unwritable:
            def __reduce__(self):
                raise OSError(28, "No space left on device")

        journal = open_journal(tmp_path / "j.jsonl")
        journal.append(self._pin(), tick=False)
        calls = [
            (sid, _shard_tick, {"hour": 0.0, "shard": sid, "matrix": self._matrix(seed=sid)})
            for sid in range(3)
        ]
        calls[1][2]["bad"] = Unwritable()
        sent = list(journal.stream(calls, tick=True))
        # Every call is still sent; from the failed write on, each carries
        # its payload, not a reference to bytes that were never written.
        assert [type(payload) for _, _, payload in sent] == [_SegmentPayload, dict, dict]
        assert _calls_equal(sent, calls)
        assert isinstance(journal.failure, OSError)
        assert journal.tick_count == 0
        with pytest.raises(OSError, match="No space"):
            journal.append(self._tick(1.0, matrix=self._matrix()), tick=True)
        assert [e["tick"] for e in journal.entries()] == [False]
        journal.reset()
        assert journal.failure is None
        journal.append(self._tick(2.0, matrix=self._matrix()), tick=True)
        assert journal.tick_count == 1

    def test_construction_truncates_a_previous_run(self, tmp_path, open_journal):
        path = tmp_path / "j.jsonl"
        first = open_journal(path)
        first.append(self._pin(), tick=False)
        first.append(self._tick(0.0, matrix=self._matrix()), tick=True)
        first.close()
        second = open_journal(path)
        assert second.entries() == []
        assert list(second.sidecar_dir.glob("*.pkl")) == []

    def test_construction_clears_a_previous_runs_snapshot(self, tmp_path):
        """Regression: a reused ``run_dir`` must not resurrect old drives.

        Construction truncates the journal, so a snapshot left by the
        previous run no longer pairs with it; a shard lost before this
        run's first snapshot must be rebuilt from the spec, not from the
        old run's file.
        """
        run_dir = tmp_path / "run"
        old = {f"old{d:02d}": np.ones(N_CHANNELS) for d in range(8)}
        with build_supervised(2, run_dir, snapshot_every=0) as first:
            first.observe_fleet(0.0, old)
            first.checkpoint()

        stream = [
            (float(hour), {f"new{d:02d}": np.ones(N_CHANNELS) for d in range(8)})
            for hour in range(6)
        ]
        golden = build_single()
        for hour, records in stream:
            golden.observe_fleet(hour, records)
        with build_supervised(2, run_dir, snapshot_every=0) as second:
            for at, (hour, records) in enumerate(stream):
                if at == 3:
                    second.kill_shard(0)
                second.observe_fleet(hour, records)
            assert second.recoveries == 1
            assert second.watched_drives() == golden.watched_drives()
            assert alert_rows(second.alerts) == alert_rows(golden.alerts)


class TestPolicies:
    def test_restart_policy_validates(self):
        with pytest.raises(ValueError, match="max_restarts"):
            RestartPolicy(max_restarts=0)
        with pytest.raises(ValueError, match="window_ticks"):
            RestartPolicy(window_ticks=0)
        policy = RestartPolicy(max_restarts=2, window_ticks=8)
        assert (policy.max_restarts, policy.window_ticks) == (2, 8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_restarts": float("nan")},
            {"window_ticks": float("nan")},
            {"max_restarts": 1.5},
        ],
    )
    def test_restart_policy_rejects_counts_that_are_not_integers(self, kwargs):
        # max_restarts=nan would never quarantine a flapping shard.
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            RestartPolicy(**kwargs)

    @pytest.mark.parametrize("snapshot_every", [-1, 2.5, True, float("nan")])
    def test_snapshot_cadence_validates(self, tmp_path, snapshot_every):
        with pytest.raises(ValueError, match="snapshot_every"):
            build_supervised(2, tmp_path / "run", snapshot_every=snapshot_every)


class TestJournalIsWhatShardsWereSent:
    """Each shard's journaled calls are exactly the calls it received."""

    def _spy(self, monitor):
        """Record each pin and tick payload as the shard itself sees it.

        A worker process gets the payload by unpickling it and reading
        what that names, so in process mode the record is that read.
        """
        received = {sid: [] for sid in range(monitor.n_shards)}
        seen = (
            (lambda payload: dict(pickle.loads(pickle.dumps(payload))))
            if monitor.mode == "process" else (lambda payload: payload)
        )
        for sid, host in enumerate(monitor._hosts):
            def submit(func, payload=None, *, observed=True,
                       _calls=received[sid], _submit=host.submit):
                if func in (_shard_pin, _shard_tick):
                    _calls.append((func, seen(payload)))
                return _submit(func, payload, observed=observed)

            host.submit = submit
        return received

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_journal_equals_the_calls_each_shard_received(self, tmp_path, mode):
        rng = np.random.default_rng(5)
        serials = tuple(f"j{d:02d}" for d in range(12))
        monitor = build_supervised(
            3, tmp_path / "run", snapshot_every=0, mode=mode
        )
        try:
            received = self._spy(monitor)
            monitor.register_fleet(serials)
            monitor.observe_tick(0.0, rng.normal(size=(12, N_CHANNELS)))
            monitor.pin_feed(rng.normal(size=(12, N_CHANNELS)))
            monitor.observe_tick(1.0)
            monitor.observe_fleet(*dirty_tick(rng, 2, 12))
            monitor.observe("j03", 3.0, rng.normal(size=N_CHANNELS))
            entries = monitor.journal.entries()
        finally:
            monitor.close()
        assert [e["tick"] for e in entries] == [
            False, True, False, True, True, True,
        ]
        journaled = {sid: [] for sid in received}
        for entry in entries:
            for sid, func, payload in entry["calls"]:
                journaled[sid].append((func, payload))
        for sid, calls in received.items():
            assert calls, f"shard {sid} received nothing"
            assert _calls_equal(journaled[sid], calls)

    def test_rejected_pin_feed_leaves_the_journal_unchanged(self, tmp_path):
        monitor = build_supervised(2, tmp_path / "run")
        try:
            monitor.register_fleet(("a", "b", "a"))
            before = monitor.journal.entries()
            with pytest.raises(ValueError, match="duplicate-free"):
                monitor.pin_feed(np.ones((3, N_CHANNELS)))
            assert len(monitor.journal.entries()) == len(before)
        finally:
            monitor.close()


class TestSerialRecoveryParity:
    """What a serial recovery reads from the journal."""

    def test_replay_reads_only_the_recovered_shards_segments(self, tmp_path):
        """Recovering shard 0 never reads shard 1's journaled bytes."""

        def zero_shard_1_then_lose_shard_0(monitor, at):
            if at != 5:
                return
            journal = monitor.journal
            for raw in journal.path.read_text().splitlines()[1:]:
                line = json.loads(raw)
                sidecar = journal.sidecar_dir / line["sidecar"]
                data = bytearray(sidecar.read_bytes())
                for sid, start, stop in line["segments"]:
                    if sid == 1:
                        data[start:stop] = bytes(stop - start)
                sidecar.write_bytes(bytes(data))
            monitor.kill_shard(0)

        def drive(monitor):
            drive_matrix(monitor, zero_shard_1_then_lose_shard_0)
            assert monitor.recoveries == 1
            assert monitor.replayed_ticks == 5

        assert run_digest(
            lambda: build_supervised(2, tmp_path / "run", snapshot_every=0), drive
        ) == run_digest(build_single, drive_matrix)


class TestProcessRecoveryParity:
    """Worker-process shards: the sidecar transport, pings and event logs."""

    def test_tick_payload_ships_as_a_sidecar_reference(self, tmp_path):
        """A worker is sent a reference to its journal segment, not the bytes."""
        serials = tuple(f"r{d:03d}" for d in range(400))
        matrix = np.random.default_rng(2).normal(size=(400, N_CHANNELS))
        sizes = []
        monitor = build_supervised(
            2, tmp_path / "run", snapshot_every=0, mode="process"
        )
        try:
            for host in monitor._hosts:
                def submit(func, payload=None, *, observed=True, _submit=host.submit):
                    if func is _shard_tick:
                        sizes.append(
                            (len(pickle.dumps(dict(payload))), len(pickle.dumps(payload)))
                        )
                    return _submit(func, payload, observed=observed)

                host.submit = submit
            monitor.register_fleet(serials)
            monitor.observe_tick(0.0, matrix)
            single = build_single()
            single.register_fleet(serials)
            single.observe_tick(0.0, matrix)
            assert monitor.watched_drives() == single.watched_drives()
        finally:
            monitor.close()
        assert len(sizes) == 2
        for plain, sent in sizes:
            assert plain > 10 * 1024
            assert sent < 1024

    def test_ping_shards_reports_request_response_health(self, tmp_path):
        monitor = build_supervised(2, tmp_path / "run", mode="process")
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
        monitor = build_supervised(
            2, tmp_path / "run", snapshot_every=3, mode="process"
        )
        try:
            for at, (hour, pairs) in enumerate(stream):
                if at == 5:
                    sigkill(monitor, 1)
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


def _record_dispatch(monkeypatch, monitor):
    """Record, in order, what a supervised dispatch does.

    ``("send", shard, segment_readable, journal_lines)`` per tick call
    submitted (recovery replays are unobserved and not recorded),
    ``("fsync", "sidecar" | "line", journal_lines)`` per journal fsync,
    ``("collect", shard, journal_lines)`` per tick result collected and
    ``("entries", journal_lines)`` per journal read.  ``journal_lines``
    counts the lines on disk at that moment.
    """
    events = []
    journal = monitor.journal

    def lines():
        return len(journal.path.read_text().splitlines())

    def readable(payload):
        try:
            return _calls_equal(dict(_SegmentRef(*payload.segment)), dict(payload))
        except (AttributeError, ValueError):
            return False

    for host_type in (LocalHost, WorkerHost):
        def submit(host, func, payload=None, *, observed=True, _submit=host_type.submit):
            if func is not _shard_tick or not observed:
                return _submit(host, func, payload, observed=observed)
            sid = payload["shard"]
            events.append(("send", sid, readable(payload), lines()))
            future = _submit(host, func, payload, observed=observed)
            result = future.result

            def collect(*args, **kwargs):
                events.append(("collect", sid, lines()))
                return result(*args, **kwargs)

            future.result = collect
            return future

        monkeypatch.setattr(host_type, "submit", submit)

    fsync = os.fsync

    def recording_fsync(fd):
        inode = os.fstat(fd).st_ino
        if inode == os.stat(journal.path).st_ino:
            events.append(("fsync", "line", lines()))
        elif any(inode == path.stat().st_ino for path in journal.sidecar_dir.iterdir()):
            events.append(("fsync", "sidecar", lines()))
        return fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    entries = journal.entries

    def recording_entries(*args, **kwargs):
        events.append(("entries", lines()))
        return entries(*args, **kwargs)

    monkeypatch.setattr(journal, "entries", recording_entries)
    return events


class TestDispatchOrder:
    """The pipelined tick: send each segment at once, commit while shards work."""

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_send_commit_collect_order(self, tmp_path, monkeypatch, mode):
        serials = tuple(f"o{d:02d}" for d in range(16))
        rng = np.random.default_rng(37)
        ticks = [rng.normal(size=(16, N_CHANNELS)) for _ in range(4)]
        # Deaths must be found mid-dispatch, not by the pre-tick probe.
        monkeypatch.setattr(SupervisedShardedMonitor, "probe_shards", lambda self: None)
        single = build_single()
        single.register_fleet(serials)
        with build_supervised(2, tmp_path / "run", snapshot_every=0, mode=mode) as monitor:
            monitor.register_fleet(serials)
            events = _record_dispatch(monkeypatch, monitor)
            for hour, matrix in enumerate(ticks):
                if hour == 2:
                    kill(monitor, 1)
                before = len(events)
                lines = len(monitor.journal.path.read_text().splitlines())
                monitor.observe_tick(float(hour), matrix)
                single.observe_tick(float(hour), matrix)
                tick = events[before:]
                # Each segment is flushed before its own send; the sidecar
                # is fsync'd before the line lands, and the line is fsync'd
                # before any result is collected or the tick returns.
                assert tick[:4] == [
                    ("send", 0, True, lines),
                    ("send", 1, True, lines),
                    ("fsync", "sidecar", lines),
                    ("fsync", "line", lines + 1),
                ]
                if hour != 2:
                    assert tick[4:] == [
                        ("collect", 0, lines + 1), ("collect", 1, lines + 1),
                    ]
                    continue
                # A mid-dispatch death is recovered at collection, so the
                # recovery reads the journal only after the commit.
                reads = [event for event in tick if event[0] == "entries"]
                assert reads == [("entries", lines + 1)]
                assert tick.index(reads[0]) > 3
            assert monitor.recoveries == 1
            assert alert_rows(monitor.alerts) == alert_rows(single.alerts)
            assert monitor.watched_drives() == single.watched_drives()


class TestFailedCommit:
    """A journal entry that cannot commit: raise, then refuse until checkpoint().

    The shards applied the tick, so the supervisor finishes it (every
    call collected, the results merged) and raises the ``OSError``;
    after that, it serves and recovers nothing until ``checkpoint()``
    snapshots the state the shards really have.
    """

    @staticmethod
    def _fsync_fails_once(monkeypatch):
        fsync = os.fsync
        failed = []

        def flaky_fsync(fd):
            if not failed:
                failed.append(fd)
                raise OSError(5, "Input/output error")
            return fsync(fd)

        monkeypatch.setattr(os, "fsync", flaky_fsync)

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_process_and_serial_failed_commit_then_kill_keep_parity(
        self, tmp_path, monkeypatch, mode
    ):
        serials = tuple(f"f{d:02d}" for d in range(24))
        rng = np.random.default_rng(41)
        ticks = [rng.normal(size=(24, N_CHANNELS)) - 0.3 for _ in range(12)]

        def drive_clean(monitor):
            monitor.register_fleet(serials)
            for hour, matrix in enumerate(ticks):
                monitor.observe_tick(float(hour), matrix)
            monitor.finalize()

        def drive_failing(monitor):
            monitor.register_fleet(serials)
            for hour, matrix in enumerate(ticks):
                if hour == 5:
                    with monkeypatch.context() as patch:
                        events = _record_dispatch(patch, monitor)
                        self._fsync_fails_once(patch)
                        with pytest.raises(OSError, match="Input/output"):
                            monitor.observe_tick(float(hour), matrix)
                        # No call is left in flight: both results came home.
                        assert [e[:2] for e in events if e[0] != "fsync"] == [
                            ("send", 0), ("send", 1), ("collect", 0), ("collect", 1),
                        ]
                        del events[:]
                        with pytest.raises(RuntimeError, match="checkpoint"):
                            monitor.observe_tick(float(hour + 1), ticks[hour + 1])
                        assert events == []  # refused before anything was sent
                    monitor.checkpoint()
                    assert monitor.journal.failure is None
                    continue
                if hour == 7:
                    # Snapshot + journal now hold tick 5: a replay rebuilds
                    # the shard exactly as it was.
                    kill(monitor, 0)
                monitor.observe_tick(float(hour), matrix)
            monitor.finalize()
            assert monitor.recoveries == 1

        golden = run_surfaces(build_single, drive_clean)
        assert golden["alerts"]
        assert run_digest(
            lambda: build_supervised(2, tmp_path / "run", snapshot_every=4, mode=mode),
            drive_failing,
        ) == digest(golden)

    def test_death_while_uncommitted_is_not_recovered(self, tmp_path, monkeypatch):
        records = {f"u{d}": np.ones(N_CHANNELS) for d in range(8)}
        with build_supervised(2, tmp_path / "run", snapshot_every=0) as monitor:
            monitor.observe_fleet(0.0, records)
            with monkeypatch.context() as patch:
                self._fsync_fails_once(patch)
                with pytest.raises(OSError):
                    monitor.observe_fleet(1.0, records)
            # The journal lacks tick 1, which the shards applied: replaying
            # it would rebuild shard 0 without that tick.
            monitor.kill_shard(0)
            with pytest.raises(RuntimeError, match="failed to commit"):
                monitor.probe_shards()
            assert monitor.recoveries == 0
            assert monitor.quarantined_shards == []


class TestProcessSegmentReads:
    """A worker reads its segment inside the call: a bad one is a task error."""

    def test_process_missing_sidecar_raises_like_serial(self, tmp_path, open_journal):
        journal = open_journal(tmp_path / "j.jsonl")
        matrix = np.random.default_rng(4).normal(size=(4, N_CHANNELS))
        ((_, _, payload),) = journal.append(
            [(0, _shard_tick, {"hour": 1.0, "shard": 0, "matrix": matrix})], tick=True
        )
        journal.close()
        (journal.sidecar_dir / "000000.pkl").unlink()
        errors = {}
        for mode in ("serial", "process"):
            with build_supervised(
                1, tmp_path / mode, snapshot_every=0, mode=mode
            ) as monitor:
                monitor.register_fleet(("a", "b", "c", "d"))
                host = monitor._hosts[0]
                pids = host.pids()
                # Serial mode resolves the reference a worker would unpickle.
                sent = payload if mode == "process" else pickle.loads(pickle.dumps(payload))
                with pytest.raises(ValueError, match="unreadable journal segment") as err:
                    host.submit(_shard_tick, sent).result()
                errors[mode] = (type(err.value), str(err.value))
                # The host lives on and serves the next tick.
                assert host.alive and host.pids() == pids
                monitor.observe_tick(0.0, matrix)
                assert monitor.watched_drives() == ["a", "b", "c", "d"]
                assert monitor.recoveries == 0
        assert errors["process"] == errors["serial"]


def _inodes(directory, pattern="*"):
    return {path.name: path.stat().st_ino for path in directory.glob(pattern)}


class TestProcessSidecarRecycling:
    """A reset keeps its window's sidecars as spares for the next window."""

    def _tick(self, hour, rows):
        matrix = np.random.default_rng(int(hour)).normal(size=(rows, N_CHANNELS))
        return [(0, _shard_tick, {"hour": float(hour), "shard": 0, "matrix": matrix})]

    def test_process_recycled_sidecar_is_cut_to_the_entry_end_before_fsync(
        self, tmp_path, monkeypatch, open_journal
    ):
        journal = open_journal(tmp_path / "j.jsonl")
        journal.append(self._tick(0, rows=256), tick=True)
        journal.append(self._tick(1, rows=256), tick=True)
        journal.reset()
        spares = _inodes(journal.sidecar_dir, "*.spare")
        assert sorted(spares) == ["000000.spare", "000001.spare"]
        assert _inodes(journal.sidecar_dir, "*.pkl") == {}
        long_size = (journal.sidecar_dir / "000000.spare").stat().st_size
        synced = []
        fsync = os.fsync

        def recording_fsync(fd):
            synced.append((os.fstat(fd).st_ino, os.fstat(fd).st_size))
            return fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        calls = self._tick(2, rows=4)
        journal.append(calls, tick=True)
        monkeypatch.undo()
        # The oldest spare took the entry's next name and was overwritten.
        ((name, inode),) = _inodes(journal.sidecar_dir, "*.pkl").items()
        assert (name, inode) == ("000002.pkl", spares["000000.spare"])
        (entry,) = journal.entries()
        ((_, _, stop),) = entry["segments"]
        assert stop < long_size
        assert (journal.sidecar_dir / name).stat().st_size == stop
        # Cut before the sidecar fsync, not after it.
        assert synced[0] == (inode, stop)
        assert _calls_equal(entry["calls"], calls)

    def test_process_segment_ref_pickled_before_reset_is_unreadable_after(
        self, tmp_path, open_journal
    ):
        journal = open_journal(tmp_path / "j.jsonl")
        ((_, _, payload),) = journal.append(self._tick(0, rows=8), tick=True)
        sent = pickle.dumps(payload)
        assert _calls_equal(dict(pickle.loads(sent)), dict(payload))
        inode = os.stat(payload.segment[0]).st_ino
        journal.reset()
        # The next entry recycles that very file under a new name.
        journal.append(self._tick(1, rows=8), tick=True)
        assert _inodes(journal.sidecar_dir, "*.pkl") == {"000001.pkl": inode}
        assert not os.path.exists(payload.segment[0])
        with pytest.raises(ValueError, match="unreadable journal segment"):
            dict(pickle.loads(sent))

    def test_process_close_removes_spares_and_keeps_entries_readable(
        self, tmp_path, open_journal
    ):
        journal = open_journal(tmp_path / "j.jsonl")
        for hour in range(3):
            journal.append(self._tick(hour, rows=16), tick=True)
        journal.reset()
        calls = self._tick(3, rows=16)
        journal.append(calls, tick=True)
        assert len(_inodes(journal.sidecar_dir, "*.spare")) == 2
        journal.close()
        assert sorted(_inodes(journal.sidecar_dir)) == ["000003.pkl"]
        (entry,) = journal.entries()
        assert _calls_equal(entry["calls"], calls)

    def test_process_construction_recycles_a_previous_runs_sidecars(
        self, tmp_path, open_journal
    ):
        path = tmp_path / "j.jsonl"
        first = open_journal(path)
        for hour in range(3):
            first.append(self._tick(hour, rows=16), tick=True)
        first.reset()
        first.append(self._tick(3, rows=16), tick=True)
        old = set(_inodes(first.sidecar_dir).values())
        # The previous run crashed before close(): live and spare files stay.
        first._handle.close()
        second = open_journal(path)
        assert second.entries() == []
        assert set(_inodes(second.sidecar_dir, "*.spare").values()) == old
        second.append(self._tick(4, rows=16), tick=True)
        # Numbering starts past the leftovers, so no old name comes back.
        ((name, inode),) = _inodes(second.sidecar_dir, "*.pkl").items()
        assert name == "000004.pkl" and inode in old
        second.close()
        assert sorted(_inodes(second.sidecar_dir)) == ["000004.pkl"]

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_process_and_serial_kill_after_checkpoints_replays_recycled_sidecars(
        self, tmp_path, mode
    ):
        serials = tuple(f"r{d:02d}" for d in range(20))
        rng = np.random.default_rng(53)
        ticks = [rng.normal(size=(20, N_CHANNELS)) - 0.3 for _ in range(12)]

        def drive_clean(monitor):
            monitor.register_fleet(serials)
            for hour, matrix in enumerate(ticks):
                monitor.observe_tick(float(hour), matrix)
            monitor.finalize()

        def drive_killed(monitor):
            monitor.register_fleet(serials)
            sidecar_dir = monitor.journal.sidecar_dir
            for hour, matrix in enumerate(ticks):
                if hour == 8:
                    # Two checkpoints in (after hours 2 and 5): the pin and
                    # ticks 6-7 that recovery replays sit in recycled files.
                    live = _inodes(sidecar_dir, "*.pkl")
                    assert len(live) == 3
                    assert set(live.values()) <= first_window
                    kill(monitor, 0)
                monitor.observe_tick(float(hour), matrix)
                if hour == 2:
                    # The first window: the pin plus three ticks.
                    first_window = set(_inodes(sidecar_dir).values())
                    assert len(first_window) == 4
                elif hour > 2:
                    # The pool never grows past the largest window.
                    assert set(_inodes(sidecar_dir).values()) == first_window
            monitor.finalize()
            assert monitor.recoveries == 1
            assert monitor.replayed_ticks == 2

        golden = run_surfaces(build_single, drive_clean)
        assert golden["alerts"]
        assert run_digest(
            lambda: build_supervised(2, tmp_path / "run", snapshot_every=3, mode=mode),
            drive_killed,
        ) == digest(golden)


class TestRestartBudget:
    """A flapping shard is quarantined: degraded and reported, never paged."""

    def _flapping_run(self, tmp_path, log):
        monitor = build_supervised(
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

    def test_shard_lost_during_a_checkpoint_is_not_replayed_twice(
        self, tmp_path
    ):
        """Regression: quarantine mid-checkpoint must not re-export a shard.

        Shard 1 burns its budget inside ``checkpoint()`` and its
        quarantine also takes shard 0 down.  Shard 0's export had
        already answered, so the published file holds its current state
        and the journal resets; replaying the old journal into that
        file would fault every shard-0 drive with duplicate hours.
        """
        rng = np.random.default_rng(3)
        stream = [
            (float(hour), {f"d{d:03d}": rng.normal(size=N_CHANNELS) for d in range(12)})
            for hour in range(14)
        ]
        monitor = build_supervised(
            2, tmp_path / "run",
            restart_policy=RestartPolicy(max_restarts=1, window_ticks=1000),
            snapshot_every=0,
        )
        try:
            for hour, records in stream[:4]:
                monitor.observe_fleet(hour, records)
            monitor.checkpoint()
            monitor.kill_shard(1)
            for hour, records in stream[4:9]:
                monitor.observe_fleet(hour, records)
            assert monitor.recoveries == 1

            monitor.kill_shard(1)
            quarantine = monitor.quarantine_shard

            def quarantine_and_lose_shard_0(shard):
                quarantine(shard)
                monitor.kill_shard(0)

            monitor.quarantine_shard = quarantine_and_lose_shard_0
            monitor.checkpoint()
            for hour, records in stream[9:]:
                monitor.observe_fleet(hour, records)
            assert monitor.quarantined_shards == [1]
            assert monitor.fault_counts() == {}
            assert monitor.faults == []

            # Shard 0's drives match one monitor fed only those drives.
            golden = build_single()
            for hour, records in stream:
                golden.observe_fleet(hour, {
                    s: v for s, v in records.items() if shard_for(s, 2) == 0
                })
            assert golden.alerts
            survivors = [a for a in monitor.alerts if shard_for(a.serial, 2) == 0]
            assert [(a.serial, a.hour, a.score) for a in survivors] == [
                (a.serial, a.hour, a.score) for a in golden.alerts
            ]
            assert monitor.watched_drives() == golden.watched_drives()
        finally:
            monitor.close()

    def test_restart_window_ages_old_deaths_out(self, tmp_path):
        monitor = build_supervised(
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
        monitor = build_supervised(2, tmp_path / "run", snapshot_every=4)
        try:
            records = {f"d{d}": np.ones(N_CHANNELS) for d in range(6)}
            for hour in range(10):
                monitor.observe_fleet(float(hour), records)
            # Ticks 4 and 8 snapshotted; the journal holds only 9 and 10.
            assert monitor.journal.tick_count == 2
            names = sorted(p.name for p in (monitor.run_dir / "snapshot").iterdir())
            assert names == ["coordinator.pkl", "shard-0.pkl", "shard-1.pkl"]
        finally:
            monitor.close()

    def test_model_change_forces_a_snapshot(self, tmp_path):
        monitor = build_supervised(2, tmp_path / "run", snapshot_every=0)
        try:
            records = {f"d{d}": np.ones(N_CHANNELS) for d in range(6)}
            for hour in range(3):
                monitor.observe_fleet(float(hour), records)
            assert monitor.journal.tick_count == 3
            monitor.set_model(score_sample, score_batch=score_batch)
            # The snapshot owns the ticks; the journal restarts empty.
            assert monitor.journal.tick_count == 0
            assert (monitor.run_dir / "snapshot" / "coordinator.pkl").exists()
        finally:
            monitor.close()

    def test_health_report_supervision_section(self, tmp_path):
        monitor = build_supervised(
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


class TestHostedErrors:
    """A shard's own exception is an error, never a shard death."""

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_scorer_os_error_raises_without_recovery(self, tmp_path, mode):
        # An OSError subclass, the family a torn worker pipe raises: the
        # supervisor must surface it, not spend restarts or quarantine.
        serials = [f"d{d:03d}" for d in range(12)]
        tick = {s: np.ones(N_CHANNELS) for s in serials}
        tick[next(s for s in serials if shard_for(s, 2) == 0)] = np.full(
            N_CHANNELS, POISON
        )
        log = enable_events()
        try:
            monitor = build_supervised(
                2, tmp_path / "run", score_batch=score_batch_missing_file,
                mode=mode,
            )
            try:
                assert monitor.mode == mode
                monitor.observe_fleet(0.0, {s: np.ones(N_CHANNELS) for s in serials})
                with pytest.raises(FileNotFoundError, match="poisoned drive") as err:
                    monitor.observe_fleet(1.0, tick)
                assert type(err.value) is FileNotFoundError
                assert monitor.recoveries == 0
                assert monitor.quarantined_shards == []
                assert "shard_died" not in {e.type for e in log.events}
            finally:
                monitor.close()
        finally:
            disable_events()


class TestCanaryRecovery:
    def test_canary_shard_killed_mid_soak_still_resolves(self, tmp_path):
        records = {f"c{d}": np.ones(N_CHANNELS) for d in range(8)}

        def run(run_dir, kill):
            monitor = build_supervised(
                2, run_dir, detector_factory=VoterSpec("majority", 1),
                snapshot_every=0,
            )
            try:
                monitor.observe_fleet(0.0, records)
                monitor.begin_deployment(
                    score_sample, score_batch=score_batch,
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
