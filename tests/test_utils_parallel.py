"""The deterministic fan-out layer: knob resolution, ordering, fallback."""

from __future__ import annotations

import os
import signal
import time
import warnings

import numpy as np
import pytest

from repro.tree.bagging import subsample_member_inputs
from repro.utils import parallel
from repro.utils.errors import (
    BrokenPoolWarning,
    SerialFallbackWarning,
    TaskRetryWarning,
    UnpicklableTaskWarning,
    WorkerDiedError,
)
from repro.utils.parallel import (
    WorkerHost,
    _backoff_delay,
    resolve_n_jobs,
    resolve_shards,
    run_tasks,
)
from repro.utils.rng import as_rng


def _square_plus_context(context, task):
    return task * task + (context or 0)


def _pid_task(context, task):
    return os.getpid()


def _kill_worker_once(context, task):
    """SIGKILL the hosting process on first sight of a marked task.

    The marker file is created *before* the kill, so the serial retry in
    the parent process sees it and completes normally — the transient
    infrastructure fault every retry policy exists for.
    """
    marker, value = task
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 10


def _fail_n_times(context, task):
    """Raise on the first ``n_failures`` attempts, tallied on disk."""
    counter, n_failures, value = task
    attempts = 0
    if os.path.exists(counter):
        with open(counter) as handle:
            attempts = int(handle.read())
    with open(counter, "w") as handle:
        handle.write(str(attempts + 1))
    if attempts < n_failures:
        raise RuntimeError(f"transient fault #{attempts + 1}")
    return value


def _always_fail(context, task):
    raise RuntimeError("deterministic bug")


def _hang_unless_marked(context, task):
    """Sleep well past any test timeout on first attempt, then be quick."""
    marker, value = task
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        time.sleep(2.0)
    return value + 1


class TestResolveNJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_N_JOBS", raising=False)
        assert resolve_n_jobs() == 1

    def test_explicit_wins(self):
        assert resolve_n_jobs(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "5")
        assert resolve_n_jobs() == 5

    def test_env_garbage_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "many")
        assert resolve_n_jobs() == 1

    def test_zero_means_all_cores(self):
        assert resolve_n_jobs(0) == (os.cpu_count() or 1)
        assert resolve_n_jobs(-1) == (os.cpu_count() or 1)

    def test_worker_processes_pin_to_serial(self, monkeypatch):
        monkeypatch.setattr(parallel, "_IN_WORKER", True)
        assert resolve_n_jobs(8) == 1


class TestRunTasks:
    def test_serial_results_in_order(self):
        assert run_tasks(_square_plus_context, [3, 1, 2]) == [9, 1, 4]

    def test_context_is_passed(self):
        assert run_tasks(_square_plus_context, [1, 2], context=10) == [11, 14]

    def test_parallel_matches_serial_in_order(self):
        tasks = list(range(20))
        assert run_tasks(_square_plus_context, tasks, n_jobs=4, context=1) == [
            t * t + 1 for t in tasks
        ]

    def test_parallel_actually_uses_processes(self):
        pids = set(run_tasks(_pid_task, list(range(8)), n_jobs=2))
        assert os.getpid() not in pids

    def test_lambda_falls_back_to_serial(self):
        # Lambdas cannot cross a process boundary; the fallback must
        # still produce the serial answer.
        with pytest.warns(UnpicklableTaskWarning):
            result = run_tasks(lambda context, task: task + 1, [1, 2, 3], n_jobs=4)
        assert result == [2, 3, 4]

    def test_single_task_stays_serial(self):
        assert run_tasks(_pid_task, [0], n_jobs=4) == [os.getpid()]

    def test_spawn_start_method(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "spawn")
        tasks = [4, 5]
        assert run_tasks(_square_plus_context, tasks, n_jobs=2) == [16, 25]

    def test_unknown_start_method_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "not-a-method")
        with pytest.warns(SerialFallbackWarning):
            assert run_tasks(_square_plus_context, [1, 2], n_jobs=2) == [1, 4]

    def test_unknown_start_method_warning_category(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "not-a-method")
        with pytest.warns(SerialFallbackWarning):
            run_tasks(_square_plus_context, [1, 2], n_jobs=2)

    def test_on_result_hook_serial(self):
        seen = []
        run_tasks(
            _square_plus_context, [3, 1, 2],
            on_result=lambda index, result: seen.append((index, result)),
        )
        assert seen == [(0, 9), (1, 1), (2, 4)]

    def test_on_result_hook_parallel(self):
        seen = []
        run_tasks(
            _square_plus_context, list(range(6)), n_jobs=2,
            on_result=lambda index, result: seen.append((index, result)),
        )
        assert sorted(seen) == [(t, t * t) for t in range(6)]


class TestBackoffSchedule:
    def test_exponential_growth(self):
        assert _backoff_delay(0, 0.1, 5.0) == pytest.approx(0.1)
        assert _backoff_delay(1, 0.1, 5.0) == pytest.approx(0.2)
        assert _backoff_delay(3, 0.1, 5.0) == pytest.approx(0.8)

    def test_cap(self):
        assert _backoff_delay(10, 0.1, 5.0) == 5.0


class TestRetries:
    @pytest.fixture(autouse=True)
    def record_sleeps(self, monkeypatch):
        self.sleeps = []
        monkeypatch.setattr(parallel, "_sleep", self.sleeps.append)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            run_tasks(_square_plus_context, [1], retries=-1)

    def test_transient_failure_retried_serially(self, tmp_path):
        counter = str(tmp_path / "attempts")
        with pytest.warns(TaskRetryWarning):
            result = run_tasks(
                _fail_n_times, [(counter, 2, "ok")], retries=2, backoff=0.05
            )
        assert result == ["ok"]
        # Two failures, so two backoff sleeps: 0.05s then 0.10s.
        assert self.sleeps == pytest.approx([0.05, 0.1])

    def test_budget_exhausted_raises(self, tmp_path):
        counter = str(tmp_path / "attempts")
        with pytest.raises(RuntimeError, match="transient fault"):
            with pytest.warns(TaskRetryWarning):
                run_tasks(_fail_n_times, [(counter, 5, "ok")], retries=2)
        with open(counter) as handle:
            assert handle.read() == "3"  # 1 first try + 2 retries

    def test_retries_zero_propagates_immediately_serial(self):
        with pytest.raises(RuntimeError, match="deterministic bug"):
            run_tasks(_always_fail, [1, 2])
        assert self.sleeps == []

    def test_retries_zero_propagates_immediately_parallel(self):
        with pytest.raises(RuntimeError, match="deterministic bug"):
            run_tasks(_always_fail, [1, 2], n_jobs=2)

    def test_task_error_in_worker_uses_retry_budget(self, tmp_path):
        # The failing attempt happened in the pool; the serial salvage
        # continues the budget rather than restarting it.
        counter = str(tmp_path / "attempts")
        tasks = [(str(tmp_path / f"t{i}"), 0, i) for i in range(3)]
        tasks.append((counter, 1, "recovered"))
        with pytest.warns(TaskRetryWarning):
            result = run_tasks(_fail_n_times, tasks, n_jobs=2, retries=1)
        assert result == [0, 1, 2, "recovered"]


class TestWorkerCrashSalvage:
    @pytest.fixture(autouse=True)
    def record_sleeps(self, monkeypatch):
        self.sleeps = []
        monkeypatch.setattr(parallel, "_sleep", self.sleeps.append)

    def test_killed_worker_results_salvaged_and_retried(self, tmp_path):
        # Task 1 SIGKILLs the worker that picks it up — a real process
        # death, not an exception.  Completed results must be kept and
        # only the lost tasks recomputed, the killed one with backoff.
        marker = str(tmp_path / "killed-once")
        tasks = [(None, 0), (marker, 1), (None, 2), (None, 3)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_tasks(
                _kill_worker_once, tasks, n_jobs=2, retries=1, backoff=0.05
            )
        assert result == [0, 10, 20, 30]
        categories = {type(w.message) for w in caught}
        assert BrokenPoolWarning in categories
        assert TaskRetryWarning in categories
        # Every lost task backed off before its serial retry.
        assert self.sleeps
        assert all(delay == pytest.approx(0.05) for delay in self.sleeps)

    def test_killed_worker_without_retries_still_salvages(self, tmp_path):
        # retries=0 still recovers from *infrastructure* faults — only
        # task-raised exceptions are treated as deterministic bugs.
        marker = str(tmp_path / "killed-once")
        tasks = [(None, 0), (marker, 1), (None, 2)]
        with pytest.warns(BrokenPoolWarning):
            result = run_tasks(_kill_worker_once, tasks, n_jobs=2)
        assert result == [0, 10, 20]
        assert self.sleeps == []


class TestTimeout:
    def test_hung_task_recomputed_serially(self, tmp_path):
        marker = str(tmp_path / "hung-once")
        tasks = [(None, 0), (marker, 10), (None, 20)]
        started = time.perf_counter()
        with pytest.warns(TaskRetryWarning, match="budget"):
            result = run_tasks(
                _hang_unless_marked, tasks, n_jobs=2, timeout=0.3
            )
        assert result == [1, 11, 21]
        # The wedged worker was abandoned, not awaited to completion.
        assert time.perf_counter() - started < 10.0


class TestSubsampleMemberInputs:
    def _matrix(self):
        return np.arange(40.0).reshape(10, 4)

    def test_reproducible_given_rng_seed(self):
        matrix = self._matrix()
        a = subsample_member_inputs(as_rng(5), matrix, n_active=2, bootstrap=True)
        b = subsample_member_inputs(as_rng(5), matrix, n_active=2, bootstrap=True)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[2], b[2])

    def test_bootstrap_rows_are_resampled_with_replacement(self):
        matrix = self._matrix()
        inputs, rows, _ = subsample_member_inputs(
            as_rng(1), matrix, n_active=4, bootstrap=True
        )
        assert rows.shape == (10,)
        np.testing.assert_array_equal(inputs, matrix[rows])

    def test_no_bootstrap_keeps_all_rows(self):
        matrix = self._matrix()
        inputs, rows, active = subsample_member_inputs(
            as_rng(1), matrix, n_active=4, bootstrap=False
        )
        np.testing.assert_array_equal(rows, np.arange(10))
        np.testing.assert_array_equal(inputs, matrix)
        np.testing.assert_array_equal(active, np.arange(4))

    def test_feature_subsampling_masks_inactive_columns_with_nan(self):
        matrix = self._matrix()
        inputs, rows, active = subsample_member_inputs(
            as_rng(2), matrix, n_active=2, bootstrap=False
        )
        assert active.shape == (2,)
        assert (np.diff(active) > 0).all(), "active features must stay sorted"
        inactive = np.setdiff1d(np.arange(4), active)
        assert np.isnan(inputs[:, inactive]).all()
        np.testing.assert_array_equal(inputs[:, active], matrix[:, active])

    def test_full_feature_set_skips_masking(self):
        matrix = self._matrix()
        inputs, _, active = subsample_member_inputs(
            as_rng(3), matrix, n_active=4, bootstrap=False
        )
        assert not np.isnan(inputs).any()
        np.testing.assert_array_equal(active, np.arange(4))


class TestResolveShards:
    """The second knob: shard count composes with REPRO_N_JOBS."""

    def test_default_is_unsharded(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards() == 1

    def test_explicit_wins_verbatim_even_with_jobs_set(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("REPRO_N_JOBS", "8")
        monkeypatch.setenv("REPRO_SHARDS", "2")
        assert resolve_shards(5) == 5  # the caller asked; never capped

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_N_JOBS", raising=False)
        monkeypatch.setenv("REPRO_SHARDS", "3")
        assert resolve_shards() == 3

    def test_env_garbage_falls_back_to_unsharded(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "lots")
        assert resolve_shards() == 1

    def test_zero_means_all_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.delenv("REPRO_N_JOBS", raising=False)
        monkeypatch.setenv("REPRO_SHARDS", "0")
        assert resolve_shards() == 8
        assert resolve_shards(0) == 8
        assert resolve_shards(-1) == 8

    def test_env_shards_capped_by_core_budget(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("REPRO_SHARDS", "8")
        monkeypatch.setenv("REPRO_N_JOBS", "4")
        # 8 shards x 4 jobs would oversubscribe 8 cores: capped to 8//4.
        assert resolve_shards() == 2

    def test_cap_never_goes_below_one_shard(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("REPRO_SHARDS", "6")
        monkeypatch.setenv("REPRO_N_JOBS", "16")
        assert resolve_shards() == 1

    def test_worker_processes_pin_to_one_shard(self, monkeypatch):
        monkeypatch.setattr(parallel, "_IN_WORKER", True)
        assert resolve_shards(8) == 1


def _counter_state():
    return {"total": 0}


def _add_to_state(state, payload):
    state["total"] += payload
    return state["total"]


def _nested_knobs(state, payload):
    return (resolve_n_jobs(8), resolve_shards(8))


class TestWorkerHost:
    """One long-lived worker owning mutable state across calls."""

    def test_state_persists_across_calls_in_order(self):
        host = WorkerHost(_counter_state)
        try:
            assert host.call(_add_to_state, 2) == 2
            assert host.call(_add_to_state, 3) == 5  # same hosted dict
            futures = [host.submit(_add_to_state, 1) for _ in range(3)]
            assert [f.result() for f in futures] == [6, 7, 8]
        finally:
            host.close()
        assert host.alive is False
        with pytest.raises(RuntimeError, match="dead"):
            host.submit(_add_to_state, 1)

    def test_hosted_code_cannot_fan_out_again(self):
        host = WorkerHost(_counter_state)
        try:
            assert host.call(_nested_knobs) == (1, 1)
        finally:
            host.close()

    def test_kill_discards_state_and_pending_calls(self):
        host = WorkerHost(_counter_state)
        try:
            assert host.call(_add_to_state, 7) == 7
            host.kill()
            assert host.alive is False
            with pytest.raises(RuntimeError, match="dead"):
                host.call(_add_to_state, 1)
        finally:
            if host.alive:
                host.close()


class TestWorkerHostDeathSemantics:
    """Satellite: SIGKILL surfaces as a typed error, never a raw pipe error."""

    def test_sigkill_mid_request_raises_worker_died_error(self):
        host = WorkerHost(_counter_state)
        try:
            assert host.call(_add_to_state, 1) == 1
            (pid,) = host.pids()
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(WorkerDiedError) as err:
                host.call(_add_to_state, 1)
            # The raw pipe-layer exception must never leak to the caller.
            assert not isinstance(err.value, (EOFError, BrokenPipeError))
            assert isinstance(err.value, RuntimeError)  # catchable as before
            assert host.alive is False
        finally:
            if host.alive:
                host.close()

    def test_poll_reports_sigkill_exit_code_and_flips_alive(self):
        host = WorkerHost(_counter_state)
        try:
            assert host.poll() is None  # not yet spawned: nothing to report
            host.call(_add_to_state, 1)
            assert host.poll() is None  # running
            (pid,) = host.pids()
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while host.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
            assert host.poll() == -signal.SIGKILL
            assert host.exit_code == -signal.SIGKILL
            assert host.alive is False
            assert host.pids() == []
        finally:
            if host.alive:
                host.close()

    def test_ping_answers_health_without_raising(self):
        host = WorkerHost(_counter_state)
        try:
            assert host.ping(timeout=30.0) is True
            host.kill()
            assert host.ping() is False  # dead host: False, not an exception
        finally:
            if host.alive:
                host.close()

    def test_double_kill_is_idempotent(self):
        host = WorkerHost(_counter_state)
        host.call(_add_to_state, 1)
        host.kill()
        host.kill()  # second kill on a dead host must be a no-op
        assert host.alive is False
        with pytest.raises(WorkerDiedError, match="dead"):
            host.submit(_add_to_state, 1)

    def test_submit_on_dead_host_names_the_remedy(self):
        host = WorkerHost(_counter_state)
        host.kill()
        with pytest.raises(WorkerDiedError, match="snapshot"):
            host.submit(_add_to_state, 1)
