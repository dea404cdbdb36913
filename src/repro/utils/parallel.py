"""Deterministic process-based fan-out for embarrassingly parallel fits.

Forest members, cross-validation folds, and the updating simulator's
per-window retrains are independent computations over shared read-only
inputs.  :func:`run_tasks` maps a module-level function over a task list
with ``concurrent.futures.ProcessPoolExecutor``, preserving task order
in the results, so callers get exactly the serial answer faster.

Determinism is a protocol, not an accident:

* **Seed per task.**  Every task carries its own random state, derived
  from the caller's seed by a consumption-independent spawn
  (:func:`repro.utils.rng.spawn_child`).  No task reads another task's
  stream, so the fitted artefacts cannot depend on scheduling order.
* **Order by submission.**  Results are collected in task order, never
  completion order.
* **Serial fallback.**  ``n_jobs=1`` (the default), a single task, or a
  task that cannot cross a process boundary (closures, lambdas, broken
  pools) all run the plain serial loop — same floats, no processes.

The knob: pass ``n_jobs`` explicitly, or set ``REPRO_N_JOBS`` to give
every fan-out site a default (``0`` or a negative value means "all
cores").  Worker processes are pinned to ``n_jobs=1`` so nested
fan-outs (a forest inside a cross-validated fold) cannot oversubscribe.

Sharded serving adds a second knob: ``REPRO_SHARDS`` (resolved by
:func:`resolve_shards`, mirrored by the ``n_shards`` constructor
argument of :class:`~repro.detection.sharded.ShardedFleetMonitor`).
The two knobs compose without oversubscribing cores: an explicit
``n_shards`` argument always wins verbatim, while an env-derived shard
count is capped so that ``shards x resolve_n_jobs()`` never exceeds the
machine's cores — and inside a shard worker ``resolve_n_jobs`` is
already pinned to 1, so per-shard fan-outs stay serial regardless.

:class:`WorkerHost` is the long-lived counterpart of :func:`run_tasks`:
one dedicated worker process hosting *stateful* computations (a shard
monitor) across many calls, speaking the same
:class:`~repro.observability.RemoteObservation` envelope protocol so
per-call metrics/spans/events ship home exactly like pool tasks.
:class:`LocalHost` is its in-process twin: the same surface (``submit``
returning a future, ``call``, ``kill``, ``close``, ``alive``, ``poll``,
``ping``, ``pids``, ``exit_code``) and the same envelopes, with the
state living in the caller's process.  It is the host for state that
cannot be pickled and the zero-process reference, so code written
against one host type runs unchanged on the other.

Both run their calls under one failure contract:

* **A task's exception is the task's.**  An exception raised by the
  task itself — ``func`` in a pool worker, a hosted call in a
  :class:`WorkerHost` — propagates to the caller unchanged the first
  time, exactly as from the serial loop or a :class:`LocalHost`: it is
  never re-run, never salvaged and never reported as a fallback.  The
  worker wraps it in ``_TaskRaised`` so the parent never has to guess
  from an exception's type whether the task or the infrastructure
  failed; any other exception a future raises is the infrastructure's.
  A task exception that cannot be pickled travels home as a
  :class:`~repro.utils.errors.RemoteTaskError` carrying its type name,
  message and traceback instead, so that task too runs once.
* **A dead worker is infrastructure.**  ``run_tasks`` submits tasks
  individually, so when the pool breaks mid-batch (a worker OOM-killed
  or segfaulted) every already-completed result is kept and only the
  lost tasks are recomputed serially — a 100-cell grid does not restart
  because cell 73 took down a worker.  A host whose worker dies raises
  :class:`~repro.utils.errors.WorkerDiedError` and is dead afterwards.
* **No silent degradation.**  Every fall-back to serial execution emits
  a structured warning whose *category* carries the cause —
  :class:`~repro.utils.errors.UnpicklableTaskWarning` for payloads that
  cannot cross a process boundary,
  :class:`~repro.utils.errors.BrokenPoolWarning` for dead pools — so
  callers (and CI) can assert on, or filter, each failure mode.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback
import warnings
from concurrent.futures import Future, ProcessPoolExecutor, TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional, Sequence

from repro.observability import (
    RemoteObservation,
    absorb_remote,
    capture_remote,
    get_registry,
    get_tracer,
    set_event_log,
    set_registry,
    set_tracer,
    worker_config,
)
from repro.utils.errors import (
    BrokenPoolWarning,
    RemoteTaskError,
    SerialFallbackWarning,
    UnpicklableTaskWarning,
    WorkerDiedError,
)

#: Set inside worker processes; forces nested ``resolve_n_jobs`` to 1.
_IN_WORKER = False

#: Per-worker shared context installed by the pool initializer, so large
#: read-only inputs (the training matrix) are shipped once per worker
#: instead of once per task.
_SHARED_CONTEXT = None

#: Observability config shipped by the parent (``None`` when disabled);
#: makes workers wrap each task in fresh per-task instruments whose
#: snapshot/spans travel home inside the result envelope.
_OBS_CONFIG = None


def resolve_n_jobs(n_jobs: Optional[int] = None) -> int:
    """Worker-process count for a fan-out site.

    ``None`` defers to the ``REPRO_N_JOBS`` environment variable
    (default 1 — serial); ``0`` or negative values mean "all cores".
    Inside a worker process the answer is always 1, so nested fan-outs
    stay serial.
    """
    if _IN_WORKER:
        return 1
    if n_jobs is None:
        try:
            n_jobs = int(os.environ.get("REPRO_N_JOBS", "1"))
        except ValueError:
            n_jobs = 1
    n_jobs = int(n_jobs)
    if n_jobs <= 0:
        n_jobs = os.cpu_count() or 1
    return max(1, n_jobs)


def resolve_shards(n_shards: Optional[int] = None) -> int:
    """Shard count for sharded fleet serving.

    Precedence (documented in ``docs/architecture.md``):

    1. An explicit ``n_shards`` argument wins verbatim (``0`` or a
       negative value means "all cores").
    2. ``None`` defers to the ``REPRO_SHARDS`` environment variable
       (same zero/negative convention; default 1 — unsharded).
    3. An *env-derived* count is additionally capped so that
       ``shards x resolve_n_jobs()`` never exceeds the machine's cores
       when ``REPRO_N_JOBS`` is also set — the two knobs compose
       instead of multiplying into oversubscription.  An explicit
       argument is never capped: the caller asked for that many.

    Inside a worker process the answer is always 1 (a shard never
    re-shards itself).
    """
    if _IN_WORKER:
        return 1
    cpus = os.cpu_count() or 1
    if n_shards is None:
        try:
            shards = int(os.environ.get("REPRO_SHARDS", "1"))
        except ValueError:
            shards = 1
        if shards <= 0:
            shards = cpus
        per_shard_jobs = resolve_n_jobs(None)
        if per_shard_jobs > 1:
            shards = min(shards, max(1, cpus // per_shard_jobs))
        return max(1, shards)
    n_shards = int(n_shards)
    if n_shards <= 0:
        n_shards = cpus
    return max(1, n_shards)


def _reset_worker_observability() -> None:
    """Install no-op instruments in a freshly started worker process.

    Under the fork start method the child inherits the parent's live
    instruments — including a file-backed ``EventLog`` and its open
    handle.  Worker observations must flow home only through the
    explicit ``capture_remote`` envelope protocol; an inherited log
    would let unobserved calls write to the parent's file with a stale
    forked sequence counter, interleaving garbage into the shared log.
    """
    set_registry(None)
    set_tracer(None)
    set_event_log(None)


def _worker_init(context: object, obs_config: object = None) -> None:
    global _IN_WORKER, _SHARED_CONTEXT, _OBS_CONFIG
    _IN_WORKER = True
    _SHARED_CONTEXT = context
    _OBS_CONFIG = obs_config
    _reset_worker_observability()


class _TaskRaised(Exception):
    """An exception the task itself raised in a worker, on its way home.

    ``concurrent.futures`` hands the parent a task's exception and an
    infrastructure failure (an unpicklable payload, a torn pipe) the
    same way, so the worker marks the task's own; the parent re-raises
    ``error`` unchanged and treats every other exception as the
    infrastructure's.
    """

    def __init__(self, error: Exception):
        super().__init__(error)
        self.error = error


def _picklable(error: Exception) -> Exception:
    """``error`` if it survives a pickle round trip, else a stand-in that does.

    The stand-in, a :class:`~repro.utils.errors.RemoteTaskError`, keeps
    the type name, message and traceback, so a task whose exception
    cannot cross the process boundary still fails once, as itself.
    """
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return RemoteTaskError(
            f"{type(error).__module__}.{type(error).__qualname__}",
            str(error),
            "".join(traceback.format_exception(error)),
        )


def _run_task(config: object, func: Callable, state: object, payload: object) -> object:
    """Run one task in a worker, marking any exception it raises as its own."""
    try:
        return capture_remote(config, func, state, payload)
    except Exception as error:
        raise _TaskRaised(_picklable(error)) from error


def _call_with_shared_context(func: Callable, task: object) -> object:
    return _run_task(_OBS_CONFIG, func, _SHARED_CONTEXT, task)


def _warn_fallback(category: type, cause: str, n_tasks: int) -> None:
    get_registry().counter(
        "parallel.serial_fallbacks", help="fan-outs degraded to serial"
    ).inc()
    warnings.warn(
        f"parallel fan-out degraded to serial execution for {n_tasks} "
        f"task(s): {cause}",
        category,
        stacklevel=3,
    )


def run_tasks(
    func: Callable,
    tasks: Sequence[object],
    *,
    n_jobs: Optional[int] = None,
    context: object = None,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> list:
    """``[func(context, task) for task in tasks]``, optionally in processes.

    ``func`` must be a module-level callable of ``(context, task)``;
    ``context`` holds the read-only inputs every task shares and is
    shipped once per worker via the pool initializer.  Results come back
    in task order.  Runs serially when ``n_jobs`` resolves to 1 or there
    are fewer than two tasks.

    Failures (see the module docs): an exception ``func`` raises
    propagates the first time, as from the serial loop — unchanged, or
    as a :class:`~repro.utils.errors.RemoteTaskError` stand-in when a
    pooled task's exception cannot be pickled.  A task lost to the
    infrastructure — a dead worker, a payload or result that cannot be
    pickled — is recomputed serially under a structured
    :class:`SerialFallbackWarning`, and completed results are kept.

    ``on_result(index, result)`` is invoked once per task as its result
    becomes final (checkpoint writers hook in here); invocation order
    may differ from task order when tasks are salvaged, but the returned
    list is always in task order.
    """
    tasks = list(tasks)
    jobs = min(resolve_n_jobs(n_jobs), len(tasks))

    registry = get_registry()
    tracer = get_tracer()

    def serial(task: object, index: int) -> object:
        with tracer.span("parallel.task", category="parallel", index=index):
            result = func(context, task)
        registry.counter(
            "parallel.tasks", help="tasks completed", mode="serial"
        ).inc()
        return result

    def finish(index: int, value: object) -> object:
        if on_result is not None:
            on_result(index, value)
        return value

    if jobs <= 1:
        return [finish(i, serial(task, i)) for i, task in enumerate(tasks)]

    start_method = os.environ.get("REPRO_PARALLEL_START_METHOD") or None
    try:
        mp_context = multiprocessing.get_context(start_method)
        pool = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=mp_context,
            initializer=_worker_init,
            initargs=(context, worker_config()),
        )
    except (ValueError, OSError) as error:
        # Unknown start method or a forbidden pool: everything serial.
        _warn_fallback(SerialFallbackWarning, repr(error), len(tasks))
        return [finish(i, serial(task, i)) for i, task in enumerate(tasks)]

    results: list = [None] * len(tasks)
    salvage: list[int] = []
    wait_hist = registry.histogram(
        "parallel.task_wait_seconds", unit="seconds",
        help="pool submission to collected result, per pooled task",
    ) if registry.enabled else None
    submitted_at: list[float] = []
    try:
        try:
            futures = []
            for task in tasks:
                futures.append(pool.submit(_call_with_shared_context, func, task))
                if wait_hist is not None:
                    submitted_at.append(time.perf_counter())
        except (BrokenProcessPool, OSError) as error:
            # The pool died before taking the batch: run all of it serially.
            _warn_fallback(BrokenPoolWarning, repr(error), len(tasks))
            return [finish(i, serial(task, i)) for i, task in enumerate(tasks)]
        for index, future in enumerate(futures):
            try:
                value = future.result()
            except _TaskRaised as raised:
                raise raised.error from raised.__cause__
            except Exception as error:
                # A dead worker, or a call or result that cannot be
                # pickled.
                dead = isinstance(error, (BrokenProcessPool, OSError))
                category = BrokenPoolWarning if dead else UnpicklableTaskWarning
                _warn_fallback(category, repr(error), 1)
                salvage.append(index)
                continue
            if wait_hist is not None:
                wait_hist.observe(time.perf_counter() - submitted_at[index])
            # Fold any worker observations into the parent before the
            # caller (checkpoint writers etc.) sees the bare result.
            value = absorb_remote(value, parent_path=tracer.current_path())
            registry.counter(
                "parallel.tasks", help="tasks completed", mode="pool"
            ).inc()
            results[index] = finish(index, value)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)

    for index in salvage:
        registry.counter(
            "parallel.salvaged", help="tasks recomputed after pool failure"
        ).inc()
        results[index] = finish(index, serial(tasks[index], index))
    return results


# -- long-lived stateful workers -----------------------------------------------

#: Mutable state hosted by this worker process (set by ``_host_init``).
_HOST_STATE = None


def _host_init(build: Callable) -> None:
    global _IN_WORKER, _HOST_STATE
    _IN_WORKER = True
    _reset_worker_observability()
    _HOST_STATE = build()


def _host_call(func: Callable, config: object, payload: object) -> object:
    return _run_task(config, func, _HOST_STATE, payload)


def _host_ping(state: object, payload: object) -> object:
    """Health-probe echo: proves the worker loop is alive and responsive."""
    return payload


#: What a host future or submit raises when the worker process is gone
#: (SIGKILL, OOM reap, segfault, torn pipe).  A hosted call's own
#: exception arrives as ``_TaskRaised`` and never reaches this check.
_WORKER_DEATH_ERRORS = (BrokenProcessPool, EOFError, OSError)


#: What submitting to a killed or closed host raises, for either host type.
_DEAD_HOST = (
    "worker host is dead (killed or closed); restore it from a snapshot "
    "before submitting more calls"
)


class _HostFuture:
    """A host call's future with worker death translated to a typed error.

    Wraps the underlying pool future so ``result()`` re-raises the
    hosted call's own exception unchanged, as :class:`LocalHost` does,
    and raises :class:`~repro.utils.errors.WorkerDiedError` (with the
    exit code, when observable) instead of the raw ``BrokenProcessPool``
    / ``EOFError`` / ``BrokenPipeError`` family — flipping the owning
    host's ``alive`` flag as a side effect, so death is detected at the
    first collected call rather than discovered via a hung pipe later.
    """

    def __init__(self, future, host: "WorkerHost"):
        self._future = future
        self._host = host

    def result(self, timeout: Optional[float] = None) -> object:
        try:
            return self._future.result(timeout=timeout)
        except _TaskRaised as raised:
            raise raised.error from raised.__cause__
        except FuturesTimeoutError:
            raise
        except _WORKER_DEATH_ERRORS as error:
            exit_code = self._host._mark_dead()
            raise WorkerDiedError(
                f"worker host died mid-request ({type(error).__name__}: "
                f"{error}); exit code {exit_code}",
                exit_code=exit_code,
            ) from error

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> bool:
        return self._future.cancel()


class WorkerHost:
    """One dedicated worker process hosting mutable state across calls.

    :func:`run_tasks` is built for stateless fan-out: every task ships
    its inputs and brings its whole result home.  A *shard monitor* is
    the opposite shape — megabytes of mutable per-drive state that must
    live in the worker and be mutated by a stream of small calls.  A
    ``WorkerHost`` owns exactly one such worker:

    * ``build`` is a picklable zero-argument callable run **in the
      worker** once (via the pool initializer) to create the hosted
      state — ship a spec, not the state;
    * :meth:`submit` schedules ``func(state, payload)`` in the worker
      and returns its future; calls on one host execute in submission
      order (single worker), while calls on *different* hosts run
      concurrently — that is where sharded serving's scaling comes
      from;
    * per-call observability uses the same protocol as pool tasks: the
      parent's ``worker_config()`` ships with each call, the worker
      wraps the call in fresh instruments, and the result comes home in
      a :class:`~repro.observability.RemoteObservation` envelope (a
      bare result when observability is disabled);
    * :meth:`kill` drops the worker process without draining it —
      the crash-simulation hook behind shard kill-and-resume tests.

    The worker runs with ``_IN_WORKER`` set, so any nested
    ``resolve_n_jobs``/``resolve_shards`` inside hosted code resolves
    to 1: a shard cannot recursively fan out.
    """

    def __init__(self, build: Callable, *, start_method: Optional[str] = None):
        method = (
            start_method
            or os.environ.get("REPRO_PARALLEL_START_METHOD")
            or None
        )
        mp_context = multiprocessing.get_context(method)
        self._build = build
        self._exit_code: Optional[int] = None
        self._pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=1,
            mp_context=mp_context,
            initializer=_host_init,
            initargs=(build,),
        )

    @property
    def alive(self) -> bool:
        """Whether the host still has a worker to run calls on."""
        return self._pool is not None

    @property
    def exit_code(self) -> Optional[int]:
        """The dead worker's exit status, when it could be observed.

        ``None`` while the worker runs (and for workers whose death the
        host never got to witness); ``-signal`` for signal deaths —
        ``-9`` is the SIGKILL signature a supervisor looks for.
        """
        return self._exit_code

    def pids(self) -> list[int]:
        """Live worker process ids (empty before the first submit).

        ``ProcessPoolExecutor`` spawns its worker lazily, so a host that
        has never run a call has no process yet.  Chaos harnesses use
        this to aim a real ``SIGKILL`` at the worker.
        """
        if self._pool is None:
            return []
        return [
            process.pid
            for process in getattr(self._pool, "_processes", {}).values()
            if process.pid is not None and process.exitcode is None
        ]

    def _mark_dead(self) -> Optional[int]:
        """Record the worker's death; returns its exit code when visible."""
        if self._pool is not None:
            for process in getattr(self._pool, "_processes", {}).values():
                if process.exitcode is not None:
                    self._exit_code = process.exitcode
                    break
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        return self._exit_code

    def poll(self) -> Optional[int]:
        """Cheap liveness probe: the worker's exit code once it has died.

        Returns ``None`` while the worker is running (or not yet
        spawned); returns the exit code — and flips ``alive`` to False —
        as soon as the process is observed dead.  This is how a
        supervisor *detects* a SIGKILLed shard per tick instead of
        discovering it via a broken pipe mid-dispatch.
        """
        if self._pool is None:
            return self._exit_code
        for process in getattr(self._pool, "_processes", {}).values():
            if process.exitcode is not None:
                return self._mark_dead()
        return None

    def ping(self, timeout: float = 5.0) -> bool:
        """Request/response health probe with a bounded wait.

        Submits a trivial echo call and waits up to ``timeout`` seconds:
        True means the worker loop is alive *and responsive*; False
        covers both a dead worker and a wedged one that ate the budget.
        A failed ping never raises — it is the question, not the answer.
        """
        if self._pool is None:
            return False
        try:
            return self.submit(
                _host_ping, "ping", observed=False
            ).result(timeout=timeout) == "ping"
        except (WorkerDiedError, FuturesTimeoutError):
            return False

    def submit(
        self, func: Callable, payload: object = None, *, observed: bool = True
    ) -> _HostFuture:
        """Schedule ``func(state, payload)`` in the worker; returns a future.

        The future resolves to a ``RemoteObservation`` envelope when the
        parent has observability enabled (unwrap with
        :func:`~repro.observability.absorb_remote`), or to the bare
        return value otherwise.  ``observed=False`` forces the bare
        path — journal replay uses it so recovered ticks re-build state
        without re-emitting the events and counters the original run
        already recorded.  ``result()`` raises the hosted call's own
        exception unchanged; a worker death surfaces as
        :class:`~repro.utils.errors.WorkerDiedError`, never a raw
        ``BrokenProcessPool``/``EOFError``.
        """
        if self._pool is None:
            raise WorkerDiedError(_DEAD_HOST, exit_code=self._exit_code)
        config = worker_config() if observed else None
        try:
            return _HostFuture(
                self._pool.submit(_host_call, func, config, payload), self
            )
        except _WORKER_DEATH_ERRORS as error:
            # BrokenProcessPool at submit time: the pool noticed the
            # death before we did.
            exit_code = self._mark_dead()
            raise WorkerDiedError(
                f"worker host is dead ({type(error).__name__}: {error})",
                exit_code=exit_code,
            ) from error

    def call(self, func: Callable, payload: object = None, *,
             timeout: Optional[float] = None) -> object:
        """``submit`` and wait: the hosted ``func(state, payload)`` result."""
        return self.submit(func, payload).result(timeout=timeout)

    def kill(self) -> None:
        """Drop the worker process immediately, discarding hosted state.

        Simulates a crashed shard: pending calls are cancelled, nothing
        is flushed.  The host is dead afterwards (``alive`` is False)
        and a second ``kill()`` is a no-op; build a new host — typically
        one that loads a snapshot file, as
        :meth:`~repro.detection.sharded.ShardedFleetMonitor.restore_shard`
        does — to resume.
        """
        if self._pool is not None:
            for process in getattr(self._pool, "_processes", {}).values():
                process.terminate()
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Shut the worker down cleanly (drains in-flight calls)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


class LocalHost:
    """:class:`WorkerHost`'s surface with the hosted state in this process.

    ``build`` runs here, once, and :meth:`submit` runs
    ``func(state, payload)`` at once under
    :func:`~repro.observability.capture_remote` — so a call hands back
    the same envelope (or bare result) a worker would, and a coordinator
    written against ``WorkerHost`` runs unchanged.  The returned future
    is already finished: an exception raised by the hosted call surfaces
    from ``result()``, never from ``submit``, just as it would from a
    worker.  ``build`` and ``func`` need not be picklable, which is why
    serial sharded serving runs on this host.

    There is no process: :meth:`pids` is empty, :meth:`poll` and
    :attr:`exit_code` are ``None``, and a host is alive (and answers
    :meth:`ping`) until :meth:`kill` or :meth:`close` drops its state.
    """

    def __init__(self, build: Callable):
        self._state = build()
        self._alive = True

    @property
    def alive(self) -> bool:
        """Whether the host still holds its state."""
        return self._alive

    @property
    def exit_code(self) -> Optional[int]:
        """Always ``None``: an in-process host has no worker to exit."""
        return None

    def pids(self) -> list[int]:
        """Always empty: the state lives in the calling process."""
        return []

    def poll(self) -> Optional[int]:
        """Always ``None``; a killed host reports through :attr:`alive`."""
        return None

    def ping(self, timeout: float = 5.0) -> bool:
        """True exactly while the host is alive (it cannot wedge)."""
        return self._alive

    def submit(
        self, func: Callable, payload: object = None, *, observed: bool = True
    ) -> Future:
        """Run ``func(state, payload)`` now; returns its finished future.

        ``observed=False`` runs the call under throwaway instruments and
        resolves to the bare result, so the caller's counters, spans and
        events see nothing (journal replay relies on this).
        """
        if not self._alive:
            raise WorkerDiedError(_DEAD_HOST)
        future: Future = Future()
        try:
            value = capture_remote(worker_config(), func, self._state, payload)
        except Exception as error:
            future.set_exception(error)
            return future
        if not observed and isinstance(value, RemoteObservation):
            value = value.result
        future.set_result(value)
        return future

    def call(self, func: Callable, payload: object = None, *,
             timeout: Optional[float] = None) -> object:
        """``submit`` and wait: the hosted ``func(state, payload)`` result."""
        return self.submit(func, payload).result(timeout=timeout)

    def kill(self) -> None:
        """Drop the hosted state; the host is dead afterwards (idempotent)."""
        self._state = None
        self._alive = False

    def close(self) -> None:
        """Release the hosted state (same as :meth:`kill`: nothing to drain)."""
        self.kill()
