"""Shared infrastructure for the experiment drivers.

Each driver reproduces one table or figure of the paper on a synthetic
fleet.  Fleet construction is cached per configuration so the drivers
(and the benchmark suite, which runs them all) generate each fleet once.

Scaled-down defaults: the paper's fleet has 25,792 drives; the drivers
default to ~2,500 (7-day experiments) and ~640 (56-day aging
experiments), which keeps every experiment's *comparisons* intact at
benchmark-friendly runtimes (see DESIGN.md §2).  Pass a larger
:class:`ExperimentScale` to push toward paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from time import perf_counter
from typing import Callable, Mapping, Optional, Union

from repro.observability import get_event_log, get_registry, get_tracer
from repro.smart.dataset import SmartDataset
from repro.smart.generator import FleetConfig, default_fleet_config
from repro.smart.registry import canonical_handle, resolve
from repro.utils.checkpoint import JsonCheckpoint, decode_object, encode_object
from repro.utils.parallel import run_tasks


@dataclass(frozen=True)
class ExperimentScale:
    """Fleet sizes used by the drivers.

    ``tiny()`` is for unit tests, the default for benchmarks.
    """

    w_good: int = 2_000
    w_failed: int = 90
    q_good: int = 500
    q_failed: int = 30
    aging_w_good: int = 600
    aging_w_failed: int = 40
    aging_q_good: int = 300
    aging_q_failed: int = 25
    seed: int = 7
    split_seed: int = 8

    @classmethod
    def tiny(cls) -> "ExperimentScale":
        """A minutes-to-seconds scale for tests."""
        return cls(
            w_good=120, w_failed=16, q_good=60, q_failed=10,
            aging_w_good=60, aging_w_failed=10, aging_q_good=40, aging_q_failed=8,
        )


DEFAULT_SCALE = ExperimentScale()


@dataclass(frozen=True)
class GridContext:
    """What one grid cell needs to run: the scale plus the dataset.

    ``dataset`` is a canonical registry handle
    (:func:`repro.smart.registry.canonical_handle`) or ``None`` for the
    scale's synthetic fleets.  Shipped as the :func:`run_tasks` shared
    context, so worker processes install the same dataset override the
    serial path does.
    """

    scale: ExperimentScale
    dataset: Optional[str] = None


#: When set (a canonical registry handle), :func:`main_fleet` and
#: :func:`aging_fleet` resolve it instead of generating synthetic
#: fleets — the hook that lets every unmodified driver run on real
#: traces.  Managed by :func:`set_dataset_override`, installed around
#: each cell by :func:`_run_one_experiment`.
_DATASET_OVERRIDE: Optional[str] = None


def set_dataset_override(handle: Optional[str]) -> Optional[str]:
    """Install (or clear, with ``None``) the grid's dataset override.

    Returns the previous override so callers can restore it::

        previous = set_dataset_override("backblaze:/data/q1-store")
        try:
            ...
        finally:
            set_dataset_override(previous)
    """
    global _DATASET_OVERRIDE
    previous = _DATASET_OVERRIDE
    _DATASET_OVERRIDE = (
        canonical_handle(handle) if handle is not None else None
    )
    return previous


def paper_family(fleet: SmartDataset, role: str = "W") -> SmartDataset:
    """The sub-fleet playing one of the paper's family roles.

    The paper's experiments run on drive family "W" (Tables III-VI,
    most figures) with family "Q" as the smaller secondary (Figure 5).
    Synthetic fleets carry those literal labels, so this is exactly
    ``fleet.filter_family(role)`` for them — bit-identical to the
    historical drivers.  Real datasets label families by drive model;
    there, role ``"W"`` maps to the largest family by drive count and
    ``"Q"`` to the second largest (ties broken by name, so the mapping
    is deterministic), falling back to the largest when only one family
    exists.  This is the one seam every driver goes through, which is
    what makes registry datasets drop-in for the whole grid.
    """
    if role not in ("W", "Q"):
        raise ValueError(f"family role must be 'W' or 'Q', got {role!r}")
    families = fleet.families()
    if role in families:
        return fleet.filter_family(role)
    summary = fleet.summary()
    ranked = sorted(
        summary,
        key=lambda name: (
            -(summary[name]["good"] + summary[name]["failed"]), name
        ),
    )
    if role == "Q" and len(ranked) > 1:
        return fleet.filter_family(ranked[1])
    return fleet.filter_family(ranked[0])


# Each (config, seed) fleet is a few hundred MB-equivalent of drive
# histories; the explicit maxsize bounds how many a long benchmark
# session can hold alive at once.
@lru_cache(maxsize=8)
def _cached_fleet(
    w_good: int, w_failed: int, q_good: int, q_failed: int,
    collection_days: int, seed: int,
) -> SmartDataset:
    config = default_fleet_config(
        w_good=w_good, w_failed=w_failed, q_good=q_good, q_failed=q_failed,
        collection_days=collection_days, seed=seed,
    )
    return SmartDataset.generate(config)


def main_fleet(scale: ExperimentScale = DEFAULT_SCALE) -> SmartDataset:
    """The fleet behind the Section V-A/V-B experiments.

    The scale's synthetic 7-day two-family fleet — unless a dataset
    override is installed (``repro-experiments --dataset``,
    :func:`set_dataset_override`), in which case the registry handle's
    dataset is returned instead.
    """
    if _DATASET_OVERRIDE is not None:
        return resolve(_DATASET_OVERRIDE)
    return _cached_fleet(
        scale.w_good, scale.w_failed, scale.q_good, scale.q_failed, 7, scale.seed
    )


def aging_fleet(scale: ExperimentScale = DEFAULT_SCALE) -> SmartDataset:
    """The fleet behind the model-updating experiments (Figs 6-9).

    The scale's synthetic 56-day fleet; under a dataset override this is
    the override dataset itself (real traces carry one collection
    period, so the aging experiments slice whatever history it has).
    """
    if _DATASET_OVERRIDE is not None:
        return resolve(_DATASET_OVERRIDE)
    return _cached_fleet(
        scale.aging_w_good, scale.aging_w_failed,
        scale.aging_q_good, scale.aging_q_failed, 56, scale.seed,
    )


def clear_fleet_cache() -> None:
    """Drop every cached fleet.

    Long benchmark sessions sweep several scales; clearing between
    sweeps releases the fleets the LRU bound has not yet evicted.
    """
    _cached_fleet.cache_clear()


def _run_one_experiment(context: Union[ExperimentScale, GridContext], task):
    """Run one experiment driver (module-level for worker processes).

    ``context`` is either a bare :class:`ExperimentScale` (synthetic
    fleets, the historical shape) or a :class:`GridContext` carrying a
    dataset handle, which is installed as the fleet override for the
    duration of the cell — in worker processes the override starts
    clean, so install/restore keeps serial in-process runs equivalent.
    """
    if isinstance(context, GridContext):
        scale, dataset = context.scale, context.dataset
    else:
        scale, dataset = context, None
    name, run = task
    registry = get_registry()
    start = perf_counter() if registry.enabled else 0.0
    previous = set_dataset_override(dataset) if dataset is not None else None
    try:
        with get_tracer().span("grid.cell", category="grid", experiment=name):
            result = run(scale)
    finally:
        if dataset is not None:
            set_dataset_override(previous)
    registry.counter("grid.cells", help="experiment cells computed").inc()
    if registry.enabled:
        registry.histogram(
            "grid.cell_seconds", unit="seconds", help="experiment cell wall time"
        ).observe(perf_counter() - start)
    return result


def grid_checkpoint_id(checkpoint_path: Optional[Union[str, Path]]) -> Optional[str]:
    """Stable identifier of a grid's checkpoint (``None`` without one).

    ``kind:filename`` — enough for the ``run_completed`` event to name
    the resumable artefact without leaking absolute paths into logs
    that may be shipped off-host.
    """
    if checkpoint_path is None:
        return None
    return f"experiment-grid:{Path(checkpoint_path).name}"


def emit_run_completed(
    names,
    *,
    checkpoint_path: Optional[Union[str, Path]] = None,
    n_cached: int = 0,
) -> None:
    """Emit the ``run_completed`` event closing an experiment run."""
    log = get_event_log()
    if not log.enabled:
        return
    checkpoint_id = grid_checkpoint_id(checkpoint_path)
    log.emit(
        "run_completed",
        experiments=list(names),
        n_cells=len(list(names)),
        n_cached=int(n_cached),
        **({"checkpoint_id": checkpoint_id} if checkpoint_id is not None else {}),
    )


#: Checkpoint cell recording the grid's dataset handle; resuming a
#: checkpoint written against a different dataset is an error, not a
#: silent mix of cached and fresh cells from different data.
_DATASET_GUARD_CELL = "__dataset__"


def run_experiment_grid(
    runs: Mapping[str, Callable[[ExperimentScale], object]],
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    n_jobs: Optional[int] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    dataset: Optional[str] = None,
) -> dict[str, object]:
    """Run a grid of experiment drivers, optionally across processes.

    ``runs`` maps experiment ids to their module-level ``run_*``
    callables; results come back keyed and ordered like ``runs``.
    ``n_jobs`` fans the drivers out across worker processes (``None``
    defers to ``REPRO_N_JOBS``).  Every driver is deterministic given
    ``scale``, so results are identical at any ``n_jobs``; note each
    worker starts with an empty fleet cache and regenerates the fleets
    it needs.

    ``dataset`` is a registry handle (``kind:path?params``, see
    :mod:`repro.smart.registry`); when given, every driver's
    :func:`main_fleet`/:func:`aging_fleet` resolves it instead of the
    synthetic fleets — synthetic and real datasets are interchangeable
    here, and results stay identical at any ``n_jobs`` because a handle
    resolves to the same drives in every process.

    ``checkpoint_path`` makes the grid crash-safe: every finished cell
    is persisted to the JSON checkpoint as it completes, and a rerun
    with the same path loads finished cells instead of recomputing them
    — a grid killed at cell k resumes at cell k, bit-identical to an
    uninterrupted run.  The checkpoint records the dataset handle;
    resuming it with a different ``dataset`` raises ``ValueError``.
    """
    names = list(runs)
    handle = canonical_handle(dataset) if dataset is not None else None
    checkpoint = None
    done: dict[str, object] = {}
    if checkpoint_path is not None:
        checkpoint = JsonCheckpoint(checkpoint_path, kind="experiment-grid")
        guard = checkpoint.get(_DATASET_GUARD_CELL)
        if len(checkpoint) and guard != handle:
            raise ValueError(
                f"checkpoint {checkpoint.path} was written for dataset "
                f"{guard!r}, not {handle!r}; use a fresh checkpoint path "
                "per dataset"
            )
        if handle is not None and _DATASET_GUARD_CELL not in checkpoint:
            checkpoint.set(_DATASET_GUARD_CELL, handle)
        done = {
            name: decode_object(checkpoint.get(name))
            for name in names
            if name in checkpoint
        }
        get_registry().counter(
            "grid.checkpoint_hits", help="cells reloaded from checkpoint"
        ).inc(len(done))
    pending = [name for name in names if name not in done]

    def record(index: int, result: object) -> None:
        checkpoint.set(pending[index], encode_object(result))

    fresh = run_tasks(
        _run_one_experiment,
        [(name, runs[name]) for name in pending],
        n_jobs=n_jobs,
        context=GridContext(scale, handle) if handle is not None else scale,
        on_result=record if checkpoint is not None else None,
    )
    done.update(zip(pending, fresh))
    emit_run_completed(
        names,
        checkpoint_path=checkpoint_path,
        n_cached=len(names) - len(pending),
    )
    return {name: done[name] for name in names}
