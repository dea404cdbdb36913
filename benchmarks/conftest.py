"""Benchmark configuration.

Each benchmark regenerates one paper artefact (table or figure) at the
default experiment scale, prints it (run with ``-s`` to see the tables),
and asserts the headline *shape* the paper reports.  Set
``REPRO_BENCH_SCALE=tiny`` to smoke the whole suite in seconds.

Fleets are cached (see repro.experiments.common), so the first benchmark
touching a fleet pays its generation cost once for the session.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.common import DEFAULT_SCALE, ExperimentScale


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The fleet scale used by every benchmark."""
    if os.environ.get("REPRO_BENCH_SCALE") == "tiny":
        return ExperimentScale.tiny()
    return DEFAULT_SCALE


@pytest.fixture(scope="session")
def strict(scale) -> bool:
    """True at full scale: enforce the paper-shape assertions.

    At tiny scale the fleets are noise-dominated, so the benchmarks only
    smoke-check structure and ranges.
    """
    return scale == DEFAULT_SCALE


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing.

    The experiment drivers are deterministic and expensive; repeated
    rounds would only re-measure fleet-cache hits.
    """

    def _run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return _run


@pytest.fixture(scope="session")
def train_bench_results():
    """Collector for the training benchmarks' machine-readable results.

    Each training benchmark drops one ``name -> {timings, speedup,
    floor, ...}`` record here; at session end the records are written to
    ``BENCH_train.json`` (override the path with
    ``REPRO_BENCH_TRAIN_JSON``) so CI can archive the numbers alongside
    the pass/fail signal.
    """
    results: dict[str, dict] = {}
    yield results
    if results:
        path = Path(os.environ.get("REPRO_BENCH_TRAIN_JSON", "BENCH_train.json"))
        path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def score_bench_results():
    """Collector for the scoring/serving benchmarks' results.

    The inference-side counterpart of ``train_bench_results``: the
    compiled fleet-scoring speedups and the event-emission overhead
    floors drop their records here, written to ``BENCH_score.json``
    (override with ``REPRO_BENCH_SCORE_JSON``) at session end so the
    bench history tracks scoring alongside training.
    """
    results: dict[str, dict] = {}
    yield results
    if results:
        path = Path(os.environ.get("REPRO_BENCH_SCORE_JSON", "BENCH_score.json"))
        path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def stream_bench_results():
    """Collector for the streaming-serving benchmarks' results.

    The online counterpart of ``score_bench_results``: the sustained
    100k-drive FleetMonitor tick rate drops its record here, written to
    ``BENCH_stream.json`` (override with ``REPRO_BENCH_STREAM_JSON``)
    at session end so the bench history tracks the serving hot path.
    """
    results: dict[str, dict] = {}
    yield results
    if results:
        path = Path(os.environ.get("REPRO_BENCH_STREAM_JSON", "BENCH_stream.json"))
        path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def shard_bench_results():
    """Collector for the sharded fleet-serving benchmarks' results.

    The scale-out counterpart of ``stream_bench_results``: the
    million-drive sharded-vs-single sustained tick rates drop their
    records here, written to ``BENCH_shard.json`` (override with
    ``REPRO_BENCH_SHARD_JSON``) at session end so the bench history
    tracks the coordinator alongside the single-process hot path.
    """
    results: dict[str, dict] = {}
    yield results
    if results:
        path = Path(os.environ.get("REPRO_BENCH_SHARD_JSON", "BENCH_shard.json"))
        path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
