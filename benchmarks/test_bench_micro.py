"""Micro-benchmarks of the core substrate operations.

Unlike the artefact benchmarks (one timed round of a whole experiment),
these run pytest-benchmark's normal multi-round protocol on the hot
paths a deployment exercises continuously: tree fitting and scoring,
network training, fleet generation, feature extraction, the voting
detector, and the Markov MTTDL solve.
"""

import os
import time

import numpy as np
import pytest

from repro.ann.network import BPNeuralNetwork
from repro.core.config import SamplingConfig
from repro.core.sampling import build_training_set
from repro.detection.voting import MajorityVoteDetector
from repro.features.selection import critical_features, expert_features
from repro.features.vectorize import FeatureExtractor
from repro.reliability.raid import mttdl_raid6_with_prediction
from repro.reliability.single_drive import PAPER_MODELS
from repro.smart.dataset import SmartDataset
from repro.smart.generator import default_fleet_config
from repro.tree.classification import ClassificationTree
from repro.tree.forest import RandomForestClassifier


@pytest.fixture(scope="module")
def training_data():
    rng = np.random.default_rng(0)
    n = 8_000
    X = rng.normal(size=(n, 13))
    y = np.where(X[:, 0] + 0.4 * X[:, 3] + 0.3 * rng.normal(size=n) > 0.8, -1, 1)
    return X, y


@pytest.fixture(scope="module")
def fitted_tree(training_data):
    X, y = training_data
    return ClassificationTree(minsplit=20, minbucket=7, cp=0.004).fit(X, y)


def test_micro_tree_fit(benchmark, training_data):
    """Fit an 8k x 13 classification tree (the per-retrain cost)."""
    X, y = training_data
    tree = benchmark(
        lambda: ClassificationTree(minsplit=20, minbucket=7, cp=0.004).fit(X, y)
    )
    assert tree.n_leaves_ >= 2


def test_micro_tree_predict(benchmark, training_data, fitted_tree):
    """Score 8k samples (one fleet-hour of inference at 8k drives)."""
    X, _ = training_data
    out = benchmark(fitted_tree.predict, X)
    assert out.shape == (X.shape[0],)


def test_micro_ann_fit_epochs(benchmark, training_data):
    """Train the 13-13-1 network for 25 full-batch epochs."""
    X, y = training_data
    subset = slice(0, 2_000)

    def fit():
        return BPNeuralNetwork(
            hidden_sizes=(13,), max_iter=25, seed=1
        ).fit(X[subset], y[subset].astype(float))

    network = benchmark(fit)
    assert len(network.loss_curve_) <= 25


def test_micro_fleet_generation(benchmark):
    """Generate a 200-good / 20-failed one-week fleet."""
    config = default_fleet_config(
        w_good=200, w_failed=20, q_good=0, q_failed=0, collection_days=7, seed=3
    )

    dataset = benchmark(lambda: SmartDataset.generate(config))
    assert len(dataset.drives) == 220


def test_micro_feature_extraction(benchmark):
    """Extract the critical-13 features for a one-week drive history."""
    config = default_fleet_config(
        w_good=1, w_failed=0, q_good=0, q_failed=0, collection_days=7, seed=4
    )
    drive = SmartDataset.generate(config).drives[0]
    extractor = FeatureExtractor(critical_features())
    matrix = benchmark(extractor.extract, drive)
    assert matrix.shape == (drive.n_samples, 13)


def test_micro_voting_detector(benchmark):
    """Scan a year-long hourly score series with the 11-voter rule."""
    rng = np.random.default_rng(5)
    scores = np.where(rng.random(8_760) < 0.001, -1.0, 1.0)
    detector = MajorityVoteDetector(n_voters=11)
    benchmark(detector.first_alarm, scores)


# -- compiled vs node backend: fleet-scale batch prediction -----------------
#
# The deployment-shaped comparison.  The seed pipeline scored each drive
# separately through the node-graph walk; the compiled backend scores the
# whole fleet's stacked sample matrix in one flat-array routing pass.  The
# benchmark fixture times the compiled call; the node baseline (per-drive
# loop, as score_drives behaved before batching) is timed inline and the
# speedup floors asserted.


@pytest.fixture(scope="module")
def fleet_setup():
    """Real training set + 200 per-drive usable feature matrices.

    Training labels come from the paper's protocol (good vs failed-window
    samples), so the fitted trees have deployment-realistic depth rather
    than the near-stump shape a synthetic threshold target produces.
    """
    config = default_fleet_config(
        w_good=160, w_failed=20, q_good=40, q_failed=5, seed=11
    )
    dataset = SmartDataset.generate(config)
    extractor = FeatureExtractor(expert_features())
    goods = list(dataset.good_drives)
    failed = list(dataset.failed_drives)
    training = build_training_set(
        extractor, goods[:150], failed, SamplingConfig(good_samples_per_drive=40)
    )
    matrices = []
    for drive in (goods + failed)[:200]:
        matrix = extractor.extract(drive)
        usable = matrix[np.any(np.isfinite(matrix), axis=1)]
        if usable.shape[0]:
            matrices.append(usable)
    return training.X, training.y, matrices


def _time_node_per_drive(model, matrices, predict):
    """Per-drive node-walk scoring (the seed pipeline), best of 3."""
    flipped = [model] + list(getattr(model, "trees_", ()))
    for part in flipped:
        part.backend = "node"
    try:
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            for matrix in matrices:
                predict(matrix)
            best = min(best, time.perf_counter() - start)
    finally:
        for part in flipped:
            part.backend = "compiled"
    return best * 1e3


def test_micro_compiled_tree_fleet_speedup(benchmark, fleet_setup, score_bench_results):
    """Single tree: batched compiled scoring >= 5x the per-drive node walk."""
    X, y, matrices = fleet_setup
    tree = ClassificationTree(minsplit=10, minbucket=3, cp=0.0005).fit(X, y)
    fleet = np.vstack(matrices)

    out = benchmark(tree.predict, fleet)
    assert out.shape == (fleet.shape[0],)

    node_ms = _time_node_per_drive(tree, matrices, tree.predict)
    compiled_ms = benchmark.stats.stats.min * 1e3
    speedup = node_ms / compiled_ms
    score_bench_results["single_tree_fleet_scoring"] = {
        "fleet_rows": int(fleet.shape[0]),
        "node_ms": node_ms, "compiled_ms": compiled_ms,
        "speedup": speedup, "floor": 5.0,
    }
    print(
        f"\nsingle tree, {fleet.shape[0]} fleet rows: "
        f"node per-drive {node_ms:.1f} ms, compiled batched {compiled_ms:.1f} ms "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 5.0


def test_micro_compiled_forest_fleet_speedup(
    benchmark, fleet_setup, score_bench_results
):
    """50-tree forest: batched compiled scoring >= 10x the per-drive walk."""
    X, y, matrices = fleet_setup
    forest = RandomForestClassifier(n_trees=50, cp=0.001, seed=5).fit(X, y)
    fleet = np.vstack(matrices)

    out = benchmark(forest.predict, fleet)
    assert out.shape == (fleet.shape[0],)

    node_ms = _time_node_per_drive(forest, matrices, forest.predict)
    compiled_ms = benchmark.stats.stats.min * 1e3
    speedup = node_ms / compiled_ms
    score_bench_results["forest_fleet_scoring"] = {
        "fleet_rows": int(fleet.shape[0]), "n_trees": 50,
        "node_ms": node_ms, "compiled_ms": compiled_ms,
        "speedup": speedup, "floor": 10.0,
    }
    print(
        f"\n50-tree forest, {fleet.shape[0]} fleet rows: "
        f"node per-drive {node_ms:.1f} ms, compiled batched {compiled_ms:.1f} ms "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 10.0


# -- presorted training + parallel fit fan-out ------------------------------
#
# The training-side counterparts of the compiled-inference benchmarks.
# The presorted columnar frontier argsorts every feature once per fit and
# partitions the sorted order down the tree; the legacy path re-sorts
# every feature at every node.  Both produce bit-identical trees (see
# tests/test_tree_frontier.py), so the only question here is speed.
# Results are also written to BENCH_train.json via train_bench_results.


@pytest.fixture(scope="module")
def train_matrix():
    """A 20k x 13 fully-finite quantized matrix (SMART-attribute shaped).

    Integer-valued columns mirror preprocessed SMART attributes and give
    realistic tie density; fully-finite is the frontier's dense layout,
    the deployment-common case.
    """
    rng = np.random.default_rng(17)
    n, d = 20_000, 13
    X = np.floor(rng.gamma(2.0, 20.0, size=(n, d)))
    y = np.where(
        X[:, 0] + 0.4 * X[:, 3] + 12.0 * rng.standard_normal(n) > 55.0, -1, 1
    )
    return X, y


def _best_of(n_rounds, func):
    best = np.inf
    for _ in range(n_rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def test_micro_train_presort_speedup(benchmark, train_matrix, train_bench_results):
    """Presorted single-tree fit at n=20k: >= 3x the per-node re-sort."""
    X, y = train_matrix
    params = dict(minsplit=20, minbucket=7, cp=0.001)

    tree = benchmark.pedantic(
        lambda: ClassificationTree(presort=True, **params).fit(X, y),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    assert tree.n_leaves_ >= 2

    presort_ms = benchmark.stats.stats.min * 1e3
    legacy_ms = _best_of(
        3, lambda: ClassificationTree(presort=False, **params).fit(X, y)
    )
    speedup = legacy_ms / presort_ms
    train_bench_results["single_tree_presort"] = {
        "n_rows": X.shape[0], "n_features": X.shape[1],
        "legacy_ms": legacy_ms, "presort_ms": presort_ms,
        "speedup": speedup, "floor": 3.0,
    }
    print(
        f"\nsingle tree fit, n={X.shape[0]}: legacy {legacy_ms:.0f} ms, "
        f"presorted {presort_ms:.0f} ms ({speedup:.2f}x)"
    )
    assert speedup >= 3.0


def test_micro_train_forest_parallel_speedup(
    benchmark, train_matrix, train_bench_results
):
    """50-tree forest fit with n_jobs=4: >= 2x the serial wall-clock."""
    if (os.cpu_count() or 1) < 4:
        pytest.skip("needs >= 4 cores for the n_jobs=4 floor")
    X, y = train_matrix
    subset = slice(0, 8_000)
    params = dict(n_trees=50, minsplit=20, minbucket=7, cp=0.001, seed=5)

    forest = benchmark.pedantic(
        lambda: RandomForestClassifier(n_jobs=4, **params).fit(X[subset], y[subset]),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert len(forest.trees_) == 50

    parallel_ms = benchmark.stats.stats.min * 1e3
    serial_ms = _best_of(
        1, lambda: RandomForestClassifier(n_jobs=1, **params).fit(X[subset], y[subset])
    )
    speedup = serial_ms / parallel_ms
    train_bench_results["forest_fit_n_jobs_4"] = {
        "n_rows": 8_000, "n_trees": 50,
        "serial_ms": serial_ms, "parallel_ms": parallel_ms,
        "speedup": speedup, "floor": 2.0,
    }
    print(
        f"\n50-tree forest fit, n=8000: serial {serial_ms:.0f} ms, "
        f"n_jobs=4 {parallel_ms:.0f} ms ({speedup:.2f}x)"
    )
    assert speedup >= 2.0


def test_micro_markov_solve(benchmark):
    """Solve the Figure-11 chain for a 500-drive group (1501 states)."""
    value = benchmark(
        mttdl_raid6_with_prediction, 500, 1_390_000.0, 8.0, PAPER_MODELS["CT"]
    )
    assert value > 0


# -- observability: the no-op instruments must cost nothing -----------------
#
# Every hot path above runs with the default null registry/tracer
# installed, so the speedup floors already price in the disabled
# instrumentation.  These two tests guard the mechanism itself: the
# shared no-op handles and the enabled-flag early returns.


def test_micro_noop_instrument_site(benchmark):
    """1,000 disabled metric + span call sites stay sub-microsecond each."""
    from repro.observability import get_registry, get_tracer

    registry = get_registry()
    tracer = get_tracer()
    assert not registry.enabled and not tracer.enabled

    def sites():
        for _ in range(1_000):
            registry.counter("bench.noop", help="disabled site").inc()
            with tracer.span("bench.noop"):
                pass

    benchmark(sites)
    per_site_us = benchmark.stats.stats.min / 1_000 * 1e6
    print(f"\ndisabled instrument site: {per_site_us:.3f} us per call pair")
    assert per_site_us < 5.0


def test_micro_noop_scoring_overhead(fleet_setup):
    """Disabled observability must not tax compiled fleet scoring.

    The hard regression guard is the compiled speedup floors above —
    they time ``apply_slots`` *through* the disabled instruments, so any
    real wrapper cost would eat their 5x/10x margins.  This test pins
    the mechanism directly: the per-call dispatch overhead (two handle
    reads and an ``enabled`` check) is measured at a batch size where it
    cannot hide, then bounded against 3% of the fleet-batch runtime.
    (A direct A/B of the ~3 ms batch call swings several percent either
    way from cache/clock drift alone, so the per-call cost is the
    stable quantity to assert on.)
    """
    X, y, matrices = fleet_setup
    tree = ClassificationTree(minsplit=10, minbucket=3, cp=0.0005).fit(X, y)
    fleet = np.vstack(matrices)
    compiled = tree.compiled_

    # Dispatch cost in isolation: a one-row batch is all wrapper.
    one_row = fleet[:1]
    rounds = 2_000
    compiled.apply_slots(one_row)
    start = time.perf_counter()
    for _ in range(rounds):
        compiled.apply_slots(one_row)
    wrapped_us = (time.perf_counter() - start) / rounds * 1e6
    start = time.perf_counter()
    for _ in range(rounds):
        compiled._apply_slots_impl(one_row)
    direct_us = (time.perf_counter() - start) / rounds * 1e6
    dispatch_us = wrapped_us - direct_us

    batch_us = _best_of(5, lambda: compiled._apply_slots_impl(fleet)) * 1e3
    budget_us = 0.03 * batch_us
    print(
        f"\ncompiled scoring, {fleet.shape[0]} rows: dispatch "
        f"{dispatch_us:+.2f} us/call vs 3% budget {budget_us:.0f} us "
        f"(batch {batch_us / 1e3:.2f} ms)"
    )
    assert max(dispatch_us, 0.0) < budget_us


def test_micro_noop_event_site(benchmark, score_bench_results):
    """1,000 disabled event emissions stay sub-microsecond each.

    Every lifecycle emission site in the serving path runs through the
    global event log; with the default :class:`NullEventLog` each call
    must be a constant-time no-op, or streaming would pay for a log
    nobody asked for.
    """
    from repro.observability import get_event_log

    log = get_event_log()
    assert not log.enabled

    def sites():
        for _ in range(1_000):
            log.emit("bench_noop", drive="d", hour=1.0, score=-1.0)

    benchmark(sites)
    per_site_us = benchmark.stats.stats.min / 1_000 * 1e6
    score_bench_results["noop_event_site"] = {
        "per_site_us": per_site_us, "floor_us": 5.0,
    }
    print(f"\ndisabled event site: {per_site_us:.3f} us per emit")
    assert per_site_us < 5.0


def test_micro_event_emission_overhead(benchmark, score_bench_results):
    """Recording in-memory event emission stays cheap (< 25 us/event).

    The ceiling an operator pays for turning the log on without a file
    tee — one frozen dataclass plus a list append per emission.  The
    JSONL tee adds I/O on top, which is a choice, not a tax.
    """
    from repro.observability import EventLog

    def emit_batch():
        log = EventLog()
        for index in range(1_000):
            log.emit(
                "sample_scored", drive=f"d{index % 50}",
                hour=float(index), score=-1.0,
            )
        return log

    log = benchmark(emit_batch)
    assert len(log.events) == 1_000
    per_event_us = benchmark.stats.stats.min / 1_000 * 1e6
    score_bench_results["recording_event_emit"] = {
        "per_event_us": per_event_us, "floor_us": 25.0,
    }
    print(f"\nrecording event emit (in-memory): {per_event_us:.3f} us per event")
    assert per_event_us < 25.0


# -- Streaming serving: one fleet tick at 100k drives -------------------------
#
# The FleetMonitor's deployment loop is one tick per collection interval
# over the whole fleet, ingested as a single (n_drives, n_channels)
# matrix — vectorized gate, ring-buffer voting, one batched model call.


def _make_monitor(n_drives):
    from repro.detection import FleetMonitor, VoterSpec
    from repro.features.vectorize import Feature

    features = (Feature("POH"), Feature("TC"), Feature("RSC", 6.0),
                Feature("RRER", 12.0), Feature("SER", 6.0))
    monitor = FleetMonitor(
        features,
        score_sample=lambda row: -1.0 if np.nansum(row) < 0.0 else 1.0,
        score_batch=lambda X: np.where(np.nansum(X, axis=1) < 0.0, -1.0, 1.0),
        detector_factory=VoterSpec("majority", 5),
    )
    monitor.register_fleet(tuple(f"drive-{i:06d}" for i in range(n_drives)))
    return monitor


def test_micro_streaming_100k_drive_tick_rate(stream_bench_results):
    """Sustained throughput at 100k drives: >= 2 fleet ticks/sec.

    The scale target from the paper's deployment framing: one SMART
    sample per drive-hour across a datacenter fleet.
    """
    from repro.smart.attributes import N_CHANNELS

    n_drives, n_ticks = 100_000, 6
    rng = np.random.default_rng(17)
    monitor = _make_monitor(n_drives)
    matrix = rng.normal(size=(n_drives, N_CHANNELS))

    monitor.observe_tick(0.0, matrix)  # warm-up: row allocation, buffers
    start = time.perf_counter()
    for hour in range(1, n_ticks + 1):
        matrix[:, 0] += 1.0  # keep values moving without a fresh allocation
        monitor.observe_tick(float(hour), matrix)
    elapsed = time.perf_counter() - start

    ticks_per_sec = n_ticks / elapsed
    drives_per_sec = ticks_per_sec * n_drives
    stream_bench_results["columnar_100k_sustained"] = {
        "n_drives": n_drives, "n_ticks": n_ticks,
        "elapsed_s": elapsed, "ticks_per_sec": ticks_per_sec,
        "drive_samples_per_sec": drives_per_sec, "floor_ticks_per_sec": 2.0,
    }
    print(
        f"\n100k-drive sustained: {ticks_per_sec:.1f} fleet ticks/s "
        f"({drives_per_sec / 1e6:.2f}M drive-samples/s)"
    )
    assert ticks_per_sec >= 2.0


# -- Sharded serving: one logical monitor over a million drives ----------------
#
# The coordinator's promise is scale-out: N shards, each in its
# own long-lived worker process, serving one merged contract that stays
# bit-identical to a single monitor (tests/test_detection_sharded.py).
# This benchmark publishes the sustained fleet-tick rate at 1M simulated
# drives for both shapes.  The >= 2x scaling floor over the single
# monitor process is only enforced where it can physically exist —
# at least 4 usable cores; below that the numbers are still recorded
# so the bench history tracks every machine honestly.

def _shard_bench_score_sample(row):
    return -1.0 if np.nansum(row) < 0.0 else 1.0


def _shard_bench_score_batch(X):
    return np.where(np.nansum(X, axis=1) < 0.0, -1.0, 1.0)


# Value-only features: no lag ring, so a million drives of state stay
# within a laptop's memory for both the single and the sharded fleet.
def _shard_bench_features():
    from repro.features.vectorize import Feature

    return (Feature("POH"), Feature("TC"))


def test_micro_sharded_million_drive_scaling(shard_bench_results):
    """Sustained ticks/sec at 1M drives: sharded coordinator vs one process."""
    import os

    from repro.detection import FleetMonitor, ShardedFleetMonitor, VoterSpec
    from repro.smart.attributes import N_CHANNELS

    n_drives, n_ticks = 1_000_000, 3
    cores = os.cpu_count() or 1
    n_shards = 4
    floor_enforced = cores >= 4

    serials = tuple(f"drive-{i:07d}" for i in range(n_drives))
    rng = np.random.default_rng(23)
    matrix = rng.normal(size=(n_drives, N_CHANNELS))

    single = FleetMonitor(
        _shard_bench_features(),
        score_sample=_shard_bench_score_sample,
        score_batch=_shard_bench_score_batch,
        detector_factory=VoterSpec("majority", 3),
    )
    single.register_fleet(serials)
    single.observe_tick(0.0, matrix)  # warm-up: row allocation, buffers
    start = time.perf_counter()
    for hour in range(1, n_ticks + 1):
        single.observe_tick(float(hour), matrix)
    single_elapsed = time.perf_counter() - start
    single_tps = n_ticks / single_elapsed

    with ShardedFleetMonitor(
        _shard_bench_features(),
        _shard_bench_score_sample,
        VoterSpec("majority", 3),
        score_batch=_shard_bench_score_batch,
        n_shards=n_shards,
        mode="process",
    ) as sharded:
        assert sharded.mode == "process"
        sharded.register_fleet(serials)
        sharded.pin_feed(matrix)  # worker-resident slices: ship once
        sharded.observe_tick(0.0)  # warm-up
        start = time.perf_counter()
        for hour in range(1, n_ticks + 1):
            sharded.observe_tick(float(hour))
        sharded_elapsed = time.perf_counter() - start
        assert len(sharded.alerts) == len(single.alerts)
    sharded_tps = n_ticks / sharded_elapsed

    speedup = sharded_tps / single_tps
    shard_bench_results["sharded_1m_sustained"] = {
        "n_drives": n_drives, "n_shards": n_shards, "n_ticks": n_ticks,
        "cores": cores,
        "single_ticks_per_sec": single_tps,
        "sharded_ticks_per_sec": sharded_tps,
        "drive_samples_per_sec": sharded_tps * n_drives,
        "speedup": speedup,
        "floor": 2.0, "floor_enforced": floor_enforced,
    }
    print(
        f"\n1M-drive sustained: single {single_tps:.2f} ticks/s, "
        f"sharded({n_shards}) {sharded_tps:.2f} ticks/s "
        f"({speedup:.2f}x on {cores} cores)"
    )
    if floor_enforced:
        assert speedup >= 2.0

def _journal_bench_features():
    """A paper-representative feature set (8 of the 12 basic channels).

    The scaling bench above uses a deliberately tiny 2-feature set so
    shard compute is cheap relative to dispatch; here the opposite is
    wanted — per-tick compute at realistic feature width, so the journal
    overhead is measured against a production-shaped tick.
    """
    from repro.features.vectorize import Feature

    return tuple(
        Feature(short)
        for short in ("RRER", "SUT", "RSC", "SER", "POH", "RUE", "HFW", "TC")
    )


def test_micro_supervised_journal_overhead(shard_bench_results, tmp_path):
    """The write-ahead tick journal costs at most 2x sustained throughput.

    Self-healing is paid for per tick: every collection tick writes a
    matrix sidecar plus a JSONL line before dispatch.  This measures a
    journaled ``SupervisedShardedMonitor`` against an unjournaled
    ``ShardedFleetMonitor`` on the same serial-mode stream (same shard
    compute, the delta is the journal), with the snapshot cadence pushed
    past the run so checkpointing never mixes into the number.

    The floor is enforced on buffered journaling (``journal_fsync=False``)
    — sufficient for the worker-death crash model, where the surviving
    coordinator replays page-cache-backed entries.  The fsync'd mode that
    additionally survives whole-host power loss is recorded alongside
    without a floor: per-tick fsync latency is a property of the disk,
    not of the journal code.  Like the scaling floor above, enforcement
    is gated on the environment being capable of the number at all —
    here, raw sequential writes of the tick matrix must fit in half a
    baseline tick, otherwise no journal implementation could stay
    under 2x and the run is recorded without asserting.
    """
    from repro.detection import (
        ShardedFleetMonitor,
        SupervisedShardedMonitor,
        VoterSpec,
    )
    from repro.smart.attributes import N_CHANNELS

    n_drives, n_ticks, n_shards = 50_000, 8, 2
    serials = tuple(f"drive-{i:06d}" for i in range(n_drives))
    rng = np.random.default_rng(29)
    matrix = rng.normal(size=(n_drives, N_CHANNELS))

    def drive(monitor, passes=3):
        monitor.register_fleet(serials)
        monitor.observe_tick(0.0, matrix)  # warm-up: row allocation
        best, hour = 0.0, 0.0
        for _ in range(passes):
            os.sync()  # drain writeback backlog before timing
            start = time.perf_counter()
            for _ in range(n_ticks):
                hour += 1.0
                monitor.observe_tick(hour, matrix)
            best = max(best, n_ticks / (time.perf_counter() - start))
        return best, len(monitor.alerts)

    def build_supervised(run_dir, journal_fsync):
        return SupervisedShardedMonitor(
            _journal_bench_features(),
            _shard_bench_score_sample,
            VoterSpec("majority", 3),
            score_batch=_shard_bench_score_batch,
            n_shards=n_shards,
            run_dir=run_dir,
            snapshot_every=100 * n_ticks,  # never fires: journal cost only
            journal_fsync=journal_fsync,
        )

    baseline = ShardedFleetMonitor(
        _journal_bench_features(),
        _shard_bench_score_sample,
        VoterSpec("majority", 3),
        score_batch=_shard_bench_score_batch,
        n_shards=n_shards,
    )
    baseline_tps, baseline_alerts = drive(baseline)
    baseline.close()

    # Raw-disk capability probe: sustained buffered writes of the same
    # bytes the journal must move, one file per tick like the sidecar
    # stream.  A burst probe would under-measure — containers throttle
    # dirty pages, so sustained byte rate is what the journal sees.
    probe_dir = tmp_path / "disk-probe"
    probe_dir.mkdir()

    def probe_raw_write_seconds():
        os.sync()
        start = time.perf_counter()
        for at in range(n_ticks):
            with open(probe_dir / f"{at}.npy", "wb") as handle:
                np.save(handle, matrix)
                handle.flush()
        return (time.perf_counter() - start) / n_ticks

    raw_before = probe_raw_write_seconds()

    buffered = build_supervised(tmp_path / "buffered-run", journal_fsync=False)
    buffered_tps, buffered_alerts = drive(buffered, passes=4)
    assert buffered_alerts == baseline_alerts
    buffered.close()

    # Probe again after the run: dirty-page throttling is bursty, and a
    # floor miss only indicts the journal when the disk sustained the
    # byte rate through the whole measurement window.
    raw_seconds = max(raw_before, probe_raw_write_seconds())
    floor_enforced = raw_seconds <= 0.5 / baseline_tps

    durable = build_supervised(tmp_path / "durable-run", journal_fsync=True)
    durable_tps, _ = drive(durable, passes=2)
    durable.close()

    slowdown = baseline_tps / buffered_tps
    shard_bench_results["supervised_journal_overhead"] = {
        "n_drives": n_drives,
        "n_shards": n_shards,
        "n_ticks": n_ticks,
        "baseline_ticks_per_sec": baseline_tps,
        "journaled_ticks_per_sec": buffered_tps,
        "fsync_journaled_ticks_per_sec": durable_tps,
        "raw_write_seconds": raw_seconds,
        "slowdown": slowdown,
        "ceiling": 2.0,
        "floor_enforced": floor_enforced,
    }
    print(
        f"\njournal overhead at {n_drives} drives: "
        f"unjournaled {baseline_tps:.2f} ticks/s, "
        f"journaled {buffered_tps:.2f} ticks/s ({slowdown:.2f}x slower), "
        f"fsync'd {durable_tps:.2f} ticks/s"
        + ("" if floor_enforced else " [floor not enforced: slow disk]")
    )
    if floor_enforced:
        assert slowdown <= 2.0
