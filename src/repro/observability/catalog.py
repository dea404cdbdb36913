"""The metric, span and event catalog: every name the instrumentation emits.

One spec per metric/span/event, used three ways:

* ``docs/observability.md`` documents exactly these names (a test diffs
  the doc tables against this module);
* ``tests/test_observability_integration.py`` runs a live end-to-end
  scenario and diffs the emitted snapshot/event stream against this
  catalog in both directions — an undocumented emission or a
  documented-but-dead name fails CI;
* :func:`render_metric_table` / :func:`render_span_table` /
  :func:`render_event_table` regenerate the doc tables so the catalog
  cannot drift from its documentation.

Naming convention: ``family.quantity`` with dotted lowercase families
(``fit``, ``score``, ``serve``, ``shard``, ``detect``, ``fleet``,
``updating``, ``parallel``, ``grid``, ``ingest``, ``explain``); the Prometheus
exporter flattens dots to underscores and prefixes ``repro_``.  Timers
carry unit ``seconds`` and are excluded from determinism comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observability.metrics import (
    LEAD_TIME_BUCKETS_H,
    ROW_BUCKETS,
    TIME_BUCKETS_S,
)


@dataclass(frozen=True)
class MetricSpec:
    """Catalog entry for one metric name."""

    name: str
    kind: str  # counter | gauge | histogram
    unit: str  # "" | seconds | hours | rows ...
    labels: tuple[str, ...]
    emitted_by: str
    when: str
    buckets: tuple[float, ...] = ()


@dataclass(frozen=True)
class SpanSpec:
    """Catalog entry for one span name."""

    name: str
    category: str
    emitted_by: str
    when: str
    args: tuple[str, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class EventSpec:
    """Catalog entry for one structured-event type.

    ``payload`` lists the ``data`` keys the emission site attaches
    (optional keys marked with a trailing ``?``).
    """

    name: str
    emitted_by: str
    when: str
    payload: tuple[str, ...] = field(default_factory=tuple)


METRICS: tuple[MetricSpec, ...] = (
    # -- fit: tree induction (repro/tree/base.py) ---------------------------
    MetricSpec("fit.trees", "counter", "", (), "repro.tree.base",
               "once per tree growth (every CT/RT/ensemble-member fit)"),
    MetricSpec("fit.rows", "counter", "", (), "repro.tree.base",
               "training rows seen, added once per fit"),
    MetricSpec("fit.nodes_split", "counter", "", (), "repro.tree.base",
               "once per internal node created during growth"),
    MetricSpec("fit.seconds", "histogram", "seconds", (), "repro.tree.base",
               "wall time of one whole tree growth (incl. pruning)",
               TIME_BUCKETS_S),
    MetricSpec("fit.split_search_seconds", "histogram", "seconds", (),
               "repro.tree.base",
               "wall time of each node-level split search (the frontier scan)",
               TIME_BUCKETS_S),
    # -- score: compiled batch inference (repro/tree/compiled.py,
    #    repro/core/sampling.py) -------------------------------------------
    MetricSpec("score.batches", "counter", "", (), "repro.tree.compiled",
               "once per compiled batch routing call (tree or forest)"),
    MetricSpec("score.rows", "counter", "", (), "repro.tree.compiled",
               "rows routed, added once per batch (forest batches add "
               "rows x members)"),
    MetricSpec("score.batch_seconds", "histogram", "seconds", (),
               "repro.tree.compiled",
               "wall time of each compiled batch routing call",
               TIME_BUCKETS_S),
    MetricSpec("score.batch_rows", "histogram", "rows", (),
               "repro.tree.compiled",
               "rows per compiled batch routing call", ROW_BUCKETS),
    MetricSpec("score.fleet_calls", "counter", "", (), "repro.core.sampling",
               "once per stacked-fleet scoring pass (score_drives)"),
    MetricSpec("score.fleet_drives", "counter", "", (), "repro.core.sampling",
               "drives scored, added once per stacked-fleet pass"),
    MetricSpec("score.fleet_rows", "counter", "", (), "repro.core.sampling",
               "usable feature rows stacked, added once per pass"),
    # -- serve: streaming monitor (repro/detection/streaming.py) ------------
    MetricSpec("serve.ticks", "counter", "", (), "repro.detection.streaming",
               "once per observation offered to the monitor (incl. faulted)"),
    MetricSpec("serve.scored", "counter", "", (), "repro.detection.streaming",
               "once per tick that produced a scoreable feature row"),
    MetricSpec("serve.faults", "counter", "", ("kind",),
               "repro.detection.streaming",
               "once per malformed tick the validation gate excluded, "
               "labelled by fault kind"),
    MetricSpec("serve.quarantined", "counter", "", (),
               "repro.detection.streaming",
               "once per drive transitioning OK -> DEGRADED"),
    MetricSpec("serve.alerts", "counter", "", (), "repro.detection.streaming",
               "once per raised alert (incl. short-history finalize)"),
    MetricSpec("serve.vote_flips", "counter", "", (),
               "repro.detection.streaming",
               "once per change of a drive detector's instantaneous "
               "alarm signal"),
    MetricSpec("serve.fleet_ticks", "counter", "", (),
               "repro.detection.streaming",
               "once per observe_fleet collection tick"),
    MetricSpec("serve.tick_seconds", "histogram", "seconds", (),
               "repro.detection.streaming",
               "wall time of each observe_fleet collection tick (the one "
               "serve.* metric that depends on the machine rather than the "
               "stream)",
               TIME_BUCKETS_S),
    # -- shard: sharded fleet serving (repro/detection/sharded.py) ----------
    MetricSpec("shard.ticks", "counter", "", ("shard",),
               "repro.detection.sharded",
               "once per shard tick slice dispatched by the coordinator, "
               "labelled by shard id"),
    MetricSpec("shard.tick_seconds", "histogram", "seconds", (),
               "repro.detection.sharded",
               "wall time of one shard's tick slice (inside the "
               "coordinator's serve.tick)", TIME_BUCKETS_S),
    MetricSpec("shard.snapshots", "counter", "", (),
               "repro.detection.sharded",
               "once per shard-<i>.pkl published by a snapshot, after "
               "every shard's export has answered"),
    MetricSpec("shard.restores", "counter", "", (),
               "repro.detection.sharded",
               "once per shard state loaded from its shard-<i>.pkl "
               "snapshot file"),
    MetricSpec("shard.recoveries", "counter", "", (),
               "repro.detection.supervision",
               "once per dead shard the supervisor respawned "
               "(snapshot restore or fresh build, then journal replay)"),
    MetricSpec("shard.journal_replayed_ticks", "counter", "", (),
               "repro.detection.supervision",
               "journaled tick slices re-executed into a recovered shard "
               "(with observability suppressed, so nothing double-counts)"),
    # -- detect: offline evaluation (repro/detection/evaluator.py) ----------
    MetricSpec("detect.evaluations", "counter", "", (),
               "repro.detection.evaluator",
               "once per evaluate_detection call"),
    MetricSpec("detect.drives", "counter", "", (),
               "repro.detection.evaluator",
               "score series evaluated, added once per call"),
    MetricSpec("detect.detected", "counter", "", (),
               "repro.detection.evaluator",
               "failed drives alarmed in time, added once per call"),
    MetricSpec("detect.false_alarms", "counter", "", (),
               "repro.detection.evaluator",
               "good drives alarmed, added once per call"),
    MetricSpec("detect.lead_time_hours", "histogram", "hours", (),
               "repro.detection.evaluator",
               "alert lead time (TIA) of each detected failure, in the "
               "Figure 3/4 bin edges", LEAD_TIME_BUCKETS_H),
    # -- fleet: per-family routing (repro/core/fleet.py) --------------------
    MetricSpec("fleet.families_fitted", "counter", "", (), "repro.core.fleet",
               "once per family model fitted by FleetPredictor.fit"),
    MetricSpec("fleet.drives_scored", "counter", "", (), "repro.core.fleet",
               "drives routed to a family model, added per score_drives"),
    MetricSpec("fleet.unroutable_drives", "counter", "", (),
               "repro.core.fleet",
               "drives of families unseen at fit time, added per "
               "score_drives"),
    # -- updating: retrain cadence and drift (repro/updating/) --------------
    MetricSpec("updating.retrains", "counter", "", (),
               "repro.updating.simulator",
               "once per training-window model fitted"),
    MetricSpec("updating.cells_evaluated", "counter", "", (),
               "repro.updating.simulator",
               "once per (window, week) cell evaluated fresh"),
    MetricSpec("updating.cache_hits", "counter", "", (),
               "repro.updating.simulator",
               "once per cell served from the in-run evaluation cache"),
    MetricSpec("updating.checkpoint_hits", "counter", "", (),
               "repro.updating.simulator",
               "once per cell reloaded from an on-disk checkpoint"),
    MetricSpec("updating.drift_checks", "counter", "", (),
               "repro.updating.drift",
               "once per DriftDetector.check call"),
    MetricSpec("updating.drift_alarms", "counter", "", (),
               "repro.updating.drift",
               "once per drift check whose statistic crossed the threshold"),
    MetricSpec("updating.drift_statistic", "gauge", "", (),
               "repro.updating.drift",
               "last measured max |rank-sum z| across features"),
    # -- parallel: the fan-out pool (repro/utils/parallel.py) ---------------
    MetricSpec("parallel.tasks", "counter", "", ("mode",),
               "repro.utils.parallel",
               "once per task completed, labelled serial or pool"),
    MetricSpec("parallel.salvaged", "counter", "", (), "repro.utils.parallel",
               "once per task recomputed serially after a pool failure"),
    MetricSpec("parallel.serial_fallbacks", "counter", "", (),
               "repro.utils.parallel",
               "once per fan-out degraded to serial execution"),
    MetricSpec("parallel.task_wait_seconds", "histogram", "seconds", (),
               "repro.utils.parallel",
               "wall time from pool submission to collected result, per "
               "pooled task (queue wait + execution)", TIME_BUCKETS_S),
    # -- ingest: out-of-core Backblaze ingest (repro/smart/ingest.py) -------
    MetricSpec("ingest.files", "counter", "", (), "repro.smart.ingest",
               "day files parsed fresh this run, added once per ingest"),
    MetricSpec("ingest.chunks", "counter", "", (), "repro.smart.ingest",
               "chunks parsed fresh this run, added once per ingest"),
    MetricSpec("ingest.checkpoint_hits", "counter", "", (),
               "repro.smart.ingest",
               "chunks reloaded from a mid-ingest checkpoint instead of "
               "reparsed, added once per ingest"),
    MetricSpec("ingest.rows", "counter", "", (), "repro.smart.ingest",
               "rows kept across all chunks (cached included), added once "
               "per ingest"),
    MetricSpec("ingest.filtered_rows", "counter", "", (),
               "repro.smart.ingest",
               "rows dropped by the per-model filter, added once per ingest"),
    MetricSpec("ingest.skipped_rows", "counter", "", (),
               "repro.smart.ingest",
               "malformed rows skipped into the lenient ledger, added once "
               "per ingest"),
    MetricSpec("ingest.drives", "counter", "", (), "repro.smart.ingest",
               "drives assembled into the columnar store, added once per "
               "ingest"),
    MetricSpec("ingest.chunk_rows", "histogram", "rows", (),
               "repro.smart.ingest",
               "rows kept per parsed chunk — the out-of-core memory "
               "granule a worker holds at once", ROW_BUCKETS),
    # -- grid: the experiment runner (repro/experiments/common.py) ----------
    MetricSpec("grid.cells", "counter", "", (), "repro.experiments.common",
               "once per experiment cell computed by run_experiment_grid"),
    MetricSpec("grid.checkpoint_hits", "counter", "", (),
               "repro.experiments.common",
               "once per cell reloaded from the grid checkpoint"),
    MetricSpec("grid.cell_seconds", "histogram", "seconds", (),
               "repro.experiments.common",
               "wall time of each experiment cell", TIME_BUCKETS_S),
    # -- explain: fleet-scale explanation & what-if (repro/explain/) --------
    MetricSpec("explain.reports", "counter", "", (), "repro.explain.report",
               "once per top-failing-subtrees report built from an event "
               "stream"),
    MetricSpec("explain.paths_folded", "counter", "", (),
               "repro.explain.report",
               "alert decision paths folded into reports, added once per "
               "report"),
    MetricSpec("explain.crossfit_fits", "counter", "", (),
               "repro.explain.crossfit",
               "split models fitted, added once per crossfit"),
    MetricSpec("explain.simulations", "counter", "", (),
               "repro.explain.simulate",
               "once per univariate feature-uplift simulation"),
    MetricSpec("explain.grid_points", "counter", "", (),
               "repro.explain.simulate",
               "grid points rescored, added once per simulation"),
    MetricSpec("explain.redundancy_summaries", "counter", "", (),
               "repro.explain.redundancy",
               "once per redundancy/interaction summary built"),
)


SPANS: tuple[SpanSpec, ...] = (
    SpanSpec("fit.grow", "fit", "repro.tree.base",
             "one tree growth (root to pruned tree)",
             ("n_rows", "n_features")),
    SpanSpec("score.batch", "score", "repro.tree.compiled",
             "one compiled batch routing call", ("n_rows", "n_trees")),
    SpanSpec("serve.tick", "serve", "repro.detection.streaming",
             "one observe_fleet collection tick", ("n_drives",)),
    SpanSpec("shard.tick", "shard", "repro.detection.sharded",
             "one shard's slice of a sharded collection tick (absorbed "
             "under the coordinator's serve.tick path)",
             ("shard", "n_drives")),
    SpanSpec("detect.evaluate", "detect", "repro.detection.evaluator",
             "one detector evaluation over a fleet of score series",
             ("n_series",)),
    SpanSpec("updating.window_fit", "updating", "repro.updating.simulator",
             "one training-window model fit", ("window",)),
    SpanSpec("updating.cell_eval", "updating", "repro.updating.simulator",
             "one (window, week) cell evaluation", ("window", "week")),
    SpanSpec("parallel.task", "parallel", "repro.utils.parallel",
             "one task execution (worker spans are absorbed under the "
             "fan-out site's path)", ("index",)),
    SpanSpec("grid.cell", "grid", "repro.experiments.common",
             "one experiment cell", ("experiment",)),
    SpanSpec("ingest.run", "ingest", "repro.smart.ingest",
             "one whole chunked ingest (parse fan-out + assembly)",
             ("n_files", "n_chunks")),
    SpanSpec("ingest.chunk", "ingest", "repro.smart.ingest",
             "one chunk of day files parsed into a columnar part (worker "
             "spans are absorbed under the ingest fan-out's path)",
             ("chunk", "n_files")),
    SpanSpec("ingest.assemble", "ingest", "repro.smart.ingest",
             "the merge of all parts into the final columnar store",
             ("n_chunks",)),
    SpanSpec("explain.report", "explain", "repro.explain.report",
             "one top-failing-subtrees fold over an event stream",
             ("n_events", "n_alerts")),
    SpanSpec("explain.crossfit", "explain", "repro.explain.crossfit",
             "one crossfit: a model fitted per stratified CV split "
             "(fits fan out through run_tasks)",
             ("n_folds", "n_rows")),
    SpanSpec("explain.simulate", "explain", "repro.explain.simulate",
             "one univariate feature-uplift sweep (grid points fan out "
             "through run_tasks)",
             ("feature", "n_points", "n_models")),
    SpanSpec("explain.redundancy", "explain", "repro.explain.redundancy",
             "one redundancy/interaction summary across split models",
             ("n_models", "n_features")),
)


EVENTS: tuple[EventSpec, ...] = (
    # -- the alert lifecycle (repro/detection/streaming.py) -----------------
    EventSpec("sample_scored", "repro.detection.streaming",
              "once per tick scored to a finite value (recording log only)",
              ("score",)),
    EventSpec("vote_flip", "repro.detection.streaming",
              "once per change of a drive detector's instantaneous alarm "
              "signal", ("signal",)),
    EventSpec("alert_raised", "repro.detection.streaming",
              "once per raised alert, carrying full provenance: the alert "
              "id, triggering score, model generation, voting-window "
              "contents, and the CART decision path of the last "
              "well-formed sample (the same nodes Node.route walks)",
              ("alert_id", "score", "model_generation", "window?", "path?",
               "short_history?")),
    EventSpec("alert_cleared", "repro.detection.streaming",
              "once when an alerted drive's instantaneous signal first "
              "drops back below the voting rule", ("score",)),
    EventSpec("tick_faulted", "repro.detection.streaming",
              "once per malformed tick the validation gate excluded",
              ("kind", "detail")),
    EventSpec("drive_quarantined", "repro.detection.streaming",
              "once per drive transitioning OK -> DEGRADED",
              ("fault_count", "fault_limit")),
    EventSpec("outcome_resolved", "repro.detection.streaming",
              "once per resolve_outcome call recording a drive's ground "
              "truth (detected / missed / false_alarm / good); carries "
              "the resolved alert's id when the drive had alerted, the "
              "join key explain reports attribute per-subtree precision "
              "with",
              ("outcome", "alert_id?", "lead_hours?")),
    # -- offline evaluation (repro/detection/evaluator.py) ------------------
    EventSpec("detection_evaluated", "repro.detection.evaluator",
              "once per evaluate_detection call (recording log only), with "
              "the aggregate FDR/FAR/TIA of the sweep",
              ("n_series", "n_detected", "n_failed", "n_false_alarms",
               "n_good", "fdr", "far", "mean_tia_hours")),
    # -- model lifecycle (repro/updating/simulator.py,
    #    repro/detection/streaming.py) --------------------------------------
    EventSpec("model_retrained", "repro.updating.simulator",
              "once per training-window model fitted",
              ("window", "n_train_good", "n_train_failed")),
    EventSpec("model_replaced", "repro.detection.streaming + "
              "repro.updating.simulator",
              "once per serving-model swap: FleetMonitor.set_model, or a "
              "strategy changing its training window week-over-week",
              ("from_generation", "to_generation", "strategy?", "week?",
               "window?")),
    # -- sharded serving lifecycle (repro/detection/sharded.py) -------------
    EventSpec("shard_snapshot", "repro.detection.sharded",
              "once per shard-<i>.pkl published by a snapshot, in shard "
              "order after every shard's export has answered",
              ("shard", "n_drives")),
    EventSpec("shard_restored", "repro.detection.sharded",
              "once per shard state loaded from its shard-<i>.pkl "
              "snapshot file (kill-and-resume)", ("shard", "n_drives")),
    EventSpec("shard_died", "repro.detection.supervision",
              "once per shard worker found dead — by the pre-tick probe "
              "(probe=true) or mid-dispatch (probe=false)",
              ("shard", "error", "probe", "exit_code?")),
    EventSpec("shard_recovered", "repro.detection.supervision",
              "once per successful recovery: respawn from the latest "
              "snapshot (source=snapshot) or the shard spec "
              "(source=fresh), then journal replay",
              ("shard", "replayed_ticks", "source")),
    EventSpec("shard_quarantined", "repro.detection.sharded",
              "once when a shard exhausts its restart budget (or an "
              "operator cuts it loose): dropped from serving, reported "
              "in health_report, never paged",
              ("shard", "n_shards")),
    EventSpec("canary_started", "repro.detection.sharded",
              "once per begin_deployment: the named canary shards start "
              "serving the candidate generation",
              ("generation", "canary_shards", "soak_ticks")),
    EventSpec("canary_verdict", "repro.detection.sharded",
              "once per deployment at the end of its soak window, with "
              "the canary/control alert rates the verdict compared",
              ("generation", "passed", "canary_alert_rate",
               "control_alert_rate", "soak_ticks")),
    EventSpec("fleet_cutover", "repro.detection.sharded",
              "once per passed canary verdict: every shard switches to "
              "the candidate generation",
              ("from_generation", "to_generation", "canary_shards")),
    EventSpec("fleet_rollback", "repro.detection.sharded",
              "once per failed canary verdict: the canary shards return "
              "to the incumbent generation",
              ("from_generation", "to_generation", "canary_shards")),
    # -- SLO burn (repro/observability/slo.py) ------------------------------
    EventSpec("slo_burn", "repro.observability.slo",
              "once per objective transitioning not-burning -> burning, "
              "with every window whose burn rate crossed its threshold",
              ("objective", "budget", "windows")),
    # -- experiment runs (repro/experiments/common.py) ----------------------
    EventSpec("run_completed", "repro.experiments.common",
              "once per finished experiment run (grid or serial), with the "
              "grid checkpoint id when one was used",
              ("experiments", "n_cells", "n_cached", "checkpoint_id?")),
)


def metric_names() -> set[str]:
    """Every documented metric name."""
    return {spec.name for spec in METRICS}


def span_names() -> set[str]:
    """Every documented span name."""
    return {spec.name for spec in SPANS}


def event_names() -> set[str]:
    """Every documented event type."""
    return {spec.name for spec in EVENTS}


def render_metric_table() -> str:
    """The docs/observability.md metric table, regenerated from the specs."""
    lines = [
        "| Metric | Type | Unit | Labels | Emitted by | When |",
        "|---|---|---|---|---|---|",
    ]
    for spec in METRICS:
        labels = ", ".join(spec.labels) if spec.labels else "—"
        unit = spec.unit or "—"
        lines.append(
            f"| `{spec.name}` | {spec.kind} | {unit} | {labels} "
            f"| `{spec.emitted_by}` | {spec.when} |"
        )
    return "\n".join(lines)


def render_span_table() -> str:
    """The docs/observability.md span table, regenerated from the specs."""
    lines = [
        "| Span | Category | Args | Emitted by | When |",
        "|---|---|---|---|---|",
    ]
    for spec in SPANS:
        args = ", ".join(spec.args) if spec.args else "—"
        lines.append(
            f"| `{spec.name}` | {spec.category} | {args} "
            f"| `{spec.emitted_by}` | {spec.when} |"
        )
    return "\n".join(lines)


def render_event_table() -> str:
    """The docs/observability.md event table, regenerated from the specs."""
    lines = [
        "| Event | Payload (`data` keys, `?` = optional) | Emitted by | When |",
        "|---|---|---|---|",
    ]
    for spec in EVENTS:
        payload = ", ".join(f"`{key}`" for key in spec.payload) if spec.payload else "—"
        lines.append(
            f"| `{spec.name}` | {payload} "
            f"| `{spec.emitted_by}` | {spec.when} |"
        )
    return "\n".join(lines)
