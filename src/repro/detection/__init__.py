"""Drive-level detection: voting rules, metrics, evaluation and serving.

The paper evaluates at the *drive* level, not the sample level: a drive
is flagged when its recent per-sample scores vote failed (Section V-A3),
and the reported numbers are FDR/FAR/TIA over drives (Section V-A1).
This package owns that layer end to end:

* :mod:`~repro.detection.voting` — the N-voter majority and
  mean-threshold rules over a score series;
* :mod:`~repro.detection.evaluator` — offline harness turning per-drive
  score series into :class:`DetectionResult` and ROC sweeps;
* :mod:`~repro.detection.metrics` — FDR/FAR/TIA containers, TIA
  histogram bins (Figures 3-4), ROC utilities;
* :mod:`~repro.detection.intervals` — Wilson confidence intervals for
  the reported rates;
* :mod:`~repro.detection.cost` — pricing an operating point
  (alarm/miss/data-loss costs) to choose voters or thresholds;
* :mod:`~repro.detection.streaming` — the online
  :class:`FleetMonitor` (the deployment surface): structure-of-arrays
  drive state, whole-tick ingest, mask gating and quarantine, one
  batched model call per tick, voting rules chosen by a
  :class:`VoterSpec`;
* :mod:`~repro.detection.columnar` — the hour-keyed lag history and
  voting matrices the monitor stores its per-drive state in;
* :mod:`~repro.detection.sharded` — fleet-scale serving:
  :class:`ShardedFleetMonitor` partitions drives across N monitor
  shards by serial hash, fans ticks out (in-process or one worker
  process per shard), merges alerts/faults/observability back into one
  coordinator bit-identical to a single monitor, and layers shard
  snapshot/restore plus canary model rollouts on top;
* :mod:`~repro.detection.reporting` — operator-readable explanations
  of raised alerts.
"""

from repro.detection.evaluator import (
    Detector,
    DriveScoreSeries,
    evaluate_detection,
    roc_over_thresholds,
    roc_over_voters,
)
from repro.detection.cost import (
    CostBreakdown,
    OperationalCostModel,
    choose_operating_point,
    expected_annual_cost,
)
from repro.detection.intervals import (
    RateInterval,
    far_interval,
    fdr_interval,
    rates_compatible,
    wilson_interval,
)
from repro.detection.reporting import AlertReport, PathStep, explain_alert
from repro.detection.metrics import (
    TIA_BIN_LABELS,
    TIA_BINS,
    DetectionResult,
    RocPoint,
    partial_auc,
    roc_dominates,
)
from repro.detection.columnar import MajorityVoteMatrix, MeanThresholdMatrix
from repro.detection.sharded import (
    SHARD_MODES,
    CanaryPolicy,
    ShardedFleetMonitor,
    ShardSpec,
    shard_for,
)
from repro.detection.supervision import (
    TICK_JOURNAL_SCHEMA,
    RestartPolicy,
    SupervisedShardedMonitor,
    TickJournal,
)
from repro.detection.streaming import (
    Alert,
    DriveStatus,
    FleetMonitor,
    QuarantinePolicy,
    VoterSpec,
)
from repro.detection.voting import MajorityVoteDetector, MeanThresholdDetector

__all__ = [
    "Alert",
    "CostBreakdown",
    "OperationalCostModel",
    "AlertReport",
    "PathStep",
    "RateInterval",
    "explain_alert",
    "choose_operating_point",
    "expected_annual_cost",
    "far_interval",
    "fdr_interval",
    "rates_compatible",
    "wilson_interval",
    "DetectionResult",
    "DriveStatus",
    "FleetMonitor",
    "QuarantinePolicy",
    "VoterSpec",
    "SHARD_MODES",
    "CanaryPolicy",
    "ShardSpec",
    "ShardedFleetMonitor",
    "shard_for",
    "TICK_JOURNAL_SCHEMA",
    "RestartPolicy",
    "SupervisedShardedMonitor",
    "TickJournal",
    "MajorityVoteMatrix",
    "MeanThresholdMatrix",
    "Detector",
    "DriveScoreSeries",
    "MajorityVoteDetector",
    "MeanThresholdDetector",
    "RocPoint",
    "TIA_BINS",
    "TIA_BIN_LABELS",
    "evaluate_detection",
    "partial_auc",
    "roc_dominates",
    "roc_over_thresholds",
    "roc_over_voters",
]
