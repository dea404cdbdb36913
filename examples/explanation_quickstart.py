"""Explanation walkthrough: why does the fleet page, and what would help?

Three questions an operator asks after a week of alerts, answered from
the checked-in ``backblaze_mini`` fixture with :mod:`repro.explain`:

1. **Which subtrees page?**  Serve the test fleet through a
   :class:`~repro.detection.streaming.FleetMonitor` with alert
   provenance on, resolve the ground-truth outcomes, then fold the
   event log's decision paths into a top-failing-subtrees report —
   per-node alert share and outcome-resolved precision, rebuilt from
   the log alone (``repro.explain-report/v1``).
2. **What if the fleet ran cooler?**  Crossfit one tree per CV split
   on the training matrix and sweep the temperature feature, with
   uncertainty bands from the spread across split models
   (``repro.explain-uplift/v1``).
3. **Which features are interchangeable?**  Summarise importance
   spread, path interaction and substitution across the split models
   (``repro.explain-redundancy/v1``).

Everything here is also reachable with zero code via ``repro-explain``
(see docs/explanation.md).

Run:
    python examples/explanation_quickstart.py
"""

import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from repro.core.config import CTConfig, resolve_features
from repro.core.sampling import build_training_set
from repro.detection import FleetMonitor, VoterSpec
from repro.explain import (
    crossfit_models,
    explain_report_from_logs,
    render_explain_report,
    render_redundancy,
    render_uplift,
    simulate_uplift,
    summarize_redundancy,
)
from repro.features.vectorize import FeatureExtractor
from repro.observability.events import disable_events, enable_events
from repro.smart.registry import resolve
from repro.tree.classification import ClassificationTree

FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "backblaze_mini"


def main() -> None:
    # 0. The paper's training protocol on the mini Backblaze fixture:
    #    time split for good drives, windowed feature extraction.
    config = CTConfig(minsplit=4, minbucket=2)  # sized for the tiny fixture
    dataset = resolve(f"backblaze:{FIXTURE}")
    split = dataset.split(seed=1)
    extractor = FeatureExtractor(resolve_features(config.features))
    training = build_training_set(
        extractor, split.train_good, split.train_failed,
        config.sampling, failed_share=config.failed_share,
    )
    factory = partial(
        ClassificationTree,
        minsplit=config.minsplit, minbucket=config.minbucket, cp=config.cp,
        criterion=config.criterion,
        loss_matrix=[[0.0, 1.0], [config.false_alarm_loss_weight, 0.0]],
        max_depth=config.max_depth, n_surrogates=config.n_surrogates,
    )
    tree = factory().fit(
        training.X, training.y, sample_weight=training.sample_weight
    )
    names = training.feature_names
    print(f"Trained on {training.X.shape[0]} samples x {len(names)} features.\n")

    # 1. Serve the test fleet with alert provenance on, then fold the
    #    log into a top-failing-subtrees report.  The report is built
    #    from the log file alone — an offline analyst needs nothing else.
    log_path = Path(tempfile.mkdtemp(prefix="repro-explain-")) / "events.jsonl"
    enable_events(log_path)
    monitor = FleetMonitor(
        extractor.features,
        score_sample=tree.sample_scorer(),
        detector_factory=VoterSpec("majority", 3),
        tree=tree,  # attach provenance: alerts carry their decision path
    )
    failure_hours = {d.serial: d.failure_hour for d in split.test_failed}
    for drive in (*split.test_good, *split.test_failed):
        for hour, values in zip(drive.hours, drive.values):
            monitor.observe(drive.serial, float(hour), np.asarray(values, float))
    monitor.finalize()
    for alert in monitor.alerts:
        failure = failure_hours.get(alert.serial)
        if failure is None:
            monitor.resolve_outcome(alert.serial, failed=False, hour=alert.hour)
        else:
            monitor.resolve_outcome(
                alert.serial, failed=True, failure_hour=failure
            )
    disable_events()

    report = explain_report_from_logs([log_path])
    for line in render_explain_report(report):
        print(line)
    print()

    # 2. What-if: sweep the temperature feature a few degrees either
    #    way and rescore the whole training fleet under every split
    #    model.  Identical at any n_jobs.
    crossfit = crossfit_models(
        factory, training.X, training.y,
        n_folds=3, sample_weight=training.sample_weight,
    )
    uplift = simulate_uplift(
        crossfit, training.X, list(names).index("TC"),
        shifts=[-4.0, -2.0, 0.0, 2.0, 4.0], feature_names=names,
    )
    for line in render_uplift(uplift):
        print(line)
    print()

    # 3. Redundancy: which features substitute for each other across
    #    splits, and which act jointly on the same drives' paths?
    redundancy = summarize_redundancy(
        crossfit, training.X, feature_names=names, top=6
    )
    for line in render_redundancy(redundancy):
        print(line)

    print("\nExplanation walkthrough complete.")


if __name__ == "__main__":
    main()
