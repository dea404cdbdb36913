"""End-to-end drive failure predictors (the library's primary API).

:class:`DriveFailurePredictor` is the paper's CT pipeline: feature
extraction -> the Section V-A1 sampling protocol -> a weighted, loss-
aware classification tree -> voting-based drive-level detection.
:class:`AnnFailurePredictor` is the identical pipeline around the BP ANN
control model.  Both share the same ``fit(split)`` / ``evaluate(split)``
surface so every experiment driver treats them interchangeably.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ann.network import BPNeuralNetwork
from repro.core.config import (
    FAILED_LABEL,
    GOOD_LABEL,
    AnnConfig,
    CTConfig,
    resolve_features,
)
from repro.core.sampling import build_training_set, score_drives
from repro.detection.evaluator import (
    DriveScoreSeries,
    evaluate_detection,
    roc_over_voters,
)
from repro.detection.metrics import DetectionResult, RocPoint
from repro.detection.voting import MajorityVoteDetector
from repro.features.vectorize import FeatureExtractor
from repro.smart.dataset import TrainTestSplit
from repro.smart.drive import DriveRecord
from repro.tree.classification import ClassificationTree
from repro.tree.export import export_text, failure_signature


class _PipelineBase:
    """Shared scoring/evaluation plumbing over a fitted sample model.

    Fleet scoring is batched end to end: ``score_drives`` stacks every
    drive's usable samples into one matrix and ``_score_rows`` sees a
    single call, which the compiled tree turns into one
    vectorised routing pass over the whole fleet.
    """

    def __init__(self) -> None:
        self.extractor: Optional[FeatureExtractor] = None

    def _check_fitted(self) -> FeatureExtractor:
        if self.extractor is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted; call fit() first")
        return self.extractor

    def _score_rows(self, rows: np.ndarray) -> np.ndarray:
        """Score a stacked sample matrix (one call per fleet, not per drive)."""
        raise NotImplementedError

    def score_drive(self, drive: DriveRecord) -> DriveScoreSeries:
        """Chronological per-sample class labels for one drive."""
        return self.score_drives([drive])[0]

    def score_drives(self, drives: Sequence[DriveRecord]) -> list[DriveScoreSeries]:
        """Chronological per-sample class labels for many drives.

        All drives are scored by one batched model call; see
        :func:`repro.core.sampling.score_drives`.
        """
        extractor = self._check_fitted()
        return score_drives(extractor, drives, self._score_rows)

    def evaluate(
        self, split: TrainTestSplit, *, n_voters: int = 1
    ) -> DetectionResult:
        """FDR/FAR/TIA on the split's test drives with an N-voter detector."""
        series = self.score_drives(list(split.test_good) + list(split.test_failed))
        detector = MajorityVoteDetector(n_voters=n_voters, failed_label=FAILED_LABEL)
        return evaluate_detection(series, detector)

    def roc(
        self, split: TrainTestSplit, voters: Sequence[int]
    ) -> list[RocPoint]:
        """The Figure 2/5 voter sweep on the split's test drives."""
        series = self.score_drives(list(split.test_good) + list(split.test_failed))
        return roc_over_voters(series, voters, failed_label=FAILED_LABEL)


class DriveFailurePredictor(_PipelineBase):
    """The paper's Classification Tree failure predictor.

    Example:
        >>> from repro.smart import SmartDataset, default_fleet_config
        >>> config = default_fleet_config(w_good=60, w_failed=8, q_good=0, q_failed=0)
        >>> split = SmartDataset.generate(config).split(seed=1)
        >>> predictor = DriveFailurePredictor(CTConfig(minsplit=4, minbucket=2))
        >>> result = predictor.fit(split).evaluate(split, n_voters=3)
        >>> 0.0 <= result.far <= 1.0
        True
    """

    def __init__(self, config: CTConfig | None = None):
        super().__init__()
        self.config = config or CTConfig()
        self.tree_: Optional[ClassificationTree] = None

    def fit(self, split: TrainTestSplit) -> "DriveFailurePredictor":
        """Fit on the split's training drives per the paper's protocol."""
        features = resolve_features(self.config.features)
        self.extractor = FeatureExtractor(features)
        training = build_training_set(
            self.extractor,
            split.train_good,
            split.train_failed,
            self.config.sampling,
            failed_share=self.config.failed_share,
        )
        # Loss matrix in sorted-class order ([-1 failed, +1 good]): a
        # false alarm (good predicted failed) costs `false_alarm_loss_weight`
        # times a missed detection.
        loss = [
            [0.0, 1.0],
            [self.config.false_alarm_loss_weight, 0.0],
        ]
        self.tree_ = ClassificationTree(
            minsplit=self.config.minsplit,
            minbucket=self.config.minbucket,
            cp=self.config.cp,
            criterion=self.config.criterion,
            loss_matrix=loss,
            max_depth=self.config.max_depth,
            n_surrogates=self.config.n_surrogates,
        )
        self.tree_.fit(training.X, training.y, sample_weight=training.sample_weight)
        return self

    def _score_rows(self, rows: np.ndarray) -> np.ndarray:
        return self.tree_.predict(rows)

    def explain(self) -> str:
        """Figure-1-style rendering of the fitted tree."""
        self._check_fitted()
        return export_text(self.tree_, self.extractor.names)

    def failure_attributes(self, top: int = 5) -> list[str]:
        """The attributes most implicated in failed leaves (Section V-B1)."""
        self._check_fitted()
        return failure_signature(
            self.tree_, self.extractor.names, failed_label=FAILED_LABEL, top=top
        )

    def feature_importances(self) -> dict[str, float]:
        """Gain-based importances keyed by feature name."""
        self._check_fitted()
        values = self.tree_.feature_importances()
        return dict(zip(self.extractor.names, values.tolist()))


class GenericFailurePredictor(_PipelineBase):
    """The same pipeline around any fit/predict sample classifier.

    Lets alternative models — the random forest and AdaBoost extensions,
    or anything with ``fit(X, y, sample_weight=...)`` and
    ``predict(X) -> labels`` — reuse the paper's sampling protocol and
    drive-level evaluation unchanged.

    Args:
        model_factory: Zero-argument callable building a fresh model.
        features: Feature set name or explicit list.
        sampling: Sample-selection protocol (paper defaults).
        failed_share: Failed-class share of the training mass, or
            ``None`` for raw weights.
    """

    def __init__(
        self,
        model_factory,
        *,
        features="critical-13",
        sampling: Optional["SamplingConfig"] = None,
        failed_share: Optional[float] = 0.2,
    ):
        super().__init__()
        from repro.core.config import SamplingConfig as _SamplingConfig

        self.model_factory = model_factory
        self.features = features
        self.sampling = sampling or _SamplingConfig()
        self.failed_share = failed_share
        self.model_ = None

    def fit(self, split: TrainTestSplit) -> "GenericFailurePredictor":
        """Fit the wrapped model on the split's training drives."""
        self.extractor = FeatureExtractor(resolve_features(self.features))
        training = build_training_set(
            self.extractor,
            split.train_good,
            split.train_failed,
            self.sampling,
            failed_share=self.failed_share,
        )
        self.model_ = self.model_factory()
        try:
            self.model_.fit(
                training.X, training.y, sample_weight=training.sample_weight
            )
        except TypeError:
            # Models without weight support (e.g. AdaBoost, which manages
            # its own weights) train on the raw samples.
            self.model_.fit(training.X, training.y)
        return self

    def _score_rows(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(self.model_.predict(rows), dtype=float)


class AnnFailurePredictor(_PipelineBase):
    """The BP ANN control pipeline (the paper's baseline model)."""

    def __init__(self, config: AnnConfig | None = None):
        super().__init__()
        self.config = config or AnnConfig()
        self.network_: Optional[BPNeuralNetwork] = None

    def fit(self, split: TrainTestSplit) -> "AnnFailurePredictor":
        """Fit the network on the split's training drives."""
        features = resolve_features(self.config.features)
        self.extractor = FeatureExtractor(features)
        training = build_training_set(
            self.extractor,
            split.train_good,
            split.train_failed,
            self.config.sampling,
            failed_share=self.config.failed_share,
        )
        hidden = self.config.resolve_hidden_size(len(features))
        self.network_ = BPNeuralNetwork(
            hidden_sizes=(hidden,),
            learning_rate=self.config.learning_rate,
            max_iter=self.config.max_iter,
            batch_size=self.config.batch_size,
            scaling=self.config.scaling,
            seed=self.config.seed,
        )
        self.network_.fit(
            training.X,
            training.y.astype(float),
            sample_weight=training.sample_weight,
        )
        return self

    def _score_rows(self, rows: np.ndarray) -> np.ndarray:
        return self.network_.predict(rows)
