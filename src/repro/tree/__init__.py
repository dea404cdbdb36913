"""CART substrate: the paper's Classification Tree and Regression Tree.

Public surface:

* :class:`ClassificationTree` — Algorithm 1 (information-gain CART with
  Minsplit/Minbucket/CP and the paper's weighting strategies).
* :class:`RegressionTree` — Algorithm 2 (sum-of-squares CART).
* :func:`weights_for_priors` — the 20%/80% class re-balancing helper.
* :mod:`~repro.tree.export` — Figure-1-style rendering and rule mining.
* :class:`RandomForestClassifier` / :class:`AdaBoostClassifier` —
  ensemble extensions named by the paper's future/related work.
* :class:`CompiledTree` / :class:`CompiledForest` — the flat-array
  form every fitted tree and ensemble scores through (fleet-scale batch
  scoring), compiled from the Figure-1 node graph after each fit.
"""

from repro.tree.bagging import subsample_member_inputs
from repro.tree.base import ServingScorerMixin
from repro.tree.boosting import AdaBoostClassifier
from repro.tree.classification import ClassificationTree, weights_for_priors
from repro.tree.compiled import CompiledForest, CompiledTree, compile_tree
from repro.tree.criteria import entropy, gini, information_gain, sum_of_squares
from repro.tree.export import export_text, extract_rules, failure_signature
from repro.tree.forest import RandomForestClassifier
from repro.tree.forest_regression import RandomForestRegressor
from repro.tree.frontier import TrainingFrontier
from repro.tree.node import Node
from repro.tree.pruning import (
    AlphaSearchResult,
    cost_complexity_path,
    cross_validated_alpha,
    prune_to_alpha,
)
from repro.tree.regression import RegressionTree
from repro.tree.serialization import load_model, save_model
from repro.tree.surrogates import SurrogateSplit
from repro.tree.validation import (
    CrossValidationResult,
    GridSearchResult,
    accuracy_score,
    cross_validate,
    grid_search,
    neg_mean_squared_error,
    stratified_kfold_indices,
    weighted_error_score,
)

__all__ = [
    "AdaBoostClassifier",
    "ServingScorerMixin",
    "AlphaSearchResult",
    "CrossValidationResult",
    "GridSearchResult",
    "accuracy_score",
    "cross_validate",
    "grid_search",
    "neg_mean_squared_error",
    "stratified_kfold_indices",
    "weighted_error_score",
    "SurrogateSplit",
    "load_model",
    "save_model",
    "ClassificationTree",
    "CompiledForest",
    "CompiledTree",
    "compile_tree",
    "Node",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "RegressionTree",
    "TrainingFrontier",
    "cost_complexity_path",
    "cross_validated_alpha",
    "entropy",
    "export_text",
    "extract_rules",
    "failure_signature",
    "gini",
    "information_gain",
    "prune_to_alpha",
    "subsample_member_inputs",
    "sum_of_squares",
    "weights_for_priors",
]
