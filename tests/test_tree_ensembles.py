"""Tests for the forest and boosting extensions."""

import pickle

import numpy as np
import pytest

from repro.tree.boosting import AdaBoostClassifier
from repro.tree.classification import ClassificationTree
from repro.tree.forest import RandomForestClassifier


@pytest.fixture
def separable():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4))
    y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0, 1, -1)
    return X, y


class TestRandomForest:
    def test_fits_and_predicts(self, separable):
        X, y = separable
        forest = RandomForestClassifier(
            n_trees=5, minsplit=4, minbucket=2, cp=0.0, seed=1
        ).fit(X, y)
        accuracy = np.mean(forest.predict(X) == y)
        assert accuracy > 0.9

    def test_probabilities_in_unit_interval(self, separable):
        X, y = separable
        forest = RandomForestClassifier(n_trees=4, minsplit=4, minbucket=2, seed=1)
        probs = forest.fit(X, y).predict_proba(X)
        assert probs.min() >= 0.0 and probs.max() <= 1.0
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_reproducible_with_seed(self, separable):
        X, y = separable
        a = RandomForestClassifier(n_trees=3, seed=5, minsplit=4, minbucket=2).fit(X, y)
        b = RandomForestClassifier(n_trees=3, seed=5, minsplit=4, minbucket=2).fit(X, y)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_max_features_validation(self, separable):
        X, y = separable
        with pytest.raises(ValueError, match="max_features"):
            RandomForestClassifier(max_features=99).fit(X, y)

    def test_n_trees_validation(self):
        with pytest.raises(ValueError, match="n_trees"):
            RandomForestClassifier(n_trees=0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            RandomForestClassifier().predict([[0.0]])

    def test_all_features_mode(self, separable):
        X, y = separable
        forest = RandomForestClassifier(
            n_trees=3, max_features=None, minsplit=4, minbucket=2, seed=2
        ).fit(X, y)
        assert np.mean(forest.predict(X) == y) > 0.9


class TestAdaBoost:
    def test_boosting_beats_a_single_stump(self, separable):
        X, y = separable
        stump = AdaBoostClassifier(n_rounds=1, max_depth=1, minsplit=4, minbucket=2)
        boosted = AdaBoostClassifier(n_rounds=15, max_depth=1, minsplit=4, minbucket=2)
        acc_stump = np.mean(stump.fit(X, y).predict(X) == y)
        acc_boosted = np.mean(boosted.fit(X, y).predict(X) == y)
        assert acc_boosted >= acc_stump

    def test_decision_function_sign_matches_predict(self, separable):
        X, y = separable
        model = AdaBoostClassifier(n_rounds=5, minsplit=4, minbucket=2).fit(X, y)
        margin = model.decision_function(X)
        np.testing.assert_array_equal(
            np.where(margin >= 0, 1, -1), model.predict(X)
        )

    def test_perfect_weak_learner_short_circuits(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]] * 5)
        y = np.array([-1, -1, 1, 1] * 5)
        model = AdaBoostClassifier(n_rounds=10, max_depth=3, minsplit=2, minbucket=1)
        model.fit(X, y)
        assert len(model.trees_) == 1

    def test_requires_two_classes(self):
        with pytest.raises(ValueError, match="2 classes"):
            AdaBoostClassifier().fit([[0.0], [1.0]], [1, 1])

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n_rounds"):
            AdaBoostClassifier(n_rounds=0)
        with pytest.raises(ValueError, match="learning_rate"):
            AdaBoostClassifier(learning_rate=0.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            AdaBoostClassifier().decision_function([[0.0]])


SERVING_ESTIMATORS = {
    "ct": lambda: ClassificationTree(minsplit=4, minbucket=2, cp=0.0),
    "forest": lambda: RandomForestClassifier(
        n_trees=3, minsplit=4, minbucket=2, seed=1
    ),
    "adaboost": lambda: AdaBoostClassifier(n_rounds=3, minsplit=4, minbucket=2),
}


class TestServingScorers:
    """``sample_scorer``/``batch_scorer`` as shipped to shard workers."""

    @pytest.mark.parametrize("name", sorted(SERVING_ESTIMATORS))
    def test_pickle_round_trip_scores_identically(self, separable, name):
        X, y = separable
        model = SERVING_ESTIMATORS[name]().fit(X, y)
        sample, batch = model.sample_scorer(), model.batch_scorer()
        sample_copy = pickle.loads(pickle.dumps(sample))
        batch_copy = pickle.loads(pickle.dumps(batch))
        expected = model.predict(X)
        np.testing.assert_array_equal(batch(X), expected)
        np.testing.assert_array_equal(batch_copy(X), expected)
        assert [sample_copy(row) for row in X[:20]] == [
            sample(row) for row in X[:20]
        ] == list(expected[:20])

    @pytest.mark.parametrize("name", sorted(SERVING_ESTIMATORS))
    def test_issued_scorers_track_refits(self, separable, name):
        X, y = separable
        model = SERVING_ESTIMATORS[name]().fit(X, y)
        sample, batch = model.sample_scorer(), model.batch_scorer()
        before = batch(X)
        model.fit(X, -y)  # same estimator, opposite labels
        after = model.predict(X)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(batch(X), after)
        assert [sample(row) for row in X[:20]] == list(after[:20])
