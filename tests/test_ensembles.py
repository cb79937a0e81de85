import numpy as np
import pytest

from churnforge import (extract_churn, standard_windows, train_adaboost, train_bagging,
                        train_cart, train_forest, train_stump, undersample)
from churnforge.evaluation import confusion
from churnforge.learners.ensembles import _train_member
from churnforge.model_io import model_to_dict
from conftest import make_matrix
from test_trees import walk_score


def _noise_matrix(rng, n=60):
    return make_matrix(
        {"a": rng.normal(size=n).round(2).tolist(),
         "b": rng.normal(size=n).round(2).tolist()},
        labels=rng.integers(0, 2, n).tolist())


def test_single_tree_no_bootstrap_reduces_to_cart():
    rng = np.random.default_rng(0)
    m = _noise_matrix(rng)
    ensemble = train_bagging(m, n_trees=1, seed=3, bootstrap=False, max_depth=4)
    single = train_cart(m, max_depth=4)
    assert (ensemble.score_matrix(m) > 0.5).tolist() == (single.score_matrix(m) > 0.5).tolist()
    assert model_to_dict(ensemble.members[0]) == model_to_dict(single)


def test_adaboost_perfect_round_stops_immediately():
    m = make_matrix({"x": [1.0, 2.0, 3.0, 4.0]}, labels=[0, 0, 1, 1])
    ensemble = train_adaboost(m, n_boost_rounds=10)
    assert len(ensemble.members) == 1
    assert ensemble.alphas[0] > 0
    assert ensemble.predict_row({"x": 1.0}) == 0
    assert ensemble.predict_row({"x": 4.0}) == 1


def test_adaboost_improves_on_single_stump():
    # staircase pattern a single stump cannot fit
    xs = list(range(12))
    labels = [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1]
    m = make_matrix({"x": [float(v) for v in xs]}, labels=labels)
    stump_acc = float(((train_stump(m).score_matrix(m) > 0.5).astype(int) == m.labels).mean())
    boosted = train_adaboost(m, n_boost_rounds=25)
    boosted_acc = float(((boosted.score_matrix(m) > 0.0).astype(int) == m.labels).mean())
    assert boosted_acc > stump_acc


def test_adaboost_degenerate_falls_back_to_constant():
    # identical feature values: the stump is a leaf, error 0.5 exactly
    m = make_matrix({"x": [1.0, 1.0, 1.0, 1.0]}, labels=[0, 0, 1, 1])
    ensemble = train_adaboost(m, n_boost_rounds=5)
    assert len(ensemble.members) == 1
    preds = {ensemble.predict_row({"x": 1.0})}
    assert preds <= {0, 1}  # constant classifier, any row answers the same


def test_member_streams_independent_of_training_order():
    rng = np.random.default_rng(1)
    m = _noise_matrix(rng, n=50)
    members_fwd = [_train_member(m, seed=9, index=i, bootstrap=True, max_depth=4,
                                 min_leaf=1, features_per_split=None) for i in range(6)]
    members_rev = [_train_member(m, seed=9, index=i, bootstrap=True, max_depth=4,
                                 min_leaf=1, features_per_split=None)
                   for i in reversed(range(6))]
    for a, b in zip(members_fwd, reversed(members_rev)):
        assert model_to_dict(a) == model_to_dict(b)


def test_forest_beats_stump_on_planted_signal(planted_dataset):
    train_m = undersample(extract_churn(planted_dataset, standard_windows("churn", "train")), 5)
    w_train = standard_windows("churn", "train")
    test_m = undersample(
        extract_churn(planted_dataset, standard_windows("churn", "test"),
                      naming_months=w_train.feature_months), 6)
    stump = train_stump(train_m)
    forest = train_forest(train_m, n_trees=25, seed=5)
    stump_cm = confusion(test_m.labels, (stump.score_matrix(test_m) > 0.5).astype(int))
    forest_cm = confusion(test_m.labels, (forest.score_matrix(test_m) > 0.5).astype(int))
    assert forest_cm.accuracy > stump_cm.accuracy


def test_forest_deterministic_under_seed():
    rng = np.random.default_rng(2)
    m = _noise_matrix(rng)
    a = train_forest(m, n_trees=5, seed=11)
    b = train_forest(m, n_trees=5, seed=11)
    c = train_forest(m, n_trees=5, seed=12)
    assert model_to_dict(a) == model_to_dict(b)
    assert model_to_dict(a) != model_to_dict(c)


def test_vote_scores_are_member_fractions():
    rng = np.random.default_rng(3)
    m = _noise_matrix(rng, n=30)
    ensemble = train_bagging(m, n_trees=7, seed=1, max_depth=3)
    scores = ensemble.score_matrix(m)
    assert np.all((scores * 7) % 1 < 1e-9)  # multiples of 1/7
    for i in range(m.n_rows):
        assert ensemble.score_row(m.row(i)) == pytest.approx(scores[i])
        assert scores[i] == sum(walk_score(t, m.row(i)) > 0.5 for t in ensemble.members) / 7


def test_empty_or_invalid_params_rejected():
    rng = np.random.default_rng(4)
    m = _noise_matrix(rng, n=20)
    with pytest.raises(ValueError):
        train_bagging(m, n_trees=0)
    with pytest.raises(ValueError):
        train_adaboost(m, n_boost_rounds=0)


def test_forest_rejects_zero_features_per_split():
    """Trees that may read no feature would all be leaves."""
    m = _noise_matrix(np.random.default_rng(4), n=20)
    with pytest.raises(ValueError, match="features_per_split must be positive"):
        train_forest(m, features_per_split=0)
