"""One learner table: a hyperparameter's default is its training
function's keyword default, its bound is checked by that function, and
every path to a model (the function, a LearnerSpec, the pipeline config)
trains the same model."""

import dataclasses

import numpy as np
import pytest
from conftest import make_matrix

from churnforge import ALGORITHMS, LearnerSpec, PipelineConfig, learners, train
from churnforge.model_io import model_to_dict
from churnforge.tasks import build_config


def _matrix(n=160):
    """Noisy, so boosting runs every round and trees grow deep."""
    rng = np.random.default_rng(31)
    signal = rng.normal(size=n)
    cols = {f"x{j}": (signal * rng.random() + rng.normal(size=n)).round(2).tolist()
            for j in range(6)}
    cols["loc"] = rng.choice(["AJP", "TLS", "KLC"], n).tolist()
    labels = (signal + rng.normal(size=n) > 0).astype(int)
    return make_matrix(cols, labels=labels.tolist(), kinds={"loc": "categorical"})


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_spec_config_and_trainer_train_the_same_model(algorithm):
    m, seed = _matrix(), 7
    fit = getattr(learners, f"train_{algorithm}")
    expected = model_to_dict(fit(m, seed=seed) if algorithm in ("bagging", "forest") else fit(m))
    assert model_to_dict(train(m, LearnerSpec(algorithm, seed=seed))) == expected
    assert model_to_dict(train(m, PipelineConfig(seed=seed).spec_for(algorithm))) == expected


def test_every_spec_field_is_a_hyperparameter_some_learner_reads():
    read = {key for _, reads in learners.LEARNERS.values() for key in reads}
    assert read == {f.name for f in dataclasses.fields(LearnerSpec)} - {"algorithm", "name"}


def test_a_field_the_algorithm_does_not_read_is_ignored():
    m = _matrix()
    assert model_to_dict(train(m, LearnerSpec("stump", max_depth=0, n_trees=0))) == \
        model_to_dict(learners.train_stump(m))


def test_config_keys_set_the_fields_their_learner_reads():
    """A learner's own seed overrides the config's, and values parse by
    the hyperparameter's type."""
    cfg = build_config({"seed": "5", "forest.seed": "3", "forest.bootstrap": "no",
                        "cart.max_depth": "4", "adaboost.base_algorithm": "cart"})
    assert cfg.spec_for("forest") == LearnerSpec("forest", seed=3, bootstrap=False)
    assert cfg.spec_for("cart") == LearnerSpec("cart", seed=5, max_depth=4)
    assert cfg.spec_for("adaboost") == LearnerSpec("adaboost", seed=5, base_algorithm="cart")


def test_zero_adaboost_rounds_fail_rather_than_boost_once():
    with pytest.raises(ValueError, match="n_boost_rounds must be positive"):
        train(_matrix(), LearnerSpec("adaboost", n_boost_rounds=0))


def test_unknown_algorithm_is_named():
    with pytest.raises(ValueError, match="unknown algorithm 'tree'"):
        train(_matrix(), LearnerSpec("tree"))
