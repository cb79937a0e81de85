"""Batch scoring of a matrix that lacks a feature the model reads, and NaN
categories in naive Bayes: both count as missing, as in the row path."""

import math

import numpy as np
import pytest
from conftest import make_matrix

from churnforge import LearnerSpec, TreeModel, train, train_bayes
from test_trees import walk_score


def _two_feature_matrix(n=120):
    """Feature `a` carries the signal, so every tree model splits on it."""
    rng = np.random.default_rng(31)
    a = rng.normal(size=n)
    b = rng.integers(0, 3, n).astype(float)
    labels = (a + 0.3 * rng.normal(size=n) > 0).astype(int)
    return make_matrix({"a": a.tolist(), "b": b.tolist()}, labels=labels.tolist())


def _walk_score(model, row):
    """A tree's scalar walk, combined over an ensemble's members by its
    rule: the fraction voting class 1, or the margin summed in member order."""
    if isinstance(model, TreeModel):
        return walk_score(model, row)
    votes = [walk_score(member, row) > 0.5 for member in model.members]
    if model.combine == "vote":
        return sum(votes) / len(votes)
    margin = 0.0
    for alpha, vote in zip(model.alphas, votes):
        margin += alpha * (1.0 if vote else -1.0)
    return margin


@pytest.mark.parametrize("spec", [
    LearnerSpec("cart", max_depth=3),
    LearnerSpec("forest", n_trees=5, max_depth=3, features_per_split=2, seed=1),
    LearnerSpec("adaboost", n_boost_rounds=4, base_algorithm="stump"),
], ids=lambda s: s.algorithm)
def test_tree_batch_scoring_routes_an_absent_feature_as_missing(spec):
    m = _two_feature_matrix()
    model = train(m, spec)
    assert "a" in model.features()
    only_b = make_matrix({"b": m.columns["b"].tolist()})
    rows = [{"b": float(v)} for v in m.columns["b"]]
    assert model.score_matrix(only_b).tolist() == [model.score_row(r) for r in rows]
    assert model.score_matrix(only_b).tolist() == [_walk_score(model, r) for r in rows]


def test_bayes_batch_scoring_skips_an_absent_feature():
    m = make_matrix({"a": [0.0, 1.0, 2.0, 3.0], "loc": ["X", "Y", "X", "Y"],
                     "b": [1.0, 1.0, 0.0, 0.0]},
                    labels=[0, 1, 0, 1], kinds={"loc": "categorical"})
    model = train_bayes(m)
    only_b = make_matrix({"b": m.columns["b"].tolist()})
    expected = [model.score_row({"b": float(v)}) for v in m.columns["b"]]
    assert model.score_matrix(only_b) == pytest.approx(expected)


def test_bayes_counts_nan_categories_as_missing():
    codes = ["X", None, "Y", "X", None, "Y", "X"]
    labels = [0, 1, 1, 0, 0, 1, 1]
    with_none = make_matrix({"loc": codes}, labels=labels, kinds={"loc": "categorical"})
    with_nan = make_matrix({"loc": [math.nan if c is None else c for c in codes]},
                           labels=labels, kinds={"loc": "categorical"})
    model = train_bayes(with_nan)
    assert model == train_bayes(with_none)
    assert model.categorical["loc"].categories == ["X", "Y"]
    assert model.score_row({"loc": math.nan}) == model.score_row({"loc": None})
    assert model.score_matrix(with_nan).tolist() == model.score_matrix(with_none).tolist()
    assert model.score_matrix(with_nan).tolist() == [model.score_row(with_nan.row(i))
                                                     for i in range(with_nan.n_rows)]
