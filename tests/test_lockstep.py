"""Ensemble members grown in lockstep equal members grown alone, and large
fits, whose lines span several chunks, keep their pinned digests."""

import hashlib
import json

import numpy as np
import pytest
from conftest import make_matrix

from churnforge import train_adaboost, train_adtree, train_bagging, train_forest
from churnforge.learners.conditions import TrainingData
from churnforge.learners.ensembles import _train_member
from churnforge.model_io import model_to_dict
from churnforge.rebalance import oversample

# as in test_split_search: the digests hold on the numpy they were taken with
GOLDEN_NUMPY = "2.4"
LARGE_DIGESTS = {
    "adaboost": "1ea3fda73c9428c03a0786e109a65f0b9c5e6dca21aa9e83573f409301184bfe",
    "adaboost_cart": "705325362f6b2817beb4120693005b6583354b5cf1ce4d173c5c222c262dfc81",
    "adtree": "48838739aad935ad6e7ad2d4377aba4d1aca8b82b24a39306670c678e5856356",
    "bagging": "ae03826c267dc0b9cbcad846a9e1584e61eae05942281cad610f3f6ddf518b75",
    "forest": "16733dbc238b4401c9a61b0ffd895c5f3e0f030ebf070dbb94b7ae8ed18b06fb",
}


def _digest(model) -> str:
    text = json.dumps(model_to_dict(model), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _random_matrix(rng):
    """Numeric columns with few distinct values and NaN, sometimes a copy of
    another, plus a categorical column with None and NaN; sometimes
    oversampled, so that members fit repeated rows as distinct rows with
    multiplicities and map their bootstraps through the row index."""
    n = int(rng.integers(5, 160))
    cols, kinds = {}, {}
    for j in range(int(rng.integers(1, 6))):
        x = rng.integers(0, int(rng.integers(2, 12)), n).astype(float)
        x[rng.random(n) < rng.choice([0.0, 0.15, 0.5])] = np.nan
        cols[f"x{j}"] = [None if np.isnan(v) else float(v) for v in x]
        kinds[f"x{j}"] = "numeric"
    if rng.random() < 0.3:
        cols["x9"], kinds["x9"] = list(cols["x0"]), "numeric"
    if rng.random() < 0.7:
        cats = np.array(["A", "B", "C", None, float("nan")], dtype=object)
        name = str(rng.choice(["a_loc", "x2_loc", "z_loc"]))
        cols[name], kinds[name] = list(cats[rng.integers(0, 5, n)]), "categorical"
    labels = (rng.random(n) < rng.choice([0.15, 0.5])).astype(int)
    labels[:2] = [0, 1]
    m = make_matrix(cols, labels=labels.tolist(), kinds=kinds)
    return oversample(m, int(rng.integers(0, 100))) if rng.random() < 0.4 else m


def test_lockstep_members_equal_solo_fits():
    rng = np.random.default_rng(505)
    repeats = 0
    for trial in range(50):
        m = _random_matrix(rng)
        repeats += TrainingData(m).merged().n < m.n_rows
        n_features = len(m.feature_names)
        n_trees = int(rng.integers(1, 7))
        seed = int(rng.integers(0, 1000))
        max_depth = int(rng.integers(1, 7))
        min_leaf = int(rng.integers(1, 4))
        bootstrap = bool(trial % 2)
        fps = [None, 1, 3, n_features + int(rng.integers(0, 2))][trial % 4]
        if fps is None:
            model = train_bagging(m, n_trees, seed, bootstrap, max_depth, min_leaf)
        else:
            model = train_forest(m, n_trees, seed, fps, bootstrap, max_depth, min_leaf)
        for i, member in enumerate(model.members):
            alone = _train_member(m, seed, i, bootstrap, max_depth, min_leaf, fps)
            assert model_to_dict(member) == model_to_dict(alone), (trial, i)
    assert repeats >= 10


def _large_matrix(n=5000):
    """About 8,800 rows of mixed kinds: the minority class of 5,000 rows
    oversampled about nine times, as the pipeline's final fit sees it."""
    rng = np.random.default_rng(20121101)
    signal = rng.normal(size=n)
    labels = (signal + rng.normal(scale=0.9, size=n) > 1.6).astype(int)
    cols = {
        "amount": (signal * 3).round(1),
        "calls": rng.poisson(3, n).astype(float),
        "dl": np.exp(rng.normal(size=n) + 0.3 * signal).round(2),
        "flat": np.full(n, 1.5),
        "noise": rng.normal(size=n).round(2),
        "tenure": (rng.integers(0, 60, n) + (signal > 0.5) * 6).astype(float),
        "ul": rng.integers(0, 4, n) * 0.5,
    }
    for name, share in (("amount", 0.08), ("dl", 0.3), ("noise", 0.02), ("tenure", 0.15)):
        cols[name][rng.random(n) < share] = np.nan
    columns = {k: [None if np.isnan(v) else float(v) for v in c] for k, c in cols.items()}
    kinds = {k: "numeric" for k in cols}
    cats = np.array(["AJP", "KLC", "TLS", "ZZZ", None], dtype=object)
    columns["loc"] = list(cats[np.where(signal > 1.2, 0, rng.integers(1, 5, n))])
    columns["plan"] = list(np.array(["P1", "P2", None], dtype=object)[rng.integers(0, 3, n)])
    kinds["loc"] = kinds["plan"] = "categorical"
    return oversample(make_matrix(columns, labels=labels.tolist(), kinds=kinds), seed=11)


@pytest.mark.skipif(".".join(np.__version__.split(".")[:2]) != GOLDEN_NUMPY,
                    reason=f"golden digests were captured with numpy {GOLDEN_NUMPY}")
def test_large_fit_golden_digests():
    m = _large_matrix()
    assert m.n_rows == 8840
    forest = train_forest(m, n_trees=25, seed=6, max_depth=8)
    bagging = train_bagging(m, n_trees=15, seed=2, max_depth=6, min_leaf=2)
    adtree = train_adtree(m, n_boost_rounds=10)
    adaboost = train_adaboost(m, n_boost_rounds=20, base_algorithm="stump")
    adaboost_cart = train_adaboost(m, n_boost_rounds=4, base_algorithm="cart", max_depth=6,
                                   min_leaf=2)
    assert {"adaboost": _digest(adaboost), "adaboost_cart": _digest(adaboost_cart),
            "adtree": _digest(adtree), "bagging": _digest(bagging),
            "forest": _digest(forest)} == LARGE_DIGESTS
