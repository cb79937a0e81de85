"""Scoring: every family's row path is its batch path on one row, ADTree
batch scores equal the path-enumeration oracle's, missing categories score
as missing, and predict checks the test matrix against the features the
model uses."""

import csv
import os

import numpy as np
import pytest
from conftest import make_matrix
from test_adtree import _category_matrix, path_enumeration_score
from test_trees import walk_score

from churnforge import (ALGORITHMS, LearnerSpec, cli, load_model, parse_adtree, predict_matrix,
                        train, train_adtree, train_cart)
from churnforge.model_io import model_to_dict


def _mixed_matrix(n=400):
    rng = np.random.default_rng(17)
    a, b = rng.normal(size=n), rng.normal(size=n)
    loc = rng.choice(["AJP", "TLS", "KLC"], n)
    labels = (a + 0.5 * b + (loc == "AJP") + rng.normal(size=n) > 0.8).astype(int)
    return make_matrix({
        "a": [None if rng.random() < 0.1 else float(v) for v in a],
        "b": b.tolist(),
        "loc": [None if rng.random() < 0.1 else str(v) for v in loc],
    }, labels=labels.tolist(), kinds={"loc": "categorical"})


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_row_path_is_the_batch_path_on_one_row(algorithm):
    m = _mixed_matrix()
    model = train(m, LearnerSpec(algorithm, n_trees=5, n_boost_rounds=5, max_depth=3, seed=3,
                                     base_algorithm="cart"))
    scores, labels = predict_matrix(model, m)
    rows = [m.row(i) for i in range(m.n_rows)]
    assert [model.predict_row(r) for r in rows] == labels.tolist()
    assert [model.score_row(r) for r in rows] == scores.tolist()
    if algorithm == "bayes":  # log-odds in (0, 0.5] are class 1
        band = (scores > 0) & (scores <= 0.5)
        assert band.any() and labels[band].all()


@pytest.mark.parametrize("missing", [None, float("nan"), np.float64("nan")],
                         ids=["None", "nan", "float64_nan"])
def test_missing_category_values_score_as_missing(missing):
    m, base = _category_matrix(nan=missing), _category_matrix(nan=None)
    adt = train_adtree(m, n_boost_rounds=3)
    assert model_to_dict(adt) == model_to_dict(train_adtree(base, n_boost_rounds=3))
    cart = train_cart(base, max_depth=2)
    for model, oracle in ((adt, path_enumeration_score), (cart, walk_score)):
        assert "loc" in model.features()
        expected = [oracle(model, base.row(i)) for i in range(base.n_rows)]
        assert model.score_matrix(m).tolist() == expected
        assert [model.score_row(m.row(i)) for i in range(m.n_rows)] == expected

REFERENCE = os.path.join(os.path.dirname(__file__), "data", "consumer_churn_reference.adt")


def test_adtree_batch_scores_equal_row_scores_on_nan_categories():
    m = _category_matrix()
    model = train_adtree(m, n_boost_rounds=3)
    assert model.score_matrix(m).tolist() == [model.score_row(m.row(i)) for i in range(m.n_rows)]
    assert model.score_matrix(m).tolist() == [path_enumeration_score(model, m.row(i))
                                              for i in range(m.n_rows)]


def test_adtree_batch_scores_equal_row_scores_on_reference_model():
    with open(REFERENCE, encoding="utf-8") as f:
        model = parse_adtree(f.read(), REFERENCE)
    rng = np.random.default_rng(5)
    n = 400

    def numeric(lo, hi):
        values = rng.uniform(lo, hi, n)
        return [None if rng.random() < 0.1 else float(v) for v in values]

    m = make_matrix({
        "UL1110": numeric(-1.0, 2.0), "OUTSTANDING_avg": numeric(0.0, 900.0),
        "CREDIT_ADJ_avg": numeric(-20.0, 1.0), "HSBB_Area": numeric(0.0, 1.0),
        "T_Location": [str(rng.choice(["AJP", "TLS", "KLC"])) if rng.random() < 0.9 else None
                       for _ in range(n)],
        "ACTIVATION_DATE_TENURE": numeric(0.0, 60.0), "Contract_Period": numeric(0.0, 36.0),
        "PAYMENT_avg": numeric(-80.0, 10.0),
    }, kinds={"T_Location": "categorical"})
    assert model.score_matrix(m).tolist() == [model.score_row(m.row(i)) for i in range(n)]
    assert model.score_matrix(m).tolist() == [path_enumeration_score(model, m.row(i))
                                              for i in range(n)]


def _first_feature(model, learner):
    if learner == "bayes":
        return next(iter(model.numeric))
    if learner == "adtree":
        return next(model.iter_splitters()).condition.feature
    tree = model.members[0] if learner == "forest" else model
    return tree.root.condition.feature


@pytest.mark.parametrize("learner", ["stump", "adtree", "bayes", "forest"])
def test_predict_names_columns_the_test_matrix_lacks(tmp_path, capsys, learner):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"data_dir = {tmp_path / 'data'}\nout_dir = {tmp_path / 'out'}\nn_consumers = 300\n"
        f"n_smes = 20\nchurn_rate = 0.2\nlearners = {learner}\nfinal_learner = {learner}\n"
        "forest.n_trees = 3\nadtree.n_boost_rounds = 3\n", encoding="utf-8")
    for step in ("generate", "extract", "train-final", "predict"):
        assert cli.main([step, "--config", str(config), "--task", "1"]) == 0
    out = tmp_path / "out"
    dropped = _first_feature(load_model(str(out / "task1_model.cfm")), learner)
    with open(out / "task1_test.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    keep = [j for j, name in enumerate(rows[0]) if name != dropped]
    with open(out / "task1_test.csv", "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows([[r[j] for j in keep] for r in rows])
    kinds = out / "task1_test.csv.kinds"  # the matrix's kinds, without the dropped feature
    kinds.write_text("".join(line for line in kinds.read_text(encoding="utf-8").splitlines(True)
                             if not line.startswith(f"{dropped},")), encoding="utf-8")
    capsys.readouterr()

    assert cli.main(["predict", "--config", str(config), "--task", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"lacks feature columns the model uses: {dropped}" in err
