"""Scoring: the ADTree batch path gives the row path's bits, and predict
checks the test matrix against the features the model uses."""

import csv
import os

import numpy as np
import pytest
from conftest import make_matrix
from test_adtree import _category_matrix

from churnforge import cli, load_model, parse_adtree, train_adtree

REFERENCE = os.path.join(os.path.dirname(__file__), "data", "consumer_churn_reference.adt")


def test_adtree_batch_scores_equal_row_scores_on_nan_categories():
    m = _category_matrix()
    model = train_adtree(m, n_boost_rounds=3)
    assert model.score_matrix(m).tolist() == [model.score_row(m.row(i)) for i in range(m.n_rows)]


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
    model_file = "task1_model.adt" if learner == "adtree" else "task1_model.cfm"
    dropped = _first_feature(load_model(str(out / model_file)), learner)
    with open(out / "task1_test.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    keep = [j for j, name in enumerate(rows[0]) if name != dropped]
    with open(out / "task1_test.csv", "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows([[r[j] for j in keep] for r in rows])
    capsys.readouterr()

    assert cli.main(["predict", "--config", str(config), "--task", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"lacks feature columns the model uses: {dropped}" in err
