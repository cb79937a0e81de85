import itertools
import math

import numpy as np
import pytest

from churnforge import (ConfusionMatrix, LearnerSpec, compare_learners, confusion,
                        rank_features, select_best, stratified_kfold)
from churnforge.evaluation import EvalReport
from churnforge.features import is_missing
from conftest import make_matrix


def test_confusion_metrics_match_counting_oracle():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 200)
    predicted = rng.integers(0, 2, 200)
    cm = confusion(labels, predicted)
    # independent counting oracle
    pairs = list(zip(predicted.tolist(), labels.tolist()))
    assert cm.tp == pairs.count((1, 1))
    assert cm.fp == pairs.count((1, 0))
    assert cm.tn == pairs.count((0, 0))
    assert cm.fn == pairs.count((0, 1))
    assert cm.total == 200
    assert cm.prec_1 == pytest.approx(100.0 * cm.tp / (cm.tp + cm.fp))
    assert cm.accuracy == pytest.approx(100.0 * (cm.tp + cm.tn) / 200)


def test_undefined_precision_is_none_not_zero_or_hundred():
    cm = ConfusionMatrix(tp=0, fp=0, tn=5, fn=5)
    assert cm.prec_1 is None
    assert cm.prec_0 == 50.0
    cm = ConfusionMatrix(tp=5, fp=5, tn=0, fn=0)
    assert cm.prec_0 is None


def test_kfold_even_split():
    labels = np.array([0] * 50 + [1] * 50)
    folds = stratified_kfold(labels, 10, seed=0)
    for train_idx, test_idx in folds:
        assert len(test_idx) == 10
        assert int(labels[test_idx].sum()) == 5
        assert len(train_idx) == 90


def test_kfold_sizes_within_one():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, 101)
    folds = stratified_kfold(labels, 10, seed=3)
    sizes = [len(test) for _, test in folds]
    assert max(sizes) - min(sizes) <= 1
    n1 = int(labels.sum())
    for _, test in folds:
        ones = int(labels[test].sum())
        assert abs(ones - n1 / 10) < 1
        zeros = len(test) - ones
        assert abs(zeros - (101 - n1) / 10) < 1


def test_kfold_partition_property():
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = int(rng.integers(40, 400))
        k = int(rng.integers(2, 11))
        labels = np.array([0] * (n // 2) + [1] * (n - n // 2))
        rng.shuffle(labels)
        folds = stratified_kfold(labels, k, seed=trial)
        seen = np.concatenate([test for _, test in folds])
        assert len(seen) == n
        assert sorted(seen.tolist()) == list(range(n))  # disjoint and exhaustive
        for train_idx, test_idx in folds:
            assert set(train_idx) | set(test_idx) == set(range(n))
            assert not set(train_idx) & set(test_idx)


def test_kfold_small_class_rejected():
    labels = np.array([0] * 50 + [1] * 5)
    with pytest.raises(ValueError, match="class 1"):
        stratified_kfold(labels, 10, seed=0)
    with pytest.raises(ValueError, match="at least 2"):
        stratified_kfold(np.array([0, 1] * 10), 1, seed=0)


def test_kfold_deterministic():
    labels = np.array([0, 1] * 30)
    a = stratified_kfold(labels, 5, seed=9)
    b = stratified_kfold(labels, 5, seed=9)
    for (ta, sa), (tb, sb) in zip(a, b):
        assert (ta == tb).all() and (sa == sb).all()


def _separable_matrix(n=60):
    # wide gap between the classes, so every train fold separates perfectly
    half = n // 2
    xs = [float(i) for i in range(half)] + [float(1000 + i) for i in range(n - half)]
    labels = [0] * half + [1] * (n - half)
    return make_matrix({"x": xs}, labels=labels)


def test_perfect_classifier_scores_hundred():
    m = _separable_matrix()
    report = compare_learners(m, [LearnerSpec("stump")], k=5, seed=1)
    pooled = report.pooled("stump")
    assert pooled.prec_1 == 100.0 and pooled.prec_0 == 100.0 and pooled.accuracy == 100.0


def test_pooled_equals_sum_of_folds():
    m = _separable_matrix(80)
    report = compare_learners(m, [LearnerSpec("bayes")], k=8, seed=2)
    cells = report.folds["bayes"]
    total = ConfusionMatrix()
    for cm in cells:
        total = total + cm
    pooled = report.pooled("bayes")
    assert (total.tp, total.fp, total.tn, total.fn) == \
        (pooled.tp, pooled.fp, pooled.tn, pooled.fn)
    assert total.total == m.n_rows


def test_learner_failure_isolated():
    m = _separable_matrix(40)
    specs = [LearnerSpec("stump"), LearnerSpec("cart", max_depth=-1, name="broken")]
    report = compare_learners(m, specs, k=4, seed=0)
    assert "broken" in report.failures
    assert report.pooled("stump").accuracy == 100.0
    text = report.render_text()
    assert "FAILED" in text and "stump" in text


def test_select_best_rules():
    report = EvalReport(["a", "b", "c"])
    report.folds["a"] = [ConfusionMatrix(tp=8, fp=2, tn=5, fn=5)]   # prec_1 80
    report.folds["b"] = [ConfusionMatrix(tp=9, fp=1, tn=5, fn=5)]   # prec_1 90
    report.folds["c"] = [ConfusionMatrix(tp=9, fp=1, tn=6, fn=4)]   # prec_1 90, higher accu
    assert select_best(report) == "c"
    # single learner
    single = EvalReport(["only"])
    single.folds["only"] = [ConfusionMatrix(tp=1, fp=1, tn=1, fn=1)]
    assert select_best(single) == "only"
    # equal precision and accuracy: learner-id order
    tie = EvalReport(["zeta", "alpha"])
    tie.folds["zeta"] = [ConfusionMatrix(tp=5, fp=5, tn=5, fn=5)]
    tie.folds["alpha"] = [ConfusionMatrix(tp=5, fp=5, tn=5, fn=5)]
    assert select_best(tie) == "alpha"
    # all failed
    dead = EvalReport(["x"])
    dead.failures["x"] = "boom"
    with pytest.raises(ValueError):
        select_best(dead)


def test_constant_classifier_on_balanced_data():
    # all-class-1 predictions: prec_1 = 50, prec_0 undefined, accuracy 50
    labels = np.array([0, 1] * 20)
    predicted = np.ones(40, dtype=int)
    cm = confusion(labels, predicted)
    assert cm.prec_1 == 50.0 and cm.prec_0 is None and cm.accuracy == 50.0


def test_rank_features_perfect_predictor_first():
    rng = np.random.default_rng(5)
    n = 100
    x = rng.normal(size=n)
    labels = (x > 0.2).astype(int)
    m = make_matrix(
        {"signal": x.tolist(),
         "noise1": rng.normal(size=n).tolist(),
         "noise2": rng.normal(size=n).tolist()},
        labels=labels.tolist())
    ranking = rank_features(m)
    assert ranking[0][0] == "signal"
    assert ranking[0][1] > ranking[1][1]


def test_rank_features_deterministic_and_tie_stable():
    # constant features all have zero gain; order must be lexicographic
    m = make_matrix({"b": [1.0] * 10, "a": [2.0] * 10, "c": [3.0] * 10},
                    labels=[0, 1] * 5)
    ranking = rank_features(m)
    assert [name for name, _ in ranking] == ["a", "b", "c"]
    assert all(gain == 0.0 for _, gain in ranking)
    assert rank_features(m) == rank_features(m)


def _reference_gain(col, kind, y):
    """Row-by-row information gain of a feature's best single binary split;
    missing rows go with the side holding more present rows (ties right)."""
    def entropy(rows):
        ones = sum(y[i] for i in rows)
        return -sum(p * math.log2(p) for p in (ones / len(rows), 1 - ones / len(rows)) if p)

    everyone = range(len(y))
    present = [i for i in everyone if not is_missing(col[i])]
    values = sorted({col[i] for i in present})
    if kind == "numeric":
        tests = [lambda v, t=(lo + hi) / 2.0: v < t for lo, hi in zip(values, values[1:])]
    else:
        tests = [lambda v, c=c: v == c for c in values]
    best = 0.0
    for holds in tests:
        yes = [i for i in present if holds(col[i])]
        if not 0 < len(yes) < len(present):
            continue
        left = set(yes) | ({i for i in everyone if is_missing(col[i])}
                           if 2 * len(yes) > len(present) else set())
        right = [i for i in everyone if i not in left]
        h = len(left) / len(y) * entropy(left) + len(right) / len(y) * entropy(right)
        best = max(best, entropy(everyone) - h)
    return best


def test_rank_features_matches_row_by_row_reference():
    rng = np.random.default_rng(2013)
    ordered = 0
    for _ in range(120):
        n = int(rng.integers(2, 60))
        columns, kinds = {}, {}
        for j in range(int(rng.integers(1, 5))):
            x = rng.integers(0, int(rng.integers(1, 8)), n) * float(rng.choice([1.0, 0.1]))
            x[rng.random(n) < rng.choice([0.0, 0.2, 0.6])] = np.nan
            columns[f"x{j}"] = [None if np.isnan(v) else float(v) for v in x]
            kinds[f"x{j}"] = "numeric"
        if rng.random() < 0.7:
            name = str(rng.choice(["a_loc", "x1_loc", "z_loc"]))
            cats = np.array(["A", "B", "C", None, float("nan")], dtype=object)
            columns[name], kinds[name] = list(cats[rng.integers(0, 5, n)]), "categorical"
        y = rng.integers(0, 2, n).tolist()
        ranking = rank_features(make_matrix(columns, labels=y, kinds=kinds))
        expected = {f: _reference_gain(columns[f], kinds[f], y) for f in columns}
        assert dict(ranking) == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert sorted(name for name, _ in ranking) == sorted(columns)
        for (a, _), (b, _) in itertools.combinations(ranking, 2):
            if abs(expected[a] - expected[b]) > 1e-9:
                assert expected[a] > expected[b]
                ordered += 1
    assert ordered > 400


def test_rank_features_top_n():
    rng = np.random.default_rng(6)
    m = make_matrix({f"f{i}": rng.normal(size=30).tolist() for i in range(6)},
                    labels=rng.integers(0, 2, 30).tolist())
    assert len(rank_features(m, 4)) == 4


def test_report_csv_rows_shape():
    m = _separable_matrix(40)
    report = compare_learners(m, [LearnerSpec("stump"), LearnerSpec("bayes")], k=4, seed=0)
    rows = report.to_csv_rows()
    assert rows[0] == ["metric", "stump", "bayes"]
    assert [r[0] for r in rows[1:]] == ["prec_1", "prec_0", "accuracy"]
