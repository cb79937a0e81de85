import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from churnforge import LearnerSpec, train, train_cart, train_stump
from churnforge.model_io import model_to_dict
from conftest import make_matrix


# ---------------------------------------------------------------------------
# independent brute-force Gini oracle (exact rational arithmetic)
# ---------------------------------------------------------------------------

def gini_oracle_stump(matrix):
    """Exhaustive scan of every (feature, midpoint) candidate; exact
    Fraction scores; ties prefer the lexicographically smaller feature,
    then the smaller threshold. Assumes numeric features, no missing.

    Returns (feature, threshold) or None if no candidate separates rows.
    """
    y = list(int(v) for v in matrix.labels)
    best = None  # (score, feature, threshold)
    for feature in sorted(matrix.feature_names):
        col = [float(v) for v in matrix.columns[feature]]
        values = sorted(set(col))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            left = [y[i] for i in range(len(y)) if col[i] < threshold]
            right = [y[i] for i in range(len(y)) if col[i] >= threshold]
            aL, bL = sum(left), len(left) - sum(left)
            aR, bR = sum(right), len(right) - sum(right)
            score = (Fraction(aL * aL + bL * bL, len(left))
                     + Fraction(aR * aR + bR * bR, len(right)))
            if best is None or score > best[0]:
                best = (score, feature, threshold)
    return None if best is None else (best[1], best[2])


def _goes_left(cond, value):
    """Scalar tree routing: True = left; a missing value follows missing_goes."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return cond.missing_goes == "left"
    if cond.kind == "numeric_lt":
        return value < cond.threshold
    return value == cond.category


def walk_score(model, row):
    """A tree's score by a scalar walk from the root to a leaf."""
    node = model.root
    while not node.is_leaf:
        left = _goes_left(node.condition, row.get(node.condition.feature))
        node = node.left if left else node.right
    return node.p1


def all_binary_matrices_8rows():
    """All 3-bit feature rows (8 of them) under every label assignment."""
    rows = list(itertools.product([0.0, 1.0], repeat=3))
    for labels in itertools.product([0, 1], repeat=8):
        yield make_matrix(
            {"f0": [r[0] for r in rows], "f1": [r[1] for r in rows], "f2": [r[2] for r in rows]},
            labels=list(labels))


def test_stump_matches_oracle_exhaustively():
    checked = 0
    for m in all_binary_matrices_8rows():
        expected = None
        if 0 < int(m.labels.sum()) < 8:
            expected = gini_oracle_stump(m)
        model = train_stump(m)
        if expected is None:
            assert model.root.is_leaf
            continue
        assert not model.root.is_leaf
        cond = model.root.condition
        assert (cond.feature, cond.threshold) == expected
        checked += 1
    assert checked == 254  # all but the two single-class assignments


def test_stump_matches_oracle_on_random_12row_data():
    rng = np.random.default_rng(12)
    for _ in range(150):
        n = int(rng.integers(4, 13))
        m = make_matrix(
            {"a": rng.integers(0, 4, n).astype(float).tolist(),
             "b": rng.integers(0, 3, n).astype(float).tolist(),
             "c": rng.integers(0, 2, n).astype(float).tolist()},
            labels=rng.integers(0, 2, n).tolist())
        if int(m.labels.sum()) in (0, n):
            continue
        expected = gini_oracle_stump(m)
        model = train_stump(m)
        if expected is None:
            assert model.root.is_leaf
        else:
            cond = model.root.condition
            assert (cond.feature, cond.threshold) == expected


def test_one_dimensional_separable_stump():
    m = make_matrix({"x": [1.0, 2.0, 3.0, 4.0]}, labels=[0, 0, 1, 1])
    model = train_stump(m)
    cond = model.root.condition
    assert 2.0 < cond.threshold < 3.0
    assert (gini_oracle_stump(m)) == ("x", cond.threshold)
    scores = model.score_matrix(m)
    assert ((scores > 0.5).astype(int) == m.labels).all()


def test_constant_feature_yields_majority_leaf():
    m = make_matrix({"x": [5.0, 5.0, 5.0]}, labels=[1, 0, 1])
    model = train_stump(m)
    assert model.root.is_leaf
    assert model.predict_row({"x": 5.0}) == 1


def test_single_class_yields_constant_classifier():
    m = make_matrix({"x": [1.0, 2.0, 3.0]}, labels=[1, 1, 1])
    model = train_cart(m)
    assert model.root.is_leaf
    assert model.predict_row({"x": 9.0}) == 1


def test_xor_needs_depth_two():
    m = make_matrix({"f0": [0.0, 0.0, 1.0, 1.0], "f1": [0.0, 1.0, 0.0, 1.0]},
                    labels=[0, 1, 1, 0])
    stump = train_stump(m)
    cart = train_cart(m, max_depth=2)
    stump_acc = float(((stump.score_matrix(m) > 0.5).astype(int) == m.labels).mean())
    cart_acc = float(((cart.score_matrix(m) > 0.5).astype(int) == m.labels).mean())
    assert stump_acc == 0.5
    assert cart_acc == 1.0


def _leaf_assignment(model, matrix):
    """Pre-order leaf index per row, for structure comparisons."""
    leaf_of = np.full(matrix.n_rows, -1)
    counter = itertools.count()

    def walk(node, idx):
        if node.is_leaf:
            leaf_of[idx] = next(counter)
            return
        next(counter)
        values = matrix.columns[node.condition.feature][idx]
        left = np.array([_goes_left(node.condition, v) for v in values], dtype=bool)
        walk(node.left, idx[left])
        walk(node.right, idx[~left])

    walk(model.root, np.arange(matrix.n_rows))
    return leaf_of


def test_weighted_gini_never_increases():
    """Every split's weighted child impurity is at most the parent's
    (recomputed independently from raw counts)."""
    rng = np.random.default_rng(3)
    m = make_matrix(
        {"a": rng.normal(size=120).round(2).tolist(),
         "b": rng.integers(0, 6, 120).astype(float).tolist()},
        labels=(rng.random(120) < 0.4).astype(int).tolist())
    model = train_cart(m, max_depth=5)

    def gini(labels):
        if len(labels) == 0:
            return 0.0
        p = labels.mean()
        return 1.0 - p * p - (1 - p) * (1 - p)

    def walk(node, idx):
        if node.is_leaf:
            return
        labels = m.labels[idx].astype(float)
        values = m.columns[node.condition.feature][idx]
        left = np.array([_goes_left(node.condition, v) for v in values], dtype=bool)
        child = (left.mean() * gini(labels[left])
                 + (1 - left.mean()) * gini(labels[~left]))
        assert child <= gini(labels) + 1e-12
        walk(node.left, idx[left])
        walk(node.right, idx[~left])

    walk(model.root, np.arange(m.n_rows))


def test_label_flip_symmetry():
    rng = np.random.default_rng(4)
    flipped_checked = 0
    for trial in range(30):
        n = int(rng.integers(8, 40))
        m = make_matrix(
            {"a": rng.normal(size=n).round(2).tolist(),
             "b": rng.integers(0, 3, n).astype(float).tolist()},
            labels=rng.integers(0, 2, n).tolist())
        if int(m.labels.sum()) in (0, n):
            continue
        flipped = make_matrix({k: list(m.columns[k]) for k in m.feature_names},
                              labels=(1 - m.labels).tolist())
        a = train_cart(m, max_depth=3)
        b = train_cart(flipped, max_depth=3)

        def any_tied_leaf(model):
            stack = [model.root]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    if node.p1 == 0.5:
                        return True
                else:
                    stack.extend([node.left, node.right])
            return False

        if any_tied_leaf(a) or any_tied_leaf(b):
            continue  # tie-to-class-0 rule breaks the symmetry, by design
        pa = (a.score_matrix(m) > 0.5).astype(int)
        pb = (b.score_matrix(flipped) > 0.5).astype(int)
        assert (pa == 1 - pb).all()
        flipped_checked += 1
    assert flipped_checked >= 10


def test_scale_robustness_partition_invariant():
    rng = np.random.default_rng(5)
    m = make_matrix(
        {"a": rng.integers(0, 20, 80).astype(float).tolist(),
         "b": rng.integers(0, 8, 80).astype(float).tolist()},
        labels=rng.integers(0, 2, 80).tolist())
    baseline = _leaf_assignment(train_cart(m, max_depth=4), m)
    for factor in (0.5, 2.0, 1024.0):
        scaled = make_matrix(
            {"a": [v * factor for v in m.columns["a"]], "b": list(m.columns["b"])},
            labels=list(m.labels))
        assignment = _leaf_assignment(train_cart(scaled, max_depth=4), scaled)
        assert (assignment == baseline).all()


def test_missing_values_route_to_heavier_branch():
    m = make_matrix(
        {"x": [1.0, 2.0, 3.0, 10.0, 11.0, None, None]},
        labels=[0, 0, 0, 1, 1, 1, 0])
    model = train_stump(m)
    cond = model.root.condition
    assert cond.feature == "x"
    # left branch (x < threshold) holds 3 present rows vs 2: missing go left
    assert cond.missing_goes == "left"
    assert model.score_row({"x": None}) == model.score_row({"x": 1.5})


def test_categorical_split():
    m = make_matrix(
        {"loc": ["AJP", "AJP", "TLS", "TLS", "KLC", "AJP"]},
        labels=[1, 1, 0, 0, 0, 1])
    model = train_stump(m)
    cond = model.root.condition
    assert cond.kind == "categorical_eq"
    assert cond.category == "AJP"
    assert model.predict_row({"loc": "AJP"}) == 1
    assert model.predict_row({"loc": "TLS"}) == 0
    # unseen category follows the condition-false branch
    assert model.predict_row({"loc": "ZZZ"}) == 0


def test_tie_breaks_prefer_lexicographic_feature():
    # both features split perfectly; tie must go to the smaller name
    m = make_matrix({"b": [0.0, 0.0, 1.0, 1.0], "a": [0.0, 0.0, 1.0, 1.0]},
                    labels=[0, 0, 1, 1])
    model = train_stump(m)
    assert model.root.condition.feature == "a"


def test_min_leaf_respected():
    m = make_matrix({"x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}, labels=[0, 0, 0, 1, 1, 1])
    model = train_cart(m, max_depth=1, min_leaf=3)
    cond = model.root.condition
    assert cond is not None and cond.threshold == 3.5


def test_training_deterministic():
    rng = np.random.default_rng(6)
    m = make_matrix(
        {"a": rng.normal(size=60).tolist(), "b": rng.normal(size=60).tolist()},
        labels=rng.integers(0, 2, 60).tolist())
    assert model_to_dict(train_cart(m)) == model_to_dict(train_cart(m))


def test_row_and_matrix_paths_agree():
    rng = np.random.default_rng(7)
    m = make_matrix(
        {"a": rng.normal(size=50).tolist(),
         "loc": [["AJP", "TLS", None][int(k)] for k in rng.integers(0, 3, 50)]},
        labels=rng.integers(0, 2, 50).tolist(),
        kinds={"a": "numeric", "loc": "categorical"})
    model = train_cart(m, max_depth=4)
    batch = model.score_matrix(m)
    for i in range(m.n_rows):
        assert model.score_row(m.row(i)) == batch[i] == walk_score(model, m.row(i))


def test_nan_in_categorical_column_routes_as_missing():
    nan = float("nan")
    m = make_matrix(
        {"loc": ["AJP", nan, "TLS", "AJP", None, "TLS", nan, "AJP"],
         "x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]},
        labels=[1, 1, 0, 1, 0, 0, 1, 1], kinds={"loc": "categorical", "x": "numeric"})
    model = train_cart(m, max_depth=1)
    assert model.root.condition.feature == "loc"
    batch = model.score_matrix(m)
    for i in range(m.n_rows):
        assert model.score_row(m.row(i)) == batch[i] == walk_score(model, m.row(i))
    assert model.score_row({"loc": nan, "x": 1.0}) == model.score_row({"loc": None, "x": 1.0})


@pytest.mark.parametrize("algorithm", ["stump", "adtree", "adaboost"])
def test_non_string_category_is_refused_at_training(algorithm):
    """A split condition holds its category as a string, so an int category
    would train a perfect split that then scores every row as missing."""
    m = make_matrix({"c": [i % 2 for i in range(40)]}, labels=[i % 2 for i in range(40)],
                    kinds={"c": "categorical"})
    with pytest.raises(ValueError, match=r"categorical feature 'c' holds the non-string value 0"):
        train(m, LearnerSpec(algorithm))
