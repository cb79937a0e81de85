import itertools
import math

import numpy as np
import pytest

from churnforge import extract_churn, rank_features, standard_windows, train_adtree, undersample
from churnforge.features import is_missing
from conftest import make_matrix, random_adtree, random_adtree_row


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def _evaluate(cond, value):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return None
    if cond.kind == "numeric_lt":
        return value < cond.threshold
    return value == cond.category


def path_enumeration_score(model, row):
    """Collect the value of every prediction node whose path the row
    satisfies (missing feature = path stops), then fsum."""
    values = []

    def visit(pred):
        values.append(pred.value)
        for sp in pred.splitters:
            verdict = _evaluate(sp.condition, row.get(sp.condition.feature))
            if verdict is None:
                continue
            visit(sp.yes if verdict else sp.no)

    visit(model.root)
    return math.fsum(values)


def z_oracle_round1(matrix):
    """Brute-force first-round splitter: enumerate every candidate, apply
    the Z criterion, strict-min with the documented tie order (feature
    name, then threshold). Statistics accumulate in value-sorted stable row
    order, the module's documented canonical accumulation order."""
    y = np.asarray(matrix.labels, dtype=np.int64)
    ypm = np.where(y == 1, 1.0, -1.0)
    n1, n0 = int(y.sum()), int(len(y) - y.sum())
    a0 = 0.5 * math.log((n1 + 1) / (n0 + 1))
    w = np.exp(-ypm * a0)
    total = float(w.sum())
    best = None
    for feature in sorted(matrix.feature_names):
        col = np.asarray(matrix.columns[feature], dtype=np.float64)
        order = np.argsort(col, kind="stable")
        sv, sy, sw = col[order], y[order], w[order]
        cum1 = np.cumsum(np.where(sy == 1, sw, 0.0))
        cum0 = np.cumsum(np.where(sy == 0, sw, 0.0))
        for i in range(len(sv) - 1):
            if sv[i] == sv[i + 1]:
                continue
            w1y, w0y = cum1[i], cum0[i]
            w1n, w0n = cum1[-1] - w1y, cum0[-1] - w0y
            z = 2.0 * (np.sqrt(w1y * w0y) + np.sqrt(w1n * w0n)) + (total - (cum1[-1] + cum0[-1]))
            threshold = (sv[i] + sv[i + 1]) / 2.0
            if best is None or z < best[0]:
                best = (z, feature, threshold)
    return None if best is None else (best[1], best[2])


def z_oracle_round1_counts(matrix):
    """Fully order-independent variant for balanced labels, where every
    weight is exactly 1.0 and sums are exact integer-valued floats."""
    y = np.asarray(matrix.labels, dtype=np.int64)
    best = None
    for feature in sorted(matrix.feature_names):
        col = np.asarray(matrix.columns[feature], dtype=np.float64)
        for threshold in sorted({(a + b) / 2.0 for a, b in
                                 zip(sorted(set(col)), sorted(set(col))[1:])}):
            yes = col < threshold
            w1y = float(((y == 1) & yes).sum())
            w0y = float(((y == 0) & yes).sum())
            w1n = float((y == 1).sum()) - w1y
            w0n = float((y == 0).sum()) - w0y
            z = 2.0 * (np.sqrt(w1y * w0y) + np.sqrt(w1n * w0n))
            if best is None or z < best[0]:
                best = (z, feature, threshold)
    return None if best is None else (best[1], best[2])


def _fsum_value(w1, w0):
    return 0.5 * math.log((w1 + 1.0) / (w0 + 1.0))


def _z_candidates(columns, kinds, y, w, reach):
    """Every (z, node, feature, operand) of one round, row by row with fsum:
    node is the prediction node's creation index, `reach` its rows. Rows
    missing the feature fall in neither branch."""
    total = math.fsum(w)
    found = []
    for node, rows in enumerate(reach):
        for feature in sorted(columns):
            col = columns[feature]
            present = [i for i in rows if not is_missing(col[i])]
            values = sorted({col[i] for i in present})
            if kinds[feature] == "numeric":
                tests = [((lo + hi) / 2.0, lambda v, t=(lo + hi) / 2.0: v < t)
                         for lo, hi in zip(values, values[1:])]
            else:
                tests = [(c, lambda v, c=c: v == c) for c in values] if len(values) > 1 else []
            for operand, holds in tests:
                yes = [i for i in present if holds(col[i])]
                no = [i for i in present if not holds(col[i])]
                w1y, w0y, w1n, w0n = (math.fsum(w[i] for i in side if y[i] == c)
                                      for side in (yes, no) for c in (1, 0))
                z = (2.0 * (math.sqrt(w1y * w0y) + math.sqrt(w1n * w0n))
                     + (total - math.fsum(w[i] for i in present)))
                found.append((z, node, feature, operand))
    return found


def test_every_round_matches_z_reference():
    """Each round's pick is a minimum-Z (node, condition) pair of a row-by-row
    reference, and the tie order's pick (earliest node, then feature name,
    then threshold or category) whenever the runner-up is 1e-9 away. The
    reference replays the model's picks, with its own fsum weights."""
    rng = np.random.default_rng(1023)
    picked = separated = 0
    for _ in range(250):
        n = int(rng.integers(4, 30))
        columns, kinds = {}, {}
        for j in range(int(rng.integers(1, 4))):
            x = rng.integers(0, int(rng.integers(2, 6)), n) * float(rng.choice([1.0, 0.3]))
            x[rng.random(n) < rng.choice([0.0, 0.25])] = np.nan
            columns[f"x{j}"] = [None if np.isnan(v) else float(v) for v in x]
            kinds[f"x{j}"] = "numeric"
        if rng.random() < 0.6:
            name = str(rng.choice(["a_loc", "x1_loc", "z_loc"]))
            cats = np.array(["A", "B", "C", None], dtype=object)
            columns[name], kinds[name] = list(cats[rng.integers(0, 4, n)]), "categorical"
        y = rng.integers(0, 2, n).tolist()
        rounds = int(rng.integers(1, 6))
        model = train_adtree(make_matrix(columns, labels=y, kinds=kinds), n_boost_rounds=rounds)
        value = _fsum_value(sum(y), n - sum(y))
        assert model.root.value == pytest.approx(value, rel=1e-12, abs=1e-15)
        w = [math.exp(-(1.0 if c else -1.0) * value) for c in y]
        nodes, reach = [model.root], [list(range(n))]
        splitters = {sp.index: sp for sp in model.iter_splitters()}
        for round_no in range(1, rounds + 1):
            found = sorted(_z_candidates(columns, kinds, y, w, reach))
            if round_no > len(splitters):  # training stops only when nothing splits
                assert not found
                break
            sp = splitters[round_no]
            cond = sp.condition
            node = next(k for k, p in enumerate(nodes) if any(s is sp for s in p.splitters))
            operand = cond.threshold if cond.kind == "numeric_lt" else cond.category
            z = next(c[0] for c in found if c[1:] == (node, cond.feature, operand))
            best = found[0]
            assert z == pytest.approx(best[0], rel=1e-12, abs=1e-300)
            runner_up = found[1][0] if len(found) > 1 else math.inf
            if runner_up > best[0] * (1 + 1e-9):
                assert (node, cond.feature, operand) == best[1:]
                separated += 1
            picked += 1
            col = columns[cond.feature]
            yes = [i for i in reach[node] if not is_missing(col[i])
                   and (col[i] < cond.threshold if cond.kind == "numeric_lt"
                        else col[i] == cond.category)]
            no = [i for i in reach[node] if not is_missing(col[i]) and i not in yes]
            for child, rows in ((sp.yes, yes), (sp.no, no)):
                value = _fsum_value(math.fsum(w[i] for i in rows if y[i] == 1),
                                    math.fsum(w[i] for i in rows if y[i] == 0))
                assert child.value == pytest.approx(value, rel=1e-9, abs=1e-12)
                for i in rows:
                    w[i] *= math.exp(-(1.0 if y[i] else -1.0) * value)
                nodes.append(child)
                reach.append(rows)
    assert picked > 600 and separated > 500


def _first_splitter(model):
    for sp in model.root.splitters:
        if sp.index == 1:
            return sp
    for sp in model.iter_splitters():
        if sp.index == 1:
            return sp
    return None


# ---------------------------------------------------------------------------
# training behaviour
# ---------------------------------------------------------------------------

def test_zero_rounds_balanced_gives_zero_scores():
    m = make_matrix({"x": [1.0, 2.0, 3.0, 4.0]}, labels=[0, 0, 1, 1])
    model = train_adtree(m, n_boost_rounds=0)
    assert model.root.value == 0.0
    assert model.root.splitters == []
    assert all(model.score_row(m.row(i)) == 0.0 for i in range(4))


def test_zero_rounds_imbalanced_scores_prior():
    m = make_matrix({"x": [1.0, 2.0, 3.0, 4.0]}, labels=[1, 1, 1, 0])
    model = train_adtree(m, n_boost_rounds=0)
    assert model.root.value == pytest.approx(0.5 * math.log(4 / 2))


def test_single_round_separable_hand_bookkeeping():
    m = make_matrix({"x": [1.0, 2.0, 3.0, 4.0]}, labels=[0, 0, 1, 1])
    model = train_adtree(m, n_boost_rounds=1)
    sp = model.root.splitters[0]
    assert sp.condition.feature == "x"
    assert sp.condition.threshold == 2.5
    # balanced start: all weights 1; yes side = {two class-0 rows}
    # a_yes = 0.5*ln((0+1)/(2+1)), a_no = 0.5*ln((2+1)/(0+1))
    assert sp.yes.value == pytest.approx(0.5 * math.log(1 / 3))
    assert sp.no.value == pytest.approx(0.5 * math.log(3))
    assert sp.yes.value < 0 < sp.no.value
    assert model.predict_row({"x": 1.0}) == 0
    assert model.predict_row({"x": 4.0}) == 1


def test_round1_matches_z_oracle_exhaustively():
    rows = list(itertools.product([0.0, 1.0], repeat=3))
    columns = {"f0": [r[0] for r in rows], "f1": [r[1] for r in rows],
               "f2": [r[2] for r in rows]}
    checked = balanced_checked = 0
    for labels in itertools.product([0, 1], repeat=8):
        if sum(labels) in (0, 8):
            continue
        m = make_matrix(dict(columns), labels=list(labels))
        model = train_adtree(m, n_boost_rounds=1)
        sp = _first_splitter(model)
        expected = z_oracle_round1(m)
        assert (sp.condition.feature, sp.condition.threshold) == expected
        checked += 1
        if sum(labels) == 4:
            assert (sp.condition.feature,
                    sp.condition.threshold) == z_oracle_round1_counts(m)
            balanced_checked += 1
    assert checked == 254 and balanced_checked == 70


def test_round1_matches_z_oracle_on_random_12row_data():
    rng = np.random.default_rng(21)
    for _ in range(120):
        n = int(rng.integers(4, 13))
        labels = rng.integers(0, 2, n).tolist()
        if sum(labels) in (0, n):
            continue
        m = make_matrix(
            {"a": rng.integers(0, 4, n).astype(float).tolist(),
             "b": rng.integers(0, 2, n).astype(float).tolist()},
            labels=labels)
        model = train_adtree(m, n_boost_rounds=1)
        sp = _first_splitter(model)
        if sp is None:
            assert z_oracle_round1(m) is None
            continue
        assert (sp.condition.feature, sp.condition.threshold) == z_oracle_round1(m)


def test_scores_finite_and_exp_loss_monotone(planted_dataset):
    m = undersample(extract_churn(planted_dataset, standard_windows("churn", "train")), 3)
    model = train_adtree(m, n_boost_rounds=12)
    scores = model.score_matrix(m)
    assert np.isfinite(scores).all()
    totals = model.weight_totals
    assert len(totals) == 13
    for prev, cur in zip(totals, totals[1:]):
        assert cur <= prev * (1 + 1e-12)
    # the boosting objective (total weight = exponential loss) must actually shrink
    assert totals[-1] < totals[0]


def test_exp_loss_monotone_on_random_noise():
    rng = np.random.default_rng(9)
    m = make_matrix(
        {"a": rng.normal(size=80).tolist(), "b": rng.normal(size=80).tolist()},
        labels=rng.integers(0, 2, 80).tolist())
    model = train_adtree(m, n_boost_rounds=8)
    for prev, cur in zip(model.weight_totals, model.weight_totals[1:]):
        assert cur <= prev * (1 + 1e-12)


def test_missing_feature_contributes_nothing():
    m = make_matrix({"x": [1.0, 2.0, 3.0, 4.0], "z": [0.0, 1.0, 0.0, 1.0]},
                    labels=[0, 0, 1, 1])
    model = train_adtree(m, n_boost_rounds=2)
    full = model.score_row({"x": 4.0, "z": 1.0})
    # removing a feature only removes contributions along its paths
    no_x = model.score_row({"z": 1.0})
    assert no_x != full
    assert model.score_row({}) == model.root.value


def test_constant_features_stop_training_early():
    m = make_matrix({"x": [1.0, 1.0, 1.0, 1.0]}, labels=[0, 1, 0, 1])
    model = train_adtree(m, n_boost_rounds=4)
    assert model.splitter_count() == 0


def test_score_matches_path_enumeration_oracle_exactly():
    rng = np.random.default_rng(10)
    pairs = 0
    for _ in range(40):
        model = random_adtree(rng, n_splitters=int(rng.integers(1, 25)))
        for _ in range(25):
            row = random_adtree_row(rng)
            assert model.score_row(row) == path_enumeration_score(model, row)
            pairs += 1
    assert pairs == 1000


def test_matrix_and_row_scoring_agree():
    rng = np.random.default_rng(11)
    m = make_matrix(
        {"a": rng.normal(size=60).round(2).tolist(),
         "b": rng.normal(size=60).round(2).tolist()},
        labels=rng.integers(0, 2, 60).tolist())
    model = train_adtree(m, n_boost_rounds=6)
    batch = model.score_matrix(m)
    for i in range(m.n_rows):
        assert batch[i] == pytest.approx(model.score_row(m.row(i)), abs=1e-9)
        assert batch[i] == path_enumeration_score(model, m.row(i))


def test_training_deterministic(planted_dataset):
    from churnforge.model_io import model_to_dict
    m = undersample(extract_churn(planted_dataset, standard_windows("churn", "train")), 3)
    assert model_to_dict(train_adtree(m, 6)) == model_to_dict(train_adtree(m, 6))


def test_scale_robustness_structure_equivalent():
    """Scaling a numeric feature by a power of two (exact in binary floats)
    rescales thresholds but leaves the boosted structure and prediction
    values identical."""
    rng = np.random.default_rng(13)
    base = {"a": rng.integers(0, 30, 60).astype(float).tolist(),
            "b": rng.integers(0, 10, 60).astype(float).tolist()}
    labels = rng.integers(0, 2, 60).tolist()
    model = train_adtree(make_matrix(dict(base), labels=labels), n_boost_rounds=6)
    for factor in (0.5, 4.0, 1024.0):
        scaled = make_matrix({"a": [v * factor for v in base["a"]], "b": list(base["b"])},
                             labels=labels)
        other = train_adtree(scaled, n_boost_rounds=6)
        for sp, sp2 in zip(model.iter_splitters(), other.iter_splitters()):
            assert sp.index == sp2.index
            assert sp.condition.feature == sp2.condition.feature
            expected = sp.condition.threshold * (factor if sp.condition.feature == "a" else 1.0)
            assert sp2.condition.threshold == expected
            assert sp2.yes.value == sp.yes.value and sp2.no.value == sp.no.value


def test_splitter_features_rank_highly(planted_dataset):
    """Boosted splitters should pick from the same features an independent
    single-split information-gain ranking puts near the top."""
    m = undersample(extract_churn(planted_dataset, standard_windows("churn", "train")), 3)
    model = train_adtree(m, n_boost_rounds=10)
    ranked = [name for name, _ in rank_features(m, 12)]
    top_level = {sp.condition.feature for sp in model.root.splitters}
    assert top_level, "expected at least one top-level splitter"
    assert top_level <= set(ranked)


def _category_matrix(nan=float("nan")):
    loc = ["AJP", "TLS", nan, "AJP", None, "TLS", "AJP", nan, "KLC", "AJP", "TLS", nan]
    return make_matrix(
        {"x": [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0, 8.0], "loc": loc},
        labels=[1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0],
        kinds={"x": "numeric", "loc": "categorical"})


def test_nan_in_categorical_column_is_missing():
    m = _category_matrix()
    model = train_adtree(m, n_boost_rounds=3)
    assert "loc" in {sp.condition.feature for sp in model.iter_splitters()}
    batch = model.score_matrix(m)
    for i in range(m.n_rows):
        row = m.row(i)
        assert model.score_row(row) == path_enumeration_score(model, row) == batch[i]
        if is_missing(row["loc"]):
            assert model.score_row(row) == model.score_row({**row, "loc": None})


def test_matrix_scoring_treats_absent_column_as_missing():
    m = _category_matrix(nan=None)
    model = train_adtree(m, n_boost_rounds=3)
    assert "loc" in {sp.condition.feature for sp in model.iter_splitters()}
    without_loc = make_matrix({"x": list(m.columns["x"])})
    rows = [{"x": v} for v in m.columns["x"]]
    assert model.score_matrix(without_loc).tolist() == [model.score_row(r) for r in rows]
    assert model.score_matrix(without_loc).tolist() == [path_enumeration_score(model, r)
                                                         for r in rows]
