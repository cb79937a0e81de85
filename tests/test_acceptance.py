"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The suite is seeded and
self-contained; the heaviest criterion (planted-signal recovery) budgets
two minutes and typically finishes well under one.
"""

import itertools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import churnforge as cf
from churnforge.generator import _build_service
from churnforge.learners.ensembles import _train_member
from churnforge.model_io import model_to_dict
from churnforge.months import Month, month_range
from churnforge.tasks import build_config, cmd_compare, cmd_extract, cmd_generate
from conftest import make_matrix, random_adtree, random_adtree_row
from test_adtree import path_enumeration_score, z_oracle_round1
from test_trees import gini_oracle_stump

REFERENCE = os.path.join(os.path.dirname(__file__), "data", "consumer_churn_reference.adt")

TREE_LEARNERS = ("stump", "cart", "adtree", "bagging", "forest", "adaboost")


class _report:
    def __init__(self, number, description):
        self.line = f"ACCEPTANCE {number}"
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n{self.line} {status}: {self.description}")
        return False


# ---------------------------------------------------------------------------
# 1. sampler exactness
# ---------------------------------------------------------------------------

def test_criterion_1_sampler_exactness():
    with _report(1, "sampler exactness over 200 random matrices in < 5 s"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for trial in range(200):
            total = int(rng.integers(10, 2001))
            ratio = float(rng.uniform(1.0, 50.0))
            n_min = max(1, int(round(total / (1.0 + ratio))))
            n_maj = total - n_min
            if n_maj < n_min:
                n_min, n_maj = n_maj, n_min
            n_min = max(1, n_min)
            labels = np.array([1] * n_min + [0] * n_maj)
            rng.shuffle(labels)
            m = make_matrix({"x": rng.normal(size=len(labels)).tolist()},
                            labels=labels.tolist())
            under = cf.undersample(m, seed=trial)
            over = cf.oversample(m, seed=trial)
            for out in (under, over):
                ones = int(out.labels.sum())
                assert ones == out.n_rows - ones, "class counts must balance exactly"
            counts = {}
            for i in np.nonzero(over.labels == 1)[0]:
                counts[over.billing_ids[i]] = counts.get(over.billing_ids[i], 0) + 1
            assert max(counts.values()) - min(counts.values()) <= 1
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"sampler sweep took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. oracle equivalence for learners
# ---------------------------------------------------------------------------

def _binary_datasets():
    rows8 = list(itertools.product([0.0, 1.0], repeat=3))
    base = {"f0": [r[0] for r in rows8], "f1": [r[1] for r in rows8],
            "f2": [r[2] for r in rows8]}
    for labels in itertools.product([0, 1], repeat=8):
        if sum(labels) in (0, 8):
            continue
        yield make_matrix(dict(base), labels=list(labels))
    rng = np.random.default_rng(102)
    for _ in range(40):
        n = int(rng.integers(9, 13))
        labels = rng.integers(0, 2, n).tolist()
        if sum(labels) in (0, n):
            continue
        yield make_matrix(
            {"f0": rng.integers(0, 2, n).astype(float).tolist(),
             "f1": rng.integers(0, 2, n).astype(float).tolist(),
             "f2": rng.integers(0, 2, n).astype(float).tolist()},
            labels=labels)


def test_criterion_2_learner_oracles_exact():
    with _report(2, "stump and ADTree round-1 choices match brute-force oracles exactly"):
        for m in _binary_datasets():
            stump = cf.train_stump(m)
            expected = gini_oracle_stump(m)
            if expected is None:
                assert stump.root.is_leaf
            else:
                cond = stump.root.condition
                assert (cond.feature, cond.threshold) == expected
            adt = cf.train_adtree(m, n_boost_rounds=1)
            z_expected = z_oracle_round1(m)
            splitters = list(adt.iter_splitters())
            if z_expected is None:
                assert not splitters
            else:
                cond = splitters[0].condition
                assert (cond.feature, cond.threshold) == z_expected


# ---------------------------------------------------------------------------
# 3. ADTree scoring
# ---------------------------------------------------------------------------

def test_criterion_3_adtree_scoring():
    with _report(3, "reference model scores 2.204 and oracle agrees on 1000 pairs"):
        model = cf.parse_adtree(Path(REFERENCE).read_text(encoding="utf-8"), REFERENCE)
        row = {"UL1110": 0.0, "OUTSTANDING_avg": 500.0, "CREDIT_ADJ_avg": -10.0}
        assert abs(model.score_row(row) - 2.204) <= 1e-9
        rng = np.random.default_rng(103)
        pairs = 0
        for _ in range(40):
            m = random_adtree(rng, n_splitters=int(rng.integers(1, 25)))
            for _ in range(25):
                r = random_adtree_row(rng)
                assert m.score_row(r) == path_enumeration_score(m, r)
                pairs += 1
        assert pairs == 1000


# ---------------------------------------------------------------------------
# 4. window correctness
# ---------------------------------------------------------------------------

def test_criterion_4_window_correctness():
    with _report(4, "per-subscriber win-back windows, no overlap, no label leakage"):
        ds = cf.generate(cf.GeneratorConfig(seed=11, n_consumers=8000, n_smes=0,
                                            churn_rate=0.25, winback_rate=0.3))
        lo, hi = Month(2011, 4), Month(2012, 1)
        labels = tuple(month_range(Month(2012, 2), Month(2012, 4)))
        matrix = cf.extract_winback(ds, (lo, hi), labels)
        assert matrix.n_rows >= 1000, f"need 1000 churners, got {matrix.n_rows}"

        # brute-force recomputation of each row's window months
        usage = {(r.billing_id, r.month): r for r in ds.usage}
        term = {}
        for s in ds.subscribers:
            if s.termination_date is None:
                continue
            tm = Month.of(s.termination_date)
            if lo <= tm <= hi:
                cur = term.get(s.billing_id)
                if cur is None or (tm, s.service_id) < cur:
                    term[s.billing_id] = (tm, s.service_id)
        assert set(matrix.billing_ids) == set(term)
        label_set = set(labels)
        for i, b in enumerate(matrix.billing_ids):
            tm = term[b][0]
            months = [tm.plus(-3), tm.plus(-2), tm.plus(-1)]
            assert not (set(months) & label_set), "feature window overlaps labels"
            for j, mm in enumerate(months, start=1):
                u = usage.get((b, mm))
                assert matrix.columns[f"DL_M{j}"][i] == (u.download_mb if u else 0.0)
                assert matrix.columns[f"UL_M{j}"][i] == (u.upload_mb if u else 0.0)

        # leakage: censoring every label-window table row changes nothing
        censored = cf.TelcoDataset(
            subscribers=ds.subscribers,
            billing=[r for r in ds.billing if r.month not in label_set],
            usage=[r for r in ds.usage if r.month not in label_set],
            service_requests=[r for r in ds.service_requests
                              if Month.of(r.request_date) not in label_set])
        assert cf.extract_winback(censored, (lo, hi), labels) == matrix


# ---------------------------------------------------------------------------
# 5. planted-signal recovery
# ---------------------------------------------------------------------------

def test_criterion_5_planted_signal_recovery():
    with _report(5, "pipeline recovers planted signal: Prec_1 >= 70, usage features rank"):
        ds = cf.generate(cf.GeneratorConfig(seed=42, n_consumers=20000, n_smes=0,
                                            churn_rate=0.08, signal_strength=0.8))
        w_train = cf.standard_windows("churn", "train")
        w_test = cf.standard_windows("churn", "test")
        train_m = cf.extract_churn(ds, w_train)
        test_m = cf.extract_churn(ds, w_test, naming_months=w_train.feature_months)

        start = time.perf_counter()
        balanced = cf.undersample(train_m, 43)
        specs = cf.PipelineConfig(seed=42).learner_specs()
        report = cf.compare_learners(balanced, specs, k=10, seed=44)
        ranked_by_cv = sorted(
            (name for name in TREE_LEARNERS if name in report.folds),
            key=lambda n: -(report.pooled(n).prec_1 or 0.0))
        oversampled = cf.oversample(train_m, 45)
        holdout = cf.undersample(test_m, 46)
        best_prec = None
        for name in ranked_by_cv:
            model = cf.train(oversampled, cf.PipelineConfig(seed=42).spec_for(name))
            _, predicted = cf.predict_matrix(model, holdout)
            cm = cf.confusion(holdout.labels, predicted)
            best_prec = cm.prec_1 if best_prec is None else max(best_prec, cm.prec_1)
            if cm.prec_1 is not None and cm.prec_1 >= 70.0:
                break
        elapsed = time.perf_counter() - start
        assert best_prec is not None and best_prec >= 70.0, f"best Prec_1 {best_prec}"
        assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s"

        top10 = [name for name, _ in cf.rank_features(train_m, 10)]
        usage_named = [n for n in top10
                       if n.startswith("DL") or n.startswith("UL") or n.startswith("3M_")]
        assert len(usage_named) >= 5, f"usage features in top 10: {usage_named}"


# ---------------------------------------------------------------------------
# 6. cross-validation partition properties
# ---------------------------------------------------------------------------

def test_criterion_6_kfold_partition_properties():
    with _report(6, "stratified 10-fold on 10k rows: exact partition and pooling"):
        rng = np.random.default_rng(106)
        labels = (rng.random(10000) < 0.3).astype(np.int8)
        folds = cf.stratified_kfold(labels, 10, seed=7)
        seen = np.concatenate([test for _, test in folds])
        assert len(seen) == 10000 and len(set(seen.tolist())) == 10000
        n1 = int(labels.sum())
        for train_idx, test_idx in folds:
            assert not set(train_idx.tolist()) & set(test_idx.tolist())
            ones = int(labels[test_idx].sum())
            assert abs(ones - n1 / 10) < 1
            zeros = len(test_idx) - ones
            assert abs(zeros - (10000 - n1) / 10) < 1
        # pooled confusion equals the confusion over all rows for a fixed rule
        predicted = (rng.random(10000) < 0.5).astype(np.int8)
        total = cf.ConfusionMatrix()
        for _, test_idx in folds:
            total = total + cf.confusion(labels[test_idx], predicted[test_idx])
        whole = cf.confusion(labels, predicted)
        assert (total.tp, total.fp, total.tn, total.fn) == \
            (whole.tp, whole.fp, whole.tn, whole.fn)


# ---------------------------------------------------------------------------
# 7. determinism
# ---------------------------------------------------------------------------

def _run_pipeline(tmpdir: str, tag: str) -> dict[str, bytes]:
    cfg = build_config({
        "data_dir": os.path.join(tmpdir, f"data_{tag}"),
        "out_dir": os.path.join(tmpdir, f"out_{tag}"),
        "seed": "7", "k_folds": "5", "learners": "stump,cart,bayes",
        "n_consumers": "600", "n_smes": "80", "churn_rate": "0.25",
    })
    os.makedirs(cfg.out_dir, exist_ok=True)
    cmd_generate(cfg)
    cmd_extract(cfg)
    cmd_compare(cfg)
    out = {}
    for base, _, files in os.walk(tmpdir):
        for name in files:
            if base.endswith(f"_{tag}"):
                path = os.path.join(base, name)
                out[os.path.relpath(path, base)] = Path(path).read_bytes()
    return out


def test_criterion_7_determinism(tmp_path):
    with _report(7, "byte-identical reruns; scheduling-order independent streams"):
        a = _run_pipeline(str(tmp_path), "a")
        b = _run_pipeline(str(tmp_path), "b")
        assert a.keys() == b.keys() and a == b

        # per-subscriber streams: threaded generation equals sequential
        gcfg = cf.GeneratorConfig(seed=3, n_consumers=200, n_smes=0, churn_rate=0.2)
        term = frozenset(range(0, 200, 5))
        back = frozenset(range(0, 200, 25))
        sequential = [_build_service(gcfg, "consumer", i, term, back) for i in range(200)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(
                lambda i: _build_service(gcfg, "consumer", i, term, back), range(200)))
        assert all(x.record == y.record and x.dl == y.dl and x.charge == y.charge
                   for x, y in zip(sequential, threaded))

        # ensemble member streams: member index alone fixes the member
        m = make_matrix({"x": np.linspace(0, 1, 40).tolist(),
                         "y": (np.linspace(0, 1, 40) ** 2).tolist()},
                        labels=(np.arange(40) % 2).tolist())
        fwd = [_train_member(m, seed=5, index=i, bootstrap=True, max_depth=3,
                             min_leaf=1, features_per_split=None) for i in range(8)]
        rev = [_train_member(m, seed=5, index=i, bootstrap=True, max_depth=3,
                             min_leaf=1, features_per_split=None)
               for i in reversed(range(8))]
        assert [model_to_dict(t) for t in fwd] == \
            [model_to_dict(t) for t in reversed(rev)]

        # every training routine: identical models on identical input
        rng = np.random.default_rng(77)
        data = make_matrix(
            {"a": rng.normal(size=120).round(3).tolist(),
             "b": rng.integers(0, 4, 120).astype(float).tolist()},
            labels=rng.integers(0, 2, 120).tolist())
        for algo in cf.ALGORITHMS:
            spec = cf.LearnerSpec(algorithm=algo, seed=9, n_trees=5, n_boost_rounds=4)
            m1 = cf.train(data, spec)
            m2 = cf.train(data, spec)
            assert model_to_dict(m1) == model_to_dict(m2), algo


# ---------------------------------------------------------------------------
# 8. round trips
# ---------------------------------------------------------------------------

def test_criterion_8_round_trips(tmp_path):
    with _report(8, "dataset CSV and every model format round-trip exactly"):
        ds = cf.generate(cf.GeneratorConfig(seed=8, n_consumers=10000, n_smes=700,
                                            churn_rate=0.1))
        cf.write_tables(ds, str(tmp_path / "tables"))
        assert cf.read_tables(str(tmp_path / "tables")) == ds

        rng = np.random.default_rng(108)
        for _ in range(20):
            model = random_adtree(rng, n_splitters=int(rng.integers(0, 21)))
            assert cf.parse_adtree(cf.print_adtree(model)) == model

        m = make_matrix(
            {"a": rng.normal(size=150).round(3).tolist(),
             "loc": [["AJP", "TLS", "KLC"][int(k)] for k in rng.integers(0, 3, 150)]},
            labels=rng.integers(0, 2, 150).tolist())
        trained = {
            "cart": cf.train_cart(m, max_depth=5),
            "bayes": cf.train_bayes(m),
            "bagging": cf.train_bagging(m, n_trees=4, seed=2),
            "forest": cf.train_forest(m, n_trees=4, seed=2),
            "adaboost": cf.train_adaboost(m, n_boost_rounds=4),
        }
        for name, model in trained.items():
            path = str(tmp_path / f"{name}.cfm")
            cf.save_model(model, path)
            loaded = cf.load_model(path)
            np.testing.assert_array_equal(loaded.score_matrix(m), model.score_matrix(m),
                                          err_msg=name)
        # matrix flat file round-trip
        cf.write_matrix(m, str(tmp_path / "m.csv"))
        assert cf.read_matrix(str(tmp_path / "m.csv")) == m
