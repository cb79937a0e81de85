import hashlib
import json

import numpy as np
import pytest

from churnforge import LearnerSpec, rank_features, train
from churnforge.features import is_missing
from churnforge.learners.conditions import GiniSearch, TrainingData, _run_sums
from churnforge.model_io import model_to_dict
from conftest import make_matrix

# sha256 of the canonical JSON of model_to_dict for each learner on
# _golden_matrix(). numpy does not promise identical Generator streams
# across releases, so the digests hold only on the numpy they were taken with.
GOLDEN_NUMPY = "2.4"
GOLDEN_DIGESTS = {
    "adaboost": "bb8c716cfac55b81e58ecdb3ad12814359a7fe2f9c9af308b215043a7566e502",
    "adaboost_cart": "baa734932508da90ab5e005a62859ed4805810cf01753655e7ed72f08e01e6c6",
    "adtree": "d70e2c9225362b92e7700134cb21e87af6b0f8f794a68e65ef91b3b2762aacd1",
    "bagging": "93f2200ba9083b95b2ba0d8dbbc8dc838fb3404a2e0170f3aec75ec36cb815d0",
    "bayes": "993d062e8c452c48fbf994f70b95606c115d17e11705df0745b7aa3d0094be8a",
    "cart": "6b82ea1c9b4be669c0a5fc7a320f8eb8ba52e565871f08320b1b7f0164ec0445",
    "forest": "f850b6e6542ba481367af2a9cfefd3e75013a744f8a254a2a40aa4e3bc4aa792",
    "forest_fps": "b55187c7d10990f6d356c1aaab3573f8871739cc942a84b0b7615d7b6aa4d91b",
    "stump": "1b6ace27780e0f1fb8f046ce20a012ba69f61d80c43245cd76b167760731347e",
}

GOLDEN_SPECS = {
    "stump": LearnerSpec("stump"),
    "cart": LearnerSpec("cart", max_depth=6, min_leaf=2),
    "adtree": LearnerSpec("adtree", n_boost_rounds=10),
    "bayes": LearnerSpec("bayes"),
    "bagging": LearnerSpec("bagging", n_trees=8, max_depth=6, min_leaf=2, seed=3),
    "forest": LearnerSpec("forest", n_trees=8, max_depth=8, seed=4),
    "adaboost": LearnerSpec("adaboost", n_boost_rounds=8, base_algorithm="stump"),
    "adaboost_cart": LearnerSpec("adaboost", name="adaboost_cart", n_boost_rounds=5,
                                 base_algorithm="cart", max_depth=3, min_leaf=2),
    "forest_fps": LearnerSpec("forest", name="forest_fps", n_trees=6, max_depth=5,
                              features_per_split=3, seed=5),
}


def _golden_matrix(n=240):
    """Mixed-kind matrix with ties, missing values and a planted signal."""
    rng = np.random.default_rng(20121023)
    signal = rng.normal(size=n)
    labels = (signal + rng.normal(scale=0.8, size=n) > 0.2).astype(int)
    cols = {
        "amount": (signal * 3).round(1),
        "count": rng.integers(0, 6, n).astype(float),
        "flat": np.full(n, 2.5),
        "noise": rng.normal(size=n).round(2),
        "tenure": (rng.integers(0, 40, n) + (signal > 0) * 5).astype(float),
    }
    for name, share in (("amount", 0.1), ("noise", 0.05), ("tenure", 0.2)):
        cols[name][rng.random(n) < share] = np.nan
    loc = np.array(["AJP", "KLC", "TLS", None], dtype=object)[
        np.where(signal > 1.0, 0, rng.integers(1, 4, n))]
    columns = {k: [None if np.isnan(v) else float(v) for v in c] for k, c in cols.items()}
    columns["loc"] = list(loc)
    kinds = {k: "numeric" for k in cols}
    kinds["loc"] = "categorical"
    return make_matrix(columns, labels=labels.tolist(), kinds=kinds)


def _digest(model) -> str:
    text = json.dumps(model_to_dict(model), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.skipif(".".join(np.__version__.split(".")[:2]) != GOLDEN_NUMPY,
                    reason=f"golden digests were captured with numpy {GOLDEN_NUMPY}")
@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_golden_model_digests(name):
    assert _digest(train(_golden_matrix(), GOLDEN_SPECS[name])) == GOLDEN_DIGESTS[name]


# ---------------------------------------------------------------------------
# the shared split search against a brute-force per-threshold reference
# ---------------------------------------------------------------------------

def _reference_split(matrix, counts, weights, min_leaf, rows):
    """Scan every (feature, threshold or category) candidate one at a time,
    row by row; the first maximum in (feature name, candidate) order wins."""
    y = [int(v) for v in matrix.labels]
    mass = weights if weights is not None else counts
    best = None  # (score, feature, operand, missing_goes)
    for feature in sorted(matrix.feature_names):
        col = list(matrix.columns[feature])
        missing = {i for i in rows if is_missing(col[i])}
        present = [i for i in rows if i not in missing]
        if matrix.kinds[feature] == "numeric":
            values = sorted({col[i] for i in present})
            candidates = [((lo + hi) / 2.0, lambda v, t=(lo + hi) / 2.0: v < t)
                          for lo, hi in zip(values, values[1:])]
        else:
            candidates = [(c, lambda v, c=c: v == c) for c in sorted({col[i] for i in present})]
        for operand, holds in candidates:
            n_yes = sum(int(counts[i]) for i in present if holds(col[i]))
            n_no = sum(int(counts[i]) for i in present if not holds(col[i]))
            if n_yes == 0 or n_no == 0:
                continue
            miss_left = n_yes > n_no
            left = [i for i in rows if (i in missing and miss_left)
                    or (i not in missing and holds(col[i]))]
            right = [i for i in rows if i not in left]
            nL = sum(int(counts[i]) for i in left)
            nR = sum(int(counts[i]) for i in right)
            if nL < min_leaf or nR < min_leaf:
                continue
            aL = sum(mass[i] for i in left if y[i] == 1)
            bL = sum(mass[i] for i in left if y[i] == 0)
            aR = sum(mass[i] for i in right if y[i] == 1)
            bR = sum(mass[i] for i in right if y[i] == 0)
            if weights is None:
                aL, bL, aR, bR = int(aL), int(bL), int(aR), int(bR)
                score = (float((aL * aL + bL * bL) * nR + (aR * aR + bR * bR) * nL)
                         / float(nL * nR))
            else:
                score = (aL * aL + bL * bL) / (aL + bL) + (aR * aR + bR * bR) / (aR + bR)
            if best is None or score > best[0]:
                best = (score, feature, operand, "left" if miss_left else "right")
    return None if best is None else (best[1], best[2], best[3], best[0])


def _random_matrix(rng, n):
    """Numeric columns with duplicates and NaN (sometimes two identical
    ones, so features tie) and a categorical column whose name sorts
    before, between or after them."""
    cols, kinds = {}, {}
    for j in range(int(rng.integers(1, 4))):
        x = rng.integers(0, int(rng.integers(2, 7)), n).astype(float)
        x[rng.random(n) < rng.choice([0.0, 0.2, 0.6])] = np.nan
        cols[f"x{j}"] = [None if np.isnan(v) else float(v) for v in x]
        kinds[f"x{j}"] = "numeric"
    if rng.random() < 0.3:
        cols["x9"], kinds["x9"] = list(cols["x0"]), "numeric"
    if rng.random() < 0.6:
        name = str(rng.choice(["a_loc", "x1_loc", "z_loc"]))
        cats = np.array(["A", "B", "C", None], dtype=object)
        cols[name], kinds[name] = list(cats[rng.integers(0, 4, n)]), "categorical"
    return make_matrix(cols, labels=rng.integers(0, 2, n).tolist(), kinds=kinds)


def test_split_search_matches_brute_force_reference():
    rng = np.random.default_rng(2012)
    compared = 0
    for trial in range(400):
        n = int(rng.integers(2, 30))
        matrix = _random_matrix(rng, n)
        td = TrainingData(matrix)
        mode = trial % 3
        counts = (rng.integers(0, 4, n) if mode == 1 else np.ones(n, dtype=np.int64))
        if counts.sum() == 0:
            continue
        # dyadic weights keep every weight sum exact in any order
        weights = rng.integers(1, 9, n) / 8.0 if mode == 2 else None
        min_leaf = int(rng.integers(1, 4))
        rows = np.flatnonzero(counts)
        if rng.random() < 0.5:
            rows = np.sort(rng.choice(rows, size=max(1, len(rows) // 2), replace=False))
        search = GiniSearch(td, counts=counts if mode == 1 else None, weights=weights,
                            min_leaf=min_leaf)
        found = search.split([search.node(0, rows)], [np.arange(len(td.features))])[0]
        got = None
        if found is not None:
            cond, _, score = found[:3]
            operand = cond.threshold if cond.kind == "numeric_lt" else cond.category
            got = (cond.feature, operand, cond.missing_goes, score)
        assert got == _reference_split(matrix, counts, weights, min_leaf, list(rows))
        compared += got is not None
    assert compared > 200


def test_run_sums_equal_np_sum_of_each_run():
    """Weight totals and category sums keep np.sum's pairwise association
    however runs are batched, so near-ties resolve as they always have."""
    rng = np.random.default_rng(8)
    for trial in range(300):
        lengths = rng.integers(0, int(rng.choice([9, 140, 700])), int(rng.integers(1, 12)))
        if trial % 60 == 0:
            lengths[0] = int(rng.integers(5000, 20000))
        x = rng.random(int(lengths.sum())) * float(rng.choice([1e-3, 1.0, 1e5]))
        starts = lengths.cumsum() - lengths
        expected = [x[s:s + m].sum() for s, m in zip(starts, lengths)]
        assert _run_sums(x, lengths).tolist() == expected


# ---------------------------------------------------------------------------
# a corpus pin for the weighted learners and the ranking
# ---------------------------------------------------------------------------

# sha256 over model_to_dict of AdaBoost (stump and cart bases) and ADTree and
# the repr of every rank_features gain, on _corpus_matrix() cases. Boosting
# weights are not dyadic, so the digest moves if any float sum of the split
# search changes its association; it holds on GOLDEN_NUMPY only.
CORPUS_DIGEST = "683c423d5dbcf7f6ab155c34b1be51cbcf8059d0ae146b360ed547e007ac5316"
CORPUS_SPECS = (
    LearnerSpec("adaboost", n_boost_rounds=4, base_algorithm="stump"),
    LearnerSpec("adaboost", n_boost_rounds=3, base_algorithm="cart", max_depth=3, min_leaf=2),
    LearnerSpec("adtree", n_boost_rounds=6),
)


def _corpus_matrix(rng):
    """30-300 rows: rounded numeric columns (ties) with NaN, sometimes one
    a copy of another, and a categorical column with None and NaN. Sometimes
    a numeric column splits as one category does, so a numeric and a
    categorical candidate tie up to how their sums associate."""
    n = int(rng.integers(30, 301))
    signal = rng.normal(size=n)
    labels = (signal + rng.normal(size=n) > rng.normal(scale=0.5)).astype(int)
    cols, kinds = {}, {}
    for j in range(int(rng.integers(1, 5))):
        x = (signal * rng.uniform(0.0, 2.0) + rng.normal(size=n)).round(int(rng.integers(0, 3)))
        x[rng.random(n) < rng.choice([0.0, 0.1, 0.4])] = np.nan
        cols[f"x{j}"] = [None if np.isnan(v) else float(v) for v in x]
        kinds[f"x{j}"] = "numeric"
    if rng.random() < 0.2:
        cols["x9"], kinds["x9"] = list(cols["x0"]), "numeric"
    cats = np.array(["A", "B", "C", "D", None, float("nan")], dtype=object)
    codes = np.where(signal > 1.0, 0, rng.integers(1, 6, n))
    name = str(rng.choice(["a_loc", "x1_loc", "z_loc"]))
    cols[name], kinds[name] = list(cats[codes]), "categorical"
    if rng.random() < 0.5:  # a numeric cut that splits the rows as `== "A"` does
        cols["x8"] = [None if c > 3 else float(c == 0) for c in codes]
        kinds["x8"] = "numeric"
    return make_matrix(cols, labels=labels.tolist(), kinds=kinds)


@pytest.mark.skipif(".".join(np.__version__.split(".")[:2]) != GOLDEN_NUMPY,
                    reason=f"golden digests were captured with numpy {GOLDEN_NUMPY}")
def test_weighted_learners_and_ranking_corpus_digest():
    rng = np.random.default_rng(1999)
    digest = hashlib.sha256()
    for _ in range(150):
        matrix = _corpus_matrix(rng)
        for spec in CORPUS_SPECS:
            digest.update(json.dumps(model_to_dict(train(matrix, spec)), sort_keys=True).encode())
        digest.update(repr(rank_features(matrix)).encode())
    assert digest.hexdigest() == CORPUS_DIGEST
