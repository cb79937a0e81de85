"""Split conditions and the shared split-search machinery.

Numeric candidates are midpoints between consecutive distinct sorted
values; categorical candidates are equality tests against each observed
category. Rows with a missing value are routed to the branch that held
more training rows ("left" means the condition holds).

Split search presorts once per fit, as SLIQ (Mehta et al. 1996) does.
TrainingData holds the numeric features as one float64 block and argsorts
each of them once, stably, missing values last. A node's rows in each
feature's sorted order are that fit-wide order filtered stably by the
node's row mask (`node_order`), so no node sorts. `cut_statistics` turns
it into cumulative sums at every (feature, cut) cell with one 2-D cumsum;
Gini (CART and the ensembles), Z (ADTree) and information gain (feature
ranking) all score those cells, and the first maximum of the flattened
(feature, cut) grid is the tie rule's pick.

A bootstrap member is an integer multiplicity vector over the rows of the
fitted matrix, not a resampled copy of it. Every count is a sum of
multiplicities, so Gini scores, min_leaf, missing routing, node sizes and
leaf fractions are the integers a copied sample would give.

Unweighted Gini search is done in exact integer arithmetic (converted to
float by one correctly-rounded division per candidate), so equal-valued
candidates compare exactly equal and the deterministic tie rule applies:
lexicographically smaller feature name first, then smaller threshold or
category. Weighted sums accumulate in value-sorted, stable row order, as a
per-feature scan would, so weighted ties are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import CATEGORICAL, FeatureMatrix, is_missing

LEFT = "left"    # condition holds
RIGHT = "right"  # condition fails

NUMERIC_LT = "numeric_lt"
CATEGORICAL_EQ = "categorical_eq"


@dataclass(frozen=True)
class SplitCondition:
    feature: str
    kind: str  # NUMERIC_LT | CATEGORICAL_EQ
    threshold: float | None = None
    category: str | None = None
    missing_goes: str = RIGHT

    def holds(self, value) -> bool | None:
        """True/False for a present value, None when the value is missing."""
        if is_missing(value):
            return None
        if self.kind == NUMERIC_LT:
            return bool(value < self.threshold)
        return bool(value == self.category)

    def route(self, value) -> bool:
        """Tree routing: True = left branch; missing follows missing_goes."""
        h = self.holds(value)
        if h is None:
            return self.missing_goes == LEFT
        return h

    def describe(self, negate: bool = False) -> str:
        if self.kind == NUMERIC_LT:
            op = ">=" if negate else "<"
            return f"{self.feature} {op} {_fmt_threshold(self.threshold)}"
        op = "!=" if negate else "="
        return f"{self.feature} {op} {self.category}"


def _fmt_threshold(t: float) -> str:
    return repr(float(t))


class TrainingData:
    """Columnar view of a FeatureMatrix for training.

    Numeric features are the rows of the float64 block X (NaN = missing),
    and `order` holds each row's stable argsort. Categorical features are
    int codes into a sorted vocabulary, -1 = missing. Features are listed
    in lexicographic order, which is the tie-break scan order.
    """

    def __init__(self, matrix: FeatureMatrix):
        if matrix.labels is None:
            raise ValueError("training needs a labeled matrix")
        self.y = matrix.labels.astype(np.int64)
        self.n = matrix.n_rows
        self.feature_names = list(matrix.feature_names)
        self.features = sorted(matrix.feature_names)
        self.numeric = [f for f in self.features if matrix.kinds[f] != CATEGORICAL]
        self.column = {f: j for j, f in enumerate(self.numeric)}
        self.X = np.array([matrix.columns[f] for f in self.numeric],
                          dtype=np.float64).reshape(len(self.numeric), self.n)
        self.order = np.argsort(self.X, axis=1, kind="stable")
        self.categories: dict[str, list] = {}
        self.codes: dict[str, np.ndarray] = {}
        for name in self.features:
            if name in self.column:
                continue
            values = matrix.columns[name]
            vocab = sorted({v for v in values if not is_missing(v)})
            lookup = {v: i for i, v in enumerate(vocab)}
            self.categories[name] = vocab
            self.codes[name] = np.array([-1 if is_missing(v) else lookup[v] for v in values],
                                        dtype=np.int64)


# (feature, row) cells scored at once; large nodes are scored in blocks of
# features so that their temporaries stay a few megabytes
_BLOCK_CELLS = 1 << 15


def column_blocks(cols: np.ndarray, n_rows: int) -> list[np.ndarray]:
    """The numeric feature indexes `cols` in runs of at most _BLOCK_CELLS
    cells (at least one feature) for a node of n_rows rows; none when the
    node has fewer than two rows, as then nothing can be cut."""
    if n_rows < 2:
        return []
    step = max(1, _BLOCK_CELLS // n_rows)
    return [cols[i:i + step] for i in range(0, len(cols), step)]


def node_order(td: TrainingData, keep: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """A node's rows (where the row mask `keep` holds) in the sorted order of
    each numeric feature in `cols`, one line per feature: the fit-wide order
    filtered stably, so no node sorts."""
    order = td.order.take(cols, axis=0)
    return order[keep.take(order)].reshape(len(cols), -1)


def cut_statistics(td: TrainingData, order: np.ndarray, amounts: np.ndarray,
                   cols: np.ndarray):
    """Cumulative sums at every candidate cut of a node, for a block of
    features at once.

    `order` is the node_order of the numeric features `cols` and `amounts`
    stacks per-row vectors (one line each, over all rows). Returns
    (values, cuts, sums): values[f, k] is the k-th value of feature f in
    sorted order, cuts[f, k] says that a threshold between positions k and
    k+1 separates two distinct present values (never true at the last
    position), and sums[i, f, k] sums amounts[i] over the present rows among
    the first k+1, so sums[i, f, -1] is its total over the rows where f is
    present.
    """
    values = td.X.take(order + td.n * cols[:, None])
    present = values == values  # NaN is missing
    cuts = np.zeros(values.shape, dtype=bool)
    cuts[:, :-1] = (values[:, :-1] != values[:, 1:]) & present[:, 1:]
    return values, cuts, np.cumsum(amounts.take(order, axis=1) * present, axis=2)


def category_sums(codes: np.ndarray, n_categories: int, amounts: np.ndarray) -> np.ndarray:
    """Per category, the sum of an integer amount over the rows holding it."""
    sums = np.bincount(codes + 1, weights=amounts, minlength=n_categories + 1)
    return sums[1:].astype(np.int64)


def _score_candidates_weighted(waL, wbL, waR, wbR):
    WL = waL + wbL
    WR = waR + wbR
    with np.errstate(divide="ignore", invalid="ignore"):
        score = (waL * waL + wbL * wbL) / WL + (waR * waR + wbR * wbR) / WR
    score[(WL <= 0) | (WR <= 0)] = -np.inf
    return score


class GiniSearch:
    """Best Gini split of a node, for one fit.

    `counts` is each row's multiplicity (a bootstrap draw; ones by default).
    Without `weights` the class sums are exact integer counts; with them
    (AdaBoost) they are weight sums, while min_leaf and missing routing
    still count rows.

    Splits maximize the sum-of-squares purity score: for class sums
    (aL, bL | aR, bR) the weighted child Gini is 1 - score/n with
    score = (aL^2+bL^2)/nL + (aR^2+bR^2)/nR. Counts compute it as a single
    division of exact int64 products, so equal candidates tie exactly.
    Any valid candidate is taken (weighted child Gini never exceeds the
    parent's, and zero-gain splits are what let a deeper tree solve
    XOR-like interactions); None only when no candidate separates the rows
    within the min_leaf limit. Missing rows count toward the branch holding
    more present rows (ties go right), which is also the recorded
    missing_goes direction.
    """

    def __init__(self, td: TrainingData, counts: np.ndarray | None = None,
                 weights: np.ndarray | None = None, min_leaf: int = 1):
        self.td = td
        self.weights = weights
        counts = np.ones(td.n, dtype=np.int64) if counts is None else counts
        mass = counts if weights is None else weights
        # cumulated at the cuts: class-1 mass, rows and, when weighted, all mass
        self.amounts = np.stack([mass * td.y, counts] + ([] if weights is None else [weights]))
        self.min_leaf = min_leaf

    def leaf(self, rows: np.ndarray) -> tuple[int, float, bool]:
        """Training rows at a node, their class-1 fraction (of weight) and
        whether they all hold one class."""
        a, n = self.amounts[:2].take(rows, axis=1).sum(axis=1)
        if self.weights is None:
            return int(n), float(a) / int(n), a == 0 or a == n
        w, y = self.weights[rows], self.td.y[rows]
        return int(n), float(w[y == 1].sum() / w.sum()), y.min() == y.max()

    def best(self, rows: np.ndarray, features: list[str]):
        """(condition, mask over `rows` routed left, score) of the best split
        of the node holding `rows` (ascending) over `features` (in
        lexicographic order), or None."""
        td = self.td
        a_node, n_node = self.amounts[:2].take(rows, axis=1).sum(axis=1)
        best = (-np.inf, None, None, False)  # score, feature, operand, missing goes left
        keep = np.zeros(td.n, dtype=bool)
        keep[rows] = True
        numeric = np.array([td.column[f] for f in features if f in td.column], dtype=np.int64)
        for cols in column_blocks(numeric, len(rows)):
            found = self._numeric(node_order(td, keep, cols), cols, a_node, n_node)
            if found[0] > best[0]:
                best = (found[0], td.numeric[cols[found[1]]]) + found[2:]
        for f in features:
            if f in td.codes:
                score, category, miss_left = self._categorical(rows, f, a_node, n_node)
                if score > best[0] or (score == best[0] > -np.inf and f < best[1]):
                    best = (score, f, category, miss_left)
        score, feature, operand, miss_left = best
        if score == -np.inf:
            return None
        goes = LEFT if miss_left else RIGHT
        if feature in td.column:
            x = td.X[td.column[feature], rows]
            left = (x < operand) | (np.isnan(x) & miss_left)
            cond = SplitCondition(feature, NUMERIC_LT, threshold=operand, missing_goes=goes)
        else:
            codes = td.codes[feature][rows]
            left = (codes == td.categories[feature].index(operand)) | ((codes < 0) & miss_left)
            cond = SplitCondition(feature, CATEGORICAL_EQ, category=str(operand), missing_goes=goes)
        return cond, left, score

    def _numeric(self, order, cols, a_node, n_node):
        """(score, line of `order`, threshold, missing goes left) of the best
        numeric candidate: the first maximum in (feature, threshold) order."""
        values, cuts, sums = cut_statistics(self.td, order, self.amounts, cols)
        if self.weights is None:
            score, miss_left = self._counts_score(sums[0], sums[1], sums[0, :, -1:],
                                                  sums[1, :, -1:], a_node, n_node, cuts)
        else:
            # per-feature present and missing weight totals, each summed as one
            # run in sorted (present) or row (missing) order, as a scan would
            w, wy, y = self.weights[order], self.amounts[0, order], self.td.y[order]
            tot = np.zeros((4, len(order), 1))
            for f, p in enumerate((values == values).sum(axis=1)):
                tail_w, tail_y = w[f, p:], y[f, p:]
                tot[:, f, 0] = (wy[f, :p].sum(), w[f, :p].sum(),
                                tail_w[tail_y == 1].sum(), tail_w[tail_y == 0].sum())
            a_pres, w_pres, a_miss, b_miss = tot
            n_left, n_pres = sums[1], sums[1, :, -1:]
            miss_left = 2 * n_left > n_pres
            waL, cum_w = sums[0], sums[2]
            wbL = cum_w - waL
            waR = a_pres - waL
            wbR = w_pres - cum_w - waR
            score = _score_candidates_weighted(
                waL + np.where(miss_left, a_miss, 0.0), wbL + np.where(miss_left, b_miss, 0.0),
                waR + np.where(miss_left, 0.0, a_miss), wbR + np.where(miss_left, 0.0, b_miss))
            score = self._limit(score, n_left + miss_left * (n_node - n_pres), n_node, cuts)
        f, k = divmod(int(score.argmax()), score.shape[1])
        threshold = (values[f, k] + values[f, k + 1]) / 2.0
        return float(score[f, k]), f, float(threshold), bool(miss_left[f, k])

    def _categorical(self, rows, feature: str, a_node, n_node):
        """(score, category, missing goes left) of the feature's best candidate."""
        td = self.td
        categories = td.categories[feature]
        codes = td.codes[feature][rows]
        class1, counts = self.amounts[:2, rows]
        present = codes >= 0
        n_eq = category_sums(codes, len(categories), counts)
        n_pres = int(counts[present].sum())
        valid = (n_eq > 0) & (n_eq < n_pres)
        if self.weights is None:
            score, miss_left = self._counts_score(
                category_sums(codes, len(categories), class1), n_eq,
                int(class1[present].sum()), n_pres, a_node, n_node, valid)
        else:
            # weight sums over each left branch, missing rows included, in row order
            w, y = self.weights[rows], td.y[rows]
            miss_left = 2 * n_eq > n_pres
            left_sums = np.zeros((2, len(categories)))
            for k in np.nonzero(valid)[0]:
                left = (codes == k) | (~present & miss_left[k])
                wl, yl = w[left], y[left]
                left_sums[:, k] = (wl[yl == 1].sum(), wl[yl == 0].sum())
            wa, wb = float(w[y == 1].sum()), float(w[y == 0].sum())
            score = _score_candidates_weighted(left_sums[0], left_sums[1],
                                               wa - left_sums[0], wb - left_sums[1])
            score = self._limit(score, n_eq + miss_left * (n_node - n_pres), n_node, valid)
        if not valid.any():
            return -np.inf, None, False
        k = int(score.argmax())
        return float(score[k]), categories[k], bool(miss_left[k])

    def _counts_score(self, a_pres_left, n_pres_left, a_pres, n_pres, a_node, n_node, valid):
        """Integer-count scores of candidates given their class-1 and row
        counts among present rows, and whether missing rows go left."""
        miss_left = 2 * n_pres_left > n_pres
        nL = n_pres_left + miss_left * (n_node - n_pres)
        aL = a_pres_left + miss_left * (a_node - a_pres)
        nR = n_node - nL
        aR = a_node - aL
        bL = nL - aL
        bR = nR - aR
        score = ((aL * aL + bL * bL) * nR + (aR * aR + bR * bR) * nL) / np.maximum(nL * nR, 1)
        return self._limit(score, nL, n_node, valid), miss_left

    def _limit(self, score, n_left, n_node, valid):
        """-inf for candidates that separate nothing or break min_leaf (a
        valid candidate has at least one row on each side)."""
        if self.min_leaf > 1:
            valid = valid & (n_left >= self.min_leaf) & (n_node - n_left >= self.min_leaf)
        return np.where(valid, score, -np.inf)
