"""Split conditions, the row-scoring path every model family shares, and
the shared split-search machinery.

Numeric candidates are midpoints between consecutive distinct sorted
values; categorical candidates are equality tests against each observed
category. Rows with a missing value are routed to the branch that held
more training rows ("left" means the condition holds).

Split search presorts once per fit, as SLIQ (Mehta et al. 1996) does.
TrainingData holds every feature as one float64 row (categories as codes)
and argsorts each row once, stably, missing values last. A node's rows in
a feature's sorted order are that fit-wide order filtered stably by the
node's row mask. For AdaBoost's weighted Gini search, ADTree's Z search
and feature ranking, `node_order` filters it and `cut_statistics` turns it
into cumulative sums at every (feature, cut) cell with one 2-D cumsum.

The unweighted Gini search (stumps, CART, bagging and forests) scores the
open nodes of every member of a fit at once, as SLIQ scores all open
leaves in one pass over each attribute list (`GiniSearch.split`). A line
is one (node, feature) pair. The batch sorts its lines' cells by (line,
presort position), which gives the order filtering the fit-wide presort
would, at a cost that follows the node sizes. Lines are scored in chunks
of about _BLOCK_CELLS cells with prefix sums that restart at each line, so
the temporaries stay a few megabytes. Each node takes the first maximum in
(feature, cut) order, the tie rule's pick.

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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..features import CATEGORICAL, NUMERIC, FeatureMatrix, is_missing

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

    @property
    def feature_kind(self) -> str:
        """The kind of column the condition reads."""
        return NUMERIC if self.kind == NUMERIC_LT else CATEGORICAL

    def masks(self, column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(yes, present) over a column: whether the condition holds for
        each value, and whether the value is present. None and NaN are
        missing, as `is_missing` says, and a missing value is never yes.
        Trees send a missing value down `missing_goes`; ADTrees enter
        neither branch."""
        if self.kind == NUMERIC_LT:
            return column < self.threshold, ~np.isnan(column)
        return (np.array([v == self.category for v in column], dtype=bool),
                np.array([not is_missing(v) for v in column], dtype=bool))


class RowScoring:
    """score_row and predict_row for every model family. A model scores one
    feature dict by running its own ``score_matrix`` on a one-row matrix of
    the features it reads, typed by ``features()`` ({feature: kind}), so a
    row scores with the bits its batch gives it; a feature the dict lacks
    is missing. The class is 1 only when the score is strictly above the
    family's ``threshold``, so exact ties fall to class 0."""

    threshold = 0.5

    def score_row(self, row: dict) -> float:
        kinds = self.features()
        columns = {f: np.array([row.get(f)], dtype=np.float64 if kind == NUMERIC else object)
                   for f, kind in kinds.items()}
        return float(self.score_matrix(FeatureMatrix([""], list(kinds), kinds, columns))[0])

    def predict_row(self, row: dict) -> int:
        return int(self.score_row(row) > self.threshold)


class TrainingData:
    """Columnar view of a FeatureMatrix for training.

    Features are listed in lexicographic order, which is the tie-break scan
    order. `values` holds every feature as one float64 row, NaN = missing:
    the numeric features first (their block is `X`), then the categorical
    ones as int codes into a sorted vocabulary (`codes`, -1 = missing).
    `order` holds each row's stable argsort (missing values last) and
    `position` each cell's index into the flattened `order`.
    """

    def __init__(self, matrix: FeatureMatrix):
        if matrix.labels is None:
            raise ValueError("training needs a labeled matrix")
        self.y = matrix.labels.astype(np.int64)
        self.n = n = matrix.n_rows
        self.feature_names = list(matrix.feature_names)
        self.features = sorted(matrix.feature_names)
        self.numeric = [f for f in self.features if matrix.kinds[f] != CATEGORICAL]
        self.column = {f: j for j, f in enumerate(self.numeric)}
        self.categories: dict[str, list] = {}
        code_rows = []
        for name in self.features:
            if name in self.column:
                continue
            values = matrix.columns[name]
            vocab = sorted({v for v in values if not is_missing(v)})
            lookup = {v: i for i, v in enumerate(vocab)}
            self.categories[name] = vocab
            code_rows.append([-1 if is_missing(v) else lookup[v] for v in values])
        codes = np.array(code_rows, dtype=np.int64).reshape(len(code_rows), n)
        self.codes = dict(zip(self.categories, codes))
        self.values = np.empty((len(self.features), n))
        self.X = self.values[:len(self.numeric)]
        for j, f in enumerate(self.numeric):
            self.X[j] = matrix.columns[f]
        self.values[len(self.numeric):] = np.where(codes < 0, np.nan, codes)
        names = self.numeric + list(self.categories)
        self.value_row = np.array([names.index(f) for f in self.features], dtype=np.int64)
        self.is_numeric = self.value_row < len(self.numeric)
        self.order = np.argsort(self.values, axis=1, kind="stable")

    @cached_property
    def position(self) -> np.ndarray:
        """Each (feature, row) cell's index into the flattened presort;
        only the unweighted Gini search reads it."""
        position = np.empty(self.order.size, dtype=np.int64)
        position[(self.order + np.arange(len(self.order))[:, None] * self.n).ravel()] = \
            np.arange(self.order.size)
        return position.reshape(self.order.shape)


# (line, row) cells scored at once; large nodes are scored in blocks of
# lines so that their temporaries stay a few megabytes
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


# A packed amount holds a row's multiplicity above bit _PACK and its class-1
# multiplicity below, so one gather and one cumsum carry both counts; no
# node holds 2**_PACK rows, so the halves never carry into each other.
_PACK = 32
_LOW = (1 << _PACK) - 1

class Node(NamedTuple):
    """An open node of one member's tree: its rows (ascending, all with a
    positive count), their number counted with multiplicity, its class-1
    fraction (of weight), whether it holds one class, and its class-1 count
    (0 when weighted)."""
    member: int
    rows: np.ndarray
    n: int
    p1: float
    pure: bool
    a: int = 0


class _Batch:
    """The open nodes scored in one step, their rows concatenated."""

    def __init__(self, nodes: list[Node]):
        self.lengths = np.array([len(nd.rows) for nd in nodes], dtype=np.int64)
        self.starts = self.lengths.cumsum() - self.lengths
        self.rows = np.concatenate([nd.rows for nd in nodes])
        self.member = np.array([nd.member for nd in nodes], dtype=np.int64)
        self.n = np.array([nd.n for nd in nodes], dtype=np.int64)
        # the nodes' rows and class-1 rows, packed
        self.packed = (self.n << _PACK) | np.array([nd.a for nd in nodes], dtype=np.int64)

    def line_rows(self, node: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The rows of each line's node (m = their numbers), concatenated."""
        return self.rows.take(_ranges(self.starts[node], m))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """start, start + 1, ..., start + length - 1 for each pair, concatenated."""
    ends = lengths.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) + (starts - ends + lengths).repeat(lengths)


def _chunks(cells: np.ndarray):
    """(lo, hi) bounds of runs of consecutive lines: the lines whose first
    cell falls in one _BLOCK_CELLS-wide block of the concatenated cells, so
    a run holds fewer than _BLOCK_CELLS cells plus one line."""
    ends = cells.cumsum()
    if not len(cells) or ends[-1] <= _BLOCK_CELLS:
        return [(0, len(cells))] if len(cells) else []
    block = (ends - cells) // _BLOCK_CELLS
    bounds = [0] + (np.flatnonzero(block[1:] != block[:-1]) + 1).tolist() + [len(cells)]
    return list(zip(bounds[:-1], bounds[1:]))


def _sorted_lines(td: TrainingData, batch: _Batch, node: np.ndarray, row: np.ndarray,
                  m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each line's node rows in the sorted order of its feature (`row` of
    td.values; m = the lines' lengths), concatenated, and their cells in
    the flattened td.values. The cells are sorted by (line, presort index),
    which keeps the presort's stable order within a line."""
    base = (row * td.n).repeat(m)
    shift = int(td.order.size).bit_length()
    key = td.position.take(batch.line_rows(node, m) + base)
    key |= (np.arange(len(row)) << shift).repeat(m)
    key.sort()
    rows = td.order.take(key & ((1 << shift) - 1))
    return rows, rows + base


def _segment_argmax(score: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Index of the first maximum of each segment of `score`; segments begin
    at `starts` (ascending, first 0) and end at the next start."""
    best = np.maximum.reduceat(score, starts)
    k = len(score)
    at = np.where(score == best.repeat(np.concatenate((starts[1:], [k])) - starts),
                  np.arange(k), k)
    return np.minimum.reduceat(at, starts)


def _segments(ids: np.ndarray) -> np.ndarray:
    """Start of each run of equal values in `ids`."""
    starts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    return np.concatenate(([0], starts))


def _limit(score, n_left, n_node, valid, min_leaf):
    """-inf for candidates that separate nothing or break min_leaf (a valid
    candidate has at least one row on each side)."""
    if min_leaf > 1:
        valid = valid & (n_left >= min_leaf) & (n_node - n_left >= min_leaf)
    return np.where(valid, score, -np.inf)


class GiniSearch:
    """Best Gini splits of open nodes, for the members of one fit.

    `counts` holds each member's row multiplicities (a bootstrap draw), one
    line per member; by default one member of ones. Without `weights` the
    class sums are exact integer counts; with them (AdaBoost, one member)
    they are weight sums, while min_leaf and missing routing still count
    rows.

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
        counts = np.ones((1, td.n), dtype=np.int64) if counts is None else np.atleast_2d(counts)
        if weights is not None and len(counts) != 1:
            raise ValueError("a weighted search grows one member")
        self.members = len(counts)
        self.packed = (counts.astype(np.int64) << _PACK) | (counts * td.y)
        if weights is not None:
            # cumulated at the cuts: class-1 weight, rows and all weight
            self.amounts = np.stack([weights * td.y, counts[0], weights])
        self.min_leaf = min_leaf

    def node(self, member: int, rows: np.ndarray, n: int | None = None,
             a: int | None = None) -> Node:
        """The node holding `rows` of a member's tree; `n` and `a` are its
        row and class-1 counts when the caller knows them."""
        if self.weights is not None:
            w, y = self.weights[rows], self.td.y[rows]
            return Node(member, rows, int(self.amounts[1].take(rows).sum()),
                        float(w[y == 1].sum() / w.sum()), bool(y.min() == y.max()))
        if n is None:
            total = int(self.packed[member].take(rows).sum())
            n, a = total >> _PACK, total & _LOW
        return Node(member, rows, n, a / n, a == 0 or a == n, a)

    def root(self, member: int) -> Node:
        return self.node(member, np.flatnonzero(self.packed[member]))

    def best(self, rows: np.ndarray, features: list[str]):
        """(condition, mask over `rows` routed left, score) of the best split
        of the first member's node holding `rows` (ascending) over
        `features`, or None."""
        index = {f: i for i, f in enumerate(self.td.features)}
        picked = np.array(sorted(index[f] for f in features), dtype=np.int64)
        found = self.split([self.node(0, rows)], [picked])[0]
        return None if found is None else found[:3]

    def split(self, nodes: list[Node], features: list[np.ndarray]) -> list:
        """For each node, the best split over its features (indexes into
        td.features, ascending): (condition, mask over the node's rows routed
        left, score, left child, right child), or None.

        All nodes are scored in one batch of lines, a line being one (node,
        feature) pair: the node's rows in the feature's sorted order.
        Candidates are scored in chunks of lines and each node takes the
        first maximum in (feature, cut) order, the tie rule."""
        td = self.td
        batch = _Batch(nodes)
        feat = np.concatenate(features)
        if self.weights is None:
            line_node = np.arange(len(nodes)).repeat([len(f) for f in features])
            found = self._counts(batch, line_node, feat)
        else:
            found = self._weighted(nodes[0], feat)
        results = [None] * len(nodes)
        if not found:
            return results
        node, feat, score, operand, miss_left, n_left, a_left = (
            found[0] if len(found) == 1 else map(np.concatenate, zip(*found)))
        if len(found) > 1:  # the lines of a node may span chunks
            first = _segment_argmax(score, _segments(node))
            node, feat, score, operand, miss_left, n_left, a_left = (
                x[first] for x in (node, feat, score, operand, miss_left, n_left, a_left))
        split = score > -np.inf
        if not split.all():
            node, feat, score, operand, miss_left, n_left, a_left = (
                x[split] for x in (node, feat, score, operand, miss_left, n_left, a_left))
            if not len(node):
                return results
        m = batch.lengths[node]
        x = td.values.take(batch.line_rows(node, m) + (td.value_row[feat] * td.n).repeat(m))
        op = operand.repeat(m)
        numeric = td.is_numeric[feat]
        holds = x < op if numeric.all() else np.where(numeric.repeat(m), x < op, x == op)
        left = holds | (np.isnan(x) & miss_left.repeat(m))
        bounds = m.cumsum().tolist()
        for b, f, t, goes_left, best, nL, aL, lo, hi in zip(
                node.tolist(), feat.tolist(), operand.tolist(), miss_left.tolist(),
                score.tolist(), n_left.tolist(), a_left.tolist(), [0] + bounds, bounds):
            nd, name, mask = nodes[b], td.features[f], left[lo:hi]
            goes = LEFT if goes_left else RIGHT
            if name in td.column:
                cond = SplitCondition(name, NUMERIC_LT, threshold=t, missing_goes=goes)
            else:
                cond = SplitCondition(name, CATEGORICAL_EQ, missing_goes=goes,
                                      category=str(td.categories[name][int(t)]))
            rows_left, rows_right = nd.rows[mask], nd.rows[~mask]
            if self.weights is None:
                children = (self.node(nd.member, rows_left, nL, aL),
                            self.node(nd.member, rows_right, nd.n - nL, nd.a - aL))
            else:
                children = self.node(nd.member, rows_left), self.node(nd.member, rows_right)
            results[b] = (cond, mask, best) + children
        return results

    def _counts(self, batch: _Batch, line_node: np.ndarray, line_feat: np.ndarray) -> list:
        """Unweighted candidates, per chunk of lines: each node's best as
        arrays (node, feature, score, threshold or category code, missing
        goes left, rows left, class-1 rows left).

        A numeric line's candidates are its cuts, between distinct present
        values; a categorical line's are its runs of one category. The
        prefix sums over a chunk restart at each line (at each run for a
        category), in exact int64."""
        td, n = self.td, self.td.n
        line_row = td.value_row[line_feat]
        numeric = td.is_numeric[line_feat]
        mixed = not numeric.all()
        lengths = batch.lengths[line_node]
        found = []
        for lo, hi in _chunks(lengths):
            node, row, m = line_node[lo:hi], line_row[lo:hi], lengths[lo:hi]
            at, cells = _sorted_lines(td, batch, node, row, m)
            v = td.values.take(cells)
            present = v == v  # NaN is missing
            if self.members > 1:
                at += (batch.member[node] * n).repeat(m)
            cs = (self.packed.take(at) * present).cumsum()
            ends = m.cumsum() - 1
            differs = np.ones(len(v), dtype=bool)
            np.not_equal(v[:-1], v[1:], out=differs[:-1])
            cut = np.zeros(len(v), dtype=bool)  # numeric cuts need a present value after them
            np.logical_and(differs[:-1], present[1:], out=cut[:-1])
            cut[ends] = False
            categorical = np.flatnonzero(~numeric[lo:hi]) if mixed else ()
            if len(categorical):  # a category's candidate is the last cell of its run
                differs[ends] = True
                runs = _ranges(ends[categorical] - m[categorical] + 1, m[categorical])
                cut[runs] = differs[runs] & present[runs]
            at = np.flatnonzero(cut)
            if not len(at):
                continue
            line = np.searchsorted(ends, at)
            total = cs[ends]
            before = np.concatenate(([0], total[:-1]))
            base = before[line]
            if len(categorical):  # a category's run starts after the previous run
                lo_c, hi_c = (np.searchsorted(line, categorical, side) for side in ("left", "right"))
                after = _ranges(lo_c + 1, np.maximum(hi_c - lo_c - 1, 0))
                base[after] = cs[at[after - 1]]
            left = cs[at] - base
            # packed (rows, class-1 rows) per line: present, missing, all
            pres, node_total = total - before, batch.packed[node]
            n_pres = (pres >> _PACK)[line]
            n_left = left >> _PACK
            miss_left = 2 * n_left > n_pres
            go_left = left + miss_left * (node_total - pres)[line]
            go_right = node_total[line] - go_left
            nL, aL, nR, aR = go_left >> _PACK, go_left & _LOW, go_right >> _PACK, go_right & _LOW
            bL = nL - aL
            bR = nR - aR
            score = ((aL * aL + bL * bL) * nR + (aR * aR + bR * bR) * nL) / np.maximum(nL * nR, 1)
            # a category holding every present row separates nothing
            score = _limit(score, nL, nL + nR, n_left < n_pres, self.min_leaf)
            if len(batch.n) == 1:
                first = np.array([score.argmax()])
            else:
                # the first candidate of each node that has any
                starts = np.searchsorted(line, _segments(node))
                starts = starts[starts < len(line)]
                first = _segment_argmax(score, starts[_segments(starts)])
            k, line = at[first], line[first]
            threshold = (v[k] + v[np.minimum(k + 1, len(v) - 1)]) / 2.0
            if len(categorical):
                threshold = np.where(numeric[lo:hi][line], threshold, v[k])
            found.append((node[line], line_feat[lo:hi][line], score[first], threshold,
                          miss_left[first], nL[first], aL[first]))
        return found

    def _weighted(self, nd: Node, feat: np.ndarray):
        """As _counts, for the one node of a weighted search, keeping the
        first maximum in (feature, cut) order as it goes. Each feature is
        cumulated on its own, in value-sorted, stable row order, and totals
        are summed as one run, as a per-feature scan would, so weight sums
        match it bit for bit."""
        td = self.td
        rows, n_node = nd.rows, nd.n
        best = (-np.inf, -1, 0.0, False)  # score, feature, operand, missing goes left
        keep = np.zeros(td.n, dtype=bool)
        keep[rows] = True
        for block in column_blocks(feat[td.is_numeric[feat]], len(rows)):
            cols = td.value_row[block]
            order = node_order(td, keep, cols)
            values, cuts, sums = cut_statistics(td, order, self.amounts, cols)
            # per-feature present and missing weight totals, each summed as one
            # run in sorted (present) or row (missing) order, as a scan would
            w, wy, y = self.weights[order], self.amounts[0, order], td.y[order]
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
            score = _limit(score, n_left + miss_left * (n_node - n_pres), n_node, cuts,
                           self.min_leaf)
            f, k = divmod(int(score.argmax()), score.shape[1])
            if score[f, k] > best[0]:
                best = (float(score[f, k]), int(block[f]),
                        float((values[f, k] + values[f, k + 1]) / 2.0), bool(miss_left[f, k]))
        w, y = self.weights[rows], td.y[rows]
        wa, wb = float(w[y == 1].sum()), float(w[y == 0].sum())
        counts = self.amounts[1, rows]
        for f in feat[~td.is_numeric[feat]].tolist():
            categories = td.categories[td.features[f]]
            codes = td.codes[td.features[f]][rows]
            present = codes >= 0
            n_eq = category_sums(codes, len(categories), counts)
            n_pres = int(counts[present].sum())
            valid = (n_eq > 0) & (n_eq < n_pres)
            if not valid.any():
                continue
            # weight sums over each left branch, missing rows included, in row order
            miss_left = 2 * n_eq > n_pres
            left_sums = np.zeros((2, len(categories)))
            for k in np.nonzero(valid)[0]:
                left = (codes == k) | (~present & miss_left[k])
                wl, yl = w[left], y[left]
                left_sums[:, k] = (wl[yl == 1].sum(), wl[yl == 0].sum())
            score = _score_candidates_weighted(left_sums[0], left_sums[1],
                                               wa - left_sums[0], wb - left_sums[1])
            score = _limit(score, n_eq + miss_left * (n_node - n_pres), n_node, valid,
                           self.min_leaf)
            k = int(score.argmax())
            if score[k] > best[0] or (score[k] == best[0] > -np.inf and f < best[1]):
                best = (float(score[k]), f, float(k), bool(miss_left[k]))
        if best[0] == -np.inf:
            return []
        zero = np.zeros(1, dtype=np.int64)
        return [(zero, np.array([best[1]]), np.array([best[0]]), np.array([best[2]]),
                 np.array([best[3]]), zero, zero)]
