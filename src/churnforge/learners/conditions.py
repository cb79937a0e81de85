"""Split conditions, the row-scoring path every model family shares, and
the shared split-search machinery.

Numeric candidates are midpoints between consecutive distinct sorted
values; categorical candidates are equality tests against each observed
category. Rows with a missing value are routed to the branch that held
more training rows ("left" means the condition holds).

Split search presorts once per fit, as SLIQ (Mehta et al. 1996) does.
TrainingData holds every feature as one float64 row (categories as codes)
and argsorts each row once, stably, missing values last. A line is one
(node, feature) pair: the node's rows in the feature's sorted order, which
is that fit-wide order filtered stably by the node's rows. `line_chunks`
lays out the lines of a batch of nodes by sorting their cells by (line,
presort position), at a cost that follows the node sizes, in chunks of
about _BLOCK_CELLS cells so that the temporaries stay a few megabytes, and
marks their candidate cuts. Every search scores these, as SLIQ scores all
open leaves in one pass over each attribute list: the Gini search the open
nodes of every member of a fit (`GiniSearch.split`), AdaBoost's weighted
Gini search its one node, ADTree's Z search every prediction node of a
round, and the feature ranking the root. Each takes the first best
candidate in (node, feature, cut) order, the tie rule's pick.

A bootstrap member is an integer multiplicity vector over the rows of the
fitted matrix, not a resampled copy of it. Every count is a sum of
multiplicities, so Gini scores, min_leaf, missing routing, node sizes and
leaf fractions are the integers a copied sample would give.

Unweighted Gini search is done in exact integer arithmetic (converted to
float by one correctly-rounded division per candidate), so equal-valued
candidates compare exactly equal and the deterministic tie rule applies:
lexicographically smaller feature name first, then smaller threshold or
category. Weighted sums associate as a scan of each feature of the node
would: running sums in value-sorted, stable row order, and line totals and
category sums pairwise (np.sum) over their rows, so weighted ties are
reproducible bit for bit.
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
    the numeric features first, then the categorical ones as codes into a
    sorted vocabulary (`categories`). `order` holds each row's stable
    argsort (missing values last) and `position` each cell's index into the
    flattened `order`.
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
        self.values = np.empty((len(self.features), n))
        for j, f in enumerate(self.numeric):
            self.values[j] = matrix.columns[f]
        self.values[len(self.numeric):] = np.where(codes < 0, np.nan, codes)
        names = self.numeric + list(self.categories)
        self.value_row = np.array([names.index(f) for f in self.features], dtype=np.int64)
        self.is_numeric = self.value_row < len(self.numeric)
        self.order = np.argsort(self.values, axis=1, kind="stable")

    @cached_property
    def position(self) -> np.ndarray:
        """Each (feature, row) cell's index into the flattened presort, by
        which the split search sorts the rows of its lines."""
        position = np.empty(self.order.size, dtype=np.int64)
        position[(self.order + np.arange(len(self.order))[:, None] * self.n).ravel()] = \
            np.arange(self.order.size)
        return position.reshape(self.order.shape)


# (line, row) cells scored at once; large nodes are scored in blocks of
# lines so that their temporaries stay a few megabytes
_BLOCK_CELLS = 1 << 15

# A packed amount holds a row's multiplicity above bit _PACK and its class-1
# multiplicity below, so one gather and one cumsum carry both counts; no
# node holds 2**_PACK rows, so the halves never carry into each other.
_PACK = 32
_LOW = (1 << _PACK) - 1

class Node(NamedTuple):
    """An open node of one member's tree: its rows (ascending, all with a
    positive count), their number and its class-1 rows counted with
    multiplicity, its class-1 fraction (of weight, when weighted), and
    whether it holds one class."""
    member: int
    rows: np.ndarray
    n: int
    p1: float
    pure: bool
    a: int


class Batch:
    """The rows of the nodes scored in one step (each ascending),
    concatenated."""

    def __init__(self, rows: list[np.ndarray]):
        self.lengths = np.array([len(r) for r in rows], dtype=np.int64)
        self.starts = self.lengths.cumsum() - self.lengths
        self.rows = np.concatenate(rows)

    def line_rows(self, node: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The rows of each line's node (m = their numbers), concatenated."""
        return self.rows.take(_ranges(self.starts[node], m))

    def line_values(self, td: TrainingData, node: np.ndarray, feat: np.ndarray):
        """(rows, values, m): for each (node, feature) pair, the node's rows
        in ascending order and their values of the feature, concatenated,
        and the pairs' lengths."""
        m = self.lengths[node]
        rows = self.line_rows(node, m)
        return rows, td.values.take(rows + (td.value_row[feat] * td.n).repeat(m)), m


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


def _sorted_lines(td: TrainingData, batch: Batch, node: np.ndarray, row: np.ndarray,
                  m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each line's node rows in the sorted order of its feature (`row` of
    td.values; m = the lines' lengths), concatenated, and their cells in
    the flattened td.values. The cells are sorted by (line, presort index),
    which keeps the presort's stable order within a line."""
    base = (row * td.n).repeat(m)
    if (m == td.n).all():  # nodes holding every row: their lines are the presort
        rows = td.order.take(row, axis=0).ravel()
        return rows, rows + base
    shift = int(td.order.size).bit_length()
    key = td.position.take(batch.line_rows(node, m) + base)
    key |= (np.arange(len(row)) << shift).repeat(m)
    key.sort()
    rows = td.order.take(key & ((1 << shift) - 1))
    return rows, rows + base


class Lines(NamedTuple):
    """One chunk of a batch's lines, a line being one (node, feature) pair:
    the node's rows in the feature's sorted order, missing values last.
    Candidates are cells, in line order: the cell before each numeric cut
    and the last cell of each category's run."""
    node: np.ndarray     # each line's node, an index into the batch
    feat: np.ndarray     # each line's feature, an index into td.features
    numeric: np.ndarray  # whether each line's feature is numeric
    m: np.ndarray        # each line's length
    ends: np.ndarray     # each line's last cell
    rows: np.ndarray     # each cell's row
    values: np.ndarray   # each cell's value (categories as codes)
    present: np.ndarray  # each cell's value is not NaN
    at: np.ndarray       # each candidate's cell
    line: np.ndarray     # each candidate's line
    first: np.ndarray    # the first cell of each candidate's run: its line's
                         # first, or for a category after the first, the
                         # cell after the previous candidate

    def running_sums(self, amounts: np.ndarray) -> np.ndarray:
        """Each line's running sums of `amounts` (one row each, over all
        training rows) over its present cells, added in cell order.
        Consecutive lines of one length (a node's lines share its length)
        are cumulated as the rows of one array."""
        x = amounts.take(self.rows, axis=1) * self.present
        out = np.empty_like(x)
        bounds = [0] + (np.flatnonzero(self.m[1:] != self.m[:-1]) + 1).tolist() + [len(self.m)]
        cells = [0] + (self.ends + 1).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            a, b = cells[lo], cells[hi]
            shape = (len(x), hi - lo, -1)
            np.cumsum(x[:, a:b].reshape(shape), axis=-1, out=out[:, a:b].reshape(shape))
        return out

    def run_rows(self, k) -> tuple[np.ndarray, np.ndarray]:
        """(rows, m): the rows of candidates k's runs, concatenated, and
        the runs' lengths."""
        m = self.at[k] - self.first[k] + 1
        return self.rows[_ranges(self.first[k], m)], m

    def operand(self, k):
        """The threshold (midpoint to the next value) or category code of
        candidates k."""
        at, v = self.at[k], self.values
        mid = (v[at] + v[np.minimum(at + 1, len(v) - 1)]) / 2.0
        return np.where(self.numeric[self.line[k]], mid, v[at])


def line_chunks(td: TrainingData, batch: Batch, features: list[np.ndarray]):
    """The lines of each node of `batch` over its features (indexes into
    td.features, ascending), node by node, in chunks of about _BLOCK_CELLS
    cells, with their candidates; chunks without one are skipped. Every
    split search, and the feature ranking, scores these. A numeric line's
    candidates are its cuts, between distinct present values; a categorical
    line's are its categories, unless one holds every present row."""
    line_node = np.arange(len(features)).repeat([len(f) for f in features])
    line_feat = np.concatenate(features)
    numeric = td.is_numeric[line_feat]
    lengths = batch.lengths[line_node]
    for lo, hi in _chunks(lengths):
        node, m = line_node[lo:hi], lengths[lo:hi]
        rows, cells = _sorted_lines(td, batch, node, td.value_row[line_feat[lo:hi]], m)
        v = td.values.take(cells)
        present = v == v  # NaN is missing
        ends = m.cumsum() - 1
        differs = np.ones(len(v), dtype=bool)
        np.not_equal(v[:-1], v[1:], out=differs[:-1])
        cut = np.zeros(len(v), dtype=bool)  # numeric cuts need a present value after them
        np.logical_and(differs[:-1], present[1:], out=cut[:-1])
        cut[ends] = False
        categorical = np.flatnonzero(~numeric[lo:hi])
        if len(categorical):  # a category's candidate is the last cell of its run
            differs[ends] = True
            mc, start = m[categorical], ends[categorical] - m[categorical] + 1
            runs = _ranges(start, mc)
            cut[runs] = differs[runs] & present[runs]
            # ... unless one category holds every present row: it separates nothing
            count = cut[runs].cumsum()[mc.cumsum() - 1]
            count[1:] -= count[:-1].copy()
            lone = np.flatnonzero(count == 1)
            if len(lone):
                cut[_ranges(start[lone], mc[lone])] = False
        at = np.flatnonzero(cut)
        line = np.searchsorted(ends, at)
        first = (ends - m + 1)[line]
        if len(categorical):  # a category's run begins after the previous one's
            cat = np.searchsorted(at, runs[cut[runs]])
            later = line[cat[1:]] == line[cat[:-1]]
            first[cat[1:][later]] = at[cat[:-1][later]] + 1
        if len(at):
            yield Lines(node, line_feat[lo:hi], numeric[lo:hi], m, ends, rows, v, present,
                        at, line, first)


def _run_sums(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """np.sum of each run of x (runs concatenated, of `lengths`), bit for
    bit. numpy sums each row of a C-ordered array as it sums that row alone,
    so runs are summed as the rows of one array per width; np.add.reduceat
    would add each run in order instead. A run of under 128 values is
    zero-padded to the next width of 7 mod 8, which changes no sum: numpy
    adds its last (length mod 8) values in order after the rest."""
    starts = lengths.cumsum() - lengths
    width = np.where(lengths < 128, lengths | 7, lengths)
    width[lengths == 0] = 0  # an empty run sums to 0
    order = np.argsort(width, kind="stable")
    bounds = np.flatnonzero(np.diff(width[order], prepend=0, append=-1))
    padded = np.append(x, 0.0)
    out = np.zeros(len(lengths))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        runs, w = order[lo:hi], int(width[order[lo]])
        cells = starts[runs, None] + np.arange(w)
        cells[np.arange(w) >= lengths[runs, None]] = len(x)  # the appended zero
        out[runs] = padded[cells].sum(axis=1)
    return out


def masked_sums(amount: np.ndarray, rows: np.ndarray, m: np.ndarray, *masks) -> np.ndarray:
    """For each mask over `rows` (runs of lengths m), the np.sum of `amount`
    over each run's rows where the mask holds, in the order given;
    (masks, runs)."""
    run = np.arange(len(m)).repeat(m)
    picked = np.concatenate([rows[mask] for mask in masks])
    lengths = np.concatenate([np.bincount(run[mask], minlength=len(m)) for mask in masks])
    return _run_sums(amount.take(picked), lengths).reshape(len(masks), len(m))


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
        self.min_leaf = min_leaf

    def node(self, member: int, rows: np.ndarray, n: int | None = None,
             a: int | None = None) -> Node:
        """The node holding `rows` of a member's tree; `n` and `a` are its
        row and class-1 counts when the caller knows them."""
        if n is None:
            total = int(self.packed[member].take(rows).sum())
            n, a = total >> _PACK, total & _LOW
        if self.weights is None:
            p1 = a / n
        else:  # the class-1 share of weight
            w = self.weights[rows]
            p1 = float(w[self.td.y[rows] == 1].sum() / w.sum())
        return Node(member, rows, n, p1, a == 0 or a == n, a)

    def root(self, member: int) -> Node:
        return self.node(member, np.flatnonzero(self.packed[member]))

    def candidates(self, nodes: list[Node], batch: Batch, features: list[np.ndarray]):
        """The line_chunks of `nodes` (rows in `batch`) with, at each
        candidate, whether missing rows go left and the rows and class-1
        rows going left and right, counted with multiplicity: (lines, missing
        goes left, nL, aL, nR, aR). Counts are differences of one prefix sum
        over the chunk, in exact int64."""
        td = self.td
        member = np.array([nd.member for nd in nodes], dtype=np.int64)
        # the nodes' rows and class-1 rows, packed
        packed = np.array([(nd.n << _PACK) | nd.a for nd in nodes], dtype=np.int64)
        for ch in line_chunks(td, batch, features):
            at = ch.rows
            if self.members > 1:
                at = at + (member[ch.node] * td.n).repeat(ch.m)
            cs = np.zeros(len(at) + 1, dtype=np.int64)  # cs[k]: the first k cells
            np.cumsum(self.packed.take(at) * ch.present, out=cs[1:])
            left = cs[1:][ch.at] - cs[ch.first]
            # packed (rows, class-1 rows) per line: present, missing, all
            pres, node_total = cs[1:][ch.ends] - cs[ch.ends + 1 - ch.m], packed[ch.node]
            miss_left = 2 * (left >> _PACK) > (pres >> _PACK)[ch.line]
            go_left = left + miss_left * (node_total - pres)[ch.line]
            go_right = node_total[ch.line] - go_left
            yield (ch, miss_left, go_left >> _PACK, go_left & _LOW, go_right >> _PACK,
                   go_right & _LOW)

    def split(self, nodes: list[Node], features: list[np.ndarray]) -> list:
        """For each node, the best split over its features (indexes into
        td.features, ascending): (condition, mask over the node's rows routed
        left, score, left child, right child), or None.

        All nodes are scored in one batch of lines, a line being one (node,
        feature) pair: the node's rows in the feature's sorted order.
        Candidates are scored in chunks of lines and each node takes the
        first maximum in (feature, cut) order, the tie rule."""
        td = self.td
        batch = Batch([nd.rows for nd in nodes])
        found = []
        for ch, miss_left, nL, aL, nR, aR in self.candidates(nodes, batch, features):
            if self.weights is None:
                bL, bR = nL - aL, nR - aR
                score = ((aL * aL + bL * bL) * nR + (aR * aR + bR * bR) * nL) / (nL * nR)
            else:
                score = self._weighted(batch, ch, miss_left)
            if self.min_leaf > 1:
                score = np.where((nL >= self.min_leaf) & (nR >= self.min_leaf), score, -np.inf)
            if len(nodes) == 1:
                first = np.array([score.argmax()])
            else:
                # the first candidate of each node that has any
                starts = np.searchsorted(ch.line, _segments(ch.node))
                starts = starts[starts < len(ch.line)]
                first = _segment_argmax(score, starts[_segments(starts)])
            line = ch.line[first]
            found.append((ch.node[line], ch.feat[line], score[first], ch.operand(first),
                          miss_left[first], nL[first], aL[first]))
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
        _, x, m = batch.line_values(td, node, feat)
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
            results[b] = (cond, mask, best, self.node(nd.member, nd.rows[mask], nL, aL),
                          self.node(nd.member, nd.rows[~mask], nd.n - nL, nd.a - aL))
        return results

    def _weighted(self, batch: Batch, ch: Lines, miss_left: np.ndarray) -> np.ndarray:
        """Weighted Gini scores of a chunk's candidates, in the one node of a
        weighted search, so every line holds the node's rows. Weight sums
        add as a scan of each feature would: running sums in the line's
        order, and totals and category sums pairwise over their rows."""
        td, line = self.td, ch.line
        amounts = np.stack([self.weights * td.y, self.weights])
        # numeric cuts: class-1 and all weight of the present rows up to the cut
        sums = ch.running_sums(amounts)
        waL, cum_w = sums[:, ch.at]
        # per line: class-1 and all weight present, class-1 and class-0 missing;
        # a line without missing rows sums its whole row
        a_pres, w_pres = amounts.take(ch.rows, axis=1).reshape(2, len(ch.m), -1).sum(axis=2)
        a_miss, b_miss = np.zeros((2, len(ch.m)))
        partial = np.flatnonzero(~ch.present[ch.ends])
        if len(partial):
            m = ch.m[partial]
            cells = _ranges(ch.ends[partial] - m + 1, m)
            rows, present = ch.rows[cells], ch.present[cells]
            missing = np.where(present, -1, td.y.take(rows))
            a_pres[partial] = masked_sums(amounts[0], rows, m, present)[0]
            w_pres[partial], a_miss[partial], b_miss[partial] = masked_sums(
                amounts[1], rows, m, present, missing == 1, missing == 0)
        L1 = waL + np.where(miss_left, a_miss[line], 0.0)
        L0 = cum_w - waL + np.where(miss_left, b_miss[line], 0.0)
        waR = a_pres[line] - waL
        R1 = waR + np.where(miss_left, 0.0, a_miss[line])
        R0 = w_pres[line] - cum_w - waR + np.where(miss_left, 0.0, b_miss[line])
        cat = np.flatnonzero(~ch.numeric[line])
        if len(cat):  # a category's left branch: its rows, and missing ones with it
            rows, x, m = batch.line_values(td, ch.node[line[cat]], ch.feat[line[cat]])
            left = (x == ch.values[ch.at[cat]].repeat(m)) | (np.isnan(x) & miss_left[cat].repeat(m))
            y_rows = td.y.take(rows)
            L1[cat], L0[cat] = masked_sums(self.weights, rows, m, left & (y_rows == 1),
                                           left & (y_rows == 0))
            wn, yn = self.weights[batch.rows], td.y[batch.rows]
            R1[cat] = wn[yn == 1].sum() - L1[cat]
            R0[cat] = wn[yn == 0].sum() - L0[cat]
        WL, WR = L1 + L0, R1 + R0
        with np.errstate(divide="ignore", invalid="ignore"):
            score = (L1 * L1 + L0 * L0) / WL + (R1 * R1 + R0 * R0) / WR
        return np.where((WL > 0) & (WR > 0), score, -np.inf)
