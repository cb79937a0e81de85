"""Split conditions, the row-scoring path every model family shares, and
the shared split-search machinery.

Numeric candidates are midpoints between consecutive distinct sorted
values; categorical candidates are equality tests against each observed
category. Rows with a missing value are routed to the branch that held
more training rows ("left" means the condition holds).

Split search presorts once per fit, as SLIQ (Mehta et al. 1996) does.
TrainingData holds one float64 row per feature, in name order (categories
as codes), and argsorts each row once, stably, missing values last. It
builds every trained condition (`TrainingData.condition`) and routes
training rows by one rule on codes (`TrainingData.goes_left`). A line is one
(node, feature) pair: the node's rows in the feature's sorted order, which
is that fit-wide order filtered stably by the node's rows. `line_chunks`
lays out the lines of a batch of nodes by sorting their cells by (line,
presort position), at a cost that follows the node sizes, in chunks of
about _BLOCK_CELLS cells so that the temporaries stay a few megabytes, and
marks their candidate cuts. The unweighted Gini search scores these for
all open nodes of a fit, as SLIQ scores all open leaves in one pass over
each attribute list, one node per member if it samples features
(`GiniSearch.split`), and the feature ranking for the root.

Boosting rescores the same nodes round after round with new weights, so
its searches keep their lines (`KeptLines`), as SPRINT (Shafer, Agrawal
and Mehta 1996) keeps its attribute lists. A node's lines are laid out
once, by filtering its parent's lines stably by the node's rows (the
root's are the presort), in the same chunks and with the same candidates
as `line_chunks` gives; no line is sorted again. ADTree's Z search
rescores the kept lines of every prediction node each round, and
AdaBoost's weighted Gini search those of its one node, the root's in
every round. Each search takes the first best candidate in (node, feature,
cut) order, the tie rule's pick.

A row's count is its multiplicity: stump, CART, bagging and forest fit
the distinct rows (`TrainingData.merged`), and a bootstrap adds its draws
over the matrix's rows. So Gini scores, min_leaf, missing routing, node
sizes and leaf fractions are the integers that copies of the rows give.

Unweighted Gini search is done in exact integer arithmetic (converted to
float by one correctly-rounded division per candidate), so equal-valued
candidates compare exactly equal and the deterministic tie rule applies:
lexicographically smaller feature name first, then smaller threshold or
category. Weighted sums are added in a fixed order, so weighted ties are
reproducible bit for bit. Running sums add a line's cells in value-sorted,
stable row order. AdaBoost's weighted Gini takes a line's present total
pairwise (np.sum) over its present cells in line order, and a category's
left-branch sums pairwise over their rows in row order. ADTree's Z takes a
numeric line's present total as its running sum at its last present cell;
only its categorical lines' present totals and its category sums are
pairwise, in row order.
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

    Features are listed in lexicographic order, the tie-break scan order.
    `values[j]` holds feature j as one float64 row, NaN = missing: a numeric
    feature's values, or a categorical one's codes into its sorted
    vocabulary (`categories`); `is_numeric` says which. `order` holds each
    row's stable argsort (missing values last), `position` each cell's
    index into the flattened `order`, `index` each matrix row's row here and
    `multiplicity` how many matrix rows each row stands for: the identity
    and ones, unless `merged`. A categorical value must be a string (or
    missing), since a split condition holds its category as a string.
    """

    def __init__(self, matrix: FeatureMatrix):
        if matrix.labels is None:
            raise ValueError("training needs a labeled matrix")
        self.y = matrix.labels.astype(np.int64)
        self.n = n = matrix.n_rows
        self.feature_names = list(matrix.feature_names)
        self.features = sorted(matrix.feature_names)
        self.is_numeric = np.array([matrix.kinds[f] != CATEGORICAL for f in self.features],
                                   dtype=bool)
        self.categories: dict[str, list] = {}
        self.values = np.empty((len(self.features), n))
        for j, name in enumerate(self.features):
            values = matrix.columns[name]
            if self.is_numeric[j]:
                self.values[j] = values
                continue
            vocab = {v for v in values if not is_missing(v)}
            if not all(isinstance(v, str) for v in vocab):  # a condition holds str(category)
                bad = next(v for v in values if not (is_missing(v) or isinstance(v, str)))
                raise ValueError(f"categorical feature {name!r} holds the non-string value {bad!r}")
            vocab = sorted(vocab)
            lookup = {v: i for i, v in enumerate(vocab)}
            self.categories[name] = vocab
            self.values[j] = [np.nan if is_missing(v) else lookup[v] for v in values]
        self.order = np.argsort(self.values, axis=1, kind="stable")
        self.index, self.multiplicity = np.arange(n), np.ones(n, dtype=np.int64)

    def value(self, rows: np.ndarray, feat) -> np.ndarray:
        """Each of `rows`' value (or category code) of feature `feat`, one
        feature or one per row."""
        return self.values.take(rows + feat * self.n)

    def condition(self, f: int, operand: float, missing_goes: str = RIGHT) -> SplitCondition:
        """The split condition on feature f at `operand`: a numeric
        feature's threshold or a categorical one's category code."""
        name = self.features[f]
        if self.is_numeric[f]:
            return SplitCondition(name, NUMERIC_LT, threshold=float(operand),
                                  missing_goes=missing_goes)
        return SplitCondition(name, CATEGORICAL_EQ, missing_goes=missing_goes,
                              category=str(self.categories[name][int(operand)]))

    def goes_left(self, rows: np.ndarray, feat, operand, missing_left) -> np.ndarray:
        """Whether each of `rows` goes left under the condition on feature
        `feat` at `operand` (see `condition`): its value is below the
        threshold or is the category, or it is missing and `missing_left`.
        Each of feat, operand and missing_left is one value or one per row.
        This is the training-time route of every trained condition."""
        x = self.value(rows, feat)
        holds = np.where(self.is_numeric[feat], x < operand, x == operand)
        return holds | (np.isnan(x) & missing_left)

    def merged(self) -> TrainingData:
        """The distinct rows: equal labels and presort ranks in every feature
        (so NaN equals NaN, and -0.0 equals 0.0), numbered by first occurrence
        and counted in `multiplicity`. The presort is filtered, not rebuilt."""
        n, key = self.n, self.y  # each row's key: its label, then its ranks in mixed radix
        for values, order in zip(self.values, self.order):
            ordered = values.take(order)
            before = ordered[:-1]  # a run of NaN ends the order, and NaN != NaN
            new = (ordered[1:] != before) & (before == before)
            d = int(new.sum()) + 1
            if d >= n:  # no two rows share this feature's value
                return self
            rank = np.zeros(n, dtype=np.int64)
            rank[order[1:]] = new.cumsum()
            if (int(key.max()) + 1) * d >= 1 << 62:  # renumbered before it overflows
                key = np.unique(key, return_inverse=True)[1]
            key = key * d + rank
        first, key = np.unique(key, return_index=True, return_inverse=True)[1:]
        kept = np.bincount(first, minlength=n).astype(bool)
        td = object.__new__(TrainingData)  # shares the vocabularies; the position is rebuilt
        td.__dict__ = {k: v for k, v in vars(self).items() if k != "position"}
        td.index = (kept.cumsum() - 1)[first].take(key)
        td.n, rows = len(first), np.flatnonzero(kept)
        td.y, td.multiplicity = self.y[rows], np.bincount(td.index)
        td.values = self.values.take(rows, axis=1)  # C-ordered: values[:, rows] is not
        td.order = td.index.take(self.order[kept[self.order]]).reshape(-1, td.n)
        return td

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
    whether it holds one class. A weighted search's node carries kept
    lines that hold its rows: its own, or an ancestor's to filter."""
    member: int
    rows: np.ndarray
    n: int
    p1: float
    pure: bool
    a: int
    lines: KeptLines | None = None


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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """start, start + 1, ..., start + length - 1 for each pair, concatenated."""
    ends = lengths.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) + (starts - ends + lengths).repeat(lengths)


def _blocks(first: np.ndarray) -> list[int]:
    """Bounds of the runs of consecutive lines whose first cells (`first`)
    fall in one _BLOCK_CELLS-wide block, so a run holds fewer than
    _BLOCK_CELLS cells plus one line."""
    block = first // _BLOCK_CELLS
    return [0] + (np.flatnonzero(block[1:] != block[:-1]) + 1).tolist() + [len(first)]


def _sorted_lines(td: TrainingData, batch: Batch, node: np.ndarray, feat: np.ndarray,
                  m: np.ndarray) -> np.ndarray:
    """Each line's node rows in the sorted order of its feature (m = the
    lines' lengths), concatenated. The cells are sorted by (line, presort
    index), which keeps the presort's stable order within a line."""
    if (m == td.n).all():  # nodes holding every row: their lines are the presort
        return td.order.take(feat, axis=0).ravel()
    shift = int(td.order.size).bit_length()
    key = td.position.take(batch.line_rows(node, m) + (feat * td.n).repeat(m))
    key |= (np.arange(len(feat)) << shift).repeat(m)
    key.sort()
    return td.order.take(key & ((1 << shift) - 1))


def paired(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Two real amounts as the parts of one complex amount. Complex numbers
    add part by part, so one pass of running sums over the pair gives each
    amount's own running sums, bit for bit, at about the cost of one."""
    pair = np.empty(len(first), dtype=np.complex128)
    pair.real, pair.imag = first, second
    return pair


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
    present: np.ndarray  # each cell's value is not NaN
    at: np.ndarray       # each candidate's cell
    line: np.ndarray     # each candidate's line
    first: np.ndarray    # the first cell of each candidate's run: its line's
                         # first, or for a category after the first, the
                         # cell after the previous candidate

    def running_sums(self, amount: np.ndarray) -> np.ndarray:
        """Each line's running sums of `amount` (over all training rows),
        added in cell order. A line's missing cells come last, so its sums
        up to a present cell add present cells only. Consecutive lines of
        one length (a node's lines share its length) are cumulated as the
        rows of one array."""
        x = amount.take(self.rows)
        out = np.empty_like(x)
        later = np.flatnonzero(self.m[1:] != self.m[:-1]) + 1  # each later run's first line
        lines = [0, *later.tolist(), len(self.m)]
        cells = [0, *(self.ends[later - 1] + 1).tolist(), len(self.rows)]
        for lo, hi, a, b in zip(lines[:-1], lines[1:], cells[:-1], cells[1:]):
            np.cumsum(x[a:b].reshape(hi - lo, -1), axis=-1, out=out[a:b].reshape(hi - lo, -1))
        return out

    def categorical(self) -> np.ndarray:
        """The candidates on categorical lines, ascending."""
        lines = np.flatnonzero(~self.numeric)
        lo = np.searchsorted(self.line, lines)
        return _ranges(lo, np.searchsorted(self.line, lines + 1) - lo)

    def operand(self, td: TrainingData, k):
        """The threshold (midpoint to the next value) or category code of
        candidates k."""
        at, line = self.at[k], self.line[k]
        feat = self.feat[line]
        v = td.value(self.rows[at], feat)
        after = td.value(self.rows[np.minimum(at + 1, len(self.rows) - 1)], feat)
        return np.where(self.numeric[line], (v + after) / 2.0, v)


def _mark(td: TrainingData, node: np.ndarray, feat: np.ndarray, m: np.ndarray,
          rows: np.ndarray) -> Lines:
    """The Lines of laid-out lines (`rows` holds each line's rows in its
    feature's sorted order, concatenated; `node`, `feat` and `m` each
    line's node, feature and length) with their candidates. A numeric
    line's candidates are its cuts, between distinct present values; a
    categorical line's are its categories, unless one holds every present
    row. Marking is line by line, so the Lines of consecutive lines joined
    equal the Lines of the lines marked at once."""
    numeric = td.is_numeric[feat]
    v = td.value(rows, feat.repeat(m))
    present = v == v  # NaN is missing
    ends = m.cumsum() - 1
    differs = np.ones(len(v), dtype=bool)
    np.not_equal(v[:-1], v[1:], out=differs[:-1])
    cut = np.zeros(len(v), dtype=bool)  # numeric cuts need a present value after them
    np.logical_and(differs[:-1], present[1:], out=cut[:-1])
    cut[ends] = False
    categorical = np.flatnonzero(~numeric)
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
    return Lines(node, feat, numeric, m, ends, rows, present, at, line, first)


def line_chunks(td: TrainingData, batch: Batch, features: list[np.ndarray]):
    """The lines of each node of `batch` over its features (indexes into
    td.features, ascending), node by node, sorted, in chunks of about
    _BLOCK_CELLS cells, with their candidates; chunks without one are
    skipped. The unweighted Gini search and the feature ranking score
    these."""
    line_node = np.arange(len(features)).repeat([len(f) for f in features])
    line_feat = np.concatenate(features)
    lengths = batch.lengths[line_node]
    bounds = _blocks(lengths.cumsum() - lengths)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        node, feat, m = line_node[lo:hi], line_feat[lo:hi], lengths[lo:hi]
        ch = _mark(td, node, feat, m, _sorted_lines(td, batch, node, feat, m))
        if len(ch.at):
            yield ch


def _join(a: Lines, b: Lines) -> Lines:
    """The Lines of a's lines followed by b's."""
    lines, cells = len(a.m), len(a.rows)
    return Lines(*(np.concatenate((x, y)) for x, y in zip(
        a, b._replace(ends=b.ends + cells, at=b.at + cells, line=b.line + lines,
                      first=b.first + cells))))


class KeptLines:
    """The lines of nodes over every feature, laid out once and kept while
    a fit scores them again, as SPRINT (Shafer, Agrawal and Mehta 1996)
    keeps its attribute lists. `chunks` are the chunks `line_chunks` gives
    for the kept nodes in order, chunks without a candidate included, with
    rows and candidates as int32; a node's index is its place among the
    kept nodes.

    The root's lines are the presort. A subset of a kept node has the
    node's lines filtered stably by a row mask (`filter`), which holds the
    cells that sorting the subset's rows gives, in the same order: no line
    is sorted again, and every sum over the lines is what sorting gives."""

    def __init__(self, td: TrainingData, lines: list[np.ndarray]):
        self.td = td
        self.chunks: list[Lines] = []
        self.starts: list[int] = []   # each chunk's first cell among all kept cells
        self.sizes: list[int] = []    # each node's rows
        self.offsets: list[int] = []  # each node's first cell
        self.add(lines)

    @classmethod
    def root(cls, td: TrainingData) -> KeptLines:
        """The lines of the node that holds every row."""
        return cls(td, [td.order.astype(np.int32)])

    def add(self, lines: list[np.ndarray]) -> int:
        """Keep the lines of more nodes, each as (features, rows) row ids,
        and return the index of the first chunk that changed: the last
        chunk takes the new lines whose first cell falls in its block."""
        td, n_feat = self.td, len(self.td.features)
        cells = self.offsets[-1] + n_feat * self.sizes[-1] if self.sizes else 0
        sizes = np.array([rows.shape[1] for rows in lines], dtype=np.int64)
        self.offsets += (cells + n_feat * (sizes.cumsum() - sizes)).tolist()
        node = np.arange(len(self.sizes), len(self.sizes) + len(sizes)).repeat(n_feat)
        self.sizes += sizes.tolist()
        feat = np.tile(np.arange(n_feat), len(sizes))
        m = sizes.repeat(n_feat)
        rows = np.concatenate([r.ravel() for r in lines]) if lines else np.zeros(0, np.int32)
        first = m.cumsum() - m  # each line's first cell among the new ones
        bounds = _blocks(cells + first)
        changed = len(self.chunks)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if lo == hi:
                continue
            a, b = int(first[lo]), int(first[hi - 1] + m[hi - 1])
            ch = _mark(td, node[lo:hi], feat[lo:hi], m[lo:hi], rows[a:b])
            ch = ch._replace(**{k: getattr(ch, k).astype(np.int32) for k in ("at", "line", "first")})
            if self.chunks and (cells + a) // _BLOCK_CELLS == self.starts[-1] // _BLOCK_CELLS:
                self.chunks[-1] = _join(self.chunks[-1], ch)
                changed = len(self.chunks) - 1
            else:
                self.chunks.append(ch)
                self.starts.append(cells + a)
        return changed

    def lines(self, i: int) -> np.ndarray:
        """Node i's lines, as (features, rows) row ids."""
        n_feat, m = len(self.td.features), self.sizes[i]
        lo, hi = self.offsets[i], self.offsets[i] + n_feat * m
        parts = []
        k = int(np.searchsorted(self.starts, lo, side="right")) - 1
        while lo < hi:
            start = self.starts[k]
            end = min(hi, start + len(self.chunks[k].rows))
            parts.append(self.chunks[k].rows[lo - start:end - start])
            lo, k = end, k + 1
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts or [np.zeros(0, np.int32)])
        return rows.reshape(n_feat, m)

    def filter(self, i: int, keep: np.ndarray) -> np.ndarray:
        """The lines of the rows of node i where `keep` (a mask over every
        row, true only on rows of node i) holds: node i's lines filtered
        stably, as (features, rows) row ids."""
        rows = self.lines(i)
        return rows[keep[rows]].reshape(len(rows), int(np.count_nonzero(keep)))


def _masked(rows: np.ndarray, m: np.ndarray, masks) -> tuple[np.ndarray, np.ndarray]:
    """(picked, lengths): for each mask over `rows` (runs of lengths m), the
    rows of each run where it holds, mask by mask and run by run, and the
    runs' lengths; the runs of a RunSums."""
    run = np.arange(len(m)).repeat(m)
    return (np.concatenate([rows[mask] for mask in masks]),
            np.concatenate([np.bincount(run[mask], minlength=len(m)) for mask in masks]))


class RunSums:
    """The np.sum of an amount over each of several runs of its entries,
    bit for bit, planned once for amounts that change; runs can be added
    (`extend`). numpy sums each row of a C-ordered array as it sums that
    row alone, so runs are summed as the rows of one array per width;
    np.add.reduceat would add each run in order instead. A run of under 128
    entries is padded with zeros to the next width of 7 mod 8, which
    changes no sum: numpy adds its last (length mod 8) values in order
    after the rest."""

    def __init__(self, picked: np.ndarray, lengths: np.ndarray, size: int):
        self.size = size  # the amount's length; entry `size` is a zero appended to it
        self.n = 0
        self.groups: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # width: (runs, entries)
        self.extend(picked, lengths)

    def extend(self, picked: np.ndarray, lengths: np.ndarray) -> None:
        """Plan the sums over more runs, numbered on: `picked` holds their
        entries (indexes into the amount), concatenated, of `lengths`."""
        starts = lengths.cumsum() - lengths
        width = np.where(lengths < 128, lengths | 7, lengths)
        width[lengths == 0] = 0  # an empty run sums to 0
        order = np.argsort(width, kind="stable")
        bounds = np.flatnonzero(np.diff(width[order], prepend=0, append=-1))
        picked = np.append(picked, self.size)
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            runs, w = order[lo:hi], int(width[order[lo]])
            cells = starts[runs, None] + np.arange(w)
            cells[np.arange(w) >= lengths[runs, None]] = len(picked) - 1
            runs, cells = runs + self.n, picked[cells]
            if w in self.groups:
                runs, cells = (np.concatenate(x) for x in zip(self.groups[w], (runs, cells)))
            self.groups[w] = (runs, cells)
        self.n += len(lengths)

    def __call__(self, amount: np.ndarray) -> np.ndarray:
        padded = np.append(amount, 0.0)
        out = np.zeros(self.n)
        for runs, cells in self.groups.values():
            out[runs] = padded.take(cells).sum(axis=1)
        return out


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
    line per member; by default one member of `td.multiplicity`. Without
    `weights` the class sums are exact integer counts; with them (AdaBoost,
    one member, rows not merged) they are weight sums, while min_leaf and
    missing routing still count rows. A boosting fit sets `weights` anew
    each round and keeps the search, which keeps the root's lines and
    candidates (`root_lines`); a weighted node's lines are filtered from
    its parent's, so a weighted search sorts no line.

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
        counts = td.multiplicity[None] if counts is None else np.atleast_2d(counts)
        if weights is not None and len(counts) != 1:
            raise ValueError("a weighted search grows one member")
        self.members = len(counts)
        self.packed = (counts.astype(np.int64) << _PACK) | (counts * td.y)
        self.min_leaf = min_leaf
        self._root_scored = None  # the root's candidates and weight-sum plans

    @cached_property
    def root_lines(self) -> KeptLines:
        return KeptLines.root(self.td)

    def node(self, member: int, rows: np.ndarray, n: int | None = None,
             a: int | None = None, lines: KeptLines | None = None) -> Node:
        """The node holding `rows` of a member's tree; `n` and `a` are its
        row and class-1 counts when the caller knows them, and a weighted
        node's `lines` hold its rows (by default the root's)."""
        if n is None:
            total = int(self.packed[member].take(rows).sum())
            n, a = total >> _PACK, total & _LOW
        if self.weights is None:
            return Node(member, rows, n, a / n, a == 0 or a == n, a)
        w = self.weights[rows]  # the class-1 share of weight
        p1 = float(w[self.td.y[rows] == 1].sum() / w.sum())
        return Node(member, rows, n, p1, a == 0 or a == n, a,
                    self.root_lines if lines is None else lines)

    def root(self, member: int) -> Node:
        return self.node(member, np.flatnonzero(self.packed[member]))

    def candidates(self, nodes: list[Node], chunks):
        """The chunks of lines of `nodes` that hold a candidate, with, at
        each candidate, whether missing rows go left and the rows and
        class-1 rows going left and right, counted with multiplicity:
        (lines, missing goes left, nL, aL, nR, aR). Counts are differences
        of one prefix sum over the chunk, in exact int64."""
        td = self.td
        member = np.array([nd.member for nd in nodes], dtype=np.int64)
        # the nodes' rows and class-1 rows, packed
        packed = np.array([(nd.n << _PACK) | nd.a for nd in nodes], dtype=np.int64)
        for ch in chunks:
            if not len(ch.at):
                continue
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
        td.features, ascending; a weighted search takes one node and every
        feature): (condition, mask over the node's rows routed left, score,
        left child, right child), or None.

        All nodes are scored in one batch of lines, a line being one (node,
        feature) pair: the node's rows in the feature's sorted order.
        Candidates are scored in chunks of lines and each node takes the
        first maximum in (feature, cut) order, the tie rule."""
        td = self.td
        batch = Batch([nd.rows for nd in nodes])
        if self.weights is None:
            lines = None
            scored = ((c, self._counted(*c[2:])) for c in
                      self.candidates(nodes, line_chunks(td, batch, features)))
        else:
            lines, scored = self._weighted_lines(nodes[0])
            scored = ((c, self._weighted(nodes[0], c[0], *plan)) for c, plan in scored)
        found = []
        for (ch, miss_left, nL, aL, nR, aR), score in scored:
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
            found.append((ch.node[line], ch.feat[line], score[first], ch.operand(td, first),
                          miss_left[first], nL[first], aL[first]))
        results = [None] * len(nodes)
        if not found:
            return results
        found = [np.concatenate(x) for x in zip(*found)]
        first = _segment_argmax(found[2], _segments(found[0]))  # a node's lines may span chunks
        first = first[found[2][first] > -np.inf]
        node, feat, score, operand, miss_left, n_left, a_left = (x[first] for x in found)
        m = batch.lengths[node]
        left = td.goes_left(batch.line_rows(node, m), feat.repeat(m), operand.repeat(m),
                            miss_left.repeat(m))
        bounds = m.cumsum().tolist()
        for b, f, t, goes_left, best, nL, aL, lo, hi in zip(
                node.tolist(), feat.tolist(), operand.tolist(), miss_left.tolist(),
                score.tolist(), n_left.tolist(), a_left.tolist(), [0] + bounds, bounds):
            nd, mask = nodes[b], left[lo:hi]
            cond = td.condition(f, t, LEFT if goes_left else RIGHT)
            results[b] = (cond, mask, best,
                          self.node(nd.member, nd.rows[mask], nL, aL, lines),
                          self.node(nd.member, nd.rows[~mask], nd.n - nL, nd.a - aL, lines))
        return results

    @staticmethod
    def _counted(nL, aL, nR, aR) -> np.ndarray:
        """Gini scores from exact counts."""
        bL, bR = nL - aL, nR - aR
        return ((aL * aL + bL * bL) * nR + (aR * aR + bR * bR) * nL) / (nL * nR)

    def _weighted_lines(self, nd: Node) -> tuple[KeptLines, list]:
        """A weighted node's kept lines, filtered from those it carries
        unless they are its own, and, per chunk with a candidate, its
        candidates and the plan of its weight sums. The root's are made
        once per search, and every boosting round scores them."""
        td, lines = self.td, nd.lines
        if lines.sizes[0] != len(nd.rows):
            keep = np.zeros(td.n, dtype=bool)
            keep[nd.rows] = True
            lines = KeptLines(td, [lines.filter(0, keep)])
        elif lines is self.root_lines and self._root_scored is not None:
            return lines, self._root_scored
        scored = [(c, self._plan(nd, *c[:2])) for c in self.candidates([nd], lines.chunks)]
        if lines is self.root_lines:
            self._root_scored = scored
        return lines, scored

    def _plan(self, nd: Node, ch: Lines, miss_left: np.ndarray) -> tuple:
        """(lines with a missing cell, the candidates on them whose missing
        rows go left and their lines' places among those lines, the same for
        right, categorical candidates, RunSums) of a chunk of a weighted
        node. Over the class-1 weights followed by the weights, the plan
        sums, for each line with a missing cell, the class-1 and all weight
        present and the class-1 and class-0 weight missing, in line order;
        then, for each category, the class-1 and class-0 weight of its left
        branch (its rows, and missing ones with it), in row order."""
        td, n = self.td, self.td.n
        parts = []
        partial = np.flatnonzero(~ch.present[ch.ends])
        place = np.full(len(ch.m), -1)
        place[partial] = np.arange(len(partial))
        on = place[ch.line]
        to_left = np.flatnonzero((on >= 0) & miss_left)
        to_right = np.flatnonzero((on >= 0) & ~miss_left)
        if len(partial):
            m = ch.m[partial]
            cells = _ranges(ch.ends[partial] - m + 1, m)
            rows, present = ch.rows[cells], ch.present[cells]
            missing = np.where(present, -1, td.y.take(rows))
            parts.append(_masked(rows, m, [present]))
            parts.append(_masked(rows + n, m, [present, missing == 1, missing == 0]))
        cat = ch.categorical()
        if len(cat):
            m = np.full(len(cat), len(nd.rows))
            rows = np.tile(nd.rows, len(cat))
            left = td.goes_left(rows, ch.feat[ch.line[cat]].repeat(m),
                                ch.operand(td, cat).repeat(m), miss_left[cat].repeat(m))
            y_rows = td.y.take(rows)
            parts.append(_masked(rows + n, m, [left & (y_rows == 1), left & (y_rows == 0)]))
        picked, lengths = (np.concatenate(x) for x in zip(*parts)) if parts else (
            np.zeros(0, np.int64), np.zeros(0, np.int64))
        return (partial, (to_left, on[to_left]), (to_right, on[to_right]), cat,
                RunSums(picked, lengths, 2 * n))

    def _weighted(self, nd: Node, ch: Lines, partial: np.ndarray, left: tuple, right: tuple,
                  cat: np.ndarray, plan: RunSums) -> np.ndarray:
        """Weighted Gini scores of a chunk's candidates, in the one node of a
        weighted search, so every line holds the node's rows. Running sums
        add in line order, line totals pairwise over the line's present
        cells in line order, and category sums pairwise over their rows in
        row order."""
        td, line = self.td, ch.line
        amounts = np.stack([self.weights * td.y, self.weights])
        # numeric cuts: class-1 and all weight of the present rows up to the cut
        sums = ch.running_sums(paired(*amounts)).take(ch.at)
        L1, cum_w = sums.real.copy(), sums.imag
        # per line: class-1 and all weight present; a line without missing
        # rows sums its whole row
        a_pres, w_pres = amounts.take(ch.rows, axis=1).reshape(2, len(ch.m), -1).sum(axis=2)
        sums, p = plan(amounts.ravel()), len(partial)
        a_pres[partial], w_pres[partial], a_miss, b_miss = sums[:4 * p].reshape(4, p)
        L0 = cum_w - L1
        R1 = a_pres[line] - L1
        R0 = w_pres[line] - cum_w - R1
        # missing rows join a branch; elsewhere they weigh nothing, and x + 0.0 is x
        for (a, b), (k, j) in (((L1, L0), left), ((R1, R0), right)):
            a[k] += a_miss[j]
            b[k] += b_miss[j]
        if len(cat):  # a category's left branch: its rows, and missing ones with it
            L1[cat], L0[cat] = sums[4 * p:].reshape(2, len(cat))
            wn, yn = self.weights[nd.rows], td.y[nd.rows]
            R1[cat] = wn[yn == 1].sum() - L1[cat]
            R0[cat] = wn[yn == 0].sum() - L0[cat]
        WL, WR = L1 + L0, R1 + R0
        with np.errstate(divide="ignore", invalid="ignore"):
            score = (L1 * L1 + L0 * L0) / WL + (R1 * R1 + R0 * R0) / WR
        return np.where((WL > 0) & (WR > 0), score, -np.inf)
