"""Alternating decision trees.

The model alternates splitter nodes (a condition plus two prediction
values) and prediction nodes (a value plus any number of child splitters).
An instance's score is the root value plus every prediction value along
every root-to-node path whose conditions it satisfies; a splitter whose
feature is missing from the instance contributes nothing and its subtree
is not entered. Positive score means class 1.

Training is boosting: each round picks the (prediction node, condition)
pair minimizing

    Z = 2*(sqrt(W1(p & c) * W0(p & c)) + sqrt(W1(p & ~c) * W0(p & ~c)))
        + (W_total - W(p & c) - W(p & ~c))

over candidate conditions, where W1/W0 are class weight sums. The two new
prediction values are 0.5*ln((W1 + 1) / (W0 + 1)) of their branch, and the
weights of instances reaching a branch are multiplied by exp(-y * value).
Ties prefer the earliest-created prediction node, then the
lexicographically smaller feature, then the smaller threshold/category.

Determinism note: a numeric cut's weight sums are running sums over the
node's rows in value-sorted, stable-index order, and its false-branch sums
are the line's present total less them, the running sum at the line's last
present cell. A category's sums, and a categorical line's present total,
add their rows pairwise (np.sum) in row order. That accumulation order is
part of the contract: it makes tie comparisons reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..features import FeatureMatrix
from .conditions import KeptLines, Lines, RowScoring, RunSums, SplitCondition, TrainingData, paired


@dataclass
class Splitter:
    index: int  # insertion order, 1-based
    condition: SplitCondition
    yes: "PredictionNode"
    no: "PredictionNode"


@dataclass
class PredictionNode:
    value: float
    splitters: list[Splitter] = field(default_factory=list)


@dataclass
class ADTreeModel(RowScoring):
    root: PredictionNode
    # training exp-loss trace, one entry per boosting round; not part of
    # the model's identity (excluded from equality, never serialized)
    weight_totals: list[float] = field(default_factory=list, compare=False, repr=False)

    threshold = 0.0

    def features(self) -> dict[str, str]:
        """{feature: kind} of the features the splitters' conditions read."""
        return {sp.condition.feature: sp.condition.feature_kind for sp in self.iter_splitters()}

    def score_matrix(self, matrix: FeatureMatrix) -> np.ndarray:
        """Each row's score is the fsum of the values it reaches."""
        reached: list[tuple[float, np.ndarray]] = []
        self._reach(self.root, np.arange(matrix.n_rows), matrix, reached)
        if not reached:
            return np.zeros(0)
        rows = np.concatenate([idx for _, idx in reached])
        values = np.repeat([v for v, _ in reached], [len(idx) for _, idx in reached])
        values = values[np.argsort(rows, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(rows, minlength=matrix.n_rows)).tolist()
        return np.array([math.fsum(values[a:b]) for a, b in zip([0] + ends, ends)])

    def _reach(self, node: PredictionNode, idx, matrix, reached):
        """Append (value, rows reaching it) for ``node`` and every node below."""
        if len(idx) == 0:
            return
        reached.append((node.value, idx))
        for sp in node.splitters:
            column = matrix.columns.get(sp.condition.feature)
            if column is None:  # an absent feature is missing in every row
                continue
            yes, present = sp.condition.masks(column[idx])
            self._reach(sp.yes, idx[yes], matrix, reached)
            self._reach(sp.no, idx[present & ~yes], matrix, reached)

    def splitter_count(self) -> int:
        return len(list(self.iter_splitters()))

    def iter_splitters(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            for sp in node.splitters:
                yield sp
                stack.append(sp.yes)
                stack.append(sp.no)


def _value(w1: float, w0: float) -> float:
    return 0.5 * math.log((w1 + 1.0) / (w0 + 1.0))


def train_adtree(matrix: FeatureMatrix, n_boost_rounds: int = 10) -> ADTreeModel:
    """Boost an alternating decision tree for n_boost_rounds rounds.

    With 0 rounds the model is the root prediction value alone (the class
    prior; exactly 0 on a balanced matrix). Training stops early if no
    candidate condition remains.

    Each prediction node's lines are laid out once, in the round that
    creates it, by filtering its precondition node's lines by the
    condition's yes or no rows (the root's are the presort); every round
    rescores the kept lines with the new weights.
    """
    if n_boost_rounds < 0:
        raise ValueError("n_boost_rounds must be >= 0")
    td = TrainingData(matrix)
    if td.n == 0:
        raise ValueError("cannot train on an empty matrix")
    ypm = np.where(td.y == 1, 1.0, -1.0)
    w, every = np.ones(td.n), np.arange(td.n)

    root_value = _value(float(w[td.y == 1].sum()), float(w[td.y == 0].sum()))
    w *= np.exp(-ypm * root_value)

    root = PredictionNode(root_value)
    model = ADTreeModel(root)
    model.weight_totals.append(float(w.sum()))
    # rows reaching each prediction node; creation order = tie order
    nodes: list[PredictionNode] = [root]
    reach: list[np.ndarray] = [np.ones(td.n, dtype=bool)]
    lines = KeptLines.root(td)
    categories = _CategorySums(td)
    inputs = [categories.inputs(ch) for ch in lines.chunks]

    for round_no in range(1, n_boost_rounds + 1):
        best = _best_condition(td, inputs, categories, w)
        if best is None:
            break
        pos, f, operand = best  # rows missing the feature enter neither branch
        yes = reach[pos] & td.goes_left(every, f, operand, False)
        no = reach[pos] & ~td.goes_left(every, f, operand, True)
        a_yes = _value(float(w[yes & (td.y == 1)].sum()), float(w[yes & (td.y == 0)].sum()))
        a_no = _value(float(w[no & (td.y == 1)].sum()), float(w[no & (td.y == 0)].sum()))
        yes_node, no_node = PredictionNode(a_yes), PredictionNode(a_no)
        nodes[pos].splitters.append(Splitter(round_no, td.condition(f, operand), yes_node, no_node))

        w[yes] *= np.exp(-ypm[yes] * a_yes)
        w[no] *= np.exp(-ypm[no] * a_no)
        nodes += [yes_node, no_node]
        reach += [yes, no]
        model.weight_totals.append(float(w.sum()))
        if round_no < n_boost_rounds:  # the new nodes' lines, for the rounds left
            changed = lines.add([lines.filter(pos, yes), lines.filter(pos, no)])
            categories.add([np.flatnonzero(yes), np.flatnonzero(no)])
            inputs[changed:] = [categories.inputs(ch) for ch in lines.chunks[changed:]]

    return model


class _CategorySums:
    """The weight sums of every prediction node's category candidates, as
    one RunSums that each new node extends: for each node, for each
    categorical feature, the weight of class 1 and of class 0 over its
    present rows, then over each category's rows, each added in row order.
    Every node's block of sums has one layout, so a candidate's sums are
    found from its node, feature and category."""

    def __init__(self, td: TrainingData):
        self.td = td
        vocab = np.array([len(v) for v in td.categories.values()], dtype=np.int64)
        self.offset = np.zeros(len(td.features), dtype=np.int64)  # by feature, in a block
        cat = ~td.is_numeric
        self.offset[cat] = (2 + 2 * vocab).cumsum() - (2 + 2 * vocab)
        self.block = int((2 + 2 * vocab).sum())
        self.sums = RunSums(np.zeros(0, np.int64), np.zeros(0, np.int64), td.n)
        self.add([np.arange(td.n)])

    def add(self, nodes: list[np.ndarray]) -> None:
        """Plan the sums of the next nodes, each given by its rows (ascending)."""
        td, picked, lengths = self.td, [], []
        for rows in nodes:
            positive = td.y[rows] == 1
            for f, vocab in zip(np.flatnonzero(~td.is_numeric), td.categories.values()):
                x = td.value(rows, f)
                present = x == x
                key = np.where(positive, 0, 1)[present] + 2 * x[present].astype(np.int64)
                picked += [rows[present & positive], rows[present & ~positive],
                           rows[present][np.argsort(key, kind="stable")]]
                lengths += [[np.count_nonzero(present & positive)],
                            [np.count_nonzero(present & ~positive)],
                            np.bincount(key, minlength=2 * len(vocab))]
        if picked:
            self.sums.extend(np.concatenate(picked), np.concatenate(lengths))

    def inputs(self, ch: Lines):
        """What Z needs of a chunk of kept lines besides the weights: the
        chunk, the last present cell of each line (where its running sums
        hold the line's present total), the categorical candidates, and
        where their sums over the line's present rows and over the
        category's rows (class 1, then class 0) fall among the RunSums'.
        None for a chunk without a candidate."""
        if not len(ch.at):
            return None
        start = ch.ends - ch.m + 1  # missing cells come last in a line
        end = start - 1 + np.add.reduceat(ch.present, start, dtype=np.int64)
        cat = ch.categorical()
        line = ch.line[cat]
        t1 = ch.node[line] * self.block + self.offset[ch.feat[line]]
        c1 = t1 + 2 + 2 * ch.operand(self.td, cat).astype(np.int64)
        return ch, end, cat, np.stack([t1, t1 + 1, c1, c1 + 1])


def _best_condition(td: TrainingData, inputs: list, categories: _CategorySums,
                    w: np.ndarray):
    """(prediction node, feature, operand) of lowest Z over every feature of
    every prediction node, scored over the kept lines' chunks (`inputs`,
    from `categories.inputs`), or None when nothing splits. Rows missing the
    feature fall in neither branch. Ties keep the earliest node, then the
    smaller feature, then the smaller threshold or category: the first
    minimum in line order."""
    weights = paired(np.where(td.y == 1, w, 0.0), np.where(td.y == 1, 0.0, w))
    total_w = float(w.sum())
    best = (np.inf, None)
    category_sums = categories.sums(w)
    for ch, end, cat, at in filter(None, inputs):
        sums = ch.running_sums(weights)
        c, t = sums.take(ch.at), sums.take(end).take(ch.line)
        (c1, c0), (t1, t0) = (c.real, c.imag), (t.real, t.imag)
        if len(cat):  # sums over the line's present rows and the category's rows
            t1[cat], t0[cat], c1[cat], c0[cat] = category_sums.take(at)
        z = 2.0 * (np.sqrt(c1 * c0) + np.sqrt((t1 - c1) * (t0 - c0))) + (total_w - (t1 + t0))
        if len(cat):  # a category's sums a rounding apart give NaN, never picked
            z[cat] = np.where(np.isnan(z[cat]), np.inf, z[cat])
        k = int(z.argmin())
        if z[k] < best[0]:
            best = (z[k], (int(ch.node[ch.line[k]]), int(ch.feat[ch.line[k]]),
                           float(ch.operand(td, k))))
    return best[1]
