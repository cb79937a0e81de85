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
are the line's total less them. A category's sums, and the node's present
total, add the rows holding it pairwise (np.sum) in row order. That
accumulation order is part of the contract: it makes tie comparisons
reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..features import FeatureMatrix
from .conditions import (CATEGORICAL_EQ, NUMERIC_LT, Batch, RowScoring, SplitCondition,
                         TrainingData, line_chunks, masked_sums)


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
    """
    if n_boost_rounds < 0:
        raise ValueError("n_boost_rounds must be >= 0")
    td = TrainingData(matrix)
    if td.n == 0:
        raise ValueError("cannot train on an empty matrix")
    ypm = np.where(td.y == 1, 1.0, -1.0)
    w = np.ones(td.n)

    root_value = _value(float(w[td.y == 1].sum()), float(w[td.y == 0].sum()))
    w *= np.exp(-ypm * root_value)

    root = PredictionNode(root_value)
    model = ADTreeModel(root)
    model.weight_totals.append(float(w.sum()))
    # rows reaching each prediction node; creation order = tie order
    nodes: list[PredictionNode] = [root]
    reach: list[np.ndarray] = [np.ones(td.n, dtype=bool)]

    for round_no in range(1, n_boost_rounds + 1):
        best = _best_condition(td, reach, w)
        if best is None:
            break
        pos, cond = best
        cond_yes, present = cond.masks(matrix.columns[cond.feature])
        yes, no = reach[pos] & cond_yes, reach[pos] & present & ~cond_yes
        a_yes = _value(float(w[yes & (td.y == 1)].sum()), float(w[yes & (td.y == 0)].sum()))
        a_no = _value(float(w[no & (td.y == 1)].sum()), float(w[no & (td.y == 0)].sum()))
        yes_node = PredictionNode(a_yes)
        no_node = PredictionNode(a_no)
        nodes[pos].splitters.append(Splitter(round_no, cond, yes_node, no_node))

        w[yes] *= np.exp(-ypm[yes] * a_yes)
        w[no] *= np.exp(-ypm[no] * a_no)
        nodes += [yes_node, no_node]
        reach += [yes, no]
        model.weight_totals.append(float(w.sum()))

    return model


def _best_condition(td: TrainingData, reach: list[np.ndarray], w: np.ndarray):
    """(prediction node, condition) of lowest Z over every feature of every
    prediction node (`reach` holds each one's row mask), scored in one
    batch, or None when nothing splits. Rows missing the feature fall in
    neither branch. Ties keep the earliest node, then the smaller feature,
    then the smaller threshold or category: the first minimum in line order."""
    batch = Batch([np.flatnonzero(mask) for mask in reach])
    weights = np.stack([np.where(td.y == 1, w, 0.0), np.where(td.y == 1, 0.0, w)])
    total_w = float(w.sum())
    best = (np.inf, None)
    every = np.arange(len(td.features))
    for ch in line_chunks(td, batch, [every] * len(reach)):
        sums = ch.running_sums(weights)
        (c1, c0), (t1, t0) = sums[:, ch.at], sums[:, ch.ends[ch.line]]
        cat = np.flatnonzero(~ch.numeric[ch.line])
        if len(cat):  # sums over the category's rows and the line's present rows
            lines, line = np.unique(ch.line[cat], return_inverse=True)
            rows, x, m = batch.line_values(td, ch.node[lines], ch.feat[lines])
            positive = td.y[rows] == 1
            t1[cat], t0[cat] = masked_sums(w, rows, m, (x == x) & positive,
                                           (x == x) & ~positive)[:, line]
            rows, m = ch.run_rows(cat)  # a category's rows, ascending
            positive = td.y[rows] == 1
            c1[cat], c0[cat] = masked_sums(w, rows, m, positive, ~positive)
        z = 2.0 * (np.sqrt(c1 * c0) + np.sqrt((t1 - c1) * (t0 - c0))) + (total_w - (t1 + t0))
        if len(cat):  # a category's sums a rounding apart give NaN, never picked
            z[cat] = np.where(np.isnan(z[cat]), np.inf, z[cat])
        k = int(z.argmin())
        if z[k] < best[0]:
            best = (z[k], (int(ch.node[ch.line[k]]), int(ch.feat[ch.line[k]]),
                           float(ch.operand(k))))
    if best[1] is None:
        return None
    pos, f, operand = best[1]
    feature = td.features[f]
    if feature in td.column:
        return pos, SplitCondition(feature, NUMERIC_LT, threshold=operand)
    return pos, SplitCondition(feature, CATEGORICAL_EQ,
                               category=str(td.categories[feature][int(operand)]))
