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

Determinism note: candidate statistics accumulate in value-sorted,
stable-index row order, and each false-branch sum is the complement of the
true-branch cumulative sum. That accumulation order is part of the
contract: it makes tie comparisons reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..features import FeatureMatrix
from .conditions import (CATEGORICAL_EQ, NUMERIC_LT, RowScoring, SplitCondition, TrainingData,
                         column_blocks, cut_statistics, node_order)


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
        total_w = float(w.sum())
        weights = np.stack([np.where(ypm > 0, w, 0.0), np.where(ypm > 0, 0.0, w)])
        best = None
        for pos, mask in enumerate(reach):
            cand = _best_condition(td, mask, w, weights, total_w)
            if cand is not None and (best is None or cand[0] < best[0]):
                best = cand + (pos,)
        if best is None:
            break
        _, cond, pos = best
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


def _best_condition(td: TrainingData, mask, w, weights, total_w):
    """Lowest-Z (z, condition) over every feature at the prediction node
    reached by the rows in `mask`, or None when nothing splits it. Rows
    missing the feature fall in neither branch."""
    best = (np.inf, None, None)  # z, feature, operand
    for cols in column_blocks(np.arange(len(td.numeric)), np.count_nonzero(mask)):
        values, cuts, (c1, c0) = cut_statistics(td, node_order(td, mask, cols), weights, cols)
        t1, t0 = c1[:, -1:], c0[:, -1:]
        z = 2.0 * (np.sqrt(c1 * c0) + np.sqrt((t1 - c1) * (t0 - c0))) + (total_w - (t1 + t0))
        f, k = divmod(int(np.where(cuts, z, np.inf).argmin()), z.shape[1])
        if cuts[f, k] and z[f, k] < best[0]:
            best = (float(z[f, k]), td.numeric[cols[f]], (values[f, k] + values[f, k + 1]) / 2.0)
    positive = td.y == 1
    for feature, categories in td.categories.items():
        codes = td.codes[feature]
        present = (codes >= 0) & mask
        w1_all = float(w[present & positive].sum())
        w0_all = float(w[present & ~positive].sum())
        rem = total_w - (w1_all + w0_all)
        for code, cat in enumerate(categories):
            eq = (codes == code) & present
            if not eq.any() or eq.sum() == present.sum():
                continue
            w1_yes = float(w[eq & positive].sum())
            w0_yes = float(w[eq & ~positive].sum())
            z = 2.0 * (math.sqrt(w1_yes * w0_yes)
                       + math.sqrt((w1_all - w1_yes) * (w0_all - w0_yes))) + rem
            if z < best[0] or (z == best[0] and feature < best[1]):
                best = (z, feature, cat)
    z, feature, operand = best
    if feature is None:
        return None
    if feature in td.column:
        return z, SplitCondition(feature, NUMERIC_LT, threshold=float(operand))
    return z, SplitCondition(feature, CATEGORICAL_EQ, category=str(operand))
