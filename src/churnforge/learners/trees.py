"""Greedy Gini-splitting binary decision trees: depth-1 stumps and
depth/min-leaf limited CART-style trees. No pruning phase; the depth and
leaf-size limits are the capacity controls."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..features import FeatureMatrix, is_missing
from .conditions import GiniSearch, SplitCondition, TrainingData


@dataclass
class TreeNode:
    n: int
    p1: float  # class-1 fraction of training rows at this node
    condition: SplitCondition | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.condition is None


@dataclass
class TreeModel:
    root: TreeNode
    feature_names: list[str] = field(default_factory=list)

    def score_row(self, row: dict) -> float:
        node = self.root
        while not node.is_leaf:
            node = node.left if node.condition.route(row.get(node.condition.feature)) else node.right
        return node.p1

    def predict_row(self, row: dict) -> int:
        return int(self.score_row(row) > 0.5)

    def score_matrix(self, matrix: FeatureMatrix) -> np.ndarray:
        out = np.zeros(matrix.n_rows)
        self._assign(self.root, np.arange(matrix.n_rows), matrix, out)
        return out

    def _assign(self, node: TreeNode, idx: np.ndarray, matrix: FeatureMatrix, out: np.ndarray):
        if len(idx) == 0:
            return
        if node.is_leaf:
            out[idx] = node.p1
            return
        left = _route_mask(node.condition, matrix.columns[node.condition.feature][idx])
        self._assign(node.left, idx[left], matrix, out)
        self._assign(node.right, idx[~left], matrix, out)


def _route_mask(cond: SplitCondition, values: np.ndarray) -> np.ndarray:
    if cond.kind == "numeric_lt":
        missing = np.isnan(values)
        left = values < cond.threshold
    else:
        missing = np.array([is_missing(v) for v in values], dtype=bool)
        left = np.array([v == cond.category for v in values], dtype=bool)
    if cond.missing_goes == "left":
        left = left | missing
    else:
        left = left & ~missing
    return left


def _grow(search: GiniSearch, rows: np.ndarray, depth: int, max_depth: int,
          features_per_split, rng) -> TreeNode:
    td = search.td
    n, p1, pure = search.leaf(rows)
    tree = TreeNode(n, p1)
    if depth >= max_depth or n < 2 * search.min_leaf or pure:
        return tree
    if features_per_split is not None and features_per_split < len(td.features):
        picked = rng.choice(len(td.features), size=features_per_split, replace=False)
        features = [td.features[i] for i in sorted(picked)]
    else:
        features = td.features
    choice = search.best(rows, features)
    if choice is None:
        return tree
    tree.condition, left, _ = choice
    tree.left = _grow(search, rows[left], depth + 1, max_depth, features_per_split, rng)
    tree.right = _grow(search, rows[~left], depth + 1, max_depth, features_per_split, rng)
    return tree


def fit_tree(td: TrainingData, max_depth: int = 6, min_leaf: int = 1,
             counts: np.ndarray | None = None, weights: np.ndarray | None = None,
             features_per_split: int | None = None,
             rng: np.random.Generator | None = None) -> TreeModel:
    """Grow one tree on presorted data; `counts` are bootstrap row
    multiplicities (rows drawn 0 times take no part)."""
    if max_depth < 1 or min_leaf < 1:
        raise ValueError("max_depth and min_leaf must be positive")
    if td.n == 0:
        raise ValueError("cannot train on an empty matrix")
    rows = np.arange(td.n) if counts is None else np.flatnonzero(counts)
    search = GiniSearch(td, counts=counts, weights=weights, min_leaf=min_leaf)
    return TreeModel(_grow(search, rows, 0, max_depth, features_per_split, rng),
                     list(td.feature_names))


def train_cart(matrix: FeatureMatrix, max_depth: int = 6, min_leaf: int = 1,
               weights: np.ndarray | None = None) -> TreeModel:
    """Gini-greedy binary tree. A single-class matrix yields a constant
    classifier (one leaf), not an error."""
    return fit_tree(TrainingData(matrix), max_depth, min_leaf, weights=weights)


def train_stump(matrix: FeatureMatrix, weights: np.ndarray | None = None) -> TreeModel:
    """Depth-1 tree: the single best Gini split."""
    return train_cart(matrix, max_depth=1, min_leaf=1, weights=weights)
