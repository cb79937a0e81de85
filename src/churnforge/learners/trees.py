"""Greedy Gini-splitting binary decision trees: depth-1 stumps and
depth/min-leaf limited CART-style trees. No pruning phase; the depth and
leaf-size limits are the capacity controls."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..features import FeatureMatrix
from .conditions import LEFT, GiniSearch, RowScoring, SplitCondition, TrainingData


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
class TreeModel(RowScoring):
    root: TreeNode
    feature_names: list[str] = field(default_factory=list)

    def features(self) -> dict[str, str]:
        """{feature: kind} of the features the tree's conditions read."""
        found, stack = {}, [self.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                found[node.condition.feature] = node.condition.feature_kind
                stack += [node.left, node.right]
        return found

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
        column = matrix.columns.get(node.condition.feature)
        # an absent feature is missing in every row
        yes, present = node.condition.masks(
            np.full(len(idx), np.nan) if column is None else column[idx])
        left = yes | ~present if node.condition.missing_goes == LEFT else yes
        self._assign(node.left, idx[left], matrix, out)
        self._assign(node.right, idx[~left], matrix, out)


def grow(search: GiniSearch, max_depth: int, features_per_split: int | None,
         rngs: list) -> list[TreeNode]:
    """One tree per member of `search`, grown in lockstep.

    Each member keeps its own depth-first stack. At every step each member
    pops its nodes that can split (below max_depth, at least 2 * min_leaf
    rows, not pure), and the search scores them all in one batch: a node's
    split depends only on its rows and counts. A weighted search pops one
    node, and a member that samples features pops one and draws its features
    from its own rng. Children are pushed right then left, so each visits its
    nodes, and draws, in the preorder of a recursive grower."""
    td = search.td
    sample = features_per_split is not None and features_per_split < len(td.features)
    every = np.arange(len(td.features))
    roots, stacks = [], []
    for member in range(search.members):
        node = search.root(member)
        roots.append(TreeNode(node.n, node.p1))
        stacks.append([(roots[-1], node, 0)])
    while True:
        batch, features = [], []
        for member, stack in enumerate(stacks):
            while stack:
                tree, node, depth = stack.pop()
                if depth >= max_depth or node.n < 2 * search.min_leaf or node.pure:
                    continue
                features.append(np.sort(rngs[member].choice(
                    len(td.features), size=features_per_split, replace=False)) if sample else every)
                batch.append((tree, node, depth))
                if sample or search.weights is not None:  # preorder draws; _weighted's one node
                    break
        if not batch:
            return roots
        for (tree, node, depth), found in zip(batch, search.split([b[1] for b in batch], features)):
            if found is None:
                continue
            tree.condition, _, _, left, right = found
            tree.left, tree.right = TreeNode(left.n, left.p1), TreeNode(right.n, right.p1)
            stacks[node.member] += [(tree.right, right, depth + 1), (tree.left, left, depth + 1)]


def fit_trees(td: TrainingData, rngs: list, max_depth: int, min_leaf: int,
              counts: np.ndarray | None = None, weights: np.ndarray | None = None,
              features_per_split: int | None = None) -> list[TreeModel]:
    """Grow one tree per rng on presorted data, in lockstep; `counts` holds
    each tree's bootstrap row multiplicities, one line per tree (rows drawn
    0 times take no part). A weighted fit grows one tree."""
    if max_depth < 1 or min_leaf < 1:
        raise ValueError("max_depth and min_leaf must be positive")
    if td.n == 0:
        raise ValueError("cannot train on an empty matrix")
    counts = np.tile(td.multiplicity, (len(rngs), 1)) if counts is None else counts
    search = GiniSearch(td, counts=counts, weights=weights, min_leaf=min_leaf)
    return [TreeModel(root, list(td.feature_names))
            for root in grow(search, max_depth, features_per_split, rngs)]


def fit_tree(td: TrainingData, max_depth: int, min_leaf: int,
             weights: np.ndarray | None = None) -> TreeModel:
    """Grow one tree on presorted data, each row weighted by `weights` if given."""
    return fit_trees(td, [None], max_depth, min_leaf, weights=weights)[0]


def train_cart(matrix: FeatureMatrix, max_depth: int = 6, min_leaf: int = 1) -> TreeModel:
    """Gini-greedy binary tree. A single-class matrix yields a constant
    classifier (one leaf), not an error."""
    return fit_tree(TrainingData(matrix).merged(), max_depth, min_leaf)


def train_stump(matrix: FeatureMatrix) -> TreeModel:
    """Depth-1 tree: the single best Gini split."""
    return train_cart(matrix, max_depth=1, min_leaf=1)
