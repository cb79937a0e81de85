"""Bagging, random forest, and AdaBoost over the base tree learners.

Each ensemble member draws from its own RNG stream keyed by
(seed, member index), so training is reproducible and independent of how
members might be scheduled. Bagging and forests vote uniformly (score =
fraction of members voting class 1, ties to class 0); AdaBoost scores are
the signed weighted margin (class 1 iff score > 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..features import FeatureMatrix
from .conditions import GiniSearch, RowScoring, TrainingData
from .trees import TreeModel, TreeNode, fit_trees, fit_weighted

VOTE = "vote"
MARGIN = "margin"


@dataclass
class EnsembleModel(RowScoring):
    combine: str  # VOTE | MARGIN
    members: list = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)  # MARGIN only

    def __post_init__(self):
        if self.combine not in (VOTE, MARGIN):
            raise ValueError(f"unknown combine rule {self.combine!r}")

    @property
    def threshold(self) -> float:
        return 0.5 if self.combine == VOTE else 0.0

    def features(self) -> dict[str, str]:
        """{feature: kind} of the features any member reads."""
        return {f: kind for m in self.members for f, kind in m.features().items()}

    def score_matrix(self, matrix: FeatureMatrix) -> np.ndarray:
        if self.combine == VOTE:
            votes = np.zeros(matrix.n_rows)
            for m in self.members:
                votes += m.score_matrix(matrix) > m.threshold
            return votes / len(self.members)
        out = np.zeros(matrix.n_rows)
        for a, m in zip(self.alphas, self.members):
            out += a * np.where(m.score_matrix(matrix) > m.threshold, 1.0, -1.0)
        return out


def _train_members(matrix: FeatureMatrix, seed: int, indexes: list[int],
                   bootstrap: bool, max_depth: int, min_leaf: int,
                   features_per_split: int | None) -> list[TreeModel]:
    """Bagged trees number `indexes`, grown in lockstep on one presort of
    the matrix's distinct rows. Each is a pure function of (matrix, seed,
    index): its rng draws its bootstrap sample (n draws with replacement
    over the matrix's n rows, counted through `td.index`), then its features."""
    if not indexes:
        raise ValueError("n_trees must be positive")
    td = TrainingData(matrix).merged()
    rngs = [np.random.default_rng((seed, i)) for i in indexes]
    counts = None
    if bootstrap:
        n = len(td.index)
        counts = np.array([np.bincount(td.index.take(rng.integers(0, n, size=n)), minlength=td.n)
                           for rng in rngs]).reshape(len(rngs), td.n)
    return fit_trees(td, rngs, max_depth=max_depth, min_leaf=min_leaf, counts=counts,
                     features_per_split=features_per_split)


def _train_member(matrix: FeatureMatrix, seed: int, index: int, bootstrap: bool,
                  max_depth: int, min_leaf: int,
                  features_per_split: int | None) -> TreeModel:
    """One bagged tree, alone; equal to member `index` of a lockstep fit."""
    return _train_members(matrix, seed, [index], bootstrap, max_depth, min_leaf,
                          features_per_split)[0]


def train_bagging(matrix: FeatureMatrix, n_trees: int = 15, seed: int = 0,
                  bootstrap: bool = True, max_depth: int = 6,
                  min_leaf: int = 1) -> EnsembleModel:
    return EnsembleModel(VOTE, _train_members(matrix, seed, list(range(n_trees)),
                                              bootstrap, max_depth, min_leaf, None))


def train_forest(matrix: FeatureMatrix, n_trees: int = 25, seed: int = 0,
                 features_per_split: int | None = None, bootstrap: bool = True,
                 max_depth: int = 8, min_leaf: int = 1) -> EnsembleModel:
    """Bagged trees that each draw `features_per_split` features at every
    node (by default the rounded square root of the feature count)."""
    if features_per_split is None:
        features_per_split = max(1, int(round(math.sqrt(len(matrix.feature_names)))))
    elif features_per_split < 1:
        raise ValueError("features_per_split must be positive")
    return EnsembleModel(VOTE, _train_members(matrix, seed, list(range(n_trees)),
                                              bootstrap, max_depth, min_leaf, features_per_split))


def _constant_member(matrix: FeatureMatrix) -> TreeModel:
    p1 = float((matrix.labels == 1).mean())
    return TreeModel(TreeNode(n=matrix.n_rows, p1=p1), list(matrix.feature_names))


def train_adaboost(matrix: FeatureMatrix, n_boost_rounds: int = 20,
                   base_algorithm: str = "stump", max_depth: int = 6,
                   min_leaf: int = 1) -> EnsembleModel:
    """Weighted-error boosting with member weight 0.5*ln((1-e)/e), over
    stumps or over CART trees of `max_depth` and `min_leaf` (a stump base
    reads neither).

    Stops when a round's weighted error reaches 0 (the perfect member is
    kept) or 0.5 or worse (the member is dropped). If no member survives,
    the result is a constant majority-class classifier.
    """
    if n_boost_rounds < 1:
        raise ValueError("n_boost_rounds must be positive")
    if base_algorithm not in ("stump", "cart"):
        raise ValueError(f"unsupported AdaBoost base learner {base_algorithm!r}")
    if base_algorithm == "stump":
        max_depth, min_leaf = 1, 1
    td = TrainingData(matrix)
    n = matrix.n_rows
    y = matrix.labels.astype(np.float64)
    ypm = np.where(y == 1, 1.0, -1.0)
    w = np.ones(n)
    members: list[TreeModel] = []
    alphas: list[float] = []
    search = GiniSearch(td, weights=w, min_leaf=min_leaf)  # one root layout for every round

    for _ in range(n_boost_rounds):
        member = fit_weighted(search, w, max_depth)
        pred = (member.score_matrix(matrix) > member.threshold).astype(np.float64)
        wrong = pred != y
        eps = float(w[wrong].sum() / w.sum())
        if eps >= 0.5:
            break
        alpha = 0.5 * math.log((1.0 - eps) / max(eps, 1e-10))
        members.append(member)
        alphas.append(alpha)
        if eps == 0.0:
            break
        hpm = np.where(pred == 1, 1.0, -1.0)
        w = w * np.exp(-alpha * ypm * hpm)
        w *= n / w.sum()

    if not members:
        members = [_constant_member(matrix)]
        alphas = [1.0]
    return EnsembleModel(MARGIN, members, alphas)
