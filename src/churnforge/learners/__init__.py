"""One contract over all classifiers: train(matrix, spec) -> model, and
every model answers score_matrix for a whole FeatureMatrix plus
score_row/predict_row for a single feature dict, which run score_matrix on
a one-row matrix and so give the same bits.

Score semantics per family: probability of class 1 for trees, vote
fraction for bagging/forest, log-posterior odds for Bayes, and signed
margin for ADTree/AdaBoost. In every case the predicted class is 1 only
when the score is strictly above the family's `threshold` (0.5 for trees
and votes, 0 for the others), so exact ties fall to class 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import FeatureMatrix
from .adtree import ADTreeModel, PredictionNode, Splitter, train_adtree
from .bayes import BayesModel, train_bayes
from .conditions import SplitCondition, TrainingData
from .ensembles import EnsembleModel, train_adaboost, train_bagging, train_forest
from .trees import TreeModel, train_cart, train_stump

ALGORITHMS = ("stump", "cart", "adtree", "bayes", "bagging", "forest", "adaboost")


@dataclass(frozen=True)
class LearnerSpec:
    algorithm: str
    name: str | None = None  # display id; defaults to algorithm
    max_depth: int = 6
    min_leaf: int = 1
    n_trees: int = 25
    n_boost_rounds: int = 10
    features_per_split: int | None = None
    base_algorithm: str = "cart"
    bootstrap: bool = True
    seed: int = 0

    @property
    def display_name(self) -> str:
        return self.name or self.algorithm

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for attr in ("max_depth", "min_leaf", "n_trees"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be a positive integer")
        if self.n_boost_rounds < 0:
            raise ValueError("n_boost_rounds must be >= 0")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be a positive integer")


def train(matrix: FeatureMatrix, spec: LearnerSpec):
    """Train the algorithm named by the spec; deterministic given
    (matrix, spec, seed)."""
    spec.validate()
    a = spec.algorithm
    if a == "stump":
        return train_stump(matrix)
    if a == "cart":
        return train_cart(matrix, max_depth=spec.max_depth, min_leaf=spec.min_leaf)
    if a == "adtree":
        return train_adtree(matrix, n_boost_rounds=spec.n_boost_rounds)
    if a == "bayes":
        return train_bayes(matrix)
    if a == "bagging":
        return train_bagging(matrix, n_trees=spec.n_trees, seed=spec.seed,
                             bootstrap=spec.bootstrap, max_depth=spec.max_depth,
                             min_leaf=spec.min_leaf)
    if a == "forest":
        return train_forest(matrix, n_trees=spec.n_trees, seed=spec.seed,
                            features_per_split=spec.features_per_split,
                            bootstrap=spec.bootstrap, max_depth=spec.max_depth,
                            min_leaf=spec.min_leaf)
    if a == "adaboost":
        return train_adaboost(matrix, n_boost_rounds=max(spec.n_boost_rounds, 1),
                              base_algorithm=spec.base_algorithm,
                              max_depth=spec.max_depth, min_leaf=spec.min_leaf)
    raise AssertionError(a)


def predict_matrix(model, matrix: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(scores, labels) over all rows, using the model's batch path."""
    scores = model.score_matrix(matrix)
    return scores, (scores > model.threshold).astype(np.int8)


__all__ = [
    "ALGORITHMS", "LearnerSpec", "train", "predict_matrix",
    "SplitCondition", "TrainingData",
    "TreeModel", "train_cart", "train_stump",
    "ADTreeModel", "PredictionNode", "Splitter", "train_adtree",
    "BayesModel", "train_bayes",
    "EnsembleModel", "train_bagging", "train_forest", "train_adaboost",
]
