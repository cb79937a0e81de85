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

import inspect
import typing
from dataclasses import dataclass

import numpy as np

from ..features import FeatureMatrix
from .adtree import ADTreeModel, PredictionNode, Splitter, train_adtree
from .bayes import BayesModel, train_bayes
from .conditions import SplitCondition, TrainingData
from .ensembles import EnsembleModel, train_adaboost, train_bagging, train_forest
from .trees import TreeModel, train_cart, train_stump


def _reads(fit) -> dict[str, type]:
    """{name: type} of a training function's keyword parameters (`int`
    for `int | None`)."""
    params = list(inspect.signature(fit, eval_str=True).parameters.values())[1:]
    return {p.name: (typing.get_args(p.annotation) or [p.annotation])[0] for p in params}


# algorithm -> (its training function, {hyperparameter: type} of the keyword
# parameters that function reads). The function's keyword defaults are the
# learner's defaults, and it checks their bounds.
LEARNERS = {algorithm: (fit, _reads(fit)) for algorithm, fit in (
    ("stump", train_stump), ("cart", train_cart), ("adtree", train_adtree),
    ("bayes", train_bayes), ("bagging", train_bagging), ("forest", train_forest),
    ("adaboost", train_adaboost))}
ALGORITHMS = tuple(LEARNERS)


@dataclass(frozen=True)
class LearnerSpec:
    """An algorithm and the hyperparameters set for it. A field left None
    takes the training function's default, and a field the algorithm does
    not read is ignored."""
    algorithm: str
    name: str | None = None  # display id; defaults to algorithm
    max_depth: int | None = None
    min_leaf: int | None = None
    n_trees: int | None = None
    n_boost_rounds: int | None = None
    features_per_split: int | None = None
    base_algorithm: str | None = None
    bootstrap: bool | None = None
    seed: int | None = None

    @property
    def display_name(self) -> str:
        return self.name or self.algorithm


def train(matrix: FeatureMatrix, spec: LearnerSpec):
    """Train the algorithm named by the spec on the hyperparameters the spec
    sets and the algorithm reads; deterministic given (matrix, spec)."""
    if spec.algorithm not in LEARNERS:
        raise ValueError(f"unknown algorithm {spec.algorithm!r}")
    fit, reads = LEARNERS[spec.algorithm]
    return fit(matrix, **{key: getattr(spec, key) for key in reads
                          if getattr(spec, key) is not None})


def predict_matrix(model, matrix: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(scores, labels) over all rows, using the model's batch path."""
    scores = model.score_matrix(matrix)
    return scores, (scores > model.threshold).astype(np.int8)


__all__ = [
    "ALGORITHMS", "LEARNERS", "LearnerSpec", "train", "predict_matrix",
    "SplitCondition", "TrainingData",
    "TreeModel", "train_cart", "train_stump",
    "ADTreeModel", "PredictionNode", "Splitter", "train_adtree",
    "BayesModel", "train_bayes",
    "EnsembleModel", "train_bagging", "train_forest", "train_adaboost",
]
