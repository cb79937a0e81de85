"""Gaussian / frequency naive Bayes.

Numeric features get a per-class Gaussian (population variance, floored at
1e-9 of the feature's overall variance to survive constant columns);
categorical features get Laplace +1 smoothed frequencies. Missing values
(None or NaN) are skipped both when fitting and when scoring, and so is a
feature the scored matrix lacks. The score is the class-1 log-posterior
odds, so class 1 is predicted iff score > 0 and ties fall to class 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..features import CATEGORICAL, NUMERIC, FeatureMatrix
from .conditions import RowScoring

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class GaussianStats:
    mean: tuple[float, float]  # per class 0, 1
    var: tuple[float, float]
    usable: bool  # False when a class had no observed values


@dataclass
class CategoryStats:
    categories: list[str]
    counts: dict[str, tuple[int, int]]  # value -> per-class counts
    totals: tuple[int, int]             # observed per class


@dataclass
class BayesModel(RowScoring):
    log_prior_odds: float  # log(P(1)/P(0))
    numeric: dict[str, GaussianStats] = field(default_factory=dict)
    categorical: dict[str, CategoryStats] = field(default_factory=dict)

    threshold = 0.0

    def features(self) -> dict[str, str]:
        """{feature: kind} of the features the model has tables for."""
        return {**dict.fromkeys(self.numeric, NUMERIC),
                **dict.fromkeys(self.categorical, CATEGORICAL)}

    def score_matrix(self, matrix: FeatureMatrix) -> np.ndarray:
        out = np.full(matrix.n_rows, self.log_prior_odds)
        for name, g in self.numeric.items():
            if not g.usable:
                continue
            x = matrix.columns.get(name)
            if x is None:  # an absent feature is missing in every row
                continue
            ok = ~np.isnan(x)
            delta = (_gauss_loglik_vec(x, g.mean[1], g.var[1])
                     - _gauss_loglik_vec(x, g.mean[0], g.var[0]))
            out += np.where(ok, delta, 0.0)
        for name, c in self.categorical.items():
            col = matrix.columns.get(name)
            if col is None:
                continue
            k = len(c.categories)
            delta = np.zeros(matrix.n_rows)
            for i, v in enumerate(col):
                if v is None or v != v:  # None or NaN: missing
                    continue
                c0, c1 = c.counts.get(v, (0, 0))
                delta[i] = (math.log((c1 + 1) / (c.totals[1] + k))
                            - math.log((c0 + 1) / (c.totals[0] + k)))
            out += delta
        return out


def _gauss_loglik_vec(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return -0.5 * (_LOG_2PI + math.log(var)) - (x - mean) ** 2 / (2.0 * var)


def train_bayes(matrix: FeatureMatrix) -> BayesModel:
    if matrix.labels is None:
        raise ValueError("training needs a labeled matrix")
    if matrix.n_rows == 0:
        raise ValueError("cannot train on an empty matrix")
    y = matrix.labels
    n1 = int((y == 1).sum())
    n0 = matrix.n_rows - n1
    # Laplace-smoothed priors keep single-class inputs finite
    model = BayesModel(math.log((n1 + 1) / (n0 + 1)))

    for name in matrix.feature_names:
        col = matrix.columns[name]
        if matrix.kinds[name] == NUMERIC:
            global_var = float(np.nanvar(col)) if not np.all(np.isnan(col)) else 0.0
            floor = max(1e-9 * global_var, 1e-12)
            means, variances, ok = [], [], True
            for cls in (0, 1):
                vals = col[y == cls]
                vals = vals[~np.isnan(vals)]
                if len(vals) == 0:
                    ok = False
                    means.append(0.0), variances.append(1.0)
                    continue
                means.append(float(vals.mean()))
                variances.append(max(float(vals.var()), floor))
            model.numeric[name] = GaussianStats((means[0], means[1]),
                                                (variances[0], variances[1]), ok)
        else:
            counts: dict[str, list[int]] = {}
            totals = [0, 0]
            for (v, cls), c in Counter(zip(col, y.tolist())).items():
                if v is None or v != v:  # None or NaN: missing
                    continue
                counts.setdefault(v, [0, 0])[cls] += c
                totals[cls] += c
            model.categorical[name] = CategoryStats(
                sorted(counts), {v: (c[0], c[1]) for v, c in counts.items()},
                (totals[0], totals[1]))
    return model
