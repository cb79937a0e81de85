"""Data-level class rebalancing: random undersampling and repeating oversampling.

Neither sampler synthesizes values; rows are only dropped or repeated
verbatim. The pipeline convention: compare learners on the undersampled
set, retrain the chosen one on the oversampled set.
"""

from __future__ import annotations

import numpy as np

from .features import FeatureMatrix


def _split_classes(matrix: FeatureMatrix):
    if matrix.labels is None:
        raise ValueError("rebalancing needs a labeled matrix")
    zeros, ones = matrix.class_indices()
    if len(zeros) == 0 or len(ones) == 0:
        raise ValueError("rebalancing needs both classes present")
    if len(ones) <= len(zeros):
        return zeros, ones  # majority, minority
    return ones, zeros


def undersample(matrix: FeatureMatrix, seed: int) -> FeatureMatrix:
    """Keep every minority row; keep a uniform random majority subset of
    equal size. Output rows stay in original matrix order."""
    majority, minority = _split_classes(matrix)
    rng = np.random.default_rng(seed)
    chosen = rng.permutation(majority)[: len(minority)]
    keep = np.sort(np.concatenate([minority, chosen]))
    return matrix.subset(keep)


def oversample(matrix: FeatureMatrix, seed: int) -> FeatureMatrix:
    """Repeat minority rows until the classes balance exactly.

    Every minority row appears floor(M/m) or floor(M/m)+1 times (M majority
    rows, m minority rows); the rows receiving the extra copy are a uniform
    random subset. Original rows come first in original order, repeats are
    appended in minority-row order.
    """
    majority, minority = _split_classes(matrix)
    M, m = len(majority), len(minority)
    q, r = divmod(M, m)
    rng = np.random.default_rng(seed)
    extra = np.sort(rng.permutation(minority)[:r])

    parts = [np.arange(matrix.n_rows)]
    for _ in range(q - 1):
        parts.append(minority)
    if r:
        parts.append(extra)
    return matrix.subset(np.concatenate(parts))
