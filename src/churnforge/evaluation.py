"""Stratified k-fold comparison of learners, per-class precision reports,
best-model selection, and single-split information-gain feature ranking."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .features import FeatureMatrix
from .learners import LearnerSpec, TrainingData, predict_matrix, train
from .learners.conditions import Batch, GiniSearch


@dataclass
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def prec_1(self) -> float | None:
        """Precision for class 1, as a percentage; None when undefined."""
        d = self.tp + self.fp
        return 100.0 * self.tp / d if d else None

    @property
    def prec_0(self) -> float | None:
        d = self.tn + self.fn
        return 100.0 * self.tn / d if d else None

    @property
    def accuracy(self) -> float | None:
        return 100.0 * (self.tp + self.tn) / self.total if self.total else None

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.tp + other.tp, self.fp + other.fp,
                               self.tn + other.tn, self.fn + other.fn)


def confusion(labels: np.ndarray, predicted: np.ndarray) -> ConfusionMatrix:
    labels = np.asarray(labels)
    predicted = np.asarray(predicted)
    return ConfusionMatrix(
        tp=int(((predicted == 1) & (labels == 1)).sum()),
        fp=int(((predicted == 1) & (labels == 0)).sum()),
        tn=int(((predicted == 0) & (labels == 0)).sum()),
        fn=int(((predicted == 0) & (labels == 1)).sum()),
    )


def check_folds(k: int) -> None:
    """The bound on the fold count, for ``stratified_kfold`` and the config."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")


def stratified_kfold(labels: np.ndarray, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """k (train_indices, test_indices) pairs; test folds partition the rows
    with per-class counts within one row of exact proportionality."""
    check_folds(k)
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(labels), dtype=np.int64)
    for cls in (0, 1):
        idx = np.nonzero(labels == cls)[0]
        if len(idx) < k:
            raise ValueError(f"class {cls} has {len(idx)} rows, fewer than k={k}")
        idx = rng.permutation(idx)
        stops = np.linspace(0, len(idx), k + 1).round().astype(int)
        for fold in range(k):
            fold_of[idx[stops[fold]:stops[fold + 1]]] = fold
    out = []
    everything = np.arange(len(labels))
    for fold in range(k):
        test = everything[fold_of == fold]
        train_idx = everything[fold_of != fold]
        out.append((train_idx, test))
    return out


@dataclass
class EvalReport:
    """Per-learner per-fold confusion matrices plus pooled aggregates."""

    learners: list[str]
    folds: dict[str, list[ConfusionMatrix]] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)

    def pooled(self, learner: str) -> ConfusionMatrix:
        return sum(self.folds[learner], ConfusionMatrix())

    def metric_rows(self) -> list[tuple[str, list[float | None]]]:
        rows = []
        for metric in ("prec_1", "prec_0", "accuracy"):
            values = []
            for name in self.learners:
                values.append(getattr(self.pooled(name), metric) if name in self.folds else None)
            rows.append((metric, values))
        return rows

    def render_text(self) -> str:
        """Aligned comparison table: one column per learner, one row per metric."""
        header = ["metric"] + self.learners
        rows = [[m] + [("n/a" if v is None else f"{v:.1f}") for v in values]
                for m, values in self.metric_rows()]
        widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
        lines = ["  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip()
                 for r in [header] + rows]
        for name in self.learners:
            if name in self.failures:
                lines.append(f"{name}: FAILED ({self.failures[name]})")
        return "\n".join(lines) + "\n"

    def to_csv_rows(self) -> list[list]:
        rows = [["metric"] + self.learners]
        for metric, values in self.metric_rows():
            rows.append([metric] + ["" if v is None else repr(v) for v in values])
        return rows


def compare_learners(matrix: FeatureMatrix, specs: list[LearnerSpec], k: int,
                     seed: int) -> EvalReport:
    """Train/test every learner over the same stratified folds. A learner
    that fails keeps its error message; other cells are unaffected."""
    names = [s.display_name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("learner display names must be unique")
    report = EvalReport(list(names))
    folds = stratified_kfold(matrix.labels, k, seed)
    for spec in specs:
        name = spec.display_name
        try:
            cells = []
            for train_idx, test_idx in folds:
                model = train(matrix.subset(train_idx), spec)
                _, predicted = predict_matrix(model, matrix.subset(test_idx))
                cells.append(confusion(matrix.labels[test_idx], predicted))
            report.folds[name] = cells
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            report.failures[name] = str(exc)
    return report


def select_best(report: EvalReport, criterion: str = "prec_1") -> str:
    """Learner with the highest pooled class-1 precision; ties prefer the
    higher accuracy, then the earlier learner id in sorted order."""
    if criterion != "prec_1":
        raise ValueError(f"unsupported criterion {criterion!r}")
    candidates = []
    for name in report.learners:
        if name not in report.folds:
            continue
        pooled = report.pooled(name)
        if pooled.prec_1 is None:
            continue
        acc = pooled.accuracy if pooled.accuracy is not None else -1.0
        candidates.append((-pooled.prec_1, -acc, name))
    if not candidates:
        raise ValueError("no learner produced a defined class-1 precision")
    return min(candidates)[2]


# ---------------------------------------------------------------------------
# feature ranking
# ---------------------------------------------------------------------------

def _entropy(a: int, b: int) -> float:
    n = a + b
    if n == 0 or a == 0 or b == 0:
        return 0.0
    pa, pb = a / n, b / n
    return -(pa * math.log2(pa) + pb * math.log2(pb))


def _entropy_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = (a + b).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        pa = a / n
        pb = b / n
        out = -(np.where(a > 0, pa * np.log2(pa), 0.0)
                + np.where(b > 0, pb * np.log2(pb), 0.0))
    return np.where(n > 0, out, 0.0)


def _split_information_gains(td: TrainingData) -> dict[str, float]:
    """Information gain of the best single binary split on each feature;
    missing rows are routed with the majority side, as in training. The
    branch counts are the split search's exact integers; numeric cuts take
    the vectorised entropy and categories the scalar one."""
    n = td.n
    n1 = int(td.y.sum())
    parent = _entropy(n - n1, n1)
    search = GiniSearch(td)
    root = search.root(0)
    gains = np.zeros(len(td.features))
    for ch, _, nL, aL, nR, aR in search.candidates([root], Batch([root.rows]),
                                                   [np.arange(len(td.features))]):
        bL, bR = nL - aL, nR - aR
        h = (nL / n) * _entropy_vec(bL, aL) + (nR / n) * _entropy_vec(bR, aR)
        for k in np.flatnonzero(~ch.numeric[ch.line]).tolist():
            a, b, c, d = (int(v[k]) for v in (nL, bL, nR, bR))
            h[k] = (a / n) * _entropy(b, a - b) + (c / n) * _entropy(d, c - d)
        np.maximum.at(gains, ch.feat[ch.line], parent - h)
    return dict(zip(td.features, gains.tolist()))


def rank_features(matrix: FeatureMatrix, top_n: int | None = None) -> list[tuple[str, float]]:
    """Features ordered by the information gain of their best single split,
    descending; equal gains order by feature name for determinism."""
    gains = _split_information_gains(TrainingData(matrix))
    scored = [(name, gains[name]) for name in matrix.feature_names]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:top_n] if top_n is not None else scored
