"""Stratified k-fold comparison of learners, per-class precision reports,
best-model selection, and single-split information-gain feature ranking."""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from multiprocessing.connection import wait

import numpy as np

from .features import FeatureMatrix
from .learners import LearnerSpec, TrainingData, predict_matrix, train
from .learners.conditions import Batch, GiniSearch, line_chunks


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


def _cell(matrix: FeatureMatrix, spec: LearnerSpec,
          fold: tuple[np.ndarray, np.ndarray]) -> ConfusionMatrix | str:
    """Train on one fold's train rows and score its test rows. A failure is
    returned as its message, so no cell can stop another."""
    train_idx, test_idx = fold
    try:
        model = train(matrix.subset(train_idx), spec)
        _, predicted = predict_matrix(model, matrix.subset(test_idx))
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return str(exc)
    return confusion(matrix.labels[test_idx], predicted)


# Cross-validation forks workers once the cells still to run, at the mean
# time of those run so far, would take this long in one process. Below it,
# forking and the copy-on-write faults that follow cost about what a second
# CPU saves (see README.md, "Library quickstart").
_FORK_AFTER_S = 0.1


def _run_cells(n: int, cell: Callable[[int], object]) -> list:
    """``[cell(i) for i in range(n)]``, spread over every CPU in this
    process's affinity mask once the cells left are expected to take
    ``_FORK_AFTER_S``; the list never depends on scheduling. ``cell`` must
    not return None. Every cell runs here where the OS reports no affinity
    mask (not Linux), in a daemonic process (a ``multiprocessing.Pool``
    worker may not have children), and while another Python thread runs,
    since it could hold a lock across the fork."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else 1
    if cpus == 1 or multiprocessing.current_process().daemon or threading.active_count() > 1:
        return [cell(i) for i in range(n)]
    results = []
    start = time.perf_counter()
    for i in range(n):
        if i and (time.perf_counter() - start) / i * (n - i) >= _FORK_AFTER_S:
            return results + _fork_cells(range(i, n), cell, min(cpus, n - i))
        results.append(cell(i))
    return results


def _fork_cells(jobs: range, cell: Callable[[int], object], workers: int) -> list:
    """``[cell(i) for i in jobs]`` in this process and ``workers - 1`` forked
    children. Worker w runs jobs w, w + workers, ..., so with cells laid out
    learner-major each learner's folds are shared evenly, and each outcome
    is placed by its job's position. A child that exits early fails the
    call with one RuntimeError; no child outlives the call."""
    # fork, not spawn: children share the parent's matrix and folds without
    # pickling them, and ``cell`` may be a closure
    ctx = multiprocessing.get_context("fork")

    def child(w: int, conn) -> None:
        for j in range(w, len(jobs), workers):
            conn.send((j, cell(jobs[j])))
        conn.close()

    results: list = [None] * len(jobs)
    children, readers = [], []
    try:
        for w in range(1, workers):
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            with writer:  # closed here, a child's exit is seen as EOF on its pipe
                proc = ctx.Process(target=child, args=(w, writer), daemon=True)
                proc.start()
            children.append(proc)
        for j in range(0, len(jobs), workers):
            results[j] = cell(jobs[j])
        while readers:
            for reader in wait(readers):
                try:
                    j, outcome = reader.recv()
                except EOFError:
                    readers.remove(reader)
                    reader.close()
                else:
                    results[j] = outcome
    except BaseException:
        for proc in children:
            proc.terminate()
        raise
    finally:
        for conn in readers:
            conn.close()
        for proc in children:
            proc.join()
    if any(r is None for r in results):
        codes = ", ".join(str(proc.exitcode) for proc in children)
        raise RuntimeError("a cross-validation worker exited before returning its cells "
                           f"(worker exit codes: {codes})")
    return results


def compare_learners(matrix: FeatureMatrix, specs: list[LearnerSpec], k: int,
                     seed: int) -> EvalReport:
    """Train/test every learner over the same stratified folds. A learner
    that fails keeps the message of its first failing fold; other cells are
    unaffected. Once the (learner, fold) cells are expected to take long
    enough, they run on every CPU in the process's affinity mask; the report
    does not depend on how many there are."""
    names = [s.display_name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("learner display names must be unique")
    report = EvalReport(list(names))
    folds = stratified_kfold(matrix.labels, k, seed)
    jobs = [(spec, fold) for spec in specs for fold in folds]
    outcomes = _run_cells(len(jobs), lambda i: _cell(matrix, *jobs[i]))
    for j, name in enumerate(names):
        cells = outcomes[j * len(folds):(j + 1) * len(folds)]
        failed = [c for c in cells if isinstance(c, str)]
        if failed:
            report.failures[name] = failed[0]
        else:
            report.folds[name] = cells
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
    chunks = line_chunks(td, Batch([root.rows]), [np.arange(len(td.features))])
    for ch, _, nL, aL, nR, aR in search.candidates([root], chunks):
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
