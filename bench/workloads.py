"""The benchmark's two workloads.

Each workload has an untimed ``setup``, a ``prepare`` before every pass, a
timed ``run`` and an untimed ``check``. ``run`` calls churnforge only
through module attributes (``tasks.<name>``, ``cli.main``), so the span
shims in ``tracing`` see every layer boundary when they are installed.
"""

from __future__ import annotations

import cProfile
import csv
import hashlib
import io
import json
import os
import shutil
import time
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from churnforge import cli, tasks
from churnforge.model_io import model_to_dict

# Workload sizes. "full" is what the benchmark measures; "tiny" only proves
# in the smoke test that every metric is emitted.
SIZES = {
    "c5-learn": {"full": {"n_consumers": 5000}, "tiny": {"n_consumers": 2000}},
    "cli-ingest": {"full": {"n_consumers": 4000, "n_smes": 900},
                   "tiny": {"n_consumers": 1200, "n_smes": 300, "k_folds": 3}},
}
DEFAULT_SEEDS = {"c5-learn": 42, "cli-ingest": 8}

USAGE_PREFIXES = ("DL", "UL", "3M_")
TOP_N = 100
_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """Current resident set size of this process (0 where /proc is absent)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as f:
            return int(f.read().split()[1]) * _PAGE
    except OSError:
        return 0


class Clock:
    """Sums wall time per named step, samples the RSS at every step's start
    and end, and profiles the one step it is asked to."""

    def __init__(self, profile_stage: str | None = None):
        self.times: dict[str, float] = defaultdict(float)
        self.peak_rss = 0
        self.profile_stage = profile_stage
        self.profiler = cProfile.Profile() if profile_stage else None

    @contextmanager
    def step(self, name: str):
        profiled = name == self.profile_stage
        if profiled:
            self.profiler.enable()
        self.peak_rss = max(self.peak_rss, rss_bytes())
        start = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] += time.perf_counter() - start
            self.peak_rss = max(self.peak_rss, rss_bytes())
            if profiled:
                self.profiler.disable()


@dataclass
class PassResult:
    """What one pass produced, judged after its timing stopped."""

    digest: str
    checks: dict[str, bool]
    accounts: int
    holdout_prec_1: float
    cv_cells: int = 0
    cv_failed_cells: int = 0
    steps: int = 0
    failed_steps: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.cv_cells + self.steps + len(self.checks)

    @property
    def cv_ok_cells(self) -> int:
        return self.cv_cells - self.cv_failed_cells

    @property
    def failed(self) -> int:
        return (self.cv_failed_cells + self.failed_steps
                + sum(1 for ok in self.checks.values() if not ok))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _ranked_ok(rows: list[tuple[str, float]], ids, scores, direction: str) -> bool:
    """``rows`` is the first TOP_N of (score, billing id) in ``direction``,
    recomputed here independently of ``rank_predictions``."""
    sign = 1.0 if direction == "ascending" else -1.0
    order = np.lexsort((np.asarray(ids), sign * np.asarray(scores, dtype=np.float64)))
    expected = [(ids[i], float(scores[i])) for i in order[:TOP_N]]
    return len(rows) == min(TOP_N, len(ids)) and rows == expected


# ---------------------------------------------------------------------------
# c5-learn: the criterion-5 learning half, in memory
# ---------------------------------------------------------------------------

class C5Learn:
    """Criterion-5 config; the timed pass is undersample, CV of all seven
    learners, select_best, oversample, final train, batch score and rank,
    holdout confusion and rank_features.

    The dataset is always generated with criterion 5's seed 42, so every
    workload seed learns from the same consumers; the workload seed S sets
    the learners' seed and S+1..S+4 the undersample, fold, oversample and
    holdout seeds. The final learner is pinned to the forest. Both keep the
    amount of learning work the same across seeds (see README.md).
    """

    name = "c5-learn"
    DATA_SEED = 42

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = SIZES[self.name][size]
        self.cfg = tasks.PipelineConfig(seed=seed, final_learner="forest")

    def setup(self, clock: Clock) -> None:
        gcfg = tasks.GeneratorConfig(seed=self.DATA_SEED, churn_rate=0.08,
                                     signal_strength=0.8, n_smes=0, **self.size)
        with clock.step("generate"):
            dataset = tasks.generate(gcfg)
        w_train = tasks.standard_windows("churn", "train")
        w_test = tasks.standard_windows("churn", "test")
        with clock.step("extract"):
            self.train_m = tasks.extract_churn(dataset, w_train)
            self.test_m = tasks.extract_churn(dataset, w_test,
                                              naming_months=w_train.feature_months)
        self.specs = self.cfg.learner_specs()

    def prepare(self) -> None:
        pass

    def run(self, clock: Clock) -> dict:
        s, cfg = self.seed, self.cfg
        with clock.step("compare"):
            balanced = tasks.undersample(self.train_m, s + 1)
            report = tasks.compare_learners(balanced, self.specs, cfg.k_folds, s + 2)
            best = tasks.select_best(report)
        with clock.step("train-final"):
            oversampled = tasks.oversample(self.train_m, s + 3)
            model = tasks.train(oversampled, cfg.spec_for(cfg.final_learner))
        with clock.step("predict"):
            scores, _ = tasks.predict_matrix(model, self.test_m)
            top = tasks.rank_predictions(self.test_m.billing_ids, scores, "descending", TOP_N)
            holdout = tasks.undersample(self.test_m, s + 4)
            _, predicted = tasks.predict_matrix(model, holdout)
            cm = tasks.confusion(holdout.labels, predicted)
        with clock.step("rank-features"):
            ranking = tasks.rank_features(self.train_m, 10)
        return {"report": report, "best": best, "model": model, "scores": scores,
                "top": top, "cm": cm, "ranking": ranking, "balanced_rows": balanced.n_rows,
                "oversampled_rows": oversampled.n_rows}

    def check(self, out: dict) -> PassResult:
        report, cm, ranking = out["report"], out["cm"], out["ranking"]
        k = self.cfg.k_folds
        usage = [n for n, _ in ranking if n.startswith(USAGE_PREFIXES)]
        checks = {
            "holdout_prec_1>=70": cm.prec_1 is not None and cm.prec_1 >= 70.0,
            "usage_features_in_top10>=5": len(usage) >= 5,
            "cv_cells_all_succeed": not report.failures
            and all(len(report.folds[n]) == k for n in report.learners),
            "top100_order": _ranked_ok(out["top"], self.test_m.billing_ids,
                                       out["scores"], "descending"),
        }
        payload = {
            "comparison": report.to_csv_rows(), "best": out["best"],
            "model": model_to_dict(out["model"]),
            "top": [(b, repr(v)) for b, v in out["top"]],
            "holdout": [cm.tp, cm.fp, cm.tn, cm.fn],
            "ranking": [(n, repr(g)) for n, g in ranking],
        }
        digest = _sha256(json.dumps(payload, sort_keys=True).encode())
        cells = k * len(report.learners)
        return PassResult(
            digest=digest, checks=checks,
            accounts=self.train_m.n_rows + self.test_m.n_rows,
            holdout_prec_1=cm.prec_1 or 0.0,
            cv_cells=cells, cv_failed_cells=k * len(report.failures),
            notes={"best": out["best"], "undersampled_rows": out["balanced_rows"],
                   "oversampled_rows": out["oversampled_rows"],
                   "usage_in_top10": len(usage)})


# ---------------------------------------------------------------------------
# cli-ingest: the CLI's file hand-offs, in process
# ---------------------------------------------------------------------------

CLI_TASKS = (1, 3, 6)
CLI_STEPS = ("extract", "compare", "train-final", "predict", "rank-features")
HOLDOUT_KEYS = ("tp", "fp", "tn", "fn", "prec_1", "prec_0", "accuracy")


def _parse_holdout(path: str) -> dict:
    """``holdout.txt`` as numbers; raises ValueError if it does not parse."""
    values = {}
    with open(path, encoding="utf-8") as f:
        for line in f.read().split():
            key, raw = line.split("=", 1)
            values[key] = None if raw == "n/a" else (int(raw) if key in HOLDOUT_KEYS[:4]
                                                     else float(raw))
    if tuple(values) != HOLDOUT_KEYS:
        raise ValueError(f"{path}: keys {tuple(values)}")
    tp, fp = values["tp"], values["fp"]
    expected = None if tp + fp == 0 else round(100.0 * tp / (tp + fp), 2)
    if values["prec_1"] != expected:
        raise ValueError(f"{path}: prec_1 {values['prec_1']} != {expected}")
    return values


def _tree_digest(*directories: str) -> str:
    h = hashlib.sha256()
    for directory in directories:
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as f:
                h.update(f"{os.path.basename(directory)}/{name}\0".encode())
                h.update(_sha256(f.read()).encode())
    return h.hexdigest()


def _count_rows(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for _ in f) - 1


class CliIngest:
    """Criterion-8 style config driven through ``cli.main``: generate once,
    then extract, compare, train-final, predict --holdout and rank-features
    for tasks 1, 3 and 6."""

    name = "cli-ingest"

    def __init__(self, seed: int, size: str, workdir: str):
        self.data_dir = os.path.join(workdir, "data")
        self.out_dir = os.path.join(workdir, "out")
        self.config = os.path.join(workdir, "config.txt")
        values = {"seed": seed, "churn_rate": 0.2, "winback_rate": 0.3, "k_folds": 10,
                  "learners": "stump,bayes", "data_dir": self.data_dir,
                  "out_dir": self.out_dir, **SIZES[self.name][size]}
        os.makedirs(workdir, exist_ok=True)
        with open(self.config, "w", encoding="utf-8") as f:
            f.writelines(f"{k} = {v}\n" for k, v in values.items())
        self.k_folds = values["k_folds"]
        self.n_learners = len(values["learners"].split(","))

    def setup(self, clock: Clock) -> None:
        pass

    def prepare(self) -> None:
        for directory in (self.data_dir, self.out_dir):
            shutil.rmtree(directory, ignore_errors=True)

    def _step(self, clock: Clock, step: str, task: int | None) -> tuple[int, str, str]:
        argv = [step, "--config", self.config]
        if task is not None:
            argv += ["--task", str(task)]
        if step == "predict":
            argv.append("--holdout")
        out, err = io.StringIO(), io.StringIO()
        with clock.step(step), redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def run(self, clock: Clock) -> dict:
        results = [("generate", None, *self._step(clock, "generate", None))]
        for task in CLI_TASKS:
            for step in CLI_STEPS:
                results.append((step, task, *self._step(clock, step, task)))
        return {"results": results}

    def _path(self, task: int, suffix: str) -> str:
        return os.path.join(self.out_dir, f"task{task}_{suffix}")

    def check(self, out: dict) -> PassResult:
        failed_steps = [f"{step}/{task}: rc={rc} {err.strip()[:200]}"
                        for step, task, rc, stdout, err in out["results"]
                        if rc != 0 or stdout.count("\n") != 1 or not stdout.endswith("\n")]
        checks: dict[str, bool] = {}
        cells = failed_cells = accounts = 0
        prec_1 = 0.0
        for task in CLI_TASKS:
            try:
                with open(self._path(task, "comparison.txt"), encoding="utf-8") as f:
                    n_failed = sum(1 for line in f if ": FAILED (" in line)
                cells += self.k_folds * self.n_learners
                failed_cells += self.k_folds * n_failed
                accounts += (_count_rows(self._path(task, "train.csv"))
                             + _count_rows(self._path(task, "test.csv")))
                checks[f"task{task}_predictions"] = self._predictions_ok(task)
                holdout = _parse_holdout(self._path(task, "holdout.txt"))
                checks[f"task{task}_holdout_parses"] = True
                if task == CLI_TASKS[0]:
                    prec_1 = holdout["prec_1"] or 0.0
            except (OSError, ValueError) as exc:
                checks[f"task{task}_outputs: {exc}"] = False
        return PassResult(
            digest=_tree_digest(self.data_dir, self.out_dir), checks=checks,
            accounts=accounts, holdout_prec_1=prec_1,
            cv_cells=cells, cv_failed_cells=failed_cells,
            steps=len(out["results"]), failed_steps=len(failed_steps),
            notes={"failed_steps": failed_steps} if failed_steps else {})

    def _predictions_ok(self, task: int) -> bool:
        """100 rows ranked 1..100 in the order the task's direction requires."""
        with open(self._path(task, "predictions.csv"), encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        if rows[0] != ["billing_id", "score", "rank"] or len(rows) != TOP_N + 1:
            return False
        sign = 1.0 if tasks.TASKS[task].direction == "ascending" else -1.0
        keys = [(sign * float(score), bid) for bid, score, _ in rows[1:]]
        ranks = [int(r) for _, _, r in rows[1:]]
        return keys == sorted(keys) and ranks == list(range(1, TOP_N + 1))


WORKLOADS = {w.name: w for w in (C5Learn, CliIngest)}
