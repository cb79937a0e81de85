"""The seven prediction problems and the file-based pipeline steps.

Problems 1-3 cover consumers (churn, loyalty, win-back); 4-7 cover SMEs
split by service mix. "Loyal" problems reuse the churn extraction and
model of their sibling problem but rank ascending (least likely to churn).
Each step reads and writes files under the configured directories, so
steps can run as separate processes.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .data import TelcoDataset, check_integrity, read_tables, write_tables
from .evaluation import check_folds, compare_learners, confusion, rank_features, select_best
from .features import (FeatureMatrix, TableIndex, extract_churn, extract_winback,
                       read_matrix, standard_windows, write_matrix)
from .generator import GeneratorConfig, generate
from .learners import ALGORITHMS, LEARNERS, LearnerSpec, predict_matrix, train
from .model_io import load_model, save_model
from .months import Month
from .rebalance import oversample, undersample


@dataclass(frozen=True)
class TaskSpec:
    problem_id: int
    segment: str                 # consumer | sme
    service_type: str | None     # None = any
    task: str                    # churn | winback
    direction: str               # descending = most likely, ascending = most loyal

    @property
    def is_loyal(self) -> bool:
        return self.direction == "ascending"


TASKS = {
    1: TaskSpec(1, "consumer", None, "churn", "descending"),
    2: TaskSpec(2, "consumer", None, "churn", "ascending"),
    3: TaskSpec(3, "consumer", None, "winback", "descending"),
    4: TaskSpec(4, "sme", "voice", "churn", "descending"),
    5: TaskSpec(5, "sme", "voice", "churn", "ascending"),
    6: TaskSpec(6, "sme", "voice_broadband", "churn", "descending"),
    7: TaskSpec(7, "sme", "voice_broadband", "churn", "ascending"),
}


def filter_dataset(dataset: TelcoDataset, task: TaskSpec) -> TelcoDataset:
    """Restrict to billing accounts in the task's segment that own at least
    one service of the required type; qualifying accounts keep all their
    services so labels still see every termination."""
    subs = dataset.subscribers
    qualifying = {
        b for b, segment, service_type in zip(
            subs.column("billing_id"), subs.column("segment"), subs.column("service_type"))
        if segment == task.segment
        and (task.service_type is None or service_type == task.service_type)
    }

    def rows_in(table, key: str, keep: set):  # by a mask over one column
        column = table.column(key)
        return table.take(np.flatnonzero(np.fromiter(map(keep.__contains__, column), bool,
                                                     len(column))))

    subscribers = rows_in(subs, "billing_id", qualifying)
    return TelcoDataset(
        subscribers=subscribers,
        billing=rows_in(dataset.billing, "billing_id", qualifying),
        usage=rows_in(dataset.usage, "billing_id", qualifying),
        service_requests=rows_in(dataset.service_requests, "customer_id",
                                 set(subscribers.column("customer_id"))),
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class PipelineConfig:
    data_dir: str = "data"
    out_dir: str = "out"
    task_id: int = 1
    seed: int = 42
    k_folds: int = 10
    top_n: int | None = None
    learners: list[str] = field(default_factory=lambda: list(ALGORITHMS))
    learner_overrides: dict[str, dict] = field(default_factory=dict)
    final_learner: str | None = None
    n_consumers: int = 6000
    n_smes: int = 400  # 15:1 default ratio
    churn_rate: float = 0.08
    winback_rate: float = 0.15
    signal_strength: float = 0.8
    months_start: str = "2011-01"
    months_end: str = "2011-12"

    def __post_init__(self):
        for _, check in self.checks():
            check()

    def checks(self) -> list:
        """(config key, check) of each field's owner check."""
        return [("", lambda: self.generator_config().validate()), ("task", lambda: self.task),
                ("learners", self.learner_specs), ("k_folds", lambda: check_folds(self.k_folds)),
                ("top_n", lambda: _positive("top_n", self.top_n)),
                ("final_learner", lambda: self.final_learner and self.spec_for(self.final_learner))]

    @property
    def task(self) -> TaskSpec:
        if self.task_id not in TASKS:
            raise ValueError(f"task must be 1..7, got {self.task_id}")
        return TASKS[self.task_id]

    def learner_specs(self) -> list[LearnerSpec]:
        if not self.learners:
            raise ValueError("no learner is listed")
        specs = []
        for i, name in enumerate(self.learners):
            if name not in ALGORITHMS:
                raise ValueError(f"unknown learner {name!r} (choose from {', '.join(ALGORITHMS)})")
            if name in self.learners[:i]:
                raise ValueError(f"learner {name!r} is listed twice")
            specs.append(LearnerSpec(**{"algorithm": name, "seed": self.seed,
                                        **self.learner_overrides.get(name, {})}))
        return specs

    def spec_for(self, name: str) -> LearnerSpec:
        for spec in self.learner_specs():
            if spec.display_name == name:
                return spec
        raise ValueError(f"learner {name!r} is not in the configured list")

    def generator_config(self) -> GeneratorConfig:
        return GeneratorConfig(
            seed=self.seed, n_consumers=self.n_consumers, n_smes=self.n_smes,
            churn_rate=self.churn_rate, winback_rate=self.winback_rate,
            months_start=Month.parse(self.months_start),
            months_end=Month.parse(self.months_end),
            signal_strength=self.signal_strength)

    def path(self, suffix: str) -> str:
        return os.path.join(self.out_dir, f"task{self.task_id}_{suffix}")


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value format; '#' starts a comment, blank lines ignored. A
    key may be set once."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in values:
                raise ValueError(f"{path}:{lineno}: key {key!r} is set twice")
            values[key] = value
    return values


def _month_text(raw: str) -> str:
    """``raw``, once it parses as a month."""
    Month.parse(raw)
    return raw


def _flag(raw: str) -> bool:
    flags = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
    if raw.lower() not in flags:
        raise ValueError(f"expected true or false, got {raw!r}")
    return flags[raw.lower()]


_PARSE = {int: int, bool: _flag, str: str}  # a hyperparameter's type -> its parser


def _config_value(key: str, parse, raw: str):
    try:
        return parse(raw)
    except ValueError as exc:
        raise ValueError(f"config key {key}: {exc}") from None


def _positive(name: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def build_config(file_values: dict[str, str], **overrides) -> PipelineConfig:
    """A PipelineConfig from config-file values and overrides, checked whole;
    a bad config-file value fails with one ValueError naming its key."""
    cfg = PipelineConfig()
    scalar = {
        "data_dir": str, "out_dir": str, "task": int, "seed": int, "k_folds": int,
        "top_n": int, "final_learner": str, "n_consumers": int, "n_smes": int,
        "churn_rate": float, "winback_rate": float, "signal_strength": float,
        "months_start": _month_text, "months_end": _month_text,
    }
    renames = {"task": "task_id"}
    for key, raw in file_values.items():
        if key == "learners":
            cfg.learners = [part.strip() for part in raw.split(",") if part.strip()]
        elif key in scalar:
            setattr(cfg, renames.get(key, key), _config_value(key, scalar[key], raw))
        elif "." in key:
            algo, param = key.split(".", 1)
            if algo not in LEARNERS:
                raise ValueError(f"config key {key}: unknown learner {algo!r}")
            reads = LEARNERS[algo][1]
            if param not in reads:
                raise ValueError(f"config key {key}: {algo} does not read {param} "
                                 f"(it reads {', '.join(reads) or 'none'})")
            cfg.learner_overrides.setdefault(algo, {})[param] = _config_value(
                key, _PARSE[reads[param]], raw)
        else:
            raise ValueError(f"unknown config key {key!r}")
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    for key, check in cfg.checks():
        try:
            check()
        except ValueError as exc:  # the generator's messages start with the field's name
            key = key or str(exc).split(" ", 1)[0]
            if key in file_values and overrides.get(renames.get(key, key)) is None:
                raise ValueError(f"config key {key}: {exc}") from None
            raise
    return cfg


# ---------------------------------------------------------------------------
# pipeline steps
# ---------------------------------------------------------------------------

def cmd_generate(cfg: PipelineConfig) -> str:
    dataset = generate(cfg.generator_config())
    write_tables(dataset, cfg.data_dir)
    churners = sum(d is not None for d in dataset.subscribers.column("termination_date"))
    return (f"wrote {len(dataset.subscribers)} subscribers "
            f"({churners} churners) to {cfg.data_dir}")


def _extract(dataset: TelcoDataset | TableIndex, task: TaskSpec, role: str) -> FeatureMatrix:
    window = standard_windows(task.task, role)
    if task.task == "churn":
        # test matrices reuse the training window's column names so the
        # trained model applies position-for-position
        naming = standard_windows(task.task, "train").feature_months
        return extract_churn(dataset, window, naming_months=naming)
    return extract_winback(dataset, window.termination_range, window.label_months)


def cmd_extract(cfg: PipelineConfig) -> str:
    dataset = read_tables(cfg.data_dir)
    check_integrity(dataset)
    tables = TableIndex(filter_dataset(dataset, cfg.task))  # joins built once for both roles
    os.makedirs(cfg.out_dir, exist_ok=True)
    shapes = []
    for role in ("train", "test"):
        matrix = _extract(tables, cfg.task, role)
        write_matrix(matrix, cfg.path(f"{role}.csv"))
        shapes.append(f"{role}: {matrix.n_rows} rows")
    return f"task {cfg.task_id} extracted ({'; '.join(shapes)})"


def cmd_compare(cfg: PipelineConfig) -> str:
    matrix = read_matrix(cfg.path("train.csv"))
    balanced = undersample(matrix, cfg.seed + 1)
    report = compare_learners(balanced, cfg.learner_specs(), cfg.k_folds, cfg.seed + 3)
    with open(cfg.path("comparison.csv"), "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(report.to_csv_rows())
    with open(cfg.path("comparison.txt"), "w", encoding="utf-8", newline="") as f:
        f.write(report.render_text())
    best = select_best(report)
    with open(cfg.path("best.txt"), "w", encoding="utf-8", newline="") as f:
        f.write(best + "\n")
    return f"task {cfg.task_id} best learner: {best}"


def _read_best(cfg: PipelineConfig) -> str:
    path = cfg.path("best.txt")
    if cfg.final_learner:
        return cfg.final_learner
    if not os.path.exists(path):
        raise ValueError(f"no final_learner configured and {path} not found; run compare first")
    with open(path, encoding="utf-8") as f:
        return f.read().strip()


def cmd_train_final(cfg: PipelineConfig) -> str:
    matrix = read_matrix(cfg.path("train.csv"))
    balanced = oversample(matrix, cfg.seed + 2)
    name = _read_best(cfg)
    model = train(balanced, cfg.spec_for(name))
    path = cfg.path("model.cfm")
    save_model(model, path)
    return f"task {cfg.task_id} retrained {name} on {balanced.n_rows} rows -> {path}"


def _load_final_model(cfg: PipelineConfig):
    path = cfg.path("model.cfm")
    if not os.path.exists(path):
        raise ValueError(f"no model file for task {cfg.task_id} under {cfg.out_dir}; "
                         "run train-final first")
    return load_model(path)


def rank_predictions(billing_ids: list[str], scores, direction: str,
                     top_n: int | None) -> list[tuple[str, float]]:
    """Order candidates by churn score (ties by billing id); ascending order
    serves the "most loyal" problems."""
    sign = 1.0 if direction == "ascending" else -1.0
    order = sorted(range(len(billing_ids)), key=lambda i: (sign * scores[i], billing_ids[i]))
    if top_n is not None:
        order = order[:top_n]
    return [(billing_ids[i], float(scores[i])) for i in order]


def cmd_predict(cfg: PipelineConfig, holdout: bool = False) -> str:
    model = _load_final_model(cfg)
    matrix = read_matrix(cfg.path("test.csv"))
    kinds = model.features()
    missing = sorted(kinds.keys() - set(matrix.feature_names))
    if missing:
        raise ValueError(f"{cfg.path('test.csv')} lacks feature columns the model uses: "
                         f"{', '.join(missing)}")
    differ = [f"{f} is {matrix.kinds[f]}, the model reads it as {kind}"
              for f, kind in sorted(kinds.items()) if matrix.kinds[f] != kind]
    if differ:
        raise ValueError(f"{cfg.path('test.csv')} has feature kinds the model does not read: "
                         f"{'; '.join(differ)}")
    scores, predicted = predict_matrix(model, matrix)
    ranked = rank_predictions(matrix.billing_ids, scores, cfg.task.direction, cfg.top_n or 100)
    with open(cfg.path("predictions.csv"), "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["billing_id", "score", "rank"])
        for rank, (billing_id, score) in enumerate(ranked, start=1):
            w.writerow([billing_id, repr(score), rank])
    message = f"task {cfg.task_id} wrote {len(ranked)} predictions"
    if holdout:
        if matrix.labels is None:
            raise ValueError("--holdout requires a labeled test matrix")
        cm = confusion(matrix.labels, predicted)
        with open(cfg.path("holdout.txt"), "w", encoding="utf-8", newline="") as f:
            f.write(f"tp={cm.tp} fp={cm.fp} tn={cm.tn} fn={cm.fn}\n")
            for metric in ("prec_1", "prec_0", "accuracy"):
                v = getattr(cm, metric)
                f.write(f"{metric}={'n/a' if v is None else f'{v:.2f}'}\n")
        message += " (holdout metrics written)"
    return message


def cmd_rank_features(cfg: PipelineConfig) -> str:
    matrix = read_matrix(cfg.path("train.csv"))
    ranking = rank_features(matrix, cfg.top_n or 15)
    with open(cfg.path("feature_ranking.csv"), "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["rank", "feature", "info_gain"])
        for rank, (name, gain) in enumerate(ranking, start=1):
            w.writerow([rank, name, repr(gain)])
    return f"task {cfg.task_id} ranked top {len(ranking)} features"
