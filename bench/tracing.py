"""Pass-through span shims around churnforge's layer boundaries.

The shims are installed only for a traced pass and removed after it, so
untimed and untraced passes run the unpatched program. They patch the names
that ``churnforge.tasks`` imports from the layers (plus ``evaluation.train``
and ``evaluation.predict_matrix``, so per-fold spans nest under
``compare_learners``, and ``cli.main``). Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from dataclasses import dataclass, field

from churnforge import cli, evaluation, tasks
from churnforge.learners import ALGORITHMS
from workloads import rss_bytes

LAYERS = ("generator", "data", "features", "rebalance", "learners",
          "evaluation", "model_io", "tasks", "cli")

# name in churnforge.tasks -> layer that defines it
TASK_NAMES = {
    "generate": "generator",
    "write_tables": "data", "read_tables": "data",
    "filter_dataset": "tasks",
    "extract_churn": "features", "extract_winback": "features",
    "write_matrix": "features", "read_matrix": "features",
    "undersample": "rebalance", "oversample": "rebalance",
    "compare_learners": "evaluation", "select_best": "evaluation",
    "rank_features": "evaluation",
    "train": "learners", "predict_matrix": "learners",
    "save_model": "model_io", "load_model": "model_io",
    "rank_predictions": "tasks",
    "cmd_generate": "tasks", "cmd_extract": "tasks", "cmd_compare": "tasks",
    "cmd_train_final": "tasks", "cmd_predict": "tasks",
    "cmd_rank_features": "tasks",
}

_MB = 1024.0 * 1024.0


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _dir_size(directory) -> int:
    return sum(e.stat().st_size for e in os.scandir(directory) if e.is_file())


def _attrs(name, args, result, algo_of) -> dict:
    """Work counts recorded at the boundary, after the wrapped call."""
    if name == "generate":
        return {"subscribers": len(result.subscribers),
                "table_rows": len(result.subscribers) + len(result.billing)
                + len(result.usage) + len(result.service_requests)}
    if name in ("write_tables", "read_tables"):
        return {"bytes": _dir_size(args[1] if name == "write_tables" else args[0])}
    if name in ("extract_churn", "extract_winback"):
        return {"rows": result.n_rows}
    if name == "write_matrix":
        return {"bytes": _file_size(args[1])}
    if name == "read_matrix":
        return {"bytes": _file_size(args[0]), "rows": result.n_rows}
    if name in ("undersample", "oversample"):
        return {"rows_in": args[0].n_rows, "rows_out": result.n_rows}
    if name == "train":
        algo = args[1].algorithm
        algo_of[id(result)] = algo
        return {"algo": algo, "rows": args[0].n_rows}
    if name == "predict_matrix":
        return {"algo": algo_of.get(id(args[0]), "?"), "rows": args[1].n_rows}
    if name == "save_model":
        return {"bytes": _file_size(args[1])}
    return {}


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._algo_of: dict[int, str] = {}

    def open(self, name: str, layer: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    name, layer, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _shim(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            rss0 = rss_bytes() if name in ("generate", "read_tables") else 0
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span.attrs = _attrs(name, args, result, self._algo_of)
            if rss0:
                span.attrs["rss_growth"] = rss_bytes() - rss0
            return result
        return shim

    def _patch(self, module, attr: str, layer: str, name: str | None = None):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self._shim(original, name or attr, layer))

    def install(self) -> None:
        for attr, layer in TASK_NAMES.items():
            self._patch(tasks, attr, layer)
        self._patch(evaluation, "train", "learners")
        self._patch(evaluation, "predict_matrix", "learners")
        self._patch(cli, "main", "cli", name="cli_main")

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self._algo_of.clear()

    def to_json(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "name": s.name, "layer": s.layer,
                 "start": s.start, "end": s.end, "attrs": s.attrs} for s in self.spans]


# ---------------------------------------------------------------------------
# per-layer figures
# ---------------------------------------------------------------------------

def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a stable order."""
    names = ["generator.generate_s", "generator.subscribers_per_s",
             "generator.table_rows", "generator.rss_growth_mb",
             "data.write_tables_s", "data.read_tables_s", "data.read_tables_calls",
             "data.table_mb", "data.read_mb_per_s", "data.rss_growth_mb",
             "features.extract_churn_s", "features.extract_winback_s",
             "features.accounts_extracted", "features.write_matrix_s",
             "features.read_matrix_s", "features.read_matrix_calls",
             "features.matrix_reads_per_write", "features.matrix_mb",
             "rebalance.undersample_s", "rebalance.oversample_s",
             "rebalance.rows_out", "rebalance.duplicate_row_share",
             "evaluation.compare_learners_s"]
    names += [f"evaluation.cv_s.{a}" for a in ALGORITHMS]
    names += ["evaluation.cv_cells", "evaluation.cv_ok_cells",
              "evaluation.rank_features_s"]
    names += [f"learners.train_s.{a}" for a in ALGORITHMS]
    names += [f"learners.fit_calls.{a}" for a in ALGORITHMS]
    names += [f"learners.fit_rows.{a}" for a in ALGORITHMS]
    names += ["learners.final_train_s", "learners.final_rows_per_s",
              "learners.predict_matrix_s", "learners.rows_scored",
              "model_io.save_model_s", "model_io.load_model_s", "model_io.model_bytes",
              "tasks.filter_dataset_s", "tasks.rank_predictions_s"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["trace.pipeline_s", "trace.overhead_s", "trace.accounted_share"]
    return names


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def pass_figures(spans: list[Span], roots: list[Span], cv_cells: int, cv_ok: int) -> dict:
    """Per-layer figures of the spans under ``roots``: a traced set-up and a
    traced pass, in that order. The ``trace.*`` figures are the pass's own."""
    pass_root = roots[-1]

    def under(s, root):
        return root.id < s.id and s.start >= root.start and s.end <= root.end

    mine = [s for s in spans if any(under(s, r) for r in roots)]
    by_id = {s.id: s for s in mine + roots}
    child_time: dict[int, float] = {}
    for s in mine:
        child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def total(name, key=None, where=lambda s: True):
        return sum((s.attrs.get(key, 0) if key else s.duration)
                   for s in mine if s.name == name and where(s))

    def count(name):
        return sum(1 for s in mine if s.name == name)

    def in_cv(s):
        parent = by_id.get(s.parent)
        return parent is not None and parent.name == "compare_learners"

    f: dict[str, float] = {}
    f["generator.generate_s"] = total("generate")
    f["generator.subscribers_per_s"] = _ratio(total("generate", "subscribers"),
                                              f["generator.generate_s"])
    f["generator.table_rows"] = total("generate", "table_rows")
    f["generator.rss_growth_mb"] = total("generate", "rss_growth") / _MB
    f["data.write_tables_s"] = total("write_tables")
    f["data.read_tables_s"] = total("read_tables")
    f["data.read_tables_calls"] = count("read_tables")
    f["data.table_mb"] = total("write_tables", "bytes") / _MB
    f["data.read_mb_per_s"] = _ratio(total("read_tables", "bytes") / _MB,
                                     f["data.read_tables_s"])
    f["data.rss_growth_mb"] = total("read_tables", "rss_growth") / _MB
    f["features.extract_churn_s"] = total("extract_churn")
    f["features.extract_winback_s"] = total("extract_winback")
    f["features.accounts_extracted"] = (total("extract_churn", "rows")
                                        + total("extract_winback", "rows"))
    f["features.write_matrix_s"] = total("write_matrix")
    f["features.read_matrix_s"] = total("read_matrix")
    f["features.read_matrix_calls"] = count("read_matrix")
    f["features.matrix_reads_per_write"] = _ratio(count("read_matrix"), count("write_matrix"))
    f["features.matrix_mb"] = total("write_matrix", "bytes") / _MB
    f["rebalance.undersample_s"] = total("undersample")
    f["rebalance.oversample_s"] = total("oversample")
    rows_out = total("undersample", "rows_out") + total("oversample", "rows_out")
    f["rebalance.rows_out"] = rows_out
    f["rebalance.duplicate_row_share"] = _ratio(
        total("oversample", "rows_out") - total("oversample", "rows_in"), rows_out)
    f["evaluation.compare_learners_s"] = total("compare_learners")
    for a in ALGORITHMS:
        f[f"evaluation.cv_s.{a}"] = sum(s.duration for s in mine if in_cv(s)
                                        and s.attrs.get("algo") == a)
        fits = [s for s in mine if s.name == "train" and s.attrs.get("algo") == a]
        f[f"learners.train_s.{a}"] = sum(s.duration for s in fits)
        f[f"learners.fit_calls.{a}"] = len(fits)
        f[f"learners.fit_rows.{a}"] = sum(s.attrs["rows"] for s in fits)
    f["evaluation.cv_cells"] = cv_cells
    f["evaluation.cv_ok_cells"] = cv_ok
    f["evaluation.rank_features_s"] = total("rank_features")
    final = [s for s in mine if s.name == "train" and not in_cv(s)]
    f["learners.final_train_s"] = sum(s.duration for s in final)
    f["learners.final_rows_per_s"] = _ratio(sum(s.attrs["rows"] for s in final),
                                            f["learners.final_train_s"])
    f["learners.predict_matrix_s"] = total("predict_matrix")
    f["learners.rows_scored"] = total("predict_matrix", "rows")
    f["model_io.save_model_s"] = total("save_model")
    f["model_io.load_model_s"] = total("load_model")
    f["model_io.model_bytes"] = total("save_model", "bytes")
    f["tasks.filter_dataset_s"] = total("filter_dataset")
    f["tasks.rank_predictions_s"] = total("rank_predictions")
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    pass_self = 0.0
    for s in mine:
        self_s = s.duration - child_time.get(s.id, 0.0)
        self_by_layer[s.layer] += self_s
        pass_self += self_s if under(s, pass_root) else 0.0
    for layer, value in self_by_layer.items():
        f[f"{layer}.self_s"] = value
    f["trace.pipeline_s"] = pass_root.duration
    f["trace.accounted_share"] = _ratio(pass_self, pass_root.duration)
    return f


def median_figures(passes: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
