"""Model persistence.

Every model file is UTF-8 with LF line endings, starts with the header
line ``churnforge-model v1`` and names its body's format on line two:

* ``format: json`` - what ``save_model`` writes for every family (trees,
  Bayes, ensembles, which may nest any member type, and alternating trees).
  Floats round-trip exactly, so a reloaded model scores bit-identically.
* ``format: adtree-text`` - the ``.adt`` indentation layout of an
  alternating tree, which ``load_model`` still reads. Root line
  ``: <value>``; each splitter contributes two lines
  ``(<i>)<feature> <op> <operand>: <value>`` (condition true, then false;
  ops ``<``/``>=`` or ``=``/``!=``), and a prediction node's child
  splitters sit two spaces deeper than its line. Prediction values carry
  exactly three decimals, so parse(print(m)) == m for models whose values
  are 3-decimal quantities.
"""

from __future__ import annotations

import json
import re

from .learners import (ADTreeModel, BayesModel, EnsembleModel, PredictionNode,
                       SplitCondition, Splitter, TreeModel)
from .learners.bayes import CategoryStats, GaussianStats
from .learners.trees import TreeNode

HEADER = "churnforge-model v1"


class ModelFormatError(ValueError):
    """Raised for unreadable model files, with file/line context."""


# ---------------------------------------------------------------------------
# alternating-tree text layout
# ---------------------------------------------------------------------------

def _fmt_operand(cond: SplitCondition) -> str:
    if cond.kind == "numeric_lt":
        return repr(float(cond.threshold))
    return str(cond.category)


def print_adtree(model: ADTreeModel) -> str:
    lines = [f": {model.root.value:.3f}"]

    def emit(node: PredictionNode, depth: int):
        pad = "  " * depth
        for sp in node.splitters:
            operand = _fmt_operand(sp.condition)
            if sp.condition.kind == "numeric_lt":
                ops = ("<", ">=")
            else:
                ops = ("=", "!=")
            lines.append(f"{pad}({sp.index}){sp.condition.feature} {ops[0]} {operand}: "
                         f"{sp.yes.value:.3f}")
            emit(sp.yes, depth + 1)
            lines.append(f"{pad}({sp.index}){sp.condition.feature} {ops[1]} {operand}: "
                         f"{sp.no.value:.3f}")
            emit(sp.no, depth + 1)

    emit(model.root, 1)
    return "\n".join(lines) + "\n"


_SPLIT_LINE = re.compile(
    r"^(?P<pad> *)\((?P<index>\d+)\)(?P<feature>\S+) (?P<op><|>=|=|!=) "
    r"(?P<operand>.+): (?P<value>-?\d+(?:\.\d+)?)$")
_ROOT_LINE = re.compile(r"^: (?P<value>-?\d+(?:\.\d+)?)$")


def parse_adtree(text: str, where: str = "<string>") -> ADTreeModel:
    """Strict parser for the indentation layout; rejects odd or skipping
    indentation, unmatched condition pairs, and duplicate splitter indexes,
    reporting the offending line number."""
    raw = [ln for ln in text.split("\n")]
    while raw and raw[-1] == "":
        raw.pop()
    if not raw:
        raise ModelFormatError(f"{where}:1: empty model text")
    m = _ROOT_LINE.match(raw[0])
    if not m:
        raise ModelFormatError(f"{where}:1: expected root line ': <value>'")
    root = PredictionNode(float(m.group("value")))

    entries = []
    for lineno, line in enumerate(raw[1:], start=2):
        sm = _SPLIT_LINE.match(line)
        if not sm:
            raise ModelFormatError(f"{where}:{lineno}: malformed splitter line: {line!r}")
        pad = len(sm.group("pad"))
        if pad % 2 or pad == 0:
            raise ModelFormatError(f"{where}:{lineno}: bad indentation ({pad} spaces)")
        entries.append((pad // 2, int(sm.group("index")), sm.group("feature"),
                        sm.group("op"), sm.group("operand"), float(sm.group("value")), lineno))

    pos = 0
    seen_indexes: set[int] = set()

    def parse_children(depth: int) -> list[Splitter]:
        nonlocal pos
        splitters = []
        while pos < len(entries) and entries[pos][0] == depth:
            d, index, feature, op, operand, value, lineno = entries[pos]
            if op not in ("<", "="):
                raise ModelFormatError(
                    f"{where}:{lineno}: expected a condition-true line, got op {op!r}")
            if index in seen_indexes:
                raise ModelFormatError(f"{where}:{lineno}: duplicate splitter index ({index})")
            seen_indexes.add(index)
            pos += 1
            yes = PredictionNode(value, parse_children(depth + 1))
            if pos >= len(entries):
                raise ModelFormatError(
                    f"{where}:{lineno}: missing condition-false line for splitter ({index})")
            d2, index2, feature2, op2, operand2, value2, lineno2 = entries[pos]
            want_op = ">=" if op == "<" else "!="
            if (d2, index2, feature2, op2, operand2) != (d, index, feature, want_op, operand):
                raise ModelFormatError(
                    f"{where}:{lineno2}: expected condition-false line "
                    f"'({index}){feature} {want_op} {operand}: ...'")
            pos += 1
            no = PredictionNode(value2, parse_children(depth + 1))
            if op == "<":
                try:
                    threshold = float(operand)
                except ValueError:
                    raise ModelFormatError(
                        f"{where}:{lineno}: numeric condition needs a numeric "
                        f"threshold, got {operand!r}") from None
                cond = SplitCondition(feature, "numeric_lt", threshold=threshold)
            else:
                cond = SplitCondition(feature, "categorical_eq", category=operand)
            splitters.append(Splitter(index, cond, yes, no))
        if pos < len(entries) and entries[pos][0] > depth:
            raise ModelFormatError(
                f"{where}:{entries[pos][6]}: orphan indentation "
                f"(depth {entries[pos][0]}, expected {depth} or shallower)")
        return splitters

    root.splitters = parse_children(1)
    if pos != len(entries):
        raise ModelFormatError(f"{where}:{entries[pos][6]}: unreachable trailing lines")
    return ADTreeModel(root)


# ---------------------------------------------------------------------------
# JSON container
# ---------------------------------------------------------------------------

def _cond_to_dict(cond: SplitCondition | None):
    if cond is None:
        return None
    return {"feature": cond.feature, "kind": cond.kind, "threshold": cond.threshold,
            "category": cond.category, "missing_goes": cond.missing_goes}


def _cond_from_dict(d) -> SplitCondition | None:
    if d is None:
        return None
    return SplitCondition(d["feature"], d["kind"], threshold=d["threshold"],
                          category=d["category"], missing_goes=d["missing_goes"])


def _tree_node_to_dict(node: TreeNode):
    out = {"n": node.n, "p1": node.p1, "condition": _cond_to_dict(node.condition)}
    if node.condition is not None:
        out["left"] = _tree_node_to_dict(node.left)
        out["right"] = _tree_node_to_dict(node.right)
    return out


def _tree_node_from_dict(d) -> TreeNode:
    node = TreeNode(n=d["n"], p1=d["p1"], condition=_cond_from_dict(d["condition"]))
    if node.condition is not None:
        node.left = _tree_node_from_dict(d["left"])
        node.right = _tree_node_from_dict(d["right"])
    return node


def _adtree_node_to_dict(node: PredictionNode):
    return {"value": node.value,
            "splitters": [{"index": sp.index, "condition": _cond_to_dict(sp.condition),
                           "yes": _adtree_node_to_dict(sp.yes),
                           "no": _adtree_node_to_dict(sp.no)}
                          for sp in node.splitters]}


def _adtree_node_from_dict(d) -> PredictionNode:
    return PredictionNode(d["value"], [
        Splitter(sp["index"], _cond_from_dict(sp["condition"]),
                 _adtree_node_from_dict(sp["yes"]), _adtree_node_from_dict(sp["no"]))
        for sp in d["splitters"]])


def model_to_dict(model) -> dict:
    if isinstance(model, TreeModel):
        return {"family": "tree", "feature_names": model.feature_names,
                "root": _tree_node_to_dict(model.root)}
    if isinstance(model, BayesModel):
        return {
            "family": "bayes",
            "log_prior_odds": model.log_prior_odds,
            "numeric": {n: {"mean": list(g.mean), "var": list(g.var), "usable": g.usable}
                        for n, g in model.numeric.items()},
            "categorical": {n: {"categories": c.categories,
                                "counts": {v: list(k) for v, k in c.counts.items()},
                                "totals": list(c.totals)}
                            for n, c in model.categorical.items()},
        }
    if isinstance(model, EnsembleModel):
        if not model.members:
            raise ValueError("refusing to save an empty ensemble")
        return {"family": "ensemble", "combine": model.combine,
                "alphas": list(model.alphas),
                "members": [model_to_dict(m) for m in model.members]}
    if isinstance(model, ADTreeModel):
        return {"family": "adtree", "root": _adtree_node_to_dict(model.root)}
    raise TypeError(f"unsupported model type {type(model).__name__}")


def model_from_dict(d) -> object:
    family = d.get("family")
    if family == "tree":
        return TreeModel(_tree_node_from_dict(d["root"]), list(d["feature_names"]))
    if family == "bayes":
        model = BayesModel(d["log_prior_odds"])
        for n, g in d["numeric"].items():
            model.numeric[n] = GaussianStats(tuple(g["mean"]), tuple(g["var"]), g["usable"])
        for n, c in d["categorical"].items():
            model.categorical[n] = CategoryStats(
                list(c["categories"]), {v: tuple(k) for v, k in c["counts"].items()},
                tuple(c["totals"]))
        return model
    if family == "ensemble":
        return EnsembleModel(d["combine"], [model_from_dict(m) for m in d["members"]],
                             list(d["alphas"]))
    if family == "adtree":
        return ADTreeModel(_adtree_node_from_dict(d["root"]))
    raise ModelFormatError(f"unknown model family {family!r}")


# ---------------------------------------------------------------------------
# file envelope
# ---------------------------------------------------------------------------

def save_model(model, path: str) -> None:
    """Write any supported model as JSON under the versioned header."""
    body = "format: json\n" + json.dumps(model_to_dict(model)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(HEADER + "\n" + body)


def load_model(path: str):
    with open(path, encoding="utf-8", newline="") as f:
        text = f.read()
    lines = text.split("\n")
    if not lines or lines[0] != HEADER:
        raise ModelFormatError(
            f"{path}:1: expected header {HEADER!r}, got {lines[0][:40]!r}")
    if len(lines) < 3:
        raise ModelFormatError(f"{path}: truncated file")
    fmt = lines[1]
    body = "\n".join(lines[2:])
    if fmt == "format: adtree-text":
        return parse_adtree(body, where=path)
    if fmt == "format: json":
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: truncated or corrupt payload ({exc})") from None
        return model_from_dict(payload)
    raise ModelFormatError(f"{path}:2: unknown format line {fmt!r}")
