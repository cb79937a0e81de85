"""Kept lines filtered from a node's lines by row masks hold what laying out
the same rows from scratch gives: the same chunks, cells and candidates."""

import numpy as np
import pytest
from conftest import make_matrix

from churnforge.features import CATEGORICAL, NUMERIC
from churnforge.learners import conditions
from churnforge.learners.conditions import Batch, KeptLines, TrainingData, line_chunks

FIELDS = ("node", "feat", "numeric", "m", "ends", "rows", "present", "at", "line", "first")


def _matrix(rng):
    """20-120 rows of tied numeric columns with NaN and categorical columns
    holding None and float NaN; half the time oversampled, so that rows
    repeat."""
    n = int(rng.integers(20, 121))
    cols, kinds = {}, {}
    for j in range(int(rng.integers(1, 4))):
        x = rng.integers(0, int(rng.choice([2, 5, 1000])), n).astype(float)
        x[rng.random(n) < rng.choice([0.0, 0.2, 0.7])] = np.nan
        cols[f"x{j}"], kinds[f"x{j}"] = x.tolist(), NUMERIC
    cats = np.array(["A", "B", "C", None, float("nan")], dtype=object)
    for j in range(int(rng.integers(1, 3))):
        cols[f"c{j}"] = list(cats[rng.integers(0, int(rng.choice([2, 5])), n)])
        kinds[f"c{j}"] = CATEGORICAL
    matrix = make_matrix(cols, labels=rng.integers(0, 2, n).tolist(), kinds=kinds)
    if rng.random() < 0.5:
        matrix = matrix.subset(rng.integers(0, n, n + int(rng.integers(1, 2 * n))))
    return matrix


def _subset(rng, rows: np.ndarray, n: int) -> np.ndarray:
    """A random non-empty mask over n rows, true only on some of `rows`."""
    keep = np.zeros(n, dtype=bool)
    keep[rng.choice(rows, size=int(rng.integers(1, len(rows) + 1)), replace=False)] = True
    return keep


def _assert_laid_out(td: TrainingData, kept: KeptLines, nodes: list[np.ndarray]):
    """The kept chunks that hold a candidate are line_chunks of the nodes'
    rows (ascending) over every feature, field by field, values too."""
    every = np.arange(len(td.features))
    expected = list(line_chunks(td, Batch(nodes), [every] * len(nodes)))
    got = [ch for ch in kept.chunks if len(ch.at)]
    assert len(got) == len(expected)
    for ch, ref in zip(got, expected):
        for name in FIELDS:
            assert np.array_equal(getattr(ch, name), getattr(ref, name)), name
        cells = (ch.feat * td.n).repeat(ch.m)
        assert np.array_equal(td.values.take(ch.rows + cells), td.values.take(ref.rows + cells),
                              equal_nan=True)
    for i, rows in enumerate(nodes):
        assert np.array_equal(np.sort(kept.lines(i), axis=1), np.tile(rows, (len(every), 1)))


@pytest.mark.parametrize("block", [7, 64, 1 << 15])
def test_nodes_added_from_filters_equal_lines_laid_out_from_scratch(monkeypatch, block):
    """As ADTree grows: each new node is a subset of a kept one, filtered
    from its lines and kept beside every earlier node."""
    monkeypatch.setattr(conditions, "_BLOCK_CELLS", block)
    rng = np.random.default_rng(block)
    for _ in range(40):
        td = TrainingData(_matrix(rng))
        kept, nodes = KeptLines.root(td), [np.arange(td.n)]
        _assert_laid_out(td, kept, nodes)
        for _ in range(int(rng.integers(1, 6))):
            i = int(rng.integers(0, len(nodes)))
            side = rng.integers(0, 3, len(nodes[i]))  # yes, no, or neither (missing)
            children = [rows for rows in (nodes[i][side == 0], nodes[i][side == 1]) if len(rows)]
            masks = [np.isin(np.arange(td.n), rows) for rows in children]
            before = list(kept.chunks)
            changed = kept.add([kept.filter(i, keep) for keep in masks])
            assert all(a is b for a, b in zip(kept.chunks[:changed], before[:changed]))
            nodes += children
            _assert_laid_out(td, kept, nodes)


@pytest.mark.parametrize("block", [7, 64, 1 << 15])
def test_nested_filters_equal_lines_laid_out_from_scratch(monkeypatch, block):
    """As a weighted CART grows: each node keeps its own lines, filtered
    from its parent's by nested masks."""
    monkeypatch.setattr(conditions, "_BLOCK_CELLS", block)
    rng = np.random.default_rng(100 + block)
    for _ in range(40):
        td = TrainingData(_matrix(rng))
        kept, rows = KeptLines.root(td), np.arange(td.n)
        while True:
            _assert_laid_out(td, kept, [rows])
            assert all(ch.rows.dtype == np.int32 for ch in kept.chunks)
            if len(rows) == 1:
                break
            keep = _subset(rng, rows, td.n)
            kept, rows = KeptLines(td, [kept.filter(0, keep)]), np.flatnonzero(keep)
