"""The unweighted Gini learners fit a matrix's distinct (features, label)
rows, each counted by its multiplicity. Every model they give equals the
fit on the unmerged presort with unit counts (or, for a bootstrap, with
the same draws over the unmerged rows), on every numpy version."""

import numpy as np
import pytest
from conftest import make_matrix

from churnforge import train_bagging, train_cart, train_forest, train_stump
from churnforge.learners.conditions import GiniSearch, TrainingData
from churnforge.learners.trees import TreeModel, TreeNode, fit_trees
from churnforge.model_io import model_to_dict
from churnforge.rebalance import oversample

NAN = float("nan")


def _with_copies(columns: dict, labels: list, kinds: dict, copies: list[int]):
    """The matrix of `columns` with rows `copies` appended again, in order."""
    rows = list(range(len(labels))) + copies
    return make_matrix({k: [c[i] for i in rows] for k, c in columns.items()},
                       labels=[labels[i] for i in rows], kinds=kinds)


def _cases():
    """name -> (matrix, its number of distinct rows)."""
    x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    z = [1.0, 1.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0]
    y = [0, 0, 1, 1, 0, 1, 1, 0]
    num = {"x": "numeric", "z": "numeric"}
    return {
        # rows 8-10 hold the features of rows 0, 3 and 5 with the other label
        "label_only": (_with_copies({"x": x + [0.0, 3.0, 5.0], "z": z + [1.0, 0.0, 2.0]},
                                    y + [1, 0, 0], num, [0, 8, 3, 3, 9, 10, 10]), 11),
        "nan_cell": (_with_copies({"x": [0.0, NAN, 2.0, NAN, 4.0, 5.0, NAN, 7.0], "z": z}, y,
                                  num, [1, 1, 3, 6, 6, 6, 2]), 8),
        "missing_category": (make_matrix(
            {"loc": ["A", None, NAN, "B", None, NAN, "A", "B", None, NAN],
             "x": [1.0, 2.0, 2.0, 3.0, 2.0, 2.0, 1.0, 4.0, 5.0, 5.0]},
            labels=[1, 0, 0, 1, 0, 0, 1, 0, 1, 1],
            kinds={"loc": "categorical", "x": "numeric"}), 5),
        "signed_zero": (make_matrix(
            {"x": [-0.0, 0.0, 0.0, -0.0, 1.0, -1.0, 0.0, 2.0],
             "z": [3.0, 3.0, 3.0, 3.0, 1.0, 1.0, 2.0, 2.0]},
            labels=[1, 1, 1, 1, 0, 0, 0, 1], kinds=num), 5),
        "one_row": (make_matrix({"loc": ["K"] * 6, "x": [2.5] * 6}, labels=[1] * 6,
                                kinds={"loc": "categorical", "x": "numeric"}), 1),
    }


def _digests(models) -> list:
    return [model_to_dict(m) for m in models]


def _unmerged(matrix, seed, n_trees, bootstrap, max_depth, min_leaf, fps):
    """The members of a bagged fit on the unmerged presort: unit counts, or
    each member's bootstrap counted over every row of the matrix."""
    td = TrainingData(matrix)
    rngs = [np.random.default_rng((seed, i)) for i in range(n_trees)]
    counts = np.array([np.bincount(rng.integers(0, td.n, size=td.n), minlength=td.n)
                       if bootstrap else np.ones(td.n, dtype=np.int64) for rng in rngs])
    return fit_trees(td, rngs, max_depth, min_leaf, counts=counts, features_per_split=fps)


@pytest.mark.parametrize("name", sorted(_cases()))
def test_merged_rows_are_the_distinct_rows(name):
    matrix, distinct = _cases()[name]
    full = TrainingData(matrix)
    td = full.merged()
    assert td.n == distinct < matrix.n_rows
    assert td.multiplicity.sum() == matrix.n_rows and (td.multiplicity > 0).all()
    # each row keeps its label and its values, up to NaN and the sign of zero
    assert (td.y[td.index] == full.y).all()
    expanded = td.values[:, td.index]
    assert ((expanded == full.values) | (np.isnan(expanded) & np.isnan(full.values))).all()
    # numbered by first occurrence, and the filtered presort is the presort
    assert list(dict.fromkeys(td.index.tolist())) == list(range(td.n))
    assert (td.order == np.argsort(td.values, axis=1, kind="stable")).all()


@pytest.mark.parametrize("train", [train_stump, train_cart, train_bagging, train_forest])
def test_an_empty_matrix_is_refused_by_name(train):
    with pytest.raises(ValueError, match="cannot train on an empty matrix"):
        train(make_matrix({"x": []}, labels=[], kinds={"x": "numeric"}))


@pytest.mark.parametrize("name", sorted(_cases()))
def test_trees_on_merged_rows_equal_trees_on_every_row(name):
    matrix, _ = _cases()[name]
    stump = _unmerged(matrix, 0, 1, False, 1, 1, None)
    assert _digests([train_stump(matrix)]) == _digests(stump)
    for max_depth, min_leaf in ((4, 1), (3, 2)):
        assert (_digests([train_cart(matrix, max_depth=max_depth, min_leaf=min_leaf)])
                == _digests(_unmerged(matrix, 0, 1, False, max_depth, min_leaf, None)))


@pytest.mark.parametrize("name", sorted(_cases()))
@pytest.mark.parametrize("bootstrap", [True, False])
def test_ensembles_on_merged_rows_equal_ensembles_on_every_row(name, bootstrap):
    matrix, _ = _cases()[name]
    for seed in (1, 2, 3):
        bagging = train_bagging(matrix, n_trees=5, seed=seed, bootstrap=bootstrap,
                                max_depth=3, min_leaf=1)
        assert _digests(bagging.members) == _digests(
            _unmerged(matrix, seed, 5, bootstrap, 3, 1, None))
        forest = train_forest(matrix, n_trees=5, seed=seed, features_per_split=1,
                              bootstrap=bootstrap, max_depth=4, min_leaf=1)
        assert _digests(forest.members) == _digests(
            _unmerged(matrix, seed, 5, bootstrap, 4, 1, 1))


def _preorder_tree(search: GiniSearch, node, depth: int, max_depth: int) -> TreeNode:
    """A recursive grower that splits one node at a time, in preorder."""
    tree = TreeNode(node.n, node.p1)
    if depth < max_depth and node.n >= 2 * search.min_leaf and not node.pure:
        found = search.split([node], [np.arange(len(search.td.features))])[0]
        if found is not None:
            tree.condition, _, _, left, right = found
            tree.left = _preorder_tree(search, left, depth + 1, max_depth)
            tree.right = _preorder_tree(search, right, depth + 1, max_depth)
    return tree


def test_whole_frontier_steps_equal_one_node_at_a_time():
    """CART splits every open node in one step; its tree equals the one a
    recursive grower builds one node at a time."""
    rng = np.random.default_rng(22)
    for trial in range(30):
        n = int(rng.integers(20, 120))
        labels = (rng.random(n) < rng.choice([0.2, 0.5])).astype(int)
        labels[:2] = [0, 1]
        cols = {f"x{j}": rng.integers(0, 6, n).astype(float).tolist() for j in range(3)}
        cols["loc"] = list(np.array(["A", "B", None], dtype=object)[rng.integers(0, 3, n)])
        kinds = {k: "numeric" for k in cols}
        kinds["loc"] = "categorical"
        matrix = make_matrix(cols, labels=labels.tolist(), kinds=kinds)
        if trial % 2:
            matrix = oversample(matrix, trial)
        max_depth, min_leaf = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        td = TrainingData(matrix)
        search = GiniSearch(td, min_leaf=min_leaf)
        alone = TreeModel(_preorder_tree(search, search.root(0), 0, max_depth),
                          list(td.feature_names))
        tree = train_cart(matrix, max_depth=max_depth, min_leaf=min_leaf)
        assert model_to_dict(tree) == model_to_dict(alone), trial
