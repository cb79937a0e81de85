from pathlib import Path

import numpy as np
import pytest

from churnforge import GeneratorConfig, generate
from churnforge.features import CATEGORICAL, NUMERIC, FeatureMatrix


def pytest_collection_modifyitems(items):
    """Turn every warning raised in this suite's tests into an error, so a
    file left open fails its test with a ResourceWarning. Set here, not in
    pyproject.toml, whose pytest options also reach bench/'s smoke tests."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


def make_matrix(columns: dict, labels=None, kinds=None, ids=None) -> FeatureMatrix:
    """Build a FeatureMatrix from plain dict-of-lists columns."""
    names = list(columns)
    n = len(next(iter(columns.values())))
    kinds = kinds or {}
    built = {}
    resolved = {}
    for name in names:
        kind = kinds.get(name)
        if kind is None:
            kind = CATEGORICAL if any(isinstance(v, str) for v in columns[name]) else NUMERIC
        resolved[name] = kind
        if kind == NUMERIC:
            built[name] = np.array([float("nan") if v is None else float(v)
                                    for v in columns[name]], dtype=np.float64)
        else:
            built[name] = np.array(columns[name], dtype=object)
    return FeatureMatrix(
        billing_ids=list(ids) if ids is not None else [f"B{i:04d}" for i in range(n)],
        feature_names=names,
        kinds=resolved,
        columns=built,
        labels=None if labels is None else np.array(labels, dtype=np.int8),
    )


@pytest.fixture(scope="session")
def small_dataset():
    return generate(GeneratorConfig(seed=1, n_consumers=400, n_smes=60,
                                    churn_rate=0.15, winback_rate=0.3))


@pytest.fixture(scope="session")
def planted_dataset():
    """Mid-size dataset with a strong planted signal, reused across tests."""
    return generate(GeneratorConfig(seed=7, n_consumers=2500, n_smes=150,
                                    churn_rate=0.12, winback_rate=0.25,
                                    signal_strength=0.8))


def random_adtree(rng, n_splitters=20):
    """Random alternating tree over a small mixed schema; prediction values
    are 3-decimal quantities so text round-trips are exact."""
    from churnforge.learners import ADTreeModel, PredictionNode, SplitCondition, Splitter

    features = ["f0", "f1", "f2", "f3"]
    categories = ["AJP", "TLS", "KLC"]
    root = PredictionNode(round(float(rng.normal()), 3))
    nodes = [root]
    for index in range(1, n_splitters + 1):
        parent = nodes[int(rng.integers(0, len(nodes)))]
        if rng.random() < 0.25:
            cond = SplitCondition(f"loc{int(rng.integers(0, 2))}", "categorical_eq",
                                  category=str(rng.choice(categories)))
        else:
            cond = SplitCondition(str(rng.choice(features)), "numeric_lt",
                                  threshold=round(float(rng.normal() * 10), 2))
        yes = PredictionNode(round(float(rng.normal()), 3))
        no = PredictionNode(round(float(rng.normal()), 3))
        parent.splitters.append(Splitter(index, cond, yes, no))
        nodes += [yes, no]
    return ADTreeModel(root)


def random_adtree_row(rng):
    """Row over the random_adtree schema with occasional missing values."""
    row = {}
    for f in ("f0", "f1", "f2", "f3"):
        if rng.random() < 0.2:
            row[f] = float("nan")
        else:
            row[f] = float(rng.normal() * 10)
    for f in ("loc0", "loc1"):
        if rng.random() < 0.2:
            row[f] = None
        else:
            row[f] = str(rng.choice(["AJP", "TLS", "KLC", "PNG"]))
    return row
