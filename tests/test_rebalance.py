import numpy as np
import pytest

from churnforge import oversample, undersample
from conftest import make_matrix


def _random_matrix(rng, n_min, n_maj):
    n = n_min + n_maj
    labels = np.array([1] * n_min + [0] * n_maj)
    rng.shuffle(labels)
    return make_matrix(
        {"x": rng.normal(size=n).round(3).tolist(),
         "y": rng.integers(0, 5, size=n).astype(float).tolist()},
        labels=labels.tolist())


def _row_key(m, i):
    return (m.billing_ids[i],) + tuple(m.columns[c][i] for c in m.feature_names)


def test_undersample_counts_and_minority_preserved():
    rng = np.random.default_rng(0)
    m = _random_matrix(rng, 10, 90)
    out = undersample(m, seed=5)
    assert out.n_rows == 20
    assert int(out.labels.sum()) == 10
    minority_rows = {_row_key(m, i) for i in np.nonzero(m.labels == 1)[0]}
    out_minority = {_row_key(out, i) for i in np.nonzero(out.labels == 1)[0]}
    assert out_minority == minority_rows


def test_undersample_matches_shuffle_take_oracle():
    rng = np.random.default_rng(1)
    m = _random_matrix(rng, 3, 7)
    out = undersample(m, seed=11)
    # independent oracle: seeded shuffle of majority indices, take minority-many
    majority = np.nonzero(m.labels == 0)[0]
    minority = np.nonzero(m.labels == 1)[0]
    chosen = np.random.default_rng(11).permutation(majority)[:3]
    expected = sorted(np.concatenate([minority, chosen]).tolist())
    assert out.billing_ids == [m.billing_ids[i] for i in expected]


def test_undersample_balanced_input_is_identity():
    rng = np.random.default_rng(2)
    m = _random_matrix(rng, 50, 50)
    out = undersample(m, seed=3)
    assert out == m


def test_oversample_divisible_case():
    rng = np.random.default_rng(3)
    m = _random_matrix(rng, 10, 90)
    out = oversample(m, seed=4)
    assert out.n_rows == 180
    assert int(out.labels.sum()) == 90
    # every minority row appears exactly 9 times
    counts = {}
    for i in np.nonzero(out.labels == 1)[0]:
        counts[_row_key(out, i)] = counts.get(_row_key(out, i), 0) + 1
    assert set(counts.values()) == {9}


def test_oversample_remainder_case():
    rng = np.random.default_rng(4)
    m = _random_matrix(rng, 4, 10)
    out = oversample(m, seed=9)
    assert out.n_rows == 20
    counts = {}
    for i in np.nonzero(out.labels == 1)[0]:
        counts[out.billing_ids[i]] = counts.get(out.billing_ids[i], 0) + 1
    assert sorted(counts.values()) == [2, 2, 3, 3]
    # majority rows preserved verbatim, exactly once
    maj_in = [m.billing_ids[i] for i in np.nonzero(m.labels == 0)[0]]
    maj_out = [out.billing_ids[i] for i in np.nonzero(out.labels == 0)[0]]
    assert sorted(maj_in) == sorted(maj_out)


def test_samplers_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(5)
    m = _random_matrix(rng, 13, 87)
    assert undersample(m, 7) == undersample(m, 7)
    assert oversample(m, 7) == oversample(m, 7)
    assert undersample(m, 7) != undersample(m, 8)


def test_single_class_rejected():
    m = make_matrix({"x": [1.0, 2.0, 3.0]}, labels=[1, 1, 1])
    with pytest.raises(ValueError, match="both classes"):
        undersample(m, 0)
    with pytest.raises(ValueError, match="both classes"):
        oversample(m, 0)
    with pytest.raises(ValueError, match="labeled"):
        undersample(make_matrix({"x": [1.0]}), 0)


def test_class_balance_property_over_random_matrices():
    rng = np.random.default_rng(6)
    for trial in range(100):
        n_min = int(rng.integers(1, 40))
        n_maj = n_min + int(rng.integers(0, 200))
        m = _random_matrix(rng, n_min, n_maj)
        for sampler in (undersample, oversample):
            out = sampler(m, seed=trial)
            ones = int(out.labels.sum())
            assert ones == out.n_rows - ones
        over = oversample(m, seed=trial)
        counts = {}
        for i in np.nonzero(over.labels == 1)[0]:
            counts[over.billing_ids[i]] = counts.get(over.billing_ids[i], 0) + 1
        assert max(counts.values()) - min(counts.values()) <= 1
        assert sum(counts.values()) == n_maj
