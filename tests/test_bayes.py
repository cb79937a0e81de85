import math

import numpy as np
import pytest

from churnforge import train_bayes
from conftest import make_matrix


def test_symmetric_gaussians_boundary_at_midpoint():
    # class 0 centred at -2, class 1 mirrored at +2, identical spreads
    class0 = [-3.0, -2.5, -2.0, -1.5, -1.0]
    class1 = [1.0, 1.5, 2.0, 2.5, 3.0]
    m = make_matrix({"x": class0 + class1}, labels=[0] * 5 + [1] * 5)
    model = train_bayes(m)
    assert model.score_row({"x": 0.0}) == pytest.approx(0.0, abs=1e-12)
    assert model.predict_row({"x": 0.1}) == 1
    assert model.predict_row({"x": -0.1}) == 0
    # exact tie at the midpoint falls to class 0
    assert model.predict_row({"x": 0.0}) == 0


def test_zero_variance_feature_floored():
    m = make_matrix({"x": [5.0, 5.0, 5.0, 5.0], "y": [0.0, 1.0, 2.0, 3.0]},
                    labels=[0, 0, 1, 1])
    model = train_bayes(m)
    s = model.score_row({"x": 5.0, "y": 3.0})
    assert math.isfinite(s)
    assert model.predict_row({"x": 5.0, "y": 3.0}) == 1


def test_four_row_posterior_matches_hand_computation():
    m = make_matrix({"x": [1.0, 2.0, 5.0, 6.0]}, labels=[0, 0, 1, 1])
    model = train_bayes(m)

    # hand Bayes rule with population-variance Gaussians and +1 priors
    def loglik(x, mean, var):
        return -0.5 * math.log(2 * math.pi * var) - (x - mean) ** 2 / (2 * var)

    mean0, var0 = 1.5, 0.25
    mean1, var1 = 5.5, 0.25
    for x in (0.0, 1.2, 3.4, 5.1, 7.0):
        expected = (math.log(3 / 3)
                    + loglik(x, mean1, var1) - loglik(x, mean0, var0))
        assert model.score_row({"x": x}) == pytest.approx(expected, rel=1e-12)
        assert model.predict_row({"x": x}) == int(expected > 0)


def test_categorical_laplace_smoothing():
    m = make_matrix({"loc": ["AJP", "AJP", "AJP", "TLS", "TLS", "KLC"]},
                    labels=[1, 1, 0, 0, 0, 0])
    model = train_bayes(m)
    # P(AJP|1) = (2+1)/(2+3); P(AJP|0) = (1+1)/(4+3); prior odds = ln(3/5)
    expected = math.log(3 / 5) + math.log((2 + 1) / (2 + 3)) - math.log((1 + 1) / (4 + 3))
    assert model.score_row({"loc": "AJP"}) == pytest.approx(expected, rel=1e-12)
    # unseen category gets the zero-count smoothed estimate
    expected_new = math.log(3 / 5) + math.log(1 / 5) - math.log(1 / 7)
    assert model.score_row({"loc": "PNG"}) == pytest.approx(expected_new, rel=1e-12)


def test_missing_values_skipped():
    m = make_matrix({"x": [1.0, 2.0, 5.0, 6.0], "y": [None, 1.0, None, 0.0]},
                    labels=[0, 0, 1, 1])
    model = train_bayes(m)
    # a row missing y scores exactly as if y did not exist
    assert model.score_row({"x": 5.5}) == model.score_row({"x": 5.5, "y": None})
    assert math.isfinite(model.score_row({"x": 5.5, "y": 1.0}))


def test_matrix_path_matches_row_path():
    rng = np.random.default_rng(0)
    m = make_matrix(
        {"a": rng.normal(size=40).tolist(),
         "loc": [["AJP", "TLS"][int(k)] for k in rng.integers(0, 2, 40)]},
        labels=rng.integers(0, 2, 40).tolist())
    model = train_bayes(m)
    g, c = model.numeric["a"], model.categorical["loc"]

    def by_hand(row):
        """Prior plus one log-odds term per feature, from the fitted tables."""
        def loglik(x, mean, var):
            return -0.5 * math.log(2 * math.pi * var) - (x - mean) ** 2 / (2 * var)
        c0, c1 = c.counts[row["loc"]]
        return math.fsum([model.log_prior_odds,
                          loglik(row["a"], g.mean[1], g.var[1])
                          - loglik(row["a"], g.mean[0], g.var[0]),
                          math.log((c1 + 1) / (c.totals[1] + 2))
                          - math.log((c0 + 1) / (c.totals[0] + 2))])

    batch = model.score_matrix(m)
    for i in range(m.n_rows):
        assert batch[i] == model.score_row(m.row(i))
        assert batch[i] == pytest.approx(by_hand(m.row(i)), abs=1e-9)
