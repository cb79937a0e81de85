import os
from pathlib import Path

import numpy as np
import pytest

from churnforge import (ADTreeModel, train_adaboost, train_adtree, train_bayes,
                        train_cart, train_forest)
from churnforge.learners import EnsembleModel, PredictionNode
from churnforge.model_io import (HEADER, ModelFormatError, load_model, parse_adtree,
                                 print_adtree, save_model)
from conftest import make_matrix, random_adtree, random_adtree_row

REFERENCE = os.path.join(os.path.dirname(__file__), "data", "consumer_churn_reference.adt")


def test_root_only_model_text():
    assert print_adtree(ADTreeModel(PredictionNode(0.0))) == ": 0.000\n"
    back = parse_adtree(": 0.000\n")
    assert back.root.value == 0.0 and back.root.splitters == []


def test_reference_model_parses_and_prints_canonical_lines():
    text = Path(REFERENCE).read_text(encoding="utf-8")
    model = parse_adtree(text, REFERENCE)
    printed = print_adtree(model)
    assert "(1)UL1110 < 0.5: 0.941" in printed
    assert "(6)T_Location = AJP: 0.697" in printed
    assert printed == text  # the file is stored in canonical form
    assert model.splitter_count() == 10


def test_reference_model_hand_computed_score():
    model = parse_adtree(Path(REFERENCE).read_text(encoding="utf-8"), REFERENCE)
    row = {"UL1110": 0.0, "OUTSTANDING_avg": 500.0, "CREDIT_ADJ_avg": -10.0}
    assert model.score_row(row) == pytest.approx(2.204, abs=1e-9)
    assert model.predict_row(row) == 1


def test_random_models_round_trip_exactly():
    rng = np.random.default_rng(1)
    for _ in range(25):
        model = random_adtree(rng, n_splitters=20)
        text = print_adtree(model)
        again = parse_adtree(text)
        assert again == model
        assert print_adtree(again) == text


def test_parse_rejects_malformed_line():
    with pytest.raises(ModelFormatError, match=":2"):
        parse_adtree(": 0.000\n  badline\n")


def test_parse_rejects_orphan_indentation():
    text = (": 0.000\n"
            "  (1)x < 1.0: 0.500\n"
            "  (1)x >= 1.0: -0.500\n"
            "      (2)y < 2.0: 0.100\n"
            "      (2)y >= 2.0: -0.100\n")
    with pytest.raises(ModelFormatError, match="orphan"):
        parse_adtree(text)


def test_parse_rejects_duplicate_index():
    text = (": 0.000\n"
            "  (1)x < 1.0: 0.500\n"
            "  (1)x >= 1.0: -0.500\n"
            "  (1)y < 2.0: 0.100\n"
            "  (1)y >= 2.0: -0.100\n")
    with pytest.raises(ModelFormatError, match="duplicate splitter index"):
        parse_adtree(text)


def test_parse_rejects_mismatched_pair():
    text = (": 0.000\n"
            "  (1)x < 1.0: 0.500\n"
            "  (1)x >= 2.0: -0.500\n")
    with pytest.raises(ModelFormatError, match="condition-false"):
        parse_adtree(text)


def test_parse_rejects_missing_false_line():
    text = ": 0.000\n  (1)x < 1.0: 0.500\n"
    with pytest.raises(ModelFormatError, match="missing condition-false"):
        parse_adtree(text)


def _labeled(rng, n=100):
    return make_matrix(
        {"a": rng.normal(size=n).round(3).tolist(),
         "b": rng.integers(0, 5, n).astype(float).tolist(),
         "loc": [["AJP", "TLS", "KLC"][int(k)] for k in rng.integers(0, 3, n)]},
        labels=rng.integers(0, 2, n).tolist())


def test_save_load_cart_prediction_identity(tmp_path):
    rng = np.random.default_rng(2)
    m = _labeled(rng)
    model = train_cart(m, max_depth=5)
    path = str(tmp_path / "model.cfm")
    save_model(model, path)
    loaded = load_model(path)
    assert (loaded.score_matrix(m) == model.score_matrix(m)).all()


def test_save_load_every_family(tmp_path):
    rng = np.random.default_rng(3)
    m = _labeled(rng)
    models = {
        "bayes.cfm": train_bayes(m),
        "forest.cfm": train_forest(m, n_trees=5, seed=1),
        "boost.cfm": train_adaboost(m, n_boost_rounds=5),
    }
    for name, model in models.items():
        path = str(tmp_path / name)
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.score_matrix(m), model.score_matrix(m))

    adt = train_adtree(m, n_boost_rounds=6)
    path = str(tmp_path / "adtree.cfm")
    save_model(adt, path)
    loaded = load_model(path)
    assert loaded == adt
    np.testing.assert_array_equal(loaded.score_matrix(m), adt.score_matrix(m))
    for _ in range(50):
        row = {k: v for k, v in zip(m.feature_names,
                                    (float(rng.normal()), float(rng.normal()), "AJP"))}
        assert loaded.score_row(row) == adt.score_row(row)


def test_adtree_text_files_still_load(tmp_path):
    """Files that earlier versions wrote in the ``.adt`` layout load as
    the model that layout prints."""
    model = random_adtree(np.random.default_rng(9), n_splitters=12)
    path = tmp_path / "model.adt"
    path.write_text(f"{HEADER}\nformat: adtree-text\n{print_adtree(model)}", encoding="utf-8")
    assert load_model(str(path)) == model


def test_header_present_in_every_file(tmp_path):
    rng = np.random.default_rng(4)
    m = _labeled(rng, n=40)
    for name, model in (("a.cfm", train_bayes(m)), ("b.adt", train_adtree(m, 2))):
        path = str(tmp_path / name)
        save_model(model, path)
        first = Path(path).read_text(encoding="utf-8").split("\n", 1)[0]
        assert first == HEADER == "churnforge-model v1"


def test_empty_ensemble_rejected_on_save(tmp_path):
    with pytest.raises(ValueError, match="empty ensemble"):
        save_model(EnsembleModel("vote", []), str(tmp_path / "e.cfm"))


def test_version_mismatch_rejected(tmp_path):
    path = str(tmp_path / "bad.cfm")
    with open(path, "w", encoding="utf-8") as f:
        f.write("churnforge-model v99\nformat: json\n{}\n")
    with pytest.raises(ModelFormatError, match="header"):
        load_model(path)


def test_truncated_file_rejected(tmp_path):
    rng = np.random.default_rng(5)
    m = _labeled(rng, n=40)
    path = str(tmp_path / "model.cfm")
    save_model(train_bayes(m), path)
    whole = Path(path).read_text(encoding="utf-8")
    with open(path, "w", encoding="utf-8") as f:
        f.write(whole[: len(whole) // 2])
    with pytest.raises(ModelFormatError, match="truncated|corrupt"):
        load_model(path)


def test_adtree_score_stable_across_save_load_cycles(tmp_path):
    rng = np.random.default_rng(6)
    model = random_adtree(rng, n_splitters=15)  # 3-decimal values: lossless
    p1, p2 = str(tmp_path / "m1.adt"), str(tmp_path / "m2.adt")
    save_model(model, p1)
    once = load_model(p1)
    save_model(once, p2)
    twice = load_model(p2)
    assert once == model and twice == model
    for _ in range(20):
        row = random_adtree_row(rng)
        assert model.score_row(row) == twice.score_row(row)
