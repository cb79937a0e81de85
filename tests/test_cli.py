import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_matrix

import churnforge
from churnforge import (load_model, oversample, predict_matrix, read_matrix, save_model, train,
                        train_cart, write_matrix)
from churnforge.cli import main
from churnforge.learners import ALGORITHMS
from churnforge.tasks import PipelineConfig, build_config, parse_config_file, rank_predictions

SRC = os.path.dirname(os.path.dirname(os.path.abspath(churnforge.__file__)))

CONFIG_TEMPLATE = """\
# pipeline settings
data_dir = {data}
out_dir = {out}
seed = 42
k_folds = 5
learners = stump,cart,bayes
n_consumers = 1200
n_smes = 150
churn_rate = 0.25
winback_rate = 0.4
signal_strength = 0.8
cart.max_depth = 5
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    out = root / "out"
    out.mkdir()
    config = root / "pipeline.cfg"
    config.write_text(CONFIG_TEMPLATE.format(data=data, out=out), encoding="utf-8")
    assert main(["generate", "--config", str(config)]) == 0
    return {"config": str(config), "data": str(data), "out": str(out)}


def _run(workdir, *argv):
    return main([*argv, "--config", workdir["config"]])


def test_generate_wrote_tables(workdir):
    for name in ("subscribers.csv", "billing.csv", "usage.csv", "service_requests.csv"):
        assert os.path.exists(os.path.join(workdir["data"], name))


def test_full_churn_pipeline(workdir):
    assert _run(workdir, "extract", "--task", "1") == 0
    assert _run(workdir, "compare", "--task", "1") == 0
    assert _run(workdir, "train-final", "--task", "1") == 0
    assert _run(workdir, "predict", "--task", "1", "--top-n", "25") == 0
    assert _run(workdir, "rank-features", "--task", "1") == 0

    out = workdir["out"]
    best = Path(out, "task1_best.txt").read_text(encoding="utf-8").strip()
    assert best in ("stump", "cart", "bayes")

    lines = Path(out, "task1_predictions.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "billing_id,score,rank"
    assert len(lines) == 26
    ranks = [int(line.split(",")[2]) for line in lines[1:]]
    assert ranks == list(range(1, 26))

    ranking = Path(out, "task1_feature_ranking.csv").read_text(encoding="utf-8").splitlines()
    assert ranking[0] == "rank,feature,info_gain"
    assert len(ranking) == 16  # default top 15

    comparison = Path(out, "task1_comparison.csv").read_text(encoding="utf-8").splitlines()
    assert comparison[0] == "metric,stump,cart,bayes"


def test_predict_is_byte_deterministic(workdir):
    path = os.path.join(workdir["out"], "task1_predictions.csv")
    assert _run(workdir, "predict", "--task", "1", "--top-n", "25") == 0
    first = Path(path).read_bytes()
    assert _run(workdir, "predict", "--task", "1", "--top-n", "25") == 0
    assert Path(path).read_bytes() == first


def test_predict_holdout_metrics(workdir):
    assert main(["predict", "--task", "1", "--holdout",
                 "--config", workdir["config"]]) == 0
    text = Path(workdir["out"], "task1_holdout.txt").read_text(encoding="utf-8")
    assert "prec_1=" in text and "tp=" in text


def test_loyal_task_reuses_churn_extraction_and_reverses(workdir):
    assert _run(workdir, "extract", "--task", "2") == 0
    assert _run(workdir, "compare", "--task", "2") == 0
    assert _run(workdir, "train-final", "--task", "2") == 0
    assert _run(workdir, "predict", "--task", "2", "--top-n", "10") == 0
    lines = Path(workdir["out"], "task2_predictions.csv").read_text(
        encoding="utf-8").splitlines()[1:]
    scores = [float(line.split(",")[1]) for line in lines]
    assert scores == sorted(scores)  # loyal = ascending churn score


def test_train_final_with_another_learner_replaces_the_model(workdir, tmp_path):
    """After train-final with adtree then forest, one model file is left
    and predict scores the forest, not the older ADTree."""
    out = str(tmp_path / "out")
    assert _run(workdir, "extract", "--task", "1", "--out", out) == 0
    for learner in ("adtree", "forest"):
        cfg = tmp_path / f"{learner}.cfg"
        text = Path(workdir["config"]).read_text(encoding="utf-8").replace(
            "learners = stump,cart,bayes", "learners = adtree,forest")
        cfg.write_text(text + f"final_learner = {learner}\nforest.n_trees = 5\n",
                       encoding="utf-8")
        assert main(["train-final", "--task", "1", "--config", str(cfg), "--out", out]) == 0
    assert sorted(p.name for p in Path(out).glob("task1_model.*")) == ["task1_model.cfm"]
    assert _run(workdir, "predict", "--task", "1", "--top-n", "1", "--out", out) == 0
    top = Path(out, "task1_predictions.csv").read_text(encoding="utf-8").splitlines()[1]
    forest = load_model(str(Path(out, "task1_model.cfm")))
    assert float(top.split(",")[1]) == forest.score_matrix(
        read_matrix(str(Path(out, "task1_test.csv")))).max()


@pytest.mark.parametrize("learner", ALGORITHMS)
def test_predict_scores_the_trained_model_bit_for_bit(workdir, tmp_path, learner):
    """The model file holds the trained model exactly: every score predict
    writes equals the in-memory model's score. An ADTree saved in the .adt
    layout lost its values past three decimals."""
    out = str(tmp_path / "out")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(Path(workdir["config"]).read_text(encoding="utf-8").replace(
        "learners = stump,cart,bayes", f"learners = {learner}")
        + f"final_learner = {learner}\n", encoding="utf-8")
    for step in ("extract", "train-final", "predict"):
        assert main([step, "--task", "1", "--config", str(cfg), "--out", out,
                     "--top-n", "100000"]) == 0
    config = build_config(parse_config_file(str(cfg)), task_id=1, out_dir=out)
    model = train(oversample(read_matrix(config.path("train.csv")), config.seed + 2),
                  config.spec_for(learner))
    test = read_matrix(config.path("test.csv"))
    scores, _ = predict_matrix(model, test)
    with open(config.path("predictions.csv"), encoding="utf-8", newline="") as f:
        written = {row["billing_id"]: float(row["score"]) for row in csv.DictReader(f)}
    assert written == dict(zip(test.billing_ids, scores.tolist()))


def test_compare_in_a_subprocess_prints_its_line_once(workdir, tmp_path):
    """Forked cross-validation workers write nothing to stdout: neither the
    result line nor a line still buffered in the pipe when they fork.
    Workers are forked however quick the cells are."""
    out = str(tmp_path / "out")
    assert _run(workdir, "extract", "--task", "1", "--out", out) == 0
    script = ("import os, sys\n"
              "forks = []\n"
              "os.register_at_fork(after_in_parent=lambda: forks.append(1))\n"
              "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
              "from churnforge import evaluation\n"
              "evaluation._FORK_AFTER_S = 0.0\n"
              "from churnforge.cli import main\n"
              "print('before compare')\n"
              "sys.exit(main(sys.argv[1:]) or (None if forks else 'no worker was forked'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", script, "compare", "--task", "1",
                           "--config", workdir["config"], "--out", out],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    best = Path(out, "task1_best.txt").read_text(encoding="utf-8").strip()
    assert done.stdout == f"before compare\ntask 1 best learner: {best}\n"
    assert done.stderr == ""


def test_loyal_ranking_is_exact_reverse_for_unique_scores():
    ids = [f"B{i}" for i in range(8)]
    scores = np.array([0.9, 0.1, 0.5, 0.3, 0.8, 0.05, 0.7, 0.2])
    churn = rank_predictions(ids, scores, "descending", None)
    loyal = rank_predictions(ids, scores, "ascending", None)
    assert churn == list(reversed(loyal))
    # ties: both directions order tied ids ascending by billing_id
    tied = np.array([0.5, 0.5, 0.1, 0.9])
    churn_t = rank_predictions(["B3", "B1", "B2", "B0"], tied, "descending", None)
    assert [b for b, _ in churn_t] == ["B0", "B1", "B3", "B2"]


def test_winback_pipeline(workdir):
    assert _run(workdir, "extract", "--task", "3") == 0
    train = Path(workdir["out"], "task3_train.csv").read_text(encoding="utf-8")
    header = train.splitlines()[0].split(",")
    assert "DL_M1" in header and "DL_M3" in header  # per-subscriber windows
    assert _run(workdir, "compare", "--task", "3") == 0
    assert _run(workdir, "train-final", "--task", "3") == 0
    assert _run(workdir, "predict", "--task", "3", "--top-n", "5") == 0
    lines = Path(workdir["out"], "task3_predictions.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6


def test_sme_task_filters_by_service(workdir):
    assert _run(workdir, "extract", "--task", "4") == 0
    assert _run(workdir, "extract", "--task", "6") == 0
    t4 = Path(workdir["out"], "task4_train.csv").read_text(encoding="utf-8")
    t6 = Path(workdir["out"], "task6_train.csv").read_text(encoding="utf-8")
    assert len(t4.splitlines()) > 1 and len(t6.splitlines()) > 1
    ids4 = {line.split(",")[0] for line in t4.splitlines()[1:]}
    ids6 = {line.split(",")[0] for line in t6.splitlines()[1:]}
    assert ids4 and ids6
    # voice-only and voice+broadband accounts overlap only via multi-service accounts
    assert ids4 != ids6


def test_unknown_config_key_fails_with_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 1\n", encoding="utf-8")
    assert main(["generate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no_such_key" in err
    assert err.count("\n") == 1  # one-line diagnostic


def test_predict_without_model_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data_dir = {tmp_path}\nout_dir = {tmp_path}\n", encoding="utf-8")
    assert main(["predict", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_compare_before_extract_names_the_missing_matrix(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data_dir = {tmp_path}\nout_dir = {tmp_path}\n", encoding="utf-8")
    assert main(["compare", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: missing file: {tmp_path / 'task1_train.csv'}\n"


def test_cli_seed_override_changes_sampling(workdir, tmp_path):
    out2 = tmp_path / "out2"
    out2.mkdir()
    assert main(["extract", "--task", "1", "--config", workdir["config"],
                 "--out", str(out2)]) == 0
    assert main(["compare", "--task", "1", "--config", workdir["config"],
                 "--out", str(out2), "--seed", "43"]) == 0
    assert os.path.exists(out2 / "task1_comparison.csv")


def test_extract_rejects_table_with_unknown_reference(workdir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workdir["data"], data)
    with open(data / "billing.csv", "a", encoding="utf-8") as f:
        f.write("B_UNKNOWN,2011-05,100,100,100,0,100,0\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data_dir = {data}\nout_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    assert main(["extract", "--task", "1", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: billing row references unknown billing_id B_UNKNOWN\n"


def test_negative_seed_fails_naming_the_field(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data_dir = {tmp_path / 'data'}\nn_consumers = 50\nn_smes = 5\n",
                   encoding="utf-8")
    assert main(["generate", "--config", str(cfg), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("line,message", [
    ("n_consumers = 2.5", "config key n_consumers: invalid literal for int() with base 10: '2.5'"),
    ("months_start = 2011-13", "config key months_start: month out of range: 13"),
    ("forest.n_trees = many", "config key forest.n_trees: invalid literal for int() with "
                              "base 10: 'many'"),
    ("cart.depth = 3", "config key cart.depth: cart does not read depth "
                       "(it reads max_depth, min_leaf)"),
    ("bayes.max_depth = 3", "config key bayes.max_depth: bayes does not read max_depth "
                            "(it reads none)"),
    ("forest.bootstrap = flase", "config key forest.bootstrap: expected true or false, "
                                 "got 'flase'"),
    ("stump.n_trees = 5", "config key stump.n_trees: stump does not read n_trees "
                          "(it reads none)"),
    ("tree.max_depth = 3", "config key tree.max_depth: unknown learner 'tree'"),
])
def test_bad_config_value_names_its_key(tmp_path, capsys, line, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data_dir = {tmp_path / 'data'}\n{line}\n", encoding="utf-8")
    assert main(["generate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command,line,message", [
    ("extract", "churn_rate = 1.5", "churn_rate must be in (0, 1), got 1.5"),
    ("extract", "seed = -1", "seed must be a non-negative integer, got -1"),
    ("extract", "months_end = 2011-03", "months_end must be at least 5 months after months_start"),
    ("extract", "k_folds = 1", "k must be at least 2, got 1"),
    ("extract", "top_n = -5", "top_n must be at least 1, got -5"),
    ("extract", "learners = stump,tree", "unknown learner 'tree' (choose from stump, cart, "
                                         "adtree, bayes, bagging, forest, adaboost)"),
    ("extract", "final_learner = tree", "learner 'tree' is not in the configured list"),
    ("generate", "task = 9", "task must be 1..7, got 9"),
    ("generate", "learners = stump, stump", "learner 'stump' is listed twice"),
    ("extract", "learners = stump, stump", "learner 'stump' is listed twice"),
    ("generate", "learners = ,", "no learner is listed"),
    ("extract", "learners = ,", "no learner is listed"),
])
def test_every_command_checks_the_whole_config(workdir, tmp_path, capsys, command, line,
                                               message):
    """A field out of its bound fails at load, naming its key, in a command
    that never reads the field; nothing is written."""
    data = tmp_path / "data" if command == "generate" else workdir["data"]
    key = line.split(" = ")[0]
    base = CONFIG_TEMPLATE.format(data=data, out=tmp_path / "out").splitlines()
    cfg = tmp_path / "c.cfg"  # the template, with `line` in place of its key's line
    cfg.write_text("".join(f"{ln}\n" for ln in base if not ln.startswith(f"{key} ="))
                   + f"{line}\n", encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: config key {key}: {message}\n"
    assert not (tmp_path / "out").exists() and not (tmp_path / "data").exists()


def test_a_key_set_twice_fails_naming_the_file_line_and_key(tmp_path, capsys):
    """A second `seed` line would have silently replaced the first."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data_dir = {tmp_path / 'data'}\nseed = 1\n# again\nseed = 2\n",
                   encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        parse_config_file(str(cfg))
    assert str(caught.value) == f"{cfg}:4: key 'seed' is set twice"
    assert main(["generate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {caught.value}\n"
    assert not (tmp_path / "data").exists()


def test_a_bad_flag_is_checked_at_load(workdir, tmp_path, capsys):
    """A flag's value is checked as a config value is, but named as the
    field, since no config key holds it."""
    out = tmp_path / "out"
    assert _run(workdir, "extract", "--top-n", "-5", "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: top_n must be at least 1, got -5\n"
    assert not out.exists()


@pytest.mark.parametrize("field,value,message", [
    ("top_n", -5, "top_n must be at least 1, got -5"),
    ("k_folds", 1, "k must be at least 2, got 1"),
    ("task_id", 9, "task must be 1..7, got 9"),
    ("churn_rate", 1.5, "churn_rate must be in (0, 1), got 1.5"),
    ("learners", ["stump", "tree"], "unknown learner 'tree'"),
    ("learners", ["cart", "bayes", "cart"], "learner 'cart' is listed twice"),
    ("learners", [], "no learner is listed"),
    ("final_learner", "cart", "learner 'cart' is not in the configured list"),
])
def test_a_config_built_in_code_is_checked_at_construction(field, value, message):
    """A PipelineConfig built without build_config runs the same checks, so
    a negative top_n cannot reach predict, which would slice off the last
    five rows of its ranking and exit 0."""
    overrides = {"learners": ["stump"]} if field == "final_learner" else {}
    with pytest.raises(ValueError) as caught:
        PipelineConfig(**overrides, **{field: value})
    assert str(caught.value).startswith(message)


def test_compare_records_a_learner_its_trainer_rejects_as_failed(workdir, tmp_path):
    """A value out of its bound is reported by the learner that reads it,
    not clamped: zero AdaBoost rounds fail, and the other learners run."""
    out = str(tmp_path / "out")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(Path(workdir["config"]).read_text(encoding="utf-8").replace(
        "learners = stump,cart,bayes", "learners = stump,adaboost")
        + "adaboost.n_boost_rounds = 0\n", encoding="utf-8")
    assert main(["extract", "--task", "1", "--config", str(cfg), "--out", out]) == 0
    assert main(["compare", "--task", "1", "--config", str(cfg), "--out", out]) == 0
    text = Path(out, "task1_comparison.txt").read_text(encoding="utf-8")
    assert text.endswith("adaboost: FAILED (n_boost_rounds must be positive)\n")
    assert Path(out, "task1_best.txt").read_text(encoding="utf-8") == "stump\n"


def test_predict_rejects_a_feature_read_as_another_kind(tmp_path, capsys):
    """A categorical column whose cells are all digits reads back as numeric
    from a CSV without its ``.kinds`` file; predict names it rather than
    scoring its codes as numbers."""
    loc = ["7", "7", "9", "9", "A5", "7", "9", "A5"]
    train_m = make_matrix({"loc": loc, "x": [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]},
                          labels=[1, 1, 0, 0, 0, 1, 0, 0], kinds={"loc": "categorical"})
    model = train_cart(train_m, max_depth=2)
    assert model.root.condition.feature == "loc"
    save_model(model, str(tmp_path / "task1_model.cfm"))
    write_matrix(make_matrix({"loc": ["7", "9", "7"], "x": [1.0, 2.0, 2.0]},
                             kinds={"loc": "categorical"}), str(tmp_path / "task1_test.csv"))
    (tmp_path / "task1_test.csv.kinds").unlink()
    assert read_matrix(str(tmp_path / "task1_test.csv")).kinds["loc"] == "numeric"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data_dir = {tmp_path}\nout_dir = {tmp_path}\n", encoding="utf-8")
    assert main(["predict", "--task", "1", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'task1_test.csv'} has feature kinds the model does not read: "
        "loc is numeric, the model reads it as categorical\n")
    assert not (tmp_path / "task1_predictions.csv").exists()
