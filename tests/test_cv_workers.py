"""Cross-validation cells run in forked workers once they are expected to
take long enough: the report does not depend on how many CPUs run them, and
a worker that dies fails the comparison loudly without leaving a process
behind."""

import multiprocessing
import os
import select
import threading
import time
import warnings

import numpy as np
import pytest

from churnforge import LearnerSpec, compare_learners, evaluation, stratified_kfold
from churnforge.learners import ALGORITHMS
from conftest import make_matrix


def _planted(n=160, seed=3):
    """Two informative features, one noise feature and a categorical one."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    return make_matrix({
        "signal": (labels * 2.0 + rng.normal(size=n)).round(3).tolist(),
        "weak": (labels * 0.5 + rng.normal(size=n)).round(3).tolist(),
        "noise": rng.normal(size=n).round(3).tolist(),
        "loc": [["AJP", "TLS", "KLC"][(int(v) + int(rng.integers(0, 2))) % 3] for v in labels],
    }, labels=labels.tolist())


def _cpus(monkeypatch, n):
    """``n`` CPUs in the affinity mask, and workers forked after the first
    cell however quick the cells are."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(evaluation, "_FORK_AFTER_S", 0.0)


def _report_facts(report):
    return report.folds, report.failures, report.to_csv_rows()


def test_report_is_the_same_on_one_cpu_and_on_more_workers_than_cpus(monkeypatch):
    m = _planted()
    specs = [LearnerSpec(a) for a in ALGORITHMS]
    specs.append(LearnerSpec("adaboost", n_boost_rounds=0, name="broken"))
    _cpus(monkeypatch, 4)
    spread = compare_learners(m, specs, k=5, seed=11)
    _cpus(monkeypatch, 1)
    serial = compare_learners(m, specs, k=5, seed=11)
    assert _report_facts(spread) == _report_facts(serial)
    assert set(spread.folds) == set(ALGORITHMS)
    assert spread.failures == {"broken": "n_boost_rounds must be positive"}
    assert multiprocessing.active_children() == []


def test_cells_are_placed_by_index_whichever_process_ran_them(monkeypatch):
    _cpus(monkeypatch, 3)
    parent = os.getpid()
    child_ran, signal = os.pipe()

    def cell(i):
        if os.getpid() != parent:
            os.write(signal, b"x")
        elif i > 0:  # cell 0 runs before any worker is forked
            select.select([child_ran], [], [], 30)  # until a child has run a cell
        time.sleep(0.01)
        return i, os.getpid()

    try:
        results = evaluation._run_cells(30, cell)
    finally:
        os.close(child_ran)
        os.close(signal)
    assert [i for i, _ in results] == list(range(30))
    assert results[0][1] == parent
    assert len({pid for _, pid in results}) > 1


def test_workers_are_forked_only_for_cells_expected_to_take_long_enough(monkeypatch):
    """Quick cells all run here; cells whose remainder is estimated at
    ``_FORK_AFTER_S`` or more are shared with a forked worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    here = os.getpid()
    quick = evaluation._run_cells(3, lambda i: os.getpid())  # a fork needs a 50 ms stall
    assert quick == [here] * 3

    def slow(i):
        time.sleep(evaluation._FORK_AFTER_S / 2)
        return os.getpid()

    spread = evaluation._run_cells(4, slow)
    assert spread[0] == here and len(set(spread)) == 2
    assert multiprocessing.active_children() == []


def _os_threads() -> int:
    with open("/proc/self/stat", encoding="ascii") as f:
        return int(f.read().rsplit(")", 1)[1].split()[17])


_threads_after_fork: list[int] = []
os.register_at_fork(after_in_parent=lambda: _threads_after_fork.append(_os_threads()))


def test_workers_fork_from_a_single_threaded_process(monkeypatch):
    """Python 3.12 and later warn (DeprecationWarning) when a process that
    has more than one OS thread forks; they count the threads in the parent
    just after the fork. numpy's BLAS pool stops its threads at fork, so
    the count there is one, and no warning is recorded."""
    _cpus(monkeypatch, 2)
    m = _planted(n=60)
    np.ones((64, 64)) @ np.ones((64, 64))  # the BLAS pool is running
    _threads_after_fork.clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        compare_learners(m, [LearnerSpec("stump")], k=3, seed=1)
    assert _threads_after_fork == [1]
    assert [str(w.message) for w in caught] == []


def test_while_another_thread_runs_every_cell_runs_here(monkeypatch):
    _cpus(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        pids = evaluation._run_cells(6, lambda i: os.getpid())
    finally:
        release.set()
        other.join()
    assert pids == [os.getpid()] * 6


def test_without_an_affinity_mask_every_cell_runs_here(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "sched_getaffinity")
    here = os.getpid()
    assert evaluation._run_cells(4, lambda i: (i, os.getpid())) == [(i, here) for i in range(4)]


def test_a_learner_failing_on_some_folds_keeps_its_first_failing_folds_message(monkeypatch):
    """Folds 1, 3 and 4 fail, each naming its row count and a test row it
    lacks; the report keeps fold 1's message whichever worker ran it."""
    m = _planted(n=90)
    folds = stratified_kfold(m.labels, 5, 7)
    lacking = {m.billing_ids[int(folds[f][1][0])]: f for f in (3, 1, 4)}
    real_train = evaluation.train

    def train(matrix, spec):
        ids = set(matrix.billing_ids)
        missing = [b for b in lacking if b not in ids]
        if missing:
            raise ValueError(f"{matrix.n_rows} rows, lacking {missing[0]}")
        return real_train(matrix, spec)

    monkeypatch.setattr(evaluation, "train", train)
    first = next(b for b, f in lacking.items() if f == 1)
    expected = f"{m.n_rows - len(folds[1][1])} rows, lacking {first}"
    for cpus in (3, 1):
        _cpus(monkeypatch, cpus)
        report = compare_learners(m, [LearnerSpec("stump"), LearnerSpec("bayes")], k=5, seed=7)
        assert report.failures == {"stump": expected, "bayes": expected}
        assert report.folds == {}


def test_a_lost_worker_fails_the_comparison_and_leaves_no_process(monkeypatch):
    m = _planted(n=60)
    parent = os.getpid()
    child_died, signal = os.pipe()
    real_train = evaluation.train
    calls_here = []

    def train(matrix, spec):
        if os.getpid() != parent:
            os.write(signal, b"x")
            os._exit(3)
        if calls_here:  # the first cell runs before the worker is forked
            select.select([child_died], [], [], 30)  # until the child has taken a cell
        calls_here.append(1)
        return real_train(matrix, spec)

    monkeypatch.setattr(evaluation, "train", train)
    _cpus(monkeypatch, 2)
    try:
        with pytest.raises(RuntimeError, match=r"worker exited before returning its cells "
                                               r"\(worker exit codes: 3\)"):
            compare_learners(m, [LearnerSpec("stump")], k=3, seed=1)
    finally:
        os.close(child_died)
        os.close(signal)
    assert multiprocessing.active_children() == []


def test_a_daemonic_process_runs_every_cell_itself(monkeypatch):
    """A daemonic process may not fork workers; compare_learners inside
    one still returns the report."""
    m = _planted(n=60)
    specs = [LearnerSpec("stump"), LearnerSpec("cart")]
    _cpus(monkeypatch, 2)
    expected = compare_learners(m, specs, k=3, seed=2).to_csv_rows()
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)

    def run():
        writer.send(compare_learners(m, specs, k=3, seed=2).to_csv_rows())

    proc = ctx.Process(target=run, daemon=True)
    proc.start()
    writer.close()
    try:
        assert reader.poll(60)
        got = reader.recv()
    finally:
        reader.close()
        proc.join(60)
    assert not proc.is_alive() and proc.exitcode == 0
    assert got == expected
