"""Smoke test for the benchmark: both workloads at the tiny size, untraced
and traced, must emit every metric BENCHMARK.json names, with its unit.

    python3 -m pytest bench/test_smoke.py -q

Takes about a minute; it is not part of the package's test suite.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("c5-learn", "cli-ingest")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(tmp_path, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--size", "tiny", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=900, check=False)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(tmp_path, trace, group):
    rc, lines = _run(tmp_path, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert rc == (0 if result["correct"] else 1)
    wanted = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in _spec()[group]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == wanted
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        # c5-learn's set-up is traced, so its generator and features figures are measured
        for name in ("generator.generate_s", "features.extract_churn_s"):
            assert result["metrics"][f"c5-learn.{name}"]["value"] > 0, name
    metas = [json.loads(line)["meta"] for line in lines if line.startswith('{"meta"')]
    assert [m["workload"] for m in metas] == list(WORKLOADS)
    for meta in metas:
        # traced passes must reproduce the untraced passes' outputs byte for byte
        assert len(meta["output_digests"]) == 1, meta["workload"]
        assert meta["passes"] >= 2


def test_missing_program_fails_without_result(tmp_path):
    """A directory holding only the benchmark must exit nonzero and print no result."""
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "c5-learn"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
