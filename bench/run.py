"""churnforge pipeline benchmark.

    python3 bench/run.py --workload c5-learn|cli-ingest|all [--seed N]
                         [--seconds S] [--trace 0|1] [--profile STAGE]

Runs against the working tree's ``src/`` (nothing is installed) in one
process, with no threads or subprocesses. Each run repeats the workload's
timed pass until the passes add up to ``--seconds`` (default: the
``run_seconds`` of BENCHMARK.json, which the bounds were measured at; at
least two passes). It sets up SETUPS times, before and between passes,
timing IMPORTS fresh package imports at each; set-up figures are medians.
It checks every pass's outputs and prints metric lines, a metadata line
and, last, one JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` traces the
first set-up, alternates traced and untraced passes and reports the
per-layer metrics of the traced set-up and passes. ``--profile STAGE``
prints the top cProfile rows of one stage instead of a result. A failed
check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"
IMPORTS = 5  # fresh package imports timed at each set-up
SETUPS = 3
PROFILE_ROWS = 25

END_TO_END_UNITS = {
    "pipeline_s": "s", "accounts_per_s": "accounts/s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_share": "ratio", "generate_s": "s", "extract_s": "s",
}
# Printed and recorded in the metadata, but not in the result: the model's
# quality moves with the workload seed by far more than any bound, and the
# learning steps take under half a second on cli-ingest, where their spread
# across seeds comes close to the largest bound.
PRINTED_ONLY_UNITS = {"holdout_prec_1": "%", "compare_s": "s", "train_final_s": "s"}
PER_LAYER_UNITS = {"_s": "s", "_per_s": "1/s", "_mb": "MB", "_mb_per_s": "MB/s",
                   "_share": "ratio", "_bytes": "bytes"}


def run_seconds() -> float:
    """The run length BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return float(json.load(f)["run_seconds"])


def max_rss_bytes() -> int:
    """The process's RSS high-water mark (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _package_modules() -> list[str]:
    return [m for m in sys.modules if m == "churnforge" or m.startswith("churnforge.")]


def import_churnforge() -> float:
    """Import the package from ``src/``; returns the seconds it took. numpy
    is imported first, so this and ``time_imports`` time the package's own
    import."""
    import numpy  # noqa: F401

    sys.path.insert(0, SRC)
    start = time.perf_counter()
    module = importlib.import_module("churnforge")
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(module.__file__)) != os.path.join(SRC, "churnforge"):
        raise ImportError(f"churnforge imported from {module.__file__}, not {SRC}")
    return elapsed


def time_imports(n: int) -> list[float]:
    """Time ``n`` fresh imports of the package, then put back the modules
    already loaded, so that the workloads and the tracer keep one set."""
    loaded = {m: sys.modules[m] for m in _package_modules()}
    times = []
    for _ in range(n):
        for name in _package_modules():
            del sys.modules[name]
        start = time.perf_counter()
        importlib.import_module("churnforge")
        times.append(time.perf_counter() - start)
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(loaded)
    return times


def cpu_times() -> list[int]:
    """Aggregate CPU jiffies from /proc/stat (empty where it is absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            return [int(v) for v in f.readline().split()[1:9]]
    except OSError:
        return []


def steal_share(before: list[int], after: list[int]) -> float | None:
    if not before or not after:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total else 0.0


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def supported_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10  # samples at or below
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def per_layer_unit(name: str) -> str:
    if ".cv_s." in name or ".train_s." in name:
        return "s"
    for suffix in sorted(PER_LAYER_UNITS, key=len, reverse=True):
        if name.endswith(suffix):
            return PER_LAYER_UNITS[suffix]
    return "count"


def run_workload(name: str, seed: int | None, seconds: float, trace: bool,
                 size: str) -> dict:
    from tracing import Span, Tracer, median_figures, pass_figures, per_layer_names
    from workloads import DEFAULT_SEEDS, WORKLOADS, Clock

    seed = DEFAULT_SEEDS[name] if seed is None else seed
    workdir = os.path.join(WORK, name)
    shutil.rmtree(workdir, ignore_errors=True)
    cpu0 = cpu_times()
    max_rss0 = max_rss_bytes()
    workload = WORKLOADS[name](seed, size, workdir)
    tracer = Tracer()
    setup_clocks, setup_times, import_times, clocks = [], [], [], []

    def set_up(traced_setup: bool = False) -> Span | None:
        import_times.extend(time_imports(IMPORTS))
        setup_clocks.append(Clock())
        root = None
        if traced_setup:
            tracer.install()
            root = tracer.open("setup", "bench")
        start = time.perf_counter()
        try:
            workload.setup(setup_clocks[-1])
        finally:
            setup_times.append(time.perf_counter() - start)
            if traced_setup:
                tracer.close(root)
                tracer.uninstall()
        return root

    untraced: list[float] = []
    step_times: list[dict] = []
    traced: list[dict] = []
    results = []
    pass_times: list[float] = []
    # the first set-up and the first pass are traced, so layer RSS growth is
    # seen on a fresh heap
    setup_root = set_up(traced_setup=trace)
    while len(results) < 2 or sum(pass_times) < seconds:
        traced_pass = trace and len(results) % 2 == 0
        workload.prepare()
        clock = Clock()
        clocks.append(clock)
        if traced_pass:
            tracer.install()
            root = tracer.open("pass", "bench")
        t0 = time.perf_counter()
        try:
            out = workload.run(clock)
        finally:
            elapsed = time.perf_counter() - t0
            if traced_pass:
                tracer.close(root)
                tracer.uninstall()
        pass_times.append(elapsed)
        result = workload.check(out)
        results.append(result)
        if traced_pass:
            traced.append(pass_figures(tracer.spans, [setup_root, root], result.cv_cells,
                                       result.cv_ok_cells))
        else:
            untraced.append(elapsed)
            step_times.append(dict(clock.times))
        # set-ups sit between passes, so their median sees the whole run
        if len(setup_times) < SETUPS:
            set_up()
    while len(setup_times) < SETUPS:
        set_up()
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    cpu1 = cpu_times()
    # The high-water mark is this workload's own peak if the workload raised
    # it, which it always does when it runs alone. Where an earlier workload
    # of the same process set a higher one, the peak is the highest RSS
    # sampled at this workload's step boundaries instead.
    max_rss1 = max_rss_bytes()
    if max_rss1 > max_rss0:
        peak_rss, peak_rss_source = max_rss1, "ru_maxrss"
    else:
        peak_rss = max(c.peak_rss for c in setup_clocks + clocks)
        peak_rss_source = "sampled at step boundaries"

    digests = sorted({r.digest for r in results})
    checks_failed = [k for r in results for k, ok in r.checks.items() if not ok]
    same_outputs = len(digests) == 1
    attempted = sum(r.attempted for r in results) + 1
    failed = sum(r.failed for r in results) + (0 if same_outputs else 1)
    pipeline_s = statistics.median(untraced)

    def step_median(step: str) -> float:
        if step in setup_clocks[0].times:
            return statistics.median(c.times[step] for c in setup_clocks)
        return statistics.median(t.get(step, 0.0) for t in step_times)

    if trace:
        figures = median_figures(traced)
        figures["trace.overhead_s"] = figures["trace.pipeline_s"] - pipeline_s
        metrics = {k: {"value": figures[k], "unit": per_layer_unit(k)}
                   for k in per_layer_names()}
        printed_only = {}
        spans_path = os.path.join(WORK, f"spans-{name}-{seed}.json")
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump(tracer.to_json(), f)
    else:
        values = {
            "pipeline_s": pipeline_s,
            "accounts_per_s": results[0].accounts / pipeline_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss / (1024.0 * 1024.0),
            "ok_share": 1.0 - failed / attempted,
            "generate_s": step_median("generate"),
            "extract_s": step_median("extract"),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        printed_only = {
            "holdout_prec_1": statistics.median(r.holdout_prec_1 for r in results),
            "compare_s": step_median("compare"),
            "train_final_s": step_median("train-final"),
        }
    shutil.rmtree(workdir, ignore_errors=True)

    import numpy
    meta = {
        "workload": name, "seed": seed, "size": size, "seconds": seconds,
        "trace": trace, "passes": len(results), "untraced_passes": len(untraced),
        "pipeline_s_samples": untraced, "setup_s_samples": setup_times,
        "import_s_samples": import_times,
        "pipeline_s_percentile": supported_percentile(untraced),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "steal_share": steal_share(cpu0, cpu1), "peak_rss_source": peak_rss_source,
        "output_digests": digests, "failed_checks": sorted(set(checks_failed)),
        "printed_only": printed_only, "notes": results[0].notes,
    }
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": metrics, "meta": meta}


def profile_stage(name: str, seed: int | None, size: str, stage: str) -> None:
    from workloads import DEFAULT_SEEDS, WORKLOADS, Clock

    seed = DEFAULT_SEEDS[name] if seed is None else seed
    workdir = os.path.join(WORK, name)
    workload = WORKLOADS[name](seed, size, workdir)
    clock = Clock(stage)
    workload.setup(clock)
    workload.prepare()
    workload.run(clock)
    shutil.rmtree(workdir, ignore_errors=True)
    if stage not in clock.times:
        raise SystemExit(f"error: {name} has no stage {stage!r}; "
                         f"stages: {', '.join(sorted(clock.times))}")
    print(f"# {name} seed {seed}: stage {stage} took {clock.times[stage]:.3f} s "
          "(under cProfile)")
    pstats.Stats(clock.profiler).sort_stats("tottime").print_stats(PROFILE_ROWS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["c5-learn", "cli-ingest", "all"])
    parser.add_argument("--seed", type=int, help="workload seed (default per workload)")
    parser.add_argument("--seconds", type=float,
                        help="minimum measured time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", metavar="STAGE",
                        help="print the top cProfile rows of one stage and exit")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test only; it runs the minimum "
                             "two passes")
    args = parser.parse_args(argv)
    if args.size == "tiny":
        seconds = 0.0
    else:
        seconds = run_seconds() if args.seconds is None else args.seconds

    try:
        first_import_s = import_churnforge()
    except ImportError as exc:
        print(f"error: cannot import churnforge from {SRC}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(WORK, exist_ok=True)

    names = ["c5-learn", "cli-ingest"] if args.workload == "all" else [args.workload]
    if args.profile:
        for name in names:
            profile_stage(name, args.seed, args.size, args.profile)
        return 0

    results = {n: run_workload(n, args.seed, seconds, bool(args.trace), args.size)
               for n in names}
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:<10} {metric:<36} {m['value']:>14.6g} {m['unit']}")
        for metric, value in result["meta"]["printed_only"].items():
            print(f"{name:<10} {metric:<36} {value:>14.6g} {PRINTED_ONLY_UNITS[metric]}"
                  "  (not in the result)")
        result["meta"]["first_import_s"] = first_import_s
        print(json.dumps({"meta": result.pop("meta")}))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
