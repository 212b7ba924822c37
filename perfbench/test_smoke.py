"""Smoke test of the benchmark harness, so it does not rot.

One round of each workload, untraced and traced, must print the result line
with exactly the metrics BENCHMARK.json names, pass every check, and give
equal output digests.  A known-defect case whose error grows past the one
measured, and any failure in a workload, must make the run incorrect.  Without the library sources the harness must
refuse to run.  About a minute on 2 CPUs:

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import math
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCH = json.load(handle)


def run(workload, trace, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_one_round(workload):
    record, plain = result(workload, 0)
    traced_record, traced = result(workload, 1)
    for res, declared in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True
        assert res["attempted"] >= 1 and res["failed"] == 0
        units = {m["name"]: m["unit"] for m in BENCH[declared]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    assert traced_record["digests"] == record["digests"]
    assert traced["attempted"] == plain["attempted"]
    assert [d["job"] for d in record["known_defects"]] == [
        d["job"] for d in traced_record["known_defects"]]


def test_refuses_without_sources():
    # a directory holding only BENCHMARK.json and perfbench/, kept inside
    # the checkout's own output directory
    bare = os.path.join(ROOT, ".perfbench", "no-sources")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("integrate", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_only_measured_failures_are_known():
    from gaugecalc import funcspace, intervals
    import workloads as w

    def reason(k, exact, known):
        job = w._integral_job(f"sin({k}x)", funcspace.PointFunction.from_expr(f"sin({k}*x)"),
                              funcspace.IntervalFunction.length(), intervals.Box.unit(),
                              1e-4, w.SMALL_BUDGET, exact, known)
        return job.run()()[1]

    sin200 = (1.0 - math.cos(200)) / 200
    cap = (w.FALSE_CONVERGENCE, 0.49)
    assert isinstance(reason(200, sin200, cap), w.KnownDefect)
    # the same defect with a larger error than was measured is not known
    wrong = reason(200, sin200 + 0.1, cap)
    assert wrong is not None and not isinstance(wrong, w.KnownDefect)
    # a wrong answer from a job that was never seen to fail is not known
    wrong = reason(5, (1.0 - math.cos(5)) / 5 + 1.0, None)
    assert wrong is not None and not isinstance(wrong, w.KnownDefect)


def test_failures_are_counted_and_classified():
    from run import check_known_defects, run_loop
    from speed import MIN_SAMPLES, SpeedProbe
    import workloads as w

    def job(name, outcome):
        return w.Job(name, lambda: lambda: ((), outcome))

    def raises():
        raise RuntimeError("boom")

    pool = [[job("ok", None), job("wrong", "wrong answer"), w.Job("raises", raises)]]
    with SpeedProbe() as probe:
        while len(probe.kernel_s) < MIN_SAMPLES:
            time.sleep(0.01)
        jobs, failures, _digests, rounds = run_loop(pool, 0, None, probe)
    assert rounds == 1 and len(jobs) == 3
    assert [f["job"] for f in failures] == ["wrong", "raises"]

    defects = [job("known", w.KnownDefect("seen", w.FALSE_CONVERGENCE)),
               job("fixed", None), job("worse", "wrong answer"), w.Job("raises", raises)]
    report, new = check_known_defects(defects)
    assert [r["status"] for r in report] == [
        "fails as measured", "passes now", "new failure", "new failure"]
    assert new == ["worse", "raises"]
