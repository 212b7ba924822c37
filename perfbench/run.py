"""gaugecalc benchmark: seeded closed-loop batch workloads.

    python3 perfbench/run.py --workload {integrate,mct,roundtrip} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ./src.  One
caller runs jobs back to back (closed loop) in whole rounds until S scaled
seconds have passed (see speed.py).  Only a job's library calls are timed;
its output is then checked against its oracle, see workloads.py.  After
the measurement the workload's known-defect cases run once, untimed; a
run is correct when no job failed and no known defect grew.  With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a separately traced run.
The line before it is a JSON record of run facts, failures, known defects
and the per-round output digests; the same record is written to .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from speed import SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# Rounds generated in set-up per second of run time: about three times what
# a run completes on a 2-CPU machine at the commit that introduced the
# benchmark.  A faster program cycles through the pool again.
POOL_ROUNDS_PER_S = {"integrate": 1.0, "mct": 0.5, "roundtrip": 2.0}
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # the tail percentile leaves this many jobs above it


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup(workload, seed, rounds, tracer_factory):
    """Import gaugecalc afresh, generate the inputs, build the functions."""
    for name in list(sys.modules):
        if name == "gaugecalc" or name.startswith("gaugecalc.") or name == "workloads":
            del sys.modules[name]
    tracer = None
    gaugecalc = importlib.import_module("gaugecalc")
    workloads = importlib.import_module("workloads")
    hooks = {}
    if tracer_factory is not None:
        tracer = tracer_factory()
        tracer.install()
        hooks = dict(hook=tracer.wrap_point_function,
                     hook_psi=lambda psi: tracer.wrap("hk.psi", psi))
    pool = workloads.build_pool(workload, seed, rounds, **hooks)
    if tracer is not None:
        tracer.end_setup()
    if not os.path.realpath(gaugecalc.__file__).startswith(os.path.realpath(SRC)):
        fail(f"gaugecalc imported from {gaugecalc.__file__}, not from {SRC}")
    return pool, tracer


def timed(probe, fn, *args):
    """(result, raw seconds, scaled seconds estimated so far, start, end)."""
    start, paused = time.perf_counter(), probe.paused
    result = fn(*args)
    end = time.perf_counter()
    raw = end - start - (probe.paused - paused)
    return result, raw, raw * probe.factor(start, end), start, end


def run_loop(pool, seconds, tracer, probe):
    """Closed loop over whole rounds until `seconds` scaled seconds passed.

    Stopping on scaled time keeps the number of rounds, and so the job mix
    behind each percentile, independent of the machine's momentary speed.
    """
    jobs, failures, digests = [], [], []
    rounds = 0
    scaled = 0.0
    while True:
        digest = hashlib.sha256()
        for job in pool[rounds % len(pool)]:
            run = job.run
            if tracer is not None:
                tracer.job = len(jobs)
                run = tracer.wrap("harness.job", run, record=True)
            check, raw, estimate, start, end = timed(probe, run_job, run)
            jobs.append((job.name, raw, start, end))
            scaled += estimate
            if tracer is not None:
                tracer.active = False  # the oracle's library calls are not the job's
            items, reason = check_job(check)
            if tracer is not None:
                tracer.active = True
            digest.update(repr((job.name, items, str(reason))).encode())
            if reason is not None:
                failures.append({"job": job.name, "reason": str(reason)})
        digests.append(digest.hexdigest()[:16])
        rounds += 1
        if scaled >= seconds:
            break
    return jobs, failures, digests, rounds


def check_known_defects(defect_jobs):
    """Run each known-defect case once; (report, names of new failures)."""
    report, new = [], []
    for job in defect_jobs:
        reason = check_job(run_job(job.run))[1]
        family = getattr(reason, "family", None)
        if reason is None:
            status = "passes now"
        elif family is not None:
            status = "fails as measured"
        else:
            status = "new failure"
            new.append(job.name)
        report.append({"job": job.name, "status": status, "reason": str(reason),
                       "family": family})
    return report, new


def run_job(run):
    """The job's check; a job that raised gets a check that reports it."""
    try:
        return run()
    except Exception as exc:  # a failed job is counted, never raised
        reason = f"exception {type(exc).__name__}: {exc}"
        return lambda: (None, reason)


def check_job(check):
    try:
        return check()
    except Exception as exc:
        return None, f"check raised {type(exc).__name__}: {exc}"


def end_to_end(setup_times, latencies):
    """Metrics from (speed-scaled) set-up times and job latencies.

    In a closed loop with one caller the batch time is the sum of the job
    latencies; the harness's own gaps between jobs are left out.
    """
    n = len(latencies)
    ordered = sorted(latencies)
    rank = max(0, n - 1 - TAIL_BEYOND)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (n / sum(latencies), "1/s"),
        "job_s_p50": (statistics.median(ordered), "s"),
        "job_s_tail": (ordered[rank], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    tail = {"percentile": 100.0 * (rank + 1) / n, "jobs": n,
            "jobs_beyond": n - 1 - rank}
    return metrics, tail


LAYER_TIMES = [
    "hk.integrate", "hk.indefinite", "hk.dp", "hk.riemann_sum", "hk.psi",
    "funcspace.point_eval", "funcspace.parse", "funcspace.interval_value",
    "intervals.partition", "intervals.gauge_eval", "intervals.diam_lt",
    "mc.verify", "mc.mct_control", "mc.control_eval", "mc.gauge_from_control",
    "mc.control_from_gauges", "mc.verify_nd",
    "calculus.mct_experiment", "calculus.identity", "limits.one_sided",
    "harness.job",
]
LAYER_COUNTS = [
    "hk.integrate.evals", "hk.indefinite.cells", "hk.dp.cells",
    "intervals.partition.cells", "mc.verify.points", "par.map.items",
]


def per_layer(tracer, rounds, pool_rounds, batch_s, jobs):
    """Per-round totals, so runs of different length compare.

    Set-up built `pool_rounds` rounds of inputs and the loop ran `rounds`,
    so set-up work counts per pool round and loop work per round run.
    """
    def per_round(total, at_setup):
        return at_setup / pool_rounds + (total - at_setup) / rounds

    zero = [0, 0.0, 0.0]
    stats = {name: [per_round(t, s) for t, s in zip(stat, tracer.setup_stats.get(name, zero))]
             for name, stat in tracer.stats.items()}
    counts = {name: per_round(n, tracer.setup_counts.get(name, 0))
              for name, n in tracer.counts.items()}

    def stat(name):
        return stats.get(name, zero)

    metrics = {}
    for name in LAYER_TIMES:
        calls, self_s, _total = stat(name)
        metrics[f"{name}.calls"] = (calls, "count/round")
        metrics[f"{name}.self_s"] = (self_s, "s/round")
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count/round")
    calls, _self, total = stat("par.map")
    metrics["par.map.calls"] = (calls, "count/round")
    metrics["par.map.wall_s"] = (total, "s/round")

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    evals = counts.get("hk.integrate.evals", 0)
    metrics["hk.integrate.ns_per_eval"] = (ratio(stat("hk.integrate")[2], evals, 1e9), "ns/eval")
    metrics["hk.integrate.converged_ratio"] = (
        ratio(counts.get("hk.integrate.converged", 0), stat("hk.integrate")[0]), "ratio")
    metrics["hk.dp.ns_per_cell"] = (
        ratio(stat("hk.dp")[2], counts.get("hk.dp.cells", 0), 1e9), "ns/cell")
    metrics["funcspace.point_eval.ns_per_call"] = (
        ratio(stat("funcspace.point_eval")[1], stat("funcspace.point_eval")[0], 1e9), "ns/call")
    metrics["trace.jobs_per_s"] = (jobs / batch_s, "1/s")
    return metrics


def run_facts(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "GAUGECALC_THREADS": os.environ.get("GAUGECALC_THREADS", "unset (library default)"),
        "commit": git_commit(),
    }


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOL_ROUNDS_PER_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gaugecalc", "__init__.py")):
        fail(f"no gaugecalc sources under {SRC}")
    if args.seconds < 0:
        fail("--seconds must be >= 0")
    facts = run_facts(args)
    # the library default worker count; the run facts record any override
    os.environ.pop("GAUGECALC_THREADS", None)
    sys.path.insert(0, SRC)

    tracer_factory = None
    if args.trace:
        from tracing import Tracer
        tracer_factory = Tracer
    rounds = max(2, math.ceil(args.seconds * POOL_ROUNDS_PER_S[args.workload]))
    with SpeedProbe() as probe:
        setups = []
        for _ in range(SETUP_REPEATS):
            (pool, tracer), raw, _estimate, start, end = timed(
                probe, setup, args.workload, args.seed, rounds, tracer_factory)
            setups.append((raw, start, end))
        jobs, failures, digests, done = run_loop(pool, args.seconds, tracer, probe)
        wall = time.perf_counter() - setups[0][1]
    # untimed, after the measurement, and apart from its counts
    if tracer is not None:
        tracer.active = False
    defects, new_failures = check_known_defects(
        sys.modules["workloads"].known_defects(args.workload))

    def scale(intervals):
        return [raw * probe.factor(start, end) for raw, start, end in intervals]

    latencies = [raw for _name, raw, _start, _end in jobs]
    scaled = scale(job[1:] for job in jobs)
    metrics, tail = end_to_end(scale(setups), scaled)
    raw_metrics, _ = end_to_end([raw for raw, _start, _end in setups], latencies)
    if tracer is not None:
        metrics = per_layer(tracer, done, len(pool), sum(scaled), len(jobs))
    record = dict(facts, rounds=done, pool_rounds=len(pool), wall_s=wall,
                  tail=tail, digests=digests, failures=failures,
                  known_defects=defects,
                  metrics={k: v for k, (v, _u) in metrics.items()},
                  raw_metrics={k: v for k, (v, _u) in raw_metrics.items()},
                  speed_kernel=probe.summary())
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        # every job as (name, raw s, scaled s, start, end), and every kernel
        # sample as (start, s), so that the scaling can be studied afterwards
        json.dump(dict(record, jobs=[(*job[:2], t, *job[2:]) for job, t in zip(jobs, scaled)],
                       kernel_samples=list(zip(probe.starts, probe.kernel_s))),
                  handle)
    if tracer is not None:
        tracer.write_spans(stem + "-spans.jsonl")
    print(json.dumps({"perfbench": record}))
    print(json.dumps({
        "correct": not failures and not new_failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
