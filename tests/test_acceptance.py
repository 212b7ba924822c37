"""Acceptance suite: each criterion runs at its stated tolerance, prints a
pass line, and writes a deterministic CSV artifact.  The final criterion
replays the whole battery and requires its artifacts to be byte-identical
to those of the run of criteria 1-11; run alone, it replays it twice.
"""

import csv
import io
import os
import random
import time
from fractions import Fraction

import pytest

from gaugecalc import (
    Box,
    Gauge,
    IntervalFunction,
    PointFunction,
    SuperadditiveFn,
    cousin_partition,
    cumulative,
    delta_variation_bruteforce,
    delta_variation_dp,
    hk_integrate,
    indefinite_hk,
    random_fine_partition,
    residual_cell_fn,
    riemann_sum,
    volume_power_cell_fn,
)
from gaugecalc.calculus import (
    check_change_of_variables,
    check_interval_additivity,
    constancy_check,
    mct_experiment,
    check_parts,
    suite_to_csv_rows,
)
from gaugecalc.intervals import dyadic_cells
from gaugecalc.mc import (
    ControlFunction1D,
    chebyshev_points,
    control_from_gauges,
    gauge_from_control,
    rescale,
    verify_mc,
    verify_mc_nd,
)

UNIT = Box.unit()
LENGTH = IntervalFunction.length()


def write_rows(outdir, name, rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path = os.path.join(outdir, name)
    with open(path, "w", newline="") as handle:
        handle.write(buf.getvalue())
    return path


# --------------------------------------------------------------------------
# criteria


def crit_01_classic_nonabsolute(outdir):
    start = time.time()
    result = hk_integrate("hk_derivative", LENGTH, UNIT, tol=1e-4)
    elapsed = time.time() - start
    F = PointFunction.builtin("hk_primitive")
    oracle = F((1,)) - F((0,))  # the increment of the antiderivative
    assert result.converged
    assert abs(result.value - oracle) <= 1e-4
    # the rounds that refine the nest alone reorder its cells, but refine the same ones
    assert result.evaluations == 481_471
    assert elapsed < 60.0
    write_rows(outdir, "crit01.csv", [
        ["value", "oracle", "evaluations"],
        [repr(result.value), repr(oracle), str(result.evaluations)],
    ])


def crit_02_singular_positive(outdir):
    result = hk_integrate("inv_sqrt", LENGTH, UNIT, tol=1e-4)
    assert result.converged
    assert abs(result.value - 2.0) <= 1e-4  # increment of 2 sqrt(x)
    assert result.evaluations == 607
    write_rows(outdir, "crit02.csv", [
        ["value", "evaluations"],
        [repr(result.value), str(result.evaluations)],
    ])


def crit_03_stieltjes_jump(outdir):
    G = IntervalFunction.heaviside("1/2")
    result = hk_integrate("x", G, UNIT, tol=1e-9)
    assert result.converged
    assert abs(result.value - 0.5) <= 1e-9
    write_rows(outdir, "crit03.csv", [
        ["value"], [repr(result.value)],
    ])


def crit_04_variation_oracle_equivalence(outdir):
    rng = random.Random(20260804)
    rows = [["case", "m", "t", "c", "p", "delta", "dp", "bruteforce"]]
    for case in range(50):
        m = rng.choice([1, 2])
        t = rng.randint(0, m)
        u = rng.uniform(0.01, 1.0)
        c = rng.uniform(0.1, 10.0)
        p = rng.choice([1, 2])
        delta = 2.0**-t + u * 2.0 ** -(m + 1)
        psi = volume_power_cell_fn(c, p)
        gauge = Gauge.constant(delta)
        grid = [Fraction(i, 2**m) for i in range(2**m + 1)]
        start = time.time()
        bf = delta_variation_bruteforce(psi, UNIT, gauge, grid)
        dp = delta_variation_dp(psi, UNIT, gauge, m)
        assert time.time() - start < 5.0
        assert dp == bf
        rows.append([str(case), str(m), str(t), repr(c), str(p),
                     repr(delta), repr(dp), repr(bf)])
    write_rows(outdir, "crit04.csv", rows)


def crit_05_verifier_discrimination(outdir):
    v1 = verify_mc(lambda x: x * x / 2, lambda x: x,
                   ControlFunction1D.identity((0, 1)), (0, 1),
                   chebyshev_points(0, 1, 33))
    assert v1.passed
    grid = sorted([0.0] + [s * v for s in (-1, 1)
                           for v in (0.45, 0.6, 0.75, 0.9)])
    v2 = verify_mc(PointFunction.builtin("hk_primitive"),
                   PointFunction.builtin("hk_derivative"),
                   ControlFunction1D.identity((-1, 1)), (-1, 1), grid)
    assert v2.passed
    v3 = verify_mc(lambda x: abs(x), lambda x: 0.0,
                   ControlFunction1D.identity((-1, 1)), (-1, 1), [0.0])
    assert not v3.passed
    assert abs(v3.failures[0].q_last - 1.0) <= 1e-12
    write_rows(outdir, "crit05.csv", [
        ["pair", "passed", "witness"],
        ["quadratic", str(v1.passed), ""],
        ["oscillator", str(v2.passed), ""],
        ["abs", str(v3.passed), repr(v3.failures[0].q_last)],
    ])


def crit_06_rescaling_invariance(outdir):
    rng = random.Random(20260806)
    rows = [["trial", "alpha", "failures"]]
    points = chebyshev_points(0, 1, 9)
    for trial in range(20):
        coeffs = [rng.uniform(-2, 2) for _ in range(4)]

        def F(x, c=coeffs):
            return c[0] * x + c[1] * x**2 / 2 + c[2] * x**3 / 3 + c[3] * x**4 / 4

        step = 0.5 if trial % 2 else 0.0

        def f(x, c=coeffs, s=step):
            return (c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3
                    + (s if x > 0.5 else 0.0))

        a1, a3 = rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)
        phi = ControlFunction1D(lambda x, u=a1, w=a3: u * x + w * x**3, (0, 1))
        base = verify_mc(F, f, phi, (0, 1), points, probes_per_level=8)
        base_set = {w.x for w in base.failures}
        rows.append([str(trial), "1", str(len(base_set))])
        for alpha in (0.5, 2.0, 10.0):
            scaled = verify_mc(F, f, rescale(phi, alpha, rng.uniform(-1, 1)),
                               (0, 1), points, probes_per_level=8)
            assert {w.x for w in scaled.failures} == base_set
            assert scaled.passed == base.passed
            rows.append([str(trial), repr(alpha), str(len(base_set))])
    write_rows(outdir, "crit06.csv", rows)


def crit_07_monotone_tables(outdir):
    rng = random.Random(20260807)
    rows = [["trial", "min_cell_value"]]

    def fmt(q):
        return str(q) if q >= 0 else f"(0-{-q})"

    for trial in range(20):
        a, b, c = (Fraction(rng.randint(-20, 20), 10) for _ in range(3))
        d = Fraction(rng.randint(0, 10), 20)
        expr = f"({fmt(a)}+{fmt(b)}*x+{fmt(c)}*x^2)^2+{fmt(d)}"
        table = indefinite_hk(expr, LENGTH, UNIT, depth=6, tol=1e-8)
        smallest = min(table.entries.values())
        assert smallest >= -1e-10
        rows.append([str(trial), repr(smallest)])
    write_rows(outdir, "crit07.csv", rows)


def crit_08_constancy(outdir):
    t1 = indefinite_hk("2*x", LENGTH, UNIT, depth=6, tol=1e-9)
    t2 = indefinite_hk("2*x", LENGTH, UNIT, depth=6, tol=1e-8)
    F1 = cumulative(t1, 0)
    F2 = cumulative(t2, Fraction(1, 2))
    grid = [Fraction(i, 64) for i in range(65)]
    report = constancy_check(F1, F2, grid)
    assert report.deviation <= 1e-6
    write_rows(outdir, "crit08.csv", [
        ["deviation", "constant"],
        [repr(report.deviation), repr(report.constant)],
    ])


def crit_09_calculus_identities(outdir):
    reports = [
        check_parts("1", "x", "1", "x", (0, 1), tol=1e-6),
        check_parts("cos(x)", "sin(x)", "1", "x", (0, 1), tol=1e-6),
        check_parts("0", "0", "0", "0", (0, 1), tol=1e-6),
        check_change_of_variables("x^2", "2*x", "1", (0, 1), tol=1e-6),
        check_change_of_variables("x^2", "2*x", "sqrt(x)", (0, 1), tol=1e-6),
        check_change_of_variables("exp(x)", "exp(x)", "1/x", (0, 1), tol=1e-6),
        check_interval_additivity("1", 0, 1, 2, tol=1e-6),
        check_interval_additivity("inv_sqrt", 0, "1/4", 1, tol=1e-3),
        check_interval_additivity("hk_derivative", 0, "1/2", 1, tol=1e-3),
    ]
    for report in reports:
        assert report.passed, f"{report.name}: residual {report.residual}"
    write_rows(outdir, "crit09.csv", suite_to_csv_rows(reports))


def _mct_family(K):
    members, antis = [], []
    for k in range(1, K + 1):
        thr = Fraction(1, k * k)
        members.append(PointFunction.from_expr(f"ite(x<{thr},{k},1/sqrt(x))"))
        antis.append(
            PointFunction.from_expr(f"ite(x<{thr},{k}*x,2*sqrt(x)-1/{k})")
        )
    return members, antis


def crit_10_monotone_convergence(outdir):
    members, antis = _mct_family(64)
    report = mct_experiment(
        members, PointFunction.builtin("inv_sqrt"), (0, 1), K=64, tol=1e-3,
        F_seq=antis, F=PointFunction.from_expr("2*sqrt(x)"),
    )
    assert not report.divergent and report.converged
    column = [v for _, v in report.rows]
    assert all(b >= a for a, b in zip(column, column[1:]))
    assert abs(report.limit - 2.0) <= 1e-3
    assert report.control_verdict is not None and report.control_verdict.passed
    divergent = mct_experiment(
        lambda k: PointFunction.from_expr(str(k)), None, (0, 1), K=16,
        tol=1e-3,
    )
    assert divergent.divergent and divergent.limit is None
    rows = report.to_csv_rows()
    rows.append(["limit", repr(report.limit)])
    rows.append(["control_passed", str(report.control_verdict.passed)])
    rows.append(["divergent_case", str(divergent.divergent)])
    write_rows(outdir, "crit10.csv", rows)


def crit_11_equivalence_round_trip(outdir):
    eps = 0.01
    depth = 12
    table = indefinite_hk("2*x", LENGTH, UNIT, depth=depth, tol=1e-10)
    Phi = SuperadditiveFn.volume_power(1)
    f = PointFunction.from_expr("2*x")
    samples = [Fraction(i, 128) for i in range(129)]
    gauge = gauge_from_control(table, f, LENGTH, Phi, eps, samples, depth, UNIT)
    target = table.value(UNIT)
    bound = eps * Phi.value(UNIT)
    worst = 0.0
    partitions = [cousin_partition(UNIT, gauge)]
    rng = random.Random(20260811)
    for _ in range(99):
        partitions.append(random_fine_partition(UNIT, gauge, rng))
    for tp in partitions:
        assert tp.is_fine(gauge)
        gap = abs(riemann_sum(f, LENGTH, tp) - target)
        worst = max(worst, gap)
        assert gap < bound
    # converse: control built from certified gauges
    psi = residual_cell_fn(f, LENGTH, table)
    gauges = [Gauge.constant(2.0**-k) for k in range(1, 7)]
    phi = control_from_gauges(psi, gauges, UNIT, depth)
    assert all(phi.value(c) > 0 for c in dyadic_cells(UNIT, 6))
    for d in range(depth):
        for cell in dyadic_cells(UNIT, d):
            kids = cell.bisect()
            assert phi.value(kids[0]) + phi.value(kids[1]) \
                <= phi.value(cell) + 1e-12
    verdict = verify_mc_nd(
        table, f, LENGTH, phi, UNIT,
        [Fraction(2 * i + 1, 64) for i in range(32)],
        depth_levels=range(2, depth + 1), tol=1e-3,
    )
    assert verdict.passed
    write_rows(outdir, "crit11.csv", [
        ["worst_gap", "bound", "partitions", "control_verdict"],
        [repr(worst), repr(bound), str(len(partitions)),
         str(verdict.passed)],
    ])


CRITERIA = [
    ("criterion 1", crit_01_classic_nonabsolute),
    ("criterion 2", crit_02_singular_positive),
    ("criterion 3", crit_03_stieltjes_jump),
    ("criterion 4", crit_04_variation_oracle_equivalence),
    ("criterion 5", crit_05_verifier_discrimination),
    ("criterion 6", crit_06_rescaling_invariance),
    ("criterion 7", crit_07_monotone_tables),
    ("criterion 8", crit_08_constancy),
    ("criterion 9", crit_09_calculus_identities),
    ("criterion 10", crit_10_monotone_convergence),
    ("criterion 11", crit_11_equivalence_round_trip),
]


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    """The directory where criteria 1-11 write their artifacts, and the
    names of the criteria that wrote theirs."""
    return tmp_path_factory.mktemp("criteria"), set()


@pytest.mark.parametrize("name,runner", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_criteria_1_to_11(name, runner, first_run):
    outdir, done = first_run
    runner(str(outdir))
    done.add(name)
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_12_determinism(tmp_path, first_run):
    outdir, done = first_run
    dirs = [outdir] if done == {name for name, _ in CRITERIA} else []
    while len(dirs) < 2:
        dirs.append(tmp_path / f"run{len(dirs)}")
        dirs[-1].mkdir()
        for _, runner in CRITERIA:
            runner(str(dirs[-1]))
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between runs"
    print("ACCEPTANCE criterion 12: PASS")
