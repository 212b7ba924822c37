"""Seeded job rounds for the three benchmark workloads, with their oracles.

A workload is a sequence of rounds.  Every round holds the same job kinds
with parameters drawn from the round's own seeded generator, in a seeded
order, so every run sees the same mix of work whatever its seed.  A job's
`run` makes only the library calls and returns a check; the harness times
the first and not the second.  The check returns the outputs that go into
the run digest and a failure reason, or None when every check against the
job's oracle passed.

Oracles are closed forms, or the property the theory guarantees: fineness,
|S - F(U)| < eps Phi(U), superadditivity, certification, and the expected
verdict.  The workloads draw their inputs where every job was measured to
pass at the commit that introduced this benchmark, so any failure in them
makes the run incorrect.  The cases measured to fail are in
known_defects() instead: each run checks them once, untimed, after its
measurement, and reports whether each still fails as measured.

The library is reached through module attributes at call time, so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from gaugecalc import calculus, funcspace, hk, intervals, mc

# Defect families measured at the commit that introduced this benchmark.
FALSE_CONVERGENCE = "hk_integrate reports converged with |error| > tol"
NO_CONVERGENCE = "declared x^-p does not converge within 1e5 evaluations"
MCT_LIMIT = "mct_experiment reports a limit outside tol"
GAUGE_BOUND = "gauge_from_control's gauge admits partitions with |S - F(U)| >= eps Phi(U)"
VERIFY_TREND = "verify_mc_nd's factor-2 trend test fails points whose quotient is far below tol"

# abs(x - n/100) at tol 1e-6 converges falsely, by c^2 for n <= 6 and by
# 1.5625e-6 at seven other n; every other n was measured to pass.  ite(x<c)
# fails at every c = n/100 that is not a multiple of 1/20, for some (lo, hi).
ABS_FAILING = (*range(1, 7), 22, 28, 47, 53, 72, 78, 97)
ABS_GOOD = [n for n in range(1, 100) if n not in ABS_FAILING]

# Evaluation budgets: ROADMAP gate for declared endpoint powers, and ample
# headroom over the measured need of every other job.
POWER_BUDGET = 100_000
HKD_BUDGET = 1_000_000
SMALL_BUDGET = 100_000


class Job:
    __slots__ = ("name", "run")

    def __init__(self, name, run):
        self.name = name
        # run() makes the library calls and returns check;
        # check() -> (digest items, failure reason or None)
        self.run = run


class KnownDefect(str):
    """A failure reason that shows a known defect `family`."""

    def __new__(cls, reason, family):
        self = super().__new__(cls, reason)
        self.family = family
        return self


def _failure(reason, family, error, known):
    """`reason`, marked known when `known` = (family, cap) names `family`
    and `error` <= cap."""
    if known is not None and known[0] == family and error <= known[1]:
        return KnownDefect(reason, family)
    return reason


def _num(q) -> str:
    """Expression text of a rational; the grammar has no unary minus."""
    q = Fraction(q)
    return str(q) if q >= 0 else f"(0-{-q})"


class _Builder:
    """Builds the benchmark's callables through the tracing hooks."""

    def __init__(self, hook, hook_psi):
        self.hook = hook  # wraps every benchmark-built point function
        self.hook_psi = hook_psi

    def expr(self, text):
        return self.hook(funcspace.PointFunction.from_expr(text))

    def builtin(self, name):
        return self.hook(funcspace.PointFunction.builtin(name))

    def callable(self, fn, name, singular_points=()):
        return self.hook(funcspace.PointFunction.from_callable(
            fn, name, singular_points=singular_points
        ))


# ---------------------------------------------------------------------------
# integrate: hk_integrate against closed forms


def _integral_job(name, f, G, box, tol, budget, exact, known=None):
    def run():
        r = hk.hk_integrate(f, G, box, tol=tol, budget=budget)

        def check():
            items = (r.value, r.error_estimate, r.evaluations, r.converged)
            err = abs(r.value - exact)
            if not r.converged:
                return items, _failure(
                    f"no convergence after {r.evaluations} evaluations, |error| {err:.3g}",
                    NO_CONVERGENCE, err, known)
            if not err <= tol:
                return items, _failure(f"false convergence: |error| {err:.3g} > tol {tol:g}",
                                       FALSE_CONVERGENCE, err, known)
            return items, None

        return check

    return Job(name, run)


def _power_fn(p):
    def fn(x):
        return 0.0 if x == 0.0 else x ** -p
    return fn


def integrate_round(b: _Builder, rng: random.Random) -> list:
    L = funcspace.IntervalFunction.length()
    unit = intervals.Box.unit()
    jobs = []

    def add(name, f, box, tol, budget, exact, G=None):
        jobs.append(_integral_job(name, f, G if G is not None else L, box,
                                  tol, budget, exact))

    # Ten jobs per round cost less than declared x^-0.6 at 1e-3 and ten cost
    # more, so the median job is that fixed one and job_s_p50 does not jump
    # between job kinds from seed to seed.  It runs twice per round so that
    # the median rests on twice as many samples.
    for _ in range(2):
        add("declared x^-0.6 tol=0.001",
            b.callable(_power_fn(0.6), "x^-0.6", singular_points=(0,)),
            unit, 1e-3, POWER_BUDGET, 2.5)

    # oscillating unbounded derivative; endpoints and tolerances fixed
    # because cost jumps by 10x between neighbouring endpoints
    hkd = b.builtin("hk_derivative")
    for end, tol in ((Fraction(1, 4), 1e-3), (Fraction(1), 1e-3), (Fraction(1, 2), 3e-4)):
        add(f"hk_derivative [0,{end}] tol={tol:g}", hkd, intervals.Box.of((0, end)),
            tol, HKD_BUDGET, float(end) ** 2 * math.sin(float(end) ** -2))

    # declared endpoint singularities x^-p
    end = Fraction(rng.randint(8, 16), 16)
    add(f"inv_sqrt [0,{end}]", b.builtin("inv_sqrt"), intervals.Box.of((0, end)),
        1e-4, SMALL_BUDGET, 2.0 * math.sqrt(end))
    end = Fraction(rng.randint(8, 16), 16)
    add(f"declared x^-0.5 [0,{end}]",
        b.callable(_power_fn(0.5), "x^-0.5", singular_points=(0,)),
        intervals.Box.of((0, end)), 1e-4, POWER_BUDGET, 2.0 * math.sqrt(end))
    for p, label, tol in ((0.6, "0.6", 1e-4), (2.0 / 3.0, "2/3", 1e-4), (0.75, "0.75", 1e-3)):
        add(f"declared x^-{label} tol={tol:g}",
            b.callable(_power_fn(p), f"x^-{label}", singular_points=(0,)),
            unit, tol, POWER_BUDGET, 1.0 / (1.0 - p))
    end = Fraction(rng.randint(4, 8), 8)
    add(f"declared x^-0.75 [0,{end}] tol=0.001",
        b.callable(_power_fn(0.75), "x^-0.75", singular_points=(0,)),
        intervals.Box.of((0, end)), 1e-3, POWER_BUDGET, 4.0 * float(end) ** 0.25)

    # Stieltjes jumps: int_0^1 f dH_c = f(c)
    for text, f in (("x", lambda c: c), ("x^2", lambda c: c * c)):
        c = Fraction(rng.randint(1, 99), 100)
        add(f"{text} dH_{c}", b.expr(text), unit, 1e-9, SMALL_BUDGET, float(f(c)),
            G=funcspace.IntervalFunction.from_generator(b.builtin(f"heaviside_{c}")))

    # oscillation; k stays below the aliasing band around k = 200
    for _ in range(3):
        k = rng.randint(1, 80)
        add(f"sin({k}x)", b.expr(f"sin({k}*x)"), unit, 1e-4, SMALL_BUDGET,
            (1.0 - math.cos(k)) / k)

    # kink, step and Runge peak at a seeded location, drawn where hk_integrate
    # was measured to converge truly (see known_defects for where it does not)
    c = Fraction(rng.choice(ABS_GOOD), 100)
    add(f"abs(x-{c})", b.expr(f"abs(x-{c})"), unit, 1e-6, SMALL_BUDGET,
        float(c * c + (1 - c) ** 2) / 2.0)
    c = Fraction(rng.randint(1, 19), 20)
    lo, hi = rng.randint(1, 9), rng.randint(1, 9)
    add(f"ite(x<{c},{lo},{hi})", b.expr(f"ite(x<{c},{lo},{hi})"), unit, 1e-6,
        SMALL_BUDGET, float(lo * c + hi * (1 - c)))
    c = Fraction(rng.randint(0, 100), 100)
    add(f"runge at {c}", b.expr(f"1/(1+25*(x-{c})^2)"), unit, 1e-6, SMALL_BUDGET,
        (math.atan(5.0 * float(1 - c)) + math.atan(5.0 * float(c))) / 5.0)

    # 2-D boxes
    u, v = Fraction(rng.randint(1, 4), 4), Fraction(rng.randint(1, 4), 4)
    add(f"x1*x2 on [0,{u}]x[0,{v}]", b.expr("x1*x2"),
        intervals.Box.of((0, u), (0, v)), 1e-6, SMALL_BUDGET,
        float(u * u * v * v) / 4.0, G=funcspace.IntervalFunction.volume(2))
    c = Fraction(rng.randint(1, 16), 8)
    add(f"x1^2+{c}*x2 on the unit square", b.expr(f"x1^2+{c}*x2"),
        intervals.Box.unit(2), 1e-6, SMALL_BUDGET, 1.0 / 3.0 + float(c) / 2.0,
        G=funcspace.IntervalFunction.volume(2))
    add("abs(x1-x2) on the unit square", b.expr("abs(x1-x2)"),
        intervals.Box.unit(2), 1e-4, SMALL_BUDGET, 1.0 / 3.0,
        G=funcspace.IntervalFunction.volume(2))
    return jobs


# ---------------------------------------------------------------------------
# mct: monotone-convergence experiments and calculus identities


def _mct_family(b: _Builder, m: int, K: int):
    """Members min(k, x^-1/m) and antiderivatives; limit integral m/(m-1)."""
    members, antis = [], []
    for k in range(1, K + 1):
        thr = Fraction(1, k ** m)
        if m == 2:
            members.append(b.expr(f"ite(x<{thr},{k},1/sqrt(x))"))
            antis.append(b.expr(f"ite(x<{thr},{k}*x,2*sqrt(x)-1/{k})"))
        else:
            members.append(b.expr(f"ite(x<{thr},{k},x^(0-1/3))"))
            antis.append(b.expr(f"ite(x<{thr},{k}*x,3/2*x^(2/3)-1/{2 * k * k})"))
    return members, antis


def _mct_column(m: int, K: int) -> list:
    """Closed-form member integrals: m/(m-1) - k^(1-m) / (m-1)."""
    return [m / (m - 1) - k ** (1 - m) / (m - 1) for k in range(1, K + 1)]


def _mct_job(b: _Builder, m: int, K: int, tol=1e-3, known=None):
    members, antis = _mct_family(b, m, K)
    limit = m / (m - 1)
    if m == 2:
        f, F = b.builtin("inv_sqrt"), b.expr("2*sqrt(x)")
    else:
        f = b.callable(_power_fn(1.0 / 3.0), "x^-1/3", singular_points=(0,))
        F = b.expr("3/2*x^(2/3)")
    exact = _mct_column(m, K)
    steps = [y - x for x, y in zip(exact, exact[1:])]
    expect_converged = len(exact) >= 4 and all(abs(d) < tol / 2 for d in steps[-3:])

    def run():
        r = calculus.mct_experiment(members, f, (0, 1), K=K, tol=tol,
                                    F_seq=antis, F=F, integral_tol=1e-6)
        return lambda: check(r)

    def check(r):
        verdict = r.control_verdict
        items = (r.rows, r.divergent, r.converged, r.limit, r.direct,
                 None if verdict is None else (verdict.passed, verdict.points))
        column_err = max(abs(v - e) for (_k, v), e in zip(r.rows, exact))
        if r.divergent or r.monotone_violations:
            return items, "divergent or non-monotone column for a bounded family"
        # the experiment needs its column to tol/100 (the library default)
        if not column_err <= tol / 100:
            return items, f"column off the closed form by {column_err:.3g}"
        if r.converged != expect_converged:
            return items, f"converged={r.converged}, closed form says {expect_converged}"
        if not expect_converged:
            return items, None
        err = abs(r.limit - limit)
        if not err <= tol:
            return items, _failure(f"limit off by {err:.3g} > tol {tol:g}",
                                   MCT_LIMIT, err, known)
        if not abs(r.direct - limit) <= 1e-6:
            return items, f"direct integral off by {abs(r.direct - limit):.3g}"
        if verdict is None or not verdict.passed:
            return items, "series control not verified"
        return items, None

    return Job(f"mct min(k,x^-1/{m}) K={K}", run)


def _diverging_job(b: _Builder, K: int):
    members = [b.expr(str(k)) for k in range(1, K + 1)]

    def run():
        r = calculus.mct_experiment(members, None, (0, 1), K=K, tol=1e-3)
        return lambda: check(r)

    def check(r):
        items = (r.rows, r.divergent, r.limit)
        if not r.divergent or r.limit is not None:
            return items, "constant family k not reported divergent"
        return items, None

    return Job(f"mct diverging K={K}", run)


def _identity_job(name, check, args, tol=1e-6):
    def run():
        report = check(*args, tol=tol)
        return lambda: judge(report)

    def judge(report):
        items = (report.lhs, report.rhs)
        if not report.passed:
            return items, f"residual {report.residual:.3g} > {tol:g}"
        return items, None

    return Job(name, run)


def _poly(coeffs) -> str:
    terms = [_num(c) + ("", "*x", f"*x^{i}")[min(i, 2)]
             for i, c in enumerate(coeffs) if c]
    return "+".join(terms) or "0"


def mct_round(b: _Builder, rng: random.Random) -> list:
    parts, change = calculus.check_parts, calculus.check_change_of_variables
    # presets of the command-line `identity` subcommand, and a diverging and
    # an unsettled experiment: six jobs per round that cost less than the ten
    # `change c*sqrt` jobs below
    jobs = [
        _identity_job("parts ones", parts,
                      (b.expr("1"), b.expr("x"), b.expr("1"), b.expr("x"), (0, 1))),
        _identity_job("parts sin-x", parts,
                      (b.expr("cos(x)"), b.expr("sin(x)"), b.expr("1"), b.expr("x"), (0, 1))),
        _identity_job("change square", change,
                      (b.expr("x^2"), b.expr("2*x"), b.expr("1"), (0, 1))),
        _identity_job("change exp", change,
                      (b.expr("exp(x)"), b.expr("exp(x)"), b.expr("1/x"), (0, 1))),
        _diverging_job(b, rng.randint(8, 16)),
        _mct_job(b, rng.choice((2, 3)), rng.randint(3, 5)),  # column has not settled
    ]
    # The `change sqrt` preset at tol 1e-9, scaled by seeded c near 1, which
    # keeps its cost.  Both the median and the job with ten jobs above it are
    # among these ten, whatever the seed, and each lasts long enough to
    # average over the machine's short changes of speed.
    for _ in range(10):
        c = Fraction(rng.randint(7, 9), 8)
        jobs.append(_identity_job(
            f"change {c}*sqrt", change,
            (b.expr("x^2"), b.expr("2*x"), b.expr(f"{c}*sqrt(x)"), (0, 1)), tol=1e-9))
    # one converged experiment whose series control is verified; a run holds
    # fewer than ten of these
    m, K, tol = rng.choice(((2, 48, 1e-3), (2, 56, 1e-3), (3, 14, 1.5e-3)))
    jobs.append(_mct_job(b, m, K, tol=tol))
    return jobs


# ---------------------------------------------------------------------------
# roundtrip: gauge <-> control conversion over polynomial integrands

DEPTH = 10
EPS = 0.01
VERIFY_TOL = 1e-3
GAUGES = 2
PARTITIONS = 6


def _monotone_poly(rng):
    """c0 + c1 x + c2 x^2 on [0,1] whose slope f' keeps one sign.

    f' runs linearly between s M and s r M, in either order, with
    M in [3/2, 2], r in [1/4, 1/2] and s = +-1.  M <= 2 makes the constant
    gauges 2^-k certifiable, and keeps the controlled-derivative quotient
    below M 2^-(DEPTH+1) <= VERIFY_TOL.  Every (M, r, s, order) on this
    grid, and with r up to 1, was measured to pass; where f' changes sign,
    gauge_from_control and verify_mc_nd can fail (see known_defects).
    Keeping r at most 1/2 keeps the cost of each job kind within a narrow
    band, so the kinds do not overlap in cost and the percentiles do not
    jump between them.
    """
    M = Fraction(rng.randrange(48, 65, 4), 32)
    s = rng.choice((-1, 1))
    ends = [s * M, s * M * Fraction(rng.randrange(8, 17, 2), 32)]
    rng.shuffle(ends)
    c1 = ends[0]
    c2 = (ends[1] - ends[0]) / 2
    c0 = Fraction(rng.randint(0, 16), 16)
    return [c0, c1, c2], M


def _indefinite_job(b: _Builder, coeffs):
    f = b.expr(_poly(coeffs))
    c = [float(v) for v in coeffs]
    L = funcspace.IntervalFunction.length()
    unit = intervals.Box.unit()

    def P(x):
        return x * (c[0] + x * (c[1] / 2 + x * c[2] / 3))

    def run():
        table = hk.indefinite_hk(f, L, unit, depth=DEPTH, tol=1e-10)
        return lambda: check(table)

    def check(table):
        items = list(table.entries.values())
        if len(items) != 2 ** (DEPTH + 1) - 1:
            return items, f"{len(items)} cells, not every dyadic cell to depth {DEPTH}"
        worst = 0.0
        for cell, value in table.entries.items():
            (lo, hi), = cell.intervals
            worst = max(worst, abs(value - (P(float(hi)) - P(float(lo)))))
        if not worst <= 1e-10:
            return items, f"cell value off the closed form by {worst:.3g}"
        return items, None

    return Job(f"indefinite f={_poly(coeffs)}", run)


def _to_gauge_job(b: _Builder, coeffs, seed, known=None):
    f = b.expr(_poly(coeffs))
    exact = float(coeffs[0] + coeffs[1] / 2 + coeffs[2] / 3)
    L = funcspace.IntervalFunction.length()
    unit = intervals.Box.unit()
    Phi = funcspace.SuperadditiveFn.volume_power(1)
    samples = [Fraction(i, 64) for i in range(65)]

    def run():
        table = hk.indefinite_hk(f, L, unit, depth=DEPTH, tol=1e-10)
        target = table.value(unit)
        gauge = mc.gauge_from_control(table, f, L, Phi, EPS, samples, DEPTH, unit)
        rng = random.Random(seed)
        partitions = [intervals.cousin_partition(unit, gauge)]
        partitions += [intervals.random_fine_partition(unit, gauge, rng)
                       for _ in range(PARTITIONS)]
        sums = [hk.riemann_sum(f, L, tp) for tp in partitions]
        return lambda: check(target, gauge, partitions, sums)

    def check(target, gauge, partitions, sums):
        items = (target, sorted(gauge.sample_values.items()),
                 [len(tp) for tp in partitions], sums)
        if not abs(target - exact) <= 1e-9:
            return items, f"table total off the closed form by {abs(target - exact):.3g}"
        bound = EPS * Phi.value(unit)
        for tp, s in zip(partitions, sums):
            if not tp.is_fine(gauge):
                return items, "partition is not gauge-fine"
            gap = abs(s - target)
            if not gap < bound:
                return items, _failure(f"|S - F(U)| = {gap:.3g} >= eps Phi(U)",
                                       GAUGE_BOUND, gap, known)
        return items, None

    return Job(f"to-gauge f={_poly(coeffs)}", run)


def _to_control_job(b: _Builder, coeffs, M, known=None):
    f = b.expr(_poly(coeffs))
    L = funcspace.IntervalFunction.length()
    unit = intervals.Box.unit()
    gauges = [intervals.Gauge.constant(2.0 ** -k) for k in range(1, GAUGES + 1)]
    points = [Fraction(2 * i + 1, 64) for i in range(32)]
    # |F(Q) - f(x)|Q|| <= M h^2 / 2 and Phi(Q) >= h on a cell of side h;
    # 1e-10 is the table's tolerance
    q_bound = float(M) * 2.0 ** -(DEPTH + 1) + 1e-10 * 2.0 ** DEPTH

    def run():
        table = hk.indefinite_hk(f, L, unit, depth=DEPTH, tol=1e-10)
        psi = b.hook_psi(hk.residual_cell_fn(f, L, table))
        phi = mc.control_from_gauges(psi, gauges, unit, DEPTH)
        verdict = mc.verify_mc_nd(table, f, L, phi, unit, points,
                                  depth_levels=range(2, DEPTH + 1), tol=VERIFY_TOL)
        return lambda: check(phi, verdict)

    def check(phi, verdict):
        items = (phi.value(unit), verdict.passed, [p.q for p in verdict.points])
        level = [unit]
        for _ in range(DEPTH):
            children = []
            for cell in level:
                kids = cell.bisect()
                if not phi.value(kids[0]) + phi.value(kids[1]) <= phi.value(cell) + 1e-12:
                    return items, f"control not superadditive on {cell}"
                children.extend(kids)
            level = children
        worst = max(p.q[-1] for p in verdict.points)
        if not worst <= q_bound:
            return items, f"finest quotient {worst:.3g} above M 2^-(d+1) = {q_bound:.3g}"
        if not verdict.passed:
            q = max(w.q_last for w in verdict.failures)
            reason = f"verify_mc_nd failed where the bound says pass (finest quotient {q:.3g})"
            if any(w.reason != "trend" for w in verdict.failures):
                return items, reason
            return items, _failure(reason, VERIFY_TREND, q, known)
        return items, None

    return Job(f"to-control f={_poly(coeffs)}", run)


def roundtrip_round(b: _Builder, rng: random.Random) -> list:
    coeffs, _M = _monotone_poly(rng)
    jobs = [_indefinite_job(b, coeffs)]
    coeffs, _M = _monotone_poly(rng)
    jobs.append(_to_gauge_job(b, coeffs, rng.getrandbits(32)))
    coeffs, M = _monotone_poly(rng)
    jobs.append(_to_control_job(b, coeffs, M))
    return jobs


def known_defects(workload):
    """Jobs on the cases of `workload` measured to fail at the commit that
    introduced this benchmark, each capped by the error measured for it,
    rounded up in the second digit.  A check that returns a KnownDefect
    still fails as measured; None means the case passes now; any other
    reason is a new failure."""
    b = _Builder(lambda pf: pf, lambda psi: psi)
    L = funcspace.IntervalFunction.length()
    unit = intervals.Box.unit()
    if workload == "mct":
        # limit error 2.23e-3 at tol 1e-3; K = 54 fails alike
        return [_mct_job(b, 2, 52, known=(MCT_LIMIT, 2.3e-3))]
    if workload == "roundtrip":
        # The slope of both f changes sign in [0,1].  The cousin partition
        # of the first misses eps Phi(U) = 0.01 by |S - F(U)| = 0.0140; the
        # second fails the trend test at x = 23/64, next to the zero of f',
        # where q rises from 6e-8 to 3.5e-7 at the last level.
        return [
            _to_gauge_job(b, [Fraction(0), Fraction(-413, 512), Fraction(1357, 1024)], 0,
                          known=(GAUGE_BOUND, 0.015)),
            _to_control_job(b, [Fraction(1), Fraction(441, 512), Fraction(-1225, 1024)],
                            Fraction(49, 32), known=(VERIFY_TREND, 3.6e-7)),
        ]
    power = (lambda p: b.callable(_power_fn(p), f"x^-{p}", singular_points=(0,)))
    end = 17 / 32
    return [
        # 2.39e-3 at tol 1e-3; [0,5/16], [0,5/8], [0,9/32] and [0,9/16] fail alike
        _integral_job("hk_derivative [0,17/32] tol=0.001", b.builtin("hk_derivative"), L,
                      intervals.Box.of((0, Fraction(17, 32))), 1e-3, HKD_BUDGET,
                      end ** 2 * math.sin(end ** -2), (FALSE_CONVERGENCE, 2.4e-3)),
        # 0.485 after 31 evaluations: sin(kx) aliases on the sampling grid
        _integral_job("sin(200x)", b.expr("sin(200*x)"), L, unit, 1e-4, SMALL_BUDGET,
                      (1.0 - math.cos(200)) / 200, (FALSE_CONVERGENCE, 0.49)),
        # 1e5 evaluations without converging, error 4.1e-10 and 2.58e-7
        _integral_job("declared x^-0.75 tol=0.0001", power(0.75), L, unit, 1e-4,
                      POWER_BUDGET, 4.0, (NO_CONVERGENCE, 4.2e-10)),
        _integral_job("declared x^-0.9 tol=0.001", power(0.9), L, unit, 1e-3,
                      POWER_BUDGET, 10.0, (NO_CONVERGENCE, 2.6e-7)),
        # errors c^2 = 3.6e-3 and 4.88e-6 at tol 1e-6
        _integral_job("abs(x-3/50)", b.expr("abs(x-3/50)"), L, unit, 1e-6, SMALL_BUDGET,
                      (0.06 ** 2 + 0.94 ** 2) / 2.0, (FALSE_CONVERGENCE, 3.7e-3)),
        _integral_job("ite(x<37/100,1,2)", b.expr("ite(x<37/100,1,2)"), L, unit, 1e-6,
                      SMALL_BUDGET, 0.37 + 2 * 0.63, (FALSE_CONVERGENCE, 4.9e-6)),
    ]


ROUNDS = {
    "integrate": integrate_round,
    "mct": mct_round,
    "roundtrip": roundtrip_round,
}


def build_pool(workload, seed, rounds, hook=None, hook_psi=None):
    """`rounds` rounds of jobs; round i depends only on (seed, i)."""
    builder = _Builder(hook or (lambda pf: pf), hook_psi or (lambda psi: psi))
    make = ROUNDS[workload]
    pool = []
    for i in range(rounds):
        rng = random.Random(f"{workload}:{seed}:{i}")
        jobs = make(builder, rng)
        rng.shuffle(jobs)
        pool.append(jobs)
    return pool
