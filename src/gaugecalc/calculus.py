"""Executable forms of the calculus results: identity residuals for
integration by parts, change of variables and interval additivity, the
monotonicity/constancy checks, and the monotone-convergence experiment.

Identity checkers recompute both sides through independent integration
runs, so a small residual reflects genuine agreement rather than shared
discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ._par import parallel_map
from .funcspace import IntervalFunction, as_scalar
from .hk import hk_integrate
from .intervals import Box, as_rational
from .limits import one_sided_limit
from .mc import (ControlFunction1D, McVerdict, MctDivergenceError, chebyshev_points,
                 diverging_column, increasing_values, mct_control, verify_mc)


@dataclass
class IdentityReport:
    name: str
    lhs: float
    rhs: float
    tolerance: float
    inputs: dict = field(default_factory=dict)

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_row(self) -> list:
        return [
            self.name,
            repr(self.lhs),
            repr(self.rhs),
            repr(self.residual),
            str(self.passed),
        ]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "inputs": self.inputs,
        }


def _box(a, b) -> Box:
    return Box.of((as_rational(a), as_rational(b)))


def _integrate(f, a, b, tol) -> float:
    result = hk_integrate(f, None, _box(a, b), tol=tol)
    if not result.converged:
        raise RuntimeError(
            f"integral over ({a}, {b}) did not converge "
            f"(error estimate {result.error_estimate:.3g})"
        )
    return result.value


def check_parts(f, F, g, G, interval, tol: float = 1e-6) -> IdentityReport:
    """Integration by parts: int f G = [F G] - int F g."""
    a, b = float(interval[0]), float(interval[1])
    ff, Ff, gf, Gf = as_scalar(f), as_scalar(F), as_scalar(g), as_scalar(G)
    itol = tol / 8.0
    lhs = _integrate(lambda t: ff(t) * Gf(t), a, b, itol)
    boundary = one_sided_limit(
        lambda t: Ff(t) * Gf(t), b, -1, (b - a) / 8.0
    ) - one_sided_limit(lambda t: Ff(t) * Gf(t), a, +1, (b - a) / 8.0)
    rhs = boundary - _integrate(lambda t: Ff(t) * gf(t), a, b, itol)
    return IdentityReport(
        "parts", lhs, rhs, tol, {"interval": [a, b]}
    )


def check_change_of_variables(F, f, g, interval, tol: float = 1e-6) -> IdentityReport:
    """Change of variables: int_c^d g(y) dy = int_a^b g(F(x)) f(x) dx.

    (c, d) is obtained from one-sided limits of the strictly increasing F.
    """
    a, b = float(interval[0]), float(interval[1])
    Ff, ff, gf = as_scalar(F), as_scalar(f), as_scalar(g)
    increasing_values(Ff, a, b)
    c = one_sided_limit(Ff, a, +1, (b - a) / 8.0)
    d = one_sided_limit(Ff, b, -1, (b - a) / 8.0)
    itol = tol / 8.0
    lhs = _integrate(gf, c, d, itol)
    rhs = _integrate(lambda t: gf(Ff(t)) * ff(t), a, b, itol)
    return IdentityReport(
        "change_of_variables", lhs, rhs, tol,
        {"interval": [a, b], "image": [c, d]},
    )


def check_interval_additivity(f, a, b, c, tol: float = 1e-6) -> IdentityReport:
    """Additivity across a split point: int_a^c = int_a^b + int_b^c."""
    ar, br, cr = as_rational(a), as_rational(b), as_rational(c)
    if not ar < br < cr:
        raise ValueError("need a < b < c")
    itol = tol / 8.0
    whole = _integrate(f, ar, cr, itol)
    left = _integrate(f, ar, br, itol)
    right = _integrate(f, br, cr, itol)
    return IdentityReport(
        "interval_additivity",
        whole,
        left + right,
        tol,
        {"points": [float(ar), float(br), float(cr)]},
    )


@dataclass
class MonotoneVerdict:
    passed: bool
    precondition_ok: bool
    failures: list = field(default_factory=list)  # (Box, value)


def check_monotone(
    F_table: IntervalFunction,
    f,
    sample_points: Sequence[float],
    tol: float = 1e-10,
) -> MonotoneVerdict:
    """Indefinite table of a positive integrand must be positive cellwise."""
    ff = as_scalar(f)
    bad = [p for p in sample_points if ff(float(p)) < 0.0]
    if bad:
        return MonotoneVerdict(False, False, [(None, float(p)) for p in bad])
    if F_table.kind != "table":
        raise ValueError("check_monotone expects a table-backed indefinite")
    table = F_table.entries  # a Box is built only for a failing cell
    failures = [(table.grid.cell(d, js), v) for d, js, v in table.by_key() if v < -tol]
    return MonotoneVerdict(not failures, True, failures)


@dataclass
class ConstancyReport:
    deviation: float
    constant: float


def constancy_check(F1, F2, sample_points: Sequence[float]) -> ConstancyReport:
    """Max deviation of F1 - F2 from its mean over the samples, each passed as given."""
    f1, f2 = as_scalar(F1), as_scalar(F2)
    diffs = [f1(p) - f2(p) for p in sample_points]
    mean = sum(diffs) / len(diffs)
    return ConstancyReport(max(abs(d - mean) for d in diffs), mean)


# ---------------------------------------------------------------------------
# Monotone convergence experiment


@dataclass
class MctReport:
    rows: list  # (k, integral value)
    monotone_violations: list
    divergent: bool
    converged: bool
    limit: Optional[float]
    direct: Optional[float]
    control_verdict: Optional[McVerdict]

    @property
    def limit_vs_direct(self) -> Optional[float]:
        if self.limit is None or self.direct is None:
            return None
        return abs(self.limit - self.direct)

    def to_csv_rows(self) -> list:
        rows = [["k", "integral"]]
        for k, v in self.rows:
            rows.append([str(k), repr(v)])
        return rows

    def to_json_dict(self) -> dict:
        return {
            "rows": [[k, v] for k, v in self.rows],
            "monotone_violations": self.monotone_violations,
            "divergent": self.divergent,
            "converged": self.converged,
            "limit": self.limit,
            "direct": self.direct,
            "limit_vs_direct": self.limit_vs_direct,
            "control_passed": (
                None if self.control_verdict is None
                else self.control_verdict.passed
            ),
        }


def _detect_limit(values: Sequence[float], tol: float):
    """(converged, limit) via the Cauchy rule plus decay-model refinement.

    Convergence is declared when three successive increments fall below
    tol/2; the reported limit refines the last term through a geometric
    or algebraic (k^-p) tail model fitted to the final increments.
    """
    n = len(values)
    if n < 4:
        return False, None
    diffs = [b - a for a, b in zip(values, values[1:])]
    settled = all(abs(d) < tol / 2.0 for d in diffs[-3:])
    if not settled:
        return False, None
    x_last = values[-1]
    d1 = diffs[-1]
    d0 = diffs[-2]
    if abs(d1) < 1e-15 * max(1.0, abs(x_last)) or d0 == 0.0:
        return True, x_last
    r = d1 / d0
    K = n - 1
    if 0.0 < r <= 0.8:
        return True, x_last + d1 * r / (1.0 - r)
    if r > 0.8:
        p = -(K - 1) * math.log(r) - 1.0
        p = min(8.0, max(0.5, p))
        return True, x_last + d1 * K / p
    return True, x_last


def mct_experiment(
    f_seq,
    f,
    interval,
    K: int,
    tol: float = 1e-3,
    F_seq: Optional[Sequence] = None,
    F=None,
    integral_tol: Optional[float] = None,
) -> MctReport:
    """Increasing-sequence integration experiment.

    f_seq: index -> integrand (1-based), or a sequence of integrands.
    Produces the integral column, the detected limit (or a divergence
    verdict when the finite-limit hypothesis fails), the comparison with
    a direct integration of f, and, when antiderivatives F_seq are
    supplied, a verify_mc run on the constructed series control.

    The column's members are integrated through `_par.parallel_map`: a
    column heavy enough for it is shared with one forked child.  The
    report is bit-identical either way, so members must be pure (see
    `_par`).
    """
    a, b = float(interval[0]), float(interval[1])
    box = _box(interval[0], interval[1])
    if callable(f_seq) and not isinstance(f_seq, (list, tuple)):
        members = [f_seq(k) for k in range(1, K + 1)]
    else:
        members = list(f_seq)[:K]
    itol = integral_tol if integral_tol is not None else min(tol / 100.0, 1e-6)

    def integrate_member(fk):
        return hk_integrate(fk, None, box, tol=itol).value

    column = parallel_map(integrate_member, members)
    rows = list(zip(range(1, len(members) + 1), column))

    grid = chebyshev_points(a, b, 17)
    violations = []
    fns = [as_scalar(m) for m in members]
    for k in range(len(fns) - 1):
        for x in grid:
            if fns[k](x) > fns[k + 1](x) + 1e-12:
                violations.append([k + 1, x])
                break

    divergent = diverging_column(column) or any(
        not math.isfinite(v) or abs(v) > 1e12 for v in column
    )
    if divergent:
        return MctReport(rows, violations, True, False, None, None, None)

    converged, limit = _detect_limit(column, tol)
    direct = None
    if f is not None:
        direct = hk_integrate(f, None, box, tol=itol).value

    control_verdict = None
    if converged and F_seq is not None:
        phi_seq = [ControlFunction1D.identity((a, b)) for _ in F_seq]
        try:
            control = mct_control(F_seq, members, phi_seq, (a, b), F=F)
            target_F = F if F is not None else F_seq[-1]
            target_f = f if f is not None else members[-1]
            control_verdict = verify_mc(
                target_F, target_f, control, (a, b), chebyshev_points(a, b, 33)
            )
        except MctDivergenceError:
            control_verdict = None
    return MctReport(rows, violations, False, converged, limit, direct, control_verdict)


def suite_to_csv_rows(reports: Sequence[IdentityReport]) -> list:
    rows = [["name", "lhs", "rhs", "residual", "pass"]]
    for r in reports:
        rows.append(r.to_row())
    return rows
