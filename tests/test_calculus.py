import math
from fractions import Fraction

import pytest

from gaugecalc import Box, PointFunction, cumulative, indefinite_hk
from gaugecalc.calculus import (
    IdentityReport,
    check_change_of_variables,
    check_interval_additivity,
    check_monotone,
    constancy_check,
    mct_experiment,
    check_parts,
    suite_to_csv_rows,
)
from gaugecalc.mc import chebyshev_points

from conftest import midpoint_oracle


class TestParts:
    def test_linear(self):
        r = check_parts("1", "x", "1", "x", (0, 1))
        # both sides equal 1/2: int x dx and [x^2] - int x dx
        assert r.passed and r.lhs == pytest.approx(0.5, abs=1e-7)

    def test_sin_cos(self):
        r = check_parts("cos(x)", "sin(x)", "1", "x", (0, 1))
        oracle = midpoint_oracle(lambda t: t * math.cos(t), 0.0, 1.0)
        assert r.passed
        assert r.lhs == pytest.approx(oracle, abs=1e-7)

    def test_zero(self):
        r = check_parts("0", "0", "0", "0", (0, 1))
        assert r.passed and r.residual == 0.0


class TestChangeOfVariables:
    def test_square_constant(self):
        r = check_change_of_variables("x^2", "2*x", "1", (0, 1))
        assert r.passed and r.lhs == pytest.approx(1.0, abs=1e-6)

    def test_square_sqrt(self):
        r = check_change_of_variables("x^2", "2*x", "sqrt(x)", (0, 1))
        assert r.passed
        assert r.lhs == pytest.approx(2 / 3, abs=1e-5)

    def test_exp_log_derivative(self):
        r = check_change_of_variables("exp(x)", "exp(x)", "1/x", (0, 1))
        assert r.passed
        assert r.lhs == pytest.approx(1.0, abs=1e-6)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            check_change_of_variables("0-x", "0-1", "1", (0, 1))


class TestAdditivity:
    def test_constant(self):
        r = check_interval_additivity("1", 0, 1, 2)
        assert r.passed and r.lhs == pytest.approx(2.0, abs=1e-7)

    def test_inv_sqrt(self):
        r = check_interval_additivity("inv_sqrt", 0, "1/4", 1, tol=1e-3)
        assert r.passed
        assert r.lhs == pytest.approx(2.0, abs=1e-3)

    def test_oscillating_derivative(self):
        r = check_interval_additivity("hk_derivative", 0, "1/2", 1, tol=1e-3)
        assert r.passed
        F = PointFunction.builtin("hk_primitive")
        assert r.lhs == pytest.approx(F((1,)) - F((0,)), abs=1e-3)

    def test_split_point_invariance(self):
        # residual stays comparable when the split point moves
        tol = 1e-5
        r1 = check_interval_additivity("exp(x)", 0, "1/4", 1, tol=tol)
        r2 = check_interval_additivity("exp(x)", 0, "3/4", 1, tol=tol)
        assert r1.passed and r2.passed
        assert abs(r1.residual - r2.residual) <= 2 * tol

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            check_interval_additivity("1", 0, 2, 1)


class TestMonotone:
    def test_2x_passes(self):
        table = indefinite_hk("2*x", None, Box.unit(), depth=6, tol=1e-8)
        v = check_monotone(table, "2*x", chebyshev_points(0, 1, 33))
        assert v.passed and v.precondition_ok

    def test_cos_on_0_3_precondition_fails(self):
        table = indefinite_hk("cos(x)", None, Box.of((0, 3)), depth=4, tol=1e-8)
        v = check_monotone(table, "cos(x)", chebyshev_points(0, 3, 33))
        assert not v.precondition_ok
        assert not v.passed

    def test_inv_sqrt_depth_6(self):
        table = indefinite_hk("inv_sqrt", None, Box.unit(), depth=6, tol=1e-6)
        v = check_monotone(table, "inv_sqrt", chebyshev_points(0, 1, 33))
        assert v.passed


class TestConstancy:
    def test_shifted_quadratics(self):
        r = constancy_check(
            lambda t: t * t / 2, lambda t: t * t / 2 + 5,
            chebyshev_points(0, 1, 17),
        )
        assert r.deviation == 0.0
        assert r.constant == -5.0

    def test_two_bases_of_same_indefinite(self):
        t1 = indefinite_hk("2*x", None, Box.unit(), depth=6, tol=1e-9)
        t2 = indefinite_hk("2*x", None, Box.unit(), depth=6, tol=1e-8)
        F1 = cumulative(t1, 0)
        F2 = cumulative(t2, Fraction(1, 2))
        grid = [Fraction(i, 64) for i in range(65)]
        r = constancy_check(F1, F2, grid)
        assert r.deviation <= 1e-6
        assert r.constant == pytest.approx(0.25, abs=1e-6)

    def test_different_integrands_flagged(self):
        r = constancy_check(
            lambda t: t * t / 2, lambda t: t * t / 2 + t,
            chebyshev_points(0, 1, 17),
        )
        assert r.deviation > 0.1


def _family(K):
    members, antis = [], []
    for k in range(1, K + 1):
        thr = Fraction(1, k * k)
        members.append(PointFunction.from_expr(f"ite(x<{thr},{k},1/sqrt(x))"))
        antis.append(PointFunction.from_expr(f"ite(x<{thr},{k}*x,2*sqrt(x)-1/{k})"))
    return members, antis


class TestMctExperiment:
    def test_min_inv_sqrt_converges_to_two(self):
        members, antis = _family(24)
        report = mct_experiment(
            members, PointFunction.builtin("inv_sqrt"), (0, 1), K=24,
            tol=1e-2, F_seq=antis, F=PointFunction.from_expr("2*sqrt(x)"),
        )
        assert not report.divergent and report.converged
        column = [v for _, v in report.rows]
        assert all(b >= a for a, b in zip(column, column[1:]))
        # oracle: int min(k, x^-1/2) = 2 - 1/k, limit 2
        for (k, v) in report.rows:
            assert v == pytest.approx(2 - 1 / k, abs=1e-5)
        assert report.limit == pytest.approx(2.0, abs=1e-2)
        assert report.control_verdict is not None and report.control_verdict.passed

    def test_constant_family(self):
        report = mct_experiment(
            lambda k: PointFunction.from_expr("x"),
            PointFunction.from_expr("x"), (0, 1), K=8, tol=1e-3,
        )
        assert report.converged and not report.divergent
        assert report.limit == pytest.approx(0.5, abs=1e-6)
        assert all(v == pytest.approx(0.5, abs=1e-8) for _, v in report.rows)

    def test_divergent_family(self):
        report = mct_experiment(
            lambda k: PointFunction.from_expr(str(k)), None, (0, 1), K=12,
            tol=1e-3,
        )
        assert report.divergent
        assert report.limit is None and not report.converged

    def test_monotonicity_violation_reported(self):
        members = [
            PointFunction.from_expr("2*x"),
            PointFunction.from_expr("x"),  # decreases: violation
            PointFunction.from_expr("3*x"),
        ]
        report = mct_experiment(members, None, (0, 1), K=3, tol=1e-3)
        assert report.monotone_violations


def test_suite_serialization():
    reports = [
        check_parts("1", "x", "1", "x", (0, 1)),
        check_interval_additivity("1", 0, 1, 2),
    ]
    rows = suite_to_csv_rows(reports)
    assert rows[0] == ["name", "lhs", "rhs", "residual", "pass"]
    assert len(rows) == 3
    data = [r.to_json_dict() for r in reports]
    assert data[0]["passed"] is True
    report = IdentityReport("demo", 1.0, 1.5, 0.1)
    assert not report.passed and report.residual == 0.5
