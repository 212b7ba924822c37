import math
import random
from fractions import Fraction

import pytest

from gaugecalc import (
    Box,
    Gauge,
    IntervalFunction,
    PointFunction,
    SuperadditiveFn,
    cousin_partition,
    indefinite_hk,
    random_fine_partition,
    residual_cell_fn,
    riemann_sum,
)
from gaugecalc.intervals import dyadic_cells
from gaugecalc.mc import (
    CertificationError,
    ControlFunction1D,
    InvalidControlError,
    MctDivergenceError,
    NoGaugeError,
    bounded_control,
    chebyshev_points,
    combine_controls,
    control_from_gauges,
    gauge_from_control,
    glue_controls,
    mc_defect,
    mct_control,
    rescale,
    verify_mc,
    verify_mc_nd,
)

ID_UNIT = ControlFunction1D.identity((0, 1))
ID_SYM = ControlFunction1D.identity((-1, 1))


@pytest.mark.parametrize("a,b", [(-1, 1), (0, 1)])
def test_an_odd_count_of_chebyshev_points_has_the_exact_midpoint(a, b):
    pts = chebyshev_points(a, b, 33)
    assert pts[16] == (a + b) / 2 and pts == sorted(pts) and len(set(pts)) == 33
    # the other points are the cosine formula's, bit for bit
    mid, half = (a + b) / 2, (b - a) / 2
    formula = sorted(mid + half * math.cos(math.pi * (2 * i + 1) / 66) for i in range(33))
    assert pts[:16] + pts[17:] == formula[:16] + formula[17:]
    assert formula[16] == (6.123233995736766e-17 if a == -1 else 0.5)


class TestMcDefect:
    def test_quadratic_pair_decays_like_h(self):
        qs = mc_defect(lambda t: t * t / 2, lambda t: t, ID_UNIT, 0.3)
        # defect (y-x)^2/2 over |y-x| gives exactly h/2 at distance h
        assert qs[0] == pytest.approx(2.0**-3 / 2, rel=1e-12)
        assert qs[-1] == pytest.approx(2.0**-16 / 2, rel=1e-12)

    def test_abs_pair_is_exactly_one(self):
        qs = mc_defect(lambda t: abs(t), lambda t: 0.0, ID_SYM, 0.0)
        assert all(q == 1.0 for q in qs)

    def test_oscillator_pair_vanishes(self):
        qs = mc_defect(
            PointFunction.builtin("hk_primitive"),
            PointFunction.builtin("hk_derivative"),
            ID_SYM,
            0.0,
        )
        assert qs[-1] <= 2.0**-16  # |y^2 sin(y^-2)| / |y| <= |y|
        assert qs[-1] < qs[0]

    def test_invalid_control_detected(self):
        decreasing = ControlFunction1D(lambda t: -t, (0, 1), label="-x")
        with pytest.raises(InvalidControlError):
            mc_defect(lambda t: t, lambda t: 1.0, decreasing, 0.5)

    def test_levels_must_decrease(self):
        with pytest.raises(ValueError):
            mc_defect(lambda t: t, lambda t: 1.0, ID_UNIT, 0.5, h_levels=[0.1, 0.2])


class TestVerifyMc:
    def test_quadratic_pair_passes(self):
        v = verify_mc(
            lambda t: t * t / 2, lambda t: t, ID_UNIT, (0, 1),
            chebyshev_points(0, 1, 33), tol=1e-3,
        )
        assert v.passed and not v.failures

    def test_abs_fails_at_zero_with_unit_witness(self):
        v = verify_mc(lambda t: abs(t), lambda t: 0.0, ID_SYM, (-1, 1), [0.0])
        assert not v.passed
        assert abs(v.failures[0].q_last - 1.0) <= 1e-12

    def test_oscillator_pair_passes_where_resolvable(self):
        # includes the singular point itself; the other points keep the
        # default h-resolution competent (q scales like h/x^4 near 0)
        grid = [0.0] + [s * v for s in (-1, 1) for v in (0.45, 0.6, 0.75, 0.9)]
        v = verify_mc(
            PointFunction.builtin("hk_primitive"),
            PointFunction.builtin("hk_derivative"),
            ID_SYM,
            (-1, 1),
            sorted(grid),
        )
        assert v.passed

    def test_interior_sample_enforced(self):
        with pytest.raises(ValueError):
            verify_mc(lambda t: t, lambda t: 1.0, ID_UNIT, (0, 1), [0.0])

    def test_no_sample_points_is_an_error(self):
        with pytest.raises(ValueError, match="at least one sample point"):
            verify_mc(lambda t: t, lambda t: 1.0, ID_UNIT, (0, 1), [])

    def test_verdict_serialization(self):
        v = verify_mc(lambda t: t, lambda t: 1.0, ID_UNIT, (0, 1), [0.25, 0.5])
        data = v.to_json_dict()
        assert data["passed"] is True
        assert len(data["points"]) == 2
        rows = v.to_csv_rows()
        assert rows[0] == ["x", "h", "q"]
        assert len(rows) == 1 + 2 * len(v.h_levels)


class TestRescale:
    def test_rescaled_control_still_controls(self):
        r = rescale(ID_UNIT, 2.0, 3.0)
        assert r(0.5) == 4.0
        v = verify_mc(lambda t: t * t / 2, lambda t: t, r, (0, 1), [0.3, 0.6])
        assert v.passed

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_nonpositive_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            rescale(ID_UNIT, alpha, 0.0)

    def test_invariance_of_verdict_sets(self):
        # seeded pairs, some deliberately broken; the pass/fail sets must
        # be identical under rescaling (quotients scale by exactly 1/alpha)
        rng = random.Random(1202)
        for trial in range(20):
            coeffs = [rng.uniform(-2, 2) for _ in range(4)]

            def F(t, c=coeffs):
                return c[0] * t + c[1] * t**2 / 2 + c[2] * t**3 / 3 + c[3] * t**4 / 4

            broken = trial % 2 == 1
            step = 0.5 if broken else 0.0

            def f(t, c=coeffs, s=step):
                base = c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3
                return base + (s if t > 0.5 else 0.0)

            a1 = rng.uniform(0.5, 2.0)
            a3 = rng.uniform(0.0, 1.0)
            phi = ControlFunction1D(
                lambda t, a1=a1, a3=a3: a1 * t + a3 * t**3, (0, 1)
            )
            points = chebyshev_points(0, 1, 9)
            baseline = verify_mc(F, f, phi, (0, 1), points,
                                 probes_per_level=8)
            base_set = {w.x for w in baseline.failures}
            if broken:
                assert not baseline.passed
            for alpha in (0.5, 2.0, 10.0):
                scaled = verify_mc(F, f, rescale(phi, alpha, rng.uniform(-1, 1)),
                                   (0, 1), points, probes_per_level=8)
                assert {w.x for w in scaled.failures} == base_set
                assert scaled.passed == baseline.passed


class TestCombine:
    def test_sum_with_identity_value(self):
        eta = combine_controls("sum_with_identity", ID_UNIT, ID_UNIT)
        assert eta(0.5) == 1.5

    def test_compose_strictly_increasing(self):
        comp = combine_controls("compose", ID_UNIT, ID_UNIT, F=lambda t: t * t)
        assert comp(0.5) == 0.75
        values = [comp(x) for x in chebyshev_points(0, 1, 17)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_compose_requires_increasing_F(self):
        with pytest.raises(ValueError):
            combine_controls("compose", ID_UNIT, ID_UNIT, F=lambda t: -t)

    def test_product_pair_controlled(self):
        # F = G = x, f = g = 1: the product pair (x^2, 2x) under phi+psi+id
        eta = combine_controls("sum_with_identity", ID_UNIT, ID_UNIT)
        v = verify_mc(lambda t: t * t, lambda t: 2 * t, eta, (0, 1),
                      chebyshev_points(0, 1, 17))
        assert v.passed

    def test_adding_increasing_function_preserves_pass(self):
        # growing the denominator cannot increase any quotient
        base = verify_mc(lambda t: t * t / 2, lambda t: t, ID_UNIT, (0, 1),
                         chebyshev_points(0, 1, 9))
        bigger = ControlFunction1D(lambda t: t + math.exp(t), (0, 1))
        augmented = verify_mc(lambda t: t * t / 2, lambda t: t, bigger, (0, 1),
                              chebyshev_points(0, 1, 9))
        assert base.passed and augmented.passed
        for p_base, p_aug in zip(base.points, augmented.points):
            assert all(qa <= qb + 1e-15 for qa, qb in zip(p_aug.q, p_base.q))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            combine_controls("multiply", ID_UNIT, ID_UNIT)


class TestGlue:
    def test_linear_pieces(self):
        F, phi = glue_controls(
            lambda t: t, ControlFunction1D.identity((0, 1)),
            lambda t: t, ControlFunction1D.identity((1, 2)),
        )
        assert F(1.0) == 0.0
        assert F(0.5) == pytest.approx(-0.5, abs=1e-10)
        assert F(1.5) == pytest.approx(0.5, abs=1e-10)
        assert phi.jumps[0].left < 0 < phi.jumps[0].right
        v = verify_mc(F, lambda t: 1.0, phi, (0, 2), [0.5, 1.0, 1.5])
        assert v.passed

    def test_zero_functions(self):
        F, phi = glue_controls(
            lambda t: 0.0, ControlFunction1D.identity((0, 1)),
            lambda t: 0.0, ControlFunction1D.identity((1, 2)),
        )
        v = verify_mc(F, lambda t: 0.0, phi, (0, 2), [1.0])
        assert v.passed

    def test_denominator_bounded_by_half_jump(self):
        _, phi = glue_controls(
            lambda t: t, ControlFunction1D.identity((0, 1)),
            lambda t: t, ControlFunction1D.identity((1, 2)),
        )
        for d in (1e-3, 1e-6, 1e-9):
            assert abs(phi(1.0 - d) - phi(1.0)) >= 0.5 - 1e-6
            assert abs(phi(1.0 + d) - phi(1.0)) >= 0.5 - 1e-6

    def test_increment_adds_up(self):
        # int_0^2 1 = 2 through the glued antiderivative's increment
        F, _ = glue_controls(
            lambda t: t, ControlFunction1D.identity((0, 1)),
            lambda t: t, ControlFunction1D.identity((1, 2)),
        )
        from gaugecalc.limits import one_sided_limit

        increment = (one_sided_limit(F, 2.0, -1, 0.25)
                     - one_sided_limit(F, 0.0, +1, 0.25))
        assert increment == pytest.approx(2.0, abs=1e-9)

    def test_serializes_with_jump_and_samples(self):
        _, phi = glue_controls(
            lambda t: t, ControlFunction1D.identity((0, 1)),
            lambda t: t, ControlFunction1D.identity((1, 2)),
        )
        assert [list(j) for j in phi.jumps] == [[1.0, -0.5, 0.5]]
        assert phi(1.0) == 0.0

    def test_mismatched_domains_rejected(self):
        with pytest.raises(ValueError):
            glue_controls(
                lambda t: t, ControlFunction1D.identity((0, 1)),
                lambda t: t, ControlFunction1D.identity((1.5, 2)),
            )

    def test_unbounded_control_detected(self):
        from gaugecalc.limits import LimitDivergesError

        blow = ControlFunction1D(lambda t: 1.0 / (1.0 - t), (0, 1))
        with pytest.raises(LimitDivergesError):
            glue_controls(
                lambda t: t, blow,
                lambda t: t, ControlFunction1D.identity((1, 2)),
            )


class TestBoundedControl:
    def test_single_window(self):
        bc = bounded_control([ID_UNIT], [("1/4", "3/4")])
        assert bc(0.5) == pytest.approx(0.25)
        assert bc(0.2) == 0.0
        assert bc(0.9) == 0.5
        assert bc.tail_bound == 0.5

    def test_expanding_windows_strictly_increasing(self):
        K = 20
        windows = [(1 / k, 1 - 1 / k) for k in range(3, 3 + K)]
        phis = [ControlFunction1D.identity((0, 1))] * K
        bc = bounded_control(phis, windows)
        grid = [0.06 + 0.88 * i / 99 for i in range(100)]
        values = [bc(x) for x in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert 0.0 < min(values) and max(values) < 1.0

    def test_tail_reported(self):
        K = 20
        windows = [(1 / k, 1 - 1 / k) for k in range(3, 3 + K)]
        bc = bounded_control([ControlFunction1D.identity((0, 1))] * K, windows)
        assert bc.tail_bound == 2.0**-20

    def test_non_increasing_input_rejected(self):
        with pytest.raises(ValueError):
            bounded_control(
                [ControlFunction1D(lambda t: -t, (0, 1))], [("1/4", "3/4")]
            )


def _min_inv_sqrt_family(K):
    members, antis = [], []
    for k in range(1, K + 1):
        thr = Fraction(1, k * k)
        members.append(PointFunction.from_expr(f"ite(x<{thr},{k},1/sqrt(x))"))
        antis.append(PointFunction.from_expr(f"ite(x<{thr},{k}*x,2*sqrt(x)-1/{k})"))
    return members, antis


class TestMctControl:
    def test_constant_sequence(self):
        n = 6
        F_seq = [lambda t: t * t / 2] * n
        f_seq = [lambda t: t] * n
        phis = [ControlFunction1D.identity((0, 1))] * n
        control = mct_control(F_seq, f_seq, phis, (0, 1))
        v = verify_mc(lambda t: t * t / 2, lambda t: t, control, (0, 1),
                      chebyshev_points(0, 1, 17))
        assert v.passed

    def test_increasing_family_strictly_increasing_control(self):
        members, antis = _min_inv_sqrt_family(12)
        phis = [ControlFunction1D.identity((0, 1))] * 12
        control = mct_control(antis, members, phis, (0, 1),
                              F=PointFunction.from_expr("2*sqrt(x)"))
        grid = [0.02 + 0.96 * i / 99 for i in range(100)]
        values = [control(x) for x in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(math.isfinite(v) for v in values)
        assert control.tail_bound_controls == 0.5 ** len(control.selected_indices)

    def test_divergent_family_refused(self):
        n = 8
        F_seq = [
            (lambda t, k=k: float(k) * t) for k in range(1, n + 1)
        ]
        f_seq = [(lambda t, k=k: float(k)) for k in range(1, n + 1)]
        phis = [ControlFunction1D.identity((0, 1))] * n
        with pytest.raises(MctDivergenceError):
            mct_control(F_seq, f_seq, phis, (0, 1))


class TestMonotonicityTransfer:
    def test_nonnegative_derivative_gives_nondecreasing_F(self):
        rng = random.Random(77)
        for _ in range(5):
            a, b, c = (rng.uniform(0, 1) for _ in range(3))

            def f(t):
                return (a + b * t + c * t * t) ** 2

            def F(t):
                # exact antiderivative of the squared quadratic
                a2, ab, s = a * a, 2 * a * b, b * b + 2 * a * c
                bc, c2 = 2 * b * c, c * c
                return (a2 * t + ab * t**2 / 2 + s * t**3 / 3
                        + bc * t**4 / 4 + c2 * t**5 / 5)

            grid = chebyshev_points(0, 1, 17)
            v = verify_mc(F, f, ID_UNIT, (0, 1), grid, probes_per_level=8)
            assert v.passed
            assert all(f(x) >= 0 for x in grid)
            values = [F(x) for x in grid]
            assert all(y >= x - 1e-12 for x, y in zip(values, values[1:]))


class TestVerifyMcNd:
    def test_quadratic_indefinite_with_volume_control(self):
        box = Box.unit()
        table = indefinite_hk("2*x", None, box, depth=12, tol=1e-10)
        G = IntervalFunction.length()
        Phi = SuperadditiveFn.volume_power(1)
        samples = [Fraction(2 * i + 1, 64) for i in range(32)]
        v = verify_mc_nd(table, "2*x", G, Phi, box, samples,
                         depth_levels=range(2, 13), tol=1e-3)
        assert v.passed

    def test_detects_wrong_integrand(self):
        box = Box.unit()
        table = indefinite_hk("2*x", None, box, depth=8, tol=1e-10)
        G = IntervalFunction.length()
        Phi = SuperadditiveFn.volume_power(1)
        samples = [Fraction(2 * i + 1, 16) for i in range(8)]
        v = verify_mc_nd(table, "3*x", G, Phi, box, samples,
                         depth_levels=range(2, 9), tol=1e-3)
        assert not v.passed

    def test_no_sample_points_is_an_error(self):
        table = indefinite_hk("2*x", None, Box.unit(), depth=4, tol=1e-10)
        with pytest.raises(ValueError, match="at least one sample point"):
            verify_mc_nd(table, "2*x", IntervalFunction.length(),
                         SuperadditiveFn.volume_power(1), Box.unit(), [],
                         depth_levels=range(2, 5))


class TestGaugeFromControl:
    def setup_method(self):
        self.box = Box.unit()
        self.table = indefinite_hk("2*x", None, self.box, depth=10, tol=1e-10)
        self.G = IntervalFunction.length()
        self.Phi = SuperadditiveFn.volume_power(1)
        self.samples = [Fraction(i, 64) for i in range(65)]

    def test_quadratic_has_uniform_floor(self):
        g = gauge_from_control(self.table, "2*x", self.G, self.Phi, 0.1,
                               self.samples, 10, self.box)
        assert min(g((s,)) for s in self.samples) >= 0.05

    def test_zero_pair_gives_unit_gauge(self):
        zero = indefinite_hk("0", None, self.box, depth=6, tol=1e-12)
        g = gauge_from_control(zero, "0", self.G, self.Phi, 0.5,
                               self.samples, 6, self.box)
        assert all(g((s,)) == 1.0 for s in self.samples)

    def test_round_trip_inequality(self):
        eps = 0.1
        g = gauge_from_control(self.table, "2*x", self.G, self.Phi, eps,
                               self.samples, 10, self.box)
        f = PointFunction.from_expr("2*x")
        target = self.table.value(self.box)
        bound = eps * self.Phi.value(self.box)
        tp = cousin_partition(self.box, g)
        assert abs(riemann_sum(f, self.G, tp) - target) < bound
        rng = random.Random(5)
        for _ in range(10):
            tp = random_fine_partition(self.box, g, rng)
            assert tp.is_fine(g)
            assert abs(riemann_sum(f, self.G, tp) - target) < bound

    def test_no_gauge_when_contract_broken(self):
        # wrong integrand: the inequality fails at every scale somewhere
        with pytest.raises(NoGaugeError):
            gauge_from_control(self.table, "3*x", self.G, self.Phi, 0.01,
                               self.samples, 6, self.box)


class TestControlFromGauges:
    def setup_method(self):
        self.box = Box.unit()
        self.table = indefinite_hk("2*x", None, self.box, depth=10, tol=1e-10)
        self.G = IntervalFunction.length()
        self.psi = residual_cell_fn("2*x", self.G, self.table)

    def test_zero_residual_gives_volume(self):
        zero_table = indefinite_hk("0", None, self.box, depth=6, tol=1e-12)
        psi = residual_cell_fn("0", self.G, zero_table)
        phi = control_from_gauges(psi, [Gauge.constant(0.5)], self.box, 6)
        for cell in dyadic_cells(self.box, 3):
            assert phi.value(cell) == pytest.approx(float(cell.volume), abs=1e-15)

    def test_single_term(self):
        from gaugecalc import delta_variation_dp_table

        g1 = Gauge.constant(0.5)
        table = delta_variation_dp_table(self.psi, self.box, g1, 8)
        phi = control_from_gauges(self.psi, [g1], self.box, 8)
        for cell in dyadic_cells(self.box, 2):
            expect = float(cell.volume) + 1 * table[cell]
            assert phi.value(cell) == pytest.approx(expect, rel=1e-12)

    def test_built_control_verifies(self):
        table12 = indefinite_hk("2*x", None, self.box, depth=12, tol=1e-10)
        psi = residual_cell_fn("2*x", self.G, table12)
        gauges = [Gauge.constant(2.0**-k) for k in range(1, 7)]
        phi = control_from_gauges(psi, gauges, self.box, 12)
        assert all(phi.value(c) > 0 for c in dyadic_cells(self.box, 6))
        for d in range(12):
            for cell in dyadic_cells(self.box, d):
                kids = cell.bisect()
                assert phi.value(kids[0]) + phi.value(kids[1]) \
                    <= phi.value(cell) + 1e-12
        samples = [Fraction(2 * i + 1, 64) for i in range(32)]
        v = verify_mc_nd(table12, "2*x", self.G, phi, self.box, samples,
                         depth_levels=range(2, 13), tol=1e-3)
        assert v.passed

    def test_missing_certification(self):
        with pytest.raises(CertificationError):
            control_from_gauges(self.psi, [Gauge.constant(16.0)], self.box, 6)

    def test_no_fine_configuration_of_the_box(self):
        # a depth-2 cell is 1/4 wide, not below the gauge: no cell at the
        # finest depth has a fine tag, so the box has no configuration
        with pytest.raises(CertificationError) as err:
            control_from_gauges(self.psi, [Gauge.constant(0.25)], self.box, 2)
        assert str(err.value) == "gauge 1 admits no delta-fine dyadic configuration"

    def test_cells_without_fine_configurations(self):
        # 2 at x = 1/2 tags the box and both halves at their common point;
        # elsewhere 2^-20 admits no cell, so [0,1/4] has no configuration
        table = indefinite_hk("2*x", None, self.box, depth=2)
        psi = residual_cell_fn("2*x", self.G, table)
        gauge = Gauge.from_function(lambda x: 2.0 if x == 0.5 else 2.0**-20)
        with pytest.raises(CertificationError) as err:
            control_from_gauges(psi, [gauge], self.box, 2)
        assert str(err.value) == "gauge 1 leaves cells without fine configurations"

    @pytest.mark.parametrize("nan_at", [lambda x: x == 0.5, lambda x: x > 0],
                             ids=["at 1/2", "past 0"])
    def test_a_nan_residual_is_not_certified(self, nan_at):
        # f = 2x but nan at 1/2 (or at every x > 0): the DP's V is nan, which
        # no bound certifies; once max(V, nan) kept V, this certified the
        # control of f = 2x, or said no configuration was fine
        table = indefinite_hk("2*x", None, self.box, depth=4, tol=1e-10)
        gauges = [Gauge.constant(0.5), Gauge.constant(0.25)]
        phi = control_from_gauges(residual_cell_fn("2*x", self.G, table), gauges, self.box, 4)
        assert phi.value(self.box) == 1.5
        f = PointFunction.from_callable(lambda x: math.nan if nan_at(x) else 2 * x, "f")
        with pytest.raises(CertificationError) as err:
            control_from_gauges(residual_cell_fn(f, self.G, table), gauges, self.box, 4)
        assert str(err.value) == "gauge 1 has V = nan: psi is nan on a fine pair"


# the roundtrip defects: the slope of f changes sign inside [0,1]
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the cousin partition's 37 cells give |S - F(U)| = 0.0140 >= "
                   "eps Phi(U) = 0.01: the low-side cell with a sample as its corner is "
                   "never tested; ROADMAP item 6")
def test_the_gauge_bounds_its_cousin_partition_where_the_slope_changes_sign():
    f, box, G = "(0-413/512)*x+1357/1024*x^2", Box.unit(), IntervalFunction.length()
    Phi = SuperadditiveFn.volume_power(1)
    table = indefinite_hk(f, G, box, depth=10, tol=1e-10)
    gauge = gauge_from_control(table, f, G, Phi, 0.01, [Fraction(i, 64) for i in range(65)],
                               10, box)
    partition = cousin_partition(box, gauge)
    assert abs(riemann_sum(f, G, partition) - table.value(box)) < 0.01 * Phi.value(box)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="verify_mc_nd fails x = 23/64, next to the zero of f', for 'trend': "
                   "q runs 3.2e-6, 6.1e-8, 3.5e-7 at tol 1e-3, and the factor-2 test reads "
                   "that cancellation as growth; ROADMAP item 6")
def test_the_control_from_gauges_verifies_where_the_slope_changes_sign():
    f, box, G = "1+441/512*x+(0-1225/1024)*x^2", Box.unit(), IntervalFunction.length()
    table = indefinite_hk(f, G, box, depth=10, tol=1e-10)
    phi = control_from_gauges(residual_cell_fn(f, G, table),
                              [Gauge.constant(2.0**-k) for k in (1, 2)], box, 10)
    verdict = verify_mc_nd(table, f, G, phi, box, [Fraction(2 * i + 1, 64) for i in range(32)],
                           depth_levels=range(2, 11), tol=1e-3)
    assert verdict.passed
