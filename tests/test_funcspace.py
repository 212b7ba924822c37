import math
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugecalc import (
    Box,
    EvalDomainError,
    IntervalFunction,
    ParseError,
    PointFunction,
    SuperadditiveFn,
    parse,
    partition_defect,
    to_text,
)
from gaugecalc import funcspace
from gaugecalc.funcspace import Bin, Fun, Ite, Num, Var
from gaugecalc.intervals import as_point

from conftest import random_dyadic_partition


HALVES = [Box.of((0, "1/2")), Box.of(("1/2", 1))]


class TestParse:
    def test_oscillator(self):
        e = parse("x^2*sin(1/x^2)")
        assert isinstance(e, Bin) and e.op == "*"
        assert to_text(e) == "x^2*sin(1/x^2)"

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError) as err:
            parse("2x")
        assert err.value.column == 2

    def test_ite(self):
        e = parse("ite(x<1/2, 0, 1)")
        assert isinstance(e, Ite)
        assert e.threshold == Fraction(1, 2)
        assert e.eval((0.25,)) == 0.0
        assert e.eval((0.75,)) == 1.0

    def test_rational_literals_fold_exactly(self):
        assert parse("1/3") == Num(Fraction(1, 3))
        assert parse("1 / 3") == Num(Fraction(1, 3))
        # division by a non-literal stays a division, and '^' keeps its
        # precedence: x^2/3 is (x^2)/3
        assert isinstance(parse("x/2"), Bin)
        assert parse("x^2/3").eval((3.0,)) == 3.0
        assert parse("4/2^2").eval((0.0,)) == 1.0

    def test_literal_float_leaves_equality_hash_and_text_alone(self):
        third = Num(Fraction(1, 3))
        assert third.fvalue == 1 / 3
        assert parse("1/3") == third
        assert hash(parse("1/3")) == hash(third) == hash((Fraction(1, 3),))
        assert repr(third) == "Num(value=Fraction(1, 3))"
        assert parse(to_text(third)) == third
        # a literal too large for a float fails where it is evaluated
        with pytest.raises(OverflowError):
            parse("x+1" + "0" * 400).eval((0.5,))

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse("y + 1")
        with pytest.raises(ParseError):
            parse("foo(x)")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse("sin(x, 1)")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse("1/0")

    def test_precedence(self):
        assert parse("2+3*4").eval((0.0,)) == 14.0
        assert parse("2*3^2").eval((0.0,)) == 18.0
        assert parse("(2+3)*4").eval((0.0,)) == 20.0

    def test_variables(self):
        assert parse("x1+x2").eval((1.0, 2.0)) == 3.0
        assert parse("x").max_var() == 1
        assert parse("x3").max_var() == 3

    def test_column_reporting(self):
        with pytest.raises(ParseError) as err:
            parse("sin(x")
        assert err.value.column == 6


def _exprs(depth):
    leaf = st.one_of(
        st.fractions(min_value=-4, max_value=4, max_denominator=8).map(
            lambda v: Num(v)
        ),
        st.integers(min_value=0, max_value=2).map(Var),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(
            lambda t: Bin(t[0], t[1], t[2])
        ),
        st.tuples(sub, st.integers(min_value=0, max_value=3)).map(
            lambda t: Bin("^", t[0], Num(Fraction(t[1])))
        ),
        st.tuples(st.sampled_from(["sin", "cos", "abs"]), sub).map(
            lambda t: Fun(t[0], t[1])
        ),
    )


@settings(max_examples=150, deadline=None)
@given(_exprs(3))
def test_printer_parse_print_parse_is_parse(expr):
    text = to_text(expr)
    try:
        once = parse(text)
    except ParseError as err:
        # only literal zero denominators are allowed to fail
        assert "zero denominator" in str(err)
        return
    printed = to_text(once)
    assert parse(printed) == once
    assert to_text(parse(printed)) == printed


def _block_exprs(depth, dim):
    """Expressions with every node kind, whose values and failures at
    extreme inputs exercise each of `_eval`'s checks."""
    leaf = st.one_of(
        st.fractions(min_value=-4, max_value=4, max_denominator=8).map(Num),
        st.sampled_from([Num(Fraction(10**400)), Num(Fraction(1, 3))]),
        st.integers(min_value=0, max_value=dim - 1).map(Var),
    )
    if depth == 0:
        return leaf
    sub = _block_exprs(depth - 1, dim)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: Bin(*t)),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "abs", "log", "sqrt"]),
                  sub).map(lambda t: Fun(*t)),
        st.tuples(st.integers(min_value=0, max_value=dim - 1),
                  st.fractions(min_value=-2, max_value=2, max_denominator=4),
                  sub, sub).map(lambda t: Ite(*t)),
    )


_BLOCK_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 0.5, 1e300]),
    st.floats(min_value=-3, max_value=3),
    st.floats(),
)


@st.composite
def _block_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    tags = st.lists(st.tuples(*[_BLOCK_FLOATS] * dim), max_size=12)
    return draw(_block_exprs(4, dim)), dim, draw(tags)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


@settings(max_examples=400, deadline=None)
@given(_block_cases())
# math.pow(0, -inf) is inf, where `_eval` raises
@example((Bin("^", Num(Fraction(0)), Var(0)), 1, [(1.0,), (-math.inf,)]))
# a branch that fails where no tag takes it
@example((Ite(1, Fraction(1), Var(0), Num(Fraction(10**400))), 2, [(0.5, -0.0)]))
def test_eval_block_is_the_per_point_loop(case):
    expr, dim, tags = case
    f = PointFunction.from_expr(expr, dim=dim)
    expected, first_error = [], None
    for t in tags:
        try:
            expected.append(f.fast_eval(t))
        except (ValueError, ArithmeticError) as e:
            first_error = e
            break
    out = []
    if first_error is None:
        assert _bits(f.eval_block(tags, out)) == _bits(expected)
    else:
        with pytest.raises(type(first_error)) as err:
            f.eval_block(tags, out)
        assert str(err.value) == str(first_error)
    # after a failure, the values of the tags before it
    assert _bits(out) == _bits(expected)


def test_eval_block_maps_a_callable_in_tag_order():
    calls = []

    def fn(x):
        calls.append(x)
        if x < 0.0:
            raise ValueError(f"negative {x}")
        return 2.0 * x

    f = PointFunction.from_callable(fn, "fn")
    assert f.eval_block([(1.0,), (3.0,)]) == [2.0, 6.0]
    out = [9.0]
    with pytest.raises(ValueError, match="negative -1.0"):
        f.eval_block([(0.5,), (-1.0,), (2.0,)], out)
    assert out == [9.0, 1.0] and calls == [1.0, 3.0, 0.5, -1.0]


def _hypot(xs):
    return math.hypot(*xs)


@pytest.mark.parametrize("f,old_path", [
    (PointFunction.from_expr("x1^2*sin(x2)-1/3", dim=2),
     lambda p: float(parse("x1^2*sin(x2)-1/3").eval(p))),
    (PointFunction.from_callable(math.log1p, "log1p"), lambda p: math.log1p(float(p[0]))),
    (PointFunction.from_callable(_hypot, "hypot", dim=2),
     lambda p: _hypot(tuple(float(c) for c in p))),
    (PointFunction.builtin("hk_derivative"),
     lambda p: funcspace._hk_derivative(float(p[0]))),
], ids=["expr", "callable-1d", "callable-2d", "builtin"])
def test_a_call_goes_once_through_fast_eval(f, old_path):
    # the tracer replaces fast_eval with a counting wrapper in the same way
    seen, fast = [], f.fast_eval

    def counting(xs):
        seen.append(xs)
        return fast(xs)

    f.fast_eval = counting
    for point in [(Fraction(1, 3), Fraction(-5, 7)), ("2/7", "1e-3"), (0.1, 0.3),
                  (Fraction(1, 3) + Fraction(1, 10**30), 2.5)]:
        seen.clear()
        point = point[:f.dim]
        # the replaced path took the point as exact coordinates
        assert _bits([f(point)]) == _bits([old_path(as_point(point))])
        assert seen == [tuple(float(Fraction(c)) for c in point)]


class TestEval:
    def test_builtin_singular_values(self):
        assert PointFunction.builtin("hk_derivative")((0,)) == 0.0
        assert PointFunction.builtin("hk_primitive")((0,)) == 0.0
        assert PointFunction.builtin("inv_sqrt")((0,)) == 0.0

    def test_hk_primitive_at_one(self):
        # direct evaluation of x^2 sin(x^-2) at 1
        assert PointFunction.builtin("hk_primitive")((1,)) == pytest.approx(
            math.sin(1), abs=1e-12
        )

    def test_inv_sqrt_quarter(self):
        assert PointFunction.builtin("inv_sqrt")(("1/4",)) == 2.0

    def test_heaviside(self):
        h = PointFunction.builtin("heaviside_1/2")
        assert h(("1/4",)) == 0.0
        assert h(("1/2",)) == 1.0
        assert h(("3/4",)) == 1.0
        # the expression ite(x<c,0,1): exact on rationals, and on a float
        # tag the exact comparison of the tag with c
        h = PointFunction.builtin("heaviside_1/3")
        assert h.name == "heaviside_1/3" and h.expr == parse("ite(x<1/3,0,1)")
        assert h.eval_exact(("1/3",)) == 1 and h.eval_exact((Fraction(1, 3) - 2**-60,)) == 0
        for x in (0.0, 1 / 3, math.nextafter(1 / 3, 1.0), 0.5, 1e300):
            assert h.fast_eval((x,)) == (0.0 if x < Fraction(1, 3) else 1.0)

    def test_domain_errors_point_at_subexpression(self):
        f = PointFunction.from_expr("log(x-1)")
        with pytest.raises(EvalDomainError) as err:
            f((0.5,))
        assert "log" in str(err.value)
        with pytest.raises(EvalDomainError):
            PointFunction.from_expr("sqrt(0-x)")((4.0,))
        with pytest.raises(EvalDomainError):
            PointFunction.from_expr("1/x")((0.0,))

    def test_power_rules(self):
        assert parse("x^3").eval((-2.0,)) == -8.0
        with pytest.raises(EvalDomainError):
            parse("(0-2)^(1/2)").eval((0.0,))
        with pytest.raises(EvalDomainError):
            parse("0^(0-1)").eval((0.0,))

    def test_exact_evaluation(self):
        e = parse("x^2/3+1/7")
        assert e.eval_exact((Fraction(1, 2),)) == Fraction(1, 12) + Fraction(1, 7)
        assert parse("sin(x)").eval_exact((Fraction(0),)) is None
        assert parse("abs(0-x)").eval_exact((Fraction(2, 3),)) == Fraction(2, 3)

    def test_nesting_is_bounded(self):
        # 100 levels of tree or brackets parse; one more is a ParseError,
        # not a RecursionError in the parser or an evaluator
        assert parse("+".join(["x"] * 100)).eval((1,)) == 100.0
        assert parse("(" * 99 + "x" + ")" * 99).eval((2,)) == 2.0
        for text in ("+".join(["x"] * 101), "(" * 100 + "x" + ")" * 100,
                     "+".join(["x"] * 1200), "(" * 400 + "x" + ")" * 400):
            with pytest.raises(ParseError):
                parse(text)


class TestIntervalFunction:
    def test_volume_generator_2d(self):
        G = IntervalFunction.from_generator(PointFunction.from_expr("x1*x2", dim=2))
        assert G.value(Box.unit(2)) == 1.0
        assert G.value_exact(Box.of((0, "1/2"), (0, "1/2"))) == Fraction(1, 4)

    def test_square_increment(self):
        G = IntervalFunction.from_generator("x^2")
        assert G.value(Box.of((1, 2))) == 3.0

    def test_heaviside_increments(self):
        G = IntervalFunction.heaviside("1/2")
        assert G.value(Box.of(("2/5", "3/5"))) == 1.0
        assert G.value(Box.of(("3/5", "9/10"))) == 0.0

    def test_table_missing_entry(self):
        T = IntervalFunction.table({Box.unit(): 1.0}, Box.unit(), 0)
        with pytest.raises(KeyError):
            T.value(Box.of((0, "1/2")))

    def test_corner_additivity_exact_for_rational_polys(self, rng):
        G = IntervalFunction.from_generator("x^3/7+x/3")
        for _ in range(8):
            part = random_dyadic_partition(Box.unit(), rng)
            assert partition_defect(G, Box.unit(), part) == 0.0

    def test_corner_additivity_2d(self, rng):
        G = IntervalFunction.from_generator(PointFunction.from_expr("x1*x2^2", dim=2))
        for _ in range(5):
            part = random_dyadic_partition(Box.unit(2), rng)
            assert partition_defect(G, Box.unit(2), part) == 0.0


class TestPartitionDefect:
    def test_volume_additive(self):
        assert partition_defect(IntervalFunction.length(), Box.unit(), HALVES) == 0.0

    def test_squared_volume_superadditive(self):
        d = partition_defect(SuperadditiveFn.volume_power(2), Box.unit(), HALVES)
        assert d == -0.5

    def test_sqrt_volume_violates(self):
        d = partition_defect(SuperadditiveFn.volume_power("1/2"), Box.unit(), HALVES)
        assert d == pytest.approx(2 * math.sqrt(0.5) - 1)
        assert d > 0  # flagged: not superadditive

    @pytest.mark.parametrize("p", [1, 2, 3, "3/2"])
    def test_volume_powers_superadditive_for_p_ge_1(self, p, rng):
        H = SuperadditiveFn.volume_power(p)
        for _ in range(10):
            part = random_dyadic_partition(Box.unit(), rng)
            assert partition_defect(H, Box.unit(), part) <= 1e-12

    def test_permuted_cells_give_the_same_defect(self, rng):
        # |Q|^(1/2) has no exact evaluation, so the float path is taken
        H = SuperadditiveFn.volume_power("1/2")
        for _ in range(10):
            cells = list(random_dyadic_partition(Box.unit(), rng, max_depth=7))
            permuted = list(cells)
            rng.shuffle(permuted)
            assert partition_defect(H, Box.unit(), permuted) == partition_defect(
                H, Box.unit(), cells
            )

    def test_volume_power_additive_for_p_1(self, rng):
        H = SuperadditiveFn.volume_power(1)
        for _ in range(10):
            part = random_dyadic_partition(Box.unit(), rng)
            assert partition_defect(H, Box.unit(), part) == 0.0


class TestSuperadditiveFn:
    def test_side_expr(self):
        H = SuperadditiveFn.from_side_expr("x1^2")
        assert H.value(Box.of((0, "1/2"))) == 0.25

    def test_positivity_enforced(self):
        H = SuperadditiveFn.from_side_expr("x1-1")
        with pytest.raises(ValueError):
            H.value(Box.of((0, "1/2")))

