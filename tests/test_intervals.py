import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugecalc import (
    Box,
    Gauge,
    GaugeBudgetError,
    Partition,
    TaggedPartition,
    cousin_partition,
    enumerate_partitions,
    is_partition,
    random_fine_partition,
)
from gaugecalc.intervals import (
    DimensionMismatchError,
    DyadicGrid,
    _diam_lt,
    dyadic_cells,
    fsum,
)

from conftest import random_dyadic_partition


HALVES = [Box.of((0, "1/2")), Box.of(("1/2", 1))]


class TestBox:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Box.of((1, 1))
        with pytest.raises(ValueError):
            Box.of(("1/2", "1/3"))

    def test_exact_fields(self):
        b = Box.of(("1/3", "2/3"), (0, 2))
        assert b.volume == Fraction(2, 3)
        assert b.diameter_sq == Fraction(1, 9) + 4
        assert b.center == (Fraction(1, 2), Fraction(1))
        assert b.diameter == pytest.approx(math.sqrt(1 / 9 + 4))

    def test_corners_lexicographic(self):
        b = Box.unit(2)
        assert b.corners() == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]

    def test_bisect_covers(self):
        b = Box.of(("1/3", 1), (0, "1/2"))
        kids = b.bisect()
        assert len(kids) == 4
        assert is_partition(b, kids)

    def test_json_round_trip(self):
        b = Box.of(("1/3", "2/3"))
        assert Box.from_json(b.to_json()) == b
        assert Box.from_json([["1/3", "2/3"]]).intervals == b.intervals
        assert Box.from_json([0, 1]) == Box.unit()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Box.unit(2).contains_box(Box.unit())


class TestIsPartition:
    def test_bisection(self):
        assert is_partition(Box.unit(), HALVES)

    def test_overlap_witness(self):
        report = is_partition(Box.unit(), [Box.of((0, "3/5")), Box.of(("1/2", 1))])
        assert not report
        assert report.reason == "overlap"
        (w,) = report.witness
        assert Fraction(1, 2) < w < Fraction(3, 5)

    def test_gap_witness(self):
        report = is_partition(Box.unit(), [Box.of((0, "2/5")), Box.of(("1/2", 1))])
        assert not report
        assert report.reason == "gap"
        (w,) = report.witness
        assert Fraction(2, 5) < w < Fraction(1, 2)

    def test_cell_outside(self):
        report = is_partition(Box.unit(), [Box.of((0, 2))])
        assert report.reason == "outside"

    def test_exactness_with_thirds(self):
        cells = [Box.of((0, "1/3")), Box.of(("1/3", "2/3")), Box.of(("2/3", 1))]
        assert is_partition(Box.unit(), cells)
        # shaving an exact sliver is detected, no float tolerance involved
        cells[1] = Box.of(("1/3", Fraction(2, 3) - Fraction(1, 10**30)))
        assert is_partition(Box.unit(), cells).reason == "gap"

    def test_2d(self, rng):
        part = random_dyadic_partition(Box.unit(2), rng)
        assert is_partition(part.parent, part.cells)

    def test_dimension_error(self):
        with pytest.raises(DimensionMismatchError):
            is_partition(Box.unit(), [Box.unit(2)])


class TestTaggedPartition:
    def test_tag_outside_rejected(self):
        with pytest.raises(ValueError):
            TaggedPartition(Box.unit(), [(HALVES[0], ("3/4",)), (HALVES[1], ("3/4",))])

    def test_serialization_round_trip(self):
        tp = cousin_partition(Box.unit(), Gauge.constant(0.3))
        again = TaggedPartition.from_json(Box.unit(), tp.to_json())
        assert again.items == tp.items


class TestCousin:
    def test_unit_gauge_bisects_once(self):
        tp = cousin_partition(Box.unit(), Gauge.constant(1.0))
        assert [c.intervals for c, _ in tp] == [
            Box.of((0, "1/2")).intervals, Box.of(("1/2", 1)).intervals
        ]
        assert tp.tags == ((Fraction(1, 4),), (Fraction(3, 4),))

    def test_gauge_03_gives_quarters(self):
        tp = cousin_partition(Box.unit(), Gauge.constant(0.3))
        assert len(tp) == 4
        widths = {c.intervals[0][1] - c.intervals[0][0] for c, _ in tp}
        assert widths == {Fraction(1, 4)}
        assert all(tag == cell.center for cell, tag in tp)

    def test_shrinking_gauge_refines_at_zero(self):
        gauge = Gauge.from_function(lambda x: max(x / 2, 1 / 64))
        tp = cousin_partition(Box.unit(), gauge)
        assert tp.is_fine(gauge)
        assert is_partition(Box.unit(), tp.cells)
        first = min(tp.cells, key=lambda c: c.intervals[0][0])
        assert first.intervals[0][1] - first.intervals[0][0] <= Fraction(1, 64)

    def test_budget_exceeded(self):
        with pytest.raises(GaugeBudgetError):
            cousin_partition(Box.unit(), Gauge.constant(1e-13), depth_budget=8)

    def test_2d_fine(self):
        gauge = Gauge.from_function(lambda p: 0.4 + p[0] / 4)
        tp = cousin_partition(Box.unit(2), gauge)
        assert is_partition(Box.unit(2), tp.cells)
        assert tp.is_fine(gauge)

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_expression_gauges_stay_fine(self, seed):
        rng = random.Random(900 + seed)
        floor = rng.choice([1 / 32, 1 / 64, 1 / 16])
        c = rng.uniform(0.1, 1.5)
        x0 = rng.uniform(0, 1)
        gauge = Gauge.from_function(lambda x: floor + c * (x - x0) ** 2)
        tp = cousin_partition(Box.unit(), gauge)
        assert is_partition(Box.unit(), tp.cells)
        assert tp.is_fine(gauge)
        rp = random_fine_partition(Box.unit(), gauge, random.Random(seed))
        assert is_partition(Box.unit(), rp.cells)
        assert rp.is_fine(gauge)

    def test_from_function_raises_the_callers_own_type_error(self):
        gauge = Gauge.from_function(lambda x: 0.1 if x < 0.5 else None + 1)
        assert gauge((Fraction(1, 4),)) == 0.1
        with pytest.raises(TypeError, match="NoneType"):
            gauge((Fraction(3, 4),))

    def test_deterministic(self):
        gauge = Gauge.from_function(lambda x: 0.2 + x / 3)
        a = cousin_partition(Box.unit(), gauge)
        b = cousin_partition(Box.unit(), gauge)
        assert a.items == b.items


class TestFsum:
    def test_order_free(self, rng):
        values = [rng.uniform(-1, 1) * 10**rng.randint(-8, 8) for _ in range(257)]
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert fsum(shuffled) == fsum(values) == math.fsum(values)
        assert fsum([]) == 0.0

    def test_non_finite_partials_give_inf_or_nan(self):
        assert fsum([1e308, 1e308]) == math.inf
        assert math.isnan(fsum([math.inf, -math.inf]))
        assert fsum([-math.inf, 1.0]) == -math.inf


class TestEnumeratePartitions:
    def test_single_interior_point(self):
        parts = list(enumerate_partitions(Box.unit(), ["0", "1/2", "1"]))
        assert len(parts) == 2
        assert [len(p) for p in parts] == [1, 2]

    def test_two_interior_points(self):
        parts = list(enumerate_partitions(Box.unit(), ["0", "1/3", "2/3", "1"]))
        assert len(parts) == 4

    def test_no_interior_points(self):
        parts = list(enumerate_partitions(Box.unit(), [0, 1]))
        assert len(parts) == 1
        assert parts[0].cells[0] == Box.unit()

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_count_is_two_to_k(self, k):
        grid = [Fraction(i, k + 1) for i in range(k + 2)]
        parts = list(enumerate_partitions(Box.unit(), grid))
        assert len(parts) == 2**k
        for p in parts:
            assert is_partition(Box.unit(), p.cells)
        # uniqueness
        seen = {tuple(c.intervals for c in p) for p in parts}
        assert len(seen) == 2**k

    def test_grid_must_contain_endpoints(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(Box.unit(), ["0", "1/2"]))

    def test_dimension_error(self):
        with pytest.raises(DimensionMismatchError):
            list(enumerate_partitions(Box.unit(2), [0, 1]))


class TestGauge:
    def test_strict_positivity_enforced(self):
        gauge = Gauge.from_function(lambda x: x)
        with pytest.raises(ValueError):
            gauge((0,))

    def test_piecewise_is_conservative(self):
        g = Gauge.piecewise_1d([(0, 0.5), ("1/2", 0.25), (1, 0.5)], floor=0.01)
        assert g(("1/4",)) == 0.25  # min of brackets
        assert g(("1/2",)) == 0.25
        assert g((0,)) == 0.5

    def test_a_nan_sample_is_rejected_by_its_x(self):
        # min(0.1, nan) is 0.1 but min(nan, 0.1) is nan: a nan sample read
        # as 0.1 on its left and failed on its right
        with pytest.raises(ValueError, match="nan value at x = 1/2$"):
            Gauge.piecewise_1d([(0, 0.1), ("1/2", math.nan), (1, 0.1)], floor=0.01)
        # a number in its place bounds both sides alike
        g = Gauge.piecewise_1d([(0, 0.1), ("1/2", 0.05), (1, 0.1)], floor=0.01)
        assert g(("3/8",)) == g(("5/8",)) == 0.05


def test_dyadic_helpers():
    cells = list(dyadic_cells(Box.unit(), 3))
    assert len(cells) == 8
    assert is_partition(Box.unit(), cells)
    grid = DyadicGrid(Box.unit(), 3)
    cell = grid.cell(3, grid.containing((Fraction(1, 3),), 3))
    lo, hi = cell.intervals[0]
    assert lo <= Fraction(1, 3) <= hi
    assert hi - lo == Fraction(1, 8)
    # a cut goes to the cell on its high side, the top edge to the last cell
    assert grid.containing((Fraction(1, 4),), 3) == (2,)
    assert grid.containing((Fraction(1),), 3) == (7,)
    assert grid.containing((Fraction(0),), 3) == (0,)
    with pytest.raises(ValueError, match="outside"):
        grid.containing((Fraction(9, 8),), 3)
    box = Box.of((0, "3/4"), ("1/5", 1))
    grid = DyadicGrid(box, 2)
    assert grid.containing((Fraction(3, 8), Fraction(1)), 2) == (2, 3)
    assert grid.cell(1, (1, 0)) == Box.of(("3/8", "3/4"), ("1/5", "3/5"))


@settings(max_examples=80, deadline=None)
@given(st.fractions(min_value=0, max_value=1), st.fractions(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=6))
def test_dyadic_cell_contains_point(u, v, depth):
    box = Box.of(("-1/3", "5/7"), (2, "9/4"))
    (a, b), (c, d) = box.intervals
    point = (a + u * (b - a), c + v * (d - c))
    grid = DyadicGrid(box, depth)
    js = grid.containing(point, depth)
    cell = grid.cell(depth, js)
    assert cell.contains(point)
    assert cell.volume == box.volume / 4**depth
    # the high side of a cut: the cell's top face holds the point only on
    # the box's top edge
    for x, (_, hi), (_, top) in zip(point, cell.intervals, box.intervals):
        assert x < hi or hi == top


@settings(max_examples=400, deadline=None)
@given(
    st.integers(-600, 600),
    st.lists(st.tuples(st.integers(0, 40), st.integers(-3, 3)),
             min_size=1, max_size=2),
    st.integers(0, 7),
)
def test_diam_lt_is_the_exact_test(k, axes, which):
    # dyadic cells of side 2^-k from 2^600 down to 2^-600, so the squared
    # diameter ranges over normal, subnormal, zero and overflowing floats;
    # in 2-D the second side is 2^-(k+offset), so the squared diameter is
    # often a float that the square of a float near the diameter rounds
    # to.  delta is at or next to the diameter, or 0, a subnormal or inf.
    sides = [Fraction(2) ** -(k + offset) for offset, _ in axes]
    cell = Box(tuple((j * side, (j + 1) * side)
                     for side, (_, j) in zip(sides, axes)))
    near = math.hypot(*(math.ldexp(1.0, -(k + offset)) for offset, _ in axes))
    down, up = math.nextafter(near, 0.0), math.nextafter(near, math.inf)
    deltas = [near, down, up, math.nextafter(down, 0.0),
              math.nextafter(up, math.inf), 0.0, 5e-324, math.inf]
    delta = deltas[which]
    exact = math.isinf(delta) or cell.diameter_sq < Fraction(delta) ** 2
    assert _diam_lt(cell, delta) == exact
