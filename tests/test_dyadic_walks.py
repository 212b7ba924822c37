"""The integer-index dyadic walks against the Box recursions they replace.

`delta_variation_dp_tables`, `cousin_partition` and `random_fine_partition`
walk dyadic cells by integer index (`intervals.DyadicGrid`).  The reference
recursions below are the `Box.bisect` code they replaced; every table, psi
call and partition item must come out the same, and in the same order.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from gaugecalc import (
    Box,
    Gauge,
    GaugeBudgetError,
    cousin_partition,
    delta_variation_dp_tables,
    random_fine_partition,
)
from gaugecalc.intervals import DEPTH_BUDGET_DEFAULT, _diam_lt, fsum


def ref_dp_tables(psi, box, gauges, depth):
    tables = [{} for _ in gauges]

    def rec(cell, d):
        bests = [-math.inf] * len(tables)
        for t in (cell.center, *cell.corners()):
            fine = [i for i, g in enumerate(gauges) if _diam_lt(cell, g(t))]
            if fine:
                v = abs(psi(cell, t))
                for i in fine:
                    bests[i] = max(bests[i], v)
        if d < depth:
            subs = [rec(child, d + 1) for child in cell.bisect()]
            bests = [max(b, fsum(s)) for b, s in zip(bests, zip(*subs))]
        for table, best in zip(tables, bests):
            table[cell] = best
        return bests

    rec(box, 0)
    return tables


def ref_cousin(box, gauge, depth_budget=DEPTH_BUDGET_DEFAULT):
    items = []

    def descend(cell, depth):
        for tag in (cell.center, *cell.corners()):
            if _diam_lt(cell, gauge(tag)):
                items.append((cell, tag))
                return
        if depth >= depth_budget:
            raise GaugeBudgetError(cell, depth)
        for child in cell.bisect():
            descend(child, depth + 1)

    descend(box, 0)
    return tuple(items)


def ref_random(box, gauge, rng):
    items = []

    def descend(cell, depth):
        candidates = [
            t for t in (cell.center, *cell.corners()) if _diam_lt(cell, gauge(t))
        ]
        may_split = depth < DEPTH_BUDGET_DEFAULT
        if candidates and not (may_split and rng.random() < 0.35):
            items.append((cell, candidates[rng.randrange(len(candidates))]))
            return
        if not may_split:
            raise GaugeBudgetError(cell, depth)
        for child in cell.bisect():
            descend(child, depth + 1)

    descend(box, 0)
    return tuple(items)


BOX_1D = Box.of(("1/3", "17/32"))
BOX_2D = Box.of((0, "3/4"), ("1/5", 1))


def gauges_for(box):
    """Constant, piecewise and function gauges.  To depth 5, the third
    leaves every cell -inf (no fine configuration), and the last leaves
    some cells -inf and others finite."""
    gauges = [
        Gauge.constant(0.3),
        Gauge.constant(2.0**-4),
        Gauge.constant(2.0**-9),
    ]
    if box.dim == 1:
        gauges += [
            Gauge.piecewise_1d([("1/3", 0.2), ("2/5", 0.01), ("1/2", 0.05),
                                ("17/32", 0.3)], floor=2.0**-12),
            Gauge.from_function(lambda x: 0.002 if 0.4 < x < 0.45 else 0.06),
        ]
    else:
        gauges += [
            Gauge.from_function(lambda p: 0.1 + p[0] * p[1]),
            Gauge.from_function(lambda p: 0.001 if p[0] < 0.2 else 0.3),
        ]
    return gauges


def tag_psi(calls):
    def psi(cell, tag):
        calls.append((cell, tag))
        return float(cell.volume) ** 1.5 - 0.3 * float(sum(tag))

    return psi


@pytest.mark.parametrize("depth", range(6))
@pytest.mark.parametrize("box", [BOX_1D, BOX_2D], ids=["1d", "2d"])
def test_dp_tables_and_psi_calls_equal_the_recursion(box, depth):
    gauges = gauges_for(box)
    calls, ref_calls = [], []
    tables = delta_variation_dp_tables(tag_psi(calls), box, gauges, depth)
    expected = ref_dp_tables(tag_psi(ref_calls), box, gauges, depth)
    for table, ref in zip(tables, expected):
        assert list(table.items()) == list(ref.items())
    assert calls == ref_calls
    assert len(calls) == len(set(calls))
    assert all(v == -math.inf for v in tables[2].values())
    if depth == 5:
        assert -math.inf in tables[-1].values()
        assert max(tables[-1].values()) > -math.inf


@pytest.mark.parametrize("depth", [0, 3, 5])
def test_dp_with_one_gauge_per_table_equals_the_recursion(depth):
    for gauge in gauges_for(BOX_1D):
        calls, ref_calls = [], []
        table, = delta_variation_dp_tables(tag_psi(calls), BOX_1D, [gauge], depth)
        ref, = ref_dp_tables(tag_psi(ref_calls), BOX_1D, [gauge], depth)
        assert list(table.items()) == list(ref.items())
        assert calls == ref_calls


def deep_gauge(x0):
    """Shrinks linearly to 2^-30 at x0: cells next to x0 go below depth 24."""
    return Gauge.from_function(lambda x: max(abs(x - x0) / 2, 2.0**-30))


def partition_gauge(seed):
    if seed == 0:
        return deep_gauge(Fraction(5, 12))
    rng = random.Random(700 + seed)
    floor = rng.choice([2.0**-5, 2.0**-7, 2.0**-9])
    c = rng.uniform(0.1, 2.0)
    x0 = rng.uniform(1 / 3, 17 / 32)
    if seed % 3 == 0:
        return Gauge.piecewise_1d(
            [(Fraction(1, 3) + Fraction(i, 48), floor + c * abs(i / 48 - x0 + 1 / 3))
             for i in range(10)], floor=floor)
    return Gauge.from_function(lambda x: floor + c * (x - x0) ** 2)


@pytest.mark.parametrize("seed", range(20))
def test_partitions_equal_the_recursion(seed):
    gauge = partition_gauge(seed)
    tp = random_fine_partition(BOX_1D, gauge, random.Random(seed))
    assert tp.items == ref_random(BOX_1D, gauge, random.Random(seed))
    assert cousin_partition(BOX_1D, gauge).items == ref_cousin(BOX_1D, gauge)
    if seed == 0:
        width = Fraction(17, 32) - Fraction(1, 3)
        finest = min(hi - lo for (cell, _) in tp.items for lo, hi in cell.intervals)
        assert finest < width / 2**24


@pytest.mark.parametrize("gauge", gauges_for(BOX_2D)[:2] + gauges_for(BOX_2D)[3:4])
def test_2d_cousin_partition_equals_the_recursion(gauge):
    assert cousin_partition(BOX_2D, gauge).items == ref_cousin(BOX_2D, gauge)


def test_budget_error_names_the_same_cell():
    gauge = deep_gauge(Fraction(5, 12))
    with pytest.raises(GaugeBudgetError) as new:
        cousin_partition(BOX_1D, gauge, depth_budget=12)
    with pytest.raises(GaugeBudgetError) as ref:
        ref_cousin(BOX_1D, gauge, depth_budget=12)
    assert (new.value.cell, new.value.depth) == (ref.value.cell, ref.value.depth)


def counting(gauge, calls):
    return Gauge(lambda p: calls.append(p) or gauge(p), label="counted")


@pytest.mark.parametrize("box", [BOX_1D, BOX_2D], ids=["1d", "2d"])
def test_each_gauge_is_called_once_per_grid_point(box):
    depth = 4
    base = gauges_for(box)
    calls = [[] for _ in base]
    gauges = [counting(g, c) for g, c in zip(base, calls)]
    delta_variation_dp_tables(lambda cell, tag: 1.0, box, gauges, depth)
    # every candidate tag of every cell, and no point twice
    tags = set()
    for cell in ref_dp_tables(lambda cell, tag: 1.0, box, base[:1], depth)[0]:
        tags.update((cell.center, *cell.corners()))
    for c in calls:
        assert Counter(c).most_common(1)[0][1] == 1
        assert set(c) == tags
    # (the 2-D gauge of 0.001 would need 4^10 cells)
    for gauge in base[:2] + base[3:] if box.dim == 1 else base[:2] + base[3:4]:
        seen = []
        cousin_partition(box, counting(gauge, seen))
        assert len(seen) == len(set(seen))
        if box.dim == 1:
            seen.clear()
            random_fine_partition(box, counting(gauge, seen), random.Random(3))
            assert len(seen) == len(set(seen))


def test_a_huge_budget_changes_nothing():
    gauge = deep_gauge(Fraction(5, 12))
    assert cousin_partition(BOX_1D, gauge, depth_budget=10**9).items == \
        cousin_partition(BOX_1D, gauge).items


def test_a_nest_down_to_the_least_float_fits_under_any_budget():
    # only the cell at 0 is never fine, until its width 2^-1075 is below
    # the least positive float: the walk ends at depth 1075, past the
    # recursion limit of the old code
    gauge = Gauge.from_function(lambda x: max(0.9 * x, 5e-324))
    tp = cousin_partition(Box.unit(), gauge, depth_budget=10**9)
    first = min(cell.intervals[0] for cell, _ in tp.items)
    assert first == (0, Fraction(1, 2**1075))
    assert len(tp) == 1076 and tp.is_fine(gauge)
