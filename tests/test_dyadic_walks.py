"""The integer-index dyadic walks against the code they replace.

`delta_variation_dp_tables`, `cousin_partition`, `random_fine_partition`
and the tested family of `verify_mc_nd` and `gauge_from_control` walk
dyadic cells by integer index (`intervals.DyadicGrid`).  The references
below are the `Box.bisect` recursions and the `Box` translate-and-clip
family they replaced; every psi call, partition item, profile and gauge
value must come out the same, and in the same order, and every table cell
with the same bits.  Likewise the level-by-level forced grid of
`indefinite_hk` (`_Tree.force_grid`) against the leaf-by-leaf loop it
replaced: the same f calls, leaves, nests and table.  And the tables kept
as one float list per depth (`intervals.DyadicTable`) against the
Box-keyed dicts they replaced: the same cells and bits, iterated in one
order (by depth, then lexicographically).
"""

import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugecalc import (
    Box,
    Gauge,
    GaugeBudgetError,
    IntervalFunction,
    PointFunction,
    SuperadditiveFn,
    cousin_partition,
    delta_variation_dp_tables,
    random_fine_partition,
)
from gaugecalc import hk, indefinite_hk
from gaugecalc.calculus import check_monotone
from gaugecalc.hk import TagEvalError
from gaugecalc.mc import (NoGaugeError, _residuals, control_from_gauges, gauge_from_control,
                          verify_mc_nd)
from gaugecalc.intervals import DEPTH_BUDGET_DEFAULT, DyadicGrid, _diam_lt, dyadic_cells, fsum


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
        if candidates and not (may_split and rng.random() < 0.7 / 2**box.dim):
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
BOX_3D = Box.of((0, "3/4"), ("1/5", 1), ("-1/2", "1/4"))


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


def bits(mapping):
    """A table's cells and values, bit for bit, in an order of their own."""
    return sorted((cell.intervals, v.hex()) for cell, v in mapping.items())


def tag_psi(calls):
    def psi(cell, tag):
        calls.append((cell, tag))
        return float(cell.volume) ** 1.5 - 0.3 * float(sum(tag))

    return psi


RECURSION_CASES = [(box, d) for box in (BOX_1D, BOX_2D) for d in range(6)] + [
    (BOX_3D, d) for d in range(4)]


@pytest.mark.parametrize("box,depth", RECURSION_CASES,
                         ids=[f"{b.dim}d-{d}" for b, d in RECURSION_CASES])
def test_dp_tables_and_psi_calls_equal_the_recursion(box, depth):
    gauges = gauges_for(box)
    calls, ref_calls = [], []
    tables = delta_variation_dp_tables(tag_psi(calls), box, gauges, depth)
    expected = ref_dp_tables(tag_psi(ref_calls), box, gauges, depth)
    for table, ref in zip(tables, expected):
        assert bits(table) == bits(ref)
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
        assert bits(table) == bits(ref)
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


@pytest.mark.parametrize("seed", range(6))
def test_2d_random_partition_equals_the_recursion_and_stays_small(seed):
    # a split makes 4 cells with probability 0.7/4: 0.7 children per cell
    gauge = Gauge.constant(0.07)
    tp = random_fine_partition(BOX_2D, gauge, random.Random(seed))
    assert tp.items == ref_random(BOX_2D, gauge, random.Random(seed))
    assert 500 <= len(tp) <= 1000 and tp.is_fine(gauge)


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


def ref_tested_boxes(box, x, level, translates):
    """The depth-`level` cell holding x (the high side of a cut, the last
    cell on the top edge) and, when `translates`, its half-cell translates
    clipped to the box that still hold x."""
    pairs = []
    for c, (lo, hi) in zip(x, box.intervals):
        width = (hi - lo) / 2**level
        idx = min(int((c - lo) // width), 2**level - 1)
        pairs.append((lo + idx * width, lo + (idx + 1) * width))
    cell = Box(tuple(pairs))
    boxes = [cell]
    if translates and level >= 1:
        for shifts in itertools.product((-1, 0, 1), repeat=box.dim):
            if any(shifts):
                shifted = Box(tuple((lo + s * (hi - lo) / 2, hi + s * (hi - lo) / 2)
                                    for (lo, hi), s in zip(cell.intervals, shifts)))
                clipped = shifted.intersect(box)
                if clipped is not None and clipped.contains(x):
                    boxes.append(clipped)
    return boxes


def ref_residuals(F, f, G, Phi, box, x, level, translates=True):
    """The cell is read on the grid of `box`, as every reader on a grid
    reads a function (`on_grid`), and each translate as a lone Box."""
    fx, grid = f(x), DyadicGrid(box, level)
    cell, *others = ref_tested_boxes(box, x, level, translates)
    rows = [(cell, *(H.on_grid(grid)(*grid.key(cell)) for H in (F, G, Phi)))]
    rows += [(Q, F.value(Q), G.value(Q), Phi.value(Q)) for Q in others]
    return [(Q, abs(FQ - fx * GQ), PhiQ) for Q, FQ, GQ, PhiQ in rows]


def ref_profile(F, f, G, Phi, box, x, levels, translates=True):
    return tuple(max([0.0] + [num / den for _, num, den in
                              ref_residuals(F, f, G, Phi, box, x, k, translates)])
                 for k in levels)


def ref_gauge_value(F, f, G, Phi, box, x, eps, depth):
    worst = math.inf
    for level in range(depth + 1):
        for Q, num, den in ref_residuals(F, f, G, Phi, box, x, level):
            if not num < eps * den:
                if level == depth:
                    return f"box {Q}"
                worst = min(worst, Q.diameter)
    h = 1.0
    while h > worst:
        h *= 0.5
    return h


# corner-generated F, G and Phi evaluate off the dyadic grid, so the
# verifiers test the translates; the points sit on cuts, corners, edges
# and off the grid
FAMILY_CASES = {
    "1d": (BOX_1D, "x^3/3 - x^2/5", "x^2 - 2*x/5", "x^2",
           [(Fraction(1, 3),), (Fraction(17, 32),), (Fraction(13, 32),),
            (Fraction(83, 192),), (Fraction(2, 5),), (Fraction(9, 20),)]),
    "2d": (BOX_2D, "x1^2*x2/2 + x2^3", "x1 + x2/100", "x1*x2 + x1",
           [(Fraction(0), Fraction(1, 5)), (Fraction(3, 4), Fraction(1)),
            (Fraction(3, 8), Fraction(3, 5)), (Fraction(3, 16), Fraction(2, 5)),
            (Fraction(0), Fraction(7, 10)), (Fraction(3, 4), Fraction(2, 5)),
            (Fraction(1, 7), Fraction(2, 3))]),
}


def family_case(name):
    box, F, f, G, points = FAMILY_CASES[name]
    F = IntervalFunction.from_generator(PointFunction.from_expr(F, dim=box.dim))
    G = IntervalFunction.from_generator(PointFunction.from_expr(G, dim=box.dim))
    return box, F, PointFunction.from_expr(f, dim=box.dim), G, points


@pytest.mark.parametrize("p", [1, "1/2"])
@pytest.mark.parametrize("name", sorted(FAMILY_CASES))
def test_verify_mc_nd_profiles_equal_the_box_family(name, p):
    box, F, f, G, points = family_case(name)
    Phi = SuperadditiveFn.volume_power(p)
    levels = range(1, 8)
    verdict = verify_mc_nd(F, f, G, Phi, box, points, depth_levels=levels, tol=1e-2)
    expected = [ref_profile(F, f, G, Phi, box, x, levels) for x in points]
    assert [record.q for record in verdict.points] == expected
    # the translates are tested and change the profile
    assert any(len(ref_tested_boxes(box, x, 3, True)) > 1 for x in points)
    assert expected != [ref_profile(F, f, G, Phi, box, x, levels, False) for x in points]


GAUGE_EPS = [0.5, 0.02, 2e-3]


@pytest.mark.parametrize("eps", GAUGE_EPS)
@pytest.mark.parametrize("name", sorted(FAMILY_CASES))
def test_gauge_from_control_equals_the_box_family(name, eps):
    box, F, f, G, points = family_case(name)
    Phi = SuperadditiveFn.volume_power(1)
    depth = 6
    expected = [ref_gauge_value(F, f, G, Phi, box, x, eps, depth) for x in points]
    failures = [v for v in expected if isinstance(v, str)]
    if failures:
        with pytest.raises(NoGaugeError) as err:
            gauge_from_control(F, f, G, Phi, eps, points, depth, box)
        assert str(err.value).endswith(failures[0])
    else:
        gauge = gauge_from_control(F, f, G, Phi, eps, points, depth, box)
        assert [gauge.sample_values[tuple(map(float, x))] for x in points] == expected


@pytest.mark.parametrize("name", sorted(FAMILY_CASES))
def test_the_gauge_cases_reach_every_outcome(name):
    # eps = 0.5, 0.02, 2e-3: no box fails, some boxes fail, the finest fails
    box, F, f, G, points = family_case(name)
    Phi = SuperadditiveFn.volume_power(1)
    outcomes = []
    for eps in GAUGE_EPS:
        values = [ref_gauge_value(F, f, G, Phi, box, x, eps, 6) for x in points]
        outcomes.append("fails" if any(isinstance(v, str) for v in values)
                        else "refined" if min(values) < 1.0 else "coarse")
    assert outcomes == ["coarse", "refined", "fails"]


# ---------------------------------------------------------------------------
# the forced grid of `indefinite_hk`, level by level against leaf by leaf


class PerLeafTree(hk._Tree):
    """The forced grid as `_Tree.run` walked it before `_Tree.force_grid`: every
    leaf above `depth` refined in key order, level after level, through
    `refine` and `make_leaf`, one probe at a time (`probes` as it was before
    the tree took its probes in blocks: one `fast_eval`, then one G, per
    probe).

    One order differs, and the log of `recorded` is rearranged to match:
    `_Tree.force_grid` evaluates a level's edge-gap corners after all of
    that level's probes, not after each leaf's."""

    def __init__(self, *args):
        super().__init__(*args)
        self.corners = set()  # positions of edge-gap calls in the log

    def _edge_gap(self, key, s1, s2):
        start = len(self.f_eval.calls)
        gap = super()._edge_gap(key, s1, s2)
        self.corners.update(range(start, len(self.f_eval.calls)))
        return gap

    def probes(self, key, r, order=None):
        assert order is None
        out = []
        for k in self.geom.descendants(key, r):
            tagged = self.tagged(key) and k[1] == self.nest.cells[k[0]]
            tag = self.nest.floats if tagged else self.geom.center(k)
            self.evals += 1
            try:
                fv = self.f_eval(tag)
            except (ValueError, ArithmeticError) as e:
                raise TagEvalError(tag, self.geom.cell(*k), e) from e
            out.append(fv * self.g_eval(k))
        return out

    def force_grid(self, root, depth):
        prev, log = None, self.f_eval.calls
        while True:
            shallow = sorted((lf for lf in self.leaves.values() if lf.key[0] < depth),
                             key=lambda lf: lf.key)
            if not shallow:
                return prev
            self.update_nest()
            prev = self.total()[0]
            start = len(log)
            for leaf in shallow:
                self.refine(leaf)
            level = range(start, len(log))
            log[start:] = ([log[i] for i in level if i not in self.corners]
                           + [log[i] for i in level if i in self.corners])


def peak(x):
    return 0.0 if x == 1.0 else abs(x - 1.0) ** -0.5


def peak_2d(p):
    r2 = (p[0] - 0.75) ** 2 + (p[1] - 0.2) ** 2
    return 0.0 if r2 == 0.0 else r2 ** -0.25


# anchors at corners that a tree can hold: the upper end of the unit
# interval, and BOX_2D's corner that is high on x1 and low on x2
ANCHORED = {
    "peak": lambda: PointFunction.from_callable(
        peak, "peak", singular_points=(Fraction(1),)),
    "peak_2d": lambda: PointFunction.from_callable(
        peak_2d, "peak_2d", dim=2, singular_points=((Fraction(3, 4), Fraction(1, 5)),)),
}


def recorded(source, dim=1):
    """A point function that logs every tag the tree evaluates it at: each
    `fast_eval` call, and each tag of an expression's `eval_block` (any
    other function's block maps `fast_eval`, so its calls log themselves)."""
    f = ANCHORED[source]() if source in ANCHORED else PointFunction.resolve(source, dim)
    calls, fast, block = [], f.fast_eval, f.eval_block

    def logged(xs):
        calls.append(xs)
        return fast(xs)

    def logged_block(tags, out=None):
        calls.extend(tags)
        return block(tags, out)

    f.fast_eval, logged.calls = logged, calls
    if f.expr is not None:
        f.eval_block = logged_block
    return f, calls


def tree_state(tree, prev):
    """Everything the adaptive phase reads, with floats as their bits and
    each cell's ring in the nest, or None."""
    def ring(key):
        return None if tree.nest is None else tree.nest.ring(key)

    def probes(cache):
        return [(k, ring(k), v.hex()) for k, v in cache]

    leaves = [(lf.key, ring(lf.key), lf.value.hex(), lf.defect.hex(),
               *map(probes, tree.caches(lf)))
              for lf in tree.leaves.values()]
    live = sorted((neg, key) for neg, key in tree.heap if key in tree.leaves
                  and not tree.tagged(key) and -neg == tree.leaves[key].defect)
    tree.update_nest()
    nests = [(len(n.masses), n.correction.hex(), n.defect.hex(), n.key)
             for n in [tree.nest] if n is not None]
    rings = [([v.hex() for v in n.masses], [v.hex() for v in n.defects])
             for n in [tree.nest] if n is not None]
    return (None if prev is None else prev.hex(), tree.evals, leaves, live, nests, rings,
            tree.sum_values.hex(), tree.sum_defects.hex())


@functools.cache
def x2_table():
    """The exact increments of x^2 on the unit interval's dyadic cells to
    depth 9, as a table G."""
    exact = IntervalFunction.from_generator("x^2")
    cells = [c for d in range(10) for c in dyadic_cells(Box.unit(), d)]
    return IntervalFunction.table({c: exact.value(c) for c in cells}, Box.unit(), 9,
                                  name="x^2 table")


def resolve_G(G, dim):
    """None (the volume), a corner generator's source, or "x^2 table"."""
    return x2_table() if G == "x^2 table" else IntervalFunction.resolve(G, dim)


def forced_grid(cls, f, box, depth, G=None):
    tree = cls(f, resolve_G(G, box.dim), box, 10**7)
    root = tree.make_leaf((0, (0,) * box.dim))
    return tree_state(tree, tree.force_grid(root, depth) if depth > 0 else None)


def table_state(monkeypatch, cls, source, box, depth, tol, dim=1, G=None):
    f, calls = recorded(source, dim)
    with monkeypatch.context() as m:
        m.setattr(hk, "_Tree", cls)
        table = indefinite_hk(f, resolve_G(G, dim), box, depth=depth, tol=tol)
    return bits(table.entries), table.result, calls


FORCED_CASES = [
    *[("x^3-x/3", Box.unit(), d, 1e-9) for d in range(7)],
    ("x1^2*x2+x2/3", BOX_2D, 3, 1e-6),
    ("inv_sqrt", Box.unit(), 6, 1e-6),
    ("peak", Box.unit(), 4, 1e-6),
    ("peak_2d", BOX_2D, 2, 1e-2),
    # every composite sum of a constant agrees: the edge gap evaluates the corners
    ("5/4", BOX_1D, 5, 1e-9),
    # G other than the volume: a jump inside the box, and a table read by
    # index; each refines past its grid, and so does the 2-D quintic
    ("x^3-x/3", BOX_1D, 4, 1e-9, "heaviside_2/5"),
    ("x^3-x/3", Box.unit(), 3, 1e-6, "x^2 table"),
    ("x1^5*x2^3", BOX_2D, 2, 1e-6),
]


@pytest.mark.parametrize("source,box,depth,tol,G", [(*c, None)[:5] for c in FORCED_CASES],
                         ids=[f"{c[0]}-{c[1].dim}d-depth{c[2]}" + "".join(f"-{g}" for g in c[4:])
                              for c in FORCED_CASES])
def test_forced_grid_equals_the_per_leaf_loop(source, box, depth, tol, G, monkeypatch):
    runs = []
    for cls in (hk._Tree, PerLeafTree):
        f, calls = recorded(source, box.dim)
        runs.append((forced_grid(cls, f, box, depth, G), calls))
    assert runs[0] == runs[1]
    entries, result, calls = table_state(monkeypatch, hk._Tree, source, box, depth, tol,
                                         box.dim, G)
    assert (entries, result, calls) == table_state(monkeypatch, PerLeafTree, source, box,
                                                   depth, tol, box.dim, G)
    assert len(entries) == sum(2**(box.dim * d) for d in range(depth + 1))


def test_the_forced_cases_reach_edge_gaps_and_the_adaptive_phase():
    # the edge gap evaluates both corners of each of the constant's 63
    # leaves, on top of its 2^9 - 1 grid probes
    f, calls = recorded("5/4")
    result = indefinite_hk(f, None, BOX_1D, depth=5, tol=1e-9).result
    assert result.evaluations == len(calls) == 2**9 - 1 + 2 * 63
    # a nest, a cubic at a tight tol, the non-volume G and the 2-D quintic
    # refine past the grid from its caches
    for source, box, depth, tol, G in [("inv_sqrt", Box.unit(), 6, 1e-6, None),
                                       ("x^3-x/3", Box.unit(), 3, 1e-9, None),
                                       ("x^3-x/3", BOX_1D, 4, 1e-9, "heaviside_2/5"),
                                       ("x^3-x/3", Box.unit(), 3, 1e-6, "x^2 table"),
                                       ("x1^5*x2^3", BOX_2D, 2, 1e-6, None)]:
        result = indefinite_hk(source, resolve_G(G, box.dim), box, depth=depth, tol=tol).result
        assert result.max_depth > depth


def test_a_table_that_converges_on_its_grid_builds_no_probe_cache():
    # a roundtrip-style monotone quadratic at depth 10: 2^14 - 1 grid probes
    tree = hk._Tree(PointFunction.resolve("3/2*x - x^2/4"), IntervalFunction.length(),
                    Box.unit(), hk.EVAL_BUDGET_DEFAULT)
    result = tree.run(1e-10, min_depth=10)
    assert result.converged and result.max_depth == 10
    assert result.evaluations == 2**14 - 1 and len(tree.leaves) == 2**10
    assert all(lf.l2 is lf.l3 is lf.l4 is None for lf in tree.leaves.values())
    # refining a grid leaf builds its caches, as slices of the grid's probes
    leaf = tree.leaves[(10, (5,))]
    l2, l3, l4 = tree.caches(leaf)
    assert [k for k, _ in l4] == DyadicGrid(Box.unit(), 13).descendants(leaf.key, 3)
    assert [v for _, v in l2] == tree.grid_probes[0][10:12]


def test_a_failing_tag_mid_grid_raises_as_the_per_leaf_loop():
    bad = (2 * 77 + 1) / 2**9  # a depth-8 center, probed on the way to depth 6

    def spiky(x):
        if x == bad:
            raise ValueError("spike")
        return x * x

    errors = []
    for cls in (hk._Tree, PerLeafTree):
        f, calls = recorded(PointFunction.from_callable(spiky, "spiky"))
        with pytest.raises(TagEvalError) as err:
            forced_grid(cls, f, Box.unit(), 6)
        errors.append((str(err.value), err.value.tag, err.value.cell, calls))
    assert errors[0] == errors[1]
    assert errors[0][1] == (bad,) and errors[0][2] == Box.of(("77/256", "39/128"))
    assert errors[0][3][-1] == (bad,) and len(errors[0][3]) > 2**8


def _log_gap(x):
    if x <= 1 / 4096:
        raise ValueError("below the gap")
    return math.log(x - 1 / 4096)


@pytest.mark.parametrize("source", ["callable", "log(x-1/4096)"])
def test_a_failing_tag_past_the_root_raises_as_the_per_probe_reference(source, monkeypatch):
    # the run refines toward the log's blow-up until a probe is tagged below it
    errors = []
    for cls in (hk._Tree, PerLeafTree):
        f, calls = recorded(PointFunction.from_callable(_log_gap, "log_gap")
                            if source == "callable" else source)
        with monkeypatch.context() as m, pytest.raises(TagEvalError) as err:
            m.setattr(hk, "_Tree", cls)
            hk.hk_integrate(f, None, Box.unit(), tol=1e-9)
        errors.append((str(err.value), err.value.tag, err.value.cell, calls))
    if source != "callable":  # an expression's block logs every tag it is given
        errors = [e[:3] for e in errors]
    assert errors[0] == errors[1]
    # below the root's probes, which reach depth 3
    assert errors[0][1] <= (1 / 4096,) and errors[0][2].volume < Fraction(1, 8)


@pytest.mark.parametrize("run,depth,bad", [
    # the root's block three levels down reads G one level below its depth
    (lambda f, G: hk.hk_integrate(f, G, Box.unit(), tol=1e-6), 2, 15 / 16),
    # so does the first forced level of a table, four levels down
    (lambda f, G: indefinite_hk(f, G, Box.unit(), depth=1, tol=1e-6), 3, 31 / 32),
], ids=["integrate", "table"])
def test_a_shallow_table_G_wins_over_a_later_f_failure_in_its_block(run, depth, bad,
                                                                      monkeypatch):
    def spiky(x):
        if x == bad:
            raise ValueError("spike")
        return x * x

    G = indefinite_hk("x^3", None, Box.unit(), depth=depth, tol=1e-8)
    errors = []
    for cls in (hk._Tree, PerLeafTree):
        f, _ = recorded(PointFunction.from_callable(spiky, "spiky"))
        with monkeypatch.context() as m, pytest.raises(ValueError) as err:
            m.setattr(hk, "_Tree", cls)
            run(f, G)
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"G is a table of depth {depth}, ")
    assert errors[0].endswith(f"on [0,1/{2 ** (depth + 1)}], a depth-{depth + 1} cell")


@pytest.mark.parametrize("box", [BOX_1D, BOX_2D], ids=["1d", "2d"])
def test_descendants_and_centers_follow_children_and_center(box):
    grid = DyadicGrid(box, 12)
    key = (3, (5,) * box.dim)
    for r in range(4):
        keys = [key]
        for _ in range(r):
            keys = [c for k in keys for c in grid.children(k)]
        assert grid.descendants(key, r) == keys
        assert grid.centers(key, r) == [grid.center(k) for k in keys]


# ---------------------------------------------------------------------------
# tables as flat lists per depth, against the Box-keyed dicts they replaced


def box_dict_table(f, G, box, depth, tol):
    """`indefinite_hk`'s entries as it assembled them in a Box-keyed dict:
    the depth-`depth` cells in the tree's order, then each coarser level in
    index order."""
    f, G = hk._resolve(f, G, box)
    tree = hk._Tree(f, G, box, hk.EVAL_BUDGET_DEFAULT)
    tree.run(tol, min_depth=depth)
    corrections = {}
    if tree.nest is not None and tree.nest.correction:
        corrections[tree.nest.key] = tree.nest.correction
    groups = {}
    for (d, js), leaf in tree.leaves.items():
        groups.setdefault(tuple(j >> (d - depth) for j in js), []).append(
            leaf.value + corrections.get((d, js), 0.0))
    grid = DyadicGrid(box, depth)
    level = {js: fsum(vals) for js, vals in groups.items()}
    entries = {grid.cell(depth, js): v for js, v in level.items()}
    for d in range(depth - 1, -1, -1):
        level = {js: fsum([level[c] for _, c in grid.children((d, js))])
                 for js in sorted({tuple(j >> 1 for j in k) for k in level})}
        entries.update((grid.cell(d, js), v) for js, v in level.items())
    return entries


def ref_residual(f, G, F):
    """The residual psi as a closure over Boxes, f once per tag."""
    fx = {}

    def psi(cell, tag):
        if tag not in fx:
            fx[tag] = f(tag)
        return fx[tag] * G.value(cell) - F.value(cell)

    return psi




TABLE_CASES = [
    *[("x^3-x/3", BOX_1D, d, 1e-9) for d in range(7)],
    *[("x1^2*x2+x2/3", BOX_2D, d, 1e-6) for d in range(4)],
    # a nest whose correction goes to its host cell
    ("inv_sqrt", Box.unit(), 4, 1e-6),
]


@pytest.mark.parametrize("source,box,depth,tol", TABLE_CASES,
                         ids=[f"{c[0]}-{c[1].dim}d-depth{c[2]}" for c in TABLE_CASES])
def test_indefinite_table_equals_the_box_dict_assembly(source, box, depth, tol):
    table = indefinite_hk(source, None, box, depth=depth, tol=tol)
    expected = box_dict_table(source, None, box, depth, tol)
    assert len(table.entries) == len(expected)
    assert bits(table.entries) == bits(expected)
    assert table.entries == expected and expected == table.entries
    # a Box the grid did not build maps to the same cell
    for d in range(depth + 1):
        for cell in dyadic_cells(box, d):
            assert table.value(cell).hex() == expected[cell].hex()


def by_depth_cells(box, depth):
    """The dyadic cells of `box` to `depth`, by depth, then lexicographically."""
    return [cell for d in range(depth + 1)
            for cell in sorted(dyadic_cells(box, d), key=lambda c: c.intervals)]


@pytest.mark.parametrize("source,box,depth,tol", [("inv_sqrt", Box.unit(), 4, 1e-6),
                                                  ("x1^2*x2+x2/3", BOX_2D, 2, 1e-6)],
                         ids=["nest-1d", "2d"])
def test_every_table_iterates_by_depth_then_lexicographically(source, box, depth, tol):
    # a nest refined past the grid, and the tree's nested 2-D order, do not
    # reach the table's order
    expected = by_depth_cells(box, depth)
    indefinite = indefinite_hk(source, None, box, depth=depth, tol=tol).entries
    dp = delta_variation_dp_tables(lambda cell, tag: float(cell.volume), box,
                                   gauges_for(box), depth)
    given = {cell: float(i) for i, cell in enumerate(reversed(expected))}
    tables = [indefinite, *dp, IntervalFunction.table(given, box, depth).entries,
              SuperadditiveFn.table(given, box, depth).entries]
    for table in tables:
        assert list(table) == [cell for _, cell, _ in table.by_depth()] == expected
        assert list(table.items()) == [(cell, table[cell]) for cell in expected]
        assert list(table.values()) == [table[cell] for cell in expected]
    # check_monotone reports its failures in the same order
    negative = IntervalFunction.table({cell: -v - 1.0 for cell, v in given.items()},
                                      box, depth)
    verdict = check_monotone(negative, "1", [0.5])
    assert verdict.failures == [(cell, negative.value(cell)) for cell in expected]


def dp_case(box, depth):
    """(f, G, F) of a residual: in 1-D F is an indefinite table, in 2-D and
    3-D a table given as a Box-keyed dict of the exact increments of x1^2 x2
    and x1^2 x2 x3."""
    calls = []
    if box.dim == 1:
        f = PointFunction.from_callable(lambda x: calls.append(x) or 3 * x * x - 1 / 3,
                                        "3x^2-1/3")
        F = indefinite_hk("x^3-x/3", None, box, depth=depth, tol=1e-9)
        return f, IntervalFunction.length(), F, calls
    if box.dim == 3:
        f = PointFunction.from_callable(lambda p: calls.append(p) or p[0] * p[1] - p[2],
                                        "x1x2-x3", dim=3)
        exact = IntervalFunction.from_generator(PointFunction.from_expr("x1^2*x2*x3", dim=3))
    else:
        f = PointFunction.from_callable(lambda p: calls.append(p) or 2 * p[0] * p[1],
                                        "2x1x2", dim=2)
        exact = IntervalFunction.from_generator(PointFunction.from_expr("x1^2*x2", dim=2))
    cells = [c for d in range(depth + 1) for c in dyadic_cells(box, d)]
    F = IntervalFunction.table({c: exact.value(c) for c in cells}, box, depth)
    return f, IntervalFunction.volume(box.dim), F, calls


DP_CASES = [(BOX_1D, d) for d in range(7)] + [(BOX_2D, d) for d in range(6)] + [
    (BOX_3D, d) for d in range(4)]


@pytest.mark.parametrize("box,depth", DP_CASES,
                         ids=[f"{b.dim}d-depth{d}" for b, d in DP_CASES])
def test_dp_tables_equal_the_depth_first_box_dp(box, depth):
    gauges = gauges_for(box)
    f, G, F, calls = dp_case(box, depth)
    expected = ref_dp_tables(ref_residual(f, G, F), box, gauges, depth)
    ref_calls = calls[:]
    for psi in (hk.residual_cell_fn(f, G, F), ref_residual(f, G, F)):
        calls.clear()
        tables = delta_variation_dp_tables(psi, box, gauges, depth)
        assert [bits(t) for t in tables] == [bits(t) for t in expected]
        assert tables == expected
        assert calls == ref_calls  # f once per tag, in the same order


def test_box_lookups_and_their_key_errors():
    table = indefinite_hk("x^2", None, BOX_1D, depth=3, tol=1e-9)
    name = "indef(x^2) (depth 3)"
    (lo, hi), = BOX_1D.intervals
    deeper = dyadic_cells(BOX_1D, 4)
    w = (hi - lo) / 8  # a depth-3 cell; the second box below is a depth-2 cell moved by w
    for box in [Box.of((lo, (2 * lo + hi) / 3)), Box.of((lo + w, lo + 3 * w)),
                next(deeper), Box.unit(), Box.of((lo, hi), (0, 1))]:
        with pytest.raises(KeyError) as err:
            table.value(box)
        assert err.value.args == (f"{box} not in {name}",)
        assert box not in table.entries and table.entries.get(box) is None
    # a table given as a dict, with its first depth-3 cell missing
    missing, kept = Box.of((lo, lo + w)), Box.of((lo + w, lo + 2 * w))
    partial = {cell: v for cell, v in table.entries.items() if cell != missing}
    assert len(partial) == len(table.entries) - 1
    for make, text in [
            (lambda e: IntervalFunction.table(e, BOX_1D, 3, name="t"), "not in t (depth 3)"),
            (lambda e: SuperadditiveFn.table(e, BOX_1D, 3, name="phi"), "not in phi (depth 3)")]:
        given = make(partial)
        with pytest.raises(KeyError) as err:
            given.value(missing)
        assert err.value.args == (f"{missing} {text}",)
        assert bits(given.entries) == bits(partial) and given.entries == partial
        assert given.value(kept) == partial[kept]
    # a DP table answers [box] as a dict does
    dp, = delta_variation_dp_tables(lambda cell, tag: 1.0, BOX_1D, [Gauge.constant(1.0)], 2)
    with pytest.raises(KeyError) as err:
        dp[missing]
    assert err.value.args == (missing,)


def test_a_table_is_given_dyadic_cells_of_its_parent():
    for entries in [{Box.of(("1/3", "1/2")): 1.0}, {Box.unit(2): 1.0}]:
        with pytest.raises(ValueError, match="not a dyadic cell"):
            IntervalFunction.table(entries, BOX_1D, 3)
    # cells deeper than the depth are not cells of the table
    with pytest.raises(ValueError, match="to depth 0"):
        SuperadditiveFn.table({Box.of((0, "1/2")): 1.0}, Box.unit(), 0)
    # a dict allocates lists down to its deepest cell, not to the depth
    sparse = IntervalFunction.table({Box.unit(2): 2.0}, Box.unit(2), 12)
    assert len(sparse.entries.levels) == 1 and sparse.value(Box.unit(2)) == 2.0
    assert IntervalFunction.table({}, Box.unit(), 3).entries == {}


def test_a_wrapped_residual_psi_is_called_on_every_admitted_pair():
    # a psi wrapped as a tracer wraps it: functools.wraps copies the
    # instance's __dict__, so only the type tells the DP it may read by index
    f, G, F, _ = dp_case(BOX_1D, 5)
    gauges = gauges_for(BOX_1D)
    psi = hk.residual_cell_fn(f, G, F)
    seen = []

    @functools.wraps(psi)
    def traced(cell, tag):
        seen.append((cell, tag))
        return psi(cell, tag)

    assert vars(traced).items() >= vars(psi).items()
    tables = delta_variation_dp_tables(traced, BOX_1D, gauges, 5)
    ref_seen = []
    ref_psi = ref_residual(f, G, F)
    expected = ref_dp_tables(lambda c, t: ref_seen.append((c, t)) or ref_psi(c, t),
                             BOX_1D, gauges, 5)
    assert seen == ref_seen and len(seen) > 2**6
    assert [bits(t) for t in tables] == [bits(t) for t in expected]


def test_a_round_trip_builds_a_box_per_depth_at_most(monkeypatch):
    built = []
    post_init = Box.__post_init__
    monkeypatch.setattr(Box, "__post_init__", lambda self: built.append(self) or post_init(self))
    depth, unit = 10, Box.unit()
    table = indefinite_hk("3/2*x - x^2/4", None, unit, depth=depth, tol=1e-10)
    psi = hk.residual_cell_fn("3/2*x - x^2/4", IntervalFunction.length(), table)
    phi = control_from_gauges(psi, [Gauge.constant(0.5), Gauge.constant(0.25)], unit, depth)
    # the parent built 2 * 2047 (a Box per table cell)
    assert len(built) <= 2 * (depth + 1)
    # cumulative and a table G on the integration box read by index
    built.clear()
    F = hk.cumulative(table, 0)
    result = hk.hk_integrate("1", table, unit, tol=1e-9)
    assert built == []
    assert result.value == table.value(unit) == pytest.approx(F(1), abs=1e-14)
    assert len(phi.entries) == 2 ** (depth + 1) - 1


def test_the_residual_dp_takes_f_in_one_block():
    # the DP of a depth-10 round trip's to-control job: f at every admitted
    # tag in one eval_block call, in the order first admitted, and no
    # scalar call
    depth, unit = 10, Box.unit()
    f = PointFunction.from_expr("3/2*x - x^2/4")
    table = indefinite_hk(f, None, unit, depth=depth, tol=1e-10)
    blocks, scalars, block = [], [], f.eval_block
    f.eval_block = lambda tags, out=None: blocks.append(list(tags)) or block(tags, out)
    f.fast_eval = f.fn = lambda p: scalars.append(p)
    gauges = [Gauge.constant(0.5), Gauge.constant(0.25)]
    control_from_gauges(hk.residual_cell_fn(f, IntervalFunction.length(), table),
                        gauges, unit, depth)
    assert scalars == [] and len(blocks) == 1
    # the admitted tags of the recursion, first admissions in order
    admitted = []
    ref_dp_tables(lambda c, t: admitted.append((float(t[0]),)) or 0.0, unit, gauges, depth)
    assert blocks[0] == list(dict.fromkeys(admitted)) and len(blocks[0]) == 2 ** (depth + 1) + 1


def failing_at(x0, message, value=lambda x: 3 * x * x - 1 / 3):
    def fn(x):
        if x == x0:
            raise ZeroDivisionError(message)
        return value(x)
    return fn


def test_a_failing_f_raises_from_the_dp_as_from_the_recursion():
    # f fails at one admitted tag, the center of the depth-4 cell (4, 5)
    (lo, hi), = BOX_1D.intervals
    bad = float(lo + (hi - lo) * Fraction(11, 32))
    _, G, F, _ = dp_case(BOX_1D, 5)
    f = PointFunction.from_callable(failing_at(bad, "f at 11/32"), "f")
    gauges = gauges_for(BOX_1D)
    for psi, dp in [(hk.residual_cell_fn(f, G, F), delta_variation_dp_tables),
                    (ref_residual(f, G, F), ref_dp_tables)]:
        with pytest.raises(ZeroDivisionError, match="^f at 11/32$"):
            dp(psi, BOX_1D, gauges, 5)
    # f runs after the walk's gauge calls: a gauge that fails later in the
    # walk than f (the recursion's first f call is at the box's center)
    # raises first
    f = PointFunction.from_callable(failing_at(float(lo + hi) / 2, "f"), "f")
    gauges = [Gauge.constant(0.3), Gauge.from_function(failing_at(bad, "gauge", lambda x: 0.3))]
    with pytest.raises(ZeroDivisionError, match="^f$"):
        ref_dp_tables(ref_residual(f, G, F), BOX_1D, gauges, 5)
    with pytest.raises(ZeroDivisionError, match="^gauge$"):
        delta_variation_dp_tables(hk.residual_cell_fn(f, G, F), BOX_1D, gauges, 5)


@pytest.mark.parametrize("residual", [True, False], ids=["residual", "box psi"])
def test_every_gauge_read_comes_once_and_before_f_and_psi(residual):
    events = []
    f, G, F, _ = dp_case(BOX_1D, 4)
    if residual:
        f = PointFunction.from_callable(lambda x: events.append("f") or 3 * x * x - 1 / 3, "f")
        psi = hk.residual_cell_fn(f, G, F)
    else:
        def psi(cell, tag):
            events.append("psi")
            return float(cell.volume)
    gauges = [Gauge(lambda p, g=g, i=i: events.append((i, p)) or g(p))
              for i, g in enumerate(gauges_for(BOX_1D))]
    delta_variation_dp_tables(psi, BOX_1D, gauges, 4)
    reads = [e for e in events if isinstance(e, tuple)]
    assert len(reads) == len(set(reads)) and events[:len(reads)] == reads
    assert len(events) > len(reads)


def test_the_dp_reads_gauges_a_depth_at_a_time():
    # a gauge fails at the center of the depth-2 cell [0,1/4] ("deep") and
    # at the center of the depth-1 cell [1/2,1] ("shallow"); the depth-first
    # recursion reaches the first, the DP reads every depth-1 key before any
    # depth-2 key
    def fn(x):
        if x in (0.125, 0.75):
            raise ZeroDivisionError("deep" if x == 0.125 else "shallow")
        return 0.3

    gauges = [Gauge.constant(0.3), Gauge.from_function(fn)]
    with pytest.raises(ZeroDivisionError, match="^deep$"):
        ref_dp_tables(lambda cell, tag: 1.0, Box.unit(), gauges, 3)
    with pytest.raises(ZeroDivisionError, match="^shallow$"):
        delta_variation_dp_tables(lambda cell, tag: 1.0, Box.unit(), gauges, 3)


# ---------------------------------------------------------------------------
# tags as point keys: gauges read by key, and the tested family's cells by shift

KEY_BOXES = [Box.unit(), BOX_1D, Box.of(("1/5", 1)), Box.of(("-3/7", "5/2"))]
PARTITION_TOP = DEPTH_BUDGET_DEFAULT + 1  # the top depth of a partition walk's grid


@st.composite
def sampled_gauges(draw):
    """A box and a piecewise gauge on it.  Its samples sit on grid points
    to the partition grid's top, between grid points, outside the box, at
    one x twice, or alone."""
    box = draw(st.sampled_from(KEY_BOXES))
    (lo, hi), = box.intervals
    d = st.integers(0, PARTITION_TOP)
    on_grid = d.flatmap(lambda d: st.integers(0, 2**d).map(lambda j: Fraction(j, 2**d)))
    between = d.flatmap(lambda d: st.integers(0, 3 * 2**d - 1).map(
        lambda j: Fraction(3 * j + 1, 3 * 2**d)))
    outside = st.fractions(0, 5).filter(bool).flatmap(lambda u: st.sampled_from([-u, 1 + u]))
    us = draw(st.lists(st.one_of(on_grid, between, outside), min_size=1, max_size=8))
    us += draw(st.lists(st.sampled_from(us), max_size=2))  # the same x twice
    values = st.one_of(st.floats(1e-9, 10.0), st.sampled_from([0.0, -1.0, math.inf]))
    samples = [(lo + u * (hi - lo), draw(values)) for u in us]
    floor = draw(st.sampled_from([2.0**-12, 0.01, 0.3]))
    return box, Gauge.piecewise_1d(samples, floor=floor), samples


@settings(max_examples=60, deadline=None)
@given(sampled_gauges())
def test_a_gauge_reads_a_point_key_as_its_exact_tag(case):
    box, gauge, samples = case
    (lo, hi), = box.intervals
    grid = DyadicGrid(box, 12)
    for g in (gauge, Gauge.constant(samples[0][1] if samples[0][1] > 0 else 0.5)):
        read = g.on_grid(grid)
        assert all(read((k,)) == g(grid.tag((k,))) for k in range(2**12 + 1))
    # on the partition grid, the keys next to each sample and at the ends
    grid, n = DyadicGrid(box, PARTITION_TOP, [gauge]), 2**PARTITION_TOP
    keys = {0, 1, n - 1, n}
    for x, _ in samples:
        u = (x - lo) / (hi - lo) * n
        keys.update(k for k in range(math.floor(u) - 1, math.ceil(u) + 2) if 0 <= k <= n)
    read = gauge.on_grid(grid)
    assert all(read((k,)) == gauge(grid.tag((k,))) for k in keys)


@pytest.mark.parametrize("box", [BOX_1D, BOX_2D], ids=["1d", "2d"])
def test_the_tested_cells_are_the_top_cell_shifted(box):
    # points on cuts down to the top depth, 11 in 1-D, on the low and top
    # edges, and off the grid
    deepest = 10 if box.dim == 1 else 6
    coords = [[lo + (hi - lo) * u for u in (0, Fraction(1, 2), Fraction(5, 32),
                                            Fraction(3, 2**11), Fraction(1, 7), 1)]
              for lo, hi in box.intervals]
    volume = IntervalFunction.volume(box.dim)
    table = IntervalFunction.table({c: 1.0 for d in range(deepest + 1)
                                    for c in dyadic_cells(box, d)}, box, deepest)
    for F in (volume, table):  # translates or not
        grid, residuals = _residuals(F, volume, SuperadditiveFn.volume_power(1), box, deepest)
        for x in itertools.product(*coords):
            cells = [(k, Q) for k, Q, _, _ in residuals(x, 1.0, range(deepest + 1))
                     if Q[0] == k]
            assert cells == [(k, (k, [(j, j + 1) for j in grid.containing(x, k)]))
                             for k in range(deepest + 1)]
