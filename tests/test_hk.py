import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugecalc import (
    Box,
    Gauge,
    IntervalFunction,
    PointFunction,
    TaggedPartition,
    cumulative,
    delta_variation_bruteforce,
    delta_variation_dp,
    delta_variation_dp_table,
    delta_variation_dp_tables,
    hk_integrate,
    indefinite_hk,
    residual_cell_fn,
    riemann_sum,
    volume_power_cell_fn,
)
from gaugecalc import hk
from gaugecalc.hk import table_to_csv_rows
from gaugecalc.intervals import DyadicGrid, dyadic_cells

from conftest import midpoint_oracle, random_dyadic_partition


LENGTH = IntervalFunction.length()


def tagged(pairs):
    return TaggedPartition(Box.unit(), [(Box.of(c), t) for c, t in pairs])


HALVES_LEFT = [((0, "1/2"), "0"), (("1/2", 1), "1/2")]
HALVES_CENTER = [((0, "1/2"), "1/4"), (("1/2", 1), "3/4")]


class TestRiemannSum:
    def test_constant_telescopes(self):
        assert riemann_sum("1", LENGTH, tagged(HALVES_CENTER)) == 1.0

    def test_left_tags(self):
        assert riemann_sum("x", LENGTH, tagged(HALVES_LEFT)) == 0.25

    def test_center_tags(self):
        assert riemann_sum("x", LENGTH, tagged(HALVES_CENTER)) == 0.5

    def test_additive_table_telescopes(self, rng):
        # invariant: sums of an additive interval function collapse to
        # the parent value under every refinement
        G = IntervalFunction.from_generator("x^2/3+x/5")
        for _ in range(8):
            part = random_dyadic_partition(Box.unit(), rng)
            tp = TaggedPartition(Box.unit(), [(c, c.center) for c in part])
            assert riemann_sum("1", G, tp) == pytest.approx(
                G.value(Box.unit()), abs=1e-12
            )

    def test_sum_does_not_depend_on_cell_order(self, rng):
        G = IntervalFunction.from_generator("x^3")
        for _ in range(8):
            part = random_dyadic_partition(Box.unit(), rng, max_depth=7)
            items = [(c, c.center) for c in part]
            shuffled = list(items)
            rng.shuffle(shuffled)
            assert riemann_sum("sin(7*x)/(x+1/10)", G, shuffled) == riemann_sum(
                "sin(7*x)/(x+1/10)", G, TaggedPartition(Box.unit(), items)
            )

    def test_eval_error_reports_tag(self):
        from gaugecalc.hk import TagEvalError

        with pytest.raises(TagEvalError) as err:
            riemann_sum("1/x", LENGTH, tagged(HALVES_LEFT))
        assert "0.0" in str(err.value)

    @staticmethod
    def scalar_riemann_sum(f, G, items):
        """The sum tag by tag: f(tag), then G(cell), each failure named."""
        f, terms = PointFunction.resolve(f), []
        for cell, tag in items:
            try:
                terms.append(f(tag) * G.value(cell))
            except (ValueError, ArithmeticError) as e:
                raise hk.TagEvalError(tag, cell, e) from e
        return math.fsum(terms)

    def test_a_block_of_tags_fails_where_the_scalar_loop_fails(self):
        # f fails at 1/2 and at 3/4, and G = log-increments fails on a cell
        # at 0; a failure names the first (tag, cell) in the partition's order
        cells = [Box.of(("1/4", "1/2")), Box.of(("1/2", "3/4")), Box.of(("3/4", 1)),
                 Box.of((0, "1/4"))]
        tags = [(Fraction(1, 3),), (Fraction(1, 2),), (Fraction(3, 4),), (Fraction(0),)]
        bad_G = IntervalFunction.from_generator("log(x)")
        spiky = PointFunction.from_callable(
            lambda x: 1 / (x - 0.5) / (x - 0.75), "spiky")
        # (f, G, the order of the cells, the position of the first failure)
        cases = [("1/(x-1/2)/(x-3/4)", LENGTH, [0, 1, 2, 3], 1),  # f at 1/2, an expression
                 (spiky, LENGTH, [2, 1, 0, 3], 0),  # f at 3/4, a callable
                 ("1/(x-1/2)", bad_G, [3, 0, 1, 2], 0),  # G on the cell at 0, before f fails
                 ("x", bad_G, [2, 3], 1)]  # G only
        for f, G, order, first in cases:
            items = [(cells[i], tags[i]) for i in order]
            errors = []
            for run in (riemann_sum, self.scalar_riemann_sum):
                with pytest.raises(hk.TagEvalError) as err:
                    run(f, G, items)
                errors.append((err.value.tag, err.value.cell, str(err.value),
                               type(err.value.__cause__)))
            assert errors[0] == errors[1]
            assert errors[0][:2] == items[first][::-1]
        # with no failure the block gives the scalar loop's sum, bit for bit
        items = [(cells[i], tags[i]) for i in (2, 0, 1)]
        for f in ("sin(7*x)/(x+1/10)", "ite(x<1/2,x,2*x)"):
            assert riemann_sum(f, LENGTH, items) == self.scalar_riemann_sum(f, LENGTH, items)


class TestHkIntegrate:
    def test_2d_nest_deeper_than_41_levels(self):
        # the nest goes past depth 41, where a 2-D cell's volume 2^-2d
        # is below 2^-83
        f = PointFunction.from_callable(
            lambda p: (p[0] ** 2 + p[1] ** 2) ** -0.95 if p != (0.0, 0.0) else 0.0,
            "r^-1.9", dim=2, singular_points=((0, 0),),
        )
        result = hk_integrate(f, None, Box.unit(2), tol=1e-4, budget=120_000)
        assert not result.converged
        assert result.max_depth > 41

    def test_linear_exact(self):
        result = hk_integrate("2*x", LENGTH, Box.unit(), tol=1e-6)
        assert result.converged
        assert result.value == pytest.approx(1.0, abs=1e-6)

    def test_oscillating_derivative_matches_primitive_increment(self):
        F = PointFunction.builtin("hk_primitive")
        oracle = F((1,)) - F((0,))  # increment of the antiderivative
        result = hk_integrate("hk_derivative", LENGTH, Box.unit(), tol=1e-4)
        assert result.converged
        assert result.value == pytest.approx(oracle, abs=1e-4)
        assert result.evaluations <= 10**7

    def test_stieltjes_jump(self):
        G = IntervalFunction.heaviside("1/2")
        f = PointFunction.from_expr("x")
        oracle = f((0.5,)) * 1.0  # f continuous at the unit jump
        result = hk_integrate(f, G, Box.unit(), tol=1e-9)
        assert result.converged
        assert result.value == pytest.approx(oracle, abs=1e-9)

    def test_stieltjes_jump_at_an_end_that_is_not_a_float(self):
        # float(1/3) < 1/3, so read on the float end the jump of H at 1/3
        # fell outside [0, 1/3] and inside [1/3, 1]; G is read at the exact end
        G = IntervalFunction.heaviside("1/3")
        left = hk_integrate("x", G, Box.of((0, "1/3")), tol=1e-9)
        assert left.converged and abs(left.value - 1 / 3) <= 1e-9
        right = hk_integrate("x", G, Box.of(("1/3", 1)), tol=1e-9)
        assert right.converged and right.value == 0.0
        # the unit box's ends are floats: the same bits as reading G on them
        unit = hk_integrate("x", G, Box.unit(), tol=1e-9)
        assert (unit.value.hex(), unit.evaluations) == ("0x1.55555556eeeefp-2", 537)
        # in 2-D, the jump of x2 H(x1) on the box's high x1 face
        G2 = IntervalFunction.from_generator(PointFunction.from_expr("ite(x1<1/3,0,1)*x2"))
        face = hk_integrate("x2", G2, Box.of((0, "1/3"), (0, 1)), tol=1e-7)
        assert face.converged and face.value == pytest.approx(0.5, abs=1e-7)

    @pytest.mark.parametrize("g", ["x^2", "heaviside_1/3"])
    @pytest.mark.parametrize("ends", [("1/5", 1), (0, "1/3")], ids=["[1/5,1]", "[0,1/3]"])
    def test_a_1d_corner_g_is_the_increment_of_its_generator(self, g, ends):
        # g(b) - g(a) on every cell, g read exactly at an end whose float is
        # not the end, and on the float everywhere else: in the tree at the
        # box's ends and on the float grid, in G.value at the cell's ends
        box, gen = Box.of(ends), PointFunction.resolve(g)
        geom, G = DyadicGrid(box, 8), IntervalFunction.from_generator(gen)
        g_eval = hk._make_g_eval(G, geom)
        (lo, hi), = box.intervals

        def at(end, x):
            return gen.fast_eval((x,)) if x == end else float(gen.eval_exact((end,)))

        for d in range(9):
            for j in range(2**d):
                (a, b), = geom.bounds((d, (j,)))
                ga = at(lo, a) if j == 0 else gen.fast_eval((a,))
                gb = at(hi, b) if j + 1 == 2**d else gen.fast_eval((b,))
                assert g_eval((d, (j,))).hex() == (gb - ga).hex()
                (ea, eb), = geom.cell(d, (j,)).intervals
                gb, ga = at(eb, float(eb)), at(ea, float(ea))
                assert G.value(geom.cell(d, (j,))).hex() == (gb - ga).hex()

    def test_a_jump_at_a_cell_end_that_is_not_a_float(self):
        # float(1/3) < 1/3: read on the float end, H's jump at 1/3 fell
        # outside [0, 1/3] (0.0) and inside [1/3, 1] (1.0)
        H = IntervalFunction.heaviside("1/3")
        assert (H.value(Box.of((0, "1/3"))), H.value(Box.of(("1/3", 1)))) == (1.0, 0.0)
        cells = [(Box.of((0, "1/6")), "1/12"), (Box.of(("1/6", "1/3")), "1/3")]
        assert riemann_sum("x", H, cells) == 1 / 3

    def test_every_grid_reads_a_corner_g_as_the_tree(self):
        # on [0, 2/3] the corner 1/3 is inside the box: the tree, and the
        # delta-variation DP and mc through on_grid, read g on its float
        # (< 1/3), so the jump falls in [1/3, 2/3]; a lone Box is read
        # exactly at its own corners, so the jump falls in [0, 1/3]
        box, H = Box.of((0, "2/3")), IntervalFunction.heaviside("1/3")
        g_eval = hk._make_g_eval(H, DyadicGrid(box, hk.CHAIN_DEPTH_CAP + 3))
        grid = DyadicGrid(box, 8)
        read = H.on_grid(grid)
        for d in range(9):
            for j in range(2**d):
                assert g_eval((d, (j,))).hex() == read(d, (j,)).hex()
        assert [read(1, (j,)) for j in (0, 1)] == [0.0, 1.0]
        assert [H.value(grid.cell(1, (j,))) for j in (0, 1)] == [1.0, 0.0]
        assert read(0, (0,)) == H.value(box) == 1.0
        # so the residual of the tree's own table sees no jump at 1/3
        F = indefinite_hk("1", H, box, depth=3, tol=1e-9)
        psi = residual_cell_fn("1", H, F)
        assert delta_variation_dp(psi, box, Gauge.constant(1), 3) == 0.0

    def test_inv_sqrt(self):
        result = hk_integrate("inv_sqrt", LENGTH, Box.unit(), tol=1e-4)
        assert result.converged
        # oracle: increment of 2 sqrt(x)
        assert result.value == pytest.approx(2.0, abs=1e-4)

    def test_budget_exhaustion_flagged(self):
        result = hk_integrate("hk_derivative", LENGTH, Box.unit(), tol=1e-4,
                              budget=200)
        assert not result.converged
        assert result.evaluations >= 200

    def test_converged_error_estimate_below_tol(self):
        for tol in (1e-3, 1e-5):
            r = hk_integrate("sin(x)", LENGTH, Box.unit(), tol=tol)
            assert r.converged and r.error_estimate <= tol

    def test_self_consistency_tol_vs_tol_over_10(self):
        for f in ("exp(x)*sin(3*x)", "inv_sqrt"):
            t = 1e-4
            a = hk_integrate(f, LENGTH, Box.unit(), tol=t)
            b = hk_integrate(f, LENGTH, Box.unit(), tol=t / 10)
            assert a.converged and b.converged
            assert abs(a.value - b.value) <= 1.1 * t

    @pytest.mark.parametrize("expr", ["sin(x)", "exp(x)", "x^3-x/2+1/7"])
    def test_agrees_with_midpoint_oracle_on_smooth(self, expr):
        f = PointFunction.from_expr(expr)
        oracle = midpoint_oracle(lambda t: f((t,)), 0.0, 1.0)
        result = hk_integrate(f, LENGTH, Box.unit(), tol=1e-8)
        assert result.converged
        assert result.value == pytest.approx(oracle, abs=1e-8)

    def test_2d_volume(self):
        result = hk_integrate(
            PointFunction.from_expr("x1*x2", dim=2), None, Box.unit(2), tol=1e-8
        )
        assert result.converged
        assert result.value == pytest.approx(0.25, abs=1e-8)

    @pytest.mark.parametrize("f", ["x1^2+x2", "abs(x1-x2)"])
    @pytest.mark.parametrize("box", [Box.unit(2), Box.of((0, "3/4"), ("1/4", 1))])
    def test_2d_corner_generated_volume_is_the_volume(self, f, box):
        # the corner increments of x1*x2 on float bounds, against the
        # volume read from the grid: the same run
        G = IntervalFunction.from_generator(PointFunction.from_expr("x1*x2", dim=2))
        assert hk_integrate(f, G, box) == hk_integrate(f, IntervalFunction.volume(2), box)

    def test_result_json(self):
        import json

        r = hk_integrate("2*x", LENGTH, Box.unit(), tol=1e-6)
        data = json.loads(r.to_json())
        assert data["converged"] is True
        assert set(data) == {
            "value", "error_estimate", "evaluations", "max_depth", "converged"
        }

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            hk_integrate("x", LENGTH, Box.unit(), tol=0.0)

    def test_table_G_below_its_depth_names_the_depth(self):
        G = indefinite_hk("x^3", None, Box.unit(), depth=3, tol=1e-8)
        with pytest.raises(ValueError, match=r"table of depth 3.*\[0,1/16\], a depth-4 cell"):
            hk_integrate("x^2*sin(3*x)", G, Box.unit(), tol=1e-4)
        # within the table's depth the table is a G like any other
        G = indefinite_hk("x^3", None, Box.unit(), depth=6, tol=1e-10)
        result = hk_integrate("x^2", G, Box.unit(), tol=1e-1)
        assert result.max_depth <= 3 and result.value == pytest.approx(1 / 6, abs=1e-3)

    def test_rejects_variables_beyond_the_box(self):
        with pytest.raises(ValueError, match="2 variables"):
            hk_integrate("x2", None, Box.unit())
        with pytest.raises(ValueError, match="2 variables"):
            indefinite_hk("x", "x2", Box.unit(), depth=2)
        # fewer variables than the box has are fine
        assert hk_integrate("x1", None, Box.unit(2)).value == pytest.approx(0.5)

    def test_every_tagged_probe_is_its_pieces_corner_cell(self, monkeypatch):
        # 1/4 and 1/3 share cells down to depth 3; 1/3 is not dyadic, so a
        # float test could misplace it in cells deeper than about 53 levels
        anchors = (Fraction(1, 4), Fraction(1, 3))
        seen, probes, boxes = [], hk._Tree.probes, {}

        def recording(tree, key, r, order=None):
            # each probe's cell and the nest whose point f took as its tag
            tags, block = [], tree.f_block

            def logged(ts, out):
                tags.extend(ts)
                return block(ts, out)

            tree.f_block = logged
            try:
                out = probes(tree, key, r, order)
            finally:
                tree.f_block = block
            cells = tree.geom.descendants(key, r)
            boxes[tree.geom] = tree.geom.box.intervals[0]
            nest = tree.nest
            for i, tag in zip(order or range(len(cells)), tags):
                tagged = nest is not None and tag is nest.floats
                seen.append((tree.geom, cells[i], nest if tagged else None))
            return out

        monkeypatch.setattr(hk._Tree, "probes", recording)
        hk_integrate(_inv_sqrt_gaps(anchors), LENGTH, Box.unit(), tol=3e-7)
        assert sorted(boxes.values()) == [(0, Fraction(1, 4)), (Fraction(1, 4), Fraction(7, 24)),
                                          (Fraction(7, 24), Fraction(1, 3)), (Fraction(1, 3), 1)]
        # each anchor's coordinate in each piece's units, exact, as (a, p, q)
        rel = {}
        for geom, (lo, hi) in boxes.items():
            rel[geom] = [(a, r.numerator, r.denominator)
                         for a in anchors for r in [(a - lo) / (hi - lo)]]
        for geom, (d, (j,)), nest in seen:
            # exact closed-interval containment: at most one anchor, at a
            # corner of the piece, and only in the cell tagged there
            held = [a for a, p, q in rel[geom] if j * q <= p << d <= (j + 1) * q]
            assert len(held) == (nest is not None), (boxes[geom], d, j)
            if held:
                assert held[0] in boxes[geom], (boxes[geom], d, j)
                assert nest.floats == (float(held[0]),) and (j,) == nest.cells[d], (d, j)
        assert max(d for _, (d, _), nest in seen if nest is not None) > 53
        # past depth 53 the float of 1/3 lands in another cell
        third = Fraction(1, 3)
        assert any(math.floor(float(third) * 2**d) != math.floor(third * 2**d)
                   for d in range(54, hk.CHAIN_DEPTH_CAP + 4))


def test_anchors_in_every_depth_1_cell_do_not_converge_falsely():
    anchors = (Fraction(1, 4), Fraction(1, 3), Fraction(5, 7))

    def peaks(x):
        return sum(abs(x - float(a)) ** -0.5 for a in anchors if x != float(a))

    f = PointFunction.from_callable(peaks, "peaks", singular_points=anchors)
    exact = sum(2 * math.sqrt(a) + 2 * math.sqrt(1 - a) for a in anchors)
    result = hk_integrate(f, LENGTH, Box.unit(), tol=1e-3)
    assert not result.converged or abs(result.value - exact) <= 1e-3


def _inv_sqrt_gaps(anchors):
    """sum |x - a|^(-1/2) over the anchors, declared singular there; 0 at an
    anchor's float."""
    floats = [float(a) for a in anchors]

    def f(x):
        gaps = [abs(x - a) for a in floats]
        return 0.0 if 0.0 in gaps else sum(1.0 / math.sqrt(g) for g in gaps)

    return PointFunction.from_callable(f, "inv_sqrt_gaps", singular_points=anchors)


def _r_inv_sqrt(point):
    """|p - point|^(-1/2) in 2-D, declared singular at `point`."""
    cx, cy = map(float, point)

    def f(p):
        r2 = (p[0] - cx) ** 2 + (p[1] - cy) ** 2
        return 0.0 if r2 == 0.0 else 1.0 / math.sqrt(math.sqrt(r2))

    return PointFunction.from_callable(f, "r_inv_sqrt", dim=2, singular_points=(point,))


def _nest_text(out) -> str:
    """An `IntegralResult`, or a table and its run's result, bit for bit."""
    table, result = (out, out.result) if hasattr(out, "result") else (None, out)
    lines = [" ".join(str(v.hex() if isinstance(v, float) else v) for v in (
        result.value, result.error_estimate, result.evaluations, result.max_depth,
        result.converged))]
    if table is not None:
        lines += [f"{d} {cell} {v.hex()}" for d, cell, v in table.entries.by_depth()]
    return "\n".join(lines)


# sha256 of the runs of declared singular points, so a change to the nests
# that should move no bit shows every bit it moves; the integrands call only
# math.sqrt, which is correctly rounded, so no libm can move one
NEST_DIGESTS = [
    ("inv-sqrt-at-0", lambda: hk_integrate(
        _inv_sqrt_gaps((Fraction(0),)), LENGTH, Box.unit(), tol=1e-6),
     "f24de9af732bbf70aaa69561c88edb3bf39fa19f67153965e9d75c741404d3ba"),
    # points at the other corners of their boxes: the upper corner on one
    # axis and the lower on the other, the upper end of a table's box, and
    # an end that is not dyadic
    ("2d-r^-1/2-at-(1,0)", lambda: hk_integrate(
        _r_inv_sqrt((1, 0)), None, Box.unit(2), tol=1e-2),
     "52b11872be304062536a2a0e173badfe7786146d8fd476675711d567583a9477"),
    ("table-inv-sqrt-at-1", lambda: indefinite_hk(
        _inv_sqrt_gaps((1,)), None, Box.unit(), depth=4, tol=1e-6),
     "83226b0507073b55062886a96aec2d2290077146b94b7905264226ab8d390d2a"),
    ("inv-sqrt-at-1/3-on-[0,1/3]", lambda: hk_integrate(
        _inv_sqrt_gaps((Fraction(1, 3),)), LENGTH, Box.of((0, "1/3")), tol=1e-6),
     "eab04e272fe26bdffa465c9ca893f87d730db301898548215db877314cb4c905"),
    ("inv-sqrt-at-1/3", lambda: hk_integrate(
        _inv_sqrt_gaps((Fraction(1, 3),)), LENGTH, Box.unit(), tol=1e-6),
     "299908e11e45d92792ae594fb6c8ce51540e79fd94f47df1a36d8506ebcd0aa8"),
    # two points: four pieces, cut at 1/4, 7/24 and 1/3
    ("anchors-1/4-1/3", lambda: hk_integrate(
        _inv_sqrt_gaps((Fraction(1, 4), Fraction(1, 3))), LENGTH, Box.unit(), tol=1e-6,
        budget=20_000),
     "74b5a9aaaa08c71c2726115b9ca3c1ecdb82874e26859438f39fa0e31a83b7fe"),
    # a point inside a 2-D box: four pieces, each with the point at a corner
    ("2d-r^-1/2-on-a-cut", lambda: hk_integrate(
        _r_inv_sqrt((Fraction(1, 2), Fraction(1, 4))), None, Box.unit(2), tol=1e-2),
     "4009fe95873d6b08bd361132734faad7b6f4a3899588523d300b768fe1bdb22f"),
    ("table-anchors-1/4-1/3", lambda: indefinite_hk(
        _inv_sqrt_gaps((Fraction(1, 4), Fraction(1, 3))), None, Box.unit(), depth=5,
        tol=1e-5),
     "43ed8e7abfc73d03aa12802a23d74d1e68bcc8522e7b0e7b06a1b4b3c1fd23b9"),
    # a point at the centre: two pieces (uncut, the nest's defect was 0 at
    # once and the run returned 0, converged; the true value is 2*sqrt(2))
    ("centre-1/2", lambda: hk_integrate(
        _inv_sqrt_gaps((Fraction(1, 2),)), LENGTH, Box.unit(), tol=1e-6),
     "764280bb70dd16882ea5841afc609189efb68db2aa764a9add358ff9f295e41a"),
]


@pytest.mark.parametrize("case,digest", [c[1:] for c in NEST_DIGESTS],
                         ids=[c[0] for c in NEST_DIGESTS])
def test_nest_runs_are_pinned(case, digest):
    assert hashlib.sha256(_nest_text(case()).encode()).hexdigest() == digest


@pytest.mark.parametrize("corner", [c for dim in (1, 2, 3)
                                    for c in itertools.product((0, 1), repeat=dim)])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_cells_ring_is_the_depth_of_its_deepest_ancestor_at_the_corner(corner, data):
    # a cell below the corner cell of a drawn depth a, by any path
    d = data.draw(st.integers(0, hk.CHAIN_DEPTH_CAP + 3), label="depth")
    a = data.draw(st.integers(0, d), label="a")
    js = tuple(((1 << a) - 1) * c << (d - a) | data.draw(st.integers(0, (1 << (d - a)) - 1))
               for c in corner)
    box = Box.unit(len(corner))
    grid, point = DyadicGrid(box, hk.CHAIN_DEPTH_CAP + 3), tuple(map(Fraction, corner))
    up = d  # walk up the ancestors to the first with the point as its corner
    while any(ends[c] != p for ends, c, p in zip(
            grid.cell(up, tuple(j >> (d - up) for j in js)).intervals, corner, point)):
        up -= 1
    f = PointFunction.from_callable(lambda p: 0.0, "zero", dim=box.dim, singular_points=(point,))
    tree = hk._Tree(f, IntervalFunction.volume(box.dim), box, 1)
    assert tree.nest.ring((d, js)) == up >= a
    assert tree.tagged((d, js)) == (up == d)  # the one cell the point tags


def _gaps_primitive(anchors, x) -> float:
    """An antiderivative of `_inv_sqrt_gaps(anchors)` at the float of x."""
    x = float(x)
    return math.fsum(2 * math.copysign(math.sqrt(abs(x - a)), x - a) for a in map(float, anchors))


ANCHORS_3 = (Fraction(1, 4), Fraction(1, 3), Fraction(5, 7))
HK_PRIMITIVE = PointFunction.builtin("hk_primitive")
# declared points inside the box or at both its ends: uncut, the point at 1/2,
# the ends and hk_primitive returned 0.0, converged, after 15 evaluations
CUT_RUNS = [  # (id, f, G, box, tol, the integral)
    ("point-1/2", _inv_sqrt_gaps((Fraction(1, 2),)), LENGTH, Box.unit(), 1e-6,
     2 * math.sqrt(2)),
    ("points-0-and-1", _inv_sqrt_gaps((Fraction(0), Fraction(1))), LENGTH, Box.unit(), 1e-6,
     4.0),
    ("anchors-1/4-1/3-5/7", _inv_sqrt_gaps(ANCHORS_3), LENGTH, Box.unit(), 1e-3,
     _gaps_primitive(ANCHORS_3, 1) - _gaps_primitive(ANCHORS_3, 0)),
    # 2 * int_1^inf sin(t^2) / t^4 dt, by mpmath.quadosc
    ("hk_primitive-on-[-1,1]", "hk_primitive", LENGTH, Box.of((-1, 1)), 1e-6,
     0.4376803525377999),
    ("hk_derivative-on-[-1/2,1]", "hk_derivative", LENGTH, Box.of(("-1/2", 1)), 1e-3,
     HK_PRIMITIVE((1.0,)) - HK_PRIMITIVE((-0.5,))),
    # by mpmath.quad over the four pieces
    ("2d-r^-1/2-at-(1/2,1/4)", _r_inv_sqrt((Fraction(1, 2), Fraction(1, 4))), None,
     Box.unit(2), 1e-2, 1.6994359903351159),
]


@pytest.mark.parametrize("f,G,box,tol,exact", [c[1:] for c in CUT_RUNS],
                         ids=[c[0] for c in CUT_RUNS])
def test_runs_cut_at_declared_points_converge_within_tol(f, G, box, tol, exact):
    result = hk_integrate(f, G, box, tol=tol)
    assert result.converged
    assert abs(result.value - exact) <= tol


@pytest.mark.parametrize("depth", [0, 3, 5])
@pytest.mark.parametrize("anchors", [(Fraction(1, 2),), (Fraction(1, 3),), ANCHORS_3[:2]],
                         ids=["1/2", "1/3", "1/4-1/3"])
def test_tables_cut_at_declared_points_meet_tol_in_every_cell(anchors, depth):
    table = indefinite_hk(_inv_sqrt_gaps(anchors), None, Box.unit(), depth=depth, tol=1e-3)
    assert table.result.converged
    assert len(table.entries) == 2 ** (depth + 1) - 1
    for _, cell, value in table.entries.by_depth():
        (lo, hi), = cell.intervals
        assert abs(value - (_gaps_primitive(anchors, hi) - _gaps_primitive(anchors, lo))) <= 1e-3


def test_a_cut_run_at_the_budget_of_its_floor_spends_exactly_that():
    # the floor is the pieces' roots (15 probes each in 1-D, 85 in 2-D, 585
    # in 3-D) or the halves' forced grids; below it no f is evaluated
    calls = []

    def one(x):
        calls.append(x)
        return 1.0

    f3 = PointFunction.from_callable(one, "one", dim=3,
                                     singular_points=(ANCHORS_3[:1] * 3, ANCHORS_3[1:2] * 3))
    with pytest.raises(ValueError, match="the roots of 64 piece.s. take 37440 evaluations"):
        hk_integrate(f3, None, Box.unit(3), budget=1000)
    assert calls == []
    # (run at a budget, its floor, one refinement of each of its trees)
    for run, floor, refines in [
            (lambda b: hk_integrate(_inv_sqrt_gaps((Fraction(1, 2),)), LENGTH, Box.unit(),
                                    budget=b), 2 * 15, 2 * 16),
            (lambda b: hk_integrate(_r_inv_sqrt((Fraction(1, 2), Fraction(1, 4))), None,
                                    Box.unit(2), budget=b), 4 * 85, 4 * 256),
            # [0,1/2] at depth 2 cut at 1/3: its halves' grids 31 and 15 + 2 * 15
            (lambda b: indefinite_hk(_inv_sqrt_gaps((Fraction(1, 3),)), None, Box.unit(),
                                     depth=3, budget=b).result, 76 + 63, 5 * 16)]:
        with pytest.raises(ValueError, match=f"{floor} evaluations"):
            run(floor - 1)
        result = run(floor)
        assert result.evaluations == floor and not result.converged
        for budget in (floor + 1, 2 * floor, 10 * floor):
            assert run(budget).evaluations <= budget + refines
    # flat halves spend edge-gap corners past their share; the second half
    # still gets its own forced grid
    f = PointFunction.from_callable(lambda x: 1.0, "one", singular_points=(Fraction(1, 2),))
    assert len(indefinite_hk(f, None, Box.unit(), depth=3, budget=126).entries) == 2**4 - 1


def test_a_cut_table_counts_its_depth_from_its_box():
    # the halves of a depth-1 table of a point at 1/3 are depth-0 tables,
    # and the one that holds 1/3 is cut into two pieces
    table = indefinite_hk(_inv_sqrt_gaps((Fraction(1, 3),)), None, Box.unit(), depth=1,
                          tol=1e-3)
    halves = [indefinite_hk(_inv_sqrt_gaps((Fraction(1, 3),)), None, half, depth=0,
                            tol=5e-4) for half in Box.unit().bisect()]
    assert table.result.max_depth == 1 + max(t.result.max_depth for t in halves)


def test_a_nest_counts_its_tagged_cell_once_where_f_is_finite_at_its_point():
    # the nest's geometric tail estimates all the mass left in the tagged
    # cell, f(point) G(cell) included; counted again, a table of 1 read 1.0625
    one = PointFunction.from_callable(lambda x: 1.0, "one", singular_points=(Fraction(0),))
    assert indefinite_hk(one, None, Box.unit(), depth=2, budget=100).result.value == 1.0
    line = PointFunction.from_callable(lambda x: 1.0 + x, "1+x",
                                       singular_points=(Fraction(0),))
    for tol, bound, evals in [(1e-3, 4.8e-7, 213), (1e-6, 4.6e-13, 393), (1e-9, 0.0, 573)]:
        result = hk_integrate(line, LENGTH, Box.unit(), tol=tol)
        assert result.converged and result.evaluations == evals
        assert abs(result.value - 1.5) <= bound


def test_points_cut_at_a_small_budget_do_not_claim_convergence():
    # the run needs 10,204 evaluations; at 10,000 its pieces stop short
    f, anchors = _inv_sqrt_gaps(ANCHORS_3[:2]), ANCHORS_3[:2]
    assert not hk_integrate(f, LENGTH, Box.unit(), tol=1e-6, budget=10_000).converged
    result = hk_integrate(f, LENGTH, Box.unit(), tol=1e-6, budget=20_000)
    exact = _gaps_primitive(anchors, 1) - _gaps_primitive(anchors, 0)
    assert result.converged and abs(result.value - exact) <= 1e-6


def _exp_sin(points=()):
    """exp(x) sin(3x), smooth, declared singular at `points`."""
    return PointFunction.from_callable(lambda x: math.exp(x) * math.sin(3 * x), "exp_sin",
                                       singular_points=points)


EXP_SIN = (math.e * (math.sin(3) - 3 * math.cos(3)) + 3) / 10  # over [0,1]


@pytest.mark.parametrize("points,ratio", [
    ((Fraction(1, 3),), 5), ((Fraction(1, 5), Fraction(4, 5)), 5),
    # eight pieces at tol/8, each with its own nest: 3,098 evaluations against
    # 415 (ROADMAP item 18, one heap over the pieces, is to bring it near 415)
    ((Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(7, 9)), 8)],
    ids=["1/3", "1/5-4/5", "1/10-1/3-1/2-7/9"])
def test_a_smooth_f_declared_at_points_costs_a_few_undeclared_runs(points, ratio):
    # a round refines the nest alone once the regular leaves are under their
    # share, so their rounds stop when they converge, not when the nest does
    plain = hk_integrate(_exp_sin(), LENGTH, Box.unit(), tol=1e-6, budget=100_000)
    result = hk_integrate(_exp_sin(points), LENGTH, Box.unit(), tol=1e-6, budget=100_000)
    assert result.converged and abs(result.value - EXP_SIN) <= 1e-6
    assert result.evaluations <= ratio * plain.evaluations


def test_inv_sqrt_at_tol_1e_8_converges_within_1e5_evaluations():
    result = hk_integrate("inv_sqrt", LENGTH, Box.unit(), tol=1e-8, budget=100_000)
    assert result.converged and abs(result.value - 2.0) <= 1e-8


def _at_0(g, name):
    """g, declared singular at 0; 0 at 0."""
    return PointFunction.from_callable(lambda x: 0.0 if x == 0.0 else g(x), name,
                                       singular_points=(0,))


def _powers(*ps):
    """sum x^-p over `ps`, declared singular at 0; 0 at 0."""
    return _at_0(lambda x: math.fsum(x ** -p for p in ps), "powers")


DECLARED_BATTERY = [  # (id, f, the integral over [0,1])
    *[(f"x^-{p:.3g}", _powers(p), 1 / (1 - p)) for p in (0.5, 0.6, 2 / 3, 0.75, 0.9, 0.95)],
    ("x^-0.6+x^-0.55", _powers(0.6, 0.55), 1 / 0.4 + 1 / 0.45),
    ("3+x^-0.95", _at_0(lambda x: 3.0 + x ** -0.95, "3+x^-0.95"), 23.0),
    ("-log(x)/sqrt(x)", _at_0(lambda x: -math.log(x) / math.sqrt(x), "-log(x)/sqrt(x)"), 4.0),
    ("|x-1/3|^-1/2", _inv_sqrt_gaps((Fraction(1, 3),)),
     2 * math.sqrt(1 / 3) + 2 * math.sqrt(2 / 3)),
    ("1+x-at-1/2", PointFunction.from_callable(lambda x: 1.0 + x, "1+x",
                                               singular_points=(Fraction(1, 2),)), 1.5),
]


@pytest.mark.parametrize("tol", [1e-4, 1e-7])
@pytest.mark.parametrize("f,exact", [c[1:] for c in DECLARED_BATTERY],
                         ids=[c[0] for c in DECLARED_BATTERY])
def test_declared_points_converge_only_within_tol(f, exact, tol):
    result = hk_integrate(f, LENGTH, Box.unit(), tol=tol, budget=100_000)
    assert not result.converged or abs(result.value - exact) <= tol


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="declared x^-0.95 at tol 1e-4 spends its budget of 1e5 with "
                   "error_estimate 1.12 against an error of 3.54: _Nest.decay clamps the "
                   "ring ratio at 0.9, and these rings shrink by 2^-0.05 ~ 0.966; "
                   "ROADMAP item 3 (an honest tail)")
def test_a_slowly_shrinking_nest_stops_with_an_honest_error_estimate():
    result = hk_integrate(_powers(0.95), LENGTH, Box.unit(), tol=1e-4, budget=100_000)
    assert result.error_estimate >= abs(result.value - 20.0)


class TestIndefinite:
    def test_constant_depth_1(self):
        table = indefinite_hk("1", LENGTH, Box.unit(), depth=1, tol=1e-9)
        assert table.value(Box.of((0, "1/2"))) == pytest.approx(0.5, abs=1e-9)
        assert table.value(Box.of(("1/2", 1))) == pytest.approx(0.5, abs=1e-9)
        assert table.value(Box.unit()) == pytest.approx(1.0, abs=1e-9)

    def test_2x_depth_1(self):
        table = indefinite_hk("2*x", LENGTH, Box.unit(), depth=1, tol=1e-9)
        assert table.value(Box.of((0, "1/2"))) == pytest.approx(0.25, abs=1e-9)
        assert table.value(Box.of(("1/2", 1))) == pytest.approx(0.75, abs=1e-9)

    def test_inv_sqrt_depth_0(self):
        table = indefinite_hk("inv_sqrt", LENGTH, Box.unit(), depth=0, tol=1e-4)
        assert table.value(Box.unit()) == pytest.approx(2.0, abs=1e-4)

    def test_parents_equal_children_sums_exactly(self):
        table = indefinite_hk("sin(x)", LENGTH, Box.unit(), depth=5, tol=1e-8)
        for d in range(5):
            for cell in dyadic_cells(Box.unit(), d):
                kids = cell.bisect()
                assert table.value(cell) == pytest.approx(
                    table.value(kids[0]) + table.value(kids[1]), abs=1e-12
                )

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            indefinite_hk("x", LENGTH, Box.unit(), depth=25)

    def test_budget_below_the_forced_grid_raises_before_evaluating(self):
        calls = []
        f = PointFunction.from_callable(lambda x: calls.append(x) or x, "x")
        # the forced grid probes each cell of depths 0..depth+3 once:
        # 2^14 - 1 = 16,383 cells at depth 10 in 1-D, 4^18 / 3 in 2-D
        with pytest.raises(ValueError, match="16383 evaluations"):
            indefinite_hk(f, LENGTH, Box.unit(), depth=10, budget=16_382)
        with pytest.raises(ValueError, match="depth 14 takes 22906492245 evaluations"):
            indefinite_hk("x1", None, Box.unit(2), depth=14, budget=100)
        assert calls == []
        table = indefinite_hk(f, LENGTH, Box.unit(), depth=10, budget=16_383)
        assert len(table.entries) == 2**11 - 1 and calls

    def test_cumulative(self):
        table = indefinite_hk("2*x", LENGTH, Box.unit(), depth=4, tol=1e-10)
        F = cumulative(table, 0)
        assert F(Fraction(1, 2)) == pytest.approx(0.25, abs=1e-9)
        assert F(1) == pytest.approx(1.0, abs=1e-9)
        F_half = cumulative(table, Fraction(1, 2))
        assert F_half(Fraction(1, 4)) == pytest.approx(-0.1875, abs=1e-9)
        with pytest.raises(ValueError):
            F(0.3)  # not a grid point

    def test_cumulative_increments_are_correctly_rounded_sums(self):
        # a running float prefix gave 0.6666666666666651 here
        table = indefinite_hk("3/2*x - x^2/4", LENGTH, Box.unit(), depth=10, tol=1e-10)
        cells = [table.entries.at(10, (i,)) for i in range(2**10)]
        F = cumulative(table, 0)
        assert F(1) == math.fsum(cells) == 0.6666666666666666
        rng = random.Random(12)
        for _ in range(200):
            a, b = sorted(rng.sample(range(2**10 + 1), 2))
            Fa = cumulative(table, Fraction(a, 2**10))
            assert Fa(Fraction(b, 2**10)) == math.fsum(cells[a:b])
            assert Fa(Fraction(a, 2**10)) == 0.0

    def test_cumulative_names_a_cell_that_is_not_finite(self):
        cells = {c: 1.0 for c in dyadic_cells(Box.unit(), 2)}
        cells[Box.of(("1/2", "3/4"))] = math.inf
        table = IntervalFunction.table(cells, Box.unit(), 2, name="t")
        with pytest.raises(ValueError, match=r"t is inf on \[1/2,3/4\], not finite"):
            cumulative(table, 0)

    def test_quadratic_stops_at_its_grid_depth(self):
        # the depth-9 and depth-10 grids are the two successive sums of the
        # convergence test, so no leaf is refined past the grid: cells at
        # depths 0-13 (the grid and three probe levels), each probed once
        table = indefinite_hk("x^2+x", LENGTH, Box.unit(), depth=10, tol=1e-10)
        result = table.result
        assert result.converged
        assert result.max_depth == 10
        assert result.evaluations == 2**14 - 1

        def P(x):
            return x**3 / 3 + x**2 / 2

        assert len(table.entries) == 2**11 - 1
        for cell, value in table.entries.items():
            (lo, hi), = cell.intervals
            assert abs(value - (P(float(hi)) - P(float(lo)))) <= 1e-10

    def test_singular_nest_under_a_forced_grid(self):
        table = indefinite_hk("inv_sqrt", LENGTH, Box.unit(), depth=6, tol=1e-6)
        assert table.result.converged
        assert table.result.evaluations == 2_415
        assert table.value(Box.unit()) == pytest.approx(1.999999999661208,
                                                        rel=1e-15)

    @pytest.mark.parametrize("expr,exact", [
        ("sin(x)", 1 - math.cos(1)),
        ("sin(5*x)", (1 - math.cos(5)) / 5),
        ("sin(13*x)", (1 - math.cos(13)) / 13),
        ("sin(40*x)", (1 - math.cos(40)) / 40),
        ("abs(x-1/3)", 5 / 18),
        ("ite(x<5/7,1,2)", 9 / 7),
        ("1/(1+25*(x-1/2)^2)", 0.4 * math.atan(2.5)),
        ("exp(x)", math.e - 1),
        ("3*x^2-2*x+1", 1.0),
    ])
    def test_converged_tables_meet_tol(self, expr, exact):
        for depth in (0, 1, 3, 6):
            for tol in (1e-6, 1e-9):
                table = indefinite_hk(expr, LENGTH, Box.unit(), depth=depth,
                                      tol=tol)
                if table.result.converged:
                    err = abs(table.value(Box.unit()) - exact)
                    assert err <= tol, (depth, tol, err)

    def test_csv_rows(self):
        table = indefinite_hk("1", LENGTH, Box.unit(), depth=1, tol=1e-9)
        rows = table_to_csv_rows(table)
        assert rows[0] == ["depth", "lo1", "hi1", "value"]
        assert rows[1] == ["0", "0", "1", "1.0"]
        assert rows[2][:3] == ["1", "0", "1/2"]


INF_GAUGE = Gauge.constant(math.inf)


class TestDeltaVariationBruteforce:
    def test_zero(self):
        psi = volume_power_cell_fn(0.0, 1)
        grid = [0, "1/2", 1]
        assert delta_variation_bruteforce(psi, Box.unit(), INF_GAUGE, grid) == 0.0

    def test_volume_telescopes(self):
        psi = volume_power_cell_fn(1.0, 1)
        grid = [0, "1/4", "1/2", "3/4", 1]
        assert delta_variation_bruteforce(psi, Box.unit(), INF_GAUGE, grid) == 1.0

    def test_squared_volume_prefers_coarse(self):
        psi = volume_power_cell_fn(1.0, 2)
        grid = [0, "1/2", 1]
        assert delta_variation_bruteforce(psi, Box.unit(), INF_GAUGE, grid) == 1.0

    def test_no_fine_configuration_sentinel(self):
        psi = volume_power_cell_fn(1.0, 1)
        tiny = Gauge.constant(1e-6)
        value = delta_variation_bruteforce(psi, Box.unit(), tiny, [0, "1/2", 1])
        assert value == -math.inf

    def test_tag_dependent(self):
        # Psi depends on the tag: only admissible tags may be used
        def psi(box, tag):
            return float(box.volume) * float(tag[0])

        grid = [0, "1/2", 1]
        value = delta_variation_bruteforce(psi, Box.unit(), INF_GAUGE, grid)
        assert value == 1.0  # whole box tagged at 1


class TestDeltaVariationDP:
    def test_zero(self):
        psi = volume_power_cell_fn(0.0, 2)
        assert delta_variation_dp(psi, Box.unit(), INF_GAUGE, 3) == 0.0

    def test_squared_volume_coarse_wins(self):
        psi = volume_power_cell_fn(1.0, 2)
        assert delta_variation_dp(psi, Box.unit(), INF_GAUGE, 3) == 1.0

    def test_agrees_with_bruteforce_on_dyadic_grids(self):
        rng = random.Random(4)
        for trial in range(12):
            m = rng.choice([1, 2])
            t = rng.randint(0, m)
            u = rng.uniform(0.01, 1.0)
            c = rng.uniform(0.1, 10.0)
            p = rng.choice([1, 2])
            delta = 2.0**-t + u * 2.0 ** -(m + 1)
            psi = volume_power_cell_fn(c, p)
            gauge = Gauge.constant(delta)
            grid = [Fraction(i, 2**m) for i in range(2**m + 1)]
            bf = delta_variation_bruteforce(psi, Box.unit(), gauge, grid)
            dp = delta_variation_dp(psi, Box.unit(), gauge, m)
            assert dp == bf

    def test_monotone_in_gauge(self):
        psi = volume_power_cell_fn(1.0, 2)
        small = delta_variation_dp(psi, Box.unit(), Gauge.constant(0.3), 4)
        large = delta_variation_dp(psi, Box.unit(), Gauge.constant(0.7), 4)
        assert small <= large
        expr_small = Gauge.from_function(lambda x: 0.1 + x / 8)
        expr_large = Gauge.from_function(lambda x: 0.2 + x / 4)
        assert delta_variation_dp(psi, Box.unit(), expr_small, 4) <= \
            delta_variation_dp(psi, Box.unit(), expr_large, 4)

    def test_table_superadditive(self):
        def psi(box, tag):
            return float(box.volume) ** 2 + 0.1 * float(tag[0])

        table = delta_variation_dp_table(psi, Box.unit(), Gauge.constant(0.4), 5)
        for cell, value in table.items():
            if value == -math.inf:
                continue
            kids = cell.bisect()
            if all(k in table for k in kids):
                ksum = sum(table[k] for k in kids)
                if ksum > -math.inf:
                    assert value >= ksum - 1e-12

    @pytest.mark.parametrize("box,depth", [(Box.unit(), 6), (Box.unit(2), 3)])
    def test_one_walk_equals_one_run_per_gauge(self, box, depth):
        def psi(cell, tag):
            return float(cell.volume) ** 1.5 - 0.3 * float(sum(tag))

        gauges = [Gauge.constant(0.3), Gauge.constant(2.0**-4),
                  Gauge(lambda p: 0.05 + float(p[0]) / 2)]
        tables = delta_variation_dp_tables(psi, box, gauges, depth)
        for table, gauge in zip(tables, gauges):
            alone = delta_variation_dp_table(psi, box, gauge, depth)
            assert list(table.items()) == list(alone.items())

    def test_psi_once_per_admitted_cell_and_tag(self):
        calls = {}

        def psi(cell, tag):
            calls[cell, tag] = calls.get((cell, tag), 0) + 1
            return float(cell.volume)

        gauges = [Gauge.constant(2.0**-k) for k in (1, 3, 5)]
        tables = delta_variation_dp_tables(psi, Box.unit(2), gauges, 5)
        assert max(calls.values()) == 1
        # only pairs some gauge admits: the coarsest gauge admits the most
        admitted = {(cell, t) for cell in tables[0]
                    for t in (cell.center, *cell.corners())
                    if cell.diameter < gauges[0](t)}
        assert set(calls) == admitted

    def test_residual_psi_evaluates_f_once_per_tag(self):
        calls = []
        f = PointFunction.from_callable(lambda x: calls.append(x) or 3 * x * x, "3x^2")
        table = indefinite_hk("3*x^2", LENGTH, Box.unit(), depth=5, tol=1e-10)
        gauges = [Gauge.constant(2.0**-k) for k in (1, 3)]
        tables = delta_variation_dp_tables(residual_cell_fn(f, LENGTH, table),
                                           Box.unit(), gauges, 5)
        # the centers and corners of the cells to depth 5: every k/64
        assert len(calls) == len(set(calls)) == 2**6 + 1

        def direct(cell, tag):
            return f(tag) * LENGTH.value(cell) - table.value(cell)

        assert tables == delta_variation_dp_tables(direct, Box.unit(), gauges, 5)
        assert len(calls) > 3 * (2**6 + 1)

    def test_works_in_2d(self):
        psi = volume_power_cell_fn(1.0, 2)
        value = delta_variation_dp(psi, Box.unit(2), Gauge.constant(3.0), 2)
        assert value == 1.0

    # |psi| on the unit box, the cells below 0.3 wide being fine (depth >= 2)
    SPECIAL_PSI = {
        "nan on quarters": (lambda c, t: math.nan if c.volume == Fraction(1, 4) else 0.5,
                            math.nan),
        "nan at 1/2": (lambda c, t: math.nan if t == (Fraction(1, 2),) else 0.5, math.nan),
        "inf on quarters": (lambda c, t: math.inf if c.volume == Fraction(1, 4) else 0.5,
                            math.inf),
        "-inf at 1/2": (lambda c, t: -math.inf if t == (Fraction(1, 2),) else 0.5, math.inf),
        # the only nan is at a tag that no cell admits
        "nan where not fine": (lambda c, t: math.nan if t == (0,) else float(c.volume) ** 2,
                               0.25),
    }

    @pytest.mark.parametrize("name", SPECIAL_PSI)
    def test_nan_and_inf_psi_agree_with_bruteforce(self, name):
        psi, expected = self.SPECIAL_PSI[name]
        gauge = Gauge.from_function(lambda x: 1e-9 if x == 0 else 0.3)
        grid = [Fraction(i, 4) for i in range(5)]
        dp = delta_variation_dp(psi, Box.unit(), gauge, 2)
        bf = delta_variation_bruteforce(psi, Box.unit(), gauge, grid)
        for value in (dp, bf):
            assert math.isnan(value) if math.isnan(expected) else value == expected

    def test_a_nan_cell_makes_every_cell_above_it_nan(self):
        # nan on [1/4, 3/8] alone; its sibling [3/8, 1/2] has no fine tag
        def psi(cell, tag):
            return math.nan if cell == Box.of(("1/4", "3/8")) else float(cell.volume)

        gauge = Gauge.from_function(lambda x: 1e-9 if 0.375 <= x <= 0.5 else 0.2)
        table = delta_variation_dp_table(psi, Box.unit(), gauge, 3)
        above = {Box.of(("1/4", "3/8")), Box.of(("1/4", "1/2")), Box.of((0, "1/2")),
                 Box.unit()}
        assert table[Box.of(("3/8", "1/2"))] == -math.inf
        for cell, value in table.items():
            assert math.isnan(value) == (cell in above), cell

    def test_ge_any_single_fine_configuration(self):
        psi = volume_power_cell_fn(2.0, 2)
        gauge = Gauge.constant(0.4)
        dp = delta_variation_dp(psi, Box.unit(), gauge, 3)
        # the uniform quarter partition with center tags is delta-fine
        cells = list(dyadic_cells(Box.unit(), 2))
        manual = sum(psi(c, c.center) for c in cells)
        assert dp >= manual - 1e-15


def _simpson(g, a, b, n=2000):
    h = (b - a) / n
    odd = math.fsum(g(a + (2 * i - 1) * h) for i in range(1, n // 2 + 1))
    even = math.fsum(g(a + 2 * i * h) for i in range(1, n // 2))
    return h / 3 * (g(a) + 4 * odd + 2 * even + g(b))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="an undeclared endpoint blow-up converges falsely: error 2.23e-4 "
                   "against an estimate of 4.8e-5 in 1,839 evaluations; ROADMAP items 14 "
                   "and 19 (find the corner singularity and nest it)")
def test_undeclared_endpoint_power_does_not_converge_falsely():
    result = hk_integrate("x^(0-3/4)", LENGTH, Box.unit(), tol=1e-4)
    assert not result.converged or abs(result.value - 4.0) <= 1e-4


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a nest at 1/3 converges falsely at tol 1e-8: error 2.02e-8 against "
                   "an estimate of 3.15e-9 in 49,390 evaluations; the float point 1/2 fails "
                   "alike (2.63e-8 against 2.36e-9), so it fits float resolution next to a "
                   "nonzero point, not 1/3 being non-float; ROADMAP item 3")
def test_nest_at_a_non_float_point_does_not_converge_falsely():
    result = hk_integrate(_inv_sqrt_gaps((Fraction(1, 3),)), LENGTH, Box.unit(), tol=1e-8)
    exact = 2 * math.sqrt(1 / 3) + 2 * math.sqrt(2 / 3)
    assert not result.converged or abs(result.value - exact) <= 1e-8


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a nest at the float corner 1 converges falsely at tol 1e-8: error "
                   "1.54e-8 against an estimate of 2.27e-9 in 16,247 evaluations (max_depth "
                   "57), where declared at 0 it errs 4.5e-13; 1 - 2^-54 rounds to 1.0, so "
                   "past depth ~50 a nest cell's probes land on the point; ROADMAP item 3")
def test_nest_at_a_nonzero_float_corner_does_not_converge_falsely():
    result = hk_integrate(_inv_sqrt_gaps((1,)), LENGTH, Box.unit(), tol=1e-8)
    assert not result.converged or abs(result.value - 2.0) <= 1e-8


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="error_estimate understates the error of an undeclared 2-D "
                   "corner singularity 14-fold; ROADMAP item 19 (nest a corner found "
                   "mid-run), whose gate this is")
def test_2d_corner_singularity_error_estimate_is_honest():
    # polar coordinates over the two halves of the square:
    # the integral of r^-1.9 is 20 * int_0^(pi/4) cos(t)^-0.1 dt
    exact = 20 * _simpson(lambda t: math.cos(t) ** -0.1, 0.0, math.pi / 4)
    result = hk_integrate("(x1^2+x2^2)^(0-19/20)", IntervalFunction.volume(2),
                          Box.unit(2), tol=1e-4, budget=200_000)
    assert abs(result.value - exact) <= result.error_estimate
