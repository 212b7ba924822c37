"""Riemann-Stieltjes sums, the adaptive gauge-driven integrator, indefinite
tables, and delta-variation (1-D brute force + dyadic dynamic program).

The integrator maintains a dyadic cell tree.  Every leaf is estimated from
midpoint-tagged sums at four consecutive scales: s1 = f(tag) G(Q), s2 over
its 2^n children, s3 over its 4^n grandchildren, s4 over its 8^n
great-grandchildren.  One Richardson step per scale pair gives m0, m1, m2
(m1 = s3 + (s3 - s2)/3), and a second step gives the leaf's value
m2 + (m2 - m1)/15.  The refinement indicator is the gap |m2 - m1|,
cross-checked against |m2 - m0|; where the raw sums do not decay like a
smooth second-order rule it falls back to |s3 - s4|.  Two guards add to
it: a fraction of |s3 - s4| against oscillatory aliasing, and, when every
composite agrees exactly, a fraction of the trapezoid-vs-midpoint gap
against a feature hidden at the cell's edge.

A cell that holds a declared singular point of f is tagged at that point
(the gauge-integration choice: the singular point must tag its own cell);
its value is s1, and its gap |s1 - s2| feeds the nest's defect.
The box is cut on each axis at the points' coordinates and midway between
consecutive ones (`_pieces`), so each piece's tree holds at most one point,
at a corner, and the cells that hold it are the corner cells, one per
depth: a shrinking nest (`_Nest`).  A cell's key alone decides whether
the point tags it and which "ring" peeled off the nest it joins
(`_Nest.ring`).  The rings' masses are extrapolated geometrically to
estimate the remaining mass, and that estimate doubles as the nest's error
indicator.  This converges for monotone endpoint blow-ups (inv_sqrt) and
for oscillating-unbounded derivatives (hk_derivative) alike, where any
fixed interior-tag rule provably stalls.

A run stops when the summed defects and the change between two successive
global sums are both below tol/2.  A round refines the nest while its defect
is over its share, tol/4, and alone while the regular leaves' summed defect
is under that share, as Dorfler's rule refines only a part over its share;
else also every regular leaf within 4x of the worst.  Every probe, a term
f(tag) G(Q) of the sums, is taken on one path, `_Tree.probes`, a block of
the cells some levels below one cell: f takes their tags in one
`PointFunction.eval_block` call, G is one value per level when it is the
volume, and the first failure in f's order is raised, f's before G's at one
probe.  The root is four blocks, each new leaf one (its probes three levels
down), and an indefinite table, which first refines every cell down to its
grid depth, one per level, in the order of refining leaf by leaf but for a
level's edge-gap corners, which come after its probes.  No leaf exists above
the grid depth but the nest's, and a grid leaf's probe caches are sliced
from the last three levels on its first refinement.  The forced levels count
as refinement rounds, so a table whose grid already meets tol stops at its
grid depth; past it, the adaptive phase refines leaf by leaf.

The tree, the table assembly and the delta-variation DP key their cells
(depth, integer indices) on an `intervals.DyadicGrid`, the one index of
dyadic cells: the tree takes float bounds, centers and volumes from it,
and a table (`intervals.DyadicTable`) is one float list per depth, which
iterates by depth, then lexicographically.  An exact `Box` is built only
for a cell returned, passed to a psi other than the residual's or to a G
that needs one, or named in an error.  A corner-generated G reads its
generator exactly where a corner's float is not the corner only at the
ends of the box it reads: the tree, as every grid, at the integration
box's (`IntervalFunction.on_grid`), `G.value` at the given Box's corners.
Every value and table entry summed over cells is correctly rounded
(`intervals.fsum`), so it does not depend on the order of the cells.  The
running totals that decide when a run stops (`sum_values`, `sum_defects`
and the ring masses) are plain float sums in refinement order, moved only
by `_Tree.tally`; that is why `force_grid` replays the order of refining
leaf by leaf.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from .funcspace import IntervalFunction, PointFunction
from .intervals import (
    Box,
    DyadicGrid,
    DyadicTable,
    _diam_lt,
    as_point,
    as_rational,
    enumerate_partitions,
    fsum,
    fsums,
    point_floats,
)

EVAL_BUDGET_DEFAULT = 10_000_000
MAX_DEPTH = 50  # regular leaves at this depth are not refined further
CHAIN_DEPTH_CAP = 60
DP_DEPTH_CAP = 24


class TagEvalError(RuntimeError):
    def __init__(self, tag, cell: Optional[Box], cause: Exception):
        self.tag = tag
        self.cell = cell
        where = f" on {cell}" if cell is not None else ""
        super().__init__(f"evaluation failed at tag {point_floats(tag)}{where}: {cause}")


@dataclass
class IntegralResult:
    value: float
    error_estimate: float
    evaluations: int
    max_depth: int
    converged: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def riemann_sum(f, G: IntervalFunction, tagged) -> float:
    """sum f(tag) G(cell) over a tagged partition, in any cell order.  f
    takes the tags in one `eval_block` call; an error names the first
    (tag, cell) in the partition's order where f or G fails."""
    f, items, fx, failure = PointFunction.resolve(f), list(tagged), [], None
    try:
        f.eval_block([point_floats(as_point(tag)) for _, tag in items], fx)
    except (ValueError, ArithmeticError) as e:
        failure = e  # fx holds f at the tags before the failing one
    terms = []
    for i, (cell, tag) in enumerate(items):
        try:
            if i == len(fx):
                raise failure
            terms.append(float(fx[i]) * G.value(cell))
        except (ValueError, ArithmeticError) as e:
            raise TagEvalError(tag, cell, e) from e
    return fsum(terms)


# ---------------------------------------------------------------------------
# Adaptive integrator

# Cells are keyed (depth, (j1..jn)) on an `intervals.DyadicGrid`, and their
# geometry is float inside the engine.

ALIAS_GUARD = 0.005  # weight of the raw composite-pair defect (alias tripwire)
EDGE_GUARD = 0.005  # weight of the trapezoid-vs-midpoint gap (edge tripwire)


class _Nest:
    """The shrinking nest at a declared singular point, a corner of the box.

    The cell at that corner, one per depth, is tagged at the point;
    refining it peels off a ring of regular cells around the next corner
    cell.  The rings' masses and defects are kept in the order peeled.
    """

    __slots__ = ("floats", "cells", "key", "masses", "defects", "correction", "defect")

    def __init__(self, point, box: Box):
        self.floats = tuple(float(c) for c in point)
        corner = [int(c == hi) for c, (lo, hi) in zip(point, box.intervals)]
        # indices of the cell at the corner, at each depth a tree reaches
        self.cells = [tuple(((1 << d) - 1) * c for c in corner)
                      for d in range(CHAIN_DEPTH_CAP + 4)]
        self.key = None  # of the leaf tagged at the point
        self.masses, self.defects = [], []  # per ring
        self.correction = self.defect = 0.0

    def ring(self, key) -> int:
        """The depth of the deepest ancestor of cell `key` at the corner: the
        ring a regular cell joins, peeled off when that ancestor was refined,
        and for the corner cell, which the point tags, its own depth."""
        d, js = key
        return d - max(map(operator.xor, js, self.cells[d])).bit_length()

    def update(self, leaves):
        # The remaining mass inside a nest is extrapolated geometrically
        # only when the last three ring masses show a consistent ratio;
        # otherwise (oscillating phases can make a single ring mass tiny
        # by accident) the base defect is the window maximum of the
        # masses.  Masses of rings that are themselves unresolved are
        # meaningless, so the recent rings' own defects are added: the
        # nest cannot claim precision its rings do not have yet.
        R = len(self.masses)
        self.correction = 0.0
        if R < 2:  # the tagged cell's own gap, and the first ring's mass
            raw = leaves[self.key].defect
            self.defect = abs(self.masses[0]) + raw if R else raw
            return
        m0, m1 = self.masses[-2:]
        recent = sum(self.defects[-2:])
        if R == 2:
            self.defect = abs(m1) + abs(m0) + 0.5 * recent
            return
        m2 = self.masses[-3]
        r1 = m1 / m0 if m0 != 0.0 else math.inf
        r2 = m0 / m2 if m2 != 0.0 else math.inf
        if 0.0 < r1 <= 0.95 and 0.0 < r2 <= 0.95 and 0.5 <= r1 / r2 <= 2.0:
            # the tail estimates all the mass left in the tagged cell,
            # whose own s1 the leaf already counts as its value
            tail = m1 * r1 / (1.0 - r1)
            self.correction = tail - leaves[self.key].value
            self.defect = abs(tail) + 0.5 * recent
        else:
            # erratic (phase-cancelling) masses: bound the remaining
            # tail by the mass envelope, its decay fitted over the
            # last several rings (single ratios are phase noise)
            rho = self.decay()
            peak = max(abs(m1), rho * abs(m0), rho * rho * abs(m2))
            self.defect = peak * rho / (1.0 - rho) + 0.5 * recent

    def decay(self, window=6):
        """Least-squares decay rate of log ring-mass over recent rings.

        Clamped to [0.05, 0.9]; degenerates to the conservative end when
        masses carry no usable trend.
        """
        ks, logs = [], []
        start = max(0, len(self.masses) - window)
        for rr, v in enumerate(self.masses[start:], start):
            v = abs(v)
            if v > 0.0:
                ks.append(float(rr))
                logs.append(math.log(v))
        if len(ks) < 3:
            return 0.9
        n = len(ks)
        mean_k = sum(ks) / n
        mean_l = sum(logs) / n
        var = sum((k - mean_k) ** 2 for k in ks)
        if var == 0.0:
            return 0.9
        slope = sum((k - mean_k) * (l - mean_l) for k, l in zip(ks, logs)) / var
        return min(0.9, max(0.05, math.exp(slope)))

    def blocked(self, share) -> bool:
        """Do not deepen a nest while its last two rings are unresolved.

        Resolution is judged absolutely, against the nest's tolerance
        share: ring masses feed the remaining-tail estimate, so they must
        be known to that precision before the nest peels another ring.
        An unresolved ring's mass estimate is meaningless, and judging it
        relative to itself would let nests race ahead on noise.
        """
        return any(d > 0.5 * share for d in self.defects[-2:])


class _Leaf:
    __slots__ = ("key", "value", "defect", "l2", "l3", "l4")

    def __init__(self, key, value, defect, l2, l3, l4):
        self.key = key
        self.value = value  # a tagged cell's: its s1, with the defect |s1 - s2|
        self.defect = defect
        # cached probes (key, s1) one/two/three levels down, flat in nested
        # child order; reused by the children on refinement.  None on a leaf
        # at an indefinite table's grid depth until its first refinement
        # (`_Tree.caches`); no leaf exists above that depth.
        self.l2 = l2
        self.l3 = l3
        self.l4 = l4


def _make_g_eval(G: IntervalFunction, geom: DyadicGrid):
    if G.kind == "volume":
        return geom.volume
    read = G.on_grid(geom)  # a corner G as on every grid, a table on the box

    def g_eval(key):
        try:
            return read(*key)
        except KeyError:
            raise ValueError(f"G is a table of depth {G.depth}, and the integrator needs "
                             f"its value on {geom.cell(*key)}, a depth-{key[0]} cell") from None

    return g_eval


class _Tree:
    """The cell tree of a box with at most one declared point, at a corner."""

    def __init__(self, f: PointFunction, G: IntervalFunction, box: Box, budget):
        self.geom = DyadicGrid(box, CHAIN_DEPTH_CAP + 3)  # probes: 3 levels below a leaf
        self.f_eval, self.f_block = f.fast_eval, f.eval_block
        self.g_eval, self.volume = _make_g_eval(G, self.geom), G.kind == "volume"
        self.budget = budget
        self.share = 0.0  # the nest's share of the tolerance, set by run()
        self.evals = 0
        self.leaves = {}  # key -> _Leaf
        self.heap = []  # (-defect, key) for refinable regular leaves
        self.sum_values = 0.0
        self.sum_defects = 0.0  # regular leaves only
        self.grid_probes = None  # force_grid's last three probe lists, by depth
        points = [p for p in getattr(f, "singular_points", ()) if box.contains(p)]
        self.nest = _Nest(points[0], box) if points else None

    # -- evaluation helpers

    def _edge_gap(self, key, s1, s2):
        """|trapezoid - midpoint| estimate; conservative when corners fail.

        A corner where f cannot be evaluated signals an (undeclared)
        boundary singularity; the raw pair gap keeps such cells refining.
        """
        total = 0.0
        corners = list(itertools.product(*self.geom.bounds(key)))
        for corner in corners:
            self.evals += 1
            try:
                v = self.f_eval(corner)
            except (ValueError, ArithmeticError):
                return abs(s1 - s2)
            if not math.isfinite(v):
                return abs(s1 - s2)
            total += v
        trap = total / len(corners) * self.g_eval(key)
        return abs(trap - s1)

    def tagged(self, key) -> bool:
        """Whether the nest's point tags cell `key`: the corner cell of its
        depth, the one cell whose `_Nest.ring` is its own depth."""
        return self.nest is not None and self.nest.cells[key[0]] == key[1]

    def probes(self, key, r, order=None) -> list:
        """s1 = f(tag) G(Q) of each cell Q r levels below cell `key`, in
        nested order, tagged at its center or, at the corner cell when the
        nest's point tags `key`, at the point.  f takes the tags in one
        `eval_block` call, in `order` (nested positions) if given; the first
        failure in that order is raised, f's before G's."""
        geom = self.geom
        tags = geom.centers(key, r)
        if self.tagged(key):
            tags[geom.index(r, self.nest.cells[r])] = self.nest.floats
        tags = tags if order is None else [tags[i] for i in order]
        self.evals += len(tags)
        fx, failure = [], None
        try:
            self.f_block(tags, fx)
        except (ValueError, ArithmeticError) as e:
            failure = e  # fx holds f at the tags before the failing one
        if self.volume and failure is None:
            g = geom.volume((key[0] + r, key[1]))
            s1 = [fv * g for fv in fx]
        else:
            keys = geom.descendants(key, r)
            keys = keys if order is None else [keys[i] for i in order]
            s1 = [fv * self.g_eval(k) for fv, k in zip(fx, keys)]
        if failure is not None:
            raise TagEvalError(tags[len(fx)], geom.cell(*keys[len(fx)]), failure) from failure
        return s1 if order is None else [v for _, v in sorted(zip(order, s1))]

    def cache(self, key, r, values=None) -> list:
        """(key, s1) of each cell r levels below cell `key`, in nested order,
        from its s1 `values`, or else from one `probes` block."""
        if values is None:
            values = self.probes(key, r)
        return list(zip(self.geom.descendants(key, r), values))

    # -- leaf management

    def make_leaf(self, key, s1=None, l2=None, l3=None):
        """The leaf of cell `key` from its probe s1 and its cached probes one
        and two levels down, each one block where not given (at the root);
        the probes three levels down are one block."""
        s1 = self.probes(key, 0)[0] if s1 is None else s1
        l2, l3 = l2 or self.cache(key, 1), l3 or self.cache(key, 2)
        l4 = self.cache(key, 3)
        value, defect = self._estimate(key, s1, fsum([c[1] for c in l2]),
                                       fsum([g[1] for g in l3]), fsum([h[1] for h in l4]))
        return self.add_leaf(_Leaf(key, value, defect, l2, l3, l4))

    def _estimate(self, key, s1, s2, s3, s4):
        """(value, defect) of a leaf from its midpoint sums at four scales."""
        if self.tagged(key):
            return s1, abs(s1 - s2)
        # one-step Richardson of the composite midpoint sums at three
        # consecutive scales; the gap between the two finest is the
        # refinement indicator, cross-checked against the coarser one
        # (scale-compensated) so an accidental pair agreement cannot
        # mask an unresolved cell.  Richardson is only trusted where
        # the raw sums decay like a smooth second-order rule (about
        # 4x per level); kinks and jumps inside the cell break that
        # signature and fall back to the raw sample-level gap.
        m0 = s2 + (s2 - s1) / 3.0
        m1 = s3 + (s3 - s2) / 3.0
        m2 = s4 + (s4 - s3) / 3.0
        value = m2 + (m2 - m1) / 15.0
        d34 = abs(s3 - s4)
        d23 = abs(s2 - s3)
        defect = max(abs(m2 - m1), abs(m2 - m0) / 16.0)
        smooth = d34 <= 1e-15 * (abs(s4) + 1.0) or (
            2.5 <= d23 / d34 <= 6.5 if d34 > 0.0 else True
        )
        if not smooth:
            defect = max(defect, d34 / 4.0)
        defect += ALIAS_GUARD * d34
        if d34 == 0.0 and d23 == 0.0 and s2 == s1:
            # midpoint probes never see the cell margins: a feature
            # hiding between the deepest samples and an edge (a kink
            # just inside the boundary) leaves every composite equal
            # and the cell looks exactly flat.  The corner average
            # breaks that blindness.
            defect += EDGE_GUARD * self._edge_gap(key, s1, s2)
        return value, defect

    def tally(self, key, value, defect, sign=1.0):
        """Add the value and defect of cell `key` to the running sums and, in
        a nest, to its ring (`sign` -1.0 takes them off), opening the ring at
        its first cell; the defect of the cell the point tags goes to the
        nest's own.  The only code that moves these sums."""
        nest = self.nest
        r = -1 if nest is None else nest.ring(key)
        self.sum_values += sign * value
        if r == key[0]:
            return
        self.sum_defects += sign * defect
        if r >= 0:
            if r == len(nest.masses):  # the first cell of the nest's next ring
                nest.masses.append(0.0)
                nest.defects.append(0.0)
            nest.masses[r] += sign * value
            nest.defects[r] += sign * defect

    def add_leaf(self, leaf):
        self.leaves[leaf.key] = leaf
        if self.tagged(leaf.key):  # the nest's defect covers its tagged cell
            self.nest.key = leaf.key
        elif leaf.key[0] < MAX_DEPTH and leaf.defect > 0.0:
            heapq.heappush(self.heap, (-leaf.defect, leaf.key))
        self.tally(leaf.key, leaf.value, leaf.defect)
        return leaf

    def drop_leaf(self, leaf):
        del self.leaves[leaf.key]
        self.tally(leaf.key, leaf.value, leaf.defect, -1.0)

    def caches(self, leaf):
        """The leaf's cached probes one, two and three levels down; a leaf
        of `force_grid` gets them here, on first use, from slices of the
        grid's last three probe lists."""
        if leaf.l2 is None:
            c, n = self.geom.index(*leaf.key), self.geom.dim
            leaf.l2, leaf.l3, leaf.l4 = [
                self.cache(leaf.key, r, v[c << n * r:(c + 1) << n * r])
                for r, v in enumerate(self.grid_probes, 1)]
        return leaf.l2, leaf.l3, leaf.l4

    def refine(self, leaf):
        m = 2**self.geom.dim
        l2, l3, l4 = self.caches(leaf)
        self.drop_leaf(leaf)
        for i, (ck, cs1) in enumerate(l2):
            self.make_leaf(ck, cs1, l3[i * m:(i + 1) * m], l4[i * m * m:(i + 1) * m * m])

    def force_grid(self, root, depth):
        """Refine every cell, level by level, from `root` down to `depth`;
        returns the total before the last level.

        A level is one `probes` block, a flat float list in nested order
        below the root (`DyadicGrid.index`), so a cell's probes one, two and
        three levels down are slices of the last three lists.  The running
        sums and rings take the steps of refining each level's cells in key
        order, and f sees the same tags in the same order, except that a
        level's edge-gap corners come after its probes.  Above `depth` no
        leaf is made but the nest's, which `update_nest` reads; the leaves
        at `depth` get their probe caches from `caches`, on first refinement.
        """
        geom, m, n = self.geom, 2**self.geom.dim, 8**self.geom.dim
        vals = [[p[1] for p in ps] for ps in (root.l2, root.l3, root.l4)]
        # the level's cells in key order, as nested positions, and each
        # one's (key, value, defect), or None for a leaf: the root, the nest's
        order, above = [0], [None]
        for d in range(depth):
            if d + 1 == depth:  # the first convergence check's previous total
                self.update_nest()
                prev = self.total()[0]
            (v1, v2, v3), keys = vals, geom.descendants(root.key, d + 1)
            kids = [c for p in order for c in range(p * m, p * m + m)]
            # f sees the probes in key order of their parents, in 1-D the nested order
            perm = None if geom.dim == 1 else [i for c in kids for i in range(c * n, c * n + n)]
            v4 = self.probes(root.key, d + 4, perm)
            cells = [None] * len(keys)
            for p in order:
                if above[p] is None:
                    self.drop_leaf(self.leaves[self.nest.key] if d else root)
                else:  # drop_leaf's sums, with no leaf
                    self.tally(*above[p], -1.0)
                for c in range(p * m, p * m + m):
                    key, s1, s2 = keys[c], v1[c], fsum(v2[c * m:c * m + m])
                    value, defect = self._estimate(key, s1, s2,
                                                   fsum(v3[c * m * m:(c + 1) * m * m]),
                                                   fsum(v4[c * n:c * n + n]))
                    if d + 1 < depth and not self.tagged(key):  # add_leaf's sums, with no leaf
                        self.tally(key, value, defect)
                        cells[c] = key, value, defect
                        continue
                    self.add_leaf(_Leaf(key, value, defect, None, None, None))
            order = kids if perm is None else sorted(range(len(keys)), key=keys.__getitem__)
            above, vals = cells, [v2, v3, v4]
        self.grid_probes = vals
        return prev

    # -- totals

    def update_nest(self):
        if self.nest is not None:
            self.nest.update(self.leaves)

    def total(self):
        if self.nest is None:
            return self.sum_values, self.sum_defects
        return self.sum_values + self.nest.correction, self.sum_defects + self.nest.defect

    # -- marking

    def select_marks(self):
        """The nest's leaf if needy: alone while the regular leaves' defects sum
        under its share, else with the worst regular leaves (within 4x of the max).

        One pass over the heap, whose live entries (those of a leaf with
        that defect) all have a defect > 0: the first sets the threshold."""
        nest, nest_marks, marks = self.nest, [], []
        if (nest is not None and nest.key[0] < CHAIN_DEPTH_CAP
                and not nest.blocked(self.share) and nest.defect >= self.share):
            nest_marks.append(self.leaves[nest.key])
            if self.sum_defects < self.share:
                return nest_marks
        while self.heap:
            neg, key = heapq.heappop(self.heap)
            leaf = self.leaves.get(key)
            if leaf is None or -neg != leaf.defect:
                continue
            if marks and -neg < 0.25 * marks[0].defect:
                heapq.heappush(self.heap, (neg, key))
                break
            marks.append(leaf)
        marks.sort(key=lambda lf: lf.key)
        return nest_marks + marks

    def run(self, tol, min_depth=0):
        self.share = 0.25 * tol
        root = self.make_leaf((0, (0,) * self.geom.dim))
        # an indefinite table forces a grid depth; each forced level is a
        # refinement round, so the first check below compares the sums over
        # the last two grid levels
        prev = self.force_grid(root, min_depth) if min_depth > 0 else None
        self.update_nest()

        delta = math.inf
        while True:
            current, defect = self.total()
            if prev is not None:
                delta = abs(current - prev)
                if defect < tol / 2.0 and delta < tol / 2.0:
                    return self._result(defect, delta, True)
            if self.evals >= self.budget:
                return self._result(defect, delta, False)
            marks = self.select_marks()
            if not marks:
                if prev is None:  # one more look, with the current total as the last
                    prev = current
                    continue
                return self._result(defect, delta, False)
            prev = current
            for leaf in marks:
                if self.evals >= self.budget:
                    break
                self.refine(leaf)
            self.update_nest()

    def _result(self, defect, delta, converged):
        value = fsum([lf.value for lf in self.leaves.values()])
        if self.nest is not None:
            value += self.nest.correction
        return IntegralResult(
            value=value,
            error_estimate=defect + (delta if math.isfinite(delta) else 0.0),
            evaluations=self.evals,
            max_depth=max(k[0] for k in self.leaves),
            converged=converged,
        )


def _resolve(f, G, box: Box):
    """f and G as functions on `box`; neither may have more variables."""
    f = PointFunction.resolve(f)
    G = IntervalFunction.resolve(G, box.dim)
    for name, fn in (("f", f), ("G", G)):
        if fn.dim > box.dim:
            raise ValueError(f"{name} is a function of {fn.dim} variables, "
                             f"but the box is {box.dim}-D")
    return f, G


def _pieces(box: Box, points) -> list:
    """`box` cut on each axis at the coordinates of the points inside it and
    midway between each two consecutive ones, so each piece holds at most
    one point, at a corner; [box] when no cut falls inside."""
    inside = [p for p in points if box.contains(p)]
    axes = []
    for i, (lo, hi) in enumerate(box.intervals):
        cs = sorted({p[i] for p in inside})
        cuts = sorted({*cs, *((a + b) / 2 for a, b in zip(cs, cs[1:]))} - {lo, hi})
        axes.append(list(zip([lo, *cuts], [*cuts, hi])))
    if all(len(axis) == 1 for axis in axes):
        return [box]
    return [Box(piece) for piece in itertools.product(*axes)]


def _floor(f, box: Box, depth: int) -> int:
    """The evaluations before a run's first check: its forced grid, every cell
    down to depth + 3, or on a box that f's points cut, its parts' floors."""
    pieces = _pieces(box, getattr(f, "singular_points", ()))
    if len(pieces) == 1:
        return sum(2 ** (box.dim * k) for k in range(depth + 4))
    return sum(_floor(f, p, max(depth - 1, 0)) for p in (box.bisect() if depth else pieces))


def _joined(results, below=0) -> IntegralResult:
    """One result for the parts of a box, each `below` levels under it."""
    return IntegralResult(fsum([r.value for r in results]),
                          fsum([r.error_estimate for r in results]),
                          sum(r.evaluations for r in results),
                          max(r.max_depth for r in results) + below,
                          all(r.converged for r in results))


def hk_integrate(
    f,
    G,
    box: Box,
    tol: float = 1e-6,
    budget: int = EVAL_BUDGET_DEFAULT,
) -> IntegralResult:
    """Adaptive gauge-style integral of f against the interval function G.

    Refines the dyadic cell tree until the summed Cauchy defects fall
    below tol/2 and two successive global sums differ by less than tol/2.
    A box that f's declared points cut (`_pieces`) is integrated piece by
    piece at tol / (number of pieces); `max_depth` is then the depth within
    a piece.  A budget below the pieces' root probes (1 + 2^n + 4^n + 8^n
    each) raises ValueError before any evaluation.  A piece gets an equal
    share of what the pieces before it left, so a run goes past the budget
    by at most one refinement per piece.  On budget exhaustion the best
    value is returned with converged=False.
    """
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    f, G = _resolve(f, G, box)
    pieces = _pieces(box, getattr(f, "singular_points", ()))
    floor = _floor(f, box, 0)
    if floor > budget:
        raise ValueError(f"the roots of {len(pieces)} piece(s) take {floor} "
                         f"evaluations, over the budget of {budget}")
    results = []
    for i, piece in enumerate(pieces):
        left = budget - sum(r.evaluations for r in results)
        results.append(_Tree(f, G, piece, left // (len(pieces) - i)).run(tol / len(pieces)))
    return _joined(results)


def indefinite_hk(
    f,
    G,
    box: Box,
    depth: int,
    tol: float = 1e-6,
    budget: int = EVAL_BUDGET_DEFAULT,
) -> IntervalFunction:
    """Table of integral values over all dyadic subcells down to `depth`.

    Leaf sums are grouped bottom-up, so every parent equals the correctly
    rounded sum of its children (in 1-D, their float sum); accuracy is
    inherited from the adaptive run.  The table (`entries`, an
    `intervals.DyadicTable`) is one float list per depth, assembled from the
    tree's leaves by index with no Box built, and iterated as every table
    is: by depth, then lexicographically.  The levels of the forced grid count
    as refinement rounds: the first convergence check compares the sums
    over the depth-(depth-1) and depth-`depth` grids, so a table whose grid
    already meets tol stops at its grid depth.  The forced grid probes
    every cell down to depth + 3 once; a budget below that count raises
    ValueError before any evaluation.  A box that f's declared points cut
    (`_pieces`) has one table per half, at depth - 1 and tol / 2^n; its
    forced grid is its halves', and a half gets a share of what the halves
    before it left in proportion to its own, but never less than it.  At
    depth 0 its one cell is `hk_integrate`'s.
    """
    if depth < 0 or depth > DP_DEPTH_CAP:
        raise ValueError(f"depth must be in 0..{DP_DEPTH_CAP}")
    f, G = _resolve(f, G, box)
    grid_probes = _floor(f, box, depth)
    if grid_probes > budget:
        raise ValueError(f"depth {depth} takes {grid_probes} evaluations on its "
                         f"forced grid, over the budget of {budget}")
    grid, m = DyadicGrid(box, depth), 2**box.dim
    cut = len(_pieces(box, getattr(f, "singular_points", ()))) > 1
    if cut and depth == 0:
        result = hk_integrate(f, G, box, tol, budget)
        levels = [[result.value]]
    elif cut:  # the halves' depth-(depth - 1) levels, in nested order
        halves, floors = [], [_floor(f, half, depth - 1) for half in box.bisect()]
        for i, half in enumerate(box.bisect()):
            left = budget - sum(t.result.evaluations for t in halves)
            share = max(floors[i], left * floors[i] // sum(floors[i:]))
            halves.append(indefinite_hk(f, G, half, depth - 1, tol / m, share))
        result = _joined([t.result for t in halves], below=1)
        levels = [[v for t in halves for v in t.entries.levels[-1]]]
    else:
        tree = _Tree(f, G, box, budget)
        result = tree.run(tol, min_depth=depth)
        nest = tree.nest
        host = nest.key if nest is not None and nest.correction else None
        levels, groups = [[0.0] * m**depth], {}
        for (d, js), leaf in tree.leaves.items():
            v = leaf.value + (nest.correction if (d, js) == host else 0.0)
            if d == depth:  # fsum([v]) is v + 0.0: -0.0 comes out as 0.0
                levels[0][grid.index(d, js)] = v + 0.0
            else:
                groups.setdefault(tuple(j >> (d - depth) for j in js), []).append(v)
        for js, vals in groups.items():
            levels[0][grid.index(depth, js)] = fsum(vals)
    # each coarser level sums the blocks of 2^n children in the finer one
    for _ in range(depth):
        levels.insert(0, fsums(zip(*[levels[0][k::m] for k in range(m)])))
    table = IntervalFunction.table(DyadicTable(grid, levels), box, depth, name=f"indef({f.name})")
    table.result = result
    return table


def cumulative(table: IntervalFunction, base) -> Callable:
    """Point function F(x) = (table increment from `base` to x), 1-D.

    Defined on the table's depth-level grid; `base` and queries must be
    grid points.  F(x) is the correctly rounded sum of the cells between
    `base` and x: each cell is an integer multiple of 2^-K, and the prefix
    sums are exact integers.
    """
    if table.kind != "table":
        raise ValueError("cumulative needs a table-backed interval function")
    parent = table.parent
    if parent.dim != 1:
        raise ValueError("cumulative is one-dimensional")
    lo, hi = parent.intervals[0]
    n, grid = 2**table.depth, table.entries.grid
    level = [table.entries.at(table.depth, (i,)) for i in range(n)]
    if None in level:  # raises the table's KeyError on the first cell without a value
        table.value(grid.cell(table.depth, (level.index(None),)))
    for i, v in enumerate(level):
        if not math.isfinite(v):
            raise ValueError(f"{table.name} is {v} on {grid.cell(table.depth, (i,))}, not finite")
    ratios = [v.as_integer_ratio() for v in level]  # denominators are powers of 2
    K = max(q.bit_length() for _, q in ratios) - 1
    prefix = list(itertools.accumulate((p << (K + 1 - q.bit_length()) for p, q in ratios),
                                       initial=0))

    def grid_index(x) -> int:
        x = as_rational(x if not isinstance(x, tuple) else x[0])
        ratio = (x - lo) / (hi - lo) * n
        if ratio.denominator != 1 or not 0 <= ratio.numerator <= n:
            raise ValueError(f"{float(x)} is not on the depth-{table.depth} grid")
        return ratio.numerator

    b = grid_index(base)

    def F(x) -> float:
        return (prefix[grid_index(x)] - prefix[b]) / 2**K

    return F


# ---------------------------------------------------------------------------
# delta-variation


def delta_variation_bruteforce(psi, box: Box, gauge, grid) -> float:
    """Exact sup of sum |Psi(Q, x)| over grid partitions with grid tags.

    Restricted to the finite class generated by `grid`: partitions from
    enumerate_partitions, tags at grid points inside each cell, keeping
    only delta-fine configurations.  Returns -inf when no configuration
    is delta-fine, and nan when |psi| is nan at a fine pair of any cell.
    """
    points = sorted({as_rational(g) for g in grid})
    tag_points = [(p,) for p in points]
    admissible = {}

    def cell_best(cell: Box) -> Optional[float]:
        try:
            return admissible[cell]
        except KeyError:
            pass
        best = None
        for t in tag_points:
            if cell.contains(t) and _diam_lt(cell, gauge(t)):
                v = abs(psi(cell, t))
                if best is None or v > best or v != v:  # a nan stays
                    best = v
        admissible[cell] = best
        return best

    partitions = [[cell_best(cell) for cell in p] for p in enumerate_partitions(box, points)]
    if any(v != v for v in admissible.values() if v is not None):
        return math.nan
    return max((fsum(terms) for terms in partitions if None not in terms), default=-math.inf)


def delta_variation_dp_tables(psi, box: Box, gauges, depth: int) -> list:
    """One `DyadicTable` per gauge of V for every dyadic cell of `box` to
    `depth`, iterated as every table is: by depth, then lexicographically.

    Recurrence: V(Q) = max(best admissible tag value, sum V(children));
    realizes the superadditive envelope on the dyadic class.  Cells whose
    subtree admits no delta-fine configuration carry -inf, and those whose
    subtree has a fine pair where |psi| is nan carry nan.  Cells are scored
    a depth at a time, on flat lists of their candidate tags' point keys
    (`DyadicGrid.candidates`) and gauge masks, all gauge reads first; a
    gauge's level is the max over the pairs it admits.  A depth first walk
    serves only for order: the residual psi of `residual_cell_fn` is read
    by index, its f taking the admitted tags' floats in one `eval_block`
    call, in the order first admitted; any other psi is called in the
    walk's order with the cell's Box and the exact tag.  The levels are
    then summed bottom-up by index.
    """
    if depth < 0 or depth > DP_DEPTH_CAP:
        raise ValueError(f"depth must be in 0..{DP_DEPTH_CAP}")
    grid, m, C = DyadicGrid(box, depth + 1, gauges), 2**box.dim, 2**box.dim + 1  # C per cell
    cells = [[js for _, js in grid.descendants((0, (0,) * box.dim), d)] for d in range(depth + 1)]
    keys = [grid.candidates(d, level) for d, level in enumerate(cells)]
    masks = [grid.masks(d, level) for d, level in enumerate(keys)]
    walk = [(0, 0)]  # (d, i) depth first, each cell before its children
    for _ in range(depth):
        walk = [(0, 0)] + [(d + 1, b * m**d + i) for b in range(m) for d, i in walk]
    if isinstance(psi, _Residual):
        block = list(dict.fromkeys(keys[d][p] for d, i in walk
                                   for p in range(C * i, C * i + C) if masks[d][p]))
        xs = [[(a + k * b) / c for k in ks] for ks, (a, b, c) in zip(zip(*block), grid.axes)]
        fx = dict(zip(block, map(float, psi.f.eval_block(list(zip(*xs))))))
        read_G, read_F, vals = psi.G.on_grid(grid), psi.F.on_grid(grid), []
        for d, level in enumerate(cells):
            live = map(any, zip(*[masks[d][c::C] for c in range(C)]))  # cells with a pair
            gf = [(read_G(d, js), read_F(d, js)) if ok else (0, 0) for js, ok in zip(level, live)]
            vals.append([abs(fx[k] * g - q) if mask else -math.inf for k, mask, (g, q) in zip(
                keys[d], masks[d], itertools.chain.from_iterable(zip(*[gf] * C)))])
    else:
        vals = [[-math.inf] * len(level) for level in keys]
        for d, i in walk:
            if any(masks[d][C * i:C * i + C]):
                cell = grid.cell(d, cells[d][i])
                for p in range(C * i, C * i + C):
                    if masks[d][p]:
                        vals[d][p] = abs(psi(cell, grid.tag(keys[d][p])))
    levels = [[] for _ in gauges]
    for v, mk in zip(vals, masks):
        for g, table in enumerate(levels):
            vg = v if all(k >> g & 1 for k in set(mk) - {0}) else [  # all admitted pairs, or
                x if k >> g & 1 else -math.inf for x, k in zip(v, mk)]  # gauge g's
            table.append(list(map(max, *[vg[c::C] for c in range(C)])))
    for table in levels:  # -inf propagates through the sums
        for d in range(depth - 1, -1, -1):
            below = table[d + 1]
            table[d] = list(map(max, table[d], fsums(zip(*[below[k::m] for k in range(m)]))))
    nans = [(d, p) for d, v in enumerate(vals) if any(map(math.isnan, v))
            for p, x in enumerate(v) if x != x]
    for (d, p), (g, table) in itertools.product(nans, enumerate(levels)):
        for up in range(d + 1) if masks[d][p] >> g & 1 else ():  # the cell and those above
            table[up][p // C // m ** (d - up)] = math.nan
    cells = DyadicGrid(box, depth)
    return [DyadicTable(cells, table) for table in levels]


def delta_variation_dp_table(psi, box: Box, gauge, depth: int) -> DyadicTable:
    """V values for every dyadic cell of `box` down to `depth`."""
    return delta_variation_dp_tables(psi, box, [gauge], depth)[0]


def delta_variation_dp(psi, box: Box, gauge, depth: int) -> float:
    """Exact sup over dyadic partitions with center/corner candidate tags."""
    return delta_variation_dp_table(psi, box, gauge, depth)[box]


def volume_power_cell_fn(coeff: float, p: float) -> Callable:
    """Psi(Q, x) = coeff * |Q|^p (tag-independent)."""

    def psi(box: Box, _tag) -> float:
        return float(coeff) * float(box.volume) ** float(p)

    return psi


class _Residual:
    """Psi(Q, x) = f(x) G(Q) - F(Q), see `residual_cell_fn`."""

    def __init__(self, f, G: IntervalFunction, F: IntervalFunction):
        self.f, self.G, self.F, self.fx = PointFunction.resolve(f), G, F, {}

    def __call__(self, box: Box, tag) -> float:
        try:
            v = self.fx[tag]
        except KeyError:
            v = self.fx[tag] = self.f(tag)
        return v * self.G.value(box) - self.F.value(box)


def residual_cell_fn(f, G: IntervalFunction, F: IntervalFunction) -> Callable:
    """Psi(Q, x) = f(x) G(Q) - F(Q), the Henstock-lemma residual.

    f(x) is computed once per tag: the cells of a dyadic walk share their
    corner and center tags.  `delta_variation_dp_tables` reads this psi
    (not a wrapper of it) by cell index and point key, with no Box or exact
    tag built, and f takes every admitted tag in one block."""
    return _Residual(f, G, F)


# ---------------------------------------------------------------------------
# serialization


def table_to_csv_rows(table: IntervalFunction) -> list:
    """Rows (depth, lo/hi per axis as rational strings, value), by depth,
    then lexicographically."""
    if table.kind != "table":
        raise ValueError("CSV export needs a table-backed interval function")
    header = [f"{end}{i}" for i in range(1, table.parent.dim + 1) for end in ("lo", "hi")]
    return [["depth", *header, "value"]] + [
        [str(d), *(str(c) for axis in cell.intervals for c in axis), repr(v)]
        for d, cell, v in table.entries.by_depth()]
