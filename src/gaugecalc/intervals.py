"""Boxes, partitions, tagged partitions and gauges with exact endpoints.

Geometry is exact: box endpoints are `fractions.Fraction`, and every
overlap / cover / fineness decision is exact (a float gauge value is
compared in floats only where that agrees with rational arithmetic).  Only
function evaluation elsewhere in the package uses floating point.
`DyadicGrid` is the one index of the dyadic subcells of a box: every walk
over them (the integrator's tree, indefinite tables, the delta-variation
DP, the partition builders and the MC verifiers' tested family) keys a
cell by its depth and integer indices, and the grid builds a `Box` only
for a cell it hands out.  A `DyadicTable` holds values on those cells as
one flat list per depth and maps a `Box` to its cell at the boundary.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

Point = tuple  # tuple of Fraction coordinates

DEPTH_BUDGET_DEFAULT = 40


class DimensionMismatchError(ValueError):
    pass


class GaugeBudgetError(RuntimeError):
    """Raised when cousin_partition runs out of bisection depth.

    Signals a pathological gauge (infimum 0 on a fat set), not a bug.
    """

    def __init__(self, cell: "Box", depth: int):
        self.cell = cell
        self.depth = depth
        super().__init__(f"no admissible tag found above depth {depth} inside {cell}")


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions, and decimal/rational strings exactly.

    Floats are converted through their exact binary value, which is the
    deterministic choice; prefer strings like "1/3" for non-dyadic input.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"endpoint must be finite, got {value!r}")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def as_point(value) -> Point:
    if isinstance(value, tuple) and value and isinstance(value[0], Fraction):
        return value
    if isinstance(value, (int, float, str, Fraction)):
        return (as_rational(value),)
    return tuple(as_rational(c) for c in value)


def point_floats(point: Point) -> tuple:
    return tuple(float(c) for c in point)


def fsum(values: Sequence[float]) -> float:
    """Correctly rounded float sum, so it does not depend on the order.

    `math.fsum` raises when a partial sum overflows or meets inf - inf;
    such a sum is inf or nan, and the plain float sum returns that.
    """
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return sum(values)


def fsums(groups) -> list:
    """`fsum` of each sequence in `groups`."""
    groups = list(groups)
    try:
        return list(map(math.fsum, groups))
    except (OverflowError, ValueError):
        return list(map(fsum, groups))


@dataclass(frozen=True)
class Box:
    """Nondegenerate closed interval in R^n with rational endpoints."""

    intervals: tuple

    def __post_init__(self):
        if not self.intervals:
            raise ValueError("box needs at least one axis")
        for lo, hi in self.intervals:
            if not (isinstance(lo, Fraction) and isinstance(hi, Fraction)):
                raise TypeError("box endpoints must be Fractions (use Box.of)")
            if not lo < hi:
                raise ValueError(f"degenerate axis [{lo}, {hi}]")

    @classmethod
    def of(cls, *axes) -> "Box":
        """Box.of((0, 1), ("1/3", "2/3")) -> exact 2-D box."""
        return cls(tuple((as_rational(lo), as_rational(hi)) for lo, hi in axes))

    @classmethod
    def unit(cls, dim: int = 1) -> "Box":
        return cls.of(*(((0, 1),) * dim))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    @cached_property
    def volume(self) -> Fraction:
        v = Fraction(1)
        for lo, hi in self.intervals:
            v *= hi - lo
        return v

    @cached_property
    def diameter_sq(self) -> Fraction:
        return sum(((hi - lo) ** 2 for lo, hi in self.intervals), Fraction(0))

    @cached_property
    def diameter_sq_float(self) -> float:
        """float(diameter_sq), correctly rounded; inf when it overflows."""
        try:
            return float(self.diameter_sq)
        except OverflowError:
            return math.inf

    @property
    def diameter(self) -> float:
        return math.sqrt(self.diameter_sq_float)

    @cached_property
    def center(self) -> Point:
        return tuple((lo + hi) / 2 for lo, hi in self.intervals)

    def corners(self) -> list:
        """The 2^n corners in lexicographic (lo-before-hi per axis) order."""
        return [tuple(c) for c in itertools.product(*self.intervals)]

    def contains(self, point: Point) -> bool:
        point = as_point(point)
        if len(point) != self.dim:
            raise DimensionMismatchError(
                f"point of dim {len(point)} in box of dim {self.dim}"
            )
        return all(lo <= c <= hi for c, (lo, hi) in zip(point, self.intervals))

    def contains_box(self, other: "Box") -> bool:
        self._check_dim(other)
        return all(
            slo <= olo and ohi <= shi
            for (slo, shi), (olo, ohi) in zip(self.intervals, other.intervals)
        )

    def overlaps(self, other: "Box") -> bool:
        """True iff the two boxes have intersecting interiors."""
        self._check_dim(other)
        return all(
            max(slo, olo) < min(shi, ohi)
            for (slo, shi), (olo, ohi) in zip(self.intervals, other.intervals)
        )

    def intersect(self, other: "Box") -> Optional["Box"]:
        """Closed intersection, or None when it is empty or degenerate."""
        self._check_dim(other)
        pairs = []
        for (slo, shi), (olo, ohi) in zip(self.intervals, other.intervals):
            lo, hi = max(slo, olo), min(shi, ohi)
            if not lo < hi:
                return None
            pairs.append((lo, hi))
        return Box(tuple(pairs))

    def bisect(self) -> tuple:
        """All-axes bisection into 2^n children, lexicographic order."""
        halves = []
        for lo, hi in self.intervals:
            mid = (lo + hi) / 2
            halves.append(((lo, mid), (mid, hi)))
        return tuple(Box(tuple(choice)) for choice in itertools.product(*halves))

    def _check_dim(self, other: "Box"):
        if other.dim != self.dim:
            raise DimensionMismatchError(f"boxes of dim {self.dim} and {other.dim}")

    def to_json(self) -> list:
        return [[str(lo), str(hi)] for lo, hi in self.intervals]

    @classmethod
    def from_json(cls, data) -> "Box":
        if isinstance(data, str):
            data = json.loads(data)
        # accept the 1-D shorthand [lo, hi]
        if len(data) == 2 and not isinstance(data[0], (list, tuple)):
            data = [data]
        return cls.of(*data)

    def __str__(self):
        return "x".join(f"[{lo},{hi}]" for lo, hi in self.intervals)


@dataclass(frozen=True)
class PartitionReport:
    """Outcome of an exact partition check; falsy when defective."""

    ok: bool
    reason: Optional[str] = None  # 'dimension' | 'outside' | 'overlap' | 'gap'
    witness: Optional[Point] = None
    detail: str = ""

    def __bool__(self):
        return self.ok


def _grid_witness(parent: Box, cells: Sequence[Box]) -> Optional[Point]:
    """Search the elementary grid induced by all cell endpoints.

    Returns the rational center of an uncovered elementary cell.
    Exponential in dimension; only invoked to produce a gap's witness after
    the cheap checks already failed.
    """
    axes = []
    for i, (lo, hi) in enumerate(parent.intervals):
        cuts = {lo, hi}
        for c in cells:
            clo, chi = c.intervals[i]
            if lo < clo < hi:
                cuts.add(clo)
            if lo < chi < hi:
                cuts.add(chi)
        cuts = sorted(cuts)
        axes.append(list(zip(cuts[:-1], cuts[1:])))
    for combo in itertools.product(*axes):
        elem = Box(tuple(combo))
        if not any(c.overlaps(elem) for c in cells):
            return elem.center
    return None


def is_partition(parent: Box, cells: Sequence[Box]) -> PartitionReport:
    """Exact check that `cells` tile `parent` without interior overlap."""
    for c in cells:
        if c.dim != parent.dim:
            raise DimensionMismatchError(f"cell of dim {c.dim} under parent of dim {parent.dim}")
    if not cells:
        return PartitionReport(False, "gap", parent.center, "no cells")
    for c in cells:
        if not parent.contains_box(c):
            return PartitionReport(False, "outside", c.center, f"cell {c} leaves parent")
    for a, b in itertools.combinations(cells, 2):
        if a.overlaps(b):
            mid = a.intersect(b).center
            return PartitionReport(
                False, "overlap", mid, f"cells {a} and {b} share interior"
            )
    covered = sum((c.volume for c in cells), Fraction(0))
    if covered != parent.volume:
        return PartitionReport(False, "gap", _grid_witness(parent, cells),
                               f"cells cover volume {covered} of {parent.volume}")
    return PartitionReport(True)


class Partition:
    """Finite nonoverlapping cover of a parent box.  Validated on creation."""

    __slots__ = ("parent", "cells")

    def __init__(self, parent: Box, cells: Iterable[Box], _trusted: bool = False):
        cells = tuple(cells)
        if not _trusted:
            report = is_partition(parent, cells)
            if not report:
                raise ValueError(f"not a partition ({report.reason}): {report.detail}")
        self.parent = parent
        self.cells = cells

    def __iter__(self):
        return iter(self.cells)

    def __len__(self):
        return len(self.cells)

    def __repr__(self):
        return f"Partition({self.parent}, {len(self.cells)} cells)"


class TaggedPartition:
    """Partition cells paired with tags, tag(Q) in Q for every cell."""

    __slots__ = ("parent", "items")

    def __init__(self, parent: Box, items: Iterable, _trusted: bool = False):
        items = tuple((cell, as_point(tag)) for cell, tag in items)
        if not _trusted:
            Partition(parent, (cell for cell, _ in items))
            for cell, tag in items:
                if not cell.contains(tag):
                    raise ValueError(f"tag {point_floats(tag)} outside cell {cell}")
        self.parent = parent
        self.items = items

    @property
    def cells(self):
        return tuple(cell for cell, _ in self.items)

    @property
    def tags(self):
        return tuple(tag for _, tag in self.items)

    def is_fine(self, gauge: "Gauge") -> bool:
        return not self.fineness_violations(gauge)

    def fineness_violations(self, gauge: "Gauge") -> list:
        """Cells failing diam Q < delta(tag); exact comparison."""
        return [(cell, tag) for cell, tag in self.items if not _diam_lt(cell, gauge(tag))]

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def to_json(self) -> list:
        return [
            {"cell": cell.to_json(), "tag": [str(c) for c in tag]}
            for cell, tag in self.items
        ]

    @classmethod
    def from_json(cls, parent: Box, data) -> "TaggedPartition":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(
            parent,
            [(Box.from_json(e["cell"]), as_point(e["tag"])) for e in data],
        )


_NORMAL_MIN = 2.0**-1022  # smallest normal float
_BELOW, _ABOVE = 1.0 - 2.0**-50, 1.0 + 2.0**-50


def _diam_lt(cell: Box, delta: float) -> bool:
    """diam(cell) < delta, decided exactly: in floats when both squares
    are normal and differ by over a relative 2^-50 (each square is
    correctly rounded, so the float order is the exact order), else in
    Fractions."""
    if delta <= 0.0:
        return False
    if math.isinf(delta):
        return True
    d2, e2 = cell.diameter_sq_float, delta * delta
    if _NORMAL_MIN <= d2 < math.inf and _NORMAL_MIN <= e2 < math.inf:
        if d2 < e2 * _BELOW or d2 > e2 * _ABOVE:
            return d2 < e2
    return cell.diameter_sq < Fraction(delta) ** 2


class Gauge:
    """Strictly positive point function delta controlling cell diameters."""

    def __init__(self, fn: Callable, label: str = "gauge"):
        self._fn = fn
        self.label = label

    def __call__(self, point) -> float:
        point = as_point(point)
        value = float(self._fn(point))
        if not value > 0.0:
            raise ValueError(f"gauge {self.label} is {value} at {point_floats(point)}")
        return value

    def on_grid(self, grid: "DyadicGrid") -> Callable:
        """read(key) = self(grid.tag(key)) at a point key of `grid`; a constant
        and a 1-D piecewise gauge read the key with no Fraction built."""
        return lambda key: self(grid.tag(key))

    @classmethod
    def constant(cls, value: float) -> "Gauge":
        value = float(value)
        if not value > 0.0:
            raise ValueError("gauge constant must be strictly positive")
        g = cls(lambda _p: value, label=f"const {value}")
        g.on_grid = lambda grid: lambda key: value
        return g

    @classmethod
    def from_function(cls, fn: Callable, label: str = "gauge") -> "Gauge":
        """Wrap a callable of a float (1-D points) or a float tuple."""

        def call(point):
            if len(point) == 1:
                return fn(float(point[0]))
            return fn(point_floats(point))

        return cls(call, label=label)

    @classmethod
    def piecewise_1d(cls, samples, floor: float, label: str = "piecewise gauge"):
        """Conservative piecewise-constant extension of sampled values.

        Between two sample points the smaller neighboring value is used;
        outside the sampled range, the nearest value.  `floor` bounds the
        result away from zero where no information is available.
        """
        if not floor > 0.0:
            raise ValueError("floor must be strictly positive")
        table = sorted((as_rational(x), float(v)) for x, v in samples)
        for x, v in table:
            if math.isnan(v):
                raise ValueError(f"{label} has a nan value at x = {x}")
        xs = [x for x, _ in table]
        vs = [v for _, v in table]

        def lookup(keys, q):  # keys: the samples' x, or any key of the same order
            i = bisect.bisect_left(keys, q)
            near = vs[i:i + 1] if i < len(keys) and keys[i] == q else vs[i - (i > 0):i + 1]
            return max(min(near, default=floor), floor)

        def call(point):
            if len(point) != 1:
                raise DimensionMismatchError("piecewise_1d gauge is one-dimensional")
            return lookup(xs, point[0])

        def on_grid(grid):
            if grid.dim != 1:
                return Gauge.on_grid(g, grid)
            # x at u grid steps (u exact) is 2 ceil(u) - [u not an integer]:
            # below 2k when x is below point k, and 2k when x is point k
            (a, b, c), = grid.axes
            keys = [2 * m + (r > 0) for m, r in (divmod(x.numerator * c - a * x.denominator,
                                                        b * x.denominator) for x in xs)]
            return lambda key: lookup(keys, 2 * key[0])

        g = cls(call, label=label)
        g.samples, g.floor, g.on_grid = table, floor, on_grid
        return g


class DyadicGrid:
    """The one index of the dyadic subcells of a box: cell (d, js), d <= top.

    Cell (d, js) is the product over the axes of [lo + j w_d, lo + (j+1) w_d],
    w_d = (hi - lo) / 2^d.  Every dyadic walk keys its cells by (d, js) and
    asks the grid for their geometry: float bounds, center and volume for
    the integrator's probes, exact coordinates for a `Box`.  A candidate tag
    is a point key, its integer indices on the depth-top grid: each gauge
    reads a key once (`Gauge.on_grid`), and the exact tag is built (`tag`)
    only for a tag that leaves the grid, each coordinate once.
    All depth-d cells share the volume and squared diameter of the depth's
    first cell, so `_diam_lt` is decided once per depth and tuple of gauge
    values, and `cell` presets the volume where its cached_property keeps it.
    """

    def __init__(self, box: Box, top: int, gauges: Sequence = ()):
        self.box, self.dim, self.top, self.gauges = box, box.dim, top, gauges
        self.lo = [float(lo) for lo, _ in box.intervals]
        self.width = [float(hi - lo) for lo, hi in box.intervals]
        self.vol0 = math.prod(self.width)
        self.points = {}  # point key -> the gauges' deltas there
        first = self.first = {}  # depth -> the first cell built at that depth
        self.mask = cache(lambda d, deltas: sum(  # bit g: gauge g is fine on a depth-d cell
            1 << g for g, delta in enumerate(deltas)
            if _diam_lt(first.get(d) or self.cell(d, (0,) * self.dim), delta)))
        # the float of the exact volume of a depth-d cell, which in n-D is
        # not always `volume`'s float product (0.75 * 0.8 != 0.6)
        self.cell_volume = cache(lambda d: float(box.volume / 2 ** (d * self.dim)))
        self.bits = list(itertools.product((0, 1), repeat=self.dim))
        self.readers = [g.on_grid(self) for g in gauges]

    @cached_property
    def axes(self) -> list:
        """(a, b, c) per axis, the coordinate lo + k (hi - lo) / 2^top being
        (a + k b) / c; made on first use, as the integrator's grid rarely
        needs exact geometry."""
        axes = []
        for lo, hi in self.box.intervals:
            (p, q), (r, t) = lo.as_integer_ratio(), ((hi - lo) / 2**self.top).as_integer_ratio()
            axes.append((p * t, r * q, q * t))
        return axes

    @cached_property
    def coord(self) -> Callable:
        """coord(i, k): coordinate k of the depth-top grid on axis i, built once."""
        axes = self.axes
        return cache(lambda i, k: Fraction(axes[i][0] + k * axes[i][1], axes[i][2]))

    def tag(self, key) -> Point:
        """The exact point of a point key."""
        return tuple(self.coord(i, k) for i, k in enumerate(key))

    def key(self, box: Box) -> Optional[tuple]:
        """(d, js) of `box` when it is a cell of the grid, else None: its
        endpoints in integers on the depth-top grid, with no Fraction built."""
        if box.dim != self.dim:
            return None
        ds, js = set(), []
        for (lo, hi), (a, b, c) in zip(box.intervals, self.axes):
            (klo, r), (khi, s) = [divmod(v.numerator * c - a * v.denominator, b * v.denominator)
                                  for v in (lo, hi)]
            w = khi - klo  # > 0, the box being nondegenerate
            if r or s or w & (w - 1) or klo % w or klo < 0 or khi > 1 << self.top:
                return None
            ds.add(self.top + 1 - w.bit_length())
            js.append(klo // w)
        return (ds.pop(), tuple(js)) if len(ds) == 1 else None

    def index(self, d: int, js) -> int:
        """Position of cell (d, js) among the depth-d cells in nested order
        (`descendants` of the root): a cell's children are the 2^n positions
        after 2^n times its own."""
        if self.dim == 1:
            return js[0]
        i = 0
        for b in range(d - 1, -1, -1):
            for j in js:
                i = 2 * i + (j >> b & 1)
        return i

    def bounds(self, key) -> list:
        d, js = key
        scale = math.ldexp(1.0, -d)
        return [
            (self.lo[i] + js[i] * self.width[i] * scale,
             self.lo[i] + (js[i] + 1) * self.width[i] * scale)
            for i in range(self.dim)
        ]

    def center(self, key) -> tuple:
        d, js = key
        scale = math.ldexp(1.0, -d - 1)
        if self.dim == 1:
            return (self.lo[0] + (2 * js[0] + 1) * self.width[0] * scale,)
        return tuple(
            self.lo[i] + (2 * js[i] + 1) * self.width[i] * scale
            for i in range(self.dim)
        )

    def volume(self, key) -> float:
        return math.ldexp(self.vol0, -key[0] * self.dim)

    def span_box(self, d: int, spans) -> Box:
        """The box of per-axis index spans [a, b] on the depth-d grid."""
        s = self.top - d
        return Box(tuple((self.coord(i, a << s), self.coord(i, b << s))
                         for i, (a, b) in enumerate(spans)))

    def cell(self, d: int, js) -> Box:
        box = self.span_box(d, [(j, j + 1) for j in js])
        box.__dict__["volume"] = self.first.setdefault(d, box).volume
        return box

    def units(self, point, d: int) -> list:
        """`point`'s coordinates in depth-d cell widths from the low corner."""
        if not self.box.contains(point):
            raise ValueError(f"point {point_floats(point)} outside {self.box}")
        return [(c - lo) * 2**d / (hi - lo)
                for c, (lo, hi) in zip(point, self.box.intervals)]

    def containing(self, point, d: int) -> tuple:
        """Indices of the depth-d cell holding `point`: on an interior cut
        the cell on the high side, on the box's top edge the last cell."""
        return tuple(min(math.floor(u), 2**d - 1) for u in self.units(point, d))

    def children(self, key) -> Sequence:
        """Keys of the 2^n children of cell `key`, in `Box.bisect` order."""
        d, js = key
        if self.dim == 1:  # the tree's hot path
            j2 = 2 * js[0]
            return ((d + 1, (j2,)), (d + 1, (j2 + 1,)))
        out = []  # a loop: a comprehension would make d and js closure cells
        for bits in self.bits:
            out.append((d + 1, tuple(2 * j + b for j, b in zip(js, bits))))
        return out

    def descendants(self, key, r: int) -> list:
        """Keys of the depth-(d + r) cells inside cell `key`, in nested
        (`children` applied r times) order."""
        d, js = key
        if self.dim == 1:  # (d + r, (j,)) over the index range
            j0 = js[0] << r
            return list(zip(itertools.repeat(d + r), zip(range(j0, j0 + (1 << r)))))
        keys = [key]
        for _ in range(r):
            keys = [c for k in keys for c in self.children(k)]
        return keys

    def centers(self, key, r: int) -> list:
        """`center` of each of `descendants(key, r)`; in 1-D its float
        expression over the index range, with no keys built."""
        d, js = key
        if self.dim == 1:
            lo, w, scale = self.lo[0], self.width[0], math.ldexp(1.0, -d - r - 1)
            j0 = js[0] << r
            return [(lo + (2 * j + 1) * w * scale,) for j in range(j0, j0 + (1 << r))]
        return [self.center(k) for k in self.descendants(key, r)]

    def candidates(self, d: int, cells) -> list:
        """Point keys of the candidate tags of the depth-d `cells` (d < top),
        flat, cell by cell: the center, then `Box.corners` order."""
        s, axes = self.top - d, list(zip(*cells))
        centers = list(zip(*[[(2 * j + 1) << (s - 1) for j in js] for js in axes]))
        corners = [list(zip(*ends)) for ends in itertools.product(
            *[([j << s for j in js], [(j + 1) << s for j in js]) for js in axes])]
        return list(itertools.chain.from_iterable(zip(centers, *corners)))

    def masks(self, d: int, keys) -> list:
        """`admitted`'s mask of each point key on a depth-d cell, all at once."""
        unique, points, readers = dict.fromkeys(keys), self.points, self.readers
        new = [key for key in unique if key not in points]
        points.update(zip(new, zip(*[map(read, new) for read in readers]) if readers else [()] * len(new)))
        mask = dict(zip(unique, map(self.mask, itertools.repeat(d), map(points.get, unique))))
        return list(map(mask.__getitem__, keys))

    def admitted(self, d: int, js) -> Iterator:
        """(point key, mask) for each candidate tag of cell (d < top, js),
        lazily, in `candidates` order: the center, then `Box.corners` order.
        Each gauge reads a key once; `tag` builds a tag that is used."""
        s = self.top - d
        corners = itertools.product(*[(j << s, (j + 1) << s) for j in js])
        for key in (tuple((2 * j + 1) << (s - 1) for j in js), *corners):
            deltas = self.points.get(key)
            if deltas is None:
                deltas = self.points[key] = tuple(read(key) for read in self.readers)
            yield key, self.mask(d, deltas)


class DyadicTable(Mapping):
    """Values on the dyadic cells of a box to `depth`: one flat list per
    depth, in `DyadicGrid.index` order, None where a cell has no value (a
    table given as a dict has lists only down to its deepest cell).

    A `Box` is mapped to its (d, js) at the boundary (`table[box]`, `in`,
    `get`), and a missing cell raises KeyError(box), as a dict does.
    Every table iterates in one order, `by_depth`'s: by depth, then
    lexicographically, each cell's Box built as it is reached."""

    def __init__(self, grid: DyadicGrid, levels: list):
        self.grid, self.depth, self.levels = grid, grid.top, levels

    @classmethod
    def of(cls, entries, parent: Box, depth: int) -> "DyadicTable":
        """`entries` itself, or the table of a Box-keyed dict of dyadic
        cells of `parent` to `depth`."""
        if isinstance(entries, DyadicTable):
            return entries
        grid = DyadicGrid(parent, depth)
        keys = [grid.key(box) for box in entries]
        if None in keys:
            box = list(entries)[keys.index(None)]
            raise ValueError(f"{box} is not a dyadic cell of {parent} to depth {depth}")
        deepest = max((d for d, _ in keys), default=-1)
        levels = [[None] * 2 ** (parent.dim * d) for d in range(deepest + 1)]
        for (d, js), value in zip(keys, entries.values()):
            levels[d][grid.index(d, js)] = value
        return cls(grid, levels)

    def at(self, d: int, js):
        """The value on cell (d, js), or None."""
        return self.levels[d][self.grid.index(d, js)] if d < len(self.levels) else None

    def __getitem__(self, box):
        key = self.grid.key(box) if isinstance(box, Box) else None
        value = None if key is None else self.at(*key)
        if value is None:
            raise KeyError(box)
        return value

    def __iter__(self):
        return (cell for _, cell, _ in self.by_depth())

    def __len__(self):
        return sum(len(level) - level.count(None) for level in self.levels)

    def by_key(self) -> Iterator:
        """(d, js, value) for each cell with a value, by depth, then in
        lexicographic order."""
        for d, level in enumerate(self.levels):
            for js in itertools.product(range(2**d), repeat=self.grid.dim):
                if (value := level[self.grid.index(d, js)]) is not None:
                    yield d, js, value

    def by_depth(self) -> Iterator:
        """(d, Box, value) for each cell with a value, in `by_key`'s order."""
        return ((d, self.grid.cell(d, js), value) for d, js, value in self.by_key())


def _fine_partition(box: Box, gauge: Gauge, budget: int, pick) -> TaggedPartition:
    """Depth-first dyadic walk: pick(depth, point keys of the admissible
    tags, lazily) returns the key of a cell's tag, or None to bisect it,
    which at depth `budget` raises.  Only an emitted tag is built exactly."""
    grid = DyadicGrid(box, budget + 1, [gauge])
    items, stack = [], [(0, (0,) * box.dim)]
    while stack:
        d, js = stack.pop()
        key = pick(d, (key for key, fine in grid.admitted(d, js) if fine))
        if key is not None:
            items.append((grid.cell(d, js), grid.tag(key)))
        elif d >= budget:
            raise GaugeBudgetError(grid.cell(d, js), d)
        else:
            stack.extend(reversed(grid.children((d, js))))
    return TaggedPartition(box, items, _trusted=True)


def cousin_partition(
    box: Box, gauge: Gauge, depth_budget: int = DEPTH_BUDGET_DEFAULT
) -> TaggedPartition:
    """Constructive Cousin procedure: bisect until every cell admits a tag.

    Deterministic: tag candidates are tried center-first, then corners in
    lexicographic order; cells are emitted in depth-first bisection order.
    """
    if depth_budget < 1:
        raise ValueError("depth_budget must be >= 1")
    # no walk passes the depth where diam < the least float, 2^-1074: all tags are fine
    budget = min(depth_budget, 1076 + int(box.diameter_sq).bit_length() // 2)
    return _fine_partition(box, gauge, budget, lambda d, keys: next(keys, None))


def random_fine_partition(box: Box, gauge: Gauge, rng) -> TaggedPartition:
    """Randomized dyadic delta-fine partition (tags drawn from candidates).

    Used to sample many independent delta-fine partitions: cells are split
    while no candidate tag is admissible, and with probability 0.7 / 2^n
    anyway (0.35 in 1-D), down to DEPTH_BUDGET_DEFAULT levels; the tag is a
    uniformly chosen admissible candidate.  A split makes 2^n cells, so a
    cell has 0.7 children on average and the walk ends after a few levels
    in any dimension.  Deterministic for a given `rng` state.
    """
    split = 0.7 / 2**box.dim

    def pick(depth, keys):
        keys = list(keys)
        if keys and not (depth < DEPTH_BUDGET_DEFAULT and rng.random() < split):
            return keys[rng.randrange(len(keys))]

    return _fine_partition(box, gauge, DEPTH_BUDGET_DEFAULT, pick)


def enumerate_partitions(box: Box, grid: Sequence) -> Iterator[Partition]:
    """All 2^k partitions of a 1-D box with breakpoints from `grid`.

    The k interior grid points are switched on/off in binary counting
    order, so the coarsest partition (the box itself) comes first.
    """
    if box.dim != 1:
        raise DimensionMismatchError(
            "enumerate_partitions supports 1-D boxes only (use the dyadic DP in n-D)"
        )
    lo, hi = box.intervals[0]
    points = sorted({as_rational(g) for g in grid})
    if not points or points[0] != lo or points[-1] != hi:
        raise ValueError("grid must contain both endpoints of the box")
    if any(p < lo or p > hi for p in points):
        raise ValueError("grid point outside the box")
    interior = points[1:-1]
    k = len(interior)
    for mask in range(2**k):
        cuts = [lo] + [p for i, p in enumerate(interior) if mask >> i & 1] + [hi]
        cells = [Box(((a, b),)) for a, b in zip(cuts[:-1], cuts[1:])]
        yield Partition(box, cells, _trusted=True)


def dyadic_cells(box: Box, depth: int) -> Iterator[Box]:
    """All dyadic subcells of `box` at exactly `depth` bisection levels, in
    nested (`Box.bisect` applied `depth` times) order."""
    grid = DyadicGrid(box, depth)
    return (grid.cell(*key) for key in grid.descendants((0, (0,) * box.dim), depth))
