"""Monotonically-controlled-derivative verifier and control constructions.

The defining limit is tested at finite resolution: difference quotients
|F(y) - F(x) - f(x)(y-x)| / |phi(y) - phi(x)| are maximized over probe
points at geometrically spaced distances, giving a per-point profile q(h);
a pair passes at a point when q at the smallest scale is below tolerance
and the profile is nonincreasing (up to factor 2) over the last levels.

Construction side: rescaling, the sum/composition combinators from the
parts and change-of-variables proofs, gluing across a shared endpoint with
a control jump, bounded series controls, the monotone-convergence series
control, and both directions of the gauge <-> control conversion.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Sequence

from ._par import parallel_map
from .funcspace import IntervalFunction, PointFunction, SuperadditiveFn, as_scalar
from .hk import delta_variation_dp_tables
from .intervals import (
    Box,
    DyadicGrid,
    DyadicTable,
    Gauge,
    as_point,
    as_rational,
    fsums,
)
from .limits import LimitDivergesError, one_sided_limit

DEFAULT_H_LEVELS = tuple(2.0**-j for j in range(3, 17))
DEFAULT_PROBES = 32
MCT_SERIES_TERMS = 20  # terms kept by mct_control's series control


class InvalidControlError(ValueError):
    def __init__(self, x: float, y: float, px: float, py: float):
        self.pair = (x, y)
        super().__init__(
            f"control not strictly increasing: phi({x})={px}, phi({y})={py}"
        )


class NoGaugeError(RuntimeError):
    """The eps-inequality failed at the finest tested scale at some point."""


class CertificationError(ValueError):
    """A required delta-variation bound is missing or violated."""


class MctDivergenceError(RuntimeError):
    """The integral sequence has no finite limit (divergent hypothesis)."""


Jump = namedtuple("Jump", "at left right")


def diverging_column(values: Sequence[float]) -> bool:
    """True when a monotone column's increments fail to settle.

    Divergence shows as a final increment comparable to the initial one
    (constant or growing steps); convergent columns have their increments
    collapse toward zero instead.
    """
    if len(values) < 4:
        return False
    if any(not math.isfinite(v) for v in values):
        return True
    scale = max(1.0, max(abs(v) for v in values))
    diffs = [b - a for a, b in zip(values, values[1:])]
    tiny = 1e-9 * scale
    return diffs[-1] > tiny and diffs[-1] >= 0.6 * max(diffs[0], tiny)


class ControlFunction1D:
    """Strictly increasing real function on an open interval.

    Monotonicity is an invariant checked on sampled pairs (the verifier
    rejects any probe pair that violates it).  `jumps` records declared
    jump points with one-sided limits, as produced by gluing.
    """

    def __init__(self, fn, domain, label: str = "phi", jumps: tuple = ()):
        self.fn = as_scalar(fn)
        self.domain = (float(domain[0]), float(domain[1]))
        self.label = label
        self.jumps = tuple(jumps)

    def __call__(self, x) -> float:
        return float(self.fn(float(x)))

    @classmethod
    def identity(cls, domain) -> "ControlFunction1D":
        return cls(lambda t: t, domain, label="x")

    @classmethod
    def from_expr(cls, text: str, domain) -> "ControlFunction1D":
        return cls(PointFunction.resolve(text), domain, label=text)

    def __repr__(self):
        return f"ControlFunction1D({self.label} on {self.domain})"


def _as_control(phi, domain=None) -> ControlFunction1D:
    if isinstance(phi, ControlFunction1D):
        return phi
    if domain is None:
        raise ValueError("bare callables need an explicit domain")
    return ControlFunction1D(phi, domain)


# ---------------------------------------------------------------------------
# Verifier


def mc_defect(
    F,
    f,
    phi,
    x: float,
    h_levels: Sequence[float] = DEFAULT_H_LEVELS,
    probes_per_level: int = DEFAULT_PROBES,
    domain=None,
) -> list:
    """Worst difference quotient q(h) per level at the point x.

    Probes are geometrically spaced on both sides within each level band;
    q(h) is the maximum over all probes with 0 < |y-x| <= h.
    """
    F = as_scalar(F)
    f = as_scalar(f)
    phi_c = phi if isinstance(phi, ControlFunction1D) else None
    phi = as_scalar(phi)
    levels = [float(h) for h in h_levels]
    if any(b >= a for a, b in zip(levels, levels[1:])) or not levels:
        raise ValueError("h_levels must be strictly decreasing")
    if domain is None and phi_c is not None:
        domain = phi_c.domain
    x = float(x)
    Fx = F(x)
    fx = f(x)
    px = phi(x)

    def quotient(y: float) -> float:
        py = phi(y)
        if (py - px) * (y - x) <= 0.0:
            raise InvalidControlError(x, y, px, py)
        return abs(F(y) - Fx - fx * (y - x)) / abs(py - px)

    band_max = []
    for j, h in enumerate(levels):
        nxt = levels[j + 1] if j + 1 < len(levels) else h / 2.0
        ratio = nxt / h
        worst = -math.inf
        for i in range(probes_per_level):
            d = h * ratio ** (i / probes_per_level)
            for y in (x - d, x + d):
                if domain is not None and not (domain[0] < y < domain[1]):
                    continue
                q = quotient(y)
                if q > worst:
                    worst = q
        band_max.append(worst)
    out = []
    running = -math.inf
    for worst in reversed(band_max):
        running = max(running, worst)
        out.append(running)
    out.reverse()
    if out[-1] == -math.inf:
        raise ValueError(f"no admissible probes around {x}")
    return out


@dataclass
class McPointRecord:
    x: float
    q: tuple


@dataclass
class McFailure:
    x: float
    q_last: float
    reason: str  # 'threshold' | 'trend'


@dataclass
class McVerdict:
    passed: bool
    tol: float
    h_levels: tuple
    points: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tol": self.tol,
            "h_levels": list(self.h_levels),
            "points": [{"x": p.x, "q": list(p.q)} for p in self.points],
            "failures": [
                {"x": w.x, "q_last": w.q_last, "reason": w.reason}
                for w in self.failures
            ],
        }

    def to_csv_rows(self) -> list:
        rows = [["x", "h", "q"]]
        for p in self.points:
            for h, q in zip(self.h_levels, p.q):
                rows.append([repr(p.x), repr(h), repr(q)])
        return rows


def _verdict(tol: float, h_levels: tuple, points, profiles) -> McVerdict:
    """Threshold at the finest level plus a factor-2 decay-trend check."""
    verdict = McVerdict(True, tol, h_levels)
    for x, qs in zip(points, profiles):
        verdict.points.append(McPointRecord(x, tuple(qs)))
        reason = None
        if qs[-1] > tol:
            reason = "threshold"
        elif len(qs) >= 3 and not (
            qs[-1] <= 2.0 * qs[-2] and qs[-2] <= 2.0 * qs[-3]
        ):
            reason = "trend"
        if reason is not None:
            verdict.passed = False
            verdict.failures.append(McFailure(x, qs[-1], reason))
    return verdict


def verify_mc(
    F,
    f,
    phi,
    domain,
    sample_points: Sequence[float],
    h_levels: Sequence[float] = DEFAULT_H_LEVELS,
    tol: float = 1e-3,
    probes_per_level: int = DEFAULT_PROBES,
) -> McVerdict:
    """Finite-resolution verdict on the controlled-derivative condition.

    One `mc_defect` profile per sample point, in order; at least one point
    is needed.  The points go through `_par.parallel_map`, so a heavy run
    (many points, or a costly F or phi such as a series control) shares
    them with one forked child; the verdict is bit-identical either way.
    """
    domain = (float(domain[0]), float(domain[1]))
    pts = [float(p) for p in sample_points]
    if not pts:
        raise ValueError("verify_mc needs at least one sample point")
    for p in pts:
        if not domain[0] < p < domain[1]:
            raise ValueError(f"sample point {p} not interior to {domain}")

    F, f, phi = as_scalar(F), as_scalar(f), as_scalar(phi)

    def at(p):
        return mc_defect(F, f, phi, p, h_levels, probes_per_level, domain)

    levels = tuple(float(h) for h in h_levels)
    return _verdict(tol, levels, pts, parallel_map(at, pts))


def _residuals(F, G, Phi, box: Box, deepest: int):
    """(grid, residuals): residuals(x, fx, levels) yields (k, Q,
    |F(Q) - fx G(Q)|, Phi(Q)) for each level k in order, fx = f(x), where Q
    is (d, index spans) and grid.span_box(*Q) its box.

    The tested boxes Q are the depth-k dyadic cell containing x (on an
    interior cut the cell on the high side), its values read by index where
    the operands allow (`on_grid`), plus, for k >= 1 and when every
    operand can be evaluated off the dyadic grid (no table kind), its
    half-cell translates that contain x, clipped to the box: index spans on
    the depth-(k+1) grid.  x is placed once, on the grid's top depth K: the
    depth-k cell's indices are the depth-K cell's shifted right by K - k.
    """
    translates = all(o.kind != "table" for o in (F, G, Phi))
    grid = DyadicGrid(box, deepest + 1)
    read_F, read_G, read_Phi = (o.on_grid(grid) for o in (F, G, Phi))
    K = grid.top

    def residuals(x, fx, levels):
        top, us = grid.containing(x, K), grid.units(x, K) if translates else None
        for k in levels:
            js = tuple(j >> (K - k) for j in top)
            yield (k, (k, [(j, j + 1) for j in js]),
                   abs(read_F(k, js) - fx * read_G(k, js)), read_Phi(k, js))
            if translates and k >= 1:
                n, r = 2 ** (k + 1), K - k - 1
                for shifts in itertools.product((-1, 0, 1), repeat=box.dim):
                    spans = [(max(2 * j + s, 0), min(2 * j + 2 + s, n))
                             for j, s in zip(js, shifts)]
                    if any(shifts) and all(a << r <= u <= b << r for (a, b), u in zip(spans, us)):
                        Q = grid.span_box(k + 1, spans)
                        yield k, (k + 1, spans), abs(F.value(Q) - fx * G.value(Q)), Phi.value(Q)

    return grid, residuals


def verify_mc_nd(
    F: IntervalFunction,
    f,
    G: IntervalFunction,
    Phi: SuperadditiveFn,
    box: Box,
    sample_points,
    depth_levels: Sequence[int] = tuple(range(2, 11)),
    tol: float = 1e-3,
) -> McVerdict:
    """Interval-function variant: q over shrinking boxes containing x.

    q at depth k is the worst |F(Q) - f(x) G(Q)| / Phi(Q) over the boxes
    tested by `_residuals`.
    """
    f = PointFunction.resolve(f)
    levels = list(depth_levels)
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("depth_levels must be a nonempty increasing sequence")
    _, residuals = _residuals(F, G, Phi, box, levels[-1])

    def at(point):
        qs = dict.fromkeys(levels, 0.0)
        for k, _Q, num, den in residuals(point, f(point), levels):
            qs[k] = max(qs[k], num / den)
        return list(qs.values())

    pts = [as_point(p) for p in sample_points]
    if not pts:
        raise ValueError("verify_mc_nd needs at least one sample point")
    xs = [float(p[0]) if len(p) == 1 else tuple(float(c) for c in p)
          for p in pts]
    return _verdict(tol, tuple(2.0**-k for k in levels), xs,
                    parallel_map(at, pts))


# ---------------------------------------------------------------------------
# Constructions


def rescale(phi: ControlFunction1D, alpha: float, beta: float) -> ControlFunction1D:
    """alpha*phi + beta with alpha > 0; preserves every verdict exactly."""
    if not alpha > 0.0:
        raise ValueError(f"rescaling needs alpha > 0, got {alpha}")
    phi = _as_control(phi)
    base = phi.fn
    jumps = tuple(
        Jump(j.at, alpha * j.left + beta, alpha * j.right + beta)
        for j in phi.jumps
    )
    return ControlFunction1D(
        lambda t: alpha * base(t) + beta,
        phi.domain,
        label=f"{alpha}*({phi.label})+{beta}",
        jumps=jumps,
    )


def combine_controls(
    mode: str,
    phi: ControlFunction1D,
    psi: ControlFunction1D,
    F=None,
) -> ControlFunction1D:
    """Combine controls the way the calculus proofs do.

    sum_with_identity: phi + psi + id, controlling the product pair
    (FG, fG + Fg).  compose: psi o F + phi, controlling (G o F, (g o F) f);
    F must be strictly increasing on the sampled domain.
    """
    phi = _as_control(phi)
    if mode == "sum_with_identity":
        psi = _as_control(psi, phi.domain)
        pf, qf = phi.fn, psi.fn
        lo = max(phi.domain[0], psi.domain[0])
        hi = min(phi.domain[1], psi.domain[1])
        return ControlFunction1D(
            lambda t: pf(t) + qf(t) + t,
            (lo, hi),
            label=f"({phi.label})+({psi.label})+x",
        )
    if mode == "compose":
        if F is None:
            raise ValueError("compose mode needs the inner function F")
        Ff = as_scalar(F)
        values = increasing_values(Ff, *phi.domain)
        psi = _as_control(psi, (values[0], values[-1]))
        pf, qf = phi.fn, psi.fn
        return ControlFunction1D(
            lambda t: qf(Ff(t)) + pf(t),
            phi.domain,
            label=f"({psi.label})o F+({phi.label})",
        )
    raise ValueError(f"unknown mode {mode!r}")


def glue_controls(F1, phi1: ControlFunction1D, F2, phi2: ControlFunction1D):
    """Glue (F1, phi1) on (a,b) and (F2, phi2) on (b,c) across b.

    Shifts both pieces so the glued F is continuous with F(b) = 0 and
    normalizes the controls so phi jumps from -1/2 to +1/2 at b; the jump
    keeps the denominator of the defining quotient away from zero at b.
    Requires bounded one-sided limits at b (rescale through
    bounded_control first if a piece is unbounded).
    """
    phi1, phi2 = _as_control(phi1), _as_control(phi2)
    a, b = phi1.domain
    b2, c = phi2.domain
    if b != b2:
        raise ValueError(f"domains must share the glue point: {b} vs {b2}")
    F1s, F2s = as_scalar(F1), as_scalar(F2)
    step_l = (b - a) / 8.0
    step_r = (c - b) / 8.0
    F1b = one_sided_limit(F1s, b, -1, step_l)
    F2b = one_sided_limit(F2s, b, +1, step_r)
    p1b = one_sided_limit(phi1.fn, b, -1, step_l)
    p2b = one_sided_limit(phi2.fn, b, +1, step_r)

    def F(t: float) -> float:
        if t < b:
            return F1s(t) - F1b
        if t > b:
            return F2s(t) - F2b
        return 0.0

    p1f, p2f = phi1.fn, phi2.fn

    def phi(t: float) -> float:
        if t < b:
            return p1f(t) - p1b - 0.5
        if t > b:
            return p2f(t) - p2b + 0.5
        return 0.0

    control = ControlFunction1D(
        phi,
        (a, c),
        label=f"glue({phi1.label},{phi2.label})@{b}",
        jumps=(Jump(b, -0.5, 0.5),),
    )
    return F, control


def bounded_control(phis: Sequence, windows: Sequence) -> ControlFunction1D:
    """Bounded series control sum 2^-k psi_k on expanding windows.

    phis[k] must be strictly increasing on a neighborhood of windows[k] =
    (a_k, b_k); it is rescaled into (0,1) there and clamped to 0 left of
    a_k and 1 right of b_k.  The result is bounded in (0,1) and strictly
    increasing on the union of the windows.  The series has
    K = min(len(phis), len(windows)) terms; the dropped tail is below 2^-K
    and reported as `.tail_bound`.
    """
    windows = [
        (float(as_rational(a)), float(as_rational(b))) for a, b in windows
    ]
    K = min(len(windows), len(phis))
    if K < 1:
        raise ValueError("need at least one window")
    pieces = []
    for k in range(K):
        a_k, b_k = windows[k]
        if not a_k < b_k:
            raise ValueError(f"window {k + 1} is empty: {windows[k]}")
        fn = as_scalar(phis[k])
        lo, hi = fn(a_k), fn(b_k)
        if not lo < hi:
            raise ValueError(
                f"phi_{k + 1} is not increasing on window {windows[k]}"
            )
        pieces.append((a_k, b_k, fn, lo, hi - lo))

    def phi(t: float) -> float:
        total = 0.0
        w = 1.0
        for a_k, b_k, fn, lo, span in pieces:
            w *= 0.5
            if t <= a_k:
                continue
            if t >= b_k:
                total += w
            else:
                total += w * (fn(t) - lo) / span
        return total

    outer = (windows[K - 1][0], windows[K - 1][1])
    control = ControlFunction1D(phi, outer, label=f"bounded series K={K}")
    control.tail_bound = 0.5**K
    return control


def mct_control(
    F_seq: Sequence,
    f_seq: Sequence,
    phi_seq: Sequence,
    domain,
    F=None,
) -> ControlFunction1D:
    """Series control for the monotone-convergence limit pair.

    Selects a subsequence whose endpoint limits approach the limit
    function's faster than 2^-j, then emits
    sum 2^-j phi_j + sum j (F - F_j) + id truncated at MCT_SERIES_TERMS
    terms, with both truncation tails reported.  Refuses
    (MctDivergenceError) when the endpoint limits diverge, i.e. the
    finite-limit hypothesis fails.
    """
    a, b = float(domain[0]), float(domain[1])
    n = len(F_seq)
    if n < 1 or len(f_seq) != n or len(phi_seq) != n:
        raise ValueError("F_seq, f_seq, phi_seq must share a positive length")
    step = (b - a) / 8.0
    fns = [as_scalar(Fk) for Fk in F_seq]
    try:
        base = [one_sided_limit(fn, a, +1, step) for fn in fns]
        tops = [one_sided_limit(fn, b, -1, step) for fn in fns]
    except LimitDivergesError as e:
        raise MctDivergenceError(f"endpoint limit diverges: {e}") from e
    ends = [t - base_k for t, base_k in zip(tops, base)]
    if any(not math.isfinite(v) or abs(v) > 1e12 for v in ends):
        raise MctDivergenceError(f"endpoint increments blow up: {ends[-6:]}")
    if diverging_column(ends):
        raise MctDivergenceError(
            f"integral increments do not settle: {ends[-6:]}"
        )

    if F is not None:
        Fs = as_scalar(F)
        top = one_sided_limit(Fs, b, -1, step)
        base_ref = one_sided_limit(Fs, a, +1, step)
        limit_end = top - base_ref
        F_ref = Fs
    else:
        limit_end = ends[-1]
        F_ref = fns[-1]
        base_ref = base[-1]

    selected = []
    j = 1
    k = 0
    while k < n and len(selected) < MCT_SERIES_TERMS:
        if ends[k] > limit_end - 0.5**j:
            selected.append(k)
            j += 1
        k += 1
    if not selected:
        raise MctDivergenceError(
            "no index satisfies the fast-approach condition"
        )

    # controls rescaled into (0,1) on the open domain (a rescaled control
    # is again a control)
    grid = chebyshev_points(a, b, 33)
    bounded = []
    for k in selected:
        fn = as_scalar(phi_seq[k])
        vals = [fn(t) for t in grid]
        lo, hi = min(vals), max(vals)
        span = hi - lo
        if span <= 0.0:
            raise ValueError(f"phi_{k + 1} is constant on the sample grid")
        margin = 0.02
        bounded.append(
            (fn, lo, span, margin)
        )

    terms = list(zip(selected, bounded))

    def phi(t: float) -> float:
        total = t
        w = 1.0
        ref = F_ref(t) - base_ref
        for j_idx, (k, (fn, lo, span, margin)) in enumerate(terms, start=1):
            w *= 0.5
            psi = (fn(t) - lo) / span * (1.0 - 2.0 * margin) + margin
            total += w * psi
            total += j_idx * (ref - (fns[k](t) - base[k]))
        return total

    control = ControlFunction1D(phi, (a, b), label=f"mct series K={len(terms)}")
    control.selected_indices = [k + 1 for k in selected]
    Kp = len(terms)
    control.tail_bound_controls = 0.5**Kp
    control.tail_bound_masses = sum(
        j * 0.5**j for j in range(Kp + 1, Kp + 200)
    )
    control.limit_estimate = limit_end
    return control


# ---------------------------------------------------------------------------
# Gauge <-> control conversion


def _largest_dyadic_below(v: float) -> float:
    h = 1.0
    while h > v:
        h *= 0.5
        if h < 1e-300:
            raise ValueError(f"no positive dyadic below {v}")
    return h


def gauge_from_control(
    F: IntervalFunction,
    f,
    G: IntervalFunction,
    Phi: SuperadditiveFn,
    eps: float,
    sample_points,
    depth: int,
    box: Box,
) -> Gauge:
    """Gauge realizing |F(Q) - f(x) G(Q)| < eps Phi(Q) on tested boxes.

    At each sample x the tested family is the dyadic cells containing x at
    every level down to `depth` (plus clipped half-cell translates when
    all operands evaluate off-grid); delta(x) is the largest dyadic h <= 1
    below every failing box's diameter.  Failure at the finest scale means
    the control verification contract is broken: NoGaugeError.

    The returned gauge extends the sampled values piecewise-constantly
    (conservative bracket minimum in one dimension) with floor 2^-depth.
    """
    if not eps > 0.0:
        raise ValueError("eps must be > 0")
    f = PointFunction.resolve(f)
    if F.kind == "table" and depth > F.depth:
        raise ValueError(
            f"table-backed F only reaches depth {F.depth}, requested {depth}"
        )
    grid, residuals = _residuals(F, G, Phi, box, depth)

    def delta_at(point) -> float:
        fx = f(point)
        worst_fail = math.inf
        for level, Q, num, den in residuals(point, fx, range(depth + 1)):
            if not num < eps * den:
                Q = grid.span_box(*Q)
                if level == depth:
                    raise NoGaugeError(
                        f"inequality fails at the finest scale at "
                        f"x={tuple(map(float, point))}, box {Q}"
                    )
                worst_fail = min(worst_fail, Q.diameter)
        if worst_fail is math.inf:
            return 1.0
        return _largest_dyadic_below(worst_fail)

    pts = [as_point(p) for p in sample_points]
    values = parallel_map(delta_at, pts)
    floor = 0.5**depth
    if box.dim == 1:
        gauge = Gauge.piecewise_1d(
            [(p[0], v) for p, v in zip(pts, values)],
            floor=floor,
            label=f"gauge(eps={eps})",
        )
    else:
        guard = max(min(values), floor)
        gauge = Gauge.constant(guard)
        gauge.label = f"gauge(eps={eps})"
    gauge.sample_values = {tuple(map(float, p)): v for p, v in zip(pts, values)}
    gauge.eps = eps
    return gauge


def control_from_gauges(
    psi,
    gauges: Sequence[Gauge],
    box: Box,
    depth: int,
) -> SuperadditiveFn:
    """Superadditive control |Q| + sum k V_delta_k(Q) from certified gauges.

    Each gauge delta_k must satisfy V_delta_k(box, psi) <= 2^-k on the
    dyadic class (checked via the delta-variation dynamic program); a
    violated or incomputable bound raises CertificationError.
    """
    K = len(gauges)
    if K < 1:
        raise ValueError("need at least one gauge")
    tables = delta_variation_dp_tables(psi, box, gauges, depth)
    for k, table in enumerate(tables, start=1):
        root = table.levels[0][0]
        if math.isnan(root):
            raise CertificationError(f"gauge {k} has V = nan: psi is nan on a fine pair")
        if root == -math.inf:
            raise CertificationError(
                f"gauge {k} admits no delta-fine dyadic configuration"
            )
        if any(-math.inf in level for level in table.levels):
            raise CertificationError(
                f"gauge {k} leaves cells without fine configurations"
            )
        bound = 0.5**k
        if root > bound + 1e-12:
            raise CertificationError(
                f"certified bound missing for k={k}: V={root} > 2^-{k}"
            )

    # by index, a depth at a time; the volume is the float of the exact one
    grid, levels = tables[0].grid, []
    for d in range(depth + 1):
        weighted = zip(*[[k * v for v in t.levels[d]] for k, t in enumerate(tables, start=1)])
        levels.append(list(map(grid.cell_volume(d).__add__, fsums(weighted))))
    phi = SuperadditiveFn.table(
        DyadicTable(grid, levels), box, depth,
        name=f"|Q|+sum k*V_k (K={K})",
    )
    phi.certified = [0.5**k for k in range(1, K + 1)]
    return phi


def chebyshev_points(a: float, b: float, n: int) -> list:
    """n Chebyshev-spaced interior points of (a, b), ascending; for odd n
    the middle one is the midpoint itself (cos(pi/2) is not 0 in floats)."""
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    pts = [mid + half * math.cos(math.pi * (2 * i + 1) / (2 * n)) for i in range(n)]
    if n % 2:
        pts[n // 2] = mid
    return sorted(pts)


def increasing_values(F, a: float, b: float) -> list:
    """F at the 33 Chebyshev points of (a, b), each evaluated once; a
    ValueError names the first two between which F does not strictly rise."""
    grid = chebyshev_points(a, b, 33)
    values = [F(t) for t in grid]
    for u, v, Fu, Fv in zip(grid, grid[1:], values, values[1:]):
        if not Fu < Fv:
            raise ValueError(f"F not strictly increasing: F({u})={Fu} !< F({v})={Fv}")
    return values
