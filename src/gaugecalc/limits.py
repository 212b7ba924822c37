"""One-sided limit estimation on geometric approach sequences.

Richardson extrapolation over samples at geometrically shrinking offsets,
with divergence detection: constructions that need F(b-) or phi(a+) call
this instead of pretending a sample at b - eps is the limit.
"""

from __future__ import annotations

import math


class LimitDivergesError(RuntimeError):
    def __init__(self, at: float, side: int, samples):
        self.at = at
        self.side = side
        self.samples = list(samples)
        arrow = "-" if side < 0 else "+"
        shown = ", ".join(f"{v:.6g}" for v in self.samples[-6:])
        super().__init__(
            f"one-sided limit at {at}{arrow} diverges; escaping values [{shown}]"
        )


def one_sided_limit(fn, at: float, side: int, initial_step: float) -> float:
    """Estimate lim fn(x) as x -> at from below (side=-1) or above (+1).

    Samples fn(at + side * initial_step / 2^i) for i < 14, applies two
    Richardson stages (cancelling linear and quadratic error terms), and raises
    LimitDivergesError when the samples run away instead of settling.
    """
    if initial_step <= 0.0:
        raise ValueError("initial_step must be positive")
    xs = []
    for i in range(14):
        xs.append(fn(at + side * initial_step * 0.5**i))
    scale = max(1.0, abs(xs[0]))
    diffs = [abs(b - a) for a, b in zip(xs, xs[1:])]
    growing = sum(1 for a, b in zip(diffs[-4:], diffs[-3:]) if b > a * 1.5)
    if growing >= 3 or abs(xs[-1]) > 1e9 * scale or not math.isfinite(xs[-1]):
        raise LimitDivergesError(at, side, xs)
    r1 = [2.0 * b - a for a, b in zip(xs, xs[1:])]
    r2 = [(4.0 * b - a) / 3.0 for a, b in zip(r1, r1[1:])]
    return r2[-1]
