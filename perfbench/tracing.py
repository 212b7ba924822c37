"""In-memory tracer for the traced benchmark run.

Wrappers are installed from the benchmark's own files; the library source
is untouched.  Every wrapped call pushes a frame on one stack, so a call's
self time is its duration minus the time of the wrapped calls it made,
whether those are module entry points or the callables the benchmark
built (integrands, G, gauges, psi, controls).  While `active` is false,
as when the harness checks a job's output, wrapped calls go untimed.

Entry points are kept as spans (id, name, start, end, parent id, job id)
and written out at the end.  The fine-grained callables run millions of
times per run, so they are aggregated in place (calls, self time) instead
of being stored one span per call; the self-time rule is the same.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [child_seconds, nearest recorded span id]
        self.stats = {}  # name -> [calls, self_s, total_s]
        self.counts = {}  # name -> summed work count
        self.spans = []
        self.job = None
        self.active = True
        self.setup_stats, self.setup_counts = {}, {}
        self._next_id = 0

    def end_setup(self):
        """Keep the totals so far apart, as the set-up's share."""
        self.setup_stats = {name: list(stat) for name, stat in self.stats.items()}
        self.setup_counts = dict(self.counts)

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, record=False, after=None):
        """Return fn timed under `name`; `record` keeps one span per call.

        `after(result)` runs outside the timed interval and may update
        counts or wrap callables in the result.
        """
        stack = self.stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            span_id = parent
            if record:
                self._next_id += 1
                span_id = self._next_id
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[0]
                stat[2] += duration
                if stack:
                    stack[-1][0] += duration
                if record:
                    self.spans.append((span_id, name, start, end, parent, self.job))
            if after is not None:
                after(result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the public entry points in every loaded gaugecalc module."""
        from gaugecalc import _par, calculus, funcspace, hk, intervals, limits, mc

        def counted(name, size):
            def after(result):
                self.count(name, size(result))
            return after

        def integrate_done(result):
            self.count("hk.integrate.evals", result.evaluations)
            self.count("hk.integrate.converged", int(result.converged))

        def control_built(control):
            control.fn = self.wrap("mc.control_eval", control.fn)

        entry_points = [
            (hk.hk_integrate, "hk.integrate", integrate_done),
            (hk.indefinite_hk, "hk.indefinite",
             counted("hk.indefinite.cells", lambda t: len(t.entries))),
            (hk.delta_variation_dp_table, "hk.dp", counted("hk.dp.cells", len)),
            (hk.riemann_sum, "hk.riemann_sum", None),
            (funcspace.parse, "funcspace.parse", None),
            (intervals.cousin_partition, "intervals.partition",
             counted("intervals.partition.cells", len)),
            (intervals.random_fine_partition, "intervals.partition",
             counted("intervals.partition.cells", len)),
            (mc.verify_mc, "mc.verify",
             counted("mc.verify.points", lambda v: len(v.points))),
            (mc.mct_control, "mc.mct_control", control_built),
            (mc.gauge_from_control, "mc.gauge_from_control", None),
            (mc.control_from_gauges, "mc.control_from_gauges", None),
            (mc.verify_mc_nd, "mc.verify_nd", None),
            (calculus.mct_experiment, "calculus.mct_experiment", None),
            (calculus.check_parts, "calculus.identity", None),
            (calculus.check_change_of_variables, "calculus.identity", None),
            (calculus.check_interval_additivity, "calculus.identity", None),
            (limits.one_sided_limit, "limits.one_sided", None),
            (_par.parallel_map, "par.map", counted("par.map.items", len)),
        ]
        # helpers that run too often to keep one span per call
        helpers = [(intervals._diam_lt, "intervals.diam_lt", None)]
        modules = [m for key, m in sys.modules.items()
                   if key == "gaugecalc" or key.startswith("gaugecalc.")]
        for (original, name, after), record in (
                [(e, True) for e in entry_points] + [(h, False) for h in helpers]):
            wrapper = self.wrap(name, original, record=record, after=after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        # methods reached through objects, whoever built them
        for cls in (funcspace.IntervalFunction, funcspace.SuperadditiveFn):
            cls.value = self.wrap("funcspace.interval_value", cls.value)
        intervals.Gauge.__call__ = self.wrap(
            "intervals.gauge_eval", intervals.Gauge.__call__
        )

    def wrap_point_function(self, pf):
        """Time every call of a benchmark-built PointFunction."""
        pf.fast_eval = self.wrap("funcspace.point_eval", pf.fast_eval)
        pf.fn = self.wrap("funcspace.point_eval", pf.fn)
        return pf

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
