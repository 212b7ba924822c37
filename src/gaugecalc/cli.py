"""Batch front-end: parse experiment configs, dispatch to modules, emit tables.

Exit codes: 0 pass/convergence, 1 checked failure (an integrand or control
that fails where it is evaluated counts as one), 2 usage or config error
(a ValueError raised on an argument of the library counts as one).
Flags override values from --config (a flat JSON object); a subcommand
accepts only the flags and config keys it reads, and so does each kind of
`identity` and each direction of `convert` (`_READS`).  Outputs are
written atomically and deterministically (same config, same bytes).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

from .calculus import (
    check_change_of_variables,
    check_interval_additivity,
    check_monotone,
    check_parts,
    constancy_check,
    mct_experiment,
    suite_to_csv_rows,
)
from .funcspace import (
    EvalDomainError,
    IntervalFunction,
    ParseError,
    PointFunction,
    SuperadditiveFn,
)
from .hk import (
    DP_DEPTH_CAP,
    EVAL_BUDGET_DEFAULT,
    TagEvalError,
    cumulative,
    delta_variation_bruteforce,
    delta_variation_dp,
    hk_integrate,
    indefinite_hk,
    residual_cell_fn,
    table_to_csv_rows,
    volume_power_cell_fn,
)
from .intervals import Box, Gauge
from .mc import (
    CertificationError,
    ControlFunction1D,
    InvalidControlError,
    NoGaugeError,
    chebyshev_points,
    control_from_gauges,
    gauge_from_control,
    verify_mc,
)

USAGE_ERROR = 2
CHECK_FAILED = 1
MCT_K_MAX = 1024  # the column's members are all held at once


class ConfigError(Exception):
    pass


def _parse_box(text) -> Box:
    if isinstance(text, Box):
        return text
    try:
        data = json.loads(text) if isinstance(text, str) else text
        box = Box.from_json(data)
        for lo, hi in box.intervals:  # the engine reads the ends and widths as
            float(lo), float(hi), float(hi - lo)  # floats: OverflowError past their range
        return box
    except (ValueError, TypeError, ArithmeticError) as e:
        raise ConfigError(f"invalid box {text!r}: {e}") from e


def _fractions(cfg, key) -> list:
    """Comma-separated rational numbers of a config value, in the float range."""
    try:
        values = [Fraction(p) for p in str(cfg[key]).split(",")]
        for v in values:
            float(v)  # OverflowError past the float range
        return values
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise ConfigError(f"--{key} {cfg[key]!r}: {e}") from e


def _rational(cfg, key) -> Fraction:
    """The one rational number of a config value."""
    values = _fractions(cfg, key)
    if len(values) != 1:
        raise ConfigError(f"--{key} {cfg[key]!r}: one number expected")
    return values[0]


def _endpoints(box: Box):
    if box.dim != 1:
        raise ConfigError(f"needs a 1-D box, got {box}")
    (lo, hi), = box.intervals
    return lo, hi


def _write_atomic(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gaugecalc-")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _emit(cfg, rows, json_obj):
    fmt = cfg.get("format", "csv")
    text = (
        json.dumps(json_obj, sort_keys=True, indent=2) + "\n"
        if fmt == "json"
        else _csv_text(rows)
    )
    out = cfg.get("out")
    if out:
        try:
            _write_atomic(out, text)
        except OSError as e:
            raise ConfigError(f"--out {out!r}: {e.strerror}") from e
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def run_integrate(cfg) -> int:
    box = _parse_box(cfg.get("box", "[0,1]"))
    result = hk_integrate(
        cfg["f"], cfg.get("G"), box, tol=cfg.get("tol", 1e-6),
        budget=cfg.get("budget", EVAL_BUDGET_DEFAULT),
    )
    rows = [
        ["value", "error_estimate", "evaluations", "max_depth", "converged"],
        [repr(result.value), repr(result.error_estimate),
         str(result.evaluations), str(result.max_depth), str(result.converged)],
    ]
    _emit(cfg, rows, json.loads(result.to_json()))
    print(f"integral = {result.value!r} (converged={result.converged})",
          file=sys.stderr)
    return 0 if result.converged else CHECK_FAILED


def run_indefinite(cfg) -> int:
    box = _parse_box(cfg.get("box", "[0,1]"))
    table = indefinite_hk(
        cfg["f"], cfg.get("G"), box,
        depth=cfg.get("depth", 4),
        tol=cfg.get("tol", 1e-6),
        budget=cfg.get("budget", EVAL_BUDGET_DEFAULT),
    )
    rows = table_to_csv_rows(table)
    _emit(cfg, rows, {"cells": {str(cell): v for _, cell, v in table.entries.by_depth()},
                      "converged": table.result.converged})
    return 0 if table.result.converged else CHECK_FAILED


def run_verify_mc(cfg) -> int:
    lo, hi = _endpoints(_parse_box(cfg.get("box", "[-1,1]")))
    domain = (float(lo), float(hi))
    F = PointFunction.resolve(cfg["F"])
    f = PointFunction.resolve(cfg["f"])
    phi = ControlFunction1D.from_expr(cfg.get("phi", "x"), domain)
    if cfg.get("at") is not None:
        points = [float(p) for p in _fractions(cfg, "at")]
    else:
        n = cfg.get("samples", 33)
        if n < 1:
            raise ConfigError(f"--samples {n}: verify-mc needs at least one sample point")
        points = chebyshev_points(domain[0], domain[1], n)
    verdict = verify_mc(F, f, phi, domain, points, tol=cfg.get("tol", 1e-3))
    _emit(cfg, verdict.to_csv_rows(), verdict.to_json_dict())
    for w in verdict.failures:
        print(f"fail at x={w.x}: q={w.q_last} ({w.reason})", file=sys.stderr)
    return 0 if verdict.passed else CHECK_FAILED


def run_variation(cfg) -> int:
    box = _parse_box(cfg.get("box", "[0,1]"))
    psi = volume_power_cell_fn(cfg.get("psi_c", 1.0), cfg.get("psi_p", 1))
    gauge = Gauge.constant(cfg.get("delta", 2.0))
    depth = cfg.get("depth", 4)
    dp_value = delta_variation_dp(psi, box, gauge, depth)
    rows = [["method", "value"], ["dp", repr(dp_value)]]
    payload = {"dp": dp_value}
    if cfg.get("grid"):
        grid = _fractions(cfg, "grid")
        bf_value = delta_variation_bruteforce(psi, box, gauge, grid)
        rows.append(["bruteforce", repr(bf_value)])
        payload["bruteforce"] = bf_value
    _emit(cfg, rows, payload)
    return 0


def run_convert(cfg) -> int:
    box = _parse_box(cfg.get("box", "[0,1]"))
    f = PointFunction.resolve(cfg.get("f", "2*x"))
    depth = cfg.get("depth", 10)
    table = indefinite_hk(f, None, box, depth=depth, tol=cfg.get("tol", 1e-10))
    G = IntervalFunction.volume(box.dim)
    direction = cfg.get("direction", "to-gauge")
    if direction == "to-gauge":
        eps = cfg.get("eps", 0.01)
        n = cfg.get("samples", 65)
        if n < 2:
            raise ConfigError(f"samples must be >= 2, got {n}")
        lo, hi = _endpoints(box)
        samples = [lo + (hi - lo) * Fraction(i, n - 1) for i in range(n)]
        try:
            gauge = gauge_from_control(
                table, f, G, SuperadditiveFn.volume_power(1),
                eps, samples, depth, box,
            )
        except NoGaugeError as e:
            print(f"no gauge: {e}", file=sys.stderr)
            return CHECK_FAILED
        rows = [["x", "delta"]]
        for p, v in sorted(gauge.sample_values.items()):
            rows.append([repr(p[0]), repr(v)])
        _emit(cfg, rows, {"samples": {repr(k[0]): v for k, v in
                                      sorted(gauge.sample_values.items())}})
        return 0
    K = cfg.get("K", 6)
    psi = residual_cell_fn(f, G, table)
    gauges = [Gauge.constant(2.0**-k) for k in range(1, K + 1)]
    try:
        phi = control_from_gauges(psi, gauges, box, depth)
    except CertificationError as e:
        print(f"certification failed: {e}", file=sys.stderr)
        return CHECK_FAILED
    cells = {str(cell): v for _, cell, v in phi.entries.by_depth()}
    _emit(cfg, [["cell", "phi"]] + [[c, repr(v)] for c, v in cells.items()],
          {"cells": cells})
    return 0


IDENTITY_PRESETS = {
    "parts": {
        "ones": dict(f="1", F="x", g="1", G="x", interval=(0, 1), tol=1e-6),
        "sin-x": dict(f="cos(x)", F="sin(x)", g="1", G="x", interval=(0, 1), tol=1e-6),
        "zero": dict(f="0", F="0", g="0", G="0", interval=(0, 1), tol=1e-6),
    },
    "change": {
        "square": dict(F="x^2", f="2*x", g="1", interval=(0, 1), tol=1e-6),
        "sqrt": dict(F="x^2", f="2*x", g="sqrt(x)", interval=(0, 1), tol=1e-6),
        "exp": dict(F="exp(x)", f="exp(x)", g="1/x", interval=(0, 1), tol=1e-6),
    },
    "additivity": {
        "const": dict(f="1", a="0", b="1", c="2", tol=1e-6),
        "inv-sqrt": dict(f="inv_sqrt", a="0", b="1/4", c="1", tol=1e-3),
        "hk": dict(f="hk_derivative", a="0", b="1/2", c="1", tol=1e-3),
    },
}


def run_identity(cfg) -> int:
    kind = cfg.get("kind")
    preset = cfg.get("preset")
    # each check by its arguments' names, as a preset gives them
    checks = {"parts": check_parts, "change": check_change_of_variables,
              "additivity": check_interval_additivity}
    if kind in checks:
        spec = IDENTITY_PRESETS[kind].get(preset)
        if "preset" not in _READS[_reading(cfg, kind)]:  # additivity of its own f
            cfg = {"a": "0", "b": "1/2", "c": "1", **cfg}
            spec = dict(f=cfg["f"], tol=cfg.get("tol", 1e-6),
                        **{key: _rational(cfg, key) for key in ("a", "b", "c")})
        if spec is None:
            raise ConfigError(f"unknown preset {preset!r} for {kind} "
                              f"(have {sorted(IDENTITY_PRESETS[kind])})")
        reports = [checks[kind](**spec)]
        _emit(cfg, suite_to_csv_rows(reports), [r.to_json_dict() for r in reports])
        return 0 if all(r.passed for r in reports) else CHECK_FAILED
    if kind == "monotone":
        box = _parse_box(cfg.get("box", "[0,1]"))
        lo, hi = _endpoints(box)
        f = PointFunction.resolve(cfg.get("f", "2*x"))
        table = indefinite_hk(f, None, box, depth=cfg.get("depth", 6),
                              tol=cfg.get("tol", 1e-8))
        verdict = check_monotone(f=f, F_table=table,
                                 sample_points=chebyshev_points(float(lo), float(hi), 33))
        rows = [["precondition_ok", "passed"],
                [str(verdict.precondition_ok), str(verdict.passed)]]
        _emit(cfg, rows, {"precondition_ok": verdict.precondition_ok,
                          "passed": verdict.passed})
        return 0 if verdict.passed else CHECK_FAILED
    depth = cfg.get("depth", 6)
    if depth < 1:
        raise ConfigError(f"--depth {depth}: constancy needs depth >= 1 "
                          "(F2 is based at the box midpoint)")
    box = _parse_box(cfg.get("box", "[0,1]"))
    lo, hi = _endpoints(box)
    f = PointFunction.resolve(cfg.get("f", "2*x"))
    table = indefinite_hk(f, None, box, depth=depth, tol=cfg.get("tol", 1e-9))
    F1 = cumulative(table, lo)
    F2 = cumulative(table, (lo + hi) / 2)
    n = 2**depth
    grid = [lo + (hi - lo) * Fraction(i, n) for i in range(n + 1)]
    report = constancy_check(F1, F2, grid)
    rows = [["deviation", "constant"],
            [repr(report.deviation), repr(report.constant)]]
    _emit(cfg, rows, {"deviation": report.deviation,
                      "constant": report.constant})
    return 0 if report.deviation <= cfg.get("dev_tol", 1e-6) else CHECK_FAILED


def _mct_family(preset: str, K: int):
    if preset == "min-inv-sqrt":
        def member(k):
            thr = Fraction(1, k * k)
            return PointFunction.from_expr(f"ite(x<{thr},{k},1/sqrt(x))")

        def anti(k):
            thr = Fraction(1, k * k)
            return PointFunction.from_expr(f"ite(x<{thr},{k}*x,2*sqrt(x)-1/{k})")

        return (
            member,
            PointFunction.builtin("inv_sqrt"),
            [anti(k) for k in range(1, K + 1)],
            PointFunction.from_expr("2*sqrt(x)"),
        )
    if preset == "constant":
        return (
            lambda k: PointFunction.from_expr("x"),
            PointFunction.from_expr("x"),
            [PointFunction.from_expr("x^2/2") for _ in range(K)],
            PointFunction.from_expr("x^2/2"),
        )
    if preset == "diverging":
        return (lambda k: PointFunction.from_expr(str(k)), None, None, None)
    raise ConfigError(f"unknown mct preset {preset!r}")


def run_mct(cfg) -> int:
    K = cfg.get("K", 64)
    if K < 1:
        raise ConfigError(f"--K {K}: the sequence needs at least one member")
    member, f, F_seq, F = _mct_family(cfg.get("preset", "min-inv-sqrt"), K)
    lo, hi = _endpoints(_parse_box(cfg.get("box", "[0,1]")))
    report = mct_experiment(
        member, f, (float(lo), float(hi)), K,
        tol=cfg.get("tol", 1e-3), F_seq=F_seq, F=F,
    )
    _emit(cfg, report.to_csv_rows(), report.to_json_dict())
    if report.divergent:
        print("divergent: no finite limit", file=sys.stderr)
        return CHECK_FAILED
    return 0 if report.converged else CHECK_FAILED


# ---------------------------------------------------------------------------
# Entry point

# Each subcommand with the flags (config keys) it reads; `kind` is the
# positional argument of `identity`.
COMMANDS = {
    "integrate": (run_integrate, ("f", "G", "box", "tol", "budget")),
    "indefinite": (run_indefinite, ("f", "G", "box", "depth", "tol", "budget")),
    "verify-mc": (run_verify_mc, ("F", "f", "phi", "box", "at", "samples", "tol")),
    "variation": (run_variation,
                  ("box", "psi_c", "psi_p", "delta", "depth", "grid")),
    "convert": (run_convert, ("direction", "f", "box", "depth", "tol", "eps",
                              "samples", "K")),
    "identity": (run_identity, ("kind", "preset", "f", "a", "b", "c", "box",
                                "depth", "tol", "dev_tol")),
    "mct": (run_mct, ("preset", "K", "box", "tol")),
}
_COMMON = ("out", "format")

_FLAG_TYPES = {
    "tol": float, "eps": float, "delta": float, "psi_c": float,
    "psi_p": float, "dev_tol": float,
    "budget": int, "depth": int, "samples": int, "K": int,
}
# config keys whose value is text, as their flags give it
_TEXT = ("f", "F", "G", "phi", "preset", "out")
_CHOICES = {
    "kind": ("parts", "change", "additivity", "monotone", "constancy"),
    "direction": ("to-gauge", "to-control"),
    "format": ("csv", "json"),
}
# The keys each identity kind and convert direction reads, beside itself and _COMMON;
# additivity runs a preset or its own f, one entry each (`_reading`).
_READS = {"parts": ("preset",), "change": ("preset",), "additivity with a preset": ("preset",),
          "additivity": ("f", "a", "b", "c", "tol"), "monotone": ("f", "box", "depth", "tol"),
          "constancy": ("f", "box", "depth", "tol", "dev_tol"),
          "to-gauge": ("f", "box", "depth", "tol", "eps", "samples"),
          "to-control": ("f", "box", "depth", "tol", "K")}


def _reading(cfg: dict, choice: str) -> str:
    """The `_READS` entry of a kind or direction that cfg runs."""
    preset = f"{choice} with a preset"
    return preset if preset in _READS and "preset" in cfg else choice


class _Parser(argparse.ArgumentParser):
    """One-line errors; subparsers are made of the same class."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gaugecalc", allow_abbrev=False,
        description="gauge-integration and controlled-derivative toolkit",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (_run, keys) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="JSON config; flags override it")
        for key in keys + _COMMON:
            flag = key if key == "kind" else "--" + key.replace("_", "-")
            p.add_argument(flag, type=_FLAG_TYPES.get(key, str),
                           choices=_CHOICES.get(key))
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as e:
        raise ConfigError(f"{path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno}: {e.msg}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data


def _validate(cfg: dict, command: str):
    """Check cfg in place; a config value takes the type of its flag."""
    for key in _TEXT:
        if key in cfg and not isinstance(cfg[key], str):
            raise ConfigError(f"{key} must be a string, got {cfg[key]!r}")
    for key, choices in _CHOICES.items():
        if key in cfg and cfg[key] not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {cfg[key]!r}")
    if command in ("identity", "convert"):  # a key its kind or direction does not read
        name = _reading(cfg, cfg["kind"] if command == "identity"
                        else cfg.get("direction", "to-gauge"))
        unread = sorted(set(cfg) - {"kind", "direction", *_READS[name], *_COMMON})
        if unread:
            raise ConfigError(f"{command} {name} does not read {', '.join(unread)}")
    for key, kind in _FLAG_TYPES.items():
        if key not in cfg:
            continue
        value = cfg[key]
        try:  # a boolean is no number, and an int key takes no fraction
            if isinstance(value, bool) or kind is int and isinstance(value, float) and value % 1:
                raise ValueError
            cfg[key] = kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}") from None
        if kind is float and not cfg[key] > 0.0:
            raise ConfigError(f"{key} must be > 0, got {cfg[key]}")
    if cfg.get("budget") is not None and cfg["budget"] < 1:
        raise ConfigError("budget must be >= 1")
    if cfg.get("depth") is not None and not 0 <= cfg["depth"] <= DP_DEPTH_CAP:
        raise ConfigError(f"depth must be in 0..{DP_DEPTH_CAP}, got {cfg['depth']}")
    if command == "mct" and cfg.get("K", 0) > MCT_K_MAX:
        raise ConfigError(f"--K {cfg['K']}: mct takes at most {MCT_K_MAX} members")
    if cfg.get("direction") == "to-control" and not 1 <= cfg.get("K", 1) <= 1074:
        raise ConfigError(f"--K {cfg['K']}: to-control takes 1 to 1074 gauges 2^-k (> 0)")
    for key in ("f", "F", "G", "phi"):
        if key in cfg:
            try:
                if key == "G":
                    IntervalFunction.resolve(cfg[key], 1)
                elif PointFunction.resolve(cfg[key]).dim > 1 and command == "verify-mc":
                    raise ValueError("verify-mc takes functions of x1 only")
            except (ParseError, ValueError) as e:
                raise ConfigError(f"--{key} {cfg[key]!r}: {e}") from e


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    cfg = {}
    try:
        if args.config:
            cfg.update(_load_config(args.config))
            unread = sorted(set(cfg) - set(flags))
            if unread:
                raise ConfigError(f"{args.command} does not read {', '.join(unread)}")
        cfg.update((k, v) for k, v in flags.items() if v is not None)
        _validate(cfg, args.command)
        return COMMANDS[args.command][0](cfg)
    except (ConfigError, ParseError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except KeyError as e:
        print(f"config error: missing required option {e}", file=sys.stderr)
        return USAGE_ERROR
    except (TagEvalError, EvalDomainError) as e:
        print(f"evaluation error: {e}", file=sys.stderr)
        return CHECK_FAILED
    except InvalidControlError as e:
        print(f"invalid control: {e}", file=sys.stderr)
        return CHECK_FAILED
    except RuntimeError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return CHECK_FAILED
    except (ValueError, ArithmeticError) as e:  # e.g. 1/0, or 1e999 as a float
        print(f"config error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
