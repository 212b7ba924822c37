"""Fuzzed command lines (ROADMAP item 4): every argv ends with exit code
0, 1 or 2 and no traceback, and exit 2 prints exactly one line on stderr.

Each subcommand draws the flags it reads (`cli.COMMANDS`), valid and
hostile values mixed.  `--budget`, `--depth`, `--K` and `--samples` are
capped and always given.  The commands that integrate with no `--budget`
to bound them always get a `--tol` of 1e-3 or more and draw only
integrands that end quickly, so a run that cannot converge (item 13) does
not stall the suite.
"""

import contextlib
import io
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaugecalc.cli import COMMANDS, main

# every flag draws a hostile value one time in eight: from HOSTILE, or
# from its own list of the wrong kind
HOSTILE = ["", " ", "abc", "nan", "inf", "-inf", "1e999", "-1", "0", "1/0", "\x00", "x²"]
# integrands that end quickly in any command: they converge, or fail on
# their first evaluation
QUICK_F = ["x", "2*x", "x^2", "3/2*x - x^2/4", "cos(x)", "exp(x)", "1", "0", "log(x-2)",
           "10^300"]
# and more for the commands whose --budget bounds the run
ANY_F = QUICK_F + ["1/x", "x^(0-1/2)", "sin(1/x)", "ite(x<1/3,0,1)", "abs(x-3/50)",
                   "hk_derivative", "hk_primitive", "inv_sqrt", "0/0"]
BAD_F = ["x2", "x1*x2", "((x", "x+", "foo(x)", "2**x", "x^x^x", "heaviside_1/2"]
BOXES = ["[0,1]", "[-1,1]", "[1/3,1/2]", "[[0,1],[0,1]]", '[["0","3/4"],["1/5","1"]]']
BAD_BOXES = ["[1,0]", "[0,0]", "[0]", "[0,1,2]", "[]", "{}", "null", "[0,inf]", "[nan,1]",
             "[0,1e308]", "[-1e308,1e308]", '[["-1e999","1"]]', "[1e-320,1e-310]",
             "[[0,1],[0,1],[0,1]]", '["a","b"]', "[true,1]"]
TOLS = ["1e-2", "1e-3", "0.5", "inf", "1e308"]
POINTS = ["0", "1/3", "1/2", "1", "2"]


def values(*pools):
    return st.sampled_from([v for pool in pools for v in pool])


def ints(hi):
    return st.integers(1, hi).map(str)


EXPRS = values(ANY_F)
FLAGS = {  # key: (valid values, hostile values)
    "f": (EXPRS, values(BAD_F) | st.text("x0123456789+-*/^(). ", max_size=10)),
    "F": (EXPRS, values(BAD_F)), "phi": (values(["x", "x^2", "2*x", "exp(x)"]), values(BAD_F)),
    "G": (values(["length", "volume", "x", "x^2", "heaviside_1/2"]), values(BAD_F)),
    "box": (values(BOXES), values(BAD_BOXES)),
    "tol": (values(TOLS, ["1e-6", "1e-300"]), values(["1e-400"])),
    "eps": (values(["0.5", "0.01", "1e-3"]), values(TOLS)),
    "delta": (values(["2", "0.3", "0.05"]), values(["5e-324", "1e308"])),
    "psi_c": (values(["1", "2.5"]), values(TOLS)),
    "psi_p": (values(["1", "0.5", "2"]), values(TOLS)),
    "dev_tol": (values(["1e-6", "1"]), values(TOLS)),
    "budget": (ints(2000), values(["1.5", "1e3"])), "depth": (ints(5), values(["1.5", "99"])),
    "samples": (ints(40), values(["1"])), "K": (ints(3), values(["1.5"])),
    "at": (values(["0", "1/2", "1/3,1/2", "0.25"]), values(["2", "1e-999", "1/3,,1/2"])),
    "a": (values(POINTS), values(["abc", "1e999"])), "b": (values(POINTS), values(["1e999"])),
    "c": (values(POINTS), values(["1e999", "1/0"])),
    "grid": (values(["0,1", "0,1/2,1", "0,1/4,1/2,3/4,1"]), values(["0,0,1", "1,0", "0,2,1"])),
    # not the `hk` additivity preset, which takes seconds
    "preset": (values(["ones", "sin-x", "zero", "square", "sqrt", "exp", "const", "inv-sqrt",
                       "min-inv-sqrt", "constant", "diverging"]), values(["nope"])),
    "direction": (values(["to-gauge", "to-control"]), values(["sideways"])),
    "format": (values(["csv", "json"]), values(["xml"])),
    # a file; a directory, or a file in a missing directory
    "out": (values(["{tmp}/out.csv"]), values(["{tmp}", "{tmp}/no/out.csv"])),
}
# the values of the commands that integrate with no --budget
QUICK = {"f": values(QUICK_F), "tol": values(TOLS)}
KINDS = ["parts", "change", "additivity", "monotone", "constancy"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    if command == "identity" and draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from(KINDS + ["nope"])))
    quick = command in ("convert", "identity", "mct")
    always = {"budget", "K", "depth", "samples"} | ({"tol"} if quick else set())
    keys = [key for key in COMMANDS[command][1] if key != "kind"]
    for key in draw(st.permutations(keys + ["format", "out"])):
        if key in always or draw(st.booleans()):
            valid, hostile = FLAGS[key]
            if draw(st.integers(0, 7)) == 0:  # --out abc would write ./abc
                value = draw(hostile if key == "out" else values(HOSTILE) | hostile)
            else:
                value = draw(QUICK.get(key, valid) if quick else valid)
            flag = "--" + key.replace("_", "-")
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_ends_with_0_1_or_2_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
        except SystemExit as exc:  # argparse
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1, (argv, err.getvalue())
