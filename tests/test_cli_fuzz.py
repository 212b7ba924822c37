"""Fuzzed command lines and `--config` files (ROADMAP item 4): every run
ends with exit code 0, 1 or 2 and no traceback, and exit 2 prints exactly
one line on stderr.

Each subcommand draws the flags it reads (`cli.COMMANDS`); `identity` and
`convert` draw those of the chosen kind or direction (`cli._READS`), and
one time in sixteen one flag that it does not read.  Values are valid and
hostile mixed.  A share of the draws, a few per subcommand and identity
kind, gives every flag that it reads a valid value (a preset of its own
kind), so the library runs.  `--budget`, `--depth`, `--K` and `--samples` are
capped and always given.  The commands that integrate with no `--budget`
to bound them always get a `--tol` of 1e-3 or more and draw only
integrands that end quickly, so a run that cannot converge (item 13) does
not stall the suite.  A config file draws the same keys (and `kind` for
`identity`): numbers (within the same bounds) where a config may give
them, arrays for the box, and, one time in eight, a value of any other
JSON type (null, a boolean, a number of any size, an array or an object).
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaugecalc.cli import _CHOICES, _READS, COMMANDS, IDENTITY_PRESETS, main

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
BOXES = ["[0,1]", "[-1,1]", '["1/3","1/2"]', "[[0,1],[0,1]]", '[["0","3/4"],["1/5","1"]]']
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
# the presets of each identity kind and of mct; not the `hk` additivity
# preset, which takes seconds
PRESETS = {kind: [p for p in presets if p != "hk"] for kind, presets in IDENTITY_PRESETS.items()}
PRESETS["mct"] = ["min-inv-sqrt", "constant", "diverging"]
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
    "preset": (values(*PRESETS.values()), values(["nope"])),
    "direction": (values(["to-gauge", "to-control"]), values(["sideways"])),
    "format": (values(["csv", "json"]), values(["xml"])),
    # a file; a directory, or a file in a missing directory
    "out": (values(["{tmp}/out.csv"]), values(["{tmp}", "{tmp}/no/out.csv"])),
}
# valid values that depend on the identity kind or the command: its own
# presets, a 1-D box for the tables, and a < b < c
VALID_FOR = {**{(kind, "preset"): presets for kind, presets in PRESETS.items()},
             **{(kind, "box"): BOXES[:3] for kind in ("monotone", "constancy")},
             ("additivity", "a"): ["0", "1/3"], ("additivity", "b"): ["1/2"],
             ("additivity", "c"): ["1", "2"]}
# the values of the commands that integrate with no --budget
QUICK = {"f": values(QUICK_F), "tol": values(TOLS)}
KINDS = list(_CHOICES["kind"])


# keys whose values bound the run: a number is drawn below the same cap
CAPS = {"budget": 2000, "depth": 5, "K": 3, "samples": 40}
# keys a config may give as a JSON number, and boxes given as JSON arrays
NUMERIC = {"tol", "eps", "delta", "psi_c", "psi_p", "dev_tol", "at", "a", "b", "c", "grid",
           *CAPS}
BOX_ARRAYS = st.sampled_from([[0, 1], [-1, 1], [0, "1/2"], [[0, 1], [0, 1]],
                              [["0", "3/4"], ["1/5", 1]], [1, 0], [[0, 1e308]]])
SCALARS = st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
# JSON values that are not strings: null, booleans, numbers, arrays (box-like
# ones too) and objects
OTHER_JSON = (SCALARS.filter(lambda v: not isinstance(v, str))
              | st.floats(allow_nan=False)
              | st.lists(SCALARS, max_size=3)
              | st.lists(st.lists(st.integers(-1, 2) | st.sampled_from(["1/3", "3/4"]),
                                  min_size=2, max_size=2), min_size=1, max_size=2)
              | st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))


def flag_value(draw, key, quick, valid=False, choice=None):
    """A flag's value as text, hostile one time in eight unless `valid`;
    then valid for `choice`, an identity kind or a command (`VALID_FOR`)."""
    good, hostile = FLAGS[key]
    if not valid and draw(st.integers(0, 7)) == 0:  # --out abc would write ./abc
        return draw(hostile if key == "out" else values(HOSTILE) | hostile)
    if valid and (choice, key) in VALID_FOR:
        return draw(values(VALID_FOR[choice, key]))
    return draw(QUICK.get(key, good) if quick else good)


def number(draw, key, quick):
    """A JSON number that `key` takes, within the bounds that keep a run
    short: the caps, a tol of 1e-3 or more where no budget bounds the run,
    and points in the unit interval.  OTHER_JSON draws the hostile ones."""
    if key in CAPS:
        return draw(st.integers(1, CAPS[key]) | st.floats(1, CAPS[key]))
    if key in ("a", "b", "c", "at"):
        return draw(st.integers(0, 1) | st.floats(0, 1))
    return draw(st.floats(1e-3 if quick else 1e-9, 10.0))


def keys_of(draw, command, choice, valid):
    """(the keys that `command`, or its kind or direction `choice`, reads,
    `kind` and `direction` aside, with `format` and `out`; the keys always
    given, all of them if `valid`; whether only tol bounds the run).
    Additivity draws the keys of one of its two entries, with a preset or
    without; one time in sixteen, unless `valid`, a key that the choice
    does not read is added, and always given."""
    quick = command in ("convert", "identity", "mct")
    every = [key for key in COMMANDS[command][1] if key not in ("kind", "direction")]
    entries = [name for name in (choice, f"{choice} with a preset") if name in _READS]
    keys = list(_READS[draw(st.sampled_from(entries))] if entries else every)
    always = set(CAPS) | ({"tol"} if quick else set())
    unread = [key for key in every if key not in keys]
    if valid:
        always.update(keys, ["format", "out"])
    elif unread and draw(st.integers(0, 15)) == 0:
        keys.append(draw(st.sampled_from(unread)))
        always.add(keys[-1])
    return keys + ["format", "out"], always, quick


def direction(draw, config, valid):
    """convert's direction: None (to-gauge) one time in ten, else as any
    key is drawn, of the wrong type one time in eight in a config."""
    if not draw(st.integers(0, 9)):
        return None
    if config and not valid and draw(st.integers(0, 7)) == 0:
        return draw(OTHER_JSON)
    return flag_value(draw, "direction", False, valid)


@st.composite
def argvs(draw, command=None, valid=False, kind=None):
    """An argv of `command`, or of any, and of the identity `kind`, or of
    any; with only valid values if `valid` (given an identity kind)."""
    command = command or draw(st.sampled_from(sorted(COMMANDS)))
    argv, choice = [command], None
    if command == "identity" and (valid or draw(st.integers(0, 9))):
        choice = kind or draw(st.sampled_from(KINDS + ["nope"]))
        argv.append(choice)
    if command == "convert":
        choice = direction(draw, False, valid)
        argv += [] if choice is None else [f"--direction={choice}"]
    keys, always, quick = keys_of(draw, command, choice or "to-gauge", valid)
    for key in draw(st.permutations(keys)):
        if key in always or draw(st.booleans()):
            value = flag_value(draw, key, quick, valid, choice or command)
            flag = "--" + key.replace("_", "-")
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@st.composite
def configs(draw, command=None, valid=False, kind=None):
    """(argv without the --config flag, config object), as `argvs`."""
    command = command or draw(st.sampled_from(sorted(COMMANDS)))
    argv, cfg, choice = [command], {}, None
    if command == "identity":  # the argument overrides the config's kind
        choice = kind or draw(st.sampled_from(KINDS))
        argv.append(choice)
        cfg["kind"] = choice if valid else draw(st.sampled_from(KINDS + ["nope"]) | OTHER_JSON)
    if command == "convert":
        choice = direction(draw, True, valid)
        if choice is not None:
            cfg["direction"] = choice
    keys, always, quick = keys_of(draw, command,
                                  choice if isinstance(choice, str) else "to-gauge", valid)
    for key in draw(st.permutations(keys)):
        if key in always or draw(st.booleans()):
            if valid:  # as a flag gives it
                cfg[key] = flag_value(draw, key, quick, True, choice or command)
            elif draw(st.integers(0, 7)) == 0:  # mostly of the wrong type
                cfg[key] = draw(OTHER_JSON)
            elif key in NUMERIC and draw(st.booleans()):
                cfg[key] = number(draw, key, quick)
            elif key == "box" and draw(st.booleans()):
                cfg[key] = draw(BOX_ARRAYS)
            else:
                cfg[key] = flag_value(draw, key, quick)
    return argv, cfg


def run_main(argv, tmp):
    """(exit code, stderr) of one CLI run, with {tmp} in argv replaced."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, err.getvalue()


def check(code, err, case):
    assert code in (0, 1, 2), case
    assert "Traceback" not in err, (case, err)
    if code == 2:
        assert len(err.strip().splitlines()) == 1, (case, err)


FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(argvs())
def test_every_argv_ends_with_0_1_or_2_and_no_traceback(argv):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_main(argv, tmp)
    check(code, err, argv)


@FUZZ
@given(configs())
def test_every_config_ends_with_0_1_or_2_and_no_traceback(case):
    argv, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(cfg.get("out"), str):
            cfg["out"] = cfg["out"].replace("{tmp}", tmp)
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as handle:
            json.dump(cfg, handle)
        code, err = run_main(argv + ["--config", path], tmp)
    check(code, err, case)


# the valid share: a few draws per subcommand and identity kind, so the
# library runs each one
VALID_CASES = [(c, None) for c in sorted(COMMANDS) if c != "identity"] + [
    ("identity", kind) for kind in KINDS]


@pytest.mark.parametrize("command,kind", VALID_CASES,
                         ids=[" ".join(filter(None, case)) for case in VALID_CASES])
def test_every_valid_argv_and_config_ends_with_0_1_or_2_and_no_traceback(command, kind):
    for test, cases in ((test_every_argv_ends_with_0_1_or_2_and_no_traceback, argvs),
                        (test_every_config_ends_with_0_1_or_2_and_no_traceback, configs)):
        settings(FUZZ, max_examples=8)(given(cases(command, True, kind))(
            test.hypothesis.inner_test))()
