import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import gaugecalc
from gaugecalc.cli import _READS, _reading, main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIntegrate:
    def test_oscillating_derivative(self, capsys):
        code, out, err = run(
            ["integrate", "--f", "hk_derivative", "--box", "[0,1]",
             "--tol", "1e-4"], capsys,
        )
        assert code == 0
        value = float(out.splitlines()[1].split(",")[0])
        assert value == pytest.approx(math.sin(1), abs=1e-4)
        assert "converged=True" in err

    def test_json_format(self, capsys):
        for extra in ([], ["--G", "length"]):
            code, out, _ = run(
                ["integrate", "--f", "2*x", "--format", "json"] + extra, capsys)
            assert code == 0
            data = json.loads(out)
            assert data["value"] == pytest.approx(1.0, abs=1e-6)

    def test_budget_failure_exit_1(self, capsys):
        code, _, _ = run(
            ["integrate", "--f", "hk_derivative", "--tol", "1e-4",
             "--budget", "50"], capsys)
        assert code == 1

    def test_missing_function_exit_2(self, capsys):
        code, _, err = run(["integrate"], capsys)
        assert code == 2
        assert "config error" in err

    def test_bad_expression_exit_2(self, capsys):
        code, _, err = run(["integrate", "--f", "2x"], capsys)
        assert code == 2

    def test_stieltjes(self, capsys):
        for G in ("heaviside_1/2", "heaviside_0.5"):
            code, out, _ = run(
                ["integrate", "--f", "x", "--G", G,
                 "--tol", "1e-9", "--format", "json"], capsys)
            assert code == 0
            assert json.loads(out)["value"] == pytest.approx(0.5, abs=1e-9)


class TestVerifyMc:
    def test_abs_fails_with_witness(self, capsys):
        code, _, err = run(
            ["verify-mc", "--F", "abs(x)", "--f", "0", "--phi", "x",
             "--at", "0"], capsys)
        assert code == 1
        assert "q=1.0" in err

    def test_quadratic_passes(self, capsys):
        code, _, _ = run(
            ["verify-mc", "--F", "x^2/2", "--f", "x", "--phi", "x",
             "--box", "[0,1]", "--samples", "9"], capsys)
        assert code == 0


class TestIdentity:
    @pytest.mark.parametrize("kind,preset", [
        ("parts", "ones"), ("parts", "sin-x"), ("parts", "zero"),
        ("change", "square"), ("additivity", "const"),
    ])
    def test_presets_pass(self, kind, preset, capsys):
        code, out, _ = run(["identity", kind, "--preset", preset], capsys)
        assert code == 0
        assert out.startswith("name,lhs,rhs,residual,pass")

    def test_unknown_preset_exit_2(self, capsys):
        code, _, _ = run(["identity", "parts", "--preset", "nope"], capsys)
        assert code == 2

    def test_monotone(self, capsys):
        code, _, _ = run(["identity", "monotone", "--f", "2*x"], capsys)
        assert code == 0

    def test_constancy(self, capsys):
        code, out, _ = run(
            ["identity", "constancy", "--f", "2*x", "--format", "json"],
            capsys)
        assert code == 0
        assert json.loads(out)["deviation"] <= 1e-6

    def test_constancy_on_a_box_whose_ends_are_not_floats(self, capsys):
        # the grid points 1/3 + k/24 are no floats; the tables' prefix sums
        # read them exactly
        code, out, _ = run(["identity", "constancy", "--box", '["1/3","1/2"]', "--depth", "2",
                            "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["deviation"] <= 1e-6  # the default --dev-tol


class TestVariation:
    def test_dp_and_bruteforce(self, capsys):
        code, out, _ = run(
            ["variation", "--psi-c", "1", "--psi-p", "2", "--delta", "3",
             "--grid", "0,1/2,1", "--depth", "2"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "dp,1.0"
        assert lines[2] == "bruteforce,1.0"


class TestConvert:
    def test_to_gauge(self, capsys, tmp_path):
        out_file = tmp_path / "gauge.csv"
        code, _, _ = run(
            ["convert", "--direction", "to-gauge", "--f", "2*x",
             "--eps", "0.1", "--depth", "8", "--samples", "17",
             "--out", str(out_file)], capsys)
        assert code == 0
        rows = out_file.read_text().splitlines()
        assert rows[0] == "x,delta"
        assert all(float(r.split(",")[1]) > 0 for r in rows[1:])

    def test_to_control(self, capsys):
        code, out, _ = run(
            ["convert", "--direction", "to-control", "--f", "2*x",
             "--K", "4", "--depth", "8"], capsys)
        assert code == 0
        assert out.startswith("cell,phi")

    def test_to_control_certification_failure_exits_1(self, capsys):
        # the gauge 2^-4 admits no depth-4 cell, which is 2^-4 wide
        code, out, err = run(["convert", "--direction", "to-control", "--K", "5",
                              "--depth", "4"], capsys)
        assert code == 1 and out == ""
        assert err == ("certification failed: gauge 4 admits no delta-fine "
                       "dyadic configuration\n")


class TestMct:
    def test_divergent_preset(self, capsys):
        code, _, err = run(["mct", "--preset", "diverging", "--K", "8"], capsys)
        assert code == 1
        assert "divergent" in err

    def test_constant_preset(self, capsys):
        code, out, _ = run(
            ["mct", "--preset", "constant", "--K", "6", "--format", "json"],
            capsys)
        assert code == 0
        assert json.loads(out)["limit"] == pytest.approx(0.5, abs=1e-6)


class TestConfig:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"f": "x", "tol": 1e-6, "format": "json"}))
        code, out, _ = run(
            ["integrate", "--config", str(cfg), "--f", "2*x"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-6)

    def test_malformed_config_reports_line(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"f": nope}')
        code, _, err = run(["integrate", "--config", str(cfg)], capsys)
        assert code == 2
        assert "line 1" in err
        assert str(cfg) in err

    def test_nonpositive_tol_rejected(self, capsys):
        code, _, err = run(["integrate", "--f", "x", "--tol", "-1"], capsys)
        assert code == 2
        assert "tol" in err


class TestDeterminism:
    def test_same_config_same_bytes(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["verify-mc", "--F", "x^2/2", "--f", "x", "--phi", "x",
                "--box", "[0,1]", "--samples", "7"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()


# sha256 of stdout, so a change that should move no output byte shows every
# byte it moves; polynomial integrands only, so no libm function can move one
OUTPUT_DIGESTS = [
    (["convert", "--direction", "to-gauge"],
     "354a03b8681cc04c830afe809b56ad8e6b6945302192b81d5bcd855c8066df63"),
    (["convert", "--direction", "to-control"],
     "8df5f51e2deaf312d8b63e77d8ebfe175562254d2d88842202d4d42b33c297a9"),
    (["indefinite", "--f", "x^2", "--depth", "8"],
     "a2da854fff08c09c4f5c9de6c9328d3f25fc0e6c0f390a5821e32e8d9704baf8"),
    (["variation", "--depth", "6", "--delta", "0.3"],
     "74233f1552efa754be02b5522934ff6730ed7cfc8fa2362baf9b83686aed8dd1"),
    # a 2-D forced grid, and a table refined past its grid depth (to depth 8)
    (["indefinite", "--f", "x1^2*x2+x2/3", "--box", '[["0","3/4"],["1/5","1"]]',
      "--depth", "3"],
     "d17a0f63f9ae14ab5fbe6efdae051650ce3e2771fe1a545709d40c766f61842f"),
    (["indefinite", "--f", "x^3-x/3", "--depth", "3", "--tol", "1e-9"],
     "69d352ddfa805576f0480647ad7322ecf9235031d5a17186e39c65cea1b234d0"),
    # 2-D with non-dyadic widths: G is the float of the exact cell volume
    (["convert", "--box", '[["0","3/4"],["1/5","1"]]', "--direction", "to-control",
      "--f", "x1+x2/2", "--depth", "4", "--K", "2"],
     "6c77d160a36d7612f836fd0cc458fc24268ca5808f0bb61e1fd537111cf9f56d"),
    (["convert", "--box", '[["1/5","1"]]', "--direction", "to-control", "--f", "x^2",
      "--depth", "8", "--K", "3"],
     "6b3873e2d04c95a6fe66fe5a6805568283d292c6dc866529595f33457e3946f0"),
    # `cumulative` over a depth-6 table
    (["identity", "constancy", "--depth", "6"],
     "6af0310f2b0cd0663ffc5abb016607a4bde7ec55157c6bd88d173b73883a89ef"),
    # a jump of G at a box end that is not a float: 1/3, not 0.0
    (["integrate", "--f", "x", "--G", "heaviside_1/3", "--box", '[0,"1/3"]', "--tol", "1e-9"],
     "4e19a16e6731c77df7e720b52a934f3c024c55b5d816ab5a52ceefba0fa58f21"),
]


@pytest.mark.parametrize("argv,digest", OUTPUT_DIGESTS,
                         ids=[" ".join(argv[:3]) for argv, _ in OUTPUT_DIGESTS])
def test_output_bytes_are_pinned(argv, digest, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# (argv, exit code) of inputs that must end with one stderr line
ONE_LINE_ERRORS = [
    (["verify-mc", "--box", "[[0,1],[0,1]]"], 2),
    (["indefinite", "--f", "x", "--depth", "99"], 2),
    (["integrate", "--f", "log(x)", "--box", "[-1,1]"], 1),
    (["verify-mc", "--F", "x", "--f", "1", "--at", "abc"], 2),
    (["verify-mc", "--F", "x", "--f", "1", "--at", "2"], 2),
    (["variation", "--grid", "0,abc,1"], 2),
    (["variation", "--grid", "0,2,1"], 2),
    (["convert", "--direction", "to-gauge", "--samples", "1"], 2),
    (["convert", "--direction", "to-control", "--K", "0"], 2),
    (["identity", "additivity", "--f", "x", "--a", "1", "--b", "0"], 2),
    (["identity", "constancy", "--depth", "0"], 2),
    (["verify-mc", "--F", "log(x)", "--f", "1/x"], 1),
    (["verify-mc", "--F", "x", "--f", "1", "--phi", "0-x"], 1),
    # partial sums overflow: the sum is nan, not an OverflowError
    (["integrate", "--f", "10^300", "--box", "[0,200000000]"], 1),
    # 2-D cells deeper than 41 levels
    (["integrate", "--f", "(x1^2+x2^2)^(0-19/20)",
      "--box", "[[0,1],[0,1]]", "--tol", "1e-4", "--budget", "200000"], 1),
    # expressions nested deeper than the parser accepts
    (["integrate", "--f", "+".join(["x"] * 1200)], 2),
    (["integrate", "--f", "(" * 400 + "x" + ")" * 400], 2),
    # variables beyond the box's dimension
    (["integrate", "--f", "x2"], 2),
    (["integrate", "--f", "x", "--G", "x2"], 2),
    (["identity", "additivity", "--f", "ite(x<1/3,0,1)", "--tol", "1e-300"], 1),
    (["mct", "--K", "0"], 2),
    # verify-mc is one-dimensional
    (["verify-mc", "--F", "x2", "--f", "1"], 2),
    (["verify-mc", "--F", "x", "--f", "1", "--phi", "x2"], 2),
    # a forced grid beyond the evaluation budget
    (["indefinite", "--f", "x", "--depth", "24"], 2),
    (["indefinite", "--f", "x", "--depth", "14", "--budget", "100"], 2),
    # no sample points
    (["verify-mc", "--F", "x^2", "--f", "2*x", "--samples", "0"], 2),
    (["verify-mc", "--F", "x^2", "--f", "2*x", "--samples", "-3"], 2),
    # tracebacks found while fuzzing the CLI: an output path that cannot
    # be written, a zero denominator, and values beyond the float range
    (["integrate", "--f", "x", "--out", os.path.join(os.devnull, "out.csv")], 2),
    (["identity", "additivity", "--f", "x", "--c", "1/0"], 2),
    (["integrate", "--f", "x", "--box", '[["1/0","1"]]'], 2),
    (["verify-mc", "--F", "x", "--f", "1", "--at", "1e999"], 2),
    (["identity", "additivity", "--f", "x", "--c", "1e999"], 2),
    (["variation", "--box", "[-1e308,1e308]"], 2),
    (["verify-mc", "--F", "x", "--f", "1", "--box", '[["-1e999","1"]]'], 2),
    # a column past 1024 members, a box width beyond the float range, and an
    # additivity point that is not a number
    (["mct", "--K", "99999999999999999999"], 2),
    (["integrate", "--f", "x", "--box", "[-1e308,1e308]"], 2),
    (["identity", "additivity", "--f", "x", "--b", "abc"], 2),
    # 2.0**-K underflows to 0 from K = 1075
    (["convert", "--direction", "to-control", "--K", "2000"], 2),
    # a budget below the root cells' probes, uncut and cut at 0
    (["integrate", "--f", "inv_sqrt", "--budget", "14"], 2),
    (["integrate", "--f", "hk_primitive", "--box", "[-1,1]", "--budget", "29"], 2),
]


class TestErrors:
    @pytest.mark.parametrize("argv,expected", ONE_LINE_ERRORS,
                             ids=[f"argv{i}" for i in range(len(ONE_LINE_ERRORS))])
    def test_one_line_message_no_traceback(self, argv, expected, capsys):
        code, _, err = run(argv, capsys)
        assert code == expected
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_constancy_depth_0_names_the_flag(self, capsys):
        code, out, err = run(["identity", "constancy", "--depth", "0"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error: --depth 0: constancy needs depth >= 1")

    def test_mct_K_0_names_the_flag(self, capsys):
        code, out, err = run(["mct", "--K", "0"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error: --K 0:")

    @pytest.mark.parametrize("argv,prefix", [
        (["mct", "--K", "99999999999999999999"], "--K 99999999999999999999:"),
        (["mct", "--K", "1025"], "--K 1025:"),
        (["variation", "--box", "[-1e308,1e308]"], "invalid box '[-1e308,1e308]':"),
        (["integrate", "--f", "x", "--box", "[-1e308,1e308]"], "invalid box '[-1e308,1e308]':"),
        (["identity", "additivity", "--f", "x", "--c", "1e999"], "--c '1e999':"),
        (["identity", "additivity", "--f", "x", "--c", "1/0"], "--c '1/0':"),
        (["identity", "additivity", "--f", "x", "--b", "abc"], "--b 'abc':"),
        (["identity", "additivity", "--f", "x", "--a", "0,1"], "--a '0,1':"),
        (["convert", "--direction", "to-control", "--K", "0"], "--K 0:"),
        (["convert", "--direction", "to-control", "--K", "2000"], "--K 2000:"),
    ])
    def test_the_message_names_the_input(self, argv, prefix, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error: " + prefix)

    def test_unread_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "--f", "x", "--depth", "5", "--phi", "x"])
        assert exc.value.code == 2
        assert "--depth 5 --phi x" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["mct", "--f", "json"],
        ["integrate", "--bud", "10", "--form", "json", "--f", "x"],
        ["integrate", "--f"],
    ])
    def test_flags_are_not_abbreviated_and_errors_are_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv,unread", [
        (["identity", "parts", "--preset", "ones", "--tol", "1e-300"], "parts does not read tol"),
        (["identity", "monotone", "--a", "3", "--dev-tol", "5"], "monotone does not read a, dev_tol"),
        (["convert", "--direction", "to-control", "--eps", "0.5", "--samples", "3"],
         "to-control does not read eps, samples"),
        (["convert", "--K", "3"], "to-gauge does not read K"),
        (["identity", "additivity", "--preset", "const", "--f", "x", "--a", "5"],
         "additivity with a preset does not read a, f"),
    ], ids=["parts", "monotone", "to-control", "to-gauge", "additivity"])
    def test_a_flag_that_the_kind_or_direction_does_not_read_exits_2(self, argv, unread,
                                                                      capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == f"config error: {argv[0]} {unread}\n"

    @pytest.mark.parametrize("direction", [[1], {"to": "gauge"}])
    def test_a_direction_of_the_wrong_type_exits_2(self, direction, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"direction": direction}))
        code, out, err = run(["convert", "--config", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == ("config error: direction must be one of to-gauge, to-control, "
                       f"got {direction!r}\n")

    def test_a_config_key_that_the_kind_does_not_read_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "change", "preset": "square", "f": "x"}))
        code, out, err = run(["identity", "change", "--config", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == "config error: identity change does not read f\n"

    @pytest.mark.parametrize("argv", [
        ["identity", "parts", "--preset", "zero"],
        ["identity", "change", "--preset", "square"],
        ["identity", "additivity", "--preset", "const"],
        ["identity", "additivity", "--f", "x", "--a", "0", "--b", "1/4", "--c", "1",
         "--tol", "1e-3"],
        ["identity", "monotone", "--f", "2*x", "--box", "[0,1]", "--depth", "3", "--tol", "1e-6"],
        ["identity", "constancy", "--f", "2*x", "--box", "[0,1]", "--depth", "3", "--tol", "1e-8",
         "--dev-tol", "1e-6"],
        ["convert", "--direction", "to-gauge", "--f", "2*x", "--box", "[0,1]", "--depth", "4",
         "--tol", "1e-8", "--eps", "0.5", "--samples", "5"],
        ["convert", "--direction", "to-control", "--f", "2*x", "--box", "[0,1]", "--depth", "4",
         "--tol", "1e-8", "--K", "2"],
    ])
    def test_each_kind_and_direction_runs_with_the_keys_it_reads(self, argv, capsys):
        choice = argv[1] if argv[0] == "identity" else argv[2]
        given = {a[2:].replace("-", "_") for a in argv[2:] if a.startswith("--")} - {"direction"}
        assert sorted(given) == sorted(_READS[_reading(dict.fromkeys(given), choice)])
        code, out, err = run(argv, capsys)
        assert code == 0, err
        assert out

    def test_indefinite_budget_below_the_forced_grid(self, capsys):
        code, out, err = run(["indefinite", "--f", "x", "--depth", "24"], capsys)
        assert code == 2 and out == ""
        assert err == ("config error: depth 24 takes 268435455 evaluations on its "
                       "forced grid, over the budget of 10000000\n")

    def test_verify_mc_names_the_flag_of_a_second_variable(self, capsys):
        code, out, err = run(["verify-mc", "--F", "x", "--f", "1", "--phi", "x2"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error: --phi 'x2':")

    def test_unread_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"f": "x", "seed": 3}))
        code, _, err = run(["integrate", "--config", str(cfg)], capsys)
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("command,cfg,key", [
        ("integrate", {"f": "x", "tol": "abc"}, "tol"),
        ("integrate", {"f": "x", "budget": "ten"}, "budget"),
        ("indefinite", {"f": "x", "depth": "deep"}, "depth"),
        ("integrate", {"f": "x", "tol": [1e-3]}, "tol"),
        # text keys take a JSON string only, and choices are checked as
        # argparse checks them on the command line
        ("integrate", {"f": 5}, "f"),
        ("integrate", {"f": None}, "f"),
        ("integrate", {"f": ["x"]}, "f"),
        ("integrate", {"f": "x", "G": 3}, "G"),
        ("integrate", {"f": "x", "out": 5}, "out"),
        ("integrate", {"f": "x", "format": "xml"}, "format"),
        ("verify-mc", {"F": "x^2", "f": "2*x", "phi": {"x": 1}}, "phi"),
        ("mct", {"preset": ["ones"]}, "preset"),
        ("convert", {"direction": True}, "direction"),
        # a fraction for an int key, and a boolean for any number key, as
        # `--depth 1.5` and `--tol true` are refused on the command line
        ("indefinite", {"f": "x", "depth": 1.5}, "depth"),
        ("integrate", {"f": "x", "budget": -2.5}, "budget"),
        ("integrate", {"f": "x", "tol": True}, "tol"),
        ("indefinite", {"f": "x", "depth": False}, "depth"),
        ("integrate", {"f": "x", "budget": True}, "budget"),
    ])
    def test_config_value_of_wrong_type_exits_2(self, command, cfg, key,
                                                capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run([command, "--config", str(path)], capsys)
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"config error: {key} must be")

    @pytest.mark.parametrize("argv,cfg", [
        (["integrate"], {"f": "x", "box": [0, "1/2"]}),
        (["verify-mc"], {"F": "x^2", "f": "2*x", "box": [0, 1], "at": 0.5}),
        (["identity", "additivity"], {"f": "x", "a": 0, "b": 0.25, "c": 1}),
        # an integral float is an int
        (["integrate"], {"f": "x", "budget": 1000.0}),
        (["indefinite"], {"f": "x", "depth": 2.0, "tol": 1}),
    ])
    def test_config_numbers_and_arrays_where_flags_take_them(self, argv, cfg,
                                                             capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(argv + ["--config", str(path)], capsys)
        assert code == 0, err
        assert out

    def test_help_lists_only_read_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["mct", "--help"])
        out = capsys.readouterr().out
        assert "--K" in out and "--preset" in out
        for flag in ("--f ", "--depth", "--seed", "--g ", "--budget"):
            assert flag not in out


def test_cli_imports_only_the_standard_library():
    # only modules the import newly loads count: site hooks may preload
    # third-party modules before any gaugecalc code runs
    src = os.path.dirname(os.path.dirname(gaugecalc.__file__))
    code = ("import json, sys; before = set(sys.modules); import gaugecalc.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    top = {name.split(".")[0] for name in json.loads(out)}
    assert "gaugecalc" in top
    assert top - {"gaugecalc"} <= set(sys.stdlib_module_names)
