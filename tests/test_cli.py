import argparse
import json
import sys

import numpy as np
import pytest

from gmspde import cli, spectral
from gmspde.config import loads
from gmspde.io import read_snapshot, read_trace_csv
from gmspde.spectral import build_basis

TINY_2D = """\
[domain]
dim = 2
length_y = 1.5
grid_points = 16
[scheme]
dt = 0.001
horizon = 0.01
scheme = stratonovich_heun
[noise]
modes = 16
master_seed = 5
[functionals]
observation_stride = 5
"""

SIMULATE_FILES = ("trace.csv", "final.gmsp", "u_final.pgm", "v_final.pgm",
                  "u_final.pgm.bounds.txt", "v_final.pgm.bounds.txt",
                  "config.echo.txt")


TINY_1D = """\
[domain]
dim = 1
grid_points = 32
[scheme]
dt = 0.001
horizon = 0.01
[noise]
modes = 8
master_seed = 5
[functionals]
observation_stride = 5
[run]
paths = 5
[fixedpoint]
ensemble_size = 3
max_iterations = 4
"""

# subcommand -> (extra arguments, every file it writes, a line it reports)
ONE_D_RUNS = {
    "ensemble": ((), ("summary.txt", "means.csv", "standard_errors.csv",
                      "config.echo.txt"), "paths: 5, survivors: 5"),
    "fixedpoint": ((), ("summary.txt", "iterations.csv", "config.echo.txt"),
                   "(converged: True)"),
    "uniqueness": ((), ("summary.txt", "divergence.csv", "config.echo.txt"),
                   "within theorem scope (d=1)"),
    "selftest": (("--criteria", "1"), ("selftest.txt", "timing.json"),
                 "PASS criterion 1: basis orthonormality"),
}


def _cli(tmp_path, command, out_name, text=TINY_2D, extra=()):
    """Run ``command`` on the config ``text``; selftest takes no config."""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / out_name
    config = [] if command == "selftest" else ["--config", str(path)]
    argv = [command, *config, "--out-dir", str(out), "--quiet", *extra]
    assert cli.main(argv) == 0
    return out


def test_simulate_2d_writes_every_output_byte_identically(tmp_path):
    first = _cli(tmp_path, "simulate", "a")
    second = _cli(tmp_path, "simulate", "b")
    assert sorted(p.name for p in first.iterdir()) == sorted(SIMULATE_FILES)
    for name in SIMULATE_FILES:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    trace = read_trace_csv(str(first / "trace.csv"))
    assert np.allclose(trace["time"], [0.0, 0.005, 0.01], rtol=0, atol=1e-15)
    header, fields = read_snapshot(str(first / "final.gmsp"))
    assert header.shape == (17, 17) and header.time == pytest.approx(0.01)
    assert all(np.all(np.isfinite(f)) and f.min() > 0 for f in fields)


def test_spectrum_2d_lists_the_basis_eigenvalues(tmp_path):
    out = _cli(tmp_path, "spectrum", "spec")
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "k,lambda_k,q1_k,q2_k"
    cfg = loads(TINY_2D)
    basis = build_basis(cfg.domain, cfg.noise.mode_count)
    lam = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(lam, basis.eigenvalues)
    assert (out / "config.echo.txt").exists()


@pytest.mark.parametrize("command", ["spectrum", "simulate"])
def test_a_command_forms_its_mode_list_once(tmp_path, monkeypatch, command):
    # the config builds the basis, and the command runs that basis; the
    # spy replaces every name the package binds to ``mode_list``
    calls = []
    mode_list = spectral.mode_list

    def spy(*args):
        calls.append(args)
        return mode_list(*args)
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "gmspde"
                and getattr(module, "mode_list", None) is mode_list):
            monkeypatch.setattr(module, "mode_list", spy)
    _cli(tmp_path, command, "out")
    assert len(calls) == 1


@pytest.mark.parametrize("command", sorted(ONE_D_RUNS))
def test_1d_subcommand_writes_its_files_byte_identically(tmp_path, command):
    extra, files, report = ONE_D_RUNS[command]
    first = _cli(tmp_path, command, "a", TINY_1D, extra)
    second = _cli(tmp_path, command, "b", TINY_1D, extra)
    assert sorted(p.name for p in first.iterdir()) == sorted(files)
    assert report in (first / files[0]).read_text()
    for name in files:
        if name == "timing.json":
            # wall times are measurements, not outputs: only their keys
            # are fixed
            a, b = (json.loads((d / name).read_text()) for d in (first, second))
            assert a.keys() == b.keys() == {"1"}
            assert a["1"]["limit_s"] == b["1"]["limit_s"] == 5.0
            assert a["1"]["elapsed_s"] >= 0.0
            continue
        a, b = (first / name).read_bytes(), (second / name).read_bytes()
        assert a == b, name


def test_selftest_prints_its_lines_unless_quiet(tmp_path, capsys):
    argv = ["selftest", "--criteria", "1", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert "PASS criterion 1" in capsys.readouterr().out
    assert cli.main(argv + ["--quiet"]) == 0
    assert capsys.readouterr().out == ""


def _outcome(argv, capsys):
    """Exit code, stdout and stderr of ``cli.main``."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_returns_0_and_prints_the_help_text(command, capsys):
    parser = cli._build_parser(command)
    if command is None:
        argv, want = ["-h"], parser.format_help()
    else:
        sub, = (a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
        argv, want = [command, "-h"], sub.choices[command].format_help()
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out == want and err == ""
    assert out.startswith(" ".join(["usage: gmspde", *argv[:-1]]))


USAGE_LINES = ([[], ["bogus"], ["-h"], ["-x", "simulate"],
                ["simulate", "--bogus"], ["simulate", "--paths", "3"]]
               + [[name, "-h"] for name in cli._COMMANDS])


@pytest.mark.parametrize("argv", USAGE_LINES, ids=" ".join)
def test_one_command_parser_answers_as_the_full_parser(argv, capsys,
                                                       monkeypatch):
    mine = _outcome(argv, capsys)
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full())
    assert mine == _outcome(argv, capsys)
    if argv == ["bogus"]:
        assert "argument command: invalid choice: 'bogus'" in mine[2]


def _config_error(argv, text, *problems):
    """A row whose config fails: exit 1 and these problem lines."""
    return argv, text, 1, "".join(
        line + "\n" for line in ["gmspde: configuration error:", *problems])


def _usage_error(argv, message):
    """A row whose argv fails to parse: exit 1, usage and ``message``."""
    return argv, None, 1, "{usage}gmspde: error: " + message + "\n"


# the problem line of model constants with no finite steady state
STEADY = ("[model] no finite steady state u* = kappa_u mu_v/(kappa_v mu_u), "
          "v* = kappa_v u*^2/mu_v at kappa_u = {}, kappa_v = {}, mu_u = {}, "
          "mu_v = {}")
V_STAR_ZERO = ("[model] steady state v* = kappa_v u*^2/mu_v = 0 is not "
               "positive at kappa_u = 0.0, kappa_v = 1.0, mu_u = 1.0, "
               "mu_v = 2.0")
SMALL_ENSEMBLE = "[run] paths must be >= 2 (an ensemble needs two)"
UNREADABLE = "gmspde: configuration error:\ncannot read config file "

# test -> case -> (argv, config text or None, exit code, the whole stderr),
# or test -> one such row for a test of one case.  Each row runs with
# --out-dir {tmp}/out --quiet, and a config text is written to
# {tmp}/run.cfg and given as its --config.  {tmp} stands for the test's
# directory and {usage} for the usage line.  refusal_test(test) makes the
# test; tests/test_config.py binds the names of the config tests.
REFUSALS = {
    "test_aliasing_modes_are_config_errors": {
        # grid frequency 2k = 62 >= N/2 on paper_1d; 2-D modes up to index 8
        # on N = 16
        "paper_1d": _config_error(
            ["spectrum"],
            "[domain]\nconvention = paper_1d\ngrid_points = 64\n"
            "[noise]\nmodes = 32\n",
            "[noise] modes = 32: grid frequency 62 aliases on a grid with 64 "
            "points per axis; need grid_points_per_axis >= 126"),
        "square": _config_error(
            ["spectrum"],
            "[domain]\ndim = 2\ngrid_points = 16\n[noise]\nmodes = 64\n",
            "[noise] modes = 64: grid frequency 8 aliases on a grid with 16 "
            "points per axis; need grid_points_per_axis >= 18"),
    },
    "test_bad_sizes_are_config_errors_before_any_output": {
        "ensemble --paths 1": _config_error(["ensemble", "--paths", "1"], "",
                                            SMALL_ENSEMBLE),
        "ensemble --paths 0": _config_error(["ensemble", "--paths", "0"], "",
                                            SMALL_ENSEMBLE),
        "ensemble --paths -3": _config_error(["ensemble", "--paths", "-3"],
                                             "", SMALL_ENSEMBLE),
        "[run] paths = 1": _config_error(["ensemble"], "[run]\npaths = 1\n",
                                         SMALL_ENSEMBLE),
        "fixedpoint --paths 0": _config_error(
            ["fixedpoint", "--paths", "0"], "",
            "[fixedpoint] ensemble_size must be >= 1"),
        "ensemble_size = 0": _config_error(
            ["fixedpoint"], "[fixedpoint]\nensemble_size = 0\n",
            "[fixedpoint] ensemble_size must be >= 1"),
        "max_iterations = 0": _config_error(
            ["fixedpoint"], "[fixedpoint]\nmax_iterations = 0\n",
            "[fixedpoint] max_iterations must be >= 1"),
        "tolerance = -1": _config_error(
            ["fixedpoint"], "[fixedpoint]\ntolerance = -1\n",
            "[fixedpoint] tolerance must be positive"),
        "bound_margin = 0": _config_error(
            ["fixedpoint"], "[fixedpoint]\nbound_margin = 0\n",
            "[fixedpoint] bound_margin must be positive"),
    },
    "test_keys_past_64_bits_are_config_errors_before_any_output": {
        # Philox keys are 64-bit words: a larger seed or path index would
        # wrap onto the noise of another
        "--seed 2**64": _config_error(
            ["simulate", "--seed", str(2**64)], "",
            "[noise] master_seed must be below 2**64"),
        "master_seed = 2**64": _config_error(
            ["uniqueness"], f"[noise]\nmaster_seed = {2**64}\n",
            "[noise] master_seed must be below 2**64"),
        "path_index = 2**64": _config_error(
            ["simulate"], f"[run]\npath_index = {2**64}\n",
            "[run] path_index must be below 2**64"),
    },
    "test_a_nonpositive_reaction_cfl_limit_is_a_config_error": {
        # the peak kappa_u max(u^2/v) dt is >= 0, so no step passes a
        # limit <= 0
        "simulate-0": _config_error(
            ["simulate"], "[scheme]\nreaction_cfl_limit = 0\n",
            "[scheme] reaction_cfl_limit must be positive"),
        "ensemble--1": _config_error(
            ["ensemble"], "[scheme]\nreaction_cfl_limit = -1\n",
            "[scheme] reaction_cfl_limit must be positive"),
    },
    # an override is validated with the file, and both are reported
    "test_a_bad_override_is_a_config_error_before_any_output": _config_error(
        ["spectrum", "--seed", "-1"], None,
        "[noise] master_seed must be a nonnegative integer"),
    "test_a_bad_file_value_and_a_bad_override_are_reported_together":
        _config_error(["ensemble", "--paths", "1"],
                      "[scheme]\nhorizon = 0\n",
                      "[scheme] horizon must be positive", SMALL_ENSEMBLE),
    "test_bad_values_are_config_errors_before_any_output": {
        # values a section's dataclass rejects: the problem names the section
        "horizon = 0": _config_error(["simulate"], "[scheme]\nhorizon = 0\n",
                                     "[scheme] horizon must be positive"),
        "horizon shorter than one step": _config_error(
            ["simulate"], "[scheme]\ndt = 5e-16\nhorizon = 1e-16\n",
            "[scheme] horizon 1e-16 is shorter than one step of 5e-16"),
        "stopping_levels = 4, 2": _config_error(
            ["uniqueness"], "[uniqueness]\nstopping_levels = 4, 2\n",
            "[uniqueness] stopping levels must be strictly increasing"),
        # named the order of the levels, not their absence
        "stopping_levels = (empty)": _config_error(
            ["uniqueness"], "[uniqueness]\nstopping_levels =\n",
            "[uniqueness] stopping levels must hold at least one level"),
        # perturbed mode K - 1 and ran; failed at run time after the echo
        "perturb_mode = -1": _config_error(
            ["uniqueness"], "[uniqueness]\nperturb_mode = -1\n",
            "[uniqueness] perturb_mode = -1 outside modes 0..15"),
        "perturb_mode = 99": _config_error(
            ["uniqueness"], "[uniqueness]\nperturb_mode = 99\n",
            "[uniqueness] perturb_mode = 99 outside modes 0..15"),
        # failed at run time, after the whole ensemble
        "horizons = -0.5": _config_error(
            ["ensemble"], "[ensemble]\nhorizons = -0.5, 0.5\n",
            "[ensemble] horizon -0.5 is negative"),
        # no steady state to start from: a ZeroDivisionError traceback after
        # the echo, or (mu_u = 1e-320, u* = inf) a non-finite state at step 0
        "mu_u = 0": _config_error(["simulate"], "[model]\nmu_u = 0\n",
                                  STEADY.format("1.0", "1.0", "0.0", "2.0")),
        "mu_v = 0": _config_error(["uniqueness"], "[model]\nmu_v = 0\n",
                                  STEADY.format("1.0", "1.0", "1.0", "0.0")),
        "kappa_v = 0": _config_error(
            ["ensemble"], "[model]\nkappa_v = 0\n",
            STEADY.format("1.0", "0.0", "1.0", "2.0")),
        "mu_u = 1e-320": _config_error(
            ["fixedpoint"], "[model]\nmu_u = 1e-320\n",
            STEADY.format("1.0", "1.0", "1e-320", "2.0")),
        # v* = 0: every run started from v = 0, floored on the whole grid
        # (fixedpoint failed its start's positivity check after the echo)
        "kappa_u = 0": _config_error(["fixedpoint"], "[model]\nkappa_u = 0\n",
                                     V_STAR_ZERO),
        "kappa_u = 0 simulate": _config_error(
            ["simulate"], "[model]\nkappa_u = 0\n", V_STAR_ZERO),
    },
    "test_non_finite_values_are_config_errors_before_any_output": {
        # non-finite floats ran on (or crashed) instead of failing
        "kappa_u = nan": _config_error(
            ["simulate"], "[model]\nkappa_u = nan\n",
            "line 2: bad value for 'kappa_u': 'nan' is not a finite number"),
        "length_x = inf": _config_error(
            ["simulate"], "[domain]\nlength_x = inf\n",
            "line 2: bad value for 'length_x': 'inf' is not a finite number"),
        "horizon = inf": _config_error(
            ["simulate"], "[scheme]\nhorizon = inf\n",
            "line 2: bad value for 'horizon': 'inf' is not a finite number"),
        "mu_u = inf": _config_error(
            ["simulate"], "[model]\nmu_u = inf\n",
            "line 2: bad value for 'mu_u': 'inf' is not a finite number"),
        "p = inf": _config_error(
            ["simulate"], "[functionals]\np = inf\n",
            "line 2: bad value for 'p': 'inf' is not a finite number"),
        "stopping_levels = 2, -inf": _config_error(
            ["simulate"], "[uniqueness]\nstopping_levels = 2, -inf\n",
            "line 2: bad value for 'stopping_levels': '-inf' is not a finite "
            "number"),
    },
    "test_removed_scheme_keys_are_unknown": {
        # removed scheme options are unknown keys
        "dealias": _config_error(["spectrum"], "[scheme]\ndealias = true\n",
                                 "line 2: unknown key 'dealias' in section "
                                 "[scheme]"),
        "exact_scalar_decay": _config_error(
            ["spectrum"], "[scheme]\nexact_scalar_decay = true\n",
            "line 2: unknown key 'exact_scalar_decay' in section [scheme]"),
    },
    "test_paths_is_rejected_where_unused": {
        # an option the command does not take: selftest's criteria fix their
        # own configs, so it takes no --config and no --seed (--criteria 1
        # keeps a wrongly accepted option from running every criterion)
        "simulate": _usage_error(["simulate", "--paths", "3"],
                                 "unrecognized arguments: --paths 3"),
        "uniqueness": _usage_error(["uniqueness", "--paths", "3"],
                                   "unrecognized arguments: --paths 3"),
        "spectrum": _usage_error(["spectrum", "--paths", "3"],
                                 "unrecognized arguments: --paths 3"),
        "selftest": _usage_error(
            ["selftest", "--paths", "3", "--criteria", "1"],
            "unrecognized arguments: --paths 3"),
        "selftest --config": _usage_error(
            ["selftest", "--config", "/nonexistent.cfg", "--criteria", "1"],
            "unrecognized arguments: --config /nonexistent.cfg"),
        "selftest --seed": _usage_error(
            ["selftest", "--seed", "5", "--criteria", "1"],
            "unrecognized arguments: --seed 5"),
    },
    "test_selftest_rejects_a_criterion_it_cannot_run": {
        # criteria selftest cannot run; an empty list ran every criterion
        "11": _config_error(["selftest", "--criteria", "11"], None,
                            "--criteria takes criterion numbers 1..10, got "
                            "'11'"),
        "0,3": _config_error(["selftest", "--criteria", "0,3"], None,
                             "--criteria takes criterion numbers 1..10, got "
                             "'0,3'"),
        "x": _config_error(["selftest", "--criteria", "x"], None,
                           "--criteria takes criterion numbers 1..10, got "
                           "'x'"),
        "empty": _config_error(
            ["selftest", "--criteria", ""], None,
            "--criteria takes criterion numbers 1..10, got ''"),
    },
    "test_a_config_file_that_cannot_be_read_is_a_config_error": {
        # config files that cannot be read, compared up to the OS error
        # text: an empty path ran the defaults; the others exited 2
        "empty": (["spectrum", "--config", ""], None, 1, UNREADABLE + "'': "),
        "missing": (["spectrum", "--config", "{tmp}/none.cfg"], None, 1,
                    UNREADABLE + "'{tmp}/none.cfg': "),
        "directory": (["spectrum", "--config", "{tmp}"], None, 1,
                      UNREADABLE + "'{tmp}': "),
        "latin1": (["spectrum"], "[run]\n# \xe9\n", 1,
                   UNREADABLE + "'{tmp}/run.cfg': "),
    },
    # a runtime failure, after the echo, names the row and the node
    "test_fixedpoint_names_the_row_of_a_nonpositive_start": (
        ["fixedpoint"], "[run]\ninitial_amplitude = 5.0\n"
        "[scheme]\nhorizon = 0.01\n", 2,
        "gmspde: runtime failure: start trajectory violates positivity: "
        "chi < 0 on row 0 at t = 0, node 20 (value -19.4254)\n"),
}
# compared up to the OS error text
OS_ERROR_TEXT = "test_a_config_file_that_cannot_be_read_is_a_config_error"


def _refuse(row, prefix, tmp_path, capsys):
    argv, text, code, err = row
    usage = cli._build_parser().format_usage()

    def fill(arg):
        return arg.replace("{tmp}", str(tmp_path)).replace("{usage}", usage)
    if text is not None:
        path = tmp_path / "run.cfg"
        path.write_bytes(text.encode("latin-1"))    # "\xe9" is one byte
        argv = [*argv, "--config", "{tmp}/run.cfg"]
    out = tmp_path / "out"
    got = _outcome([*map(fill, argv), "--out-dir", str(out), "--quiet"],
                   capsys)
    want = (code, "", fill(err))
    if prefix:
        got = (*got[:2], got[2][:len(want[2])])
    assert got == want
    if code == 1:
        assert not out.exists()


def refusal_test(name):
    """The test ``name``: each of its REFUSALS rows, under its case id."""
    rows, prefix = REFUSALS[name], name == OS_ERROR_TEXT
    if not isinstance(rows, dict):
        def test(tmp_path, capsys):
            _refuse(rows, prefix, tmp_path, capsys)
        return test

    @pytest.mark.parametrize("case", list(rows))
    def test(case, tmp_path, capsys):
        _refuse(rows[case], prefix, tmp_path, capsys)
    return test


for _name in ["test_selftest_rejects_a_criterion_it_cannot_run",
              "test_a_config_file_that_cannot_be_read_is_a_config_error",
              "test_fixedpoint_names_the_row_of_a_nonpositive_start"]:
    globals()[_name] = refusal_test(_name)
