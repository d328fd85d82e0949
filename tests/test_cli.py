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


# an empty list ran every criterion
@pytest.mark.parametrize("criteria", ["11", "0,3", "x",
                                      pytest.param("", id="empty")])
def test_selftest_rejects_a_criterion_it_cannot_run(criteria, tmp_path,
                                                     capsys):
    out = tmp_path / "out"
    argv = ["selftest", "--criteria", criteria, "--out-dir", str(out),
            "--quiet"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"--criteria takes criterion numbers 1..10, got {criteria!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["empty", "missing", "directory", "latin1"])
def test_a_config_file_that_cannot_be_read_is_a_config_error(case, tmp_path,
                                                             capsys):
    # an empty path ran the defaults; the others exited 2
    (tmp_path / "latin1.cfg").write_bytes(b"[run]\n# \xe9\n")
    given = {"empty": "", "missing": str(tmp_path / "none.cfg"),
             "directory": str(tmp_path),
             "latin1": str(tmp_path / "latin1.cfg")}[case]
    out = tmp_path / "out"
    code, _, err = _outcome(["spectrum", "--config", given, "--out-dir",
                             str(out), "--quiet"], capsys)
    assert code == 1
    assert err.startswith("gmspde: configuration error:\n"
                          f"cannot read config file {given!r}: ")
    assert not out.exists()


def test_fixedpoint_names_the_row_of_a_nonpositive_start(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\ninitial_amplitude = 5.0\n"
                    "[scheme]\nhorizon = 0.01\n")
    code, _, err = _outcome(["fixedpoint", "--config", str(path), "--out-dir",
                             str(tmp_path / "out"), "--quiet"], capsys)
    assert code == 2
    assert err == ("gmspde: runtime failure: start trajectory violates "
                   "positivity: chi < 0 on row 0 at t = 0, node 20 "
                   "(value -19.4254)\n")
