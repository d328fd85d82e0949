"""``tools/compare_trees.py`` runs every case and command on this checkout."""

import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from gmspde.config import loads

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

TINY = """\
[scheme]
horizon = 0.01
[functionals]
observation_stride = 5
[run]
paths = 2
[fixedpoint]
ensemble_size = 2
max_iterations = 3
"""


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "compare_trees", ROOT / "tools" / "compare_trees.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_trees_passes_a_tree_against_itself(tool, capsys):
    # the tool knows only the current API, so a change that breaks one
    # of its cases or configs fails here, not first when a pull request
    # is compared
    assert tool.case_pass(SRC, SRC) == 0
    assert "DIFFERS" not in capsys.readouterr().out
    for text in tool.CONFIGS.values():
        loads(text)


def test_command_pass_reports_a_file_that_differs_by_one_byte(tool, tmp_path,
                                                              capsys):
    tiny = {"tiny": TINY}
    assert tool.command_pass(SRC, SRC, tiny, seeds=(0,), selftest=False) == 0
    out = capsys.readouterr().out
    # the config, the five commands' 15 files, and their stdout, stderr
    # and exit codes
    assert out == "31 of 31 command files byte-identical\n"
    old, new = tmp_path / "old", tmp_path / "new"
    tool.run_commands(SRC, str(old), tiny, seeds=(0,), selftest=False)
    shutil.copytree(old, new)
    target = new / "runs" / "tiny" / "seed0" / "simulate" / "trace.csv"
    data = bytearray(target.read_bytes())
    data[-2] ^= 1
    target.write_bytes(bytes(data))
    everything, differ = tool.differing_files(str(old), str(new))
    assert len(everything) == 31
    assert differ == ["runs/tiny/seed0/simulate/trace.csv"]
    # a file one tree lacks differs too
    (new / "runs" / "tiny" / "seed0" / "spectrum.stderr").unlink()
    assert len(tool.differing_files(str(old), str(new))[1]) == 2


def test_command_pass_fails_runs_that_exit_nonzero(tool, capsys):
    # identical config errors in both trees are no comparison: each of the
    # five commands fails in each tree
    bad = {"bad": "[scheme]\nreaction_cfl_limit = 0\n"}
    assert tool.command_pass(SRC, SRC, bad, seeds=(0,), selftest=False) == 10
    assert "EXIT 1  new runs/bad/seed0/simulate\n" in capsys.readouterr().out


def test_help_prints_the_usage_without_starting_a_child(tool, monkeypatch,
                                                       capsys):
    def no_child(*args, **kwargs):
        raise AssertionError("a child process was started")

    monkeypatch.setattr(tool.subprocess, "run", no_child)
    for flag in ("-h", "--help"):
        assert tool.main([flag]) == 0
        assert capsys.readouterr().out == tool.__doc__ + "\n"
    # any other option is a usage error, reported with the usage
    for argv in (["--bogus"], ["-x", SRC], [SRC, "--help-me"]):
        assert tool.main(argv) == 2
        assert capsys.readouterr().err == tool.__doc__ + "\n"
    # and from the command line
    monkeypatch.undo()
    done = subprocess.run([sys.executable, str(ROOT / "tools" /
                                               "compare_trees.py"), "--help"],
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("Compare the numbers and the files")


def test_the_case_child_imports_the_tree_before_numpy(tmp_path):
    # the cases run under the tree's import-time settings (its BLAS
    # thread default), which must come before numpy loads
    package = tmp_path / "gmspde"
    package.mkdir()
    (package / "__init__.py").write_text(
        "import sys\nprint('numpy' in sys.modules)\nsys.exit(0)\n")
    done = subprocess.run([sys.executable, str(ROOT / "tools" /
                                               "compare_trees.py"),
                           "--child", str(tmp_path / "cases.pkl")],
                          capture_output=True, text=True, check=False,
                          env={**os.environ, "PYTHONPATH": str(tmp_path)})
    assert (done.returncode, done.stdout) == (0, "False\n")
