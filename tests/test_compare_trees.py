"""``tools/compare_trees.py`` runs every command on this checkout."""

import importlib.util
import os
import pathlib
import re
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
scheme = stratonovich_heun
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


def test_every_config_loads(tool):
    # the tool knows only the current config keys, so a change that
    # breaks one of its configs fails here, not first when a pull request
    # is compared
    for text, commands, seeds in tool.CONFIGS.values():
        loads(text)
        assert set(commands) <= set(tool.COMMANDS) and seeds


def test_command_pass_reports_a_file_that_differs_by_one_byte(tool, tmp_path,
                                                              capsys):
    tiny = {"tiny": tool.Config(TINY, seeds=(0,))}
    assert tool.command_pass(SRC, SRC, tiny, selftest=False) == 0
    out = capsys.readouterr().out
    # the config, the five commands' 15 files, and their stdout, stderr
    # and exit codes
    assert out == "31 of 31 command files byte-identical\n"
    old, new = tmp_path / "old", tmp_path / "new"
    tool.run_commands(SRC, str(old), tiny, selftest=False)
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


def test_command_pass_catches_a_planted_heun_defect(tool, tmp_path, capsys):
    # a copy of the package whose Heun corrector weighs the corrector's
    # noise 0.45 and the predictor's 0.55
    planted = tmp_path / "src"
    shutil.copytree(SRC, planted, ignore=shutil.ignore_patterns("__pycache__"))
    dynamics = planted / "gmspde" / "dynamics.py"
    text = dynamics.read_text()
    weight = "decay * 0.5 * (noise + corrector)"
    assert text.count(weight) == 1
    dynamics.write_text(text.replace(
        weight, "decay * (0.55 * noise + 0.45 * corrector)"))
    tiny = {"tiny": tool.Config(TINY, seeds=(0,))}
    assert tool.command_pass(str(planted), SRC, tiny, selftest=False) > 0
    out = capsys.readouterr().out
    assert "DIFFERS  runs/tiny/seed0/simulate/trace.csv\n" in out


def test_the_configs_reach_what_they_check(tool, tmp_path):
    # a config carries its check only while its runs reach it: some of
    # the CFL ensemble's paths fail and some survive, some stopping
    # levels are first hit mid-run, the floored ensemble counts, and some
    # paths of the zero-floor ensemble fail on v <= 0 while others survive
    names = ("ensemble_cfl", "stopping", "ensemble_floor", "ensemble_v_floor_0")
    configs = {name: tool.CONFIGS[name] for name in names}
    assert tool.run_commands(SRC, str(tmp_path), configs, selftest=False) == []
    runs = tmp_path / "runs"
    for name, seed in [("ensemble_cfl", seed)
                       for seed in tool.CONFIGS["ensemble_cfl"].seeds
                       ] + [("ensemble_v_floor_0", 0)]:
        summary = (runs / name / f"seed{seed}" / "ensemble" /
                   "summary.txt").read_text()
        head = summary.splitlines()[0]
        assert head.startswith("paths: 12, survivors: ")
        assert 0 < int(head.rsplit(" ", 1)[1]) < 12
    assert "failed: FloorViolation: " in summary
    summary = (runs / "stopping" / "uniqueness" / "summary.txt").read_text()
    assert "bitwise identical: True\n" in summary
    steps = [int(step) for step in re.findall(r"step (\d+)$", summary, re.M)]
    assert any(0 < step < 600 for step in steps)
    means = (runs / "ensemble_floor" / "ensemble" / "means.csv").read_text()
    assert float(means.splitlines()[-1].rsplit(",", 1)[1]) > 0


def test_command_pass_fails_runs_that_exit_nonzero(tool, capsys):
    # identical config errors in both trees are no comparison: each of the
    # five commands fails in each tree
    bad = {"bad": tool.Config("[scheme]\nreaction_cfl_limit = 0\n",
                              seeds=(0,))}
    assert tool.command_pass(SRC, SRC, bad, selftest=False) == 10
    assert "EXIT 1  new runs/bad/seed0/simulate\n" in capsys.readouterr().out


def test_the_tool_imports_neither_numpy_nor_a_tree():
    # each tree runs only as a command line, so a tree need keep no
    # internal name callable for another tree's tool
    code = ("import importlib.util, sys\n"
            "spec = importlib.util.spec_from_file_location("
            f"'tool', {str(ROOT / 'tools' / 'compare_trees.py')!r})\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "print([name for name in sys.modules\n"
            "       if name.split('.')[0] in ('numpy', 'gmspde')])\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.stdout == "[]\n"


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
