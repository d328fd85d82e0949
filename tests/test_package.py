"""The package's public surface: its exports and its console script."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import gmspde
from gmspde import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in gmspde.__all__ if not hasattr(gmspde, name)]
    assert missing == []


def test_console_script_is_cli_main():
    # the ``gmspde`` command an install of the package puts on PATH
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["gmspde"]
    module, _, attribute = target.partition(":")
    assert getattr(importlib.import_module(module), attribute) is cli.main


def test_cli_import_loads_no_acceptance_criteria():
    # the criteria are imported by ``selftest`` alone
    code = "import sys, gmspde.cli; print('gmspde.acceptance' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120,
                         env=_fresh_env()).stdout
    assert out.split() == ["False"]


# the variables OpenBLAS reads for its thread count
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# sim_2d's benchmark shape over 3 steps, whose synthesis OpenBLAS
# threads, and picard_1d's whole iteration
SIM_2D = """\
[domain]
dim = 2
grid_points = 128
[scheme]
dt = 0.001
horizon = 0.003
scheme = stratonovich_heun
[noise]
modes = 256
[functionals]
observation_stride = 1
"""
PICARD_1D = """\
[domain]
dim = 1
grid_points = 64
[scheme]
dt = 0.001
horizon = 0.1
scheme = ito_imex
[noise]
modes = 16
[functionals]
observation_stride = 25
[fixedpoint]
ensemble_size = 16
tolerance = 1e-06
"""


def _fresh_env(**chosen):
    """This environment without BLAS thread variables, plus ``chosen``.

    Built explicitly: importing gmspde set this process's own default.
    """
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    return dict(env, PYTHONPATH=path, **chosen)


@pytest.mark.parametrize("chosen", [{}, {"OPENBLAS_NUM_THREADS": "2"},
                                    {"OMP_NUM_THREADS": "2"}],
                         ids=["unset", "openblas", "omp"])
def test_blas_runs_one_thread_unless_the_user_set_a_count(chosen):
    code = ("import json, os, gmspde.cli\n"
            "tasks = '/proc/self/task'\n"
            f"seen = {{k: os.environ.get(k) for k in {BLAS_THREADS!r}}}\n"
            "count = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
            "print(json.dumps([seen, count]))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120,
                         env=_fresh_env(**chosen)).stdout
    seen, count = json.loads(out)
    expected = chosen or {"OPENBLAS_NUM_THREADS": "1"}
    assert seen == dict(dict.fromkeys(BLAS_THREADS), **expected)
    if not chosen and count is not None:
        # numpy alone starts an OpenBLAS worker on a host of two cores
        assert count == 1


@pytest.mark.parametrize("command, text", [("simulate", SIM_2D),
                                           ("fixedpoint", PICARD_1D)])
def test_outputs_do_not_depend_on_the_blas_thread_count(command, text,
                                                        tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    files = {}
    for name, chosen in (("two", {"OPENBLAS_NUM_THREADS": "2"}),
                         ("default", {})):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "gmspde.cli", command,
                        "--config", str(config), "--out-dir", str(out),
                        "--quiet"], check=True, timeout=300,
                       env=_fresh_env(**chosen))
        files[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert files["two"] and files["two"] == files["default"]
