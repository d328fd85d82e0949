"""The package's public surface: its exports and its console script."""

import importlib
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
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, gmspde.cli; print('gmspde.acceptance' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    assert out.split() == ["False"]
