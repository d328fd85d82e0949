"""``tools/compare_trees.py`` runs every case on this checkout's API."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_compare_trees_passes_a_tree_against_itself():
    # the tool knows only the current API, so a change that breaks one
    # of its cases fails here, not first when a pull request is compared
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_trees.py"), src, src],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "0 comparison(s) failed" in done.stdout
