import re

import numpy as np
import pytest

from gmspde import cli
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
    "selftest": (("--criteria", "1"), ("selftest.txt",),
                 "PASS criterion 1: basis orthonormality"),
}


def _cli(tmp_path, command, out_name, text=TINY_2D, extra=()):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / out_name
    argv = [command, "--config", str(path), "--out-dir", str(out), "--quiet",
            *extra]
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


@pytest.mark.parametrize("command", sorted(ONE_D_RUNS))
def test_1d_subcommand_writes_its_files_byte_identically(tmp_path, command):
    extra, files, report = ONE_D_RUNS[command]
    first = _cli(tmp_path, command, "a", TINY_1D, extra)
    second = _cli(tmp_path, command, "b", TINY_1D, extra)
    assert sorted(p.name for p in first.iterdir()) == sorted(files)
    assert report in (first / files[0]).read_text()
    for name in files:
        a, b = (first / name).read_bytes(), (second / name).read_bytes()
        if name == "selftest.txt":
            # each criterion line carries its wall time, "[0.1s (limit 5s)]":
            # the one field the cli docstring exempts from byte-determinism,
            # so it is left out of the comparison
            a, b = (re.sub(rb"\[[0-9.]+s", b"[", x) for x in (a, b))
        assert a == b, name
