"""Output checks for the benchmark workloads.

Every sample checks the workload's invariants at whatever seed it ran.
At the default seed and the measured size, the workload's main output
is also compared with a reference file in ``perfbench/reference/``,
made with ``perfbench/make_reference.py`` at the commit that defined
the benchmark.

Tolerance.  A value passes when |got - ref| <= RTOL * |ref| + ATOL * s,
with s the largest |ref| of its column.  Measured at the default seed:
replacing the GEMV transforms by a differently ordered sum moved every
compared value by at most 1.1e-15 * s, the next seed's noise stream by
at least 3e-3 * s, and a changed update rule (scalar decay taken out of
the exponential) by at least 7e-4 * s.  RTOL = ATOL = 1e-9 sits about
six orders of magnitude from both, which leaves room for the <= 2.5e-14
per-transform gap of a batched GEMM while any change of algorithm or
noise stream fails.

Columns left out of the comparison, and why:

* ``*_argmin``: a node index (or the ensemble mean of one); rounding can
  break a near-tie between two nodes and move it by a whole node.
* ``ratio``: a quotient of successive Picard distances, which are
  differences of O(1) trajectories; the distances themselves are
  compared with an absolute floor, so the ratio adds nothing.
"""

from __future__ import annotations

import math
import os
import re
import tempfile

import numpy as np

RTOL = 1e-9
ATOL = 1e-9
# Picard distances shrink to ~1e-7, so a relative test is meaningless for
# the last ones; reordered sums moved them by ~1e-16 absolute.
DISTANCE_ATOL = 1e-10
RESIDUAL_LIMIT = 1e-6


def read_csv(path):
    """(header, float array of rows) of a numeric CSV written by gmspde."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return header, data


def compare_with_reference(path, ref_path, atol_by_column=None):
    """Problems found comparing a CSV output with its reference file."""
    for p in (path, ref_path):
        if not os.path.isfile(p):
            return [f"{p} missing"]
    header, got = read_csv(path)
    ref_header, ref = read_csv(ref_path)
    name = os.path.basename(path)
    if header != ref_header:
        return [f"{name}: columns {header} differ from the reference"]
    if got.shape != ref.shape:
        return [f"{name}: {got.shape[0]} rows, reference has {ref.shape[0]}"]
    problems = []
    for j, column in enumerate(header):
        if column.endswith("_argmin") or column == "ratio":
            continue
        a, b = got[:, j], ref[:, j]
        scale = float(np.max(np.abs(b))) if b.size else 0.0
        atol = (atol_by_column or {}).get(column, ATOL * scale)
        bad = np.abs(a - b) > RTOL * np.abs(b) + atol
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            problems.append(
                f"{name}: column {column} row {i} is {float(a[i])!r}, "
                f"reference {float(b[i])!r} (rtol {RTOL:g}, atol {atol:.3g})"
            )
    return problems


def _finite_csv(path, expected_rows):
    """Problems with a CSV's row count or finiteness."""
    if not os.path.isfile(path):
        return [f"{os.path.basename(path)} missing"]
    _, data = read_csv(path)
    problems = []
    if data.shape[0] != expected_rows:
        problems.append(f"{os.path.basename(path)}: {data.shape[0]} rows, "
                        f"expected {expected_rows}")
    if not np.all(np.isfinite(data)):
        problems.append(f"{os.path.basename(path)}: non-finite values")
    return problems


def _summary(out_dir):
    path = os.path.join(out_dir, "summary.txt")
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def observation_rows(size):
    """Rows of a functional trace: t = 0 plus every stride-th step."""
    steps = round(size["horizon"] / size["dt"])
    return 1 + math.ceil(steps / size["stride"])


def check_ensemble(out_dir, size):
    """(paths listed as failed, problems) of an ``ensemble`` run."""
    attempted = size["paths"]
    text = _summary(out_dir)
    if text is None:
        return 0, ["summary.txt missing"]
    problems = []
    match = re.search(r"paths: (\d+), survivors: (\d+)", text)
    failed = len(re.findall(r"^\s*path \d+ failed:", text, re.M))
    if match is None:
        problems.append("summary.txt has no survivor count")
    elif (int(match.group(1)), int(match.group(2))) != (attempted, attempted):
        problems.append(f"survivors {match.group(2)}/{match.group(1)}, "
                        f"expected {attempted}/{attempted}")
    if "BLOW-UP" in text:
        problems.append("a monitor reports BLOW-UP")
    for name in ("means.csv", "standard_errors.csv"):
        problems += _finite_csv(os.path.join(out_dir, name), observation_rows(size))
    return failed, problems


def check_fixedpoint(out_dir, size):
    """(paths listed as failed, problems) of a ``fixedpoint`` run."""
    text = _summary(out_dir)
    if text is None:
        return 0, ["summary.txt missing"]
    problems = []
    match = re.search(r"picard iterations: (\d+) \(converged: (\w+)\)", text)
    if match is None or match.group(2) != "True":
        problems.append("Picard iteration did not converge")
    match = re.search(r"terminal residual vs coupled solve: (\S+)", text)
    residual = float(match.group(1)) if match else math.inf
    if not residual < RESIDUAL_LIMIT:
        problems.append(f"residual vs coupled solve {residual:g} "
                        f">= {RESIDUAL_LIMIT:g}")
    path = os.path.join(out_dir, "iterations.csv")
    if not os.path.isfile(path):
        problems.append("iterations.csv missing")
    else:
        header, data = read_csv(path)
        distance = data[:, header.index("distance")]
        if not np.all(np.isfinite(distance)):
            problems.append("iterations.csv: non-finite distances")
        elif not distance[-1] < size["tolerance"]:
            problems.append(f"last distance {distance[-1]:g} is not below "
                            f"the tolerance {size['tolerance']:g}")
    return 0, problems


def check_simulate(out_dir, size):
    """(paths listed as failed, problems) of a 2-D ``simulate`` run."""
    from gmspde import io as io_mod

    problems = _finite_csv(os.path.join(out_dir, "trace.csv"),
                           observation_rows(size))
    path = os.path.join(out_dir, "final.gmsp")
    if not os.path.isfile(path):
        return 0, problems + ["final.gmsp missing"]
    try:
        header, fields = io_mod.read_snapshot(path)
    except ValueError as exc:
        return 0, problems + [f"final.gmsp unreadable: {exc}"]
    shape = (size["grid"] + 1,) * 2
    if (header.dim, header.shape, header.field_count) != (2, shape, 2):
        problems.append(f"final.gmsp header {header} does not describe two "
                        f"{shape} fields")
    if abs(header.time - size["horizon"]) > 1e-12:
        problems.append(f"final.gmsp time {header.time!r} != {size['horizon']!r}")
    if not all(np.all(np.isfinite(f)) for f in fields):
        problems.append("final.gmsp holds non-finite values")
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        copy = os.path.join(tmp, "copy.gmsp")
        io_mod.write_snapshot(fields, header, copy)
        with open(path, "rb") as a, open(copy, "rb") as b:
            if a.read() != b.read():
                problems.append("final.gmsp does not round-trip through "
                                "read_snapshot/write_snapshot")
    return 0, problems
