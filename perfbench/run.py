"""Benchmark of the gmspde command line, end to end and layer by layer.

    python3 perfbench/run.py --workload ens_1d --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

Run from the root of a source checkout; the package is imported from
its ``src/`` directory, never from an installed copy.  Each sample is
one fresh interpreter (``perfbench/child.py``) running one workload
through ``gmspde.cli.main``; samples run one at a time, closed loop,
until ``--seconds`` have passed (at least MIN_SAMPLES of them).  The
program's thread settings are left as users get them and recorded.

``--trace 0`` reports the end-to-end metrics: medians over the samples
of ``wall_s`` (the workload's subcommand from call to return),
``setup_s`` (the ``spectrum`` command on the same config in the same
process, median of SETUP_REPEATS calls) and ``peak_rss_mb``.  Failed
path solves out of those attempted are the ``failed`` and
``attempted`` fields of the result line.

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of ``perfbench/spans.py`` (medians over the traced
samples) plus ``trace.overhead_s``, the traced minus the untraced
median wall time.

Every sample's outputs are checked (``perfbench/checks.py``) and must be
byte-identical across the samples of one run.  The last stdout line is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")
REFERENCE = os.path.join(HERE, "reference")
CHILD = os.path.join(HERE, "child.py")

DEFAULT_SEED = 0
MIN_SAMPLES = 3
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0
THREAD_VARIABLES = ("GMSPDE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

ONE_D = """\
[domain]
dim = 1
convention = neumann_cosine
grid_points = 64

[scheme]
dt = {dt!r}
horizon = {horizon!r}
scheme = ito_imex

[noise]
modes = 16
master_seed = {seed}

[functionals]
observation_stride = {stride}

[run]
paths = {paths}

[ensemble]
horizons = {half!r}, {horizon!r}

[fixedpoint]
ensemble_size = {members}
tolerance = {tolerance!r}
"""

TWO_D = """\
[domain]
dim = 2
grid_points = {grid}

[scheme]
dt = {dt!r}
horizon = {horizon!r}
scheme = stratonovich_heun

[noise]
modes = {modes}
master_seed = {seed}

[functionals]
observation_stride = {stride}
"""

# Horizons are shorter than a study would use so that one sample takes
# 1-2 s and a 10-second run holds 4-8 samples: on a shared 2-core host
# the speed drifts by 20% over minutes, and short runs let a set of runs
# finish inside one such spell.
ONE_D_FULL = dict(dt=1e-3, horizon=0.1, half=0.05, stride=25, paths=200,
                  members=16, tolerance=1e-6)
ENS_1D_FULL = dict(ONE_D_FULL, horizon=0.05, half=0.025)
ONE_D_TINY = dict(dt=1e-3, horizon=0.01, half=0.005, stride=5, paths=4,
                  members=4, tolerance=1e-6)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    template: str
    full: dict
    tiny: dict
    reference: str
    check: Callable
    solves: str = ""   # size key counting path solves per sample (else 1)

    def attempted(self, size):
        return size[self.solves] if self.solves else 1


WORKLOADS = {
    w.name: w for w in (
        Workload("ens_1d", "ensemble", ONE_D, ENS_1D_FULL, ONE_D_TINY,
                 "means.csv", checks.check_ensemble, solves="paths"),
        Workload("sim_2d", "simulate", TWO_D,
                 dict(dt=1e-3, horizon=0.05, stride=10, grid=128, modes=256),
                 dict(dt=1e-3, horizon=0.01, stride=5, grid=16, modes=16),
                 "trace.csv", checks.check_simulate),
        Workload("picard_1d", "fixedpoint", ONE_D, ONE_D_FULL, ONE_D_TINY,
                 "iterations.csv", checks.check_fixedpoint, solves="members"),
    )
}


# -- machine facts ---------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, "unknown")
    try:
        for entry in os.listdir(base):
            path = os.path.join(base, entry)
            if not entry.startswith("index"):
                continue
            with open(os.path.join(path, "level"), encoding="utf-8") as fh:
                level = int(fh.read())
            with open(os.path.join(path, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
            best = max(best, (level, f"L{level} {size}"))
    except (OSError, ValueError):
        pass
    return best[1]


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "gmspde")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def machine_facts():
    import numpy as np
    import scipy

    try:
        from gmspde._parallel import worker_count
        workers = worker_count()
    except ImportError:
        workers = "absent"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc": _llc(),
        "blas": _blas(),
        "worker_count": workers,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# -- samples -----------------------------------------------------------------

def _digest_outputs(out_dir):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            digest.update(name.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_child(job, timeout):
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(job)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"sample exceeded {timeout:.0f} s and was killed"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"sample exited {proc.returncode}: {' | '.join(tail)}"
    record = json.loads(lines[-1])
    if record["rc"] != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"gmspde exited {record['rc']}: {' | '.join(tail)}"
    if not record["gmspde_file"].startswith(os.path.join(SRC, "gmspde")):
        return None, f"gmspde imported from {record['gmspde_file']}, not {SRC}"
    return record, None


def prepare(workload, seed, tiny):
    """Write the workload's config for ``seed``; return (job, out_dir)."""
    size = workload.tiny if tiny else workload.full
    base = os.path.join(WORK, workload.name)
    out_dir = os.path.join(base, "out")
    setup_dir = os.path.join(base, "setup")
    os.makedirs(base, exist_ok=True)
    config = os.path.join(base, "config.txt")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(workload.template.format(seed=seed, **size))
    common = ["--config", config, "--seed", str(seed), "--quiet"]
    job = {
        "argv": [workload.command, *common, "--out-dir", out_dir],
        "setup_argv": ["spectrum", *common, "--out-dir", setup_dir],
        "setup_repeats": SETUP_REPEATS,
        "trace": False,
    }
    return job, out_dir


def measure(workload, seed, seconds, trace, tiny):
    """Run samples of one workload; returns the collected evidence."""
    size = workload.tiny if tiny else workload.full
    job, out_dir = prepare(workload, seed, tiny)
    compare = seed == DEFAULT_SEED and not tiny

    plain, traced, problems, digests = [], [], [], set()
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while i < MIN_SAMPLES or time.perf_counter() - start < seconds:
        left = RUN_DEADLINE_S - (time.perf_counter() - start)
        if left <= 0:
            problems.append(f"stopped after {i} samples at the run deadline")
            break
        shutil.rmtree(out_dir, ignore_errors=True)
        traced_sample = bool(trace) and i % 2 == 1
        record, error = run_child(dict(job, trace=traced_sample), left)
        i += 1
        n = workload.attempted(size)
        attempted += n
        if error is not None:
            problems.append(error)
            failed += n
            continue
        listed, found = workload.check(out_dir, size)
        if compare:
            found += checks.compare_with_reference(
                os.path.join(out_dir, workload.reference),
                os.path.join(REFERENCE, workload.name, workload.reference),
                atol_by_column={"distance": checks.DISTANCE_ATOL},
            )
        digests.add(_digest_outputs(out_dir))
        failed += n if found else listed
        problems += found
        (traced if traced_sample else plain).append(record)
    if len(digests) > 1:
        problems.append(f"outputs differ between samples of one seed "
                        f"({len(digests)} distinct)")
    return {"plain": plain, "traced": traced, "problems": problems,
            "attempted": attempted, "failed": failed, "compared": compare}


# -- reporting ---------------------------------------------------------------

def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(evidence):
    plain = evidence["plain"]
    if not plain:
        return {}
    return {name: [r[name] for r in plain]
            for name in ("wall_s", "setup_s", "peak_rss_mb")}


def per_layer(evidence, declared):
    """{metric: value or None when absent} for every declared metric."""
    traced, plain = evidence["traced"], evidence["plain"]
    if not traced or not plain:
        return {}
    absent = set().union(*(r["absent"] for r in traced))
    values = {}
    for name in declared:
        if name == "trace.overhead_s":
            values[name] = (statistics.median(r["wall_s"] for r in traced)
                            - statistics.median(r["wall_s"] for r in plain))
        elif name == "cli.import_s":
            values[name] = statistics.median(r["import_s"] for r in plain + traced)
        elif name in absent:
            values[name] = None
        elif all(name in r["layers"] for r in traced):
            values[name] = statistics.median(r["layers"][name] for r in traced)
        else:
            raise KeyError(f"declared metric {name} is not measured")
    return values


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def report(workload, seed, args, spec):
    """Print one workload's result; return the result object."""
    evidence = measure(workload, seed, args.seconds, args.trace, args.tiny)
    samples = len(evidence["plain"]) + len(evidence["traced"])
    print(f"workload {workload.name}: gmspde {workload.command}, seed {seed}, "
          f"{samples} samples ({len(evidence['traced'])} traced)")
    metrics = {}
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in per_layer(evidence, list(units)).items():
            shown = "absent" if value is None else f"{value:.6g} {units[name]}"
            print(f"  {name:36s} {shown}")
            metrics[name] = {"value": 0 if value is None else value,
                             "unit": units[name]}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, values in end_to_end(evidence).items():
            q1, q3 = _quartiles(values)
            median = statistics.median(values)
            print(f"  {name:12s} {median:.6g} {units[name]}  "
                  f"(median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})")
            metrics[name] = {"value": median, "unit": units[name]}
    attempted, failed = evidence["attempted"], evidence["failed"]
    print(f"  {'fail_frac':12s} {failed / max(attempted, 1):.6g} ratio  "
          f"({failed} of {attempted} path solves failed)")
    compared = "compared with reference" if evidence["compared"] else \
        "invariants only (reference is for the default seed)"
    for problem in evidence["problems"]:
        print(f"  check failed: {problem}")
    if not evidence["problems"]:
        print(f"  checks passed: {compared}")
    correct = not evidence["problems"] and bool(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: seconds of work, no reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "gmspde", "cli.py")):
        print(f"perfbench: no gmspde sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: report(WORKLOADS[name], args.seed, args, spec)
               for name in names}
    print("machine: " + json.dumps(machine_facts()))
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
