"""Regenerate the reference outputs the benchmark compares against.

    python3 perfbench/make_reference.py

Runs each workload once at the default seed and measured size and
copies its main output into ``perfbench/reference/<workload>/``.  Do
this only when a change to the program is meant to change its numbers,
and say so where the change is described.
"""

from __future__ import annotations

import os
import shutil
import sys

import run


def main():
    for workload in run.WORKLOADS.values():
        job, out_dir = run.prepare(workload, run.DEFAULT_SEED, tiny=False)
        shutil.rmtree(out_dir, ignore_errors=True)
        _, error = run.run_child(job, timeout=run.RUN_DEADLINE_S)
        if error is not None:
            print(f"{workload.name}: {error}", file=sys.stderr)
            return 1
        target = os.path.join(run.REFERENCE, workload.name)
        os.makedirs(target, exist_ok=True)
        shutil.copy(os.path.join(out_dir, workload.reference), target)
        print(f"{workload.name}: wrote {os.path.join(target, workload.reference)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
