"""Smoke test of the benchmark itself, at a size that runs in seconds.

    python3 perfbench/smoke.py

For every workload, runs ``run.py --tiny`` untraced and traced and
fails unless the result line is correct and carries every metric that
BENCHMARK.json declares, each with a numeric value and its declared
unit.  It also checks that ``run.py`` exits non-zero, printing no
result, in a directory that holds the benchmark but no program.
"""

from __future__ import annotations

import json
import numbers
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def result_line(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else ""), proc


def check_metrics(label, result, declared):
    problems = []
    if not result.get("correct"):
        problems.append(f"{label}: result is not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted is not a positive integer")
    if not isinstance(result.get("failed"), int):
        problems.append(f"{label}: failed is not an integer")
    metrics = result.get("metrics", {})
    for metric in declared:
        entry = metrics.get(metric["name"])
        if entry is None:
            problems.append(f"{label}: {metric['name']} missing")
            continue
        value = entry.get("value")
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            problems.append(f"{label}: {metric['name']} has no numeric value")
        if entry.get("unit") != metric["unit"]:
            problems.append(f"{label}: {metric['name']} unit {entry.get('unit')!r}"
                            f" != {metric['unit']!r}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{label}: undeclared metrics {sorted(extra)}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload['name']} --trace {trace}"
            rc, line, proc = result_line(
                [sys.executable, RUN, "--workload", workload["name"],
                 "--seed", "1", "--seconds", "0", "--trace", str(trace),
                 "--tiny"], ROOT)
            if rc != 0:
                problems.append(f"{label}: exit {rc}: {proc.stderr[-300:]}")
                continue
            problems += check_metrics(label, json.loads(line), declared)
            print(f"{label}: checked {len(declared)} metrics")

    bare = os.path.join(ROOT, ".bench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    name = spec["workloads"][0]["name"]
    rc, line, _ = result_line(
        [sys.executable, os.path.join(bare, os.path.basename(HERE), "run.py"),
         "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"],
        bare)
    shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or line.startswith("{"):
        problems.append("run.py without program sources did not fail cleanly")
    else:
        print(f"without sources: exit {rc}, no result line")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
