"""Compare the numbers and the files of two gmspde source trees.

    python tools/compare_trees.py OLD_SRC [NEW_SRC]
    python tools/compare_trees.py -h | --help

OLD_SRC and NEW_SRC are directories holding a ``gmspde`` package
(NEW_SRC defaults to this checkout's ``src``); make OLD_SRC with
``git archive <commit> | tar -x -C <dir>``.  The tool imports neither
tree.  It runs each tree's command line, ``python -m gmspde.cli`` with
the tree on PYTHONPATH, in fresh processes, and compares byte for byte
every file a command writes, its stdout, its stderr and its exit code.
A run that exits nonzero in either tree fails as well.  At most as many
runs go at once as this process may use CPUs.

The configs (:data:`CONFIGS`).  Every command runs at seeds 0 and 1 on
five: ``default``; ``picard_1d``, the 1-D config of the ``picard_1d``
benchmark, whose ``fixedpoint`` is its 16-member iteration over 100
steps; ``2d_heun`` (N = 32, K = 64, T = 0.1); ``v_floor_0``; and
``v_floor_2.5``, which floors the grid.  ``selftest`` runs once per
tree, and its ``selftest.txt`` and exit code are compared
(``timing.json`` holds wall times); criterion 6 in it checks the GBM
oracle ``_gbm_batch`` of both schemes.  The other configs run only the
commands they need, most of them once, at the seed in the config,
and each checks one thing:

* ``seed_top``: master seed 2**64 - 1 and path 2**63 (``simulate``,
  ``uniqueness``);
* ``sim_2d``: the 2-D Heun path of the ``sim_2d`` benchmark (N = 128,
  K = 256, T = 0.05), and its K = 256 noise table;
* ``1d_heun`` and ``2d_ito`` (N = 16, K = 16): the runs of the other
  scheme in each dimension;
* ``1500_steps``: a 1-D run past the first 1,024-step noise block;
* ``stopping``: a delta = 0 ``uniqueness`` at sigma = 1.5 over 600
  steps, whose 68 stopping levels include some first hit mid-run; its
  two runs must be bitwise identical;
* ``stopping_2d``: a ``uniqueness`` on the unit square (N = 64, K = 64)
  at sigma = 1.5 over 300 steps at the same levels: the 2-D stopping
  times, read live from each run's states, with first hits at many
  steps;
* ``ensemble_20_*`` and ``ensemble_201_*`` (1-D, both schemes; 201 is
  a multiple of neither 4 nor 16) and ``ensemble_2d_10``: ensemble
  means, standard errors and monitor fits at horizons 0.014, 0.035 and
  0.05;
* ``ensemble_cfl`` (seeds 0 and 1): 12 paths at a reaction CFL limit
  that some of them break mid-run, so that the statistics and the
  monitor fits reduce the survivors only;
* ``ensemble_floor``: 16 paths at v_floor = 2, whose means hold the
  floor counts;
* ``ensemble_v_floor_0`` (seed 0): 12 paths at sigma = 10, v_floor = 0
  and a reaction CFL limit of 1000, some of which turn v nonpositive
  mid-run: the zero-floor check and the restore of a failed row;
* ``picard_6``: a 6-member iteration to tolerance 1e-9 in at most 8
  iterations;
* ``picard_300``: ``picard_1d``'s iteration over 300 steps.

What no command can run is checked by tier-1 tests of one tree: noise
blocks drawn whole against drawn in pieces
(``test_drawn_blocks_are_the_columns_of_the_schemes_table`` and
``test_normal_table_matches_numpy_philox`` in ``tests/test_noise.py``),
the map T on a coupled input
(``test_coupled_solution_is_exact_fixed_point_of_T``) and on a stack
driven by a constant trajectory
(``test_sweep_iterates_equal_chained_solve_T``, both in
``tests/test_experiments.py``), and ``_gbm_batch`` (criterion 6 in
``tests/test_acceptance.py``).

Exits 1 if any comparison fails, 2 on a usage error; ``-h`` or
``--help`` prints this text and exits 0.
"""

from __future__ import annotations

import filecmp
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))

COMMANDS = ("simulate", "uniqueness", "ensemble", "fixedpoint", "spectrum")
SEEDS = (0, 1)


class Config(NamedTuple):
    """A config's text, the commands run on it and the seeds they run at.

    A seed of None passes no ``--seed``: the config's own seed holds.
    """

    text: str
    commands: tuple = COMMANDS
    seeds: tuple = SEEDS


def _text(*settings):
    """Config text of ``settings``, each ``"section.key = value"``."""
    return "".join("[{}]\n{}\n".format(*s.split(".", 1)) for s in settings)


# most configs below run at sigma = 0.3, and observe every 7th state
SIGMA = ("model.sigma_u = 0.3", "model.sigma_v = 0.3")
BASE = (*SIGMA, "functionals.observation_stride = 7")
RUN = (*BASE, "noise.master_seed = 11", "run.path_index = 3")
HORIZONS = "ensemble.horizons = 0.014, 0.035, 0.05"
ENSEMBLE = (*BASE, "scheme.horizon = 0.05", "noise.master_seed = 808",
            HORIZONS)
# perfbench/run.py's 1-D config at the picard_1d workload's size
PICARD = ("domain.grid_points = 64", "scheme.dt = 0.001",
          "scheme.scheme = ito_imex", "noise.modes = 16",
          "functionals.observation_stride = 25", "run.paths = 200",
          "fixedpoint.ensemble_size = 16", "fixedpoint.tolerance = 1e-06")
# 18 levels from 0.51 to 0.68 and 50 spaced geometrically from 4.5 to 180
LEVELS = ", ".join(str(round(m, 6)) for m in
                   [0.51 + k / 100 for k in range(18)]
                   + [4.5 * 40 ** (k / 49) for k in range(50)])
ONCE = (None,)    # one run, at the config's own seed

CONFIGS = {
    "default": Config(""),
    "picard_1d": Config(_text(*PICARD, "scheme.horizon = 0.1",
                              "ensemble.horizons = 0.05, 0.1")),
    "2d_heun": Config(_text("domain.dim = 2", "domain.grid_points = 32",
                            "scheme.horizon = 0.1",
                            "scheme.scheme = stratonovich_heun",
                            "noise.modes = 64")),
    "v_floor_0": Config(_text("scheme.v_floor = 0.0")),
    "v_floor_2.5": Config(_text("scheme.v_floor = 2.5")),
    "seed_top": Config(_text("scheme.horizon = 0.05",
                             f"noise.master_seed = {2**64 - 1}",
                             f"run.path_index = {2**63}"),
                       ("simulate", "uniqueness"), ONCE),
    "sim_2d": Config(_text(*RUN, "domain.dim = 2", "domain.grid_points = 128",
                           "scheme.horizon = 0.05",
                           "scheme.scheme = stratonovich_heun",
                           "noise.modes = 256"), ("simulate",), ONCE),
    "1d_heun": Config(_text(*RUN, "scheme.horizon = 0.1",
                            "scheme.scheme = stratonovich_heun"),
                      ("simulate",), ONCE),
    "2d_ito": Config(_text(*RUN, "domain.dim = 2", "domain.grid_points = 16",
                           "scheme.horizon = 0.1"), ("simulate",), ONCE),
    "1500_steps": Config(_text(*RUN, "scheme.horizon = 1.5"),
                         ("simulate",), ONCE),
    "stopping": Config(_text("model.sigma_u = 1.5", "model.sigma_v = 1.5",
                             "scheme.horizon = 0.6", "noise.master_seed = 808",
                             "run.path_index = 5", "uniqueness.delta = 0.0",
                             f"uniqueness.stopping_levels = {LEVELS}"),
                       ("uniqueness",), ONCE),
    "stopping_2d": Config(_text("model.sigma_u = 1.5", "model.sigma_v = 1.5",
                                "domain.dim = 2", "domain.grid_points = 64",
                                "scheme.horizon = 0.3", "noise.modes = 64",
                                "noise.master_seed = 808",
                                "run.path_index = 5",
                                f"uniqueness.stopping_levels = {LEVELS}"),
                          ("uniqueness",), ONCE),
    **{f"ensemble_{paths}_{scheme}": Config(
        _text(*ENSEMBLE, f"scheme.scheme = {scheme}", f"run.paths = {paths}"),
        ("ensemble",), ONCE)
       for paths in (20, 201) for scheme in ("ito_imex", "stratonovich_heun")},
    "ensemble_2d_10": Config(_text(*ENSEMBLE, "domain.dim = 2",
                                   "domain.grid_points = 16",
                                   "run.paths = 10"), ("ensemble",), ONCE),
    "ensemble_cfl": Config(_text("model.sigma_u = 1.0", "model.sigma_v = 1.0",
                                 "functionals.observation_stride = 7",
                                 "scheme.horizon = 0.05",
                                 "scheme.reaction_cfl_limit = 0.0028",
                                 "run.paths = 12", HORIZONS), ("ensemble",)),
    "ensemble_floor": Config(_text(*SIGMA, "scheme.horizon = 0.1",
                                   "scheme.v_floor = 2.0",
                                   "functionals.observation_stride = 25",
                                   "noise.master_seed = 808",
                                   "run.paths = 16"), ("ensemble",), ONCE),
    "ensemble_v_floor_0": Config(_text("model.sigma_u = 10.0",
                                       "model.sigma_v = 10.0",
                                       "functionals.observation_stride = 7",
                                       "scheme.horizon = 0.05",
                                       "scheme.v_floor = 0.0",
                                       "scheme.reaction_cfl_limit = 1000.0",
                                       "run.paths = 12"),
                                 ("ensemble",), (0,)),
    "picard_6": Config(_text(*SIGMA, "scheme.horizon = 0.05",
                             "noise.master_seed = 808",
                             "fixedpoint.ensemble_size = 6",
                             "fixedpoint.tolerance = 1e-9",
                             "fixedpoint.max_iterations = 8"),
                       ("fixedpoint",), ONCE),
    "picard_300": Config(_text(*PICARD, "scheme.horizon = 0.3"),
                         ("fixedpoint",), ONCE),
}


def run_commands(src, dest, configs=CONFIGS, selftest=True):
    """Run the commands of ``configs`` from the tree ``src``.

    Each run is a fresh ``python -m gmspde.cli`` process started in
    ``dest`` with relative paths, so that two trees run the same command
    lines; at most ``len(os.sched_getaffinity(0))`` run at once.  The
    files of command c on config x at seed s land in ``runs/x/seed<s>/c``
    (``runs/x/c`` at the config's own seed), and its stdout, stderr and
    exit code beside them, in ``c.stdout``, ``c.stderr`` and ``c.exit``.
    With ``selftest``, the full selftest runs once, quietly, into
    ``runs/selftest``, and its ``timing.json`` is removed.  Returns the
    (run, exit code) pairs of the runs that exited nonzero.
    """
    env = dict(os.environ, PYTHONPATH=src)
    os.makedirs(os.path.join(dest, "configs"))
    # the longest run first, so that it does not run alone at the end
    jobs = [(os.path.join("runs", "selftest"), ["selftest", "--quiet"])
            ] if selftest else []
    for name, (text, commands, seeds) in configs.items():
        config = os.path.join("configs", f"{name}.cfg")
        with open(os.path.join(dest, config), "w", encoding="utf-8") as fh:
            fh.write(text)
        for seed in seeds:
            folder = os.path.join("runs", name)
            argv = ["--config", config]
            if seed is not None:
                folder = os.path.join(folder, f"seed{seed}")
                argv += ["--seed", str(seed)]
            jobs += [(os.path.join(folder, command), [command, *argv])
                     for command in commands]

    def run(job):
        out, argv = job
        done = subprocess.run(
            [sys.executable, "-m", "gmspde.cli", *argv, "--out-dir", out],
            cwd=dest, env=env, capture_output=True, check=False)
        os.makedirs(os.path.join(dest, os.path.dirname(out)), exist_ok=True)
        for suffix, data in ((".stdout", done.stdout),
                             (".stderr", done.stderr),
                             (".exit", f"{done.returncode}\n".encode())):
            with open(os.path.join(dest, out + suffix), "wb") as fh:
                fh.write(data)
        return done.returncode

    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        codes = list(pool.map(run, jobs))
    if selftest:
        timing = os.path.join(dest, "runs", "selftest", "timing.json")
        if os.path.exists(timing):
            os.remove(timing)
    return [(out, code) for (out, _), code in zip(jobs, codes) if code]


def differing_files(old, new):
    """Paths, relative to the roots, of the files under ``old`` and ``new``.

    Returns (all, differing): a file differs if its bytes do, or if one
    side lacks it.
    """
    def files(root):
        return {os.path.relpath(os.path.join(folder, name), root)
                for folder, _, names in os.walk(root) for name in names}

    a, b = files(old), files(new)
    differ = [rel for rel in sorted(a | b)
              if rel not in a or rel not in b
              or not filecmp.cmp(os.path.join(old, rel),
                                 os.path.join(new, rel), shallow=False)]
    return sorted(a | b), differ


def command_pass(old_src, new_src, configs=CONFIGS, selftest=True):
    """Run the commands from both trees and byte-compare what they wrote.

    A run that exits nonzero in either tree fails too, so that a config
    the commands reject does not pass as two identical errors.  Prints
    each failure and a count; returns the number of failures.
    """
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = os.path.join(tmp, "old"), os.path.join(tmp, "new")
        for label, src, dest in zip(("old", "new"), (old_src, new_src), trees):
            failed += [f"EXIT {code}  {label} {out}" for out, code
                       in run_commands(src, dest, configs, selftest)]
        everything, differ = differing_files(*trees)
    failed += [f"DIFFERS  {rel}" for rel in differ]
    for line in failed:
        print(line)
    print(f"{len(everything) - len(differ)} of {len(everything)} command "
          f"files byte-identical")
    return len(failed)


def main(argv):
    if "-h" in argv or "--help" in argv:
        print(__doc__)
        return 0
    if not 1 <= len(argv) <= 2 or any(arg.startswith("-") for arg in argv):
        print(__doc__, file=sys.stderr)
        return 2
    old_src = os.path.abspath(argv[0])
    new_src = os.path.abspath(argv[1] if len(argv) == 2
                              else os.path.join(HERE, "..", "src"))
    failed = command_pass(old_src, new_src)
    print(f"{failed} comparison(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
