"""Compare the numbers and the files of two gmspde source trees.

    python tools/compare_trees.py OLD_SRC [NEW_SRC]
    python tools/compare_trees.py -h | --help

OLD_SRC and NEW_SRC are directories holding a ``gmspde`` package
(NEW_SRC defaults to this checkout's ``src``); make OLD_SRC with
``git archive <commit> | tar -x -C <dir>``.  Two passes run.

The case pass runs the same cases in each tree's own interpreter, which
imports the tree's ``gmspde`` before numpy (so that the tree's BLAS
thread default holds, as in its commands), and the outputs are compared:

* bitwise: ``noise.drawn`` tables (1-D K=16, 200 paths, steps
  0..49, drawn whole and in 5-step blocks; K=256 as in 2-D, one path,
  50 steps; seed 2**64 - 1 with path 2**63; 1-D K=16, 16 paths and
  100 steps in one call, the ``picard_1d`` benchmark's table, which
  trees cut into cipher blocks of 5 + 5 + 5 + 1 or 4 x 4 paths); the
  delta = 0 uniqueness study (which must also report bitwise-identical
  runs); the stopping-scan first-hit steps of another delta = 0 study,
  whose trajectory crosses its levels mid-run; the iteration counts of
  the three Picard iterations below;
* to 1e-13 x max|value| (a stacked product, or a quadrature summed in
  another order, against one per row): ``run`` final u, v and the live
  functional trace for both schemes in 1-D (N=64, K=16) and 2-D (N=16,
  K=16), for the Stratonovich Heun scheme in 2-D at N=128, K=256
  (the ``sim_2d`` benchmark's path), and for the Ito scheme in 1-D over
  1,500 steps (past the first 1,024-step noise block of a one-path K=16
  run); criterion 6's single-mode
  ``_gbm_batch`` outputs for both schemes; the map T (``run_batch``
  driven by an input trajectory's chi, stored by
  ``TrajectoryRecorder``) on a coupled-solve input, and on a 16-row
  stack driven by a constant trajectory (1-D N=64, K=16, 100 steps:
  one Picard step of the ``picard_1d`` benchmark's shape), both as
  (2, B, n+1, K) arrays; the live functional trace of the coupled path
  T is fed, and of a 16-path ensemble
  (1-D K=16, 100 steps, stride 25, v_floor = 2), whose
  ``floor_activations`` column is compared bitwise; the
  ensemble means of 20 and of 201 paths (1-D, both schemes; 201 is a
  stack size that is a multiple of neither 4 nor 16) and 10 paths
  (2-D), node-index columns left out (a near-tie may move an argmin by
  a whole node); the Picard distances of a 6-member iteration, and the
  distances and residual of a 16-member one (1-D N=64, K=16, 100 steps,
  tolerance 1e-6: the ``picard_1d`` benchmark's iteration) and of the
  same one over 300 steps (sweeps of one block where a tree budgets the
  stored values of a sweep, of 4 and more where it does not); and the
  bounds (K1, K2, K3) of the first two Picard iterations, sized from
  the start's functionals: a tree may record the constant start as one
  state observed twice with one accumulation over the horizon, which
  rounds n dt x once where a walk over its steps sums n terms dt x.

The reductions of a trace stack are compared bitwise, since they must
not move when the stack is formed another way: the ensemble standard
errors and every monitor's ``lhs``, ``init``, ``C`` and ``delta`` (at
three horizons) of each ensemble above, and of a 1-D ensemble of 12
paths at a reaction CFL limit that five of them fail mid-run; and the
``mean_L1``, ``mean_L2`` and ``sup_mean_L3`` of every membership check
of both Picard iterations.

The command pass (:func:`command_pass`) runs ``simulate``,
``uniqueness``, ``ensemble``, ``fixedpoint`` and ``spectrum`` from each
tree in fresh ``python -m gmspde.cli`` processes, at seeds 0 and 1, on
five configs (:data:`CONFIGS`): the default; the 1-D config of the
``picard_1d`` benchmark; a 2-D ``stratonovich_heun`` one (N = 32,
K = 64, T = 0.1); ``v_floor = 0``; and ``v_floor = 2.5``, which floors
the grid.  It runs ``selftest`` once per tree.  Every file a command
writes, its stdout, its stderr and its exit code are compared byte for
byte; of the selftest, ``selftest.txt`` and the exit code
(``timing.json`` holds wall times).  A run that exits nonzero in either
tree fails as well.

Exits 1 if any comparison fails, 2 on a usage error; ``-h`` or
``--help`` prints this text and exits 0.
"""

from __future__ import annotations

import filecmp
import os
import pickle
import subprocess
import sys
import tempfile

if __name__ == "__main__" and sys.argv[1:2] == ["--child"]:
    # the tree's package before numpy, so that the cases run under its
    # import-time settings (its BLAS thread default), as its commands do
    import gmspde

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
RTOL = 1e-13
# reaction CFL limit of the ensemble with failures: some of its paths
# fail mid-run, some survive
CFL_LIMIT = 0.0028

# the command pass: the commands, the seeds and the configs it runs
COMMANDS = ("simulate", "uniqueness", "ensemble", "fixedpoint", "spectrum")
SEEDS = (0, 1)
CONFIGS = {
    "default": "",
    # perfbench/run.py's 1-D config at the picard_1d workload's size
    "picard_1d": """\
[domain]
dim = 1
convention = neumann_cosine
grid_points = 64

[scheme]
dt = 0.001
horizon = 0.1
scheme = ito_imex

[noise]
modes = 16

[functionals]
observation_stride = 25

[run]
paths = 200

[ensemble]
horizons = 0.05, 0.1

[fixedpoint]
ensemble_size = 16
tolerance = 1e-06
""",
    "2d_heun": """\
[domain]
dim = 2
grid_points = 32

[scheme]
horizon = 0.1
scheme = stratonovich_heun

[noise]
modes = 64
""",
    "v_floor_0": "[scheme]\nv_floor = 0.0\n",
    "v_floor_2.5": "[scheme]\nv_floor = 2.5\n",
}


def _cases():
    from gmspde import acceptance, dynamics
    from gmspde.dynamics import (
        ModelParams,
        SchemeConfig,
        default_initial_pair,
        run,
        run_batch,
    )
    from gmspde.experiments import (
        FixedPointConfig,
        StoppingSpec,
        TrajectoryRecorder,
        ensemble,
        picard_iterate,
        uniqueness_study,
    )
    from gmspde.functionals import FunctionalConfig, FunctionalRecorder
    from gmspde.noise import NoiseSpec, drawn
    from gmspde.spectral import DomainSpec, build_basis

    params = ModelParams(r_u=0.01, r_v=0.1, kappa_u=1.0, kappa_v=1.0,
                         mu_u=1.0, mu_v=2.0, sigma_u=0.3, sigma_v=0.3)
    fcfg = FunctionalConfig(observation_stride=7)
    out = {"bitwise": {}, "close": {}}

    def basis_of(dim, n, k):
        return build_basis(DomainSpec(dim=dim, lengths=(1.0,) * dim,
                                      grid_points_per_axis=n), k)

    sch = SchemeConfig(dt=1e-3, T=0.05)
    for name, spec, paths in (
            ("1d K=16 200 paths", NoiseSpec(2.0, 2.0, 16, 901), range(200)),
            ("K=256 1 path", NoiseSpec(3.0, 3.0, 256, 7), [3]),
            ("seed 2**64-1 path 2**63", NoiseSpec(2.0, 2.0, 16, 2**64 - 1),
             [2**63])):
        out["bitwise"][f"drawn {name}"] = drawn(spec, sch, paths)(0, 50)
    out["bitwise"]["drawn 1d K=16 16 paths 100 steps"] = drawn(
        NoiseSpec(2.0, 2.0, 16, 606), SchemeConfig(dt=1e-3, T=0.1),
        range(16))(0, 100)
    draw = drawn(NoiseSpec(2.0, 2.0, 16, 901), sch, range(200))
    out["bitwise"]["drawn 1d K=16 200 paths in 5-step blocks"] = (
        np.concatenate([draw(n0, n0 + 5) for n0 in range(0, 50, 5)], axis=-1))

    # Final u, v are not bitwise: the projection folds the quadrature
    # weights into its per-axis tables, and 2-D transforms contract one
    # axis at a time, so sums run in another order by design.  Bitwise
    # is promised only for noise tables, delta = 0 and reruns on one
    # layout.
    both = ("ito_imex", "stratonovich_heun")
    for dim, n, k, t_end, schemes in ((1, 64, 16, 0.1, both),
                                      (2, 16, 16, 0.1, both),
                                      (2, 128, 256, 0.05,
                                       ("stratonovich_heun",)),
                                      (1, 64, 16, 1.5, ("ito_imex",))):
        basis = basis_of(dim, n, k)
        spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=k, master_seed=11)
        init = default_initial_pair(basis, params)
        for scheme in schemes:
            sch = SchemeConfig(dt=1e-3, T=t_end, scheme=scheme)
            rec = FunctionalRecorder(basis, fcfg, sch.v_floor)
            res = run(init, params, sch, basis, spec, drawn(spec, sch, [3]),
                      observer=rec)
            key = f"run {dim}d N={n} K={k} {scheme} T={t_end:g}"
            out["close"][key + " u"] = res.u_modal[0]
            out["close"][key + " v"] = res.v_modal[0]
            trace = rec.traces()
            for name, column in trace.data.items():
                out["close"][f"{key} trace {name}"] = column

    basis1 = basis_of(1, 4, 1)
    spec1 = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=1, master_seed=606)
    gbm = ModelParams(r_u=0.01, r_v=0.1, kappa_u=0.0, kappa_v=0.0,
                      mu_u=3.0, mu_v=2.0, sigma_u=2.0, sigma_v=0.1)
    for scheme in ("ito_imex", "stratonovich_heun"):
        out["close"][f"_gbm_batch {scheme}"] = acceptance._gbm_batch(
            scheme, gbm, spec1, basis1, 300, 32, 0.25, 1.0, first_path=0)

    basis = basis_of(1, 64, 16)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=808)
    init = default_initial_pair(basis, params)
    sch = SchemeConfig(dt=1e-3, T=0.2)
    report = uniqueness_study(init, 0.0, params, sch, basis, spec,
                              StoppingSpec(), drawn(spec, sch, [0]))
    out["bitwise"]["uniqueness delta=0 du"] = report.du_l2
    out["bitwise"]["uniqueness delta=0 bitwise_identical"] = np.array(
        [report.bitwise_identical])

    # a strongly driven run whose stopping quantities grow mid-run
    loud = ModelParams(r_u=0.01, r_v=0.1, kappa_u=1.0, kappa_v=1.0,
                       mu_u=1.0, mu_v=2.0, sigma_u=1.5, sigma_v=1.5)
    sch = SchemeConfig(dt=1e-3, T=0.6)
    levels = tuple(np.round(np.concatenate((np.linspace(0.51, 0.68, 18),
                                            np.geomspace(4.5, 180.0, 50))), 6))
    report = uniqueness_study(init, 0.0, loud, sch, basis, spec,
                              StoppingSpec(m_levels=levels),
                              drawn(spec, sch, [5]))
    for name in ("tau1", "tau2"):
        tau = getattr(report, f"{name}_steps")
        out["bitwise"][f"stopping {name}"] = np.array(
            [-1 if tau[m, 1] is None else tau[m, 1] for m in levels])

    sch = SchemeConfig(dt=1e-3, T=0.1)

    def map_T(traj, draw):
        """T on ``sch`` of a (2, B, n+1, K) stack: run_batch driven by chi."""
        rec = TrajectoryRecorder(sch.n_steps())
        driver = dynamics.driven_by(basis, sch, traj[0])
        run_batch(init, params, sch, basis, spec, draw, traj.shape[1],
                  observer=rec, driver=driver)
        return rec.trajectories()

    rec = TrajectoryRecorder(sch.n_steps())
    run(init, params, sch, basis, spec, drawn(spec, sch, [2]), observer=rec)
    coupled = rec.trajectories()
    rec = FunctionalRecorder(basis, fcfg, sch.v_floor)
    run(init, params, sch, basis, spec, drawn(spec, sch, [2]), observer=rec)
    for name, column in rec.traces().data.items():
        out["close"][f"coupled path trace {name}"] = column
    t_out = map_T(coupled, drawn(spec, sch, [2]))
    out["close"]["T chi"] = t_out[0]
    out["close"]["T eta"] = t_out[1]

    # T away from its fixed point, in the Picard shape: 16 rows driven by
    # the constant trajectory a Picard iteration starts from
    members = np.broadcast_to(init[:, None, None],
                              (2, 16, sch.n_steps() + 1, basis.mode_count))
    t_out = map_T(members, drawn(spec, sch, range(16)))
    out["close"]["T 16 rows constant driver chi"] = t_out[0]
    out["close"]["T 16 rows constant driver eta"] = t_out[1]

    # the Picard shape: 16 paths, stride 25, v_floor = v* = 2 flooring
    # about half the nodes; with no failure the ensemble's traces are the
    # recorder's rows
    floored = SchemeConfig(dt=1e-3, T=0.1, v_floor=2.0)
    report = ensemble(init, params, floored, basis, spec, 16,
                      FunctionalConfig(observation_stride=25))
    assert report.survivors == 16
    for name, rows in report.traces.data.items():
        kind = "bitwise" if name == "floor_activations" else "close"
        out[kind][f"trace 16 rows {name}"] = rows

    def reductions(key, report):
        for name, column in report.standard_errors.items():
            out["bitwise"][f"{key} standard error {name}"] = column
        for name, fit in report.monitors.items():
            for part in ("lhs", "init", "C", "delta"):
                out["bitwise"][f"{key} monitor {name} {part}"] = np.atleast_1d(
                    getattr(fit, part))

    horizons = (0.014, 0.035, 0.05)
    for dim, n, n_paths in ((1, 64, 20), (1, 64, 201), (2, 16, 10)):
        basis = basis_of(dim, n, 16)
        init = default_initial_pair(basis, params)
        schemes = ("ito_imex", "stratonovich_heun") if dim == 1 else ("ito_imex",)
        for scheme in schemes:
            sch = SchemeConfig(dt=1e-3, T=0.05, scheme=scheme)
            report = ensemble(init, params, sch, basis, spec, n_paths, fcfg,
                              horizons=horizons)
            key = f"ensemble {dim}d {n_paths} paths {scheme}"
            for name, column in report.means.items():
                if not name.endswith("_argmin"):
                    out["close"][f"{key} mean {name}"] = column
            reductions(key, report)

    # a CFL limit that paths 0, 2, 8, 9 and 10 of paths 0..11 break mid-run
    basis = basis_of(1, 64, 16)
    init = default_initial_pair(basis, params)
    loud = ModelParams(r_u=0.01, r_v=0.1, kappa_u=1.0, kappa_v=1.0,
                       mu_u=1.0, mu_v=2.0, sigma_u=1.0, sigma_v=1.0)
    sch = SchemeConfig(dt=1e-3, T=0.05, reaction_cfl_limit=CFL_LIMIT)
    report = ensemble(init, loud, sch, basis, spec, 12, fcfg,
                      horizons=horizons)
    out["bitwise"]["ensemble with failures failed paths"] = np.array(
        [idx for idx, _ in report.failures])
    reductions("ensemble with failures", report)

    basis = basis_of(1, 64, 16)
    init = default_initial_pair(basis, params)
    sch = SchemeConfig(dt=1e-3, T=0.05)
    report = picard_iterate(init, params, sch, basis, spec,
                            FixedPointConfig(max_iterations=8, tolerance=1e-9,
                                             ensemble_size=6))
    out["bitwise"]["picard iterations"] = np.array([report.iterations])
    for part in ("mean_L1", "mean_L2", "sup_mean_L3"):
        out["bitwise"][f"picard membership {part}"] = np.array(
            [getattr(member, part) for member in report.memberships])
    out["close"]["picard bounds"] = _bounds(report)
    out["close"]["picard distances"] = np.array(report.distances)

    # the picard_1d benchmark's iteration: 16 members, 100 steps
    desk = ModelParams(r_u=0.01, r_v=0.1, kappa_u=1.0, kappa_v=1.0,
                       mu_u=1.0, mu_v=2.0, sigma_u=0.1, sigma_v=0.1)
    init = default_initial_pair(basis, desk)
    sch = SchemeConfig(dt=1e-3, T=0.1)
    report = picard_iterate(init, desk, sch, basis,
                            NoiseSpec(2.0, 2.0, 16, 0),
                            FixedPointConfig(tolerance=1e-6, ensemble_size=16),
                            fconfig=FunctionalConfig(observation_stride=25))
    key = "picard 16 members 100 steps"
    out["bitwise"][f"{key} iterations"] = np.array([report.iterations])
    for part in ("mean_L1", "mean_L2", "sup_mean_L3"):
        out["bitwise"][f"{key} membership {part}"] = np.array(
            [getattr(member, part) for member in report.memberships])
    out["close"][f"{key} bounds"] = _bounds(report)
    out["close"][f"{key} distances"] = np.array(report.distances)
    out["close"][f"{key} residual"] = np.array([report.residual_vs_coupled])

    # a longer horizon, where a tree may have held one block a sweep
    sch = SchemeConfig(dt=1e-3, T=0.3)
    report = picard_iterate(init, desk, sch, basis,
                            NoiseSpec(2.0, 2.0, 16, 0),
                            FixedPointConfig(tolerance=1e-6, ensemble_size=16),
                            fconfig=FunctionalConfig(observation_stride=25))
    key = "picard 16 members 300 steps"
    out["bitwise"][f"{key} iterations"] = np.array([report.iterations])
    out["close"][f"{key} distances"] = np.array(report.distances)
    out["close"][f"{key} residual"] = np.array([report.residual_vs_coupled])
    return out


def _bounds(report):
    """(K1, K2, K3) of a Picard report."""
    return np.array([report.bounds.K1, report.bounds.K2, report.bounds.K3])


def _child(dest):
    with open(dest, "wb") as fh:
        pickle.dump(_cases(), fh)


def _collect(src, dest):
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, __file__, "--child", dest],
                   env=env, check=True)
    with open(dest, "rb") as fh:
        return pickle.load(fh)


def _tally(stepped):
    steps = stepped["bitwise"]
    tau = np.concatenate((steps["stopping tau1"], steps["stopping tau2"]))
    mid = int(np.count_nonzero(tau > 0))
    lo, hi = int(tau[tau > 0].min()), int(tau.max())
    return f"{mid} levels first hit mid-run (steps {lo}-{hi})"


def run_commands(src, dest, configs=CONFIGS, seeds=SEEDS, selftest=True):
    """Run every command on ``configs`` at ``seeds`` from the tree ``src``.

    Each run is a fresh ``python -m gmspde.cli`` process started in
    ``dest`` with relative paths, so that two trees run the same command
    lines.  The files of command c on config x at seed s land in
    ``runs/x/seed<s>/c``, and its stdout, stderr and exit code beside
    them, in ``c.stdout``, ``c.stderr`` and ``c.exit``.  With
    ``selftest``, the full selftest runs once, quietly, into
    ``runs/selftest``, and its ``timing.json`` is removed.  Returns the
    (run, exit code) pairs of the runs that exited nonzero.
    """
    env = dict(os.environ, PYTHONPATH=src)
    os.makedirs(os.path.join(dest, "configs"))
    jobs = []
    for name, text in configs.items():
        config = os.path.join("configs", f"{name}.cfg")
        with open(os.path.join(dest, config), "w", encoding="utf-8") as fh:
            fh.write(text)
        for seed in seeds:
            for command in COMMANDS:
                out = os.path.join("runs", name, f"seed{seed}", command)
                jobs.append((out, [command, "--config", config,
                                   "--seed", str(seed)]))
    if selftest:
        jobs.append((os.path.join("runs", "selftest"), ["selftest", "--quiet"]))
    nonzero = []
    for out, argv in jobs:
        done = subprocess.run(
            [sys.executable, "-m", "gmspde.cli", *argv, "--out-dir", out],
            cwd=dest, env=env, capture_output=True, check=False)
        os.makedirs(os.path.join(dest, os.path.dirname(out)), exist_ok=True)
        for suffix, data in ((".stdout", done.stdout),
                             (".stderr", done.stderr),
                             (".exit", f"{done.returncode}\n".encode())):
            with open(os.path.join(dest, out + suffix), "wb") as fh:
                fh.write(data)
        if done.returncode:
            nonzero.append((out, done.returncode))
    if selftest:
        timing = os.path.join(dest, "runs", "selftest", "timing.json")
        if os.path.exists(timing):
            os.remove(timing)
    return nonzero


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


def command_pass(old_src, new_src, configs=CONFIGS, seeds=SEEDS,
                 selftest=True):
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
                       in run_commands(src, dest, configs, seeds, selftest)]
        everything, differ = differing_files(*trees)
    failed += [f"DIFFERS  {rel}" for rel in differ]
    for line in failed:
        print(line)
    print(f"{len(everything) - len(differ)} of {len(everything)} command "
          f"files byte-identical")
    return len(failed)


def case_pass(old_src, new_src):
    """Run the cases in both trees and compare them; returns the failures."""
    with tempfile.TemporaryDirectory() as tmp:
        old = _collect(old_src, os.path.join(tmp, "old.pkl"))
        new = _collect(new_src, os.path.join(tmp, "new.pkl"))
    failed = 0
    for key, a in old["bitwise"].items():
        b = new["bitwise"][key]
        same = a.shape == b.shape and np.array_equal(a, b)
        failed += not same
        print(f"{'bitwise' if same else 'DIFFERS'}  {key}")
    for key, a in old["close"].items():
        b = new["close"][key]
        scale = float(np.max(np.abs(a))) or 1.0
        gap = float(np.max(np.abs(a - b))) / scale
        ok = a.shape == b.shape and gap <= RTOL
        failed += not ok
        print(f"{'close  ' if ok else 'DIFFERS'}  {key}: max gap {gap:.2e} "
              f"x max|value| (limit {RTOL:g})")
    print(_tally(new))
    return failed


def main(argv):
    if len(argv) >= 2 and argv[0] == "--child":
        _child(argv[1])
        return 0
    if "-h" in argv or "--help" in argv:
        print(__doc__)
        return 0
    if not 1 <= len(argv) <= 2 or any(arg.startswith("-") for arg in argv):
        print(__doc__, file=sys.stderr)
        return 2
    old_src = os.path.abspath(argv[0])
    new_src = os.path.abspath(argv[1] if len(argv) == 2
                              else os.path.join(HERE, "..", "src"))
    failed = case_pass(old_src, new_src) + command_pass(old_src, new_src)
    print(f"{failed} comparison(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
