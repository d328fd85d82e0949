"""Compare the numbers of two gmspde source trees, case by case.

    python tools/compare_trees.py OLD_SRC [NEW_SRC]

OLD_SRC and NEW_SRC are directories holding a ``gmspde`` package
(NEW_SRC defaults to this checkout's ``src``); make OLD_SRC with
``git archive <commit> | tar -x -C <dir>``.  Each tree runs the same
cases in its own interpreter, and the outputs are compared:

* bitwise: ``noise.sample_paths`` tables (1-D K=16, 200 paths, steps
  0..49, drawn whole and in 5-step blocks; K=256 as in 2-D, one path,
  50 steps; seed 2**64 - 1 with path 2**63); the delta = 0 uniqueness
  study (which must also report bitwise-identical runs); the
  stopping-scan first-hit steps on a trajectory that crosses its levels
  mid-run; the Picard iteration count;
* to 1e-13 x max|value| (a stacked product, or a quadrature summed in
  another order, against one per row): ``run`` final u, v and the live
  functional trace for both schemes in 1-D (N=64, K=16) and 2-D (N=16,
  K=16), and for the Stratonovich Heun scheme in 2-D at N=128, K=256
  (the ``sim_2d`` benchmark's path); criterion 6's single-mode
  ``_gbm_batch`` outputs for both schemes; ``apply_T`` on a
  coupled-solve input; ``replay_trace`` of a stored trajectory; the
  ensemble means of 20 and of 201 paths (1-D, both schemes; 201 is a
  stack size that is a multiple of neither 4 nor 16) and 10 paths
  (2-D), node-index columns left out (a near-tie may move an argmin by
  a whole node); the Picard distances of a 6-member iteration.

Exits 1 if any comparison fails.
"""

from __future__ import annotations

import inspect
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
RTOL = 1e-13


def _run_with(run, observer):
    """Keyword for one observer under either ``run`` signature."""
    if "observer" in inspect.signature(run).parameters:
        return {"observer": observer}
    return {"observers": [observer]}


def _cases():
    from gmspde import acceptance
    from gmspde.dynamics import ModelParams, SchemeConfig, default_initial_pair, run
    from gmspde.experiments import (
        FixedPointConfig,
        StoppingSpec,
        TrajectoryRecorder,
        _stopping_scan,
        apply_T,
        constant_trajectory,
        ensemble,
        picard_iterate,
        replay_trace,
        uniqueness_study,
    )
    from gmspde.functionals import FunctionalConfig, FunctionalRecorder
    from gmspde.noise import NoiseSpec, sample_path, sample_paths, uniform_grid
    from gmspde.spectral import DomainSpec, build_basis

    params = ModelParams(r_u=0.01, r_v=0.1, kappa_u=1.0, kappa_v=1.0,
                         mu_u=1.0, mu_v=2.0, sigma_u=0.3, sigma_v=0.3)
    fcfg = FunctionalConfig(observation_stride=7)
    out = {"bitwise": {}, "close": {}}

    def basis_of(dim, n, k):
        return build_basis(DomainSpec(dim=dim, lengths=(1.0,) * dim,
                                      grid_points_per_axis=n), k)

    grid = uniform_grid(0.05, 50)
    for name, spec, paths in (
            ("1d K=16 200 paths", NoiseSpec(2.0, 2.0, 16, 901), range(200)),
            ("K=256 1 path", NoiseSpec(3.0, 3.0, 256, 7), [3]),
            ("seed 2**64-1 path 2**63", NoiseSpec(2.0, 2.0, 16, 2**64 - 1),
             [2**63])):
        out["bitwise"][f"sample_paths {name}"] = sample_paths(spec, grid, paths)
    out["bitwise"]["sample_paths 1d K=16 200 paths in 5-step blocks"] = (
        np.concatenate([sample_paths(NoiseSpec(2.0, 2.0, 16, 901), grid,
                                     range(200), n0, n0 + 5)
                        for n0 in range(0, 50, 5)], axis=-1))

    # Final u, v are not bitwise: the projection folds the quadrature
    # weights into its per-axis tables, and 2-D transforms contract one
    # axis at a time, so sums run in another order by design.  Bitwise
    # is promised only for noise tables, delta = 0 and reruns on one
    # layout.
    both = ("ito_imex", "stratonovich_heun")
    for dim, n, k, t_end, schemes in ((1, 64, 16, 0.1, both),
                                      (2, 16, 16, 0.1, both),
                                      (2, 128, 256, 0.05,
                                       ("stratonovich_heun",))):
        basis = basis_of(dim, n, k)
        spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=k, master_seed=11)
        init = default_initial_pair(basis, params)
        path = sample_path(spec, uniform_grid(t_end, round(t_end / 1e-3)), 3)
        for scheme in schemes:
            sch = SchemeConfig(dt=1e-3, T=t_end, scheme=scheme)
            rec = FunctionalRecorder(basis, fcfg, sch.v_floor)
            res = run(init, params, sch, basis, spec, path,
                      **_run_with(run, rec))
            key = f"run {dim}d N={n} K={k} {scheme}"
            out["close"][key + " u"] = res.final.pair.u.modal
            out["close"][key + " v"] = res.final.pair.v.modal
            trace = rec.trace()
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
    path = sample_path(spec, uniform_grid(0.2, 200), 0)
    report = uniqueness_study(init, 0.0, params, sch, basis, spec,
                              StoppingSpec(), path)
    out["bitwise"]["uniqueness delta=0 du"] = report.du_l2
    out["bitwise"]["uniqueness delta=0 bitwise_identical"] = np.array(
        [report.bitwise_identical])

    # a strongly driven run whose stopping quantities grow mid-run
    loud = ModelParams(r_u=0.01, r_v=0.1, kappa_u=1.0, kappa_v=1.0,
                       mu_u=1.0, mu_v=2.0, sigma_u=1.5, sigma_v=1.5)
    sch = SchemeConfig(dt=1e-3, T=0.6)
    path = sample_path(spec, uniform_grid(0.6, 600), 5)
    rec = TrajectoryRecorder()
    run(init, loud, sch, basis, spec, path, **_run_with(run, rec))
    traj = rec.trajectory()
    levels = tuple(np.round(np.concatenate((np.linspace(0.51, 0.68, 18),
                                            np.geomspace(4.5, 180.0, 50))), 6))
    tau1, tau2 = _stopping_scan(traj, basis, sch, levels)
    out["bitwise"]["stopping tau1"] = np.array(
        [-1 if tau1[m] is None else tau1[m] for m in levels])
    out["bitwise"]["stopping tau2"] = np.array(
        [-1 if tau2[m] is None else tau2[m] for m in levels])

    sch = SchemeConfig(dt=1e-3, T=0.1)
    path = sample_path(spec, uniform_grid(0.1, 100), 2)
    rec = TrajectoryRecorder()
    run(init, params, sch, basis, spec, path, **_run_with(run, rec))
    coupled = rec.trajectory()
    t_out, _ = apply_T(coupled, init, params, sch, basis, spec, path)
    out["close"]["apply_T chi"] = t_out.chi_modal
    out["close"]["apply_T eta"] = t_out.eta_modal
    trace = replay_trace(coupled, basis, fcfg, sch.v_floor)
    for name, column in trace.data.items():
        out["close"][f"replay_trace {name}"] = column

    for dim, n, n_paths in ((1, 64, 20), (1, 64, 201), (2, 16, 10)):
        basis = basis_of(dim, n, 16)
        init = default_initial_pair(basis, params)
        schemes = ("ito_imex", "stratonovich_heun") if dim == 1 else ("ito_imex",)
        for scheme in schemes:
            sch = SchemeConfig(dt=1e-3, T=0.05, scheme=scheme)
            report = ensemble(init, params, sch, basis, spec, n_paths, fcfg)
            for name, column in report.means.items():
                if not name.endswith("_argmin"):
                    key = f"ensemble {dim}d {n_paths} paths {scheme} mean {name}"
                    out["close"][key] = column

    basis = basis_of(1, 64, 16)
    init = default_initial_pair(basis, params)
    sch = SchemeConfig(dt=1e-3, T=0.05)
    report = picard_iterate(constant_trajectory(init, sch), init, params, sch,
                            basis, spec, FixedPointConfig(max_iterations=8,
                                                          tolerance=1e-9,
                                                          ensemble_size=6))
    out["bitwise"]["picard iterations"] = np.array([report.iterations])
    out["close"]["picard distances"] = np.array(report.distances)
    return out


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


def main(argv):
    if len(argv) >= 2 and argv[0] == "--child":
        _child(argv[1])
        return 0
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_src = os.path.abspath(argv[0])
    new_src = os.path.abspath(argv[1] if len(argv) == 2
                              else os.path.join(HERE, "..", "src"))
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
    print(f"{failed} comparison(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
