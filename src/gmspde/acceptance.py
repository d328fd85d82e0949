"""Executable acceptance criteria.

Each criterion is a function returning a :class:`CriterionResult`; the
``selftest`` CLI subcommand runs the lot, printing one line per
criterion.  The pytest suite (``tests/test_acceptance.py``) asserts on
every criterion one by one, runtime limits included.  Tolerances are
pinned here, next to the oracle that justifies them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    ModelParams,
    SchemeConfig,
    constant_pair,
    default_initial_pair,
    run,
    run_batch,
    steady_state,
)
from .experiments import (
    FixedPointConfig,
    StoppingSpec,
    ensemble,
    picard_iterate,
    uniqueness_study,
)
from .functionals import FunctionalConfig
from .noise import NoiseSpec, drawn, paired, sliced
from .spectral import DomainSpec, build_basis


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    runtime_limit: float | None = None

    @property
    def within_budget(self):
        return self.runtime_limit is None or self.elapsed < self.runtime_limit

    def line(self, timed=False):
        """The report line; ``timed`` adds time and limit: "[0.1s (limit 5s)]"."""
        status = "PASS" if (self.passed and self.within_budget) else "FAIL"
        head = f"{status} criterion {self.index}: {self.name}"
        if timed:
            budget = ""
            if self.runtime_limit is not None:
                budget = f" (limit {self.runtime_limit:g}s)"
            head += f" [{self.elapsed:.1f}s{budget}]"
        return f"{head} {self.detail}"


def _result(index, name, passed, detail, t0, limit=None):
    # t0 is on the monotonic perf_counter: a wall-clock step moves no verdict
    return CriterionResult(index=index, name=name, passed=bool(passed),
                           detail=detail, elapsed=time.perf_counter() - t0,
                           runtime_limit=limit)


def _desk_params(sigma=0.1):
    return ModelParams(r_u=0.01, r_v=0.1, kappa_u=1.0, kappa_v=1.0,
                       mu_u=1.0, mu_v=2.0, sigma_u=sigma, sigma_v=sigma)


def _basis_1d(n=64, k=16, convention="neumann_cosine"):
    return build_basis(
        DomainSpec(dim=1, lengths=(1.0,), eigenvalue_convention=convention,
                   grid_points_per_axis=n), k)


def criterion_1_orthonormality():
    """max |<e_j, e_k> - delta_jk| < 1e-10 at N=256, K=64, all domains."""
    t0 = time.perf_counter()
    worst = 0.0
    cases = [
        DomainSpec(dim=1, lengths=(1.0,), eigenvalue_convention="neumann_cosine",
                   grid_points_per_axis=256),
        DomainSpec(dim=1, lengths=(1.0,), eigenvalue_convention="paper_1d",
                   grid_points_per_axis=256),
        DomainSpec(dim=2, lengths=(1.0, 1.0), grid_points_per_axis=256),
    ]
    for dom in cases:
        basis = build_basis(dom, 64)
        gram = basis.project(basis.synthesize(np.eye(64)))
        worst = max(worst, float(np.abs(gram - np.eye(64)).max()))
    return _result(1, "basis orthonormality", worst < 1e-10,
                   f"max Gram error {worst:.3e} (tol 1e-10)", t0, limit=5.0)


def criterion_2_noise_covariance():
    """Sampled Var<W(1), e_k> within 5% of (1+lambda_k)^-gamma, K=64, 20k paths."""
    t0 = time.perf_counter()
    n_paths = 20_000
    n_steps = 4
    gamma = 2.0
    basis = _basis_1d(n=256, k=64, convention="paper_1d")
    spec = NoiseSpec(gamma1=gamma, gamma2=gamma, mode_count=64, master_seed=202)
    sch = SchemeConfig(dt=1.0 / n_steps, T=1.0)

    # a path draws the same numbers alone and in a batch
    probe = drawn(spec, sch, [17])(0, n_steps)[0]
    batch = drawn(spec, sch, [3, 17, 17])(0, n_steps)
    if not (np.array_equal(probe, batch[1]) and np.array_equal(probe, batch[2])):
        return _result(2, "noise covariance", False,
                       "batched draws disagree with a one-path draw", t0,
                       limit=60.0)

    # W_j(1) per path for modes 0..10; a mode's draws do not depend on the
    # mode count, so an 11-mode spec draws the same numbers in chunks
    spec_11 = NoiseSpec(gamma1=gamma, gamma2=gamma, mode_count=11,
                        master_seed=spec.master_seed)
    chunk = 2_500
    w_end = np.concatenate([
        drawn(spec_11, sch, range(i, i + chunk))(0, n_steps).sum(axis=-1)
        for i in range(0, n_paths, chunk)
    ])
    worst_rel = 0.0
    sums = {1: [], 2: []}
    for k in range(11):
        damp = (1.0 + basis.eigenvalues[k]) ** (-gamma / 2.0)
        for j in (1, 2):
            sums[j].append(w_end[:, j - 1, k])
        coeff = damp * sums[1][-1]
        var = float(np.var(coeff, ddof=1))
        target = (1.0 + basis.eigenvalues[k]) ** (-gamma)
        worst_rel = max(worst_rel, abs(var - target) / target)
    a = np.concatenate(sums[1])
    b = np.concatenate(sums[2])
    rho = float(np.corrcoef(a, b)[0, 1])
    ok = worst_rel < 0.05 and abs(rho) < 0.02
    return _result(2, "noise covariance", ok,
                   f"worst Var error {worst_rel:.3%} (tol 5%), "
                   f"cross-process corr {rho:+.4f} (tol 0.02)", t0, limit=60.0)


def criterion_3_exact_limits():
    """Pure decay to 1e-12 relative; mass conservation to 1e-10."""
    t0 = time.perf_counter()
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=0)
    mu = 1.3
    c0 = 2.5
    p_decay = replace(_desk_params(sigma=0.0), kappa_u=0.0, kappa_v=0.0,
                      mu_u=mu)
    sch = SchemeConfig(dt=1e-3, T=1.0)
    final = run(constant_pair(basis, c0, 1.0), p_decay, sch, basis, spec, None)
    exact = c0 * np.exp(-mu)
    rel = abs(float(final.u_nodal[0, 0]) - exact) / exact

    p_mass = replace(_desk_params(sigma=0.0), kappa_u=0.0, kappa_v=0.0,
                     mu_u=0.0, mu_v=0.0)
    u_modal = np.zeros(16)
    u_modal[0] = 2.0
    u_modal[3] = 0.5
    u_modal[7] = -0.25
    pair2 = constant_pair(basis, 0.0, 1.0)
    pair2[0] = u_modal
    final2 = run(pair2, p_mass, sch, basis, spec, None)
    mass0 = u_modal[0] * np.sqrt(basis.volume)
    mass1 = float(final2.u_modal[0, 0]) * np.sqrt(basis.volume)
    drift = abs(mass1 - mass0)
    ok = rel < 1e-12 and drift < 1e-10
    return _result(3, "exact deterministic limits", ok,
                   f"decay rel err {rel:.2e} (tol 1e-12), "
                   f"mass drift {drift:.2e} (tol 1e-10)", t0)


def criterion_4_steady_state():
    """Noiseless homogeneous fixed point drifts < 1e-8 in L2 over T=10."""
    t0 = time.perf_counter()
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=0)
    params = _desk_params(sigma=0.0)
    u_star, v_star = steady_state(params)
    sch = SchemeConfig(dt=1e-3, T=10.0)
    pair = constant_pair(basis, u_star, v_star)
    final = run(pair, params, sch, basis, spec, None)
    du = float(np.sqrt(np.sum((final.u_modal[0] - pair[0]) ** 2)))
    dv = float(np.sqrt(np.sum((final.v_modal[0] - pair[1]) ** 2)))
    ok = du < 1e-8 and dv < 1e-8
    return _result(4, "steady state invariance", ok,
                   f"|du|_L2 {du:.2e}, |dv|_L2 {dv:.2e} (tol 1e-8)", t0)


def criterion_5_strong_convergence():
    """Bridge-coupled dt in {2e-3, 1e-3, 5e-4}: observed strong order >= 0.4."""
    t0 = time.perf_counter()
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=505)
    params = _desk_params(sigma=0.5)
    init = default_initial_pair(basis, params)
    # dt = 2e-3, 1e-3 and 5e-4
    fine = SchemeConfig(dt=5e-4, T=0.5)
    e1, e2 = level_gaps(init, params, fine, basis, spec, n_paths=16)
    order = float(np.log2(e1 / e2))
    ok = order >= 0.4
    return _result(5, "strong self-convergence", ok,
                   f"|u_dt-u_dt/2| = {e1:.3e} -> {e2:.3e}, order {order:.2f} "
                   f"(need >= 0.4)", t0, limit=120.0)


def _final_u_modal(init, params, scheme, basis, spec, draw, n_paths):
    """Final activator coefficients of n_paths stacked on the source draw.

    Raises the first failure: the criteria using it expect every path to
    survive.
    """
    final = run_batch(init, params, scheme, basis, spec, draw, n_paths)
    if final.failures:
        raise next(iter(final.failures.values()))
    return final.u_modal


def level_gaps(init, params, fine, basis, spec, n_paths):
    """Mean gaps of the final u between three bridge-coupled step sizes.

    Paths 0..n_paths-1 are drawn on ``fine``'s grid; the grids of 2 and 4
    times its step read :func:`~gmspde.noise.paired` of the next finer
    source, and each level steps as one stack.  Returns the path means
    of |u_4dt - u_2dt| and |u_2dt - u_dt|, the L2 norms of the final
    activator coefficients.
    """
    draw = sliced(drawn(spec, fine, range(n_paths))(0, fine.n_steps()))
    finals = []
    for level in range(3):
        sch = replace(fine, dt=fine.dt * 2**level)
        finals.insert(0, _final_u_modal(init, params, sch, basis, spec, draw,
                                        n_paths))
        draw = paired(draw)
    return tuple(np.sqrt(np.sum((coarse - finer) ** 2, axis=1)).mean()
                 for coarse, finer in zip(finals, finals[1:]))


def _gbm_batch(scheme_name, params, spec, basis, n_paths, n_steps, horizon,
               u0, first_path):
    """Single-mode runs through the production stepper, all paths at once."""
    sch = SchemeConfig(dt=horizon / n_steps, T=horizon, scheme=scheme_name)
    paths = range(first_path, first_path + n_paths)
    out = _final_u_modal(constant_pair(basis, u0, 1.0), params, sch, basis,
                         spec, drawn(spec, sch, paths), n_paths)
    return out[:, 0] / np.sqrt(basis.volume)


def criterion_6_scheme_consistency():
    """Single-mode GBM oracles for both schemes; full-system mean cross-check.

    At sigma = 2 the operator-corrected Ito mean u0 exp(-(mu-sigma) t)
    and the Stratonovich mean u0 exp((-mu+sigma^2/2) t) coincide, so the
    cross-scheme comparison has an exact oracle.  The full-system
    mean-field discrepancy is reported and flagged when beyond 3 SE
    (the linear-in-sigma correction need not match the quadratic
    midpoint correction away from sigma = 2).
    """
    t0 = time.perf_counter()
    basis = _basis_1d(n=4, k=1)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=1, master_seed=606)
    mu, sigma = 3.0, 2.0
    params = replace(_desk_params(sigma=0.1), kappa_u=0.0, kappa_v=0.0,
                     mu_u=mu, sigma_u=sigma)
    horizon, n_steps, n_paths, u0 = 0.25, 32, 10_000, 1.0
    ito = _gbm_batch("ito_imex", params, spec, basis, n_paths, n_steps,
                     horizon, u0, first_path=0)
    heun = _gbm_batch("stratonovich_heun", params, spec, basis, n_paths,
                      n_steps, horizon, u0, first_path=n_paths)
    mean_ito, se_ito = ito.mean(), ito.std(ddof=1) / np.sqrt(n_paths)
    mean_heun, se_heun = heun.mean(), heun.std(ddof=1) / np.sqrt(n_paths)
    oracle_ito = u0 * np.exp(-(mu - sigma) * horizon)
    oracle_heun = u0 * np.exp((-mu + sigma**2 / 2.0) * horizon)
    z_ito = abs(mean_ito - oracle_ito) / se_ito
    z_heun = abs(mean_heun - oracle_heun) / se_heun
    z_cross = abs(mean_ito - mean_heun) / np.sqrt(se_ito**2 + se_heun**2)

    # full system at desk parameters: discrepancy reported, flag allowed
    basis_f = _basis_1d(n=32, k=8)
    spec_f = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=8, master_seed=616)
    params_f = _desk_params(sigma=0.2)
    init = default_initial_pair(basis_f, params_f)
    m = 100

    def mean_mode0(scheme_name, first):
        sch = SchemeConfig(dt=2.5e-3, T=1.0, scheme=scheme_name)
        draw = drawn(spec_f, sch, range(first, first + m))
        return _final_u_modal(init, params_f, sch, basis_f, spec_f, draw,
                              m)[:, 0]

    full_ito = mean_mode0("ito_imex", 0)
    full_heun = mean_mode0("stratonovich_heun", 5000)
    se_full = np.sqrt(full_ito.var(ddof=1) / m + full_heun.var(ddof=1) / m)
    z_full = abs(full_ito.mean() - full_heun.mean()) / se_full
    flagged = z_full >= 3.0
    ok = z_ito < 3.0 and z_heun < 3.0 and z_cross < 3.0
    detail = (f"GBM z: ito {z_ito:.2f}, heun {z_heun:.2f}, cross {z_cross:.2f} "
              f"(all < 3); full-system mean gap z = {z_full:.2f}"
              + (" FLAGGED per the correction-mismatch caveat" if flagged
                 else " (consistent)"))
    return _result(6, "Stratonovich/Ito consistency", ok, detail, t0)


def criterion_7_positivity():
    """200 paths at v_floor = 0: no activations, min v > 0 at every record."""
    t0 = time.perf_counter()
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=707)
    params = _desk_params(sigma=0.1)
    init = default_initial_pair(basis, params)
    sch = SchemeConfig(dt=1e-3, T=1.0, v_floor=0.0)
    fcfg = FunctionalConfig(observation_stride=25)
    report = ensemble(init, params, sch, basis, spec, 200, fcfg)
    activations = float(report.traces.data["floor_activations"].max())
    min_v = float(report.traces.data["eta_min"].min())
    ok = (report.survivors == 200 and activations == 0.0 and min_v > 0.0)
    return _result(7, "positivity of the inhibitor", ok,
                   f"survivors {report.survivors}/200, activations "
                   f"{activations:g}, min v {min_v:.4g}", t0)


def criterion_8_pathwise_uniqueness():
    """delta=0 bitwise identity; delta=1e-8 amplification stable under halving."""
    t0 = time.perf_counter()
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=808)
    params = _desk_params(sigma=0.1)
    init = default_initial_pair(basis, params)
    stopping = StoppingSpec()
    # dt = 1e-3 and 5e-4
    sch_c, sch_f = SchemeConfig(dt=1e-3, T=1.0), SchemeConfig(dt=5e-4, T=1.0)
    fine = sliced(drawn(spec, sch_f, [0])(0, sch_f.n_steps()))
    coarse = paired(fine)

    zero = uniqueness_study(init, 0.0, params, sch_c, basis, spec, stopping,
                            coarse)
    amp_c = uniqueness_study(init, 1e-8, params, sch_c, basis, spec, stopping,
                             coarse).amplification
    amp_f = uniqueness_study(init, 1e-8, params, sch_f, basis, spec, stopping,
                             fine).amplification
    ratio = max(amp_c, amp_f) / min(amp_c, amp_f)
    ok = zero.bitwise_identical and ratio < 2.0
    return _result(8, "pathwise uniqueness (desk form)", ok,
                   f"delta=0 bitwise: {zero.bitwise_identical}; C(dt=1e-3) = "
                   f"{amp_c:.4g}, C(dt=5e-4) = {amp_f:.4g}, ratio {ratio:.3f} "
                   f"(< 2)", t0)


def criterion_9_lyapunov_fit():
    """One (C, delta) covers E sup |xi|_p^p <= C e^(dT) E|xi_0|_p^p at T=0.5,1,2."""
    t0 = time.perf_counter()
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=909)
    params = _desk_params(sigma=0.1)
    init = default_initial_pair(basis, params)
    sch = SchemeConfig(dt=1e-3, T=2.0)
    fcfg = FunctionalConfig(p=31.0 / 7.0, observation_stride=25)
    horizons = (0.5, 1.0, 2.0)
    report = ensemble(init, params, sch, basis, spec, 200, fcfg,
                      horizons=horizons)
    fit = report.monitors["xi_lp_sup"]
    envelope_ok = bool(
        np.all(fit.lhs <= fit.C * np.exp(fit.delta * fit.horizons) * fit.init
               * (1 + 1e-12))
    )
    blow_ups = [name for name, f in report.monitors.items() if f.blow_up]
    ok = (fit.ok and envelope_ok and not blow_ups
          and report.survivors == 200)
    return _result(9, "Lyapunov bound structure", ok,
                   f"C = {fit.C:.4g}, delta = {fit.delta:.4g}, envelope holds: "
                   f"{envelope_ok}, blow-ups: {blow_ups or 'none'}", t0)


def criterion_10_fixed_point():
    """Picard contraction, membership, and residual vs the coupled solve."""
    t0 = time.perf_counter()
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=1010)
    params = _desk_params(sigma=0.1)
    sch = SchemeConfig(dt=1e-3, T=0.1)
    init = default_initial_pair(basis, params)
    report = picard_iterate(init, params, sch, basis, spec,
                            FixedPointConfig(max_iterations=30,
                                             tolerance=1e-6,
                                             ensemble_size=16))
    ok = (report.converged
          and report.iterations <= 30
          and report.all_ratios_below_one
          and report.distances[-1] < 1e-6
          and report.residual_vs_coupled < 1e-6
          and report.all_members)
    return _result(10, "fixed point of the decoupling map", ok,
                   f"{report.iterations} iterations, d_last = "
                   f"{report.distances[-1]:.3g}, max ratio = "
                   f"{max(report.ratios) if report.ratios else 0:.3g}, "
                   f"residual = {report.residual_vs_coupled:.3g}, members: "
                   f"{report.all_members}", t0, limit=300.0)


ALL_CRITERIA = (
    criterion_1_orthonormality,
    criterion_2_noise_covariance,
    criterion_3_exact_limits,
    criterion_4_steady_state,
    criterion_5_strong_convergence,
    criterion_6_scheme_consistency,
    criterion_7_positivity,
    criterion_8_pathwise_uniqueness,
    criterion_9_lyapunov_fit,
    criterion_10_fixed_point,
)


def run_all(indices=None, printer=print):
    """Run the acceptance suite; returns the list of results.

    ``printer`` receives each criterion's timed report line as it ends.
    """
    results = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if indices is not None and i not in indices:
            continue
        res = fn()
        results.append(res)
        if printer is not None:
            printer(res.line(timed=True))
    return results
