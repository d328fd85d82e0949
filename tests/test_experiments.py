import numpy as np
import pytest

from gmspde.dynamics import (
    ModelParams,
    SchemeConfig,
    default_initial_pair,
    run,
    steady_state,
)
from gmspde.experiments import (
    FixedPointConfig,
    StoppingSpec,
    TrajectoryRecorder,
    _stopping_scan,
    apply_T,
    constant_trajectory,
    ensemble,
    picard_iterate,
    seminorm_m,
    uniqueness_study,
)
from gmspde.fields import Field, FieldPair
from gmspde.functionals import FunctionalConfig
from gmspde.noise import NoiseSpec, sample_path, uniform_grid
from gmspde.spectral import DomainSpec, build_basis

K = 16


@pytest.fixture(scope="module")
def basis():
    return build_basis(DomainSpec(dim=1, lengths=(1.0,),
                                  grid_points_per_axis=64), K)


@pytest.fixture(scope="module")
def nspec():
    return NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=2024)


def desk_params(sigma=0.1):
    return ModelParams(r_u=0.01, r_v=0.1, kappa_u=1.0, kappa_v=1.0,
                       mu_u=1.0, mu_v=2.0, sigma_u=sigma, sigma_v=sigma)


def steady_pair(basis, params):
    u_star, v_star = steady_state(params)
    return FieldPair(Field.from_constant(basis, u_star),
                     Field.from_constant(basis, v_star))


def test_stopping_spec_requires_increasing_levels():
    with pytest.raises(ValueError, match="increasing"):
        StoppingSpec(m_levels=(4.0, 2.0))


def test_apply_T_fixes_noiseless_steady_state(basis, nspec):
    params = desk_params(sigma=0.0)
    sch = SchemeConfig(dt=1e-3, T=0.05)
    pair = steady_pair(basis, params)
    traj = constant_trajectory(pair, sch)
    path = sample_path(nspec, uniform_grid(0.05, 50), 0)
    out, diag = apply_T(traj, pair, params, sch, basis, nspec, path)
    u_star, v_star = steady_state(params)
    assert np.abs(out.chi_modal[-1, 0] - u_star).max() < 1e-8
    assert np.abs(out.eta_modal[-1, 0] - v_star * np.sqrt(basis.volume)
                  + v_star * np.sqrt(basis.volume) - v_star).max() < 1e-8
    assert diag.floor_activations == 0


def test_apply_T_zero_source_decays(basis, nspec):
    params = desk_params(sigma=0.0)
    sch = SchemeConfig(dt=1e-3, T=0.2)
    pair = steady_pair(basis, params)
    zero_chi = FieldPair(Field.from_constant(basis, 0.0), pair.v.copy())
    traj = constant_trajectory(zero_chi, sch)
    path = sample_path(nspec, uniform_grid(0.2, 200), 0)
    out, _ = apply_T(traj, pair, params, sch, basis, nspec, path)
    v_norms = np.sqrt(np.sum(out.eta_modal**2, axis=1))
    assert np.all(np.diff(v_norms) < 0)
    u_norms = np.sqrt(np.sum(out.chi_modal**2, axis=1))
    assert u_norms[-1] < u_norms[0] * np.exp(-params.mu_u * 0.2) * 1.001


def test_apply_T_deterministic(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.05)
    pair = default_initial_pair(basis, params)
    traj = constant_trajectory(pair, sch)
    path = sample_path(nspec, uniform_grid(0.05, 50), 3)
    out1, _ = apply_T(traj, pair, params, sch, basis, nspec, path)
    out2, _ = apply_T(traj, pair, params, sch, basis, nspec, path)
    assert np.array_equal(out1.chi_modal, out2.chi_modal)
    assert np.array_equal(out1.eta_modal, out2.eta_modal)


def test_apply_T_rejects_negative_input(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    pair = steady_pair(basis, params)
    bad = FieldPair(Field.from_constant(basis, -0.5), pair.v.copy())
    traj = constant_trajectory(bad, sch)
    path = sample_path(nspec, uniform_grid(0.01, 10), 0)
    with pytest.raises(ValueError, match="chi negative"):
        apply_T(traj, pair, params, sch, basis, nspec, path)


def test_seminorm_of_identical_families_is_zero(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.02)
    traj = constant_trajectory(default_initial_pair(basis, params), sch)
    assert seminorm_m(traj, traj, basis, 1.1) == 0.0


def test_picard_at_steady_state_terminates_immediately(basis, nspec):
    params = desk_params(sigma=0.0)
    sch = SchemeConfig(dt=1e-3, T=0.05)
    pair = steady_pair(basis, params)
    start = constant_trajectory(pair, sch)
    report = picard_iterate(start, pair, params, sch, basis, nspec,
                            FixedPointConfig(ensemble_size=2, tolerance=1e-8))
    assert report.converged
    assert report.iterations == 1
    assert report.distances[0] < 1e-8


def test_picard_rejects_nonpositive_start(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    pair = steady_pair(basis, params)
    bad_start = constant_trajectory(
        FieldPair(Field.from_constant(basis, -1.0), pair.v.copy()), sch)
    with pytest.raises(ValueError, match="positivity"):
        picard_iterate(bad_start, pair, params, sch, basis, nspec,
                       FixedPointConfig(ensemble_size=2))


def test_picard_contracts_on_desk_problem(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.05)
    init = default_initial_pair(basis, params)
    start = constant_trajectory(init, sch)
    report = picard_iterate(start, init, params, sch, basis, nspec,
                            FixedPointConfig(ensemble_size=4))
    assert report.converged
    assert all(r < 1.0 for r in report.ratios)
    assert report.residual_vs_coupled < 1e-6
    assert report.all_members


def test_picard_under_stratonovich_matches_coupled_solve(basis, nspec):
    # T applies the configured scheme, so its fixed point is the Heun solve
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.05, scheme="stratonovich_heun")
    init = default_initial_pair(basis, params)
    start = constant_trajectory(init, sch)
    report = picard_iterate(start, init, params, sch, basis, nspec,
                            FixedPointConfig(ensemble_size=4))
    assert report.converged
    assert report.residual_vs_coupled < 1e-6


def test_uniqueness_zero_delta_bitwise(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.2)
    init = default_initial_pair(basis, params)
    path = sample_path(nspec, uniform_grid(0.2, 200), 0)
    rep = uniqueness_study(init, 0.0, params, sch, basis, nspec,
                           StoppingSpec(), path)
    assert rep.bitwise_identical
    assert rep.du_l2.max() == 0.0
    assert rep.theorem_scope.startswith("within")


def test_uniqueness_small_delta_amplification(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.2)
    init = default_initial_pair(basis, params)
    path = sample_path(nspec, uniform_grid(0.2, 200), 0)
    rep = uniqueness_study(init, 1e-8, params, sch, basis, nspec,
                           StoppingSpec(), path)
    assert not rep.bitwise_identical
    assert rep.du_l2.max() <= rep.amplification * 1e-8 * (1 + 1e-12)
    assert 0.1 < rep.amplification < 100.0


def test_uniqueness_low_stopping_level_hits_at_zero(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    init = default_initial_pair(basis, params)
    path = sample_path(nspec, uniform_grid(0.01, 10), 0)
    # |xi_0|_L8 = 1/v* = 0.5, so a level below that is hit at step 0
    rep = uniqueness_study(init, 0.0, params, sch, basis, nspec,
                           StoppingSpec(m_levels=(0.1, 1e6)), path)
    assert rep.tau1_steps[(0.1, 1)] == 0
    assert rep.tau1_steps[(1e6, 1)] is None


def test_uniqueness_2d_labeled_outside_scope(nspec):
    basis2 = build_basis(
        DomainSpec(dim=2, lengths=(1.0, 1.0), grid_points_per_axis=16), K)
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    init = default_initial_pair(basis2, params)
    path = sample_path(nspec, uniform_grid(0.01, 10), 0)
    rep = uniqueness_study(init, 0.0, params, sch, basis2, nspec,
                           StoppingSpec(), path)
    assert rep.theorem_scope.startswith("outside")
    assert rep.bitwise_identical


def test_ensemble_forced_identical_paths_have_zero_variance(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.05)
    init = default_initial_pair(basis, params)
    rep = ensemble(init, params, sch, basis, nspec, 2,
                   FunctionalConfig(observation_stride=10),
                   path_indices=[7, 7])
    for name, se in rep.standard_errors.items():
        assert np.all(se == 0.0), name


@pytest.mark.parametrize("n_paths", [5, 7, 17, 201])
def test_ensemble_repeated_index_has_zero_variance_at_any_size(basis, nspec,
                                                                n_paths):
    # stacks of 5-7, 9-11, ... identical rows may differ in the last bit
    # under a BLAS product, so a repeat must not be stepped as its own row
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.05)
    init = default_initial_pair(basis, params)
    rep = ensemble(init, params, sch, basis, nspec, n_paths,
                   FunctionalConfig(observation_stride=10),
                   path_indices=[7] * n_paths)
    assert rep.survivors == n_paths
    for name, se in rep.standard_errors.items():
        assert np.all(se == 0.0), name


def test_ensemble_noiseless_matches_deterministic_run(basis, nspec):
    # distinct paths at sigma = 0 are equal up to rounding: a stacked
    # product may sum identical rows in another order, so the standard
    # errors are pinned to the rounding contract, not to exactly 0 (a
    # repeated index is exact: see the repeated-index test above)
    params = desk_params(sigma=0.0)
    sch = SchemeConfig(dt=1e-3, T=0.05)
    init = default_initial_pair(basis, params)
    res = run(init, params, sch, basis, nspec,
              sample_path(nspec, uniform_grid(0.05, 50), 0))
    for n_paths in (3, 5):
        rep = ensemble(init, params, sch, basis, nspec, n_paths,
                       FunctionalConfig(observation_stride=10))
        assert rep.survivors == n_paths
        for name, se in rep.standard_errors.items():
            scale = float(np.max(np.abs(rep.means[name])))
            assert np.all(se <= 1e-13 * scale), (n_paths, name)
        assert rep.means["chi_l2_sq"][-1] == pytest.approx(
            float(np.sum(res.final.pair.u.modal**2)), rel=1e-14)


def test_ensemble_reports_failed_paths(basis, nspec):
    # a blow-up configuration: huge kappa_u violates the reaction CFL
    params = ModelParams(r_u=0.01, r_v=0.1, kappa_u=2000.0, kappa_v=1.0,
                         mu_u=1.0, mu_v=2.0, sigma_u=0.1, sigma_v=0.1)
    sch = SchemeConfig(dt=1e-2, T=0.1)
    init = default_initial_pair(basis, params)
    from gmspde.dynamics import SimulationError
    with pytest.raises(SimulationError, match="every ensemble path failed"):
        ensemble(init, params, sch, basis, nspec, 2,
                 FunctionalConfig(observation_stride=1))


def test_trajectory_recorder_matches_run_output(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    init = default_initial_pair(basis, params)
    path = sample_path(nspec, uniform_grid(0.01, 10), 0)
    rec = TrajectoryRecorder()
    res = run(init, params, sch, basis, nspec, path, observer=rec)
    traj = rec.trajectory()
    assert traj.n_steps == 10
    assert np.array_equal(traj.chi_modal[0], init.u.modal)
    assert np.array_equal(traj.chi_modal[-1], res.final.pair.u.modal)


def _stopping_scan_per_step(traj, basis, scheme, levels):
    """The stopping scan written as a loop over steps, as a reference."""
    lam, w = basis.eigenvalues, basis.weights
    sup_xi8 = sup_u2 = -np.inf
    h1_running = 0.0
    tau1 = dict.fromkeys(levels)
    tau2 = dict.fromkeys(levels)
    for i in range(traj.n_steps + 1):
        v = basis.synthesize(traj.eta_modal[i])
        xi = 1.0 / np.maximum(v, scheme.v_floor)
        sup_xi8 = max(sup_xi8, float((w @ xi**8) ** (1.0 / 8.0)))
        u = traj.chi_modal[i]
        sup_u2 = max(sup_u2, float(np.sum(u**2)))
        for m in levels:
            if tau1[m] is None and sup_xi8 >= m:
                tau1[m] = i
            if tau2[m] is None and h1_running + sup_u2 >= m:
                tau2[m] = i
        h1_running += float(np.sum((1.0 + lam) * u**2)) * scheme.dt
    return tau1, tau2


def test_stopping_scan_hits_levels_mid_run(basis, nspec):
    # strong noise lifts |xi|_L8 from 0.5 to ~0.68 and the H1 energy from
    # 4 to ~180 over the run, so these levels are first reached mid-run
    params = desk_params(sigma=1.5)
    sch = SchemeConfig(dt=1e-3, T=0.6)
    path = sample_path(nspec, uniform_grid(0.6, 600), 5)
    rec = TrajectoryRecorder()
    run(default_initial_pair(basis, params), params, sch, basis, nspec, path,
        observer=rec)
    traj = rec.trajectory()
    levels = tuple(np.round(np.concatenate((np.linspace(0.51, 0.68, 18),
                                            np.geomspace(4.5, 180.0, 50))), 6))
    got = _stopping_scan(traj, basis, sch, levels)
    assert got == _stopping_scan_per_step(traj, basis, sch, levels)
    steps = [s for tau in got for s in tau.values() if s is not None]
    assert sum(0 < s < traj.n_steps // 2 for s in steps) >= 10
    assert sum(s >= traj.n_steps // 2 for s in steps) >= 10
