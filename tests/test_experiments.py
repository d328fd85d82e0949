import dataclasses
import tracemalloc

import numpy as np
import pytest

from gmspde import experiments, functionals
from gmspde.dynamics import (
    ModelParams,
    SchemeConfig,
    SimulationError,
    constant_pair,
    default_initial_pair,
    run,
    steady_state,
)
from gmspde.experiments import (
    FixedPointConfig,
    PairTrajectory,
    StoppingSpec,
    TrajectoryRecorder,
    _block,
    _stack_solve,
    _stopping_scan,
    apply_T,
    constant_trajectory,
    ensemble,
    picard_iterate,
    seminorm_m,
    uniqueness_study,
)
from gmspde.fields import FloorViolation
from gmspde.functionals import FunctionalConfig
from gmspde.noise import NoiseSpec, drawn, sliced
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
    return constant_pair(basis, *steady_state(params))


def test_stopping_spec_requires_increasing_levels():
    with pytest.raises(ValueError, match="increasing"):
        StoppingSpec(m_levels=(4.0, 2.0))


def test_apply_T_fixes_noiseless_steady_state(basis, nspec):
    params = desk_params(sigma=0.0)
    sch = SchemeConfig(dt=1e-3, T=0.05)
    pair = steady_pair(basis, params)
    traj = constant_trajectory(pair, sch)
    path = drawn(nspec, sch, [0])
    out, final = apply_T(traj, pair, params, sch, basis, nspec, path)
    u_star, v_star = steady_state(params)
    assert np.abs(out.chi_modal[0, -1, 0] - u_star).max() < 1e-8
    assert np.abs(out.eta_modal[0, -1, 0] - v_star * np.sqrt(basis.volume)
                  + v_star * np.sqrt(basis.volume) - v_star).max() < 1e-8
    assert final.floor_activations.sum() == 0


def test_apply_T_zero_source_decays(basis, nspec):
    params = desk_params(sigma=0.0)
    sch = SchemeConfig(dt=1e-3, T=0.2)
    pair = steady_pair(basis, params)
    zero_chi = constant_pair(basis, 0.0, steady_state(params)[1])
    traj = constant_trajectory(zero_chi, sch)
    path = drawn(nspec, sch, [0])
    out, _ = apply_T(traj, pair, params, sch, basis, nspec, path)
    v_norms = np.sqrt(np.sum(out.eta_modal[0]**2, axis=1))
    assert np.all(np.diff(v_norms) < 0)
    u_norms = np.sqrt(np.sum(out.chi_modal[0]**2, axis=1))
    assert u_norms[-1] < u_norms[0] * np.exp(-params.mu_u * 0.2) * 1.001


def test_apply_T_deterministic(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.05)
    pair = default_initial_pair(basis, params)
    traj = constant_trajectory(pair, sch)
    path = drawn(nspec, sch, [3])
    out1, _ = apply_T(traj, pair, params, sch, basis, nspec, path)
    out2, _ = apply_T(traj, pair, params, sch, basis, nspec, path)
    assert np.array_equal(out1.chi_modal, out2.chi_modal)
    assert np.array_equal(out1.eta_modal, out2.eta_modal)


def test_apply_T_rejects_negative_input(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    pair = steady_pair(basis, params)
    bad = constant_pair(basis, -0.5, steady_state(params)[1])
    traj = constant_trajectory(bad, sch)
    path = drawn(nspec, sch, [0])
    with pytest.raises(ValueError, match="chi negative"):
        apply_T(traj, pair, params, sch, basis, nspec, path)


def test_apply_T_checks_its_noise_path_as_run_does(basis, nspec):
    # a source 10 steps short fails the block-shape check in both
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.05)
    pair = default_initial_pair(basis, params)
    traj = constant_trajectory(pair, sch)
    short = sliced(drawn(nspec, SchemeConfig(dt=1e-3, T=0.04), [0])(0, 40))
    message = (r"noise block for steps 0..49 has shape \(1, 2, 16, 40\), "
               r"run needs \(1, 2, 16, 50\)")
    with pytest.raises(ValueError, match=message):
        run(pair, params, sch, basis, nspec, short)
    with pytest.raises(ValueError, match=message):
        apply_T(traj, pair, params, sch, basis, nspec, short)


@pytest.mark.parametrize("scheme", ["ito_imex", "stratonovich_heun"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("rows", [1, 6])
def test_coupled_solution_is_exact_fixed_point_of_T(scheme, dim, rows):
    # T is the coupled step driven by a given chi: fed the coupled
    # trajectory, it reproduces that trajectory bit for bit
    basis_d = build_basis(DomainSpec(dim=dim, lengths=(1.0,) * dim,
                                     grid_points_per_axis=64 if dim == 1
                                     else 16), K)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=31)
    params = desk_params(sigma=0.3)
    sch = SchemeConfig(dt=1e-3, T=0.05, scheme=scheme)
    init = default_initial_pair(basis_d, params)
    increments = sliced(drawn(spec, sch, range(rows))(0, 50))
    coupled, final = _stack_solve(init, params, sch, basis_d, spec, increments,
                                  rows)
    assert not final.failures
    out, _ = apply_T(coupled, init, params, sch, basis_d, spec, increments)
    np.testing.assert_allclose(out.chi_modal, coupled.chi_modal,
                               rtol=0, atol=0)
    np.testing.assert_allclose(out.eta_modal, coupled.eta_modal,
                               rtol=0, atol=0)


def members(traj, m):
    """``m`` copies of the row of a one-row trajectory stack."""
    return PairTrajectory(traj.times, np.repeat(traj.chi_modal, m, 0),
                          np.repeat(traj.eta_modal, m, 0))


def assert_rounding_close(got, expected):
    scale = float(np.max(np.abs(expected)))
    assert got.shape == expected.shape
    assert float(np.max(np.abs(got - expected))) <= 1e-13 * scale


def sequential_picard(start, init, params, sch, basis, spec, config, fconfig):
    """Distances of the Picard iteration as one apply_T call per iterate."""
    m = config.ensemble_size
    frozen = sliced(drawn(spec, sch, range(m))(0, sch.n_steps()))
    current = members(start, m)
    distances = []
    for _ in range(config.max_iterations):
        new, _ = apply_T(current, init, params, sch, basis, spec, frozen)
        distances.append(seminorm_m(new, current, basis, fconfig.rho))
        current = new
        if distances[-1] < config.tolerance:
            break
    return distances


@pytest.mark.parametrize("scheme", ["ito_imex", "stratonovich_heun"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("rows", [1, 6])
def test_sweep_iterates_equal_chained_apply_T(monkeypatch, scheme, dim, rows):
    # a sweep steps three applications of T and the coupled system as one
    # stack; each block is the chained apply_T result to rounding
    basis_d = build_basis(DomainSpec(dim=dim, lengths=(1.0,) * dim,
                                     grid_points_per_axis=64 if dim == 1
                                     else 16), K)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=31)
    params = desk_params(sigma=0.3)
    sch = SchemeConfig(dt=1e-3, T=0.05, scheme=scheme)
    init = default_initial_pair(basis_d, params)
    increments = sliced(drawn(spec, sch, range(rows))(0, 50))
    current = members(constant_trajectory(init, sch), rows)
    stack, final = _stack_solve(init, params, sch, basis_d, spec, increments,
                                rows, driver=current.chi_modal, chain=3,
                                coupled=True)
    assert not final.failures and stack.chi_modal.shape == (4 * rows, 51, K)
    for j in range(3):
        current, _ = apply_T(current, init, params, sch, basis_d, spec,
                             increments)
        block = _block(stack, j, rows)
        assert_rounding_close(block.chi_modal, current.chi_modal)
        assert_rounding_close(block.eta_modal, current.eta_modal)
    coupled, final = _stack_solve(init, params, sch, basis_d, spec, increments,
                                  rows)
    assert not final.failures
    assert_rounding_close(_block(stack, 3, rows).chi_modal, coupled.chi_modal)
    assert_rounding_close(_block(stack, 3, rows).eta_modal, coupled.eta_modal)

    # the iteration takes as many steps as one apply_T per iterate, in
    # sweeps of the default budget and of one block each
    config = FixedPointConfig(ensemble_size=rows, tolerance=1e-9)
    fcfg = FunctionalConfig()
    start = constant_trajectory(init, sch)
    expected = sequential_picard(start, init, params, sch, basis_d, spec,
                                 config, fcfg)
    block_values = 2 * rows * 51 * K
    for budget in (experiments.SWEEP_STORE_VALUES, block_values):
        monkeypatch.setattr(experiments, "SWEEP_STORE_VALUES", budget)
        report = picard_iterate(init, params, sch, basis_d, spec, config,
                                fcfg)
        assert report.converged
        assert report.iterations == len(expected) >= 3
        np.testing.assert_allclose(report.distances, expected, rtol=0,
                                   atol=1e-12)


def test_sweep_chain_needs_a_driver_and_a_block(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    init = default_initial_pair(basis, params)
    with pytest.raises(ValueError, match="only a driven stack chains"):
        _stack_solve(init, params, sch, basis, nspec, drawn(nspec, sch, [0]),
                     1, chain=2)
    with pytest.raises(ValueError, match="chain must be >= 1, got 0"):
        _stack_solve(init, params, sch, basis, nspec, drawn(nspec, sch, [0]),
                     1, driver=constant_trajectory(init, sch).chi_modal,
                     chain=0)


def test_picard_stops_at_max_iterations(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.05)
    init = default_initial_pair(basis, params)
    report = picard_iterate(init, params, sch, basis, nspec,
                            FixedPointConfig(max_iterations=2,
                                             tolerance=1e-300,
                                             ensemble_size=2))
    assert report.iterations == 2
    assert not report.converged
    assert len(report.distances) == 2 and len(report.memberships) == 2


def test_picard_replays_no_energy_monitor(basis, nspec, monkeypatch):
    # |grad v|^2 enters only the monitor integral int xi^(p+2)|grad v|^2,
    # which no part of the Picard report reads: neither the start's
    # functionals nor the sweeps' live recorder forms it
    def unread(*args):
        raise AssertionError("Picard formed a monitor integrand")

    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.02)
    init = default_initial_pair(basis, params)
    monkeypatch.setattr(functionals, "grad_sq", unread)
    report = picard_iterate(init, params, sch, basis, nspec,
                            FixedPointConfig(max_iterations=3,
                                             ensemble_size=2))
    assert report.iterations >= 1 and len(report.memberships) == report.iterations


def cfl_picard_setup(basis):
    # from u = 0.9 u*, the peaks kappa_u max(chi^2/v) dt of iterates 1-4
    # on two members read 1.8928e-3, 2.1676e-3, 2.1850e-3 and 2.1838e-3,
    # and 2.1833e-3 in the coupled solve: at a limit of 2.1844e-3,
    # iterate 3 alone fails
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.3, reaction_cfl_limit=2.1844e-3)
    init = constant_pair(basis, 0.9 * steady_state(params)[0],
                         steady_state(params)[1])
    return params, sch, init, constant_trajectory(init, sch)


@pytest.mark.parametrize("blocks", [1, 2, None])
def test_picard_raises_the_first_failing_iterate(monkeypatch, basis, nspec,
                                                  blocks):
    # in sweeps of one block, of two, and of the default budget's ten (at
    # this shape), iterate 3 fails with the error its apply_T call raises
    params, sch, init, start = cfl_picard_setup(basis)
    if blocks is not None:
        monkeypatch.setattr(experiments, "SWEEP_STORE_VALUES",
                            blocks * 2 * 2 * 301 * K)
    frozen = sliced(drawn(nspec, sch, range(2))(0, sch.n_steps()))
    current = members(start, 2)
    for _ in range(2):
        current, _ = apply_T(current, init, params, sch, basis, nspec, frozen)
    with pytest.raises(SimulationError) as expected:
        apply_T(current, init, params, sch, basis, nspec, frozen)
    assert "reaction CFL violated at step" in str(expected.value)
    with pytest.raises(SimulationError) as got:
        picard_iterate(init, params, sch, basis, nspec,
                       FixedPointConfig(ensemble_size=2, tolerance=1e-12))
    assert str(got.value) == str(expected.value)


def test_picard_discards_a_failing_block_past_convergence(basis, nspec):
    # converged at iterate 2, the first sweep's failing iterate 3 is
    # discarded and raises nothing
    params, sch, init, _ = cfl_picard_setup(basis)
    loose = dataclasses.replace(sch, reaction_cfl_limit=1.0)
    two = picard_iterate(init, params, loose, basis, nspec,
                         FixedPointConfig(max_iterations=2, ensemble_size=2))
    tolerance = float(np.sqrt(two.distances[0] * two.distances[1]))
    report = picard_iterate(init, params, sch, basis, nspec,
                            FixedPointConfig(ensemble_size=2,
                                             tolerance=tolerance))
    assert report.converged and report.iterations == 2
    np.testing.assert_allclose(report.distances, two.distances, rtol=0,
                               atol=1e-12)


def test_picard_raises_a_failure_of_the_coupled_solve_last(basis, nspec):
    # from v = v*/2, the peaks of iterates 1-6 rise to 4.40979e-3 and the
    # coupled solve's reads 4.41046e-3: six iterates pass, then the
    # coupled solve's error is raised
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.3, reaction_cfl_limit=4.4101e-3)
    u_star, v_star = steady_state(params)
    init = constant_pair(basis, u_star, 0.5 * v_star)
    frozen = sliced(drawn(nspec, sch, range(2))(0, sch.n_steps()))
    _, final = _stack_solve(init, params, sch, basis, nspec, frozen, 2)
    expected = next(iter(final.failures.values()))
    assert isinstance(expected, SimulationError)
    with pytest.raises(SimulationError) as got:
        picard_iterate(init, params, sch, basis, nspec,
                       FixedPointConfig(max_iterations=6, tolerance=1e-12,
                                        ensemble_size=2))
    assert str(got.value) == str(expected)


def test_picard_store_stays_within_its_budget(monkeypatch, basis):
    # the picard_1d benchmark's shape: 16 members, K = 16, N = 64, 100
    # steps.  One block of stored iterates is 2 x 16 x 101 x 16 doubles
    # (0.39 MiB); the default budget's sweep of three blocks and the
    # coupled one peaked at 3.5 MiB, and a first sweep of max_iterations
    # = 30 blocks, neither budget set, would store 12 MiB
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.1)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=0)
    init = default_initial_pair(basis, params)
    config = FixedPointConfig()
    fcfg = FunctionalConfig(observation_stride=25)
    limit = 6 * 2**20

    def peak():
        tracemalloc.start()
        try:
            report = picard_iterate(init, params, sch, basis, spec, config,
                                    fcfg)
            return report, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    report, budgeted = peak()
    assert report.converged and report.iterations == 6
    assert budgeted < limit
    monkeypatch.setattr(experiments, "SWEEP_STORE_VALUES",
                        config.max_iterations * 2 * 16 * 101 * K)
    monkeypatch.setattr(experiments, "SWEEP_MAX_ROWS",
                        config.max_iterations * 16)
    assert peak()[1] > limit


def test_apply_T_reports_reaction_cfl_of_the_shared_step(basis, nspec):
    params = desk_params(sigma=0.0)
    sch = SchemeConfig(dt=1e-3, T=0.01)
    pair = steady_pair(basis, params)
    # kappa_u chi^2/v* dt = 100^2/2 * 1e-3 = 5 >= 1 from the first step
    loud = constant_trajectory(
        constant_pair(basis, 100.0, steady_state(params)[1]), sch)
    path = drawn(nspec, sch, [0])
    with pytest.raises(SimulationError,
                       match=r"reaction CFL violated at step 0: "
                             r"kappa_u\*max\(u\^2/v\)\*dt = 5 >= 1"):
        apply_T(loud, pair, params, sch, basis, nspec, path)


def test_apply_T_raises_the_floor_violation_of_its_row(basis, nspec):
    params = desk_params(sigma=1.0)
    sch = SchemeConfig(dt=1e-3, T=0.01, v_floor=0.0)
    pair = steady_pair(basis, params)
    traj = constant_trajectory(constant_pair(basis, 0.0, 1.0), sch)
    stack = members(traj, 3)
    increments = np.zeros((3, 2, K, 10))
    # row 2's inhibitor sees dW = -5 at every node in step 3: its noise
    # term -5 v outweighs v, and v turns negative everywhere
    increments[2, 1, 0, 3] = -5.0 * np.sqrt(basis.volume)
    with pytest.raises(FloorViolation,
                       match="inhibitor is nonpositive at flat node 0"):
        apply_T(stack, pair, params, sch, basis, nspec, sliced(increments))
    # the same rows without the kick step through
    increments[2, 1, 0, 3] = 0.0
    out, final = apply_T(stack, pair, params, sch, basis, nspec,
                         sliced(increments))
    assert final.alive.all() and out.eta_modal.shape == (3, 11, K)


def test_seminorm_of_identical_families_is_zero(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.02)
    traj = constant_trajectory(default_initial_pair(basis, params), sch)
    assert seminorm_m(traj, traj, basis, 1.1) == 0.0


def test_picard_at_steady_state_terminates_immediately(basis, nspec):
    params = desk_params(sigma=0.0)
    sch = SchemeConfig(dt=1e-3, T=0.05)
    pair = steady_pair(basis, params)
    report = picard_iterate(pair, params, sch, basis, nspec,
                            FixedPointConfig(ensemble_size=2, tolerance=1e-8))
    assert report.converged
    assert report.iterations == 1
    assert report.distances[0] < 1e-8


def test_picard_rejects_nonpositive_start(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    bad = constant_pair(basis, -1.0, steady_state(params)[1])
    with pytest.raises(ValueError, match="positivity"):
        picard_iterate(bad, params, sch, basis, nspec,
                       FixedPointConfig(ensemble_size=2))


def test_picard_rejects_a_start_of_another_step_count(basis, nspec):
    # picard_iterate builds its start from the scheme; apply_T is handed
    # its input trajectory, whose step count run_batch checks as a driver
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    init = default_initial_pair(basis, params)
    start = constant_trajectory(init, SchemeConfig(dt=1e-3, T=0.02))
    with pytest.raises(ValueError) as expected:
        apply_T(start, init, params, sch, basis, nspec,
                drawn(nspec, sch, [0]))
    assert str(expected.value) == (f"driver has shape (1, 21, {K}), "
                                   f"run needs (1, 11, {K})")


@pytest.mark.parametrize("horizon, members, depths", [
    (0.1, 16, [3, 3]),     # the store budget binds: 3 blocks of 51,712
    (0.01, 16, [4]),       # the row budget binds: 64 rows of 16 members
    (0.01, 80, [1] * 4),   # more members than SWEEP_MAX_ROWS: one block
])
def test_sweep_depth_is_the_tighter_budget(monkeypatch, basis, nspec,
                                           horizon, members, depths):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=horizon)
    init = default_initial_pair(basis, params)
    chains = []
    stack_solve = experiments._stack_solve

    def spy(*args, chain=1, **kwargs):
        chains.append(chain)
        return stack_solve(*args, chain=chain, **kwargs)

    monkeypatch.setattr(experiments, "_stack_solve", spy)
    report = picard_iterate(init, params, sch, basis, nspec,
                            FixedPointConfig(ensemble_size=members))
    assert report.converged and chains == depths
    assert sum(depths[:-1]) < report.iterations <= sum(depths)


def test_picard_contracts_on_desk_problem(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.05)
    init = default_initial_pair(basis, params)
    report = picard_iterate(init, params, sch, basis, nspec,
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
    report = picard_iterate(init, params, sch, basis, nspec,
                            FixedPointConfig(ensemble_size=4))
    assert report.converged
    assert report.residual_vs_coupled < 1e-6


def test_uniqueness_zero_delta_bitwise(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.2)
    init = default_initial_pair(basis, params)
    path = drawn(nspec, sch, [0])
    rep = uniqueness_study(init, 0.0, params, sch, basis, nspec,
                           StoppingSpec(), path)
    assert rep.bitwise_identical
    assert rep.du_l2.max() == 0.0
    assert rep.theorem_scope.startswith("within")


def test_uniqueness_small_delta_amplification(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.2)
    init = default_initial_pair(basis, params)
    path = drawn(nspec, sch, [0])
    rep = uniqueness_study(init, 1e-8, params, sch, basis, nspec,
                           StoppingSpec(), path)
    assert not rep.bitwise_identical
    assert rep.du_l2.max() <= rep.amplification * 1e-8 * (1 + 1e-12)
    assert 0.1 < rep.amplification < 100.0


def test_uniqueness_low_stopping_level_hits_at_zero(basis, nspec):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    init = default_initial_pair(basis, params)
    path = drawn(nspec, sch, [0])
    # |xi_0|_L8 = 1/v* = 0.5, so a level below that is hit at step 0
    rep = uniqueness_study(init, 0.0, params, sch, basis, nspec,
                           StoppingSpec(m_levels=(0.1, 1e6)), path)
    assert rep.tau1_steps[(0.1, 1)] == 0
    assert rep.tau1_steps[(1e6, 1)] is None


@pytest.mark.parametrize("mode", [-1, K])
def test_uniqueness_rejects_a_perturbation_mode_outside_the_truncation(
        basis, nspec, mode):
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    init = default_initial_pair(basis, params)
    with pytest.raises(ValueError, match="outside the truncation"):
        uniqueness_study(init, 1e-8, params, sch, basis, nspec,
                         StoppingSpec(), drawn(nspec, sch, [0]),
                         perturb_mode=mode)


def test_uniqueness_2d_labeled_outside_scope(nspec):
    basis2 = build_basis(
        DomainSpec(dim=2, lengths=(1.0, 1.0), grid_points_per_axis=16), K)
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    init = default_initial_pair(basis2, params)
    path = drawn(nspec, sch, [0])
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
    res = run(init, params, sch, basis, nspec, drawn(nspec, sch, [0]))
    for n_paths in (3, 5):
        rep = ensemble(init, params, sch, basis, nspec, n_paths,
                       FunctionalConfig(observation_stride=10))
        assert rep.survivors == n_paths
        for name, se in rep.standard_errors.items():
            scale = float(np.max(np.abs(rep.means[name])))
            assert np.all(se <= 1e-13 * scale), (n_paths, name)
        assert rep.means["chi_l2_sq"][-1] == pytest.approx(
            float(np.sum(res.u_modal[0]**2)), rel=1e-14)


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
    path = drawn(nspec, sch, [0])
    rec = TrajectoryRecorder(sch.n_steps())
    res = run(init, params, sch, basis, nspec, path, observer=rec)
    traj = rec.trajectories()
    assert traj.times.size - 1 == 10
    assert np.array_equal(traj.chi_modal[0, 0], init[0])
    assert np.array_equal(traj.chi_modal[0, -1], res.u_modal[0])


def _stopping_scan_per_step(traj, basis, scheme, levels):
    """The stopping scan of a one-row stack as a loop over steps."""
    lam, w = basis.eigenvalues, basis.weights
    sup_xi8 = sup_u2 = -np.inf
    h1_running = 0.0
    tau1 = dict.fromkeys(levels)
    tau2 = dict.fromkeys(levels)
    for i in range(traj.times.size):
        v = basis.synthesize(traj.eta_modal[0, i])
        xi = 1.0 / np.maximum(v, scheme.v_floor)
        sup_xi8 = max(sup_xi8, float((w @ xi**8) ** (1.0 / 8.0)))
        u = traj.chi_modal[0, i]
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
    path = drawn(nspec, sch, [5])
    rec = TrajectoryRecorder(sch.n_steps())
    run(default_initial_pair(basis, params), params, sch, basis, nspec, path,
        observer=rec)
    traj = rec.trajectories()
    levels = tuple(np.round(np.concatenate((np.linspace(0.51, 0.68, 18),
                                            np.geomspace(4.5, 180.0, 50))), 6))
    got = _stopping_scan(traj, basis, sch, levels)
    assert got == _stopping_scan_per_step(traj, basis, sch, levels)
    steps = [s for tau in got for s in tau.values() if s is not None]
    half = (traj.times.size - 1) // 2
    assert sum(0 < s < half for s in steps) >= 10
    assert sum(s >= half for s in steps) >= 10
