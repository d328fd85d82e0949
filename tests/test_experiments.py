import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gmspde import experiments, functionals
from gmspde.acceptance import _basis_1d, _desk_params
from gmspde.dynamics import (
    FloorViolation,
    SchemeConfig,
    SimulationError,
    constant_pair,
    default_initial_pair,
    driven_by,
    run,
    run_batch,
    steady_state,
)
from gmspde.experiments import (
    FixedPointConfig,
    StoppingSpec,
    ensemble,
    picard_iterate,
    row_sups,
    seminorm_m,
    uniqueness_study,
)
from gmspde.functionals import FunctionalConfig, FunctionalRecorder
from gmspde.noise import NoiseSpec, drawn, sliced
from gmspde.spectral import DomainSpec, SpectralBasis, build_basis
from stores import States

K = 16


@pytest.fixture(scope="module")
def basis():
    return _basis_1d(k=K)


@pytest.fixture(scope="module")
def nspec():
    return NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=2024)


def steady_pair(basis, params):
    return constant_pair(basis, *steady_state(params))


def constant(pair, sch, rows=1):
    """(2, rows, n+1, K) stack of the time-constant (2, K) modal ``pair``."""
    return np.broadcast_to(pair[:, None, None],
                           (2, rows, sch.n_steps() + 1, pair.shape[1]))


def stack_solve(init, params, sch, basis, spec, draw, rows, **kwargs):
    """Stored (2, rows, n+1, K) stack and final state of one run_batch."""
    store = States()
    final = run_batch(init, params, sch, basis, spec, draw, rows,
                      observer=store, **kwargs)
    return store.trajectories(), final


def solve_T(traj, init, params, sch, basis, spec, draw):
    """The map T: run_batch driven by ``traj``'s chi; raises a row failure."""
    out, final = stack_solve(init, params, sch, basis, spec, draw,
                             traj.shape[1],
                             driver=driven_by(basis, sch, traj[0]))
    if final.failures:
        raise next(iter(final.failures.values()))
    return out, final


def sweep_solve(init, params, sch, basis, spec, frozen, previous, depth,
                coupled=None):
    """Stored stack and final state of one Picard sweep of ``depth`` blocks.

    The sweep drives its own stack: ``_Sweep.chi`` drives the blocks of
    the members of ``previous``, the coupled block on top unless
    ``coupled`` is given, and ``_Sweep.draw`` repeats the members' noise
    source ``frozen`` once per block.
    """
    rec = FunctionalRecorder(basis, FunctionalConfig(), monitors=False)
    sweep = experiments._Sweep(rec, sch, frozen, previous, coupled, depth)
    return stack_solve(init, params, sch, basis, spec, sweep.draw,
                       sweep.rows, driver=sweep.chi)


def depth_spy(monkeypatch, members):
    """Each Picard sweep's depth, read from its stack height.

    The first sweep steps the coupled block on top of its driven blocks.
    """
    depths = []

    def spy(*args, **kwargs):
        depths.append(args[6] // members - (not depths))
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_batch", spy)
    return depths


def distance(a, b, basis, rho):
    """The semi-norm of two (2, B, n+1, K) stacks' difference, at once."""
    return seminorm_m(row_sups(a - b, (1.0 + basis.eigenvalues) ** (1.0 - rho)))


def test_seminorm_of_row_sups_is_its_formula_by_loops():
    # (E sup_t sum_k |dchi_k|^2 (1 + lambda_k)^(1-rho))^(1/2)
    #   + E sup_t (sum_k |deta_k|^2)^(1/2), one row, step and mode at a time
    rng = np.random.default_rng(7)
    rows, steps, modes, rho = 3, 5, 4, 1.1
    diff = rng.standard_normal((2, rows, steps, modes))
    diff[1] *= 3.0
    lam = np.sort(rng.uniform(0.0, 40.0, modes))
    chi_sups, eta_sups = [], []
    for b in range(rows):
        chi_sups.append(max(
            sum(diff[0, b, t, k] ** 2 * (1.0 + lam[k]) ** (1.0 - rho)
                for k in range(modes)) for t in range(steps)))
        eta_sups.append(max(
            math.sqrt(sum(diff[1, b, t, k] ** 2 for k in range(modes)))
            for t in range(steps)))
    want = math.sqrt(sum(chi_sups) / rows) + sum(eta_sups) / rows
    got = seminorm_m(row_sups(diff.copy(), (1.0 + lam) ** (1.0 - rho)))
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_stopping_spec_requires_increasing_levels():
    with pytest.raises(ValueError, match="increasing"):
        StoppingSpec(m_levels=(4.0, 2.0))


def test_solve_T_fixes_noiseless_steady_state(basis, nspec):
    params = _desk_params(sigma=0.0)
    sch = SchemeConfig(dt=1e-3, T=0.05)
    pair = steady_pair(basis, params)
    traj = constant(pair, sch)
    path = drawn(nspec, sch, [0])
    out, final = solve_T(traj, pair, params, sch, basis, nspec, path)
    u_star, v_star = steady_state(params)
    assert np.abs(out[0, 0, -1, 0] - u_star).max() < 1e-8
    assert np.abs(out[1, 0, -1, 0] - v_star * np.sqrt(basis.volume)
                  + v_star * np.sqrt(basis.volume) - v_star).max() < 1e-8
    assert final.floor_activations.sum() == 0


def test_solve_T_zero_source_decays(basis, nspec):
    params = _desk_params(sigma=0.0)
    sch = SchemeConfig(dt=1e-3, T=0.2)
    pair = steady_pair(basis, params)
    zero_chi = constant_pair(basis, 0.0, steady_state(params)[1])
    traj = constant(zero_chi, sch)
    path = drawn(nspec, sch, [0])
    out, _ = solve_T(traj, pair, params, sch, basis, nspec, path)
    v_norms = np.sqrt(np.sum(out[1, 0]**2, axis=1))
    assert np.all(np.diff(v_norms) < 0)
    u_norms = np.sqrt(np.sum(out[0, 0]**2, axis=1))
    assert u_norms[-1] < u_norms[0] * np.exp(-params.mu_u * 0.2) * 1.001


def test_solve_T_deterministic(basis, nspec):
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.05)
    pair = default_initial_pair(basis, params)
    traj = constant(pair, sch)
    path = drawn(nspec, sch, [3])
    out1, _ = solve_T(traj, pair, params, sch, basis, nspec, path)
    out2, _ = solve_T(traj, pair, params, sch, basis, nspec, path)
    assert np.array_equal(out1, out2)


def test_solve_T_checks_its_noise_path_as_run_does(basis, nspec):
    # a source 10 steps short fails the block-shape check in both
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.05)
    pair = default_initial_pair(basis, params)
    traj = constant(pair, sch)
    short = sliced(drawn(nspec, SchemeConfig(dt=1e-3, T=0.04), [0])(0, 40))
    message = (r"noise block for steps 0..49 has shape \(1, 2, 16, 40\), "
               r"run needs \(1, 2, 16, 50\)")
    with pytest.raises(ValueError, match=message):
        run(pair, params, sch, basis, nspec, short)
    with pytest.raises(ValueError, match=message):
        solve_T(traj, pair, params, sch, basis, nspec, short)


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
    params = _desk_params(sigma=0.3)
    sch = SchemeConfig(dt=1e-3, T=0.05, scheme=scheme)
    init = default_initial_pair(basis_d, params)
    increments = sliced(drawn(spec, sch, range(rows))(0, 50))
    coupled, final = stack_solve(init, params, sch, basis_d, spec, increments,
                                 rows)
    assert not final.failures
    out, _ = solve_T(coupled, init, params, sch, basis_d, spec, increments)
    np.testing.assert_allclose(out, coupled, rtol=0, atol=0)


def assert_rounding_close(got, expected):
    scale = float(np.max(np.abs(expected)))
    assert got.shape == expected.shape
    assert float(np.max(np.abs(got - expected))) <= 1e-13 * scale


def sequential_picard(init, params, sch, basis, spec, config, fconfig):
    """Distances and residual of the Picard iteration, one solve_T an iterate."""
    m = config.ensemble_size
    frozen = sliced(drawn(spec, sch, range(m))(0, sch.n_steps()))
    current = constant(init, sch, m)
    distances = []
    for _ in range(config.max_iterations):
        new, _ = solve_T(current, init, params, sch, basis, spec, frozen)
        distances.append(distance(new, current, basis, fconfig.rho))
        current = new
        if distances[-1] < config.tolerance:
            break
    coupled, _ = stack_solve(init, params, sch, basis, spec, frozen, m)
    return distances, distance(current, coupled, basis, fconfig.rho)


@pytest.mark.parametrize("scheme", ["ito_imex", "stratonovich_heun"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("rows", [1, 6])
def test_sweep_iterates_equal_chained_solve_T(monkeypatch, scheme, dim, rows):
    # a sweep steps three applications of T and the coupled system as one
    # stack; each block is the chained solve_T result to rounding
    basis_d = build_basis(DomainSpec(dim=dim, lengths=(1.0,) * dim,
                                     grid_points_per_axis=64 if dim == 1
                                     else 16), K)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=31)
    params = _desk_params(sigma=0.3)
    sch = SchemeConfig(dt=1e-3, T=0.05, scheme=scheme)
    init = default_initial_pair(basis_d, params)
    increments = sliced(drawn(spec, sch, range(rows))(0, 50))
    current = constant(init, sch, rows)
    stack, final = sweep_solve(init, params, sch, basis_d, spec, increments,
                               current, 3)
    assert not final.failures and stack.shape == (2, 4 * rows, 51, K)
    for j in range(3):
        current, _ = solve_T(current, init, params, sch, basis_d, spec,
                             increments)
        block = stack[:, j * rows:(j + 1) * rows]
        assert_rounding_close(block[0], current[0])
        assert_rounding_close(block[1], current[1])
    coupled, final = stack_solve(init, params, sch, basis_d, spec, increments,
                                 rows)
    assert not final.failures
    assert_rounding_close(stack[0, 3 * rows:], coupled[0])
    assert_rounding_close(stack[1, 3 * rows:], coupled[1])

    # the iteration takes as many steps as one solve_T per iterate, and
    # ends as far from the coupled solve, in sweeps of the default row
    # budget and of one block each
    config = FixedPointConfig(ensemble_size=rows, tolerance=1e-9)
    fcfg = FunctionalConfig()
    expected, residual = sequential_picard(init, params, sch, basis_d, spec,
                                           config, fcfg)
    for budget in (experiments.SWEEP_MAX_ROWS, rows):
        monkeypatch.setattr(experiments, "SWEEP_MAX_ROWS", budget)
        report = picard_iterate(init, params, sch, basis_d, spec, config,
                                fcfg)
        assert report.converged
        assert report.iterations == len(expected) >= 3
        np.testing.assert_allclose(report.distances, expected, rtol=0,
                                   atol=1e-12)
        # 1.5e-12 to 1.7e-12: an iterate more or less moves it 100-fold
        np.testing.assert_allclose(report.residual_vs_coupled, residual,
                                   rtol=0, atol=1e-15)


@pytest.mark.parametrize("stride", [1, 7, 100])
def test_sweep_distances_are_bitwise_those_of_its_stored_stack(
        monkeypatch, basis, nspec, stride):
    # the sweeps' distances and residual, measured window by window as
    # they step (windows of 1, of 7 with a short last one, and of 12),
    # are bitwise those of the same stacks stored whole: two sweeps of
    # 3 + 2 blocks of 2 members, the second driven by the stored last
    # block of the first, against its stored coupled block
    params = _desk_params(sigma=0.3)
    sch = SchemeConfig(dt=1e-3, T=0.05)
    init = default_initial_pair(basis, params)
    fcfg = FunctionalConfig(observation_stride=stride)
    config = FixedPointConfig(max_iterations=5, tolerance=1e-12,
                              ensemble_size=2)
    monkeypatch.setattr(experiments, "SWEEP_MAX_ROWS", 6)
    report = picard_iterate(init, params, sch, basis, nspec, config, fcfg)

    frozen = sliced(drawn(nspec, sch, range(2))(0, 50))
    previous = constant(init, sch, 2)
    stack, _ = sweep_solve(init, params, sch, basis, nspec, frozen, previous,
                           3)
    coupled = stack[:, 6:]
    blocks = [previous] + [stack[:, 2 * j:2 * j + 2] for j in range(3)]
    stack, _ = sweep_solve(init, params, sch, basis, nspec, frozen,
                           blocks[-1], 2, coupled)
    blocks += [stack[:, :2], stack[:, 2:]]
    expected = [distance(b, a, basis, fcfg.rho)
                for a, b in zip(blocks, blocks[1:])]
    assert report.iterations == 5 and report.distances == expected
    assert report.residual_vs_coupled == distance(blocks[-1], coupled,
                                                  basis, fcfg.rho)


def test_picard_stops_at_max_iterations(basis, nspec):
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.05)
    init = default_initial_pair(basis, params)
    report = picard_iterate(init, params, sch, basis, nspec,
                            FixedPointConfig(max_iterations=2,
                                             tolerance=1e-300,
                                             ensemble_size=2))
    assert report.iterations == 2
    assert not report.converged
    assert len(report.distances) == 2 and len(report.memberships) == 2


def test_picard_forms_no_energy_monitor(basis, nspec, monkeypatch):
    # |grad v|^2 enters only the monitor integral int xi^(p+2)|grad v|^2,
    # which no part of the Picard report reads: neither the start's
    # functionals nor the sweeps' live recorder forms it
    def unread(*args):
        raise AssertionError("Picard formed a monitor integrand")

    params = _desk_params()
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
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.3, reaction_cfl_limit=2.1844e-3)
    init = constant_pair(basis, 0.9 * steady_state(params)[0],
                         steady_state(params)[1])
    return params, sch, init


@pytest.mark.parametrize("blocks", [1, 2, None])
def test_picard_raises_the_first_failing_iterate(monkeypatch, basis, nspec,
                                                  blocks):
    # in first sweeps of one block, of two, and of the default row
    # budget's 32, iterate 3 fails with the error its solve_T call raises
    params, sch, init = cfl_picard_setup(basis)
    if blocks is not None:
        monkeypatch.setattr(experiments, "SWEEP_MAX_ROWS", blocks * 2)
    frozen = sliced(drawn(nspec, sch, range(2))(0, sch.n_steps()))
    current = constant(init, sch, 2)
    for _ in range(2):
        current, _ = solve_T(current, init, params, sch, basis, nspec, frozen)
    with pytest.raises(SimulationError) as expected:
        solve_T(current, init, params, sch, basis, nspec, frozen)
    assert "reaction CFL violated at step" in str(expected.value)
    with pytest.raises(SimulationError) as got:
        picard_iterate(init, params, sch, basis, nspec,
                       FixedPointConfig(ensemble_size=2, tolerance=1e-12))
    assert str(got.value) == str(expected.value)


def test_picard_discards_a_failing_block_past_convergence(basis, nspec):
    # converged at iterate 2, the first sweep's failing iterate 3 is
    # discarded and raises nothing
    params, sch, init = cfl_picard_setup(basis)
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
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.3, reaction_cfl_limit=4.4101e-3)
    u_star, v_star = steady_state(params)
    init = constant_pair(basis, u_star, 0.5 * v_star)
    frozen = sliced(drawn(nspec, sch, range(2))(0, sch.n_steps()))
    _, final = stack_solve(init, params, sch, basis, nspec, frozen, 2)
    expected = next(iter(final.failures.values()))
    assert isinstance(expected, SimulationError)
    with pytest.raises(SimulationError) as got:
        picard_iterate(init, params, sch, basis, nspec,
                       FixedPointConfig(max_iterations=6, tolerance=1e-12,
                                        ensemble_size=2))
    assert str(got.value) == str(expected)


def test_a_picard_sweep_keeps_two_blocks(monkeypatch, basis):
    # the picard_1d benchmark's shape: 16 members, K = 16, N = 64, 100
    # steps.  One stored block is 2 x 16 x 101 x 16 doubles (0.39 MiB).
    # A first sweep of max_iterations = 30 blocks keeps two of them (its
    # last and the coupled one), a window of no more states than a block
    # and the stepper's 496-row stack: it peaked at 5.85 MiB, where
    # storing the sweep's 31 blocks took 12 MiB more
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.1)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=0)
    init = default_initial_pair(basis, params)
    config = FixedPointConfig()
    fcfg = FunctionalConfig(observation_stride=25)
    depths = depth_spy(monkeypatch, config.ensemble_size)
    monkeypatch.setattr(experiments, "SWEEP_MAX_ROWS",
                        config.max_iterations * 16)
    tracemalloc.start()
    try:
        report = picard_iterate(init, params, sch, basis, spec, config, fcfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert depths == [config.max_iterations]
    assert report.converged and report.iterations == 6
    assert peak < 6 * 2**20


def test_solve_T_reports_reaction_cfl_of_the_shared_step(basis, nspec):
    params = _desk_params(sigma=0.0)
    sch = SchemeConfig(dt=1e-3, T=0.01)
    pair = steady_pair(basis, params)
    # kappa_u chi^2/v* dt = 100^2/2 * 1e-3 = 5 >= 1 from the first step
    loud = constant(
        constant_pair(basis, 100.0, steady_state(params)[1]), sch)
    path = drawn(nspec, sch, [0])
    with pytest.raises(SimulationError,
                       match=r"reaction CFL violated at step 0: "
                             r"kappa_u\*max\(u\^2/v\)\*dt = 5 >= 1"):
        solve_T(loud, pair, params, sch, basis, nspec, path)


def test_solve_T_raises_the_floor_violation_of_its_row(basis, nspec):
    params = _desk_params(sigma=1.0)
    sch = SchemeConfig(dt=1e-3, T=0.01, v_floor=0.0)
    pair = steady_pair(basis, params)
    stack = constant(constant_pair(basis, 0.0, 1.0), sch, 3)
    increments = np.zeros((3, 2, K, 10))
    # row 2's inhibitor sees dW = -5 at every node in step 3: its noise
    # term -5 v outweighs v, and v turns negative everywhere
    increments[2, 1, 0, 3] = -5.0 * np.sqrt(basis.volume)
    with pytest.raises(FloorViolation,
                       match="inhibitor is nonpositive at flat node 0"):
        solve_T(stack, pair, params, sch, basis, nspec, sliced(increments))
    # the same rows without the kick step through
    increments[2, 1, 0, 3] = 0.0
    out, final = solve_T(stack, pair, params, sch, basis, nspec,
                         sliced(increments))
    assert final.alive.all() and out.shape == (2, 3, 11, K)


def test_seminorm_of_identical_families_is_zero(basis, nspec):
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.02)
    traj = constant(default_initial_pair(basis, params), sch)
    assert distance(traj, traj, basis, 1.1) == 0.0


def test_picard_at_steady_state_terminates_immediately(basis, nspec):
    params = _desk_params(sigma=0.0)
    sch = SchemeConfig(dt=1e-3, T=0.05)
    pair = steady_pair(basis, params)
    report = picard_iterate(pair, params, sch, basis, nspec,
                            FixedPointConfig(ensemble_size=2, tolerance=1e-8))
    assert report.converged
    assert report.iterations == 1
    assert report.distances[0] < 1e-8


def test_picard_rejects_nonpositive_start(basis, nspec):
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    bad = constant_pair(basis, -1.0, steady_state(params)[1])
    with pytest.raises(ValueError, match="positivity"):
        picard_iterate(bad, params, sch, basis, nspec,
                       FixedPointConfig(ensemble_size=2))


def test_picard_zero_floor_rejects_a_nonpositive_start_before_a_sweep(
        monkeypatch, basis, nspec):
    # v = 1 + 1.0005 cos(pi x) is nonpositive at the last node alone: its
    # start state raises the error of a run from it, and no sweep runs
    init = np.zeros((2, K))
    init[:, 0] = 1.0
    init[1, 1] = 1.0005 / np.sqrt(2.0)
    sch = SchemeConfig(dt=1e-3, T=0.01, v_floor=0.0)
    assert np.flatnonzero(basis.synthesize(init[1]) <= 0.0).tolist() == [64]
    with pytest.raises(FloorViolation) as want:
        run(init, _desk_params(sigma=0.0), sch, basis, nspec, None)

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(experiments, "run_batch", no_sweep)
    with pytest.raises(FloorViolation) as got:
        picard_iterate(init, _desk_params(), sch, basis, nspec,
                       FixedPointConfig(ensemble_size=2))
    assert got.value.node_index == want.value.node_index == 64
    assert str(got.value) == str(want.value) == (
        "inhibitor is nonpositive at flat node 64 (value -0.0005) and no "
        "floor is set")


def test_picard_rejects_a_start_of_another_step_count(basis, nspec):
    # picard_iterate builds its start from the scheme; solve_T is handed
    # its input trajectory, whose step count run_batch checks as a driver
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    init = default_initial_pair(basis, params)
    start = constant(init, SchemeConfig(dt=1e-3, T=0.02))
    with pytest.raises(ValueError) as expected:
        solve_T(start, init, params, sch, basis, nspec,
                drawn(nspec, sch, [0]))
    assert str(expected.value) == (f"driver has shape (1, 21, {K}), "
                                   f"run needs (1, 11, {K})")


def test_run_rejects_a_driver_of_another_height(basis, nspec):
    # a chi of two rows driving a one-row stack, or of one row driving a
    # two-row stack (which numpy would broadcast), is the run's error
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    init = default_initial_pair(basis, params)
    for chi_rows, rows in ((2, 1), (1, 2)):
        driver = driven_by(basis, sch, constant(init, sch, chi_rows)[0])
        with pytest.raises(ValueError) as got:
            run_batch(init, params, sch, basis, nspec,
                      drawn(nspec, sch, range(rows)), rows, driver=driver)
        nodes = basis.n_nodes
        assert str(got.value) == (
            f"driver gives chi of shape ({chi_rows}, {nodes}) at step 0, "
            f"run needs ({rows}, {nodes})")


@pytest.mark.parametrize("horizon, members, depths", [
    (0.1, 16, [4, 2]),     # the second sweep takes the predicted depth
    (0.01, 16, [4]),       # the row budget binds: 64 rows of 16 members
    (0.01, 80, [1] * 4),   # more members than SWEEP_MAX_ROWS: one block
])
def test_sweep_depth_is_the_tighter_budget(monkeypatch, basis, nspec,
                                           horizon, members, depths):
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=horizon)
    init = default_initial_pair(basis, params)
    chains = depth_spy(monkeypatch, members)
    config = FixedPointConfig(ensemble_size=members)
    report = picard_iterate(init, params, sch, basis, nspec, config)
    assert report.converged and chains == depths
    assert sum(depths[:-1]) < report.iterations <= sum(depths)
    if len(depths) == 2:
        # iterates 3 and 4 of the first sweep contracted by d_3/d_2: two
        # more reach the tolerance, below the row budget's 4
        d2, d3 = report.distances[2:4]
        assert depths[1] == math.ceil(math.log(config.tolerance / d3)
                                      / math.log(d3 / d2)) < 4


def test_picard_contracts_on_desk_problem(basis, nspec):
    params = _desk_params()
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
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.05, scheme="stratonovich_heun")
    init = default_initial_pair(basis, params)
    report = picard_iterate(init, params, sch, basis, nspec,
                            FixedPointConfig(ensemble_size=4))
    assert report.converged
    assert report.residual_vs_coupled < 1e-6


def test_uniqueness_zero_delta_bitwise(basis, nspec):
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.2)
    init = default_initial_pair(basis, params)
    path = drawn(nspec, sch, [0])
    rep = uniqueness_study(init, 0.0, params, sch, basis, nspec,
                           StoppingSpec(), path)
    assert rep.bitwise_identical
    assert rep.du_l2.max() == 0.0
    assert rep.theorem_scope.startswith("within")


def test_uniqueness_small_delta_amplification(basis, nspec):
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.2)
    init = default_initial_pair(basis, params)
    path = drawn(nspec, sch, [0])
    rep = uniqueness_study(init, 1e-8, params, sch, basis, nspec,
                           StoppingSpec(), path)
    assert not rep.bitwise_identical
    assert rep.du_l2.max() <= rep.amplification * 1e-8 * (1 + 1e-12)
    assert 0.1 < rep.amplification < 100.0


def test_uniqueness_low_stopping_level_hits_at_zero(basis, nspec):
    params = _desk_params()
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
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    init = default_initial_pair(basis, params)
    with pytest.raises(ValueError, match="outside the truncation"):
        uniqueness_study(init, 1e-8, params, sch, basis, nspec,
                         StoppingSpec(), drawn(nspec, sch, [0]),
                         perturb_mode=mode)


def test_uniqueness_2d_labeled_outside_scope(nspec):
    basis2 = build_basis(
        DomainSpec(dim=2, lengths=(1.0, 1.0), grid_points_per_axis=16), K)
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.01)
    init = default_initial_pair(basis2, params)
    path = drawn(nspec, sch, [0])
    rep = uniqueness_study(init, 0.0, params, sch, basis2, nspec,
                           StoppingSpec(), path)
    assert rep.theorem_scope.startswith("outside")
    assert rep.bitwise_identical


def test_ensemble_noiseless_matches_deterministic_run(basis, nspec):
    # paths at sigma = 0 are equal up to rounding: a stacked product may
    # sum identical rows in another order, so the standard errors are
    # pinned to the rounding contract, not to exactly 0
    params = _desk_params(sigma=0.0)
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
    params = dataclasses.replace(_desk_params(), kappa_u=2000.0)
    sch = SchemeConfig(dt=1e-2, T=0.1)
    init = default_initial_pair(basis, params)
    from gmspde.dynamics import SimulationError
    with pytest.raises(SimulationError, match="every ensemble path failed"):
        ensemble(init, params, sch, basis, nspec, 2,
                 FunctionalConfig(observation_stride=1))


def study_run(init, params, sch, basis, spec, draw):
    """The uniqueness study's observer of one run of ``init``."""
    walk = experiments._StudyRun(basis, sch)
    run(init, params, sch, basis, spec, draw, observer=walk)
    return walk


def test_trajectory_recorder_matches_run_output(basis, nspec):
    # the study's observer keeps each state's modes, (2, n+1, K), and the
    # |xi|_L8 of its own nodal v, xi = 1/max(v, floor); copies of every
    # state are the oracle, also where the floor cuts v (v* = 2)
    params = _desk_params()
    init = default_initial_pair(basis, params)
    for v_floor in (1e-8, 2.001):
        sch = SchemeConfig(dt=1e-3, T=0.01, v_floor=v_floor)
        path = drawn(nspec, sch, [0])
        states = States()
        res = run(init, params, sch, basis, nspec, path, observer=states)
        walk = study_run(init, params, sch, basis, nspec, path)
        assert walk.modes.shape == (2, 11, K)
        assert np.array_equal(walk.modes, states.trajectories()[:, 0])
        assert np.array_equal(walk.modes[:, 0], init)
        assert np.array_equal(walk.modes[:, -1], res.modal[:, 0])
        xi = [1.0 / np.maximum(v[0], v_floor) for v in states.v]
        assert np.array_equal(
            walk.xi8, [(basis.weights @ x**8) ** (1.0 / 8.0) for x in xi])
        assert any(np.any(v[0] < v_floor) for v in states.v) == (v_floor > 2)


def test_uniqueness_times_are_the_recorded_step_times(basis, nspec):
    # the report's time column is n dt, bitwise the t a walk records; on
    # this grid every time but 0 differs from linspace(0, T, n + 1)
    params = _desk_params()
    sch = SchemeConfig(dt=3e-3, T=0.036)
    init = default_initial_pair(basis, params)
    rec = FunctionalRecorder(basis, FunctionalConfig(observation_stride=1))
    run(init, params, sch, basis, nspec, drawn(nspec, sch, [0]), observer=rec)
    report = uniqueness_study(init, 0.0, params, sch, basis, nspec,
                              StoppingSpec(), drawn(nspec, sch, [0]))
    assert np.array_equal(report.times, rec.traces().times)
    assert not np.array_equal(report.times, np.linspace(0.0, sch.T, 13))


def _stopping_scan_per_step(modes, basis, scheme, levels):
    """The stopping times of a run's (2, n+1, K) modes as a loop over steps."""
    lam, w = basis.eigenvalues, basis.weights
    sup_xi8 = sup_u2 = -np.inf
    h1_running = 0.0
    tau1 = dict.fromkeys(levels)
    tau2 = dict.fromkeys(levels)
    for i in range(modes.shape[1]):
        v = basis.synthesize(modes[1, i])
        xi = 1.0 / np.maximum(v, scheme.v_floor)
        sup_xi8 = max(sup_xi8, float((w @ xi**8) ** (1.0 / 8.0)))
        u = modes[0, i]
        sup_u2 = max(sup_u2, float(np.sum(u**2)))
        for m in levels:
            if tau1[m] is None and sup_xi8 >= m:
                tau1[m] = i
            if tau2[m] is None and h1_running + sup_u2 >= m:
                tau2[m] = i
        h1_running += float(np.sum((1.0 + lam) * u**2)) * scheme.dt
    return tau1, tau2


# 18 levels of |xi|_L8 from 0.51 to 0.68 and 50 energies from 4.5 to 180
LEVELS = tuple(np.round(np.concatenate((np.linspace(0.51, 0.68, 18),
                                        np.geomspace(4.5, 180.0, 50))), 6))


def test_stopping_scan_hits_levels_mid_run(basis, nspec):
    # strong noise lifts |xi|_L8 from 0.5 to ~0.68 and the H1 energy from
    # 4 to ~180 over the run, so these levels are first reached mid-run
    params = _desk_params(sigma=1.5)
    sch = SchemeConfig(dt=1e-3, T=0.6)
    walk = study_run(default_initial_pair(basis, params), params, sch, basis,
                     nspec, drawn(nspec, sch, [5]))
    got = walk.first_hits(LEVELS)
    assert got == _stopping_scan_per_step(walk.modes, basis, sch, LEVELS)
    steps = [s for tau in got for s in tau.values() if s is not None]
    half = sch.n_steps() // 2
    assert sum(0 < s < half for s in steps) >= 10
    assert sum(s >= half for s in steps) >= 10


def test_stopping_2d_hits_live_within_two_stores_and_the_table():
    # 2-D, N = 64 (4,225 nodes), K = 64, 400 steps, where one
    # (n+1, n_nodes) nodal array of the run would take 12.9 MiB
    basis2 = build_basis(
        DomainSpec(dim=2, lengths=(1.0, 1.0), grid_points_per_axis=64), 64)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=64, master_seed=808)
    params = _desk_params(sigma=1.5)
    sch = SchemeConfig(dt=1e-3, T=0.4)
    init = default_initial_pair(basis2, params)
    walk = study_run(init, params, sch, basis2, spec, drawn(spec, sch, [5]))
    # the running sup of |xi|_L8 climbs from 0.5 to 0.69 by step ~120 and
    # the energy from 4 to 155 over the run: first hits at many steps
    levels = tuple(np.round(np.concatenate((np.linspace(0.51, 0.68, 18),
                                            np.geomspace(4.5, 150.0, 30))), 6))
    got = walk.first_hits(levels)
    assert got == _stopping_scan_per_step(walk.modes, basis2, sch, levels)
    assert len({s for tau in got for s in tau.values() if s is not None}) >= 10
    # each run's modes and |xi|_L8, and the (2, K, n) noise table: 1.18 MiB
    n = sch.n_steps()
    stores = 2 * 8 * (2 * (n + 1) * 64 + (n + 1))
    table = 8 * 2 * 64 * n
    tracemalloc.start()
    try:
        uniqueness_study(init, 0.0, params, sch, basis2, spec,
                         StoppingSpec(levels), drawn(spec, sch, [5]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stores + table + 2**20


def test_uniqueness_study_synthesizes_only_in_its_two_runs(basis, nspec,
                                                           monkeypatch):
    # no second walk: the study's states are read as its runs step them
    calls = []
    synthesize = SpectralBasis.synthesize

    def spy(self, *args, **kwargs):
        calls.append(None)
        return synthesize(self, *args, **kwargs)

    monkeypatch.setattr(SpectralBasis, "synthesize", spy)
    params = _desk_params(sigma=1.5)
    sch = SchemeConfig(dt=1e-3, T=0.05)
    init = default_initial_pair(basis, params)
    run(init, params, sch, basis, nspec, drawn(nspec, sch, [5]))
    one_run = len(calls)
    uniqueness_study(init, 1e-3, params, sch, basis, nspec,
                     StoppingSpec(LEVELS), drawn(nspec, sch, [5]))
    assert one_run > sch.n_steps()
    assert len(calls) == 3 * one_run


def test_uniqueness_reports_the_stopping_times_of_both_runs(basis, nspec):
    # a kick of 0.3 to u's mode 1 moves some first hits of run 2, and a
    # level of 1e6 is never hit
    params = _desk_params(sigma=1.5)
    sch = SchemeConfig(dt=1e-3, T=0.3)
    init = default_initial_pair(basis, params)
    delta = 0.3
    levels = LEVELS[::4] + (1e6,)
    rep = uniqueness_study(init, delta, params, sch, basis, nspec,
                           StoppingSpec(levels), drawn(nspec, sch, [5]))
    keys = {(m, run_id) for m in levels for run_id in (1, 2)}
    assert set(rep.tau1_steps) == set(rep.tau2_steps) == keys
    init2 = init.copy()
    init2[0, 1] += delta
    oracle = {}
    for run_id, start in ((1, init), (2, init2)):
        states = States()
        run(start, params, sch, basis, nspec, drawn(nspec, sch, [5]),
            observer=states)
        tau1, tau2 = _stopping_scan_per_step(states.trajectories()[:, 0],
                                             basis, sch, levels)
        assert {m: rep.tau1_steps[(m, run_id)] for m in levels} == tau1
        assert {m: rep.tau2_steps[(m, run_id)] for m in levels} == tau2
        oracle[run_id] = tau1, tau2
    assert oracle[1] != oracle[2]
    want = [f"  {label} m={m:g} run{run_id}: "
            + ("not hit" if oracle[run_id][family][m] is None
               else f"step {oracle[run_id][family][m]}")
            for family, label in enumerate(("tau1(|xi|_L8)",
                                            "tau2(H1 energy)"))
            for m in levels for run_id in (1, 2)]
    assert [line for line in rep.summary_lines()
            if line.startswith("  tau")] == want
    assert any(line.endswith("not hit") for line in want)
    assert any(" step " in line for line in want)
