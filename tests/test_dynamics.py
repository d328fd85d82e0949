import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gmspde import dynamics
from gmspde.acceptance import _basis_1d, _desk_params, _gbm_batch, level_gaps
from gmspde.config import loads
from gmspde.dynamics import (
    ModelParams,
    SchemeConfig,
    SimulationError,
    Stepper,
    constant_pair,
    default_initial_pair,
    initial_state,
    run,
    run_batch,
    steady_state,
)
from gmspde.functionals import FunctionalConfig, FunctionalRecorder
from gmspde.noise import NoiseSpec, drawn, sliced
from gmspde.spectral import DomainSpec, SpectralBasis, build_basis


def exactness_bases():
    """The 1-D unit interval and a 2-D 1 x 1.5 rectangle (N = 24, K = 36)."""
    return (_basis_1d(),
            build_basis(DomainSpec(dim=2, lengths=(1.0, 1.5),
                                   grid_points_per_axis=24), 36))


def test_params_reject_negative():
    with pytest.raises(ValueError, match="positivity"):
        replace(_desk_params(), kappa_u=-1.0, mu_v=1.0)


def test_params_strict_validation():
    # zeros are reserved for analytic-limit runs: accepted with a warning
    cfg = loads("[model]\nsigma_u = 0\nsigma_v = 0\n")
    assert cfg.params.sigma_u == 0.0 and loads("").warnings == []
    assert cfg.warnings == ["[model] sigma_u, sigma_v = 0: the model wants "
                            "strictly positive constants; zero is accepted "
                            "for analytic-limit runs"]


def test_scheme_validation():
    with pytest.raises(ValueError, match="dt"):
        SchemeConfig(dt=0.0, T=1.0)
    with pytest.raises(ValueError, match="unknown scheme"):
        SchemeConfig(dt=0.1, T=1.0, scheme="milstein")
    with pytest.raises(ValueError, match="integral number"):
        SchemeConfig(dt=0.3, T=1.0).n_steps()
    # 1.4 steps: within 1e-9 absolute, not within 1e-9 of the horizon
    with pytest.raises(ValueError, match="horizon 1.4e-09 is not an integral "
                                         "number of steps of 1e-09"):
        SchemeConfig(dt=1e-9, T=1.4e-9)
    assert SchemeConfig(dt=0.1, T=1.0).n_steps() == 10


def _drift(basis, mu, sigma, scheme="ito_imex"):
    """The stepper's corrected decay mu - lin on u and on v, per mode."""
    params = replace(_desk_params(sigma), mu_u=mu, mu_v=mu)
    sch = SchemeConfig(dt=0.1, T=1.0, scheme=scheme)
    stepper = Stepper(basis, params, sch, NoiseSpec(2.0, 2.0, basis.mode_count),
                      1)
    return mu - stepper._lin[:, 0]


def test_upsilon_examples():
    # the Ito stepper's drift is mu*Id - sigma*(Id+A)^(-gamma) per mode
    basis = _basis_1d(k=8, convention="paper_1d")
    # sigma = 0 reduces to plain scalar decay
    assert np.allclose(_drift(basis, 1.5, 0.0), 1.5)
    # mode 0 sees (mu - sigma) since (1+0)^-gamma = 1
    assert _drift(basis, 1.0, 0.25)[:, 0] == pytest.approx(0.75)
    # mode 1 on the paper convention: factor 1 - 0.5 (1+4 pi^2)^-2
    expected = 1.0 - 0.5 * (1.0 + 4 * np.pi**2) ** -2.0
    assert _drift(basis, 1.0, 0.5)[:, 1] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("scheme", ["ito_imex", "stratonovich_heun"])
def test_only_the_ito_step_carries_the_drift_correction(scheme):
    # a noiseless step without sources at sigma > 0: the Stratonovich
    # (Heun) step is the exact decay exp(-(r lambda + mu) dt) of each mode,
    # the Ito step adds dt phi1 sigma (Id+A)^(-gamma) on top
    basis = _basis_1d()
    params = replace(_desk_params(sigma=0.5), kappa_u=0.0, kappa_v=0.0)
    sch = SchemeConfig(dt=0.1, T=1.0, scheme=scheme)
    stepper = Stepper(basis, params, sch, NoiseSpec(2.0, 2.0, 16), 1)
    state = initial_state(basis, constant_pair(basis, 1.0, 2.0), 1,
                          sch.v_floor)
    before = state.modal.copy()
    stepper.advance(state, np.zeros((2, 1, 16)))
    exact = np.exp(-np.stack([(params.r_u * basis.eigenvalues + params.mu_u),
                              (params.r_v * basis.eigenvalues + params.mu_v)])
                   * sch.dt)[:, None] * before
    gap = np.abs(state.modal - exact).max()
    if scheme == "stratonovich_heun":
        assert gap <= 1e-15 * np.abs(exact).max()
    else:
        assert gap > 1e-3 * np.abs(exact).max()


def test_phi1_is_its_formula_bit_for_bit():
    # tiny, O(1) and large z, each the quotient -expm1(-z)/z to the bit
    z = np.array([1e-300, 1e-17, 1e-9, 1e-4, 0.3, 1.0, 2.5, 40.0, 700.0,
                  1e5])
    assert dynamics._phi1(z).tobytes() == (-np.expm1(-z) / z).tobytes()
    with_zero = dynamics._phi1(np.array([0.0, 1.0]))
    assert with_zero[0] == 1.0 and with_zero[1] == -np.expm1(-1.0)
    assert dynamics._phi1(0.0) == 1.0


def test_constant_decay_is_exact_per_step():
    # mode 0 of a constant is the constant times sqrt(volume)
    mu = 0.7
    params = replace(_desk_params(sigma=0.0), kappa_u=0.0, kappa_v=0.0,
                     mu_u=mu, mu_v=1.0)
    sch = SchemeConfig(dt=0.01, T=0.01)  # one step
    for basis in exactness_bases():
        spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=basis.mode_count)
        pair = constant_pair(basis, 3.0, 1.0)
        out = run(pair, params, sch, basis, spec, None)
        assert out.u_modal[0, 0] == pytest.approx(
            pair[0, 0] * np.exp(-mu * 0.01), rel=1e-15), basis.domain.dim
        assert out.t == pytest.approx(0.01)


def test_homogeneous_steady_state_is_discrete_fixed_point():
    params = _desk_params(sigma=0.0)
    u_star, v_star = steady_state(params)
    # residual of the continuous right-hand side vanishes by construction
    assert params.kappa_u * u_star**2 / v_star - params.mu_u * u_star == \
        pytest.approx(0.0, abs=1e-14)
    assert params.kappa_v * u_star**2 - params.mu_v * v_star == \
        pytest.approx(0.0, abs=1e-14)
    sch = SchemeConfig(dt=1e-2, T=1e-2)  # one step
    for basis in exactness_bases():
        spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=basis.mode_count)
        pair = constant_pair(basis, u_star, v_star)
        out = run(pair, params, sch, basis, spec, None)
        assert abs(out.u_modal[0, 0] - pair[0, 0]) < 1e-13, basis.domain.dim
        assert abs(out.v_modal[0, 0] - pair[1, 0]) < 1e-13, basis.domain.dim


def test_sigma_zero_schemes_coincide_exactly():
    params = _desk_params(sigma=0.0)
    sch_i = SchemeConfig(dt=1e-3, T=0.05, scheme="ito_imex")
    sch_s = SchemeConfig(dt=1e-3, T=0.05, scheme="stratonovich_heun")
    for basis in exactness_bases():
        spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=basis.mode_count)
        init = default_initial_pair(basis, params)
        res_i = run(init, params, sch_i, basis, spec, drawn(spec, sch_i, [0]))
        res_s = run(init, params, sch_s, basis, spec, drawn(spec, sch_s, [0]))
        assert np.array_equal(res_i.u_modal, res_s.u_modal), basis.domain.dim
        assert np.array_equal(res_i.v_modal, res_s.v_modal), basis.domain.dim


def test_single_step_ops_match_run():
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=4)
    params = _desk_params()
    init = default_initial_pair(basis, params)
    increments = drawn(spec, SchemeConfig(dt=1e-3, T=2e-3), [1])(0, 2)
    stepper = Stepper(basis, params, SchemeConfig(dt=1e-3, T=2e-3), spec, 1)
    raw = initial_state(basis, init, 1, 1e-8)
    for n in range(2):
        stepper.advance(raw, stepper.damp * increments[0, :, None, :, n])
        sch = SchemeConfig(dt=1e-3, T=(n + 1) * 1e-3)
        res = run(init, params, sch, basis, spec, sliced(increments))
        assert np.allclose(raw.u_modal, res.u_modal, rtol=0, atol=0)


@pytest.mark.parametrize("scheme, transforms", [("ito_imex", 2),
                                                ("stratonovich_heun", 3)])
@pytest.mark.parametrize("dim", [1, 2])
def test_a_step_transforms_both_fields_at_once(monkeypatch, scheme,
                                               transforms, dim):
    # each projection and synthesis of a step covers u and v of every row
    basis = build_basis(DomainSpec(dim=dim, lengths=(1.0,) * dim,
                                   grid_points_per_axis=64 if dim == 1
                                   else 16), 16)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=4)
    params = _desk_params()
    stepper = Stepper(basis, params, SchemeConfig(dt=1e-3, T=1e-3,
                                                  scheme=scheme), spec, 3)
    state = initial_state(basis, default_initial_pair(basis, params), 3, 1e-8)
    increments = np.random.default_rng(5).standard_normal((2, 3, 16)) * 0.03
    calls = {"project": 0, "synthesize": 0}
    for name in calls:
        method = getattr(SpectralBasis, name)

        def counted(self, *args, _method=method, _name=name, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(SpectralBasis, name, counted)
    stepper.advance(state, stepper.damp * increments)
    assert state.alive.all() and state.step_index == 1
    assert calls == {"project": transforms, "synthesize": transforms}


def test_stratonovich_pathwise_matches_closed_form():
    # single-mode reduction: u0 exp(-mu t + sigma B_t), O(dt) pathwise
    basis = _basis_1d(n=4, k=1)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=1, master_seed=3)
    mu, sigma = 1.0, 0.5
    params = replace(_desk_params(sigma=0.1), kappa_u=0.0, kappa_v=0.0,
                     mu_u=mu, sigma_u=sigma)
    pair = constant_pair(basis, 1.0, 1.0)
    dt = 1e-3
    sch = SchemeConfig(dt=dt, T=1.0, scheme="stratonovich_heun")
    increments = drawn(spec, sch, [7])(0, 1000)
    res = run(pair, params, sch, basis, spec, sliced(increments))
    b_t = increments[0, 0, 0, :].sum()
    exact = np.exp(-mu + sigma * b_t)
    rel = abs(res.u_nodal[0, 0] - exact) / exact
    assert rel < dt  # observed ~0.2 dt


def test_ito_mean_matches_gbm_oracle():
    # E u(t) = u0 exp(-(mu - sigma) t) under the operator-corrected drift
    basis = _basis_1d(n=4, k=1)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=1, master_seed=21)
    mu, sigma = 3.0, 2.0
    params = replace(_desk_params(sigma=0.1), kappa_u=0.0, kappa_v=0.0,
                     mu_u=mu, sigma_u=sigma)
    # 2,000 paths of 16 steps of 1/64, stepped as one stack
    vals = _gbm_batch("ito_imex", params, spec, basis, 2000, 16, 0.25, 1.0,
                      first_path=0)
    oracle = np.exp(-(mu - sigma) * 0.25)
    z = abs(vals.mean() - oracle) / (vals.std(ddof=1) / np.sqrt(vals.size))
    assert z < 3.0


@pytest.mark.parametrize("scheme", ["ito_imex", "stratonovich_heun"])
def test_2d_bridge_coupled_strong_order(scheme):
    # criterion 5 on the 1 x 1.5 rectangle: 20 paths on dt = 2e-3, 1e-3
    # and 5e-4 coupled by exact pairwise sums, same bound of 0.4 (observed
    # 0.74 for ito_imex, 0.91 for stratonovich_heun)
    basis = exactness_bases()[1]
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=36, master_seed=505)
    params = _desk_params(sigma=0.5)
    init = default_initial_pair(basis, params)
    fine = SchemeConfig(dt=5e-4, T=0.2, scheme=scheme)
    e1, e2 = level_gaps(init, params, fine, basis, spec, 20)
    assert np.log2(e1 / e2) >= 0.4


def test_run_determinism_bitwise():
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=8)
    params = _desk_params()
    init = default_initial_pair(basis, params)
    sch = SchemeConfig(dt=1e-3, T=0.2)
    a = run(init, params, sch, basis, spec, drawn(spec, sch, [0]))
    b = run(init, params, sch, basis, spec, drawn(spec, sch, [0]))
    assert np.array_equal(a.u_modal, b.u_modal)
    assert np.array_equal(a.v_modal, b.v_modal)


def test_run_requires_path_for_noise():
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16)
    params = _desk_params(sigma=0.1)
    init = default_initial_pair(basis, params)
    with pytest.raises(ValueError, match="noise path"):
        run(init, params, SchemeConfig(dt=1e-3, T=0.1), basis, spec, None)


def test_run_holds_one_noise_block_whatever_the_horizon():
    # one path, K = 16: the noise comes in blocks of 1,024 steps, so an
    # 8 s run (8,000 steps) holds no more than a 2 s one; its whole table
    # would add 16 K 6,000 bytes = 1.5 MB
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=8)
    params = _desk_params()
    init = default_initial_pair(basis, params)
    warm = SchemeConfig(dt=1e-3, T=0.01)
    run(init, params, warm, basis, spec, drawn(spec, warm, [0]))
    peaks = []
    for horizon in (2.0, 8.0):
        sch = SchemeConfig(dt=1e-3, T=horizon)
        tracemalloc.start()
        try:
            run(init, params, sch, basis, spec, drawn(spec, sch, [0]))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 0.25e6


def test_the_walk_hands_each_state_to_its_observer_once(monkeypatch):
    # 3 rows of K = 16 draw 96 numbers a step: blocks of 4 steps end
    # mid-walk, and the last block is short
    monkeypatch.setattr(dynamics, "NOISE_BLOCK_DRAWS", 4 * 96)
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=6)
    params = _desk_params()
    init = default_initial_pair(basis, params)

    class Log:
        def __init__(self):
            self.seen = []

        def observe(self, view, dt):
            self.seen.append((view.step_index, dt))

    def walk(sch, observer):
        path, blocks = drawn(spec, sch, range(3)), []

        def draw(n0, n1):
            blocks.append((n0, n1))
            return path(n0, n1)

        return run_batch(init, params, sch, basis, spec, draw, 3,
                         observer), blocks

    sch = SchemeConfig(dt=1e-3, T=1e-2)
    log = Log()
    final, blocks = walk(sch, log)
    assert not final.failures and blocks == [(0, 4), (4, 8), (8, 10)]
    assert log.seen == [(n, sch.dt) for n in range(10)] + [(10, None)]
    # every row fails its first step (reaction number 1e-3 here): the walk
    # ends without the last call
    failing = SchemeConfig(dt=1e-3, T=1e-2, reaction_cfl_limit=1e-6)
    log = Log()
    final, blocks = walk(failing, log)
    assert sorted(final.failures) == [0, 1, 2] and blocks == [(0, 4)]
    assert log.seen == [(0, failing.dt)]
    # the functional recorder keeps its own schedule on the same walk
    rec = FunctionalRecorder(basis, FunctionalConfig(observation_stride=3))
    walk(sch, rec)
    assert np.array_equal(rec.traces().times,
                          np.array([0, 3, 6, 9, 10]) * sch.dt)


def test_the_walk_calls_its_driver_once_a_step_after_the_observer(
        monkeypatch):
    # blocks of 4 steps of 3 rows, as above: the driver is called for
    # steps 0..9, across the block ends, each time after the observer has
    # seen the state it drives
    monkeypatch.setattr(dynamics, "NOISE_BLOCK_DRAWS", 4 * 96)
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=6)
    params = _desk_params()
    init = default_initial_pair(basis, params)
    calls = []

    class Log:
        def observe(self, view, dt):
            calls.append(("observe", view.step_index))

    def own_u(state, n):
        calls.append(("drive", n, state.step_index))
        return state.u_nodal

    def walk(sch):
        calls.clear()
        return run_batch(init, params, sch, basis, spec,
                         drawn(spec, sch, range(3)), 3, Log(), own_u)

    sch = SchemeConfig(dt=1e-3, T=1e-2)
    final = walk(sch)
    assert not final.failures
    assert calls == [call for n in range(10)
                     for call in (("observe", n), ("drive", n, n))] + [
                         ("observe", 10)]
    # driven by its own u, the stack steps the coupled system bit for bit
    coupled = run_batch(init, params, sch, basis, spec,
                        drawn(spec, sch, range(3)), 3)
    assert np.array_equal(final.modal, coupled.modal)
    # every row fails its first step: the driver is not called again
    failing = SchemeConfig(dt=1e-3, T=1e-2, reaction_cfl_limit=1e-6)
    final = walk(failing)
    assert sorted(final.failures) == [0, 1, 2]
    assert calls == [("observe", 0), ("drive", 0, 0)]


def test_mass_conservation_pure_diffusion():
    params = ModelParams(r_u=0.05, r_v=0.1, kappa_u=0.0, kappa_v=0.0,
                         mu_u=0.0, mu_v=0.0, sigma_u=0.0, sigma_v=0.0)
    for basis in exactness_bases():
        spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=basis.mode_count)
        modal = np.zeros(basis.mode_count)
        modal[0], modal[4], modal[9] = 1.5, 0.3, -0.2
        pair = constant_pair(basis, 0.0, 1.0)
        pair[0] = modal
        res = run(pair, params, SchemeConfig(dt=1e-3, T=1.0), basis, spec,
                  None)
        assert abs(res.u_modal[0, 0] - 1.5) < 1e-10, basis.domain.dim
        # nonzero modes decay under the heat flow
        assert abs(res.u_modal[0, 4]) < abs(modal[4]), basis.domain.dim


def test_reaction_cfl_guard_fires():
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16)
    params = replace(_desk_params(sigma=0.0), kappa_u=500.0)
    pair = constant_pair(basis, 2.0, 0.5)
    with pytest.raises(SimulationError, match="reaction CFL"):
        run(pair, params, SchemeConfig(dt=1e-2, T=0.1), basis, spec, None)


def test_comparison_monotonicity_of_inhibitor_source():
    # enlarging u0 pointwise (noiseless) yields pointwise larger v at T
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16)
    params = _desk_params(sigma=0.0)
    sch = SchemeConfig(dt=1e-3, T=0.5)
    base = default_initial_pair(basis, params)
    bigger = base.copy()
    bigger[0] = basis.project(basis.synthesize(base[0]) + 0.5)
    res_a = run(base, params, sch, basis, spec, None)
    res_b = run(bigger, params, sch, basis, spec, None)
    assert np.all(res_b.v_nodal > res_a.v_nodal)


def test_short_stochastic_run_keeps_inhibitor_positive():
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=77)
    params = _desk_params(sigma=0.1)
    init = default_initial_pair(basis, params)
    sch = SchemeConfig(dt=1e-3, T=0.2, v_floor=0.0)
    for idx in range(20):
        res = run(init, params, sch, basis, spec, drawn(spec, sch, [idx]))
        assert res.v_nodal.min() > 0.0
        assert res.floor_activations[0] == 0


def test_default_initial_pair_is_admissible():
    basis = _basis_1d()
    params = _desk_params()
    pair = default_initial_pair(basis, params)
    assert pair.shape == (2, basis.mode_count)
    u_nodal, v_nodal = basis.synthesize(pair)
    assert np.all(u_nodal >= 0.0) and np.all(v_nodal > 0.0)
    u_star, v_star = steady_state(params)
    assert pair[0, 0] == pytest.approx(u_star * np.sqrt(basis.volume))
    assert np.allclose(v_nodal, v_star)
