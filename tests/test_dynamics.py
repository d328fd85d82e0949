import tracemalloc

import numpy as np
import pytest

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
    steady_state,
)
from gmspde.noise import NoiseSpec, drawn, sliced
from gmspde.spectral import DomainSpec, SpectralBasis, build_basis


def make_basis(n=64, k=16):
    return build_basis(DomainSpec(dim=1, lengths=(1.0,),
                                  grid_points_per_axis=n), k)


def desk_params(sigma=0.1):
    return ModelParams(r_u=0.01, r_v=0.1, kappa_u=1.0, kappa_v=1.0,
                       mu_u=1.0, mu_v=2.0, sigma_u=sigma, sigma_v=sigma)


def test_params_reject_negative():
    with pytest.raises(ValueError, match="positivity"):
        ModelParams(r_u=0.01, r_v=0.1, kappa_u=-1.0, kappa_v=1.0,
                    mu_u=1.0, mu_v=1.0, sigma_u=0.1, sigma_v=0.1)


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
    params = ModelParams(0.01, 0.1, 1.0, 1.0, mu, mu, sigma, sigma)
    sch = SchemeConfig(dt=0.1, T=1.0, scheme=scheme)
    stepper = Stepper(basis, params, sch, NoiseSpec(2.0, 2.0, basis.mode_count),
                      1)
    return mu - stepper._lin[:, 0]


def test_upsilon_examples():
    # the Ito stepper's drift is mu*Id - sigma*(Id+A)^(-gamma) per mode
    basis = build_basis(
        DomainSpec(dim=1, lengths=(1.0,), eigenvalue_convention="paper_1d",
                   grid_points_per_axis=64), 8)
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
    basis = make_basis()
    params = ModelParams(0.01, 0.1, 0.0, 0.0, 1.0, 2.0, 0.5, 0.5)
    sch = SchemeConfig(dt=0.1, T=1.0, scheme=scheme)
    stepper = Stepper(basis, params, sch, NoiseSpec(2.0, 2.0, 16), 1)
    state = initial_state(basis, constant_pair(basis, 1.0, 2.0), 1)
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


def test_constant_decay_is_exact_per_step():
    basis = make_basis()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16)
    mu = 0.7
    params = ModelParams(r_u=0.01, r_v=0.1, kappa_u=0.0, kappa_v=0.0,
                         mu_u=mu, mu_v=1.0, sigma_u=0.0, sigma_v=0.0)
    sch = SchemeConfig(dt=0.01, T=0.01)  # one step
    out = run(constant_pair(basis, 3.0, 1.0), params, sch, basis, spec, None)
    assert out.u_modal[0, 0] == pytest.approx(
        3.0 * np.exp(-mu * 0.01), rel=1e-15)
    assert out.t == pytest.approx(0.01)


def test_homogeneous_steady_state_is_discrete_fixed_point():
    basis = make_basis()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16)
    params = desk_params(sigma=0.0)
    u_star, v_star = steady_state(params)
    # residual of the continuous right-hand side vanishes by construction
    assert params.kappa_u * u_star**2 / v_star - params.mu_u * u_star == \
        pytest.approx(0.0, abs=1e-14)
    assert params.kappa_v * u_star**2 - params.mu_v * v_star == \
        pytest.approx(0.0, abs=1e-14)
    sch = SchemeConfig(dt=1e-2, T=1e-2)  # one step
    pair = constant_pair(basis, u_star, v_star)
    out = run(pair, params, sch, basis, spec, None)
    assert abs(out.u_modal[0, 0] - pair[0, 0]) < 1e-13
    assert abs(out.v_modal[0, 0] - pair[1, 0]) < 1e-13


def test_sigma_zero_schemes_coincide_exactly():
    basis = make_basis()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16)
    params = desk_params(sigma=0.0)
    init = default_initial_pair(basis, params)
    sch_i = SchemeConfig(dt=1e-3, T=0.05, scheme="ito_imex")
    sch_s = SchemeConfig(dt=1e-3, T=0.05, scheme="stratonovich_heun")
    res_i = run(init, params, sch_i, basis, spec, drawn(spec, sch_i, [0]))
    res_s = run(init, params, sch_s, basis, spec, drawn(spec, sch_s, [0]))
    assert np.array_equal(res_i.u_modal, res_s.u_modal)
    assert np.array_equal(res_i.v_modal, res_s.v_modal)


def test_single_step_ops_match_run():
    basis = make_basis()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=4)
    params = desk_params()
    init = default_initial_pair(basis, params)
    increments = drawn(spec, SchemeConfig(dt=1e-3, T=2e-3), [1])(0, 2)
    stepper = Stepper(basis, params, SchemeConfig(dt=1e-3, T=2e-3), spec, 1)
    raw = initial_state(basis, init, 1)
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
    params = desk_params()
    stepper = Stepper(basis, params, SchemeConfig(dt=1e-3, T=1e-3,
                                                  scheme=scheme), spec, 3)
    state = initial_state(basis, default_initial_pair(basis, params), 3)
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
    basis = build_basis(DomainSpec(dim=1, lengths=(1.0,),
                                   grid_points_per_axis=4), 1)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=1, master_seed=3)
    mu, sigma = 1.0, 0.5
    params = ModelParams(r_u=0.01, r_v=0.1, kappa_u=0.0, kappa_v=0.0,
                         mu_u=mu, mu_v=2.0, sigma_u=sigma, sigma_v=0.1)
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
    basis = build_basis(DomainSpec(dim=1, lengths=(1.0,),
                                   grid_points_per_axis=4), 1)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=1, master_seed=21)
    mu, sigma = 3.0, 2.0
    params = ModelParams(r_u=0.01, r_v=0.1, kappa_u=0.0, kappa_v=0.0,
                         mu_u=mu, mu_v=2.0, sigma_u=sigma, sigma_v=0.1)
    sch = SchemeConfig(dt=1.0 / 64, T=0.25)
    stepper = Stepper(basis, params, sch, spec, 1)
    pair = constant_pair(basis, 1.0, 1.0)
    n_paths = 2000
    vals = np.empty(n_paths)
    for i in range(n_paths):
        increments = drawn(spec, sch, [i])(0, 16)[0]
        raw = initial_state(basis, pair, 1)
        for n in range(16):
            stepper.advance(raw, stepper.damp * increments[:, None, :, n])
        vals[i] = raw.u_modal[0, 0]
    oracle = np.exp(-(mu - sigma) * 0.25)
    z = abs(vals.mean() - oracle) / (vals.std(ddof=1) / np.sqrt(n_paths))
    assert z < 3.0


def test_run_determinism_bitwise():
    basis = make_basis()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=8)
    params = desk_params()
    init = default_initial_pair(basis, params)
    sch = SchemeConfig(dt=1e-3, T=0.2)
    a = run(init, params, sch, basis, spec, drawn(spec, sch, [0]))
    b = run(init, params, sch, basis, spec, drawn(spec, sch, [0]))
    assert np.array_equal(a.u_modal, b.u_modal)
    assert np.array_equal(a.v_modal, b.v_modal)


def test_run_requires_path_for_noise():
    basis = make_basis()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16)
    params = desk_params(sigma=0.1)
    init = default_initial_pair(basis, params)
    with pytest.raises(ValueError, match="noise path"):
        run(init, params, SchemeConfig(dt=1e-3, T=0.1), basis, spec, None)


def test_run_holds_one_noise_block_whatever_the_horizon():
    # one path, K = 16: the noise comes in blocks of 1,024 steps, so an
    # 8 s run (8,000 steps) holds no more than a 2 s one; its whole table
    # would add 16 K 6,000 bytes = 1.5 MB
    basis = make_basis()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=8)
    params = desk_params()
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


def test_mass_conservation_pure_diffusion():
    basis = make_basis()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16)
    params = ModelParams(r_u=0.05, r_v=0.1, kappa_u=0.0, kappa_v=0.0,
                         mu_u=0.0, mu_v=0.0, sigma_u=0.0, sigma_v=0.0)
    modal = np.zeros(16)
    modal[0], modal[4], modal[9] = 1.5, 0.3, -0.2
    pair = constant_pair(basis, 0.0, 1.0)
    pair[0] = modal
    res = run(pair, params, SchemeConfig(dt=1e-3, T=1.0), basis, spec, None)
    assert abs(res.u_modal[0, 0] - 1.5) < 1e-10
    # nonzero modes decay under the heat flow
    assert abs(res.u_modal[0, 4]) < abs(modal[4])


def test_reaction_cfl_guard_fires():
    basis = make_basis()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16)
    params = ModelParams(r_u=0.01, r_v=0.1, kappa_u=500.0, kappa_v=1.0,
                         mu_u=1.0, mu_v=2.0, sigma_u=0.0, sigma_v=0.0)
    pair = constant_pair(basis, 2.0, 0.5)
    with pytest.raises(SimulationError, match="reaction CFL"):
        run(pair, params, SchemeConfig(dt=1e-2, T=0.1), basis, spec, None)


def test_comparison_monotonicity_of_inhibitor_source():
    # enlarging u0 pointwise (noiseless) yields pointwise larger v at T
    basis = make_basis()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16)
    params = desk_params(sigma=0.0)
    sch = SchemeConfig(dt=1e-3, T=0.5)
    base = default_initial_pair(basis, params)
    bigger = base.copy()
    bigger[0] = basis.project(basis.synthesize(base[0]) + 0.5)
    res_a = run(base, params, sch, basis, spec, None)
    res_b = run(bigger, params, sch, basis, spec, None)
    assert np.all(res_b.v_nodal > res_a.v_nodal)


def test_short_stochastic_run_keeps_inhibitor_positive():
    basis = make_basis()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=77)
    params = desk_params(sigma=0.1)
    init = default_initial_pair(basis, params)
    sch = SchemeConfig(dt=1e-3, T=0.2, v_floor=0.0)
    for idx in range(20):
        res = run(init, params, sch, basis, spec, drawn(spec, sch, [idx]))
        assert res.v_nodal.min() > 0.0
        assert res.floor_activations[0] == 0


def test_default_initial_pair_is_admissible():
    basis = make_basis()
    params = desk_params()
    pair = default_initial_pair(basis, params)
    assert pair.shape == (2, basis.mode_count)
    u_nodal, v_nodal = basis.synthesize(pair)
    assert np.all(u_nodal >= 0.0) and np.all(v_nodal > 0.0)
    u_star, v_star = steady_state(params)
    assert pair[0, 0] == pytest.approx(u_star * np.sqrt(basis.volume))
    assert np.allclose(v_nodal, v_star)
