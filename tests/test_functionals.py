import tracemalloc

import numpy as np
import pytest

from gmspde import functionals
from gmspde.dynamics import (
    ModelParams,
    SchemeConfig,
    constant_pair,
    default_initial_pair,
    run,
)
from gmspde.experiments import (
    PairTrajectory,
    TrajectoryRecorder,
    _stack_solve,
    ensemble,
    replay_trace,
)
from gmspde.fields import FloorViolation, quotient_nodal
from gmspde.functionals import (
    TRACE_COLUMNS,
    AdmissibleSetSpec,
    FunctionalConfig,
    FunctionalRecorder,
    check_rho,
    energy_monitors,
    fit_growth_envelope,
    lyapunov_L1,
    lyapunov_L2,
    lyapunov_L3,
    membership,
)
from gmspde.noise import NoiseSpec, drawn
from gmspde.spectral import DomainSpec, build_basis

K = 8


@pytest.fixture(scope="module")
def basis():
    return build_basis(DomainSpec(dim=1, lengths=(1.0,),
                                  grid_points_per_axis=64), K)


def desk_params(sigma=0.1):
    return ModelParams(r_u=0.01, r_v=0.1, kappa_u=1.0, kappa_v=1.0,
                       mu_u=1.0, mu_v=2.0, sigma_u=sigma, sigma_v=sigma)


def const_traj(basis, chi_value, eta_value, n_steps=8, horizon=1.0):
    """One-row stack of a time-constant (chi, eta), power-of-two steps."""
    sqrt_vol = np.sqrt(basis.volume)
    chi = np.zeros(K)
    chi[0] = chi_value * sqrt_vol
    eta = np.zeros(K)
    eta[0] = eta_value * sqrt_vol
    times = np.linspace(0.0, horizon, n_steps + 1)
    return PairTrajectory(
        times=times,
        chi_modal=np.tile(chi, (1, n_steps + 1, 1)),
        eta_modal=np.tile(eta, (1, n_steps + 1, 1)),
    )


def test_config_validation():
    with pytest.raises(ValueError, match="p must be"):
        FunctionalConfig(p=0.5)
    check_rho(1.0, 1)
    with pytest.raises(ValueError, match="rho"):
        check_rho(1.0, 2)
    with pytest.raises(ValueError, match="rho"):
        check_rho(1.3, 1)


def test_xi_examples(basis):
    xi, n = quotient_nodal(1.0, np.full(65, 2.0), 1e-8)
    assert np.allclose(xi, 0.5) and n == 0

    xi, _ = quotient_nodal(1.0, np.ones(65), 0.0)
    ln_mass = float(basis.weights @ np.log(xi))
    assert ln_mass == 0.0

    v = np.random.default_rng(0).uniform(0.5, 3.0, 65)
    xi, n = quotient_nodal(1.0, v, 1e-8)
    assert n == 0
    assert np.abs(v * xi - 1.0).max() < 1e-12


def test_xi_zero_floor_rejects_nonpositive(basis):
    bad = np.ones(65)
    bad[5] = 0.0
    with pytest.raises(FloorViolation) as err:
        quotient_nodal(1.0, bad, 0.0)
    assert err.value.node_index == 5


def test_lyapunov_l1_trivial(basis):
    traj = const_traj(basis, 0.0, 1.0)
    trace = replay_trace(traj, basis, FunctionalConfig(observation_stride=1), 1e-8)
    # only the |xi|_p^p = |O| term survives
    assert lyapunov_L1(trace)[0] == pytest.approx(1.0, rel=1e-12)


def test_lyapunov_l1_single_eigenmode(basis):
    # one step with chi = e_1, v = 1: |chi|^2 = 1, grad term = lambda_1 dt
    dt = 0.125
    chi = np.zeros((1, 2, K))
    chi[..., 1] = 1.0
    eta = np.zeros((1, 2, K))
    eta[..., 0] = 1.0
    traj = PairTrajectory(times=np.array([0.0, dt]), chi_modal=chi,
                          eta_modal=eta)
    trace = replay_trace(traj, basis, FunctionalConfig(observation_stride=1),
                         1e-8)
    lam1 = basis.eigenvalues[1]
    expected = 1.0 + lam1 * dt + 1.0
    assert lyapunov_L1(trace)[0] == pytest.approx(expected, rel=1e-10)


def test_lyapunov_l1_quadratic_in_chi(basis):
    traj = const_traj(basis, 1.3, 1.0)
    doubled = const_traj(basis, 2.6, 1.0)
    cfg = FunctionalConfig(observation_stride=1)
    t1 = replay_trace(traj, basis, cfg, 1e-8)
    t2 = replay_trace(doubled, basis, cfg, 1e-8)
    assert t2.data["chi_l2_sq"].max() == 4.0 * t1.data["chi_l2_sq"].max()


def test_lyapunov_l2_examples(basis):
    cfg = FunctionalConfig(observation_stride=1)
    zero = replay_trace(const_traj(basis, 0.0, 1.0), basis, cfg, 1e-8)
    assert lyapunov_L2(zero)[0] == 0.0
    # chi = 1, v = 1, T = 1 with dyadic steps: (|O| T)^2 + |O| T = 2
    ones = replay_trace(const_traj(basis, 1.0, 1.0), basis, cfg, 1e-8)
    assert lyapunov_L2(ones)[0] == pytest.approx(2.0, abs=1e-12)


def test_lyapunov_l2_scaling_is_exact(basis):
    cfg = FunctionalConfig(observation_stride=1)
    t1 = replay_trace(const_traj(basis, 0.7, 2.0), basis, cfg, 1e-8)
    t2 = replay_trace(const_traj(basis, 1.4, 2.0), basis, cfg, 1e-8)
    a, b = t1.data, t2.data
    assert b["int_chi2_xi"][0, -1] == 4.0 * a["int_chi2_xi"][0, -1]
    assert b["int_xi2_chi2"][0, -1] == 4.0 * a["int_xi2_chi2"][0, -1]
    # first L2 term is the square of a 4x quantity
    assert b["int_chi2_xi"][0, -1] ** 2 == 16.0 * a["int_chi2_xi"][0, -1] ** 2


def test_lyapunov_l3_trivial(basis):
    cfg = FunctionalConfig(observation_stride=1)
    trace = replay_trace(const_traj(basis, 0.0, 1.0), basis, cfg, 1e-8)
    l3 = lyapunov_L3(trace)
    assert np.allclose(l3, 2.0, atol=1e-12)  # |O| + |O| + 0


def test_running_integrals_nondecreasing(basis):
    params = desk_params()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=13)
    init = default_initial_pair(basis, params)
    sch = SchemeConfig(dt=1e-3, T=0.2)
    report = ensemble(init, params, sch, basis, spec, 2,
                      FunctionalConfig(observation_stride=10))
    for name in ("int_grad_chi_sq", "int_chi2_xi", "int_xi2_chi2",
                 "int_xi_p2_grad_v_sq", "int_u_chi2_xi"):
        assert report.traces.data[name].shape[0] == 2
        assert np.all(np.diff(report.traces.data[name], axis=-1) >= -1e-15)


def test_membership_trivial_pass_and_negative_node(basis):
    cfg = FunctionalConfig(observation_stride=1)
    good = replay_trace(const_traj(basis, 0.0, 1.0), basis, cfg, 1e-8)
    big = AdmissibleSetSpec(K1=1e6, K2=1e6, K3=1e6)
    rep = membership(good, big)
    assert rep.ok

    chi = np.zeros((1, 2, K))
    chi[..., 0] = 0.5
    chi[..., 1] = -1.0  # pushes some nodes negative
    eta = np.zeros((1, 2, K))
    eta[..., 0] = 1.0
    traj = PairTrajectory(times=np.array([0.0, 0.5]), chi_modal=chi,
                          eta_modal=eta)
    bad = replay_trace(traj, basis, cfg, 1e-8)
    rep = membership(bad, big)
    assert not rep.positivity_ok
    assert "node" in rep.failure


def test_membership_bound_violation_detected(basis):
    cfg = FunctionalConfig(observation_stride=1)
    trace = replay_trace(const_traj(basis, 1.0, 1.0), basis, cfg, 1e-8)
    tight = AdmissibleSetSpec(K1=1e-6, K2=1e6, K3=1e6)
    rep = membership(trace, tight)
    assert not rep.l1_ok and rep.l2_ok and rep.l3_ok and not rep.ok


def test_ensemble_membership_reproducible(basis):
    params = desk_params()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=303)
    init = default_initial_pair(basis, params)
    sch = SchemeConfig(dt=1e-3, T=0.1)
    cfg = FunctionalConfig(observation_stride=10)
    bounds = AdmissibleSetSpec(K1=100.0, K2=100.0, K3=100.0)
    reports = []
    for _ in range(2):
        rep = ensemble(init, params, sch, basis, spec, 50, cfg)
        reports.append(membership(rep.traces, bounds))
    a, b = reports
    assert (a.mean_L1, a.mean_L2, a.sup_mean_L3) == \
        (b.mean_L1, b.mean_L2, b.sup_mean_L3)
    assert a.ok == b.ok


def test_fit_growth_envelope_recovers_synthetic_constants():
    horizons = np.array([0.5, 1.0, 2.0])
    init = np.full(3, 2.0)
    lhs = 3.0 * np.exp(0.7 * horizons) * init
    c, delta, blow = fit_growth_envelope(horizons, lhs, init)
    assert not blow
    assert delta == pytest.approx(0.7, rel=1e-10)
    assert c == pytest.approx(3.0, rel=1e-10)


def test_fit_growth_envelope_flags_blow_up():
    c, delta, blow = fit_growth_envelope([0.5, 1.0], [1.0, np.inf], [1.0, 1.0])
    assert blow


def test_monitors_constant_for_steady_trajectory(basis):
    # deterministic steady state: all monitor LHS constant, delta fits to 0
    params = desk_params(sigma=0.0)
    cfg = FunctionalConfig(observation_stride=1)
    from gmspde.dynamics import steady_state
    u_star, v_star = steady_state(params)
    traj = const_traj(basis, u_star, v_star, n_steps=8, horizon=1.0)
    trace = replay_trace(traj, basis, cfg, 1e-8)
    fits = energy_monitors(trace, params, cfg,
                           horizons=[0.25, 0.5, 1.0])
    for name in ("xi_lp_sup", "v_l2", "u_h1mrho"):
        assert abs(fits[name].delta) < 1e-10
        assert np.allclose(fits[name].lhs, fits[name].lhs[0])


def test_xi_l1_monitor_for_unit_inhibitor(basis):
    cfg = FunctionalConfig(observation_stride=1)
    trace = replay_trace(const_traj(basis, 0.0, 1.0), basis, cfg, 1e-8)
    fits = energy_monitors(trace, desk_params(), cfg,
                           horizons=[0.5, 1.0])
    assert np.allclose(fits["xi_l1_pathsup"].lhs, 1.0, atol=1e-12)
    assert np.allclose(fits["xi_l1_meansup"].lhs, 1.0, atol=1e-12)


def test_monitor_envelope_holds_on_stochastic_ensemble(basis):
    params = desk_params()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=99)
    init = default_initial_pair(basis, params)
    sch = SchemeConfig(dt=1e-3, T=0.4)
    cfg = FunctionalConfig(observation_stride=20)
    report = ensemble(init, params, sch, basis, spec, 16, cfg,
                      horizons=[0.1, 0.2, 0.4])
    for name, fit in report.monitors.items():
        assert not fit.blow_up, name
        mask = fit.lhs > 0
        bound = fit.C * np.exp(fit.delta * fit.horizons) * fit.init
        assert np.all(fit.lhs[mask] <= bound[mask] * (1 + 1e-10)), name


def test_floor_activations_counted_once_live_and_replayed():
    # v = 0.25 < v_floor on all 17 nodes: the stepper floors 17 per step
    basis = build_basis(DomainSpec(dim=1, lengths=(1.0,),
                                   grid_points_per_axis=16), 4)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=4)
    params = desk_params(sigma=0.0)
    sch = SchemeConfig(dt=1e-3, T=4e-3, v_floor=0.5)
    pair = constant_pair(basis, 0.1, 0.25)
    fcfg = FunctionalConfig(observation_stride=1)
    live = FunctionalRecorder(basis, fcfg, sch.v_floor)
    res = run(pair, params, sch, basis, spec, None, observer=live)
    assert res.floor_activations[0] == 4 * 17
    column = live.traces().data["floor_activations"]
    assert column[0, -1] == res.floor_activations[0]
    assert column[0, 0] == 0.0
    traj = TrajectoryRecorder(sch.n_steps())
    run(pair, params, sch, basis, spec, None, observer=traj)
    replayed = replay_trace(traj.trajectories(), basis, fcfg, sch.v_floor)
    assert np.array_equal(replayed.data["floor_activations"], column)


@pytest.mark.parametrize("v_floor", [1e-8, 2.0])
def test_replay_trace_matches_live_trace(v_floor):
    # same trajectory through the live recorder and through replay_trace;
    # v_floor = v* = 2 floors about half the nodes at every step
    basis = build_basis(DomainSpec(dim=1, lengths=(1.0,),
                                   grid_points_per_axis=64), 16)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=9)
    params = desk_params(sigma=0.3)
    sch = SchemeConfig(dt=1e-3, T=0.05, v_floor=v_floor)
    init = default_initial_pair(basis, params)
    path = drawn(spec, sch, [1])
    fcfg = FunctionalConfig(observation_stride=7)
    live = FunctionalRecorder(basis, fcfg, v_floor)
    res = run(init, params, sch, basis, spec, path, observer=live)
    traj = TrajectoryRecorder(sch.n_steps())
    run(init, params, sch, basis, spec, path, observer=traj)
    expected = live.traces()
    got = replay_trace(traj.trajectories(), basis, fcfg, v_floor)
    assert np.array_equal(got.times, expected.times)
    for name in TRACE_COLUMNS[1:]:
        want = expected.data[name]
        scale = np.abs(want).max()
        np.testing.assert_allclose(got.data[name], want, rtol=1e-12,
                                   atol=1e-12 * scale, err_msg=name)
    activations = expected.data["floor_activations"][0, -1]
    assert activations == res.floor_activations[0]
    assert (activations > 0) == (v_floor > 1.0)


@pytest.fixture(scope="module")
def picard_stack():
    """The Picard benchmark's shape: 16 coupled paths of 100 steps, K = 16."""
    basis = build_basis(DomainSpec(dim=1, lengths=(1.0,),
                                   grid_points_per_axis=64), 16)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=41)
    params = desk_params(sigma=0.3)
    sch = SchemeConfig(dt=1e-3, T=0.1)
    init = default_initial_pair(basis, params)
    stack, final = _stack_solve(init, params, sch, basis, spec,
                                drawn(spec, sch, range(16)), 16)
    assert not final.failures
    return basis, stack


def _assert_traces_close(got, want):
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.data["floor_activations"],
                          want.data["floor_activations"])
    for name in TRACE_COLUMNS[1:]:
        scale = np.abs(want.data[name]).max()
        np.testing.assert_allclose(got.data[name], want.data[name], rtol=0,
                                   atol=1e-13 * scale, err_msg=name)


def test_replay_is_the_same_under_any_block_budget(monkeypatch, picard_stack):
    basis, stack = picard_stack
    fcfg = FunctionalConfig(observation_stride=25)
    runs = []
    for budget in (1, 10**9):    # one step per block, the whole horizon
        monkeypatch.setattr(functionals, "REPLAY_BLOCK_VALUES", budget)
        runs.append(replay_trace(stack, basis, fcfg, 2.0, range(16)))
    for row in range(16):
        _assert_traces_close(runs[0].rows([row]), runs[1].rows([row]))


def test_stacked_replay_matches_each_rows_solo_replay(picard_stack):
    # v_floor = 2 = v* floors about half the nodes at every step
    basis, stack = picard_stack
    fcfg = FunctionalConfig(observation_stride=25)
    stacked = replay_trace(stack, basis, fcfg, 2.0, range(16))
    for row in range(16):
        got = stacked.rows([row])
        solo = PairTrajectory(stack.times, stack.chi_modal[[row]],
                              stack.eta_modal[[row]])
        want = replay_trace(solo, basis, fcfg, 2.0, row)
        assert list(got.path_index) == list(want.path_index) == [row]
        _assert_traces_close(got, want)
    assert stacked.data["floor_activations"][:, -1].max() > 0


def test_lean_replay_columns_are_bitwise_the_full_ones(picard_stack):
    # v_floor = 2 floors about half the nodes, so the floor counts move
    basis, stack = picard_stack
    fcfg = FunctionalConfig(observation_stride=25)
    full = replay_trace(stack, basis, fcfg, 2.0, range(16))
    lean = replay_trace(stack, basis, fcfg, 2.0, range(16), monitors=False)
    kept = functionals.ADMISSIBILITY_COLUMNS + ("floor_activations",)
    assert sorted(lean.data) == sorted(kept)
    assert np.array_equal(lean.times, full.times)
    for name in kept:
        assert np.array_equal(lean.data[name], full.data[name]), name
    assert lean.data["floor_activations"][:, -1].max() > 0
    for name in set(TRACE_COLUMNS[1:]) - set(kept):
        with pytest.raises(KeyError):
            lean.data[name]


def test_replay_working_set_does_not_grow_with_the_horizon(basis):
    # 16 rows with the same 11 records at 100 and at 10,000 steps: the
    # replay holds one block of steps at a time besides its output.  The
    # long replay may keep a few more record chunks (~25 KB); one array
    # of a value per step would add 80 KB, one per row and step 1.3 MB
    rng = np.random.default_rng(5)
    beyond_output = []
    for n_steps in (100, 10_000):
        chi = 0.01 * rng.standard_normal((16, n_steps + 1, K))
        eta = 0.01 * rng.standard_normal((16, n_steps + 1, K))
        chi[..., 0] += 1.0
        eta[..., 0] += 2.0
        traj = PairTrajectory(np.linspace(0.0, 1.0, n_steps + 1), chi, eta)
        fcfg = FunctionalConfig(observation_stride=n_steps // 10)
        replay_trace(traj, basis, fcfg, 1e-8, range(16))
        tracemalloc.start()
        try:
            traces = replay_trace(traj, basis, fcfg, 1e-8, range(16))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traces.times.size == 11
        assert all(col.shape == (16, 11) for col in traces.data.values())
        beyond_output.append(peak - current)
    assert beyond_output[1] <= beyond_output[0] + 2**16
