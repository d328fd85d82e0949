import numpy as np
import pytest

from gmspde import experiments, functionals
from gmspde.dynamics import (
    ModelParams,
    SchemeConfig,
    StateView,
    constant_pair,
    default_initial_pair,
    run,
    run_batch,
)
from gmspde.experiments import (
    FixedPointConfig,
    PairTrajectory,
    _block,
    constant_trajectory,
    ensemble,
    picard_iterate,
)
from gmspde.fields import FloorViolation, floor_counts, quotient_nodal
from gmspde.functionals import (
    TRACE_COLUMNS,
    AdmissibleSetSpec,
    FunctionalConfig,
    FunctionalRecorder,
    auto_bounds,
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


def walk_trace(traj, basis, fcfg, v_floor, path_index=-1, monitors=True):
    """Trace of a stored stack, walked state by state through the recorder.

    The schedule of ``run_batch``'s loop: each state is recorded (state 0,
    every ``stride``-th and the last) before it is accumulated over
    dt = times[1] - times[0] (every state but the last).  Its
    ``floor_activations`` count the floored nodes of the pre-step states,
    as the stepper does.
    """
    rows, n = traj.chi_modal.shape[0], traj.times.size - 1
    rec = FunctionalRecorder(basis, fcfg, v_floor,
                             np.broadcast_to(path_index, (rows,)), monitors)
    floors = np.zeros(rows, dtype=int)
    for i in range(n + 1):
        modal = np.stack((traj.chi_modal[:, i], traj.eta_modal[:, i]))
        view = StateView(t=traj.times[i], step_index=i, modal=modal,
                         nodal=basis.synthesize(modal),
                         floor_activations=floors.copy(),
                         alive=np.ones(rows, dtype=bool))
        if i % rec.stride == 0 or i == n:
            rec.record(view)
        if i < n:
            rec.accumulate(view, traj.times[1] - traj.times[0])
            floors += floor_counts(view.v_nodal, v_floor)
    return rec.traces()


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
    trace = walk_trace(traj, basis, FunctionalConfig(observation_stride=1), 1e-8)
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
    trace = walk_trace(traj, basis, FunctionalConfig(observation_stride=1),
                       1e-8)
    lam1 = basis.eigenvalues[1]
    expected = 1.0 + lam1 * dt + 1.0
    assert lyapunov_L1(trace)[0] == pytest.approx(expected, rel=1e-10)


def test_lyapunov_l1_quadratic_in_chi(basis):
    traj = const_traj(basis, 1.3, 1.0)
    doubled = const_traj(basis, 2.6, 1.0)
    cfg = FunctionalConfig(observation_stride=1)
    t1 = walk_trace(traj, basis, cfg, 1e-8)
    t2 = walk_trace(doubled, basis, cfg, 1e-8)
    assert t2.data["chi_l2_sq"].max() == 4.0 * t1.data["chi_l2_sq"].max()


def test_lyapunov_l2_examples(basis):
    cfg = FunctionalConfig(observation_stride=1)
    zero = walk_trace(const_traj(basis, 0.0, 1.0), basis, cfg, 1e-8)
    assert lyapunov_L2(zero)[0] == 0.0
    # chi = 1, v = 1, T = 1 with dyadic steps: (|O| T)^2 + |O| T = 2
    ones = walk_trace(const_traj(basis, 1.0, 1.0), basis, cfg, 1e-8)
    assert lyapunov_L2(ones)[0] == pytest.approx(2.0, abs=1e-12)


def test_lyapunov_l2_scaling_is_exact(basis):
    cfg = FunctionalConfig(observation_stride=1)
    t1 = walk_trace(const_traj(basis, 0.7, 2.0), basis, cfg, 1e-8)
    t2 = walk_trace(const_traj(basis, 1.4, 2.0), basis, cfg, 1e-8)
    a, b = t1.data, t2.data
    assert b["int_chi2_xi"][0, -1] == 4.0 * a["int_chi2_xi"][0, -1]
    assert b["int_xi2_chi2"][0, -1] == 4.0 * a["int_xi2_chi2"][0, -1]
    # first L2 term is the square of a 4x quantity
    assert b["int_chi2_xi"][0, -1] ** 2 == 16.0 * a["int_chi2_xi"][0, -1] ** 2


def test_lyapunov_l3_trivial(basis):
    cfg = FunctionalConfig(observation_stride=1)
    trace = walk_trace(const_traj(basis, 0.0, 1.0), basis, cfg, 1e-8)
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
    good = walk_trace(const_traj(basis, 0.0, 1.0), basis, cfg, 1e-8)
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
    bad = walk_trace(traj, basis, cfg, 1e-8)
    rep = membership(bad, big)
    assert not rep.positivity_ok
    assert "node" in rep.failure


def test_membership_bound_violation_detected(basis):
    cfg = FunctionalConfig(observation_stride=1)
    trace = walk_trace(const_traj(basis, 1.0, 1.0), basis, cfg, 1e-8)
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
    trace = walk_trace(traj, basis, cfg, 1e-8)
    fits = energy_monitors(trace, params, cfg,
                           horizons=[0.25, 0.5, 1.0])
    for name in ("xi_lp_sup", "v_l2", "u_h1mrho"):
        assert abs(fits[name].delta) < 1e-10
        assert np.allclose(fits[name].lhs, fits[name].lhs[0])


def test_xi_l1_monitor_for_unit_inhibitor(basis):
    cfg = FunctionalConfig(observation_stride=1)
    trace = walk_trace(const_traj(basis, 0.0, 1.0), basis, cfg, 1e-8)
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
    # v = 0.25 < v_floor on all 17 nodes: the stepper floors 17 per step,
    # and the recorder's column is the stepper's count
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
    assert np.array_equal(column[0], 17.0 * np.arange(5))


class _Both:
    """Observer handing one walk to two recorders of one stride."""

    def __init__(self, *recorders):
        self.recorders = recorders
        self.stride = recorders[0].stride

    def accumulate(self, view, dt):
        for rec in self.recorders:
            rec.accumulate(view, dt)

    def record(self, view):
        for rec in self.recorders:
            rec.record(view)


def test_lean_replay_columns_are_bitwise_the_full_ones():
    # one stack of the Picard benchmark's shape (16 paths of 100 steps,
    # K = 16) observed by a full recorder and a lean one; v_floor = v* = 2
    # floors about half the nodes
    basis = build_basis(DomainSpec(dim=1, lengths=(1.0,),
                                   grid_points_per_axis=64), 16)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=41)
    params = desk_params(sigma=0.3)
    sch = SchemeConfig(dt=1e-3, T=0.1, v_floor=2.0)
    init = default_initial_pair(basis, params)
    fcfg = FunctionalConfig(observation_stride=25)
    full, lean = (FunctionalRecorder(basis, fcfg, sch.v_floor, range(16),
                                     monitors=monitors)
                  for monitors in (True, False))
    final = run_batch(init, params, sch, basis, spec,
                      drawn(spec, sch, range(16)), 16,
                      observer=_Both(full, lean))
    assert not final.failures
    full, lean = full.traces(), lean.traces()
    kept = functionals.ADMISSIBILITY_COLUMNS
    assert sorted(lean.data) == sorted(kept)
    assert np.array_equal(lean.times, full.times)
    for name in kept:
        assert np.array_equal(lean.data[name], full.data[name]), name
    assert full.data["floor_activations"][:, -1].max() > 0
    for name in set(TRACE_COLUMNS[1:]) - set(kept):
        with pytest.raises(KeyError):
            lean.data[name]


def test_picard_memberships_match_a_walk_over_each_iterate(monkeypatch):
    # the picard_1d benchmark's iteration: sweeps of 3 blocks of 16
    # members, the coupled block in the first
    basis = build_basis(DomainSpec(dim=1, lengths=(1.0,),
                                   grid_points_per_axis=64), 16)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=0)
    params = desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.1)
    init = default_initial_pair(basis, params)
    fcfg = FunctionalConfig(observation_stride=25)
    iterates = []
    stack_solve = experiments._stack_solve

    def spy(*args, chain=1, **kwargs):
        stack, final = stack_solve(*args, chain=chain, **kwargs)
        iterates.extend(_block(stack, j, 16) for j in range(chain))
        return stack, final

    monkeypatch.setattr(experiments, "_stack_solve", spy)
    report = picard_iterate(init, params, sch, basis, spec,
                            FixedPointConfig(ensemble_size=16), fcfg)
    assert report.converged and report.iterations == 6
    for got, iterate in zip(report.memberships, iterates):
        want = membership(walk_trace(iterate, basis, fcfg, sch.v_floor,
                                     range(16), monitors=False),
                          report.bounds)
        for part in ("mean_L1", "mean_L2", "sup_mean_L3"):
            assert getattr(got, part) == pytest.approx(
                getattr(want, part), rel=1e-13, abs=0), part
        assert got.ok == want.ok


def test_picard_start_bounds_match_a_walk_over_its_steps(basis):
    # the start's trace is two observations of its one state; every state
    # of the constant start is that state, so a walk over its 2,000 steps
    # gives the same bounds to rounding
    params = desk_params()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=5)
    sch = SchemeConfig(dt=1e-3, T=2.0)
    init = default_initial_pair(basis, params)
    fcfg = FunctionalConfig(observation_stride=25)
    config = FixedPointConfig(max_iterations=1, ensemble_size=1)
    report = picard_iterate(init, params, sch, basis, spec, config, fcfg)
    want = auto_bounds(walk_trace(constant_trajectory(init, sch), basis, fcfg,
                                  sch.v_floor, monitors=False),
                       margin=config.bound_margin)
    for name in ("K1", "K2", "K3"):
        assert getattr(report.bounds, name) == pytest.approx(
            getattr(want, name), rel=1e-13, abs=0), name
