import numpy as np
import pytest

from gmspde import experiments, functionals
from gmspde.acceptance import _basis_1d, _desk_params
from gmspde.dynamics import (
    SchemeConfig,
    StateView,
    constant_pair,
    default_initial_pair,
    reject_nonpositive,
    run,
    run_batch,
)
from gmspde.experiments import (
    FixedPointConfig,
    ensemble,
    picard_iterate,
)
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
    xi_nodal,
)
from gmspde.noise import NoiseSpec, drawn
from gmspde.spectral import DomainSpec, build_basis
from stores import States

K = 8


@pytest.fixture(scope="module")
def basis():
    return _basis_1d(k=K)


def quotient_nodal(u_nodal, v_nodal, v_floor):
    """Oracle u^2/max(v, floor), dividing by v itself under a zero floor."""
    if v_floor == 0.0:
        reject_nonpositive(v_nodal)
        return np.divide(u_nodal * u_nodal, v_nodal)
    return np.divide(u_nodal * u_nodal, np.maximum(v_nodal, v_floor))


# the step of the constant stacks: 8 steps to T = 1
DT = 0.125


def constant(pair, n_steps=8):
    """One-row (2, 1, n+1, K) stack of the time-constant (2, K) ``pair``."""
    return np.broadcast_to(pair[:, None, None],
                           (2, 1, n_steps + 1, pair.shape[1]))


def const_traj(basis, chi_value, eta_value):
    """One-row stack of a time-constant (chi, eta), 8 steps of :data:`DT`."""
    pair = np.zeros((2, K))
    pair[:, 0] = np.array([chi_value, eta_value]) * np.sqrt(basis.volume)
    return constant(pair)


def walk_trace(traj, basis, fcfg, v_floor, monitors=True, dt=DT):
    """Trace of a (2, B, n+1, K) stack, walked state by state.

    The recorder's schedule on ``run_batch``'s walk, written out as an
    oracle of :meth:`FunctionalRecorder.observe`: state i, at t = i dt,
    is recorded (state 0, every ``stride``-th and the last) before it is
    accumulated over dt (every state but the last).  Its
    ``floor_activations`` count the floored nodes of the pre-step states,
    as the stepper does.
    """
    rows, n = traj.shape[1], traj.shape[2] - 1
    rec = FunctionalRecorder(basis, fcfg, monitors)
    floors = np.zeros(rows, dtype=int)
    for i in range(n + 1):
        modal = np.ascontiguousarray(traj[:, :, i])
        nodal = basis.synthesize(modal)
        view = StateView(t=i * dt, step_index=i, modal=modal, nodal=nodal,
                         v_floored=np.maximum(nodal[1], v_floor),
                         floor_activations=floors.copy(),
                         alive=np.ones(rows, dtype=bool))
        if i % rec.stride == 0 or i == n:
            rec.record(view)
        if i < n:
            rec.accumulate(view, dt)
            floors += np.count_nonzero(view.v_nodal < v_floor, axis=-1)
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
    xi = xi_nodal(np.full(65, 2.0))
    assert np.all(xi == 0.5)

    xi = xi_nodal(np.ones(65))
    ln_mass = float(basis.weights @ np.log(xi))
    assert ln_mass == 0.0

    v = np.random.default_rng(0).uniform(0.5, 3.0, 65)
    xi = xi_nodal(v)
    assert np.abs(v * xi - 1.0).max() < 1e-12
    # floored nodes read 1/floor; xi is the quotient with unit numerator
    v[[3, 9]] = [1e-9, -2.0]
    xi = xi_nodal(np.maximum(v, 1e-8))
    assert xi[3] == xi[9] == 1e8
    assert xi.tobytes() == quotient_nodal(1.0, v, 1e-8).tobytes()
    out = np.empty(65)
    assert xi_nodal(np.maximum(v, 1e-8), out=out) is out
    assert out.tobytes() == xi.tobytes()


def _state(basis, rows, seed, v_floor):
    """A (2, rows, .) state of random fields about 1.5, v > 0 at every node."""
    rng = np.random.default_rng(seed)
    modal = 0.1 * rng.standard_normal((2, rows, basis.mode_count))
    modal[:, :, 0] += 1.5 * np.sqrt(basis.volume)
    nodal = basis.synthesize(modal)
    assert nodal[1].min() > 0.0
    return StateView(0.0, 0, modal, nodal, np.maximum(nodal[1], v_floor),
                     rng.integers(0, 5, rows), np.ones(rows, dtype=bool))


def test_lyapunov_l1_trivial(basis):
    traj = const_traj(basis, 0.0, 1.0)
    trace = walk_trace(traj, basis, FunctionalConfig(observation_stride=1), 1e-8)
    # only the |xi|_p^p = |O| term survives
    assert lyapunov_L1(trace)[0] == pytest.approx(1.0, rel=1e-12)


def test_lyapunov_l1_single_eigenmode(basis):
    # one step with chi = e_1, v = 1: |chi|^2 = 1, grad term = lambda_1 dt
    pair = np.zeros((2, K))
    pair[0, 1] = 1.0
    pair[1, 0] = 1.0
    trace = walk_trace(constant(pair, n_steps=1), basis,
                       FunctionalConfig(observation_stride=1), 1e-8)
    lam1 = basis.eigenvalues[1]
    expected = 1.0 + lam1 * DT + 1.0
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
    params = _desk_params()
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

    pair = np.zeros((2, K))
    pair[0, 0] = 0.5
    pair[0, 1] = -1.0  # pushes some nodes negative
    pair[1, 0] = 1.0
    bad = walk_trace(constant(pair, n_steps=1), basis, cfg, 1e-8, dt=0.5)
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
    params = _desk_params()
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
    params = _desk_params(sigma=0.0)
    cfg = FunctionalConfig(observation_stride=1)
    from gmspde.dynamics import steady_state
    u_star, v_star = steady_state(params)
    traj = const_traj(basis, u_star, v_star)
    trace = walk_trace(traj, basis, cfg, 1e-8)
    fits = energy_monitors(trace, params, cfg,
                           horizons=[0.25, 0.5, 1.0])
    for name in ("xi_lp_sup", "v_l2", "u_h1mrho"):
        assert abs(fits[name].delta) < 1e-10
        assert np.allclose(fits[name].lhs, fits[name].lhs[0])


def test_xi_l1_monitor_for_unit_inhibitor(basis):
    cfg = FunctionalConfig(observation_stride=1)
    trace = walk_trace(const_traj(basis, 0.0, 1.0), basis, cfg, 1e-8)
    fits = energy_monitors(trace, _desk_params(), cfg,
                           horizons=[0.5, 1.0])
    assert np.allclose(fits["xi_l1_pathsup"].lhs, 1.0, atol=1e-12)
    assert np.allclose(fits["xi_l1_meansup"].lhs, 1.0, atol=1e-12)


def test_monitor_envelope_holds_on_stochastic_ensemble(basis):
    params = _desk_params()
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


def test_floor_activation_column_is_the_steppers_count():
    # v = 0.25 < v_floor on all 17 nodes: the stepper floors 17 per step,
    # and the recorder's column is the stepper's count
    basis = _basis_1d(n=16, k=4)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=4)
    params = _desk_params(sigma=0.0)
    sch = SchemeConfig(dt=1e-3, T=4e-3, v_floor=0.5)
    pair = constant_pair(basis, 0.1, 0.25)
    fcfg = FunctionalConfig(observation_stride=1)
    live = FunctionalRecorder(basis, fcfg)
    res = run(pair, params, sch, basis, spec, None, observer=live)
    assert res.floor_activations[0] == 4 * 17
    column = live.traces().data["floor_activations"]
    assert column[0, -1] == res.floor_activations[0]
    assert np.array_equal(column[0], 17.0 * np.arange(5))


def _quadrature_oracle(nodal, w):
    return np.einsum("...n,n->...", nodal, w)


def _integrands_oracle(rec, view, v_floor):
    """The integrand integrals as the recorder formed them in new arrays."""
    basis, w = rec.basis, rec.basis.weights
    u_nodal = view.u_nodal
    xi = quotient_nodal(1.0, view.v_nodal, v_floor)
    chi2xi = np.multiply(u_nodal, u_nodal)
    chi2xi *= xi
    work = np.multiply(chi2xi, xi)
    values = {"int_grad_chi_sq": np.sum(basis.eigenvalues * view.u_modal**2,
                                        axis=-1),
              "int_chi2_xi": _quadrature_oracle(chi2xi, w),
              "int_xi2_chi2": _quadrature_oracle(work, w)}
    if rec.monitors:
        np.multiply(chi2xi, u_nodal, out=work)
        values["int_u_chi2_xi"] = _quadrature_oracle(work, w)
        np.power(xi, rec.config.p + 2.0, out=xi)
        squares = 0.0     # |grad v|^2, summed axis by axis
        for g in basis.gradients(view.v_modal):
            squares = squares + g * g
        xi *= squares
        values["int_xi_p2_grad_v_sq"] = _quadrature_oracle(xi, w)
    return values


def _observables_oracle(rec, view, v_floor):
    """The recorded state columns, xi formed through quotient_nodal."""
    w = rec.basis.weights
    u_modal, v_modal = view.u_modal, view.v_modal
    u_nodal, v_nodal = view.u_nodal, view.v_nodal
    xi = quotient_nodal(1.0, v_nodal, v_floor)
    p = rec.config.p
    ln_xi = np.log(xi)
    columns = {
        "chi_l2_sq": np.sum(u_modal**2, axis=-1),
        "xi_lp_p": _quadrature_oracle(xi**p, w),
        "xi_l1": _quadrature_oracle(xi, w),
        "int_ln_xi": _quadrature_oracle(ln_xi, w),
        "chi_min": u_nodal.min(axis=-1),
        "chi_argmin": np.argmin(u_nodal, axis=-1).astype(float),
        "eta_min": v_nodal.min(axis=-1),
        "eta_argmin": np.argmin(v_nodal, axis=-1).astype(float),
    }
    if rec.monitors:
        h_weights = (1.0 + rec.basis.eigenvalues) ** (1.0 - rec.config.rho)
        columns.update({
            "abs_ln_xi_l1": _quadrature_oracle(np.abs(ln_xi), w),
            "lnxi_dot_u": _quadrature_oracle(ln_xi * u_nodal, w),
            "chi_h1mrho_sq": np.sum(h_weights * u_modal**2, axis=-1),
            "eta_l2": np.sqrt(np.sum(v_modal**2, axis=-1)),
            "eta_l1": _quadrature_oracle(np.abs(v_nodal), w),
            "floor_activations": view.floor_activations.astype(float),
        })
    return columns


@pytest.mark.parametrize("monitors", [True, False], ids=["full", "lean"])
@pytest.mark.parametrize("v_floor", [0.0, 1.5])
@pytest.mark.parametrize("dom,k,rows", [
    (DomainSpec(dim=1, lengths=(1.0,), grid_points_per_axis=64), 16, 7),
    (DomainSpec(dim=2, lengths=(1.0, 1.5), grid_points_per_axis=32), 20, 2),
], ids=["1d", "2d"])
def test_recorder_columns_are_bitwise_the_formulas_in_new_arrays(
        dom, k, rows, v_floor, monitors):
    # three states: recorded, accumulated over two steps of different dt
    # (as Picard's start accumulates once over its horizon), recorded;
    # v_floor = 1.5 floors part of every state, v_floor = 0 none
    basis = build_basis(dom, k)
    states = [_state(basis, rows, seed, v_floor) for seed in range(3)]
    for view in states:
        assert 0.0 < (view.v_nodal < 1.5).mean() < 1.0
    rec = FunctionalRecorder(basis, FunctionalConfig(), monitors)
    kept = TRACE_COLUMNS[1:] if monitors else functionals.ADMISSIBILITY_COLUMNS
    want = {name: [] for name in kept}
    totals = {}
    for view, dt in zip(states, (1e-3, 0.25, None)):
        rec.record(view)
        row = _observables_oracle(rec, view, v_floor)
        row.update((name, total.copy()) for name, total in totals.items())
        for name in want:
            want[name].append(row.get(name, np.zeros(rows)))
        if dt is not None:
            rec.accumulate(view, dt)
            for name, value in _integrands_oracle(rec, view, v_floor).items():
                totals[name] = totals.get(name, np.zeros(rows)) + dt * value
    got = rec.traces().data
    assert sorted(got) == sorted(want)
    for name, column in want.items():
        assert got[name].tobytes() == np.column_stack(column).tobytes(), name


class _Both:
    """Observer handing one walk to two recorders."""

    def __init__(self, *recorders):
        self.recorders = recorders

    def observe(self, view, dt):
        for rec in self.recorders:
            rec.observe(view, dt)


def test_lean_recorder_columns_are_bitwise_the_full_ones():
    # one stack of the Picard benchmark's shape (16 paths of 100 steps,
    # K = 16) observed by a full recorder and a lean one; v_floor = v* = 2
    # floors about half the nodes
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=41)
    params = _desk_params(sigma=0.3)
    sch = SchemeConfig(dt=1e-3, T=0.1, v_floor=2.0)
    init = default_initial_pair(basis, params)
    fcfg = FunctionalConfig(observation_stride=25)
    full, lean = (FunctionalRecorder(basis, fcfg, monitors=monitors)
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
    # the picard_1d benchmark's iteration: sweeps of 4 and 2 blocks of 16
    # members, the coupled block in the first; each sweep's stack is
    # stored by a rerun of its run_batch call, bit for bit its own
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=0)
    params = _desk_params()
    sch = SchemeConfig(dt=1e-3, T=0.1)
    init = default_initial_pair(basis, params)
    fcfg = FunctionalConfig(observation_stride=25)
    iterates = []

    def spy(*args, observer=None, **kwargs):
        store = States()
        run_batch(*args, observer=store, **kwargs)
        stack = store.trajectories()
        # the sweep's depth from its height: the first also steps the
        # coupled block, on top
        depth = stack.shape[1] // 16 - (not iterates)
        iterates.extend(stack[:, j * 16:(j + 1) * 16] for j in range(depth))
        return run_batch(*args, observer=observer, **kwargs)

    monkeypatch.setattr(experiments, "run_batch", spy)
    report = picard_iterate(init, params, sch, basis, spec,
                            FixedPointConfig(ensemble_size=16), fcfg)
    assert report.converged and report.iterations == 6
    for got, iterate in zip(report.memberships, iterates):
        want = membership(walk_trace(iterate, basis, fcfg, sch.v_floor,
                                     monitors=False, dt=sch.dt),
                          report.bounds)
        for part in ("mean_L1", "mean_L2", "sup_mean_L3"):
            assert getattr(got, part) == pytest.approx(
                getattr(want, part), rel=1e-13, abs=0), part
        assert got.ok == want.ok


def test_picard_start_bounds_match_a_walk_over_its_steps(basis):
    # the start's trace is two observations of its one state; every state
    # of the constant start is that state, so a walk over its 2,000 steps
    # gives the same bounds to rounding
    params = _desk_params()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=5)
    sch = SchemeConfig(dt=1e-3, T=2.0)
    init = default_initial_pair(basis, params)
    fcfg = FunctionalConfig(observation_stride=25)
    config = FixedPointConfig(max_iterations=1, ensemble_size=1)
    report = picard_iterate(init, params, sch, basis, spec, config, fcfg)
    want = auto_bounds(walk_trace(constant(init, n_steps=sch.n_steps()),
                                  basis, fcfg, sch.v_floor, monitors=False,
                                  dt=sch.dt),
                       margin=config.bound_margin)
    for name in ("K1", "K2", "K3"):
        assert getattr(report.bounds, name) == pytest.approx(
            getattr(want, name), rel=1e-13, abs=0), name
