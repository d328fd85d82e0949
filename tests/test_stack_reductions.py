"""Reductions of a trace stack equal their per-row loop, bit for bit.

``ensemble``, ``energy_monitors`` and ``membership`` read the (B, n_obs)
columns of one :class:`~gmspde.functionals.FunctionalTrace`.  The
reference here loops over one-path traces, one row each, and reduces
Python lists of per-path values in path order; every statistic, monitor
and membership value must match it exactly, with paths that fail left
out.
"""

import numpy as np
import pytest

from gmspde.acceptance import _basis_1d, _desk_params
from gmspde.dynamics import (
    SchemeConfig,
    StateView,
    Stepper,
    default_initial_pair,
    run_batch,
)
from gmspde.experiments import ensemble
from gmspde.functionals import (
    AdmissibleSetSpec,
    FunctionalConfig,
    FunctionalRecorder,
    energy_monitors,
    fit_growth_envelope,
    membership,
    xi_nodal,
)
from gmspde.noise import NoiseSpec, drawn

# the desk model at sigma = 1 and this CFL limit: of paths 0..8, paths 0, 2
# and 8 break the limit mid-run, at steps 18, 9 and 49
SCHEME = SchemeConfig(dt=1e-3, T=0.05, reaction_cfl_limit=0.0028)
SPEC = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=808)
FCFG = FunctionalConfig(observation_stride=7)
N_PATHS = 9
HORIZONS = [0.014, 0.035, 0.05]


@pytest.fixture(scope="module")
def basis():
    return _basis_1d()


@pytest.fixture(scope="module")
def report(basis):
    params = _desk_params(sigma=1.0)
    init = default_initial_pair(basis, params)
    return ensemble(init, params, SCHEME, basis, SPEC, N_PATHS, FCFG,
                    horizons=HORIZONS)


@pytest.fixture(scope="module")
def per_path(basis):
    """One-row trace stacks of the surviving paths, in path order."""
    params = _desk_params(sigma=1.0)
    init = default_initial_pair(basis, params)
    rec = FunctionalRecorder(basis, FCFG)
    final = run_batch(init, params, SCHEME, basis, SPEC,
                      drawn(SPEC, SCHEME, range(N_PATHS)), N_PATHS,
                      observer=rec)
    stack = rec.traces()
    return [stack.rows([row]) for row in range(N_PATHS)
            if row not in final.failures]


def reference_monitors(traces, params, p, horizons):
    """Monitor (lhs, init) per name from lists over one-row traces."""
    idxs = [traces[0].window(h) for h in horizons]

    def over(name, i):
        return float(np.mean([t.data[name][0, : i + 1].max() for t in traces]))

    def at(name, i):
        return float(np.mean([t.data[name][0, i] for t in traces]))

    curve = np.mean([t.data["xi_l1"][0] for t in traces], axis=0)
    terms = {
        "xi_lp_sup": (lambda i: over("xi_lp_p", i),
                      lambda i: at("xi_lp_p", 0)),
        "xi_lp_energy": (lambda i: over("xi_lp_p", i) + 2 * p * (p + 1)
                         * params.r_v * at("int_xi_p2_grad_v_sq", i),
                         lambda i: at("xi_lp_p", 0)),
        "xi_l1_pathsup": (lambda i: over("xi_l1", i)
                          + params.kappa_v * at("int_xi2_chi2", i),
                          lambda i: at("xi_l1", 0)),
        "xi_l1_meansup": (lambda i: float(curve[: i + 1].max())
                          + params.kappa_v * at("int_xi2_chi2", i),
                          lambda i: at("xi_l1", 0)),
        "ln_xi": (lambda i: at("abs_ln_xi_l1", i)
                  + params.kappa_v * at("int_chi2_xi", i),
                  lambda i: at("eta_l1", 0) + at("abs_ln_xi_l1", 0)),
        "u_energy": (lambda i: over("chi_l2_sq", i)
                     + 4 * params.r_u * at("int_grad_chi_sq", i),
                     lambda i: at("chi_l2_sq", 0)
                     + 2 * params.kappa_u * at("int_u_chi2_xi", i)),
        "lnxi_u": (lambda i: at("lnxi_dot_u", i) - at("lnxi_dot_u", 0)
                   + params.kappa_u * at("int_u_chi2_xi", i),
                   lambda i: 1.0 + abs(at("lnxi_dot_u", 0))),
        "u_h1mrho": (lambda i: over("chi_h1mrho_sq", i),
                     lambda i: 1.0 + at("chi_h1mrho_sq", 0)),
        "v_l2": (lambda i: over("eta_l2", i),
                 lambda i: 1.0 + at("eta_l2", 0)),
    }
    return {name: (np.array([lhs(i) for i in idxs]),
                   np.array([init(i) for i in idxs]))
            for name, (lhs, init) in terms.items()}


def reference_membership(traces):
    """(failure row, E L1, E L2, sup_t E L3) from lists over one-row traces."""
    rows = [{name: col[0] for name, col in t.data.items()} for t in traces]
    bad = [r for r, d in enumerate(rows) if (d["chi_min"] < 0.0).any()
           or (d["eta_min"] <= 0.0).any()]
    l1 = [d["chi_l2_sq"].max() + d["int_grad_chi_sq"][-1]
          + d["xi_lp_p"].max() for d in rows]
    l2 = [d["int_chi2_xi"][-1] ** 2 + d["int_xi2_chi2"][-1] for d in rows]
    l3 = [d["xi_lp_p"] + d["xi_l1"] + d["int_ln_xi"] ** 2 for d in rows]
    return (bad[0] if bad else None, float(np.mean(l1)), float(np.mean(l2)),
            float(np.mean(l3, axis=0).max()))


def test_the_ensemble_has_three_failures_mid_run(report, per_path):
    assert [idx for idx, _ in report.failures] == [0, 2, 8]
    assert all(" at step 0:" not in msg for _, msg in report.failures)
    assert report.survivors == len(per_path) == 6


def test_ensemble_statistics_equal_the_per_row_loop(report, per_path):
    m = len(per_path)
    assert np.array_equal(report.times, per_path[0].times)
    for name in per_path[0].data:
        stack = np.vstack([t.data[name] for t in per_path])
        assert np.array_equal(report.traces.data[name], stack), name
        assert np.array_equal(report.means[name], stack.mean(axis=0)), name
        se = (stack - stack[0]).std(axis=0, ddof=1) / np.sqrt(m)
        assert np.array_equal(report.standard_errors[name], se), name


def test_energy_monitors_equal_the_per_row_loop(report, per_path):
    params = _desk_params(sigma=1.0)
    want = reference_monitors(per_path, params, FCFG.p, HORIZONS)
    fits = energy_monitors(report.traces, params, FCFG, horizons=HORIZONS)
    assert list(fits) == list(want) == list(report.monitors)
    for name, (lhs, init) in want.items():
        for fit in (fits[name], report.monitors[name]):
            assert np.array_equal(fit.lhs, lhs), name
            assert np.array_equal(fit.init, init), name
            c, delta, blow = fit_growth_envelope(HORIZONS, lhs, init)
            assert (fit.C, fit.delta, fit.blow_up) == (c, delta, blow), name


def test_membership_equals_the_per_row_loop(report, per_path):
    bounds = AdmissibleSetSpec(K1=100.0, K2=100.0, K3=100.0)
    bad, mean_l1, mean_l2, sup_l3 = reference_membership(per_path)
    got = membership(report.traces, bounds)
    assert bad is None and got.positivity_ok
    assert (got.mean_L1, got.mean_L2, got.sup_mean_L3) == (mean_l1, mean_l2,
                                                          sup_l3)


def test_membership_names_the_first_bad_row(report):
    # eta_min of row 3 made nonpositive at its second record
    stack = report.traces.rows(list(range(report.survivors)))
    stack.data["eta_min"][3, 1] = 0.0
    rep = membership(stack, AdmissibleSetSpec(K1=1e6, K2=1e6, K3=1e6))
    node = int(stack.data["eta_argmin"][3, 1])
    assert not rep.positivity_ok
    assert rep.failure == (f"eta <= 0 on row 3 at t = {stack.times[1]:g}, "
                           f"node {node} (value 0)")


def test_xi_nodal_is_the_steppers_quotient_at_unit_chi(basis):
    # xi and the stepper's reaction quotient at chi = 1 share their bits,
    # and the stepper counts the floored nodes of each row
    rng = np.random.default_rng(17)
    v = rng.uniform(-0.5, 3.0, (15, basis.n_nodes))
    positive = np.abs(v) + 0.1
    for stack, floor in ((v, 1e-8), (v, 0.25), (v, 2.0), (positive, 0.0)):
        view = StateView(0.0, 0, np.zeros((2, 15, 16)),
                         np.stack((np.ones_like(stack), stack)),
                         np.maximum(stack, floor),
                         np.zeros(15, dtype=int), np.ones(15, dtype=bool))
        out = np.empty_like(view.nodal)
        stepper = Stepper(basis, _desk_params(sigma=1.0),
                          SchemeConfig(dt=1.0, T=1.0, v_floor=floor), SPEC, 15)
        stepper._sources(view, view.u_nodal, out)
        assert xi_nodal(view.v_floored).tobytes() == out[0].tobytes()
        counts = np.count_nonzero(stack < floor, axis=-1)
        assert np.array_equal(view.floor_activations, counts)
        assert (counts.sum() > 0) == (floor > 0)
