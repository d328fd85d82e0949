import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmspde.acceptance import _basis_1d, _desk_params
from gmspde.dynamics import (
    FloorViolation,
    SchemeConfig,
    StateView,
    Stepper,
    constant_pair,
    floor_violation,
    initial_state,
    reject_nonpositive,
    run_batch,
)
from gmspde.functionals import FunctionalConfig, FunctionalRecorder, grad_sq
from gmspde.noise import NoiseSpec
from gmspde.spectral import DomainSpec, build_basis

@pytest.fixture(scope="module")
def basis():
    return _basis_1d()


@pytest.fixture(scope="module")
def basis2d():
    return build_basis(
        DomainSpec(dim=2, lengths=(1.0, 1.0), grid_points_per_axis=16), 9)


def _columns(basis, u_nodal, v_nodal, p=2.0, rho=1.1):
    """Recorder columns of one nodal state after accumulating it over dt = 1."""
    u, v = (np.broadcast_to(np.asarray(f, dtype=float), (1, basis.n_nodes))
            for f in (u_nodal, v_nodal))
    view = StateView(0.0, 0, basis.project(np.stack((u, v))),
                     np.stack((u, v)), np.maximum(v, 1e-8),
                     np.zeros(1, dtype=int), np.ones(1, dtype=bool))
    rec = FunctionalRecorder(basis, FunctionalConfig(p=p, rho=rho))
    rec.accumulate(view, 1.0)
    rec.record(view)
    return {name: float(col[0, 0]) for name, col in rec.traces().data.items()}


def _stepper(basis, v_floor, rows):
    scheme = SchemeConfig(dt=1.0, T=1.0, v_floor=v_floor)
    return Stepper(basis, _desk_params(), scheme,
                   NoiseSpec(2.0, 2.0, basis.mode_count), rows)


def _sources(basis, chi_nodal, v_nodal, v_floor, alive=True):
    """The stepper's sources of the (rows, n_nodes) driver chi and inhibitor v.

    Returns chi^2/max(v, floor), chi^2, the per-row floor counts added to
    zero counts, and the reaction numbers kappa_u max(chi^2/v) dt (dt = 1).
    """
    chi, v = np.broadcast_arrays(*np.atleast_2d(chi_nodal, v_nodal))
    rows = len(v)
    nodal = np.stack((np.zeros_like(v), v)).astype(float)
    view = StateView(0.0, 0, np.zeros((2, rows, basis.mode_count)), nodal,
                     np.maximum(nodal[1], v_floor), np.zeros(rows, dtype=int),
                     np.broadcast_to(alive, (rows,)).copy())
    out = np.empty_like(nodal)
    peak = _stepper(basis, v_floor, rows)._sources(view, chi, out)
    return out[0], out[1], view.floor_activations, peak


def _grad_energy(basis, modal, weight=1.0):
    """int weight |grad f|^2 dx from the recorder's nodal |grad f|^2."""
    return float(basis.weights @ (weight * grad_sq(basis, np.asarray(modal))))


def test_eigenfunction_nodal_projects_to_unit_coefficient(basis):
    modal = basis.project(basis.synthesize(np.eye(16))[3])
    expected = np.zeros(16)
    expected[3] = 1.0
    assert np.abs(modal - expected).max() < 1e-10


def test_constant_projects_to_mode_zero():
    dom = DomainSpec(dim=1, lengths=(2.0,), grid_points_per_axis=32)
    b = build_basis(dom, 8)
    modal = constant_pair(b, 3.0, 1.0)[0]
    assert modal[0] == pytest.approx(3.0 * np.sqrt(2.0), rel=1e-14)
    assert np.abs(modal[1:]).max() < 1e-12


def test_roundtrip_band_limited(basis):
    rng = np.random.default_rng(42)
    modal = rng.standard_normal(16)
    nodal = basis.synthesize(modal)
    again = basis.project(nodal)
    assert np.abs(again - modal).max() < 1e-10
    assert np.abs(basis.synthesize(again) - nodal).max() < 1e-10


def test_to_modal_to_nodal_materialize(basis):
    # state 0 holds copies of the (2, K) initial data and their nodal rows
    init = np.random.default_rng(1).standard_normal((2, 16))
    state = initial_state(basis, init, 3, 0.25)
    assert np.array_equal(state.u_modal, np.tile(init[0], (3, 1)))
    assert np.array_equal(state.v_modal, np.tile(init[1], (3, 1)))
    assert np.array_equal(state.v_nodal, basis.synthesize(state.v_modal))
    assert np.array_equal(state.v_floored, np.maximum(state.v_nodal, 0.25))
    assert (state.v_nodal < 0.25).any()
    assert not np.shares_memory(state.u_modal, init)
    with pytest.raises(ValueError, match=r"needs \(2, 16\)"):
        initial_state(basis, init[:, :8], 1, 1e-8)


def test_norm_lp_constant_and_eigenfunction(basis):
    # v = 2: |v|_L1 = 2 and |xi|_L3^3 = 1/8; u = e_5, v = 1: |u|_L2^2 = 1
    cols = _columns(basis, 0.0, 2.0, p=3.0)
    assert cols["eta_l1"] == pytest.approx(2.0)
    assert cols["xi_lp_p"] ** (1.0 / 3.0) == pytest.approx(0.5)
    e5 = basis.synthesize(np.eye(16)[5])
    assert _columns(basis, e5, 1.0)["int_chi2_xi"] == pytest.approx(
        1.0, abs=1e-10)
    with pytest.raises(ValueError, match="p must be"):
        FunctionalConfig(p=0.5)


def test_norm_lp_sine_profile_against_analytic_oracle():
    # sin(pi x) on [0,1]: |f|_L1 = 2/pi, |f|_L2^2 = 1/2, |f|_L3^3 = 4/(3 pi)
    # trapezoid error ~ pi/6 N^-2 for the L1 case, so the grid must be fine
    b = _basis_1d(n=16384, k=4)
    sine = np.sin(np.pi * b.axes[0])
    assert _columns(b, 1.0, sine)["eta_l1"] == pytest.approx(
        2.0 / np.pi, abs=1e-8)
    cols = _columns(b, sine, 1.0)
    assert np.sqrt(cols["int_chi2_xi"]) == pytest.approx(np.sqrt(0.5), abs=1e-8)
    assert cols["int_u_chi2_xi"] ** (1.0 / 3.0) == pytest.approx(
        (4.0 / (3.0 * np.pi)) ** (1.0 / 3.0), abs=1e-8)


def _hs_sq(basis, modal, s):
    """The recorder's |u|_{H^s}^2 column, s = 1 - rho."""
    nodal = basis.synthesize(np.asarray(modal, dtype=float))
    return _columns(basis, nodal, 1.0, rho=1.0 - s)["chi_h1mrho_sq"]


def test_norm_hs_single_mode_and_zero_order(basis):
    lam3 = basis.eigenvalues[3]
    e3 = np.eye(16)[3]
    for s in (-1.0, -0.1, 0.0, 0.5, 2.0):
        assert np.sqrt(_hs_sq(basis, e3, s)) == pytest.approx(
            (1 + lam3) ** (s / 2), rel=1e-13)
    f = basis.synthesize(np.random.default_rng(7).standard_normal(16))
    cols = _columns(basis, f, 1.0, rho=1.0)
    assert np.sqrt(cols["chi_h1mrho_sq"]) == pytest.approx(
        np.sqrt(cols["int_chi2_xi"]), abs=1e-10)


def test_norm_hs_constant_equals_l2_for_negative_order(basis):
    cols = _columns(basis, 4.2, 1.0, rho=2.0)
    assert np.sqrt(cols["chi_h1mrho_sq"]) == pytest.approx(
        np.sqrt(cols["int_chi2_xi"]), rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(s1=st.floats(-2, 2), s2=st.floats(-2, 2), seed=st.integers(0, 1000))
def test_norm_hs_monotone_in_order(basis, s1, s2, seed):
    lo, hi = min(s1, s2), max(s1, s2)
    modal = np.random.default_rng(seed).standard_normal(16)
    assert _hs_sq(basis, modal, lo) <= _hs_sq(basis, modal, hi) * (1 + 1e-12)


def test_parseval(basis):
    modal = np.random.default_rng(3).standard_normal(16)
    cols = _columns(basis, basis.synthesize(modal), 1.0)
    assert np.sqrt(cols["int_chi2_xi"]) == pytest.approx(
        np.sqrt(np.sum(modal**2)), abs=1e-10)


def test_reaction_quotient_examples(basis):
    q, chi2, counts, peak = _sources(basis, np.full(65, 2.0),
                                     np.full(65, 4.0), 1e-8)
    assert np.all(q == 1.0) and np.all(chi2 == 4.0)
    assert counts.tolist() == [0] and peak.tolist() == [1.0]
    q, chi2, counts, peak = _sources(basis, np.zeros(65), np.full(65, 4.0), 0.0)
    assert np.all(q == 0.0) and np.all(chi2 == 0.0)
    assert counts.tolist() == [0] and peak.tolist() == [0.0]


def test_reaction_quotient_floor_activation(basis):
    # per row: one floored node, none, three; a failed row counts none
    floor = 1e-4
    v_nodal = np.ones((4, 65))
    v_nodal[0, 10] = floor / 2
    v_nodal[2, [1, 5, 64]] = 0.0
    v_nodal[3, 7] = floor / 4
    q, _, counts, _ = _sources(basis, np.ones(65), v_nodal, floor,
                               alive=[True, True, True, False])
    assert counts.tolist() == [1, 0, 3, 0]
    assert q[0, 10] == pytest.approx(1.0 / floor)
    assert np.all(q[2, [1, 5, 64]] == 1.0 / floor)
    assert np.all(np.delete(q[0], 10) == 1.0)


def test_reaction_quotient_zero_floor_rejects_nonpositive(basis):
    v_nodal = np.full((3, 65), 1.0)
    v_nodal[1, 7] = -0.5
    v_nodal[2, 3] = 0.0
    with pytest.raises(FloorViolation) as err:
        reject_nonpositive(v_nodal)
    assert err.value.node_index == 7
    assert str(err.value) == ("inhibitor is nonpositive at flat node 7 "
                              "(value -0.5) and no floor is set")
    # a zero-floor stack whose state 0 has v <= 0 at a mid-grid node
    # raises row 0's error before the first step, with or without an
    # observer, and draws no noise
    init = np.zeros((2, basis.mode_count))
    init[:, 0] = 1.0
    init[1, 1] = 2.0
    v0 = basis.synthesize(init[1])
    want = floor_violation(v0)
    assert 0 < want.node_index < 64

    class Recorder:
        def observe(self, view, dt):
            raise AssertionError("state 0 was observed")

    def draw(n0, n1):
        raise AssertionError("noise was drawn")

    for observer in (None, Recorder()):
        with pytest.raises(FloorViolation) as err:
            run_batch(init, _desk_params(),
                      SchemeConfig(dt=0.1, T=1.0, v_floor=0.0), basis,
                      NoiseSpec(2.0, 2.0, basis.mode_count), draw, 3,
                      observer)
        assert err.value.node_index == want.node_index
        assert str(err.value) == str(want)


def dipped(basis, mode):
    """(2, K) data u = v = 1 but for v's ``mode``, which takes v to -0.0005.

    v = 1 + 1.0005 cos(mode pi x) on the unit interval is nonpositive
    where cos(mode pi x) = -1 alone: at node 64 / mode and its odd
    multiples.
    """
    init = np.zeros((2, basis.mode_count))
    init[:, 0] = 1.0
    init[1, mode] = 1.0005 / np.sqrt(2.0)
    return init


MESSAGE = ("inhibitor is nonpositive at flat node {} (value -0.0005) and no "
           "floor is set")


def test_initial_state_zero_floor_rejects_nonpositive(basis):
    # v <= 0 at nodes 8, 24, 40 and 56: state 0 reports the first; a
    # positive floor, however small, floors them instead
    init = dipped(basis, 8)
    with pytest.raises(FloorViolation) as err:
        initial_state(basis, init, 1, 0.0)
    assert err.value.node_index == 8
    assert str(err.value) == MESSAGE.format(8)
    state = initial_state(basis, init, 1, 1e-8)
    assert np.flatnonzero(state.v_nodal[0] <= 0.0).tolist() == [8, 24, 40, 56]
    assert np.all(state.v_floored[0, [8, 24, 40, 56]] == 1e-8)


@pytest.mark.parametrize("rows", [1, 3], ids=["one_row", "three_rows"])
def test_initial_state_zero_floor_rejects_nonpositive_v_like_the_oracle(
        basis, rows):
    # the error of the stack's state 0 is the oracle's on the solo
    # synthesis of v: the same node, relative to the row, and message
    init = dipped(basis, 8)
    with pytest.raises(FloorViolation) as want:
        reject_nonpositive(basis.synthesize(init[1]))
    with pytest.raises(FloorViolation) as got:
        initial_state(basis, init, rows, 0.0)
    assert got.value.node_index == want.value.node_index == 8
    assert str(got.value) == str(want.value) == MESSAGE.format(8)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_reaction_quotient_degree_two_homogeneity(basis, seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.1, 2.0, (2, 65))
    v = rng.uniform(0.5, 3.0, (2, 65))
    q1 = _sources(basis, u, v, 0.0)[0]
    q2 = _sources(basis, 2.0 * u, v, 0.0)[0]
    assert np.array_equal(q2, 4.0 * q1)


@pytest.mark.parametrize("convention", ["neumann_cosine", "paper_1d"])
def test_gradient_energy_of_eigenfunction_is_eigenvalue(convention):
    b = _basis_1d(n=128, k=12, convention=convention)
    for k in (1, 4, 7):
        assert _grad_energy(b, np.eye(12)[k]) == pytest.approx(
            b.eigenvalues[k], rel=1e-8)


def test_gradient_energy_2d(basis2d):
    for k in (1, 3, 5):
        assert _grad_energy(basis2d, np.eye(9)[k]) == pytest.approx(
            basis2d.eigenvalues[k], rel=1e-8)


def test_gradient_energy_trivial_cases(basis):
    const_modal = np.zeros(16)
    const_modal[0] = 5.0
    assert _grad_energy(basis, const_modal) == 0.0
    # a projected constant carries only rounding-level ringing
    assert _grad_energy(basis, constant_pair(basis, 5.0, 1.0)[0]) < 1e-20
    assert _grad_energy(basis, np.eye(16)[2], weight=np.zeros(65)) == 0.0


def test_dealias_zeroes_top_third(basis, basis2d):
    # the stepper's projection of products keeps every mode whose indices
    # are all at most 2/3 of the top index, bit for bit, and zeros the rest
    for b in (basis, basis2d):
        top = b.mode_indices.max()
        cutoff = int(np.floor(2.0 / 3.0 * top))
        keep = np.array([max(idx) <= cutoff for idx in b.mode_indices])
        assert keep.any() and not keep.all()
        nodal = b.synthesize(np.ones(b.mode_count))
        pair = np.stack([nodal, 2 * nodal])
        got = _stepper(b, 1e-8, 1)._project(pair[:, None])[:, 0]
        want = b.project(pair)
        assert np.array_equal(got[..., keep], want[..., keep])
        assert np.all(got[..., ~keep] == 0.0)
    assert int(np.floor(2.0 / 3.0 * 15)) == 10


def test_pair_admissibility(basis):
    # constant initial data synthesizes to its constants, signs included
    good = basis.synthesize(constant_pair(basis, 0.0, 1.0))
    assert np.all(good[0] >= 0.0) and np.all(good[1] > 0.0)
    bad = basis.synthesize(constant_pair(basis, -0.1, 1.0))
    assert np.all(bad[0] < 0.0)
    assert np.abs(bad - [[-0.1], [1.0]]).max() < 1e-14
