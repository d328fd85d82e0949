import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmspde.fields import (
    Field,
    FieldPair,
    FloorViolation,
    dealias_modal,
    gradient_sq_integral,
    norm_Hs,
    norm_L2,
    norm_Lp,
    reaction_quotient,
    to_modal,
    to_nodal,
)
from gmspde.spectral import DomainSpec, build_basis


@pytest.fixture(scope="module")
def basis():
    return build_basis(DomainSpec(dim=1, lengths=(1.0,),
                                  grid_points_per_axis=64), 16)


@pytest.fixture(scope="module")
def basis2d():
    return build_basis(
        DomainSpec(dim=2, lengths=(1.0, 1.0), grid_points_per_axis=16), 9)


def test_eigenfunction_nodal_projects_to_unit_coefficient(basis):
    f = Field(basis, nodal=basis.synthesize(np.eye(16))[3])
    modal = f.modal
    expected = np.zeros(16)
    expected[3] = 1.0
    assert np.abs(modal - expected).max() < 1e-10


def test_constant_projects_to_mode_zero():
    dom = DomainSpec(dim=1, lengths=(2.0,), grid_points_per_axis=32)
    b = build_basis(dom, 8)
    f = Field.from_constant(b, 3.0)
    modal = f.modal
    assert modal[0] == pytest.approx(3.0 * np.sqrt(2.0), rel=1e-14)
    assert np.abs(modal[1:]).max() < 1e-12


def test_roundtrip_band_limited(basis):
    rng = np.random.default_rng(42)
    modal = rng.standard_normal(16)
    f = Field(basis, modal=modal)
    g = Field(basis, nodal=f.nodal.copy())
    assert np.abs(g.modal - modal).max() < 1e-10
    h = Field(basis, modal=g.modal.copy())
    assert np.abs(h.nodal - f.nodal).max() < 1e-10


def test_to_modal_to_nodal_materialize(basis):
    f = Field(basis, nodal=basis.synthesize(np.eye(16))[2])
    assert not f.has_modal
    to_modal(f)
    assert f.has_modal
    g = Field(basis, modal=np.ones(16))
    assert not g.has_nodal
    to_nodal(g)
    assert g.has_nodal


def test_field_rejects_nan_and_empty(basis):
    bad = np.ones(65)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Field(basis, nodal=bad)
    with pytest.raises(ValueError, match="at least one representation"):
        Field(basis)


def test_norm_lp_constant_and_eigenfunction(basis):
    assert norm_Lp(Field.from_constant(basis, -2.0), 3.0) == pytest.approx(2.0)
    e5 = Field(basis, modal=np.eye(16)[5])
    assert norm_L2(e5) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError, match="p must be"):
        norm_Lp(e5, 0.5)


def test_norm_lp_sine_profile_against_analytic_oracle():
    # sin(pi x) on [0,1]: |f|_L2 = sqrt(1/2), |f|_L1 = 2/pi, |f|_L4 = (3/8)^(1/4)
    # trapezoid error ~ pi/6 N^-2 for the L1 case, so the grid must be fine
    dom = DomainSpec(dim=1, lengths=(1.0,), grid_points_per_axis=16384)
    b = build_basis(dom, 4)
    f = Field(b, nodal=np.sin(np.pi * b.axes[0]))
    assert norm_L2(f) == pytest.approx(np.sqrt(0.5), abs=1e-8)
    assert norm_Lp(f, 1.0) == pytest.approx(2.0 / np.pi, abs=1e-8)
    assert norm_Lp(f, 4.0) == pytest.approx((3.0 / 8.0) ** 0.25, abs=1e-8)


def test_norm_hs_single_mode_and_zero_order(basis):
    lam3 = basis.eigenvalues[3]
    e3 = Field(basis, modal=np.eye(16)[3])
    for s in (-1.0, -0.1, 0.0, 0.5, 2.0):
        assert norm_Hs(e3, s) == pytest.approx((1 + lam3) ** (s / 2), rel=1e-13)
    rng = np.random.default_rng(7)
    f = Field(basis, modal=rng.standard_normal(16))
    assert norm_Hs(f, 0.0) == pytest.approx(norm_L2(f), abs=1e-10)


def test_norm_hs_constant_equals_l2_for_negative_order(basis):
    c = Field.from_constant(basis, 4.2)
    assert norm_Hs(c, -1.0) == pytest.approx(norm_L2(c), rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(s1=st.floats(-2, 2), s2=st.floats(-2, 2), seed=st.integers(0, 1000))
def test_norm_hs_monotone_in_order(basis, s1, s2, seed):
    lo, hi = min(s1, s2), max(s1, s2)
    modal = np.random.default_rng(seed).standard_normal(16)
    f = Field(basis, modal=modal)
    assert norm_Hs(f, lo) <= norm_Hs(f, hi) * (1 + 1e-12)


def test_parseval(basis):
    rng = np.random.default_rng(3)
    modal = rng.standard_normal(16)
    f = Field(basis, modal=modal)
    assert norm_L2(f) == pytest.approx(np.sqrt(np.sum(modal**2)), abs=1e-10)


def test_reaction_quotient_examples(basis):
    u = Field.from_constant(basis, 2.0)
    v = Field.from_constant(basis, 4.0)
    q, n = reaction_quotient(u, v, 1e-8)
    assert np.allclose(q.nodal, 1.0) and n == 0

    zero = Field.from_constant(basis, 0.0)
    q, n = reaction_quotient(zero, v, 0.0)
    assert np.all(q.nodal == 0.0) and n == 0


def test_reaction_quotient_floor_activation(basis):
    floor = 1e-4
    v_nodal = np.full(65, 1.0)
    v_nodal[10] = floor / 2
    u = Field.from_constant(basis, 1.0)
    q, n = reaction_quotient(u, Field(basis, nodal=v_nodal), floor)
    assert n == 1
    assert q.nodal[10] == pytest.approx(1.0 / floor)


def test_reaction_quotient_zero_floor_rejects_nonpositive(basis):
    v_nodal = np.full(65, 1.0)
    v_nodal[7] = -0.5
    u = Field.from_constant(basis, 1.0)
    with pytest.raises(FloorViolation) as err:
        reaction_quotient(u, Field(basis, nodal=v_nodal), 0.0)
    assert err.value.node_index == 7


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_reaction_quotient_degree_two_homogeneity(basis, seed):
    rng = np.random.default_rng(seed)
    u = Field(basis, nodal=rng.uniform(0.1, 2.0, 65))
    v = Field(basis, nodal=rng.uniform(0.5, 3.0, 65))
    q1, _ = reaction_quotient(u, v, 0.0)
    u2 = Field(basis, nodal=2.0 * u.nodal)
    q2, _ = reaction_quotient(u2, v, 0.0)
    assert np.array_equal(q2.nodal, 4.0 * q1.nodal)


@pytest.mark.parametrize("convention", ["neumann_cosine", "paper_1d"])
def test_gradient_energy_of_eigenfunction_is_eigenvalue(convention):
    dom = DomainSpec(dim=1, lengths=(1.0,), eigenvalue_convention=convention,
                     grid_points_per_axis=128)
    b = build_basis(dom, 12)
    one = Field.from_constant(b, 1.0)
    for k in (1, 4, 7):
        ek = Field(b, modal=np.eye(12)[k])
        got = gradient_sq_integral(ek, one)
        assert got == pytest.approx(b.eigenvalues[k], rel=1e-8)


def test_gradient_energy_2d(basis2d):
    one = Field.from_constant(basis2d, 1.0)
    for k in (1, 3, 5):
        ek = Field(basis2d, modal=np.eye(9)[k])
        assert gradient_sq_integral(ek, one) == pytest.approx(
            basis2d.eigenvalues[k], rel=1e-8)


def test_gradient_energy_trivial_cases(basis):
    one = Field.from_constant(basis, 1.0)
    const_modal = np.zeros(16)
    const_modal[0] = 5.0
    assert gradient_sq_integral(Field(basis, modal=const_modal), one) == 0.0
    # a projected constant carries only rounding-level ringing
    assert gradient_sq_integral(Field.from_constant(basis, 5.0), one) < 1e-20
    e2 = Field(basis, modal=np.eye(16)[2])
    zero = Field.from_constant(basis, 0.0)
    assert gradient_sq_integral(e2, zero) == 0.0


def test_dealias_zeroes_top_third(basis):
    modal = np.ones(16)
    out = dealias_modal(basis, modal)
    cutoff = int(np.floor(2.0 / 3.0 * 15))
    assert np.all(out[: cutoff + 1] == 1.0)
    assert np.all(out[cutoff + 1:] == 0.0)


def test_pair_requires_shared_basis(basis, basis2d):
    u = Field.from_constant(basis, 1.0)
    v = Field.from_constant(basis2d, 1.0)
    with pytest.raises(ValueError, match="share"):
        FieldPair(u, v)


def test_pair_admissibility(basis):
    good = FieldPair(Field.from_constant(basis, 0.0),
                     Field.from_constant(basis, 1.0))
    assert good.is_admissible()
    bad = FieldPair(Field.from_constant(basis, -0.1),
                    Field.from_constant(basis, 1.0))
    assert not bad.is_admissible()
