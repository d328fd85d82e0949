import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gmspde.dynamics import ModelParams, SchemeConfig, Stepper
from gmspde.noise import NoiseSpec
from gmspde.spectral import DomainSpec, build_basis, mode_list


def unit_interval(convention="neumann_cosine", n=64):
    return DomainSpec(dim=1, lengths=(1.0,), eigenvalue_convention=convention,
                      grid_points_per_axis=n)


def test_paper_convention_reproduces_4pi2_k2():
    basis = build_basis(unit_interval("paper_1d"), 12)
    k = np.arange(12)
    assert np.allclose(basis.eigenvalues, 4 * np.pi**2 * k**2, rtol=0, atol=0)
    assert basis.eigenvalues[1] == pytest.approx(39.4784176, abs=1e-6)


def test_square_domain_eigenvalue_formula():
    dom = DomainSpec(dim=2, lengths=(1.0, 1.0), grid_points_per_axis=16)
    basis = build_basis(dom, 8)
    # (1,1) is the fourth mode on the unit square after (0,0), (0,1), (1,0)
    assert tuple(basis.mode_indices[3]) == (1, 1)
    assert basis.eigenvalues[3] == pytest.approx(2 * np.pi**2, rel=1e-14)


def test_rectangle_eigenvalues_sorted_with_lex_tiebreak():
    dom = DomainSpec(dim=2, lengths=(1.0, 2.0), grid_points_per_axis=32)
    basis = build_basis(dom, 12)
    lam = basis.eigenvalues
    assert np.all(np.diff(lam) >= -1e-14)
    # brute-force oracle over the candidate lattice
    cand = sorted(
        ((l * np.pi) ** 2 + (m * np.pi / 2.0) ** 2, l, m)
        for l in range(12) for m in range(12)
    )[:12]
    assert [tuple(idx) for idx in basis.mode_indices] == [
        (l, m) for _, l, m in cand
    ]
    # the mode list searches a box around the first modes; it must give
    # the bits of a sort of the whole K x K lattice, same formula
    for lengths in ((1.0, 1.0), (1.0, 2.0), (1.0, 7.3), (3.1, 0.05),
                    (0.02, 5.0)):
        a, b = lengths
        dom = DomainSpec(dim=2, lengths=lengths, grid_points_per_axis=4096)
        for k in [*range(1, 131), 256, 1024]:
            l, m = np.divmod(np.arange(k * k), k)
            lam = (l * np.pi / a) ** 2 + (m * np.pi / b) ** 2
            order = np.lexsort((m, l, lam))[:k]
            got_lam, got_idx = mode_list(dom, k)
            assert np.array_equal(got_lam, lam[order]), (lengths, k)
            assert np.array_equal(
                got_idx, np.column_stack((l[order], m[order]))), (lengths, k)


def test_mode_zero_is_constant_inverse_sqrt_volume():
    dom = DomainSpec(dim=1, lengths=(2.0,), grid_points_per_axis=32)
    basis = build_basis(dom, 4)
    assert basis.eigenvalues[0] == 0.0
    table = basis.synthesize(np.eye(4))
    assert np.allclose(table[0], 1.0 / np.sqrt(2.0), atol=1e-15)


@pytest.mark.parametrize("dom", [
    unit_interval("neumann_cosine", 256),
    unit_interval("paper_1d", 256),
    DomainSpec(dim=2, lengths=(1.0, 1.5), grid_points_per_axis=64),
])
def test_orthonormality_under_stored_quadrature(dom):
    k = 64 if dom.dim == 1 else 32
    basis = build_basis(dom, k)
    gram = basis.project(basis.synthesize(np.eye(k)))
    assert np.abs(gram - np.eye(k)).max() < 1e-10


def test_quadrature_agrees_with_independent_integrator():
    basis = build_basis(unit_interval(n=128), 8)
    a = 1.0
    f35 = lambda x: (np.sqrt(2 / a) * np.cos(3 * np.pi * x / a)
                     * np.sqrt(2 / a) * np.cos(5 * np.pi * x / a))
    f33 = lambda x: 2 / a * np.cos(3 * np.pi * x / a) ** 2
    oracle_35, _ = quad(f35, 0, a)
    oracle_33, _ = quad(f33, 0, a)
    table = basis.synthesize(np.eye(8))
    got_35 = float(basis.weights @ (table[3] * table[5]))
    got_33 = float(basis.weights @ (table[3] * table[3]))
    assert got_35 == pytest.approx(oracle_35, abs=1e-12)
    assert got_33 == pytest.approx(oracle_33, abs=1e-12)


@pytest.mark.parametrize("dom,k", [
    (unit_interval(n=128), 32),
    (DomainSpec(dim=2, lengths=(1.0, 1.0), grid_points_per_axis=64), 25),
])
def test_sup_norm_growth_bound(dom, k):
    # fit the constant on the lower half of the spectrum, verify on the rest
    basis = build_basis(dom, k)
    d = dom.dim
    sup = np.abs(basis.synthesize(np.eye(k))).max(axis=1)
    lam = basis.eigenvalues
    power = lam[1:] ** ((d - 1) / 2.0)
    ratios = sup[1:] / np.maximum(power, 1e-300)
    half = len(ratios) // 2
    c = ratios[:half].max()
    assert np.all(sup[1:] <= c * power * (1 + 1e-12))


def _stepper(basis, gamma, sigma=0.5):
    """Ito stepper whose per-mode multipliers use decay exponent gamma."""
    params = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, sigma, sigma)
    spec = NoiseSpec(gamma, gamma, basis.mode_count)
    return Stepper(basis, params, SchemeConfig(dt=1e-3, T=1e-3), spec, 1)


def test_smoothing_operator_on_two_modes():
    # S(1) = (Id+A)^(-1) is the noise damping at gamma = 2: mode 0 passes,
    # mode 1 of the paper convention is scaled by 1/(1 + 4 pi^2)
    damp = _stepper(build_basis(unit_interval("paper_1d"), 6), 2.0).damp[0, 0]
    assert damp[0] == 1.0
    assert damp[1] == pytest.approx(1.0 / (1.0 + 4 * np.pi**2), rel=1e-15)


@settings(max_examples=25, deadline=None)
@given(gamma=st.floats(0.0, 4.0), sigma=st.floats(0.1, 2.0))
def test_multiplier_composition(gamma, sigma):
    # the Ito correction sigma (Id+A)^(-gamma) is the noise damping
    # (Id+A)^(-gamma/2) applied twice, times sigma
    basis = build_basis(unit_interval(), 8)
    stepper = _stepper(basis, gamma, sigma)
    for lin, damp in zip(stepper._lin, stepper.damp):
        assert np.allclose(lin, sigma * damp * damp, rtol=1e-14, atol=1e-300)


def _weyl_ratios(basis):
    """lambda_k / k^(2/d) over the nonzero modes (Weyl's law)."""
    k = np.arange(1, basis.mode_count)
    return basis.eigenvalues[1:] / k ** (2.0 / basis.domain.dim)


def test_asymptotics_exact_for_paper_convention():
    ratios = _weyl_ratios(build_basis(unit_interval("paper_1d", n=64), 16))
    assert ratios.min() == pytest.approx(4 * np.pi**2, rel=1e-12)
    assert ratios.max() == pytest.approx(4 * np.pi**2, rel=1e-12)


def test_asymptotics_2d_brute_force():
    dom = DomainSpec(dim=2, lengths=(1.0, 1.0), grid_points_per_axis=64)
    ratios = _weyl_ratios(build_basis(dom, 64))
    lattice = sorted(np.pi**2 * (l * l + m * m)
                     for l in range(64) for m in range(64))[1:64]
    oracle = np.array(lattice) / np.arange(1, 64)
    assert ratios.min() == pytest.approx(oracle.min())
    assert ratios.max() == pytest.approx(oracle.max())
    assert 0 < ratios.min() <= ratios.max() < np.inf


def test_build_rejects_aliased_mode_count():
    with pytest.raises(ValueError, match="grid_points_per_axis >= 64"):
        build_basis(unit_interval(n=16), 32)


def test_domain_validation():
    with pytest.raises(ValueError, match="positive"):
        DomainSpec(dim=1, lengths=(-1.0,))
    with pytest.raises(ValueError, match="even"):
        DomainSpec(dim=1, lengths=(1.0,), grid_points_per_axis=7)
    with pytest.raises(ValueError, match="one dimension"):
        DomainSpec(dim=2, lengths=(1.0, 1.0), eigenvalue_convention="paper_1d")
    with pytest.raises(ValueError, match="unknown eigenvalue convention"):
        DomainSpec(dim=1, lengths=(1.0,), eigenvalue_convention="fourier")


def test_repr_is_one_short_line():
    basis = build_basis(DomainSpec(dim=2, lengths=(1.0, 1.5),
                                   grid_points_per_axis=256), 1024)
    text = repr(basis)
    assert "\n" not in text and len(text) < 120, text
    assert text == ("SpectralBasis(lengths=(1.0, 1.5), neumann_cosine, "
                    "N=256, K=1024, M_a=(29, 44))")


def test_build_is_deterministic():
    dom = DomainSpec(dim=2, lengths=(1.0, 1.0), grid_points_per_axis=32)
    b1 = build_basis(dom, 20)
    b2 = build_basis(dom, 20)
    assert np.array_equal(b1.eigenvalues, b2.eigenvalues)
    assert np.array_equal(b1.mode_indices, b2.mode_indices)
    for name in ("cosines", "derivatives", "quadrature"):
        for t1, t2 in zip(getattr(b1, name), getattr(b2, name)):
            assert np.array_equal(t1, t2)


@pytest.mark.parametrize("dom,k", [
    (unit_interval(), 16),
    (DomainSpec(dim=2, lengths=(1.0, 2.0), grid_points_per_axis=16), 16),
])
def test_stacked_transforms_match_per_row_calls(dom, k):
    basis = build_basis(dom, k)
    rng = np.random.default_rng(5)
    modal = rng.standard_normal((7, k))
    nodal = rng.standard_normal((7, basis.n_nodes))
    for stacked, rows in (
        (basis.synthesize(modal), [basis.synthesize(m) for m in modal]),
        (basis.project(nodal), [basis.project(f) for f in nodal]),
    ):
        rows = np.vstack(rows)
        assert stacked.shape == rows.shape
        assert np.abs(stacked - rows).max() <= 1e-13 * np.abs(rows).max()


def _oracle_tables(basis):
    """Dense (K, n_nodes) tables of e_k and its gradient, mode by mode."""
    dom = basis.domain
    half_periods = 2 if dom.eigenvalue_convention == "paper_1d" else 1
    grid = np.meshgrid(*basis.axes, indexing="ij")
    k_count = basis.mode_count
    values = np.ones((k_count,) + basis.grid_shape)
    grads = np.ones((dom.dim, k_count) + basis.grid_shape)
    for k in range(k_count):
        for ax, length in enumerate(dom.lengths):
            l = basis.mode_indices[k, ax]
            q = half_periods * np.pi * l / length
            c = np.sqrt((1.0 if l == 0 else 2.0) / length)
            cos = c * np.cos(q * grid[ax])
            values[k] *= cos
            for g in range(dom.dim):
                grads[g, k] *= -c * q * np.sin(q * grid[ax]) if g == ax else cos
    n = basis.n_nodes
    return values.reshape(k_count, n), grads.reshape(dom.dim, k_count, n)


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


RECTANGLE = DomainSpec(dim=2, lengths=(1.0, 2.5), grid_points_per_axis=32)


@pytest.mark.parametrize("dom,k", [
    (unit_interval("neumann_cosine", 64), 16),
    (unit_interval("paper_1d", 64), 12),
    (RECTANGLE, 20),
], ids=["neumann_cosine", "paper_1d", "rectangle"])
def test_transforms_match_per_mode_oracle(dom, k):
    basis = build_basis(dom, k)
    if dom.dim == 2:
        assert len(basis.cosines[0]) != len(basis.cosines[1])
    values, grads = _oracle_tables(basis)
    rng = np.random.default_rng(9)
    modal = rng.standard_normal((3, k))
    nodal = rng.standard_normal((3, basis.n_nodes))
    _assert_close(basis.project(nodal), (basis.weights * nodal) @ values.T)
    _assert_close(basis.synthesize(modal), modal @ values)
    for ax in range(dom.dim):
        _assert_close(basis.gradient(modal, ax), modal @ grads[ax])


@pytest.mark.parametrize("rows", [1, 3, 7, 33])
def test_identical_rows_give_identical_outputs_in_2d_stacks(rows):
    basis = build_basis(RECTANGLE, 20)
    rng = np.random.default_rng(rows)
    one_modal = rng.standard_normal(20)
    one_nodal = rng.standard_normal(basis.n_nodes)
    modal = rng.standard_normal((rows, 20))
    nodal = rng.standard_normal((rows, basis.n_nodes))
    where = sorted({0, rows // 2, rows - 1})
    modal[where] = one_modal
    nodal[where] = one_nodal
    for transform, stack, row in (
        (basis.project, nodal, one_nodal),
        (basis.synthesize, modal, one_modal),
        (lambda m: basis.gradient(m, 0), modal, one_modal),
        (lambda m: basis.gradient(m, 1), modal, one_modal),
    ):
        alone = transform(row[None])[0]
        out = transform(stack)
        for i in where:
            assert np.array_equal(out[i], alone)


def test_fine_2d_basis_stores_no_dense_table():
    basis = build_basis(
        DomainSpec(dim=2, lengths=(1.0, 1.0), grid_points_per_axis=256), 1024)
    arrays = []
    for f in dataclasses.fields(basis):
        value = getattr(basis, f.name)
        items = value if isinstance(value, tuple) else (value,)
        arrays += [a for a in items if isinstance(a, np.ndarray)]
    # the dense (K, n_nodes) table alone was 541 MB; now the largest
    # array is the (n_nodes,) weight vector, 0.53 MB of the total
    assert max(a.size for a in arrays) == basis.n_nodes
    assert sum(a.nbytes for a in arrays) < 2**20
