import numpy as np
import pytest

from gmspde import rng
from gmspde.fields import Field
from gmspde.noise import (
    NoiseSpec,
    coarsen_path,
    coupled_path_hierarchy,
    drawn,
    increment_field,
    sample_path,
    sample_paths,
    sliced,
    trace_of_Q,
    uniform_grid,
)
from gmspde.spectral import DomainSpec, build_basis


@pytest.fixture(scope="module")
def basis():
    dom = DomainSpec(dim=1, lengths=(1.0,), eigenvalue_convention="paper_1d",
                     grid_points_per_axis=256)
    return build_basis(dom, 64)


@pytest.fixture(scope="module")
def spec():
    return NoiseSpec(gamma1=2.0, gamma2=3.0, mode_count=64, master_seed=99)


def test_philox_block_matches_numpy():
    # the block cipher must agree with numpy's Philox for arbitrary
    # keys/counters (numpy pre-increments counter word 0 before a block)
    cases = [
        ((0, 0), (1, 0, 0, 0)),
        ((123, 456), (1, 0, 0, 0)),
        ((2**64 - 1, 7), (9, 3, 2, 1)),
        ((42, 2**63), (2**32, 5, 0, 2**60)),
    ]
    for key, counter in cases:
        mine = rng.philox4x64(np.array(counter, dtype=np.uint64),
                              np.array(key, dtype=np.uint64))
        start = np.array(counter, dtype=np.uint64)
        start[0] -= np.uint64(1)
        ref = np.random.Philox(key=np.array(key, dtype=np.uint64),
                               counter=start).random_raw(4)
        assert np.array_equal(mine, ref)


def test_normal_table_is_pure_function_of_indices():
    a = rng.normal_table(5, 17, 1, np.arange(8), np.arange(16))
    b = rng.normal_table(5, 17, 1, np.arange(8), np.arange(16))
    assert np.array_equal(a, b)
    # sub-tables are slices of the full table
    sub = rng.normal_table(5, 17, 1, np.array([3, 5]), np.array([2, 9]))
    assert sub[0, 0] == a[3, 2]
    assert sub[1, 1] == a[5, 9]


def test_sample_path_reproducible_and_distinct(spec):
    grid = uniform_grid(1.0, 32)
    p1 = sample_path(spec, grid, 4)
    p2 = sample_path(spec, grid, 4)
    p3 = sample_path(spec, grid, 5)
    assert np.array_equal(p1.increments, p2.increments)
    assert not np.array_equal(p1.increments, p3.increments)


def test_increment_moments(spec):
    # >= 1e5 draws pooled from several paths
    grid = uniform_grid(1.0, 800)
    draws = np.concatenate([
        sample_path(spec, grid, i).increments.ravel() for i in range(2)
    ])
    scaled = draws / np.sqrt(1.0 / 800)
    assert scaled.size >= 1e5
    assert abs(scaled.mean()) < 0.02
    assert abs(scaled.var(ddof=1) - 1.0) < 0.02


def test_cross_process_independence(spec):
    grid = uniform_grid(1.0, 800)
    p = sample_path(spec, grid, 0)
    a = p.increments[0].ravel()
    b = p.increments[1].ravel()
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) < 0.02


def test_distinct_mode_streams_uncorrelated(spec):
    grid = uniform_grid(1.0, 2000)
    p = sample_path(spec, grid, 1)
    pairs = [((1 - 1, 3), (1 - 1, 4)), ((0, 0), (1, 0)), ((0, 7), (1, 9))]
    n = 2000
    for (ja, ka), (jb, kb) in pairs:
        corr = float(np.corrcoef(p.increments[ja, ka], p.increments[jb, kb])[0, 1])
        assert abs(corr) < 3.0 / np.sqrt(n)


def test_dt_scaling_doubles_variance(spec):
    g1 = uniform_grid(1.0, 1024)
    g2 = uniform_grid(2.0, 1024)
    v1 = sample_path(spec, g1, 0).increments.var(ddof=1)
    v2 = sample_path(spec, g2, 0).increments.var(ddof=1)
    n = sample_path(spec, g1, 0).increments.size
    se = np.sqrt(2.0 / (n - 1))
    assert abs(v2 / v1 - 2.0) < 3 * 2 * se * 2  # ratio of two noisy variances


def test_mode_count_extension_preserves_prefix():
    grid = uniform_grid(1.0, 16)
    small = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=8, master_seed=5)
    large = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=5)
    ps = sample_path(small, grid, 2)
    pl = sample_path(large, grid, 2)
    assert np.array_equal(pl.increments[:, :8, :], ps.increments)


def test_truncation_monotonicity_of_increment_norm():
    grid = uniform_grid(1.0, 4)
    dom_small = DomainSpec(dim=1, lengths=(1.0,), grid_points_per_axis=64)
    b_small = build_basis(dom_small, 8)
    b_large = build_basis(dom_small, 16)
    s_small = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=8, master_seed=5)
    s_large = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=5)
    for n in range(4):
        f_small = increment_field(sample_path(s_small, grid, 0), n, 1, b_small)
        f_large = increment_field(sample_path(s_large, grid, 0), n, 1, b_large)
        small_norm = np.sqrt(np.sum(f_small.modal**2))
        large_norm = np.sqrt(np.sum(f_large.modal**2))
        assert large_norm >= small_norm


def test_increment_field_mode_zero_undamped(basis, spec):
    grid = uniform_grid(1.0, 8)
    p = sample_path(spec, grid, 3)
    f = increment_field(p, 2, 1, basis)
    assert f.modal[0] == p.increments[0, 0, 2]
    damp = (1 + basis.eigenvalues[5]) ** (-spec.gamma1 / 2)
    assert f.modal[5] == pytest.approx(damp * p.increments[0, 5, 2], rel=1e-15)


def test_increment_field_bounds(basis, spec):
    grid = uniform_grid(1.0, 8)
    p = sample_path(spec, grid, 3)
    with pytest.raises(ValueError, match="out of range"):
        increment_field(p, 8, 1, basis)
    small_basis = build_basis(
        DomainSpec(dim=1, lengths=(1.0,), grid_points_per_axis=64), 8)
    with pytest.raises(ValueError, match="modes"):
        increment_field(p, 0, 1, small_basis)


def test_mode_coefficient_variance_against_covariance_oracle(basis):
    # Var<W_j(1), e_k> = (1 + lambda_k)^(-gamma_j) at t = 1; modes 0..10
    # draw the same numbers under any mode count, so 11 modes suffice
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=11, master_seed=31)
    n_paths, chunk = 20_000, 2_500
    grid = uniform_grid(1.0, 4)
    w1 = np.concatenate([
        sample_paths(spec, grid, np.arange(i, i + chunk))[:, 0].sum(axis=-1)
        for i in range(0, n_paths, chunk)
    ])
    for k in (0, 1, 5, 10):
        total = w1[:, k]
        damp = (1 + basis.eigenvalues[k]) ** (-spec.gamma1 / 2)
        var = float(np.var(damp * total, ddof=1))
        target = (1 + basis.eigenvalues[k]) ** (-spec.gamma1)
        assert abs(var - target) / target < 0.05


def test_batched_draws_match_sample_path(spec):
    # non-consecutive and repeated indices: each row is that path's table
    grid = uniform_grid(1.0, 8)
    indices = [12, 3, 12, 40, 0]
    table = sample_paths(spec, grid, indices)
    assert table.shape == (5, 2, spec.mode_count, 8)
    k_ids, n_ids = np.arange(spec.mode_count), np.arange(8)
    for row, idx in zip(table, indices):
        assert np.array_equal(row, sample_path(spec, grid, idx).increments)
        for j in (1, 2):
            z = rng.normal_table(spec.master_seed, idx, j, k_ids, n_ids)
            assert np.array_equal(row[j - 1], z * np.sqrt(1.0 / 8))
    stacked = rng.normal_table(spec.master_seed, np.array(indices), 2,
                               k_ids, n_ids)
    for b, idx in enumerate(indices):
        assert np.array_equal(
            stacked[b], rng.normal_table(spec.master_seed, idx, 2, k_ids, n_ids))


def test_step_blocks_are_the_columns_of_the_full_table(spec):
    # a nonuniform grid: each block is scaled by its own steps' sqrt(dt)
    grid = np.concatenate(([0.0], np.cumsum(np.linspace(0.01, 0.03, 23))))
    indices = [12, 3, 12, 40]
    full = sample_paths(spec, grid, indices)
    for n0, n1 in ((0, 5), (5, 15), (20, 23), (7, 7)):
        block = sample_paths(spec, grid, indices, n0, n1)
        assert block.shape == (4, 2, spec.mode_count, n1 - n0)
        assert np.array_equal(block, full[..., n0:n1])
        assert np.array_equal(drawn(spec, grid, indices)(n0, n1), block)
        assert np.array_equal(sliced(full)(n0, n1), block)
    assert np.array_equal(sample_paths(spec, grid, indices, 20), full[..., 20:])
    with pytest.raises(ValueError, match="outside the grid"):
        sample_paths(spec, grid, indices, 20, 24)
    with pytest.raises(ValueError, match="outside the grid"):
        sample_paths(spec, grid, indices, 6, 5)


def test_trace_of_q_examples(basis):
    # gamma -> infinity keeps only the flat mode
    spec_inf = NoiseSpec(gamma1=300.0, gamma2=300.0, mode_count=64)
    assert trace_of_Q(basis, spec_inf, 1) == pytest.approx(1.0, abs=1e-12)

    spec2 = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=64)
    oracle = sum((1.0 + 4 * np.pi**2 * k**2) ** -2.0 for k in range(64))
    assert trace_of_Q(basis, spec2, 1) == pytest.approx(oracle, rel=1e-13)

    b1 = build_basis(DomainSpec(dim=1, lengths=(1.0,),
                                grid_points_per_axis=16), 1)
    s1 = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=1)
    assert trace_of_Q(b1, s1, 1) == 1.0

    # decreasing in gamma, convergent-looking tail
    spec3 = NoiseSpec(gamma1=3.0, gamma2=3.0, mode_count=64)
    assert trace_of_Q(basis, spec3, 1) < trace_of_Q(basis, spec2, 1)


def test_coarsen_sums_are_exact(spec):
    fine = sample_path(spec, uniform_grid(1.0, 64), 9)
    coarse = coarsen_path(fine)
    sums = fine.increments[:, :, 0::2] + fine.increments[:, :, 1::2]
    assert np.array_equal(sums, coarse.increments)
    assert np.array_equal(coarse.time_grid, fine.time_grid[::2])


def test_hierarchy_orders_coarsest_first(spec):
    chain = coupled_path_hierarchy(spec, uniform_grid(1.0, 64), 0, levels=3)
    assert [p.n_steps for p in chain] == [16, 32, 64]
    rebuilt = coarsen_path(coarsen_path(chain[2]))
    assert np.array_equal(rebuilt.increments, chain[0].increments)


def test_grid_validation(spec):
    with pytest.raises(ValueError, match="increasing"):
        sample_path(spec, np.array([0.0, 0.5, 0.5, 1.0]), 0)
    with pytest.raises(ValueError, match="t = 0"):
        sample_path(spec, np.array([0.5, 1.0]), 0)
    with pytest.raises(ValueError, match="odd"):
        coarsen_path(sample_path(spec, uniform_grid(1.0, 5), 0))


def test_spec_validation_and_warning():
    with pytest.raises(ValueError, match="mode_count"):
        NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=0)
    spec = NoiseSpec(gamma1=0.5, gamma2=2.0, mode_count=4)
    with pytest.warns(UserWarning, match="trace-class"):
        msgs = spec.validate_for_dim(1)
    assert len(msgs) == 1
