import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from gmspde import rng
from gmspde.config import loads
from gmspde.dynamics import ModelParams, SchemeConfig, Stepper, run
from gmspde.noise import (
    NoiseSpec,
    coupled_path_hierarchy,
    drawn,
    sliced,
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


def _numpy_words(seed, path, stream, mode, first_step, count=1):
    """Word 0 of numpy's Philox blocks at counters (step, mode, stream, 0).

    numpy increments its 256-bit counter before each block, so the
    stream starts one below the first counter, with the borrow running
    across words; consecutive blocks are consecutive steps.
    """
    start = (first_step + (mode << 64) + (stream << 128) - 1) % 2**256
    counter = np.array([(start >> (64 * i)) % 2**64 for i in range(4)],
                       dtype=np.uint64)
    gen = np.random.Philox(key=np.array([seed, path], dtype=np.uint64),
                           counter=counter)
    return gen.random_raw(4 * count)[::4]


def _numpy_normal_table(seed, paths, stream, modes, steps):
    """The oracle table; a list of streams adds an axis after the paths."""
    if np.ndim(stream):
        return np.stack([_numpy_normal_table(seed, paths, s, modes, steps)
                         for s in stream], axis=1)
    steps = [int(n) for n in steps]
    consecutive = steps == list(range(steps[0], steps[0] + len(steps)))
    out = np.empty((len(paths), len(modes), len(steps)), dtype=np.uint64)
    for b, path in enumerate(paths):
        for k, mode in enumerate(modes):
            if consecutive:
                out[b, k] = _numpy_words(seed, path, stream, mode, steps[0],
                                         len(steps))
            else:
                out[b, k] = [_numpy_words(seed, path, stream, mode, n)[0]
                             for n in steps]
    return ndtri(((out >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)


def test_philox_block_matches_numpy():
    # key (seed, path), counter (step, mode, stream); counter word 3 is 0
    cases = [
        ((0, 0), (1, 0, 0)),
        ((123, 456), (1, 0, 0)),
        ((2**64 - 1, 7), (9, 3, 2)),
        ((42, 2**63), (2**32, 5, 0)),
        ((5, 6), (0, 3, 1)),            # step 0: the borrow crosses words
        ((5, 6), (0, 0, 2)),
        ((2**64 - 1, 11), (4, 2, 1)),
        ((7, 2**63), (4, 2, 1)),
        ((7, 3), (4, 1023, 1)),
        ((7, 3), (4, 1023, 2)),
    ]
    for (seed, path), (step, mode, stream) in cases:
        word0 = rng._plan(seed, (1, 1, 1))
        mine = word0(np.array([path], dtype=np.uint64), stream,
                     np.array([mode], dtype=np.uint64),
                     np.array([step], dtype=np.uint64))
        ref = _numpy_words(seed, path, stream, mode, step)
        assert mine.shape == (1, 1, 1)
        assert mine[0, 0, 0] == ref[0], (seed, path, step, mode, stream)


@pytest.mark.parametrize("seed, paths, stream, modes, steps", [
    (17, range(7), 1, range(11), range(3, 53)),          # odd box
    (2**64 - 1, [2**63, 0, 5], 2, [1, 1023, 4], [2, 9, 0]),
    # one path whose K*N exceeds the block budget, split over modes and steps
    (9, [4], 1, [0, 5], range(rng._DRAWS_PER_BLOCK + 3)),
    # a list of streams, in any order, adds an axis after the paths
    (23, [3, 2**63, 8], [2, 1, 7], range(5), range(4, 13)),
])
def test_normal_table_matches_numpy_philox(seed, paths, stream, modes, steps):
    paths, modes, steps = list(paths), list(modes), list(steps)
    table = rng.normal_table(seed, np.array(paths, dtype=np.uint64), stream,
                             np.array(modes), np.array(steps))
    assert np.array_equal(table, _numpy_normal_table(seed, paths, stream,
                                                     modes, steps))


@pytest.mark.parametrize("box", [
    (200, 16, 5),           # one ens_1d noise block: 2 blocks of 100 paths
    # a last block that is moved back to end on the axis: paths (68 + 68
    # + 67), modes (2501 + 2500) and steps (5463 + 5463 + 5461)
    (203, 17, 5), (2, 5001, 3), (3, 2, 16387),
])
def test_two_streams_in_one_call_equal_two_calls(box):
    paths, modes, steps = (np.arange(n) for n in box)
    paths = paths * 977 + 2**40
    both = rng.normal_table(11, paths, [1, 2], modes, steps)
    assert both.shape == (box[0], 2) + box[1:]
    for s in (0, 1):
        assert np.array_equal(
            both[:, s], rng.normal_table(11, paths, s + 1, modes, steps))
    one_path = rng.normal_table(11, paths[1], [1, 2], modes, steps)
    assert np.array_equal(one_path, both[1])


def test_blocks_split_each_axis_equally():
    # ens_1d's 200 paths: 2 x 100, not 102 + 98; picard_1d's 16: 4 x 4,
    # not 5 + 5 + 5 + 1; otherwise the last block moves back to end there
    assert rng._split(200, 102) == (100, [0, 100])
    assert rng._split(16, 5) == (4, [0, 4, 8, 12])
    assert rng._split(203, 96) == (68, [0, 68, 135])
    assert rng._split(5, 8192) == (5, [0])


@pytest.mark.parametrize("box", [(200, 16, 5), (200, 16, 50), (1, 256, 2000),
                                 (1, 16, 10000), (1, 2, 20000),
                                 (1, 1, 100000)])
def test_normal_table_working_set_is_bounded(box):
    # the cipher works in blocks of at most _DRAWS_PER_BLOCK draws, and
    # index lists are converted block by block, so besides its result one
    # call holds under 1 MiB whether the box is wide, deep or one long row
    # of steps
    paths, modes, steps = (np.arange(n) for n in box)
    rng.normal_table(3, paths, 1, modes, steps)
    tracemalloc.start()
    try:
        out = rng.normal_table(3, paths, 1, modes, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 2**20


def test_normal_table_is_pure_function_of_indices():
    a = rng.normal_table(5, 17, 1, np.arange(8), np.arange(16))
    b = rng.normal_table(5, 17, 1, np.arange(8), np.arange(16))
    assert np.array_equal(a, b)
    # sub-tables are slices of the full table
    sub = rng.normal_table(5, 17, 1, np.array([3, 5]), np.array([2, 9]))
    assert sub[0, 0] == a[3, 2]
    assert sub[1, 1] == a[5, 9]


def test_top_word_gives_a_finite_draw():
    # the top 53 bits of 2**64 - 1 are 2**53 - 1, whose uniform
    # (b + 0.5) 2**-53 rounds to exactly 1.0; the clamp keeps it below 1
    words = np.array([2**64 - 1, 2**64 - 2**11 - 1, 0, 2**63], dtype=np.uint64)
    draws = rng.normals_from_bits(words.copy(), np.empty(4))
    assert np.all(np.isfinite(draws))
    assert draws[0] == ndtri(1.0 - 2.0**-53) > draws[1] > 8.0
    # every other word keeps the unclamped conversion's bits
    rest = words[1:] >> np.uint64(11)
    assert np.array_equal(draws[1:],
                          ndtri((rest.astype(np.float64) + 0.5) * 2.0**-53))
    assert draws[2] < -8.0 and draws[3] == 0.0


def _table(spec, horizon, n_steps, index):
    """The (2, K, n_steps) increment table of one path."""
    sch = SchemeConfig(dt=horizon / n_steps, T=horizon)
    return drawn(spec, sch, [index])(0, n_steps)[0]


def test_sample_path_reproducible_and_distinct(spec):
    p1 = _table(spec, 1.0, 32, 4)
    p2 = _table(spec, 1.0, 32, 4)
    p3 = _table(spec, 1.0, 32, 5)
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, p3)


def test_increment_moments(spec):
    # >= 1e5 draws pooled from several paths
    draws = np.concatenate([
        _table(spec, 1.0, 800, i).ravel() for i in range(2)
    ])
    scaled = draws / np.sqrt(1.0 / 800)
    assert scaled.size >= 1e5
    assert abs(scaled.mean()) < 0.02
    assert abs(scaled.var(ddof=1) - 1.0) < 0.02


def test_cross_process_independence(spec):
    p = _table(spec, 1.0, 800, 0)
    a = p[0].ravel()
    b = p[1].ravel()
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) < 0.02


def test_distinct_mode_streams_uncorrelated(spec):
    p = _table(spec, 1.0, 2000, 1)
    pairs = [((1 - 1, 3), (1 - 1, 4)), ((0, 0), (1, 0)), ((0, 7), (1, 9))]
    n = 2000
    for (ja, ka), (jb, kb) in pairs:
        corr = float(np.corrcoef(p[ja, ka], p[jb, kb])[0, 1])
        assert abs(corr) < 3.0 / np.sqrt(n)


def test_dt_scaling_doubles_variance(spec):
    v1 = _table(spec, 1.0, 1024, 0).var(ddof=1)
    v2 = _table(spec, 2.0, 1024, 0).var(ddof=1)
    n = _table(spec, 1.0, 1024, 0).size
    se = np.sqrt(2.0 / (n - 1))
    assert abs(v2 / v1 - 2.0) < 3 * 2 * se * 2  # ratio of two noisy variances


def test_mode_count_extension_preserves_prefix():
    small = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=8, master_seed=5)
    large = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=5)
    ps = _table(small, 1.0, 16, 2)
    pl = _table(large, 1.0, 16, 2)
    assert np.array_equal(pl[:, :8, :], ps)


PARAMS = ModelParams(0.01, 0.1, 1.0, 1.0, 1.0, 2.0, 0.1, 0.1)


def _damped(basis, spec, table, n):
    """The stepper's damped W_1 and W_2 increments of step n."""
    stepper = Stepper(basis, PARAMS, SchemeConfig(dt=0.25, T=1.0), spec, 1)
    return stepper.damp[:, 0] * table[:, :, n]


def test_truncation_monotonicity_of_increment_norm():
    dom_small = DomainSpec(dim=1, lengths=(1.0,), grid_points_per_axis=64)
    b_small = build_basis(dom_small, 8)
    b_large = build_basis(dom_small, 16)
    s_small = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=8, master_seed=5)
    s_large = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=5)
    for n in range(4):
        f_small = _damped(b_small, s_small, _table(s_small, 1.0, 4, 0), n)
        f_large = _damped(b_large, s_large, _table(s_large, 1.0, 4, 0), n)
        for small, large in zip(f_small, f_large):
            assert np.sqrt(np.sum(large**2)) >= np.sqrt(np.sum(small**2))


def test_increment_field_mode_zero_undamped(basis, spec):
    p = _table(spec, 1.0, 8, 3)
    dw1, dw2 = _damped(basis, spec, p, 2)
    assert dw1[0] == p[0, 0, 2]
    assert dw2[0] == p[1, 0, 2]
    for dw, j, gamma in ((dw1, 1, spec.gamma1), (dw2, 2, spec.gamma2)):
        damp = (1 + basis.eigenvalues[5]) ** (-gamma / 2)
        assert dw[5] == pytest.approx(damp * p[j - 1, 5, 2],
                                      rel=1e-15)


def test_increment_field_bounds(basis, spec):
    # a run needs noise blocks of its steps, and a noise spec of its modes
    p = sliced(_table(spec, 1.0, 8, 3)[None])
    sch = SchemeConfig(dt=0.0625, T=1.0)
    with pytest.raises(ValueError, match=r"\(1, 2, 64, 8\), run needs "
                                         r"\(1, 2, 64, 16\)"):
        run(np.ones((2, spec.mode_count)), PARAMS, sch, basis, spec, p)
    small_basis = build_basis(
        DomainSpec(dim=1, lengths=(1.0,), grid_points_per_axis=64), 8)
    with pytest.raises(ValueError, match="mode count"):
        Stepper(small_basis, PARAMS, sch, spec, 1)


def test_mode_coefficient_variance_against_covariance_oracle(basis):
    # Var<W_j(1), e_k> = (1 + lambda_k)^(-gamma_j) at t = 1; modes 0..10
    # draw the same numbers under any mode count, so 11 modes suffice
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=11, master_seed=31)
    n_paths, chunk = 20_000, 2_500
    sch = SchemeConfig(dt=0.25, T=1.0)
    w1 = np.concatenate([
        drawn(spec, sch, np.arange(i, i + chunk))(0, 4)[:, 0].sum(axis=-1)
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
    indices = [12, 3, 12, 40, 0]
    table = drawn(spec, SchemeConfig(dt=1.0 / 8, T=1.0), indices)(0, 8)
    assert table.shape == (5, 2, spec.mode_count, 8)
    k_ids, n_ids = np.arange(spec.mode_count), np.arange(8)
    for row, idx in zip(table, indices):
        assert np.array_equal(row, _table(spec, 1.0, 8, idx))
        for j in (1, 2):
            z = rng.normal_table(spec.master_seed, idx, j, k_ids, n_ids)
            assert np.array_equal(row[j - 1], z * np.sqrt(1.0 / 8))
    stacked = rng.normal_table(spec.master_seed, np.array(indices), 2,
                               k_ids, n_ids)
    for b, idx in enumerate(indices):
        assert np.array_equal(
            stacked[b], rng.normal_table(spec.master_seed, idx, 2, k_ids, n_ids))


def test_drawn_blocks_are_the_columns_of_the_schemes_table(spec):
    # drawn steps the scheme's uniform grid: 23 steps of 0.02
    sch = SchemeConfig(dt=0.02, T=0.46)
    indices = [12, 3, 12, 40]
    full = drawn(spec, sch, indices)(0, 23)
    for n0, n1 in ((0, 5), (5, 15), (20, 23), (7, 7)):
        block = drawn(spec, sch, indices)(n0, n1)
        assert block.shape == (4, 2, spec.mode_count, n1 - n0)
        assert np.array_equal(block, full[..., n0:n1])
        assert np.array_equal(sliced(full)(n0, n1), block)
    with pytest.raises(ValueError, match="outside the grid"):
        drawn(spec, sch, indices)(20, 24)
    with pytest.raises(ValueError, match="outside the grid"):
        drawn(spec, sch, indices)(6, 5)


def test_coarsen_sums_are_exact(spec):
    # level l steps 2**l times the fine dt, and its table holds the exact
    # pairwise sums of the next finer table
    fine = SchemeConfig(dt=1.0 / 64, T=1.0)
    chain = coupled_path_hierarchy(spec, fine, 9, levels=3)
    assert np.array_equal(chain[-1][1], drawn(spec, fine, [9])(0, 64))
    for level, (sch, table) in enumerate(reversed(chain)):
        assert sch.dt == fine.dt * 2**level
        assert sch.n_steps() == table.shape[-1] == 64 // 2**level
        assert table.shape == (1, 2, spec.mode_count, 64 // 2**level)
    for (_, coarse), (_, finer) in zip(chain, chain[1:]):
        assert np.array_equal(coarse, finer[..., 0::2] + finer[..., 1::2])


def test_hierarchy_orders_coarsest_first(spec):
    chain = coupled_path_hierarchy(spec, SchemeConfig(dt=1.0 / 64, T=1.0), 0,
                                   levels=3)
    assert [table.shape[-1] for _, table in chain] == [16, 32, 64]
    assert [sch.dt for sch, _ in chain] == [1.0 / 16, 1.0 / 32, 1.0 / 64]


def test_grid_validation(spec):
    with pytest.raises(ValueError, match="horizon must be positive"):
        SchemeConfig(dt=0.1, T=0.0)
    with pytest.raises(ValueError, match="odd"):
        coupled_path_hierarchy(spec, SchemeConfig(dt=0.2, T=1.0), 0, levels=2)


def test_spec_validation_and_warning():
    with pytest.raises(ValueError, match="mode_count"):
        NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=0)
    # the trace-class margin gamma_j > d only warns, once per process
    cfg = loads("[noise]\ngamma1 = 0.5\n")
    assert len(cfg.warnings) == 1
    assert cfg.warnings[0].startswith("[noise] gamma1 = 0.5 <= d = 1")
    assert "trace-class" in cfg.warnings[0]
