import itertools
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gmspde import acceptance
from gmspde.dynamics import SchemeConfig, default_initial_pair, run
from gmspde.noise import NoiseSpec, drawn, sliced


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=lambda fn: fn.__name__)
def test_acceptance_criterion(criterion):
    result = criterion()
    assert result.passed, result.line(timed=True)
    assert result.within_budget, result.line(timed=True)
    # --criteria and run_all select by position; the label is the literal
    # a criterion gives _result
    assert result.index == acceptance.ALL_CRITERIA.index(criterion) + 1


@pytest.mark.parametrize("jump", [3600.0, -3600.0])
def test_criteria_are_timed_on_a_monotonic_clock(monkeypatch, jump):
    # the wall clock steps by an hour, forward or back, at every read:
    # criterion 1 (limit 5 s) still passes in a time between 0 and it
    clock = itertools.count(time.time(), jump)
    monkeypatch.setattr(time, "time", lambda: next(clock))
    result = acceptance.criterion_1_orthonormality()
    assert result.line(timed=True).startswith("PASS")
    assert 0.0 <= result.elapsed < result.runtime_limit


def test_level_gaps_are_the_means_of_solo_gaps():
    # the oracle of the stacked helper: each path's three coupled levels
    # run alone, one path at a time, and its two gaps averaged over paths
    basis = acceptance._basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=16, master_seed=505)
    params = acceptance._desk_params(sigma=0.5)
    init = default_initial_pair(basis, params)
    fine = SchemeConfig(dt=5e-4, T=0.05)
    gaps = np.zeros((3, 2))
    for i in range(3):
        tables = [drawn(spec, fine, [i])(0, fine.n_steps())]
        for _ in range(2):
            tables.append(tables[-1][..., 0::2] + tables[-1][..., 1::2])
        finals = [run(init, params, replace(fine, dt=fine.dt * 2**level),
                      basis, spec, sliced(table)).u_modal[0]
                  for level, table in enumerate(tables)][::-1]
        gaps[i] = [np.sqrt(np.sum((finals[j] - finals[j + 1]) ** 2))
                   for j in (0, 1)]
    stacked = acceptance.level_gaps(init, params, fine, basis, spec, 3)
    np.testing.assert_allclose(stacked, gaps.mean(axis=0), rtol=1e-12, atol=0)


def test_strong_convergence_stores_no_coarse_level():
    # criterion 5 holds the fine table of its 16 paths, 1,000 steps of
    # 2 x 16 modes (3.91 MiB); the paired levels are summed block by block,
    # where stored tables of the two coarser levels would add 2.9 MiB
    tracemalloc.start()
    try:
        result = acceptance.criterion_5_strong_convergence()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed, result.line()
    assert peak <= 5.0 * 2**20
