"""Sampling of the two driving Q-Wiener processes.

Each process W_j is expanded over the eigenbasis with per-mode variance
damping (1+lambda_k)^(-gamma_j); what is stored per path is the table
of raw Brownian increments dB[j][k][n] (standard normals scaled by
sqrt(dt_n)).  Tables are addressed through the counter-based generator
in :mod:`gmspde.rng`, so a path is a pure function of
(master_seed, path_index), extending the mode count leaves existing
modes untouched, and any block of steps can be drawn on its own.

The stepping core reads increments through a noise source, a function
``draw(n0, n1)`` returning the (B, 2, K, n1 - n0) block of steps
n0..n1-1: :func:`drawn` samples blocks on demand, so an ensemble never
holds more than one block of its table; :func:`sliced` reads them from
a stored table (a :class:`NoisePath`, a coarsened one, or the frozen
increments of a Picard iteration).  Both give the same bits for the
same steps.

Coupled time grids for step-halving studies are built finest-first:
the finest grid is sampled directly and coarser levels are obtained by
pairwise summation, which reproduces the refinement coupling of a
Brownian bridge while keeping the sum identity exact in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .spectral import nonfinite


@dataclass(frozen=True)
class NoiseSpec:
    """Decay exponents and mode truncation for the pair (W_1, W_2)."""

    gamma1: float
    gamma2: float
    mode_count: int
    master_seed: int = 0

    def __post_init__(self):
        problems = nonfinite(gamma1=self.gamma1, gamma2=self.gamma2)
        if self.mode_count < 1:
            problems.append("mode_count must be >= 1")
        if self.master_seed < 0:
            problems.append("master_seed must be a nonnegative integer")
        if problems:
            raise ValueError("\n".join(problems))

    def gamma(self, j):
        if j == 1:
            return self.gamma1
        if j == 2:
            return self.gamma2
        raise ValueError(f"process index must be 1 or 2, got {j}")


@dataclass(frozen=True)
class NoisePath:
    """Seeded per-mode Brownian increment table on a time grid."""

    spec: NoiseSpec
    time_grid: np.ndarray          # (N+1,) strictly increasing, starts at 0
    increments: np.ndarray         # (2, K, N) scaled by sqrt(dt_n)
    path_index: int

    @property
    def n_steps(self):
        return self.increments.shape[2]

    @property
    def dts(self):
        return np.diff(self.time_grid)


def uniform_grid(horizon, n_steps):
    if n_steps < 1 or horizon <= 0:
        raise ValueError("need horizon > 0 and at least one step")
    return np.linspace(0.0, horizon, n_steps + 1)


def sample_paths(spec: NoiseSpec, time_grid, path_indices, start=0,
                 stop=None) -> np.ndarray:
    """Increments of several paths over steps start..stop-1: (B, 2, K, S).

    Row b is the table ``sample_path(spec, time_grid, path_indices[b])``
    stores, bit for bit, and a block of steps is those columns of it:
    entry (b, j, k, n) is sqrt(dt_n) times a standard normal that depends
    only on (master_seed, path_indices[b], j, k, n), so any range of
    steps can be drawn on its own.  ``stop`` defaults to the last step
    of the grid.  Indices may repeat and need not be consecutive.
    """
    time_grid = np.asarray(time_grid, dtype=float)
    if time_grid.ndim != 1 or time_grid.size < 2:
        raise ValueError("time grid needs at least two points")
    dts = np.diff(time_grid)
    if np.any(dts <= 0):
        raise ValueError("time grid must be strictly increasing")
    if time_grid[0] != 0.0:
        raise ValueError("time grid must start at t = 0")
    stop = dts.size if stop is None else stop
    if not 0 <= start <= stop <= dts.size:
        raise ValueError(
            f"steps {start}..{stop - 1} outside the grid's {dts.size} steps")
    path_indices = np.asarray(path_indices, dtype=np.uint64).reshape(-1)
    k_ids = np.arange(spec.mode_count)
    n_ids = np.arange(start, stop)
    table = np.empty((path_indices.size, 2, spec.mode_count, n_ids.size))
    scale = np.sqrt(dts[start:stop])
    for j in (1, 2):
        z = rng.normal_table(spec.master_seed, path_indices, j, k_ids, n_ids,
                             out=table[:, j - 1])
        z *= scale
    return table


def drawn(spec: NoiseSpec, time_grid, path_indices):
    """Noise source ``draw(n0, n1)`` sampling steps n0..n1-1 on demand.

    Blocks are :func:`sample_paths` of the given paths, so they are the
    columns of the full table bit for bit, whatever the block sizes.
    """
    path_indices = list(path_indices)

    def draw(n0, n1):
        return sample_paths(spec, time_grid, path_indices, n0, n1)
    return draw


def sliced(table):
    """Noise source ``draw(n0, n1)`` reading steps of a (B, 2, K, N) table."""
    def draw(n0, n1):
        return table[..., n0:n1]
    return draw


def sample_path(spec: NoiseSpec, time_grid, path_index: int) -> NoisePath:
    """Draw the full increment table for one path (see :func:`sample_paths`)."""
    time_grid = np.asarray(time_grid, dtype=float)
    table = sample_paths(spec, time_grid, [path_index])[0]
    return NoisePath(spec=spec, time_grid=time_grid, increments=table,
                     path_index=path_index)


def coarsen_path(path: NoisePath) -> NoisePath:
    """Halve the time resolution by summing increment pairs.

    The sums are stored, so fine pairs reproduce the returned coarse
    increments exactly; this is the coupling used by step-halving
    convergence runs.
    """
    n = path.n_steps
    if n % 2 != 0:
        raise ValueError(f"cannot pair an odd number of steps ({n})")
    inc = path.increments
    coarse = inc[:, :, 0::2] + inc[:, :, 1::2]
    return NoisePath(
        spec=path.spec,
        time_grid=path.time_grid[::2],
        increments=coarse,
        path_index=path.path_index,
    )


def coupled_path_hierarchy(spec, fine_grid, path_index, levels):
    """Sample the finest grid and derive ``levels`` coupled coarsenings.

    Returns paths ordered coarsest first; each entry's increments are
    exact pairwise sums of the next finer entry's.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    fine = sample_path(spec, fine_grid, path_index)
    chain = [fine]
    for _ in range(levels - 1):
        chain.append(coarsen_path(chain[-1]))
    return chain[::-1]
