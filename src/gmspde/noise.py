"""Sampling of the two driving Q-Wiener processes.

Each process W_j is expanded over the eigenbasis with per-mode variance
damping (1+lambda_k)^(-gamma_j); a path's noise is the table of raw
Brownian increments dB[j][k][n] (standard normals scaled by
sqrt(dt_n)).  Tables are addressed through the counter-based generator
in :mod:`gmspde.rng`, so a path is a pure function of
(master_seed, path_index), extending the mode count leaves existing
modes untouched, and any block of steps can be drawn on its own.

Every run reads its increments through one interface, the noise source:
a function ``draw(n0, n1)`` returning the (B, 2, K, n1 - n0) block of
steps n0..n1-1 of its B paths.  :func:`drawn` samples blocks on demand
on a scheme's uniform time grid, each the one box of streams 1 and 2
that ``rng.normal_table`` draws, scaled by sqrt(dt), so a run holds
at most two blocks of its table; :func:`sliced` reads them from
a stored table (the frozen increments of a Picard iteration, or the
finest level of a step-halving study).  Both give the same bits for
the same steps.

Coupled time grids for step-halving studies are built finest-first:
the finest grid is sampled directly, and a coarser level is the
:func:`paired` source of the next finer one, whose steps are the
pairwise sums of the finer increments.  This reproduces the refinement
coupling of a Brownian bridge while keeping the sum identity exact in
floating point, and a coarse level holds only the block it is read in.

A run reads its source through :func:`blocks`.  A :func:`drawn` source
of two blocks or more, in a process allowed two CPUs or more, is drawn
one block ahead by a forked child, into two slots of a shared anonymous
``mmap``, while the run draws block 0 and steps; the child leaves
through ``os._exit`` and is reaped on every exit of the run.  Not a
thread: numpy ufunc calls of 8,192 elements or fewer do not overlap
across threads on 2 cores (a prefetch thread read 81.9 and 85.5 ms
against 80.0 and 80.2 ms in-line on ``ens_1d``); not on one CPU, where
the fork's page copies cost ``ens_1d`` about 15%.  Other sources stay
in-line.  Python 3.12+ warns on ``fork`` with threads running; by
default (one BLAS thread, :mod:`gmspde`) one thread forks, and the child
calls no BLAS.
"""

from __future__ import annotations

import mmap
import os
import pickle
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
        elif self.master_seed >= 2**64:
            problems.append("master_seed must be below 2**64")
        if problems:
            raise ValueError("\n".join(problems))


def drawn(spec: NoiseSpec, scheme, paths):
    """Noise source ``draw(n0, n1)`` sampling steps n0..n1-1 on demand.

    The steps are those of ``scheme``: ``scheme.n_steps()`` steps of
    ``scheme.dt`` on the uniform grid from 0 to ``scheme.T``.  Entry
    (b, j, k, n) of a block is sqrt(dt) of step m = n0 + n times the
    standard normal of (master_seed, paths[b], stream j + 1, mode k,
    step m) (:func:`gmspde.rng.normal_table`): a row does not depend on
    the other rows, and path indices may repeat and need not be
    consecutive.  Blocks are the columns of the full table of the given
    paths on that grid bit for bit, whatever the block sizes.  The
    grid's sqrt(dt) is taken once; a block is scaled by its slice.
    """
    roots = np.sqrt(np.diff(np.linspace(0.0, scheme.T, scheme.n_steps() + 1)))
    paths = np.asarray(paths, dtype=np.uint64).reshape(-1)

    def draw(n0, n1):
        if not 0 <= n0 <= n1 <= roots.size:
            raise ValueError(
                f"steps {n0}..{n1 - 1} outside the grid's {roots.size} steps")
        block = rng.normal_table(spec.master_seed, paths, spec.mode_count,
                                 n0, n1)
        block *= roots[n0:n1]
        return block
    draw.box = (paths.size, 2, spec.mode_count)    # blocks may draw ahead
    return draw


def sliced(table):
    """Noise source ``draw(n0, n1)`` reading steps of a (B, 2, K, N) table."""
    def draw(n0, n1):
        return table[..., n0:n1]
    return draw


def paired(draw):
    """Noise source on the grid of twice the step of the source ``draw``.

    Step n of the coarse grid is the sum of steps 2n and 2n + 1 of
    ``draw``: block (n0, n1) is ``b[..., 0::2] + b[..., 1::2]`` of
    ``b = draw(2 * n0, 2 * n1)``, formed when it is read.
    """
    def draw_paired(n0, n1):
        block = draw(2 * n0, 2 * n1)
        return block[..., 0::2] + block[..., 1::2]
    return draw_paired


def blocks(draw, n_steps, span):
    """Yield (n0, n1, ``draw(n0, n1)``) for blocks of ``span`` steps.

    A block the child drew is a slot view, valid until the next is asked
    for; a child's error is raised, same type and message, at its block.
    Close the iterator on every exit (``contextlib.closing``) to reap it.
    """
    windows = [(n0, min(n0 + span, n_steps)) for n0 in range(0, n_steps, span)]
    box = getattr(draw, "box", None)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if box is None or len(windows) < 2 or len(cpus) < 2:
        yield from ((n0, n1, draw(n0, n1)) for n0, n1 in windows)
        return
    slots = np.frombuffer(mmap.mmap(-1, 16 * np.prod(box) * span)
                          ).reshape((2,) + box + (span,))
    ready_r, ready_w = os.pipe()     # child to parent: b"r", or b"e" + error
    free_r, free_w = os.pipe()       # parent to child: a slot is free
    pid = os.fork()
    if pid == 0:
        try:
            os.close(ready_r)        # a write after the parent's close fails
            os.close(free_w)         # and the parent's close ends a read
            for k, (n0, n1) in enumerate(windows[1:], 1):
                if k > 2 and not os.read(free_r, 1):
                    break            # the parent stopped reading
                slots[k % 2, ..., :n1 - n0] = draw(n0, n1)
                os.write(ready_w, b"r")
        except BaseException as exc:     # raised in the parent instead
            os.write(ready_w, b"e" + pickle.dumps(exc))
        finally:                         # never unwind the caller's frames
            os._exit(0)
    os.close(ready_w)                # a read sees the child's end
    os.close(free_r)
    try:
        with open(ready_r, "rb", 0) as ready, open(free_w, "wb", 0) as free:
            yield *windows[0], draw(*windows[0])    # as the child draws 1
            for k, (n0, n1) in enumerate(windows[1:], 1):
                head = ready.read(1)
                if head != b"r":
                    raise (pickle.loads(ready.read()) if head else
                           RuntimeError("the noise child ended early"))
                yield n0, n1, slots[k % 2, ..., :n1 - n0]
                if k + 2 < len(windows):
                    free.write(b"f")
    finally:
        os.waitpid(pid, 0)
