"""Counter-based random number generation.

Every Gaussian draw used by the noise model is a pure function of a
5-tuple of integers (master_seed, path_index, stream, mode, step).  The
tuple is mapped through the Philox4x64-10 block cipher (Salmon et al.,
SC'11) with counter (step, mode, stream, 0) and key (master_seed,
path_index), and output word 0 of the block becomes one draw; the other
three words are never formed.  Any sub-table of draws can therefore be
regenerated in isolation: stacks of paths, mode-count refinement and
time-grid coupling all see the same numbers regardless of evaluation
order.

The cipher is bit-identical to ``numpy.random.Philox`` (same constants,
same round structure); the tests use numpy's generator as the oracle,
so the tables can be reproduced outside this package if ever needed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_MASK64 = 2**64 - 1
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)

# uniform conversion: 53 mantissa bits, strictly inside (0, 1)
_U53 = 2.0 ** -53
_S11 = np.uint64(11)

# draws per cipher block inside normal_table; the cipher works in nine
# uint64 buffers of this size (576 KiB), whatever the shape of the box
_DRAWS_PER_BLOCK = 8192


def _mulhi(m, a, scratch):
    """High word of the 128-bit product of the constant m and uint64 a.

    ``scratch`` holds four uint64 arrays of a's shape; the result is the
    first of them.
    """
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    hi, al, t, u = scratch
    np.right_shift(a, _S32, out=hi)
    np.bitwise_and(a, _MASK32, out=al)
    np.multiply(al, m_lo, out=t)
    np.right_shift(t, _S32, out=t)
    np.multiply(al, m_hi, out=al)
    np.add(al, t, out=al)                  # al*m_hi + (al*m_lo >> 32)
    np.multiply(hi, m_lo, out=t)           # ah*m_lo
    np.multiply(hi, m_hi, out=hi)
    np.bitwise_and(t, _MASK32, out=u)
    np.add(al, u, out=al)                  # middle column, cannot overflow
    np.right_shift(t, _S32, out=t)
    np.add(hi, t, out=hi)
    np.right_shift(al, _S32, out=al)
    np.add(hi, al, out=hi)
    return hi


def _word0(seed, paths, stream, modes, steps, bufs, views=None):
    """Word 0 of Philox4x64-10 for counter (step, mode, stream, 0).

    The key is (seed, path).  ``paths``, ``modes`` and ``steps`` are 1-d
    uint64 arrays; the result is their (B, K, N) box, held in a row of
    the (9, >= B*K*N) uint64 work array ``bufs``.  ``views`` caches the
    reshaped rows across calls on the same ``bufs``.

    Each counter word starts with the shape of the index it holds, and a
    round's outputs take the broadcast shape of its inputs, so rounds 1-2
    work on arrays of at most B*N words and the full box first appears
    in round 2's output.  Every round after it reuses the same buffers.
    """
    views = {} if views is None else views

    def view(i, shape):
        if (i, shape) not in views:
            views[i, shape] = bufs[i, :math.prod(shape)].reshape(shape)
        return views[i, shape]

    shapes = [(1, 1, steps.size), (1, modes.size, 1), (1, 1, 1), (1, 1, 1)]
    slots, spare = [0, 1, 2, 3], 4
    for i, shape, value in zip(slots, shapes, (steps, modes, stream, 0)):
        view(i, shape)[...] = np.reshape(value, shape)
    column = paths.reshape(-1, 1, 1)
    for r in range(10):
        k0 = np.uint64((seed + r * _W0) & _MASK64)
        k1 = column + np.uint64(r * _W1 & _MASK64)
        c0, c1, c2, c3 = (view(i, s) for i, s in zip(slots, shapes))
        if r < 9:
            h0 = _mulhi(_M0, c0,
                        [view(i, c0.shape) for i in range(5, 9)])
            shape2 = tuple(map(max, c0.shape, c3.shape, k1.shape))
            n2 = np.bitwise_xor(h0, c3, out=view(spare, shape2))
            np.bitwise_xor(n2, k1, out=n2)
            np.multiply(c0, np.uint64(_M0), out=c0)
        h1 = _mulhi(_M1, c2, [view(i, c2.shape) for i in range(5, 9)])
        shape0 = tuple(map(max, c2.shape, c1.shape))
        free = slots[3]                    # c3 is read only by hi0^c3^k1
        n0 = np.bitwise_xor(h1, c1, out=view(free, shape0))
        np.bitwise_xor(n0, k0, out=n0)
        if r == 9:
            return n0
        np.multiply(c2, np.uint64(_M1), out=c2)
        # (c0, c1, c2, c3) <- (hi1^c1^k0, lo1, hi0^c3^k1, lo0)
        slots, spare = [free, slots[2], spare, slots[0]], slots[1]
        shapes = [shape0, c2.shape, shape2, c0.shape]


def normal_table(master_seed, path_index, stream, modes, steps):
    """Standard-normal draws for a (path, stream, mode, step) index box.

    Draw (k, n) of path b is a pure function of (master_seed,
    path_index[b], stream, modes[k], steps[n]); the same indices always
    return the same value, whichever other paths share the call.

    Parameters
    ----------
    master_seed : nonnegative int (< 2**64)
    path_index : nonnegative int, or 1-d array of them (the key varies
        along the leading axis of the result)
    stream : small nonnegative int distinguishing independent noise uses
    modes, steps : 1-d integer arrays of indices

    Returns
    -------
    float64 array of shape (len(modes), len(steps)) for one path index,
    (len(path_index), len(modes), len(steps)) for an array of them.
    """
    path_index = np.asarray(path_index, dtype=np.uint64)
    paths = path_index.reshape(-1)
    modes = np.asarray(modes, dtype=np.uint64)
    steps = np.asarray(steps, dtype=np.uint64)
    out = np.empty((paths.size, modes.size, steps.size))
    # a block takes as many steps as fit, then as many modes, then paths
    nb = max(1, min(steps.size, _DRAWS_PER_BLOCK))
    kb = max(1, min(modes.size, _DRAWS_PER_BLOCK // nb))
    bb = max(1, min(paths.size, _DRAWS_PER_BLOCK // (nb * kb)))
    bufs, views = np.empty((9, bb * kb * nb), dtype=np.uint64), {}
    for b in range(0, paths.size, bb):
        for k in range(0, modes.size, kb):
            for n in range(0, steps.size, nb):
                bits = _word0(int(master_seed), paths[b:b + bb], int(stream),
                              modes[k:k + kb], steps[n:n + nb], bufs, views)
                block = out[b:b + bb, k:k + kb, n:n + nb]
                # top 53 bits, offset by half an ulp: strictly inside (0, 1)
                np.right_shift(bits, _S11, out=bits)
                np.add(bits, 0.5, out=block)
                np.multiply(block, _U53, out=block)
                ndtri(block, out=block)
    return out.reshape(path_index.shape + (modes.size, steps.size))
