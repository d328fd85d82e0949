"""Counter-based random number generation.

Every Gaussian draw used by the noise model is a pure function of a
5-tuple of integers (master_seed, path_index, stream, mode, step).  The
tuple is mapped through a vectorized Philox4x64-10 block cipher, so any
sub-table of draws can be regenerated in isolation: ensemble workers,
mode-count refinement and time-grid coupling all see the same numbers
regardless of evaluation order.

The block function is bit-identical to ``numpy.random.Philox`` (same
constants, same round structure); a regression test pins this so the
tables can be reproduced outside this package if ever needed.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)

# uniform conversion: 53 mantissa bits, strictly inside (0, 1)
_U53 = 2.0 ** -53
_S11 = np.uint64(11)


def _mulhilo(a, b):
    """128-bit product of uint64 arrays, returned as (high, low) words."""
    lo = a * b
    ah, al = a >> _S32, a & _MASK32
    bh, bl = b >> _S32, b & _MASK32
    t = al * bl
    w = ah * bl + (t >> _S32)
    w2 = al * bh + (w & _MASK32)
    hi = ah * bh + (w >> _S32) + (w2 >> _S32)
    return hi, lo


def philox4x64(counter, key):
    """Philox4x64-10 block function, vectorized over leading axes.

    Parameters
    ----------
    counter : uint64 array, shape (..., 4)
    key : uint64 array, shape (..., 2), broadcastable against counter

    Returns
    -------
    uint64 array of shape (..., 4): the cipher output block.
    """
    counter = np.asarray(counter, dtype=np.uint64)
    key = np.asarray(key, dtype=np.uint64)
    c0 = counter[..., 0].copy()
    c1 = counter[..., 1].copy()
    c2 = counter[..., 2].copy()
    c3 = counter[..., 3].copy()
    k0 = np.broadcast_to(key[..., 0], c0.shape).copy()
    k1 = np.broadcast_to(key[..., 1], c0.shape).copy()
    with np.errstate(over="ignore"):
        for _ in range(10):
            hi0, lo0 = _mulhilo(_M0, c0)
            hi1, lo1 = _mulhilo(_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0 = k0 + _W0
            k1 = k1 + _W1
    return np.stack([c0, c1, c2, c3], axis=-1)


def _bits_to_uniform(bits):
    # top 53 bits, offset by half an ulp: result lies strictly in (0, 1)
    return ((bits >> _S11).astype(np.float64) + 0.5) * _U53


# draws per cipher call inside normal_table: bounds the working set of
# the vectorized cipher (~250 B per draw) whatever the size of the box
_DRAWS_PER_BLOCK = 4096


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
    modes = np.asarray(modes, dtype=np.uint64)
    steps = np.asarray(steps, dtype=np.uint64)
    # one row per (path, mode), steps along the row
    row_path = np.repeat(path_index.reshape(-1), modes.size)
    row_mode = np.tile(modes, path_index.size)
    out = np.empty((row_path.size, steps.size))
    rows_per_block = max(1, _DRAWS_PER_BLOCK // max(1, steps.size))
    for lo in range(0, row_path.size, rows_per_block):
        hi = min(lo + rows_per_block, row_path.size)
        counter = np.empty((hi - lo, steps.size, 4), dtype=np.uint64)
        counter[..., 0] = steps
        counter[..., 1] = row_mode[lo:hi, None]
        counter[..., 2] = np.uint64(stream)
        counter[..., 3] = np.uint64(0)
        key = np.empty((hi - lo, 1, 2), dtype=np.uint64)
        key[..., 0] = np.uint64(master_seed)
        key[..., 1] = row_path[lo:hi, None]
        blocks = philox4x64(counter, key)
        out[lo:hi] = ndtri(_bits_to_uniform(blocks[..., 0]))
    return out.reshape(path_index.shape + (modes.size, steps.size))
