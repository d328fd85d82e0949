"""Counter-based random number generation.

Every Gaussian draw used by the noise model is a pure function of a
5-tuple of integers (master_seed, path_index, stream, mode, step).  The
tuple is mapped through the Philox4x64-10 block cipher (Salmon et al.,
SC'11) with counter (step, mode, stream, 0) and key (master_seed,
path_index), and output word 0 of the block becomes one draw; the other
three words are never formed.  Any draw can therefore be
regenerated in isolation: stacks of paths, mode-count refinement and
time-grid coupling all see the same numbers regardless of evaluation
order.

:func:`normal_table` draws the one box of the noise layer, streams 1
and 2 of B paths, K modes and a window of steps, in cipher blocks of
one shape.  It builds the op plan of that shape once per call: the list
of the ten rounds' in-place ufunc calls, ``(ufunc, in1, in2, out)``, on
views of one uint64 work array, with 0-d constants and the seed's ten
round keys as operands.  A block refills only the counter words and its
paths' key rows, then runs the plan.

The cipher is bit-identical to ``numpy.random.Philox`` (same constants,
same round structure); the tests use numpy's generator as the oracle,
so the tables can be reproduced outside this package if ever needed.

Uniforms become normals through scipy's Cephes ``ndtri``, the one scipy
function the package needs.  :func:`_load_ndtri` takes it from the
extension module ``scipy.special._ufuncs`` without running the
``scipy.special`` package init, and falls back to ``from scipy.special
import ndtri`` when that load fails.
"""

from __future__ import annotations

import importlib.util
import math
import sys
import types

import numpy as np


def _load_ndtri():
    """scipy's ``ndtri`` ufunc, without ``scipy.special``'s package init.

    That init, through scipy's array-API layer, also imports
    ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``: about half of
    what a command line call spends importing, and about 19 MB of its
    peak memory, for one ufunc.  So, unless ``scipy.special`` is already
    imported, this loads the private extension module
    ``scipy.special._ufuncs`` under a stand-in module object for the
    package, which is removed at once.  A later real ``import
    scipy.special`` then runs its init and finds the same extension
    module, so ``scipy.special.ndtri`` is this very ufunc.  If the
    direct load fails (the module moved, an older scipy), the package
    import is used.  A revised noise stream that forms its normals
    in-package ("stream 2" in ROADMAP.md) would delete this loader.
    """
    if "scipy.special" not in sys.modules:
        spec = importlib.util.find_spec("scipy.special")
        if spec is not None and spec.submodule_search_locations:
            stand_in = types.ModuleType("scipy.special")
            stand_in.__path__ = spec.submodule_search_locations
            sys.modules["scipy.special"] = stand_in
            try:
                from scipy.special._ufuncs import ndtri
                return ndtri
            except ImportError:
                pass
            finally:
                del sys.modules["scipy.special"]
    from scipy.special import ndtri
    return ndtri


ndtri = _load_ndtri()


def _const(value):
    """Read-only 0-d uint64 operand: a ufunc takes it faster than a scalar."""
    c = np.array(value, dtype=np.uint64)
    c.flags.writeable = False
    return c


def _multiplier(m):
    """A round multiplier and its high and low 32-bit halves, as operands."""
    return _const(m), _const(m >> 32), _const(m & 0xFFFFFFFF)


_M0 = _multiplier(0xD2E7470EE14C6C93)
_M1 = _multiplier(0xCA5A826395121157)
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_MASK64 = 2**64 - 1
_MASK32 = _const(0xFFFFFFFF)
_S32 = _const(32)

# uniform conversion: 53 mantissa bits, strictly inside (0, 1)
_U53 = 2.0 ** -53
_U_MAX = 1.0 - _U53            # the largest double below 1
_S11 = _const(11)

# draws per cipher block inside normal_table; the cipher works in nine
# uint64 rows of this size (576 KiB), whatever the shape of the box
_DRAWS_PER_BLOCK = 8192


def _mulhi(m, a, scratch):
    """Ops of the high word of the 128-bit product of the multiplier m and a.

    ``scratch`` holds four uint64 views of a's shape; the result is the
    first of them.  Returns (result, ops).
    """
    _, m_hi, m_lo = m
    hi, al, t, u = scratch
    return hi, [
        (np.right_shift, a, _S32, hi),
        (np.bitwise_and, a, _MASK32, al),
        (np.multiply, al, m_lo, t),
        (np.right_shift, t, _S32, t),
        (np.multiply, al, m_hi, al),
        (np.add, al, t, al),               # al*m_hi + (al*m_lo >> 32)
        (np.multiply, hi, m_lo, t),        # ah*m_lo
        (np.multiply, hi, m_hi, hi),
        (np.bitwise_and, t, _MASK32, u),
        (np.add, al, u, al),               # middle column, cannot overflow
        (np.right_shift, t, _S32, t),
        (np.add, hi, t, hi),
        (np.right_shift, al, _S32, al),
        (np.add, hi, al, hi),
    ]


def _plan(seed, box):
    """Word 0 of Philox4x64-10 on blocks of shape ``box`` = (B, K, N).

    Returns ``word0(paths, stream, modes, steps)``, which takes 1-d
    integer arrays of B paths, K modes and N steps and returns the
    (B, K, N) box of word 0 for key (seed, path) and counter (step, mode,
    stream, 0).  The box is a view of the work array, valid until the
    next call.

    The ops are built here, once.  Each counter word starts with the
    shape of the index it holds, and a round's outputs take the
    broadcast shape of its inputs, so rounds 1-2 work on arrays of at
    most B*N words and the full box first appears in round 2's output.
    Every round after it reuses the same rows.  Round 10 reads only c1
    and c2, so round 9 forms neither c0 nor c3.
    """
    n_paths, n_modes, n_steps = box
    # always the full nine rows, not the block's size: freeing an mmapped
    # array raises glibc's dynamic mmap and trim thresholds to its size,
    # and a block-sized array (460 KB against 590 KB on the sim_2d
    # benchmark) left them low enough that the heap was trimmed and
    # refaulted: 10,170 minor faults per command against 760, and nearly
    # twice the wall time
    bufs = np.empty((9, _DRAWS_PER_BLOCK), dtype=np.uint64)
    # k1 of round r is path + r*W1 (mod 2**64)
    keys = np.empty((10, n_paths, 1, 1), dtype=np.uint64)
    bumps = np.array([r * _W1 & _MASK64 for r in range(10)],
                     dtype=np.uint64).reshape(10, 1, 1, 1)
    views = {}

    def view(i, shape):
        if (i, shape) not in views:
            views[i, shape] = bufs[i, :math.prod(shape)].reshape(shape)
        return views[i, shape]

    ops = []
    shapes = [(1, 1, n_steps), (1, n_modes, 1), (1, 1, 1), (1, 1, 1)]
    slots, spare = [0, 1, 2, 3], 4
    for r in range(10):
        k0, k1 = _const((seed + r * _W0) & _MASK64), keys[r]
        c0, c1, c2, c3 = (view(i, s) for i, s in zip(slots, shapes))
        if r < 9:
            h0, mul = _mulhi(_M0, c0,
                             [view(i, c0.shape) for i in range(5, 9)])
            shape2 = tuple(map(max, c0.shape, c3.shape, k1.shape))
            n2 = view(spare, shape2)
            ops += mul + [(np.bitwise_xor, h0, c3, n2),
                          (np.bitwise_xor, n2, k1, n2)]
            if r < 8:
                ops.append((np.multiply, c0, _M0[0], c0))
        shape0 = tuple(map(max, c2.shape, c1.shape))
        free = slots[3]                    # c3 is read only by hi0^c3^k1
        if r != 8:
            h1, mul = _mulhi(_M1, c2,
                             [view(i, c2.shape) for i in range(5, 9)])
            n0 = view(free, shape0)
            ops += mul + [(np.bitwise_xor, h1, c1, n0),
                          (np.bitwise_xor, n0, k0, n0)]
            if r == 9:
                break
        ops.append((np.multiply, c2, _M1[0], c2))
        # (c0, c1, c2, c3) <- (hi1^c1^k0, lo1, hi0^c3^k1, lo0)
        slots, spare = [free, slots[2], spare, slots[0]], slots[1]
        shapes = [shape0, c2.shape, shape2, c0.shape]
    step_row, mode_row = bufs[0, :n_steps], bufs[1, :n_modes]
    rest = bufs[2:4, 0]                    # stream and the zero word

    def word0(paths, stream, modes, steps):
        np.add(paths.reshape(-1, 1, 1), bumps, out=keys)
        step_row[...] = steps
        mode_row[...] = modes
        rest[...] = (stream, 0)
        for ufunc, a, b, out in ops:
            ufunc(a, b, out)
        return n0                          # round 10's hi1^c1^k0
    return word0


def _split(size, most):
    """Length and starts of the fewest equal blocks of at most ``most``
    that cover range(size), for size >= 1.

    A last block that would run past ``size`` starts earlier, to end
    there.
    """
    length = -(-size // -(-size // most))
    return length, [min(i, size - length) for i in range(0, size, length)]


def normals_from_bits(bits, out):
    """Standard-normal draws from the uint64 words ``bits``, into ``out``.

    The top 53 bits b of a word give the uniform (b + 0.5) 2^-53.  Above
    2^52 round-half-even drops the half, so the top word would give
    exactly 1.0 (and an infinite draw): uniforms are clamped to
    1 - 2^-53, which no other word reaches, so every other draw keeps its
    bits.  ``bits`` is shifted in place.  Returns ``out``.
    """
    np.right_shift(bits, _S11, out=bits)
    np.add(bits, 0.5, out=out)
    np.multiply(out, _U53, out=out)
    np.minimum(out, _U_MAX, out=out)
    return ndtri(out, out=out)


def normal_table(master_seed, paths, n_modes, start, stop):
    """The (B, 2, n_modes, stop - start) normals of streams 1 and 2.

    Entry (b, j, k, n) is the draw of (master_seed, paths[b], stream
    j + 1, mode k, step start + n), whatever else the box holds; an
    empty window gives an empty box.  ``paths`` is a 1-d sequence of
    indices below 2**64, and 0 <= start <= stop.

    The box is drawn in cipher blocks of at most ``_DRAWS_PER_BLOCK``
    draws, all of one shape: steps, then modes, then paths are each split
    into the fewest equal parts that fit, and a last part that would run
    past its axis ends on it instead (the draws it repeats are the same
    bits).  The op plan of that shape is built once and runs every block
    of the call, in both streams.
    """
    paths = np.asarray(paths, dtype=np.uint64)
    out = np.empty((paths.size, 2, n_modes, stop - start))
    if out.size == 0:
        return out
    # a block takes as many steps as fit, then as many modes, then paths;
    # its ten key rows take no more words than one row of the work array,
    # and its indices are formed for it alone (a long window costs no
    # index array of its own)
    nb, n_starts = _split(stop - start, _DRAWS_PER_BLOCK)
    kb, k_starts = _split(n_modes, _DRAWS_PER_BLOCK // nb)
    bb, b_starts = _split(paths.size, _DRAWS_PER_BLOCK // max(nb * kb, 10))
    word0 = _plan(int(master_seed), (bb, kb, nb))
    for b in b_starts:
        for stream in (1, 2):
            for k in k_starts:
                for n in n_starts:
                    bits = word0(paths[b:b + bb], stream, np.arange(k, k + kb),
                                 np.arange(start + n, start + n + nb))
                    normals_from_bits(
                        bits, out[b:b + bb, stream - 1, k:k + kb, n:n + nb])
    return out
