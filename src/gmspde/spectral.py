"""Neumann-Laplacian eigenbasis on intervals and rectangles.

Two eigenvalue conventions are supported on an interval of length a:

* ``neumann_cosine``: e_k(x) = sqrt(2/a) cos(k pi x / a),  lambda_k = (k pi / a)^2
* ``paper_1d``:       e_k(x) = sqrt(2/a) cos(2 k pi x / a), lambda_k = (2 k pi / a)^2

Both families satisfy homogeneous Neumann conditions; on the unit
interval the second reproduces lambda_k = 4 pi^2 k^2 exactly.  In 2d the
modes are tensor products of 1d cosines on a rectangle [0,a] x [0,b]
with lambda_{l,m} = (l pi / a)^2 + (m pi / b)^2, sorted by eigenvalue
with a lexicographic tie-break on (l, m).

Quadrature is the trapezoidal rule on the uniform tensor grid with N
panels per axis (N+1 nodes).  For cosine products with grid frequencies
(the index k, or 2k under ``paper_1d``) below N/2 the rule is exact, so
the stored basis is orthonormal to rounding error.  Transforms are
sum-factorised (Orszag 1980) through per-axis tables; see SpectralBasis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

CONVENTIONS = ("neumann_cosine", "paper_1d")


def nonfinite(**values):
    """Problem lines of the values (numbers or tuples) holding NaN or +-inf."""
    problems = []
    for name, value in values.items():
        items = value if isinstance(value, (tuple, list)) else (value,)
        if not all(math.isfinite(v) for v in items):
            problems.append(f"{name} = {value} is not finite")
    return problems


@dataclass(frozen=True)
class DomainSpec:
    """Interval or rectangle with grid resolution and mode convention."""

    dim: int
    lengths: tuple[float, ...]
    eigenvalue_convention: str = "neumann_cosine"
    grid_points_per_axis: int = 64

    def __post_init__(self):
        problems = nonfinite(lengths=self.lengths)
        if self.dim not in (1, 2):
            problems.append(f"dim must be 1 or 2, got {self.dim}")
        elif len(self.lengths) != self.dim:
            problems.append(
                f"expected {self.dim} length(s), got {len(self.lengths)}")
        if any(a <= 0 for a in self.lengths):
            problems.append(f"domain lengths must be positive, got {self.lengths}")
        if self.eigenvalue_convention not in CONVENTIONS:
            problems.append(
                f"unknown eigenvalue convention {self.eigenvalue_convention!r}; "
                f"choose from {CONVENTIONS}"
            )
        elif self.eigenvalue_convention == "paper_1d" and self.dim != 1:
            problems.append("paper_1d convention is only valid in one dimension")
        n = self.grid_points_per_axis
        if n < 4 or n % 2 != 0:
            problems.append(f"grid_points_per_axis must be even and >= 4, got {n}")
        if problems:
            raise ValueError("\n".join(problems))

    @property
    def volume(self):
        return float(np.prod(self.lengths))


@dataclass(frozen=True)
class SpectralBasis:
    """Truncated orthonormal eigenbasis with its quadrature grid.

    Mode k is e_k(x, y) = c_l cos(q_l x) c_m cos(q_m y) with (l, m) =
    ``mode_indices[k]``, so the basis keeps per-axis tables (below) of
    the 1-D factors l < M_a = 1 + max(mode_indices[:, a]).  In 2-D
    ``project`` forms C = Q_0^T F Q_1 on the nodal grid F and gathers
    the K modes from the (M_0, M_1) array C; ``synthesize`` scatters
    them into C and forms F = T_0^T C T_1; ``gradients`` forms
    D_0^T C T_1 and T_0^T C D_1 as one batched pair of products.  On a
    stack of B rows a transform costs O(B M n^d) flops, M = max M_a,
    against O(B K n^d) for a dense (K, n_nodes) table (M = 18 for
    K = 256).  In 1-D, M_0 = K, the gather is the identity and every
    transform is one matrix product.  All act on the last axis of
    (..., n_nodes) or (..., K) stacks; identical rows give identical
    bits anywhere in one.  The index map and the gradient stacks are
    built at their first use and kept.
    """

    domain: DomainSpec
    mode_count: int
    eigenvalues: np.ndarray            # (K,) nondecreasing, eigenvalues[0] == 0
    mode_indices: np.ndarray           # (K, dim) integer index tuples
    axes: tuple[np.ndarray, ...]       # per-axis node coordinates
    weights: np.ndarray                # (n_nodes,) tensor trapezoid weights
    cosines: tuple[np.ndarray, ...]    # T_a (M_a, N+1): c_l cos(q_l x)
    derivatives: tuple[np.ndarray, ...]  # (M_a, N+1): -c_l q_l sin(q_l x)
    quadrature: tuple[np.ndarray, ...]   # Q_a (N+1, M_a): weights_a * T_a.T

    def __repr__(self):
        # the tables would fill a failure message; name the sizes instead
        dom = self.domain
        m_a = tuple(len(t) for t in self.cosines)
        return (f"SpectralBasis(lengths={dom.lengths}, "
                f"{dom.eigenvalue_convention}, N={dom.grid_points_per_axis}, "
                f"K={self.mode_count}, M_a={m_a})")

    @cached_property
    def grid_shape(self):
        return tuple(len(ax) for ax in self.axes)

    @cached_property
    def _flat_modes(self):
        """(K,) place l * M_1 + m of each mode (l, m) in the flat C (2-D)."""
        l, m = self.mode_indices.T
        return l * len(self.cosines[1]) + m

    @cached_property
    def _gradient_tables(self):
        """The stacks (D_0^T, T_0^T) and (T_1, D_1) of ``gradients`` (2-D).

        Shaped (2, 1, N+1, M_0) and (2, 1, M_1, N+1).  The first holds
        transposed views, as ``synthesize`` reads T_0^T, so that each
        product is the BLAS call, and gives the bits, of a synthesis.
        """
        (t0, t1), (d0, d1) = self.cosines, self.derivatives
        return (np.stack((d0, t0))[:, None].transpose(0, 1, 3, 2),
                np.stack((t1, d1))[:, None])

    @property
    def n_nodes(self):
        return self.weights.size

    @property
    def volume(self):
        return self.domain.volume

    def project(self, nodal_flat):
        """Quadrature inner products <f, e_k> for all modes (last axis)."""
        if self.domain.dim == 1:
            return nodal_flat @ self.quadrature[0]
        q0, q1 = self.quadrature
        lead = nodal_flat.shape[:-1]
        c = q0.T @ nodal_flat.reshape(lead + self.grid_shape) @ q1
        return c.reshape(lead + (-1,)).take(self._flat_modes, axis=-1)

    def synthesize(self, modal, out=None):
        """Nodal samples of sum_k modal_k e_k, flattened (last axis).

        ``out``, a C-contiguous float array of the result's shape, receives
        the samples (the same bits) instead of a new array.
        """
        if self.domain.dim == 1:
            return np.matmul(modal, self.cosines[0], out=out)
        t0, t1 = self.cosines
        lead = modal.shape[:-1]
        grid = None if out is None else out.reshape(lead + self.grid_shape)
        f = np.matmul(t0.T @ self._coefficients(modal), t1, out=grid)
        return f.reshape(lead + (self.n_nodes,)) if out is None else out

    def gradients(self, modal):
        """Nodal gradient of sum_k modal_k e_k: (dim, ..., n_nodes).

        Row a of the stack holds d/dx_a on the last axis.
        """
        if self.domain.dim == 1:
            return np.matmul(modal, self.derivatives[0])[None]
        left, right = self._gradient_tables
        lead = modal.shape[:-1]
        c = self._coefficients(modal)
        f = left @ c.reshape((-1,) + c.shape[-2:]) @ right
        return f.reshape((2,) + lead + (self.n_nodes,))

    def _coefficients(self, modal):
        """The (..., M_0, M_1) array C holding the modes of ``modal`` (2-D)."""
        lead = modal.shape[:-1]
        c = np.zeros(lead + (len(self.cosines[0]), len(self.cosines[1])))
        c.reshape(lead + (-1,))[..., self._flat_modes] = modal
        return c


def _axis_modes(domain, axis, count):
    """Angular factors q_l and normalisations c_l of cosines l < count."""
    length = domain.lengths[axis]
    l = np.arange(count)
    if domain.eigenvalue_convention == "paper_1d":
        q = 2.0 * np.pi * l / length
    else:
        q = np.pi * l / length
    c = np.where(l == 0, np.sqrt(1.0 / length), np.sqrt(2.0 / length))
    return q, c


def _mode_list_1d(domain, count):
    idx = np.arange(count, dtype=int).reshape(-1, 1)
    a = domain.lengths[0]
    k = np.arange(count)
    if domain.eigenvalue_convention == "paper_1d":
        # literal form of the stated eigenvalues (on the unit interval)
        lam = 4.0 * np.pi**2 * k**2 / a**2
    else:
        lam = (np.pi * k / a) ** 2
    return lam, idx


def _mode_list_2d(domain, count):
    a, b = domain.lengths

    def eigenvalues(l, m):
        return (l * np.pi / a) ** 2 + (m * np.pi / b) ** 2

    # the s x s box holds s^2 >= count modes, so the count-th eigenvalue
    # is at most its corner's; a mode at or below that value has
    # l <= (a/pi) sqrt(lam_max) (likewise m), one index of margin added
    s = math.isqrt(count - 1) + 1
    lam_max = eigenvalues(s - 1, s - 1)
    n_l = min(count, int(a / np.pi * math.sqrt(lam_max)) + 2)
    n_m = min(count, int(b / np.pi * math.sqrt(lam_max)) + 2)
    l, m = np.divmod(np.arange(n_l * n_m), n_m)
    lam = eigenvalues(l, m)
    order = np.lexsort((m, l, lam))[:count]
    return lam[order], np.column_stack((l[order], m[order]))


def mode_list(domain: DomainSpec, mode_count: int):
    """Eigenvalues and index tuples of the first ``mode_count`` modes.

    Rejects mode counts that would alias on the grid: on every axis the
    grid frequency of every mode, the number of half periods of its
    cosine across the axis (2k under ``paper_1d``, the index k
    otherwise), must stay below N/2.  The error reports the minimum N
    that works.
    """
    if mode_count < 1:
        raise ValueError("mode_count must be >= 1")
    if domain.dim == 1:
        lam, idx = _mode_list_1d(domain, mode_count)
    else:
        lam, idx = _mode_list_2d(domain, mode_count)
    half_periods = 2 if domain.eigenvalue_convention == "paper_1d" else 1
    top = half_periods * int(idx.max())
    n = domain.grid_points_per_axis
    if top >= n // 2:
        raise ValueError(
            f"grid frequency {top} aliases on a grid with {n} points per "
            f"axis; need grid_points_per_axis >= {2 * (top + 1)}"
        )
    return lam, idx


def build_basis(domain: DomainSpec, mode_count: int) -> SpectralBasis:
    """Construct the first ``mode_count`` eigenpairs on the domain grid.

    Mode counts that alias on the grid are rejected by :func:`mode_list`.
    """
    lam, idx = mode_list(domain, mode_count)
    n = domain.grid_points_per_axis

    axes = tuple(
        np.linspace(0.0, length, n + 1) for length in domain.lengths
    )
    w_axes = []
    for length in domain.lengths:
        w = np.full(n + 1, length / n)
        w[0] *= 0.5
        w[-1] *= 0.5
        w_axes.append(w)
    if domain.dim == 1:
        weights = w_axes[0]
    else:
        weights = np.outer(w_axes[0], w_axes[1]).ravel()

    cosines, derivatives, quadrature = [], [], []
    for ax, (x, w) in enumerate(zip(axes, w_axes)):
        q, c = _axis_modes(domain, ax, int(idx[:, ax].max()) + 1)
        q, c = q[:, None], c[:, None]
        cosines.append(c * np.cos(q * x))
        derivatives.append(-c * q * np.sin(q * x))
        quadrature.append(np.ascontiguousarray((cosines[-1] * w).T))

    return SpectralBasis(
        domain=domain,
        mode_count=mode_count,
        eigenvalues=lam,
        mode_indices=idx,
        axes=axes,
        weights=weights,
        cosines=tuple(cosines),
        derivatives=tuple(derivatives),
        quadrature=tuple(quadrature),
    )
