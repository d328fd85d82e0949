"""Nodal/modal field representation and pointwise algebra.

A ``Field`` carries a scalar function in up to two representations tied
to one :class:`~gmspde.spectral.SpectralBasis`: nodal samples on the
tensor grid and/or coefficients against the orthonormal eigenbasis.
Missing representations are synthesized on demand; fields are
value-like and never share mutable state.

The reactive nonlinearity u^2/v is evaluated nodally with a
configurable positivity floor on the denominator; every floor
activation is counted so a run can report how often the discrete
inhibitor undershot the level the continuum theory guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SpectralBasis


class FloorViolation(ValueError):
    """Denominator would be floored at zero: nonpositive value with no floor."""

    def __init__(self, message, node_index=None):
        super().__init__(message)
        self.node_index = node_index


def _check_finite(arr, label):
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(np.ravel(arr)))[0])
        raise ValueError(f"{label} contains a non-finite entry at flat index {bad}")


class Field:
    """A scalar field with lazily synchronized nodal and modal forms."""

    __slots__ = ("basis", "_nodal", "_modal")

    def __init__(self, basis: SpectralBasis, nodal=None, modal=None):
        if nodal is None and modal is None:
            raise ValueError("a field needs at least one representation")
        self.basis = basis
        if nodal is not None:
            nodal = np.asarray(nodal, dtype=float)
            if nodal.shape != basis.grid_shape:
                nodal = nodal.reshape(basis.grid_shape)
            _check_finite(nodal, "nodal data")
        if modal is not None:
            modal = np.asarray(modal, dtype=float)
            if modal.shape != (basis.mode_count,):
                raise ValueError(
                    f"modal length {modal.shape} != ({basis.mode_count},)"
                )
            _check_finite(modal, "modal data")
        self._nodal = nodal
        self._modal = modal

    @classmethod
    def from_constant(cls, basis, value):
        return cls(basis, nodal=np.full(basis.grid_shape, float(value)))

    @property
    def has_nodal(self):
        return self._nodal is not None

    @property
    def has_modal(self):
        return self._modal is not None

    @property
    def nodal(self):
        if self._nodal is None:
            self._nodal = self.basis.synthesize(self._modal).reshape(
                self.basis.grid_shape
            )
        return self._nodal

    @property
    def modal(self):
        if self._modal is None:
            self._modal = self.basis.project(self._nodal.ravel())
        return self._modal

    def copy(self):
        return Field(
            self.basis,
            nodal=None if self._nodal is None else self._nodal.copy(),
            modal=None if self._modal is None else self._modal.copy(),
        )

    def __repr__(self):
        reps = []
        if self.has_nodal:
            reps.append("nodal")
        if self.has_modal:
            reps.append("modal")
        return f"Field({'+'.join(reps)}, K={self.basis.mode_count})"


@dataclass
class FieldPair:
    """Activator/inhibitor couple on a shared basis."""

    u: Field
    v: Field

    def __post_init__(self):
        if self.u.basis is not self.v.basis:
            raise ValueError("activator and inhibitor must share one basis")

    @property
    def basis(self):
        return self.u.basis

    def copy(self):
        return FieldPair(self.u.copy(), self.v.copy())

    def is_admissible(self):
        """Nonnegative activator, strictly positive inhibitor on the grid."""
        return bool(np.all(self.u.nodal >= 0.0) and np.all(self.v.nodal > 0.0))


def to_modal(f: Field) -> Field:
    """Field with the modal representation materialized."""
    f.modal
    return f


def to_nodal(f: Field) -> Field:
    """Field with the nodal representation materialized."""
    f.nodal
    return f


def norm_Lp(f: Field, p: float) -> float:
    """Quadrature approximation of the L^p norm, p >= 1."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    basis = f.basis
    val = basis.weights @ np.abs(f.nodal.ravel()) ** p
    out = float(val ** (1.0 / p))
    _check_finite(np.array([out]), "L^p norm")
    return out


def norm_L2(f: Field) -> float:
    return norm_Lp(f, 2.0)


def norm_Hs(f: Field, s: float) -> float:
    """Spectral multiplier norm (sum_k (1+lambda_k)^s fhat_k^2)^(1/2).

    Negative s is allowed; the norm lives on the truncated basis only.
    """
    lam = f.basis.eigenvalues
    out = float(np.sqrt(np.sum((1.0 + lam) ** s * f.modal**2)))
    _check_finite(np.array([out]), "H^s norm")
    return out


def dealias_modal(basis: SpectralBasis, modal, fraction=2.0 / 3.0):
    """Zero coefficients whose mode index exceeds ``fraction`` of the top index.

    Standard 2/3-rule guard applied after projecting nodal products of
    fields back onto the truncation.
    """
    max_idx = basis.mode_indices.max()
    if max_idx == 0:
        return modal
    cutoff = np.floor(fraction * max_idx)
    keep = (basis.mode_indices <= cutoff).all(axis=1)
    out = np.where(keep, modal, 0.0)
    return out


def floor_violation(v_nodal):
    """The :class:`FloorViolation` a zero floor meets on one row.

    Reports the first nonpositive node of ``v_nodal`` (which must have
    one), its index relative to the row.
    """
    v = np.ravel(v_nodal)
    loc = int(np.flatnonzero(v <= 0.0)[0])
    return FloorViolation(
        f"inhibitor is nonpositive at flat node {loc} "
        f"(value {v[loc]:g}) and no floor is set",
        node_index=loc,
    )


def floor_counts(v_nodal, v_floor):
    """Per-row number of nodes below ``v_floor`` (last axis)."""
    return np.count_nonzero(v_nodal < v_floor, axis=-1)


def quotient_nodal(u_nodal, v_nodal, v_floor):
    """Array form of u^2 / max(v, floor); returns (values, activations).

    Acts on the last axis; leading axes are independent rows, and
    ``activations`` is the total over all of them (:func:`floor_counts`
    gives it per row).  A zero floor raises the :class:`FloorViolation`
    of the first row holding a nonpositive v.
    """
    if v_floor < 0:
        raise ValueError("v_floor must be >= 0")
    if v_floor == 0.0:
        rows = np.reshape(v_nodal, (-1, np.shape(v_nodal)[-1]))
        bad = np.flatnonzero(np.any(rows <= 0.0, axis=-1))
        if bad.size:
            raise floor_violation(rows[bad[0]])
        return u_nodal * u_nodal / v_nodal, 0
    activations = int(np.count_nonzero(v_nodal < v_floor))
    denom = np.maximum(v_nodal, v_floor)
    return u_nodal * u_nodal / denom, activations


def reaction_quotient(u: Field, v: Field, v_floor: float):
    """Nodal u^2 / max(v, v_floor) with activation accounting.

    Returns (field, activation_count).  A zero floor demands strictly
    positive v and rejects otherwise, reporting the offending node.
    """
    if u.basis is not v.basis:
        raise ValueError("fields live on different bases")
    values, activations = quotient_nodal(u.nodal.ravel(), v.nodal.ravel(),
                                         v_floor)
    return Field(u.basis, nodal=values), activations


def gradient_nodal(f: Field):
    """Per-axis nodal samples of the spectral gradient of f."""
    basis = f.basis
    modal = f.modal
    return [
        basis.gradient(modal, ax).reshape(basis.grid_shape)
        for ax in range(basis.domain.dim)
    ]


def gradient_sq_integral(f: Field, weight: Field) -> float:
    """Weighted Dirichlet energy int weight * |grad f|^2 dx by quadrature."""
    if f.basis is not weight.basis:
        raise ValueError("fields live on different bases")
    basis = f.basis
    grads = gradient_nodal(f)
    sq = np.zeros(basis.grid_shape)
    for g in grads:
        sq += g * g
    out = float(basis.weights @ (weight.nodal * sq).ravel())
    _check_finite(np.array([out]), "gradient integral")
    return out
