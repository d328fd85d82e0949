"""Pointwise algebra on nodal stacks.

Fields are plain arrays: modal (..., K) coefficients against the
orthonormal eigenbasis of a :class:`~gmspde.spectral.SpectralBasis`, or
nodal (..., n_nodes) samples on its tensor grid, one trajectory per row.

The reactive nonlinearity u^2/v is evaluated nodally with a
configurable positivity floor on the denominator; every floor
activation is counted so a run can report how often the discrete
inhibitor undershot the level the continuum theory guarantees.
Products projected back to the truncation pass the 2/3-rule guard.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .spectral import SpectralBasis


class FloorViolation(ValueError):
    """Denominator would be floored at zero: nonpositive value with no floor."""

    def __init__(self, message, node_index=None):
        super().__init__(message)
        self.node_index = node_index


def dealias_modal(basis: SpectralBasis, modal):
    """Zero coefficients whose mode index exceeds 2/3 of the top index.

    Standard 2/3-rule guard applied after projecting nodal products of
    fields back onto the truncation.
    """
    max_idx = basis.mode_indices.max()
    if max_idx == 0:
        return modal
    cutoff = np.floor(2.0 / 3.0 * max_idx)
    keep = (basis.mode_indices <= cutoff).all(axis=1)
    out = np.where(keep, modal, 0.0)
    return out


def guarded_basis(basis: SpectralBasis):
    """``basis`` with projection tables that apply :func:`dealias_modal`.

    The guard keeps the modes whose every index is at most the cutoff, so
    it factors over the axes: zeroing each quadrature table's columns
    above the largest kept index makes ``project`` return the guarded
    coefficients at no cost per call, the kept ones bit for bit (a
    product's column does not depend on the others) and zeros for the
    rest (for finite input).
    """
    keep = dealias_modal(basis, np.ones(basis.mode_count)) != 0.0
    top = basis.mode_indices[keep].max(axis=0)
    tables = tuple(np.where(np.arange(q.shape[1]) <= t, q, 0.0)
                   for q, t in zip(basis.quadrature, top))
    return dataclasses.replace(basis, quadrature=tables)


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


def reject_nonpositive(v_nodal):
    """Raise the :func:`floor_violation` of the first row with v <= 0."""
    rows = np.reshape(v_nodal, (-1, np.shape(v_nodal)[-1]))
    bad = np.flatnonzero(np.any(rows <= 0.0, axis=-1))
    if bad.size:
        raise floor_violation(rows[bad[0]])


def floor_counts(v_nodal, v_floor):
    """Per-row number of nodes below ``v_floor`` (last axis)."""
    return np.count_nonzero(v_nodal < v_floor, axis=-1)


def quotient_nodal(u_nodal, v_nodal, v_floor, out=None):
    """Array form of u^2 / max(v, floor); returns (values, activations).

    Acts on the last axis; leading axes are independent rows, and
    ``activations`` is the total over all of them (:func:`floor_counts`
    gives it per row).  A zero floor raises the :class:`FloorViolation`
    of the first row holding a nonpositive v.  ``out`` receives the
    values if given; otherwise a positive floor divides into its own
    max(v, floor) array.
    """
    if v_floor < 0:
        raise ValueError("v_floor must be >= 0")
    if v_floor == 0.0:
        reject_nonpositive(v_nodal)
        return np.divide(u_nodal * u_nodal, v_nodal, out=out), 0
    activations = int(np.count_nonzero(v_nodal < v_floor))
    denom = np.maximum(v_nodal, v_floor)
    return np.divide(u_nodal * u_nodal, denom,
                     out=denom if out is None else out), activations
