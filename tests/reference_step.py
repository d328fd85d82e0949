"""One step of one row, written from the ``gmspde.dynamics`` docstring.

A test oracle for :meth:`gmspde.dynamics.Stepper.advance`, with none of
its machinery: no stacks, no work arrays, no precomputed factors and no
in-place products.  Per field and mode, with c = r lambda_k + mu,

    x <- exp(-c dt) x + dt phi1(c dt) F + exp(-c dt) noise,

phi1(z) = (1 - exp(-z))/z.  F is kappa_u chi^2/max(v, floor) for u and
kappa_v chi^2 for v, projected; under ``ito_imex`` it also holds the
correction sigma (1 + lambda)^(-gamma) x.  The noise is the projection
of sigma x dW, dW the synthesis of (1 + lambda)^(-gamma/2) times the
raw increments; ``stratonovich_heun`` averages it with the noise at the
predicted state.  Every projection keeps the modes whose indices are
all at most 2/3 of the top index (Orszag's rule) and zeros the others.
"""

import numpy as np


def _phi1(z):
    safe = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 1.0, -np.expm1(-safe) / safe)


def reference_step(basis, params, scheme, spec, modal, dw, chi_nodal=None):
    """One step of the (2, K) ``modal`` state (u, v) on raw increments ``dw``.

    ``dw`` is (2, K): W_1 for u, W_2 for v.  ``chi_nodal`` drives the
    sources in place of u (a step of the Picard map).  Returns the new
    (2, K) state, the count of nodes with v below the floor, and the
    failure: None, "cfl", "nonfinite" or "floor".  A failed step returns
    the old state.
    """
    lam, dt, floor = basis.eigenvalues, scheme.dt, scheme.v_floor
    keep = np.all(3 * basis.mode_indices <= 2 * basis.mode_indices.max(),
                  axis=1)

    def project(nodal):
        return np.where(keep, basis.project(nodal), 0.0)

    u, v = modal
    u_nodal, v_nodal = basis.synthesize(u), basis.synthesize(v)
    chi = u_nodal if chi_nodal is None else chi_nodal
    below = int(np.count_nonzero(v_nodal < floor))
    quotient = chi**2 / np.maximum(v_nodal, floor)
    peak = params.kappa_u * quotient.max() * dt

    heun = scheme.scheme == "stratonovich_heun"
    new = []
    for x, x_nodal, r, mu, kappa, source, sigma, gamma, w in (
            (u, u_nodal, params.r_u, params.mu_u, params.kappa_u, quotient,
             params.sigma_u, spec.gamma1, dw[0]),
            (v, v_nodal, params.r_v, params.mu_v, params.kappa_v, chi**2,
             params.sigma_v, spec.gamma2, dw[1])):
        c = r * lam + mu
        decay, gain = np.exp(-c * dt), dt * _phi1(c * dt)
        w_nodal = basis.synthesize((1.0 + lam) ** (-gamma / 2) * w)
        forcing = kappa * project(source)
        noise = project(sigma * x_nodal * w_nodal)
        if heun:
            predicted = decay * x + gain * forcing + decay * noise
            corrector = project(sigma * basis.synthesize(predicted) * w_nodal)
            new.append(decay * x + gain * forcing
                       + decay * (noise + corrector) / 2)
        else:
            forcing = forcing + sigma * (1.0 + lam) ** (-gamma) * x
            new.append(decay * (x + noise) + gain * forcing)
    new = np.array(new)

    if not peak < scheme.reaction_cfl_limit:
        return modal, below, "nonfinite" if np.isnan(peak) else "cfl"
    if not np.isfinite(new).all():
        return modal, below, "nonfinite"
    if floor == 0.0 and np.any(basis.synthesize(new[1]) <= 0.0):
        return modal, below, "floor"
    return new, below, None
