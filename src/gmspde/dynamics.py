"""Time stepping of the coupled activator-inhibitor SPDE.

Two schemes share one exponential core:

* ``ito_imex``: the Ito form in which the scalar decay rates are
  replaced by the diagonal operators mu*Id - sigma*(Id+A)^(-gamma);
  the nonlinearity and the leftover sigma*(Id+A)^(-gamma) part are
  treated explicitly, the noise term by Euler-Maruyama.
* ``stratonovich_heun``: the Stratonovich form with plain scalar decay
  and a midpoint (Heun) predictor-corrector on the noise coefficient.

Per mode, the stiff linear part c_k = r*lambda_k + mu is integrated
exactly:

    x <- exp(-c dt) x + dt phi1(c dt) F + exp(-c dt) noise,

with phi1(z) = (1 - exp(-z))/z.  The phi1 weighting makes homogeneous
steady states exact fixed points of the discrete map and reproduces
pure exponential decay to rounding error; the plain Euler bracket
cannot do both at once.

The update rule lives in one place, :meth:`Stepper.advance`, which
steps both fields with sources formed from a driver chi:
kappa_u chi^2/max(v, floor) for u and kappa_v chi^2 for v.  Each
field's noise coefficient depends on that field alone, so with chi = u
this is the coupled step, and with chi from a given trajectory (the
``driver`` of :func:`run_batch`; :func:`driven_by` of a stored one) it
is a step of the Picard map T.  One core with one set of checks steps
both, and a coupled trajectory is an exact fixed point of the discrete
T.  The core steps one stack; the chained blocks of
``experiments.picard_iterate``'s sweeps, their coupled block and the
noise rows each block repeats live in the sweep.

Paths are stepped as stacks: one state object, :class:`StateView`,
holds B trajectories of both fields as one stack (modal (2, B, K),
nodal (2, B, n_nodes), u first), and the stepper advances every row of
both fields at once, so each transform is one (2B, .) product for the
whole stack.  A :class:`Stepper` is built for the one stack it steps,
its factors broadcast once to the stack's height, and
:func:`initial_state` synthesizes the stack's state 0.  :func:`run_batch`
drives such a stack and :func:`run` is its one-row case; there is no
second stepping path.  What observers store keeps the layout: a stored
trajectory is the (2, B, n+1, K) modal array of its states, u first, a
functional trace a stack of B >= 1 paths, a single path a stack of one.
Initial data is one (2, K) modal array (row 0 u, row 1 v), and a run
returns its final :class:`StateView`.  Every run reads its noise through
one interface, a noise source ``draw(n0, n1)`` (:mod:`gmspde.noise`), in
blocks of steps, two at most, which :func:`~gmspde.noise.blocks` may
draw one ahead.
Each row is checked on its own (reaction CFL, finiteness, the zero-floor
positivity of v): a failed row stops with the error its solo run raises
and the other rows go on.  The floor is the core's: each state carries
max(v, floor), ``StateView.v_floored``, formed once a state by
:func:`initial_state` and :meth:`Stepper.advance`, which under a zero
floor also check v > 0 (a failed row keeps its last good state).  So
every state the sources and the observers see has v > 0, where
max(v, 0) is v bit for bit; no observer takes a floor.  Observers see
the stack from the stepping loop of :func:`run_batch`, the one walk
over a trajectory's states, which hands each state once to their one
hook, ``observe`` (see :func:`run`): the functional recorder rides it,
and so does the Picard sweep's observer, which feeds its lean recorder
(no energy monitors) on the same walk.

Numbers.  A transform of a B-row stack is one (2B, K) or (2B, n) matrix
product, so even a one-row run is a two-row product, and the BLAS
kernel may sum a row in another order than a product of another height
would (even two identical rows of one stack).  A row of a stack then
agrees with its solo run to rounding (pinned at 1e-13 x max|value| by
the tests).  Bit for bit hold: reruns of a given stacking of the same
paths (so :func:`run`, and two runs with delta = 0), T applied to a
coupled trajectory (the driver chi is synthesized in the layout of the
state's u), and the noise tables.  Noise enters in blocks of steps
(:data:`NOISE_BLOCK_DRAWS`), whose size changes no bit.

Nonlinear and noise products are formed nodally and projected back to
the truncation with a 2/3-rule guard (Orszag, J. Atmos. Sci. 28, 1971).
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field, replace

import numpy as np

from .noise import NoiseSpec, blocks, sliced
from .spectral import SpectralBasis, nonfinite

SCHEMES = ("ito_imex", "stratonovich_heun")

# most Gaussian draws (paths x 2 processes x modes x steps) in one block
# of a stack's noise; a block holds at least one step, and its size
# changes no bit.  ``ens_1d`` (200 paths, 50 steps, K = 16) drawn in-line,
# in-process on 2 cores, min of 4 x 5 runs: 2**12..2**14 0.160-0.166 s,
# 2**15 0.137, 2**16 0.141, 2**17 0.137, the whole table 0.151; 2**15
# (256 KB) is the smallest on that plateau.  Drawn ahead, medians of 2 x
# 20 runs: 2**13 0.116 s, 2**14 0.090, 2**15 0.079, 2**16 0.071, 2**17 0.071.
NOISE_BLOCK_DRAWS = 2**15


class SimulationError(RuntimeError):
    """Runtime failure of a trajectory (CFL violation, non-finite state)."""


class FloorViolation(ValueError):
    """Denominator would be floored at zero: nonpositive value with no floor."""

    def __init__(self, message, node_index=None):
        super().__init__(message)
        self.node_index = node_index


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


@dataclass(frozen=True)
class ModelParams:
    """Diffusion, source, decay and noise-intensity constants."""

    r_u: float
    r_v: float
    kappa_u: float
    kappa_v: float
    mu_u: float
    mu_v: float
    sigma_u: float
    sigma_v: float

    def __post_init__(self):
        problems = nonfinite(**self.__dict__) + [
            f"{name} = {value:g} violates positivity"
            for name, value in self.__dict__.items() if value < 0]
        if problems:
            raise ValueError("\n".join(problems))


def steady_state(params: ModelParams):
    """Homogeneous noiseless fixed point (u*, v*).

    A ValueError names the constants when u* or v* is undefined or not
    finite, or v* is not positive (kappa_u = 0), as the model needs v > 0.
    """
    p = params
    try:
        u_star = p.kappa_u * p.mu_v / (p.kappa_v * p.mu_u)
        v_star = p.kappa_v * u_star**2 / p.mu_v
    except (ZeroDivisionError, OverflowError):
        u_star = v_star = math.nan
    at = (f"at kappa_u = {p.kappa_u!r}, kappa_v = {p.kappa_v!r}, "
          f"mu_u = {p.mu_u!r}, mu_v = {p.mu_v!r}")
    if not (math.isfinite(u_star) and math.isfinite(v_star)):
        raise ValueError("no finite steady state u* = kappa_u mu_v/(kappa_v "
                         f"mu_u), v* = kappa_v u*^2/mu_v {at}")
    if v_star <= 0.0:
        raise ValueError(f"steady state v* = kappa_v u*^2/mu_v = {v_star:g} "
                         f"is not positive {at}")
    return u_star, v_star


@dataclass(frozen=True)
class SchemeConfig:
    """Solver decisions: step size, scheme, floor, reaction CFL guard.

    The scalar decay mu is always integrated exactly with the diffusion,
    and the 2/3-rule guard is always applied to projected products.  The
    horizon T must be a whole number n >= 1 of steps dt, to 1e-9 x T;
    :meth:`n_steps` returns n.
    """

    dt: float
    T: float
    scheme: str = "ito_imex"
    v_floor: float = 1e-8
    reaction_cfl_limit: float = 1.0

    def __post_init__(self):
        problems = nonfinite(dt=self.dt, T=self.T, v_floor=self.v_floor,
                             reaction_cfl_limit=self.reaction_cfl_limit)
        if self.dt <= 0:
            problems.append("dt must be positive")
        if self.T <= 0:
            problems.append("horizon must be positive")
        if 0 < self.dt < np.inf and 0 < self.T < np.inf:
            n = round(self.T / self.dt)
            if n < 1:
                problems.append(f"horizon {self.T:g} is shorter than one "
                                f"step of {self.dt:g}")
            elif abs(n * self.dt - self.T) > 1e-9 * self.T:
                problems.append(f"horizon {self.T:g} is not an integral "
                                f"number of steps of {self.dt:g}")
        if self.scheme not in SCHEMES:
            problems.append(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.v_floor < 0:
            problems.append("v_floor must be >= 0")
        if self.reaction_cfl_limit <= 0:
            problems.append("reaction_cfl_limit must be positive")
        if problems:
            raise ValueError("\n".join(problems))

    def n_steps(self):
        return int(round(self.T / self.dt))


def _phi1(z):
    """(1 - exp(-z))/z, stable at z = 0."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    pos = z != 0.0
    out[pos] = -np.expm1(-z[pos]) / z[pos]
    return out


@dataclass
class StateView:
    """The live state of a stack of B trajectories, handed to their observer.

    Both fields are held as one stack, u first: ``modal`` (2, B, K) and
    flat ``nodal`` (2, B, n_nodes), so row b of ``modal[0]`` is the u of
    trajectory b.  ``u_modal``, ``v_modal``, ``u_nodal`` and ``v_nodal``
    are views of the two halves; ``v_floored`` (B, n_nodes) is
    max(v_nodal, floor), which the sources divide by.  ``floor_activations``
    and ``alive`` are (B,); the rows share ``t`` and ``step_index``.
    :meth:`Stepper.advance` updates the state in place and reuses its
    arrays, ``v_floored`` too, so an observer that keeps values across
    steps must copy them.  A failed row keeps its last good state, ``alive``
    is False there and ``failures`` maps the row to the error that stopped it.
    """

    t: float
    step_index: int
    modal: np.ndarray
    nodal: np.ndarray
    v_floored: np.ndarray
    floor_activations: np.ndarray
    alive: np.ndarray
    failures: dict = field(default_factory=dict)

    @property
    def u_modal(self):
        return self.modal[0]

    @property
    def v_modal(self):
        return self.modal[1]

    @property
    def u_nodal(self):
        return self.nodal[0]

    @property
    def v_nodal(self):
        return self.nodal[1]


def _synthesize(basis, modal, out):
    """Synthesis of a (2, B, K) stack into ``out`` as one (2B, .) product."""
    basis.synthesize(modal.reshape(-1, modal.shape[-1]),
                     out=out.reshape(-1, out.shape[-1]))
    return out


def initial_state(basis: SpectralBasis, initial, n_rows: int,
                  v_floor: float) -> StateView:
    """State 0 of ``n_rows`` trajectories from the (2, K) modal ``initial``.

    Row 0 of ``initial`` is u, row 1 is v; every trajectory starts from a
    copy, and the nodal stack is one (2 n_rows, K) synthesis.  It carries
    max(v, ``v_floor``); a zero floor rejects v <= 0 (FloorViolation).
    """
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (2, basis.mode_count):
        raise ValueError(f"initial data has shape {initial.shape}, "
                         f"needs (2, {basis.mode_count})")
    modal = np.repeat(initial[:, None], n_rows, axis=1)
    nodal = _synthesize(basis, modal, np.empty((2, n_rows, basis.n_nodes)))
    if v_floor == 0.0:
        reject_nonpositive(nodal[1])
    return StateView(
        t=0.0, step_index=0, modal=modal, nodal=nodal,
        v_floored=np.maximum(nodal[1], v_floor),
        floor_activations=np.zeros(n_rows, dtype=int),
        alive=np.ones(n_rows, dtype=bool),
    )


def _dealiased(basis: SpectralBasis):
    """``basis`` with projection tables that apply the 2/3-rule guard.

    The guard keeps the modes whose every index is at most 2/3 of the
    top index, rounded down, and zeros the others.  It factors over the
    axes: zeroing each quadrature table's columns above the largest kept
    index makes ``project`` return the guarded coefficients at no cost
    per call, the kept ones bit for bit (a product's column does not
    depend on the others) and zeros for the rest (for finite input).
    """
    indices = basis.mode_indices
    keep = (indices <= np.floor(2.0 / 3.0 * indices.max())).all(axis=1)
    top = indices[keep].max(axis=0)
    tables = tuple(np.where(np.arange(q.shape[1]) <= t, q, 0.0)
                   for q, t in zip(basis.quadrature, top))
    return replace(basis, quadrature=tables)


class Stepper:
    """Precomputed per-mode factors of one (basis, params, scheme) triple.

    A stepper is built for the stack it steps: states of ``rows``
    trajectories (:func:`initial_state`).  Per-field constants are
    (2, rows, K) or (2, 1, 1) stacks, row 0 for u and row 1 for v, so
    one expression steps both fields of a (2, rows, K) state.  ``damp``
    is the (2, 1, K) noise damping (Id+A)^(-gamma/2) of W_1 and W_2.
    """

    def __init__(self, basis: SpectralBasis, params: ModelParams,
                 scheme: SchemeConfig, noise_spec: NoiseSpec, rows: int):
        if basis.mode_count != noise_spec.mode_count:
            raise ValueError("basis and noise spec disagree on mode count")
        self.basis = basis
        self.params = params
        self.scheme = scheme
        lam = basis.eigenvalues

        def fields(u, v):
            """(2, 1, K) stack of per-mode u and v values, (2, 1, 1) of scalars."""
            return np.stack(np.broadcast_arrays(u, v)).reshape(2, 1, -1)

        def stacked(c):
            # contiguous (2, rows, K), so that the factors' products with
            # the state take numpy's same-shape loops
            return np.ascontiguousarray(
                np.broadcast_to(c, (2, rows, basis.mode_count)))

        dt = scheme.dt
        c = fields(params.r_u * lam + params.mu_u, params.r_v * lam + params.mu_v)
        gamma = fields(noise_spec.gamma1, noise_spec.gamma2)
        self._heun = scheme.scheme == "stratonovich_heun"
        self._sigma = fields(params.sigma_u, params.sigma_v)
        self._kappa = stacked(fields(params.kappa_u, params.kappa_v))
        # leftover diagonal drift of the Ito form once the exponential
        # absorbed r*lambda + mu: the correction sigma*(Id+A)^(-gamma);
        # the Stratonovich form has none
        self._lin = stacked(self._sigma * (1.0 + lam) ** (-gamma))
        self._decay = stacked(np.exp(-c * dt))
        self._gain = stacked(dt * _phi1(c * dt))
        self.damp = (1.0 + lam) ** (-0.5 * gamma)
        self._guarded = _dealiased(basis)
        # the (2, rows, n_nodes) work stack, written in place: first the
        # sources, then the synthesized increments.  It is allocated at
        # the first step, after the first noise block: allocated here, it
        # raised the ens_1d benchmark's peak RSS (200 paths, K = 16) from
        # 38.4 to 39.3 MB on one 2-core host, through glibc's heap
        # placement, though not on another whose baseline read 39.4 MB.
        self._work_nodal = None

    def _project(self, nodal):
        """Guarded projection of a (2, B, n_nodes) stack as one (2B, .) product."""
        modal = self._guarded.project(nodal.reshape(-1, nodal.shape[-1]))
        return modal.reshape(nodal.shape[:-1] + (-1,))

    def _noise(self, nodal, dw_nodal):
        """Guarded projection of the noise products sigma * nodal * dW.

        The products are formed in place of ``nodal``.
        """
        np.multiply(self._sigma, nodal, out=nodal)
        np.multiply(nodal, dw_nodal, out=nodal)
        return self._project(nodal)

    def _sources(self, state, chi_nodal, out):
        """Nodal sources into ``out``: chi^2/max(v, floor) for u, chi^2 for v.

        Divides by the state's ``v_floored``.  Adds each live row's count
        of nodes with v below the floor to ``state.floor_activations``,
        and returns each row's reaction number kappa_u*max(chi^2/v)*dt.
        """
        chi2 = np.multiply(chi_nodal, chi_nodal, out=out[1])
        below = state.v_nodal < self.scheme.v_floor
        if below.any():
            state.floor_activations += state.alive * np.count_nonzero(
                below, axis=-1)
        q_nodal = np.divide(chi2, state.v_floored, out=out[0])
        peak = self.params.kappa_u * q_nodal.max(axis=-1, initial=0.0)
        return peak * self.scheme.dt

    def advance(self, state: StateView, dw_modal, chi_nodal=None):
        """One step of (u, v) for every row of ``state``, in place.

        ``state`` is a stack of the stepper's ``rows`` trajectories, and
        ``dw_modal`` the (2, rows, K) stack of damped Wiener increments
        (``damp`` times the raw ones), row 0 of W_1 for u and row 1 of
        W_2 for v.  The sources are formed from the driver chi: u gets
        kappa_u chi^2/max(v, floor) and v gets kappa_v chi^2.  With
        ``chi_nodal`` None, chi is u itself and this is the coupled step;
        a given (rows, n_nodes) ``chi_nodal`` makes it a step of the
        Picard map T.  Each transform of a step acts on both fields at
        once, as one (2 rows, .) product: a step projects twice and
        synthesizes twice (three times each under Heun).  The nodal stack
        is reused as work space during the step and holds the new nodal
        state at its end; ``state.v_floored`` is then rewritten from it.

        A live row fails the step on a reaction CFL violation, a
        non-finite result or, under a zero floor, a nonpositive inhibitor
        (checked in that order).  It then keeps its pre-step values and
        leaves ``state.alive``, and ``state.failures`` holds the error a
        solo :func:`run` of that path raises.  Failed rows stay in the
        stack, so the other rows' bits do not depend on which rows fail.
        """
        step = state.step_index
        limit = self.scheme.reaction_cfl_limit
        modal, nodal = state.modal, state.nodal
        if self._work_nodal is None:
            self._work_nodal = np.empty_like(nodal)
        work = self._work_nodal
        chi = nodal[0] if chi_nodal is None else chi_nodal
        peak = self._sources(state, chi, out=work)
        forcing = self._kappa * self._project(work)
        if not self._heun:    # the Ito correction, added where it always was
            forcing = forcing + self._lin * modal
        dw_nodal = _synthesize(self.basis, dw_modal, out=work)
        noise = self._noise(nodal, dw_nodal)
        decay, gain = self._decay, self._gain
        if self._heun:
            deterministic = decay * modal + gain * forcing
            predicted = _synthesize(self.basis, deterministic + decay * noise,
                                    out=nodal)
            corrector = self._noise(predicted, dw_nodal)
            new = deterministic + decay * 0.5 * (noise + corrector)
        else:    # added in place, one (2, rows, K) array fewer at once
            new = decay * (modal + noise)
            new += gain * forcing
        ok = state.alive & (peak < limit) & np.isfinite(new).all(axis=(0, 2))
        failed = {}
        if not ok.all():
            for r in np.flatnonzero(state.alive & ~ok):
                if peak[r] >= limit:
                    message = (f"reaction CFL violated at step {step}: "
                               f"kappa_u*max(u^2/v)*dt = {peak[r]:g} >= {limit:g}")
                else:
                    message = f"non-finite state after step {step}"
                failed[int(r)] = SimulationError(message)
            new[:, ~ok] = modal[:, ~ok]
        _synthesize(self.basis, new, out=nodal)
        if self.scheme.v_floor == 0.0:
            floored = np.flatnonzero(ok & np.any(nodal[1] <= 0.0, axis=-1))
            for r in floored:
                failed[int(r)] = floor_violation(nodal[1, r])
            if floored.size:
                # restored rows synthesize to their pre-step bits
                new[:, floored] = modal[:, floored]
                _synthesize(self.basis, new, out=nodal)
        np.maximum(nodal[1], self.scheme.v_floor, out=state.v_floored)
        state.modal = new
        for r, exc in failed.items():
            state.alive[r] = False
            state.failures[r] = exc
        state.step_index += 1
        state.t = state.step_index * self.scheme.dt


def driven_by(basis: SpectralBasis, scheme: SchemeConfig, chi):
    """The :func:`run_batch` driver of the map T by a stored (B, n+1, K) chi.

    Step n reads row n, synthesized as the u half of a (2B, K) product
    (the state's u layout: a coupled trajectory is an exact fixed point
    of T).  A chi of another step or mode count is a ValueError.
    """
    needs = (len(chi), scheme.n_steps() + 1, basis.mode_count)
    if chi.shape != needs:
        raise ValueError(f"driver has shape {chi.shape}, run needs {needs}")
    pair = np.zeros((2,) + needs[::2])    # chi in row 0, as u in the state
    pair_nodal = np.empty((2, len(chi), basis.n_nodes))

    def driver(state, n):
        pair[0] = chi[:, n]
        return _synthesize(basis, pair, out=pair_nodal)[0]
    return driver


def run_batch(initial, params: ModelParams, scheme: SchemeConfig,
              basis: SpectralBasis, noise_spec: NoiseSpec, draw, n_paths: int,
              observer=None, driver=None) -> StateView:
    """Drive ``n_paths`` trajectories from ``initial`` as one stack.

    ``initial`` is the (2, K) modal initial data (row 0 u, row 1 v) every
    trajectory starts from.
    ``draw(n0, n1)`` is a noise source (:func:`~gmspde.noise.drawn`,
    :func:`~gmspde.noise.sliced`): it returns the raw Brownian increments
    of the stack's paths over steps n0..n1-1, shape (n_paths, 2, K,
    n1 - n0).  The stack takes them in blocks of at most
    :data:`NOISE_BLOCK_DRAWS` draws (at least one step), so its noise
    costs O(n_paths K) memory whatever the horizon; the block size moves
    no bit of the result.  The blocks come through
    :func:`~gmspde.noise.blocks`, which may draw one ahead.  Each step's
    increments are damped as one (2, n_paths, K) stack
    (:attr:`Stepper.damp`).  ``observer`` sees the whole stack (see
    :func:`run`).  A row that fails a step stops there, its error in the
    returned state's ``failures``, and the other rows go on; the walk
    ends early once every row has failed.  Returns the stack's final
    :class:`StateView`.

    ``driver(state, n)``, a callable like ``draw``, is called once a step,
    after the observer; it returns the (n_paths, n_nodes) nodal chi of
    step n (another shape is a ValueError) that replaces u in the sources
    of :meth:`Stepper.advance`, and the stack steps the Picard map T
    (:func:`driven_by`); with None, the coupled system.  A Picard sweep's
    chained blocks and repeated noise rows live in its driver and source.
    """
    stepper = Stepper(basis, params, scheme, noise_spec, n_paths)
    state = initial_state(basis, initial, n_paths, scheme.v_floor)
    k = basis.mode_count
    span = max(1, NOISE_BLOCK_DRAWS // (n_paths * 2 * k))
    with closing(blocks(draw, scheme.n_steps(), span)) as stream:
        for n0, n1, block in stream:
            if block.shape != (n_paths, 2, k, n1 - n0):
                raise ValueError(
                    f"noise block for steps {n0}..{n1 - 1} has shape "
                    f"{block.shape}, run needs {(n_paths, 2, k, n1 - n0)}")
            for n in range(n0, n1):
                if observer is not None:
                    observer.observe(state, scheme.dt)
                chi = None if driver is None else driver(state, n)
                if chi is not None and chi.shape != state.u_nodal.shape:
                    raise ValueError(
                        f"driver gives chi of shape {chi.shape} at "
                        f"step {n}, run needs {state.u_nodal.shape}")
                dw = stepper.damp * block[..., n - n0].swapaxes(0, 1)
                stepper.advance(state, dw, chi)
                if not state.alive.any():
                    return state
            del block    # released before the next block is drawn
    if observer is not None:
        observer.observe(state, None)
    return state


def run(initial, params: ModelParams, scheme: SchemeConfig,
        basis: SpectralBasis, noise_spec: NoiseSpec, draw,
        observer=None) -> StateView:
    """Drive one trajectory from the (2, K) modal ``initial``.

    Row 0 of ``initial`` is u, row 1 is v.  This is :func:`run_batch`
    with one row: ``draw`` is the noise source of one path
    (:func:`~gmspde.noise.drawn` of one path index, or
    :func:`~gmspde.noise.sliced` of a (1, 2, K, N) table), read in
    blocks of steps, and a block of the wrong shape is rejected.  It
    returns the final one-row :class:`StateView` (u at
    ``u_modal[0]``/``u_nodal[0]``, the step count in ``step_index``), and
    a failed step raises its error.  :func:`run_batch`'s loop calls an
    observer's one method, ``observe(state, dt)``, once for every state:
    before each step with its dt, and after the last with dt None, which
    a walk whose rows have all failed skips.  The trajectory is a pure
    function of its arguments.

    ``draw`` may be None only for noiseless runs (sigma_u = sigma_v = 0).
    """
    if draw is None:
        if params.sigma_u != 0.0 or params.sigma_v != 0.0:
            raise ValueError("a noise path is required when sigma > 0")
        draw = sliced(np.broadcast_to(
            0.0, (1, 2, basis.mode_count, scheme.n_steps())))
    final = run_batch(initial, params, scheme, basis, noise_spec, draw, 1,
                      observer)
    if final.failures:
        raise final.failures[0]
    return final


def constant_pair(basis: SpectralBasis, u_value: float, v_value: float):
    """(2, K) modal initial data of constant u and v, projected from the grid."""
    return np.stack([basis.project(np.full(basis.n_nodes, float(value)))
                     for value in (u_value, v_value)])


def default_initial_pair(basis: SpectralBasis, params: ModelParams,
                         amplitude: float = 0.01):
    """Near-homogeneous (2, K) modal start: u* with bumps in modes 1..4, v*."""
    u_star, v_star = steady_state(params)
    sqrt_vol = np.sqrt(basis.volume)
    u_modal = np.zeros(basis.mode_count)
    u_modal[0] = u_star * sqrt_vol
    for k in range(1, min(5, basis.mode_count)):
        u_modal[k] = amplitude * u_star
    v_modal = np.zeros(basis.mode_count)
    v_modal[0] = v_star * sqrt_vol
    return np.stack((u_modal, v_modal))
