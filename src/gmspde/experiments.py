"""The three headline experiments.

* Picard iteration of the decoupling map: given an input trajectory
  (chi, eta), solve the inhibitor equation driven by chi^2, then the
  activator equation driven by chi^2/v, on frozen noise; iterate and
  measure contraction in the ensemble semi-norm
  (E sup_t |chi|^2_{H^(1-rho)})^(1/2) + E sup_t |eta|_{L2}.
* Common-noise uniqueness study: two trajectories from initial data a
  distance delta apart, driven by the identical increment table, with
  the stopping-time thresholds on |xi|_{L8} and the H^1 energy of u
  tracked along the way.
* Monte Carlo ensembles feeding the functional monitors.

Everything is deterministic given the master seed.  Ensemble and
Picard members are paths 0..B-1, member b reading the noise of path
b, stepped as one stack through the one stepping core,
``dynamics.run_batch``, which reads their noise from a noise source
``draw(n0, n1)``; results are reduced in row order.  Ensembles and
the coupled solve step the coupled system; the map T is the same
core given a ``driver``, the input trajectory's chi in the sources,
so both share one scheme and one set of checks, and a coupled
trajectory is an exact fixed point of the discrete T.  An ensemble
draws its noise in blocks of steps inside the core and is
reproducible bit for bit for a given path count, whatever the block
size; each member agrees with its solo ``run`` to rounding (1e-13 x
max|value|, pinned by the tests), because a stacked product may sum a
row in another order than a single-row one.  The Picard
iteration keeps its members' whole increment table, which every
application of the map re-reads through ``noise.sliced``.  T is causal
in time, so successive iterates are stepped in lockstep (pipelined
waveform relaxation): a sweep is one stack of chained blocks of
members, block j driven by the live u of block j - 1, its depth worked
out from :data:`SWEEP_MAX_ROWS` and the measured contraction (see
:func:`picard_iterate`); the sweep's driver and noise source form that
layout, and the core steps one stack.  Its iterates equal chained driven
``run_batch`` calls to rounding, their distances and functionals are
measured live as the sweep steps them, and its report, read block by
block, reruns bit for bit.  The uniqueness study draws its path's
table once and runs its two trajectories one by one on it, so its
delta = 0 check stays bitwise; each run's observer keeps its modes and
the |xi|_L8 of each state as it steps, and the stopping times are read
from those series, so no state is walked twice.

A stored iterate is a (2, B, n+1, K) modal array: chi (u) first, then
eta (v), of B >= 1 paths on the steps n dt; a uniqueness run keeps its
one row as (2, n+1, K).  A functional trace is a stack of B >= 1 paths
too; a single path is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    ModelParams,
    SchemeConfig,
    SimulationError,
    driven_by,
    initial_state,
    run,
    run_batch,
)
from .functionals import (
    AdmissibleSetSpec,
    FunctionalConfig,
    FunctionalRecorder,
    FunctionalTrace,
    MembershipReport,
    auto_bounds,
    energy_monitors,
    membership,
    xi_nodal,
)
from .noise import NoiseSpec, drawn, sliced
from .spectral import nonfinite


@dataclass(frozen=True)
class FixedPointConfig:
    """Iteration budget and semi-norm settings for the Picard study."""

    max_iterations: int = 30
    tolerance: float = 1e-6
    ensemble_size: int = 16
    bound_margin: float = 10.0

    def __post_init__(self):
        problems = nonfinite(tolerance=self.tolerance,
                             bound_margin=self.bound_margin)
        if self.tolerance <= 0:
            problems.append("tolerance must be positive")
        if self.ensemble_size < 1:
            problems.append("ensemble_size must be >= 1")
        if self.max_iterations < 1:
            problems.append("max_iterations must be >= 1")
        if self.bound_margin <= 0:
            problems.append("bound_margin must be positive")
        if problems:
            raise ValueError("\n".join(problems))


@dataclass(frozen=True)
class StoppingSpec:
    """Increasing thresholds for the two stopping-time families."""

    m_levels: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0)

    def __post_init__(self):
        levels = self.m_levels
        problems = nonfinite(m_levels=levels)
        if not levels:
            problems.append("stopping levels must hold at least one level")
        elif any(b <= a for a, b in zip(levels, levels[1:])):
            problems.append("stopping levels must be strictly increasing")
        if problems:
            raise ValueError("\n".join(problems))


# most chained rows (members x blocks) in one sweep of
# :func:`picard_iterate`, the coupled block on top.  A step of a
# picard_1d-shaped sweep (16 members, K = 16, N = 64, 100 steps) took,
# on one BLAS thread, in three sets of medians of 12 alternating sweeps
# on 2 cores, 83-85 us at 16 rows, 140-145 at 64 and 351-370 at 208:
# 54-59 us fixed plus 1.41-1.51 us a row, so a sweep's rows cost one
# more sweep's fixed cost at 36-42 rows.  The sets agree, and so did
# sets on two BLAS threads (58-60 us fixed, 35-41 rows).  The bound
# stays: at picard_1d its sweeps of 4 + 2 blocks step as many rows in
# as many sweeps as 3 + 3 would.
SWEEP_MAX_ROWS = 64


def row_sups(diff, h_weights):
    """Per-row sups over the steps of a (2, ..., w, K) difference stack.

    Squares ``diff`` (chi then eta) in place and returns the (2, ...)
    maxima over its w steps of the per-(row, step) sums over the modes of
    |dchi|^2 (1 + lambda_k)^(1-rho) (``h_weights``) and of |deta|^2:
    the same bits whether a trajectory's steps come at once or in windows.
    """
    diff *= diff
    diff[0] *= h_weights
    return np.max(np.sum(diff, axis=-1), axis=-1)


def seminorm_m(sups):
    """Ensemble semi-norm of the (2, B) per-row sups of :func:`row_sups`.

    (E sup_t |dchi|^2_{H^(1-rho)})^(1/2) + E sup_t |deta|_{L2}, the
    expectation being the mean over the B paths.
    """
    return float(np.sqrt(np.mean(sups[0])) + np.mean(np.sqrt(sups[1])))


class _Sweep:
    """Driver, noise source and observer of one Picard sweep's stack.

    The stack, ``rows`` high, is ``depth`` blocks of the m members of the
    stored iterate ``previous``, then the coupled block unless the stored
    ``coupled`` is given.  :meth:`chi` drives block 0 by ``previous``, block
    j by the live u of block j - 1 and the coupled block by its own u;
    :meth:`draw` repeats ``frozen`` once per block.  The lean recorder
    ``functionals`` rides the walk.  The states pass through windows of at
    most the recorder's stride and no more states than one block; at the end
    of each, ``to_previous`` and ``to_coupled`` take each driven block's
    running per-row sups against the block before and against the coupled
    block, (2, depth, m).  Only the last driven block and the coupled one
    are kept whole, in ``last`` and ``coupled``.
    """

    def __init__(self, functionals, scheme, frozen, previous, coupled, depth):
        self.functionals = functionals
        self._frozen, self._previous = frozen, previous
        self._live = coupled is None
        self.coupled = np.empty_like(previous) if self._live else coupled
        self.last = np.empty_like(previous)
        _, m, states, k = previous.shape
        self.rows = m * (depth + self._live)
        self._drive = driven_by(functionals.basis, scheme, previous[0])
        self._chi = np.empty((self.rows, functionals.basis.n_nodes))
        self.to_previous = np.zeros((2, depth, m))
        self.to_coupled = np.zeros((2, depth, m))
        width = max(1, min(functionals.stride, states // (depth + 1)))
        self._window = np.empty((2, depth + self._live, m, width, k))
        self._diff = np.empty((2, depth, m, width, k))

    def draw(self, n0, n1):
        members = self._frozen(n0, n1)
        return np.tile(members, (self.rows // len(members), 1, 1, 1))

    def chi(self, state, n):
        m, driven = self.to_previous.shape[2], self.to_previous[0].size
        self._chi[:m] = self._drive(state, n)
        self._chi[m:driven] = state.u_nodal[:driven - m]
        self._chi[driven:] = state.u_nodal[driven:]
        return self._chi

    def _reduce(self, first, count):
        steps = slice(first, first + count)
        window = self._window[..., :count, :]
        diff = self._diff[..., :count, :]
        depth, h = len(diff[0]), self.functionals.h_weights
        if self._live:
            self.coupled[:, :, steps] = window[:, depth]
        np.subtract(window[:, 0], self._previous[:, :, steps], out=diff[:, 0])
        np.subtract(window[:, 1:depth], window[:, :depth - 1], out=diff[:, 1:])
        np.maximum(self.to_previous, row_sups(diff, h), out=self.to_previous)
        np.subtract(window[:, :depth], self.coupled[:, None, :, steps], out=diff)
        np.maximum(self.to_coupled, row_sups(diff, h), out=self.to_coupled)
        self.last[:, :, steps] = window[:, depth - 1]

    def observe(self, view, dt):
        """Window slot step % width; a full window or the last state ends it."""
        self.functionals.observe(view, dt)
        step, width = view.step_index, self._window.shape[3]
        self._window[..., step % width, :] = view.modal.reshape(
            self._window.shape[:3] + (-1,))
        if step % width == width - 1 or dt is None:
            self._reduce(step - step % width, step % width + 1)


@dataclass
class PicardReport:
    distances: list
    ratios: list
    converged: bool
    iterations: int
    residual_vs_coupled: float
    memberships: list
    bounds: AdmissibleSetSpec

    @property
    def all_ratios_below_one(self):
        return all(r < 1.0 for r in self.ratios)

    @property
    def all_members(self):
        return all(m.ok for m in self.memberships)

    def summary_lines(self):
        lines = [
            f"picard iterations: {self.iterations} "
            f"(converged: {self.converged})",
            "start: steady state + mode-1..4 bumps",
            f"bounds: K1={self.bounds.K1:.6g} K2={self.bounds.K2:.6g} "
            f"K3={self.bounds.K3:.6g}",
        ]
        for i, d in enumerate(self.distances):
            ratio = f" ratio={self.ratios[i - 1]:.6g}" if i >= 1 else ""
            member = " member=yes" if self.memberships[i].ok else " member=NO"
            lines.append(f"  d_{i} = {d:.6g}{ratio}{member}")
        lines.append(
            f"terminal residual vs coupled solve: "
            f"{self.residual_vs_coupled:.6g}"
        )
        return lines


def picard_iterate(init, params: ModelParams, scheme: SchemeConfig, basis,
                   noise_spec: NoiseSpec, config: FixedPointConfig,
                   fconfig: FunctionalConfig | None = None):
    """Iterate the decoupling map on frozen paths until the semi-norm settles.

    Every member starts from the time-constant trajectory of the (2, K)
    modal ``init`` and reads its own frozen noise row; iterate k+1 is T
    applied to iterate k.  T is causal in time (step n of iterate k+1
    reads iterate k up to step n only), so the iterates are stepped in
    sweeps: one stack of W blocks of members through
    :func:`~gmspde.dynamics.run_batch`, block 0 driven by the stored
    previous iterate and block j by the live u of block j - 1, and in the
    first sweep one more block stepping the coupled system on the same
    noise, the reference of ``residual_vs_coupled``; the sweep
    (``_Sweep``) drives these blocks and repeats their noise rows.  W is
    worked out, not set: the first sweep takes as many blocks as
    :data:`SWEEP_MAX_ROWS` rows allow, at least 1, and a later one at
    most as many, the iterations its measured contraction asks for:
    ceil(log(tolerance/d_k) / log(d_k/d_(k-1))); none takes more than the
    iterations left.

    The sweep's observer measures the distances as the sweep steps,
    keeping two blocks, and records its functionals live, without the
    energy monitors, which no part of the report reads
    (``FunctionalRecorder(..., monitors=False)``).  The start's are
    recorded from its one state, the one-row
    :func:`~gmspde.dynamics.initial_state` of ``init``, observed at t = 0
    and at the horizon with one accumulation over the whole horizon
    between: every state of the start is ``init``, so the bounds and the
    positivity check are those of a walk over its steps, to rounding.  The
    report is read block by block, as one application of T at a time:
    distance to the previous iterate, membership, convergence test.  An
    iterate that failed raises its first row failure; the first failing
    iterate in order is raised, then a failure of the coupled solve.
    Blocks past convergence are discarded unread, so they neither count
    nor raise.  Non-convergence within the budget is reported, not raised.

    Each block is the iterate a driven ``run_batch`` gives to rounding
    (1e-13 x max|value|, pinned by the tests), and the distances follow
    it: a stacked product may sum a row in another order than a product
    of another height, so the budget and the depths may move last bits.
    Bit for bit hold the frozen noise table and reruns of one
    configuration (the same depths, so the same stacks).
    """
    fconfig = fconfig or FunctionalConfig()
    m = config.ensemble_size
    n = scheme.n_steps()
    # one stored table: every application of T re-reads the same frozen
    # increments, and drawing them anew each time costs more than the table
    frozen = sliced(drawn(noise_spec, scheme, range(m))(0, n))

    view = initial_state(basis, init, 1, scheme.v_floor)
    rec = FunctionalRecorder(basis, fconfig, monitors=False)
    rec.observe(view, n * scheme.dt)
    view.t = n * scheme.dt
    rec.observe(view, None)
    start_trace = rec.traces()
    bounds = auto_bounds(start_trace, margin=config.bound_margin)
    start_member = membership(start_trace, bounds)
    if not start_member.positivity_ok:
        raise ValueError(
            f"start trajectory violates positivity: {start_member.failure}"
        )

    # every member starts from the same trajectory; all are stepped at once
    previous = np.broadcast_to(init[:, None, None],
                               (2, m, n + 1, basis.mode_count))
    distances = []
    ratios = []
    memberships = []
    converged = False
    coupled = coupled_failure = None

    while not converged and len(distances) < config.max_iterations:
        depth = min(max(1, SWEEP_MAX_ROWS // m),
                    config.max_iterations - len(distances))
        if ratios and ratios[-1] < 1.0:
            # the iterations the measured contraction asks for
            depth = min(depth, max(1, math.ceil(
                math.log(config.tolerance / distances[-1])
                / math.log(ratios[-1]))))
        rec = FunctionalRecorder(basis, fconfig, monitors=False)
        sweep = _Sweep(rec, scheme, frozen, previous, coupled, depth)
        final = run_batch(init, params, scheme, basis, noise_spec, sweep.draw,
                          sweep.rows, observer=sweep, driver=sweep.chi)
        traces = rec.traces()
        # each block's first row failure, the coupled block's at depth
        failures = {}
        for row, exc in final.failures.items():
            failures.setdefault(row // m, exc)
        for j in range(depth):
            if j in failures:
                raise failures[j]
            d = seminorm_m(sweep.to_previous[:, j])
            if distances:
                ratios.append(d / distances[-1] if distances[-1] > 0 else 0.0)
            distances.append(d)
            memberships.append(membership(
                traces.rows(range(j * m, (j + 1) * m)), bounds))
            residual_sups = sweep.to_coupled[:, j]
            if d < config.tolerance:
                converged = True
                break
        if coupled is None:
            coupled_failure = failures.get(depth)
        previous, coupled = sweep.last, sweep.coupled
        # the window is freed before the next sweep allocates its own
        del sweep, final

    # residual against the directly coupled solve on the same noise
    if coupled_failure is not None:
        raise coupled_failure
    residual = seminorm_m(residual_sups)
    return PicardReport(
        distances=distances,
        ratios=ratios,
        converged=converged,
        iterations=len(distances),
        residual_vs_coupled=residual,
        memberships=memberships,
        bounds=bounds,
    )


@dataclass
class UniquenessReport:
    times: np.ndarray
    du_l2: np.ndarray
    dv_l2: np.ndarray
    delta: float
    amplification: float
    tau1_steps: dict
    tau2_steps: dict
    bitwise_identical: bool
    theorem_scope: str

    def summary_lines(self):
        lines = [
            f"delta = {self.delta:g}  ({self.theorem_scope})",
            f"sup_t |u1-u2|_L2 = {self.du_l2.max():.6g}",
            f"sup_t |v1-v2|_L2 = {self.dv_l2.max():.6g}",
            f"bitwise identical: {self.bitwise_identical}",
        ]
        if self.delta > 0:
            lines.append(f"amplification C = sup/delta = {self.amplification:.6g}")
        for label, table in (("tau1(|xi|_L8)", self.tau1_steps),
                             ("tau2(H1 energy)", self.tau2_steps)):
            for (m, run_id), step in sorted(table.items()):
                hit = f"step {step}" if step is not None else "not hit"
                lines.append(f"  {label} m={m:g} run{run_id}: {hit}")
        return lines


class _StudyRun:
    """Observer of one run of :func:`uniqueness_study`.

    For each state of the one-row run it keeps the (2, K) modes, in
    ``modes`` (2, n+1, K), and the |xi|_L8 of the state's own floored
    inhibitor, xi = 1/``view.v_floored``, in ``xi8`` (n+1,).
    """

    def __init__(self, basis, scheme):
        n = scheme.n_steps()
        self._basis, self._scheme = basis, scheme
        self.modes = np.empty((2, n + 1, basis.mode_count))
        self.xi8 = np.empty(n + 1)

    def observe(self, view, dt):
        step = view.step_index
        self.modes[:, step] = view.modal[:, 0]
        xi = xi_nodal(view.v_floored[0])
        self.xi8[step] = (xi**8 @ self._basis.weights) ** (1.0 / 8.0)

    def first_hits(self, levels):
        """First-hitting steps of tau1 and tau2, each a dict by level.

        The running sup of |xi|_L8 first reaches m where |xi|_L8 does;
        the energy is formed from the stored u.
        """
        u_sq = self.modes[0]**2
        sup_u2 = np.maximum.accumulate(np.sum(u_sq, axis=1))
        h1 = np.sum((1.0 + self._basis.eigenvalues) * u_sq, axis=1)
        # left-point rule for int_0^t |u|_H1^2 ds, summed in step order
        dt = self._scheme.dt
        energy = np.concatenate(([0.0], np.cumsum(h1[:-1] * dt))) + sup_u2

        def first_hit(series, m):
            hits = np.flatnonzero(series >= m)
            return int(hits[0]) if hits.size else None

        return ({m: first_hit(self.xi8, m) for m in levels},
                {m: first_hit(energy, m) for m in levels})


def uniqueness_study(init, delta: float, params: ModelParams,
                     scheme: SchemeConfig, basis, noise_spec: NoiseSpec,
                     stopping: StoppingSpec, draw,
                     perturb_mode: int = 1) -> UniquenessReport:
    """Two runs differing by delta in one mode, driven by the same noise.

    The first starts from the (2, K) modal ``init``, the second from a
    copy with ``delta`` added to u's mode ``perturb_mode``.  Both read
    the increments of ``draw``, the noise source of one path (see
    :func:`~gmspde.dynamics.run`): its table is drawn once, and each run
    reads it through ``noise.sliced``, bit for bit the drawn blocks.
    delta = 0 must give bitwise-coincident trajectories; delta > 0
    reports the measured amplification sup_t |u1-u2|_L2 / delta.  Each
    run's observer (``_StudyRun``) keeps its modes and |xi|_L8 as it
    steps, and the run's stopping times are read from them.  The theorem
    behind this check is one-dimensional; rectangle runs are labeled
    outside its scope but executed all the same.
    """
    if delta < 0:
        raise ValueError("perturbation size must be >= 0")
    if not 0 <= perturb_mode < basis.mode_count:
        raise ValueError("perturbation mode outside the truncation")
    init2 = np.array(init, dtype=float)
    init2[0, perturb_mode] += delta
    n = scheme.n_steps()
    # the table is the size of one of the two trajectories kept below
    common = sliced(draw(0, n))

    def solve(pair):
        walk = _StudyRun(basis, scheme)
        run(pair, params, scheme, basis, noise_spec, common, observer=walk)
        return walk

    runs = solve(init), solve(init2)
    diff = runs[0].modes - runs[1].modes
    du = np.sqrt(np.sum(diff[0]**2, axis=1))
    dv = np.sqrt(np.sum(diff[1]**2, axis=1))
    bitwise = bool(np.all(diff == 0.0))
    amplification = float(du.max() / delta) if delta > 0 else 0.0

    tau1, tau2 = {}, {}
    for run_id, walk in enumerate(runs, 1):
        hits1, hits2 = walk.first_hits(stopping.m_levels)
        tau1.update({(m, run_id): step for m, step in hits1.items()})
        tau2.update({(m, run_id): step for m, step in hits2.items()})

    scope = ("within theorem scope (d=1)" if basis.domain.dim == 1
             else "outside theorem scope (d=2)")
    return UniquenessReport(
        times=np.arange(n + 1) * scheme.dt, du_l2=du, dv_l2=dv, delta=delta,
        amplification=amplification, tau1_steps=tau1, tau2_steps=tau2,
        bitwise_identical=bitwise, theorem_scope=scope,
    )


@dataclass
class EnsembleReport:
    """Ensemble statistics; ``traces`` is the stack of the survivors.

    Its columns are (survivors, n_obs), rows in path order; ``means``
    and ``standard_errors`` reduce them.
    """

    times: np.ndarray
    means: dict
    standard_errors: dict
    monitors: dict
    n_paths: int
    survivors: int
    failures: list
    traces: FunctionalTrace = field(repr=False)

    def summary_lines(self):
        lines = [f"paths: {self.n_paths}, survivors: {self.survivors}"]
        for idx, msg in self.failures:
            lines.append(f"  path {idx} failed: {msg}")
        for name, fit in self.monitors.items():
            status = "BLOW-UP" if fit.blow_up else "ok"
            lines.append(
                f"  monitor {name}: C={fit.C:.6g} delta={fit.delta:.6g} "
                f"[{status}]"
            )
        return lines


def ensemble(init, params: ModelParams, scheme: SchemeConfig,
             basis, noise_spec: NoiseSpec, n_paths: int,
             fconfig: FunctionalConfig, horizons=None) -> EnsembleReport:
    """Monte Carlo ensemble with per-column statistics and monitor fits.

    Every path starts from the (2, K) modal ``init``.  Paths
    0..n_paths-1 are stepped as one stack, path b in row b, with their
    noise drawn in blocks of steps; the result is reproducible bit for
    bit for a given path count, and each path agrees with its solo run
    to rounding.  A path that fails is reported by its row with the
    error its solo run raises, and the other paths go on; statistics
    and monitors reduce the stack of the survivors' rows
    (``EnsembleReport.traces``).  An error raised before the paths can
    differ (a bad grid or initial state) propagates.  Paths with equal
    inputs (sigma = 0) agree only to rounding.
    """
    if n_paths < 2:
        raise ValueError("an ensemble needs at least two paths")
    rec = FunctionalRecorder(basis, fconfig)
    final = run_batch(init, params, scheme, basis, noise_spec,
                      drawn(noise_spec, scheme, range(n_paths)), n_paths,
                      observer=rec)
    failures = [(row, f"{type(exc).__name__}: {exc}")
                for row, exc in sorted(final.failures.items())]
    rows = [row for row in range(n_paths) if row not in final.failures]
    if not rows:
        raise SimulationError("every ensemble path failed; first failure: "
                              f"{failures[0][1]}")
    traces = rec.traces().rows(rows)
    m = len(rows)
    means = {name: col.mean(axis=0) for name, col in traces.data.items()}
    # a sum of squares shifted by the first survivor, kept bit for bit
    ses = {name: ((col - col[0]).std(axis=0, ddof=1) / np.sqrt(m) if m > 1
                  else np.zeros(col.shape[1]))
           for name, col in traces.data.items()}
    monitors = energy_monitors(traces, params, fconfig, horizons=horizons)
    return EnsembleReport(
        times=traces.times, means=means, standard_errors=ses,
        monitors=monitors, n_paths=n_paths, survivors=m, failures=failures,
        traces=traces,
    )
