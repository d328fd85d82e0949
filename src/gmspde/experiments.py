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
Picard members are keyed by path index and stepped as one stack
through the one stepping core, ``dynamics.run_batch``, which reads
their noise from a noise source ``draw(n0, n1)``; results are
reduced in index order.  Ensembles and the coupled solve step the
coupled system; ``apply_T`` steps the map T on the same core, its input
trajectory the driver chi of the sources, so both share one scheme and
one set of checks, and a coupled trajectory is an exact fixed point of
the discrete T.  An ensemble draws its noise in blocks of steps inside
the core and is reproducible bit for bit for a given path list,
whatever the block size; each member agrees with its solo ``run`` to
rounding (1e-13 x max|value|, pinned by the tests), because a stacked
product may sum a row in another order than a single-row one.  The Picard
iteration keeps its members' whole increment table, which every
application of the map re-reads through ``noise.sliced``.  T is causal
in time, so successive iterates are stepped in lockstep (pipelined
waveform relaxation): a sweep is one stack of chained blocks of
members, block j driven by the live u of block j - 1, its depth worked
out from the budgets :data:`SWEEP_STORE_VALUES` and
:data:`SWEEP_MAX_ROWS` (see :func:`picard_iterate`).  Its iterates equal
chained ``apply_T`` calls to rounding, their functionals are recorded
live as the sweep steps them, and its report, read block by block,
reruns bit for bit.  The uniqueness study draws its path's table
once and runs its two trajectories one by one on it, so its delta = 0
check stays bitwise.

Every stored trajectory (:class:`PairTrajectory`) and every functional
trace is a stack of B >= 1 paths; a single path is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    ModelParams,
    SchemeConfig,
    SimulationError,
    initial_state,
    run,
    run_batch,
)
from .fields import quotient_nodal
from .functionals import (
    AdmissibleSetSpec,
    FunctionalConfig,
    FunctionalRecorder,
    FunctionalTrace,
    MembershipReport,
    auto_bounds,
    energy_monitors,
    membership,
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
        if len(levels) == 0 or any(
            b <= a for a, b in zip(levels, levels[1:])
        ):
            problems.append("stopping levels must be strictly increasing")
        if problems:
            raise ValueError("\n".join(problems))


@dataclass
class PairTrajectory:
    """Dense modal snapshots of (chi, eta) couples on a step grid.

    A stack of B >= 1 paths on the same grid: (B, n+1, K) arrays.
    """

    times: np.ndarray        # (n+1,)
    chi_modal: np.ndarray    # (B, n+1, K)
    eta_modal: np.ndarray    # (B, n+1, K)

    def copy(self):
        return PairTrajectory(
            self.times.copy(), self.chi_modal.copy(), self.eta_modal.copy()
        )


# most stored values (2 fields x members x (n+1) states x K modes) of the
# chained iterates in one sweep of :func:`picard_iterate`, which holds
# them all at once; a sweep holds at least one block, and the coupled
# block of the first sweep comes on top.  At the ``picard_1d``
# benchmark's shape (16 members, 100 steps, K = 16: 51,712 values a
# block; 6 iterations) the iteration took, in-process, median of 5
# rounds of 15 calls on 2 cores, with its tracemalloc peak: one apply_T
# per iterate 106 ms, 2.24 MiB; sweeps of at most 1 block 102 ms,
# 2.64 MiB; 2 blocks 78 ms, 3.05 MiB; 3 blocks 75 ms, 3.46 MiB; 4 blocks
# 68 ms, 3.88 MiB; 6 (one sweep) 64 ms, 4.71 MiB; 30 (max_iterations,
# no budget) 130 ms, 15.6 MiB.  3 x 2**16 (a 1.5 MB store, 3 blocks
# there) keeps most of the gain for 1.2 MiB over one iterate at a time.
SWEEP_STORE_VALUES = 3 * 2**16

# most chained rows (members x blocks) in one sweep of
# :func:`picard_iterate`, the coupled block on top.  A step of a
# picard_1d-shaped chained stack (K = 16, N = 64, with its store) took,
# median of 15 runs of 100 steps on 2 cores: 118 us at 16 rows, 142 at
# 32, 165 at 48, 187 at 64, 230 at 96, 244 at 128, 355 at 192 and 900 at
# 480.  A row costs about 1.4 us against a fixed 95 us a step, so up to
# 64 rows a sweep's row work costs no more than the fixed cost of one
# more sweep; deeper first sweeps lose to the blocks they discard past
# convergence.  At 16 members and 10 steps (4 iterations; the store
# budget alone gives 30 blocks) the iteration took, median of 21 calls
# in two rounds: 12.4/12.8 ms at 16 rows, 9.1/8.3 ms at 64, 12.6/11.2 ms
# at 192 and 20.7/18.4 ms at 480, against 10.9/15.5 ms for one apply_T
# per iterate.
SWEEP_MAX_ROWS = 64


class TrajectoryRecorder:
    """Observer storing every step's modal coefficients of every row.

    The states of a run of ``n_steps`` steps go into one (2, B, n+1, K)
    store, allocated at the first record; if the walk stops early, the
    stacks handed out are views of the states recorded.
    :meth:`trajectories` returns the stack of all rows.  A
    :class:`~gmspde.functionals.FunctionalRecorder` given as
    ``functionals`` sees the same walk on its own stride.
    """

    stride = 1

    def __init__(self, n_steps: int, functionals=None):
        self._times = np.empty(n_steps + 1)
        self._store = None
        self._count = 0
        self.functionals = functionals

    def accumulate(self, view, dt):
        if self.functionals is not None:
            self.functionals.accumulate(view, dt)

    def record(self, view):
        if self._store is None:
            self._store = np.empty(view.modal.shape[:2] + self._times.shape
                                   + view.modal.shape[2:])
        self._times[self._count] = view.t
        self._store[:, :, self._count] = view.modal
        self._count += 1
        if self.functionals is not None and (
                view.step_index % self.functionals.stride == 0
                or self._count == self._times.size):
            self.functionals.record(view)

    def trajectories(self):
        # (2, B, n+1, K): chi and eta are its two contiguous halves
        states = self._store[:, :, :self._count]
        return PairTrajectory(times=self._times[:self._count],
                              chi_modal=states[0], eta_modal=states[1])


def constant_trajectory(pair, scheme: SchemeConfig) -> PairTrajectory:
    """One-row stack of the time-constant (2, K) modal ``pair``."""
    n = scheme.n_steps()
    times = np.linspace(0.0, scheme.T, n + 1)
    chi = np.tile(pair[0], (1, n + 1, 1))
    eta = np.tile(pair[1], (1, n + 1, 1))
    return PairTrajectory(times=times, chi_modal=chi, eta_modal=eta)


def seminorm_m(a: PairTrajectory, b: PairTrajectory, basis, rho):
    """Ensemble semi-norm of the difference of two trajectory stacks.

    ``a`` and ``b`` hold the same B >= 1 paths in the same order; the
    expectation is the mean over the paths.
    """
    h_weights = (1.0 + basis.eigenvalues) ** (1.0 - rho)
    # squared in place: stacks of whole trajectories are large
    dchi = a.chi_modal - b.chi_modal
    dchi *= dchi
    dchi *= h_weights
    sup_h = np.max(np.sum(dchi, axis=-1), axis=-1)
    deta = a.eta_modal - b.eta_modal
    deta *= deta
    sup_l2 = np.max(np.sqrt(np.sum(deta, axis=-1)), axis=-1)
    return float(np.sqrt(np.mean(sup_h)) + np.mean(sup_l2))


def _check_input_positivity(traj, basis):
    # one row per (path, step), paths in order
    chi = basis.synthesize(traj.chi_modal).reshape(-1, basis.n_nodes)
    eta = basis.synthesize(traj.eta_modal).reshape(-1, basis.n_nodes)
    bad = np.flatnonzero(np.any(chi < 0.0, axis=1) | np.any(eta <= 0.0, axis=1))
    if bad.size == 0:
        return
    n = int(bad[0])
    if np.any(chi[n] < 0.0):
        label, values = "chi negative", chi[n]
    else:
        label, values = "eta nonpositive", eta[n]
    loc = int(np.argmin(values))
    raise ValueError(
        f"input {label} at t = {traj.times[n % traj.times.size]:g}, node {loc} "
        f"(value {values[loc]:g}): outside the admissible set"
    )


def apply_T(traj: PairTrajectory, init, params: ModelParams,
            scheme: SchemeConfig, basis, noise_spec: NoiseSpec, draw):
    """One application of the decoupling map on frozen noise.

    Solves the inhibitor equation with source kappa_v chi^2(t) and the
    activator equation with source kappa_u chi^2(t)/v(t) from the (2, K)
    modal initial data ``init`` by the coupled step and its checks
    (:func:`~gmspde.dynamics.run_batch` driven by ``traj``'s chi), so a
    coupled trajectory is its exact fixed point; eta enters only through
    the admissibility check.  ``traj`` is a stack of B >= 1 paths, and
    ``draw`` is the noise source of as many paths
    (:func:`~gmspde.noise.drawn`, :func:`~gmspde.noise.sliced`), whose
    blocks are checked as :func:`~gmspde.dynamics.run` checks them; the
    first row failure is raised.
    Returns the output stack and the final
    :class:`~gmspde.dynamics.StateView` of the stack, whose per-row
    ``floor_activations`` count floored nodes.

    :func:`picard_iterate` steps T in chained sweeps instead; this
    one-application form is the reference its blocks are checked against
    (the sweep tests and ``tools/compare_trees.py``).
    """
    _check_input_positivity(traj, basis)
    out, final = _stack_solve(init, params, scheme, basis, noise_spec, draw,
                              traj.chi_modal.shape[0], driver=traj.chi_modal)
    if final.failures:
        raise next(iter(final.failures.values()))
    return out, final


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


def _stack_solve(init, params, scheme, basis, noise_spec, draw, n_paths,
                 driver=None, chain=1, coupled=False, functionals=None):
    """Stored trajectories and final state of one :func:`run_batch` stack.

    ``driver``, ``chain`` and ``coupled`` are ``run_batch``'s; failed
    rows are left in the final state's ``failures``.  A
    :class:`~gmspde.functionals.FunctionalRecorder` given as
    ``functionals`` records the stack's functionals on the same walk.
    """
    rec = TrajectoryRecorder(scheme.n_steps(), functionals)
    final = run_batch(init, params, scheme, basis, noise_spec, draw,
                      n_paths, observer=rec, driver=driver, chain=chain,
                      coupled=coupled)
    return rec.trajectories(), final


def _block(stack: PairTrajectory, j: int, m: int) -> PairTrajectory:
    """Block ``j`` of ``m`` rows of a sweep's trajectory stack."""
    rows = slice(j * m, (j + 1) * m)
    return PairTrajectory(stack.times, stack.chi_modal[rows],
                          stack.eta_modal[rows])


def _first_failure(final, j: int, m: int):
    """The first row failure of block ``j`` of ``m`` rows, or None."""
    rows = range(j * m, (j + 1) * m)
    return next((exc for row, exc in final.failures.items() if row in rows),
                None)


def picard_iterate(init, params: ModelParams, scheme: SchemeConfig, basis,
                   noise_spec: NoiseSpec, config: FixedPointConfig,
                   fconfig: FunctionalConfig | None = None):
    """Iterate the decoupling map on frozen paths until the semi-norm settles.

    Every member starts from the time-constant trajectory of the (2, K)
    modal ``init`` (:func:`constant_trajectory`) and reads its own
    frozen noise row; iterate k+1 is T applied to iterate k.  T is
    causal in time (step n of iterate k+1 reads iterate k up to step n
    only), so the iterates are stepped in sweeps: one stack of W blocks
    of members through :func:`~gmspde.dynamics.run_batch`, block 0
    driven by the stored previous iterate and block j by the live u of
    block j - 1.
    The first sweep also steps the coupled system on the same noise, the
    reference of ``residual_vs_coupled``.  W is worked out, not set: as
    many blocks as both :data:`SWEEP_STORE_VALUES` stored values and
    :data:`SWEEP_MAX_ROWS` rows allow, at least 1 and at most the
    iterations left.

    The sweep's observer stores the stack and records its functionals
    live, without the energy monitors, which no part of the report reads
    (``FunctionalRecorder(..., monitors=False)``).  The start's are
    recorded from its one state, the one-row
    :func:`~gmspde.dynamics.initial_state` of ``init``, observed at t = 0
    and at the horizon with one accumulation over the whole horizon
    between: every state
    of the start is ``init``, so the bounds and the positivity check
    are those of a walk over its steps, to rounding.  The report is read
    block by block, as one application of T at a time: distance to the
    previous iterate, membership, convergence test.  An iterate that
    failed raises its first row failure, the error :func:`apply_T`
    raises on it; the first failing iterate in order is raised, then a
    failure of the coupled solve.  Blocks past convergence are discarded
    unread, so they neither count nor raise.  Non-convergence within the
    budget is reported, not raised.

    Each block is the iterate :func:`apply_T` gives to rounding
    (1e-13 x max|value|, pinned by the tests), and the distances follow
    it: a stacked product may sum a row in another order than a product
    of another height, so the budgets and the depths may move last bits.
    Bit for bit hold the frozen noise table and reruns of one
    configuration (the same depths, so the same stacks).
    """
    fconfig = fconfig or FunctionalConfig()
    m = config.ensemble_size
    n = scheme.n_steps()
    # one stored table: every application of T re-reads the same frozen
    # increments, and drawing them anew each time costs more than the table
    frozen = sliced(drawn(noise_spec, scheme, range(m))(0, n))
    budget = max(1, min(SWEEP_STORE_VALUES // (2 * m * (n + 1)
                                               * basis.mode_count),
                        SWEEP_MAX_ROWS // m))

    view = initial_state(basis, init, 1)
    rec = FunctionalRecorder(basis, fconfig, scheme.v_floor, monitors=False)
    rec.record(view)
    rec.accumulate(view, n * scheme.dt)
    view.t = n * scheme.dt
    rec.record(view)
    start_trace = rec.traces()
    bounds = auto_bounds(start_trace, margin=config.bound_margin)
    start_member = membership(start_trace, bounds)
    if not start_member.positivity_ok:
        raise ValueError(
            f"start trajectory violates positivity: {start_member.failure}"
        )

    # every member starts from the same trajectory; all are stepped at once
    start = constant_trajectory(init, scheme)
    current = PairTrajectory(start.times, np.repeat(start.chi_modal, m, axis=0),
                             np.repeat(start.eta_modal, m, axis=0))
    distances = []
    memberships = []
    converged = False
    coupled = coupled_failure = None

    while not converged and len(distances) < config.max_iterations:
        depth = min(budget, config.max_iterations - len(distances))
        blocks = depth + (coupled is None)
        rec = FunctionalRecorder(basis, fconfig, scheme.v_floor,
                                 path_index=np.tile(np.arange(m), blocks),
                                 monitors=False)
        stack, final = _stack_solve(init, params, scheme, basis, noise_spec,
                                    frozen, m, driver=current.chi_modal,
                                    chain=depth, coupled=coupled is None,
                                    functionals=rec)
        traces = rec.traces()
        for j in range(depth):
            failure = _first_failure(final, j, m)
            if failure is not None:
                raise failure
            new = _block(stack, j, m)
            d = seminorm_m(new, current, basis, fconfig.rho)
            distances.append(d)
            memberships.append(membership(
                traces.rows(range(j * m, (j + 1) * m)), bounds))
            current = new
            if d < config.tolerance:
                converged = True
                break
        if coupled is None:
            coupled = _block(stack, depth, m).copy()
            coupled_failure = _first_failure(final, depth, m)
        # the next sweep's input, out of the store, which is freed
        current = current.copy()
        del stack, final, new

    # residual against the directly coupled solve on the same noise
    if coupled_failure is not None:
        raise coupled_failure
    residual = seminorm_m(current, coupled, basis, fconfig.rho)

    ratios = [
        distances[i + 1] / distances[i] if distances[i] > 0 else 0.0
        for i in range(len(distances) - 1)
    ]
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


def _stopping_scan(traj: PairTrajectory, basis, scheme, levels):
    """First-hitting steps of the two stopping-time families.

    ``traj`` is a one-row stack.
    """
    v_nodal = basis.synthesize(traj.eta_modal[0])
    xi, _ = quotient_nodal(1.0, v_nodal, scheme.v_floor)
    # the running sup of |xi|_L8 first reaches m where |xi|_L8 does
    xi8 = (xi**8 @ basis.weights) ** (1.0 / 8.0)
    u_sq = traj.chi_modal[0]**2
    sup_u2 = np.maximum.accumulate(np.sum(u_sq, axis=1))
    h1 = np.sum((1.0 + basis.eigenvalues) * u_sq, axis=1)
    # left-point rule for int_0^t |u|_H1^2 ds, summed in step order
    h1_running = np.concatenate(([0.0], np.cumsum(h1[:-1] * scheme.dt)))
    energy = h1_running + sup_u2

    def first_hit(series, m):
        hits = np.flatnonzero(series >= m)
        return int(hits[0]) if hits.size else None

    tau1 = {m: first_hit(xi8, m) for m in levels}
    tau2 = {m: first_hit(energy, m) for m in levels}
    return tau1, tau2


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
    reports the measured amplification sup_t |u1-u2|_L2 / delta.  The
    theorem behind this check is one-dimensional; rectangle runs are
    labeled outside its scope but executed all the same.
    """
    if delta < 0:
        raise ValueError("perturbation size must be >= 0")
    if not 0 <= perturb_mode < basis.mode_count:
        raise ValueError("perturbation mode outside the truncation")
    init2 = np.array(init, dtype=float)
    init2[0, perturb_mode] += delta
    # the table is the size of one of the two trajectories kept below
    common = sliced(draw(0, scheme.n_steps()))

    def solve(pair):
        rec = TrajectoryRecorder(scheme.n_steps())
        run(pair, params, scheme, basis, noise_spec, common, observer=rec)
        return rec.trajectories()

    t1 = solve(init)
    t2 = solve(init2)
    dchi = t1.chi_modal[0] - t2.chi_modal[0]
    deta = t1.eta_modal[0] - t2.eta_modal[0]
    du = np.sqrt(np.sum(dchi**2, axis=1))
    dv = np.sqrt(np.sum(deta**2, axis=1))
    bitwise = bool(np.all(dchi == 0.0) and np.all(deta == 0.0))
    amplification = float(du.max() / delta) if delta > 0 else 0.0

    levels = stopping.m_levels
    tau1_a, tau2_a = _stopping_scan(t1, basis, scheme, levels)
    tau1_b, tau2_b = _stopping_scan(t2, basis, scheme, levels)
    tau1 = {(m, 1): tau1_a[m] for m in levels}
    tau1.update({(m, 2): tau1_b[m] for m in levels})
    tau2 = {(m, 1): tau2_a[m] for m in levels}
    tau2.update({(m, 2): tau2_b[m] for m in levels})

    scope = ("within theorem scope (d=1)" if basis.domain.dim == 1
             else "outside theorem scope (d=2)")
    return UniquenessReport(
        times=t1.times, du_l2=du, dv_l2=dv, delta=delta,
        amplification=amplification, tau1_steps=tau1, tau2_steps=tau2,
        bitwise_identical=bitwise, theorem_scope=scope,
    )


@dataclass
class EnsembleReport:
    """Ensemble statistics; ``traces`` is the stack of the survivors.

    Its columns are (survivors, n_obs), rows in path order (a repeated
    index repeats its row); ``means`` and ``standard_errors`` reduce them.
    """

    times: np.ndarray
    means: dict
    standard_errors: dict
    monitors: dict
    n_paths: int
    survivors: int
    failures: list
    traces: FunctionalTrace | None = field(repr=False, default=None)

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
             fconfig: FunctionalConfig, horizons=None,
             path_indices=None) -> EnsembleReport:
    """Monte Carlo ensemble with per-column statistics and monitor fits.

    Every path starts from the (2, K) modal ``init``.  The distinct
    path indices are stepped as one stack, in order of first
    appearance, with their noise drawn in blocks of steps; the result
    is reproducible bit for bit for a given path list, and each path
    agrees with its solo run to rounding.  A path that fails is
    reported by index with the error its solo run raises, and the other
    paths go on; statistics and monitors reduce the stack of the
    survivors' rows (``EnsembleReport.traces``).  An error raised
    before the paths can differ (a bad grid or initial state)
    propagates.  ``path_indices`` overrides the default consecutive
    indexing.  Repeats are allowed: a trajectory is a pure function of
    its index, so a repeated index repeats its row, and identical
    samples give standard errors of exactly 0.  Distinct indices with
    equal inputs (sigma = 0) agree only to rounding.
    """
    if path_indices is None:
        path_indices = range(n_paths)
    path_indices = [int(i) for i in path_indices]
    n_paths = len(path_indices)
    if n_paths < 2:
        raise ValueError("an ensemble needs at least two paths")
    distinct = list(dict.fromkeys(path_indices))
    rec = FunctionalRecorder(basis, fconfig, scheme.v_floor,
                             path_index=distinct)
    final = run_batch(init, params, scheme, basis, noise_spec,
                      drawn(noise_spec, scheme, distinct), len(distinct),
                      observer=rec)
    failed = {distinct[row]: f"{type(exc).__name__}: {exc}"
              for row, exc in final.failures.items()}
    failures = [(idx, failed[idx]) for idx in path_indices if idx in failed]
    row_of = {idx: row for row, idx in enumerate(distinct) if idx not in failed}
    rows = [row_of[idx] for idx in path_indices if idx in row_of]
    if not rows:
        raise SimulationError("every ensemble path failed; first failure: "
                              f"{failures[0][1]}")
    traces = rec.traces().rows(rows)
    m = len(rows)
    means = {name: col.mean(axis=0) for name, col in traces.data.items()}
    # shifted by the first survivor: identical samples give exactly 0
    ses = {name: ((col - col[0]).std(axis=0, ddof=1) / np.sqrt(m) if m > 1
                  else np.zeros(col.shape[1]))
           for name, col in traces.data.items()}
    monitors = energy_monitors(traces, params, fconfig, horizons=horizons)
    return EnsembleReport(
        times=traces.times, means=means, standard_errors=ses,
        monitors=monitors, n_paths=n_paths, survivors=m, failures=failures,
        traces=traces,
    )
