"""Inverse-inhibitor field, energy functionals and growth monitors.

The recorder tracks, along a trajectory (chi, eta) = (u, v), the scalar
time series the analysis of the system lives on: L^2 and negative-order
Sobolev norms of the activator, L^p and L^1 norms and the log-mass of
xi = 1/eta, and the running space-time integrals that appear on the
left-hand side of the a-priori bounds (chi^2 xi, xi^2 chi^2,
xi^(p+2)|grad v|^2, u chi^2 xi).

The recorder walks a trajectory once, state by state as the stepper
goes (see :class:`FunctionalRecorder`), and reads xi from the floored
inhibitor max(eta, floor) each state carries: no formula takes a floor.
It keeps every column, or only the columns the admissibility checks
read (:data:`ADMISSIBILITY_COLUMNS`).

A :class:`FunctionalTrace` holds a stack of B >= 1 paths, (B, n_obs)
columns, as the recorder keeps them.  The Lyapunov functionals reduce
over the time axis, one value per path; :func:`membership`,
:func:`auto_bounds` and the monitors take expectations as means over
the path rows, in row order, so one path is the ensemble of itself.

From an ensemble's stack the monitors fit minimal constants (C, delta)
such that LHS(T) <= C exp(delta T) * (initial-data term) over all
observed horizons; the constants are measured, never asserted.  A
monitor that meets a non-finite value flags blow-up instead of fitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import nonfinite

DEFAULT_P = 31.0 / 7.0

TRACE_COLUMNS = (
    "time",
    "chi_l2_sq",
    "int_grad_chi_sq",
    "xi_lp_p",
    "xi_l1",
    "int_ln_xi",
    "abs_ln_xi_l1",
    "int_chi2_xi",
    "int_xi2_chi2",
    "int_xi_p2_grad_v_sq",
    "int_u_chi2_xi",
    "lnxi_dot_u",
    "chi_h1mrho_sq",
    "eta_l2",
    "eta_l1",
    "chi_min",
    "chi_argmin",
    "eta_min",
    "eta_argmin",
    "floor_activations",
)

# the running space-time integrals among the columns
INTEGRALS = ("int_grad_chi_sq", "int_chi2_xi", "int_xi2_chi2",
             "int_xi_p2_grad_v_sq", "int_u_chi2_xi")

@dataclass(frozen=True)
class FunctionalConfig:
    """Exponents and observation cadence for the functional trace."""

    p: float = DEFAULT_P
    rho: float = 1.1
    observation_stride: int = 10

    def __post_init__(self):
        problems = nonfinite(p=self.p, rho=self.rho)
        if self.p < 1:
            problems.append("p must be >= 1")
        if self.observation_stride < 1:
            problems.append("observation_stride must be >= 1")
        if problems:
            raise ValueError("\n".join(problems))


def check_rho(rho, dim):
    """Reject rho outside [1, 6/5) in 1-D and outside (1, 6/5) in 2-D."""
    lo_open = dim == 2
    if not (1.0 <= rho < 1.2) or (lo_open and rho == 1.0):
        interval = "(1, 6/5)" if lo_open else "[1, 6/5)"
        raise ValueError(f"rho = {rho:g} outside {interval} for d = {dim}")


@dataclass(frozen=True)
class AdmissibleSetSpec:
    """Bounds (K1, K2, K3) cutting out the admissible trajectory set."""

    K1: float
    K2: float
    K3: float

    def __post_init__(self):
        if min(self.K1, self.K2, self.K3) <= 0:
            raise ValueError("admissible-set bounds must be positive")


@dataclass
class FunctionalTrace:
    """Per-observation-time functional values of a stack of paths.

    B >= 1 paths on the same (n_obs,) observation ``times``: (B, n_obs)
    columns.  A path is known by its row number alone.
    """

    times: np.ndarray
    data: dict[str, np.ndarray]

    def rows(self, index):
        """The stack of the rows ``index`` (a list of row numbers)."""
        return FunctionalTrace(self.times,
                               {k: col[index] for k, col in self.data.items()})

    def window(self, horizon):
        """Index of the last observation time <= horizon (+ tolerance)."""
        idx = int(np.searchsorted(self.times, horizon + 1e-12, side="right")) - 1
        if idx < 0:
            raise ValueError(f"horizon {horizon:g} precedes the first observation")
        return idx


def _quadrature(nodal, weights, out=None):
    """Integral of each row of ``nodal`` (last axis), into ``out`` if given.

    Summed by ``einsum`` rather than a BLAS matrix-vector product, which
    sums some rows of a stack in another order: identical rows must give
    identical integrals wherever they sit in the stack.
    """
    return np.einsum("...n,n->...", nodal, weights, out=out)


def xi_nodal(v_floored, out=None):
    """xi = 1/max(v, floor) of the nodal floored inhibitor ``v_floored``.

    ``v_floored`` is a state's ``StateView.v_floored`` (rows on the last
    axis), already max(v, floor): xi is formed in ``out`` if given, else
    in a new array.
    """
    return np.divide(1.0, v_floored, out=out)


def grad_sq(basis, modal):
    """Nodal |grad f|^2 of f = sum_k modal_k e_k (last axis)."""
    g = basis.gradients(modal)
    g *= g
    for square in g[1:]:
        g[0] += square
    return g[0]


class FunctionalRecorder:
    """Observer accumulating the functional traces of a stack of trajectories.

    :meth:`_integrands` (the five running-integral integrands) and
    :meth:`_observables` (the recorded state columns) evaluate the
    (B, ...) state of a :class:`~gmspde.dynamics.StateView`, reducing
    over the last (node or mode) axis.  Its hook :meth:`observe` records
    every ``stride``-th state and the last, then accumulates each state
    but the last (:meth:`record`, :meth:`accumulate`).  Its rows are
    those of the states it is handed, and :meth:`traces` returns their
    stack, (rows, n_obs) columns.

    The running integrals are left-point sums: each pre-step state adds
    dt times its integrand, in step order; xi is 1/``StateView.v_floored``.
    The ``floor_activations`` column is the stepper's own count
    (``StateView.floor_activations``), taken on the same pre-step states.

    By default every column of :data:`TRACE_COLUMNS` is kept.  With
    ``monitors=False`` only :data:`ADMISSIBILITY_COLUMNS` are, what
    :func:`membership` and :func:`auto_bounds` read, and the integrands
    and observables only :func:`energy_monitors` reads are skipped.
    Each kept column is formed by the same operations in the same
    order, so it is bitwise the column of a recorder with every
    monitor; a dropped column is absent from the trace, not zero.
    """

    def __init__(self, basis, config: FunctionalConfig, monitors: bool = True):
        self.basis = basis
        self.config = config
        self.monitors = monitors
        self.stride = config.observation_stride
        kept = TRACE_COLUMNS[1:] if monitors else ADMISSIBILITY_COLUMNS
        # per column, one (rows,) array per observation
        self._rows = {name: [] for name in kept}
        self._times = []
        self._integrals = [name for name in INTEGRALS if name in kept]
        # the kept running integrals in INTEGRALS order, 0.0 (the bits of
        # zeros) until the first accumulate, which allocates the integrals
        # of one state's integrands and three (rows, n_nodes) work stacks
        self._totals = 0.0
        self._values = self._scratch = None
        s = 1.0 - config.rho
        self.h_weights = (1.0 + basis.eigenvalues) ** s

    def _integrands(self, view):
        """Integrals of the :data:`INTEGRALS` integrands of the state ``view``.

        Returns the (kept integrals, rows) array they are written into,
        reused by every call.
        """
        basis = self.basis
        w = basis.weights
        u_nodal = view.u_nodal
        if self._scratch is None:
            self._scratch = np.empty((3,) + u_nodal.shape)
            self._values = np.empty((len(self._integrals), len(u_nodal)))
        xi, chi2xi, work = self._scratch
        xi_nodal(view.v_floored, out=xi)
        # one row per kept integral, in INTEGRALS order
        grad_chi, chi2_xi, xi2_chi2, *monitored = self._values
        np.sum(basis.eigenvalues * view.u_modal**2, axis=-1, out=grad_chi)
        # products formed in place, each in the order of its formula
        np.multiply(u_nodal, u_nodal, out=chi2xi)
        chi2xi *= xi
        np.multiply(chi2xi, xi, out=work)
        _quadrature(chi2xi, w, out=chi2_xi)
        _quadrature(work, w, out=xi2_chi2)
        if self.monitors:
            xi_p2_grad_v, u_chi2_xi = monitored
            np.multiply(chi2xi, u_nodal, out=work)
            _quadrature(work, w, out=u_chi2_xi)
            np.power(xi, self.config.p + 2.0, out=xi)
            xi *= grad_sq(basis, view.v_modal)
            _quadrature(xi, w, out=xi_p2_grad_v)
        return self._values

    def _observables(self, view):
        """The recorded columns that are functions of the state ``view``."""
        w = self.basis.weights
        u_modal, v_modal = view.u_modal, view.v_modal
        u_nodal, v_nodal = view.u_nodal, view.v_nodal
        xi = xi_nodal(view.v_floored)
        xi_lp_p, xi_l1 = _quadrature(xi**self.config.p, w), _quadrature(xi, w)
        ln_xi = np.log(xi, out=xi)    # in place: xi's last use is above
        columns = {
            "chi_l2_sq": np.sum(u_modal**2, axis=-1),
            "xi_lp_p": xi_lp_p,
            "xi_l1": xi_l1,
            "int_ln_xi": _quadrature(ln_xi, w),
            "chi_min": u_nodal.min(axis=-1),
            "chi_argmin": np.argmin(u_nodal, axis=-1).astype(float),
            "eta_min": v_nodal.min(axis=-1),
            "eta_argmin": np.argmin(v_nodal, axis=-1).astype(float),
        }
        if self.monitors:
            columns.update({
                "abs_ln_xi_l1": _quadrature(np.abs(ln_xi), w),
                "lnxi_dot_u": _quadrature(ln_xi * u_nodal, w),
                "chi_h1mrho_sq": np.sum(self.h_weights * u_modal**2,
                                        axis=-1),
                "eta_l2": np.sqrt(np.sum(v_modal**2, axis=-1)),
                "eta_l1": _quadrature(np.abs(v_nodal), w),
            })
        return columns

    def observe(self, view, dt):
        if view.step_index % self.stride == 0 or dt is None:
            self.record(view)
        if dt is not None:
            self.accumulate(view, dt)

    def accumulate(self, view, dt):
        values = self._integrands(view)
        values *= dt
        self._totals += values

    def record(self, view):
        row = self._observables(view)
        totals = np.broadcast_to(self._totals, (len(self._integrals),
                                                len(view.u_nodal)))
        row.update(zip(self._integrals, totals.copy()))
        if self.monitors:
            row["floor_activations"] = view.floor_activations.astype(float)
        for name, value in row.items():
            self._rows[name].append(value)
        self._times.append(view.t)

    def traces(self) -> FunctionalTrace:
        """The stack of all rows, in row order."""
        return FunctionalTrace(
            times=np.asarray(self._times, dtype=float),
            data={k: np.column_stack(v) for k, v in self._rows.items()},
        )


def lyapunov_L1(trace: FunctionalTrace):
    """sup |chi|_L2^2 + int |grad chi|_L2^2 ds + sup |xi|_Lp^p over the trace.

    One value per path of the stack ``trace``: (B,).
    """
    d = trace.data
    return (d["chi_l2_sq"].max(axis=1) + d["int_grad_chi_sq"][:, -1]
            + d["xi_lp_p"].max(axis=1))


def lyapunov_L2(trace: FunctionalTrace):
    """(int int chi^2 xi)^2 + int int xi^2 chi^2 over the trace: (B,)."""
    return (trace.data["int_chi2_xi"][:, -1] ** 2
            + trace.data["int_xi2_chi2"][:, -1])


def lyapunov_L3(trace: FunctionalTrace) -> np.ndarray:
    """Per-time |xi|_Lp^p + |xi|_L1 + (int ln xi)^2: (B, n_obs)."""
    d = trace.data
    return d["xi_lp_p"] + d["xi_l1"] + d["int_ln_xi"] ** 2


def _admissible_means(trace):
    """E L1, E L2 and sup_t E L3 over the paths of ``trace``."""
    return (float(np.mean(lyapunov_L1(trace))),
            float(np.mean(lyapunov_L2(trace))),
            float(np.max(np.mean(lyapunov_L3(trace), axis=0))))


# the columns membership and auto_bounds read: the positivity minima and
# the inputs of the Lyapunov functionals L1, L2 and L3
ADMISSIBILITY_COLUMNS = ("chi_l2_sq", "int_grad_chi_sq", "xi_lp_p", "xi_l1",
                         "int_ln_xi", "int_chi2_xi", "int_xi2_chi2",
                         "chi_min", "chi_argmin", "eta_min", "eta_argmin")


@dataclass
class MembershipReport:
    positivity_ok: bool
    l1_ok: bool
    l2_ok: bool
    l3_ok: bool
    mean_L1: float
    mean_L2: float
    sup_mean_L3: float
    failure: str = ""

    @property
    def ok(self):
        return self.positivity_ok and self.l1_ok and self.l2_ok and self.l3_ok


def membership(trace: FunctionalTrace,
               spec: AdmissibleSetSpec) -> MembershipReport:
    """Ensemble admissibility check against (K1, K2, K3).

    Expectations are means over the paths of the stack ``trace``;
    positivity requires chi >= 0 and eta > 0 at every observation of
    every path, and the failure names the first row that breaks it.
    """
    chi_bad = trace.data["chi_min"] < 0.0
    eta_bad = trace.data["eta_min"] <= 0.0
    bad = np.flatnonzero(np.any(chi_bad | eta_bad, axis=1))
    failure = ""
    if bad.size:
        r = bad[0]
        name, label, hits = (("chi", "chi < 0", chi_bad[r]) if chi_bad[r].any()
                             else ("eta", "eta <= 0", eta_bad[r]))
        i = int(np.flatnonzero(hits)[0])
        d = {k: trace.data[f"{name}_{k}"][r, i] for k in ("argmin", "min")}
        failure = (f"{label} on row {r} at t = {trace.times[i]:g}, node "
                   f"{int(d['argmin'])} (value {d['min']:g})")
    # (mean_L1, mean_L2, sup_mean_L3) and their checks against (K1, K2, K3)
    means = _admissible_means(trace)
    oks = [mean <= k for mean, k in zip(means, (spec.K1, spec.K2, spec.K3))]
    return MembershipReport(not bad.size, *oks, *means, failure=failure)


def auto_bounds(trace: FunctionalTrace, margin: float = 10.0):
    """Bounds sized from an ensemble's own functional values."""
    # K1, K2, K3 from E L1, E L2 and sup_t E L3
    return AdmissibleSetSpec(*(margin * max(mean, 1e-12)
                               for mean in _admissible_means(trace)))


@dataclass
class MonitorFit:
    name: str
    horizons: np.ndarray
    lhs: np.ndarray
    init: np.ndarray
    C: float
    delta: float
    blow_up: bool

    @property
    def ok(self):
        return not self.blow_up and np.isfinite(self.C) and np.isfinite(self.delta)


def fit_growth_envelope(horizons, lhs, init):
    """Minimal (C, delta) with lhs <= C exp(delta T) init at every horizon.

    delta comes from a least-squares fit of log(lhs/init) against T and
    C is then raised until every horizon satisfies the bound.  Entries
    with nonpositive lhs are vacuous and skipped; non-finite entries
    flag blow-up.
    """
    horizons = np.asarray(horizons, dtype=float)
    lhs = np.asarray(lhs, dtype=float)
    init = np.asarray(init, dtype=float)
    if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(init))):
        return np.nan, np.nan, True
    mask = (lhs > 0) & (init > 0)
    if not mask.any():
        return 0.0, 0.0, False
    y = np.log(lhs[mask] / init[mask])
    t = horizons[mask]
    if t.size >= 2 and np.ptp(t) > 0:
        delta = float(np.polyfit(t, y, 1)[0])
    else:
        delta = 0.0
    c = float(np.exp(np.max(y - delta * t)))
    return c, delta, False


def energy_monitors(trace: FunctionalTrace, params, config: FunctionalConfig,
                    horizons=None) -> dict[str, MonitorFit]:
    """Fit growth envelopes for the a-priori-bound monitors.

    Expectations are means over the paths of the stack ``trace``.
    ``horizons`` defaults to the final observation time; each
    horizon is read at the last observation time at or before it.
    """
    d = trace.data
    if horizons is None:
        horizons = [float(trace.times[-1])]
    horizons = np.asarray(sorted(horizons), dtype=float)
    idxs = [trace.window(h) for h in horizons]
    p = config.p

    def series(per_path):
        """Path means of ``per_path(i)`` at each horizon's index i."""
        return np.array([np.mean(per_path(i)) for i in idxs])

    def at(name):
        return series(lambda i: d[name][:, i])

    def sup(name):
        return series(lambda i: d[name][:, : i + 1].max(axis=1))

    def at0(name):
        return float(np.mean(d[name][:, 0]))

    monitors = {}

    def add(name, lhs, init):
        init = np.broadcast_to(init, lhs.shape).copy()
        monitors[name] = MonitorFit(name, horizons, lhs, init,
                                    *fit_growth_envelope(horizons, lhs, init))

    sup_xi_lp = sup("xi_lp_p")
    xi0 = at0("xi_lp_p")
    add("xi_lp_sup", sup_xi_lp, xi0)
    add("xi_lp_energy",
        sup_xi_lp + 2 * p * (p + 1) * params.r_v * at("int_xi_p2_grad_v_sq"),
        xi0)
    xi2chi2 = params.kappa_v * at("int_xi2_chi2")
    add("xi_l1_pathsup", sup("xi_l1") + xi2chi2, at0("xi_l1"))
    # sup_t of the ensemble mean, the literal quantifier order of the bound
    mean_l1_curve = np.mean(d["xi_l1"], axis=0)
    add("xi_l1_meansup",
        np.array([mean_l1_curve[: i + 1].max() for i in idxs]) + xi2chi2,
        at0("xi_l1"))
    add("ln_xi",
        at("abs_ln_xi_l1") + params.kappa_v * at("int_chi2_xi"),
        at0("eta_l1") + at0("abs_ln_xi_l1"))
    u_chi2_xi = at("int_u_chi2_xi")
    add("u_energy",
        sup("chi_l2_sq") + 4 * params.r_u * at("int_grad_chi_sq"),
        at0("chi_l2_sq") + 2 * params.kappa_u * u_chi2_xi)
    add("lnxi_u",
        at("lnxi_dot_u") - at0("lnxi_dot_u") + params.kappa_u * u_chi2_xi,
        1.0 + abs(at0("lnxi_dot_u")))
    add("u_h1mrho", sup("chi_h1mrho_sq"), 1.0 + at0("chi_h1mrho_sq"))
    add("v_l2", sup("eta_l2"), 1.0 + at0("eta_l2"))
    return monitors
