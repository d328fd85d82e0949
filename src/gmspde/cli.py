"""Command-line surface.

Subcommands: simulate, fixedpoint, uniqueness, ensemble, spectrum,
selftest.  All outputs land under --out-dir and are byte-deterministic
given (config, seed), with one exception: each criterion line of
``selftest.txt`` carries that criterion's wall time ("[0.1s"), which
varies from run to run.  Exit codes: 0 success, 1 configuration/usage
error, 2 runtime failure, 3 selftest criterion failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import acceptance
from . import config as config_mod
from . import io as io_mod
from .config import ConfigError
from .dynamics import SimulationError, default_initial_pair, run
from .experiments import (
    FixedPointConfig,
    StoppingSpec,
    constant_trajectory,
    ensemble,
    picard_iterate,
    uniqueness_study,
)
from .functionals import TRACE_COLUMNS, FunctionalRecorder
from .noise import sample_path, uniform_grid
from .spectral import build_basis


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# the config value --paths overrides, per subcommand that has the option
_PATHS_KEY = {
    "ensemble": ("run", "paths"),
    "fixedpoint": ("fixedpoint", "ensemble_size"),
}


def _build_parser():
    parser = _Parser(prog="gmspde", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, text in (
        ("simulate", "run one trajectory and dump trace + snapshot"),
        ("fixedpoint", "Picard iteration of the decoupling map"),
        ("uniqueness", "common-noise two-run divergence study"),
        ("ensemble", "Monte Carlo ensemble with monitor fits"),
        ("spectrum", "dump eigenvalues and covariance multipliers"),
        ("selftest", "run the acceptance criteria"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides the config file)")
        p.add_argument("--out-dir", default="gmspde-out")
        if name in _PATHS_KEY:
            p.add_argument("--paths", type=int, default=None,
                           help="ensemble size (overrides the config file)")
        p.add_argument("--quiet", action="store_true")
        if name == "selftest":
            p.add_argument("--criteria", default=None,
                           help="comma-separated criterion numbers (default all)")
    return parser


def _load(args):
    if args.config:
        cfg = config_mod.load_config(args.config)
    else:
        cfg = config_mod.default_config()
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    if args.command in _PATHS_KEY and args.paths is not None:
        cfg = cfg.with_value(*_PATHS_KEY[args.command], args.paths)
    return cfg


def _say(args, text):
    if not args.quiet:
        print(text)


def _prepare(args):
    cfg = _load(args)
    for warning in cfg.warnings:
        _say(args, f"warning: {warning}")
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "config.echo.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(config_mod.dumps(cfg))
    basis = build_basis(cfg.domain, cfg.noise.mode_count)
    return cfg, basis


def _cmd_simulate(args):
    cfg, basis = _prepare(args)
    init = default_initial_pair(basis, cfg.params,
                                amplitude=cfg.run_opts["initial_amplitude"])
    grid = uniform_grid(cfg.scheme.T, cfg.scheme.n_steps())
    path = sample_path(cfg.noise, grid, cfg.run_opts["path_index"])
    rec = FunctionalRecorder(basis, cfg.functionals, cfg.scheme.v_floor,
                             path_index=cfg.run_opts["path_index"])
    result = run(init, cfg.params, cfg.scheme, basis, cfg.noise, path,
                 observer=rec)
    io_mod.write_trace(rec.trace(), os.path.join(args.out_dir, "trace.csv"))
    final = result.final
    header = io_mod.SnapshotHeader(dim=cfg.domain.dim, shape=basis.grid_shape,
                                   field_count=2, time=final.t)
    io_mod.write_snapshot([final.pair.u.nodal, final.pair.v.nodal], header,
                          os.path.join(args.out_dir, "final.gmsp"))
    if cfg.domain.dim == 2:
        io_mod.write_image(final.pair.u.nodal,
                           os.path.join(args.out_dir, "u_final.pgm"))
        io_mod.write_image(final.pair.v.nodal,
                           os.path.join(args.out_dir, "v_final.pgm"))
    _say(args, f"simulated {result.n_steps} steps to t = {final.t:g}; "
               f"floor activations: {final.floor_activations}")
    return 0


def _cmd_spectrum(args):
    cfg, basis = _prepare(args)
    lam = basis.eigenvalues
    q1 = (1.0 + lam) ** (-cfg.noise.gamma1)
    q2 = (1.0 + lam) ** (-cfg.noise.gamma2)
    io_mod.write_csv(os.path.join(args.out_dir, "spectrum.csv"),
                     ["k", "lambda_k", "q1_k", "q2_k"],
                     [np.arange(basis.mode_count), lam, q1, q2])
    _say(args, f"wrote {basis.mode_count} modes")
    return 0


def _cmd_uniqueness(args):
    cfg, basis = _prepare(args)
    opts = cfg.uniqueness_opts
    init = default_initial_pair(basis, cfg.params,
                                amplitude=cfg.run_opts["initial_amplitude"])
    grid = uniform_grid(cfg.scheme.T, cfg.scheme.n_steps())
    path = sample_path(cfg.noise, grid, cfg.run_opts["path_index"])
    report = uniqueness_study(
        init, opts["delta"], cfg.params, cfg.scheme, basis, cfg.noise,
        StoppingSpec(m_levels=tuple(opts["stopping_levels"])), path,
        perturb_mode=opts["perturb_mode"],
    )
    io_mod.write_csv(os.path.join(args.out_dir, "divergence.csv"),
                     ["time", "du_l2", "dv_l2"],
                     [report.times, report.du_l2, report.dv_l2])
    io_mod.write_lines(os.path.join(args.out_dir, "summary.txt"),
                       report.summary_lines())
    for line in report.summary_lines():
        _say(args, line)
    return 0


def _cmd_ensemble(args):
    cfg, basis = _prepare(args)
    n_paths = cfg.run_opts["paths"]
    horizons = cfg.ensemble_opts["horizons"] or None
    init = default_initial_pair(basis, cfg.params,
                                amplitude=cfg.run_opts["initial_amplitude"])
    report = ensemble(init, cfg.params, cfg.scheme, basis, cfg.noise,
                      n_paths, cfg.functionals, horizons=horizons)
    names = [c for c in TRACE_COLUMNS if c != "time"]
    io_mod.write_csv(os.path.join(args.out_dir, "means.csv"),
                     ["time"] + names,
                     [report.times] + [report.means[c] for c in names])
    io_mod.write_csv(os.path.join(args.out_dir, "standard_errors.csv"),
                     ["time"] + names,
                     [report.times] + [report.standard_errors[c] for c in names])
    io_mod.write_lines(os.path.join(args.out_dir, "summary.txt"),
                       report.summary_lines())
    for line in report.summary_lines():
        _say(args, line)
    return 0


def _cmd_fixedpoint(args):
    cfg, basis = _prepare(args)
    fp = FixedPointConfig(**cfg.fixedpoint_opts)
    init = default_initial_pair(basis, cfg.params,
                                amplitude=cfg.run_opts["initial_amplitude"])
    start = constant_trajectory(init, cfg.scheme)
    report = picard_iterate(start, init, cfg.params, cfg.scheme, basis,
                            cfg.noise, fp, fconfig=cfg.functionals)
    n = len(report.distances)
    io_mod.write_csv(
        os.path.join(args.out_dir, "iterations.csv"),
        ["iteration", "distance", "ratio", "member"],
        [np.arange(n),
         np.asarray(report.distances),
         np.asarray([np.nan] + report.ratios),
         np.asarray([1.0 if m.ok else 0.0 for m in report.memberships])],
    )
    io_mod.write_lines(os.path.join(args.out_dir, "summary.txt"),
                       report.summary_lines())
    for line in report.summary_lines():
        _say(args, line)
    return 0


def _cmd_selftest(args):
    indices = None
    if args.criteria:
        indices = {int(tok) for tok in args.criteria.replace(",", " ").split()}
    os.makedirs(args.out_dir, exist_ok=True)
    lines = []

    def printer(line):
        lines.append(line)
        print(line)

    results = acceptance.run_all(indices=indices, printer=printer)
    io_mod.write_lines(os.path.join(args.out_dir, "selftest.txt"), lines)
    failed = [r for r in results if not (r.passed and r.within_budget)]
    return 3 if failed else 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fixedpoint": _cmd_fixedpoint,
    "uniqueness": _cmd_uniqueness,
    "ensemble": _cmd_ensemble,
    "spectrum": _cmd_spectrum,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"gmspde: error: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, _UsageError) as exc:
        print(f"gmspde: configuration error:\n{exc}", file=sys.stderr)
        return 1
    except (SimulationError, OSError, ValueError) as exc:
        print(f"gmspde: runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
