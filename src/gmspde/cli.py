"""Command-line surface.

Subcommands: simulate, fixedpoint, uniqueness, ensemble, spectrum,
selftest.  All outputs land under --out-dir and are byte-deterministic
given (config, seed).  Wall times are measurements, not outputs:
``selftest`` prints each criterion's time and limit and writes them to
``timing.json`` beside ``selftest.txt``.  A criterion's PASS/FAIL still
depends on whether it ran within its runtime budget.  Exit codes: 0
success, 1 configuration/usage error, 2 runtime failure, 3 selftest
criterion failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import config as config_mod
from . import io as io_mod
from .config import ConfigError
from .dynamics import SimulationError, default_initial_pair, run
from .experiments import ensemble, picard_iterate, uniqueness_study
from .functionals import TRACE_COLUMNS, FunctionalRecorder
from .noise import drawn


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


def _build_parser(command=None):
    """The parser of ``command`` alone, or of every command if None.

    Both print the same usage line, which lists every command; only the
    one-command parser needs that list as its metavar (on the full one it
    would replace ``argument command:`` in the invalid-choice message).
    """
    parser = _Parser(prog="gmspde", description=__doc__)
    sub = parser.add_subparsers(
        dest="command",
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name in _COMMANDS if command is None else [command]:
        p = sub.add_parser(name, help=_COMMANDS[name][1])
        if name != "selftest":    # the criteria fix their own configs
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
    overrides = []
    if args.seed is not None:
        overrides.append(("noise", "master_seed", args.seed))
    if args.command in _PATHS_KEY and args.paths is not None:
        overrides.append((*_PATHS_KEY[args.command], args.paths))
    return config_mod.load_config(args.config, overrides)


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
    return cfg, cfg.basis


def _summarize(args, report):
    """Write ``report``'s summary lines to summary.txt and print them."""
    lines = report.summary_lines()
    io_mod.write_lines(os.path.join(args.out_dir, "summary.txt"), lines)
    for line in lines:
        _say(args, line)


def _initial(cfg, basis):
    """The configured (2, K) modal initial data."""
    return default_initial_pair(basis, cfg.params,
                                amplitude=cfg.raw["run"]["initial_amplitude"])


def _cmd_simulate(args):
    cfg, basis = _prepare(args)
    init = _initial(cfg, basis)
    rec = FunctionalRecorder(basis, cfg.functionals)
    final = run(init, cfg.params, cfg.scheme, basis, cfg.noise,
                drawn(cfg.noise, cfg.scheme, [cfg.raw["run"]["path_index"]]),
                observer=rec)
    io_mod.write_trace(rec.traces(), os.path.join(args.out_dir, "trace.csv"))
    header = io_mod.SnapshotHeader(dim=cfg.domain.dim, shape=basis.grid_shape,
                                   field_count=2, time=final.t)
    u_final = final.u_nodal[0].reshape(basis.grid_shape)
    v_final = final.v_nodal[0].reshape(basis.grid_shape)
    io_mod.write_snapshot([u_final, v_final], header,
                          os.path.join(args.out_dir, "final.gmsp"))
    if cfg.domain.dim == 2:
        io_mod.write_image(u_final, os.path.join(args.out_dir, "u_final.pgm"))
        io_mod.write_image(v_final, os.path.join(args.out_dir, "v_final.pgm"))
    _say(args, f"simulated {final.step_index} steps to t = {final.t:g}; "
               f"floor activations: {final.floor_activations[0]}")
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
    opts = cfg.raw["uniqueness"]
    init = _initial(cfg, basis)
    report = uniqueness_study(
        init, opts["delta"], cfg.params, cfg.scheme, basis, cfg.noise,
        cfg.stopping,
        drawn(cfg.noise, cfg.scheme, [cfg.raw["run"]["path_index"]]),
        perturb_mode=opts["perturb_mode"],
    )
    io_mod.write_csv(os.path.join(args.out_dir, "divergence.csv"),
                     ["time", "du_l2", "dv_l2"],
                     [report.times, report.du_l2, report.dv_l2])
    _summarize(args, report)
    return 0


def _cmd_ensemble(args):
    cfg, basis = _prepare(args)
    n_paths = cfg.raw["run"]["paths"]
    horizons = cfg.raw["ensemble"]["horizons"] or None
    init = _initial(cfg, basis)
    report = ensemble(init, cfg.params, cfg.scheme, basis, cfg.noise,
                      n_paths, cfg.functionals, horizons=horizons)
    names = [c for c in TRACE_COLUMNS if c != "time"]
    io_mod.write_csv(os.path.join(args.out_dir, "means.csv"),
                     ["time"] + names,
                     [report.times] + [report.means[c] for c in names])
    io_mod.write_csv(os.path.join(args.out_dir, "standard_errors.csv"),
                     ["time"] + names,
                     [report.times] + [report.standard_errors[c] for c in names])
    _summarize(args, report)
    return 0


def _cmd_fixedpoint(args):
    cfg, basis = _prepare(args)
    init = _initial(cfg, basis)
    report = picard_iterate(init, cfg.params, cfg.scheme, basis, cfg.noise,
                            cfg.fixedpoint, fconfig=cfg.functionals)
    n = len(report.distances)
    io_mod.write_csv(os.path.join(args.out_dir, "iterations.csv"),
                     ["iteration", "distance", "ratio", "member"],
                     [range(n), report.distances, [np.nan] + report.ratios,
                      [m.ok for m in report.memberships]])
    _summarize(args, report)
    return 0


def _cmd_selftest(args):
    from . import acceptance    # here: the other commands need no criteria
    indices = None
    if args.criteria is not None:
        names = [str(i) for i in range(1, len(acceptance.ALL_CRITERIA) + 1)]
        tokens = args.criteria.replace(",", " ").split()
        if not tokens or not set(tokens) <= set(names):
            raise ConfigError([f"--criteria takes criterion numbers "
                               f"1..{len(names)}, got {args.criteria!r}"])
        indices = {int(tok) for tok in tokens}
    os.makedirs(args.out_dir, exist_ok=True)
    results = acceptance.run_all(indices=indices,
                                 printer=None if args.quiet else print)
    io_mod.write_lines(os.path.join(args.out_dir, "selftest.txt"),
                       [r.line() for r in results])
    timing = {r.index: {"name": r.name, "elapsed_s": r.elapsed,
                        "limit_s": r.runtime_limit} for r in results}
    with open(os.path.join(args.out_dir, "timing.json"), "w",
              encoding="utf-8") as fh:
        json.dump(timing, fh, indent=1)
        fh.write("\n")
    failed = [r for r in results if not (r.passed and r.within_budget)]
    return 3 if failed else 0


# name -> (command, help line), in the order the usage line lists them
_COMMANDS = {
    "simulate": (_cmd_simulate, "run one trajectory and dump trace + snapshot"),
    "fixedpoint": (_cmd_fixedpoint, "Picard iteration of the decoupling map"),
    "uniqueness": (_cmd_uniqueness, "common-noise two-run divergence study"),
    "ensemble": (_cmd_ensemble, "Monte Carlo ensemble with monitor fits"),
    "spectrum": (_cmd_spectrum, "dump eigenvalues and covariance multipliers"),
    "selftest": (_cmd_selftest, "run the acceptance criteria"),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named command needs only its own parser; help and errors need all
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"gmspde: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:    # a help action, after printing its text
        return exc.code
    if args.command is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    try:
        return _COMMANDS[args.command][0](args)
    except ConfigError as exc:
        print(f"gmspde: configuration error:\n{exc}", file=sys.stderr)
        return 1
    except (SimulationError, OSError, ValueError) as exc:
        print(f"gmspde: runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
