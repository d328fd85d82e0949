"""Flat key = value run configuration.

The file format is section-scoped assignments, one per line:

    [domain]
    dim = 1
    length_x = 1.0

Unknown sections or keys are hard errors (no silent typos), as are
non-finite float values (nan, inf), and validation reports every
violated invariant at once rather than the first.  ``_assemble``
builds each section's spec, and the spectral basis, once and keeps them
on the :class:`RunConfig`; the commands run those.  ``dumps`` emits a
canonical echo such that loading the echo of a loaded file reproduces
it byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dynamics import ModelParams, SchemeConfig, steady_state
from .experiments import FixedPointConfig, StoppingSpec
from .functionals import DEFAULT_P, FunctionalConfig, check_rho
from .noise import NoiseSpec
from .spectral import DomainSpec, SpectralBasis, build_basis


class ConfigError(ValueError):
    """Carries the full list of parse/validation problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


def _finite(text):
    """Float value of a key; NaN and +-inf are rejected like a typo."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _float_list(text):
    return tuple(_finite(tok) for tok in text.replace(",", " ").split())


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


# section -> key -> (converter, default)
SCHEMA = {
    "domain": {
        "dim": (int, 1),
        "length_x": (_finite, 1.0),
        "length_y": (_finite, 1.0),
        "convention": (str, "neumann_cosine"),
        "grid_points": (int, 64),
    },
    "model": {
        "r_u": (_finite, 0.01),
        "r_v": (_finite, 0.1),
        "kappa_u": (_finite, 1.0),
        "kappa_v": (_finite, 1.0),
        "mu_u": (_finite, 1.0),
        "mu_v": (_finite, 2.0),
        "sigma_u": (_finite, 0.1),
        "sigma_v": (_finite, 0.1),
    },
    "scheme": {
        "dt": (_finite, 1e-3),
        "horizon": (_finite, 1.0),
        "scheme": (str, "ito_imex"),
        "v_floor": (_finite, 1e-8),
        "reaction_cfl_limit": (_finite, 1.0),
    },
    "noise": {
        "gamma1": (_finite, 2.0),
        "gamma2": (_finite, 2.0),
        "modes": (int, 16),
        "master_seed": (int, 0),
    },
    "functionals": {
        "p": (_finite, DEFAULT_P),
        "rho": (_finite, 1.1),
        "observation_stride": (int, 10),
    },
    "run": {
        "paths": (int, 8),
        "path_index": (int, 0),
        "initial_amplitude": (_finite, 0.01),
    },
    "fixedpoint": {
        "max_iterations": (int, 30),
        "tolerance": (_finite, 1e-6),
        "ensemble_size": (int, 16),
        "bound_margin": (_finite, 10.0),
    },
    "uniqueness": {
        "delta": (_finite, 1e-8),
        "perturb_mode": (int, 1),
        "stopping_levels": (_float_list, (2.0, 4.0, 8.0, 16.0)),
    },
    "ensemble": {
        "horizons": (_float_list, ()),
    },
}


@dataclass
class RunConfig:
    """Everything a run needs, assembled from the raw key/value table."""

    raw: dict
    domain: DomainSpec
    params: ModelParams
    scheme: SchemeConfig
    noise: NoiseSpec
    functionals: FunctionalConfig
    fixedpoint: FixedPointConfig
    stopping: StoppingSpec
    basis: SpectralBasis
    warnings: list = field(default_factory=list)


def parse_table(text):
    """Raw (section, key) table from config text; parse problems collected."""
    problems = []
    table = {sec: dict() for sec in SCHEMA}
    seen = set()
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith(";"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in SCHEMA:
                problems.append(
                    f"line {lineno}: unknown section [{section}]"
                )
                section = None
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        if section is None:
            problems.append(f"line {lineno}: assignment outside any known section")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA[section]:
            problems.append(
                f"line {lineno}: unknown key {key!r} in section [{section}]"
            )
            continue
        if (section, key) in seen:
            problems.append(
                f"line {lineno}: duplicate key {key!r} in section [{section}]"
            )
            continue
        seen.add((section, key))
        conv, _default = SCHEMA[section][key]
        try:
            table[section][key] = conv(value)
        except ValueError as exc:
            problems.append(f"line {lineno}: bad value for {key!r}: {exc}")
    return table, problems


def _filled(table):
    out = {}
    for sec, keys in SCHEMA.items():
        out[sec] = {}
        for key, (_conv, default) in keys.items():
            out[sec][key] = table.get(sec, {}).get(key, default)
    return out


def _assemble(raw) -> RunConfig:
    problems = []
    warnings_list = []

    def built(line, make, *args, **kwargs):
        """``make(*args, **kwargs)``, or None if it raises a ValueError.

        Each line of the error is recorded as one problem, written into
        the format ``line``, which names the section: ``"[scheme] {}"``.
        """
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            problems.extend(line.format(text) for text in str(exc).splitlines())
            return None

    dom = raw["domain"]
    lengths = (dom["length_x"],) if dom["dim"] == 1 else (
        dom["length_x"], dom["length_y"])
    domain = built("[domain] {}", DomainSpec, dim=dom["dim"], lengths=lengths,
                   eigenvalue_convention=dom["convention"],
                   grid_points_per_axis=dom["grid_points"])

    params = built("[model] {} (constants must be positive)", ModelParams,
                   **raw["model"])
    if params is not None:
        built("[model] {}", steady_state, params)
    zeros = [k for k, v in raw["model"].items() if v == 0]
    if params is not None and zeros:
        warnings_list.append(
            f"[model] {', '.join(zeros)} = 0: the model wants strictly "
            "positive constants; zero is accepted for analytic-limit runs"
        )

    sc = raw["scheme"]
    scheme = built("[scheme] {}", SchemeConfig, dt=sc["dt"], T=sc["horizon"],
                   scheme=sc["scheme"], v_floor=sc["v_floor"],
                   reaction_cfl_limit=sc["reaction_cfl_limit"])

    ns = raw["noise"]
    nspec = built("[noise] {}", NoiseSpec, gamma1=ns["gamma1"],
                  gamma2=ns["gamma2"], mode_count=ns["modes"],
                  master_seed=ns["master_seed"])

    fn = raw["functionals"]
    fcfg = built("[functionals] {}", FunctionalConfig, p=fn["p"],
                 rho=fn["rho"], observation_stride=fn["observation_stride"])
    if domain is not None:
        built("[functionals] {}", check_rho, fn["rho"], domain.dim)

    if domain is not None and nspec is not None:
        for j, g in ((1, nspec.gamma1), (2, nspec.gamma2)):
            if g <= domain.dim:
                warnings_list.append(
                    f"[noise] gamma{j} = {g:g} <= d = {domain.dim}: below the "
                    "trace-class margin; run proceeds"
                )
        basis = built(f"[noise] modes = {nspec.mode_count}: {{}}",
                      build_basis, domain, nspec.mode_count)

    if raw["run"]["paths"] < 2:
        problems.append("[run] paths must be >= 2 (an ensemble needs two)")
    if raw["run"]["path_index"] < 0:
        problems.append("[run] path_index must be >= 0")
    elif raw["run"]["path_index"] >= 2**64:
        problems.append("[run] path_index must be below 2**64")
    fixedpoint = built("[fixedpoint] {}", FixedPointConfig, **raw["fixedpoint"])
    un = raw["uniqueness"]
    stopping = built("[uniqueness] {}", StoppingSpec,
                     m_levels=un["stopping_levels"])
    if un["delta"] < 0:
        problems.append("[uniqueness] delta must be >= 0")
    if nspec is not None and not 0 <= un["perturb_mode"] < nspec.mode_count:
        problems.append(
            f"[uniqueness] perturb_mode = {un['perturb_mode']} outside modes "
            f"0..{nspec.mode_count - 1}"
        )
    for h in raw["ensemble"]["horizons"]:
        if h < 0:
            problems.append(f"[ensemble] horizon {h:g} is negative")
        elif scheme is not None and h > scheme.T + 1e-12:
            problems.append(
                f"[ensemble] horizon {h:g} exceeds the scheme horizon {scheme.T:g}"
            )

    if problems:
        raise ConfigError(problems)
    return RunConfig(raw=raw, domain=domain, params=params, scheme=scheme,
                     noise=nspec, functionals=fcfg, fixedpoint=fixedpoint,
                     stopping=stopping, basis=basis, warnings=warnings_list)


def loads(text, overrides=()) -> RunConfig:
    """The config of ``text``, each (section, key, value) of ``overrides``
    replacing the text's value before the one validation."""
    table, problems = parse_table(text)
    if problems:
        raise ConfigError(problems)
    for section, key, value in overrides:
        table[section][key] = value
    return _assemble(_filled(table))


def load_config(path, overrides) -> RunConfig:
    """:func:`loads` of the UTF-8 file at ``path``, or of no text if None."""
    if path is None:
        return loads("", overrides)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read(), overrides)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config file {path!r}: {exc}"])


def dumps(config: RunConfig) -> str:
    """Canonical echo: every key in schema order with its current value."""
    lines = []
    for sec in SCHEMA:
        lines.append(f"[{sec}]")
        for key in SCHEMA[sec]:
            lines.append(f"{key} = {_fmt(config.raw[sec][key])}")
        lines.append("")
    return "\n".join(lines)
