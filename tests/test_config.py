import inspect
import math
from dataclasses import replace

import pytest

from gmspde import acceptance, cli
from gmspde.config import ConfigError, dumps, loads
from gmspde.dynamics import SchemeConfig, default_initial_pair
from gmspde.experiments import FixedPointConfig, StoppingSpec, uniqueness_study
from gmspde.functionals import FunctionalConfig, auto_bounds
from gmspde.noise import NoiseSpec
from gmspde.spectral import DomainSpec
from test_cli import refusal_test

# configs the command line refuses: rows of tests/test_cli.py's REFUSALS
for _name in ["test_aliasing_modes_are_config_errors",
              "test_bad_sizes_are_config_errors_before_any_output",
              "test_keys_past_64_bits_are_config_errors_before_any_output",
              "test_a_nonpositive_reaction_cfl_limit_is_a_config_error",
              "test_a_bad_override_is_a_config_error_before_any_output",
              "test_a_bad_file_value_and_a_bad_override_are_reported_together",
              "test_bad_values_are_config_errors_before_any_output",
              "test_non_finite_values_are_config_errors_before_any_output",
              "test_removed_scheme_keys_are_unknown",
              "test_paths_is_rejected_where_unused"]:
    globals()[_name] = refusal_test(_name)


@pytest.mark.parametrize("limit", [0.0, -1.0])
def test_a_nonpositive_reaction_cfl_limit_is_rejected(limit):
    # the peak kappa_u max(u^2/v) dt is >= 0, so no step passes a limit <= 0
    with pytest.raises(ValueError,
                       match="reaction_cfl_limit must be positive"):
        SchemeConfig(dt=1e-3, T=0.01, reaction_cfl_limit=limit)


def test_the_largest_seed_and_path_index_are_accepted():
    cfg = loads(f"[noise]\nmaster_seed = {2**64 - 1}\n"
                f"[run]\npath_index = {2**64 - 1}\n")
    assert cfg.noise.master_seed == cfg.raw["run"]["path_index"] == 2**64 - 1
    with pytest.raises(ValueError, match="master_seed must be below 2"):
        NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=4, master_seed=2**64)


def test_an_override_replaces_a_bad_file_value_before_validation(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[noise]\nmaster_seed = -1\n")
    out = tmp_path / "out"
    argv = ["spectrum", "--config", str(path), "--seed", "3", "--out-dir",
            str(out), "--quiet"]
    assert cli.main(argv) == 0
    assert "master_seed = 3\n" in (out / "config.echo.txt").read_text()


def test_the_defaults_are_the_selftests_and_the_signatures():
    # the schema, the spec dataclasses and the selftest's setup each state
    # the defaults: a bare command runs what the criteria check
    cfg, desk = loads(""), acceptance._basis_1d()
    assert cfg.params == acceptance._desk_params()
    assert cfg.domain == desk.domain
    assert cfg.noise.mode_count == desk.mode_count
    assert cfg.scheme == SchemeConfig(dt=1e-3, T=1.0)
    assert cfg.functionals == FunctionalConfig()
    assert cfg.fixedpoint == FixedPointConfig()
    assert cfg.stopping == StoppingSpec()
    for function, name, (section, key) in [
            (default_initial_pair, "amplitude", ("run", "initial_amplitude")),
            (uniqueness_study, "perturb_mode", ("uniqueness", "perturb_mode")),
            (auto_bounds, "margin", ("fixedpoint", "bound_margin"))]:
        default = inspect.signature(function).parameters[name].default
        assert default == cfg.raw[section][key], name


NON_DEFAULT = """\
[domain]
dim = 2
length_x = 1.5
length_y = 0.75
grid_points = 32
[model]
sigma_u = 0.25
[scheme]
dt = 0.0005
horizon = 0.25
scheme = stratonovich_heun
v_floor = 0.001
[noise]
modes = 24
master_seed = 17
[functionals]
p = 3.5
rho = 1.05
[uniqueness]
stopping_levels = 1, 3.5, 9
[ensemble]
horizons = 0.125, 0.25
"""


@pytest.mark.parametrize("text", ["", NON_DEFAULT], ids=["default", "non_default"])
def test_dumps_loads_round_trip_is_byte_identical(text):
    echo = dumps(loads(text))
    assert dumps(loads(echo)) == echo
    assert "dealias" not in echo and "exact_scalar_decay" not in echo


def test_non_default_values_survive_the_echo():
    cfg = loads(dumps(loads(NON_DEFAULT)))
    assert cfg.domain.lengths == (1.5, 0.75)
    assert cfg.scheme.scheme == "stratonovich_heun"
    assert cfg.noise.master_seed == 17
    assert cfg.raw["uniqueness"]["stopping_levels"] == (1.0, 3.5, 9.0)
    assert cfg.raw["ensemble"]["horizons"] == (0.125, 0.25)


# every violated invariant of a section is reported, not only the first
ALL_PROBLEMS = {
    "scheme": ("[scheme]\ndt = 0\nv_floor = -1\n",
               ["[scheme] dt must be positive", "[scheme] v_floor must be >= 0"]),
    "fixedpoint": ("[fixedpoint]\ntolerance = -1\nensemble_size = 0\n",
                   ["[fixedpoint] tolerance must be positive",
                    "[fixedpoint] ensemble_size must be >= 1"]),
    "functionals": ("[functionals]\np = 0.5\nrho = 2\n",
                    ["[functionals] p must be >= 1",
                     "[functionals] rho = 2 outside [1, 6/5) for d = 1"]),
}


@pytest.mark.parametrize("section", sorted(ALL_PROBLEMS))
def test_every_violated_invariant_is_reported(section):
    text, expected = ALL_PROBLEMS[section]
    with pytest.raises(ConfigError) as err:
        loads(text)
    assert err.value.problems == expected


NAN, INF = math.nan, math.inf
# Python-API constructions whose values a config file rejects at parse
# time, with every problem line each must report
NON_FINITE = {
    "ModelParams r_u": (lambda: replace(acceptance._desk_params(), r_u=NAN),
                        ["r_u = nan is not finite"]),
    "FunctionalConfig p": (lambda: FunctionalConfig(p=NAN),
                           ["p = nan is not finite"]),
    "FunctionalConfig rho": (lambda: FunctionalConfig(rho=NAN),
                             ["rho = nan is not finite"]),
    "DomainSpec lengths": (lambda: DomainSpec(dim=1, lengths=(NAN,)),
                           ["lengths = (nan,) is not finite"]),
    "SchemeConfig v_floor": (lambda: SchemeConfig(dt=0.1, T=1.0, v_floor=NAN),
                             ["v_floor = nan is not finite"]),
    "SchemeConfig dt": (lambda: SchemeConfig(dt=NAN, T=1.0),
                        ["dt = nan is not finite"]),
    "SchemeConfig T": (lambda: SchemeConfig(dt=0.1, T=INF),
                       ["T = inf is not finite"]),
    "SchemeConfig all at once": (
        lambda: SchemeConfig(dt=NAN, T=INF, v_floor=-INF),
        ["dt = nan is not finite", "T = inf is not finite",
         "v_floor = -inf is not finite", "v_floor must be >= 0"]),
    "NoiseSpec gamma1": (lambda: NoiseSpec(gamma1=NAN, gamma2=2.0,
                                           mode_count=4),
                         ["gamma1 = nan is not finite"]),
    "FixedPointConfig tolerance": (lambda: FixedPointConfig(tolerance=NAN),
                                   ["tolerance = nan is not finite"]),
    "StoppingSpec levels": (lambda: StoppingSpec((1.0, NAN)),
                            ["m_levels = (1.0, nan) is not finite"]),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_parameter_dataclasses_reject_non_finite_values(case):
    build, lines = NON_FINITE[case]
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value).splitlines() == lines
