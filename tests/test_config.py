import math

import pytest

from gmspde import cli
from gmspde.config import ConfigError, dumps, loads
from gmspde.dynamics import ModelParams, SchemeConfig
from gmspde.experiments import FixedPointConfig, StoppingSpec
from gmspde.functionals import FunctionalConfig
from gmspde.noise import NoiseSpec
from gmspde.spectral import DomainSpec

# grid frequency 2k = 62 >= N/2 on paper_1d; 2-D modes up to index 8 on N=16
ALIASING = {
    "paper_1d": "[domain]\nconvention = paper_1d\ngrid_points = 64\n"
                "[noise]\nmodes = 32\n",
    "square": "[domain]\ndim = 2\ngrid_points = 16\n[noise]\nmodes = 64\n",
}


ALIASING_LINES = {
    "paper_1d": "[noise] modes = 32: grid frequency 62 aliases on a grid with "
                "64 points per axis; need grid_points_per_axis >= 126",
    "square": "[noise] modes = 64: grid frequency 8 aliases on a grid with 16 "
              "points per axis; need grid_points_per_axis >= 18",
}


@pytest.mark.parametrize("name", sorted(ALIASING))
def test_aliasing_modes_are_config_errors(name, tmp_path):
    text = ALIASING[name]
    with pytest.raises(ConfigError, match="aliases") as err:
        loads(text)
    assert err.value.problems == [ALIASING_LINES[name]]
    path = tmp_path / "run.cfg"
    path.write_text(text)
    argv = ["spectrum", "--config", str(path), "--out-dir",
            str(tmp_path / "out"), "--quiet"]
    assert cli.main(argv) == 1


# each bad size must fail as a config error before any file is written
BAD_SIZES = {
    "ensemble --paths 1": (["ensemble", "--paths", "1"], ""),
    "ensemble --paths 0": (["ensemble", "--paths", "0"], ""),
    "ensemble --paths -3": (["ensemble", "--paths", "-3"], ""),
    "[run] paths = 1": (["ensemble"], "[run]\npaths = 1\n"),
    "fixedpoint --paths 0": (["fixedpoint", "--paths", "0"], ""),
    "ensemble_size = 0": (["fixedpoint"], "[fixedpoint]\nensemble_size = 0\n"),
    "max_iterations = 0": (["fixedpoint"], "[fixedpoint]\nmax_iterations = 0\n"),
    "tolerance = -1": (["fixedpoint"], "[fixedpoint]\ntolerance = -1\n"),
    "bound_margin = 0": (["fixedpoint"], "[fixedpoint]\nbound_margin = 0\n"),
}


@pytest.mark.parametrize("case", sorted(BAD_SIZES))
def test_bad_sizes_are_config_errors_before_any_output(case, tmp_path):
    argv, text = BAD_SIZES[case]
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    argv = argv + ["--config", str(path), "--out-dir", str(out), "--quiet"]
    assert cli.main(argv) == 1
    assert not (out / "config.echo.txt").exists()


# Philox keys are 64-bit words: a larger seed or path index would wrap
# onto the noise of another
PAST_64_BITS = {
    "--seed 2**64": (["simulate", "--seed", str(2**64)], "",
                     "[noise] master_seed must be below 2**64"),
    "master_seed = 2**64": (["uniqueness"], f"[noise]\nmaster_seed = {2**64}\n",
                            "[noise] master_seed must be below 2**64"),
    "path_index = 2**64": (["simulate"], f"[run]\npath_index = {2**64}\n",
                           "[run] path_index must be below 2**64"),
}


@pytest.mark.parametrize("case", sorted(PAST_64_BITS))
def test_keys_past_64_bits_are_config_errors_before_any_output(case, tmp_path,
                                                               capsys):
    argv, text, message = PAST_64_BITS[case]
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    argv = argv + ["--config", str(path), "--out-dir", str(out), "--quiet"]
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err.splitlines()
    assert not out.exists()


@pytest.mark.parametrize("command, limit", [("simulate", "0"),
                                            ("ensemble", "-1")])
def test_a_nonpositive_reaction_cfl_limit_is_a_config_error(command, limit,
                                                             tmp_path,
                                                             capsys):
    # the peak kappa_u max(u^2/v) dt is >= 0, so no step passes a limit <= 0
    with pytest.raises(ValueError,
                       match="reaction_cfl_limit must be positive"):
        SchemeConfig(dt=1e-3, T=0.01, reaction_cfl_limit=float(limit))
    path = tmp_path / "run.cfg"
    path.write_text(f"[scheme]\nreaction_cfl_limit = {limit}\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out-dir", str(out), "--quiet"]
    assert cli.main(argv) == 1
    assert ("[scheme] reaction_cfl_limit must be positive"
            in capsys.readouterr().err.splitlines())
    assert not out.exists()


def test_the_largest_seed_and_path_index_are_accepted():
    cfg = loads(f"[noise]\nmaster_seed = {2**64 - 1}\n"
                f"[run]\npath_index = {2**64 - 1}\n")
    assert cfg.noise.master_seed == cfg.run_opts["path_index"] == 2**64 - 1
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


def test_a_bad_override_is_a_config_error_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["spectrum", "--seed", "-1", "--out-dir", str(out), "--quiet"]
    assert cli.main(argv) == 1
    assert ("[noise] master_seed must be a nonnegative integer"
            in capsys.readouterr().err.splitlines())
    assert not (out / "config.echo.txt").exists()


def test_a_bad_file_value_and_a_bad_override_are_reported_together(tmp_path,
                                                                   capsys):
    path = tmp_path / "run.cfg"
    path.write_text("[scheme]\nhorizon = 0\n")
    out = tmp_path / "out"
    argv = ["ensemble", "--config", str(path), "--paths", "1", "--out-dir",
            str(out), "--quiet"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert "[scheme] horizon must be positive" in err
    assert "[run] paths must be >= 2 (an ensemble needs two)" in err
    assert not (out / "config.echo.txt").exists()


# the problem line of model constants with no finite steady state
STEADY = ("[model] no finite steady state u* = kappa_u mu_v/(kappa_v mu_u), "
          "v* = kappa_v u*^2/mu_v at kappa_u = {}, kappa_v = {}, mu_u = {}, "
          "mu_v = {}")

# values a section's dataclass rejects: the problem names the section
BAD_VALUES = {
    "horizon = 0": ("simulate", "[scheme]\nhorizon = 0\n",
                    "[scheme] horizon must be positive"),
    "horizon shorter than one step": (
        "simulate", "[scheme]\ndt = 5e-16\nhorizon = 1e-16\n",
        "[scheme] horizon 1e-16 is shorter than one step of 5e-16"),
    "stopping_levels = 4, 2": (
        "uniqueness", "[uniqueness]\nstopping_levels = 4, 2\n",
        "[uniqueness] stopping levels must be strictly increasing"),
    # named the order of the levels, not their absence
    "stopping_levels = (empty)": (
        "uniqueness", "[uniqueness]\nstopping_levels =\n",
        "[uniqueness] stopping levels must hold at least one level"),
    # perturbed mode K - 1 and ran; failed at run time after the echo
    "perturb_mode = -1": ("uniqueness", "[uniqueness]\nperturb_mode = -1\n",
                          "[uniqueness] perturb_mode = -1 outside modes 0..15"),
    "perturb_mode = 99": ("uniqueness", "[uniqueness]\nperturb_mode = 99\n",
                          "[uniqueness] perturb_mode = 99 outside modes 0..15"),
    # failed at run time, after the whole ensemble
    "horizons = -0.5": ("ensemble", "[ensemble]\nhorizons = -0.5, 0.5\n",
                        "[ensemble] horizon -0.5 is negative"),
    # no steady state to start from: a ZeroDivisionError traceback after
    # the echo, or (mu_u = 1e-320, u* = inf) a non-finite state at step 0
    "mu_u = 0": ("simulate", "[model]\nmu_u = 0\n",
                 STEADY.format("1.0", "1.0", "0.0", "2.0")),
    "mu_v = 0": ("uniqueness", "[model]\nmu_v = 0\n",
                 STEADY.format("1.0", "1.0", "1.0", "0.0")),
    "kappa_v = 0": ("ensemble", "[model]\nkappa_v = 0\n",
                    STEADY.format("1.0", "0.0", "1.0", "2.0")),
    "mu_u = 1e-320": ("fixedpoint", "[model]\nmu_u = 1e-320\n",
                      STEADY.format("1.0", "1.0", "1e-320", "2.0")),
    # v* = 0: every run started from v = 0, floored on the whole grid
    # (fixedpoint failed its start's positivity check after the echo)
    "kappa_u = 0": ("fixedpoint", "[model]\nkappa_u = 0\n",
                    "[model] steady state v* = kappa_v u*^2/mu_v = 0 is not "
                    "positive at kappa_u = 0.0, kappa_v = 1.0, mu_u = 1.0, "
                    "mu_v = 2.0"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_values_are_config_errors_before_any_output(case, tmp_path,
                                                        capsys):
    command, text, problem = BAD_VALUES[case]
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out-dir", str(out), "--quiet"]
    assert cli.main(argv) == 1
    assert problem in capsys.readouterr().err.splitlines()
    assert not (out / "config.echo.txt").exists()


# non-finite floats ran on (or crashed) instead of failing as config errors
NON_FINITE = ["[model]\nkappa_u = nan", "[domain]\nlength_x = inf",
              "[scheme]\nhorizon = inf", "[model]\nmu_u = inf",
              "[functionals]\np = inf", "[uniqueness]\nstopping_levels = 2, -inf"]


@pytest.mark.parametrize("text", NON_FINITE, ids=lambda t: t.split("\n")[1])
def test_non_finite_values_are_config_errors_before_any_output(text, tmp_path,
                                                               capsys):
    path, out = tmp_path / "run.cfg", tmp_path / "out"
    path.write_text(text + "\n")
    argv = ["simulate", "--config", str(path), "--out-dir", str(out), "--quiet"]
    assert cli.main(argv) == 1
    key = text.split("\n")[1].split(" =")[0]
    assert f"line 2: bad value for {key!r}" in capsys.readouterr().err
    assert not (out / "config.echo.txt").exists()


@pytest.mark.parametrize("key", ["dealias", "exact_scalar_decay"])
def test_removed_scheme_keys_are_unknown(key, tmp_path):
    text = f"[scheme]\n{key} = true\n"
    with pytest.raises(ConfigError, match="unknown key"):
        loads(text)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    argv = ["spectrum", "--config", str(path), "--out-dir",
            str(tmp_path / "out"), "--quiet"]
    assert cli.main(argv) == 1


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
    assert cfg.uniqueness_opts["stopping_levels"] == (1.0, 3.5, 9.0)
    assert cfg.ensemble_opts["horizons"] == (0.125, 0.25)


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


# case -> (command, an option it does not take, a value): selftest's
# criteria fix their own configs, so it takes no --config and no --seed
UNUSED_OPTIONS = {
    "simulate": ("simulate", "--paths", "3"),
    "uniqueness": ("uniqueness", "--paths", "3"),
    "spectrum": ("spectrum", "--paths", "3"),
    "selftest": ("selftest", "--paths", "3"),
    "selftest --config": ("selftest", "--config", "/nonexistent.cfg"),
    "selftest --seed": ("selftest", "--seed", "5"),
}


@pytest.mark.parametrize("case", sorted(UNUSED_OPTIONS))
def test_paths_is_rejected_where_unused(case, tmp_path, capsys):
    command, option, value = UNUSED_OPTIONS[case]
    out = tmp_path / "out"
    argv = [command, option, value, "--out-dir", str(out), "--quiet"]
    if command == "selftest":    # accepted, the option would run criterion 1
        argv += ["--criteria", "1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {option} {value}" in err
    assert not out.exists()


NAN, INF = math.nan, math.inf
MODEL = dict(r_u=0.01, r_v=0.1, kappa_u=1.0, kappa_v=1.0, mu_u=1.0,
             mu_v=2.0, sigma_u=0.1, sigma_v=0.1)
# Python-API constructions whose values a config file rejects at parse
# time, with every problem line each must report
NON_FINITE = {
    "ModelParams r_u": (lambda: ModelParams(**{**MODEL, "r_u": NAN}),
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
