"""Contract of the path-batched stepping core.

A row of a stack agrees with the solo ``run`` of its path to
RTOL x max|value| (a stacked product may sum a row in another order), a
fixed stacking reproduces bit for bit whatever the noise block size
(blocks drawn ahead in a forked child too), no noise block exceeds its
draw budget, the child is reaped on every exit of the walk, and a failed
row reports exactly the error its solo run raises while the other rows
go on.
"""

import os
import time

import numpy as np
import pytest

from gmspde import dynamics, rng
from gmspde.acceptance import _basis_1d, _desk_params
from gmspde.dynamics import (
    FloorViolation,
    SchemeConfig,
    SimulationError,
    default_initial_pair,
    run,
    run_batch,
)
from gmspde.experiments import ensemble
from gmspde.functionals import FunctionalConfig, FunctionalRecorder
from gmspde.noise import NoiseSpec, drawn, sliced
from gmspde.spectral import DomainSpec, build_basis
from stores import States

RTOL = 1e-13
K = 16
FCFG = FunctionalConfig(observation_stride=7)


def assert_close(got, want, label=""):
    scale = float(np.max(np.abs(want))) or 1.0
    gap = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    assert gap <= RTOL * scale, f"{label}: gap {gap:.3g} x max {scale:.3g}"


def solo(init, prm, sch, basis, spec, increments, observer=None):
    """``run`` of the one path whose (2, K, N) table is ``increments``."""
    return run(init, prm, sch, basis, spec, sliced(increments[None]),
               observer=observer)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("scheme", ["ito_imex", "stratonovich_heun"])
def test_stacked_rows_match_solo_runs(dim, scheme):
    basis = _basis_1d() if dim == 1 else build_basis(
        DomainSpec(dim=2, lengths=(1.0, 1.0), grid_points_per_axis=16), K)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=41)
    prm = _desk_params(sigma=0.3)
    init = default_initial_pair(basis, prm)
    sch = SchemeConfig(dt=1e-3, T=0.05, scheme=scheme)
    indices = [0, 5, 2, 9, 1]          # five rows: a BLAS remainder block
    increments = drawn(spec, sch, indices)(0, sch.n_steps())
    rec = FunctionalRecorder(basis, FCFG)
    final = run_batch(init, prm, sch, basis, spec, sliced(increments),
                      len(indices), observer=rec)
    assert final.failures == {} and final.alive.all()
    stack = rec.traces()
    for row in range(len(indices)):
        trace = stack.rows([row])
        want = FunctionalRecorder(basis, FCFG)
        res = solo(init, prm, sch, basis, spec, increments[row],
                   observer=want)
        assert np.array_equal(trace.times, want.traces().times)
        for name, column in want.traces().data.items():
            assert_close(trace.data[name], column, f"row {row} {name}")
        assert_close(final.u_modal[row], res.u_modal[0], "u")
        assert_close(final.v_modal[row], res.v_modal[0], "v")
        assert final.floor_activations[row] == res.floor_activations[0]


def run_ensemble(n_paths=11, scheme="ito_imex"):
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=42)
    prm = _desk_params(sigma=0.3)
    sch = SchemeConfig(dt=1e-3, T=0.03, scheme=scheme)
    return ensemble(default_initial_pair(basis, prm), prm, sch, basis, spec,
                    n_paths, FCFG)


def assert_bitwise(a, b):
    for name in a.means:
        assert np.array_equal(a.means[name], b.means[name]), name
        assert np.array_equal(a.standard_errors[name],
                              b.standard_errors[name]), name
    for name, column in a.traces.data.items():
        assert np.array_equal(column, b.traces.data[name]), name


def test_reruns_are_bitwise_at_two_stack_sizes():
    eleven = run_ensemble()
    assert_bitwise(eleven, run_ensemble())
    # the first five paths alone are another stack: bitwise on rerun,
    # equal to rounding row by row against the eleven-path stack
    five = run_ensemble(n_paths=5)
    assert_bitwise(five, run_ensemble(n_paths=5))
    for row in range(5):
        small, large = five.traces.rows([row]), eleven.traces.rows([row])
        for name, column in large.data.items():
            if not name.endswith("_argmin"):
                assert_close(small.data[name], column, name)


def two_cpus(monkeypatch):
    """Let the process draw ahead, whatever CPUs this host allows it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


class SlowRecorder(FunctionalRecorder):
    """A recorder slow enough that a child drawing ahead could overrun it."""

    def observe(self, state, dt):
        time.sleep(5e-4)
        super().observe(state, dt)


def stepped(source, n_paths, scheme):
    """Final state and traces of an ensemble stack stepped from ``source``."""
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=42)
    prm = _desk_params(sigma=0.3)
    rec = SlowRecorder(basis, FCFG)
    final = run_batch(default_initial_pair(basis, prm), prm, scheme, basis,
                      spec, source(spec), n_paths, observer=rec)
    return final, rec.traces()


@pytest.mark.parametrize("scheme", ["ito_imex", "stratonovich_heun"])
def test_ensemble_is_bitwise_under_any_noise_block(monkeypatch, scheme):
    default = run_ensemble(scheme=scheme)
    # 32 steps: the default budget's last block (5 steps at 200 paths) is short
    sch = SchemeConfig(dt=1e-3, T=0.032, scheme=scheme)
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    # one step, the default budget (7 blocks), all steps (one block), and
    # the default budget on one CPU, which draws in-line
    for budget, cpus, n_forks in [(1, {0, 1}, 1),
                                  (dynamics.NOISE_BLOCK_DRAWS, {0, 1}, 1),
                                  (10**9, {0, 1}, 0),
                                  (dynamics.NOISE_BLOCK_DRAWS, {0}, 0)]:
        monkeypatch.setattr(dynamics, "NOISE_BLOCK_DRAWS", budget)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
        assert_bitwise(default, run_ensemble(scheme=scheme))
        # drawn ahead in a child against the stored table read in-line
        del forks[:]
        ahead, ahead_traces = stepped(
            lambda spec: drawn(spec, sch, range(200)), 200, sch)
        assert len(forks) == n_forks
        inline, inline_traces = stepped(
            lambda spec: sliced(drawn(spec, sch, range(200))(0, 32)), 200,
            sch)
        assert len(forks) == n_forks
        assert np.array_equal(ahead.modal, inline.modal)
        assert np.array_equal(ahead.nodal, inline.nodal)
        for name, column in inline_traces.data.items():
            assert np.array_equal(ahead_traces.data[name], column), name


@pytest.mark.parametrize("n_paths, budget", [(200, None), (11, 800)])
def test_ensemble_noise_blocks_stay_within_the_budget(monkeypatch, tmp_path,
                                                      n_paths, budget):
    two_cpus(monkeypatch)
    if budget is not None:
        monkeypatch.setattr(dynamics, "NOISE_BLOCK_DRAWS", budget)
    log = tmp_path / "sizes"
    draw = rng.normal_table      # the one draw of every noise block

    def spy(*args, **kwargs):
        table = draw(*args, **kwargs)
        # a file, not a list: blocks drawn ahead are drawn in a forked
        # child, whose list the test would never see
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{table.size}\n")
        return table

    monkeypatch.setattr(rng, "normal_table", spy)
    run_ensemble(n_paths)
    sizes = [int(line) for line in log.read_text(encoding="utf-8").split()]
    # every draw of the 30 steps is made once, in blocks within the budget
    assert sum(sizes) == n_paths * 2 * K * 30
    assert max(sizes) <= dynamics.NOISE_BLOCK_DRAWS


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class RaisingObserver:
    def __init__(self, states):
        self.states = states

    def observe(self, state, dt):
        if state.step_index == self.states:
            raise KeyError("observer stops the walk")


def test_the_noise_child_is_reaped_on_every_exit(monkeypatch):
    two_cpus(monkeypatch)
    run_ensemble(200)                                  # a normal end
    assert_no_child_left()
    basis, prm = _basis_1d(), _desk_params(sigma=30.0)
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=42)
    sch = SchemeConfig(dt=1e-3, T=0.1, reaction_cfl_limit=2.25e-3)
    init = default_initial_pair(basis, prm)
    final = run_batch(init, prm, sch, basis, spec,
                      drawn(spec, sch, range(200)), 200)  # every row fails
    assert not final.alive.any() and 5 < final.step_index < 100
    assert_no_child_left()
    sch = SchemeConfig(dt=1e-3, T=0.03)
    with pytest.raises(KeyError, match="observer stops") as caught:
        run_batch(init, prm, sch, basis, spec, drawn(spec, sch, range(200)),
                  200, observer=RaisingObserver(12))   # mid-walk
    assert_no_child_left()      # while the traceback holds run_batch's frame

    parent, draw = os.getpid(), rng.normal_table

    def planted(*args):
        if os.getpid() != parent:          # the child's draws alone
            raise ValueError("planted")
        return draw(*args)

    monkeypatch.setattr(rng, "normal_table", planted)
    with pytest.raises(ValueError, match="planted"):
        run_ensemble(200)
    assert_no_child_left()


def test_a_noise_block_of_the_wrong_shape_is_rejected():
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=42)
    prm = _desk_params(sigma=0.3)
    sch = SchemeConfig(dt=1e-3, T=0.03)
    init = default_initial_pair(basis, prm)
    short = drawn(spec, SchemeConfig(dt=1e-3, T=0.02), range(3))(0, 20)
    with pytest.raises(ValueError, match=r"steps 0..29 has shape "
                                         r"\(3, 2, 16, 20\)"):
        run_batch(init, prm, sch, basis, spec, sliced(short), 3)
    table = drawn(spec, sch, range(3))(0, 30)
    with pytest.raises(ValueError, match=r"run needs \(4, 2, 16, 30\)"):
        run_batch(init, prm, sch, basis, spec, sliced(table), 4)


def kicked_batch(v_floor, kick, scheme="ito_imex", observer=None):
    """Five paths; row 2 gets ``kick`` added to one increment at step 20."""
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=43)
    prm = _desk_params(sigma=0.3)
    init = default_initial_pair(basis, prm)
    sch = SchemeConfig(dt=1e-3, T=0.05, scheme=scheme, v_floor=v_floor)
    increments = drawn(spec, sch, range(5))(0, sch.n_steps())
    process, mode = kick[0], kick[1]
    increments[2, process, mode, 20] += kick[2]
    final = run_batch(init, prm, sch, basis, spec, sliced(increments), 5,
                      observer)
    return final, (init, prm, sch, basis, spec, increments)


def check_other_rows(final, setup, failed_row):
    init, prm, sch, basis, spec, increments = setup
    for row in range(5):
        if row == failed_row:
            continue
        assert final.alive[row]
        res = solo(init, prm, sch, basis, spec, increments[row])
        assert_close(final.u_modal[row], res.u_modal[0], f"u {row}")
        assert_close(final.v_modal[row], res.v_modal[0], f"v {row}")


def check_failed_row(final, setup, row, error):
    init, prm, sch, basis, spec, increments = setup
    # the solo run raises the same error ...
    rec = States()
    with pytest.raises(error) as solo_error:
        solo(init, prm, sch, basis, spec, increments[row], observer=rec)
    assert list(final.failures) == [row]
    assert not final.alive[row]
    got = final.failures[row]
    assert type(got) is type(solo_error.value)
    assert str(got) == str(solo_error.value)
    # ... after the same number of good steps: the row kept its last state
    last = rec.trajectories()
    assert_close(final.u_modal[row], last[0, 0, -1], "frozen u")
    assert_close(final.v_modal[row], last[1, 0, -1], "frozen v")
    return str(got)


def test_cfl_failure_is_reported_for_its_row_only():
    # a kick to the activator's flat mode blows u^2/v up after step 20
    final, setup = kicked_batch(v_floor=1e-8, kick=(0, 0, 200.0))
    message = check_failed_row(final, setup, 2, SimulationError)
    assert message.startswith("reaction CFL violated at step 21:")
    check_other_rows(final, setup, 2)


def test_nonfinite_failure_is_reported_for_its_row_only():
    # a NaN increment of the inhibitor's mode 3 at step 20: only row 2's
    # new state is non-finite, and both of its fields keep their values
    final, setup = kicked_batch(v_floor=1e-8, kick=(1, 3, np.nan))
    message = check_failed_row(final, setup, 2, SimulationError)
    assert message == "non-finite state after step 20"
    check_other_rows(final, setup, 2)


def test_floor_failure_is_reported_for_its_row_only():
    # a negative kick to the inhibitor's flat mode: step 20 makes v < 0
    final, setup = kicked_batch(v_floor=0.0, kick=(1, 0, -50.0))
    message = check_failed_row(final, setup, 2, FloorViolation)
    assert message.startswith("inhibitor is nonpositive at flat node 0")
    check_other_rows(final, setup, 2)


CFL_KICK = (0, 0, 200.0)


@pytest.mark.parametrize("scheme, v_floor, kick, error", [
    *((scheme, v_floor, CFL_KICK, SimulationError)
      for scheme in ("ito_imex", "stratonovich_heun")
      for v_floor in (0.0, 1e-8, 2.5)),
    ("ito_imex", 0.0, (1, 0, -50.0), FloorViolation),
])
def test_every_observed_state_carries_its_floored_inhibitor(scheme, v_floor,
                                                             kick, error):
    # every state an observer sees, the failed row's restored ones and the
    # last included, carries max(v, floor) of its own v bit for bit; the
    # floor 2.5 lies above v* = 2, and the smaller ones floor no node.  A
    # row restored after v <= 0 is an Ito one: a Heun step scales the flat
    # mode of v by about 1 + x + x^2/2 > 0, x = sigma dW
    floored = []

    class Check:
        def observe(self, view, dt):
            want = np.maximum(view.v_nodal, v_floor)
            assert view.v_floored.tobytes() == want.tobytes(), view.step_index
            floored.append(bool((view.v_nodal < v_floor).any()))

    final, setup = kicked_batch(v_floor, kick, scheme, Check())
    assert list(final.failures) == [2]
    assert type(final.failures[2]) is error
    assert len(floored) == setup[2].n_steps() + 1
    assert any(floored) == all(floored) == (v_floor > 2)


def test_ensemble_failures_match_solo_runs():
    # a CFL limit between the paths' largest reaction numbers: some paths
    # fail mid-run, the others survive in the same stacks
    basis = _basis_1d()
    spec = NoiseSpec(gamma1=2.0, gamma2=2.0, mode_count=K, master_seed=44)
    prm = _desk_params(sigma=1.0)
    init = default_initial_pair(basis, prm)
    loose = SchemeConfig(dt=1e-3, T=0.05)
    n_paths = 12
    increments = drawn(spec, loose, range(n_paths))(0, loose.n_steps())
    peaks = []
    for idx in range(n_paths):
        rec = States()
        solo(init, prm, loose, basis, spec, increments[idx], observer=rec)
        traj = rec.trajectories()
        u = basis.synthesize(traj[0, 0, :-1])
        v = basis.synthesize(traj[1, 0, :-1])
        peaks.append(float((u * u / v).max()) * prm.kappa_u * loose.dt)
    limit = float(np.median(peaks))
    sch = SchemeConfig(dt=1e-3, T=0.05, reaction_cfl_limit=limit)
    report = ensemble(init, prm, sch, basis, spec, n_paths, FCFG)
    expected = {}
    for idx in range(n_paths):
        try:
            solo(init, prm, sch, basis, spec, increments[idx])
        except Exception as exc:
            expected[idx] = f"{type(exc).__name__}: {exc}"
    assert 0 < len(expected) < n_paths
    assert report.failures == sorted(expected.items())
    assert any(" at step 0:" not in msg for msg in expected.values())
    assert report.survivors == n_paths - len(expected)
