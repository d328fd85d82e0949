"""``Stepper.advance`` against the one-row reference step of its docstring."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gmspde.acceptance import _desk_params
from gmspde.dynamics import (
    FloorViolation,
    SchemeConfig,
    StateView,
    Stepper,
    steady_state,
)
from gmspde.noise import NoiseSpec
from gmspde.spectral import DomainSpec, build_basis
from reference_step import reference_step

ROWS = 3


def _kind(error):
    if error is None:
        return None
    if isinstance(error, FloorViolation):
        return "floor"
    return "cfl" if str(error).startswith("reaction CFL") else "nonfinite"


@st.composite
def steps(draw):
    dim = draw(st.sampled_from([1, 2]))
    k = draw(st.integers(1, 12 if dim == 1 else 6))
    # an even N >= 2K keeps every mode index below N/2: nothing aliases
    n = 2 * draw(st.integers(max(k, 2), k + 3))
    sigma = st.floats(0.0, 4.0)
    return dict(
        dim=dim, k=k, n=n, scheme=draw(st.sampled_from(
            ["ito_imex", "stratonovich_heun"])),
        v_floor=draw(st.sampled_from([0.0, 1e-3, 2.5])),
        sigma_u=draw(sigma), sigma_v=draw(sigma),
        amplitude=draw(st.floats(0.0, 3.0)),
        low_v=draw(st.floats(1e-3, 0.5)),
        dt=10.0 ** draw(st.floats(-4.0, -0.5)),
        driven=draw(st.booleans()), seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(steps())
def test_advance_matches_the_reference_step_row_by_row(case):
    basis = build_basis(DomainSpec(dim=case["dim"], lengths=(1.0,) * case["dim"],
                                   grid_points_per_axis=case["n"]), case["k"])
    params = replace(_desk_params(), sigma_u=case["sigma_u"],
                     sigma_v=case["sigma_v"])
    scheme = SchemeConfig(dt=case["dt"], T=case["dt"], scheme=case["scheme"],
                          v_floor=case["v_floor"])
    spec = NoiseSpec(gamma1=2.0, gamma2=3.0, mode_count=case["k"])
    rng = np.random.default_rng(case["seed"])

    # row 0 about the steady state; row 1 a small u and v, v positive,
    # which a fall of W_2 in mode 0 by 2.5 sd pushes through zero when
    # sigma_v sqrt(dt) passes about 0.4 (Ito); row 2 with v on the floor
    # at every node (e_0 = 1 on the unit domain), where < and <= differ,
    # and 0/0 at a zero floor where u (or chi) is 0
    amplitude, low_v = case["amplitude"], case["low_v"]
    normal = rng.standard_normal((2, ROWS, case["k"]))
    modal = amplitude * normal
    modal[:, 0, 0] += steady_state(params)
    modal[:, 1] = low_v * 0.1 * normal[:, 1]
    modal[1, 1, 0] = low_v
    modal[1, 2] = 0.0
    modal[1, 2, 0] = case["v_floor"]
    dw = np.sqrt(case["dt"]) * rng.standard_normal((ROWS, 2, case["k"]))
    dw[1, 1, 0] = -2.5 * np.sqrt(case["dt"])
    chi = None
    if case["driven"]:
        chi = basis.synthesize(amplitude * rng.standard_normal(modal[0].shape))

    nodal = basis.synthesize(modal.reshape(2 * ROWS, -1)).reshape(2, ROWS, -1)
    state = StateView(t=0.0, step_index=0, modal=modal.copy(), nodal=nodal,
                      v_floored=np.maximum(nodal[1], case["v_floor"]),
                      floor_activations=np.zeros(ROWS, dtype=int),
                      alive=np.ones(ROWS, dtype=bool))
    stepper = Stepper(basis, params, scheme, spec, ROWS)
    with np.errstate(all="ignore"):    # 1/0 and 0/0 at a zero floor
        stepper.advance(state, stepper.damp * dw.swapaxes(0, 1), chi)
        expected = [reference_step(basis, params, scheme, spec, modal[:, b],
                                   dw[b], None if chi is None else chi[b])
                    for b in range(ROWS)]

    for b, (new, below, failure) in enumerate(expected):
        assert _kind(state.failures.get(b)) == failure, b
        assert state.floor_activations[b] == below, b
        got = state.modal[:, b]
        assert np.abs(got - new).max() <= 1e-13 * np.abs(new).max(), b
