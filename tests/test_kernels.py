"""The in-place kernels against their expression forms, and their contract:
bit-equal results, the same NonPhysicalState messages, scalar, 0-d and
empty inputs, and no write into an input."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from relshock import fluid, models, riemann, scheme
from relshock.errors import HorizonEncountered, NonPhysicalState
from relshock.fluid import EosParams

sigmas = st.sampled_from([0.1, 1.0 / 3.0])
speeds = st.floats(min_value=-0.999, max_value=0.999)
log_densities = st.floats(min_value=-6.0, max_value=6.0)


def same(new, old):
    """Equal type, shape and bytes, entry by entry for tuples."""
    if isinstance(old, tuple):
        return type(new) is tuple and len(new) == len(old) and all(map(same, new, old))
    return (type(new) is type(old) and np.shape(new) == np.shape(old)
            and np.asarray(new).dtype == np.asarray(old).dtype
            and np.asarray(new).tobytes() == np.asarray(old).tobytes())


def outcome(fn, *args):
    """fn's result, or the type, message and index of what it raised."""
    try:
        return fn(*args)
    except (NonPhysicalState, HorizonEncountered, ZeroDivisionError) as err:
        return type(err), str(err), getattr(err, "index", None)


@st.composite
def fluid_states(draw, min_size=0, max_size=40):
    n = draw(st.integers(min_size, max_size))
    rho = 10.0 ** np.array(draw(st.lists(log_densities, min_size=n, max_size=n)), dtype=float)
    v = np.array(draw(st.lists(speeds, min_size=n, max_size=n)), dtype=float)
    return rho, v


def uniform_array(draw, n, lo, hi):
    return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)), dtype=float)


@settings(max_examples=150, deadline=None)
@given(states=fluid_states(), sigma=sigmas)
def test_fluid_kernels_equal_expression_forms(states, sigma):
    rho, v = states
    eos = EosParams(sigma)
    u0, u1 = ref.conserved_arrays(rho, v, eos)
    assert same(fluid.conserved_arrays(rho, v, eos), (u0, u1))
    assert same(fluid.rapidity(v), ref.rapidity(v))
    assert same(fluid.invariant_arrays(rho, v, eos), ref.invariant_arrays(rho, v, eos))
    assert same(outcome(fluid.fluid_arrays, u0, u1, eos), outcome(ref.fluid_arrays, u0, u1, eos))
    assert fluid.check_fluid(rho, v) is None


@settings(max_examples=150, deadline=None)
@given(data=st.data(), states=fluid_states(), sigma=sigmas)
def test_stage_kernels_equal_expression_forms(data, states, sigma):
    rho, v = states
    n, eos, draw = rho.size, EosParams(sigma), data.draw
    A, B = uniform_array(draw, n, 0.05, 1.0), uniform_array(draw, n, 0.1, 10.0)
    x = uniform_array(draw, n, 0.1, 20.0)
    dt = draw(st.floats(0.0, 0.1))
    assert same(scheme.source_G(A, B, rho, v, x, eos), ref.source_G(A, B, rho, v, x, eos))
    u0, u1 = ref.conserved_arrays(rho, v, eos)
    assert same(outcome(scheme.ode_step, u0, u1, A, B, x, dt, eos),
                outcome(ref.ode_step, u0, u1, A, B, x, dt, eos))

    rho_s, v_s = draw(fluid_states(min_size=n + 1, max_size=n + 1))
    t01_s = ref.conserved_arrays(rho_s, v_s, eos)[1]
    f_star = (t01_s, fluid.t11_arrays(t01_s, rho_s, v_s, eos))
    f_c = (u1, fluid.t11_arrays(u1, rho, v, eos))
    alpha = uniform_array(draw, n + 1, 0.1, 1.0)
    dx = draw(st.floats(1e-3, 1.0))
    assert same(scheme.godunov_cell_update((u0, u1), f_c, f_star, alpha, dt, dx),
                ref.godunov_cell_update((u0, u1), f_c, f_star, alpha, dt, dx))
    assert same(scheme.SimState.light_speed(SimpleNamespace(A=A, B=B)), ref.light_speed(A, B))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), sigma=sigmas, n=st.integers(8, 40))
def test_update_mass_metric_equals_expression_form(data, sigma, n):
    eos = EosParams(1.0 / 3.0)
    state = scheme.init(models.make_model("frw1", eos, t_start=15.0),
                        scheme.SimGrid(3.0, 7.0, n), eos)
    state.eos = EosParams(sigma)
    # densities around the model's (about 1e-4); near |v| = 1 a few close a horizon
    rho = 10.0 ** uniform_array(data.draw, n + 2, -9.0, -4.0)
    v = np.array(data.draw(st.lists(speeds, min_size=n + 2, max_size=n + 2)))
    state.u0, state.u1 = ref.conserved_arrays(rho, v, state.eos)
    left, right = (state.A[0], state.B[0], state.M[0]), (state.A[-1], state.B[-1])
    old = outcome(ref.update_mass_metric, state, state.t, left, right, scheme.HORIZON_FLOOR)
    new = outcome(scheme.update_mass_metric, state, state.t, left, right)
    if isinstance(old, tuple) and old[0] is HorizonEncountered:
        assert new[0] is HorizonEncountered
    else:
        assert new is None and same((state.M, state.A, state.B), old)


SCALAR_KINDS = [float, np.float64, np.array]


@pytest.mark.parametrize("kind", SCALAR_KINDS + ["empty"])
@pytest.mark.parametrize("sigma", [0.1, 1.0 / 3.0])
def test_kernels_take_scalars_zero_d_and_empty_arrays(kind, sigma):
    eos = EosParams(sigma)

    def arg(value):
        return np.array([], dtype=float) if kind == "empty" else kind(value)

    rho, v, u0, u1 = arg(1.7), arg(-0.6), arg(2.5), arg(1.1)
    A, B, x, dt = arg(0.8), arg(1.3), arg(4.0), 0.01
    cases = [
        ("conserved_arrays", (rho, v, eos)), ("rapidity", (v,)),
        ("invariant_arrays", (rho, v, eos)), ("fluid_arrays", (u0, u1, eos)),
        ("check_fluid", (rho, v)), ("source_G", (A, B, rho, v, x, eos)),
        ("ode_step", (u0, u1, A, B, x, dt, eos)),
        # scalar metric and radius with array fluid data, as the ODE tests pass
        ("source_G", (0.9, 1.2, np.array([1.0, 2.0]), np.array([0.0, -0.3]), 5.0, eos)),
    ]
    for name, args in cases:
        new = getattr(fluid, name, None) or getattr(scheme, name)
        assert same(outcome(new, *args), outcome(getattr(ref, name), *args)), name


BAD_CONSERVED = {
    "nan u0": ([1.0, 1.0, np.nan, 1.0], [0.0, 0.1, 0.0, 0.0]),
    "nan u1": ([1.0, 1.0, 1.0, 1.0], [0.0, 0.1, np.nan, np.nan]),
    "disc < 0": ([1.0, 1.0, 1.0, 1.0], [0.0, 5.0, 0.1, 9.0]),
    "u0 <= 0": ([1.0, 2.0, -1.0, 0.0], [0.0, 0.1, 0.0, 0.0]),
    "u0 = 0": ([1.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]),
}
BAD_FLUID = {
    "rho <= 0": ([1.0, 0.0, -1.0], [0.0, 0.1, 0.2]),
    "|v| >= 1": ([1.0, 1.0, 1.0], [0.0, -1.0, 1.5]),
    "v <= -1": ([1.0, 1.0, 1.0], [0.0, 0.5, -1.0]),
    "nan rho": ([1.0, np.nan, 1.0], [0.0, 0.0, 0.0]),
    "nan v": ([1.0, 1.0, 1.0], [0.0, 0.0, np.nan]),
    "inf rho": ([1.0, np.inf, 1.0], [0.0, 0.0, 0.0]),
    "inf rho after |v| >= 1": ([1.0, 1.0, np.inf], [0.0, 1.0, 0.0]),
    "both": ([1.0, 1.0, -1.0], [0.0, 1.0, 0.0]),
}


@pytest.mark.parametrize("case", sorted(BAD_CONSERVED))
@pytest.mark.parametrize("scalar", [False, True])
def test_conserved_pair_refusals_name_the_same_entry(case, scalar, eos):
    u0, u1 = (np.array(a) for a in BAD_CONSERVED[case])
    k = int(np.flatnonzero(~(((4 / 3) ** 2 * u0 * u0 - 4 / 3 * u1 * u1 >= 0) & (u0 > 0)))[0])
    if scalar:
        u0, u1 = float(u0[k]), float(u1[k])
    old = outcome(ref.fluid_arrays, u0, u1, eos)
    assert old[0] is NonPhysicalState and old[2] == (0 if scalar else k)
    assert outcome(fluid.fluid_arrays, u0, u1, eos) == old
    args = (u0, u1, 0.9, 1.2, 5.0, 0.01, eos)
    assert outcome(scheme.ode_step, *args) == outcome(ref.ode_step, *args) == old


@pytest.mark.parametrize("case", sorted(BAD_FLUID))
def test_fluid_refusals_name_the_same_entry(case):
    rho, v = (np.array(a) for a in BAD_FLUID[case])
    old = outcome(ref.check_fluid, rho, v)
    assert old[0] is NonPhysicalState
    assert outcome(fluid.check_fluid, rho, v) == old
    assert outcome(fluid.check_fluid, rho[old[2]], v[old[2]])[:2] == \
        outcome(ref.check_fluid, rho[old[2]], v[old[2]])[:2]
    # the same entries in a row of cells, after and before a good cell: the
    # row solve refuses the row as check_fluid does, naming the same cell
    for row in ((np.r_[1.0, rho], np.r_[0.0, v]), (np.r_[rho, 1.0], np.r_[v, 0.0])):
        old = outcome(ref.check_fluid, *row)
        assert old[0] is NonPhysicalState
        assert outcome(riemann.solve_interfaces, *row, EosParams()) == old


def kernel_calls(state):
    """Every in-place kernel called on views of the state, as advance and
    the diagnostics pass them."""
    eos, dx, dt = state.eos, state.dx, 1e-3
    u0c, u1c, rhoc, vc = state.u0[1:-1], state.u1[1:-1], state.rho[1:-1], state.v[1:-1]
    rho_s, v_s = state.rho[:-1], state.v[:-1]
    t01_s = state.u1[:-1]
    f_star = (t01_s, fluid.t11_arrays(t01_s, rho_s, v_s, eos))
    return [
        (fluid.conserved_arrays, (state.rho[1:], state.v[1:], eos)),
        (fluid.rapidity, (state.v[1:],)),
        (fluid.invariant_arrays, (state.rho, state.v, eos)),
        (fluid.fluid_arrays, (u0c, u1c, eos)),
        (fluid.check_fluid, (rhoc, vc)),
        (riemann.solve_interfaces, (state.rho, state.v, eos)),
        # its sides are views of the row: the sampler writes only its own arrays
        (riemann.sample_solution, (riemann.solve_interfaces(state.rho, state.v, eos), 0.0)),
        (scheme.source_G, (state.A[:-1], state.B[1:], rhoc, vc, state.x[1:-1], eos)),
        (scheme.ode_step, (u0c, u1c, state.A[:-1], state.B[1:], state.x[1:-1], dt, eos)),
        (scheme.godunov_cell_update, ((u0c, u1c), (u1c, state.u0[1:-1]), f_star,
                                      state.light_speed(), dt, dx)),
    ]


@pytest.mark.parametrize("variant, kw", [("frw1", {"t_start": 15.0}), ("frw1_tov", {"r0": 5.0})])
def test_kernels_never_write_into_their_inputs(variant, kw):
    eos = EosParams()
    state = scheme.init(models.make_model(variant, eos, **kw), scheme.SimGrid(3.0, 7.0, 48), eos)
    names = ("x", "xe", "rho", "v", "u0", "u1", "A", "B", "M")
    before = {name: getattr(state, name).copy() for name in names}
    for fn, args in kernel_calls(state):
        out = fn(*args)
        views = [a for a in args if isinstance(a, np.ndarray)]
        results = out if isinstance(out, tuple) else (out,)
        assert not any(np.shares_memory(r, a) for r in results
                       if isinstance(r, np.ndarray) for a in views), fn.__name__
    for name in names:
        assert getattr(state, name).tobytes() == before[name].tobytes(), name

    kept = {name: getattr(state, name) for name in ("A", "B", "M")}
    scheme.update_mass_metric(state, state.t, (state.A[0], state.B[0], state.M[0]),
                              (state.A[-1], state.B[-1]))
    for name, arr in kept.items():
        assert getattr(state, name) is not arr
        assert arr.tobytes() == before[name].tobytes(), name
    for name in ("x", "xe", "u0", "u1"):
        assert getattr(state, name).tobytes() == before[name].tobytes(), name


@pytest.mark.parametrize("variant, kw", [("frw1", {"t_start": 15.0}), ("frw1_tov", {"r0": 5.0}),
                                         ("tov", {})])
def test_arrays_kept_from_before_a_step_are_unchanged(variant, kw):
    """A hook that keeps state.A, state.B or state.M from before a step
    still holds those values after advance: the update stores new arrays."""
    eos = EosParams()
    state = scheme.init(models.make_model(variant, eos, **kw), scheme.SimGrid(3.0, 7.0, 48), eos)
    for _ in range(3):
        kept = {name: getattr(state, name) for name in ("A", "B", "M", "x", "xe")}
        copies = {name: arr.copy() for name, arr in kept.items()}
        scheme.advance(state)
        for name, arr in kept.items():
            assert arr.tobytes() == copies[name].tobytes(), name
        assert all(getattr(state, name) is not kept[name] for name in ("A", "B", "M"))
