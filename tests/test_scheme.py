"""Stepper stages: grid staggering, flux averages with time dilation,
sources, mass/metric integration, boundary handling and chopping."""

import inspect
import re

import numpy as np
import pytest
from scipy.integrate import quad

from relshock import diagnostics, experiments, fluid, models, riemann, scheme
from relshock.errors import ConfigError, HorizonEncountered, NonPhysicalState, RelshockError
from relshock.fluid import EosParams
from relshock.scheme import SimGrid, advance, cfl_dt, chop_right, godunov_cell_update

from conftest import solve_one


def make_state(variant="frw1", n=64, r_min=3.0, r_max=7.0, **kw):
    eos = EosParams()
    model = models.make_model(variant, eos, **kw)
    return scheme.init(model, SimGrid(r_min, r_max, n), eos), eos


STAGE_ENTRY_POINTS = [(riemann, "solve_interfaces"), (riemann, "sample_solution"),
                      (scheme, "cfl_dt"), (scheme, "godunov_cell_update"),
                      (scheme, "ode_step"), (scheme, "update_mass_metric")]


@pytest.mark.parametrize("variant, kw", [("frw1", {"t_start": 15.0}), ("frw1_tov", {"r0": 5.0})])
def test_advance_calls_each_stage_entry_point_once(variant, kw, monkeypatch):
    """advance reaches every stage through its module attribute, once per
    step, so a wrapper installed there sees each call."""
    state, _ = make_state(variant, n=32, **kw)
    calls = {name: 0 for _, name in STAGE_ENTRY_POINTS}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in STAGE_ENTRY_POINTS:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    advance(state)
    assert calls == {name: 1 for _, name in STAGE_ENTRY_POINTS}


@pytest.mark.parametrize("variant, kw", [("frw1", {"t_start": 15.0}), ("frw1_tov", {"r0": 5.0})])
def test_advance_solves_the_whole_cell_row_once(variant, kw, monkeypatch):
    """Each step makes one riemann.solve_interfaces call, on the state's own
    n + 2 cells (ghosts included), so the traced Riemann layer covers the
    whole interface stage."""
    state, _ = make_state(variant, n=32, **kw)
    rows = []
    solve = riemann.solve_interfaces

    def spied(rho, v, *args):
        rows.append((rho is state.rho, v is state.v, rho.size, v.size))
        return solve(rho, v, *args)

    monkeypatch.setattr(riemann, "solve_interfaces", spied)
    for step in range(1, 4):
        advance(state)
        assert rows == [(True, True, state.n + 2, state.n + 2)] * step


def test_grid_staggering():
    grid = SimGrid(3.0, 7.0, 41)
    assert grid.dx == pytest.approx(0.1)
    x = grid.centers_with_ghosts()
    xe = grid.edges()
    assert x.size == 43 and xe.size == 42
    assert x[1] == pytest.approx(3.0) and x[-2] == pytest.approx(7.0)
    # every metric sample sits half a cell left of its fluid sample
    np.testing.assert_allclose(xe, x[:-1] + grid.dx / 2.0, rtol=1e-14)


def test_grid_validation():
    with pytest.raises(ValueError):
        SimGrid(3.0, 7.0, 4)
    with pytest.raises(ValueError):
        SimGrid(7.0, 3.0, 64)


def test_init_samples_model(eos):
    state, _ = make_state("frw1", n=64, t_start=15.0)
    rho, v, A, B, M = state.model.evaluate(15.0, state.x)
    np.testing.assert_allclose(state.rho, rho, rtol=1e-14)
    _, _, Ae, Be, Me = state.model.evaluate(15.0, state.xe)
    np.testing.assert_allclose(state.A, Ae, rtol=1e-14)
    np.testing.assert_allclose(state.M, Me, rtol=1e-14)


def test_init_matched_discontinuity_between_cells():
    state, _ = make_state("frw1_tov", n=64, r0=5.0)
    inner = state.x < 5.0
    assert np.all(state.v[inner] > 0.0)
    assert np.all(state.v[~inner] == 0.0)


def test_init_tov_velocity_zero():
    state, _ = make_state("tov", n=64)
    np.testing.assert_allclose(state.v, 0.0)


def test_cfl_unit_light_speed():
    state, _ = make_state("frw1", n=41, t_start=15.0)
    assert cfl_dt(state.dx, state.light_speed().max()) == pytest.approx(0.05, rel=1e-12)


def test_cfl_constant_for_unit_speed_run():
    state, eos = make_state("frw1", n=64, t_start=15.0)
    dts = []
    for _ in range(5):
        dts.append(advance(state).dt)
    # the simulated light speed stays at 1 to within discretization error
    assert (max(dts) - min(dts)) / max(dts) < 1e-3


def test_cfl_set_by_fastest_cell():
    state, _ = make_state("tov", n=64)
    c = state.light_speed()
    assert cfl_dt(state.dx, c.max()) == pytest.approx(state.dx / (2.0 * c.max()), rel=1e-14)
    assert np.argmax(c) == c.size - 1  # right edge is the fastest frame
    assert advance(state).dt == cfl_dt(state.dx, c.max())


def test_cfl_respected_per_step():
    state, _ = make_state("tov", n=64)
    report = advance(state)
    assert report.max_light_speed * report.dt <= state.dx / 2.0 + 1e-14


def _uniform_fluxes(rho, v, eos):
    """Cell flux of a uniform state and the same flux on both interfaces."""
    u1 = fluid.conserved_arrays(rho, v, eos)[1]
    f = (u1, fluid.t11_arrays(u1, rho, v, eos))
    return f, tuple(np.full(2, c) for c in f)


def test_godunov_zero_net_flux(eos):
    u = fluid.conserved_arrays(2.5, 0.3, eos)
    f, f_star = _uniform_fluxes(2.5, 0.3, eos)
    out = godunov_cell_update(u, f, f_star, np.array([1.3, 1.3]), 0.01, 0.1)
    assert out[0] == pytest.approx(u[0], rel=1e-15)
    assert out[1] == pytest.approx(u[1], rel=1e-15)


def test_godunov_constant_grid_exact(eos):
    """A uniform state is a fixed point of the flux-average stage even
    across a metric jump."""
    u = fluid.conserved_arrays(7.0, -0.4, eos)
    f, f_star = _uniform_fluxes(7.0, -0.4, eos)
    out = godunov_cell_update(u, f, f_star, np.array([0.8, 1.7]), 0.02, 0.1)
    assert out[0] == u[0] and out[1] == u[1]


def test_advance_inverts_conserved_pairs_three_times(monkeypatch):
    """One step inverts (u0, u1) for the ODE average, the new state and the
    metric midpoints only; the flux-form Godunov stage calls no fluid
    kernel."""
    state, _ = make_state("frw1_tov", n=64, r0=5.0)
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped
    for name in fluid.__all__:
        if inspect.isfunction(getattr(fluid, name)):
            monkeypatch.setattr(fluid, name, spy(name, getattr(fluid, name)))
    godunov = scheme.godunov_cell_update
    in_godunov = []

    def watched(*args):
        before = len(calls)
        out = godunov(*args)
        in_godunov.extend(calls[before:])
        return out
    monkeypatch.setattr(scheme, "godunov_cell_update", watched)
    advance(state)
    assert calls.count("fluid_arrays") == 3
    assert in_godunov == []


def test_advance_reads_no_edge_speed_and_evaluates_the_model_once(monkeypatch):
    """A step samples its Riemann fans at xi = 0 only, which needs no
    rarefaction edge speed; the boundary stage evaluates one model once per
    boundary point, at a float radius: a pure model at both ghosts and both
    end edges (the left ones after a chop), a matched model's FRW interior
    at the left ghost and edge, never the composite."""
    edge_reads = []
    edge_speeds = riemann.edge_speeds

    def spied_edge_speeds(sol):
        edge_reads.append(sol)
        return edge_speeds(sol)
    monkeypatch.setattr(riemann, "edge_speeds", spied_edge_speeds)
    for variant, kw in (("frw1", {}), ("tov", {}), ("frw1_tov", {"r0": 5.0})):
        state, eos = make_state(variant, n=64, **kw)
        evaluations = []
        boundary_model = getattr(state.model, "inner", state.model)
        for model in {state.model, boundary_model}:
            def spied_evaluate(t, r, model=model, evaluate=model.evaluate):
                evaluations.append((model, type(r), r))
                return evaluate(t, r)
            monkeypatch.setattr(model, "evaluate", spied_evaluate)
        regions = set()
        for _ in range(5):
            regions.update(advance(state).regions.tolist())
        left = [state.x[0], state.xe[0]]
        points = left if variant == "frw1_tov" else left + [state.x[-1], state.xe[-1]]
        assert evaluations == [(boundary_model, float, r) for r in points] * 5, variant
        assert edge_reads == [], variant
        if variant == "frw1":
            assert chop_right(state, 8)
            evaluations.clear()
            advance(state)
            assert evaluations == [(boundary_model, float, r) for r in left]
    assert regions >= {riemann.REGION_I, riemann.REGION_IV}   # the matched run

    composed = []
    compose = fluid.lorentz_compose

    def spied_compose(*args):
        composed.append(args)
        return compose(*args)
    sol = riemann.solve_interfaces(state.rho, state.v, eos)
    monkeypatch.setattr(fluid, "lorentz_compose", spied_compose)
    head1, tail1, head2, tail2 = riemann.edge_speeds(sol)     # computes all four edges
    assert np.all(head1 <= tail2)
    assert len(composed) == 4 and len(edge_reads) == 1
    assert np.all(tail1 <= head2 + 1e-14)


def _half_cell_average_by_quadrature(left, right, alpha, dt, dx, eos):
    """Exact average of the evolved Riemann solution over the right half
    cell of the interface (the cell-center state is `right`)."""
    sol = solve_one(left, right, eos)

    def component(which):
        def f(x):
            rho, v = riemann.sample_solution(sol, np.array([x / (alpha * dt)]))
            u0, u1 = fluid.conserved_arrays(rho[0], v[0], eos)
            return u0 if which == 0 else u1
        breaks = alpha * dt * np.array([speed[0] for speed in riemann.edge_speeds(sol)])
        pts = sorted(b for b in breaks if 0.0 < b < dx / 2.0)
        val, err = quad(f, 0.0, dx / 2.0, points=pts or None, limit=200,
                        epsabs=1e-13, epsrel=1e-12)
        return val * 2.0 / dx

    return component(0), component(1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_time_dilation_affine_relation(seed, eos):
    """Shortening the step inside a cell mixes the full-step average with
    the center state affinely; checked against direct quadrature of the
    sampled solution."""
    rng = np.random.default_rng(seed)
    rho = 10.0 ** rng.uniform(-1, 1, 2)
    v = rng.uniform(-0.8, 0.8, 2)
    left, right = (rho[0], v[0]), (rho[1], v[1])
    A, B = rng.uniform(0.4, 1.0), rng.uniform(0.5, 2.0)
    alpha = np.sqrt(A * B)
    dx = 0.1
    dt_full = dx / (2.0 * alpha)
    lam = rng.uniform(0.2, 0.9)
    dt = lam * dt_full

    u_c = fluid.conserved_arrays(*right, eos)
    sol = solve_one(left, right, eos)
    rho_s, v_s = riemann.sample_solution(sol, 0.0)
    u_star = fluid.conserved_arrays(rho_s[0], v_s[0], eos)

    def half_update(dt_):
        t11_c = fluid.t11_arrays(u_c[1], *fluid.fluid_arrays(*u_c, eos), eos)
        t11_s = fluid.t11_arrays(u_star[1], *fluid.fluid_arrays(*u_star, eos), eos)
        f_c = np.array([alpha * u_c[1], alpha * t11_c])
        f_s = np.array([alpha * u_star[1], alpha * t11_s])
        return np.array(u_c) - 2.0 * dt_ / dx * (f_c - f_s)

    bar_full = half_update(dt_full)
    bar_short = half_update(dt)
    affine = lam * bar_full + (1.0 - lam) * np.array(u_c)
    np.testing.assert_allclose(bar_short, affine, rtol=1e-13)

    exact = _half_cell_average_by_quadrature(left, right, alpha, dt, dx, eos)
    scale = np.maximum(np.abs(exact), 1.0)
    assert abs(bar_short[0] - exact[0]) / scale[0] < 1e-8
    assert abs(bar_short[1] - exact[1]) / scale[1] < 1e-8


def test_source_vanishes_at_rest_energy_component(eos):
    g0, g1 = scheme.source_G(0.8, 1.5, 2.0, 0.0, 4.0, eos)
    assert g0 == 0.0
    assert g1 != 0.0


def test_source_vanishes_in_empty_flat_space(eos):
    g0, g1 = scheme.source_G(1.0, 1.0, 1e-30, 0.1, 4.0, eos)
    assert abs(g0) < 1e-29 and abs(g1) < 1e-29


def test_ode_step_zero_dt_is_identity(eos):
    u = fluid.conserved_arrays(3.0, 0.2, eos)
    out = scheme.ode_step(u[0], u[1], 0.9, 1.2, 5.0, 0.0, eos)
    assert out[0] == u[0] and out[1] == u[1]


def test_ode_step_rejects_unphysical(eos):
    with pytest.raises(NonPhysicalState, match="disc < 0"):
        scheme.ode_step(1.0, 10.0, 0.9, 1.2, 5.0, 0.01, eos)
    # real inversion but superluminal root: caught by the state check
    with pytest.raises(NonPhysicalState, match="rho must be positive"):
        scheme.ode_step(1.0, 1.1, 0.9, 1.2, 5.0, 0.01, eos)


def test_ode_step_rejects_nan(eos):
    u0 = np.array([1.0, np.nan, 1.0])
    u1 = np.zeros(3)
    with pytest.raises(NonPhysicalState, match="at index 1"):
        scheme.ode_step(u0, u1, 0.9, 1.2, 5.0, 0.01, eos)
    with pytest.raises(NonPhysicalState, match="at index 2"):
        scheme.ode_step(np.ones(3), np.array([0.0, 0.0, np.nan]), 0.9, 1.2, 5.0,
                        0.01, eos)


def test_advance_rejects_the_state_it_makes(monkeypatch):
    """A superluminal ODE output passes the conserved inversion (disc >= 0)
    but fails the new-state check of the same step, which names the
    ghost-inclusive cell and the new time and stores nothing."""
    state, _ = make_state("frw1", n=64, t_start=15.0)
    ode_step = scheme.ode_step

    def corrupt(*args):
        u0, u1 = ode_step(*args)
        u1[10] = 1.1 * u0[10]
        return u0, u1
    monkeypatch.setattr(scheme, "ode_step", corrupt)
    t0, rho0 = state.t, state.rho.copy()
    t_new = t0 + cfl_dt(state.dx, state.light_speed().max())
    with pytest.raises(NonPhysicalState, match=f"rho must be positive at cell 11, t={t_new:.9g} "):
        advance(state)
    assert state.t == t0
    np.testing.assert_array_equal(state.rho, rho0)


def test_advance_names_the_cells_of_a_bad_interface():
    """A bad cell of the Riemann row is named as that cell; a bad middle
    state at interface k names cells k and k + 1."""
    state, _ = make_state("frw1", n=64, t_start=15.0)
    state.v[5] = np.nan
    with pytest.raises(NonPhysicalState, match=r"\|v\| must be < 1 at cell 5, t=15 "):
        advance(state)
    state, _ = make_state("frw1", n=64, t_start=15.0)
    state.rho[5] *= 1e40      # its middle states reach |v| = 1 on both sides
    with pytest.raises(NonPhysicalState, match=r"^Riemann middle state: \|v\| must be < 1 "
                       r"at cells 4 and 5, t=15 \(v=-1\.0+e\+00\), left \(rho, v\)"):
        advance(state)


def test_advance_names_the_cells_of_a_bad_midpoint(monkeypatch):
    """An update error at midpoint k names cells k and k + 1 at the new
    time; the step stores no new time."""
    state, _ = make_state("frw1", n=64, t_start=15.0)

    def fail(*args):
        raise NonPhysicalState("u0 must be positive at index 7 (u0=-1.0e+00)", index=7)
    monkeypatch.setattr(scheme, "update_mass_metric", fail)
    t0 = state.t
    t_new = t0 + cfl_dt(state.dx, state.light_speed().max())
    with pytest.raises(NonPhysicalState, match=re.escape(
            f"u0 must be positive at cells 7 and 8, t={t_new:.9g} (u0=-1.0e+00)")):
        advance(state)
    assert state.t == t0


def test_advance_passes_a_boundary_stage_error_through(monkeypatch):
    """An indexed error of the boundary stage keeps its own text: no cell
    of the step's row is named after it."""
    state, _ = make_state("frw1_tov", n=64, r0=5.0)
    message = "rho must be positive at index 3 (rho=-1.0e+00)"

    def fail(*args):
        raise NonPhysicalState(message, index=3)
    monkeypatch.setattr(scheme, "_refresh_boundaries", fail)
    with pytest.raises(NonPhysicalState, match=f"^{re.escape(message)}$"):
        advance(state)


def _one_step_error(variant, n, **kw):
    state, eos = make_state(variant, n=n, **kw)
    model = state.model
    advance(state)
    rho_ref, v_ref, A_ref, B_ref, _ = model.evaluate(state.t, state.x[1:-1])
    _, _, A_e, B_e, _ = model.evaluate(state.t, state.xe)
    return {
        "rho": np.max(np.abs(state.rho[1:-1] / rho_ref - 1.0)),
        "A": np.max(np.abs(state.A / A_e - 1.0)),
        "B": np.max(np.abs(state.B / B_e - 1.0)),
    }


def test_single_step_consistency_order():
    """One step from exact data loses O(dt^2 + dt*dx): halving the mesh
    (which also halves dt) must shrink the defect by about four."""
    for variant, kw in (("frw1", {"t_start": 15.0}), ("tov", {})):
        coarse = _one_step_error(variant, 128, **kw)
        fine = _one_step_error(variant, 256, **kw)
        # fluid error is O(dt*dx): ratio ~4; the metric inherits the
        # first-order quadrature of the mass sum: ratio ~2
        assert coarse["rho"] / fine["rho"] > 2.5, (variant, coarse, fine)
        assert coarse["A"] / fine["A"] > 1.7, (variant, coarse, fine)


def test_update_mass_metric_reproduces_closed_forms():
    """After one step from exact static data the integrated metric stays on
    the closed form: A constant, B linear in radius (radiation value)."""
    state, eos = make_state("tov", n=128)
    advance(state)
    np.testing.assert_allclose(state.A, 4.0 / 7.0, atol=5e-4)
    # last interval abuts the model-refreshed ghost edge and carries the
    # accumulated O(dx) offset of the integrated field; exclude it
    slope = np.diff(state.B)[:-1] / state.dx
    np.testing.assert_allclose(slope, 1.0, atol=2e-2)
    state2, _ = make_state("frw1", n=128, t_start=15.0)
    advance(state2)
    _, v_e, _, _, _ = state2.model.evaluate(state2.t, state2.xe)
    np.testing.assert_allclose(state2.A, 1.0 - v_e * v_e, atol=1e-3)


def test_horizon_stop():
    state, eos = make_state("tov", n=64)
    state.u0[1:-1] *= 1e6  # pile mass on until 2M/r crosses 1
    with pytest.raises(HorizonEncountered):
        scheme.update_mass_metric(state, state.t, (state.A[0], state.B[0], state.M[0]),
                                  (state.A[-1], state.B[-1]))


def test_advance_tov_static_profiles():
    state, eos = make_state("tov", n=128)
    rho0 = state.rho.copy()
    B0 = state.B.copy()
    M0 = state.M.copy()
    for _ in range(40):
        advance(state)
    assert np.max(np.abs(state.rho / rho0 - 1.0)) < 2.5e-3
    assert np.max(np.abs(state.B / B0 - 1.0)) < 7e-3
    assert np.max(np.abs(state.M / M0 - 1.0)) < 1e-3


def test_advance_frw1_fluid_decreases():
    state, eos = make_state("frw1", n=128, t_start=15.0)
    rho0 = state.rho[1:-1].copy()
    v0 = state.v[1:-1].copy()
    for _ in range(30):
        advance(state)
    assert np.all(state.rho[1:-1] < rho0)
    assert np.all(state.v[1:-1] < v0)


def test_advance_matched_forms_overdense_pocket():
    state, eos = make_state("frw1_tov", n=256, r0=5.0)
    for _ in range(60):
        advance(state)
    rho = state.rho[1:-1]
    x = state.x[1:-1]
    k = np.argmax(rho * x * x)  # undo the 1/r^2 background falloff
    assert 4.8 < x[k] < 5.9
    # the pocket exceeds both one-sided model densities at that radius
    rho_frw = 3.0 * state.v[1 + k] ** 2 / (models.KAPPA * x[k] ** 2)
    rho_tov = models.gamma(eos) / x[k] ** 2
    assert rho[k] > rho_tov * 1.5


def exterior_timescale(state, border_index):
    """B/r^q at the left edge of cell `border_index`, as the matched right
    boundary reads the exterior's time scale there."""
    k = border_index - 1
    return float(state.B[k] * state.xe[k] ** (-models.tov_exponent(state.eos)))


def test_rematch_timescale_constant_on_pure_tov():
    state, eos = make_state("tov", n=128)
    values = []
    for _ in range(25):
        advance(state)
        values.append(exterior_timescale(state, state.n // 2))
    # bounded by the static-preservation error of the integrated B field
    assert np.max(np.abs(np.array(values) - 1.0)) < 5e-3


def test_rematch_matches_b0_at_start():
    state, eos = make_state("frw1_tov", n=128, r0=5.0)
    got = exterior_timescale(state, int(0.9 * state.n))
    assert got == pytest.approx(state.model.b0, rel=1e-12)


@pytest.mark.parametrize("r_min", [5.0, 6.0])
def test_init_refuses_a_matched_model_whose_r0_is_not_above_r_min(r_min):
    """Only then would the left boundary, which a matched step samples from
    the FRW interior, leave the interior."""
    with pytest.raises(ValueError, match=f"r0 = 5.0 must lie above r_min = {r_min}"):
        make_state("frw1_tov", n=64, r_min=r_min, r_max=9.0, r0=5.0)
    with pytest.raises(ValueError, match="must lie above r_min"):
        experiments.matched_run("frw1", 64, EosParams(), r_min=r_min, r_max=9.0,
                                duration=0.01)


@pytest.mark.parametrize("r_max", [5.0, 4.0])
def test_init_refuses_a_matched_model_whose_r0_is_not_below_r_max(r_max, eos):
    """Else the static exterior's A would be forced onto the last edge, next
    to the FRW interior's."""
    with pytest.raises(ValueError, match=f"r0 = 5.0 must lie below r_max = {r_max}"):
        make_state("frw1_tov", n=64, r_min=3.0, r_max=r_max, r0=5.0)
    with pytest.raises(ValueError, match="must lie below r_max = 7.0"):
        experiments.matched_run("frw1", 64, eos, r0=8.0, duration=0.01)
    with pytest.raises(ValueError, match="must lie below r_max = 20.0"):
        experiments.reversed_collapse_run(64, eos, r0=25.0)


def test_rematch_drifts_smoothly_on_forward_run():
    state, eos = make_state("frw1_tov", n=256, r0=5.0)
    bts = [state.bt]
    for _ in range(120):
        advance(state)
        bts.append(state.bt)
    steps = np.abs(np.diff(bts))
    assert steps.max() < 50.0 * max(np.median(steps), 1e-9)


def test_run_zero_duration_returns_initial():
    eos = EosParams()
    model = models.make_model("frw1", eos, t_start=15.0)
    arts = experiments.simulate_model(model, SimGrid(3.0, 7.0, 64), eos, 0.0)
    state, log = arts.state, arts.log
    assert log.steps == 0
    assert state.t == 15.0


@pytest.mark.parametrize("variant, t_start, duration", [
    ("frw1", 1e17, 1.0), ("tov", None, 1e-13)], ids=["late-start", "tiny-duration"])
def test_run_refuses_a_duration_too_short_for_one_step(variant, t_start, duration):
    """A positive duration below the time resolution at t_start would run
    zero steps and report t_end; it is refused before the run is set up."""
    eos = EosParams()
    model = models.make_model(variant, eos, t_start=t_start)
    with pytest.raises(ConfigError, match="below the time resolution"):
        experiments.simulate_model(model, SimGrid(3.0, 7.0, 64), eos, duration)


def test_run_clamps_final_step():
    eos = EosParams()
    model = models.make_model("frw1", eos, t_start=15.0)
    arts = experiments.simulate_model(model, SimGrid(3.0, 7.0, 64), eos, 0.1)
    state, log = arts.state, arts.log
    assert state.t == pytest.approx(15.1, abs=1e-12)
    assert log.dt_history[-1] <= log.dt_history[0] + 1e-15


def test_chop_right_preserves_interior():
    state, eos = make_state("frw1_tov", n=64, r0=5.0)
    rho_before = state.rho.copy()
    n_before = state.n
    chop_right(state, min_cells=16)
    assert state.n == n_before - 1
    np.testing.assert_array_equal(state.rho, rho_before[:-1])
    assert state.right_frozen


def test_chopped_boundary_stays_frozen():
    """After a chop the right ghost keeps the (rho, v) it had at the chop,
    and their conserved pair, and the last edge keeps its (A, B): a pure
    model's ghost is no longer refreshed and a matched exterior is no
    longer rematched."""
    for variant, kw in (("frw1_tov", {"r0": 5.0}), ("frw1", {})):
        state, eos = make_state(variant, n=64, **kw)
        for _ in range(5):
            advance(state)
        chop_right(state, min_cells=16)
        rho, v, a, b, bt = state.rho[-1], state.v[-1], state.A[-1], state.B[-1], state.bt
        u0, u1 = fluid.conserved_arrays(rho, v, eos)
        for _ in range(3):
            advance(state)
            assert (state.rho[-1], state.v[-1]) == (rho, v), variant
            assert (state.u0[-1], state.u1[-1]) == (u0, u1), variant
            assert (state.A[-1], state.B[-1], state.bt) == (a, b, bt), variant


def test_chop_right_exhausts():
    """Chopping stops at min_cells: 32 chops of a 64-cell grid succeed, the
    next one returns False and leaves the 32 cells as they are."""
    state, eos = make_state("frw1_tov", n=64, r0=5.0)
    assert all(chop_right(state, min_cells=32) for _ in range(32))
    kept = {name: getattr(state, name) for name in ("x", "xe", "rho", "A", "M")}
    assert chop_right(state, min_cells=32) is False
    assert state.n == 32
    assert all(getattr(state, name) is kept[name] for name in kept)


def test_report_regions():
    state, eos = make_state("frw1_tov", n=64, r0=5.0)
    report = advance(state)
    assert report.regions.size == state.n + 1


def test_newton_failure_in_a_step_names_its_cells_and_time(monkeypatch):
    """A Riemann Newton failure inside a matched step names the two cells
    of its interface and the time, as a bad middle state does."""
    state, eos = make_state("frw1_tov", n=64, r0=5.0)
    monkeypatch.setattr(riemann, "_MAX_NEWTON", 1)
    with pytest.raises(RelshockError) as info:
        advance(state)
    assert type(info.value) is RelshockError
    assert str(info.value).startswith(
        f"Riemann Newton solve did not converge at cells 32 and 33, t={state.t:.9g}: (dr, ds) = (")


class CountingHook:
    def __init__(self):
        self.starts = 0
        self.calls = 0

    def on_start(self, state):
        self.starts += 1

    def __call__(self, state, report):
        self.calls += 1


def test_hooks_called_once_per_step_on_boundary_stop():
    eos = EosParams()
    model = models.make_model("frw1_tov", eos, r0=5.0)
    hooks = [CountingHook(), CountingHook()]
    log = experiments.simulate_model(model, SimGrid(3.0, 5.6, 64), eos, 1.0,
                                     extra_hooks=hooks, on_hit="stop").log
    assert log.stop_reason == "boundary_hit"
    assert log.steps > 1
    for hook in hooks:
        assert hook.starts == 1
        assert hook.calls == log.steps


@pytest.mark.parametrize("on_hit", ["Stop", True])
def test_run_refuses_an_unknown_boundary_hit_policy(on_hit):
    eos = EosParams()
    model = models.make_model("frw1_tov", eos, r0=5.0)
    with pytest.raises(ValueError, match="on_hit must be"):
        experiments.simulate_model(model, SimGrid(3.0, 7.0, 64), eos, 0.01, on_hit=on_hit)
