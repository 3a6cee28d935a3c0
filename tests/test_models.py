"""Closed-form spacetime models and matching constants."""

import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relshock import scheme
from relshock.errors import NonPhysicalState
from relshock.fluid import EosParams
from relshock.models import (
    KAPPA,
    FrwModel,
    MatchedModel,
    TovModel,
    frw1_state,
    frw2_frw_time,
    frw2_state,
    gamma,
    make_model,
    tov_exponent,
    tov_state,
)

V0 = np.sqrt(3.0 / 7.0)
T0_R5 = 5.0 * (1.0 + 3.0 / 7.0) / (2.0 * V0)   # 5.455447...


def test_gamma_radiation_value(eos):
    assert gamma(eos) == pytest.approx(3.0 / (56.0 * np.pi), rel=1e-14)


def test_gamma_dust_limit():
    assert gamma(EosParams(1e-9)) == pytest.approx(0.0, abs=1e-9)


def test_tov_radial_metric_constant(eos):
    assert 1.0 - KAPPA * gamma(eos) == pytest.approx(4.0 / 7.0, rel=1e-14)


# --- expanding universe, unit-light-speed chart ---------------------------


def test_frw1_flat_limit():
    rho, v, A, B, M = frw1_state(1e8, np.array([1.0]))
    assert v[0] == pytest.approx(0.0, abs=1e-7)
    assert A[0] == pytest.approx(1.0, rel=1e-14)
    assert B[0] == pytest.approx(1.0, rel=1e-14)


def test_frw1_matching_slice():
    rho, v, A, B, M = frw1_state(T0_R5, np.array([5.0]))
    assert v[0] == pytest.approx(V0, rel=1e-12)
    assert A[0] == pytest.approx(4.0 / 7.0, rel=1e-12)


def test_frw1_density_velocity_identity():
    r = np.linspace(3.0, 7.0, 50)
    rho, v, A, B, M = frw1_state(15.0, r)
    np.testing.assert_allclose(KAPPA * r * r * rho, 3.0 * v * v, rtol=1e-13)
    np.testing.assert_allclose(A * B, 1.0, rtol=1e-14)
    np.testing.assert_allclose(A, 1.0 - 2.0 * M / r, rtol=1e-14)


def test_frw1_superluminal_raises():
    with pytest.raises(NonPhysicalState, match=r"\|r/t\| >= 1"):
        frw1_state(5.0, np.array([6.0]))


def test_frw1_reversed_time_flips_velocity():
    rho_f, v_f, A_f, _, _ = frw1_state(15.0, np.array([4.0]))
    rho_r, v_r, A_r, _, _ = frw1_state(-15.0, np.array([4.0]))
    assert v_r[0] == pytest.approx(-v_f[0], rel=1e-14)
    assert rho_r[0] == pytest.approx(rho_f[0], rel=1e-14)
    assert A_r[0] == pytest.approx(A_f[0], rel=1e-14)


@pytest.mark.parametrize("t", [15.0, -5.5, 0.3])
def test_frw1_exact_to_rounding_down_to_the_centre(t):
    """v = (1 - sqrt(1 - xi^2))/xi and rho = 3 v^2/(kappa r^2) agree with a
    50-digit evaluation for |xi| = |r/t| from 1e-13 to 0.999; that form of v
    cancels at small xi, which frw1_state must not inherit."""
    r = abs(t) * np.geomspace(1e-13, 0.999, 80)
    rho, v, _, _, _ = frw1_state(t, r)
    with mpmath.workdps(50):
        for r_i, rho_i, v_i in zip(r, rho, v):
            xi = mpmath.mpf(r_i) / t
            v_exact = (1 - mpmath.sqrt(1 - xi * xi)) / xi
            rho_exact = 3 * v_exact**2 / (8 * mpmath.pi * mpmath.mpf(r_i) ** 2)
            assert abs((v_i - v_exact) / v_exact) <= 1e-14
            assert abs((rho_i - rho_exact) / rho_exact) <= 1e-14


def test_frw1_density_finite_at_the_centre():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho, v, A, B, M = frw1_state(15.0, np.array([0.0, 1.0]))
    assert np.all(np.isfinite(rho)) and rho[0] == pytest.approx(3.0 / (4.0 * KAPPA * 15.0**2))
    assert (v[0], A[0], B[0], M[0]) == (0.0, 1.0, 1.0, 0.0)


# --- expanding universe, dynamical integrating factor ---------------------


def test_frw2_small_radius_limit():
    psi0 = np.sqrt(30.0)
    t = frw2_frw_time(15.0, np.array([1e-8]), psi0)
    assert t[0] == pytest.approx(15.0**2 / psi0**2, rel=1e-9)
    _, v, _, _, _ = frw2_state(15.0, np.array([1e-8]), psi0)
    assert v[0] == pytest.approx(0.0, abs=1e-8)


def test_frw2_unit_light_speed_on_start_slice():
    """psi0 = sqrt(2 t0) makes the start slice a unitary frame everywhere."""
    psi0 = np.sqrt(2.0 * 15.0)
    r = np.linspace(0.5, 7.0, 200)
    _, _, A, B, _ = frw2_state(15.0, r, psi0)
    c = np.sqrt(A * B)
    assert c.max() - c.min() < 1e-10
    np.testing.assert_allclose(c, 1.0, atol=1e-12)


def test_frw2_light_speed_uniform_and_rising():
    psi0 = np.sqrt(30.0)
    r = np.linspace(3.0, 7.0, 100)
    _, _, A, B, _ = frw2_state(16.0, r, psi0)
    c = np.sqrt(A * B)
    assert c.max() - c.min() < 1e-10
    assert c[0] == pytest.approx(1.0667, abs=2e-4)


def test_frw2_outside_domain_raises():
    with pytest.raises(NonPhysicalState, match="outside the FRW-2 chart"):
        frw2_state(5.0, np.array([6.0]), np.sqrt(30.0))


@pytest.mark.parametrize("chart, t", [
    (frw1_state, 0.0),
    (lambda t, r: frw2_state(t, r, np.sqrt(30.0)), 0.0),
    (lambda t, r: frw2_state(t, r, np.sqrt(30.0)), -15.0),
    (lambda t, r: frw2_frw_time(t, r, np.sqrt(30.0)), -30.0),
], ids=["frw1-0", "frw2-0", "frw2-negative", "frw2-time-negative"])
def test_frw_charts_refuse_slice_times_they_do_not_cover(chart, t):
    """FRW-1 has no slice at t = 0 and FRW-2 none at t <= 0: refused before
    any arithmetic, so nothing warns (FRW-1 used to divide by zero, FRW-2
    to square a negative t into the slice at |t|)."""
    with pytest.raises(NonPhysicalState, match=f"chart has no slice at t = {t:g}"):
        chart(t, np.array([1.0, 4.0]))


def test_frw_model_names_its_image_by_psi0(eos):
    """psi0 None is the FRW-1 image; make_model's frw2 takes psi0 =
    sqrt(2 t_start) and evaluates the FRW-2 chart at it bit for bit."""
    r = np.linspace(3.0, 7.0, 9)
    frw1, frw2 = make_model("frw1", eos, t_start=15.0), make_model("frw2", eos, t_start=15.0)
    assert isinstance(frw1, FrwModel) and frw1.psi0 is None
    assert frw2.psi0 == np.sqrt(30.0)
    for model, want in ((frw1, frw1_state(16.0, r)), (frw2, frw2_state(16.0, r, np.sqrt(30.0)))):
        for got, ref in zip(model.evaluate(16.0, r), want):
            assert got.tobytes() == ref.tobytes()


def test_frw2_reduces_to_frw1_under_constant_factor():
    """With the constant integrating factor the two charts agree: evaluate
    the dynamical chart on the slice where its factor equals one."""
    t_bar0 = 15.0
    psi0 = np.sqrt(2.0 * t_bar0)
    r = np.linspace(3.0, 7.0, 20)
    rho2, v2, A2, B2, _ = frw2_state(t_bar0, r, psi0)
    # same comoving slice in the unit-light-speed chart
    t = frw2_frw_time(t_bar0, r, psi0)
    t_bar1 = t + r * r / (4.0 * t)
    for k in range(r.size):
        rho1, v1, A1, B1, _ = frw1_state(t_bar1[k], np.array([r[k]]))
        assert rho1[0] == pytest.approx(rho2[k], rel=1e-12)
        assert v1[0] == pytest.approx(v2[k], rel=1e-12)
        assert B1[0] == pytest.approx(B2[k], rel=1e-12)


def integrating_factor_check(t: float, r_bar: float, which: str, h: float = 1e-5):
    """Finite-difference residual of the integrating-factor equation
    d/dr [Psi (1 - r^2/4t^2)] - d/dt [Psi r/(2t)] for the constant or the
    dynamical solution; O(h^2) for a true solution."""
    if which == "constant":
        psi = lambda tt, rr: 1.0
    elif which == "dynamical":
        psi = lambda tt, rr: np.sqrt(tt / (4.0 * tt * tt + rr * rr))
    else:
        raise ValueError(f"which must be 'constant' or 'dynamical', got {which!r}")
    return _integrating_factor_residual(psi, t, r_bar, h)


def _integrating_factor_residual(psi, t, r_bar, h):
    fr = lambda tt, rr: psi(tt, rr) * (1.0 - rr * rr / (4.0 * tt * tt))
    ft = lambda tt, rr: psi(tt, rr) * rr / (2.0 * tt)
    d_r = (fr(t, r_bar + h) - fr(t, r_bar - h)) / (2.0 * h)
    d_t = (ft(t + h, r_bar) - ft(t - h, r_bar)) / (2.0 * h)
    return d_r - d_t


@pytest.mark.parametrize("which", ["constant", "dynamical"])
def test_integrating_factor_solutions(which):
    """Both factors satisfy the exactness equation: the finite-difference
    residual drops at second order in the stencil width."""
    r1 = integrating_factor_check(7.0, 4.0, which, h=1e-3)
    r2 = integrating_factor_check(7.0, 4.0, which, h=5e-4)
    assert abs(r1) < 1e-7
    assert abs(r2) < abs(r1) / 3.0 + 1e-14


def test_integrating_factor_negative_control():
    """A perturbed factor does not satisfy the equation."""
    bad = lambda t, r: np.sqrt(t / (4 * t * t + r * r)) * (1.0 + 0.01 * r)
    resid = _integrating_factor_residual(bad, 7.0, 4.0, 1e-4)
    assert abs(resid) > 1e-5


# --- static isothermal sphere ----------------------------------------------


def test_tov_closed_forms(eos):
    r = np.linspace(3.0, 7.0, 30)
    rho, v, A, B, M = tov_state(r, 1.0, eos)
    np.testing.assert_allclose(A, 4.0 / 7.0, rtol=1e-14)
    assert tov_exponent(eos) == pytest.approx(1.0)
    np.testing.assert_allclose(B, r, rtol=1e-14)      # b0 = 1, exponent 1
    np.testing.assert_allclose(v, 0.0)
    np.testing.assert_allclose(2.0 * M / r, 3.0 / 7.0, rtol=1e-14)


def test_tov_light_speed_ratio(eos):
    _, _, A3, B3, _ = tov_state(np.array([3.0]), 1.0, eos)
    _, _, A7, B7, _ = tov_state(np.array([7.0]), 1.0, eos)
    ratio = np.sqrt(A3 * B3) / np.sqrt(A7 * B7)
    assert ratio[0] == pytest.approx(np.sqrt(3.0 / 7.0), rel=1e-12)
    # consistent with the reported edge values 0.58 / 0.89 at the 1% level
    assert ratio[0] == pytest.approx(0.58 / 0.89, rel=0.01)


@pytest.mark.parametrize("sigma", [0.1, 1.0 / 3.0, 0.7])
def test_tov_hydrostatic_consistency(sigma):
    """Plugging the static solution into the metric equation for B
    reproduces the closed-form logarithmic derivative."""
    eos = EosParams(sigma)
    g = gamma(eos)
    r = np.linspace(2.0, 9.0, 40)
    rho, v, A, B, M = tov_state(r, 1.3, eos)
    t11 = sigma * rho  # rest fluid
    ode_rhs = ((1.0 / A - 1.0) / r + KAPPA * r / A * t11)
    closed = tov_exponent(eos) / r
    np.testing.assert_allclose(ode_rhs, closed, rtol=1e-10)


# --- matching ----------------------------------------------------------------


def test_match_frw1_start_time(eos):
    model = MatchedModel("frw1", 5.0, eos)
    assert model.t_start == pytest.approx(5.4554, abs=1e-3)
    assert model.v0 == pytest.approx(V0, rel=1e-12)
    assert model.b0 == pytest.approx(0.35, rel=1e-12)


def test_match_start_time_proportional_to_radius(eos):
    assert MatchedModel("frw1", 95.0, eos).t_start == pytest.approx(19.0 * T0_R5, rel=1e-12)


def test_match_frw2_doubles_start_time(eos):
    model = MatchedModel("frw2", 5.0, eos)
    assert model.t_start == pytest.approx(2.0 * T0_R5, rel=1e-12)
    assert model.t_start == pytest.approx(10.9109, abs=1e-3)
    assert model.b0 == pytest.approx(MatchedModel("frw1", 5.0, eos).b0, rel=1e-14)
    assert model.inner.psi0 == pytest.approx(2.0 * np.sqrt(T0_R5), rel=1e-12)


def test_match_reversed_flips_signs(eos):
    model = MatchedModel("frw1", 5.0, eos, reversed_time=True)
    assert model.v0 == pytest.approx(-V0, rel=1e-12)
    assert model.t_start == pytest.approx(-T0_R5, rel=1e-12)
    assert model.b0 == pytest.approx(0.35, rel=1e-12)


def matching(model):
    return model.r0, model.v0, model.b0, model.t_start, model.inner.t_start, model.inner.psi0


def test_make_model_passes_reversed_time_to_the_matching(eos):
    """make_model hands reversed_time to both matched variants, so the
    forward-only FRW-2 matching refuses it; a pure model refuses it too."""
    reversed_frw1 = make_model("frw1_tov", eos, r0=5.0, reversed_time=True)
    assert matching(reversed_frw1) == matching(MatchedModel("frw1", 5.0, eos, reversed_time=True))
    assert (matching(make_model("frw2_tov", eos, r0=5.0))
            == matching(MatchedModel("frw2", 5.0, eos)))
    with pytest.raises(NonPhysicalState, match="forward-time only"):
        make_model("frw2_tov", eos, r0=5.0, reversed_time=True)
    for variant in ("frw1", "frw2", "tov"):
        with pytest.raises(ValueError, match=f"not '{variant}'"):
            make_model(variant, eos, reversed_time=True)
    with pytest.raises(ValueError, match="unknown model variant"):
        make_model("frw3", eos, reversed_time=True)


def test_match_v0_independent_of_radius(eos):
    assert MatchedModel("frw1", 2.0, eos).v0 == MatchedModel("frw1", 80.0, eos).v0


@pytest.mark.parametrize("variant, reversed_time, domain", [
    ("frw1", False, (3.0, 7.0)), ("frw1", True, (0.1, 20.0)), ("frw2", False, (3.0, 7.0)),
], ids=["frw1_tov", "reversed-frw1_tov", "frw2_tov"])
@pytest.mark.parametrize("after", [0.0, 0.3])
def test_matched_evaluate_returns_each_side_bit_for_bit(variant, reversed_time, domain,
                                                         after, eos):
    """On a row entirely inside r0 evaluate returns the bytes of the FRW
    interior, on a row entirely outside those of the static sphere at b0;
    the rows include the boundary points [x_0, xe_0] a step evaluates."""
    model = MatchedModel(variant, 5.0, eos, reversed_time)
    grid = scheme.SimGrid(*domain, 64)
    t = model.t_start + after
    x, xe = grid.centers_with_ghosts(), grid.edges()
    points = np.concatenate([x, xe])
    exterior = lambda t, r: tov_state(r, model.b0, eos)
    for r, side in ((np.array([x[0], xe[0]]), model.inner.evaluate),
                    (points[points < 5.0], model.inner.evaluate),
                    (points[points >= 5.0], exterior)):
        for got, want in zip(model.evaluate(t, r), side(t, r)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_metric_continuity_at_matching_point(eos):
    model = MatchedModel("frw1", 5.0, eos)
    t0 = model.t_start
    eps = 1e-9
    _, _, A_in, B_in, _ = model.evaluate(t0, np.array([5.0 - eps]))
    _, _, A_out, B_out, _ = model.evaluate(t0, np.array([5.0 + eps]))
    assert A_in[0] == pytest.approx(A_out[0], abs=1e-8)
    assert B_in[0] == pytest.approx(B_out[0], abs=1e-8)
    # at the point itself the closed forms agree to rounding
    assert 1.0 - V0**2 == pytest.approx(4.0 / 7.0, abs=1e-12)


def test_density_jump_ratio_is_three(eos):
    model = MatchedModel("frw1", 5.0, eos)
    rho_in, _, _, _, _ = model.inner.evaluate(model.t_start, np.array([5.0]))
    rho_out, _, _, _, _ = tov_state(np.array([5.0]), model.b0, eos)
    assert rho_in[0] / rho_out[0] == pytest.approx(3.0, abs=1e-6)


def test_initial_profile_piecewise(eos):
    model = MatchedModel("frw1", 5.0, eos)
    r = np.linspace(3.0, 7.0, 41)
    rho, v, A, B, M = model.evaluate(model.t_start, r)
    outside = r >= 5.0   # the jump point itself carries the static side
    np.testing.assert_allclose(v[outside], 0.0)
    assert np.all(np.abs(v[~outside]) > 0.0)


def test_frw2_matched_profile_equals_frw1_profile(eos):
    """The two matched models share the same initial slice; only the start
    time differs."""
    m1 = MatchedModel("frw1", 5.0, eos)
    m2 = MatchedModel("frw2", 5.0, eos)
    r = np.linspace(3.0, 7.0, 17)
    p1 = m1.evaluate(m1.t_start, r)
    p2 = m2.evaluate(m2.t_start, r)
    for a, b in zip(p1, p2):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-14)


def test_ghost_values_match_profile(eos):
    """The stepper's left ghost carries the model's fluid at the ghost
    center and its metric at the half gridpoint next to it, at the start
    and after a step."""
    model = MatchedModel("frw1", 5.0, eos)
    state = scheme.init(model, scheme.SimGrid(3.0, 7.0, 41), eos)
    for _ in range(2):
        rho_p, v_p, _, _, _ = model.evaluate(state.t, state.x[:1])
        _, _, A_p, B_p, _ = model.evaluate(state.t, state.xe[:1])
        assert state.rho[0] == pytest.approx(rho_p[0])
        assert state.v[0] == pytest.approx(v_p[0])
        assert state.A[0] == pytest.approx(A_p[0])
        assert state.B[0] == pytest.approx(B_p[0])
        scheme.advance(state)


def test_ghost_values_tov_static(eos):
    model = MatchedModel("frw1", 5.0, eos)
    r = np.array([7.1, 7.05])
    a = model.evaluate(model.t_start, r)
    b = model.evaluate(model.t_start + 0.5, r)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_make_model_rejects_non_radiation_frw():
    with pytest.raises(NonPhysicalState, match="require sigma = 1/3"):
        make_model("frw1", EosParams(0.2), t_start=15.0)


# --- time reversal of the expanding solution --------------------------------


def test_reversed_scale_factor_satisfies_constraints(eos):
    """rho(-t), R(-t) solve the same constraint equations, checked by
    finite differences of the closed forms at negative times."""
    sig = eos.sigma
    rho = lambda t: 3.0 / (4.0 * KAPPA * t * t)
    R = lambda t: np.sqrt(-t)
    h = 1e-6
    for t in (-15.0, -5.45, -2.0):
        drho = (rho(t + h) - rho(t - h)) / (2 * h)
        dR = (R(t + h) - R(t - h)) / (2 * h)
        # continuity: p = -rho - R rho_dot / (3 R_dot) with p = sigma rho
        lhs = sig * rho(t)
        rhs = -rho(t) - R(t) * drho / (3.0 * dR)
        assert lhs == pytest.approx(rhs, rel=1e-7)
        # constraint: R_dot^2 = (8 pi / 3) rho R^2
        assert dR**2 == pytest.approx(8.0 * np.pi / 3.0 * rho(t) * R(t) ** 2,
                                      rel=1e-7)


@pytest.mark.parametrize("variant, t_start", [("frw1", 0.0), ("frw2", 0.0), ("frw2", -15.0)])
def test_frw_model_refuses_a_start_time_with_no_slice(variant, t_start, eos):
    with pytest.raises(NonPhysicalState, match=f"the {variant} chart has no slice"):
        make_model(variant, eos, t_start=t_start)


def test_matched_model_refuses_a_non_positive_r0_and_an_unknown_variant(eos):
    for r0 in (0.0, -5.0):
        with pytest.raises(NonPhysicalState, match="r0 must be positive"):
            MatchedModel("frw1", r0, eos)
    with pytest.raises(ValueError, match="variant must be 'frw1' or 'frw2', got 'frw3'"):
        MatchedModel("frw3", 5.0, eos)


# --- a float radius: the boundary stage's one-point evaluations -----------


def assert_float_matches_array(call, r):
    """call at the float radius r gives scalars (no 0-d array; a matched
    model's np.where selection excepted) equal, bit for bit, to its values
    in a 1-element array, or refuses with the array's message."""
    try:
        want = call(np.array([r]))
    except NonPhysicalState as err:
        with pytest.raises(NonPhysicalState, match=f"^{re.escape(str(err))}$"):
            call(r)
        return
    got = call(r)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.asarray(a, dtype=float).tobytes() == b.tobytes()


def assert_scalars(fields):
    assert all(np.ndim(a) == 0 and not isinstance(a, np.ndarray) for a in fields)


unit = st.floats(min_value=0.0, max_value=1.0)


@given(t=st.floats(min_value=1e-3, max_value=1e3), sign=st.sampled_from([1.0, -1.0]),
       frac=unit)
@settings(max_examples=300, deadline=None)
def test_frw1_state_at_a_float_radius_is_its_array_value(t, sign, frac):
    """Over the FRW-1 chart |r/t| < 1, forward and time reversed."""
    r = frac * t
    assert_float_matches_array(lambda rr: frw1_state(sign * t, rr), r)
    if r < t:
        assert_scalars(frw1_state(sign * t, r))


@given(t_bar=st.floats(min_value=1e-2, max_value=1e2),
       psi0=st.floats(min_value=0.1, max_value=10.0), frac=unit)
@settings(max_examples=300, deadline=None)
def test_frw2_kernels_at_a_float_radius_are_their_array_values(t_bar, psi0, frac):
    """Over the FRW-2 chart r <= t_bar^2/psi0^2 (its edge included, where
    disc = 0 and the speed reaches 1), for the comoving time and the fields."""
    r = frac * t_bar**2 / psi0**2
    assert_float_matches_array(lambda rr: (frw2_frw_time(t_bar, rr, psi0),), r)
    assert_float_matches_array(lambda rr: frw2_state(t_bar, rr, psi0), r)
    assume(frac < 0.99)
    assert_scalars((frw2_frw_time(t_bar, r, psi0), *frw2_state(t_bar, r, psi0)))


@given(r=st.floats(min_value=1e-6, max_value=1e6), b0=st.floats(min_value=1e-3, max_value=1e3),
       sigma=st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=300, deadline=None)
def test_tov_state_at_a_float_radius_is_its_array_value(r, b0, sigma):
    """Over the static sphere's domain r > 0, at any equation of state: the
    power r^q rounds as on an array."""
    eos = EosParams(sigma)
    assert_float_matches_array(lambda rr: tov_state(rr, b0, eos), r)
    assert_scalars(tov_state(r, b0, eos))


@given(frac=unit, after=st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=100, deadline=None)
def test_model_evaluate_at_a_float_radius_is_its_array_value(frac, after):
    """Every model's evaluate, over the radii of a step's boundary points:
    a pure model's run domain, a matched model's on both sides of r0."""
    eos = EosParams()
    for model, (lo, hi) in (
            (make_model("frw1", eos, t_start=15.0), (3.0, 7.0)),
            (make_model("frw1", eos, t_start=-15.0), (3.0, 7.0)),
            (make_model("frw2", eos, t_start=15.0), (3.0, 7.0)),
            (make_model("tov", eos), (3.0, 7.0)),
            (make_model("frw1_tov", eos, r0=5.0), (3.0, 7.0)),
            (make_model("frw1_tov", eos, r0=5.0, reversed_time=True), (0.1, 20.0)),
            (make_model("frw2_tov", eos, r0=5.0), (3.0, 7.0))):
        t = model.t_start + (-after if model.t_start < 0.0 else after)
        assert_float_matches_array(lambda rr: model.evaluate(t, rr), lo + frac * (hi - lo))


NON_FINITE = [np.nan, np.inf, -np.inf]
NON_FINITE_GUARDS = [
    (lambda r: frw1_state(5.0, r), r"\|r/t\| >= 1 on the requested slice \(t=5.0\)"),
    (lambda r: frw1_state(-5.0, r), r"\|r/t\| >= 1 on the requested slice \(t=-5.0\)"),
    (lambda r: frw2_frw_time(5.0, r, np.sqrt(30.0)),
     r"t_bar\^4 < r_bar\^2 psi0\^4: outside the FRW-2 chart"),
    (lambda r: frw2_state(5.0, r, np.sqrt(30.0)),
     r"t_bar\^4 < r_bar\^2 psi0\^4: outside the FRW-2 chart"),
    (lambda r: tov_state(r, 1.0, EosParams()), "tov_state needs r > 0 and b0 > 0"),
]


@pytest.mark.parametrize("call, r, message", [
    (lambda r: frw1_state(5.0, r), 6.0, r"\|r/t\| >= 1 on the requested slice \(t=5.0\)"),
    (lambda r: frw1_state(-5.0, r), 5.0, r"\|r/t\| >= 1 on the requested slice \(t=-5.0\)"),
    (lambda r: frw2_frw_time(5.0, r, np.sqrt(30.0)), 6.0,
     r"t_bar\^4 < r_bar\^2 psi0\^4: outside the FRW-2 chart"),
    (lambda r: frw2_state(5.0, r, np.sqrt(30.0)), 6.0,
     r"t_bar\^4 < r_bar\^2 psi0\^4: outside the FRW-2 chart"),
    (lambda r: frw2_state(2.0, r, 1.0), 4.0, "fluid speed >= 1 on the requested slice"),
    (lambda r: tov_state(r, 1.0, EosParams()), 0.0, "tov_state needs r > 0 and b0 > 0"),
    (lambda r: tov_state(r, 1.0, EosParams()), -1.0, "tov_state needs r > 0 and b0 > 0"),
    *[(call, r, message) for call, message in NON_FINITE_GUARDS for r in NON_FINITE],
    (lambda r: frw1_state(5.0, r), np.array([4.0, np.nan]),
     r"\|r/t\| >= 1 on the requested slice \(t=5.0\)"),
    (lambda r: tov_state(r, 1.0, EosParams()), np.array([4.0, np.nan]),
     "tov_state needs r > 0 and b0 > 0"),
], ids=["frw1", "frw1-reversed", "frw2-time", "frw2", "frw2-speed", "tov-0", "tov-negative",
        *[f"{name}-{r}" for name in ("frw1", "frw1-reversed", "frw2-time", "frw2", "tov")
          for r in NON_FINITE],
        "frw1-one-nan", "tov-one-nan"])
def test_a_float_radius_is_refused_as_its_array_is(call, r, message):
    """A NaN radius fails every guard and tov_state refuses +inf, at a float
    and in an array, before any arithmetic could warn (warnings are errors)."""
    for radius in (r, np.array([r])):
        with pytest.raises(NonPhysicalState, match=f"^{message}$"):
            call(radius)
