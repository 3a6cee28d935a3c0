"""Pointwise conversions among fluid variables, conserved quantities,
invariants and stress components, and the physicality checks."""

import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relshock import fluid
from relshock.errors import NonPhysicalState
from relshock.fluid import (
    EosParams,
    check_fluid,
    conserved_arrays,
    fluid_arrays,
    fluid_from_invariant_arrays,
    invariant_arrays,
    lorentz_compose,
    partial_density,
    t11_arrays,
)

from conftest import random_states

densities = st.floats(min_value=-6.0, max_value=12.0).map(lambda e: 10.0**e)
velocities = st.floats(min_value=-0.999, max_value=0.999)


def test_eos_constants(eos):
    assert eos.sigma == pytest.approx(1.0 / 3.0)
    assert eos.K == pytest.approx(3.0 / 8.0)
    assert eos.sound_speed == pytest.approx(1.0 / np.sqrt(3.0))


@pytest.mark.parametrize("sigma", [0.1, 1.0 / 3.0, 0.9])
def test_eos_cached_constants_equal_closed_forms(sigma):
    """The derived constants are computed once per instance and equal
    their closed forms exactly, on first and on later reads."""
    eos = EosParams(sigma)
    k = 2.0 * sigma / (1.0 + sigma) ** 2
    closed = {"sound_speed": np.sqrt(sigma), "K": k,
              "sqrt_K_half": np.sqrt(k / 2.0), "sqrt_2K": np.sqrt(2.0 * k)}
    for _ in range(2):
        assert {name: getattr(eos, name) for name in closed} == closed
        assert set(closed) <= set(vars(eos))


def test_eos_stays_frozen_hashable_and_equal_by_sigma():
    read, fresh = EosParams(0.3), EosParams(0.3)
    assert read.sqrt_2K > 0.0 and "sqrt_2K" not in vars(fresh)
    assert read == fresh and hash(read) == hash(fresh)
    assert {read: 1}[fresh] == 1
    assert read != EosParams(0.4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        read.sigma = 0.5


def test_eos_rejects_bad_sigma():
    with pytest.raises(NonPhysicalState, match="sigma must lie in"):
        EosParams(1.5)
    with pytest.raises(NonPhysicalState, match="sigma must lie in"):
        EosParams(0.0)


def test_state_invariants_enforced():
    with pytest.raises(NonPhysicalState, match="rho must be positive"):
        check_fluid(0.0, 0.1)
    with pytest.raises(NonPhysicalState, match=r"\|v\| must be < 1"):
        check_fluid(1.0, 1.0)


def test_check_fluid_rejects_nan_and_names_the_index():
    check_fluid(np.array([1.0, 2.0]), np.array([0.5, -0.5]))
    with pytest.raises(NonPhysicalState, match="rho must be positive at index 1"):
        check_fluid(np.array([1.0, np.nan]), np.array([0.0, 0.0]))
    with pytest.raises(NonPhysicalState, match=r"\|v\| must be < 1 at index 0"):
        check_fluid(np.array([1.0, 1.0]), np.array([np.nan, 0.0]))
    with pytest.raises(NonPhysicalState, match="rho must be finite at index 1"):
        check_fluid(np.array([1.0, np.inf]), np.array([0.0, 0.0]))


@pytest.mark.parametrize("rho, v, message", [
    (np.nan, 0.1, "rho must be positive at index 0 (rho=nan)"),
    (0.0, 0.1, "rho must be positive at index 0 (rho=0.000000e+00)"),
    (-1.0, 0.1, "rho must be positive at index 0 (rho=-1.000000e+00)"),
    (1.0, 1.0, "|v| must be < 1 at index 0 (v=1.000000e+00)"),
    (1.0, -1.5, "|v| must be < 1 at index 0 (v=-1.500000e+00)"),
    (1.0, np.nan, "|v| must be < 1 at index 0 (v=nan)"),
    (np.inf, 0.1, "rho must be finite at index 0 (rho=inf)"),
])
def test_check_fluid_on_python_scalars(rho, v, message):
    """Plain floats go through the same single mask and, on failure, the
    same per-condition message."""
    check_fluid(1.0, 0.5)
    with pytest.raises(NonPhysicalState) as info:
        check_fluid(rho, v)
    assert str(info.value) == message and info.value.index == 0


@pytest.mark.parametrize("u0, u1, message", [
    (np.nan, 0.1, "conserved pair outside the physical region (disc < 0) at index 0 "
                  "(u0=nan, u1=1.000000e-01)"),
    (1.0, np.nan, "conserved pair outside the physical region (disc < 0) at index 0 "
                  "(u0=1.000000e+00, u1=nan)"),
    (1.0, 2.0, "conserved pair outside the physical region (disc < 0) at index 0 "
               "(u0=1.000000e+00, u1=2.000000e+00)"),
    (0.0, 0.0, "u0 must be positive at index 0 (u0=0.000000e+00, u1=0.000000e+00)"),
    (-1.0, 0.0, "u0 must be positive at index 0 (u0=-1.000000e+00, u1=0.000000e+00)"),
])
def test_fluid_arrays_on_python_scalars(eos, u0, u1, message):
    with pytest.raises(NonPhysicalState) as info:
        fluid_arrays(u0, u1, eos)
    assert str(info.value) == message and info.value.index == 0


def test_comoving_conserved(eos):
    u0, u1 = conserved_arrays(1.0, 0.0, eos)
    assert u0 == pytest.approx(1.0)
    assert u1 == 0.0


def test_conserved_u1_zero_limit_branch(eos):
    rho, v = fluid_arrays(1.0, 0.0, eos)
    assert rho == pytest.approx(1.0)
    assert v == 0.0


def test_from_conserved_rejects_unphysical(eos):
    with pytest.raises(NonPhysicalState, match="disc < 0"):
        fluid_arrays(1.0, 10.0, eos)
    with pytest.raises(NonPhysicalState, match="u0 must be positive"):
        fluid_arrays(-1.0, 0.0, eos)


def test_fluid_arrays_rejects_nan(eos):
    """NaN compares false, so it must fail the checks rather than slip
    through them."""
    with pytest.raises(NonPhysicalState, match="at index 0"):
        fluid_arrays(np.array([np.nan, 1.0]), np.array([0.0, 0.0]), eos)
    with pytest.raises(NonPhysicalState, match="at index 1"):
        fluid_arrays(np.array([1.0, 1.0]), np.array([0.0, np.nan]), eos)


@given(rho=densities, v=velocities)
@settings(max_examples=300, deadline=None)
def test_conserved_round_trip(rho, v):
    eos = EosParams()
    g_rho, g_v = fluid_arrays(*conserved_arrays(rho, v, eos), eos)
    assert g_rho == pytest.approx(rho, rel=1e-12)
    assert g_v == pytest.approx(v, rel=1e-12, abs=1e-12)
    assert abs(g_v) < 1.0


@given(rho=densities, v=velocities)
@settings(max_examples=300, deadline=None)
def test_invariant_round_trip(rho, v):
    eos = EosParams()
    g_rho, g_v = fluid_from_invariant_arrays(*invariant_arrays(rho, v, eos), eos)
    assert g_rho == pytest.approx(rho, rel=1e-12)
    assert g_v == pytest.approx(v, rel=1e-12, abs=1e-12)


@given(rho=st.floats(min_value=-6.0, max_value=3.0).map(lambda e: 10.0**e), v=velocities)
@settings(max_examples=300, deadline=None)
def test_t11_from_momentum_density_matches_enthalpy_form(rho, v):
    """T11 = u1*v + sigma*rho from the kernel's own u1 equals h*v^2 + sigma*rho,
    h = (sigma+1)*rho/(1-v^2), evaluated exactly on the same float inputs."""
    eos = EosParams()
    got = t11_arrays(conserved_arrays(rho, v, eos)[1], rho, v, eos)
    with mpmath.workdps(50):
        r, w, sig = mpmath.mpf(rho), mpmath.mpf(v), mpmath.mpf(eos.sigma)
        exact = float((sig + 1) * r / (1 - w * w) * w * w + sig * r)
    assert abs(got - exact) <= 1e-14 * exact


def test_conserved_dominance_sweep(eos, rng):
    rho, v = random_states(rng, 1000)
    u0, u1 = fluid.conserved_arrays(rho, v, eos)
    assert np.all(u0 > np.abs(u1))


def test_invariants_at_unit_rest_state(eos):
    r, s = invariant_arrays(1.0, 0.0, eos)
    assert r == 0.0
    assert s == 0.0


def test_antisymmetric_invariants_force_zero_velocity(eos):
    a = 0.7
    rho, v = fluid_from_invariant_arrays(-a, a, eos)
    assert v == pytest.approx(0.0, abs=1e-15)
    assert rho == pytest.approx(np.exp(2 * a / eos.sqrt_2K), rel=1e-13)


def test_invariant_difference_tracks_log_density(eos, rng):
    rho, v = random_states(rng, 200)
    r, s = fluid.invariant_arrays(rho, v, eos)
    np.testing.assert_allclose(s - r, eos.sqrt_2K * np.log(rho), rtol=1e-12)


def test_partial_density_consistency(eos, rng):
    rho, v = random_states(rng, 500)
    r, s = fluid.invariant_arrays(rho, v, eos)
    np.testing.assert_allclose(partial_density(r, "r", v, eos), rho, rtol=1e-10)
    np.testing.assert_allclose(partial_density(s, "s", v, eos), rho, rtol=1e-10)


def test_partial_density_unit_point(eos):
    assert partial_density(0.0, "r", 0.0, eos) == pytest.approx(1.0)


def test_eigenvalues_rest_frame(eos):
    a = eos.sound_speed
    l1, l2 = lorentz_compose(0.0, -a), lorentz_compose(0.0, a)
    assert l1 == pytest.approx(-1.0 / np.sqrt(3.0))
    assert l2 == pytest.approx(+1.0 / np.sqrt(3.0))


def test_eigenvalue_cancellation_at_sound_speed(eos):
    l1 = lorentz_compose(eos.sound_speed, -eos.sound_speed)
    assert l1 == pytest.approx(0.0, abs=1e-15)


def test_eigenvalue_inversion(eos, rng):
    """Composing with the opposite sound speed inverts an eigenvalue."""
    _, v = random_states(rng, 500)
    a = eos.sound_speed
    l1 = lorentz_compose(v, -a)
    l2 = lorentz_compose(v, a)
    np.testing.assert_allclose(lorentz_compose(l1, a), v, atol=1e-14)
    np.testing.assert_allclose(lorentz_compose(l2, -a), v, atol=1e-14)


def test_eigenvalues_ordered_and_subluminal(eos, rng):
    _, v = random_states(rng, 1000)
    l1 = lorentz_compose(v, -eos.sound_speed)
    l2 = lorentz_compose(v, eos.sound_speed)
    assert np.all(l1 < l2)
    assert np.all(np.abs(l1) < 1.0) and np.all(np.abs(l2) < 1.0)


def test_lorentz_identity_and_light_fixed_point():
    assert lorentz_compose(0.0, 0.37) == pytest.approx(0.37)
    assert lorentz_compose(0.9, 1.0) == pytest.approx(1.0)


def test_lorentz_associative_and_bounded(rng):
    v = rng.uniform(-0.99, 0.99, (200, 3))
    left = lorentz_compose(lorentz_compose(v[:, 0], v[:, 1]), v[:, 2])
    right = lorentz_compose(v[:, 0], lorentz_compose(v[:, 1], v[:, 2]))
    np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-12)
    assert np.all(np.abs(left) < 1.0)


def test_stress_rest_frame_diagonal(eos):
    t00, t01 = conserved_arrays(1.0, 0.0, eos)
    t11 = t11_arrays(t01, 1.0, 0.0, eos)
    assert t00 == pytest.approx(1.0)
    assert t01 == 0.0
    assert t11 == pytest.approx(eos.sigma)


def test_stress_determinant_positive(eos, rng):
    rho, v = random_states(rng, 1000)
    t00, t01 = conserved_arrays(rho, v, eos)
    t11 = t11_arrays(t01, rho, v, eos)
    det = t00 * t11 - t01 * t01
    assert np.all(det > 0.0)
    # the determinant collapses to a closed form used by the momentum source;
    # the naive difference above cancels ~gamma^4, so compare loosely
    np.testing.assert_allclose(det, eos.sigma * rho * rho, rtol=1e-8)


def test_stress_matches_conserved_pair(eos, rng):
    """The sigma convention makes T00_M, T01_M literally the conserved pair,
    and T11_M the textbook (v^2 + sigma) gamma^2 rho."""
    rho, v = random_states(rng, 300)
    u0, u1 = fluid.conserved_arrays(rho, v, eos)
    t11 = t11_arrays(u1, rho, v, eos)
    sig = eos.sigma
    for k in range(0, 300, 37):
        r, w = rho[k], v[k]
        gam = 1.0 / (1.0 - w * w)
        assert (1.0 + sig * w * w) * gam * r == pytest.approx(u0[k], rel=1e-14)
        assert (1.0 + sig) * w * gam * r == pytest.approx(u1[k], rel=1e-14)
        assert (w * w + sig) * gam * r == pytest.approx(t11[k], rel=1e-12)
