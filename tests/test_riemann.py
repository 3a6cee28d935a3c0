"""Exact Riemann solver: curve geometry, middle states, speeds, sampling.

The solver is cross-checked two independent ways: frozen values computed
with a scipy root find on the jump conditions plus invariant matching, and
a direct Rankine-Hugoniot residual evaluated on every solved shock in the
lab frame.  A single problem is solved as a batch of one; states are
(rho, v) pairs.
"""

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from relshock import fluid, riemann
from relshock.fluid import EosParams
from relshock.riemann import (
    REGION_I,
    REGION_II,
    REGION_III,
    REGION_IV,
    beta_of,
    sample_solution,
    solve_interfaces,
)

from conftest import random_states

BETA_GRID = 10.0 ** np.linspace(-6, 6, 49)

# Flat-space shock-tube regression case: left (1e8, 0.3), right (1e9, 0.6).
# Middle state and speeds frozen from the independent jump-condition oracle
# below (solved with scipy to 1e-13 and cross-checked by hand).
TUBE_LEFT = (1e8, 0.3)
TUBE_RIGHT = (1e9, 0.6)
TUBE_MIDDLE = (202_697_484.93, 0.00204131070)
TUBE_SPEEDS = (-0.484900887599, 0.578709541022, 0.874436559411)
TWO_SHOCK_LEFT = (2.0, 0.5)
TWO_SHOCK_RIGHT = (1.0, -0.4)


def f_minus(beta):
    """Growing shock factor in [1, inf): the density ratio across a shock."""
    return riemann._f_big(beta)


def f_plus(beta):
    """Decaying shock factor in (0, 1], the reciprocal branch."""
    return 1.0 / riemann._f_big(beta)


def solve_one(left, right, eos, eps=1e-10):
    return solve_interfaces(*left, *right, eos, eps)


def middle(sol, k=0):
    return sol.rho_mid[k], sol.v_mid[k]


def sample_one(left, right, xi, eos):
    rho, v = sample_solution(solve_one(left, right, eos), np.asarray([xi]))
    return rho[0], v[0]


def minkowski_flux(rho, v, eos):
    u0, u1 = fluid.conserved_arrays(rho, v, eos)
    return np.array([u0, u1]), np.array([u1, fluid.t11_arrays(rho, v, eos)])


def rh_residual(ahead, behind, speed, eos):
    """Normalized defect of s*[u] = [F] across one discontinuity."""
    ua, fa = minkowski_flux(*ahead, eos)
    ub, fb = minkowski_flux(*behind, eos)
    resid = speed * (ub - ua) - (fb - fa)
    scale = np.maximum(np.abs(fb - fa), np.abs(ub - ua)) + 1e-300
    return np.max(np.abs(resid) / scale)


def oracle_middle_shock1_rarefaction2(left, right, eos):
    """Independent middle state for the 1-shock/2-rarefaction case: root
    find the post-shock density ratio from the jump conditions, matching
    the invariant carried across the 2-fan."""
    sig = eos.sigma
    (rho_l, v_l), (rho_r, v_r) = left, right
    r_right, _ = fluid.invariant_arrays(rho_r, v_r, eos)

    def mismatch(x):
        g = sig * (x - 1.0) ** 2 / ((1.0 + sig) ** 2 * x)
        w = -np.sqrt(g / (1.0 + g))
        vm = fluid.lorentz_compose(v_l, w)
        r_m, _ = fluid.invariant_arrays(x * rho_l, vm, eos)
        return r_m - r_right

    x = brentq(mismatch, 1.0 + 1e-14, 1e6, xtol=1e-15, rtol=8.9e-16)
    g = sig * (x - 1.0) ** 2 / ((1.0 + sig) ** 2 * x)
    w = -np.sqrt(g / (1.0 + g))
    return x * rho_l, fluid.lorentz_compose(v_l, w)


def test_f_branches_limit_to_one():
    assert f_plus(0.0) == pytest.approx(1.0)
    assert f_minus(0.0) == pytest.approx(1.0)


def test_f_plus_in_unit_interval_and_decreasing():
    vals = f_plus(BETA_GRID)
    assert np.all(vals > 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(f_minus(BETA_GRID) >= 1.0)


def test_f_branch_product_identity_high_precision():
    """The two branches are exact reciprocals; check the implementation
    against the textbook form of the decaying branch at 50 digits."""
    mpmath.mp.dps = 50
    for b in 10.0 ** np.linspace(-6, 6, 25):
        bm = mpmath.mpf(b)
        naive = 1 + bm * (1 - mpmath.sqrt(1 + 2 / bm))
        assert f_plus(b) == pytest.approx(float(naive), rel=1e-13)
        assert float(mpmath.mpf(f_plus(b)) * mpmath.mpf(f_minus(b))) == (
            pytest.approx(1.0, rel=1e-13)
        )


def test_beta_zero_iff_equal_velocities(eos):
    assert beta_of(0.3, 0.3, eos) == 0.0
    assert beta_of(0.1, 0.4, eos) > 0.0


def test_beta_symmetric(eos):
    assert beta_of(0.2, -0.5, eos) == pytest.approx(beta_of(-0.5, 0.2, eos))


def test_beta_frame_invariant(eos, rng):
    """Built from the relative velocity, so boosting both states by any w
    leaves it unchanged."""
    for _ in range(50):
        v1, v2, w = rng.uniform(-0.9, 0.9, 3)
        b = beta_of(v1, v2, eos)
        bb = beta_of(
            fluid.lorentz_compose(v1, w), fluid.lorentz_compose(v2, w), eos
        )
        assert bb == pytest.approx(b, rel=1e-10)


def test_beta_matches_shock_density_ratio(eos):
    """f-(beta(vM, vL)) is exactly the density ratio across the shock."""
    sol = solve_one(TUBE_LEFT, TUBE_RIGHT, eos)
    b = beta_of(sol.v_mid[0], sol.v_l[0], eos)
    assert b == pytest.approx(sol.beta1[0], rel=1e-8)
    assert f_minus(b) == pytest.approx(sol.rho_mid[0] / sol.rho_l[0], rel=1e-8)


def test_wave_curve_shock_origin(eos):
    dr, ds = riemann._s1_curve(0.0, eos)
    assert dr == 0.0 and ds == 0.0


def test_wave_curve_rarefactions_are_axes(eos):
    """A pure 1-rarefaction moves only r and a pure 2-rarefaction only s:
    the rarefaction curves are the axes of the invariant plane."""
    left = fluid.fluid_from_invariant_arrays(0.0, 0.0, eos)
    for family, step in ((1, (2.5, 0.0)), (2, (0.0, 2.5))):
        right = fluid.fluid_from_invariant_arrays(*step, eos)
        sol = solve_one(left, right, eos)
        r_l, s_l = fluid.invariant_arrays(sol.rho_l, sol.v_l, eos)
        r_r, s_r = fluid.invariant_arrays(sol.rho_r, sol.v_r, eos)
        if family == 1:
            got = (sol.r_mid[0] - r_l[0], sol.s_mid[0] - s_l[0])
        else:
            got = (r_r[0] - sol.r_mid[0], s_r[0] - sol.s_mid[0])
        assert got == pytest.approx(step, abs=1e-12)


def test_shock_curves_negative_and_decreasing(eos):
    # the 2-shock curve is the same pair with dr and ds exchanged
    dr, ds = riemann._s1_curve(BETA_GRID, eos)
    assert np.all(dr < 0.0) and np.all(ds < 0.0)
    assert np.all(np.diff(dr) < 0.0) and np.all(np.diff(ds) < 0.0)


def test_shock_curves_mirror_images(eos, rng):
    """The 2-shock of a mirrored problem (sides swapped, v -> -v) retraces
    the 1-shock of the original with dr and ds exchanged."""
    rho, v = random_states(rng, 400, rho_lo=1e-2, rho_hi=1e2, v_max=0.9)
    sol = solve_interfaces(rho[::2], v[::2], rho[1::2], v[1::2], eos)
    mir = solve_interfaces(rho[1::2], -v[1::2], rho[::2], -v[::2], eos)
    one = sol.region == REGION_III
    assert one.sum() > 10
    assert np.all(mir.region[one] == REGION_I)
    r_l, s_l = fluid.invariant_arrays(sol.rho_l, sol.v_l, eos)
    p1 = (sol.r_mid - r_l, sol.s_mid - s_l)
    r_r, s_r = fluid.invariant_arrays(mir.rho_r, mir.v_r, eos)
    p2 = (r_r - mir.r_mid, s_r - mir.s_mid)
    np.testing.assert_allclose(p2[0][one], p1[1][one], rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(p2[1][one], p1[0][one], rtol=1e-12, atol=1e-9)


def test_classify_degenerate_is_region_iv(eos):
    s = (2.0, 0.1)
    assert solve_one(s, s, eos).region[0] == REGION_IV


def test_classify_tube_case_region_iii(eos):
    r_l, s_l = fluid.invariant_arrays(*TUBE_LEFT, eos)
    r_r, s_r = fluid.invariant_arrays(*TUBE_RIGHT, eos)
    region = riemann._classify_arrays(np.asarray(r_r - r_l), np.asarray(s_r - s_l))
    assert region == REGION_III


def test_region_mirror_symmetry(eos, rng):
    """Reflecting v -> -v and swapping sides maps region I <-> III."""
    swap = {REGION_I: REGION_III, REGION_III: REGION_I,
            REGION_II: REGION_II, REGION_IV: REGION_IV}
    rho, v = random_states(rng, 80, rho_lo=1e-2, rho_hi=1e2, v_max=0.9)
    sol = solve_interfaces(rho[::2], v[::2], rho[1::2], v[1::2], eos)
    mir = solve_interfaces(rho[1::2], -v[1::2], rho[::2], -v[::2], eos)
    for k in range(sol.region.size):
        assert mir.region[k] == swap[sol.region[k]]
        assert mir.rho_mid[k] == pytest.approx(sol.rho_mid[k], rel=1e-6)
        assert mir.v_mid[k] == pytest.approx(-sol.v_mid[k], abs=1e-8)


def test_degenerate_input_short_circuits(eos):
    s = (3.0, -0.2)
    sol = solve_one(s, s, eos)
    assert sol.rho_mid[0] == pytest.approx(3.0)
    assert sol.v_mid[0] == pytest.approx(-0.2)
    assert not sol.wave1_is_shock()[0] and not sol.wave2_is_shock()[0]


def test_tube_middle_state_against_frozen_oracle(eos):
    sol = solve_one(TUBE_LEFT, TUBE_RIGHT, eos)
    assert sol.region[0] == REGION_III
    assert sol.rho_mid[0] == pytest.approx(TUBE_MIDDLE[0], rel=1e-9)
    assert sol.v_mid[0] == pytest.approx(TUBE_MIDDLE[1], abs=1e-9)
    # live oracle: jump conditions + invariant matching, solved independently
    rho_m, v_m = oracle_middle_shock1_rarefaction2(TUBE_LEFT, TUBE_RIGHT, eos)
    assert sol.rho_mid[0] == pytest.approx(rho_m, rel=1e-9)
    assert sol.v_mid[0] == pytest.approx(v_m, abs=1e-10)


def test_tube_speeds_against_frozen_oracle(eos):
    sol = solve_one(TUBE_LEFT, TUBE_RIGHT, eos)
    assert sol.wave1_is_shock()[0]
    assert not sol.wave2_is_shock()[0]
    assert sol.speed1_head[0] == pytest.approx(TUBE_SPEEDS[0], abs=1e-9)
    assert sol.speed2_head[0] == pytest.approx(TUBE_SPEEDS[1], abs=1e-9)
    assert sol.speed2_tail[0] == pytest.approx(TUBE_SPEEDS[2], abs=1e-9)
    # the fan edges are the characteristic speeds of the bounding states
    assert sol.speed2_head[0] == pytest.approx(
        fluid.lambda2_arrays(sol.v_mid[0], eos), rel=1e-12
    )
    assert sol.speed2_tail[0] == pytest.approx(
        fluid.lambda2_arrays(TUBE_RIGHT[1], eos), rel=1e-12
    )


def test_tube_shock_satisfies_jump_conditions(eos):
    sol = solve_one(TUBE_LEFT, TUBE_RIGHT, eos)
    assert rh_residual(TUBE_LEFT, middle(sol), sol.speed1_head[0], eos) < 1e-8


def test_two_shock_case(eos):
    left, right = TWO_SHOCK_LEFT, TWO_SHOCK_RIGHT
    sol = solve_one(left, right, eos)
    assert sol.region[0] == REGION_II
    assert sol.rho_mid[0] == pytest.approx(4.2801066725, rel=1e-9)
    assert sol.v_mid[0] == pytest.approx(0.2145633005, abs=1e-9)
    assert sol.speed1_head[0] == pytest.approx(-0.2965361358, abs=1e-9)
    assert sol.speed2_head[0] == pytest.approx(0.5810869968, abs=1e-9)
    # density ratios across each shock are the two f branches
    assert sol.rho_mid[0] / left[0] == pytest.approx(f_minus(sol.beta1[0]), rel=1e-8)
    assert right[0] / sol.rho_mid[0] == pytest.approx(f_plus(sol.beta2[0]), rel=1e-8)
    # both shocks satisfy the jump conditions in the lab frame
    assert rh_residual(left, middle(sol), sol.speed1_head[0], eos) < 1e-8
    assert rh_residual(right, middle(sol), sol.speed2_head[0], eos) < 1e-8


def test_two_shock_speed_frame_independence(eos):
    """Composing the rest-frame speed from either side of each shock must
    give the same lab speed."""
    sol = solve_one(TWO_SHOCK_LEFT, TWO_SHOCK_RIGHT, eos)
    beta1, beta2 = sol.beta1[0], sol.beta2[0]
    s2_from_right = fluid.lorentz_compose(
        TWO_SHOCK_RIGHT[1],
        np.sqrt((f_minus(beta2) + eos.sigma) / (f_minus(beta2) + 1.0 / eos.sigma)),
    )
    assert sol.speed2_head[0] == pytest.approx(s2_from_right, rel=1e-9)
    s1_from_middle = fluid.lorentz_compose(
        sol.v_mid[0],
        -np.sqrt((f_plus(beta1) + eos.sigma) / (f_plus(beta1) + 1.0 / eos.sigma)),
    )
    assert sol.speed1_head[0] == pytest.approx(s1_from_middle, rel=1e-9)


def test_weak_shock_moves_at_sound_speed(eos):
    sol = solve_one((1.0, 0.0), (1.0 + 1e-9, 0.0), eos)
    # a shock's speed and a rarefaction's head speed are both the head
    for speed in (sol.speed1_head[0], sol.speed2_head[0]):
        assert abs(speed) == pytest.approx(eos.sound_speed, abs=1e-5)


def test_all_speeds_subluminal(eos, rng):
    rho, v = random_states(rng, 400, rho_lo=1e-3, rho_hi=1e3, v_max=0.95)
    sol = solve_interfaces(rho[:-1], v[:-1], rho[1:], v[1:], eos)
    for arr in (sol.speed1_head, sol.speed1_tail, sol.speed2_head, sol.speed2_tail):
        assert np.all(np.abs(arr) < 1.0)
    assert np.all(sol.speed1_tail <= sol.speed2_head + 1e-14)


def test_entropy_ordering_across_shocks(eos, rng):
    rho, v = random_states(rng, 400, rho_lo=1e-3, rho_hi=1e3, v_max=0.95)
    sol = solve_interfaces(rho[:-1], v[:-1], rho[1:], v[1:], eos)
    s1 = sol.wave1_is_shock()
    s2 = sol.wave2_is_shock()
    assert np.all(sol.rho_mid[s1] > sol.rho_l[s1])
    assert np.all(sol.rho_mid[s2] > sol.rho_r[s2])


def test_fan_recomposition(eos, rng):
    """Retracing wave1 then wave2 from the left state lands on the right
    state in the invariant plane, within ten solver tolerances."""
    eps = 1e-10
    rho, v = random_states(rng, 2000, rho_lo=1e-4, rho_hi=1e4, v_max=0.97)
    rl, vl = rho[::2], v[::2]
    rr, vr = rho[1::2], v[1::2]
    sol = solve_interfaces(rl, vl, rr, vr, eos, eps)
    r_l, s_l = fluid.invariant_arrays(rl, vl, eos)
    r_r, s_r = fluid.invariant_arrays(rr, vr, eos)
    dr1, ds1 = riemann._s1_curve(sol.beta1, eos)
    dr2s, ds2s = riemann._s1_curve(sol.beta2, eos)  # mirror for family 2
    shock1, shock2 = sol.wave1_is_shock(), sol.wave2_is_shock()
    r_end = r_l + np.where(shock1, dr1, sol.r_mid - r_l)
    s_end = s_l + np.where(shock1, ds1, 0.0)
    r_end = r_end + np.where(shock2, ds2s, 0.0)
    s_end = s_end + np.where(shock2, dr2s, s_r - s_end)
    dist = np.hypot(r_end - r_r, s_end - s_r)
    assert dist.max() < 10 * eps


SOLUTION_FIELDS = ("region", "beta1", "beta2", "r_mid", "s_mid", "rho_mid", "v_mid",
                   "speed1_head", "speed1_tail", "speed2_head", "speed2_tail")


def test_mixed_batch_matches_single_solves_bit_for_bit(eos, monkeypatch):
    """Each root find runs only on the interfaces that have its wave, so a
    batch mixing every case solves each interface exactly as it is solved
    alone."""
    # (dr, ds) displacements in the invariant plane from one left state;
    # a pure shock of size 0.5 moves the other invariant by -2*sliver
    beta_half, _ = riemann._bisect_s1r(np.array([-0.5]), eos, 1e-10)
    sliver = -0.5 * riemann._s1_curve(beta_half, eos)[1][0]
    steps = [(0.5, 0.3), (-0.5, 0.3), (0.3, -0.5), (-0.5, -0.5), (-0.2, -0.05),
             (-sliver, -0.5), (-0.5, -sliver), (-1e-11, 0.3), (-1e-11, -0.5),
             (-1.05e-10, -1.05e-10), (0.0, 0.0), (1e-12, -1e-12)]
    r0, s0 = fluid.invariant_arrays(1.0, 0.1, eos)
    rho_r, v_r = fluid.fluid_from_invariant_arrays(
        r0 + np.array([d[0] for d in steps]), s0 + np.array([d[1] for d in steps]), eos)
    rho_l = np.r_[np.full(len(steps), 1.0), TWO_SHOCK_LEFT[0]]
    v_l = np.r_[np.full(len(steps), 0.1), TWO_SHOCK_LEFT[1]]
    rho_r, v_r = np.r_[rho_r, TWO_SHOCK_RIGHT[0]], np.r_[v_r, TWO_SHOCK_RIGHT[1]]
    r_l, s_l = fluid.invariant_arrays(rho_l, v_l, eos)
    r_r, s_r = fluid.invariant_arrays(rho_r, v_r, eos)
    dr, ds = r_r - r_l, s_r - s_l

    calls = {"bisect": [], "walk": [], "two_shock": []}

    def spy(name, fn):
        def wrapped(*args):
            calls[name].append(args[:-2] if name == "two_shock" else args[0])
            return fn(*args)
        monkeypatch.setattr(riemann, fn.__name__, wrapped)

    spy("bisect", riemann._bisect_s1r)
    spy("walk", riemann._walk_brackets)
    spy("two_shock", riemann._solve_two_shock)
    batch = solve_interfaces(rho_l, v_l, rho_r, v_r, eos)

    quadrant = riemann._classify_arrays(dr, ds)
    genuine = batch.region == REGION_II
    assert set(batch.region) == {REGION_I, REGION_II, REGION_III, REGION_IV}
    assert genuine.sum() == 3
    # (-,-) slivers fall to I or III, and both pure strengths below the
    # beta floor leave no wave at all (IV)
    reclassified = set(batch.region[(quadrant == REGION_II) & ~genuine])
    assert reclassified == {REGION_I, REGION_III, REGION_IV}
    assert np.any((np.abs(dr) < 1e-10) & (dr < 0))
    # rarefactions and absent waves carry zero strength
    assert np.all(batch.beta1[~batch.wave1_is_shock()] == 0.0)
    assert np.all(batch.beta2[~batch.wave2_is_shock()] == 0.0)
    # one pure-curve solve on the negative displacements, the coupled solve
    # on the genuine two-shock interfaces, and no bracket walk on anything else
    assert len(calls["bisect"]) == 1
    assert np.array_equal(calls["bisect"][0], np.r_[dr[dr < 0], ds[ds < 0]])
    (two_dr, two_ds), = calls["two_shock"]
    assert np.array_equal(two_dr, dr[genuine]) and np.array_equal(two_ds, ds[genuine])
    walked = np.concatenate(calls["walk"])
    assert np.all(walked <= -1e-10)
    assert walked.size == np.sum(dr <= -1e-10) + np.sum(ds <= -1e-10) + 2 * genuine.sum()

    for k in range(dr.size):
        one = solve_interfaces(rho_l[k], v_l[k], rho_r[k], v_r[k], eos)
        for name in SOLUTION_FIELDS:
            got = getattr(batch, name)[k:k + 1]
            assert getattr(one, name).tobytes() == got.tobytes(), (k, name)


def test_sample_piecewise_structure(eos):
    left_state = sample_one(TUBE_LEFT, TUBE_RIGHT, -0.9, eos)
    assert left_state[0] == pytest.approx(TUBE_LEFT[0])
    mid = sample_one(TUBE_LEFT, TUBE_RIGHT, 0.0, eos)
    assert mid[0] == pytest.approx(TUBE_MIDDLE[0], rel=1e-9)
    right_state = sample_one(TUBE_LEFT, TUBE_RIGHT, 0.95, eos)
    assert right_state[1] == pytest.approx(TUBE_RIGHT[1])


def test_sample_inside_fan_defining_equations(eos):
    """Interior fan states move at their own characteristic speed and
    carry the invariant of the family across the fan."""
    xi = 0.6
    rho, v = sample_one(TUBE_LEFT, TUBE_RIGHT, xi, eos)
    assert fluid.lambda2_arrays(v, eos) == pytest.approx(xi, abs=1e-10)
    r_state, _ = fluid.invariant_arrays(rho, v, eos)
    r_right, _ = fluid.invariant_arrays(*TUBE_RIGHT, eos)
    assert r_state == pytest.approx(r_right, abs=1e-10)


def test_sample_fan_velocity_monotone(eos):
    xi = np.linspace(0.58, 0.87, 40)
    _, v = sample_solution(solve_one(TUBE_LEFT, TUBE_RIGHT, eos), xi)
    assert np.all(np.diff(v) > 0.0)


def test_sample_self_similarity(eos):
    """The sampled state depends on position and time only through x/t."""
    for x, t in ((0.3, 1.0), (0.6, 2.0), (3.0, 10.0)):
        a = sample_one(TUBE_LEFT, TUBE_RIGHT, x / t, eos)
        b = sample_one(TUBE_LEFT, TUBE_RIGHT, (5 * x) / (5 * t), eos)
        assert a[0] == b[0] and a[1] == b[1]


def test_random_fans_satisfy_jump_and_invariant_conditions(eos, rng):
    """Strong oracle: every solved shock satisfies the lab-frame jump
    conditions; every rarefaction edge pair matches the eigenvalues."""
    rho, v = random_states(rng, 300, rho_lo=1e-2, rho_hi=1e2, v_max=0.9)
    sol = solve_interfaces(rho[::2], v[::2], rho[1::2], v[1::2], eos)
    shock1, shock2 = sol.wave1_is_shock(), sol.wave2_is_shock()
    checked_shocks = 0
    for k in range(sol.region.size):
        left = (sol.rho_l[k], sol.v_l[k])
        right = (sol.rho_r[k], sol.v_r[k])
        if shock1[k] and sol.beta1[k] > 1e-8:
            assert rh_residual(left, middle(sol, k), sol.speed1_head[k], eos) < 1e-6
            checked_shocks += 1
        else:
            assert sol.speed1_head[k] == pytest.approx(
                fluid.lambda1_arrays(left[1], eos), rel=1e-12
            )
        if shock2[k] and sol.beta2[k] > 1e-8:
            assert rh_residual(right, middle(sol, k), sol.speed2_head[k], eos) < 1e-6
            checked_shocks += 1
        else:
            assert sol.speed2_tail[k] == pytest.approx(
                fluid.lambda2_arrays(right[1], eos), rel=1e-12
            )
    assert checked_shocks > 20


def test_general_sigma_round_trip():
    """Nothing in the solver is tied to the radiation value of sigma."""
    eos = EosParams(0.1)
    left, right = (5.0, 0.2), (1.0, -0.1)
    sol = solve_one(left, right, eos)
    if sol.wave1_is_shock()[0]:
        assert rh_residual(left, middle(sol), sol.speed1_head[0], eos) < 1e-8
    if sol.wave2_is_shock()[0]:
        assert rh_residual(right, middle(sol), sol.speed2_head[0], eos) < 1e-8
