"""Exact Riemann solver: curve geometry, middle states, speeds, sampling.

The solver is cross-checked two independent ways: frozen values computed
with a scipy root find on the jump conditions plus invariant matching, and
a direct Rankine-Hugoniot residual evaluated on every solved shock in the
lab frame.  A single problem is solved as a row of two cells; states are
(rho, v) pairs.
"""

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from relshock import fluid, riemann
from relshock.errors import NonPhysicalState, RelshockError
from relshock.fluid import EosParams
from relshock.riemann import (
    REGION_I,
    REGION_II,
    REGION_III,
    REGION_IV,
    edge_speeds,
    sample_solution,
    solve_interfaces,
)

import kernel_reference
from conftest import pair_row, random_states, solve_one, solve_pairs

BETA_GRID = 10.0 ** np.linspace(-6, 6, 49)


def beta_of(v, v_base, eos: EosParams):
    """Rankine-Hugoniot oracle: shock-strength parameter for the jump
    between two velocities.

    Built from the relative velocity, so it is frame invariant; the density
    ratio across the shock is the growing f branch evaluated here.
    """
    sig = eos.sigma
    return (
        (sig + 1.0) ** 2
        / (2.0 * sig)
        * (v - v_base) ** 2
        / ((1.0 - v * v) * (1.0 - v_base * v_base))
    )


# Flat-space shock-tube regression case: left (1e8, 0.3), right (1e9, 0.6).
# Middle state and speeds frozen from the independent jump-condition oracle
# below (solved with scipy to 1e-13 and cross-checked by hand).
TUBE_LEFT = (1e8, 0.3)
TUBE_RIGHT = (1e9, 0.6)
TUBE_MIDDLE = (202_697_484.93, 0.00204131070)
TUBE_SPEEDS = (-0.484900887599, 0.578709541022, 0.874436559411)
TWO_SHOCK_LEFT = (2.0, 0.5)
TWO_SHOCK_RIGHT = (1.0, -0.4)


def s1_curve(u, eos):
    """(dr, ds) along the 1-shock curve; the 2-shock curve is the mirror
    image with dr and ds exchanged."""
    p, cu, _, _ = riemann._curve(u, eos)
    return p - cu, p + cu


def f_minus(beta):
    """Growing shock factor in [1, inf): the density ratio across a shock."""
    return riemann._f_big(beta)


def f_plus(beta):
    """Decaying shock factor in (0, 1], the reciprocal branch."""
    return 1.0 / riemann._f_big(beta)


def u_of(beta):
    """Shock strength in the solver's parameter u = ln f(beta) = arccosh(1 + beta)."""
    return 2.0 * np.arcsinh(np.sqrt(0.5 * beta))


def middle(sol, k=0):
    return sol.rho_mid[k], sol.v_mid[k]


def sample_one(left, right, xi, eos):
    rho, v = sample_solution(solve_one(left, right, eos), np.asarray([xi]))
    return rho[0], v[0]


def minkowski_flux(rho, v, eos):
    u0, u1 = fluid.conserved_arrays(rho, v, eos)
    return np.array([u0, u1]), np.array([u1, fluid.t11_arrays(u1, rho, v, eos)])


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
    dr, ds = s1_curve(0.0, eos)
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
    dr, ds = s1_curve(u_of(BETA_GRID), eos)
    assert np.all(dr < 0.0) and np.all(ds < 0.0)
    assert np.all(np.diff(dr) < 0.0) and np.all(np.diff(ds) < 0.0)


def test_u_form_curve_matches_log_form(eos):
    """The closed form in u = ln f(beta) is the curve (-0.5 ln f(2K beta)
    -/+ sqrt(K/2) ln f(beta)), here evaluated at 50 digits because the
    float log form itself loses ~1e-13 to cancellation at beta = 1e-6."""
    mpmath.mp.dps = 50
    dr, ds = s1_curve(u_of(BETA_GRID), eos)
    k = mpmath.mpf(eos.K)
    for j, b in enumerate(BETA_GRID):
        bm = mpmath.mpf(b)
        t_v = -mpmath.log(1 + 2 * k * bm + mpmath.sqrt(2 * k * bm * (2 * k * bm + 2))) / 2
        t_r = mpmath.sqrt(k / 2) * mpmath.log(1 + bm + mpmath.sqrt(bm * (bm + 2)))
        scale = float(abs(t_v) + abs(t_r))
        assert abs(dr[j] - float(t_v - t_r)) <= 1e-14 * scale
        assert abs(ds[j] - float(t_v + t_r)) <= 1e-14 * scale
    # and the float log form agrees wherever it does not cancel
    big = BETA_GRID >= 1e-2
    t_v = -0.5 * np.log(f_minus(2.0 * eos.K * BETA_GRID[big]))
    t_r = eos.sqrt_K_half * np.log(f_minus(BETA_GRID[big]))
    np.testing.assert_allclose(dr[big], t_v - t_r, rtol=1e-14)


def test_shock_curves_mirror_images(eos, rng):
    """The 2-shock of a mirrored problem (sides swapped, v -> -v) retraces
    the 1-shock of the original with dr and ds exchanged."""
    rho, v = random_states(rng, 400, rho_lo=1e-2, rho_hi=1e2, v_max=0.9)
    sol = solve_pairs(rho[::2], v[::2], rho[1::2], v[1::2], eos)
    mir = solve_pairs(rho[1::2], -v[1::2], rho[::2], -v[::2], eos)
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
    assert solve_one(TUBE_LEFT, TUBE_RIGHT, eos).region[0] == REGION_III


def test_region_mirror_symmetry(eos, rng):
    """Reflecting v -> -v and swapping sides maps region I <-> III."""
    swap = {REGION_I: REGION_III, REGION_III: REGION_I,
            REGION_II: REGION_II, REGION_IV: REGION_IV}
    rho, v = random_states(rng, 80, rho_lo=1e-2, rho_hi=1e2, v_max=0.9)
    sol = solve_pairs(rho[::2], v[::2], rho[1::2], v[1::2], eos)
    mir = solve_pairs(rho[1::2], -v[1::2], rho[::2], -v[::2], eos)
    for k in range(sol.region.size):
        assert mir.region[k] == swap[sol.region[k]]
        assert mir.rho_mid[k] == pytest.approx(sol.rho_mid[k], rel=1e-6)
        assert mir.v_mid[k] == pytest.approx(-sol.v_mid[k], abs=1e-8)


def test_degenerate_input_short_circuits(eos):
    s = (3.0, -0.2)
    sol = solve_one(s, s, eos)
    assert sol.rho_mid[0] == pytest.approx(3.0)
    assert sol.v_mid[0] == pytest.approx(-0.2)
    assert not sol.shock1[0] and not sol.shock2[0]


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
    assert sol.shock1[0]
    assert not sol.shock2[0]
    head1, _, head2, tail2 = edge_speeds(sol)
    assert head1[0] == pytest.approx(TUBE_SPEEDS[0], abs=1e-9)
    assert head2[0] == pytest.approx(TUBE_SPEEDS[1], abs=1e-9)
    assert tail2[0] == pytest.approx(TUBE_SPEEDS[2], abs=1e-9)
    # the fan edges are the characteristic speeds of the bounding states
    assert head2[0] == pytest.approx(
        fluid.lorentz_compose(sol.v_mid[0], eos.sound_speed), rel=1e-12
    )
    assert tail2[0] == pytest.approx(
        fluid.lorentz_compose(TUBE_RIGHT[1], eos.sound_speed), rel=1e-12
    )


def test_tube_shock_satisfies_jump_conditions(eos):
    sol = solve_one(TUBE_LEFT, TUBE_RIGHT, eos)
    assert rh_residual(TUBE_LEFT, middle(sol), edge_speeds(sol)[0][0], eos) < 1e-8


def test_two_shock_case(eos):
    left, right = TWO_SHOCK_LEFT, TWO_SHOCK_RIGHT
    sol = solve_one(left, right, eos)
    assert sol.region[0] == REGION_II
    assert sol.rho_mid[0] == pytest.approx(4.2801066725, rel=1e-9)
    assert sol.v_mid[0] == pytest.approx(0.2145633005, abs=1e-9)
    head1, _, head2, _ = edge_speeds(sol)
    assert head1[0] == pytest.approx(-0.2965361358, abs=1e-9)
    assert head2[0] == pytest.approx(0.5810869968, abs=1e-9)
    # density ratios across each shock are the two f branches
    assert sol.rho_mid[0] / left[0] == pytest.approx(f_minus(sol.beta1[0]), rel=1e-8)
    assert right[0] / sol.rho_mid[0] == pytest.approx(f_plus(sol.beta2[0]), rel=1e-8)
    # both shocks satisfy the jump conditions in the lab frame
    assert rh_residual(left, middle(sol), head1[0], eos) < 1e-8
    assert rh_residual(right, middle(sol), head2[0], eos) < 1e-8


def test_two_shock_speed_frame_independence(eos):
    """Composing the rest-frame speed from either side of each shock must
    give the same lab speed."""
    sol = solve_one(TWO_SHOCK_LEFT, TWO_SHOCK_RIGHT, eos)
    beta1, beta2 = sol.beta1[0], sol.beta2[0]
    s2_from_right = fluid.lorentz_compose(
        TWO_SHOCK_RIGHT[1],
        np.sqrt((f_minus(beta2) + eos.sigma) / (f_minus(beta2) + 1.0 / eos.sigma)),
    )
    assert edge_speeds(sol)[2][0] == pytest.approx(s2_from_right, rel=1e-9)
    s1_from_middle = fluid.lorentz_compose(
        sol.v_mid[0],
        -np.sqrt((f_plus(beta1) + eos.sigma) / (f_plus(beta1) + 1.0 / eos.sigma)),
    )
    assert edge_speeds(sol)[0][0] == pytest.approx(s1_from_middle, rel=1e-9)


def test_weak_shock_moves_at_sound_speed(eos):
    sol = solve_one((1.0, 0.0), (1.0 + 1e-9, 0.0), eos)
    # a shock's speed and a rarefaction's head speed are both the head
    head1, _, head2, _ = edge_speeds(sol)
    for speed in (head1[0], head2[0]):
        assert abs(speed) == pytest.approx(eos.sound_speed, abs=1e-5)


def test_all_speeds_subluminal(eos, rng):
    rho, v = random_states(rng, 400, rho_lo=1e-3, rho_hi=1e3, v_max=0.95)
    sol = solve_interfaces(rho, v, eos)
    head1, tail1, head2, tail2 = edge_speeds(sol)
    for arr in (head1, tail1, head2, tail2):
        assert np.all(np.abs(arr) < 1.0)
    assert np.all(tail1 <= head2 + 1e-14)


def test_entropy_ordering_across_shocks(eos, rng):
    rho, v = random_states(rng, 400, rho_lo=1e-3, rho_hi=1e3, v_max=0.95)
    sol = solve_interfaces(rho, v, eos)
    s1 = sol.shock1
    s2 = sol.shock2
    assert np.all(sol.rho_mid[s1] > sol.rho_l[s1])
    assert np.all(sol.rho_mid[s2] > sol.rho_r[s2])


def test_fan_recomposition(eos, rng):
    """Retracing wave1 then wave2 from the left state lands on the right
    state in the invariant plane, within ten solver tolerances."""
    eps = 1e-10
    rho, v = random_states(rng, 2000, rho_lo=1e-4, rho_hi=1e4, v_max=0.97)
    rl, vl = rho[:-1], v[:-1]
    rr, vr = rho[1:], v[1:]
    sol = solve_interfaces(rho, v, eos, eps)
    r_l, s_l = fluid.invariant_arrays(rl, vl, eos)
    r_r, s_r = fluid.invariant_arrays(rr, vr, eos)
    dr1, ds1 = s1_curve(u_of(sol.beta1), eos)
    dr2s, ds2s = s1_curve(u_of(sol.beta2), eos)  # mirror for family 2
    shock1, shock2 = sol.shock1, sol.shock2
    r_end = r_l + np.where(shock1, dr1, sol.r_mid - r_l)
    s_end = s_l + np.where(shock1, ds1, 0.0)
    r_end = r_end + np.where(shock2, ds2s, 0.0)
    s_end = s_end + np.where(shock2, dr2s, s_r - s_end)
    dist = np.hypot(r_end - r_r, s_end - s_r)
    assert dist.max() < 10 * eps


SOLUTION_FIELDS = ("region", "beta1", "beta2", "r_mid", "s_mid", "rho_mid", "v_mid",
                   "shock1", "shock_speed1", "shock2", "shock_speed2")


def test_mixed_batch_matches_single_solves_bit_for_bit(eos, monkeypatch):
    """Each root find runs only on the interfaces that have its wave, so a
    row mixing every case solves each interface exactly as it is solved
    alone, as a row of two cells."""
    # (dr, ds) displacements in the invariant plane, each from the previous
    # cell; a pure shock of size 0.5 moves the other invariant by -2*sliver
    u_half = kernel_reference.solve_pure(np.array([-0.5]), eos, 1e-10)
    sliver = -0.5 * s1_curve(u_half, eos)[1][0]
    steps = [(0.5, 0.3), (-0.5, 0.3), (0.3, -0.5), (-0.5, -0.5), (-0.2, -0.05),
             (-sliver, -0.5), (-0.5, -sliver), (-1e-11, 0.3), (-1e-11, -0.5),
             (-1.05e-10, -1.05e-10), (0.0, 0.0), (1e-12, -1e-12)]
    r0, s0 = fluid.invariant_arrays(1.0, 0.1, eos)
    rho_c, v_c = fluid.fluid_from_invariant_arrays(
        r0 + np.cumsum([0.0] + [d[0] for d in steps]),
        s0 + np.cumsum([0.0] + [d[1] for d in steps]), eos)
    # the two-shock problem leads the row; its right state meets the first
    # stepped cell, (1.0, 0.1), in a pair of rarefactions
    rho = np.r_[TWO_SHOCK_LEFT[0], TWO_SHOCK_RIGHT[0], rho_c]
    v = np.r_[TWO_SHOCK_LEFT[1], TWO_SHOCK_RIGHT[1], v_c]
    r, s = fluid.invariant_arrays(rho, v, eos)
    dr, ds = np.diff(r), np.diff(s)

    calls = []
    solve_legs = riemann._solve_legs

    def spy(*args):
        calls.append(args[:-2])
        return solve_legs(*args)
    monkeypatch.setattr(riemann, "_solve_legs", spy)
    batch = solve_interfaces(rho, v, eos)

    quadrant_ii = (dr < 0) & (ds < 0)
    genuine = batch.region == REGION_II
    assert set(batch.region) == {REGION_I, REGION_II, REGION_III, REGION_IV}
    assert genuine.sum() == 3
    # (-,-) slivers fall to I or III, and both displacements below the
    # beta-floor threshold leave no wave at all (IV)
    reclassified = set(batch.region[quadrant_ii & ~genuine])
    assert reclassified == {REGION_I, REGION_III, REGION_IV}
    assert np.any((np.abs(dr) < 1e-10) & (dr < 0))
    # rarefactions and absent waves carry zero strength
    assert np.all(batch.beta1[~batch.shock1] == 0.0)
    assert np.all(batch.beta2[~batch.shock2] == 0.0)
    # one leg solve, on exactly the single shocks of regions III (dr) and I
    # (ds) and the genuine two-shock pairs, each family's pairs last
    (t, m, n2), = calls
    n3, n1 = np.count_nonzero(batch.region == REGION_III), np.count_nonzero(batch.region == REGION_I)
    assert (m, n2, t.size) == (n3 + 3, 3, n3 + n1 + 6)
    assert np.array_equal(np.r_[t[:n3], t[m:m + n1]], np.r_[dr[batch.region == REGION_III],
                                                             ds[batch.region == REGION_I]])
    assert np.array_equal(t[n3:m], dr[genuine]) and np.array_equal(t[m + n1:], ds[genuine])

    for k in range(dr.size):
        one = solve_interfaces(rho[k:k + 2], v[k:k + 2], eos)
        for name in SOLUTION_FIELDS:
            got = getattr(batch, name)[k:k + 1]
            assert getattr(one, name).tobytes() == got.tobytes(), (k, name)
        for j, (alone, batched) in enumerate(zip(edge_speeds(one), edge_speeds(batch))):
            assert alone.tobytes() == batched[k:k + 1].tobytes(), (k, j)


ROW_FIELDS = ("rho_l", "v_l", "rho_r", "v_r", "r_right", "s_left") + SOLUTION_FIELDS


def test_row_solve_matches_each_interface_alone_bit_for_bit(eos, rng):
    """The row is guarded and mapped to (r, s) once per cell; each interface
    still gets, field by field, the bytes of its own two-cell row."""
    rho, v = random_states(rng, 400, rho_lo=1e-3, rho_hi=1e3, v_max=0.95)
    row = solve_interfaces(rho, v, eos)
    assert set(row.region) == {REGION_I, REGION_II, REGION_III, REGION_IV}
    for k in range(row.region.size):
        one = solve_interfaces(rho[k:k + 2], v[k:k + 2], eos)
        for name in ROW_FIELDS:
            assert getattr(one, name).tobytes() == getattr(row, name)[k:k + 1].tobytes(), \
                (k, name)
        for j, (alone, in_row) in enumerate(zip(edge_speeds(one), edge_speeds(row))):
            assert alone.tobytes() == in_row[k:k + 1].tobytes(), (k, j)


def test_newton_batch_converging_at_different_iterations_matches_single_solves(eos, monkeypatch):
    """Single shocks and two-shock pairs frozen at different iterations stay
    frozen, in the work arrays or (with _COMPACT_AT = 1) compacted out of
    them one by one; each ends on the same bits as its own solve, and an
    empty batch returns an empty result without evaluating the residual."""
    sizes = []
    curve = riemann._curve

    def spy(u, eos_):
        sizes.append(u.size)
        return curve(u, eos_)
    monkeypatch.setattr(riemann, "_curve", spy)

    # 1-legs: single shocks, then pairs (dr); 2-legs likewise (ds).  Pairs
    # come from strengths u1, u2 > 0, so they are genuine two-shock data.
    single = -np.geomspace(1e-9, 40.0, 17)
    u1, u2 = np.geomspace(1e-4, 30.0, 9), np.geomspace(20.0, 1e-3, 9)
    (p1, cu1, _, _), (p2, cu2, _, _) = curve(u1, eos), curve(u2, eos)
    dr, ds = (p1 - cu1) + (p2 + cu2), (p1 + cu1) + (p2 - cu2)
    t = np.r_[single[:8], dr, single[8:], ds]
    m, n2 = 8 + u1.size, u1.size
    # the curve values at each leg's frozen iterate are those of the
    # reference solvers' roots
    u_ref = np.r_[kernel_reference.solve_pure(single[:8], eos, 1e-10),
                  kernel_reference.solve_two_shock(dr, ds, eos, 1e-10)[0],
                  kernel_reference.solve_pure(single[8:], eos, 1e-10),
                  kernel_reference.solve_two_shock(dr, ds, eos, 1e-10)[1]]
    p, cu, h, _ = curve(u_ref, eos)
    expected = np.array([p + cu, p - cu, h])
    max_newton = riemann._MAX_NEWTON
    for compact_at in (riemann._COMPACT_AT, 1):
        monkeypatch.setattr(riemann, "_COMPACT_AT", compact_at)
        monkeypatch.setattr(riemann, "_MAX_NEWTON", max_newton)
        sizes.clear()
        batch = np.asarray(riemann._solve_legs(t, m, n2, eos, 1e-10))
        assert len(sizes) > 2
        if compact_at == 1:   # shrinking iterates, then a pass over every leg
            newton, last = sizes[:-1], sizes[-1]
            assert len(set(newton)) > 2 and newton == sorted(newton, reverse=True), sizes
            assert last == t.size
        else:
            assert set(sizes) == {t.size}, sizes
        assert batch.tobytes() == expected.tobytes()
        for k in range(t.size):
            if k < 8 or m <= k < t.size - n2:     # a single shock: its own batch of one
                one = riemann._solve_legs(t[k:k + 1], int(k < m), 0, eos, 1e-10)
                assert np.asarray(one).tobytes() == batch[:, k:k + 1].tobytes(), k
        for i in range(n2):                        # a pair: its own batch of two legs
            one = riemann._solve_legs(np.r_[dr[i], ds[i]], 1, 1, eos, 1e-10)
            assert np.asarray(one).tobytes() == batch[:, [8 + i, t.size - n2 + i]].tobytes(), i
        # cut after two checks, the unknowns not converged by then are NaN
        # on every leg and the others keep their bits
        monkeypatch.setattr(riemann, "_MAX_NEWTON", 2)
        cut = np.asarray(riemann._solve_legs(t, m, n2, eos, 1e-10))
        lost = np.isnan(cut).any(axis=0)
        assert 0 < lost.sum() < t.size and np.isnan(cut[:, lost]).all()
        assert np.array_equal(lost[8:m], lost[t.size - n2:])
        assert cut[:, ~lost].tobytes() == batch[:, ~lost].tobytes()
    sizes.clear()
    empty = riemann._solve_legs(np.zeros(0), 0, 0, eos, 1e-10)
    assert np.shape(empty) == (3, 0) and np.asarray(empty).dtype == np.float64 and sizes == []


def test_one_curve_pass_per_newton_iterate_and_no_full_width_view_sampled(eos, monkeypatch):
    """On a row with shocks of both families and two-shock pairs, the solve
    evaluates _curve once for the region-II refinement and once per Newton
    iterate over every leg, and sampling at xi = 0 builds none of the four
    full-width shock views."""
    curves, slopes, views = [], [], []
    curve = riemann._curve

    def spy_curve(u, eos_):
        curves.append(u.size)
        p, cu, h, slope = curve(u, eos_)

        def spy_slope(*at):
            slopes.append(u.size)
            return slope(*at)
        return p, cu, h, spy_slope
    monkeypatch.setattr(riemann, "_curve", spy_curve)
    for name in ("shock1", "shock_speed1", "shock2", "shock_speed2"):
        view = getattr(riemann.RiemannGridSolution, name)
        monkeypatch.setattr(riemann.RiemannGridSolution, name,
                            property(lambda sol, view=view, name=name:
                                     views.append(name) or view.fget(sol)))
    steps = [(-0.5, 0.3), (0.3, -0.5), (-0.5, -0.4), (0.5, 0.3), (-0.3, -0.6), (0.2, -0.1)]
    dr, ds = np.array(steps * 3).T
    sol = solve_interfaces(*invariant_row(eos, dr, ds), eos)
    assert set(sol.region) == {REGION_I, REGION_II, REGION_III, REGION_IV}
    legs = sol.w1.size + sol.w2.size
    quadrant_ii = np.count_nonzero((dr < 0) & (ds < 0))
    # the refinement, then each iterate: every one but the last takes a step
    assert curves[0] == quadrant_ii and set(curves[1:]) == {legs}
    assert len(curves) - 1 == len(slopes) + 1 >= 2
    rho, v = sample_solution(sol, 0.0)
    assert views == []
    for new, old in zip((rho, v), kernel_reference.sample_solution(sol, 0.0)):
        assert new.tobytes() == old.tobytes()


def test_rarefaction_batch_evaluates_no_shock_speed(eos, monkeypatch):
    """An all-region-IV row runs no shock machinery: no curve, Newton or
    shock-speed formula is called, not even on an empty array."""
    called = []

    def spy(owner, name):
        fn = getattr(owner, name)

        def wrapped(*args):
            called.append(name)
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapped)

    for name in ("_curve", "_solve_legs", "_f_big", "_rest_frame_shock_speed", "_shock_speeds"):
        spy(riemann, name)
    rho = np.full(5, 2.0)
    v = np.array([-0.2, -0.1, 0.0, 0.3, 0.5])
    sol = solve_interfaces(rho, v, eos)
    assert set(sol.region) == {REGION_IV}
    assert called == [], called


def test_nonphysical_input_names_first_bad_cell(eos):
    """The row passes fluid.check_fluid, which names the cell."""
    with pytest.raises(NonPhysicalState, match=r"rho must be positive at index 1 \(rho=nan\)"):
        solve_interfaces([1, np.nan, 1], [0.1, 0.1, 0.2], eos)
    with pytest.raises(NonPhysicalState, match=r"\|v\| must be < 1 at index 2 \(v=nan\)"):
        solve_interfaces([1, 2, 1], [0.1, 0.1, np.nan], eos)


@pytest.mark.parametrize("ratio", [1e36, 1e40])
@pytest.mark.parametrize("mirror", [False, True])
def test_a_middle_state_at_light_speed_names_its_interface(ratio, mirror, eos):
    """A density jump this large at rest rounds the middle velocity to +1
    (dense side left, region I) or, mirrored, to -1 (region III); the solve
    refuses it at that interface with both sides instead of returning it."""
    pair, v_mid, region = ([1.0, ratio], -1.0, REGION_III) if mirror else \
        ([ratio, 1.0], 1.0, REGION_I)
    with pytest.raises(NonPhysicalState) as info:
        solve_interfaces(np.repeat(pair, 2), np.zeros(4), eos)
    assert info.value.index == 1
    assert str(info.value) == (
        f"Riemann middle state: |v| must be < 1 at interface 1 (v={v_mid:.6e}), "
        f"left (rho, v) = ({pair[0]:.6e}, {0.0:.6e}), "
        f"right (rho, v) = ({pair[1]:.6e}, {0.0:.6e})")
    # a jump of 1e30 still resolves |v| < 1, in the same region
    sol = solve_interfaces(np.array(pair) ** (30.0 / np.log10(ratio)), [0.0, 0.0], eos)
    assert sol.region[0] == region and 0.0 < v_mid * sol.v_mid[0] < 1.0


def test_a_smooth_row_refuses_a_middle_state_outside_the_physical_region(eos):
    """The smooth-row exit is guarded too: two rarefactions into vacuum
    underflow the middle density to 0, and a uniform row at the largest
    speed below 1 rounds the middle velocity to 1."""
    v = np.nextafter(1.0, 0.0)
    with pytest.raises(NonPhysicalState, match=r"^Riemann middle state: rho must be "
                       r"positive at interface 0 \(rho=0\.0+e\+00\), left"):
        solve_interfaces([1e-307, 1e-307], [-v, v], eos)
    with pytest.raises(NonPhysicalState, match=r"^Riemann middle state: \|v\| must be "
                       r"< 1 at interface 0 \(v=1\.0+e\+00\), left"):
        solve_interfaces([1.0, 1.0], [v, v], eos)


def test_newton_failure_names_interface_and_states(eos, monkeypatch):
    """With one residual check allowed, the two-shock start is not converged;
    the error names the interface, its displacements and both states."""
    monkeypatch.setattr(riemann, "_MAX_NEWTON", 1)
    (rho_l, v_l), (rho_r, v_r) = TWO_SHOCK_LEFT, TWO_SHOCK_RIGHT
    r_l, s_l = fluid.invariant_arrays(rho_l, v_l, eos)
    r_r, s_r = fluid.invariant_arrays(rho_r, v_r, eos)
    expected = (f"interface 1: (dr, ds) = ({r_r - r_l:.6e}, {s_r - s_l:.6e}), "
                f"left (rho, v) = ({rho_l:.6e}, {v_l:.6e}), "
                f"right (rho, v) = ({rho_r:.6e}, {v_r:.6e})")
    with pytest.raises(RelshockError, match="did not converge") as info:
        solve_interfaces([rho_l, rho_l, rho_r], [v_l, v_l, v_r], eos)
    assert expected in str(info.value)


def reference_edge_speeds(sol):
    """The four edge speeds as the solver once stored them: characteristic
    speeds of the bounding states, overwritten on shock entries by the
    shock speed."""
    eos = sol.eos
    a = eos.sound_speed
    w1, w2 = sol.shock1, sol.shock2
    head1 = fluid.lorentz_compose(sol.v_l, -a)
    tail1 = fluid.lorentz_compose(sol.v_mid, -a)
    s1_rest = -riemann._rest_frame_shock_speed(riemann._f_big(sol.beta1[w1]), eos)
    head1[w1] = tail1[w1] = fluid.lorentz_compose(sol.v_l[w1], s1_rest)
    head2 = fluid.lorentz_compose(sol.v_mid, a)
    tail2 = fluid.lorentz_compose(sol.v_r, a)
    s2_rest = riemann._rest_frame_shock_speed(1.0 / riemann._f_big(sol.beta2[w2]), eos)
    head2[w2] = tail2[w2] = fluid.lorentz_compose(sol.v_mid[w2], s2_rest)
    return head1, tail1, head2, tail2


def reference_sample(sol, xi):
    """The lambda-space sampler: xi compared with the edge-speed arrays."""
    eos = sol.eos
    head1, tail1, head2, tail2 = reference_edge_speeds(sol)
    xi = np.asarray(xi, dtype=float)
    shape = np.broadcast_shapes(xi.shape, sol.rho_mid.shape)

    def at(a, mask):
        return np.broadcast_to(a, shape)[mask]

    rho = np.broadcast_to(sol.rho_mid, shape).copy()
    v = np.broadcast_to(sol.v_mid, shape).copy()
    left_of_1 = xi <= head1
    rho[left_of_1] = at(sol.rho_l, left_of_1)
    v[left_of_1] = at(sol.v_l, left_of_1)
    in_fan1 = (~sol.shock1) & (xi > head1) & (xi < tail1)
    if in_fan1.any():
        v[in_fan1] = fluid.lorentz_compose(at(xi, in_fan1), eos.sound_speed)
        rho[in_fan1] = fluid.partial_density(at(sol.s_left, in_fan1), "s", v[in_fan1], eos)
    right_of_2 = xi >= tail2
    rho[right_of_2] = at(sol.rho_r, right_of_2)
    v[right_of_2] = at(sol.v_r, right_of_2)
    in_fan2 = (~sol.shock2) & (xi > head2) & (xi < tail2)
    if in_fan2.any():
        v[in_fan2] = fluid.lorentz_compose(at(xi, in_fan2), -eos.sound_speed)
        rho[in_fan2] = fluid.partial_density(at(sol.r_right, in_fan2), "r", v[in_fan2], eos)
    return rho, v


def sampling_batch(eos, rng):
    """A row of random cells, then of pairs whose interfaces are transonic
    1- and 2-rarefactions (a fan that straddles xi = 0), with 1- and
    2-shocks moving both ways."""
    rho, v = random_states(rng, 4000, rho_lo=1e-3, rho_hi=1e3, v_max=0.95)
    a = eos.sound_speed
    v_sonic = np.r_[rng.uniform(a - 0.3, a - 0.01, 50), rng.uniform(-0.95, -a - 0.01, 50)]
    r, s = fluid.invariant_arrays(np.ones(100), v_sonic, eos)
    d = rng.uniform(0.5, 2.0, 100)
    rho_r, v_r = fluid.fluid_from_invariant_arrays(r + np.r_[d[:50], np.zeros(50)],
                                                   s + np.r_[np.zeros(50), d[50:]], eos)
    sol = solve_interfaces(*pair_row(np.r_[rho[::2], np.ones(100)], np.r_[v[::2], v_sonic],
                                     np.r_[rho[1::2], rho_r], np.r_[v[1::2], v_r]), eos)
    head1, tail1, head2, tail2 = reference_edge_speeds(sol)
    on1, on2 = sol.shock1, sol.shock2
    assert np.any(~on1 & (head1 < 0) & (tail1 > 0)) and np.any(~on2 & (head2 < 0) & (tail2 > 0))
    for on, speed in ((on1, head1), (on2, head2)):
        assert np.any(on & (speed < 0)) and np.any(on & (speed > 0))
    return sol


def invariant_row(eos, dr, ds, phi0=0.0):
    """Cells whose invariants (r, s) step by (dr, ds) from rapidity phi0 at
    rho = 1."""
    r0, s0 = fluid.invariant_arrays(1.0, np.tanh(phi0), eos)
    return fluid.fluid_from_invariant_arrays(r0 + np.cumsum(np.r_[0.0, dr]),
                                             s0 + np.cumsum(np.r_[0.0, ds]), eos)


def one_family_rows(eos, rng, n=300):
    """Rows with (a) no shock at all, (b) 2-shocks only (region I, as in a
    static TOV row) and (c) 1-shocks only.  An invariant that never falls
    makes no shock of its family.  The smooth row has a transonic fan of
    each family: a large s step where the 2-fan opens (the middle state)
    just below v = -a, and a large r step where the 1-fan opens (the left
    state) just below v = a."""
    dr, ds = rng.uniform(1e-3, 0.02, (2, n))
    sonic = np.arctanh(eos.sound_speed)   # rapidity of v = a
    for step, at_sonic, to_opening in ((ds, -sonic, dr), (dr, sonic, 0.0)):
        phi = np.cumsum(np.r_[-1.5, 0.5 * (dr + ds)])[:-1] + 0.5 * to_opening
        step[np.argmax(phi >= at_sonic) - 1] += 0.2
    walk = rng.uniform(0.0, 0.3, n) * (-1.0) ** np.arange(n)
    rows = [invariant_row(eos, dr, ds, -1.5)]
    rows += [invariant_row(eos, *steps) for steps in ((dr, walk), (walk, ds))]
    sols = [solve_interfaces(rho, v, eos) for rho, v in rows]
    smooth, only2, only1 = sols
    assert set(smooth.region) == {REGION_IV}
    head1, tail1, head2, tail2 = edge_speeds(smooth)
    assert np.any((head1 < 0) & (tail1 > 0)) and np.any((head2 < 0) & (tail2 > 0))
    assert set(only2.region) == {REGION_I, REGION_IV}
    assert set(only1.region) == {REGION_III, REGION_IV}
    return sols


@pytest.mark.parametrize("sigma", [0.1, 1.0 / 3.0, 0.6])
def test_sampler_equals_the_where_sampler_bit_for_bit(sigma, rng):
    """Sharing each family's edge comparison between the side and fan tests,
    writing the 2-family states in place and testing shocks on the legs
    alone keep the bytes of the np.where sampler, for scalar, per-interface
    and broadcast xi, on edges, outside the light cone and at NaN: on a
    mixed batch, a smooth row, and rows with shocks of one family only; and
    for one interface (a shock of each family, two shocks, a 1-shock and
    2-rarefaction) against many xi."""
    eos = EosParams(sigma)
    for sol in (sampling_batch(eos, rng), *one_family_rows(eos, rng)):
        m = sol.rho_mid.size
        cases = [0.0, -0.3, 0.7, 1.5, np.float64(-2.0), np.nan, np.zeros(m),
                 rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, (7, 1)),
                 np.array([-3.0, -1.0, 1.0, 3.0])[:, None], *edge_speeds(sol)]
        for xi in cases:
            for new, old in zip(sample_solution(sol, xi),
                                kernel_reference.sample_solution(sol, xi)):
                assert new.shape == old.shape and new.tobytes() == old.tobytes()
    # one interface against many xi, as the riemann command samples it
    grid = np.linspace(-1.0, 1.0, 201)
    for left, right in ((TUBE_LEFT, TUBE_RIGHT), (TWO_SHOCK_LEFT, TWO_SHOCK_RIGHT),
                        (TUBE_RIGHT, TUBE_LEFT)):
        sol = solve_one(left, right, eos)
        for xi in (grid, grid[:, None], grid.reshape(3, 67), np.array([0.1]), 0.1):
            for new, old in zip(sample_solution(sol, xi),
                                kernel_reference.sample_solution(sol, xi)):
                assert new.shape == old.shape and new.tobytes() == old.tobytes()


@pytest.mark.parametrize("sigma", [0.1, 1.0 / 3.0])
def test_shock_fields_built_from_legs_equal_the_eager_ones(sigma):
    """The full-width shock masks, speeds and strengths a solution builds
    from its legs when read, and every other field, are the bytes of the
    eager solver that filled them at once, over a random sweep of 200k
    interfaces and over a smooth row."""
    eos = EosParams(sigma)
    rng = np.random.default_rng(18)
    rho, v = random_states(rng, 200_001, rho_lo=1e-3, rho_hi=1e3, v_max=0.95)
    smooth = invariant_row(eos, *rng.uniform(1e-3, 0.02, (2, 300)), -1.5)
    for rho, v in ((rho, v), smooth):
        new, old = solve_interfaces(rho, v, eos), kernel_reference.solve_interfaces(rho, v, eos)
        for name in SOLUTION_FIELDS:
            a, b = getattr(new, name), getattr(old, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert not new.shock1.flags.writeable


def test_lazy_edge_speeds_equal_the_stored_ones(eos, rng):
    sol = sampling_batch(eos, rng)
    for new, ref in zip(edge_speeds(sol), reference_edge_speeds(sol)):
        assert new.tobytes() == ref.tobytes()


def test_velocity_space_sampler_is_bit_identical_at_xi_zero(eos, rng):
    """The scheme samples at xi = 0 only; there the velocity-space edge
    tests decide exactly as the speed comparisons (the sign of lambda(v)
    is the sign of v -+ a), so the states are the same bits."""
    sol = sampling_batch(eos, rng)
    for xi in (0.0, np.zeros(sol.rho_mid.size)):
        for new, ref in zip(sample_solution(sol, xi), reference_sample(sol, xi)):
            assert new.tobytes() == ref.tobytes()


def test_velocity_space_sampler_within_four_ulp_anywhere(eos, rng):
    """At arbitrary xi, per interface, broadcast and outside the light
    cone, the two samplers agree to 4 ulp.  Exactly on an edge speed the
    rounding of w can put the state on the other side of the edge; there
    v agrees to 4 ulp of 1 and rho to the accuracy with which the fan's
    closed form meets its bounding state."""
    sol = sampling_batch(eos, rng)
    cases = [rng.uniform(-1.0, 1.0, sol.rho_mid.size), rng.uniform(-1.0, 1.0, (7, 1)),
             np.array([-3.0, -1.5, -1.0, 1.0, 1.5, 3.0])[:, None]]
    for xi in cases:
        for new, ref in zip(sample_solution(sol, xi), reference_sample(sol, xi)):
            assert new.shape == ref.shape
            assert np.all(np.abs(new - ref) <= 4 * np.spacing(np.abs(ref)))
    for xi in reference_edge_speeds(sol):
        (rho, v), (rho_ref, v_ref) = sample_solution(sol, xi), reference_sample(sol, xi)
        assert np.all(np.abs(v - v_ref) <= 4 * np.spacing(1.0))
        np.testing.assert_allclose(rho, rho_ref, rtol=1e-12, atol=0.0)


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
    assert fluid.lorentz_compose(v, eos.sound_speed) == pytest.approx(xi, abs=1e-10)
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
    sol = solve_interfaces(rho, v, eos)
    shock1, shock2 = sol.shock1, sol.shock2
    head1, _, head2, tail2 = edge_speeds(sol)
    checked_shocks = 0
    for k in range(sol.region.size):
        left = (sol.rho_l[k], sol.v_l[k])
        right = (sol.rho_r[k], sol.v_r[k])
        if shock1[k] and sol.beta1[k] > 1e-8:
            assert rh_residual(left, middle(sol, k), head1[k], eos) < 1e-6
            checked_shocks += 1
        else:
            assert head1[k] == pytest.approx(
                fluid.lorentz_compose(left[1], -eos.sound_speed), rel=1e-12
            )
        if shock2[k] and sol.beta2[k] > 1e-8:
            assert rh_residual(right, middle(sol, k), head2[k], eos) < 1e-6
            checked_shocks += 1
        else:
            assert tail2[k] == pytest.approx(
                fluid.lorentz_compose(right[1], eos.sound_speed), rel=1e-12
            )
    assert checked_shocks > 20


def test_general_sigma_round_trip():
    """Nothing in the solver is tied to the radiation value of sigma."""
    eos = EosParams(0.1)
    left, right = (5.0, 0.2), (1.0, -0.1)
    sol = solve_one(left, right, eos)
    if sol.shock1[0]:
        assert rh_residual(left, middle(sol), edge_speeds(sol)[0][0], eos) < 1e-8
    if sol.shock2[0]:
        assert rh_residual(right, middle(sol), edge_speeds(sol)[2][0], eos) < 1e-8
