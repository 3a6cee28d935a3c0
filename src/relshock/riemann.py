"""Exact Riemann solver for the flat-space relativistic p = sigma*rho system.

The solver works in the (r, s) invariant plane, where both rarefaction
curves are straight lines and the shock curves are rigid translates of a
single shape, so the middle state reduces to one or two scalar root finds.
Shock curves are parametrized by beta >= 0; the density ratio across a
shock of strength beta equals the growing branch of
f(beta) = 1 + beta*(1 + sqrt(1 + 2/beta)), and the jump in the velocity
rapidity is -0.5*ln f(2K beta).

Everything is vectorized: :func:`solve_interfaces` takes one array per
side and returns a :class:`RiemannGridSolution` holding middle states,
wave speeds and shock strengths for all interfaces at once, and
:func:`sample_solution` evaluates it at any self-similar speed.  A single
problem is a batch of one.  Each root find runs only on the interfaces
that have its wave: one pure-curve bisection over every negative
displacement (regions I and III, and the side-of-curve test in the (-,-)
quadrant), then the coupled two-shock solve on the genuine region II
interfaces; region IV needs none.  The root finders are elementwise, so
an interface solves to the same bits alone or in any batch.
"""

from __future__ import annotations

import numpy as np

from . import fluid
from .errors import RelshockError
from .fluid import EosParams

__all__ = [
    "REGION_I",
    "REGION_II",
    "REGION_III",
    "REGION_IV",
    "REGION_NAMES",
    "beta_of",
    "RiemannGridSolution",
    "solve_interfaces",
    "sample_solution",
]

REGION_I, REGION_II, REGION_III, REGION_IV = 1, 2, 3, 4
REGION_NAMES = {REGION_I: "I", REGION_II: "II", REGION_III: "III", REGION_IV: "IV"}

_MAX_BISECT = 200


def _f_big(beta):
    """Growing branch 1 + beta*(1 + sqrt(1 + 2/beta)) >= 1, continuous at 0."""
    beta = np.asarray(beta, dtype=float)
    return 1.0 + beta + np.sqrt(beta * (beta + 2.0))


def beta_of(v, v_base, eos: EosParams):
    """Shock-strength parameter for the jump between two velocities.

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


def _s1_curve(beta, eos: EosParams):
    """(dr, ds) along the 1-shock curve; the 2-shock curve is the mirror
    image with dr and ds exchanged."""
    t_v = -0.5 * np.log(_f_big(2.0 * eos.K * beta))
    t_r = eos.sqrt_K_half * np.log(_f_big(beta))
    return t_v - t_r, t_v + t_r


def _classify_arrays(dr, ds):
    """Quadrant of (dr, ds) = UR - UL; REGION_II is tentative (the two-shock
    solve may fall back to I or III for points between the shock curves and
    the axes)."""
    region = np.full(np.shape(dr), REGION_IV, dtype=np.int8)
    region[(dr < 0) & (ds >= 0)] = REGION_III
    region[(dr >= 0) & (ds < 0)] = REGION_I
    region[(dr < 0) & (ds < 0)] = REGION_II
    return region


def _walk_brackets(target, eos: EosParams):
    """Power-of-ten walk from beta = 1e5 to a sign-changing bracket for
    S1r(beta) = target (target < 0).

    Returns (lo, hi, floored): floored marks entries whose walk dropped
    below the beta floor, i.e. no positive-strength root exists down to
    1e-20; their bracket is [0, 1e-20].  In the (-,-) quadrant a floored
    strength means the state lies outside the two-shock region.
    """
    target = np.asarray(target, dtype=float)
    k = np.full(target.shape, 5, dtype=np.int64)
    g = _s1_curve(10.0 ** k.astype(float), eos)[0]

    # g decreasing in beta: g(beta) < target means the guess is too big.
    too_big = g < target
    down = too_big.copy()
    floored = np.zeros(target.shape, dtype=bool)
    for _ in range(5 + 21):
        active = down & too_big & ~floored
        if not active.any():
            break
        k[active] -= 1
        floored |= active & (k < -20)
        g2 = _s1_curve(10.0 ** k.astype(float), eos)[0]
        too_big = np.where(active & ~floored, g2 < target, too_big)
    lo = np.zeros(target.shape)
    hi = 10.0 ** (k + 1).astype(float)

    up = ~down
    if up.any():
        too_small = up & (g >= target)
        for _ in range(40):
            active = too_small.copy()
            if not active.any():
                break
            k[active] += 1
            g2 = _s1_curve(10.0 ** k.astype(float), eos)[0]
            too_small = active & (g2 >= target)
        lo = np.where(up, 10.0 ** (k - 1).astype(float), lo)
        hi = np.where(up, 10.0 ** k.astype(float), hi)
    return lo, hi, floored


def _bisect_s1r(target, eos: EosParams, eps: float):
    """Solve S1r(beta) = target (elementwise) to |residual| < eps.

    Entries with |target| < eps are returned as zero-strength (beta = 0);
    only the others are bracketed and bisected.  Returns (beta, floored),
    floored marking roots below 1e-20.
    """
    target = np.asarray(target, dtype=float)
    beta = np.zeros(target.shape)
    floored = np.zeros(target.shape, dtype=bool)
    need = np.abs(target) >= eps
    if not need.any():
        return beta, floored
    t = target[need]
    lo, hi, fl = _walk_brackets(t, eos)
    b = np.zeros(t.shape)
    done = np.zeros(t.shape, dtype=bool)
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        resid = t - _s1_curve(mid, eos)[0]
        conv = np.abs(resid) < eps
        b = np.where(conv & ~done, mid, b)
        done |= conv
        if done.all():
            break
        # resid > 0: curve value below target, guess too big.
        hi = np.where(~done & (resid > 0), mid, hi)
        lo = np.where(~done & (resid <= 0), mid, lo)
    if not done.all():
        raise RelshockError(
            f"single-curve bisection failed for {int((~done).sum())} interface(s)"
        )
    beta[need], floored[need] = b, fl
    return beta, floored


def _solve_two_shock(dr, ds, eos: EosParams, eps: float):
    """Alternating bisection for (beta1, beta2) on genuine two-shock data.

    Callers must have classified the inputs (both displacement targets
    strictly on the two-shock side of the pure curves).  Each residual is
    monotone increasing in its own parameter, and the coupling only pulls
    the roots toward zero, so [0, single-curve upper bracket] always
    brackets the coupled root.
    """
    dr = np.asarray(dr, dtype=float)
    ds = np.asarray(ds, dtype=float)
    _, hi1, floor1 = _walk_brackets(dr, eos)
    _, hi2, floor2 = _walk_brackets(ds, eos)
    lo1 = np.zeros(dr.shape)
    lo2 = np.zeros(ds.shape)
    active = ~(floor1 | floor2)

    beta1 = np.zeros(dr.shape)
    beta2 = np.zeros(dr.shape)
    done = ~active
    b1 = 0.5 * (lo1 + hi1)
    b2 = 0.5 * (lo2 + hi2)
    for _ in range(2 * _MAX_BISECT):
        c1 = _s1_curve(b1, eos)
        c2 = _s1_curve(b2, eos)
        resid_r = dr - (c1[0] + c2[1])
        resid_s = ds - (c1[1] + c2[0])
        conv = (np.abs(resid_r) < eps) & (np.abs(resid_s) < eps)
        newly = active & ~done & conv
        beta1 = np.where(newly, b1, beta1)
        beta2 = np.where(newly, b2, beta2)
        done |= conv
        if done.all():
            break
        # Step the parameter owning the larger residual; each residual is
        # increasing in its parameter, so resid > 0 caps the bracket.
        work = active & ~done
        step1 = work & (np.abs(resid_r) >= np.abs(resid_s))
        hi1 = np.where(step1 & (resid_r > 0), b1, hi1)
        lo1 = np.where(step1 & (resid_r <= 0), b1, lo1)
        step2 = work & ~step1
        hi2 = np.where(step2 & (resid_s > 0), b2, hi2)
        lo2 = np.where(step2 & (resid_s <= 0), b2, lo2)
        b1 = np.where(step1, 0.5 * (lo1 + hi1), b1)
        b2 = np.where(step2, 0.5 * (lo2 + hi2), b2)
    if not done.all():
        raise RelshockError(
            f"two-shock bisection failed for {int((~done).sum())} interface(s)"
        )
    return beta1, beta2


class RiemannGridSolution:
    """Middle states and wave data for a batch of Riemann problems.

    Attributes are parallel arrays, one entry per interface.  Wave speeds
    are in the local Minkowski frame of the cell; the scheme scales them by
    the cell's coordinate light speed when it needs coordinate speeds.
    """

    __slots__ = (
        "eos",
        "rho_l",
        "v_l",
        "rho_r",
        "v_r",
        "region",
        "beta1",
        "beta2",
        "r_mid",
        "s_mid",
        "rho_mid",
        "v_mid",
        "speed1_head",
        "speed1_tail",
        "speed2_head",
        "speed2_tail",
        "r_right",
        "s_left",
    )

    def __init__(self, eos, rho_l, v_l, rho_r, v_r):
        self.eos = eos
        self.rho_l = np.atleast_1d(np.asarray(rho_l, dtype=float))
        self.v_l = np.atleast_1d(np.asarray(v_l, dtype=float))
        self.rho_r = np.atleast_1d(np.asarray(rho_r, dtype=float))
        self.v_r = np.atleast_1d(np.asarray(v_r, dtype=float))

    def wave1_is_shock(self):
        return (self.region == REGION_II) | (self.region == REGION_III)

    def wave2_is_shock(self):
        return (self.region == REGION_I) | (self.region == REGION_II)


def solve_interfaces(rho_l, v_l, rho_r, v_r, eos: EosParams, eps: float = 1e-10):
    """Solve a batch of Riemann problems; see :class:`RiemannGridSolution`."""
    sol = RiemannGridSolution(eos, rho_l, v_l, rho_r, v_r)
    rL, sL = fluid.invariant_arrays(sol.rho_l, sol.v_l, eos)
    rR, sR = fluid.invariant_arrays(sol.rho_r, sol.v_r, eos)
    dr = rR - rL
    ds = sR - sL
    region = _classify_arrays(dr, ds)

    # One pure-curve solve over every negative displacement: dr gives the
    # region III 1-shock, ds the region I 2-shock, and in the (-,-)
    # quadrant both strengths the side-of-curve test below needs.
    neg_r, neg_s = dr < 0, ds < 0
    n_r = np.count_nonzero(neg_r)
    b, fl = _bisect_s1r(np.concatenate((dr[neg_r], ds[neg_s])), eos, eps)
    beta1, beta2 = np.zeros(dr.shape), np.zeros(dr.shape)
    fl1, fl2 = np.zeros(dr.shape, dtype=bool), np.zeros(dr.shape, dtype=bool)
    beta1[neg_r], fl1[neg_r] = b[:n_r], fl[:n_r]
    beta2[neg_s], fl2[neg_s] = b[n_r:], fl[n_r:]

    # The (-,-) quadrant is a superset of the two-shock region: thin
    # slivers between each shock curve and the axes belong to regions I
    # and III.  Decide membership exactly by which side of the pure curves
    # the point falls on (the power-walk beta floor is the degenerate
    # limit of the same test).
    ii = np.flatnonzero(region == REGION_II)
    if ii.size:
        to_I = fl1[ii] | (dr[ii] - _s1_curve(beta2[ii], eos)[1] > 0.0)
        to_III = ~to_I & (fl2[ii] | (ds[ii] - _s1_curve(beta1[ii], eos)[1] > 0.0))
        degen = fl1[ii] & fl2[ii]
        to_I &= ~degen
        region[ii[to_I]] = REGION_I
        region[ii[to_III]] = REGION_III
        region[ii[degen]] = REGION_IV
        beta1[ii[to_I | degen]] = 0.0
        beta2[ii[to_III | degen]] = 0.0
        g = ii[~(to_I | to_III | degen)]
        if g.size:
            beta1[g], beta2[g] = _solve_two_shock(dr[g], ds[g], eos, eps)

    # Middle state: rarefaction legs contribute straight-line displacements,
    # shock legs the curve displacements solved above.  Only region II
    # reaches r_mid from the left state.  A zero-strength shock's second
    # component, _s1_curve(0)[1], is exactly +0.0, so it leaves the
    # invariants of rarefaction-only legs unchanged to the bit.
    c1 = _s1_curve(beta1, eos)
    r_mid = np.where(region == REGION_II, rL + c1[0], rR - _s1_curve(beta2, eos)[1])
    s_mid = sL + c1[1]

    sol.region = region
    sol.beta1, sol.beta2 = beta1, beta2
    sol.r_mid, sol.s_mid = r_mid, s_mid
    sol.rho_mid, sol.v_mid = fluid.fluid_from_invariant_arrays(r_mid, s_mid, eos)
    sol.r_right, sol.s_left = rR, sL
    _attach_speeds(sol)
    return sol


def _rest_frame_shock_speed(f_value, eos: EosParams):
    sig = eos.sigma
    return np.sqrt((f_value + sig) / (f_value + 1.0 / sig))


def _attach_speeds(sol: RiemannGridSolution):
    """Coordinate-frame wave speeds (Minkowski cell, light speed 1).

    Rest-frame shock speeds are composed with the pre-wave state's velocity
    by the relativistic addition law; the 1-family speed is negative in the
    rest frame.  Rarefaction edges are the characteristic speeds of their
    bounding states.
    """
    eos = sol.eos
    shock1 = sol.wave1_is_shock()
    s1_rest = -_rest_frame_shock_speed(_f_big(sol.beta1), eos)
    s1 = fluid.lorentz_compose(sol.v_l, s1_rest)
    head1 = np.where(shock1, s1, fluid.lambda1_arrays(sol.v_l, eos))
    tail1 = np.where(shock1, s1, fluid.lambda1_arrays(sol.v_mid, eos))

    shock2 = sol.wave2_is_shock()
    s2_rest = _rest_frame_shock_speed(1.0 / _f_big(sol.beta2), eos)
    s2 = fluid.lorentz_compose(sol.v_mid, s2_rest)
    head2 = np.where(shock2, s2, fluid.lambda2_arrays(sol.v_mid, eos))
    tail2 = np.where(shock2, s2, fluid.lambda2_arrays(sol.v_r, eos))

    sol.speed1_head, sol.speed1_tail = head1, tail1
    sol.speed2_head, sol.speed2_tail = head2, tail2


def sample_solution(sol: RiemannGridSolution, xi):
    """Self-similar state at speed(s) xi for every interface in the batch.

    xi broadcasts against the interface arrays.  Fan interiors invert the
    matching eigenvalue and carry the invariant that is constant across
    that family (s across a 1-fan, r across a 2-fan); those formulas run
    on the fan entries only, so xi = +-1 never reaches the rapidity.
    """
    eos = sol.eos
    xi = np.asarray(xi, dtype=float)
    shape = np.broadcast_shapes(xi.shape, sol.rho_mid.shape)

    def at(a, mask):
        return np.broadcast_to(a, shape)[mask]

    rho = np.broadcast_to(sol.rho_mid, shape).copy()
    v = np.broadcast_to(sol.v_mid, shape).copy()

    left_of_1 = xi <= sol.speed1_head
    rho[left_of_1] = at(sol.rho_l, left_of_1)
    v[left_of_1] = at(sol.v_l, left_of_1)

    in_fan1 = (~sol.wave1_is_shock()) & (xi > sol.speed1_head) & (xi < sol.speed1_tail)
    if in_fan1.any():
        v[in_fan1] = fluid.v_from_lambda(at(xi, in_fan1), 1, eos)
        rho[in_fan1] = fluid.partial_density(at(sol.s_left, in_fan1), "s", v[in_fan1], eos)

    right_of_2 = xi >= sol.speed2_tail
    rho[right_of_2] = at(sol.rho_r, right_of_2)
    v[right_of_2] = at(sol.v_r, right_of_2)

    in_fan2 = (~sol.wave2_is_shock()) & (xi > sol.speed2_head) & (xi < sol.speed2_tail)
    if in_fan2.any():
        v[in_fan2] = fluid.v_from_lambda(at(xi, in_fan2), 2, eos)
        rho[in_fan2] = fluid.partial_density(at(sol.r_right, in_fan2), "r", v[in_fan2], eos)
    return rho, v
