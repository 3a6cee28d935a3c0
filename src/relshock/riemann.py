"""Exact Riemann solver for the flat-space relativistic p = sigma*rho system.

The solver works in the (r, s) invariant plane, where both rarefaction
curves are straight lines and the shock curves are rigid translates of a
single shape, so the middle state reduces to one scalar root find per
interface.  A shock of strength beta >= 0 multiplies the density by
f(beta) = 1 + beta*(1 + sqrt(1 + 2/beta)) and is parametrized here by
u = ln f(beta) = arccosh(1 + beta).  The 1-shock curve is then explicit,

    S1(u) = (p(u) - c*u, p(u) + c*u),   p(u) = -asinh(a*sinh(u/2)),

with a = sqrt(2K) and c = sqrt(K/2) (so a = 2c < 1), and the 2-shock curve
is its mirror image with the components exchanged.  Both components
decrease and are concave in u, so Newton started to the right of the root
converges monotonically: on the pure curve (regions I and III) from
u = -t/(a/2 + c), and for two shocks, where u1 - u2 = (ds - dr)/(2c) is
fixed and the problem is one equation in u1, from u1 = delta/2 - m/a.

Everything is vectorized: :func:`solve_interfaces` takes one array per
side and returns a :class:`RiemannGridSolution` holding middle states,
wave speeds and shock strengths for all interfaces at once, and
:func:`sample_solution` evaluates it at any self-similar speed.  A single
problem is a batch of one.  Each Newton solve runs only on the interfaces
that have its wave, and each entry is frozen at its first iterate with
|residual| < eps, so an interface solves to the same bits alone or in any
batch.
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
    "RiemannGridSolution",
    "solve_interfaces",
    "sample_solution",
]

REGION_I, REGION_II, REGION_III, REGION_IV = 1, 2, 3, 4
REGION_NAMES = {REGION_I: "I", REGION_II: "II", REGION_III: "III", REGION_IV: "IV"}

_MAX_NEWTON = 50
# u at beta = 1e-20, the weakest shock the (-,-) quadrant test counts
_U_FLOOR = 2.0 * np.arcsinh(np.sqrt(0.5e-20))


def _f_big(beta):
    """Growing branch 1 + beta*(1 + sqrt(1 + 2/beta)) >= 1, continuous at 0
    and finite for every finite beta."""
    beta = np.asarray(beta, dtype=float)
    return 1.0 + beta + np.sqrt(beta) * np.sqrt(beta + 2.0)


def _p(u, eos: EosParams):
    """Rapidity jump p(u) = -asinh(a*sinh(u/2)) = -0.5*ln f(2K beta) across
    a shock of strength u = ln f(beta)."""
    return -np.arcsinh(eos.sqrt_2K * np.sinh(0.5 * u))


def _p_slope(u, eos: EosParams):
    """dp/du, increasing in magnitude from a/2 at u = 0 toward 1/2."""
    a = eos.sqrt_2K
    return -0.5 * a * np.cosh(0.5 * u) / np.hypot(1.0, a * np.sinh(0.5 * u))


def _s1_curve(u, eos: EosParams):
    """(dr, ds) along the 1-shock curve; the 2-shock curve is the mirror
    image with dr and ds exchanged."""
    p = _p(u, eos)
    cu = eos.sqrt_K_half * u
    return p - cu, p + cu


def _classify_arrays(dr, ds):
    """Quadrant of (dr, ds) = UR - UL; REGION_II is tentative (points of the
    (-,-) quadrant between the shock curves and the axes belong to I or
    III)."""
    region = np.full(np.shape(dr), REGION_IV, dtype=np.int8)
    region[(dr < 0) & (ds >= 0)] = REGION_III
    region[(dr >= 0) & (ds < 0)] = REGION_I
    region[(dr < 0) & (ds < 0)] = REGION_II
    return region


def _newton(step, u, arrays, eos: EosParams, eps: float):
    """Elementwise Newton, u <- u + du, from a start right of the root.

    `step(u, eos, *arrays)` returns (|residual|, du).  Each entry is frozen
    at its first iterate with |residual| < eps and dropped from the work
    arrays, so its result does not depend on the batch.  Entries still
    unconverged after _MAX_NEWTON residual checks are NaN.
    """
    out = np.full(u.shape, np.nan)
    idx = np.arange(u.size)
    for _ in range(_MAX_NEWTON):
        if not idx.size:
            break
        resid, du = step(u, eos, *arrays)
        go = ~(resid < eps)
        out[idx[~go]] = u[~go]
        idx, u, arrays = idx[go], u[go] + du[go], [x[go] for x in arrays]
    return out


def _pure_step(u, eos, t):
    resid = t - _s1_curve(u, eos)[0]
    return np.abs(resid), resid / (_p_slope(u, eos) - eos.sqrt_K_half)


def _solve_pure(t, eos: EosParams, eps: float):
    """u with S1r(u) = t < 0, elementwise.  S1r is concave, decreasing, with
    slope at most -(a/2 + c), so u = -t/(a/2 + c) starts right of the root."""
    u0 = -t / (0.5 * eos.sqrt_2K + eos.sqrt_K_half)
    return _newton(_pure_step, u0, [t], eos, eps)


def _two_shock_step(u1, eos, dr, ds, delta):
    c1 = _s1_curve(u1, eos)
    c2 = _s1_curve(u1 - delta, eos)
    resid_r = dr - (c1[0] + c2[1])
    resid_s = ds - (c1[1] + c2[0])
    slope = _p_slope(u1, eos) + _p_slope(u1 - delta, eos)
    return np.maximum(np.abs(resid_r), np.abs(resid_s)), 0.5 * (resid_r + resid_s) / slope


def _solve_two_shock(dr, ds, eos: EosParams, eps: float):
    """(u1, u2) for genuine two-shock data.

    The two curve equations fix u1 - u2 = delta = (ds - dr)/(2c) and leave
    p(u1) + p(u1 - delta) = m = (dr + ds)/2, concave and decreasing in u1.
    Since p(u) <= -a*u/2, u1 = delta/2 - m/a starts right of the root.
    """
    delta = (ds - dr) / (2.0 * eos.sqrt_K_half)
    u0 = 0.5 * delta - 0.5 * (dr + ds) / eos.sqrt_2K
    u1 = _newton(_two_shock_step, u0, [dr, ds, delta], eos, eps)
    return u1, u1 - delta


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
        self.rho_l, self.v_l, self.rho_r, self.v_r = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (rho_l, v_l, rho_r, v_r)))

    def wave1_is_shock(self):
        return (self.region == REGION_II) | (self.region == REGION_III)

    def wave2_is_shock(self):
        return (self.region == REGION_I) | (self.region == REGION_II)


def solve_interfaces(rho_l, v_l, rho_r, v_r, eos: EosParams, eps: float = 1e-10):
    """Solve a batch of Riemann problems; see :class:`RiemannGridSolution`.

    Raises NonPhysicalState naming the first interface without rho > 0 and
    |v| < 1 on both sides (NaN included), and RelshockError naming the
    first interface whose Newton solve does not converge.
    """
    sol = RiemannGridSolution(eos, rho_l, v_l, rho_r, v_r)
    fluid._require((sol.rho_l > 0.0) & (sol.rho_r > 0.0), "rho must be positive",
                   rho_l=sol.rho_l, rho_r=sol.rho_r)
    fluid._require((np.abs(sol.v_l) < 1.0) & (np.abs(sol.v_r) < 1.0),
                   "|v| must be < 1", v_l=sol.v_l, v_r=sol.v_r)
    rL, sL = fluid.invariant_arrays(sol.rho_l, sol.v_l, eos)
    rR, sR = fluid.invariant_arrays(sol.rho_r, sol.v_r, eos)
    dr = rR - rL
    ds = sR - sL
    region = _classify_arrays(dr, ds)

    # The (-,-) quadrant is a superset of the two-shock region: the slivers
    # between each shock curve and the axes belong to regions I and III.  A
    # point is a genuine two-shock state iff the two-shock function is
    # positive where one strength vanishes, u1 = max(0, delta), i.e.
    # p(|delta|) > m.  A displacement of at least eps but smaller than that
    # of a beta = 1e-20 pure shock counts as no shock: both such -> IV, one
    # -> the region of the other shock.
    ii = np.flatnonzero(region == REGION_II)
    if ii.size:
        d1, d2 = -dr[ii], -ds[ii]
        thr = -_s1_curve(_U_FLOOR, eos)[0]
        fl1 = (d1 >= eps) & (d1 < thr)
        fl2 = (d2 >= eps) & (d2 < thr)
        delta = (d1 - d2) / (2.0 * eos.sqrt_K_half)
        outside = _p(np.abs(delta), eos) <= -0.5 * (d1 + d2)
        floored = fl1 | fl2
        to_I = np.where(floored, fl1, outside & (delta < 0))
        to_III = np.where(floored, fl2, outside & (delta > 0))
        region[ii[to_I]] = REGION_I
        region[ii[to_III]] = REGION_III
        region[ii[to_I & to_III]] = REGION_IV

    # Newton on the shock legs only: the pure curve for the single shock of
    # regions III (target dr) and I (target ds), the coupled solve for II.
    i1, i2, i3 = (np.flatnonzero(region == k) for k in (REGION_I, REGION_II, REGION_III))
    u = _solve_pure(np.concatenate((dr[i3], ds[i1])), eos, eps)
    u1_ii, u2_ii = _solve_two_shock(dr[i2], ds[i2], eos, eps)
    failed = np.concatenate((i3, i1, i2))[np.isnan(np.concatenate((u, u1_ii)))]
    if failed.size:
        k = failed.min()
        raise RelshockError(
            f"Riemann Newton solve did not converge at interface {k}: "
            f"(dr, ds) = ({dr[k]:.6e}, {ds[k]:.6e}), left (rho, v) = "
            f"({sol.rho_l[k]:.6e}, {sol.v_l[k]:.6e}), right (rho, v) = "
            f"({sol.rho_r[k]:.6e}, {sol.v_r[k]:.6e})"
        )

    # Middle state: rarefaction legs keep the invariant they carry (r from
    # the right, s from the left); shock legs add their curve displacement.
    # Only region II reaches r_mid from the left state.
    w1, u1 = np.concatenate((i3, i2)), np.concatenate((u[:i3.size], u1_ii))
    w2, u2 = np.concatenate((i1, i2)), np.concatenate((u[i3.size:], u2_ii))
    c1 = _s1_curve(u1, eos)
    r_mid, s_mid = rR.copy(), sL.copy()
    s_mid[w1] += c1[1]
    r_mid[i1] -= _s1_curve(u2[:i1.size], eos)[1]
    r_mid[i2] = rL[i2] + c1[0][i3.size:]
    beta1, beta2 = np.zeros(dr.shape), np.zeros(dr.shape)
    beta1[w1] = 2.0 * np.sinh(0.5 * u1) ** 2
    beta2[w2] = 2.0 * np.sinh(0.5 * u2) ** 2

    sol.region = region
    sol.beta1, sol.beta2 = beta1, beta2
    sol.r_mid, sol.s_mid = r_mid, s_mid
    sol.rho_mid, sol.v_mid = fluid.fluid_from_invariant_arrays(r_mid, s_mid, eos)
    sol.r_right, sol.s_left = rR, sL
    _attach_speeds(sol, w1, w2)
    return sol


def _rest_frame_shock_speed(f_value, eos: EosParams):
    sig = eos.sigma
    return np.sqrt((f_value + sig) / (f_value + 1.0 / sig))


def _attach_speeds(sol: RiemannGridSolution, w1, w2):
    """Coordinate-frame wave speeds (Minkowski cell, light speed 1).

    Rarefaction edges are the characteristic speeds of their bounding
    states.  On the shock entries only (indices w1 of 1-shocks, w2 of
    2-shocks), both edges become the rest-frame shock speed composed with
    the pre-wave state's velocity by the relativistic addition law; the
    1-family speed is negative in the rest frame.
    """
    eos = sol.eos
    head1 = fluid.lambda1_arrays(sol.v_l, eos)
    tail1 = fluid.lambda1_arrays(sol.v_mid, eos)
    s1_rest = -_rest_frame_shock_speed(_f_big(sol.beta1[w1]), eos)
    head1[w1] = tail1[w1] = fluid.lorentz_compose(sol.v_l[w1], s1_rest)

    head2 = fluid.lambda2_arrays(sol.v_mid, eos)
    tail2 = fluid.lambda2_arrays(sol.v_r, eos)
    s2_rest = _rest_frame_shock_speed(1.0 / _f_big(sol.beta2[w2]), eos)
    head2[w2] = tail2[w2] = fluid.lorentz_compose(sol.v_mid[w2], s2_rest)

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
