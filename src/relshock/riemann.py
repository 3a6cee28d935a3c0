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

Everything is vectorized: :func:`solve_interfaces` takes a row of k + 1
cell states and returns a :class:`RiemannGridSolution` holding the middle
states of the k interfaces between neighbours and the strength and speed
of each shock leg; each cell is guarded and mapped to (r, s) once.  The
full-width shock masks, speeds and strengths are views built from the legs
when read.  A smooth row, every interface a pair of rarefactions, stops
after the classification: it has no leg to solve and its middle states are
the invariants it carries.  :func:`edge_speeds` derives the four wave-edge
speeds from a solution, and :func:`sample_solution` evaluates it at any
self-similar speed xi; it tests rarefaction edges by comparing velocities
with the velocity whose eigenvalue is xi, so it needs no edge speed, and it
skips the shock test of a family with no shock on the row.  A single
problem is a row of two cells.  Each Newton solve runs only on the
interfaces that have its wave, and each entry is frozen at its first
iterate with |residual| < eps, so an interface solves to the same bits
alone or in any row.
"""

from __future__ import annotations

import functools

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
    "edge_speeds",
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


def _curve(u, eos: EosParams):
    """(p, c*u, h, slope) of the 1-shock curve S1(u) = (p - c*u, p + c*u) at
    strength u, with h = sinh(u/2) and p = -asinh(a*h) = -0.5*ln f(2K beta);
    the 2-shock curve is the mirror image with the components exchanged.
    slope() evaluates dp/du, which grows in magnitude from a/2 at u = 0
    toward 1/2."""
    a = eos.sqrt_2K
    half = 0.5 * u
    h = np.sinh(half)
    x = a * h
    return (-np.arcsinh(x), eos.sqrt_K_half * u, h,
            lambda: -0.5 * a * np.cosh(half) / np.hypot(1.0, x))


@functools.cache
def _floor_displacement(eos: EosParams) -> float:
    """-dr of the weakest counted 1-shock (u = _U_FLOOR), per EOS."""
    p, cu, _, _ = _curve(_U_FLOOR, eos)
    return -(p - cu)


# region of each sign pattern 2*(dr < 0) + (ds < 0) of finite (dr, ds)
_QUADRANTS = np.array([REGION_IV, REGION_I, REGION_III, REGION_II], dtype=np.int8)


def _classify_arrays(dr, ds):
    """Quadrant of (dr, ds) = UR - UL, both finite; REGION_II is tentative
    (points of the (-,-) quadrant between the shock curves and the axes
    belong to I or III)."""
    return _QUADRANTS[2 * (dr < 0) + (ds < 0)]


def _newton(step, u, arrays, eos: EosParams, eps: float):
    """Elementwise Newton, u <- u + du, from a start right of the root.

    `step(u, eos, *arrays)` returns (|residual|, du), where du() evaluates
    the increment; it is called only when some entry goes on.  Each entry
    is frozen at its first iterate with |residual| < eps, so its result
    does not depend on the batch.  The work arrays are compacted only when
    some entries have converged and others have not, and the solve returns
    as soon as every entry has converged; an empty batch returns at once.
    Entries still unconverged after _MAX_NEWTON residual checks are NaN.
    """
    out = np.full(u.shape, np.nan)
    if not u.size:
        return out
    idx = np.arange(u.size)
    for _ in range(_MAX_NEWTON):
        resid, du = step(u, eos, *arrays)
        done = resid < eps
        k = np.count_nonzero(done)
        if k == done.size:
            out[idx] = u
            return out
        if k:
            out[idx[done]] = u[done]
            go = ~done
            idx, u, arrays = idx[go], u[go] + du()[go], [x[go] for x in arrays]
        else:
            u = u + du()
    return out


def _pure_step(u, eos, t):
    p, cu, _, slope = _curve(u, eos)
    resid = t - (p - cu)
    return np.abs(resid), lambda: resid / (slope() - eos.sqrt_K_half)


def _solve_pure(t, eos: EosParams, eps: float):
    """u with S1r(u) = t < 0, elementwise.  S1r is concave, decreasing, with
    slope at most -(a/2 + c), so u = -t/(a/2 + c) starts right of the root."""
    u0 = -t / (0.5 * eos.sqrt_2K + eos.sqrt_K_half)
    return _newton(_pure_step, u0, [t], eos, eps)


def _two_shock_step(u1, eos, dr, ds, delta):
    # the 1-shock curve at u1 plus the mirrored curve at u2 (see _curve),
    # both legs evaluated in one pass
    k = u1.size
    p, cu, _, slope = _curve(np.concatenate((u1, u1 - delta)), eos)
    p1, p2, cu1, cu2 = p[:k], p[k:], cu[:k], cu[k:]
    resid_r = dr - ((p1 - cu1) + (p2 + cu2))
    resid_s = ds - ((p1 + cu1) + (p2 - cu2))

    def du():
        s = slope()
        return 0.5 * (resid_r + resid_s) / (s[:k] + s[k:])
    return np.maximum(np.abs(resid_r), np.abs(resid_s)), du


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


def _on_legs(family: int, leg_field: str | None, fill):
    """Read-only full-width view of one family's leg data, built when read:
    the leg values (True for a mask) on that family's shock interfaces and
    `fill` elsewhere."""
    def build(sol):
        m = sol.w1.size
        idx, part = (sol.w1, slice(None, m)) if family == 1 else (sol.w2, slice(m, None))
        out = np.full(sol.region.shape, fill)
        out[idx] = True if leg_field is None else getattr(sol, leg_field)[part]
        out.flags.writeable = False
        return out
    return property(build)


class RiemannGridSolution:
    """Middle states and wave data for the interfaces of a row of cells.

    Attributes are parallel arrays, one entry per interface; interface k
    lies between cells k and k + 1 of the row (rho, v).  Shock data live
    on the legs: w1 indexes the interfaces whose 1-wave is a shock (regions
    III, then II), w2 those whose 2-wave is (I, then II), and leg_speed and
    leg_beta hold each leg's speed and strength, the w1 legs first.  The
    full-width views shock1 and shock2 (masks), shock_speed1 and
    shock_speed2 (NaN off the shocks) and beta1 and beta2 (0 off them) are
    built from the legs when read.  A smooth row has no legs, and its r_mid
    and s_mid are r_right and s_left themselves.  Wave speeds are in the
    local Minkowski frame of the cell; the scheme scales them by the cell's
    coordinate light speed when it needs coordinate speeds.
    """

    __slots__ = ("eos", "rho_l", "v_l", "rho_r", "v_r", "region", "r_mid", "s_mid",
                 "rho_mid", "v_mid", "r_right", "s_left", "w1", "w2", "leg_speed", "leg_beta")

    shock1, shock2 = _on_legs(1, None, False), _on_legs(2, None, False)
    shock_speed1 = _on_legs(1, "leg_speed", np.nan)
    shock_speed2 = _on_legs(2, "leg_speed", np.nan)
    beta1, beta2 = _on_legs(1, "leg_beta", 0.0), _on_legs(2, "leg_beta", 0.0)

    def __init__(self, eos, rho, v):
        self.eos = eos
        self.rho_l, self.v_l, self.rho_r, self.v_r = rho[:-1], v[:-1], rho[1:], v[1:]


def edge_speeds(sol: RiemannGridSolution):
    """(head1, tail1, head2, tail2) of every interface.  Rarefaction edges
    move at the characteristic speeds of their bounding states; both edges
    of a shock move at its speed."""
    a = sol.eos.sound_speed
    on1, s1, on2, s2 = sol.shock1, sol.shock_speed1, sol.shock2, sol.shock_speed2
    return (np.where(on1, s1, fluid.lorentz_compose(sol.v_l, -a)),
            np.where(on1, s1, fluid.lorentz_compose(sol.v_mid, -a)),
            np.where(on2, s2, fluid.lorentz_compose(sol.v_mid, a)),
            np.where(on2, s2, fluid.lorentz_compose(sol.v_r, a)))


def solve_interfaces(rho, v, eos: EosParams, eps: float = 1e-10):
    """Solve the Riemann problem between each pair of neighbours in a row of
    cell states (rho, v); see :class:`RiemannGridSolution`.

    Raises NonPhysicalState naming the first interface without rho > 0 and
    |v| < 1 on both sides (NaN included), and RelshockError naming the
    first interface whose Newton solve does not converge.
    """
    # the stepper passes two 1-D float64 arrays of one shape: keep them
    if not all(type(x) is np.ndarray and x.dtype == np.float64 and x.ndim == 1
               and x.shape == rho.shape for x in (rho, v)):
        rho, v = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (rho, v)))
    sol = RiemannGridSolution(eos, rho, v)
    if not (fluid._least(rho) > 0.0 and fluid._most(np.abs(v)) < 1.0):
        fluid._require((sol.rho_l > 0.0) & (sol.rho_r > 0.0), "rho must be positive",
                       rho_l=sol.rho_l, rho_r=sol.rho_r)
        fluid._require((np.abs(sol.v_l) < 1.0) & (np.abs(sol.v_r) < 1.0),
                       "|v| must be < 1", v_l=sol.v_l, v_r=sol.v_r)
    r, s = fluid.invariant_arrays(rho, v, eos)
    rL, sL, rR, sR = r[:-1], s[:-1], r[1:], s[1:]
    dr, ds = rR - rL, sR - sL
    sol.region = region = _classify_arrays(dr, ds)
    sol.r_right, sol.s_left = rR, sL
    if not np.count_nonzero(region != REGION_IV):
        # a smooth row: no shock legs, and each middle state carries r from
        # the right and s from the left
        sol.w1 = sol.w2 = np.zeros(0, dtype=np.intp)
        sol.leg_speed = sol.leg_beta = np.zeros(0)
        sol.r_mid, sol.s_mid = rR, sL
        sol.rho_mid, sol.v_mid = fluid.fluid_from_invariant_arrays(rR, sL, eos)
        return sol

    # The (-,-) quadrant is a superset of the two-shock region: the slivers
    # between each shock curve and the axes belong to regions I and III.  A
    # point is a genuine two-shock state iff the two-shock function is
    # positive where one strength vanishes, u1 = max(0, delta), i.e.
    # p(|delta|) > m.  A displacement of at least eps but smaller than that
    # of a beta = 1e-20 pure shock counts as no shock: both such -> IV, one
    # -> the region of the other shock.
    ii = (region == REGION_II).nonzero()[0]
    if ii.size:
        d1, d2 = -dr[ii], -ds[ii]
        thr = _floor_displacement(eos)
        fl1 = (d1 >= eps) & (d1 < thr)
        fl2 = (d2 >= eps) & (d2 < thr)
        delta = (d1 - d2) / (2.0 * eos.sqrt_K_half)
        outside = _curve(np.abs(delta), eos)[0] <= -0.5 * (d1 + d2)
        floored = fl1 | fl2
        to_I = np.where(floored, fl1, outside & (delta < 0))
        to_III = np.where(floored, fl2, outside & (delta > 0))
        region[ii] = np.where(to_I, np.where(to_III, REGION_IV, REGION_I),
                              np.where(to_III, REGION_III, REGION_II))

    # Newton on the shock legs only: the pure curve for the single shock of
    # regions III (target dr) and I (target ds), the coupled solve for II.
    i1, i2, i3 = ((region == k).nonzero()[0] for k in (REGION_I, REGION_II, REGION_III))
    u = _solve_pure(np.concatenate((dr[i3], ds[i1])), eos, eps)
    u1_ii, u2_ii = _solve_two_shock(dr[i2], ds[i2], eos, eps)
    # the shock legs: 1-shocks of III and II (w1), then 2-shocks of I and II (w2)
    n3, n1 = i3.size, i1.size
    w1, w2 = np.concatenate((i3, i2)), np.concatenate((i1, i2))
    u_legs = np.concatenate((u[:n3], u1_ii, u[n3:], u2_ii))
    failed = np.isnan(u_legs)
    if np.count_nonzero(failed):
        k = int(np.concatenate((w1, w2))[failed].min())
        raise RelshockError(
            f"Riemann Newton solve did not converge at interface {k}: "
            f"(dr, ds) = ({dr[k]:.6e}, {ds[k]:.6e}), left (rho, v) = "
            f"({sol.rho_l[k]:.6e}, {sol.v_l[k]:.6e}), right (rho, v) = "
            f"({sol.rho_r[k]:.6e}, {sol.v_r[k]:.6e})", index=k)

    # Middle state: rarefaction legs keep the invariant they carry (r from
    # the right, s from the left); shock legs add their curve displacement
    # (see _curve).  Only region II reaches r_mid from the left state.
    # One h = sinh(u/2) gives each leg's displacement and beta = 2h^2.
    m = w1.size
    p, cu, h, _ = _curve(u_legs, eos)
    p_plus = p + cu
    r_mid, s_mid = rR.copy(), sL.copy()
    s_mid[w1] += p_plus[:m]
    r_mid[i1] -= p_plus[m:m + n1]
    r_mid[i2] = rL[i2] + (p[n3:m] - cu[n3:m])
    sol.w1, sol.w2, sol.leg_beta = w1, w2, 2.0 * h ** 2
    sol.r_mid, sol.s_mid = r_mid, s_mid
    sol.rho_mid, sol.v_mid = fluid.fluid_from_invariant_arrays(r_mid, s_mid, eos)
    sol.leg_speed = _shock_speeds(sol)
    return sol


def _rest_frame_shock_speed(f_value, eos: EosParams):
    sig = eos.sigma
    return np.sqrt((f_value + sig) / (f_value + 1.0 / sig))


def _shock_speeds(sol: RiemannGridSolution):
    """Speed of every shock leg of the solution (w1 legs, then w2 legs), in
    one pass over the legs' strengths.

    Each is the rest-frame shock speed composed with the pre-wave state's
    velocity by the relativistic addition law; the 1-family speed is
    negative in the rest frame, and a 2-shock's density ratio is 1/f.
    """
    m = sol.w1.size
    f = _f_big(sol.leg_beta)
    f[m:] = 1.0 / f[m:]
    speed = _rest_frame_shock_speed(f, sol.eos)
    speed[:m] = -speed[:m]
    return fluid.lorentz_compose(np.concatenate((sol.v_l[sol.w1], sol.v_mid[sol.w2])), speed)


def sample_solution(sol: RiemannGridSolution, xi):
    """Self-similar state at speed(s) xi for every interface of the solution.

    xi broadcasts against the interface arrays.  Both eigenvalue maps
    increase with v, so a rarefaction edge is tested in velocity space:
    xi <= lambda1(v) exactly when v >= w1 = lorentz_compose(xi, a), and
    likewise for the 2-family with w2.  w1 and w2 are scalars when xi is,
    so no edge-speed array is formed; shock entries compare xi with the
    shock speed.  Fan interiors take v = w and carry the invariant that is
    constant across that family (s across a 1-fan, r across a 2-fan).
    """
    eos = sol.eos
    xi = np.asarray(xi, dtype=float)

    def at(a, mask):
        return np.broadcast_to(a, mask.shape)[mask]

    # the inverse maps are monotone on [-1, 1]; every fan lies inside it
    xc = np.minimum(np.maximum(xi, -1.0), 1.0)
    a = eos.sound_speed
    w1, w2 = fluid.lorentz_compose(xc, a), fluid.lorentz_compose(xc, -a)

    # one edge test per family serves the side and (negated) the fan test; a
    # family with no shock on the row has no shock terms
    edge1 = left_of_1 = not_fan1 = sol.v_l >= w1
    if sol.w1.size:
        on1 = sol.shock1
        left_of_1, not_fan1 = np.where(on1, xi <= sol.shock_speed1, edge1), on1 | edge1
    rho = np.where(left_of_1, sol.rho_l, sol.rho_mid)
    v = np.where(left_of_1, sol.v_l, sol.v_mid)

    in_fan1 = ~not_fan1 & (w1 < sol.v_mid)
    if np.count_nonzero(in_fan1):
        v[in_fan1] = at(w1, in_fan1)
        rho[in_fan1] = fluid.partial_density(at(sol.s_left, in_fan1), "s", v[in_fan1], eos)

    edge2 = right_of_2 = not_fan2 = sol.v_r <= w2
    if sol.w2.size:
        on2 = sol.shock2
        right_of_2, not_fan2 = np.where(on2, xi >= sol.shock_speed2, edge2), on2 | edge2
    np.copyto(rho, sol.rho_r, where=right_of_2)
    np.copyto(v, sol.v_r, where=right_of_2)

    in_fan2 = ~not_fan2 & (w2 > sol.v_mid)
    if np.count_nonzero(in_fan2):
        v[in_fan2] = at(w2, in_fan2)
        rho[in_fan2] = fluid.partial_density(at(sol.r_right, in_fan2), "r", v[in_fan2], eos)
    return rho, v
