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
u = -t/(a/2 + c), as the slope is at most -(a/2 + c), and for two shocks,
where u1 - u2 = delta = (ds - dr)/(2c) is fixed and the problem is one
equation in u1, from u1 = delta/2 - m/a, m = (dr + ds)/2, as p <= -a*u/2.

Everything is vectorized: :func:`solve_interfaces` takes a row of k + 1
cell states and returns a :class:`RiemannGridSolution` holding the middle
states of the k interfaces between neighbours and the strength and speed
of each shock leg; the row and its middle states pass the one physicality
check, :func:`relshock.fluid.check_fluid`, and each cell is mapped to
(r, s) once.  A smooth row, every interface a pair of rarefactions, stops
after the classification: it has no leg to solve and its middle states are
the invariants it carries.  Otherwise one Newton loop solves every shock
leg of the row, the single shocks of regions I and III on the pure curve
and the two-shock pairs of region II coupled, with one curve evaluation
per iterate; each unknown is frozen at its first iterate with |residual| <
eps, so an interface solves to the same bits alone or in any row, and the
middle states and strengths come from the curve values of that iterate.
:func:`edge_speeds` derives the four wave-edge speeds from a solution, and
:func:`sample_solution` evaluates it at any self-similar speed xi; it tests
rarefaction edges by comparing velocities with the velocity whose
eigenvalue is xi, so it needs no edge speed, and tests shocks on the legs
alone.  The full-width shock masks, speeds and strengths are views built
from the legs when read.  A single problem is a row of two cells.
"""

from __future__ import annotations

import functools

import numpy as np

from . import fluid
from .errors import NonPhysicalState, RelshockError
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
# converged Newton unknowns worth compacting away (about one iterate's fixed cost)
_COMPACT_AT = 512
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
    slope(at) evaluates dp/du on the entries `at` selects (all by default),
    which grows in magnitude from a/2 at u = 0 toward 1/2."""
    a = eos.sqrt_2K
    half = 0.5 * u
    h = np.sinh(half)
    x = a * h
    return (-np.arcsinh(x), eos.sqrt_K_half * u, h,
            lambda at=...: -0.5 * a * np.cosh(half[at]) / np.hypot(1.0, x[at]))


@functools.cache
def _floor_displacement(eos: EosParams) -> float:
    """-dr of the weakest counted 1-shock (u = _U_FLOOR), per EOS."""
    p, cu, _, _ = _curve(_U_FLOOR, eos)
    return -(p - cu)


# region of each sign pattern 2*(dr < 0) + (ds < 0) of finite (dr, ds); II is
# tentative (points of the (-,-) quadrant between the shock curves and the
# axes belong to I or III)
_QUADRANTS = np.array([REGION_IV, REGION_I, REGION_III, REGION_II], dtype=np.int8)
# region of a tentative II point from 2*(falls to I) + (falls to III)
_SLIVERS = np.array([REGION_II, REGION_III, REGION_I, REGION_IV], dtype=np.int8)


def _solve_legs(t, m, n2, eos: EosParams, eps: float):
    """(p + c*u, p - c*u, h) of every shock leg of a row at its root (see
    _curve), from one Newton loop with one _curve call per iterate.

    t holds each leg's target in leg order (see RiemannGridSolution): dr on
    the m 1-legs, then ds on the 2-legs, the n2 two-shock pairs of region II
    last in each family (unknown u1, residual the larger of the two; start
    points in the module docstring).  Each unknown is frozen, with no further
    step, at its first iterate with |residual| < eps, so its bits do not
    depend on the batch; the values are those of the last iterate.  Once
    _COMPACT_AT unknowns have converged, the frozen legs leave the work
    arrays and one more _curve pass gives the values.  Unknowns unconverged
    after _MAX_NEWTON residual checks are NaN; an empty batch returns at once.
    """
    if not t.size:
        return np.empty((3, 0))
    c = eos.sqrt_K_half
    j, k = m - n2, t.size - n2      # the pairs' 1-legs start at j, their 2-legs at k
    dr, ds = t[j:m], t[k:]
    delta = (ds - dr) / (2.0 * c)
    u = -t / (0.5 * eos.sqrt_2K + c)
    u[j:m] = 0.5 * delta - 0.5 * (dr + ds) / eos.sqrt_2K
    out = legs = None
    for check in range(_MAX_NEWTON):
        np.subtract(u[j:m], delta, out=u[k:])
        p, cu, h, slope = _curve(u, eos)
        w, q = p + cu, p - cu
        resid = t - q      # a pair: the 1-shock curve at u1 plus the mirrored one at u2
        np.subtract(dr, q[j:m] + w[k:], out=resid[j:m])
        np.subtract(ds, w[j:m] + q[k:], out=resid[k:])
        size = np.abs(resid)
        np.maximum(size[j:m], size[k:], out=size[j:m])
        going = ~(size[:k] < eps)
        n_going = np.count_nonzero(going)
        if n_going and check == _MAX_NEWTON - 1:
            go = np.concatenate((going, going[j:m]))
            u[go] = w[go] = q[go] = h[go] = np.nan
        if not n_going or check == _MAX_NEWTON - 1:
            break
        at = ...
        if k - n_going >= _COMPACT_AT:    # keep the frozen legs' u, go on with the rest
            at = np.concatenate((going, going[j:m]))
            if out is None:
                out, legs = u.copy(), np.flatnonzero(at)
            else:
                out[legs] = u
                legs = legs[at]
            delta = delta[going[j:m]]
            j, m, k = (np.count_nonzero(going[:x]) for x in (j, m, k))
            t, u, resid, going = t[at], u[at], resid[at], True
            dr, ds = t[j:m], t[k:]
        s = slope(at)
        step, den = resid[:k], s[:k] - c
        np.add(s[j:m], s[k:], out=den[j:m])
        np.add(resid[j:m], resid[k:], out=step[j:m])
        step[j:m] *= 0.5
        np.add(u[:k], step / den, out=u[:k], where=going)
    if out is None:
        return w, q, h
    # compacted: one more curve pass costs less than carrying (w, q, h) along
    out[legs] = u
    p, cu, h, _ = _curve(out, eos)
    return p + cu, p - cu, h


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
    leg_beta hold each leg's speed and strength in leg order, the w1 legs
    first; the Newton loop solves the legs in this order and the sampler
    tests shocks on them.  The full-width views shock1 and shock2 (masks),
    shock_speed1 and shock_speed2 (NaN off the shocks) and beta1 and beta2
    (0 off them) are built from the legs when read.  A smooth row has no
    legs, and its r_mid and s_mid are r_right and s_left themselves.  Wave
    speeds are in the local Minkowski frame of the cell; the scheme scales
    them by the cell's coordinate light speed when it needs coordinate speeds.
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
    """Solve the Riemann problem between each pair of neighbours in one 1-D
    row of cell states (rho, v); see :class:`RiemannGridSolution`.

    Raises NonPhysicalState, as check_fluid does, at the first bad cell of
    the row and at the first interface whose middle state is not physical
    (a density ratio of 1e36 at rest rounds v to 1), and RelshockError at
    the first interface whose Newton solve does not converge; the interface
    errors show both sides.
    """
    rho, v = np.asarray(rho, dtype=float), np.asarray(v, dtype=float)
    fluid.check_fluid(rho, v)
    sol = RiemannGridSolution(eos, rho, v)
    r, s = fluid.invariant_arrays(rho, v, eos)
    rL, sL, rR, sR = r[:-1], s[:-1], r[1:], s[1:]
    dr, ds = rR - rL, sR - sL
    sol.r_right, sol.s_left = rR, sL
    if fluid._least(dr) >= 0.0 and fluid._least(ds) >= 0.0:
        # a smooth row, every interface in IV: no shock legs, and each middle
        # state carries r from the right and s from the left
        sol.region = np.full(dr.shape, REGION_IV, dtype=np.int8)
        sol.w1 = sol.w2 = np.zeros(0, dtype=np.intp)
        sol.leg_speed = sol.leg_beta = np.zeros(0)
        sol.r_mid, sol.s_mid = rR, sL
        sol.rho_mid, sol.v_mid = fluid.fluid_from_invariant_arrays(rR, sL, eos)
        return _checked_middle(sol)

    sol.region = region = _QUADRANTS[2 * (dr < 0) + (ds < 0)]
    # The (-,-) quadrant is a superset of the two-shock region: the slivers
    # between each shock curve and the axes belong to regions I and III.  A
    # point is a genuine two-shock state iff the two-shock function is
    # positive where one strength vanishes, u1 = max(0, delta), i.e.
    # p(|delta|) > m = (dr + ds)/2.  A displacement (-dr or -ds) of at least
    # eps but smaller than that of a beta = 1e-20 pure shock counts as no
    # shock: both such -> IV, one -> the region of the other shock.
    ii = (region == REGION_II).nonzero()[0]
    if ii.size:
        dr_ii, ds_ii = dr[ii], ds[ii]
        thr = _floor_displacement(eos)
        fl1 = (dr_ii <= -eps) & (dr_ii > -thr)
        fl2 = (ds_ii <= -eps) & (ds_ii > -thr)
        delta = (ds_ii - dr_ii) / (2.0 * eos.sqrt_K_half)
        outside = _curve(np.abs(delta), eos)[0] <= 0.5 * (dr_ii + ds_ii)
        floored = fl1 | fl2
        to_I = np.where(floored, fl1, outside & (delta < 0))
        to_III = np.where(floored, fl2, outside & (delta > 0))
        region[ii] = _SLIVERS[2 * to_I + to_III]

    # Newton on the shock legs only: 1-shocks of III and II (w1), then
    # 2-shocks of I and II (w2); a 1-leg's target is dr, a 2-leg's ds.
    i1, i2, i3 = ((region == k).nonzero()[0] for k in (REGION_I, REGION_II, REGION_III))
    w1, w2 = np.concatenate((i3, i2)), np.concatenate((i1, i2))
    m, n2 = w1.size, i2.size
    p_plus, p_minus, h = _solve_legs(np.concatenate((dr[w1], ds[w2])), m, n2, eos, eps)
    if not fluid._most(h) < np.inf:     # NaN marks an unconverged leg
        k = int(np.concatenate((w1, w2))[np.isnan(h)].min())
        raise RelshockError(f"Riemann Newton solve did not converge at interface {k}: "
                            f"(dr, ds) = ({dr[k]:.6e}, {ds[k]:.6e}), {_sides(sol, k)}", index=k)

    # Middle state: rarefaction legs keep the invariant they carry (r from
    # the right, s from the left); shock legs add their curve displacement
    # (see _curve).  Only region II reaches r_mid from the left state.
    # Each leg's h = sinh(u/2) gives beta = 2h^2.
    r_mid, s_mid = rR.copy(), sL.copy()
    s_mid[w1] += p_plus[:m]
    r_mid[i1] -= p_plus[m:m + i1.size]
    r_mid[i2] = rL[i2] + p_minus[m - n2:m]
    sol.w1, sol.w2, sol.leg_beta = w1, w2, 2.0 * h ** 2
    sol.r_mid, sol.s_mid = r_mid, s_mid
    sol.rho_mid, sol.v_mid = fluid.fluid_from_invariant_arrays(r_mid, s_mid, eos)
    sol.leg_speed = _shock_speeds(sol)
    return _checked_middle(sol)


def _sides(sol: RiemannGridSolution, k: int) -> str:
    return (f"left (rho, v) = ({sol.rho_l[k]:.6e}, {sol.v_l[k]:.6e}), "
            f"right (rho, v) = ({sol.rho_r[k]:.6e}, {sol.v_r[k]:.6e})")


def _checked_middle(sol: RiemannGridSolution):
    """The solution, once its middle states pass check_fluid; else
    NonPhysicalState at the interface check_fluid names, with both sides."""
    try:
        fluid.check_fluid(sol.rho_mid, sol.v_mid)
    except NonPhysicalState as err:
        k = err.index
        what = str(err).replace(f"at index {k}", f"at interface {k}")
        raise NonPhysicalState(f"Riemann middle state: {what}, {_sides(sol, k)}",
                               index=k) from None
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
    np.divide(1.0, f[m:], out=f[m:])
    speed = _rest_frame_shock_speed(f, sol.eos)
    np.negative(speed[:m], out=speed[:m])
    return fluid.lorentz_compose(np.concatenate((sol.v_l[sol.w1], sol.v_mid[sol.w2])), speed)


def sample_solution(sol: RiemannGridSolution, xi):
    """Self-similar state at speed(s) xi for every interface of the solution.

    xi broadcasts against the interface arrays.  Both eigenvalue maps
    increase with v, so a rarefaction edge is tested in velocity space:
    xi <= lambda1(v) exactly when v >= w1 = lorentz_compose(xi, a), and
    likewise for the 2-family with w2.  w1 and w2 are scalars when xi is,
    so no edge-speed array is formed.  Shocks are tested on the legs alone,
    comparing xi with each leg's speed.  Fan interiors take v = w and carry
    the invariant that is constant across that family (s across a 1-fan, r
    across a 2-fan).
    """
    eos = sol.eos
    xi = np.asarray(xi, dtype=float)
    shape = xi.shape if xi.ndim and sol.region.size == 1 else None
    if shape:   # one interface against many xi: give it its own (last) axis
        xi = xi[..., None]

    def at(a, mask):
        return np.broadcast_to(a, mask.shape)[mask]

    def xi_on(legs):   # xi at the interfaces legs, as the row broadcasts it
        return xi if not xi.ndim else np.broadcast_to(xi, left_of_1.shape)[..., legs]

    # the inverse maps are monotone on [-1, 1]; every fan lies inside it
    xc = np.minimum(np.maximum(xi, -1.0), 1.0)
    a = eos.sound_speed
    w1, w2 = fluid.lorentz_compose(xc, a), fluid.lorentz_compose(xc, -a)
    m = sol.w1.size

    # one edge test per family serves the side and (negated) the fan test;
    # a shock interface is on its side of the shock and in no fan
    left_of_1 = sol.v_l >= w1
    in_fan1 = ~left_of_1 & (w1 < sol.v_mid)
    if m:
        in_fan1[..., sol.w1] = False
        left_of_1[..., sol.w1] = xi_on(sol.w1) <= sol.leg_speed[:m]
    rho = np.where(left_of_1, sol.rho_l, sol.rho_mid)
    v = np.where(left_of_1, sol.v_l, sol.v_mid)
    if np.count_nonzero(in_fan1):
        v[in_fan1] = at(w1, in_fan1)
        rho[in_fan1] = fluid.partial_density(at(sol.s_left, in_fan1), "s", v[in_fan1], eos)

    right_of_2 = sol.v_r <= w2
    in_fan2 = ~right_of_2 & (w2 > sol.v_mid)
    if sol.w2.size:
        in_fan2[..., sol.w2] = False
        right_of_2[..., sol.w2] = xi_on(sol.w2) >= sol.leg_speed[m:]
    np.copyto(rho, sol.rho_r, where=right_of_2)
    np.copyto(v, sol.v_r, where=right_of_2)
    if np.count_nonzero(in_fan2):
        v[in_fan2] = at(w2, in_fan2)
        rho[in_fan2] = fluid.partial_density(at(sol.r_right, in_fan2), "r", v[in_fan2], eos)
    return (rho, v) if shape is None else (rho.reshape(shape), v.reshape(shape))
