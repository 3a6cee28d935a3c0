"""Expression-form references of the in-place kernels.

Each function is the plain numpy expression the kernel of the same name in
`relshock.fluid`, `relshock.scheme` or `relshock.riemann` evaluates in its
own buffers: one fresh temporary per operation, in the same left-to-right
order, and guards built from full-width masks.  The tests require the
kernels to equal these bit for bit and to raise the same messages.
`cone_step` is the exception: it moves `diagnostics.ConeTracker`'s fronts
one at a time, with the sound speed composed inline, so it matches the
light fronts bit for bit and the sound fronts to a few ulp.
"""

from types import SimpleNamespace

import numpy as np

from relshock import fluid
from relshock import riemann as rm
from relshock.errors import HorizonEncountered
from relshock.models import KAPPA


def rapidity(v):
    return 0.5 * np.log((1.0 + v) / (1.0 - v))


def conserved_arrays(rho, v, eos):
    sig = eos.sigma
    h = rho * (sig + 1.0) / ((1.0 - v) * (1.0 + v))
    return h - sig * rho, h * v


def invariant_arrays(rho, v, eos):
    phi = rapidity(v)
    lr = eos.sqrt_K_half * np.log(rho)
    return phi - lr, phi + lr


def _denominator(u0, u1, eos):
    """(sigma+1)*u0 + sqrt(disc) of a pair that passes the guards."""
    sig = eos.sigma
    disc = (sig + 1.0) ** 2 * u0 * u0 - 4.0 * sig * u1 * u1
    ok = (disc >= 0.0) & (u0 > 0.0)
    if np.count_nonzero(ok) != np.size(ok):
        fluid._require(disc >= 0.0, "conserved pair outside the physical region (disc < 0)",
                       u0=u0, u1=u1)
        fluid._require(u0 > 0.0, "u0 must be positive", u0=u0, u1=u1)
    return (sig + 1.0) * u0 + np.sqrt(disc)


def fluid_arrays(u0, u1, eos):
    sig = eos.sigma
    denom = _denominator(u0, u1, eos)
    v = 2.0 * u1 / denom
    rho = (1.0 - v) * (1.0 + v) * denom / (2.0 * (sig + 1.0))
    return rho, v


def t11_from_conserved(u0, u1, eos):
    sig = eos.sigma
    denom = _denominator(u0, u1, eos)
    return sig * u0 + u1 * u1 * (2.0 * (1.0 - sig)) / denom


def check_fluid(rho, v):
    ok = (rho > 0.0) & (rho < np.inf) & (np.abs(v) < 1.0)
    if np.count_nonzero(ok) != np.size(ok):
        fluid._require(rho > 0.0, "rho must be positive", rho=rho)
        fluid._require(rho < np.inf, "rho must be finite", rho=rho)
        fluid._require(np.abs(v) < 1.0, "|v| must be < 1", v=v)


def light_speed(A, B):
    return np.sqrt(A * B)


def godunov_cell_update(u_c, f_c, f_star, alpha, dt, dx):
    ra = alpha * (dt / dx)
    al, ar = ra[:-1], ra[1:]
    return tuple(u - (al * (f - fs[:-1]) + ar * (fs[1:] - f))
                 for u, f, fs in zip(u_c, f_c, f_star))


def source_factors(x, eos):
    """The source's grid factors at centres x."""
    return -0.5 * (1.0 + eos.sigma) / x, KAPPA * x ** 2


def grid_factors(x, xe, dx, eos):
    """The GridFactors of `scheme.init`: the update's factors at xe[:-1]
    (2/xe at every edge), then the source's at the interior centres."""
    return (0.25 * KAPPA * dx * xe[:-1] ** 2, 2.0 / xe, 0.5 * KAPPA * dx * xe[:-1],
            dx / xe[:-1], *source_factors(x[1:-1], eos))


def source_G(A, B, rho, v, src_pref, src_kx2, eos):
    sig = eos.sigma
    vv = v * v
    inv_a = 1.0 / A
    pref = np.sqrt(A * B) * src_pref * rho / (1.0 - vv)
    kx2 = src_kx2 * rho / A
    g0 = pref * v * (2.0 * (inv_a + 1.0) - kx2 * (1.0 - sig))
    g1 = pref * (4.0 * vv + (inv_a - 1.0) * (1.0 + vv) + kx2 * (sig - vv))
    return g0, g1


def ode_step(ubar0, ubar1, A_avg, B_avg, src_pref, src_kx2, dt, eos):
    rho, v = fluid_arrays(ubar0, ubar1, eos)
    check_fluid(rho, v)
    g0, g1 = source_G(A_avg, B_avg, rho, v, src_pref, src_kx2, eos)
    return ubar0 + g0 * dt, ubar1 + g1 * dt


def update_mass_metric(state, t_new, left, right, horizon_floor):
    """(M, A, B) the update stores; the state is not touched.  It works
    from neighbour sums, twice the midpoint values, with the grid factors
    computed here from x and xe."""
    mass, two_over_xe, f_t11, dx_over_xe, _, _ = grid_factors(state.x, state.xe,
                                                              state.dx, state.eos)
    a0, b0, m0 = left
    u0sum = state.u0[:-2] + state.u0[1:-1]
    u1sum = state.u1[:-2] + state.u1[1:-1]
    M = m0 + np.concatenate(([0.0], np.cumsum(u0sum * mass)))
    A = 1.0 - M * two_over_xe
    A[0] = a0
    if np.count_nonzero(A <= horizon_floor):
        raise HorizonEncountered(f"radial metric component reached {A.min():.3e}")
    t11_sum = t11_from_conserved(u0sum, u1sum, state.eos)
    terms_b = (t11_sum * f_t11 + dx_over_xe) / A[:-1] - dx_over_xe
    B = b0 * np.exp(np.concatenate(([0.0], np.cumsum(terms_b))))
    A[-1], B[-1] = right
    return M, A, B


def sample_solution(sol, xi):
    """`riemann.sample_solution` as np.where selections: the edge of each
    family compared twice (side test, then fan test) and the 2-family
    states selected into new arrays."""
    eos = sol.eos
    xi = np.asarray(xi, dtype=float)

    def at(a, mask):
        return np.broadcast_to(a, mask.shape)[mask]

    xc = np.minimum(np.maximum(xi, -1.0), 1.0)
    a = eos.sound_speed
    w1, w2 = fluid.lorentz_compose(xc, a), fluid.lorentz_compose(xc, -a)
    on1, s1, on2, s2 = sol.shock1, sol.shock_speed1, sol.shock2, sol.shock_speed2

    left_of_1 = np.where(on1, xi <= s1, sol.v_l >= w1)
    rho = np.where(left_of_1, sol.rho_l, sol.rho_mid)
    v = np.where(left_of_1, sol.v_l, sol.v_mid)
    in_fan1 = ~on1 & (w1 > sol.v_l) & (w1 < sol.v_mid)
    if np.count_nonzero(in_fan1):
        v[in_fan1] = at(w1, in_fan1)
        rho[in_fan1] = fluid.partial_density(at(sol.s_left, in_fan1), "s", v[in_fan1], eos)

    right_of_2 = np.where(on2, xi >= s2, sol.v_r <= w2)
    rho = np.where(right_of_2, sol.rho_r, rho)
    v = np.where(right_of_2, sol.v_r, v)
    in_fan2 = ~on2 & (w2 > sol.v_mid) & (w2 < sol.v_r)
    if np.count_nonzero(in_fan2):
        v[in_fan2] = at(w2, in_fan2)
        rho[in_fan2] = fluid.partial_density(at(sol.r_right, in_fan2), "r", v[in_fan2], eos)
    return rho, v


def newton(step, u, arrays, eos, eps):
    """Elementwise Newton from a start right of the root, each entry frozen
    at its first iterate with |residual| < eps; `step(u, eos, *arrays)`
    returns (|residual|, du).  NaN where _MAX_NEWTON checks do not
    converge."""
    out = np.full(u.shape, np.nan)
    idx = np.arange(u.size)
    for _ in range(rm._MAX_NEWTON if u.size else 0):
        resid, du = step(u, eos, *arrays)
        done = resid < eps
        out[idx[done]] = u[done]
        if done.all():
            break
        go = ~done
        idx, u, arrays = idx[go], (u + du())[go], [x[go] for x in arrays]
    return out


def pure_step(u, eos, t):
    p, cu, _, slope = rm._curve(u, eos)
    resid = t - (p - cu)
    return np.abs(resid), lambda: resid / (slope() - eos.sqrt_K_half)


def solve_pure(t, eos, eps):
    """u with S1r(u) = t < 0 on the pure curve (regions I and III)."""
    u0 = -t / (0.5 * eos.sqrt_2K + eos.sqrt_K_half)
    return newton(pure_step, u0, [t], eos, eps)


def two_shock_step(u1, eos, dr, ds, delta):
    k = u1.size
    p, cu, _, slope = rm._curve(np.concatenate((u1, u1 - delta)), eos)
    p1, p2, cu1, cu2 = p[:k], p[k:], cu[:k], cu[k:]
    resid_r = dr - ((p1 - cu1) + (p2 + cu2))
    resid_s = ds - ((p1 + cu1) + (p2 - cu2))

    def du():
        s = slope()
        return 0.5 * (resid_r + resid_s) / (s[:k] + s[k:])
    return np.maximum(np.abs(resid_r), np.abs(resid_s)), du


def solve_two_shock(dr, ds, eos, eps):
    """(u1, u2) for genuine two-shock data (region II)."""
    delta = (ds - dr) / (2.0 * eos.sqrt_K_half)
    u0 = 0.5 * delta - 0.5 * (dr + ds) / eos.sqrt_2K
    u1 = newton(two_shock_step, u0, [dr, ds, delta], eos, eps)
    return u1, u1 - delta


def solve_interfaces(rho, v, eos, eps=1e-10):
    """`riemann.solve_interfaces` as the eager solver: every interface of
    every row goes through the region-II refinement, a Newton solve on the
    pure curve and a separate one for the two-shock pairs, a second curve
    pass at the roots and the shock-speed pass, and the full-width shock
    fields are filled at once (False, NaN and 0.0 off the shocks).
    Physical input only."""
    rho, v = np.asarray(rho, dtype=float), np.asarray(v, dtype=float)
    r, s = fluid.invariant_arrays(rho, v, eos)
    rL, sL, rR, sR = r[:-1], s[:-1], r[1:], s[1:]
    dr, ds = rR - rL, sR - sL
    # quadrant of (dr, ds): I is (+,-), II (-,-), III (-,+), IV (+,+)
    region = np.where(dr < 0, np.where(ds < 0, rm.REGION_II, rm.REGION_III),
                      np.where(ds < 0, rm.REGION_I, rm.REGION_IV)).astype(np.int8)
    ii =(region == rm.REGION_II).nonzero()[0]
    if ii.size:
        d1, d2 = -dr[ii], -ds[ii]
        thr = rm._floor_displacement(eos)
        fl1 = (d1 >= eps) & (d1 < thr)
        fl2 = (d2 >= eps) & (d2 < thr)
        delta = (d1 - d2) / (2.0 * eos.sqrt_K_half)
        outside = rm._curve(np.abs(delta), eos)[0] <= -0.5 * (d1 + d2)
        floored = fl1 | fl2
        to_I = np.where(floored, fl1, outside & (delta < 0))
        to_III = np.where(floored, fl2, outside & (delta > 0))
        region[ii] = np.where(to_I, np.where(to_III, rm.REGION_IV, rm.REGION_I),
                              np.where(to_III, rm.REGION_III, rm.REGION_II))
    i1, i2, i3 = ((region == k).nonzero()[0]
                  for k in (rm.REGION_I, rm.REGION_II, rm.REGION_III))
    u = solve_pure(np.concatenate((dr[i3], ds[i1])), eos, eps)
    u1_ii, u2_ii = solve_two_shock(dr[i2], ds[i2], eos, eps)
    n3, n1 = i3.size, i1.size
    w1, w2 = np.concatenate((i3, i2)), np.concatenate((i1, i2))
    u_legs = np.concatenate((u[:n3], u1_ii, u[n3:], u2_ii))
    m = w1.size
    p, cu, h, _ = rm._curve(u_legs, eos)
    p_plus = p + cu
    r_mid, s_mid = rR.copy(), sL.copy()
    s_mid[w1] += p_plus[:m]
    r_mid[i1] -= p_plus[m:m + n1]
    r_mid[i2] = rL[i2] + (p[n3:m] - cu[n3:m])
    beta = 2.0 * h ** 2
    beta1, beta2 = np.zeros(dr.shape), np.zeros(dr.shape)
    beta1[w1] = beta[:m]
    beta2[w2] = beta[m:]
    rho_mid, v_mid = fluid.fluid_from_invariant_arrays(r_mid, s_mid, eos)

    f = rm._f_big(beta)
    f[m:] = 1.0 / f[m:]
    speed = rm._rest_frame_shock_speed(f, eos)
    speed[:m] = -speed[:m]
    speed = fluid.lorentz_compose(np.concatenate((v[:-1][w1], v_mid[w2])), speed)
    on1, on2 = np.zeros(dr.shape, dtype=bool), np.zeros(dr.shape, dtype=bool)
    on1[w1] = True
    on2[w2] = True
    s1, s2 = np.full(dr.shape, np.nan), np.full(dr.shape, np.nan)
    s1[w1] = speed[:m]
    s2[w2] = speed[m:]
    return SimpleNamespace(region=region, beta1=beta1, beta2=beta2, r_mid=r_mid,
                           s_mid=s_mid, rho_mid=rho_mid, v_mid=v_mid, shock1=on1,
                           shock_speed1=s1, shock2=on2, shock_speed2=s2)


def cone_step(fronts, state, dt):
    """The four fronts (light left, light right, sound left, sound right)
    after one step, front by front: light at r -/+ alpha dt and sound at
    r + alpha (w -/+ a)/(1 -/+ w a) dt, alpha = sqrt(AB) and w the fluid
    velocity interpolated at r, each clamped to the first and last centres."""
    a = float(state.eos.sound_speed)
    lo, hi = float(state.x[1]), float(state.x[-2])
    r = [float(f) for f in fronts]
    alpha = np.sqrt(np.interp(r, state.xe, state.A) * np.interp(r, state.xe, state.B)).tolist()
    v = np.interp(r[2:], state.x, state.v).tolist()

    def light(k, sign):
        return r[k] + sign * alpha[k] * dt

    def sound(k, sign):
        w = v[k - 2]
        return r[k] + alpha[k] * (w + sign * a) / (1.0 + sign * w * a) * dt

    new = [light(0, -1.0), light(1, 1.0), sound(2, -1.0), sound(3, 1.0)]
    return [min(max(x, lo), hi) for x in new]
