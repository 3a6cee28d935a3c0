"""Expression-form references of the in-place kernels.

Each function is the plain numpy expression the kernel of the same name in
`relshock.fluid`, `relshock.scheme` or `relshock.riemann` evaluates in its
own buffers: one fresh temporary per operation, in the same left-to-right
order, and guards built from full-width masks.  The tests require the
kernels to equal these bit for bit and to raise the same messages.
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


def fluid_arrays(u0, u1, eos):
    sig = eos.sigma
    disc = (sig + 1.0) ** 2 * u0 * u0 - 4.0 * sig * u1 * u1
    ok = (disc >= 0.0) & (u0 > 0.0)
    if np.count_nonzero(ok) != np.size(ok):
        fluid._require(disc >= 0.0, "conserved pair outside the physical region (disc < 0)",
                       u0=u0, u1=u1)
        fluid._require(u0 > 0.0, "u0 must be positive", u0=u0, u1=u1)
    denom = (sig + 1.0) * u0 + np.sqrt(disc)
    v = 2.0 * u1 / denom
    rho = (1.0 - v) * (1.0 + v) * denom / (2.0 * (sig + 1.0))
    return rho, v


def check_fluid(rho, v):
    ok = (rho > 0.0) & (np.abs(v) < 1.0)
    if np.count_nonzero(ok) != np.size(ok):
        fluid._require(rho > 0.0, "rho must be positive", rho=rho)
        fluid._require(np.abs(v) < 1.0, "|v| must be < 1", v=v)


def check_interfaces(rho_l, v_l, rho_r, v_r):
    """The per-interface physicality guard: `riemann.solve_interfaces` must
    refuse a row exactly as this refuses its interfaces' two sides."""
    ok = (np.minimum(rho_l, rho_r) > 0.0) & (np.maximum(np.abs(v_l), np.abs(v_r)) < 1.0)
    if np.count_nonzero(ok) != ok.size:
        fluid._require((rho_l > 0.0) & (rho_r > 0.0), "rho must be positive",
                       rho_l=rho_l, rho_r=rho_r)
        fluid._require((np.abs(v_l) < 1.0) & (np.abs(v_r) < 1.0),
                       "|v| must be < 1", v_l=v_l, v_r=v_r)


def light_speed(A, B):
    return np.sqrt(A * B)


def godunov_cell_update(u_c, f_c, f_star, alpha, dt, dx):
    al, ar, r = alpha[:-1], alpha[1:], dt / dx
    return tuple(u - r * ((al * f - al * fs[:-1]) + (ar * fs[1:] - ar * f))
                 for u, f, fs in zip(u_c, f_c, f_star))


def source_G(A, B, rho, v, x, eos):
    sig = eos.sigma
    alpha = np.sqrt(A * B)
    vv = v * v
    inv_a = 1.0 / A
    pref = -0.5 * alpha * (1.0 + sig) / (1.0 - vv) * rho / x
    kx2 = KAPPA / A * rho * x * x
    g0 = pref * v * (2.0 * (inv_a + 1.0) - kx2 * (1.0 - sig))
    g1 = pref * (4.0 * vv + (inv_a - 1.0) * (1.0 + vv) + kx2 * (sig - vv))
    return g0, g1


def ode_step(ubar0, ubar1, A_avg, B_avg, x, dt, eos):
    rho, v = fluid_arrays(ubar0, ubar1, eos)
    check_fluid(rho, v)
    g0, g1 = source_G(A_avg, B_avg, rho, v, x, eos)
    return ubar0 + g0 * dt, ubar1 + g1 * dt


def update_mass_metric(state, t_new, left, right, horizon_floor):
    """(M, A, B) the update stores; the state is not touched."""
    eos = state.eos
    xe = state.xe
    a0, b0, m0 = left
    u0mid = 0.5 * (state.u0[:-2] + state.u0[1:-1])
    u1mid = 0.5 * (state.u1[:-2] + state.u1[1:-1])
    terms_m = 0.5 * KAPPA * u0mid * xe[:-1] ** 2 * state.dx
    M = m0 + np.concatenate(([0.0], np.cumsum(terms_m)))
    A = 1.0 - 2.0 * M / xe
    A[0] = a0
    if np.count_nonzero(A <= horizon_floor):
        raise HorizonEncountered(f"radial metric component reached {A.min():.3e}")
    rho_mid, v_mid = fluid_arrays(u0mid, u1mid, eos)
    t11_mid = fluid.t11_arrays(u1mid, rho_mid, v_mid, eos)
    terms_b = ((1.0 / A[:-1] - 1.0) / xe[:-1]
               + KAPPA * xe[:-1] / A[:-1] * t11_mid) * state.dx
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
    region = rm._classify_arrays(dr, ds)
    ii = (region == rm.REGION_II).nonzero()[0]
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
