"""Instrumentation over simulation states: wave-front tracking, border
detection, error norms, convergence rates, and the weak-form residual.

Everything here is read-only over the stepper's state; functions take the
state (or plain arrays) and never mutate it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fluid
from .errors import BorderNotFound, RelshockError
from .models import KAPPA

__all__ = [
    "ConeState",
    "ConeTracker",
    "advance_cones",
    "three_point_derivative",
    "detect_frw_border",
    "detect_tov_border",
    "black_hole_number",
    "total_variation",
    "one_norm_error",
    "convergence_rate",
    "b_affine_remap",
    "affine_scale",
    "coordinate_time_map",
    "BumpTestFunction",
    "weak_residual",
    "HistoryRecorder",
    "MuMonitor",
    "TVMonitor",
]

# velocity-derivative magnitude marking the onset of the diffused wave on
# the static side
TOV_BORDER_THRESHOLD = 0.01
# TVMonitor alarms when the total variation grows past this multiple of
# its initial value
TV_ALARM_FACTOR = 50.0


@dataclass(frozen=True)
class ConeState:
    """Radii of the four information fronts emanating from the initial
    discontinuity; the sound pair is always inside the light pair."""

    light_left: float
    light_right: float
    sound_left: float
    sound_right: float
    clamped: bool = False


def _interp_metric(state, r):
    a = np.interp(r, state.xe, state.A)
    b = np.interp(r, state.xe, state.B)
    return np.sqrt(a * b)


def _interp_v(state, r):
    return np.interp(r, state.x, state.v)


def advance_cones(cones: ConeState, state, dt: float) -> ConeState:
    """Move each front by its local coordinate speed times dt.

    Light moves at +/- sqrt(AB); sound at sqrt(AB) times the relativistic
    composition of the fluid velocity with +/- the sound speed.  Metric and
    fluid values are linearly interpolated at the current front positions.
    Fronts are clamped at the grid and flagged once they leave it.
    """
    a = state.eos.sound_speed
    lo, hi = state.x[1], state.x[-2]

    def light(r, sign):
        return r + sign * _interp_metric(state, r) * dt

    def sound(r, sign):
        v = _interp_v(state, r)
        return r + _interp_metric(state, r) * (v + sign * a) / (1.0 + sign * v * a) * dt

    new = {
        "light_left": light(cones.light_left, -1.0),
        "light_right": light(cones.light_right, +1.0),
        "sound_left": sound(cones.sound_left, -1.0),
        "sound_right": sound(cones.sound_right, +1.0),
    }
    clamped = cones.clamped
    for key, val in new.items():
        if val < lo or val > hi:
            clamped = True
            new[key] = min(max(val, lo), hi)
    return ConeState(clamped=clamped, **new)


class ConeTracker:
    """Per-step hook that carries a ConeState along a run."""

    def __init__(self, r0: float):
        self.r0 = float(r0)
        self.cones = ConeState(r0, r0, r0, r0)
        self.trajectory = []

    def on_start(self, state):
        self.trajectory.append((state.t, self.cones))

    def __call__(self, state, report):
        self.cones = advance_cones(self.cones, state, report.dt)
        self.trajectory.append((state.t, self.cones))


def three_point_derivative(values, dx: float):
    """Second-order numerical derivative: centered inside, one-sided at the
    ends."""
    values = np.asarray(values, dtype=float)
    if values.size < 3:
        raise RelshockError("need at least 3 samples for a three-point stencil")
    d = np.empty_like(values)
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * dx)
    d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dx)
    d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dx)
    return d


def detect_frw_border(state):
    """First radius (scanning up from r_min) where the velocity derivative
    changes sign: the onset of numerical diffusion on the expanding side.

    Returns (radius, cell index in ghost-inclusive numbering).
    """
    v = state.v[1:-1]
    d = three_point_derivative(v, state.dx)
    flips = np.nonzero(d[:-1] * d[1:] < 0.0)[0]
    if flips.size == 0:
        raise BorderNotFound("velocity derivative never changes sign")
    k = int(flips[0])
    return float(state.x[1 + k]), 1 + k


def detect_tov_border(state):
    """First radius (scanning down from r_max) where |dv/dr| exceeds
    TOV_BORDER_THRESHOLD: the outer edge of the diffused wave on the
    static side."""
    v = state.v[1:-1]
    d = three_point_derivative(v, state.dx)
    big = np.nonzero(np.abs(d) > TOV_BORDER_THRESHOLD)[0]
    if big.size == 0:
        raise BorderNotFound("velocity derivative never exceeds the threshold")
    k = int(big[-1])
    return float(state.x[1 + k]), 1 + k


def black_hole_number(state):
    """max of 2M/r over the grid and the radius attaining it."""
    mu = 2.0 * state.M / state.xe
    k = int(np.argmax(mu))
    return float(mu[k]), float(state.xe[k])


class TVMonitor:
    """Hook logging the total variation of the conserved fields.

    Boundedness of this quantity is the hypothesis under which the limit
    of the scheme is known to solve the field equations weakly, so it is
    watched and flagged (never assumed): `alarmed` trips when the
    variation exceeds TV_ALARM_FACTOR times its initial value.
    """

    def __init__(self):
        self.history = []
        self._initial = None
        self.alarmed = False

    def _record(self, state):
        tv0 = total_variation(state.u0[1:-1])
        tv1 = total_variation(state.u1[1:-1])
        self.history.append((state.t, tv0, tv1))
        if self._initial is None:
            self._initial = max(tv0 + tv1, 1e-300)
        elif tv0 + tv1 > TV_ALARM_FACTOR * self._initial:
            self.alarmed = True

    def on_start(self, state):
        self._record(state)

    def __call__(self, state, report):
        self._record(state)


class MuMonitor:
    """Hook recording the running maximum of the black-hole number."""

    def __init__(self):
        self.history = []

    def on_start(self, state):
        self.history.append((state.t,) + black_hole_number(state))

    def __call__(self, state, report):
        self.history.append((state.t,) + black_hole_number(state))

    def values(self):
        return np.array([m for _, m, _ in self.history])


def total_variation(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.abs(np.diff(values)).sum())


def one_norm_error(num, ref, dx: float) -> float:
    """dx * sum |num - ref| over the grid."""
    num = np.asarray(num, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if num.shape != ref.shape:
        raise RelshockError(f"shapes {num.shape} and {ref.shape} differ")
    return float(dx * np.abs(num - ref).sum())


def convergence_rate(errors):
    """log2 of successive error ratios for a mesh-doubling ladder."""
    errors = np.asarray(errors, dtype=float)
    if errors.size < 2:
        raise RelshockError("need at least two errors for a rate")
    return np.log2(errors[:-1] / errors[1:])


def b_affine_remap(b1, b2):
    """Affine map sending the range of b1 onto the range of b2.

    The time component of the metric is only determined up to the scale
    freedom of the time coordinate; this removes it before comparing runs.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    s = affine_scale(b1, b2)
    return s * (b1 - b1.min()) + b2.min()


def affine_scale(b1, b2) -> float:
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    d1 = b1.max() - b1.min()
    d2 = b2.max() - b2.min()
    if d1 <= 0.0 or d2 <= 0.0:
        raise RelshockError("field has zero range")
    return float(d2 / d1)


def coordinate_time_map(t_bar_1, psi0: float):
    """Time of the dynamical-integrating-factor chart matching a given time
    of the unit-light-speed chart."""
    return psi0 * np.sqrt(t_bar_1)


class BumpTestFunction:
    """Smooth compactly supported bump, product of 1-d mollifiers in t and x."""

    def __init__(self, t_center, t_halfwidth, x_center, x_halfwidth):
        self.tc, self.tw = float(t_center), float(t_halfwidth)
        self.xc, self.xw = float(x_center), float(x_halfwidth)

    @property
    def support(self):
        return (self.tc - self.tw, self.tc + self.tw,
                self.xc - self.xw, self.xc + self.xw)

    @staticmethod
    def _psi(z):
        out = np.zeros_like(z)
        inside = np.abs(z) < 1.0
        zi = z[inside]
        out[inside] = np.exp(-1.0 / (1.0 - zi * zi))
        return out

    @staticmethod
    def _dpsi(z):
        out = np.zeros_like(z)
        inside = np.abs(z) < 1.0
        zi = z[inside]
        w = 1.0 - zi * zi
        out[inside] = np.exp(-1.0 / w) * (-2.0 * zi / (w * w))
        return out

    def __call__(self, t, x):
        zt = np.asarray((t - self.tc) / self.tw, dtype=float)
        zx = np.asarray((x - self.xc) / self.xw, dtype=float)
        return self._psi(zt) * self._psi(zx)

    def dt(self, t, x):
        zt = np.asarray((t - self.tc) / self.tw, dtype=float)
        zx = np.asarray((x - self.xc) / self.xw, dtype=float)
        return self._dpsi(zt) / self.tw * self._psi(zx)

    def dx(self, t, x):
        zt = np.asarray((t - self.tc) / self.tw, dtype=float)
        zx = np.asarray((x - self.xc) / self.xw, dtype=float)
        return self._psi(zt) * self._dpsi(zx) / self.xw


class HistoryRecorder:
    """Hook storing the full per-step state needed by the residual."""

    def __init__(self):
        self.t = []
        self.dt = []
        self.rho = []
        self.v = []
        self.u0 = []
        self.u1 = []
        self.A = []
        self.B = []
        self.x = None
        self.xe = None
        self.dx = None
        self.eos = None

    def on_start(self, state):
        self.x = state.x.copy()
        self.xe = state.xe.copy()
        self.dx = state.dx
        self.eos = state.eos
        self._snap(state, dt=None)

    def __call__(self, state, report):
        self.dt.append(report.dt)
        self._snap(state, dt=report.dt)

    def _snap(self, state, dt):
        self.t.append(state.t)
        self.rho.append(state.rho.copy())
        self.v.append(state.v.copy())
        self.u0.append(state.u0.copy())
        self.u1.append(state.u1.copy())
        self.A.append(state.A.copy())
        self.B.append(state.B.copy())


def _conservation_sources(A, alpha, rho, u0, u1, t11, x, eos):
    """Undifferentiated sources (g0, g1) of the conservation-law form (no
    metric-jump correction; that term belongs to the ODE stage only).
    T00_M is the conserved u0."""
    sig = eos.sigma
    g0 = -2.0 / x * alpha * u1
    g1 = -0.5 * alpha * (
        4.0 / x * t11
        + (1.0 / A - 1.0) / x * (u0 - t11)
        + 2.0 * KAPPA * x / A * sig * rho * rho
        - 4.0 * sig * rho / x
    )
    return g0, g1


def weak_residual(history: HistoryRecorder, phi: BumpTestFunction) -> float:
    """Discrete weak-form defect of a recorded run against one test function.

    Midpoint quadrature on every half of every Riemann cell of
    -u phi_t - f(A,u) phi_x - g(A,u,x) phi, minus the initial-slice and
    boundary-flux terms (which vanish for a test function supported inside
    the open domain).  Returns the larger of the two components' defects.
    """
    t0, t1, a, b = phi.support
    x_lo, x_hi = history.xe[0], history.xe[-1]
    if a < x_lo or b > x_hi:
        raise RelshockError(
            f"support [{a}, {b}] exceeds the spatial domain [{x_lo}, {x_hi}]"
        )
    if t0 < history.t[0] or t1 > history.t[-1]:
        raise RelshockError("support exceeds the recorded time span")
    eos = history.eos
    dx = history.dx
    xe = history.xe
    x = history.x
    # half-cell midpoints: left halves [x_k, xe_k], right halves [xe_k, x_{k+1}]
    xm_l = x[:-1] + dx / 4.0
    xm_r = xe + dx / 4.0
    eps0 = 0.0
    eps1 = 0.0
    for j in range(len(history.dt)):
        dt = history.dt[j]
        tm = history.t[j] + 0.5 * dt
        if tm + dt < t0 or tm - dt > t1:
            continue
        A = history.A[j]
        alpha = np.sqrt(A * history.B[j])
        area = 0.5 * dx * dt
        for xm, sl in ((xm_l, slice(None, -1)), (xm_r, slice(1, None))):
            rho, v = history.rho[j][sl], history.v[j][sl]
            u0, u1 = history.u0[j][sl], history.u1[j][sl]
            t11 = fluid.t11_arrays(rho, v, eos)
            f0, f1 = alpha * u1, alpha * t11
            g0, g1 = _conservation_sources(A, alpha, rho, u0, u1, t11, xm, eos)
            pt = phi.dt(tm, xm)
            px = phi.dx(tm, xm)
            p = phi(tm, xm)
            eps0 += area * np.sum(-u0 * pt - f0 * px - g0 * p)
            eps1 += area * np.sum(-u1 * pt - f1 * px - g1 * p)
    # initial-slice term (zero when phi vanishes at the start time)
    p0_l = phi(history.t[0], xm_l)
    p0_r = phi(history.t[0], xm_r)
    eps0 -= 0.5 * dx * (np.sum(history.u0[0][:-1] * p0_l) + np.sum(history.u0[0][1:] * p0_r))
    eps1 -= 0.5 * dx * (np.sum(history.u1[0][:-1] * p0_l) + np.sum(history.u1[0][1:] * p0_r))
    return float(max(abs(eps0), abs(eps1)))
