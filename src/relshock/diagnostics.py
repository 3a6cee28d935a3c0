"""Instrumentation over simulation states: wave-front tracking, border
detection, error norms, convergence rates, and the weak-form residual.

Everything here is read-only over the stepper's state: functions take the
state (or plain arrays) and never mutate it.  The per-step hooks
(ConeTracker, TVMonitor, MuMonitor, WeakResidualMonitor) keep small
summaries or, for the residual, one copy of the previous step's state, so
their memory does not grow with the grid times the step count.  A hook
records the start and each step with one body (`on_start = __call__`),
except ConeTracker (no advance at the start) and WeakResidualMonitor (set-up).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fluid
from .errors import RelshockError
from .models import KAPPA

__all__ = [
    "ConeState",
    "ConeTracker",
    "three_point_derivative",
    "detect_frw_border",
    "detect_tov_border",
    "black_hole_number",
    "one_norm_error",
    "convergence_rate",
    "BumpTestFunction",
    "WeakResidualMonitor",
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


class ConeTracker:
    """Per-step hook that carries a ConeState along a run: each step moves
    every front by its local coordinate speed times dt, light at +/- sqrt(AB)
    and sound at sqrt(AB) times the relativistic composition of the fluid
    velocity with +/- the sound speed.  Metric and fluid values are linearly
    interpolated at the current front positions; fronts are clamped at the
    grid."""

    def __init__(self, r0: float):
        self.cones = ConeState(r0, r0, r0, r0)
        self.trajectory = []

    def on_start(self, state):   # the first record does not advance
        self.trajectory.append((state.t, self.cones))

    def __call__(self, state, report):
        a, dt, c = float(state.eos.sound_speed), report.dt, self.cones
        lo, hi = float(state.x[1]), float(state.x[-2])
        r = [c.light_left, c.light_right, c.sound_left, c.sound_right]
        alpha = np.sqrt(np.interp(r, state.xe, state.A) * np.interp(r, state.xe, state.B)).tolist()
        v = np.interp(r[2:], state.x, state.v).tolist()

        def light(k, sign):
            return r[k] + sign * alpha[k] * dt

        def sound(k, sign):
            w = v[k - 2]
            return r[k] + alpha[k] * (w + sign * a) / (1.0 + sign * w * a) * dt

        new = [light(0, -1.0), light(1, 1.0), sound(2, -1.0), sound(3, 1.0)]
        self.cones = ConeState(*(min(max(x, lo), hi) for x in new))
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


def _scan_dv(state, mask_of, last: bool):
    """(radius, ghost-inclusive index) of the first (or `last`) interior
    cell where `mask_of(dv/dr)` holds, dv/dr by three points; else None."""
    d = three_point_derivative(state.v[1:-1], state.dx)
    hits = np.nonzero(mask_of(d))[0]
    if hits.size == 0:
        return None
    k = 1 + int(hits[-1 if last else 0])
    return float(state.x[k]), k


def detect_frw_border(state):
    """First radius (scanning up from r_min) where the velocity derivative
    changes sign: the onset of numerical diffusion on the expanding side.

    Returns (radius, cell index in ghost-inclusive numbering) or None.
    """
    return _scan_dv(state, lambda d: d[:-1] * d[1:] < 0.0, last=False)


def detect_tov_border(state):
    """First radius (scanning down from r_max) where |dv/dr| exceeds
    TOV_BORDER_THRESHOLD: the outer edge of the diffused wave on the
    static side.  Returns (radius, cell index) or None."""
    return _scan_dv(state, lambda d: np.abs(d) > TOV_BORDER_THRESHOLD, last=True)


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
        self.alarmed = False

    def __call__(self, state, report=None):
        tv0, tv1 = (float(np.abs(np.diff(u[1:-1])).sum()) for u in (state.u0, state.u1))
        self.history.append((state.t, tv0, tv1))
        _, tv0_start, tv1_start = self.history[0]   # the first record never alarms
        if tv0 + tv1 > TV_ALARM_FACTOR * max(tv0_start + tv1_start, 1e-300):
            self.alarmed = True

    on_start = __call__


class MuMonitor:
    """Hook recording the running maximum of the black-hole number."""

    def __init__(self):
        self.history = []

    def __call__(self, state, report=None):
        self.history.append((state.t,) + black_hole_number(state))

    on_start = __call__


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
        """(psi, psi') of the 1-d mollifier at z."""
        psi, dpsi = np.zeros_like(z), np.zeros_like(z)
        inside = np.abs(z) < 1.0
        zi = z[inside]
        w = 1.0 - zi * zi
        psi[inside] = e = np.exp(-1.0 / w)
        dpsi[inside] = e * (-2.0 * zi / (w * w))
        return psi, dpsi

    def values(self, t, x):
        """(phi, phi_t, phi_x) at (t, x)."""
        psi_t, dpsi_t = self._psi(np.asarray((t - self.tc) / self.tw, dtype=float))
        psi_x, dpsi_x = self._psi(np.asarray((x - self.xc) / self.xw, dtype=float))
        return psi_t * psi_x, dpsi_t / self.tw * psi_x, psi_t * dpsi_x / self.xw


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


class WeakResidualMonitor:
    """Hook accumulating the discrete weak-form defect of a run against one
    test function, keeping only the previous step's state.

    Midpoint quadrature on every half of every Riemann cell of
    -u phi_t - f(A,u) phi_x - g(A,u,x) phi.  The boundary-flux and
    initial-slice terms vanish, so none is kept: a support outside the grid
    or starting before the run fails at on_start, and at the start time
    z = (t - t_c)/t_w is then -1 to within a few ulp, where the mollifier
    exp(-1/(1 - z^2)) underflows to exactly 0 (it does for |z| > 0.99933).
    A support ending after the run fails in value().
    Runs that chop the grid are not supported: a step inside the window on
    a chopped grid raises RelshockError.
    """

    def __init__(self, phi: BumpTestFunction):
        self.phi = phi
        self._eps0 = 0.0
        self._eps1 = 0.0

    def on_start(self, state):
        t0, _, a, b = self.phi.support
        x_lo, x_hi = state.xe[0], state.xe[-1]
        if a < x_lo or b > x_hi:
            raise RelshockError(
                f"support [{a}, {b}] exceeds the spatial domain [{x_lo}, {x_hi}]"
            )
        if t0 < state.t:
            raise RelshockError("support exceeds the recorded time span")
        # half-cell midpoints: left halves [x_k, xe_k], right halves [xe_k, x_{k+1}]
        self._halves = ((state.x[:-1] + state.dx / 4.0, slice(None, -1)),
                        (state.xe + state.dx / 4.0, slice(1, None)))
        self._size = state.x.size
        self._keep(state)

    def __call__(self, state, report):
        t0, t1, _, _ = self.phi.support
        dt = report.dt
        t, rho_c, v_c, u0_c, u1_c, A, B = self._prev
        tm = t + 0.5 * dt
        if not (tm + dt < t0 or tm - dt > t1):
            if state.x.size != self._size:
                raise RelshockError(
                    f"grid chopped before the step ending at t={state.t:.9g}: "
                    "WeakResidualMonitor does not support runs that chop the grid")
            eos = state.eos
            alpha = np.sqrt(A * B)
            area = 0.5 * state.dx * dt
            for xm, sl in self._halves:
                rho, v, u0, u1 = rho_c[sl], v_c[sl], u0_c[sl], u1_c[sl]
                t11 = fluid.t11_arrays(u1, rho, v, eos)
                f0, f1 = alpha * u1, alpha * t11
                g0, g1 = _conservation_sources(A, alpha, rho, u0, u1, t11, xm, eos)
                p, pt, px = self.phi.values(tm, xm)
                self._eps0 += area * np.sum(-u0 * pt - f0 * px - g0 * p)
                self._eps1 += area * np.sum(-u1 * pt - f1 * px - g1 * p)
        self._keep(state)

    def _keep(self, state):
        self._prev = (state.t,) + tuple(
            getattr(state, name).copy() for name in ("rho", "v", "u0", "u1", "A", "B"))

    def value(self) -> float:
        """The larger of the two components' defects over the run so far."""
        if self.phi.support[1] > self._prev[0]:
            raise RelshockError("support exceeds the recorded time span")
        return float(max(abs(self._eps0), abs(self._eps1)))
