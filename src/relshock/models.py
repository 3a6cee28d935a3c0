"""Closed-form spacetimes in standard Schwarzschild coordinates.

Covers the critical expanding-universe metric in its two coordinate images
(here called FRW-1 and FRW-2), the static isothermal-sphere metric (TOV),
and the one-parameter continuous matching of the two across an initial
fluid discontinuity, forward or time reversed.  The expanding universe's
fields are one kernel of its comoving time; each image is a map from its
own time coordinate to comoving time plus the integrating factor psi that
diagonalizes it (psi = 1 in FRW-1).  A MatchedModel is an FrwModel inside
r0, named by its psi0 (None for FRW-1), and the static sphere outside.

A chart kernel is one formula for a scalar time and a radius that is a
float (its guards and fields are then scalars, no 0-d array) or a float
array; at a float it equals, bit for bit, its value in a 1-element array.

Conventions: G = c = 1, kappa = 8*pi.  Radii, times and masses are all in
the same (mass) unit.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPhysicalState
from .fluid import EosParams

KAPPA = 8.0 * np.pi

__all__ = [
    "KAPPA",
    "gamma",
    "tov_exponent",
    "frw1_state",
    "frw2_state",
    "frw2_frw_time",
    "tov_state",
    "FrwModel",
    "TovModel",
    "MatchedModel",
    "make_model",
]


def gamma(eos: EosParams) -> float:
    """Density coefficient of the static isothermal sphere, rho = gamma/r^2."""
    sig = eos.sigma
    return sig / (2.0 * np.pi * (1.0 + 6.0 * sig + sig * sig))


def tov_exponent(eos: EosParams) -> float:
    """Power of r in the static metric's time component: B = B0 * r^(4s/(1+s))."""
    return 4.0 * eos.sigma / (1.0 + eos.sigma)


def _radius(r_bar):
    """r_bar itself when it is a float, else as a float array."""
    return r_bar if isinstance(r_bar, float) else np.asarray(r_bar, dtype=float)


def _frw_fields(t, r, psi):
    """(rho, v, A, B, M) of the expanding universe at comoving time t and
    radius r under the integrating factor psi (1 in FRW-1)."""
    v = r / (2.0 * t)
    A = 1.0 - v * v
    return 3.0 / (4.0 * KAPPA * t * t), v, A, 1.0 / (psi * psi * A), r * v * v / 2.0


def frw1_state(t_bar, r_bar):
    """Expanding universe in the coordinates where light speed is exactly 1.

    Self-similar in xi = r/t; valid for |xi| < 1 (t < 0 gives the time
    reversed solution; t = 0 has no slice).  Requires the radiation
    equation of state.
    """
    if t_bar == 0.0:
        raise NonPhysicalState("the FRW-1 chart has no slice at t = 0")
    r = _radius(r_bar)
    xi = r / t_bar
    if np.count_nonzero(abs(xi) >= 1.0):
        raise NonPhysicalState(f"|r/t| >= 1 on the requested slice (t={t_bar})")
    return _frw_fields(t_bar * (1.0 + np.sqrt(1.0 - xi * xi)) / 2.0, r, 1.0)


def frw2_frw_time(t_bar, r_bar, psi0: float):
    """Comoving time t of the expanding universe from FRW-2 coordinates,
    which cover only t_bar > 0."""
    if t_bar <= 0.0:
        raise NonPhysicalState(f"the FRW-2 chart has no slice at t = {t_bar:g}")
    r = _radius(r_bar)
    # a ufunc power rounds as on an array; a float's ** may round differently
    disc = np.power(t_bar, 4.0) - r * r * psi0**4
    if np.count_nonzero(disc < 0.0):
        raise NonPhysicalState("t_bar^4 < r_bar^2 psi0^4: outside the FRW-2 chart")
    return (t_bar**2 + np.sqrt(disc)) / (2.0 * psi0**2)


def frw2_state(t_bar, r_bar, psi0: float):
    """Expanding universe under the dynamical integrating factor."""
    t = frw2_frw_time(t_bar, r_bar, psi0)
    r = _radius(r_bar)
    if np.count_nonzero(abs(r / (2.0 * t)) >= 1.0):
        raise NonPhysicalState("fluid speed >= 1 on the requested slice")
    return _frw_fields(t, r, psi0 * np.sqrt(t / (4.0 * t * t + r * r)))


def tov_state(r_bar, b0: float, eos: EosParams):
    """Static isothermal sphere: rho = gamma/r^2, constant A, B = b0*r^q."""
    r = _radius(r_bar)
    if np.count_nonzero(r <= 0.0) or b0 <= 0.0:
        raise NonPhysicalState("tov_state needs r > 0 and b0 > 0")
    g = gamma(eos)
    v = 0.0 * r                # r > 0: zeros and a constant A of r's shape
    B = b0 * np.power(r, tov_exponent(eos))
    return g / (r * r), v, (1.0 - KAPPA * g) + v, B, 4.0 * np.pi * g * r


class FrwModel:
    """Pure expanding universe in the FRW-1 image (psi0 None: unit light
    speed; a negative t_start runs the time-reversed, collapsing solution)
    or the FRW-2 image under the integrating factor constant psi0."""

    def __init__(self, eos: EosParams, t_start: float, psi0: float | None = None):
        if abs(eos.sigma - 1.0 / 3.0) > 1e-12:
            raise NonPhysicalState("the expanding-universe charts require sigma = 1/3 "
                                   "(sound speed of radiation)")
        self.t_start = float(t_start)
        self.psi0 = psi0

    def evaluate(self, t, r):
        return frw1_state(t, r) if self.psi0 is None else frw2_state(t, r, self.psi0)


class TovModel:
    """Pure static isothermal sphere, B = r^q, from t = 0."""

    t_start = 0.0

    def __init__(self, eos: EosParams):
        self.eos = eos

    def evaluate(self, t, r):
        return tov_state(r, 1.0, self.eos)


class MatchedModel:
    """The expanding universe `inner` (image 'frw1' or 'frw2') for r < r0
    and the static isothermal sphere B = b0 r^q outside, matched at r0 with
    the metric continuous and the fluid jumping from v0 to rest.  b0 is
    fixed by B-continuity and is the same for both images; reversal flips
    the sign of v0 and of the start time.

    Valid as a pointwise exact solution only outside the interaction region
    that grows from r0; the scheme samples it there (initial slice and
    ghost cells).
    """

    def __init__(self, variant: str, r0: float, eos: EosParams,
                 reversed_time: bool = False):
        if r0 <= 0.0:
            raise NonPhysicalState("r0 must be positive")
        sig = eos.sigma
        v0 = np.sqrt(4.0 * sig / (1.0 + 6.0 * sig + sig * sig))
        v0 = -v0 if reversed_time else v0
        if variant == "frw1":
            self.inner = FrwModel(eos, r0 * (1.0 + v0 * v0) / (2.0 * v0))
        elif variant == "frw2":
            if reversed_time:
                raise NonPhysicalState("the FRW-2 matching is forward-time only")
            t0_frw = r0 / (2.0 * v0)  # comoving time at the jump
            psi0 = np.sqrt((4.0 * t0_frw**2 + r0**2) / t0_frw)
            self.inner = FrwModel(eos, psi0**2 / 2.0, float(psi0))
        else:
            raise ValueError(f"variant must be 'frw1' or 'frw2', got {variant!r}")
        self.eos = eos
        self.r0 = r0
        self.v0 = float(v0)
        self.b0 = float(r0 ** (-tov_exponent(eos)) / (1.0 - v0 * v0))
        self.t_start = self.inner.t_start

    def evaluate(self, t, r):
        r = np.asarray(r, dtype=float)
        inner = r < self.r0
        # placeholder radii keep each side's masked-out points in its domain
        # (inside both FRW charts: |r/t| = 1/4, and r psi0^2 < t^2)
        parts_in = self.inner.evaluate(t, np.where(inner, r, abs(t) / 4.0))
        parts_out = tov_state(np.where(inner, self.r0, r), self.b0, self.eos)
        return tuple(np.where(inner, a, b) for a, b in zip(parts_in, parts_out))


def make_model(variant: str, eos: EosParams, *, r0: float | None = None,
               t_start: float | None = None, reversed_time: bool = False):
    """Model factory keyed by the run-config variant name.  r0 is read by
    frw1_tov and frw2_tov, t_start (default 15) by frw1 and frw2; frw2 takes
    psi0 = sqrt(2 t_start), light speed 1 on the start slice, and a t_start
    with no slice is refused with NonPhysicalState.  reversed_time is passed
    to the matching of frw1_tov and frw2_tov (the FRW-2 matching refuses
    it); a pure model refuses it with ValueError, since a pure frw1 model
    runs reversed from a negative t_start."""
    if variant in ("frw1_tov", "frw2_tov"):
        return MatchedModel(variant[:4], r0, eos, reversed_time)
    if variant not in ("frw1", "frw2", "tov"):
        raise ValueError(f"unknown model variant {variant!r}")
    if reversed_time:
        raise ValueError(f"reversed_time applies to the matched models, not {variant!r}; "
                         "a pure frw1 model runs reversed from a negative t_start")
    if variant == "tov":
        return TovModel(eos)
    t_start = 15.0 if t_start is None else t_start
    if t_start == 0.0 or (variant == "frw2" and t_start < 0.0):
        raise NonPhysicalState(f"the {variant} chart has no slice at t_start = {t_start:g}")
    return FrwModel(eos, t_start, float(np.sqrt(2.0 * t_start)) if variant == "frw2" else None)
