"""Array kernels for the relativistic perfect fluid with p = sigma*rho.

Three coordinate systems on the state space are used throughout: the fluid
variables (rho, v), the conserved pair (u0, u1) = (T00_M, T01_M) of
flat-space energy and momentum densities, and the Riemann invariants
(r, s) in which rarefaction curves are straight lines.  Every conversion
is one exact closed-form kernel that accepts scalars or numpy arrays.  The
momentum flux T11_M = u1*v + sigma*rho (:func:`t11_arrays`) takes the
momentum density u1 = T01_M the caller already holds, so it costs no
enthalpy evaluation.  The speed of light is fixed at c = 1.

Every kernel returns new arrays and never writes into an input.  The wide
ones finish each formula in their outputs and a work array or two
(augmented assignment, `out=`), in the operation order of the plain
expression, so every bit is the same; their array arguments share one
shape, and any of them may be a scalar.  Guards are min/max reductions,
through which NaN propagates and fails, and a density of +inf fails too;
only a failed guard builds the masks that name the first bad entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import NonPhysicalState

__all__ = [
    "EosParams",
    "rapidity",
    "conserved_arrays",
    "fluid_arrays",
    "invariant_arrays",
    "fluid_from_invariant_arrays",
    "t11_arrays",
    "check_fluid",
    "partial_density",
    "lorentz_compose",
]


@dataclass(frozen=True)
class EosParams:
    """Equation of state p = sigma*rho with constant sigma.

    sqrt(sigma) is the sound speed; K = 2*sigma/(1+sigma)^2 is the constant
    appearing in the Riemann invariants.  Each derived constant is computed
    on first use and kept: the kernels read them many times per step.
    """

    sigma: float = 1.0 / 3.0

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise NonPhysicalState(f"sigma must lie in (0, 1), got {self.sigma}")

    @cached_property
    def sound_speed(self) -> float:
        return np.sqrt(self.sigma)

    @cached_property
    def K(self) -> float:
        return 2.0 * self.sigma / (1.0 + self.sigma) ** 2

    @cached_property
    def sqrt_K_half(self) -> float:
        return np.sqrt(self.K / 2.0)

    @cached_property
    def sqrt_2K(self) -> float:
        return np.sqrt(2.0 * self.K)


def _into(buf):
    """`out=` that finishes a formula in buf: buf itself when it is an array
    the kernel allocated, None when it is a scalar (the ufunc then returns
    a new scalar)."""
    return buf if type(buf) is np.ndarray else None


# min and max over every entry, NaN propagating; an empty array gives the
# initial value, which passes every guard
_least = partial(np.minimum.reduce, axis=None, initial=np.inf)
_most = partial(np.maximum.reduce, axis=None, initial=-np.inf)


def rapidity(v):
    """0.5*ln((1+v)/(1-v)); velocities compose additively in this variable."""
    phi = 1.0 + v
    phi /= 1.0 - v
    phi = np.log(phi, out=_into(phi))
    phi *= 0.5
    return phi


def conserved_arrays(rho, v, eos: EosParams):
    """(u0, u1) from (rho, v).

    Both are built from h = (sigma+1)*rho/(1-v^2), with 1-v^2 factored as
    (1-v)*(1+v): forming 1-v*v loses about 1/(1-v^2) ulps as |v| -> 1, and
    rho is recovered from the small difference u0 - v*u1, so that loss
    would show up in the round trip.
    """
    sig = eos.sigma
    h = rho * (sig + 1.0)      # h = rho*(sig+1)/((1-v)*(1+v))
    d = 1.0 - v
    d *= 1.0 + v
    h /= d
    u0 = h - sig * rho
    h *= v
    return u0, h


def _require(ok, what: str, **values):
    """Raise NonPhysicalState naming the first entry where `ok` is false;
    NaN compares false, so it never passes.  Callers come here only when
    their reduction guard has failed."""
    if np.all(ok):
        return
    k = int(np.flatnonzero(~np.asarray(ok))[0])
    shown = ", ".join(f"{name}={np.broadcast_to(a, np.shape(ok)).flat[k]:.6e}"
                      for name, a in values.items())
    raise NonPhysicalState(f"{what} at index {k} ({shown})", index=k)


def fluid_arrays(u0, u1, eos: EosParams):
    """(rho, v) as arrays, inverting :func:`conserved_arrays`.

    The quadratic for v is evaluated in the rationalized form
    v = 2*u1 / ((sigma+1)*u0 + sqrt(disc)), which selects the |v| < 1 root
    and passes smoothly through u1 = 0.  A pair with disc < 0 or u0 <= 0,
    or a NaN, raises NonPhysicalState naming the first bad index.
    """
    sig1 = eos.sigma + 1.0
    disc = sig1 ** 2 * u0      # disc = (sig+1)^2*u0*u0 - 4*sig*u1*u1
    disc *= u0
    w = 4.0 * eos.sigma * u1
    w *= u1
    disc -= w
    if not (_least(disc) >= 0.0 and _least(u0) > 0.0):
        _require(disc >= 0.0, "conserved pair outside the physical region (disc < 0)",
                 u0=u0, u1=u1)
        _require(u0 > 0.0, "u0 must be positive", u0=u0, u1=u1)
    disc = np.sqrt(disc, out=_into(disc))
    denom = np.multiply(sig1, u0, out=_into(w))
    denom += disc
    v = np.multiply(2.0, u1, out=_into(disc))
    v /= denom
    rho = 1.0 - v              # rho = (1-v)*(1+v)*denom/(2*(sig+1))
    rho *= 1.0 + v
    rho *= denom
    rho /= 2.0 * sig1
    return rho, v


def check_fluid(rho, v):
    """Reject any entry without 0 < rho < inf and |v| < 1 (NaN fails both)."""
    if not (_least(rho) > 0.0 and _most(rho) < np.inf and _most(np.abs(v)) < 1.0):
        _require(rho > 0.0, "rho must be positive", rho=rho)
        _require(rho < np.inf, "rho must be finite", rho=rho)
        _require(np.abs(v) < 1.0, "|v| must be < 1", v=v)


def t11_arrays(u1, rho, v, eos: EosParams):
    """T11_M = u1*v + sigma*rho, the momentum flux of the flat-space system,
    from the momentum density u1 = T01_M of the same state (u1 = h*v, so this
    is h*v^2 + sigma*rho with h = (sigma+1)*rho/(1-v^2))."""
    return u1 * v + eos.sigma * rho


def invariant_arrays(rho, v, eos: EosParams):
    """(r, s) from (rho, v)."""
    phi = rapidity(v)
    lr = np.log(rho)
    lr *= eos.sqrt_K_half
    return phi - lr, np.add(phi, lr, out=_into(lr))


def fluid_from_invariant_arrays(r, s, eos: EosParams):
    """(rho, v) from (r, s), inverting :func:`invariant_arrays`."""
    rho = np.exp((s - r) / eos.sqrt_2K)
    e = np.exp(s + r)
    v = -(1.0 - e) / (1.0 + e)
    return rho, v


def partial_density(invariant_value, which: str, v, eos: EosParams):
    """Density from one invariant plus the velocity.

    which='r' inverts r(rho, v); which='s' inverts s(rho, v).  Used to fill
    rarefaction fans, where one invariant is constant across the wave.
    """
    phi = rapidity(v)
    if which == "r":
        return np.exp(-(invariant_value - phi) / eos.sqrt_K_half)
    if which == "s":
        return np.exp((invariant_value - phi) / eos.sqrt_K_half)
    raise ValueError(f"which must be 'r' or 's', got {which!r}")


def lorentz_compose(v, w):
    """Relativistic velocity addition (v + w)/(1 + v*w), c = 1.

    With w = -a or +a (a the sound speed) it gives the characteristic speeds
    lambda1(v) and lambda2(v) of the two families; with (xi, +a) or (xi, -a)
    it inverts them for the velocity inside a 1- or 2-rarefaction fan."""
    return (v + w) / (1.0 + v * w)
