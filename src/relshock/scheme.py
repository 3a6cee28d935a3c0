"""Locally inertial Godunov stepper with dynamical time dilation.

Staggered layout: fluid states live at cell centers x_1..x_n plus ghost
centers x_0 and x_{n+1}; the metric (A, B) and the mass M live at the
half gridpoints x_{k-1/2} and are frozen per Riemann cell during a step.
One step is four fractional stages: exact Riemann solutions at every
interface under the cell's frozen metric, a flux average (Godunov) over
each cell, one explicit source increment (ODE), and the mass/metric
integration up from the left boundary (update).  The Godunov stage is in
flux form: it takes the flux (T01, T11) of each interface's zero-speed
Riemann state and of each cell's own (rho, v).  Before the update, the
boundary stage takes the exact model outside the interaction region in one
evaluation: both ghost cells, the update's left anchors and the last
edge's (A, B).  A matched model's static exterior is rematched after the
update, from the integrated B.

This module is the stepper only: the grid, the state, the stage kernels,
:func:`init`, :func:`advance` and :func:`chop_right`.  How a run is
marched, stopped and recorded belongs to :func:`relshock.experiments.simulate_model`.

The stage kernels keep the contract of :mod:`relshock.fluid`: they
allocate their outputs, finish each formula in them bit for bit, and never
write into an input (the stepper passes views of its state).  The update
stores new M, A and B arrays, so arrays kept from before a step stay as
they were.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import diagnostics, fluid, models, riemann
from .errors import GridExhausted, HorizonEncountered, RelshockError
from .fluid import EosParams, _into
from .models import KAPPA

__all__ = ["SimGrid", "SimState", "StepReport", "init", "cfl_dt",
           "godunov_cell_update", "source_G", "ode_step", "advance", "chop_right"]

# stop before a literal coordinate singularity; A hits 0 only at a horizon
HORIZON_FLOOR = 1e-6


@dataclass(frozen=True)
class SimGrid:
    """Uniform radial mesh; dx is fixed for the whole run."""

    r_min: float
    r_max: float
    n: int

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("need at least 8 gridpoints")
        if not self.r_min < self.r_max:
            raise ValueError("r_min must be below r_max")

    @property
    def dx(self) -> float:
        return (self.r_max - self.r_min) / (self.n - 1)

    def centers_with_ghosts(self) -> np.ndarray:
        """x_0 .. x_{n+1}; interior points are x_1..x_n."""
        return self.r_min + (np.arange(self.n + 2) - 1) * self.dx

    def edges(self) -> np.ndarray:
        """Half gridpoints x_{k-1/2}, one per Riemann cell (n+1 of them)."""
        return self.r_min + (np.arange(self.n + 1) - 0.5) * self.dx


@dataclass
class SimState:
    """Mutable state owned by a single stepper.

    Cell arrays have length n+2 (ghosts at both ends); edge arrays have
    length n+1.  `bt` is the current time scale of the static exterior
    (meaningful for matched models); `right_frozen` marks a chopped
    boundary whose ghost values no longer track any model.
    """

    model: object
    eos: EosParams
    dx: float
    t: float
    x: np.ndarray
    xe: np.ndarray
    rho: np.ndarray
    v: np.ndarray
    u0: np.ndarray
    u1: np.ndarray
    A: np.ndarray
    B: np.ndarray
    M: np.ndarray
    bt: float | None = None
    right_frozen: bool = False
    eps: float = 1e-10

    @property
    def n(self) -> int:
        return self.x.size - 2

    def light_speed(self) -> np.ndarray:
        ab = self.A * self.B
        return np.sqrt(ab, out=ab)

    @cached_property
    def xe_sq(self) -> np.ndarray:
        """xe[:-1]**2, computed once per grid; :func:`chop_right` drops it."""
        return self.xe[:-1] ** 2


@dataclass(frozen=True)
class StepReport:
    dt: float
    max_light_speed: float
    regions: np.ndarray
    boundary_hit: bool


def _is_matched(model) -> bool:
    return isinstance(model, models.MatchedModel)


def init(model, grid: SimGrid, eos: EosParams, eps: float = 1e-10) -> SimState:
    """Discretize the model's start slice onto the staggered grid."""
    x = grid.centers_with_ghosts()
    xe = grid.edges()
    t0 = model.t_start
    rho, v, _, _, _ = model.evaluate(t0, x)
    _, _, A, B, M = model.evaluate(t0, xe)
    rho = np.asarray(rho, dtype=float).copy()
    v = np.asarray(v, dtype=float).copy()
    u0, u1 = fluid.conserved_arrays(rho, v, eos)
    bt = model.data.b0 if _is_matched(model) else None
    return SimState(
        model=model, eos=eos, dx=grid.dx, t=t0, x=x, xe=xe,
        rho=rho, v=v, u0=u0, u1=u1,
        A=np.asarray(A, dtype=float).copy(),
        B=np.asarray(B, dtype=float).copy(),
        M=np.asarray(M, dtype=float).copy(),
        bt=bt, eps=eps,
    )


def cfl_dt(dx: float, max_speed: float) -> float:
    """Largest step for which neighboring Riemann fans cannot meet on cells
    of width dx whose fastest coordinate light speed is max_speed."""
    return float(dx / (2.0 * max_speed))


def godunov_cell_update(u_c, f_c, f_star, alpha, dt, dx):
    """Flux average of each cell (u_c = (u0, u1), flux f_c = (T01, T11)) from
    the zero-speed fluxes f_star of its two bounding interfaces; each half
    cell carries its interface's frozen metric factor alpha = sqrt(AB)."""
    al, ar, r = alpha[:-1], alpha[1:], dt / dx
    out, w, z = [], None, None
    for u, f, fs in zip(u_c, f_c, f_star):
        d = al * f             # u - r*((al*f - al*fs[:-1]) + (ar*fs[1:] - ar*f))
        w = np.multiply(al, fs[:-1], out=w)
        d -= w
        w = np.multiply(ar, fs[1:], out=w)
        z = np.multiply(ar, f, out=z)
        w -= z
        d += w
        d *= r
        out.append(np.subtract(u, d, out=d))
    return tuple(out)


def source_G(A, B, rho, v, x, eos: EosParams):
    """Source of the ODE stage: undifferentiated geometric terms plus the
    flux correction for the metric jump at the cell center."""
    # pref = -0.5*sqrt(A*B)*(1+sig)/(1-vv)*rho/x and kx2 = KAPPA/A*rho*x*x;
    # g0 = pref*v*(2*(1/A + 1) - kx2*(1-sig));
    # g1 = pref*(4*vv + (1/A - 1)*(1 + vv) + kx2*(sig - vv))
    sig = eos.sigma
    pref = A * B
    pref = np.sqrt(pref, out=_into(pref))
    pref *= -0.5
    pref *= 1.0 + sig
    vv = v * v
    w = 1.0 - vv
    pref /= w
    pref *= rho
    pref /= x
    kx2 = np.divide(KAPPA, A, out=_into(w))
    kx2 *= rho
    kx2 *= x
    kx2 *= x
    inv_a = 1.0 / A
    g0 = inv_a + 1.0
    g0 *= 2.0
    g1 = kx2 * (1.0 - sig)
    g0 -= g1
    g1 = np.multiply(pref, v, out=_into(g1))
    g0 *= g1
    g1 = np.subtract(sig, vv, out=_into(g1))
    kx2 *= g1
    g1 = np.multiply(vv, 4.0, out=_into(g1))
    inv_a -= 1.0
    vv += 1.0
    inv_a *= vv
    g1 += inv_a
    g1 += kx2
    g1 *= pref
    return g0, g1


def ode_step(ubar0, ubar1, A_avg, B_avg, x, dt, eos: EosParams):
    """One forward-Euler increment of the source with the neighbor-averaged
    metric, as the update formula writes it.  A Godunov average outside the
    physical region (NaN included) raises NonPhysicalState naming the first
    bad entry."""
    rho, v = fluid.fluid_arrays(ubar0, ubar1, eos)
    fluid.check_fluid(rho, v)
    g0, g1 = source_G(A_avg, B_avg, rho, v, x, eos)
    g0 *= dt                   # ubar + g*dt, in g's buffer
    g0 += ubar0
    g1 *= dt
    g1 += ubar1
    return g0, g1


class _naming_cells:
    """Context that restates a kernel's error at entry k (any RelshockError
    with an `index`) as one at cell first + k, ghosts counted (interfaces,
    first=None: cells k and k + 1), and time t."""

    __slots__ = ("t", "first")

    def __init__(self, t: float, first: int | None):
        self.t, self.first = t, first

    def __enter__(self):
        return self

    def __exit__(self, kind, err, tb):
        if not isinstance(err, RelshockError) or err.index is None:
            return False
        k, first = err.index, self.first
        where = f"cells {k} and {k + 1}" if first is None else f"cell {first + k}"
        at = f"at {where}, t={self.t:.9g}"
        raise type(err)(
            str(err).replace(f"at index {k}", at).replace(f"at interface {k}", at)) from err


def _refresh_boundaries(state: SimState, t_new: float):
    """Boundary stage: set both ghost cells and return the boundary data of
    the update, left = the model's (A, B, M) at xe_0 and right = the last
    edge's (A, B).  One model evaluation at (x_0, xe_0), plus (x_{n+1}, xe_n)
    for a pure model whose grid has not been chopped; a matched exterior or
    a chopped boundary keeps its right ghost and last-edge values."""
    tracks_right = not (state.right_frozen or _is_matched(state.model))
    r = [state.x[0], state.xe[0]] + ([state.x[-1], state.xe[-1]] if tracks_right else [])
    rho, v, a, b, m = state.model.evaluate(t_new, np.array(r))
    state.rho[0], state.v[0] = rho[0], v[0]
    right = state.A[-1], state.B[-1]
    if tracks_right:
        state.rho[-1], state.v[-1] = rho[2], v[2]
        right = a[3], b[3]
    ends = [0, -1]
    state.u0[ends], state.u1[ends] = fluid.conserved_arrays(
        state.rho[ends], state.v[ends], state.eos)
    return (a[1], b[1], m[1]), right


def update_mass_metric(state: SimState, t_new: float, left, right):
    """Integrate M, A and B up from the exact left-boundary anchors
    left = (A, B, M) at xe[0] and t_new, using midpoint values of the
    freshly updated conserved field; the last edge then takes the boundary
    values right = (A, B)."""
    eos = state.eos
    xe = state.xe
    a0, b0, m0 = left
    u0mid = state.u0[:-2] + state.u0[1:-1]   # 0.5*(...), at xe[0..n-1]
    u0mid *= 0.5
    u1mid = state.u1[:-2] + state.u1[1:-1]
    u1mid *= 0.5
    terms = 0.5 * KAPPA * u0mid                # 0.5*KAPPA*u0mid*xe[:-1]**2*dx
    terms *= state.xe_sq
    terms *= state.dx
    M = np.empty(xe.size)                      # m0 + [0, cumsum(terms)]
    M[0] = 0.0
    np.cumsum(terms, out=M[1:])
    M += m0
    A = 2.0 * M                                # 1 - 2*M/xe
    A /= xe
    np.subtract(1.0, A, out=A)
    A[0] = a0
    if np.count_nonzero(A <= HORIZON_FLOOR):
        raise HorizonEncountered(
            f"radial metric component reached {A.min():.3e} at t={t_new:.6f}"
        )
    rho_mid, v_mid = fluid.fluid_arrays(u0mid, u1mid, eos)
    t11_mid = fluid.t11_arrays(u1mid, rho_mid, v_mid, eos)
    # ((1/A - 1)/xe + KAPPA*xe/A*t11)*dx at xe[:-1]
    np.divide(1.0, A[:-1], out=terms)
    terms -= 1.0
    terms /= xe[:-1]
    w = KAPPA * xe[:-1]
    w /= A[:-1]
    w *= t11_mid
    terms += w
    terms *= state.dx
    B = np.empty(xe.size)                      # b0*exp([0, cumsum(terms)])
    B[0] = 0.0
    np.cumsum(terms, out=B[1:])
    np.exp(B, out=B)
    B *= b0
    A[-1], B[-1] = right
    state.M, state.A, state.B = M, A, B


def rematch_tov_timescale(state: SimState, border_index: int) -> float:
    """Time scale of the static exterior read off at the detected border.

    border_index is a cell index; the stored B at the cell's left half
    gridpoint is used together with that gridpoint's radius.  A detected
    border cell lies in 1..n, so its edge k = border_index - 1 exists.
    """
    q = models.tov_exponent(state.eos)
    k = border_index - 1          # edge k sits at x_{i-1/2}
    return float(state.B[k] * state.xe[k] ** (-q))


def _rematch_exterior(state: SimState) -> None:
    """Matched right boundary: read the static exterior's time scale off the
    freshly integrated B at the detected border, and give the last edge the
    exterior's (A, B) at that scale."""
    border = diagnostics.detect_tov_border(state)
    if border is not None:  # else the exterior is uncontaminated: keep the scale
        state.bt = rematch_tov_timescale(state, border[1])
    _, _, a, b, _ = models.tov_state(state.xe[-1:], state.bt, state.eos)
    state.A[-1], state.B[-1] = a[0], b[0]


def advance(state: SimState, dt_cap: float | None = None) -> StepReport:
    """One full fractional step; mutates the state and reports on it."""
    eos = state.eos
    alpha = state.light_speed()
    max_speed = float(alpha.max())
    dt = cfl_dt(state.dx, max_speed)
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    t_new = state.t + dt

    # Riemann step: one exact solution per interface, frozen cell metric;
    # the Godunov step needs only the flux of its zero-speed state.
    with _naming_cells(state.t, None):
        sol = riemann.solve_interfaces(state.rho, state.v, eos, state.eps)
    rho_star, v_star = riemann.sample_solution(sol, 0.0)
    t01_star = fluid.conserved_arrays(rho_star, v_star, eos)[1]
    f_star = (t01_star, fluid.t11_arrays(t01_star, rho_star, v_star, eos))
    regions = sol.region
    del sol, rho_star, v_star   # free them before the later stages allocate

    # Godunov step over interior cells.
    u1_c = state.u1[1:-1]
    ubar0, ubar1 = godunov_cell_update(
        (state.u0[1:-1], u1_c),
        (u1_c, fluid.t11_arrays(u1_c, state.rho[1:-1], state.v[1:-1], eos)),
        f_star, alpha, dt, state.dx,
    )

    # ODE step with the neighbor-averaged metric, checked before it is stored.
    a_avg = state.A[:-1] + state.A[1:]       # 0.5*(...) each
    a_avg *= 0.5
    b_avg = state.B[:-1] + state.B[1:]
    b_avg *= 0.5
    with _naming_cells(t_new, 1):
        u0_new, u1_new = ode_step(ubar0, ubar1, a_avg, b_avg, state.x[1:-1], dt, eos)
        rho_new, v_new = fluid.fluid_arrays(u0_new, u1_new, eos)
        fluid.check_fluid(rho_new, v_new)
    state.u0[1:-1], state.u1[1:-1] = u0_new, u1_new
    state.rho[1:-1], state.v[1:-1] = rho_new, v_new

    left, right = _refresh_boundaries(state, t_new)

    # Update step: mass and metric by integration from the left anchor.
    with _naming_cells(t_new, None):   # midpoint k lies between cells k, k+1
        update_mass_metric(state, t_new, left, right)

    state.t = t_new
    boundary_hit = False
    if _is_matched(state.model) and not state.right_frozen:
        _rematch_exterior(state)
        border = diagnostics.detect_tov_border(state)
        boundary_hit = border is not None and border[1] >= state.n
    return StepReport(
        dt=dt, max_light_speed=max_speed, regions=regions,
        boundary_hit=boundary_hit,
    )


def chop_right(state: SimState, min_cells: int = 16) -> SimState:
    """Discard the rightmost cell; its left neighbor becomes the new right
    ghost and the boundary data freezes at that cell's current values."""
    if state.n - 1 < min_cells:
        raise GridExhausted(f"only {state.n} cells left (minimum {min_cells})")
    for name in ("x", "rho", "v", "u0", "u1", "xe", "A", "B", "M"):
        setattr(state, name, getattr(state, name)[:-1].copy())
    vars(state).pop("xe_sq", None)
    state.right_frozen = True
    return state
