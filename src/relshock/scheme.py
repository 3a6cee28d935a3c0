"""Locally inertial Godunov stepper with dynamical time dilation.

Staggered layout: fluid states live at cell centers x_1..x_n plus ghost
centers x_0 and x_{n+1}; the metric (A, B) and the mass M live at the
half gridpoints x_{k-1/2} and are frozen per Riemann cell during a step.
One step is four fractional stages: exact Riemann solutions at every
interface under the cell's frozen metric, a flux average (Godunov) over
each cell, one explicit source increment (ODE), and the mass/metric
integration up from the left boundary (update).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from . import diagnostics, fluid, models, riemann
from .errors import BorderNotFound, GridExhausted, HorizonEncountered
from .fluid import EosParams
from .models import KAPPA

__all__ = ["SimGrid", "SimState", "StepReport", "RunLog", "Hook", "init", "cfl_dt",
           "godunov_cell_update", "source_G", "ode_step", "advance",
           "chop_right", "run"]

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
        return np.sqrt(self.A * self.B)

    def copy(self) -> "SimState":
        return SimState(
            model=self.model, eos=self.eos, dx=self.dx, t=self.t,
            x=self.x.copy(), xe=self.xe.copy(),
            rho=self.rho.copy(), v=self.v.copy(),
            u0=self.u0.copy(), u1=self.u1.copy(),
            A=self.A.copy(), B=self.B.copy(), M=self.M.copy(),
            bt=self.bt, right_frozen=self.right_frozen, eps=self.eps,
        )


@dataclass(frozen=True)
class StepReport:
    dt: float
    max_light_speed: float
    regions: np.ndarray
    boundary_hit: bool


@dataclass
class RunLog:
    """Per-run bookkeeping filled in by :func:`run`."""

    dt_history: list = field(default_factory=list)
    steps: int = 0
    stop_reason: str = "t_end"
    horizon: bool = False
    chops: int = 0


class Hook(Protocol):
    """Per-run observer: :func:`run` calls on_start once with the initial
    state, then the hook itself once after every step."""

    def on_start(self, state: SimState) -> None: ...

    def __call__(self, state: SimState, report: StepReport) -> None: ...


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


def cfl_dt(state: SimState) -> float:
    """Largest step for which neighboring Riemann fans cannot meet."""
    return float(state.dx / (2.0 * state.light_speed().max()))


def godunov_cell_update(u_c, ustar_left, ustar_right, alpha_left, alpha_right,
                        dt, dx, eos: EosParams):
    """Flux average of one cell from the zero-speed states of its two
    bounding Riemann problems; each half cell carries its own frozen
    metric factor.  All arguments broadcast."""
    u0c, u1c = u_c
    t11_c = fluid.t11_arrays(*fluid.fluid_arrays(u0c, u1c, eos), eos)
    f0_l, f1_l = alpha_left * u1c, alpha_left * t11_c
    f0_r, f1_r = alpha_right * u1c, alpha_right * t11_c
    s0_l, s1_l = ustar_left
    s0_r, s1_r = ustar_right
    fs0_l = alpha_left * s1_l
    fs1_l = alpha_left * fluid.t11_arrays(*fluid.fluid_arrays(s0_l, s1_l, eos), eos)
    fs0_r = alpha_right * s1_r
    fs1_r = alpha_right * fluid.t11_arrays(*fluid.fluid_arrays(s0_r, s1_r, eos), eos)
    r = dt / dx
    ubar0 = u0c - r * ((f0_l - fs0_l) + (fs0_r - f0_r))
    ubar1 = u1c - r * ((f1_l - fs1_l) + (fs1_r - f1_r))
    return ubar0, ubar1


def source_G(A, B, rho, v, x, eos: EosParams):
    """Source of the ODE stage: undifferentiated geometric terms plus the
    flux correction for the metric jump at the cell center."""
    sig = eos.sigma
    alpha = np.sqrt(A * B)
    pref = -0.5 * alpha * (1.0 + sig) / (1.0 - v * v) * rho / x
    kx2 = KAPPA / A * rho * x * x
    g0 = pref * v * (2.0 * (1.0 / A + 1.0) - kx2 * (1.0 - sig))
    g1 = pref * (4.0 * v * v + (1.0 / A - 1.0) * (1.0 + v * v) + kx2 * (sig - v * v))
    return g0, g1


def ode_step(ubar0, ubar1, A_avg, B_avg, x, dt, eos: EosParams):
    """One forward-Euler increment of the source with the neighbor-averaged
    metric, as the update formula writes it.  A Godunov average outside the
    physical region (NaN included) raises NonPhysicalState naming the first
    bad entry."""
    rho, v = fluid.fluid_arrays(ubar0, ubar1, eos)
    fluid.check_fluid(rho, v)
    g0, g1 = source_G(A_avg, B_avg, rho, v, x, eos)
    return ubar0 + g0 * dt, ubar1 + g1 * dt


def _refresh_left_ghost(state: SimState, t_new: float):
    rho, v, _, _, _ = state.model.evaluate(t_new, state.x[:1])
    state.rho[0] = rho[0]
    state.v[0] = v[0]


def _refresh_right_ghost_fluid(state: SimState, t_new: float):
    # static exterior of a matched model never changes; a chopped boundary
    # keeps whatever the discarded cell held
    if state.right_frozen or _is_matched(state.model):
        return
    rho, v, _, _, _ = state.model.evaluate(t_new, state.x[-1:])
    state.rho[-1] = rho[0]
    state.v[-1] = v[0]


def update_mass_metric(state: SimState, t_new: float):
    """Integrate M, A and B up from the exact left-boundary anchors using
    midpoint values of the freshly updated conserved field."""
    eos = state.eos
    xe = state.xe
    if state.right_frozen:
        # left boundary still tracks the model; right ghost edge is frozen
        a_right, b_right = state.A[-1], state.B[-1]
    _, _, a0, b0, m0 = state.model.evaluate(t_new, xe[:1])
    u0mid = 0.5 * (state.u0[:-1] + state.u0[1:])   # at xe[0..n-1]
    u1mid = 0.5 * (state.u1[:-1] + state.u1[1:])
    terms_m = 0.5 * KAPPA * u0mid[:-1] * xe[:-1] ** 2 * state.dx
    M = m0[0] + np.concatenate(([0.0], np.cumsum(terms_m)))
    A = 1.0 - 2.0 * M / xe
    A[0] = a0[0]
    if np.any(A <= HORIZON_FLOOR):
        raise HorizonEncountered(
            f"radial metric component reached {A.min():.3e} at t={t_new:.6f}"
        )
    rho_mid, v_mid = fluid.fluid_arrays(u0mid[:-1], u1mid[:-1], eos)
    t11_mid = fluid.t11_arrays(rho_mid, v_mid, eos)
    terms_b = ((1.0 / A[:-1] - 1.0) / xe[:-1]
               + KAPPA * xe[:-1] / A[:-1] * t11_mid) * state.dx
    B = b0[0] * np.exp(np.concatenate(([0.0], np.cumsum(terms_b))))
    state.M, state.A, state.B = M, A, B
    if state.right_frozen:
        state.A[-1], state.B[-1] = a_right, b_right


def rematch_tov_timescale(state: SimState, border_index: int) -> float:
    """Time scale of the static exterior read off at the detected border.

    border_index is a cell index; the stored B at the cell's left half
    gridpoint is used together with that gridpoint's radius.
    """
    q = models.tov_exponent(state.eos)
    k = border_index - 1          # edge k sits at x_{i-1/2}
    if not 0 <= k < state.xe.size:
        raise BorderNotFound(f"border cell {border_index} has no stored edge")
    return float(state.B[k] * state.xe[k] ** (-q))


def _override_right_ghost_metric(state: SimState, t_new: float) -> None:
    """Right boundary data: model values for pure models, rematched static
    exterior for matched models, frozen values after chopping."""
    if state.right_frozen:
        return
    model = state.model
    if _is_matched(model):
        q = models.tov_exponent(state.eos)
        try:
            _, idx = diagnostics.detect_tov_border(state)
            state.bt = rematch_tov_timescale(state, idx)
        except BorderNotFound:
            pass  # exterior still uncontaminated: keep the current scale
        state.A[-1] = 1.0 - KAPPA * models.gamma(state.eos)
        state.B[-1] = state.bt * state.xe[-1] ** q
    else:
        _, _, a, b, _ = model.evaluate(t_new, state.xe[-1:])
        state.A[-1] = a[0]
        state.B[-1] = b[0]


def advance(state: SimState, dt_cap: float | None = None) -> StepReport:
    """One full fractional step; mutates the state and reports on it."""
    eos = state.eos
    dt = cfl_dt(state)
    if dt_cap is not None:
        dt = min(dt, dt_cap)

    # Riemann step: one exact solution per interface, frozen cell metric.
    sol = riemann.solve_interfaces(
        state.rho[:-1], state.v[:-1], state.rho[1:], state.v[1:], eos, state.eps
    )
    rho_star, v_star = riemann.sample_solution(sol, 0.0)
    us0, us1 = fluid.conserved_arrays(rho_star, v_star, eos)

    # Godunov step over interior cells.
    alpha = state.light_speed()
    ubar0, ubar1 = godunov_cell_update(
        (state.u0[1:-1], state.u1[1:-1]),
        (us0[:-1], us1[:-1]),
        (us0[1:], us1[1:]),
        alpha[:-1], alpha[1:],
        dt, state.dx, eos,
    )

    # ODE step with the neighbor-averaged metric at the cell center.
    a_avg = 0.5 * (state.A[:-1] + state.A[1:])
    b_avg = 0.5 * (state.B[:-1] + state.B[1:])
    u0_new, u1_new = ode_step(ubar0, ubar1, a_avg, b_avg, state.x[1:-1], dt, eos)

    t_new = state.t + dt
    state.u0[1:-1], state.u1[1:-1] = u0_new, u1_new
    rho_new, v_new = fluid.fluid_arrays(u0_new, u1_new, eos)
    state.rho[1:-1], state.v[1:-1] = rho_new, v_new

    _refresh_left_ghost(state, t_new)
    _refresh_right_ghost_fluid(state, t_new)
    state.u0[0], state.u1[0] = fluid.conserved_arrays(state.rho[0], state.v[0], eos)
    state.u0[-1], state.u1[-1] = fluid.conserved_arrays(state.rho[-1], state.v[-1], eos)

    # Update step: mass and metric by integration from the left anchor.
    update_mass_metric(state, t_new)
    _override_right_ghost_metric(state, t_new)

    state.t = t_new
    boundary_hit = False
    if _is_matched(state.model) and not state.right_frozen:
        boundary_hit = _interaction_at_right_boundary(state)
    return StepReport(
        dt=dt, max_light_speed=float(alpha.max()), regions=sol.region,
        boundary_hit=boundary_hit,
    )


def _interaction_at_right_boundary(state: SimState) -> bool:
    try:
        _, idx = diagnostics.detect_tov_border(state)
    except BorderNotFound:
        return False
    return idx >= state.n


def chop_right(state: SimState, min_cells: int = 16) -> SimState:
    """Discard the rightmost cell; its left neighbor becomes the new right
    ghost and the boundary data freezes at that cell's current values."""
    if state.n - 1 < min_cells:
        raise GridExhausted(f"only {state.n} cells left (minimum {min_cells})")
    for name in ("x", "rho", "v", "u0", "u1"):
        setattr(state, name, getattr(state, name)[:-1].copy())
    for name in ("xe", "A", "B", "M"):
        setattr(state, name, getattr(state, name)[:-1].copy())
    state.right_frozen = True
    return state


def run(model, grid: SimGrid, eos: EosParams, t_end: float,
        hooks: Sequence[Hook] = (),
        eps: float = 1e-10, stop_on_boundary_hit: bool = False,
        chop_after_hit: bool = False, min_cells: int = 16,
        max_steps: int = 2_000_000):
    """March from the model's start time to t_end, clamping the final step.

    Returns (state, RunLog).  A horizon stop is recorded, not raised; all
    other errors propagate.  With chop_after_hit, one cell is discarded per
    step once the interaction region reaches the right boundary, zooming in
    until the grid floor or until the boundary meets the current maximum of
    the black-hole ratio 2M/r.
    """
    state = init(model, grid, eos, eps)
    log = RunLog()
    for hook in hooks:
        hook.on_start(state)
    hit = False
    tiny = 1e-12 * max(1.0, abs(t_end))
    while state.t < t_end - tiny:
        if log.steps >= max_steps:
            log.stop_reason = "max_steps"
            break
        if hit and chop_after_hit:
            try:
                chop_right(state, min_cells)
                log.chops += 1
            except GridExhausted:
                log.stop_reason = "grid_exhausted"
                break
            mu_max, mu_radius = diagnostics.black_hole_number(state)
            if state.xe[-1] <= mu_radius:
                log.stop_reason = "reached_mu_peak"
                break
        try:
            report = advance(state, dt_cap=t_end - state.t)
        except HorizonEncountered:
            log.horizon = True
            log.stop_reason = "horizon"
            break
        log.dt_history.append(report.dt)
        log.steps += 1
        if report.boundary_hit and not hit:
            hit = True
            if stop_on_boundary_hit and not chop_after_hit:
                log.stop_reason = "boundary_hit"
        for hook in hooks:
            hook(state, report)
        if log.stop_reason == "boundary_hit":
            break
    return state, log
