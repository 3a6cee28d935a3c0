"""Experiment orchestration: the time march, error tables and comparisons.

:func:`simulate_model` is the one function that marches a model in time:
it owns how a run is stepped, stopped and recorded, and attaches every
observer as a hook.  The rest of this layer glues runs to the
diagnostics: it measures every error through :func:`slice_errors`
(against a closed form, one chart of the matched model, or the
:func:`interpolant` of a finer run), and assembles the mesh-doubling
tables.  The command line is a thin client of these functions, and the
acceptance suite drives them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics, models, scheme
from .errors import ConfigError, HorizonEncountered
from .fluid import EosParams

__all__ = [
    "ProfileSlice",
    "RunLog",
    "RunArtifacts",
    "simulate_model",
    "slice_errors",
    "interpolant",
    "ladder",
    "matched_run",
    "cross_model_comparison",
    "reversed_collapse_run",
]

FIELDS = ("rho", "v", "A", "B")
REVERSED_R_MIN, REVERSED_R_MAX = 0.1, 20.0  # room before t = 0: r_min < |t_start|/2
# a run that has not reached its end time after this many steps stops ("max_steps")
MAX_STEPS = 2_000_000


@dataclass
class ProfileSlice:
    """One snapshot: fluid at interior centers, metric and mass at edges."""

    t: float
    x: np.ndarray
    xe: np.ndarray
    rho: np.ndarray
    v: np.ndarray
    A: np.ndarray
    B: np.ndarray
    M: np.ndarray

    @classmethod
    def from_state(cls, state) -> "ProfileSlice":
        return cls(
            t=state.t,
            x=state.x[1:-1].copy(), xe=state.xe.copy(),
            rho=state.rho[1:-1].copy(), v=state.v[1:-1].copy(),
            A=state.A.copy(), B=state.B.copy(), M=state.M.copy(),
        )


class SnapshotHook:
    """Collects the slices of `RunConfig.snapshots`' rule along a run:
    count >= 2 evenly spaced from t_start to t_end, 1 the slice at t_end
    alone, 0 none."""

    def __init__(self, t_start: float, t_end: float, count: int):
        self.times = (np.linspace(t_start, t_end, count) if count > 1
                      else np.full(count, float(t_end)))
        self.slices: list[ProfileSlice] = []

    def __call__(self, state, report=None):
        while (len(self.slices) < len(self.times)
               and state.t >= self.times[len(self.slices)] - 1e-12):
            self.slices.append(ProfileSlice.from_state(state))

    on_start = __call__


@dataclass
class RunLog:
    """Per-run bookkeeping filled in by :func:`simulate_model`."""

    dt_history: list = field(default_factory=list)
    steps: int = 0
    stop_reason: str = "t_end"
    chops: int = 0
    boundary_hit_t: float | None = None    # t and steps after the first step that
    boundary_hit_step: int | None = None   # reported a boundary hit


@dataclass
class RunArtifacts:
    state: object
    log: RunLog
    snapshots: list = field(default_factory=list)
    cones: object = None
    mu: object = None
    tv: object = None


def simulate_model(model, grid: scheme.SimGrid, eos: EosParams, duration: float,
                   snapshots: int = 0, eps: float = 1e-10, extra_hooks=(),
                   on_hit: str = "continue", min_cells: int = 64) -> RunArtifacts:
    """March the model from its start time for `duration` time units,
    clamping the final step.

    Each hook of `extra_hooks` observes the run: `hook.on_start(state)` is
    called once with the initial state, then `hook(state, report)` once
    after every step (most hooks record both with one body, see
    diagnostics).  A horizon stop is recorded, not raised; all other errors
    propagate.  Once the interaction region reaches the right boundary,
    on_hit="continue" keeps stepping, "stop" ends the run after that step
    and "chop" discards one cell per step, zooming in until `min_cells`
    cells are left or until the boundary meets the current maximum of the
    black-hole ratio 2M/r.  Any other on_hit raises ValueError.

    `snapshots` slices are kept by `RunConfig.snapshots`' rule (see
    SnapshotHook); a run that stops before its end time ends them with its
    last state instead.  With snapshots = 0 the list is empty.  A positive
    duration too short to take one step raises ConfigError.
    """
    if on_hit not in ("continue", "stop", "chop"):
        raise ValueError(f"on_hit must be 'continue', 'stop' or 'chop', got {on_hit!r}")
    t_end = model.t_start + duration
    hooks = list(extra_hooks)
    snap = None
    if snapshots:
        snap = SnapshotHook(model.t_start, t_end, snapshots)
        hooks.append(snap)
    tiny = 1e-12 * max(1.0, abs(t_end))
    if duration > 0.0 and not model.t_start < t_end - tiny:
        raise ConfigError(f"duration {duration:g} is below the time resolution at "
                          f"t_start = {model.t_start:g}: the run would take no step")
    state = scheme.init(model, grid, eos, eps)
    log = RunLog()
    for hook in hooks:
        hook.on_start(state)
    while state.t < t_end - tiny:
        if log.steps >= MAX_STEPS:
            log.stop_reason = "max_steps"
            break
        if log.boundary_hit_step is not None and on_hit == "chop":
            if not scheme.chop_right(state, min_cells):
                log.stop_reason = "grid_exhausted"
                break
            log.chops += 1
            mu_max, mu_radius = diagnostics.black_hole_number(state)
            if state.xe[-1] <= mu_radius:
                log.stop_reason = "reached_mu_peak"
                break
        try:
            report = scheme.advance(state, dt_cap=t_end - state.t)
        except HorizonEncountered:
            log.stop_reason = "horizon"
            break
        log.dt_history.append(report.dt)
        log.steps += 1
        if report.boundary_hit and log.boundary_hit_step is None:
            log.boundary_hit_t, log.boundary_hit_step = state.t, log.steps
        for hook in hooks:
            hook(state, report)
        if log.boundary_hit_step is not None and on_hit == "stop":
            log.stop_reason = "boundary_hit"
            break
    arts = RunArtifacts(state=state, log=log)
    if snap is not None:
        if not snap.slices or snap.slices[-1].t < state.t - 1e-12:
            snap.slices.append(ProfileSlice.from_state(state))
        arts.snapshots = snap.slices
    return arts


def slice_errors(prof: ProfileSlice, exact, dx: float, keep=None) -> dict:
    """1-norm error of each field of a slice against the reference
    `exact(t, r) -> (rho, v, A, B, M)`: rho and v at the cell centers, A and
    B at the edges, each over the positions `keep(r)` selects (all of them
    when keep is None)."""
    errors = {}
    for pos, names in ((prof.x, ("rho", "v")), (prof.xe, ("A", "B"))):
        sel = slice(None) if keep is None else keep(pos)
        ref = dict(zip(FIELDS, exact(prof.t, pos[sel])))  # zip drops M
        for name in names:
            errors[name] = diagnostics.one_norm_error(getattr(prof, name)[sel], ref[name], dx)
    return errors


def interpolant(prof: ProfileSlice):
    """The `exact` of a finer run: each field linearly interpolated at r
    from the slice's own positions (centers for rho and v, edges for A, B
    and M), whatever t."""
    def exact(t, r):
        return (np.interp(r, prof.x, prof.rho), np.interp(r, prof.x, prof.v),
                np.interp(r, prof.xe, prof.A), np.interp(r, prof.xe, prof.B),
                np.interp(r, prof.xe, prof.M))
    return exact


def ladder(make_model, ns, eos: EosParams, r_min: float, r_max: float,
           duration: float, reference="model", eps: float = 1e-10) -> dict:
    """Mesh-doubling error table.

    reference='model' compares against the closed form; reference='fine'
    runs one extra level and compares each run against the restriction
    (linear interpolation) of the finest run, the successive-refinement
    technique used when no closed form exists.  Any other reference raises
    ValueError.
    """
    if reference not in ("model", "fine"):
        raise ValueError(f"reference must be 'model' or 'fine', got {reference!r}")
    ns = list(ns)
    runs = {}
    all_ns = ns + ([2 * ns[-1]] if reference == "fine" else [])
    for n in all_ns:
        model = make_model()
        grid = scheme.SimGrid(r_min, r_max, n)
        arts = simulate_model(model, grid, eos, duration, eps=eps)
        runs[n] = arts
    if reference == "model":
        exact = make_model().evaluate
    else:
        exact = interpolant(ProfileSlice.from_state(runs[all_ns[-1]].state))
    errs = [slice_errors(ProfileSlice.from_state(runs[n].state), exact, runs[n].state.dx)
            for n in ns]
    table = {name: [e[name] for e in errs] for name in FIELDS}
    rates = {
        name: diagnostics.convergence_rate(table[name]) for name in FIELDS
    }
    return {"ns": ns, "errors": table, "rates": rates, "runs": runs}


@dataclass
class MatchedRunResult:
    arts: RunArtifacts
    frw_border: float | None
    tov_border: float | None
    sound_left: float | None
    sound_right: float | None
    side_errors: dict


def matched_run(variant: str, n: int, eos: EosParams, r_min: float = 3.0,
                r_max: float = 7.0, r0: float = 5.0, duration: float = 1.0,
                eps: float = 1e-10, snapshots: int = 0,
                extra_hooks=()) -> MatchedRunResult:
    """One matched-model run with cone tracking, border detection and
    masked errors of the non-interaction regions against the exact sides;
    `extra_hooks` observe the run next to the cone tracker."""
    model = models.make_model(f"{variant}_tov", eos, r0=r0)
    grid = scheme.SimGrid(r_min, r_max, n)
    tracker = diagnostics.ConeTracker(model.r0)
    arts = simulate_model(model, grid, eos, duration, snapshots=snapshots, eps=eps,
                          extra_hooks=(*extra_hooks, tracker))
    arts.cones = tracker
    state = arts.state
    prof = ProfileSlice.from_state(state)

    frw_border = tov_border = None
    side_errors = {}
    frw = diagnostics.detect_frw_border(state)
    if frw is not None:
        frw_border = frw[0]
        side_errors["frw"] = slice_errors(prof, model.inner.evaluate, state.dx,
                                          keep=lambda r: r <= frw_border + 1e-12)
    tov = diagnostics.detect_tov_border(state)
    if tov is not None:
        tov_border = tov[0]
        # the static exterior carries the run's rematched time scale bt: the
        # composite solution fixes the exterior clock only up to that factor
        side_errors["tov"] = slice_errors(
            prof, lambda t, r: models.tov_state(r, state.bt, eos), state.dx,
            keep=lambda r: r >= tov_border - 1e-12)
    return MatchedRunResult(
        arts=arts,
        frw_border=frw_border, tov_border=tov_border,
        sound_left=float(tracker.fronts[2]), sound_right=float(tracker.fronts[3]),
        side_errors=side_errors,
    )


def cross_model_comparison(n: int, n_ref: int, eos: EosParams,
                           duration_frw1: float = 1.0, r_min: float = 3.0,
                           r_max: float = 7.0, r0: float = 5.0,
                           eps: float = 1e-10) -> dict:
    """Run the two coordinate images of the matched model over the same
    physical time span and compare them after remapping the time scale.

    The unit-light-speed image runs for `duration_frw1`; the end time of
    the other image is found by the time-coordinate map, so both runs cover
    the same comoving slice.  The fine unit-light-speed run is the
    reference; the other image's profile is compared after an affine remap
    of its time metric component.
    """
    m1 = models.make_model("frw1_tov", eos, r0=r0)
    m2 = models.make_model("frw2_tov", eos, r0=r0)
    t1_end = m1.t_start + duration_frw1
    t2_end = float(m2.inner.psi0 * np.sqrt(t1_end))  # the FRW-2 time of t1_end
    duration_frw2 = t2_end - m2.t_start

    ref_arts = simulate_model(m1, scheme.SimGrid(r_min, r_max, n_ref), eos,
                              duration_frw1, eps=eps)
    ref = ProfileSlice.from_state(ref_arts.state)
    arts = simulate_model(m2, scheme.SimGrid(r_min, r_max, n), eos,
                          duration_frw2, eps=eps)
    prof = ProfileSlice.from_state(arts.state)

    exact = interpolant(ref)
    # B is fixed only up to the scale of the time coordinate: map its range
    # onto the reference's before comparing
    _, _, _, ref_B, _ = exact(ref.t, prof.xe)
    b_scale = float(np.ptp(ref_B) / np.ptp(prof.B))
    remapped = replace(prof, B=b_scale * (prof.B - prof.B.min()) + ref_B.min())
    errors = slice_errors(remapped, exact, arts.state.dx)
    return {
        "errors": errors,
        "b_scale": b_scale,
        "t1_end": t1_end,
        "t2_end": t2_end,
        "frw2": arts,
        "frw1_ref": ref_arts,
    }


def reversed_collapse_run(n: int, eos: EosParams, r_min: float = REVERSED_R_MIN,
                          r_max: float = REVERSED_R_MAX, r0: float = 5.0,
                          continue_chop: bool = False, min_cells: int = 64,
                          eps: float = 1e-10) -> RunArtifacts:
    """Reversed matched run on the extended domain, until the interaction
    region reaches the outer boundary (optionally continuing by chopping)."""
    model = models.make_model("frw1_tov", eos, r0=r0, reversed_time=True)
    grid = scheme.SimGrid(r_min, r_max, n)
    # march toward t = 0; the left ghost needs |t| > r_min
    duration = abs(model.t_start) - 2.0 * r_min
    if duration <= 0.0:
        raise ConfigError(
            f"reversed run needs |t_start| > 2*r_min, got t_start = "
            f"{model.t_start:.6g} and r_min = {r_min:g}"
        )
    cones, mu = diagnostics.ConeTracker(model.r0), diagnostics.MuMonitor()
    arts = simulate_model(model, grid, eos, duration, eps=eps, extra_hooks=(cones, mu),
                          on_hit="chop" if continue_chop else "stop", min_cells=min_cells)
    arts.cones, arts.mu = cones, mu
    return arts
