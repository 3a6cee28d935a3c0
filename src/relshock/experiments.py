"""Experiment orchestration: model runs, error tables and comparisons.

This layer glues the stepper to the diagnostics: it runs a model on a
grid, measures every error through :func:`slice_errors` (against a closed
form, one chart of the matched model, or the :func:`interpolant` of a
finer run), and assembles the mesh-doubling tables.  The command line is a
thin client of these functions, and the acceptance suite drives them
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics, models, scheme
from .errors import ConfigError
from .fluid import EosParams

__all__ = [
    "ProfileSlice",
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
        self._next = 0

    def on_start(self, state):
        self._catch_up(state)

    def __call__(self, state, report):
        self._catch_up(state)

    def _catch_up(self, state):
        while self._next < len(self.times) and state.t >= self.times[self._next] - 1e-12:
            self.slices.append(ProfileSlice.from_state(state))
            self._next += 1


@dataclass
class RunArtifacts:
    state: object
    log: scheme.RunLog
    snapshots: list = field(default_factory=list)
    cones: object = None
    mu: object = None
    tv: object = None


def simulate_model(model, grid: scheme.SimGrid, eos: EosParams, duration: float,
                   snapshots: int = 0, track_cones: bool = False,
                   track_mu: bool = False, track_tv: bool = False,
                   eps: float = 1e-10, extra_hooks=(), **run_kw) -> RunArtifacts:
    """Run a model for `duration` time units with optional trackers.

    `snapshots` slices are kept by `RunConfig.snapshots`' rule (see
    SnapshotHook); a run that stops before its end time ends them with its
    last state instead.  With snapshots = 0 the list is empty.
    """
    t_end = model.t_start + duration
    hooks = list(extra_hooks)
    snap = None
    if snapshots:
        snap = SnapshotHook(model.t_start, t_end, snapshots)
        hooks.append(snap)
    cones = None
    if track_cones:
        cones = diagnostics.ConeTracker(model.r0)
        hooks.append(cones)
    mu = None
    if track_mu:
        mu = diagnostics.MuMonitor()
        hooks.append(mu)
    tv = None
    if track_tv:
        tv = diagnostics.TVMonitor()
        hooks.append(tv)
    state, log = scheme.run(model, grid, eos, t_end, hooks=hooks, eps=eps, **run_kw)
    arts = RunArtifacts(state=state, log=log, cones=cones, mu=mu, tv=tv)
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
    technique used when no closed form exists.
    """
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
                **run_kw) -> MatchedRunResult:
    """One matched-model run with cone tracking, border detection and
    masked errors of the non-interaction regions against the exact sides."""
    model = models.make_model(f"{variant}_tov", eos, r0=r0)
    grid = scheme.SimGrid(r_min, r_max, n)
    arts = simulate_model(model, grid, eos, duration, track_cones=True,
                          snapshots=snapshots, eps=eps, **run_kw)
    state = arts.state
    prof = ProfileSlice.from_state(state)
    cones = arts.cones.cones

    frw_border = tov_border = None
    side_errors = {}
    frw = diagnostics.detect_frw_border(state)
    if frw is not None:
        frw_border = frw[0]
        side_errors["frw"] = slice_errors(prof, model.evaluate_inner, state.dx,
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
        sound_left=cones.sound_left, sound_right=cones.sound_right,
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
    t2_end = float(diagnostics.coordinate_time_map(t1_end, m2.data.psi0))
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
    b_scale = diagnostics.affine_scale(prof.B, ref_B)
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
    return simulate_model(
        model, grid, eos, duration, track_mu=True, track_cones=True, eps=eps,
        on_hit="chop" if continue_chop else "stop",
        min_cells=min_cells,
    )
