"""Experiment orchestration: model runs, error tables and comparisons.

This layer glues the stepper to the diagnostics: it runs a model on a
grid, evaluates errors against closed forms (or against a finer run), and
assembles the mesh-doubling tables.  The command line is a thin client of
these functions, and the acceptance suite drives them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, models, scheme
from .errors import BorderNotFound, ConfigError
from .fluid import EosParams

__all__ = [
    "ProfileSlice",
    "RunArtifacts",
    "simulate_model",
    "model_reference",
    "field_errors",
    "ladder",
    "matched_run",
    "cross_model_comparison",
    "reversed_collapse_run",
]

FIELDS = ("rho", "v", "A", "B")


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

    def get(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def positions(self, name: str) -> np.ndarray:
        return self.x if name in ("rho", "v") else self.xe


class SnapshotHook:
    """Collects evenly spaced snapshots along a run."""

    def __init__(self, t_start: float, t_end: float, count: int):
        self.times = np.linspace(t_start, t_end, max(count, 2))
        self.slices: list[ProfileSlice] = []
        self._next = 0

    def on_start(self, state):
        self._take(state)

    def _take(self, state):
        self.slices.append(ProfileSlice.from_state(state))
        self._next += 1

    def __call__(self, state, report):
        while self._next < len(self.times) and state.t >= self.times[self._next] - 1e-12:
            self._take(state)


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
    """Run a model for `duration` time units with optional trackers."""
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
        if snap.slices[-1].t < state.t - 1e-12:
            snap.slices.append(ProfileSlice.from_state(state))
        arts.snapshots = snap.slices
    else:
        arts.snapshots = [ProfileSlice.from_state(state)]
    return arts


def model_reference(model, t: float, prof: ProfileSlice):
    """Exact-solution values at the slice's own sample positions (pure
    models, whose chart covers the whole grid)."""
    rho, v, _, _, _ = model.evaluate(t, prof.x)
    _, _, A, B, _ = model.evaluate(t, prof.xe)
    return {"rho": rho, "v": v, "A": A, "B": B}


def side_reference(model, t: float, prof: ProfileSlice, side: str,
                   bound: float, bt: float | None = None):
    """Exact values of one non-interaction side up to the border.

    side='frw' covers positions <= bound via the expanding interior chart;
    side='tov' covers positions >= bound via the static exterior carrying
    the run's rematched time scale bt (the composite solution determines
    the exterior clock only up to that factor).  Returns
    {field: (mask, reference values on the mask)}.
    """
    out = {}
    for name in FIELDS:
        pos = prof.positions(name)
        if side == "frw":
            mask = pos <= bound + 1e-12
            vals = model.evaluate_inner(t, pos[mask])
        else:
            mask = pos >= bound - 1e-12
            vals = models.tov_state(
                pos[mask], bt if bt is not None else model.data.b0, model.eos
            )
        ref = dict(zip(("rho", "v", "A", "B", "M"), vals))
        out[name] = (mask, ref[name])
    return out


def masked_side_errors(prof: ProfileSlice, refs: dict, dx: float) -> dict:
    return {
        name: diagnostics.one_norm_error(prof.get(name)[mask], vals, dx)
        for name, (mask, vals) in refs.items()
    }


def field_errors(prof: ProfileSlice, ref: dict, dx: float) -> dict:
    """1-norm errors per field over the whole slice."""
    return {name: diagnostics.one_norm_error(prof.get(name), ref[name], dx)
            for name in FIELDS}


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
    table = {name: [] for name in FIELDS}
    for n in ns:
        prof = runs[n].snapshots[-1]
        dx = scheme.SimGrid(r_min, r_max, n).dx
        if reference == "model":
            model = make_model()
            ref = model_reference(model, prof.t, prof)
        else:
            fine = runs[all_ns[-1]].snapshots[-1]
            ref = {
                name: np.interp(prof.positions(name), fine.positions(name),
                                fine.get(name))
                for name in FIELDS
            }
        errs = field_errors(prof, ref, dx)
        for name in FIELDS:
            table[name].append(errs[name])
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
                reversed_time: bool = False, eps: float = 1e-10,
                snapshots: int = 0, **run_kw) -> MatchedRunResult:
    """One matched-model run with cone tracking, border detection and
    masked errors of the non-interaction regions against the exact sides."""
    model = models.make_model(f"{variant}_tov", eos, r0=r0,
                              reversed_time=reversed_time)
    grid = scheme.SimGrid(r_min, r_max, n)
    arts = simulate_model(model, grid, eos, duration, track_cones=True,
                          track_mu=reversed_time, snapshots=snapshots,
                          eps=eps, **run_kw)
    state = arts.state
    prof = ProfileSlice.from_state(state)
    cones = arts.cones.cones

    frw_border = tov_border = None
    side_errors = {}
    try:
        frw_border, _ = diagnostics.detect_frw_border(state)
        refs = side_reference(model, state.t, prof, "frw", frw_border)
        side_errors["frw"] = masked_side_errors(prof, refs, state.dx)
    except BorderNotFound:
        pass
    try:
        tov_border, _ = diagnostics.detect_tov_border(state)
        refs = side_reference(model, state.t, prof, "tov", tov_border, bt=state.bt)
        side_errors["tov"] = masked_side_errors(prof, refs, state.dx)
    except BorderNotFound:
        pass
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
    ref = ref_arts.snapshots[-1]
    arts = simulate_model(m2, scheme.SimGrid(r_min, r_max, n), eos,
                          duration_frw2, eps=eps)
    prof = arts.snapshots[-1]

    ref_interp = {
        name: np.interp(prof.positions(name), ref.positions(name), ref.get(name))
        for name in FIELDS
    }
    b_scale = diagnostics.affine_scale(prof.B, ref_interp["B"])
    remapped_B = diagnostics.b_affine_remap(prof.B, ref_interp["B"])
    errors = {}
    for name in FIELDS:
        num = remapped_B if name == "B" else prof.get(name)
        errors[name] = diagnostics.one_norm_error(num, ref_interp[name],
                                                  scheme.SimGrid(r_min, r_max, n).dx)
    return {
        "errors": errors,
        "b_scale": b_scale,
        "t1_end": t1_end,
        "t2_end": t2_end,
        "frw2": arts,
        "frw1_ref": ref_arts,
    }


def reversed_collapse_run(n: int, eos: EosParams, r_min: float = 0.1,
                          r_max: float = 20.0, r0: float = 5.0,
                          continue_chop: bool = False, min_cells: int = 64,
                          eps: float = 1e-10, max_steps: int = 2_000_000) -> RunArtifacts:
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
        stop_on_boundary_hit=not continue_chop, chop_after_hit=continue_chop,
        min_cells=min_cells, max_steps=max_steps,
    )
