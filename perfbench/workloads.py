"""The three benchmark workloads: seeded inputs, the driver call and the
correctness gate of each.

Each workload runs one paper experiment through the public `experiments`
drivers with the arguments the matching `relshock simulate` / `reverse` /
`converge` command passes, and writes the same files through `output`.

- matched_shock: the headline matched FRW/TOV run.  Nearly every interface
  is a pure rarefaction/shock (regions I and IV), so full-width root finds
  do little useful work; it also writes the largest output.
- reversed_collapse: time-reversed collapse continued by boundary chopping
  at small n, where per-call overhead and genuine two-shock interfaces
  dominate; the only workload that chops and tracks 2M/r.
- frw1_ladder: a pure-FRW mesh-doubling ladder.  Every interface is in
  region IV, so no root find runs (the bypass case for Riemann changes);
  the largest working set and the only workload made of independent runs.

Importing this module does not import relshock, so the parent process of
the benchmark stays light; the `run` functions import it on first call.
"""

from __future__ import annotations

import os
import random

SIGMA = 1.0 / 3.0
EPS = 1e-10

# Seeded ranges.  r0 moves the matching radius of the composite model;
# t_start moves the start slice of the pure FRW ladder.  Both ranges keep
# every run inside the regime the correctness gates describe.
R0_RANGE = (4.9, 5.1)
T_START_RANGE = (12.0, 18.0)

LADDER_LEVELS = (256, 512, 1024, 2048, 4096, 8192, 16384)
RATE_RANGE = (0.9, 1.2)


def make_inputs(workload: str, seed: int) -> dict:
    """Generated inputs of one workload; the same seed gives the same dict."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "matched_shock":
        return {"variant": "frw1", "n": 4096, "r_min": 3.0, "r_max": 7.0,
                "r0": rng.uniform(*R0_RANGE), "duration": 0.02,
                "snapshots": 5, "sigma": SIGMA, "eps": EPS}
    if workload == "reversed_collapse":
        return {"n": 256, "r_min": 0.1, "r_max": 20.0,
                "r0": rng.uniform(*R0_RANGE), "min_cells": 64,
                "sigma": SIGMA, "eps": EPS}
    if workload == "frw1_ladder":
        return {"levels": list(LADDER_LEVELS), "r_min": 3.0, "r_max": 7.0,
                "t_start": rng.uniform(*T_START_RANGE), "duration": 0.05,
                "sigma": SIGMA, "eps": EPS}
    raise KeyError(f"unknown workload {workload!r}")


def grid_size(inputs: dict) -> int:
    """Largest grid a workload runs; the host-speed reference uses it."""
    return max(inputs["levels"]) if "levels" in inputs else inputs["n"]


def _emit_manifest(arts, outdir: str, **config):
    """Write the manifest `relshock simulate` / `reverse` writes for a run.

    `config` holds the fields the matching command line would set; the
    output directory stays at its default so the manifest's size does not
    depend on where the benchmark writes it.
    """
    from relshock import cli, output
    from relshock.config import RunConfig

    output.emit_manifest(cli._manifest_payload(RunConfig(**config), arts),
                         os.path.join(outdir, "manifest.json"))


def run_matched_shock(inputs: dict, outdir: str):
    from relshock import diagnostics, experiments, output
    from relshock.fluid import EosParams

    tv = diagnostics.TVMonitor()
    res = experiments.matched_run(
        inputs["variant"], inputs["n"], EosParams(inputs["sigma"]),
        r_min=inputs["r_min"], r_max=inputs["r_max"], r0=inputs["r0"],
        duration=inputs["duration"], eps=inputs["eps"],
        snapshots=inputs["snapshots"], extra_hooks=(tv,),
    )
    res.arts.tv = tv
    for k, prof in enumerate(res.arts.snapshots):
        output.emit_plotdata(prof, os.path.join(outdir, f"snapshot_{k:03d}.csv"))
    _emit_manifest(res.arts, outdir, model=f"{inputs['variant']}_tov", n=inputs["n"],
                   r_min=inputs["r_min"], r_max=inputs["r_max"], r0=inputs["r0"],
                   duration=inputs["duration"], sigma=inputs["sigma"],
                   eps=inputs["eps"], snapshots=inputs["snapshots"],
                   track_cones=True)
    return res


def run_reversed_collapse(inputs: dict, outdir: str):
    from relshock import diagnostics, experiments, output
    from relshock.fluid import EosParams

    arts = experiments.reversed_collapse_run(
        inputs["n"], EosParams(inputs["sigma"]), r_min=inputs["r_min"],
        r_max=inputs["r_max"], r0=inputs["r0"], continue_chop=True,
        min_cells=inputs["min_cells"], eps=inputs["eps"],
    )
    output.emit_plotdata(experiments.ProfileSlice.from_state(arts.state),
                         os.path.join(outdir, "final.csv"))
    _emit_manifest(arts, outdir, model="frw1_tov", n=inputs["n"],
                   r_min=inputs["r_min"], r_max=inputs["r_max"], r0=inputs["r0"],
                   min_cells=inputs["min_cells"], sigma=inputs["sigma"],
                   eps=inputs["eps"])
    diagnostics.black_hole_number(arts.state)
    return arts


def run_frw1_ladder(inputs: dict, outdir: str):
    from relshock import experiments, models, output
    from relshock.fluid import EosParams

    eos = EosParams(inputs["sigma"])

    def make():
        return models.make_model("frw1", eos, t_start=inputs["t_start"])

    result = experiments.ladder(make, inputs["levels"], eos, inputs["r_min"],
                                inputs["r_max"], inputs["duration"],
                                reference="model", eps=inputs["eps"])
    output.emit_table(result, os.path.join(outdir, "table.csv"))
    return result


def physical_failures(state) -> list:
    """Names of the physicality checks the final state fails."""
    import numpy as np

    failed = []
    arrays = (state.rho, state.v, state.A, state.B, state.M)
    if not all(np.isfinite(a).all() for a in arrays):
        failed.append("finite")
    if not (state.rho > 0.0).all():
        failed.append("rho>0")
    if not (np.abs(state.v) < 1.0).all():
        failed.append("|v|<1")
    if not (state.A > 0.0).all():
        failed.append("A>0")
    return failed


def _run_record(label, arts, stop_reasons, extra_failures=()):
    failed = physical_failures(arts.state)
    if arts.log.stop_reason not in stop_reasons:
        failed.append(f"stop_reason={arts.log.stop_reason}")
    failed.extend(extra_failures)
    return {"label": label, "steps": arts.log.steps,
            "stop_reason": arts.log.stop_reason, "failed_checks": failed}


def check_matched_shock(inputs: dict, res) -> dict:
    arts = res.arts
    extra = []
    borders = (res.frw_border, res.sound_left, res.sound_right, res.tov_border)
    if None in borders or set(res.side_errors) != {"frw", "tov"}:
        extra.append("borders_found")
    elif not borders[0] <= borders[1] <= borders[2] <= borders[3]:
        extra.append("cones_between_borders")
    err = None
    if not extra:
        err = res.side_errors["frw"]["rho"] + res.side_errors["tov"]["rho"]
    return {
        "runs": [_run_record(f"n={inputs['n']}", arts, {"t_end"}, extra)],
        "cell_steps": arts.log.steps * inputs["n"],
        "err_l1": err,
        "rate_min": None,
    }


def check_reversed_collapse(inputs: dict, arts) -> dict:
    mu = [m for _, m, _ in arts.mu.history]
    extra = [] if max(mu) > mu[0] else ["mu_rises"]
    log = arts.log
    # one chop precedes every step after the boundary hit; a stop at the mu
    # peak comes right after a chop that no step followed
    chopped_steps = log.chops - (1 if log.stop_reason == "reached_mu_peak" else 0)
    cell_steps = log.steps * inputs["n"] - chopped_steps * (chopped_steps + 1) // 2
    return {
        "runs": [_run_record(f"n={inputs['n']}", arts,
                             {"grid_exhausted", "reached_mu_peak"}, extra)],
        "cell_steps": cell_steps,
        "err_l1": None,
        "rate_min": None,
    }


def check_frw1_ladder(inputs: dict, result) -> dict:
    lo, hi = RATE_RANGE
    runs = []
    for k, n in enumerate(result["ns"]):
        extra = []
        if k > 0:
            for name, rates in result["rates"].items():
                if not lo <= rates[k - 1] <= hi:
                    extra.append(f"rate_{name}={rates[k - 1]:.3f}")
        runs.append(_run_record(f"n={n}", result["runs"][n], {"t_end"}, extra))
    rates = [float(r) for rs in result["rates"].values() for r in rs]
    return {
        "runs": runs,
        "cell_steps": sum(result["runs"][n].log.steps * n for n in result["ns"]),
        "err_l1": float(result["errors"]["rho"][-1]),
        "rate_min": min(rates),
    }


WORKLOADS = {
    "matched_shock": (run_matched_shock, check_matched_shock),
    "reversed_collapse": (run_reversed_collapse, check_reversed_collapse),
    "frw1_ladder": (run_frw1_ladder, check_frw1_ladder),
}
