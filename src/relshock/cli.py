"""Command line entry point.

Subcommands: riemann (one flat-space Riemann problem), emit-model (exact
solution slices), simulate (one run with snapshots and a manifest),
converge (mesh-doubling error tables), reverse (time-reversed collapse run
with optional boundary chopping).  Exit codes: 0 success, 2 configuration
error, 3 horizon / coordinate-singularity stop, 4 numerical failure.

Each command takes, as flags or from a --config file, only the RunConfig
keys it reads; any other exits 2.  emit-model reads model, r_min, r_max,
sigma, outdir, t_start, r0 and reversed; simulate adds n, duration, eps,
snapshots and track_cones; converge adds duration and eps; reverse (always
the reversed frw1_tov) reads r_min, r_max, sigma, outdir, r0, n, eps and
min_cells.  A key the model does not read exits 2 too: only frw1 and frw2
read t_start, only frw1_tov and frw2_tov read r0 and track_cones, and only
frw1_tov reads reversed.  A t_start whose slice leaves the frw1 or frw2
chart, ghost cells included, exits 2 before the run.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import diagnostics, experiments, models, output, riemann, scheme
from .config import RunConfig, config_from_dict, read_config
from .errors import ConfigError, NonPhysicalState, RelshockError
from .fluid import EosParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HORIZON = 3
EXIT_NUMERICAL = 4

_EMIT_MODEL_KEYS = ("model", "r_min", "r_max", "sigma", "outdir", "t_start", "r0", "reversed")
_COMMAND_KEYS = {
    "emit-model": _EMIT_MODEL_KEYS,
    "simulate": _EMIT_MODEL_KEYS + ("n", "duration", "eps", "snapshots", "track_cones"),
    "converge": _EMIT_MODEL_KEYS + ("duration", "eps"),
    "reverse": ("r_min", "r_max", "sigma", "outdir", "r0", "n", "eps", "min_cells"),
}
# keys that only some models read -> those models
_MODEL_KEYS = {"t_start": ("frw1", "frw2"), "r0": ("frw1_tov", "frw2_tov"),
               "reversed": ("frw1_tov",), "track_cones": ("frw1_tov", "frw2_tov")}
_FIELDS = {f.name for f in fields(RunConfig)}


def _add_config_flags(parser: argparse.ArgumentParser, command: str, **defaults: str):
    """--config, one flag per key the command reads, its own defaults."""
    parser.add_argument("--config", help="key = value configuration file")
    for key in _COMMAND_KEYS[command]:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None)
    parser.set_defaults(config_defaults=defaults)


def _load_config(args) -> RunConfig:
    """Command defaults, config file and flags, each over the last; validated
    once.  A key that the command or its model does not read is refused."""
    keys = _COMMAND_KEYS[args.command]
    given, lines = read_config(args.config) if args.config else ({}, {})
    for key in given:
        if key in _FIELDS and key not in keys:
            raise ConfigError(f"{args.command} does not read {key}", line=lines[key])
    for key in keys:
        raw = getattr(args, key)
        if raw is not None:
            given[key] = raw
            lines.pop(key, None)
    cfg = config_from_dict({**args.config_defaults, **given}, lines)
    for key in given:
        if key in _MODEL_KEYS and cfg.model not in _MODEL_KEYS[key]:
            raise ConfigError(f"model {cfg.model} does not read {key}", line=lines.get(key))
    return cfg


def _make_model(cfg: RunConfig):
    eos = EosParams(cfg.sigma)
    try:
        model = models.make_model(cfg.model, eos, r0=cfg.r0, t_start=cfg.t_start,
                                  reversed_time=cfg.reversed)
    except NonPhysicalState as exc:   # the FRW charts refuse sigma != 1/3
        raise ConfigError(str(exc)) from None
    return model, eos


def _start_slice(cfg: RunConfig, model, t: float, r):
    """The model's fields at (t, r).  A pure FRW model's chart depends on
    its t_start, so a slice outside it is a configuration error."""
    try:
        return model.evaluate(t, r)
    except NonPhysicalState as exc:
        if cfg.model not in _MODEL_KEYS["t_start"]:
            raise
        raise ConfigError(f"t_start = {cfg.t_start:g} puts the {cfg.model} slice at t = {t:g} "
                          f"outside its chart ({exc})") from None


def cmd_riemann(args) -> int:
    RunConfig(sigma=args.sigma, eps=args.eps).validate()  # a run's sigma and eps rules
    if args.xi_count < 0:
        raise ConfigError(f"--xi-count must be non-negative, got {args.xi_count}")
    eos = EosParams(args.sigma)
    sol = riemann.solve_interfaces(np.array([args.rho_l, args.rho_r]),
                                   np.array([args.v_l, args.v_r]), eos, args.eps)
    os.makedirs(args.outdir, exist_ok=True)
    output.emit_fan_json(sol, os.path.join(args.outdir, "fan.json"))
    xi = np.linspace(args.xi_min, args.xi_max, args.xi_count)
    rho, v = riemann.sample_solution(sol, xi)
    path = output.emit_samples(xi, rho, v, os.path.join(args.outdir, "samples.csv"))
    print(f"region {riemann.REGION_NAMES[int(sol.region[0])]}; "
          f"middle rho={sol.rho_mid[0]:.6e} v={sol.v_mid[0]:.6f}")
    print(f"wrote {path} and fan.json")
    return EXIT_OK


def cmd_emit_model(args) -> int:
    cfg = _load_config(args)
    if args.count < 0:
        raise ConfigError(f"--count must be non-negative, got {args.count}")
    model, _ = _make_model(cfg)
    r = np.linspace(cfg.r_min, cfg.r_max, args.count)
    t = model.t_start + args.at
    rho, v, A, B, M = _start_slice(cfg, model, t, r)
    prof = experiments.ProfileSlice(t=t, x=r, xe=r, rho=rho, v=v, A=A, B=B, M=M)
    os.makedirs(cfg.outdir, exist_ok=True)
    path = output.emit_plotdata(prof, os.path.join(cfg.outdir, "model.csv"))
    print(f"wrote {path}")
    return EXIT_OK


def _manifest_payload(cfg: RunConfig, arts) -> dict:
    # a key only other models read is left out; t_start is the start the run used
    config = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)
              if f.name == "t_start" or cfg.model in _MODEL_KEYS.get(f.name, (cfg.model,))}
    payload = {
        "config": config,
        "steps": arts.log.steps,
        "stop_reason": arts.log.stop_reason,
        "t_final": arts.state.t,
        "dt_history": arts.log.dt_history,
        "chops": arts.log.chops,
        "boundary_hit_t": arts.log.boundary_hit_t,
        "boundary_hit_step": arts.log.boundary_hit_step,
    }
    if arts.cones is not None:
        payload["cones"] = [
            {"t": t, "light": [c.light_left, c.light_right],
             "sound": [c.sound_left, c.sound_right]}
            for t, c in arts.cones.trajectory
        ]
    if arts.mu is not None:
        payload["mu_history"] = [list(row) for row in arts.mu.history]
    if arts.tv is not None:
        payload["tv_history"] = [list(row) for row in arts.tv.history]
        payload["tv_alarmed"] = arts.tv.alarmed
    # only a matched model has borders: on a pure one the detectors restate r_max
    for key, detect in (("frw_border", diagnostics.detect_frw_border),
                        ("tov_border", diagnostics.detect_tov_border)):
        border = detect(arts.state) if cfg.model.endswith("_tov") else None
        if border is not None:
            payload[key] = border[0]
    return payload


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    model, eos = _make_model(cfg)
    cfg.t_start = model.t_start   # tov and the matched models fix their own
    grid = scheme.SimGrid(cfg.r_min, cfg.r_max, cfg.n)
    _start_slice(cfg, model, model.t_start, grid.centers_with_ghosts())
    cones = diagnostics.ConeTracker(model.r0) if cfg.track_cones else None
    mu = diagnostics.MuMonitor() if cfg.reversed else None
    tv = diagnostics.TVMonitor()
    arts = experiments.simulate_model(
        model, grid, eos, cfg.duration, snapshots=cfg.snapshots, eps=cfg.eps,
        extra_hooks=[hook for hook in (cones, mu, tv) if hook is not None],
    )
    arts.cones, arts.mu, arts.tv = cones, mu, tv
    os.makedirs(cfg.outdir, exist_ok=True)
    for k, prof in enumerate(arts.snapshots):
        output.emit_plotdata(prof, os.path.join(cfg.outdir, f"snapshot_{k:03d}.csv"))
    output.emit_manifest(_manifest_payload(cfg, arts),
                         os.path.join(cfg.outdir, "manifest.json"))
    print(f"{cfg.model}: {arts.log.steps} steps to t = {arts.state.t:.6f}; "
          f"wrote {len(arts.snapshots)} snapshots to {cfg.outdir}")
    return EXIT_HORIZON if arts.log.stop_reason == "horizon" else EXIT_OK


def _parse_levels(spec: str):
    """Mesh sizes lo, 2*lo, 4*lo, ... up to hi from 'lo..hi'; at least two
    levels, the coarsest with at least 8 gridpoints."""
    lo, _, hi = spec.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"--levels {spec!r}: expected lo..hi with integer bounds") from None
    if lo < 8:
        raise ConfigError(f"--levels {spec!r}: the coarsest level needs at least 8 gridpoints")
    ns = []
    n = lo
    while n <= hi:
        ns.append(n)
        n *= 2
    if len(ns) < 2:
        raise ConfigError(f"--levels {spec!r}: a ladder needs at least two levels (hi >= 2*lo)")
    return ns


def cmd_converge(args) -> int:
    cfg = _load_config(args)
    model, eos = _make_model(cfg)
    ns = _parse_levels(args.levels)
    # the coarsest level's ghost cell reaches furthest
    _start_slice(cfg, model, model.t_start,
                 scheme.SimGrid(cfg.r_min, cfg.r_max, ns[0]).centers_with_ghosts())
    reference = "model" if cfg.model in ("frw1", "frw2", "tov") else "fine"
    result = experiments.ladder(lambda: model, ns, eos, cfg.r_min, cfg.r_max,
                                cfg.duration, reference=reference, eps=cfg.eps)
    os.makedirs(cfg.outdir, exist_ok=True)
    path = output.emit_table(result, os.path.join(cfg.outdir, "table.csv"))
    print(f"wrote {path} (reference: {reference})")
    for name in experiments.FIELDS:
        rates = ", ".join(f"{r:.2f}" for r in result["rates"][name])
        print(f"  {name}: rates {rates}")
    return EXIT_OK


def cmd_reverse(args) -> int:
    cfg = _load_config(args)
    model, eos = _make_model(cfg)   # refused before the run, as simulate refuses it
    arts = experiments.reversed_collapse_run(
        cfg.n, eos, r_min=cfg.r_min, r_max=cfg.r_max, r0=cfg.r0,
        continue_chop=args.continue_chop, min_cells=cfg.min_cells, eps=cfg.eps,
    )
    # it marches until its boundary stop: record the span it covered
    cfg.t_start, cfg.duration = model.t_start, arts.state.t - model.t_start
    os.makedirs(cfg.outdir, exist_ok=True)
    output.emit_plotdata(experiments.ProfileSlice.from_state(arts.state),
                         os.path.join(cfg.outdir, "final.csv"))
    output.emit_manifest(_manifest_payload(cfg, arts),
                         os.path.join(cfg.outdir, "manifest.json"))
    mu, radius = diagnostics.black_hole_number(arts.state)
    print(f"stopped ({arts.log.stop_reason}) at t = {arts.state.t:.6f}; "
          f"mu_max = {mu:.4f} at r = {radius:.4f}")
    return EXIT_HORIZON if arts.log.stop_reason == "horizon" else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relshock", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("riemann", help="solve one flat-space Riemann problem")
    p.add_argument("--rho-l", type=float, required=True)
    p.add_argument("--v-l", type=float, required=True)
    p.add_argument("--rho-r", type=float, required=True)
    p.add_argument("--v-r", type=float, required=True)
    p.add_argument("--sigma", type=float, default=1.0 / 3.0)
    p.add_argument("--eps", type=float, default=1e-10)
    p.add_argument("--xi-min", type=float, default=-1.0)
    p.add_argument("--xi-max", type=float, default=1.0)
    p.add_argument("--xi-count", type=int, default=201)
    p.add_argument("--outdir", default="out")
    p.set_defaults(func=cmd_riemann)

    p = sub.add_parser("emit-model", help="write an exact-solution slice")
    _add_config_flags(p, "emit-model")
    p.add_argument("--at", type=float, default=0.0,
                   help="time offset from the model start time")
    p.add_argument("--count", type=int, default=257)
    p.set_defaults(func=cmd_emit_model)

    p = sub.add_parser("simulate", help="run one model")
    _add_config_flags(p, "simulate")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("converge", help="mesh-doubling error table")
    _add_config_flags(p, "converge")
    p.add_argument("--levels", default="64..1024", help="e.g. 64..2048")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("reverse", help="time-reversed collapse run")
    _add_config_flags(p, "reverse", reversed="true", r_min=str(experiments.REVERSED_R_MIN),
                      r_max=str(experiments.REVERSED_R_MAX))
    p.add_argument("--continue-chop", action="store_true",
                   help="keep zooming in by discarding boundary cells")
    p.set_defaults(func=cmd_reverse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RelshockError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
