"""CSV and JSON emitters for snapshots, fans and tables."""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .riemann import REGION_NAMES

__all__ = ["emit_plotdata", "emit_fan_json", "emit_table", "emit_manifest"]

SNAPSHOT_COLUMNS = ("r", "rho", "v", "A", "B", "M", "sqrtAB", "mu")


def _fmt(x) -> str:
    return f"{float(x):.10e}"


def emit_plotdata(prof, path: str) -> str:
    """Write one snapshot as CSV, one row per interior cell.

    Fluid columns are sampled at the cell center; metric and mass columns
    carry the cell's left half-gridpoint values (offset -dx/2), which keeps
    mu = 1 - A exact.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SNAPSHOT_COLUMNS)
        n = prof.x.size
        for i in range(n):
            a = prof.A[i]
            b = prof.B[i]
            writer.writerow([
                _fmt(prof.x[i]), _fmt(prof.rho[i]), _fmt(prof.v[i]),
                _fmt(a), _fmt(b), _fmt(prof.M[i]),
                _fmt(np.sqrt(a * b)), _fmt(1.0 - a),
            ])
    return path


def emit_fan_json(sol, path: str) -> str:
    """Serialize the classified fan of interface 0 of a Riemann grid
    solution: region, the three states, and each wave as a shock (strength,
    speed) or a rarefaction (head and tail speeds)."""
    def wave(is_shock, beta, head, tail):
        if is_shock:
            return {"kind": "shock", "beta": float(beta[0]), "speed": float(head[0])}
        return {"kind": "rarefaction", "head_speed": float(head[0]),
                "tail_speed": float(tail[0])}

    payload = {
        "region": REGION_NAMES[int(sol.region[0])],
        "left": {"rho": float(sol.rho_l[0]), "v": float(sol.v_l[0])},
        "middle": {"rho": float(sol.rho_mid[0]), "v": float(sol.v_mid[0])},
        "right": {"rho": float(sol.rho_r[0]), "v": float(sol.v_r[0])},
        "wave1": wave(sol.wave1_is_shock()[0], sol.beta1, sol.speed1_head,
                      sol.speed1_tail),
        "wave2": wave(sol.wave2_is_shock()[0], sol.beta2, sol.speed2_head,
                      sol.speed2_tail),
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def emit_table(result: dict, path: str) -> str:
    """Mesh-doubling table as CSV in the error/rate column layout."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    names = list(result["errors"].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["n"]
        for name in names:
            header += [f"{name}_error", f"{name}_rate"]
        writer.writerow(header)
        for k, n in enumerate(result["ns"]):
            row = [str(n)]
            for name in names:
                err = result["errors"][name][k]
                rate = "" if k == 0 else f"{result['rates'][name][k - 1]:.4f}"
                row += [_fmt(err), rate]
            writer.writerow(row)
    return path


def emit_manifest(payload: dict, path: str) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)

    def default(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        raise TypeError(f"cannot serialize {type(obj)}")

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=default)
        fh.write("\n")
    return path
