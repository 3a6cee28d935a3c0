"""CSV and JSON emitters for snapshots, Riemann samples, fans and tables.

Every CSV number is written as `%.10e`.  Snapshot and table files end
their lines in `\r\n`, as Python's `csv` module writes them; Riemann
samples end theirs in `\n`.  Numeric columns are formatted a block of rows
at a time, with one `%` over the whole block, because Python calls per
value cost about as much again as the formatting itself.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .riemann import REGION_NAMES

__all__ = ["emit_plotdata", "emit_samples", "emit_fan_json", "emit_table",
           "emit_manifest"]

SNAPSHOT_COLUMNS = ("r", "rho", "v", "A", "B", "M", "sqrtAB", "mu")
# rows (or manifest list entries) formatted per string: large enough to
# amortise the `%` or encoder call, small enough that the block's Python
# objects and text stay a few hundred KiB
_BLOCK_ROWS = 256


def _write_rows(fh, columns, end: str) -> None:
    """Write equal-length columns as rows of `%.10e` fields ending in `end`."""
    table = np.column_stack(columns)
    row = ",".join(["%.10e"] * table.shape[1]) + end
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        fh.write(row * len(block) % tuple(block.ravel().tolist()))


def emit_plotdata(prof, path: str) -> str:
    """Write one snapshot as CSV, one row per interior cell.

    Fluid columns are sampled at the cell center; metric and mass columns
    carry the cell's left half-gridpoint values (offset -dx/2), which keeps
    mu = 1 - A exact.  Edge arrays may hold one entry more than `x`; only
    the first `x.size` are written.
    """
    n = prof.x.size
    a, b = prof.A[:n], prof.B[:n]
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(SNAPSHOT_COLUMNS) + "\r\n")
        _write_rows(fh, (prof.x, prof.rho, prof.v, a, b, prof.M[:n],
                         np.sqrt(a * b), 1.0 - a), "\r\n")
    return path


def emit_samples(xi, rho, v, path: str) -> str:
    """Write a Riemann solution sampled at the speeds `xi` as CSV."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("xi,rho,v\n")
        _write_rows(fh, (xi, rho, v), "\n")
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
    header = ["n"]
    for name in names:
        header += [f"{name}_error", f"{name}_rate"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for k, n in enumerate(result["ns"]):
            row = [str(n)]
            for name in names:
                rate = "" if k == 0 else f"{result['rates'][name][k - 1]:.4f}"
                row += ["%.10e" % result["errors"][name][k], rate]
            fh.write(",".join(row) + "\r\n")
    return path


def emit_manifest(payload: dict, path: str) -> str:
    """Write a run manifest as JSON with sorted string keys, one top-level
    key per line.

    Values go through json's C encoder (an `indent` would force the
    pure-Python one), a long list `_BLOCK_ROWS` entries at a time so the
    encoder's buffer stays small; numpy scalars and arrays become plain
    numbers and lists.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)

    def default(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        raise TypeError(f"cannot serialize {type(obj)}")

    encode = json.JSONEncoder(sort_keys=True, default=default).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for k, key in enumerate(sorted(payload)):
            value = payload[key]
            fh.write(("," if k else "") + "\n  " + encode(key) + ": ")
            if isinstance(value, list) and value:
                for start in range(0, len(value), _BLOCK_ROWS):
                    block = encode(value[start:start + _BLOCK_ROWS])[1:-1]
                    fh.write(("[" if start == 0 else ", ") + block)
                fh.write("]")
            else:
                fh.write(encode(value))
        fh.write("\n}\n" if payload else "}\n")
    return path
