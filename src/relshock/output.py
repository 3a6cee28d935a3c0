"""CSV and JSON emitters for snapshots, samples, fans, tables and manifests.

Every CSV number is written as `%.10e`.  Snapshot and table files end
their lines in `\r\n`, as Python's `csv` module writes them; Riemann
samples end theirs in `\n`.  Snapshot and sample columns are formatted a
block of rows at a time by array kernels: each field's mantissa digits and
exponent are looked up in tables of ASCII bytes and gathered into one
zero-padded fixed-width record, and one `bytes.translate` drops the
padding.  A value the kernels cannot round with certainty (NaN, inf,
|x| < 1e-290 or >= 1e290, or a mantissa within 0.001 of a decimal tie)
is formatted by `%` into its own record, so the bytes are those of a
per-value `%.10e` writer.  A manifest is JSON with one top-level key per
line, each value encoded whole.
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np

from .riemann import REGION_NAMES, edge_speeds

__all__ = ["emit_plotdata", "emit_samples", "emit_fan_json", "emit_table",
           "emit_manifest"]

SNAPSHOT_COLUMNS = ("r", "rho", "v", "A", "B", "M", "sqrtAB", "mu")
# CSV rows formatted per pass: large enough to amortise the per-call cost
# of the array kernels, small enough that the block's temporaries and text
# stay a few hundred KiB
_BLOCK_ROWS = 256


# `%.10e` by table lookup.  A finite x != 0 is written as d.dddddddddde±XX
# with E = floor(log10|x|) and the 11 digits N = rint(y), y = |x| 10^(10 - E).
# For 1e-290 <= |x| < 1e290 the computed y lies within 2 ulp (< 3e-5) of its
# exact value, so when 1e10 <= y < 1e11 and |y - N| < 0.499, N is the
# correctly rounded mantissa.  Any other value (a tie within 0.001, or an
# exponent estimate off by one next to a power of ten) takes `%`.  The
# tables cover exponents -_E_MAX.._E_MAX: every floor(log10|x|) on that
# range, off by one or carried.
_E_MAX = 292
_TINY, _HUGE = 1e-290, 1e290


@functools.cache
def _tables():
    """The lookup tables (head, quad, exp, scale), built on first use so a
    process that formats no CSV does not hold them.  Text entries are ASCII
    zero-padded to the entry's width: head[i] is "d.dd" of i/100 for
    i < 1000, quad[i] is `%04d` of i and exp[E + _E_MAX] is `e%+03d` of E.
    scale[E + _E_MAX] is 10^(10 - E) to within one ulp."""
    # row i: the four digits of i, as np.indices counts in decimal
    quad = np.ascontiguousarray(
        np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0"))
    head = np.insert(quad[:1000, 1:], 1, ord("."), axis=1)
    e = np.arange(-_E_MAX, _E_MAX + 1)
    exp = np.zeros((e.size, 8), np.uint8)
    exp[:, 0] = ord("e")
    exp[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    exp[:, 2:5] = quad[np.abs(e), 1:]
    two = np.abs(e) < 100                    # two digits: drop the leading 0
    exp[two, 2:5] = np.roll(exp[two, 2:5], -1, axis=1)
    exp[two, 4] = 0
    tables = (head.view(np.uint32).ravel(), quad.view(np.uint32).ravel(),
              exp.view(np.uint64).ravel(), 10.0 ** (10 - e))
    for table in tables:
        table.flags.writeable = False   # the one cached copy serves every caller
    return tables


def _format_block(x, seps) -> bytes:
    """The rows of the float64 block `x` as `%.10e` fields, each followed by
    its column's separator from `seps` (uint64, zero-padded ASCII).

    Each field is a record of four uint64 words: sign and "d.dd", two
    groups of four digits, the exponent, the separator.
    """
    head, quad, exp, scale = _tables()
    rows, cols = x.shape
    x = x.ravel()
    ax = np.abs(x)
    inrange = (ax >= _TINY) & (ax < _HUGE)
    a = np.where(inrange, ax, 1.0)           # log10 only where defined
    e = np.floor(np.log10(a)).astype(np.intp) + _E_MAX   # table index of E
    y = a * scale[e]
    n = np.rint(y)
    fast = inrange & (np.abs(y - n) < 0.499) & (y >= 1e10) & (y < 1e11)
    slow = np.flatnonzero(~fast & (x != 0.0))
    carry = n == 1e11                         # 9.99999999999...e(E) rounds to 1e(E+1)
    e += carry
    m = np.where(carry, 10**10, n.astype(np.int64))
    m *= fast                                 # +-0 is 0.0000000000e+00
    rec = np.empty((x.size, 8), np.uint32)
    rec[:, 0] = np.signbit(x) * ord("-")
    digits = m // 10**8
    rec[:, 1] = head[digits]
    m -= digits * 10**8
    digits = m // 10**4
    rec[:, 2] = quad[digits]
    m -= digits * 10**4
    rec[:, 3] = quad[m]
    words = rec.view(np.uint64)
    words[:, 2] = exp[e]
    words.reshape(rows, cols, 4)[:, :, 3] = seps
    if slow.size:
        text = b"".join([(b"%.10e" % v).ljust(24, b"\0") for v in x[slow].tolist()])
        words[slow, :3] = np.frombuffer(text, np.uint64).reshape(-1, 3)
    return rec.tobytes().translate(None, b"\0")


def _write_rows(fh, columns, end: str) -> None:
    """Write equal-length columns as rows of `%.10e` fields ending in `end`."""
    table = np.column_stack(columns)
    seps = np.array([","] * (table.shape[1] - 1) + [end], "S8").view(np.uint64)
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS].astype(np.float64)
        fh.write(_format_block(block, seps).decode("ascii"))


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

    head1, tail1, head2, tail2 = edge_speeds(sol)
    payload = {
        "region": REGION_NAMES[int(sol.region[0])],
        "left": {"rho": float(sol.rho_l[0]), "v": float(sol.v_l[0])},
        "middle": {"rho": float(sol.rho_mid[0]), "v": float(sol.v_mid[0])},
        "right": {"rho": float(sol.rho_r[0]), "v": float(sol.v_r[0])},
        "wave1": wave(sol.shock1[0], sol.beta1, head1, tail1),
        "wave2": wave(sol.shock2[0], sol.beta2, head2, tail2),
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

    Each value is encoded whole by json's C encoder (an `indent` would force
    the pure-Python one), even the longest list a command writes, a default
    `simulate` run's dt history (about 9k floats, 200 KB); numpy scalars and
    arrays become plain numbers and lists.
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
            fh.write(("," if k else "") + "\n  " + encode(key) + ": " + encode(payload[key]))
        fh.write("\n}\n" if payload else "}\n")
    return path
