"""Compare a parent checkout with a changed one on the end-to-end metrics.

    python3 perfbench/compare.py --parent PARENT_DIR --change CHANGE_DIR \
        [--workload NAME ...] [--seed 1000]

For each workload it runs PAIRS parent/change pairs, alternating which
side runs first, pair k on seed `--seed + k`.  Both sides run this
directory's run.py with the `run_seconds` of BENCHMARK.json, so the code and
settings of the benchmark are identical.  Each metric gets a verdict:

  gain        the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range
  unresolved  the spread (interquartile range over median) of either side
              exceeds the metric's bound, unless every change run beats
              every parent run
  regression  the change's median is worse than the parent's by more than
              the metric's bound
  same        none of the above

It prints one row per workload, then each side's median and quartiles.
A pair in which either side fails its checks stops the comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

WIN_SHARE = 0.9
PAIRS = 10


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float) -> dict:
    """Verdict on one metric from paired runs (parent[k] with change[k])."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gap = sign * (cm - pm)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if wins >= WIN_SHARE * len(parent) and gap > p3 - p1:
        result = "gain"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif -gap > bound * abs(pm):
        result = "regression"
    else:
        result = "same"
    return {"verdict": result, "wins": wins, "pairs": len(parent),
            "parent": (p1, pm, p3), "change": (c1, cm, c3), "spread": spread}


def run_once(root: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {root} failed "
                           f"(exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])["metrics"]


def main(argv=None) -> int:
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to compare (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    args = ap.parse_args(argv)

    rows = []
    for workload in args.workload or names:
        runs = {"parent": [], "change": []}
        for k in range(PAIRS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                root = args.parent if side == "parent" else args.change
                runs[side].append(run_once(root, workload, args.seed + k,
                                           bench["run_seconds"]))
        results = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            results[name] = verdict([m[name]["value"] for m in runs["parent"]],
                                    [m[name]["value"] for m in runs["change"]],
                                    metric["better"], metric["bound"])
        rows.append((workload, results))

    for workload, results in rows:
        cells = [f"{name} {r['verdict']} ({r['wins']}/{r['pairs']})"
                 for name, r in results.items()]
        print(f"{workload:20s} " + "  ".join(cells))
    for workload, results in rows:
        for name, r in results.items():
            p, c = r["parent"], r["change"]
            print(f"  {workload} {name}: parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]"
                  f"  change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]"
                  f"  spread {r['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
