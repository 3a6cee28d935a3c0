"""relshock benchmark: time to solution of three paper workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload matched_shock --seed 1 --seconds 35 --trace 0

Each measured run of a workload is its own process (`worker.py`), so set-up
time and peak memory belong to that run alone.  After one discarded warm-up
process, the parent repeats rounds of SETUPS_PER_ROUND processes that stop
at the first step plus one whole run, for as many rounds as fit in
`--seconds`.  Load is one process at a time, with no worker threads.

--trace 0 prints the end-to-end metrics, medians over the runs:
  setup_s             process start until the first step can run, in
                      seconds at a nominal host speed: each set-up-only
                      process times one reference sample right after its
                      set-up, and setup_s is the median of set-up time over
                      that sample, times SETUP_REF_NOMINAL_S
  wall_ref            wall_s / ref_s, the time to solution in units of the
                      host-speed reference (see worker.reference_sample)
  cell_steps_per_ref  sum of cells x steps over the workload's runs per
                      reference time, i.e. cell_steps_per_s * ref_s
  peak_rss_mb         peak resident memory of the run's process
where wall_s runs from the first step until the output files are written
and ref_s is the mean time of the reference samples taken between that
run's steps (their own time is taken out of wall_s).  These host-normalised
figures are what the bounds apply to, because a shared host's speed drifts
by tens of percent over minutes and the raw times with it; the raw
setup_raw_s, wall_s, cell_steps_per_s and ref_s are printed as well.
--trace 1 cycles bare (untraced, no reference samples), traced and
tracemalloc runs and prints the per-layer metrics (see tracing.py) plus
trace.overhead_frac, the median over adjacent bare/traced pairs of traced
wall_s over bare wall_s, minus 1.

Every run is checked (see workloads.py).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The lines
before it also give failed_frac, err_l1 and rate_min where the workload
defines them, and the seed and inputs.  A full record with the environment
goes to .perfbench/results/.  The exit code is 0 only when every check
passed; 2 when the checkout holds no relshock source.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUPS_PER_ROUND = 2
# Time of one reference pass at worker.SETUP_REF_SIZE on a 2-vCPU x86-64
# host (median of 63 samples); setup_s reads as that host's seconds.
SETUP_REF_NOMINAL_S = 50e-6
WORKER_TIMEOUT_S = 120
STATE_DIR = ".perfbench"

BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def declared_units(section: str) -> dict:
    """{metric name: unit} of one section of BENCHMARK.json."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def spawn(workload: str, inputs: dict, kind: str, tag: str,
          spans: str | None = None) -> dict:
    """Run one worker process to completion and return its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--inputs", json.dumps(inputs),
           "--kind", kind, "--outdir", os.path.join(STATE_DIR, "out", tag)]
    if spans:
        cmd += ["--spans", spans]
    spawned = time.monotonic()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"kind": kind, "error": f"timed out after {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"kind": kind, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def rep_failures(rep: dict) -> tuple:
    """(attempted, failed) runs of one process; a ladder level is a run."""
    if "error" in rep:
        return 1, 1
    runs = rep["runs"]
    return len(runs), sum(1 for r in runs if r["failed_checks"])


def median(values):
    return statistics.median(values) if values else None


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  inputs: dict | None = None) -> dict:
    """Measure one workload; returns the printed result plus the full record."""
    inputs = workloads.make_inputs(workload, seed) if inputs is None else inputs
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    spans = os.path.join(STATE_DIR, "traces", f"{tag}.csv") if trace else None
    cycle = ("bare", "traced", "alloc") if trace else ("plain",)
    # set-up time is an end-to-end metric only
    setups_per_round = 0 if trace else SETUPS_PER_ROUND

    spawn(workload, inputs, "setup", f"{tag}-warmup")
    setups, reps, rounds = [], [], []
    start = time.monotonic()
    # Rounds of set-up samples plus one whole run, spreading the set-up
    # samples over the run as the host's speed drifts.  No round starts
    # that would end past `seconds` once every kind has run.
    while True:
        begin = time.monotonic()
        setups += [spawn(workload, inputs, "setup", f"{tag}-setup{len(setups)}")
                   for _ in range(setups_per_round)]
        kind = cycle[len(reps) % len(cycle)]
        reps.append(spawn(workload, inputs, kind, f"{tag}-rep{len(reps)}",
                          spans if kind == "traced" else None))
        rounds.append(time.monotonic() - begin)
        elapsed = time.monotonic() - start
        if len(reps) >= len(cycle) and elapsed + statistics.median(rounds) > seconds:
            break

    attempted = failed = 0
    for rep in reps:
        a, f = rep_failures(rep)
        attempted += a
        failed += f
    ok = [r for r in reps if "error" not in r]
    plain = [r for r in ok if r["kind"] == "plain"]
    # equal inputs must give bit-identical errors and traced counts, and the
    # tracer must count the same cell-steps as the untraced bookkeeping
    counted = [r for r in ok if "counts" in r]
    repeatable = (len({json.dumps(r["counts"], sort_keys=True) for r in counted}) <= 1
                  and len({(r["err_l1"], r["rate_min"]) for r in ok}) <= 1
                  and all(r["counts"]["cell_steps"] == r["cell_steps"] for r in counted))
    setups_ok = [s for s in setups if "error" not in s]
    correct = failed == 0 and repeatable and len(setups_ok) == len(setups)

    metrics = {}
    raw = {}
    if plain and setups_ok:
        raw = {
            "setup_raw_s": median([s["setup_s"] for s in setups_ok]),
            "wall_s": median([r["wall_s"] for r in plain]),
            "cell_steps_per_s": median([r["cell_steps"] / r["wall_s"] for r in plain]),
            "ref_s": median([r["ref_s"] for r in plain]),
        }
        values = {
            "setup_s": median([s["setup_s"] / s["ref_s"] for s in setups_ok])
                       * SETUP_REF_NOMINAL_S,
            "wall_ref": median([r["wall_s"] / r["ref_s"] for r in plain]),
            "cell_steps_per_ref": median(
                [r["cell_steps"] / r["wall_s"] * r["ref_s"] for r in plain]),
            "peak_rss_mb": median([r["rss_mb"] for r in plain]),
        }
        units = declared_units("end_to_end")
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    traced = [r for r in ok if r["kind"] == "traced"]
    alloc = [r for r in ok if r["kind"] == "alloc"]
    bare = [r for r in ok if r["kind"] == "bare"]
    if trace and traced and alloc and bare:
        values = {name: median([r["layers"][name] for r in traced])
                  for name in traced[0]["layers"]}
        for name in ("riemann.solve_interfaces", "scheme.advance"):
            values[f"{name}.peak_temp_kib"] = median(
                [r["peak_temp_kib"].get(name, 0.0) for r in alloc])
        # bare and traced runs alternate, so each pair shares the host's state
        values["trace.overhead_frac"] = median(
            [t["wall_s"] / b["wall_s"] for b, t in zip(bare, traced)]) - 1.0
        units = declared_units("per_layer")
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    first = ok[0] if ok else {}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": inputs,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "counts_repeat": repeatable,
        "err_l1": first.get("err_l1"), "rate_min": first.get("rate_min"), "raw": raw,
        "metrics": metrics, "env": first.get("env"),
        "setups": setups, "reps": reps,
    }
    return record


def describe(record: dict) -> list:
    """Human-readable lines printed before the JSON result."""
    lines = [f"perfbench {record['workload']} seed={record['seed']} "
             f"trace={int(record['trace'])} inputs={json.dumps(record['inputs'])}"]
    kinds = [r["kind"] for r in record["reps"]]
    lines.append(f"  runs: {len(kinds)} processes "
                 f"({', '.join(f'{kinds.count(k)} {k}' for k in sorted(set(kinds)))})"
                 f" + {len(record['setups'])} set-up only")
    for name, m in record["metrics"].items():
        lines.append(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    units = {"setup_raw_s": "s", "wall_s": "s", "cell_steps_per_s": "1/s", "ref_s": "s"}
    for name, value in record["raw"].items():
        lines.append(f"  {name:48s} {value:.6g} {units[name]} (raw)")
    lines.append(f"  {'failed_frac':48s} {record['failed_frac']:.6g} "
                 f"({record['failed']}/{record['attempted']})")
    for name in ("err_l1", "rate_min"):
        if record[name] is not None:
            lines.append(f"  {name:48s} {record[name]:.6g}")
    for rep in record["reps"] + record["setups"]:
        if "error" in rep:
            lines.append(f"  FAILED {rep['kind']} process: {rep['error'].strip().splitlines()[-1]}")
        for run in rep.get("runs", []):
            if run["failed_checks"]:
                lines.append(f"  FAILED {run['label']}: {', '.join(run['failed_checks'])}")
    if not record["counts_repeat"]:
        lines.append("  FAILED errors or traced counts differ between runs of one input")
    env = record["env"] or {}
    lines.append(f"  env: nproc={env.get('nproc')} cpu={env.get('cpu')!r} "
                 f"python={env.get('python')} numpy={env.get('numpy')}")
    lines.append(f"       cache={env.get('cache_bytes')} blas={env.get('blas_threads')}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "relshock", "__init__.py")):
        print("run from the root of a relshock checkout: no src/relshock here",
              file=sys.stderr)
        return 2
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(os.path.join(STATE_DIR, "results"), exist_ok=True)
    path = os.path.join(STATE_DIR, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in describe(record):
        print(line)
    print(f"  record: {path}")
    if not record["metrics"]:
        print("no run produced measurements", file=sys.stderr)
        return 1
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
