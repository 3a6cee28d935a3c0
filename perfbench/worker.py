"""One measured process of the benchmark: set up, run one workload, check it.

`run.py` starts this script from the root of a checkout, passing the
monotonic time just before the spawn, so set-up time covers interpreter
start, the numpy/relshock imports, model construction and `scheme.init`:
everything before the first `scheme.advance`.  Wall time runs from that
first step until the workload's output files are written.  The last line of
standard output is one JSON object with the measurements.

Kinds of process:
  setup   stop at the first step and report set-up time, plus one sample
          of the host-speed reference at SETUP_REF_SIZE taken after it
  plain   untraced run: set-up, wall time, peak RSS, checks, and
          host-speed reference samples taken between steps
  bare    plain without the reference samples (baseline of the traced run)
  traced  run under the span tracer; per-layer timings and counts
  alloc   traced run under tracemalloc; peak temporaries only

relshock is imported from `src/` of the current directory and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

KINDS = ("setup", "plain", "bare", "traced", "alloc")
REF_SAMPLE_S = 0.005
REF_INTERVAL_S = 0.25  # so sampling adds about 2% to a plain run
SETUP_REF_SIZE = 4096  # one size for every workload: set-up does not scale with n


class SetupDone(Exception):
    """Raised at the first step of a set-up-only process."""


class StepClock:
    """Wraps `scheme.advance` to stamp the first step.

    In a plain run it stays installed and, between steps, times one sample
    of the host-speed reference every REF_INTERVAL_S, always at the
    workload's largest grid size, so the reference does not depend on how
    the program splits its time between levels or phases; the time those
    samples take is kept apart so it can be taken out of the run's wall
    time.
    """

    def __init__(self, scheme, stop: bool, sample: bool, ref_size: int):
        self.scheme = scheme
        self.stop = stop
        self.sample = sample
        self.ref_size = ref_size
        self.t = None
        self.ref_samples: list = []
        self.ref_total = 0.0
        self._last = float("-inf")
        self._inner = scheme.advance
        scheme.advance = self._probe

    def _probe(self, *args, **kwargs):
        now = time.monotonic()
        if self.t is None:
            self.t = now
            if not self.sample:
                self.uninstall()
            if self.stop:
                raise SetupDone
        if self.sample and now - self._last >= REF_INTERVAL_S:
            self.ref_samples.append(reference_sample(self.ref_size))
            self._last = time.monotonic()
            self.ref_total += self._last - now
        return self._inner(*args, **kwargs)

    def uninstall(self):
        if self.scheme.advance == self._probe:
            self.scheme.advance = self._inner


def reference_sample(size: int) -> float:
    """Seconds per pass of a fixed numpy kernel that does not touch relshock.

    The kernel has the stepper's mix (ufuncs, masks and interpreter overhead
    on arrays of the workload's grid size), so its time follows the host's
    speed, which drifts by tens of percent over minutes on a shared machine.
    Passes repeat for REF_SAMPLE_S.
    """
    import numpy as np

    x = np.linspace(0.1, 2.0, size)
    passes = 0
    start = time.perf_counter()
    while True:
        y = np.sqrt(x * (x + 2.0)) + np.log1p(x) * 0.5
        y = np.where(y > 1.0, y - 1.0, y + 1.0)
        float(y.sum())
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= REF_SAMPLE_S:
            return elapsed / passes


def _command_output(*cmd) -> str:
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return ""


def environment() -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip()
                for line in _command_output("lscpu").splitlines()
                if line.startswith("Model name:")), platform.processor())
    caches = {}
    for line in _command_output("getconf", "-a").splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            caches[parts[0]] = int(parts[1])
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
    }


def use_checkout_source(root: str):
    """Import relshock from `<root>/src` and fail if it resolves elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import relshock

    if not os.path.abspath(relshock.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"relshock resolved to {relshock.__file__}, not {src}")


def execute(workload: str, inputs: dict, kind: str, outdir: str,
            spawned: float, spans_path: str | None = None) -> dict:
    """Run one process's worth of the workload and return its measurements."""
    from relshock import scheme

    run, check = workloads.WORKLOADS[workload]
    tracer = tracing.Tracer(alloc=kind == "alloc") if kind in ("traced", "alloc") else None
    if tracer is not None:
        tracer.install()
    clock = StepClock(scheme, stop=kind == "setup", sample=kind == "plain",
                      ref_size=workloads.grid_size(inputs))
    os.makedirs(outdir, exist_ok=True)
    try:
        raw = run(inputs, outdir)
    except SetupDone:
        return {"kind": kind, "setup_s": clock.t - spawned,
                "ref_s": reference_sample(SETUP_REF_SIZE)}
    finally:
        end = time.monotonic()
        clock.uninstall()
        if tracer is not None:
            tracer.uninstall()
    result = {
        "kind": kind,
        "setup_s": clock.t - spawned,
        "wall_s": end - clock.t - clock.ref_total,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if clock.ref_samples:
        result["ref_s"] = statistics.fmean(clock.ref_samples)
        result["ref_samples"] = clock.ref_samples
    result.update(check(inputs, raw))
    if tracer is not None:
        result["counts"] = tracer.counts()
        if kind == "traced":
            result["layers"] = tracer.layer_metrics()
            if spans_path:
                tracer.write_spans(spans_path)
        else:
            result["peak_temp_kib"] = {k: v / 1024 for k, v in tracer.peak_temp.items()}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--inputs", required=True, help="JSON object of generated inputs")
    ap.add_argument("--kind", required=True, choices=KINDS)
    ap.add_argument("--spawned", required=True, type=float,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--spans", default=None, help="write the spans of a traced run here")
    args = ap.parse_args(argv)
    root = os.getcwd()
    use_checkout_source(root)
    try:
        result = execute(args.workload, json.loads(args.inputs), args.kind,
                         args.outdir, args.spawned, args.spans)
    except Exception:  # noqa: BLE001 - a failed run is a measured outcome
        result = {"kind": args.kind, "error": traceback.format_exc()}
    finally:
        shutil.rmtree(args.outdir, ignore_errors=True)
    if args.kind != "setup":
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
