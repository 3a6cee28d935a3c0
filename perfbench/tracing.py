"""In-memory span tracer over relshock's layer entry points.

Every layer call the stepper makes goes through a module or class
attribute (`riemann.solve_interfaces`, `fluid.fluid_arrays`,
`scheme.godunov_cell_update`, `Model.evaluate`, ...), so the tracer times a
layer without touching the package: `install` swaps each attribute for a
wrapper that records one span per call, and `uninstall` puts the originals
back.  A span is (name, start, end, parent index, run id); the run id
counts `experiments.simulate_model` calls, so the spans of one ladder level
share it.  Spans stay in memory until `write_spans`.

With `alloc=True` every span also records its peak temporary allocation
(tracemalloc peak during the call minus the traced size at entry).  That
pass is run separately from the timed one because tracemalloc slows every
allocation, and it traces only the first ALLOC_STEPS steps of each run:
the temporaries of a step scale with the grid, not with the step count,
and tracing a whole reversed collapse would take minutes.  An entry point
a later version of the package no longer has makes `install` raise, so
the traced run fails instead of reporting a layer's time as 0.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
import tracemalloc

ADVANCE = "scheme.advance"
SOLVE = "riemann.solve_interfaces"
FLUID = "fluid"
LEVEL = "experiments.simulate_model"
DRIVER = "experiments.driver"
HOOKS = "diagnostics.hooks"
OUTPUT = "output"

REGION_NAMES = ("I", "II", "III", "IV")
ALLOC_STEPS = 25


def _targets():
    """(owner, attribute, span name) for every traced layer entry point."""
    from relshock import (diagnostics, experiments, fluid, models, output,
                          riemann, scheme)

    targets = [(riemann, "solve_interfaces", SOLVE),
               (riemann, "sample_solution", "riemann.sample_solution")]
    targets += [(fluid, name, FLUID) for name, obj in vars(fluid).items()
                if inspect.isfunction(obj) and obj.__module__ == fluid.__name__
                and (name.endswith("_arrays") or name == "t11_from_conserved")]
    targets += [(scheme, name, f"scheme.{name}") for name in (
        "advance", "godunov_cell_update", "ode_step", "update_mass_metric",
        "cfl_dt", "chop_right")]
    targets += [(cls, "evaluate", "models.evaluate")
                for cls in vars(models).values()
                if inspect.isclass(cls) and "evaluate" in vars(cls)]
    targets += [(diagnostics, name, f"diagnostics.{name}")
                for name in ("detect_tov_border", "black_hole_number")]
    for mod in (diagnostics, experiments):
        targets += [(cls, "__call__", HOOKS) for cls in vars(mod).values()
                    if inspect.isclass(cls) and cls.__module__ == mod.__name__
                    and "__call__" in vars(cls) and "on_start" in vars(cls)]
    targets.append((experiments, "simulate_model", LEVEL))
    targets += [(experiments, name, DRIVER)
                for name in ("matched_run", "ladder", "reversed_collapse_run")]
    targets += [(output, name, OUTPUT)
                for name in ("emit_plotdata", "emit_manifest", "emit_table")]
    return targets


class Tracer:
    """Records spans and counts at the layer boundaries while installed."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: list = []
        self.run_id = 0
        self.interfaces = 0
        self.regions = [0, 0, 0, 0]
        self.cell_steps = 0
        self.output_bytes = 0
        self.peak_temp: dict = {}
        self._stack: list = []
        self._alloc_stack: list = []
        self._alloc_gen = 0
        self._run_steps = 0
        self._saved: list = []

    def install(self):
        # look every entry point up before swapping any, so a missing one
        # leaves the package untouched
        found = []
        for owner, attr, name in _targets():
            if attr not in vars(owner):
                raise AttributeError(f"traced entry point {owner.__name__}.{attr} "
                                     "no longer exists")
            found.append((owner, attr, vars(owner)[attr], name))
        for owner, attr, orig, name in found:
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        if self.alloc and tracemalloc.is_tracing():
            tracemalloc.stop()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, orig, name):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self._call(orig, name, args, kwargs)
        return wrapper

    def _call(self, orig, name, args, kwargs):
        if name == LEVEL:
            self.run_id += 1
            self._run_steps = 0
            if self.alloc and not tracemalloc.is_tracing():
                tracemalloc.start()
                self._alloc_gen += 1
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        tracked = self.alloc and tracemalloc.is_tracing()
        if tracked:
            cur, peak = tracemalloc.get_traced_memory()
            self._alloc_stack.append([cur, peak, 0, self._alloc_gen])
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            out = orig(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.run_id)
            if tracked:
                self._close_alloc(name)
        self._observe(name, out)
        return out

    def _close_alloc(self, name):
        entry, outer_peak, child_peak, gen = self._alloc_stack.pop()
        if not tracemalloc.is_tracing() or gen != self._alloc_gen:
            return  # tracing stopped inside this call: no valid peak
        peak = max(tracemalloc.get_traced_memory()[1], child_peak)
        self.peak_temp[name] = max(self.peak_temp.get(name, 0), peak - entry)
        if self._alloc_stack:
            # the reset at this call's entry dropped the caller's earlier
            # peak; hand both back to the caller's frame
            caller = self._alloc_stack[-1]
            caller[2] = max(caller[2], outer_peak, peak)
        if name == ADVANCE:
            self._run_steps += 1
            if self._run_steps >= ALLOC_STEPS:
                tracemalloc.stop()

    def _observe(self, name, out):
        if name == SOLVE:
            self.interfaces += out.region.size
        elif name == ADVANCE:
            regions = out.regions  # riemann.REGION_I..REGION_IV are 1..4
            for k in range(4):
                self.regions[k] += int((regions == k + 1).sum())
            self.cell_steps += regions.size - 1
        elif name == OUTPUT and isinstance(out, str):
            self.output_bytes += os.path.getsize(out)

    def write_spans(self, path: str):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,run_id\n")
            for k, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{k},{name},{start - t0:.9f},{end - t0:.9f},"
                         f"{parent},{run_id}\n")

    def counts(self) -> dict:
        """Deterministic counts: equal inputs must give equal values."""
        names = [s[0] for s in self.spans]
        inside = self._inside_advance()
        out = {
            "steps": names.count(ADVANCE),
            "interfaces": self.interfaces,
            "cell_steps": self.cell_steps,
            "regions": list(self.regions),
            "output_bytes": self.output_bytes,
            "levels": names.count(LEVEL),
        }
        for name in (FLUID, "diagnostics.black_hole_number", "scheme.chop_right"):
            out[f"{name}.calls"] = names.count(name)
        for name in ("models.evaluate", "diagnostics.detect_tov_border"):
            out[f"{name}.calls_in_advance"] = sum(
                1 for k, n in enumerate(names) if n == name and inside[k])
        return out

    def _inside_advance(self):
        # parents are opened before their children, so one forward pass
        # sees each parent's flag before its children need it
        inside = [False] * len(self.spans)
        for k, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                inside[k] = inside[parent] or self.spans[parent][0] == ADVANCE
        return inside

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - child[k]
                for k, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self) -> dict:
        """Per-layer timings and counts of everything traced so far."""
        spans = self.spans
        names = [s[0] for s in spans]
        dur = [end - start for _, start, end, _, _ in spans]
        inside = self._inside_advance()
        counts = self.counts()
        steps = max(counts["steps"], 1)
        selft = self.self_times()

        def total(name, only_inside=False, outermost=False):
            return sum(d for k, d in enumerate(dur) if names[k] == name
                       and (inside[k] or not only_inside)
                       and not (outermost and spans[k][3] >= 0
                                and names[spans[k][3]] == name))

        advance = [d for k, d in enumerate(dur) if names[k] == ADVANCE] or [0.0]
        adv_total = sum(advance)
        levels = [d for k, d in enumerate(dur) if names[k] == LEVEL]
        region_total = max(sum(self.regions), 1)
        m = {
            "riemann.solve_interfaces.ms_per_step": total(SOLVE) / steps * 1e3,
            "riemann.solve_interfaces.ns_per_interface":
                total(SOLVE) / max(self.interfaces, 1) * 1e9,
            "riemann.solve_interfaces.share":
                total(SOLVE, only_inside=True) / adv_total if adv_total else 0.0,
            "riemann.sample_solution.ms_per_step":
                total("riemann.sample_solution") / steps * 1e3,
        }
        for k, region in enumerate(REGION_NAMES):
            m[f"riemann.region_{region}_frac"] = self.regions[k] / region_total
        m["fluid.calls_per_step"] = counts[f"{FLUID}.calls"] / steps
        # fluid kernels call each other; count each nested call once
        m["fluid.ms_per_step"] = total(FLUID, outermost=True) / steps * 1e3
        p50, p90 = (statistics.quantiles(advance, n=10)[k] for k in (4, 8)) \
            if len(advance) > 1 else (advance[0], advance[0])
        m["scheme.advance.ms_p50"] = p50 * 1e3
        m["scheme.advance.ms_p90"] = p90 * 1e3
        m["scheme.advance.self_ms_per_step"] = sum(
            s for k, s in enumerate(selft) if names[k] == ADVANCE) / steps * 1e3
        for name in ("godunov_cell_update", "ode_step", "update_mass_metric",
                     "cfl_dt"):
            m[f"scheme.{name}.ms_per_step"] = total(f"scheme.{name}") / steps * 1e3
        m["scheme.chop_right.calls"] = counts["scheme.chop_right.calls"]
        m["models.evaluate.calls_per_step"] = \
            counts["models.evaluate.calls_in_advance"] / steps
        m["models.evaluate.ms_per_step"] = \
            total("models.evaluate", only_inside=True) / steps * 1e3
        m["diagnostics.detect_tov_border.calls_per_step"] = \
            counts["diagnostics.detect_tov_border.calls_in_advance"] / steps
        m["diagnostics.detect_tov_border.ms_per_step"] = \
            total("diagnostics.detect_tov_border", only_inside=True) / steps * 1e3
        m["diagnostics.hooks.ms_per_step"] = total(HOOKS) / steps * 1e3
        m["diagnostics.black_hole_number.calls_per_step"] = \
            counts["diagnostics.black_hole_number.calls"] / steps
        drivers = total(DRIVER)
        m["experiments.level_sum_over_wall"] = sum(levels) / drivers if drivers else 0.0
        m["experiments.finest_level_share"] = \
            max(levels) / sum(levels) if levels else 0.0
        m["output.ms"] = total(OUTPUT) * 1e3
        m["output.bytes"] = self.output_bytes
        return m
