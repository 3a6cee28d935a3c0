"""Fast checks of the benchmark itself, at tiny grid sizes.

    python3 -m pytest perfbench/tests -q

They are kept out of the package's own suite (pyproject's testpaths) and
take about half a minute, most of it in the worker processes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)

NAMES = [w["name"] for w in BENCH["workloads"]]

# Same shape of run as the real workloads, on grids small enough that the
# correctness gates still hold.
TINY = {
    "matched_shock": {"n": 256, "duration": 0.05},
    "reversed_collapse": {"n": 96},
    "frw1_ladder": {"levels": [128, 256, 512], "duration": 0.1},
}


def tiny_inputs(name: str, seed: int) -> dict:
    inputs = workloads.make_inputs(name, seed)
    inputs.update(TINY[name])
    return inputs


def traced_run(name: str, seed: int, tmp_path):
    run_fn, check = workloads.WORKLOADS[name]
    inputs = tiny_inputs(name, seed)
    with tracing.Tracer() as tracer:
        raw = run_fn(inputs, str(tmp_path))
    return tracer, check(inputs, raw)


def test_workloads_match_benchmark_json():
    assert set(NAMES) == set(workloads.WORKLOADS)
    assert set(NAMES) == set(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_reported_with_its_unit(name, trace, monkeypatch):
    monkeypatch.chdir(ROOT)
    record = run.run_benchmark(name, 1, 0.0, bool(trace), inputs=tiny_inputs(name, 1))
    assert record["correct"], run.describe(record)
    assert record["failed"] == 0 and record["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(record["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert record["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(record["metrics"][m["name"]]["value"], (int, float))
    assert record["env"]["nproc"] >= 1 and record["env"]["numpy"]


@pytest.mark.parametrize("name", NAMES)
def test_self_times_fit_inside_advance(name, tmp_path):
    tracer, _ = traced_run(name, 3, tmp_path)
    inside = tracer._inside_advance()
    self_times = tracer.self_times()
    advance = sum(end - start for span_name, start, end, _, _ in tracer.spans
                  if span_name == tracing.ADVANCE)
    layer_self = sum(t for k, t in enumerate(self_times) if inside[k])
    assert advance > 0.0
    assert all(t >= -1e-9 for t in self_times)
    assert layer_self <= advance
    m = tracer.layer_metrics()
    stages = ("scheme.godunov_cell_update", "scheme.ode_step",
              "scheme.update_mass_metric", "scheme.cfl_dt",
              "riemann.solve_interfaces", "riemann.sample_solution")
    per_step = advance / tracer.counts()["steps"] * 1e3
    assert sum(m[f"{s}.ms_per_step"] for s in stages) <= per_step


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_repeats_counts_and_error(name, tmp_path):
    assert workloads.make_inputs(name, 5) == workloads.make_inputs(name, 5)
    assert workloads.make_inputs(name, 5) != workloads.make_inputs(name, 6)
    first, first_check = traced_run(name, 5, tmp_path / "a")
    second, second_check = traced_run(name, 5, tmp_path / "b")
    assert first.counts() == second.counts()
    assert first_check["err_l1"] == second_check["err_l1"]
    assert first_check["cell_steps"] == first.counts()["cell_steps"]
    assert not any(r["failed_checks"] for r in first_check["runs"])


def test_matched_layer_picture(tmp_path):
    tracer, _ = traced_run("matched_shock", 1, tmp_path)
    m = tracer.layer_metrics()
    assert m["diagnostics.detect_tov_border.calls_per_step"] == 2.0
    assert m["experiments.finest_level_share"] == 1.0
    assert m["output.bytes"] > 0
    assert 0.0 < m["riemann.region_I_frac"] < 1.0


def test_ladder_bypasses_root_finding(tmp_path):
    tracer, check = traced_run("frw1_ladder", 1, tmp_path)
    m = tracer.layer_metrics()
    assert m["riemann.region_IV_frac"] == 1.0
    assert tracer.counts()["levels"] == len(TINY["frw1_ladder"]["levels"])
    assert check["rate_min"] >= workloads.RATE_RANGE[0]


def test_alloc_pass_records_peak_temporaries(tmp_path):
    run_fn, _ = workloads.WORKLOADS["reversed_collapse"]
    with tracing.Tracer(alloc=True) as tracer:
        run_fn(tiny_inputs("reversed_collapse", 1), str(tmp_path))
    assert tracer.peak_temp[tracing.ADVANCE] >= tracer.peak_temp[tracing.SOLVE] > 0


def test_gate_flags_unphysical_state(tmp_path):
    _, check = workloads.WORKLOADS["matched_shock"]
    res = workloads.run_matched_shock(tiny_inputs("matched_shock", 1), str(tmp_path))
    res.arts.state.v[3] = 1.5
    res.arts.state.rho[4] = float("nan")
    failed = check(tiny_inputs("matched_shock", 1), res)["runs"][0]["failed_checks"]
    assert {"finite", "|v|<1"} <= set(failed)


def test_refuses_directory_without_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [p * 0.5 for p in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "gain"
    assert compare.verdict(parent, faster, "higher", 0.1)["verdict"] == "regression"
    assert compare.verdict(parent, list(parent), "lower", 0.1)["verdict"] == "same"
    noisy = [5.0, 15.0, 7.0, 14.0, 6.0, 13.0, 8.0, 12.0, 9.0, 11.0]
    assert compare.verdict(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"
    nine_of_ten = faster[:9] + [parent[9] * 1.01]
    assert compare.verdict(parent, nine_of_ten, "lower", 0.1)["verdict"] == "gain"
    eight_of_ten = faster[:8] + [p * 1.01 for p in parent[8:]]
    assert compare.verdict(parent, eight_of_ten, "lower", 0.1)["verdict"] != "gain"


def test_missing_entry_point_fails_install(monkeypatch):
    from relshock import riemann, scheme

    monkeypatch.delattr(riemann, "solve_interfaces")
    with pytest.raises(AttributeError, match="riemann.solve_interfaces"):
        tracing.Tracer().install()
    assert not hasattr(scheme.advance, "__wrapped__")
