"""Command line: golden Riemann outputs, input rejection and exit codes."""

import json
import pathlib
import re

import pytest

from relshock import cli

DATA = pathlib.Path(__file__).parent / "data"

# (golden directory, --rho-l, --v-l, --rho-r, --v-r)
RIEMANN_CASES = [
    ("riemann_tube", "1e8", "0.3", "1e9", "0.6"),
    ("riemann_two_shock", "2", "0.5", "1", "-0.4"),
]


def riemann_argv(outdir, rho_l, v_l, rho_r, v_r):
    return ["riemann", "--rho-l", rho_l, "--v-l", v_l, "--rho-r", rho_r,
            "--v-r", v_r, "--outdir", str(outdir)]


@pytest.mark.parametrize("case", RIEMANN_CASES, ids=[c[0] for c in RIEMANN_CASES])
def test_riemann_matches_golden_files(case, tmp_path):
    name, *states = case
    assert cli.main(riemann_argv(tmp_path, *states)) == cli.EXIT_OK
    for fname in ("fan.json", "samples.csv"):
        assert (tmp_path / fname).read_bytes() == (DATA / name / fname).read_bytes()


@pytest.mark.parametrize("rho_l, v_l, message", [
    ("-1", "0.3", "rho must be positive"),
    ("nan", "0.3", "rho must be positive"),
    ("1", "nan", r"\|v\| must be < 1"),
    ("1", "1", r"\|v\| must be < 1"),
])
def test_riemann_rejects_nonphysical_input(rho_l, v_l, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(riemann_argv(out, rho_l, v_l, "1", "0")) == cli.EXIT_NUMERICAL
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_simulate_small_grid_exits_zero(tmp_path):
    argv = ["simulate", "--model", "frw1_tov", "--n", "128", "--duration", "0.02",
            "--outdir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert (tmp_path / "manifest.json").is_file()
    assert (tmp_path / "snapshot_000.csv").is_file()


@pytest.mark.parametrize("model, borders", [
    ("frw1", set()), ("frw2", set()), ("tov", set()),
    ("frw1_tov", {"frw_border", "tov_border"}), ("frw2_tov", {"frw_border", "tov_border"}),
])
def test_manifest_records_borders_of_matched_models_only(model, borders, tmp_path):
    """A pure model has no border between an FRW and a static side, so its
    manifest names none (the detectors would restate r_max); a short run
    that stays clear of the boundary records no hit."""
    argv = ["simulate", "--model", model, "--n", "256", "--duration", "0.1",
            "--outdir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert {"frw_border", "tov_border"} & set(manifest) == borders
    if borders:
        assert 3.0 < manifest["frw_border"] < manifest["tov_border"] < 7.0
    assert manifest["boundary_hit_t"] is None and manifest["boundary_hit_step"] is None


def simulate_snapshots(outdir, count):
    argv = ["simulate", "--model", "frw1_tov", "--n", "64", "--duration", "0.05",
            "--snapshots", str(count), "--outdir", str(outdir)]
    assert cli.main(argv) == cli.EXIT_OK
    return [path.read_bytes() for path in sorted(outdir.glob("snapshot_*.csv"))]


@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_simulate_writes_one_file_per_requested_snapshot(count, tmp_path):
    assert len(simulate_snapshots(tmp_path, count)) == count
    assert (tmp_path / "manifest.json").is_file()


def test_snapshot_slices_run_from_the_start_to_the_end(tmp_path):
    """k >= 2 slices include both ends; a single slice is the final one."""
    five = simulate_snapshots(tmp_path / "five", 5)
    two = simulate_snapshots(tmp_path / "two", 2)
    (one,) = simulate_snapshots(tmp_path / "one", 1)
    assert two == [five[0], five[-1]]
    assert one == five[-1] != five[0]


def test_converge_small_ladder_exits_zero(tmp_path):
    argv = ["converge", "--model", "frw1", "--levels", "64..128",
            "--duration", "0.05", "--outdir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert (tmp_path / "table.csv").is_file()


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = frw1\nnn = 3\n")
    argv = ["simulate", "--config", str(cfg), "--outdir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "line 2: unknown key 'nn'" in capsys.readouterr().err


MALFORMED_LEVELS = [
    ("64", "integer bounds"),
    ("abc", "integer bounds"),
    ("64..1e3", "integer bounds"),
    ("4..16", "at least 8 gridpoints"),
    ("64..32", "at least two levels"),
    ("64..64", "at least two levels"),
]


@pytest.mark.parametrize("levels, message", MALFORMED_LEVELS,
                         ids=[c[0] for c in MALFORMED_LEVELS])
def test_converge_rejects_malformed_levels(levels, message, tmp_path, capsys):
    """A --levels spec without integer bounds, with a coarsest level below
    the grid's 8 points, or with fewer than two levels is a configuration
    error naming the spec, refused before anything runs or is written."""
    out = tmp_path / "out"
    argv = ["converge", "--model", "frw1", "--levels", levels,
            "--duration", "0.05", "--outdir", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"--levels {levels!r}" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--snapshots", "-3"], "snapshots must be non-negative, got -3"),
    (["reverse", "--continue-chop", "--min-cells", "-5"], "min_cells must be at least 8, got -5"),
], ids=["simulate-snapshots", "reverse-min-cells"])
def test_invalid_counts_exit_two(argv, message, tmp_path, capsys):
    """A negative snapshot count or a chopping floor below 8 cells is a
    configuration error, refused before anything runs or is written."""
    out = tmp_path / "out"
    assert cli.main(argv + ["--n", "64", "--outdir", str(out)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("r_min", ["-1", "0"])
def test_non_positive_radius_exits_two(r_min, tmp_path, capsys):
    """A grid reaching r <= 0 is refused before anything runs or is
    written (it used to run on negative radii, or fail with NaN at 0)."""
    out = tmp_path / "out"
    argv = ["simulate", "--model", "frw1", "--r-min", r_min, "--n", "64",
            "--duration", "0.01", "--outdir", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "r_min must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_reverse_without_room_before_t_zero_exits_two(tmp_path, capsys):
    """On r in [3, 7] the reversed start time is -5.455, so
    |t_start| - 2*r_min is negative and there is nothing to march."""
    out = tmp_path / "out"
    argv = ["reverse", "--continue-chop", "--n", "64", "--r-min", "3", "--r-max", "7",
            "--outdir", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "r_min = 3" in err and "t_start = -5.45" in err
    assert not out.exists()


def test_reverse_domain_from_config_file_overrides_command_default(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r_min = 3\nr_max = 7\n")
    argv = ["reverse", "--config", str(cfg), "--n", "64", "--outdir", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "r_min = 3" in capsys.readouterr().err


@pytest.mark.parametrize("n, code, stop_reason", [
    ("128", cli.EXIT_OK, "grid_exhausted"),
    ("64", cli.EXIT_HORIZON, "horizon"),
])
def test_reverse_default_domain_runs(n, code, stop_reason, tmp_path):
    """Without domain flags `reverse` runs on the reversed collapse's own
    r in [0.1, 20]: chopping down to the minimum grid at n = 128, a horizon
    stop at n = 64."""
    argv = ["reverse", "--continue-chop", "--n", n, "--outdir", str(tmp_path)]
    assert cli.main(argv) == code
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["stop_reason"] == stop_reason
    assert manifest["config"]["reversed"] is True
    # chopping starts at the first hit, and every later step follows a chop
    hit_t, hit_step = manifest["boundary_hit_t"], manifest["boundary_hit_step"]
    if stop_reason == "horizon":
        assert hit_t is None and hit_step is None and manifest["chops"] == 0
    else:
        assert hit_t <= manifest["t_final"]
        assert hit_step + manifest["chops"] == manifest["steps"]
    assert (manifest["config"]["r_min"], manifest["config"]["r_max"]) == (0.1, 20.0)


def test_reverse_with_reversed_false_exits_two(tmp_path, capsys):
    """`reverse` always runs the time-reversed model, so a config file that
    says otherwise is refused before anything runs or is written."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("reversed = false\n")
    out = tmp_path / "out"
    argv = ["reverse", "--config", str(cfg), "--n", "64", "--outdir", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "reversed = false" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


RIEMANN_FLAGS = ["--rho-l", "1", "--v-l", "0", "--rho-r", "2", "--v-r", "0"]


@pytest.mark.parametrize("argv, message", [
    (["riemann", *RIEMANN_FLAGS, "--xi-count", "-1"], "--xi-count must be non-negative, got -1"),
    (["riemann", *RIEMANN_FLAGS, "--sigma", "2"], "sigma must lie in (0, 1), got 2.0"),
    (["riemann", *RIEMANN_FLAGS, "--sigma", "0"], "sigma must lie in (0, 1), got 0.0"),
    (["riemann", *RIEMANN_FLAGS, "--eps", "-1"], "eps must be positive"),
    (["riemann", *RIEMANN_FLAGS, "--eps", "0"], "eps must be positive"),
    (["emit-model", "--count", "-3"], "--count must be non-negative, got -3"),
], ids=["riemann-xi-count", "riemann-sigma-2", "riemann-sigma-0", "riemann-eps-negative",
        "riemann-eps-0", "emit-model-count"])
def test_out_of_range_flags_of_riemann_and_emit_model_exit_two(argv, message, tmp_path, capsys):
    """riemann and emit-model refuse a negative count, sigma outside (0, 1)
    and eps <= 0 as every other command does, before anything is written."""
    out = tmp_path / "out"
    assert cli.main(argv + ["--outdir", str(out)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


OBSERVERS = {"cones", "mu_history", "tv_history"}
SHORT_MATCHED = ["simulate", "--model", "frw1_tov", "--duration", "0.05", "--track-cones", "true"]


@pytest.mark.parametrize("argv, recorded", [
    (SHORT_MATCHED, {"cones", "tv_history"}),
    (SHORT_MATCHED + ["--reversed", "true"], OBSERVERS),
    (["simulate", "--model", "frw1", "--duration", "0.05", "--track-cones", "true"],
     {"tv_history"}),
    (["reverse"], {"cones", "mu_history"}),
], ids=["matched", "reversed", "pure", "reverse"])
def test_manifest_records_the_observers_of_each_command(argv, recorded, tmp_path):
    """`simulate` always watches the total variation, tracks cones on a
    matched model when asked and 2M/r when reversed; `reverse` tracks
    cones and 2M/r.  Each history has one entry per step plus the start."""
    assert cli.main(argv + ["--n", "128", "--outdir", str(tmp_path)]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert OBSERVERS & set(manifest) == recorded
    assert ("tv_alarmed" in manifest) == ("tv_history" in manifest)
    for key in recorded:
        assert len(manifest[key]) == manifest["steps"] + 1, key
