"""Command line: golden Riemann outputs, input rejection and exit codes."""

import argparse
import dataclasses
import json
import pathlib
import re

import pytest

from relshock import cli, models
from relshock.config import RunConfig
from relshock.fluid import EosParams

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
    assert "reverse does not read reversed" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("source, message", [
    ("flag", "reverse does not read duration"),
    ("config", "line 2: reverse does not read duration"),
])
def test_reverse_refuses_a_duration(source, message, tmp_path, capsys):
    """`reverse` marches until its boundary stop, so it has no --duration
    flag, and a duration from a config file is refused; both before
    anything runs or is written."""
    out = tmp_path / "out"
    argv = ["reverse", "--n", "64", "--outdir", str(out)]
    if source == "flag":
        with pytest.raises(SystemExit) as info:
            cli.main(argv + ["--duration", "0.05"])
        assert info.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments: --duration" in capsys.readouterr().err
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 64\nduration = 0.05\n")
        assert cli.main(argv + ["--config", str(cfg)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_reverse_manifest_records_the_span_it_marched(tmp_path):
    """The manifest's duration is the time the reversed run covered, from
    its start slice to its boundary stop."""
    assert cli.main(["reverse", "--n", "128", "--outdir", str(tmp_path)]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    t_start = models.make_model("frw1_tov", EosParams(), r0=5.0, reversed_time=True).t_start
    assert manifest["stop_reason"] == "boundary_hit"
    assert manifest["config"]["duration"] == manifest["t_final"] - t_start
    assert manifest["config"]["duration"] == pytest.approx(sum(manifest["dt_history"]),
                                                           rel=1e-12)


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
    (["simulate", "--model", "frw1", "--duration", "0.05"], {"tv_history"}),
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


# --- each command and model takes only the configuration it reads -----------

MODELS = ("frw1", "frw2", "tov", "frw1_tov", "frw2_tov")
FIELDS = [f.name for f in dataclasses.fields(RunConfig)]
OWN_FLAGS = {
    "riemann": {"--rho-l", "--v-l", "--rho-r", "--v-r", "--sigma", "--eps", "--xi-min",
                "--xi-max", "--xi-count", "--outdir"},
    "emit-model": {"--config", "--at", "--count"},
    "simulate": {"--config"},
    "converge": {"--config", "--levels"},
    "reverse": {"--config", "--continue-chop"},
}


def flag(key):
    return "--" + key.replace("_", "-")


def test_each_parser_offers_the_keys_its_command_reads():
    """Every command's flags are its key tuple and its own flags, and every
    RunConfig field is read by some command: a knob no command reads fails
    here."""
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(OWN_FLAGS)
    for command, p in sub.choices.items():
        offered = {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
        keys = cli._COMMAND_KEYS.get(command, ())
        assert offered == OWN_FLAGS[command] | {flag(key) for key in keys}, command
    assert set().union(*cli._COMMAND_KEYS.values()) == set(FIELDS)
    assert set(cli._MODEL_KEYS) <= set(FIELDS)


UNREAD = [(command, key) for command, keys in cli._COMMAND_KEYS.items()
          for key in FIELDS if key not in keys]


@pytest.mark.parametrize("command, key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
def test_a_key_the_command_does_not_read_exits_two(command, key, tmp_path, capsys):
    """The command has no flag for it, and a config file that sets it is
    refused with its line; nothing is written either way."""
    out = tmp_path / "out"
    argv = [command, "--outdir", str(out)]
    value = str(getattr(RunConfig(), key))
    with pytest.raises(SystemExit) as info:
        cli.main(argv + [flag(key), value])
    assert info.value.code == cli.EXIT_CONFIG
    assert f"unrecognized arguments: {flag(key)}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# {command}\n{key} = {value}\n")
    assert cli.main(argv + ["--config", str(cfg)]) == cli.EXIT_CONFIG
    assert f"line 2: {command} does not read {key}" in capsys.readouterr().err
    assert not out.exists()


VALUES = {"t_start": "5", "r0": "5", "reversed": "false", "track_cones": "true"}
MODEL_UNREAD = [(model, key) for model in MODELS for key, readers in cli._MODEL_KEYS.items()
                if model not in readers]


@pytest.mark.parametrize("model, key", MODEL_UNREAD, ids=[f"{m}-{k}" for m, k in MODEL_UNREAD])
def test_a_key_the_model_does_not_read_exits_two(model, key, tmp_path, capsys):
    """A model-only key given for another model, even at its default, is
    refused, from a flag or with its line from a config file."""
    out = tmp_path / "out"
    argv = ["simulate", "--n", "64", "--duration", "0.05", "--outdir", str(out)]
    assert cli.main(argv + ["--model", model, flag(key), VALUES[key]]) == cli.EXIT_CONFIG
    assert f"configuration error: model {model} does not read {key}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = {model}\n{key} = {VALUES[key]}\n")
    assert cli.main(argv + ["--config", str(cfg)]) == cli.EXIT_CONFIG
    assert f"line 2: model {model} does not read {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "frw1"], ["simulate", "--model", "frw2"],
    ["simulate", "--model", "frw1_tov"], ["simulate", "--model", "frw2_tov"],
    ["emit-model", "--model", "frw1"], ["converge", "--model", "frw1"], ["reverse"],
], ids=["frw1", "frw2", "frw1_tov", "frw2_tov", "emit-model", "converge", "reverse"])
def test_sigma_other_than_radiation_on_an_frw_model_exits_two(argv, tmp_path, capsys):
    """The FRW charts need sigma = 1/3; another sigma is a configuration
    error, refused before anything runs or is written."""
    out = tmp_path / "out"
    assert cli.main(argv + ["--sigma", "0.2", "--outdir", str(out)]) == cli.EXIT_CONFIG
    assert "require sigma = 1/3" in capsys.readouterr().err
    assert not out.exists()


def test_sigma_other_than_radiation_runs_riemann_and_tov(tmp_path):
    argv = ["riemann", *RIEMANN_FLAGS, "--sigma", "0.2", "--outdir", str(tmp_path / "r")]
    assert cli.main(argv) == cli.EXIT_OK
    argv = ["simulate", "--model", "tov", "--sigma", "0.2", "--n", "64", "--duration", "0.05",
            "--outdir", str(tmp_path / "s")]
    assert cli.main(argv) == cli.EXIT_OK


@pytest.mark.parametrize("argv, t_start", [
    (["simulate", "--model", "frw1", "--t-start", "12", "--duration", "0.05"], 12.0),
    (["simulate", "--model", "frw2", "--duration", "0.05"], 15.0),
    (["simulate", "--model", "tov", "--duration", "0.05"], 0.0),
    (["simulate", "--model", "frw1_tov", "--duration", "0.05"],
     models.make_model("frw1_tov", EosParams(), r0=5.0).t_start),
    (["simulate", "--model", "frw2_tov", "--r0", "4", "--duration", "0.05"],
     models.make_model("frw2_tov", EosParams(), r0=4.0).t_start),
    (["reverse"], models.make_model("frw1_tov", EosParams(), r0=5.0, reversed_time=True).t_start),
], ids=MODELS + ("reverse",))
def test_manifest_records_the_start_time_the_run_used(argv, t_start, tmp_path):
    """The manifest's t_start is the start slice of the run's model, from
    which the recorded steps reach t_final."""
    assert cli.main(argv + ["--n", "128", "--outdir", str(tmp_path)]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["t_start"] == t_start
    assert manifest["config"]["t_start"] + sum(manifest["dt_history"]) == pytest.approx(
        manifest["t_final"], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "frw1", "--t-start", "5", "--n", "64", "--duration", "0.01"],
    ["simulate", "--model", "frw1", "--t-start", "7.001", "--n", "64", "--duration", "0.01"],
    ["simulate", "--model", "frw2", "--t-start", "2"],
    ["converge", "--model", "frw1", "--t-start", "5", "--levels", "16..32"],
    ["emit-model", "--model", "frw1", "--t-start", "5"],
], ids=["simulate-frw1", "simulate-right-ghost", "simulate-frw2", "converge", "emit-model"])
def test_a_start_slice_outside_the_frw_chart_exits_two(argv, tmp_path, capsys):
    """A t_start whose slice leaves the FRW chart on the command's radii is
    refused before anything runs or is written; at t_start = 7.001 on
    r <= 7 only simulate's right ghost cell, r_max + dx, is outside."""
    out = tmp_path / "out"
    assert cli.main(argv + ["--outdir", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    t_start = argv[argv.index("--t-start") + 1]
    assert f"configuration error: t_start = {t_start} puts the " in err
    assert "outside its chart" in err
    assert not out.exists()


def test_a_chart_failure_during_a_run_exits_four(tmp_path, capsys):
    """A reversed frw1 run starts inside its chart and leaves it as t nears
    zero: a numerical failure of the run, not a configuration error."""
    argv = ["simulate", "--model", "frw1", "--t-start", "-7.3", "--n", "64",
            "--duration", "1", "--outdir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    assert "numerical failure: |r/t| >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, unread", [
    (["simulate", "--model", "frw1"], {"r0", "reversed", "track_cones"}),
    (["simulate", "--model", "tov"], {"r0", "reversed", "track_cones"}),
    (["simulate", "--model", "frw2_tov"], {"reversed"}),
    (["simulate", "--model", "frw1_tov"], set()),
    (["reverse"], set()),
], ids=["frw1", "tov", "frw2_tov", "frw1_tov", "reverse"])
def test_manifest_config_holds_the_keys_the_model_reads(argv, unread, tmp_path):
    """The manifest's config leaves out the model-only keys the run's model
    does not read; t_start stays, as the start the run used."""
    extra = [] if argv == ["reverse"] else ["--duration", "0.02"]
    assert cli.main(argv + extra + ["--n", "128", "--outdir", str(tmp_path)]) == cli.EXIT_OK
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert set(config) == set(FIELDS) - unread
