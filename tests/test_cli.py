"""Command line: golden Riemann outputs, input rejection and exit codes."""

import argparse
import dataclasses
import json
import pathlib
import re

import numpy as np
import pytest

from relshock import cli, experiments, models, output, scheme
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
    ("inf", "0.3", "rho must be finite"),
])
def test_riemann_rejects_nonphysical_input(rho_l, v_l, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(riemann_argv(out, rho_l, v_l, "1", "0")) == cli.EXIT_NUMERICAL
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("rho_l, rho_r, v_mid", [("1e20", "1e-20", "1"), ("1e-20", "1e20", "-1")])
def test_riemann_rejects_a_middle_state_at_light_speed(rho_l, rho_r, v_mid, tmp_path, capsys):
    """Both sides are physical, but a density ratio of 1e40 at rest rounds
    the middle velocity to +-1: exit 4 naming the interface, nothing written."""
    out = tmp_path / "out"
    assert cli.main(riemann_argv(out, rho_l, "0", rho_r, "0")) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert re.search(rf"middle state: \|v\| must be < 1 at interface 0 \(v={v_mid}\.0+e\+00\)", err)
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


@pytest.mark.parametrize("model", ["frw1_tov", "frw2_tov"])
def test_converge_on_a_matched_model_compares_with_the_finest_level(model, tmp_path, capsys):
    argv = ["converge", "--model", model, "--levels", "16..32", "--duration", "0.01",
            "--outdir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert "(reference: fine)" in capsys.readouterr().out
    rows = (tmp_path / "table.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["16", "32"]


@pytest.mark.parametrize("model", ["frw1", "frw2", "tov", "frw1_tov", "frw2_tov"])
def test_emit_model_writes_the_model_slice(model, tmp_path):
    """model.csv holds the bytes emit_plotdata writes for the model's fields
    at t_start + at on count points from r_min to r_max."""
    out = tmp_path / "out"
    argv = ["emit-model", "--model", model, "--at", "0.5", "--count", "33",
            "--outdir", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    m = models.make_model(model, EosParams(), r0=5.0 if model.endswith("_tov") else None)
    t, r = m.t_start + 0.5, np.linspace(3.0, 7.0, 33)
    rho, v, A, B, M = m.evaluate(t, r)
    want = output.emit_plotdata(
        experiments.ProfileSlice(t=t, x=r, xe=r, rho=rho, v=v, A=A, B=B, M=M),
        str(tmp_path / "want.csv"))
    assert (out / "model.csv").read_bytes() == pathlib.Path(want).read_bytes()


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
    (["simulate", "--duration", "nan"], "duration must be finite, got nan"),
    (["simulate", "--duration", "inf"], "duration must be finite, got inf"),
    (["simulate", "--eps", "inf"], "eps must be finite, got inf"),
    (["simulate", "--eps", "nan"], "eps must be finite, got nan"),
    (["simulate", "--r-max", "inf"], "r_max must be finite, got inf"),
    (["simulate", "--model", "frw1", "--t-start", "nan"], "t_start must be finite, got nan"),
    (["simulate", "--eps", "1e-16"], "eps must be positive and at least 1e-14, got 1e-16"),
    (["reverse", "--eps", "1e-17"], "eps must be positive and at least 1e-14, got 1e-17"),
    (["simulate", "--model", "frw3"],
     "model must be one of ('frw1', 'frw2', 'tov', 'frw1_tov', 'frw2_tov'), got 'frw3'"),
    (["simulate", "--r-min", "7", "--r-max", "7"], "r_min must be below r_max"),
    (["simulate", "--r0", "7"], "r0 must lie inside (3.0, 7.0), got 7.0"),
    (["simulate", "--duration", "0"], "duration must be positive"),
], ids=["simulate-snapshots", "reverse-min-cells", "simulate-duration-nan",
        "simulate-duration-inf", "simulate-eps-inf", "simulate-eps-nan", "simulate-r-max-inf",
        "simulate-t-start-nan", "simulate-eps-small", "reverse-eps-small",
        "simulate-model-unknown", "simulate-empty-domain", "simulate-r0-at-r-max",
        "simulate-duration-zero"])
def test_invalid_counts_exit_two(argv, message, tmp_path, capsys):
    """A negative snapshot count, a chopping floor below 8 cells, a
    non-finite number, an eps below 1e-14, which the Newton residual
    cannot reach (such runs used to exit 4), an unknown model, an empty
    domain, an r0 outside it or a duration that is not positive is a
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


@pytest.mark.parametrize("reversed_time", [False, True], ids=["forward", "reversed"])
def test_manifest_records_the_start_of_the_run(reversed_time):
    """A matched run's manifest records the run's own start and direction,
    whatever the config's t_start (which only the pure FRW models read) and
    reversed say."""
    eos = EosParams()
    if reversed_time:
        model = models.make_model("frw1_tov", eos, r0=5.0, reversed_time=True)
        arts = experiments.simulate_model(model, scheme.SimGrid(0.1, 20.0, 32), eos, 0.05)
    else:
        arts = experiments.matched_run("frw1", 32, eos, duration=0.01).arts
    start = arts.state.model.t_start
    assert (start < 0.0) == reversed_time and start != RunConfig().t_start
    payload = cli._manifest_payload(RunConfig(model="frw1_tov"), arts)
    assert payload["config"]["t_start"] == start
    assert payload["config"]["reversed"] is reversed_time


RIEMANN_FLAGS = ["--rho-l", "1", "--v-l", "0", "--rho-r", "2", "--v-r", "0"]


@pytest.mark.parametrize("argv, message", [
    (["riemann", *RIEMANN_FLAGS, "--xi-count", "-1"], "--xi-count must be non-negative, got -1"),
    (["riemann", *RIEMANN_FLAGS, "--sigma", "2"], "sigma must lie in (0, 1), got 2.0"),
    (["riemann", *RIEMANN_FLAGS, "--sigma", "0"], "sigma must lie in (0, 1), got 0.0"),
    (["riemann", *RIEMANN_FLAGS, "--eps", "-1"], "eps must be positive"),
    (["riemann", *RIEMANN_FLAGS, "--eps", "0"], "eps must be positive"),
    (["emit-model", "--count", "-3"], "--count must be non-negative, got -3"),
    (["riemann", *RIEMANN_FLAGS, "--sigma", "nan"], "sigma must be finite, got nan"),
    (["riemann", *RIEMANN_FLAGS, "--eps", "inf"], "eps must be finite, got inf"),
    (["riemann", *RIEMANN_FLAGS, "--xi-min", "nan"], "--xi-min must be finite, got nan"),
    (["riemann", *RIEMANN_FLAGS, "--xi-max", "inf"], "--xi-max must be finite, got inf"),
    (["emit-model", "--r-max", "inf"], "r_max must be finite, got inf"),
    (["emit-model", "--at", "nan"], "--at must be finite, got nan"),
    (["riemann", *RIEMANN_FLAGS, "--eps", "1e-15"],
     "eps must be positive and at least 1e-14, got 1e-15"),
], ids=["riemann-xi-count", "riemann-sigma-2", "riemann-sigma-0", "riemann-eps-negative",
        "riemann-eps-0", "emit-model-count", "riemann-sigma-nan", "riemann-eps-inf",
        "riemann-xi-min-nan", "riemann-xi-max-inf", "emit-model-r-max-inf", "emit-model-at-nan",
        "riemann-eps-small"])
def test_out_of_range_flags_of_riemann_and_emit_model_exit_two(argv, message, tmp_path, capsys):
    """riemann and emit-model refuse a negative count, sigma outside (0, 1),
    eps < 1e-14 and a non-finite number as every other command does, before
    anything is written."""
    out = tmp_path / "out"
    assert cli.main(argv + ["--outdir", str(out)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case, reason", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("not-utf8", "not UTF-8"),
])
def test_an_unreadable_config_file_exits_two(case, reason, tmp_path, capsys):
    """A --config file that is missing, a directory or not UTF-8 text is a
    configuration error naming the path, refused before anything is written."""
    path = tmp_path / "run.cfg"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"n = 64\n\xff\xfe\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--outdir", str(out)]) == cli.EXIT_CONFIG
    assert f"configuration error: cannot read config file {path}: {reason}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "frw1", "--n", "16", "--duration", "0.01"],
    ["riemann", *RIEMANN_FLAGS],
], ids=["simulate", "riemann"])
def test_an_output_directory_that_cannot_be_made_exits_two(argv, tmp_path, capsys):
    """An --outdir below a regular file cannot be created: the command
    reports the OSError as a configuration error and exits 2."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    assert cli.main(argv + ["--outdir", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(out) in err


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


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "frw2", "--t-start", "-15", "--n", "16", "--duration", "0.01"],
    ["converge", "--model", "frw2", "--t-start", "-15", "--levels", "16..32",
     "--duration", "0.01"],
    ["emit-model", "--model", "frw2", "--t-start", "0"],
    ["simulate", "--model", "frw1", "--t-start", "0", "--n", "16", "--duration", "0.01"],
], ids=["simulate-frw2", "converge-frw2", "emit-model-frw2", "simulate-frw1"])
def test_an_frw_start_time_with_no_slice_exits_two(argv, tmp_path, capsys):
    """frw2 has no slice at t_start <= 0 (psi0 = sqrt(2 t_start)) and frw1
    none at t_start = 0: the model refuses it when it is made, before
    anything runs, warns or is written (frw2 used to exit 4 on a NaN state,
    or write NaN rows and exit 0)."""
    out = tmp_path / "out"
    assert cli.main(argv + ["--outdir", str(out)]) == cli.EXIT_CONFIG
    model, t_start = argv[2], argv[4]
    assert (f"configuration error: the {model} chart has no slice at t_start = {t_start}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["emit-model", "--model", "frw1", "--t-start", "-1", "--at", "1"],
     "t_start = -1 puts the frw1 slice at t = 0 outside its chart (the FRW-1 chart has no"),
    (["emit-model", "--model", "frw2", "--t-start", "15", "--at", "-30"],
     "t_start = 15 puts the frw2 slice at t = -15 outside its chart (the FRW-2 chart has no"),
    (["emit-model", "--model", "frw2_tov", "--at", "-20"],
     "the frw2_tov slice at t = -9.08911 lies outside its chart (the FRW-2 chart has no"),
], ids=["frw1-at-zero", "frw2-negative", "frw2_tov-negative"])
def test_an_emitted_slice_time_the_frw_chart_does_not_cover_exits_two(argv, message,
                                                                       tmp_path, capsys):
    """An --at that puts an FRW slice at a time its chart does not cover is
    refused before anything is written (frw1 at t = 0 used to divide by
    zero; frw2 at t < 0 used to write the slice at |t|)."""
    out = tmp_path / "out"
    assert cli.main(argv + ["--outdir", str(out)]) == cli.EXIT_CONFIG
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_a_run_at_the_smallest_eps_completes(tmp_path):
    out = tmp_path / "out"
    argv = ["simulate", "--model", "frw1_tov", "--n", "64", "--duration", "0.05",
            "--eps", "1e-14", "--outdir", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["eps"] == 1e-14 and manifest["stop_reason"] == "t_end"


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "tov", "--n", "16", "--duration", "1e-13"],
    ["simulate", "--model", "frw1", "--t-start", "1e17", "--n", "16", "--duration", "1"],
    ["converge", "--model", "frw1", "--levels", "16..32", "--duration", "1e-13"],
], ids=["simulate-tov", "simulate-late-start", "converge"])
def test_a_duration_too_short_for_one_step_exits_two(argv, tmp_path, capsys):
    """A positive duration the march cannot resolve at t_start used to run
    zero steps and exit 0; it is refused before anything is written."""
    out = tmp_path / "out"
    assert cli.main(argv + ["--outdir", str(out)]) == cli.EXIT_CONFIG
    duration = argv[argv.index("--duration") + 1]
    assert (f"configuration error: duration {duration} is below the time resolution"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "16", "--duration", "0.01"],
    ["converge", "--levels", "16..32", "--duration", "0.01"],
], ids=["simulate", "converge"])
def test_a_left_ghost_cell_at_non_positive_radius_exits_two(argv, tmp_path, capsys):
    """On r in [0.1, 7] with 16 cells the left ghost cell, r_min - dx, lies
    at r < 0, outside the static model's domain: refused before anything
    runs or is written (it used to exit 4 inside the run's set-up)."""
    out = tmp_path / "out"
    argv = argv + ["--model", "tov", "--r-min", "0.1", "--r-max", "7", "--outdir", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    ghost = scheme.SimGrid(0.1, 7.0, 16).centers_with_ghosts()[0]
    assert ghost < 0.0
    assert (f"configuration error: r_min = 0.1 puts the left ghost cell at r = {ghost:g}, "
            "outside the tov domain") in capsys.readouterr().err
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
