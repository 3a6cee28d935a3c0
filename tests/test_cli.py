"""Command line: golden Riemann outputs, input rejection and exit codes."""

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


def test_single_level_ladder_exits_four(tmp_path, capsys):
    argv = ["converge", "--model", "frw1", "--levels", "64..64",
            "--duration", "0.05", "--outdir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    assert "need at least two errors" in capsys.readouterr().err
