"""Key = value run configuration: typing from the dataclass, and errors
that name their line."""

import pytest

from relshock.config import RunConfig, config_from_dict, read_config
from relshock.errors import ConfigError


def load(tmp_path, text):
    """RunConfig from `text` written to a file, as the CLI reads one."""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return config_from_dict(*read_config(str(path)))


def test_parse_config_types_values_from_the_dataclass(tmp_path):
    cfg = load(tmp_path, (
        "# comment line\n"
        "model = frw2\n"
        "n = 128          # int\n"
        "track_cones = yes\n"
        "reversed = false\n"
        "duration = 0.25\n"
    ))
    assert cfg.model == "frw2"
    assert cfg.n == 128 and type(cfg.n) is int
    assert cfg.track_cones is True and cfg.reversed is False
    assert cfg.duration == 0.25
    assert cfg.r_min == RunConfig().r_min


@pytest.mark.parametrize("text, message", [
    ("model = frw1\n\nnn = 3\n", "line 3: unknown key 'nn'"),
    ("n = 64\nn = 128\n", "line 2: duplicate key 'n'"),
    ("n = 1.5\n", "line 1: cannot parse n = '1.5' as int"),
    ("reversed = maybe\n", "line 1: cannot parse reversed = 'maybe' as bool"),
    ("sigma = none\n", "line 1: cannot parse sigma = 'none' as float"),
    ("model = frw1\njust text\n", "line 2: expected key = value"),
])
def test_parse_config_rejects_with_line(tmp_path, text, message):
    with pytest.raises(ConfigError, match=message) as info:
        load(tmp_path, text)
    assert info.value.line == int(message.split(":")[0].split()[1])


def test_parse_config_validates(tmp_path):
    with pytest.raises(ConfigError, match="n must be at least 8"):
        load(tmp_path, "n = 4\n")


@pytest.mark.parametrize("text, message", [
    ("snapshots = -3\n", "snapshots must be non-negative, got -3"),
    ("min_cells = -5\n", "min_cells must be at least 8, got -5"),
    ("min_cells = 7\n", "min_cells must be at least 8, got 7"),
], ids=["snapshots=-3", "min_cells=-5", "min_cells=7"])
def test_parse_config_rejects_negative_snapshots_and_small_chop_floor(tmp_path, text, message):
    """A negative snapshot count, or a chopping floor below the grid's
    8 points, is refused like any other invalid value."""
    with pytest.raises(ConfigError, match=message):
        load(tmp_path, text)


@pytest.mark.parametrize("r_min", ["-1", "0"])
def test_parse_config_rejects_a_non_positive_radius(tmp_path, r_min):
    """r is the areal radius, so the grid must start at r > 0."""
    with pytest.raises(ConfigError, match=f"r_min must be positive .*got {float(r_min)}"):
        load(tmp_path, f"model = frw1\nr_min = {r_min}\n")


def test_parse_config_rejects_a_non_finite_number(tmp_path):
    """nan passes every range comparison, so it is refused on its own."""
    with pytest.raises(ConfigError, match="sigma must be finite, got nan"):
        load(tmp_path, "model = tov\nsigma = nan\n")


def test_parse_config_accepts_the_smallest_valid_counts(tmp_path):
    cfg = load(tmp_path, "snapshots = 0\nmin_cells = 8\neps = 1e-14\n")
    assert (cfg.snapshots, cfg.min_cells, cfg.eps) == (0, 8, 1e-14)
