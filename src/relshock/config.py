"""Flat key = value run configuration.

Unknown keys are hard errors so a typo in a physics parameter cannot pass
silently.  `#` starts a comment; blank lines are ignored.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

from .errors import ConfigError

__all__ = ["RunConfig", "read_config", "config_from_dict"]

_MODELS = ("frw1", "frw2", "tov", "frw1_tov", "frw2_tov")


@dataclass
class RunConfig:
    model: str = "frw1_tov"
    r_min: float = 3.0
    r_max: float = 7.0
    r0: float = 5.0
    n: int = 2**14
    duration: float = 1.0
    reversed: bool = False
    sigma: float = 1.0 / 3.0
    eps: float = 1e-10
    # snapshot files of `simulate`: k >= 2 gives k evenly spaced slices from
    # the start to the end of the run, 1 the final slice alone, 0 none
    snapshots: int = 5
    outdir: str = "out"
    t_start: float = 15.0   # pure frw1 and frw2 only (tov: t = 0; matched: set by r0)
    min_cells: int = 64     # floor for boundary chopping
    track_cones: bool = False

    def validate(self) -> "RunConfig":
        for name, kind in typing.get_type_hints(RunConfig).items():
            if kind is float and not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.model not in _MODELS:
            raise ConfigError(f"model must be one of {_MODELS}, got {self.model!r}")
        if self.n < 8:
            raise ConfigError(f"n must be at least 8, got {self.n}")
        if self.r_min <= 0.0:
            raise ConfigError(f"r_min must be positive (r is the areal radius), got {self.r_min}")
        if not self.r_min < self.r_max:
            raise ConfigError("r_min must be below r_max")
        if self.model.endswith("_tov") and not self.r_min < self.r0 < self.r_max:
            raise ConfigError(
                f"r0 must lie inside ({self.r_min}, {self.r_max}), got {self.r0}"
            )
        if not 0.0 < self.sigma < 1.0:
            raise ConfigError(f"sigma must lie in (0, 1), got {self.sigma}")
        if self.eps < 1e-14:   # the Newton residual cannot reach a smaller one
            raise ConfigError(f"eps must be positive and at least 1e-14, got {self.eps}")
        if self.duration <= 0.0:
            raise ConfigError("duration must be positive")
        if self.snapshots < 0:
            raise ConfigError(f"snapshots must be non-negative, got {self.snapshots}")
        if self.min_cells < 8:
            raise ConfigError(f"min_cells must be at least 8, got {self.min_cells}")
        return self


_BOOLS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _coerce(name: str, kind, raw: str, line: int | None):
    """Value of one key from its text, typed by the RunConfig annotation."""
    raw = raw.strip()
    try:
        if kind is bool:
            return _BOOLS[raw.lower()]
        return kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse {name} = {raw!r} as {kind.__name__}", line=line)


def config_from_dict(values: dict, lines: dict | None = None) -> RunConfig:
    """Validated RunConfig from key -> text pairs over the defaults;
    `lines` maps keys to their line numbers for error messages."""
    known = typing.get_type_hints(RunConfig)
    lines = lines or {}
    cfg = RunConfig()
    for name, raw in values.items():
        if name not in known:
            raise ConfigError(f"unknown key {name!r}", line=lines.get(name))
        setattr(cfg, name, _coerce(name, known[name], raw, lines.get(name)))
    return cfg.validate()


def read_config(path: str) -> tuple[dict, dict]:
    """(key -> text, key -> line number) from a key = value file.  A file
    that cannot be read as UTF-8 text is a ConfigError naming its path."""
    values: dict = {}
    lines: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 ({exc.reason})"
        raise ConfigError(f"cannot read config file {path}: {reason}") from None
    for lineno, raw in enumerate(rows, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"expected key = value, got {text!r}", line=lineno)
        key, _, val = text.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        values[key] = val.strip()
        lines[key] = lineno
    return values, lines
