"""Run configuration for the command-line benchmarks.

A run is configured in three layers: per-command defaults, then a flat
``key = value`` file (``#`` starts a comment), then command-line flags; later
layers override earlier ones.  Every resolved field is echoed into the run
manifest.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace

from .errors import ConfigError
from .streams import _is_integer
from .weakderiv import GRADIENT_MODES

_ESTIMATORS = ("wd", "sf")


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one benchmark command (OU model family)."""

    command: str
    theta: float = 1.0
    sigma: float = 1.0
    x0: float = 0.0
    horizon: float = 1.0
    steps: int = 200
    paths: int = 100_000
    seed: int = 0
    replications: int = 50
    iterations: int = 50
    step_size: float = 0.5
    theta_min: float = 0.2
    theta_max: float = 3.0
    mode: str = "random-k"
    out: str = "."
    t_values: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0)
    n_values: tuple[int, ...] = (100, 1_000, 10_000, 100_000)
    estimators: tuple[str, ...] = ("wd", "sf")
    target: float = 3.0

    def validate(self) -> "RunConfig":
        for key in sorted(k for k, v in _DEFAULTS.items() if type(v) is int):
            if not _is_integer(getattr(self, key)):
                raise ConfigError(f"{key} must be an integer, not {getattr(self, key)!r}")
        for key in sorted(k for k, v in _DEFAULTS.items() if type(v) is float):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key.replace('_', '-')} must be finite")
        if self.paths < 2:
            raise ConfigError("paths must be at least 2")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must lie in [0, 2**64)")
        if self.steps < 1:
            raise ConfigError("steps must be positive")
        if self.horizon <= 0.0:
            raise ConfigError("horizon must be positive")
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
        if self.step_size < 0.0:
            raise ConfigError("step-size must be nonnegative")
        if not self.theta_min < self.theta_max:
            raise ConfigError("theta-min must lie below theta-max")
        if self.mode not in GRADIENT_MODES:
            raise ConfigError(f"mode must be one of {GRADIENT_MODES}, got {self.mode!r}")
        if not self.t_values or not all(0.0 < t < math.inf for t in self.t_values):
            raise ConfigError("t-values must be positive and finite")
        if not self.n_values or any(not _is_integer(n) or n < 2
                                    for n in self.n_values):
            raise ConfigError("n-values must be integers of at least 2")
        if (not self.estimators
                or any(e not in _ESTIMATORS for e in self.estimators)):
            raise ConfigError(f"estimators must be drawn from {_ESTIMATORS}")
        for key in ("t_values", "n_values", "estimators"):
            if len(set(getattr(self, key))) < len(getattr(self, key)):
                raise ConfigError(f"{key.replace('_', '-')} must not repeat an entry")
        return self

    def echo(self) -> dict:
        """All fields as plain strings, for the manifest."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            out[f.name] = str(value)
        return out


# defaults that differ by command; the estimate commands keep the dataclass
# defaults (the standard one-second, 200-step OU run)
_COMMAND_DEFAULTS = {
    "estimate-loss": {},
    "estimate-grad": {"paths": 20_000},
    "bench-convergence": {},
    "bench-variance": {
        # 0.02 grid spacing, the branch-sum estimator, and a shifted-target
        # terminal payoff: a setting where both variance claims are visible
        "steps": 50,
        "paths": 1_500,
        "replications": 6,
        "mode": "sum-over-k",
    },
    "optimize": {"paths": 2_000, "steps": 50},
}

# the keys a config file may set, with their defaults: a value parses by the
# type of its key's default, and a tuple's comma-separated entries by the type
# of its first entry, strings stripped
_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}


def _parse_value(key: str, raw: str):
    key = key.replace("-", "_")
    if key not in _DEFAULTS:
        raise ConfigError(f"unknown config key {key!r}")
    default = _DEFAULTS[key]
    kind = type(default[0] if isinstance(default, tuple) else default)
    parse = str.strip if kind is str else kind
    try:
        if isinstance(default, tuple):
            return key, tuple(parse(v) for v in raw.split(","))
        return key, parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc


def parse_config_file(path: str) -> dict:
    """Flat key = value lines; '#' comments; unknown and repeated keys are
    errors."""
    values, lines_of = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {text!r}")
        key, _, raw = text.partition("=")
        name, value = _parse_value(key.strip(), raw.strip())
        if name in values:
            raise ConfigError(f"{path}:{lineno}: {name!r} is set again (first on line "
                              f"{lines_of[name]})")
        values[name], lines_of[name] = value, lineno
    return values


def resolve_config(command: str, file_values: dict, flag_values: dict) -> RunConfig:
    """Layer defaults <- config file <- flags and validate the result."""
    config = RunConfig(command=command, **_COMMAND_DEFAULTS[command])
    merged = {**file_values, **{k: v for k, v in flag_values.items() if v is not None}}
    known = {f.name for f in fields(RunConfig)}
    for key in merged:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    return replace(config, **merged).validate()
