"""Configuration files: JSON with nesting, defaults for every field.

An empty file (or empty object) yields the stock parameter set: the 50x10
grid, 14 symbols per RB, 32/200-byte packets with modulation 4/256, overhead
5, populations 1000/25 with 10 periodic devices, and 1200 frames. Unknown or
invalid fields fail with the offending name.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from .engine import SimulationConfig
from .errors import ConfigError, read_text
from .slicing import GridConfig
from .traffic import TrafficConfig


def _build(section: str, cls, data):
    """cls(**data); any fault raises a ConfigError that names the section."""
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: must be an object, not {data!r}")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"{section}: unknown field(s) {sorted(unknown)}")
    try:
        return cls(**data)
    except ConfigError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def config_from_dict(data: dict) -> SimulationConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level of the config must be an object")
    data = dict(data)
    traffic = _build("traffic", TrafficConfig, data.pop("traffic", {}))
    grid = _build("grid", GridConfig, data.pop("grid", {}))
    return _build("simulation", SimulationConfig, {"traffic": traffic, "grid": grid, **data})


def load_config(path) -> SimulationConfig:
    """Parse a config file; whitespace-only files mean 'all defaults'.

    Every ConfigError names the file, then the section and field.
    """
    text = read_text(path)
    try:
        data = json.loads(text) if text.strip() else {}
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_to_dict(cfg: SimulationConfig) -> dict:
    """The config as a config file writes it, each setting as its canonical text."""
    out = dataclasses.asdict(cfg)
    for name in ("acb", "predictor", "slicer"):
        out[name] = getattr(cfg, name).label
    return out


def config_hash(config: dict) -> str:
    """Stable digest of a config_to_dict dict, the full parameter set, for run manifests."""
    canonical = json.dumps(config, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
