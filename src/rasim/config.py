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

from .acb import AcbPolicy, parse_policy
from .engine import SimulationConfig
from .errors import ConfigError
from .slicing import GridConfig
from .traffic import TrafficConfig


def _build(section: str, cls, data: dict):
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{section}: unknown field(s) {sorted(unknown)}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def config_from_dict(data: dict) -> SimulationConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level of the config must be an object")
    data = dict(data)
    traffic = _build("traffic", TrafficConfig, data.pop("traffic", {}))
    grid = _build("grid", GridConfig, data.pop("grid", {}))
    acb = data.pop("acb", "gf")
    try:
        policy = acb if isinstance(acb, AcbPolicy) else parse_policy(acb)
    except ValueError as exc:
        raise ConfigError(f"acb: {exc}") from exc
    cfg = _build(
        "simulation",
        SimulationConfig,
        {"traffic": traffic, "grid": grid, "acb": policy, **data},
    )
    # re-run each validator so the error names its section
    for section, obj in (("traffic", traffic), ("grid", grid), ("simulation", cfg)):
        try:
            obj.validate()
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    return cfg


def load_config(path) -> SimulationConfig:
    """Parse a config file; whitespace-only files mean 'all defaults'."""
    with open(path) as fh:
        text = fh.read()
    if not text.strip():
        data = {}
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return config_from_dict(data)


def config_to_dict(cfg: SimulationConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["acb"] = cfg.acb.label
    return out


def config_hash(cfg: SimulationConfig) -> str:
    """Stable digest of the full parameter set, for run manifests."""
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
