"""Experiment presets and the sweep runner with CSV/manifest export.

A scenario is a named list of sweep points; each point is a full simulation
config plus a label. The built-in presets mirror the three headline
experiments: ``fig3`` compares sliced against fixed-grid channelization,
``fig4`` sweeps population size over the four barring policies on the classic
54-channel pool with a growing URLLC reservation, ``fig5`` runs perfect
prediction with slicing while URLLC traffic scales up.

Coupling rules used by the presets:
  fig4/fig3: k_u = k_m / 40    fig5: k_u = k_m / 400
  fig4 reservation ramp: l_u = 4 .. 34, linear in k_m over [1000, 30000]
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Iterator

from . import __version__
from .config import config_hash, config_to_dict
from .engine import (
    METRIC_COLUMNS,
    MonteCarloResult,
    SimulationConfig,
    nanmean_quiet,
    run_points,
)
from .metrics import mean_and_stderr


@dataclass(frozen=True)
class ScenarioPoint:
    label: str
    cfg: SimulationConfig


@dataclass(frozen=True)
class Scenario:
    name: str
    points: tuple[ScenarioPoint, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("scenario sweep must be non-empty")


def _override(cfg: SimulationConfig, *, traffic=None, **sim_fields) -> SimulationConfig:
    if traffic:
        sim_fields["traffic"] = dataclasses.replace(cfg.traffic, **traffic)
    return dataclasses.replace(cfg, **sim_fields)


def urllc_reservation_ramp(k_m: int) -> int:
    """Reserved URLLC channels, 4 .. 34, as the population grows from 1000 to 30000."""
    t = min(max((k_m - 1000) / 29000.0, 0.0), 1.0)
    return 4 + round(t * 30)


def preset_fig3(base: SimulationConfig) -> Scenario:
    """Channel loading and collisions, sliced grid vs fixed 16-RB channels."""
    points = []
    for k_m in (250, 500, 1000):
        traffic = {"k_m": k_m, "k_u": max(1, round(k_m / 40))}
        for slicer, tag in (("maxrect", "rs"), ("fixed:5", "fixed")):
            points.append(
                ScenarioPoint(
                    f"{tag}_km{k_m}",
                    _override(
                        base, traffic=traffic, slicer=slicer,
                        predictor="perfect", acb="gf",
                    ),
                )
            )
    return Scenario("fig3", tuple(points))


def preset_fig4(base: SimulationConfig) -> Scenario:
    """Barring-policy sweep over population size on the 54-channel pool."""
    policies = ("gf", "static:0.4", "opt-inv", "opt-lit")
    points = []
    for k_m in (1000, 2000, 4000, 7000, 10000, 20000, 30000):
        l_u = urllc_reservation_ramp(k_m)
        traffic = {"k_m": k_m, "k_u": max(1, round(k_m / 40))}
        for pol in policies:
            points.append(
                ScenarioPoint(
                    f"{pol.replace(':', '')}_km{k_m}",
                    _override(
                        base, traffic=traffic, acb=pol,
                        slicer=f"counts:{l_u},{54 - l_u}", predictor="perfect",
                    ),
                )
            )
    return Scenario("fig4", tuple(points))


def preset_fig5(base: SimulationConfig) -> Scenario:
    """Perfect prediction + slicing + inverse barring, URLLC share growing.

    The sweep extends past the point where the URLLC reservation swallows the
    whole grid (around k_u = 250 with these packet sizes), which is where the
    mMTC service collapse shows.
    """
    points = []
    for k_m in (2000, 10000, 30000, 60000, 120000):
        traffic = {"k_m": k_m, "k_u": max(1, round(k_m / 400))}
        points.append(
            ScenarioPoint(
                f"full_km{k_m}",
                _override(
                    base, traffic=traffic, acb="opt-inv",
                    slicer="maxrect", predictor="perfect",
                ),
            )
        )
    return Scenario("fig5", tuple(points))


PRESETS = {"fig3": preset_fig3, "fig4": preset_fig4, "fig5": preset_fig5}


def _fmt(value: float) -> str:
    """A Python float as CSV text: integral values without a fraction, others by repr."""
    if value != value:  # NaN
        return "nan"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _fmt_column(values: list[float]) -> Iterator[str]:
    """_fmt of each value, formatting each distinct value once.

    Values that compare equal format alike (0.0 and -0.0 both give "0"), and
    each NaN object finds itself in the memo by identity.
    """
    text = {value: _fmt(value) for value in set(values)}
    return map(text.__getitem__, values)


def write_point_csv(path: str, result: MonteCarloResult):
    """Per-frame means across realizations, one row per frame."""
    columns = [_fmt_column(mean) for mean in nanmean_quiet(result.metrics, axis=1).tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("frame," + ",".join(METRIC_COLUMNS) + "\n")
        fh.writelines(f"{t},{','.join(row)}\n" for t, row in enumerate(zip(*columns)))


def steady_point_summary(result: MonteCarloResult) -> dict[str, tuple[float, float]]:
    """Steady-window scalar per realization, then mean +/- stderr across them."""
    per_real = nanmean_quiet(result.metrics[:, :, result.cfg.steady_start :], axis=2)
    return dict(zip(METRIC_COLUMNS, map(mean_and_stderr, per_real)))


def run_scenario(scenario: Scenario, out_dir: str, workers: int = 1) -> dict:
    """Execute every sweep point, write CSVs, a summary table and a manifest.

    engine.run_points runs the points, with workers > 1 in one process pool.
    It reads and checks their model files first, so a bad model leaves no
    out_dir behind. Points are written in order, so a point that fails stops
    the sweep with the earlier points written.
    """
    points = scenario.points
    results = run_points([p.cfg for p in points], workers)
    os.makedirs(out_dir, exist_ok=True)
    summary_rows = []
    outputs = []
    point_meta = []
    for point, result in zip(points, results, strict=True):
        csv_name = f"{point.label}.csv"
        write_point_csv(os.path.join(out_dir, csv_name), result)
        outputs.append(csv_name)
        summary_rows.append((point.label, steady_point_summary(result)))
        config = config_to_dict(point.cfg)
        point_meta.append(
            {
                "label": point.label,
                "seed": point.cfg.seed,
                "config_hash": config_hash(config),
                "config": config,
            }
        )

    summary_name = "summary.csv"
    with open(os.path.join(out_dir, summary_name), "w", newline="") as fh:
        header = ["label"]
        for name in METRIC_COLUMNS:
            header += [f"{name}_mean", f"{name}_stderr"]
        fh.write(",".join(header) + "\n")
        for label, stats in summary_rows:
            row = [label]
            for name in METRIC_COLUMNS:
                mean, err = stats[name]
                row += [_fmt(mean), _fmt(err)]
            fh.write(",".join(row) + "\n")
    outputs.append(summary_name)

    manifest = {
        "scenario": scenario.name,
        "version": __version__,
        "outputs": outputs,
        "points": point_meta,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return manifest
