"""The four workloads: the rasim command lines of one timed round.

Every workload is a closed loop, one sweep at a time driven from a single
process. Its inputs are made from the workload seed alone: one config file
per command, and the seed passed again as ``--seed``. The program sees only
these files and arguments.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

WORKLOADS = ("congestion", "slicing", "lstm", "parallel")

# Point labels of each sweep, in the order rasim writes them: fig3 is
# 3 populations x (maxrect, fixed:5), fig4 is 7 populations x 4 barring
# policies, fig5 is 5 populations; a run without a preset is one point, "run".
PRESET_LABELS = {
    "fig3": tuple(f"{tag}_km{k}" for k in (250, 500, 1000) for tag in ("rs", "fixed")),
    "fig4": tuple(f"{pol}_km{k}" for k in (1000, 2000, 4000, 7000, 10000, 20000, 30000)
                  for pol in ("gf", "static0.4", "opt-inv", "opt-lit")),
    "fig5": tuple(f"full_km{k}" for k in (2000, 10000, 30000, 60000, 120000)),
    None: ("run",),
}

T_W = 10  # the config's default observation window

# Training size of the lstm workload; rasim trains on samples + t_w frames and
# validates on samples // 5 + t_w more frames.
TRAIN_SAMPLES = 400
TRAIN_EPOCHS = 30


@dataclass(frozen=True)
class Step:
    """One ``rasim.cli.main`` call of a round."""

    name: str
    argv: tuple[str, ...]
    rf: int = 0              # run_frame calls (realization-frames) it makes
    out: str | None = None   # output directory of a simulate step
    model: str | None = None  # model file of a train step
    config: str | None = None  # input config file of a simulate step
    preset: str | None = None  # its --preset, if any
    labels: tuple[str, ...] = ()  # sweep points a simulate step writes
    seed: int = 0            # what every point of a simulate step must run:
    realizations: int = 0    # its seed, realizations and frames
    frames: int = 0

    @property
    def points(self) -> int:
        return len(self.labels)


def _simulate(name, work, out, seed, realizations, frames, preset=None, workers=1):
    config = os.path.join(work, f"{name}.json")
    argv = ["simulate", "--config", config,
            "--seed", str(seed), "--out", os.path.join(out, name), "--workers", str(workers)]
    if preset:
        argv += ["--preset", preset]
    labels = PRESET_LABELS[preset]
    return Step(name, tuple(argv), len(labels) * realizations * frames,
                out=os.path.join(out, name), config=config, preset=preset, labels=labels,
                seed=seed, realizations=realizations, frames=frames)


def _configs(workload: str, seed: int, work: str) -> dict[str, dict]:
    """Config file contents of each step, by step name."""
    if workload == "congestion":
        return {"fig4": {"seed": seed, "realizations": 2, "frames": 400}}
    if workload == "slicing":
        return {"fig3": {"seed": seed, "realizations": 4, "frames": 300},
                "fig5": {"seed": seed, "realizations": 4, "frames": 300}}
    if workload == "lstm":
        return {"train": {"seed": seed},
                "lstm": {"seed": seed, "realizations": 4, "frames": 300,
                         "predictor": "lstm:" + os.path.join(work, "model.txt"),
                         "slicer": "maxrect"}}
    if workload == "parallel":
        return {"fig4": {"seed": seed, "realizations": 2, "frames": 300}}
    raise ValueError(f"unknown workload {workload!r}")


def plan_steps(workload: str, seed: int, work: str, out: str) -> list[Step]:
    """The steps of one round; writes nothing."""
    cfg = _configs(workload, seed, work)
    if workload in ("congestion", "parallel"):
        c = cfg["fig4"]
        workers = 2 if workload == "parallel" else 1
        return [_simulate("fig4", work, out, seed, c["realizations"], c["frames"],
                          "fig4", workers)]
    if workload == "slicing":
        return [_simulate(p, work, out, seed, cfg[p]["realizations"], cfg[p]["frames"], p)
                for p in ("fig3", "fig5")]
    model = os.path.join(work, "model.txt")
    trace_frames = (TRAIN_SAMPLES + T_W) + (TRAIN_SAMPLES // 5 + T_W)
    train = Step("train", ("train", "--config", os.path.join(work, "train.json"),
                           "--out", model, "--samples", str(TRAIN_SAMPLES),
                           "--epochs", str(TRAIN_EPOCHS)),
                 rf=trace_frames, model=model)
    c = cfg["lstm"]
    return [train, _simulate("lstm", work, out, seed, c["realizations"], c["frames"])]


def write_inputs(workload: str, seed: int, work: str):
    """Write the config files of a round into work, one per step."""
    for name, data in _configs(workload, seed, work).items():
        with open(os.path.join(work, f"{name}.json"), "w") as fh:
            json.dump(data, fh, sort_keys=True)
