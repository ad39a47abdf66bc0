"""Command-line entry point.

Subcommands: ``simulate`` runs a config or preset sweep and exports CSVs,
``train`` fits the backlog predictor and serializes it, ``slice`` prints a
packing for inspection, ``validate`` checks a config file. Exit codes:
0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

# rasim (and so numpy) loads before argparse: the other order peaks higher in RSS
from .config import ConfigError, config_hash, config_to_dict, load_config
from .predictor import save_predictor
from .scenarios import PRESETS, Scenario, ScenarioPoint, run_scenario
from .slicing import maxrect_slice, plan_dump_lines, render_plan_grid, validate_constraints
from .training import train_backlog_predictor

import argparse
import dataclasses
import os
import sys


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, as all bad input does, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rasim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a simulation sweep and export CSVs")
    sim.add_argument("--config", required=True)
    sim.add_argument("--preset", choices=sorted(PRESETS))
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out", default="out")
    sim.add_argument("--realizations", type=int)
    sim.add_argument("--frames", type=int)
    sim.add_argument("--workers", type=int, default=1)

    tr = sub.add_parser("train", help="train the backlog predictor")
    tr.add_argument("--config", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--samples", type=int, default=1000)
    tr.add_argument("--epochs", type=int, default=100)

    sl = sub.add_parser("slice", help="print a slicing plan and its grid")
    sl.add_argument("--config", required=True)
    sl.add_argument("--ku", type=int, default=5, help="URLLC channel demand")
    sl.add_argument("--km", type=int, default=49, help="mMTC channel demand")

    va = sub.add_parser("validate", help="check a config file")
    va.add_argument("--config", required=True)
    return parser


def _apply_overrides(cfg, args):
    names = ("seed", "realizations", "frames")
    fields = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    return dataclasses.replace(cfg, **fields)


def cmd_simulate(args) -> int:
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    cfg = _apply_overrides(load_config(args.config), args)
    if args.preset:
        scenario = PRESETS[args.preset](cfg)
    else:
        scenario = Scenario("run", (ScenarioPoint("run", cfg),))
    # checked before any work; run_scenario makes it once the model files are read
    existing = os.path.abspath(args.out)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing) or not os.access(existing, os.W_OK):
        raise ConfigError(f"--out {args.out}: {existing} is not a writable directory")
    manifest = run_scenario(scenario, args.out, workers=args.workers)
    print(f"wrote {len(manifest['outputs'])} file(s) to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    parent = os.path.dirname(args.out) or "."  # checked before any epoch starts
    if os.path.isdir(args.out) or not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise ConfigError(f"--out {args.out}: cannot write a file there")
    predictor, report = train_backlog_predictor(
        cfg, samples=args.samples, epochs=args.epochs
    )
    save_predictor(predictor, args.out)
    print(f"model written to {args.out}")
    print(f"train mse (normalized): urllc={report.train_mse_u:.3e} mmtc={report.train_mse_m:.3e}")
    print(f"val mse   (normalized): urllc={report.val_mse_u:.3e} mmtc={report.val_mse_m:.3e}")
    print(f"naive val mse          : urllc={report.naive_mse_u:.3e} mmtc={report.naive_mse_m:.3e}")
    return 0


def cmd_slice(args) -> int:
    cfg = load_config(args.config)
    if args.ku < 0 or args.km < 0:
        raise ConfigError("--ku and --km must be non-negative")
    plan = maxrect_slice(cfg.grid, args.ku, args.km)
    for line in plan_dump_lines(plan):
        print(line)
    print(render_plan_grid(plan))
    violations = validate_constraints(plan, cfg.grid)
    print(f"channels: urllc={plan.l_u} mmtc={plan.l_m} violations={len(violations)}")
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(f"ok (config hash {config_hash(config_to_dict(cfg))[:16]})")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "train": cmd_train,
        "slice": cmd_slice,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
