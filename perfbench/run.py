"""rasim benchmark: timed rounds of one workload, then checks of their outputs.

    python3 perfbench/run.py --workload congestion|slicing|lstm|parallel \
        --seed N --seconds S --trace 0|1

Run it from the root of a rasim checkout (it imports rasim from ./src).
Rounds of the workload run back to back, each in a fresh interpreter
(perfbench/child.py), until S seconds have passed; every round repeats the
same inputs, so every round must write the same bytes. A check pass then
reruns each sweep point serially in this process and tests it (see
checks.py). An operation is one sweep point or one training call. A point
fails if its CSV is missing, differs from the first round's or fails a
check (see count_failures); the training call fails if it exits non-zero or
its model differs.

With --trace 0 the last line reports the end-to-end metrics, medians over
the rounds. With --trace 1 rounds alternate untraced and traced, and the
last line reports the per-layer metrics (medians over the traced rounds) and
the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from statistics import median  # noqa: E402

# One BLAS thread per process, so two pool workers do not oversubscribe two cores.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

ROUND_TIMEOUT_S = 60
LSTM_WINDOWS = 64  # sampled windows for the LSTM forward check


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def file_hashes(*paths) -> dict[str, str]:
    """sha256 of every file under the given directories or files, by path."""
    out = {}
    for path in paths:
        if os.path.isfile(path):
            files = [path]
        else:
            files = [os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs]
        for f in files:
            with open(f, "rb") as fh:
                out[f] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_round(args, index, traced, work, src):
    """Run one round in a fresh interpreter; returns its result and output hashes."""
    out = os.path.join(work, f"round-{index}")
    trace_dir = os.path.join(work, f"trace-{index}")
    os.makedirs(out)
    os.makedirs(trace_dir)
    spec = {"workload": args.workload, "seed": args.seed, "work": work, "out": out,
            "trace": traced, "trace_dir": trace_dir,
            "result": os.path.join(work, f"result-{index}.json")}
    spec_path = os.path.join(work, f"spec-{index}.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    log_path = os.path.join(work, f"round-{index}.log")
    with open(log_path, "w") as log:
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        # own process group, so that a hung round is killed with its pool workers
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path, repr(t_spawn)],
            env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            rc = proc.wait(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            rc = None
    result = None
    if rc == 0:
        with open(spec["result"]) as fh:
            result = json.load(fh)
    else:
        with open(log_path) as fh:
            sys.stderr.write(f"round {index} exited with {rc}:\n{fh.read()[-2000:]}\n")
    steps = workloads.plan_steps(args.workload, args.seed, work, out)
    outputs = [p for p in [out] + [s.model for s in steps if s.model] if os.path.exists(p)]
    # keys: paths under the round's directory, or the model file's name
    hashes = {os.path.relpath(k, out) if k.startswith(out + os.sep) else os.path.basename(k): v
              for k, v in file_hashes(*outputs).items()}
    return {"traced": traced, "result": result, "hashes": hashes, "out": out, "steps": steps}


def op_files(step, code) -> list[tuple[str, list[str]]]:
    """(operation label, output files it owns) for the operations of one step.

    A point owns its CSV. rasim writes the step's summary and manifest after
    the last point, so every point owns them too when the step exits 0.
    """
    if step.model:
        return [("train", [os.path.basename(step.model)])]
    shared = ([os.path.join(step.name, "summary.csv"), os.path.join(step.name, "manifest.json")]
              if code == 0 else [])
    return [(label, [os.path.join(step.name, f"{label}.csv")] + shared) for label in step.labels]


# --- check pass ----------------------------------------------------------


def sweep_points(step):
    """The points of a simulate step by label, built from its input config
    file and arguments as ``rasim simulate`` builds them."""
    from rasim import scenarios
    from rasim.config import load_config

    cfg = dataclasses.replace(load_config(step.config), seed=step.seed)
    if not step.preset:
        return {"run": cfg}
    return {p.label: dataclasses.replace(p.cfg, seed=step.seed)
            for p in scenarios.PRESETS[step.preset](cfg).points}


def check_simulate(step, problems):
    """Rerun every point of a simulate step serially and check it.

    The points' realizations and frames must be the inputs', the manifest
    must record the configs built from the inputs, and the checks take the
    frame count from the inputs; so a rasim that does less work than asked
    for fails them.
    """
    import checks
    import tracer
    from rasim import engine, scenarios, slicing
    from rasim.config import config_to_dict

    def mismatch(what, labels):
        extra, short = set(labels) - set(step.labels), set(step.labels) - set(labels)
        if extra or short or len(labels) != step.points:
            step_problems.append(f"{what} {len(labels)} points; extra {sorted(extra)}, "
                                 f"missing {sorted(short)}")

    step_problems = []
    built = sweep_points(step)
    mismatch("rasim sweeps", list(built))
    listed = None
    manifest = os.path.join(step.out, "manifest.json")
    if os.path.exists(manifest):
        with open(manifest) as fh:
            points = json.load(fh)["points"]
        listed = {p["label"]: p["config"] for p in points}
        mismatch("the manifest lists", [p["label"] for p in points])
    plans = []
    orig = slicing.maxrect_slice

    def collecting(cfg, k_u, k_m):
        plan = orig(cfg, k_u, k_m)
        plans.append(((k_u, k_m), plan))
        return plan

    tracer.rebind(orig, collecting)
    try:
        for label in step.labels:
            found = problems.setdefault((step.name, label), list(step_problems))
            csv_path = os.path.join(step.out, f"{label}.csv")
            if label not in built or not os.path.exists(csv_path):
                found.append("not in rasim's sweep" if label not in built else "no CSV")
                continue
            try:
                cfg = built[label]
                cfg_dict = json.loads(json.dumps(config_to_dict(cfg)))
                for field in ("realizations", "frames"):  # the seed is checked in the manifest
                    if getattr(cfg, field) != getattr(step, field):
                        found.append(f"point {field} {getattr(cfg, field)} != input "
                                     f"{getattr(step, field)}")
                if listed is not None and listed.get(label) != cfg_dict:
                    found.append("manifest config differs from the input config")
                plans.clear()
                result = engine.run_monte_carlo(cfg, workers=1)
                shape = (step.realizations, step.frames)
                wrong_shape = {name: stack.shape for name, stack in result.stacks.items()
                               if stack.shape != shape}
                if wrong_shape:
                    found.append(f"stacks {wrong_shape}, not {shape}")
                found += checks.csv_problems(csv_path, cfg_dict, step.frames)
                found += checks.residual_problems(result.stacks, cfg_dict["acb"])
                rerun = step.out + ".rerun.csv"
                scenarios.write_point_csv(rerun, result)
                with open(csv_path, "rb") as fh, open(rerun, "rb") as fh2:
                    if fh.read() != fh2.read():
                        found.append("CSV differs from a serial in-process rerun")
                seen = set()
                for demand, plan in plans:
                    if demand not in seen:
                        seen.add(demand)
                        found += [f"plan {demand}: {p}"
                                  for p in checks.plan_problems(plan, cfg_dict["grid"], *demand)]
            except Exception:  # any failure of the point is recorded, not fatal
                found.append(traceback.format_exc())
    finally:
        tracer.rebind(collecting, orig)


def check_train(step, seed, problems):
    """The model file: header against the config, forward pass against ours."""
    import numpy as np

    import checks
    from rasim.config import config_from_dict
    from rasim.lstm import lstm_forward
    from rasim.predictor import load_predictor

    found = problems.setdefault((step.name, "train"), [])
    try:
        cfg = config_from_dict({"seed": seed})
        t_w, models = checks.read_model(step.model)
        if t_w != cfg.t_w:
            found.append(f"model t_w {t_w} != config t_w {cfg.t_w}")
        for tag, pop in (("u", cfg.traffic.k_u), ("m", cfg.traffic.k_m)):
            if models[tag]["population"] != pop:
                found.append(f"class {tag} population {models[tag]['population']} != {pop}")
        loaded = load_predictor(step.model)
        rng = np.random.default_rng(seed)
        for window in checks.sample_windows(rng, LSTM_WINDOWS, t_w):
            for tag, model in (("u", loaded.model_u), ("m", loaded.model_m)):
                ours = checks.lstm_reference(models[tag], window)
                theirs = lstm_forward(model, window)
                if not abs(ours - theirs) <= 1e-9:
                    found.append(f"class {tag} forward {theirs!r} != reference {ours!r}")
    except Exception:
        found.append(traceback.format_exc())


def check_pass(seed, steps, src):
    """Problems of each operation, by (step name, operation label)."""
    sys.path.insert(0, src)
    problems: dict[tuple[str, str], list[str]] = {}
    for step in steps:
        try:
            if step.model:
                check_train(step, seed, problems)
            else:
                check_simulate(step, problems)
        except Exception:  # e.g. no manifest: its operations stay unchecked and fail
            print(f"perfbench: {step.name} not checked:\n{traceback.format_exc()}",
                  file=sys.stderr)
    return problems


# --- accounting ----------------------------------------------------------


def count_failures(rounds, problems):
    """(attempted, failed, wrong, notes) over all rounds.

    A point fails if its CSV is missing, differs from the first round's or
    fails a check; when its step exits 0, also if the step's summary or
    manifest is missing or differs. A step that exits non-zero with every
    point passing fails its last point. The training call fails on a
    non-zero exit or a model that differs. wrong counts the failed
    operations whose command exited 0.
    """
    ref = rounds[0]
    attempted = failed = wrong = 0
    notes = set()
    for rnd in rounds:
        codes = rnd["result"]["codes"] if rnd["result"] else [None] * len(rnd["steps"])
        for step, code in zip(rnd["steps"], codes):
            ops = op_files(step, code)
            step_failed = 0
            for i, (label, files) in enumerate(ops):
                attempted += 1
                why = None
                if step.model and code != 0:
                    why = f"exit code {code}"
                elif any(rnd["hashes"].get(f) is None or rnd["hashes"].get(f) != ref["hashes"].get(f)
                         for f in files):
                    why = "output missing or differs from the first round"
                elif problems.get((step.name, label)) != []:
                    why = "; ".join(problems.get((step.name, label), ["not checked"]))
                elif code != 0 and i == len(ops) - 1 and not step_failed:
                    why = f"exit code {code} after every point was written"
                if why:
                    failed += 1
                    step_failed += 1
                    wrong += code == 0
                    notes.add(f"{step.name}/{label}: {why}")
    return attempted, failed, wrong, sorted(notes)


def end_to_end(rounds):
    """End-to-end metric values, medians over the untraced rounds."""
    done = [r["result"] for r in rounds if r["result"] and not r["traced"]]
    if not done:
        return None
    rf = sum(s.rf for s in rounds[0]["steps"])
    values = {name: median([r[name] for r in done])
              for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    values["rf_per_s"] = rf / values["wall_s"]
    return values


def per_layer(rounds, notes):
    """Per-layer metric values (medians over traced rounds); appends global problems."""
    import tracer

    steps = rounds[0]["steps"]
    rf = sum(s.rf for s in steps)
    points = sum(s.points for s in steps)
    traced = [r["result"] for r in rounds if r["result"] and r["traced"]]
    plain = [r["result"] for r in rounds if r["result"] and not r["traced"]]
    if not traced or not plain:
        return None
    if traced[0]["trace"]["missing"]:
        print(f"perfbench: not traced, not found: {traced[0]['trace']['missing']}",
              file=sys.stderr)
    per_round = [tracer.layer_metrics(r["trace"], rf, points) for r in traced]
    for r in traced:
        frames = r["trace"]["calls"].get("frame", 0)
        if frames != rf and "rasim.engine.run_frame" not in r["trace"]["missing"]:
            notes.append(f"traced run_frame calls {frames} != {rf} realization-frames")
    for name in tracer.EXACT_COUNTS:
        if len({m[name] for m in per_round}) != 1:
            notes.append(f"{name} differs between traced rounds")
    values = {name: median([m[name] for m in per_round]) for name in per_round[0]}
    overhead = median([r["wall_s"] for r in traced]) / median([r["wall_s"] for r in plain]) - 1
    values["trace.overhead_pct"] = 100.0 * overhead
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rasim", "cli.py")):
        print("perfbench: no rasim sources under ./src; run it from the root of a "
              "rasim checkout", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        rounds = []
        start = time.monotonic()
        while True:
            rnd = run_round(args, len(rounds), bool(args.trace and len(rounds) % 2), work, src)
            if rounds:  # later rounds are compared by hash only
                shutil.rmtree(rnd["out"], ignore_errors=True)
            rounds.append(rnd)
            if rnd["result"]:
                r = rnd["result"]
                print(f"round {len(rounds) - 1}{' traced' if rnd['traced'] else ''}: "
                      f"wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
                      f"setup {r['setup_s']:.3f} s", file=sys.stderr)
            elapsed = time.monotonic() - start
            if elapsed >= args.seconds and (not args.trace or len(rounds) >= 2):
                break
        problems = check_pass(args.seed, rounds[0]["steps"], src)
        attempted, failed, wrong, op_notes = count_failures(rounds, problems)
        notes: list[str] = []
        values = per_layer(rounds, notes) if args.trace else end_to_end(rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in op_notes + notes:
        print(f"perfbench: {note}", file=sys.stderr)
    if values is None:
        print("perfbench: no round completed; nothing to report", file=sys.stderr)
        return 1
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, {failed} failed")
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": not wrong and not notes, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
