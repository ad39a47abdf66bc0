"""Steadiness of the benchmark: two separate sets of runs of each workload.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--first-seed 1] [--trace 0|1]

Run it from the root of a rasim checkout. Every run lasts run_seconds from
BENCHMARK.json and uses its own seed; all four workloads run, interleaved
within a set. For each workload, metric and set it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median;
for the second set also the drift of its median against the first set's,
counted positive when worse. Both are compared with the metric's bound in
BENCHMARK.json: a spread or drift above the bound is marked WIDE, and one
above a third of it is marked near. The spread of setup_s is printed but
not judged: the acceptance rule these bounds serve judges set-up time by
the drift of its median alone, since one interpreter start is short and
noisy. The share of failed operations must be the same in every set. The
last line of output is the whole table as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    names = workloads.WORKLOADS

    results = {w: [[] for _ in range(args.sets)] for w in names}
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in names:
                results[w][s].append(run_once(w, seed, seconds, args.trace))
                print(f"set {s} {w} seed {seed}: {results[w][s][-1]['metrics']}", file=sys.stderr)
            seed += 1

    table = {}
    for w in names:
        table[w] = {"failed_share": [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                                     for runs in results[w]],
                    "correct": all(r["correct"] for runs in results[w] for r in runs),
                    "metrics": {}}
        for name, m in spec.items():
            sets = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in results[w]]
            row = {"sets": sets}
            bound = m.get("bound")
            if bound is not None:
                sign = 1.0 if m["better"] == "lower" else -1.0
                drift = [sign * (st["median"] - sets[0]["median"]) / abs(sets[0]["median"])
                         for st in sets[1:]]
                row["drift"] = drift
                checked = [st["spread"] for st in sets if name != "setup_s"] + drift
                worst = max(checked, default=0.0)
                row["verdict"] = ("WIDE" if worst > bound else
                                  "near" if worst > bound / 3 else "ok")
            table[w]["metrics"][name] = row
            spreads = " ".join(f"{st['median']:.5g} [{st['q1']:.5g}, {st['q3']:.5g}] "
                               f"spread {st['spread']:.3f}" for st in sets)
            extra = (f" drift {','.join(f'{d:+.3f}' for d in row['drift'])}"
                     f" bound {bound} {row['verdict']}") if bound is not None else ""
            print(f"{w:11s} {name:30s} {spreads}{extra}")
        print(f"{w:11s} failed share per set {table[w]['failed_share']} "
              f"correct {table[w]['correct']}")
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
