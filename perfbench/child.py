"""One timed round in a fresh interpreter.

    python3 perfbench/child.py <spec.json> <CLOCK_MONOTONIC time at spawn>

Set-up runs from the spawn time until the inputs are written and rasim is
imported; the timed part is the ``rasim.cli.main`` calls of the workload.
CPU time and peak resident set cover this process and its reaped pool
workers. The result is written as JSON to the path named in the spec.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0  # ru_maxrss is in KiB


def _call(main, argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    t_spawn = float(sys.argv[2])

    import rasim.cli
    import workloads

    workloads.write_inputs(spec["workload"], spec["seed"], spec["work"])
    steps = workloads.plan_steps(spec["workload"], spec["seed"], spec["work"], spec["out"])
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(spec["trace_dir"]).install()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t_spawn

    cpu0, _ = _usage()
    t0 = time.perf_counter()
    codes = [_call(rasim.cli.main, step.argv) for step in steps]
    wall_s = time.perf_counter() - t0
    cpu1, peak_mb = _usage()

    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu1 - cpu0,
              "peak_rss_mb": peak_mb, "codes": codes}
    if tracer is not None:
        result["trace"] = tracer.collect()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
