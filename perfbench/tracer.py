"""Span timers around rasim's public functions, installed from outside.

Each traced function records its inclusive time, the time of traced functions
it called (so self time is the difference) and its call count. A function is
wrapped once, and every name a rasim module binds to it is rebound to the
wrapper: rasim.engine imports its helpers by name (``from .traffic import
update_backlog``), so patching only the defining module would miss the calls
that matter.

Process pools: ``concurrent.futures.ProcessPoolExecutor`` is replaced by a
subclass that counts pools and times each from creation to shutdown. Forked
workers inherit the wrappers; a worker resets its counters on its first
traced call and rewrites them to ``<trace dir>/<pid>.json`` after each
top-level span, and ``collect`` merges those files. Under the spawn or
forkserver start methods workers would run untraced.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# span name -> functions it covers, as (module, attribute path)
SPANS = {
    "arrivals": (("rasim.traffic", "sample_mmtc_arrivals"),
                 ("rasim.traffic", "sample_urllc_arrivals"),
                 ("rasim.traffic", "update_backlog")),
    "predict": (("rasim.engine", "SimulationState.predict"),),
    "record": (("rasim.predictor", "record_observation"),),
    "forward": (("rasim.lstm", "lstm_forward"),),
    "train": (("rasim.lstm", "lstm_train"),),
    "trace": (("rasim.training", "generate_trace"),),
    "maxrect": (("rasim.slicing", "maxrect_slice"),),
    "plan": (("rasim.engine", "SimulationState.plan_for"),),
    "contend": (("rasim.engine", "contend_uniform"),),
    "frame": (("rasim.engine", "run_frame"),),
    "realization": (("rasim.engine", "realization_metrics"),),
    "simulation": (("rasim.engine", "run_simulation"),),
    "export": (("rasim.scenarios", "write_point_csv"),
               ("rasim.scenarios", "steady_point_summary")),
}


def rebind(orig, new):
    """Point every rasim module global bound to orig at new."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "rasim" or name.startswith("rasim.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def resolve(module: str, path: str):
    """(owner, attribute name, object) for 'func' or 'Class.method' in module."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.worker = False
        self._reset()
        self.pools: list[list[float]] = []  # [workers, seconds from creation to shutdown]
        self.missing: list[str] = []

    def _reset(self):
        self.total = defaultdict(float)
        self.inner = defaultdict(float)
        self.calls = defaultdict(int)
        self.stack: list[float] = []

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:  # first call in a forked pool worker
                tracer.pid, tracer.worker = os.getpid(), True
                tracer._reset()
            stack = tracer.stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                tracer.total[name] += dt
                tracer.inner[name] += inner
                tracer.calls[name] += 1
                if tracer.worker and not stack:
                    tracer._dump()

        return traced

    def _dump(self):
        path = os.path.join(self.worker_dir, f"{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"total": self.total, "inner": self.inner, "calls": self.calls}, fh)

    def install(self):
        for name, targets in SPANS.items():
            for module, path in targets:
                try:
                    owner, attr, fn = resolve(module, path)
                except (ImportError, AttributeError):  # the layer reads 0
                    self.missing.append(f"{module}.{path}")
                    continue
                wrapper = self._span(name, fn)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                else:
                    rebind(fn, wrapper)
        base = concurrent.futures.ProcessPoolExecutor
        pools = self.pools

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._trace_entry = [max_workers or os.cpu_count() or 1, 0.0]
                self._trace_t0 = perf_counter()
                pools.append(self._trace_entry)

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait, **kwargs)
                if not self._trace_entry[1]:
                    self._trace_entry[1] = perf_counter() - self._trace_t0

        concurrent.futures.ProcessPoolExecutor = TracedPool
        rebind(base, TracedPool)
        return self

    def collect(self) -> dict:
        """Counters of this process and of its pool workers, merged."""
        total, inner, calls = dict(self.total), dict(self.inner), dict(self.calls)
        worker_busy = 0.0
        for fname in sorted(os.listdir(self.worker_dir)):
            with open(os.path.join(self.worker_dir, fname)) as fh:
                data = json.load(fh)
            worker_busy += data["total"].get("realization", 0.0)
            for mine, theirs in ((total, data["total"]), (inner, data["inner"]),
                                 (calls, data["calls"])):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
        return {
            "total": total,
            "self": {k: total[k] - inner.get(k, 0.0) for k in total},
            "calls": calls,
            "pools": self.pools,
            "worker_busy": worker_busy,
            "missing": self.missing,
        }


def layer_metrics(trace: dict, rf: int, points: int) -> dict[str, float]:
    """Per-layer metrics of one traced round (values only; units in BENCHMARK.json)."""
    total, own, calls = trace["total"], trace["self"], trace["calls"]

    def us_per_rf(span, table=total):
        return table.get(span, 0.0) * 1e6 / rf

    def us_per_call(span):
        n = calls.get(span, 0)
        return total.get(span, 0.0) * 1e6 / n if n else 0.0

    pools = trace["pools"]
    overhead = 0.0
    if pools:
        # wall time of the pools beyond an even split of the workers' task time
        overhead = sum(p[1] for p in pools) - trace["worker_busy"] / pools[0][0]
    return {
        "traffic.arrivals_us_per_rf": us_per_rf("arrivals"),
        "predictor.predict_us_per_rf": us_per_rf("predict"),
        "predictor.record_us_per_rf": us_per_rf("record"),
        "lstm.forward_calls": calls.get("forward", 0),
        "lstm.forward_us_per_call": us_per_call("forward"),
        "lstm.train_s": total.get("train", 0.0),
        "training.trace_s": total.get("trace", 0.0),
        "slicing.maxrect_calls": calls.get("maxrect", 0),
        "slicing.maxrect_us_per_call": us_per_call("maxrect"),
        "slicing.plan_us_per_rf": us_per_rf("plan"),
        "engine.contend_us_per_rf": us_per_rf("contend"),
        "engine.frame_self_us_per_rf": us_per_rf("frame", own),
        "engine.reduce_us_per_rf": us_per_rf("realization", own),
        "engine.pools_started": len(pools),
        "engine.pool_overhead_s": overhead,
        "scenarios.export_ms_per_point": total.get("export", 0.0) * 1e3 / points if points else 0.0,
    }


# counts that must repeat exactly for a fixed seed
EXACT_COUNTS = ("lstm.forward_calls", "slicing.maxrect_calls", "engine.pools_started")
