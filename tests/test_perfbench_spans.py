"""The names perfbench's tracer binds must exist in rasim, or their layer silently reads 0."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# bound to functions that are gone: their layers read 0 until perfbench rebinds or drops them
STALE = {
    ("rasim.predictor", "record_observation"),
    ("rasim.engine", "SimulationState.predict"),
    ("rasim.engine", "SimulationState.plan_for"),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_span_resolves_in_rasim():
    tracer = load_tracer()
    missing = []
    for span, targets in tracer.SPANS.items():
        for module, path in targets:
            if (module, path) in STALE:
                continue
            try:
                _, _, fn = tracer.resolve(module, path)
            except (ImportError, AttributeError):
                missing.append(f"{span}: {module}.{path}")
                continue
            assert callable(fn), (span, module, path)
    assert not missing
