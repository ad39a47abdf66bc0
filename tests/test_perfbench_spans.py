"""The rasim names perfbench reads must exist: a missing one breaks a benchmark
run, or, for a name the tracer binds, silently makes its layer read 0."""

import ast
import dataclasses
import importlib
import importlib.util
import types
import typing
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"

# read off instances, out of reach of the scan below; a dataclass field
# resolves to its declared type, so a chain follows the fields it reads
BY_HAND = {
    "rasim.engine.MonteCarloResult.stacks",
    "rasim.predictor.LstmPredictor.model_u",
    "rasim.predictor.LstmPredictor.model_m",
    "rasim.scenarios.Scenario.points",
    "rasim.scenarios.ScenarioPoint.label",
    "rasim.scenarios.ScenarioPoint.cfg",
    "rasim.engine.SimulationConfig.t_w",
    "rasim.engine.SimulationConfig.traffic.k_u",
    "rasim.engine.SimulationConfig.traffic.k_m",
    "rasim.engine.SimulationConfig.realizations",
    "rasim.engine.SimulationConfig.frames",
    "rasim.engine.SimulationConfig.seed",  # set through dataclasses.replace
}

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


def _lookup(obj, name):
    """obj.name, importing it first when obj is a package and name one of its
    modules; the declared type when obj is a dataclass and name its field."""
    if dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}:
        return typing.get_type_hints(obj)[name]
    if isinstance(obj, types.ModuleType) and not hasattr(obj, name):
        try:
            importlib.import_module(f"{obj.__name__}.{name}")
        except ModuleNotFoundError:
            pass
    return getattr(obj, name)


def rasim_names_read(source: str) -> set[str]:
    """The dotted name of every rasim object a perfbench source reads.

    Those are the names of each ``import rasim...`` and ``from rasim...
    import``, and each attribute chain read off a name bound to a rasim
    object, such as ``engine.run_monte_carlo`` or ``rasim.cli.main``.
    """
    tree = ast.parse(source)
    bound, names = {}, set()  # local name -> the dotted rasim name bound to it
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "rasim":
                    names.add(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:  # `import rasim.cli` binds rasim itself
                        bound["rasim"] = "rasim"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rasim":
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        path = []
        while isinstance(node, ast.Attribute):
            path.insert(0, node.attr)
            node = node.value
        if path and isinstance(node, ast.Name) and node.id in bound:
            names.add(".".join([bound[node.id], *path]))
    return names


def test_every_rasim_name_perfbench_reads_exists():
    found = set()
    for source in sorted(PERFBENCH.glob("*.py")):
        found |= rasim_names_read(source.read_text())
    # the scan sees both import forms and attribute reads
    assert {"rasim.engine.run_monte_carlo", "rasim.scenarios.write_point_csv",
            "rasim.predictor.load_predictor", "rasim.cli.main"} <= found
    missing = []
    for name in sorted(found | BY_HAND):
        head, *path = name.split(".")
        obj = importlib.import_module(head)
        try:
            for part in path:
                obj = _lookup(obj, part)
        except AttributeError:
            missing.append(name)
    assert not missing
