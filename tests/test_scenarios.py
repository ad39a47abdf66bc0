import json
import math
import multiprocessing

import numpy as np
import pytest

from conftest import make_config

from rasim.cli import main
from rasim.engine import METRIC_COLUMNS, MonteCarloResult, SimulationConfig
from rasim.scenarios import (
    PRESETS,
    Scenario,
    ScenarioPoint,
    _fmt,
    preset_fig3,
    preset_fig4,
    preset_fig5,
    run_scenario,
    urllc_reservation_ramp,
    write_point_csv,
)


class TestReservationRamp:
    def test_endpoints(self):
        assert urllc_reservation_ramp(1000) == 4
        assert urllc_reservation_ramp(30000) == 34

    def test_monotone_and_clamped(self):
        values = [urllc_reservation_ramp(k) for k in range(500, 40001, 500)]
        assert values == sorted(values)
        assert min(values) == 4 and max(values) == 34


class TestPresets:
    def test_fig3_compares_slicers(self):
        sc = preset_fig3(SimulationConfig())
        slicers = {p.cfg.slicer.label for p in sc.points}
        assert slicers == {"maxrect", "fixed:5"}
        assert all(p.cfg.acb.kind == "gf" for p in sc.points)
        assert all(p.cfg.predictor.kind == "perfect" for p in sc.points)
        assert len(sc.points) == 6

    def test_fig4_policy_and_pool(self):
        sc = preset_fig4(SimulationConfig())
        assert len(sc.points) == 28
        kinds = {p.cfg.acb.label for p in sc.points}
        assert kinds == {"gf", "static:0.4", "opt-inv", "opt-lit"}
        for p in sc.points:
            assert p.cfg.slicer.kind == "counts"
            l_u, l_m = p.cfg.slicer.counts
            assert l_u + l_m == 54
            assert 4 <= l_u <= 34
            # population coupling: one URLLC device per 40 mMTC devices
            assert p.cfg.traffic.k_u == max(1, round(p.cfg.traffic.k_m / 40))

    def test_fig5_full_scheme(self):
        sc = preset_fig5(SimulationConfig())
        for p in sc.points:
            assert p.cfg.slicer.label == "maxrect"
            assert p.cfg.predictor.kind == "perfect"
            assert p.cfg.acb.kind == "opt-inv"
            assert p.cfg.traffic.k_u == max(1, round(p.cfg.traffic.k_m / 400))
        # the sweep crosses the URLLC-domination knee (k_u well past 250)
        assert max(p.cfg.traffic.k_u for p in sc.points) >= 250

    def test_preset_registry(self):
        assert set(PRESETS) == {"fig3", "fig4", "fig5"}


class TestScenarioValidation:
    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            Scenario("empty", ())

    def test_point_holds_config(self):
        cfg = make_config(frames=5)
        point = ScenarioPoint("p", cfg)
        assert point.cfg.frames == 5


class TestSettingsParsedOnce:
    def test_a_sweep_parses_no_setting(self, tmp_path, monkeypatch):
        # acb, predictor and slicer are parsed when a config is built; running
        # and exporting a sweep of built configs reads their typed fields
        import sys

        import rasim.acb
        import rasim.engine

        scenario = Scenario("s", preset_fig3(make_config(frames=5)).points + (
            ScenarioPoint("naive", make_config(frames=5, predictor="naive", acb="opt-lit")),
        ))
        parsers = (rasim.acb.parse_policy, rasim.engine.parse_predictor, rasim.engine.parse_slicer)

        def refuse(text):
            raise AssertionError(f"setting {text!r} parsed again")

        for name, module in list(sys.modules.items()):
            if name == "rasim" or name.startswith("rasim."):
                for attr, value in list(vars(module).items()):
                    if any(value is parse for parse in parsers):
                        monkeypatch.setattr(module, attr, refuse)
        settings = tuple((name, kind, refuse) for name, kind, _ in rasim.engine._SETTINGS)
        monkeypatch.setattr(rasim.engine, "_SETTINGS", settings)
        manifest = run_scenario(scenario, str(tmp_path))
        assert len(manifest["points"]) == 7


class TestRuntimeFailureExitCode:
    def test_unwritable_output_maps_to_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frames": 2, "slicer": "counts:1,2"}))
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(blocker / "sub")]
        )
        assert code == 2
        assert "runtime failure" in capsys.readouterr().err


class TestSweepFailure:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_point_stops_sweep_after_earlier_points(self, tmp_path, monkeypatch, workers):
        # points are written in order, also when one pool runs them all
        import rasim.engine

        orig = rasim.engine.update_backlog

        def failing(active_m, active_u, arrivals_m, arrivals_u, failed_m, failed_u, cfg):
            if cfg.k_m == 300:
                raise ValueError("injected invariant failure")
            return orig(active_m, active_u, arrivals_m, arrivals_u, failed_m, failed_u, cfg)

        monkeypatch.setattr(rasim.engine, "update_backlog", failing)
        points = tuple(
            ScenarioPoint(f"p{k}", make_config(
                traffic__k_m=k, frames=5, realizations=2, slicer="counts:2,5"))
            for k in (200, 300, 400)
        )
        with pytest.raises(ValueError, match="injected"):
            run_scenario(Scenario("s", points), str(tmp_path / "out"), workers=workers)
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["p200.csv"]
        assert multiprocessing.active_children() == []


class TestPointCsv:
    def test_each_value_reads_as_its_own_format(self, tmp_path):
        # each distinct value is formatted once; every cell must still read as _fmt of its value
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e15, 0.5, 1 / 3]
        column = np.array(special * 5)
        stacks = {name: np.roll(column, i)[None, :] for i, name in enumerate(METRIC_COLUMNS)}
        result = MonteCarloResult(stacks, SimulationConfig(frames=column.size))
        path = tmp_path / "point.csv"
        write_point_csv(str(path), result)
        cells = [result.mean(name).tolist() for name in METRIC_COLUMNS]
        expect = ["frame," + ",".join(METRIC_COLUMNS)]
        expect += [f"{t}," + ",".join(_fmt(v) for v in row) for t, row in enumerate(zip(*cells))]
        assert path.read_text() == "\n".join(expect) + "\n"
        assert {_fmt(v) for v in special} <= set(path.read_text().replace("\n", ",").split(","))
