import math
import multiprocessing
import warnings

import numpy as np
import pytest

from conftest import make_config

from rasim.engine import METRIC_COLUMNS, MonteCarloResult, SimulationConfig, nanmean_quiet
from rasim.metrics import mean_and_stderr
from rasim.scenarios import (
    PRESETS,
    Scenario,
    ScenarioPoint,
    _fmt,
    preset_fig3,
    preset_fig4,
    preset_fig5,
    run_scenario,
    steady_point_summary,
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
        metrics = np.array([np.roll(column, i)[None, :] for i in range(len(METRIC_COLUMNS))])
        result = MonteCarloResult(metrics, SimulationConfig(frames=column.size))
        path = tmp_path / "point.csv"
        write_point_csv(str(path), result)
        cells = metrics[:, 0].tolist()  # one realization: each frame's mean is its value
        expect = ["frame," + ",".join(METRIC_COLUMNS)]
        expect += [f"{t}," + ",".join(_fmt(v) for v in row) for t, row in enumerate(zip(*cells))]
        assert path.read_text() == "\n".join(expect) + "\n"
        assert {_fmt(v) for v in special} <= set(path.read_text().replace("\n", ",").split(","))


def _bits(values) -> list[str]:
    """Each float exactly, as its hex form: -0.0 and 0.0 differ, every NaN reads 'nan'."""
    return [float(v).hex() for v in np.ravel(values)]


class TestOneCallReductions:
    """The frame means and the steady summary reduce every column in one call each.

    Each column must come out bit for bit as its own per-column reduction.
    """

    @pytest.mark.parametrize("realizations", [1, 2, 25])
    def test_equal_the_per_column_reductions(self, tmp_path, realizations):
        frames = 400
        rng = np.random.default_rng(realizations)
        metrics = rng.normal(0.0, 1e3, size=(len(METRIC_COLUMNS), realizations, frames))
        metrics[1] = np.nan  # an all-NaN column
        metrics[2][rng.random((realizations, frames)) < 0.3] = np.nan  # a partly-NaN column
        cfg = SimulationConfig(frames=frames, realizations=realizations, steady_fraction=0.3)
        result = MonteCarloResult(metrics, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN slices
            frame_means = [np.nanmean(column, axis=0) for column in metrics]
            steady = [
                mean_and_stderr(np.nanmean(column[:, cfg.steady_start :], axis=1))
                for column in metrics
            ]

        assert _bits(nanmean_quiet(metrics, axis=1)) == _bits(frame_means)
        path = tmp_path / "point.csv"
        write_point_csv(str(path), result)
        expect = ["frame," + ",".join(METRIC_COLUMNS)]
        expect += [
            f"{t}," + ",".join(_fmt(v) for v in row)
            for t, row in enumerate(zip(*(m.tolist() for m in frame_means)))
        ]
        assert path.read_text() == "\n".join(expect) + "\n"

        summary = steady_point_summary(result)
        assert list(summary) == list(METRIC_COLUMNS)
        assert _bits(list(summary.values())) == _bits(steady)
