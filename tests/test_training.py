import dataclasses

import numpy as np
import pytest

from conftest import make_config

from rasim.predictor import FrameResult, predict_backlogs
from rasim.training import generate_trace, train_backlog_predictor


def low_traffic_config(**kw):
    return make_config(
        traffic__k_m=500,
        traffic__k_u=13,
        slicer="counts:5,49",
        predictor="perfect",
        frames=100,
        seed=3,
        **kw,
    )


class TestTraceGeneration:
    def test_lengths_and_alignment(self):
        trace = generate_trace(low_traffic_config(), frames=50, seed=1)
        assert trace.shape == (50, len(FrameResult._fields))
        assert trace.dtype == np.int64

    def test_trace_ignores_barring_and_predictor_settings(self):
        # traces are always grant-free with ground-truth demands, so the
        # configured policy must not change them
        from rasim.acb import AcbPolicy

        base = low_traffic_config()
        other = dataclasses.replace(base, acb=AcbPolicy("opt-inv"), predictor="naive")
        assert np.array_equal(generate_trace(base, frames=30, seed=5),
                              generate_trace(other, frames=30, seed=5))


class TestTrainBacklogPredictor:
    def test_report_and_sample_count(self):
        predictor, report = train_backlog_predictor(
            low_traffic_config(), samples=120, epochs=10
        )
        assert report.samples == 120
        assert report.epochs == 10
        for field in (
            "train_mse_u", "train_mse_m", "val_mse_u", "val_mse_m",
            "naive_mse_u", "naive_mse_m",
        ):
            value = getattr(report, field)
            assert value >= 0.0 and value == value  # finite, non-negative
        assert predictor.population_u == 13 and predictor.population_m == 500

    def test_all_idle_history_predicts_near_zero_backlog(self):
        # low mMTC traffic produces genuine all-idle windows with ~0 backlog,
        # so the trained model must map an all-idle history close to zero
        predictor, _ = train_backlog_predictor(
            low_traffic_config(), samples=250, epochs=40
        )
        # 5 URLLC and 49 mMTC channels, all idle
        rows = [FrameResult(0, 0, 0, 0, 0, 0, 5, 49, 0, 0, 0, 0)] * 10
        (res,) = predict_backlogs(predictor, np.array([rows]))
        assert res.k_hat_m <= 0.02 * 500

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            train_backlog_predictor(low_traffic_config(), samples=0, epochs=5)
        with pytest.raises(ValueError):
            train_backlog_predictor(low_traffic_config(), samples=10, epochs=0)

    def test_deterministic_given_config(self):
        a, _ = train_backlog_predictor(low_traffic_config(), samples=60, epochs=5)
        b, _ = train_backlog_predictor(low_traffic_config(), samples=60, epochs=5)
        for (_, x), (_, y) in zip(a.model_m.param_items(), b.model_m.param_items()):
            assert np.array_equal(x, y)
