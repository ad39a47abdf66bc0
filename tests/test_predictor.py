import numpy as np
import pytest

from conftest import make_config

from rasim.engine import PointConstants, run_frame
from rasim.lstm import LstmModel, _forward_batch, init_lstm, lstm_forward
from rasim.predictor import (
    FrameResult,
    LstmPredictor,
    PredictionResult,
    estimate_from_idle,
    load_predictor,
    naive_predict,
    predict_backlogs,
    save_predictor,
    state_fractions,
    training_pairs,
)


def row(u=(1, 2, 2), m=(10, 5, 34)):
    """A frame's FrameResult, whose channels of each class ended (success, collision, idle)."""
    return FrameResult(0, 0, 0, 0, 0, 0, sum(u), sum(m), u[0], m[0], u[1], m[1])


def table(*lanes):
    """A (lanes, frames, fields) table of FrameResult rows, one sequence of rows per lane."""
    return np.array(lanes, np.int64)


class TestHistory:
    def test_normalized_window(self):
        win_u, win_m = state_fractions(table([row(u=(1, 1, 2), m=(0, 0, 0))]))[0]
        assert win_u.tolist() == [[0.25, 0.25, 0.5]]
        assert win_m.tolist() == [[0.0, 0.0, 0.0]]  # zero-channel frame


class TestPerfect:
    @staticmethod
    def _predict(active_u, active_m):
        """The estimate run_frame makes for a lane whose active UEs all failed and retry.

        Frame 0 of this config has no arrivals: the profile is 0 at phase 0
        and no mMTC UE activates, so the backlog is the retrying UEs.
        """
        cfg = make_config(predictor="perfect", traffic__p_act=0.0, traffic__k_m_periodic=0)
        lane = [active_u, active_m, active_u, active_m]
        row = run_frame(lane, 0, None, PointConstants.of(cfg), np.random.default_rng(1))
        fr = FrameResult(*row)
        assert (fr.active_u, fr.active_m) == (active_u, active_m)
        return fr.k_hat_u, fr.k_hat_m

    def test_identity(self):
        pred = self._predict(2 + 3, 100 + 20)
        assert pred == (5, 120)
        assert sum(pred) == 125

    def test_zeros(self):
        assert self._predict(0, 0) == (0, 0)


class TestNaive:
    def test_all_idle_means_nobody(self):
        assert estimate_from_idle(54, 54, 1000) == 0

    def test_idle_fraction_inversion_recovers_user_count(self):
        # by construction: the expected idle count of 54 users on 54 channels,
        # 54 (1 - 1/54)^54, not an integer, inverts to 54 users
        frac = (1 - 1 / 54) ** 54
        assert estimate_from_idle(54 * frac, 54, 1000) == 54
        # integer-count path: 20 of 54 idle -> 53 users (frozen from the formula)
        assert estimate_from_idle(20, 54, 1000) == 53

    def test_zero_idle_maps_to_population_cap(self):
        assert estimate_from_idle(0, 54, 777) == 777

    def test_naive_predict_per_class(self):
        last = row(u=(0, 0, 5), m=(0, 54, 0))
        pred = naive_predict(last, 25, 1000, PredictionResult(2, 7))
        assert pred.k_hat_u == 0
        assert pred.k_hat_m == 1000  # saturated: no idle channels

    def test_mode_without_channels_takes_prior(self):
        # an unobserved mode must not read as empty, or it never gets channels again
        last = row(u=(0, 0, 0), m=(0, 0, 0))
        assert naive_predict(last, 25, 1000, PredictionResult(2, 7)) == PredictionResult(2, 7)


class TestLstmPredictions:
    def _predictor(self, rng, b_out_u=0.5, b_out_m=0.5):
        zero = lambda b: LstmModel(
            w_x=np.zeros((8, 3)), w_h=np.zeros((8, 2)), b=np.zeros(8),
            w_out=np.zeros(2), b_out=b,
        )
        return LstmPredictor(zero(b_out_u), zero(b_out_m), 25, 1000, t_w=4)

    def test_clamped_above_population(self, rng):
        # raw head output 1.2 clamps to 1.0, so the estimate is the population
        pred = self._predictor(rng, b_out_u=1.2, b_out_m=1.2)
        (res,) = predict_backlogs(pred, table([row()]))
        assert (res.k_hat_u, res.k_hat_m) == (25, 1000)

    def test_rounding_and_scaling(self, rng):
        pred = self._predictor(rng, b_out_u=0.1, b_out_m=0.0301)
        (res,) = predict_backlogs(pred, table([row()]))
        assert res.k_hat_u == round(0.1 * 25)
        assert res.k_hat_m == round(0.0301 * 1000)

    def test_empty_history_rejected(self, rng):
        pred = self._predictor(rng)
        with pytest.raises(ValueError):
            predict_backlogs(pred, table([row()])[:, :0])

    def test_invariant_to_channel_count_scale(self, rng):
        # doubling every raw count leaves the normalized window, and hence the
        # prediction, unchanged
        pred = LstmPredictor(init_lstm(4, rng=rng), init_lstm(4, rng=rng), 25, 1000, t_w=4)
        h1 = [row(u=(1, 2, 3), m=(5, 6, 7)) for _ in range(4)]
        h2 = [row(u=(2, 4, 6), m=(10, 12, 14)) for _ in range(4)]
        assert predict_backlogs(pred, table(h1)) == predict_backlogs(pred, table(h2))

    def test_several_histories_in_one_pass(self, rng):
        model_u, model_m = init_lstm(4, rng=rng, scale=1.0), init_lstm(4, rng=rng, scale=1.0)
        model_u.b_out = model_m.b_out = 0.3
        pred = LstmPredictor(model_u, model_m, 25, 1000, t_w=4)
        lanes = [
            [row(u=tuple(rng.integers(0, 9, size=3).tolist()),
                 m=tuple(rng.integers(0, 30, size=3).tolist())) for _ in range(6)]
            for _ in range(5)
        ]
        window = table(*lanes)[:, 2:]  # the last 4 frames of every lane
        windows = state_fractions(window)
        alone = [window[i : i + 1] for i in range(5)]
        assert np.array_equal(windows, np.concatenate([state_fractions(w) for w in alone]))
        estimates = predict_backlogs(pred, window)
        assert estimates == [predict_backlogs(pred, w)[0] for w in alone]
        assert len(set(estimates)) > 1

    def test_one_copy_of_the_weights(self, rng):
        pred = LstmPredictor(init_lstm(4, rng=rng), init_lstm(4, rng=rng), 25, 1000, t_w=4)
        assert np.shares_memory(pred.model_u.w_x, pred.stack.w_x)
        assert np.shares_memory(pred.model_m.w_h, pred.stack.w_h)

    def test_bounds_hold_for_many_random_inputs(self, rng):
        # batched check over 10^5 random windows: output always in [0, 1]
        model = init_lstm(6, rng=rng, scale=2.5)
        x = rng.uniform(0, 1, size=(100_000, 10, 3))
        y, _ = _forward_batch(model, x)
        y = np.clip(y, 0.0, 1.0)
        k = np.rint(y * 1000)
        assert k.min() >= 0 and k.max() <= 1000
        # the batched path agrees with the scalar contract path
        for i in range(0, 100_000, 9973):
            assert lstm_forward(model, x[i]) == pytest.approx(
                float(np.clip((_forward_batch(model, x[i][None]))[0][0], 0, 1))
            )


class TestTrainingPairs:
    def test_window_precedes_target(self):
        # frame t holds 10 t active URLLC UEs (new + retry) and 100 t mMTC ones
        trace = np.array([
            row(u=(t, 0, 0), m=(0, 0, t))._replace(
                new_u=4 * t, retry_u=6 * t, new_m=30 * t, retry_m=70 * t)
            for t in range(7)
        ])
        x, y = training_pairs(trace, t_w=3, population_u=100, population_m=1000)
        assert x.shape[1] == 4  # targets at t = 3..6
        first_window, first_target = x[0, 0], y[0, 0]
        assert first_window.shape == (3, 3)
        assert first_target == pytest.approx(30 / 100)
        assert y.tolist() == [[t / 10 for t in range(3, 7)], [t / 10 for t in range(3, 7)]]
        # window rows correspond to frames 0..2 (success fraction t/t = 1 for t>0)
        assert first_window[0].tolist() == [0.0, 0.0, 0.0]

    def test_trace_without_a_full_window_rejected(self):
        for frames in (0, 2, 3):
            trace = np.array([row()] * frames, np.int64)
            with pytest.raises(ValueError, match="t_w=3"):
                training_pairs(trace, 3, 10, 10)


class TestSerialization:
    def test_roundtrip_and_byte_stability(self, tmp_path, rng):
        pred = LstmPredictor(
            init_lstm(5, rng=rng), init_lstm(5, rng=rng), 25, 1000, t_w=8
        )
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save_predictor(pred, p1)
        save_predictor(pred, p2)
        assert p1.read_bytes() == p2.read_bytes()

        loaded = load_predictor(p1)
        assert loaded.population_u == 25 and loaded.population_m == 1000
        assert loaded.t_w == 8
        window = table([row()])
        assert predict_backlogs(loaded, window) == predict_backlogs(pred, window)
        for (_, a), (_, b) in zip(pred.model_u.param_items(), loaded.model_u.param_items()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("rasim-lstm v1\n", 2),
            ("rasim-lstm v1\nt_w 10\n", 3),
            ("rasim-lstm v1\nt_w 10\nclass u population 25 hidden 2\narray w_x 8 3\n", 5),
            ("rasim-lstm v1\nt_w 10\nclass u population 25 hidden 2\narray w_h 8 2\n", 4),
            ("rasim-lstm v1\nt_w ten\n", 2),
            ("rasim-lstm v1\nt_w 10\nclass x population 25 hidden 2\n", 3),
        ],
    )
    def test_malformed_file_names_the_line(self, tmp_path, text, line):
        bad = tmp_path / "bad.model"
        bad.write_text(text)
        with pytest.raises(ValueError, match=f"{bad}, line {line}:"):
            load_predictor(bad)

    def test_rejects_wrong_version(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("some-other-format v9\n")
        with pytest.raises(ValueError):
            load_predictor(bad)
