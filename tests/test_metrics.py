import math

import numpy as np
import pytest

from rasim.acb import AcbPolicy
from rasim.engine import contend_uniform, run_monte_carlo, run_simulation
from rasim.metrics import (
    channel_loading,
    mean_and_stderr,
    normalized_throughput,
    predictor_mse,
)
from rasim.scenarios import steady_point_summary
from conftest import frame_rows, make_config


class TestThroughput:
    def test_all_channels_successful(self):
        assert normalized_throughput(5, 49, 5, 49) == 1.0

    def test_half(self):
        assert normalized_throughput(7, 20, 5, 49) == 0.5

    def test_no_channels_absent_sample(self):
        assert math.isnan(normalized_throughput(0, 0, 0, 0))
        # per frame: only the frame without channels is absent
        eta = normalized_throughput([5, 0, 7], [49, 0, 20], [5, 0, 5], [49, 0, 49])
        assert eta[0] == 1.0 and math.isnan(eta[1]) and eta[2] == 0.5

    def test_equals_recomputation_from_observation(self):
        cfg = make_config(frames=30, slicer="counts:3,20", seed=6)
        for fr in frame_rows(run_simulation(cfg)):
            direct = normalized_throughput(fr.served_u, fr.served_m, fr.l_u, fr.l_m)
            assert direct == (fr.served_u + fr.served_m) / (fr.l_u + fr.l_m)

    def test_one_frame_expectation_matches_binomial_occupancy(self, rng):
        # no-backlog single frame with all devices active: compare against the
        # closed-form occupancy expectation E[V_s] = K (1 - 1/L)^(K-1) per mode
        k_u, k_m, l_u, l_m = 25, 1000, 5, 49
        exp_u = k_u * (1 - 1 / l_u) ** (k_u - 1)
        exp_m = k_m * (1 - 1 / l_m) ** (k_m - 1)
        expected_eta = (exp_u + exp_m) / (l_u + l_m)
        trials = 10_000
        pol = AcbPolicy("gf")
        etas = np.empty(trials)
        for i in range(trials):
            su, _ = contend_uniform(k_u, l_u, pol, rng)
            sm, _ = contend_uniform(k_m, l_m, pol, rng)
            etas[i] = (su + sm) / (l_u + l_m)
        se = etas.std(ddof=1) / math.sqrt(trials)
        assert abs(etas.mean() - expected_eta) < 3 * se


class TestChannelLoading:
    def test_unit_loading(self):
        cl_u, cl_m = channel_loading(5, 0, 5, 4)
        assert cl_u == 1.0

    def test_two_users_per_channel(self):
        _, cl_m = channel_loading(0, 98, 0, 49)
        assert cl_m == 2.0

    def test_missing_mode_absent(self):
        cl_u, _ = channel_loading(3, 0, 0, 10)
        assert math.isnan(cl_u)

    def test_slicing_lowers_urllc_loading_under_load(self):
        # direction only, at the stock load level: the adaptive packer holds
        # the URLLC loading at ~1 user per channel while the fixed grid pins
        # 5 channels against a larger burst backlog; collisions follow suit
        cl, coll = {}, {}
        for slicer in ("maxrect", "fixed:5"):
            cfg = make_config(
                slicer=slicer, predictor="perfect", frames=200, realizations=5, seed=4
            )
            stats = steady_point_summary(run_monte_carlo(cfg))
            cl[slicer] = stats["cl_u"][0]
            coll[slicer] = stats["collisions_u"][0]
        assert cl["maxrect"] <= cl["fixed:5"]
        assert coll["maxrect"] < coll["fixed:5"]


class TestPredictorMse:
    def test_perfect_is_zero(self):
        assert predictor_mse([3, 5, 7], [3, 5, 7], 100) == 0.0

    def test_constant_zero_on_constant_backlog(self):
        assert predictor_mse([0, 0], [40, 40], 100) == pytest.approx((40 / 100) ** 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            predictor_mse([], [], 10)
        with pytest.raises(ValueError):
            predictor_mse([1], [1, 2], 10)


class TestAggregation:
    def test_order_invariant_mean(self):
        vals = [0.2, 0.4, 0.9, math.nan, 0.1]
        m1, s1 = mean_and_stderr(vals)
        m2, s2 = mean_and_stderr(vals[::-1])
        assert m1 == m2 and s1 == s2
        assert s1 >= 0

    def test_single_sample(self):
        m, s = mean_and_stderr([0.7])
        assert m == 0.7 and s == 0.0

    def test_all_nan(self):
        m, s = mean_and_stderr([math.nan])
        assert math.isnan(m)
