import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rasim.traffic import (
    TrafficConfig,
    beta_activation_profile,
    expected_arrivals_per_frame,
    sample_mmtc_arrivals,
    sample_urllc_arrivals,
    update_backlog,
    urllc_activation_profile,
)


class TestActivationProfile:
    def test_zero_at_period_start_when_alpha_above_one(self):
        cfg = TrafficConfig(alpha=3, beta=4, t_u=10)
        assert beta_activation_profile(cfg, 0) == 0.0
        assert beta_activation_profile(cfg, 10) == 0.0  # periodic

    def test_peak_phase_value(self):
        # direct evaluation: 16 * 216 / (10^6 * B(3,4)), B(3,4) = 1/60
        cfg = TrafficConfig(alpha=3, beta=4, t_u=10)
        expected = 60 * 16 * 216 / 10**6
        assert beta_activation_profile(cfg, 4) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.20736)

    def test_uniform_case(self):
        cfg = TrafficConfig(alpha=1, beta=1, t_u=10)
        for t in range(10):
            assert beta_activation_profile(cfg, t) == pytest.approx(0.1)

    def test_rejects_bad_shape_parameters(self):
        with pytest.raises(ValueError):
            beta_activation_profile(TrafficConfig(alpha=0.0), 1)
        with pytest.raises(ValueError):
            beta_activation_profile(TrafficConfig(beta=-1.0), 1)
        with pytest.raises(ValueError):
            beta_activation_profile(TrafficConfig(), -1)

    def test_profile_is_periodic_and_bounded(self):
        # alpha = beta = 100: Gamma(a + b) alone would overflow a float
        for cfg in (TrafficConfig(alpha=2.5, beta=1.5, t_u=7), TrafficConfig(alpha=100, beta=100)):
            for t in range(30):
                v = beta_activation_profile(cfg, t)
                assert 0.0 <= v <= 1.0
                assert v == beta_activation_profile(cfg, t + cfg.t_u)


class TestArrivalSampling:
    def test_periodic_term_only(self, rng):
        cfg = TrafficConfig(k_m=1000, k_m_periodic=10, t_m=10, p_act=0.0)
        assert sample_mmtc_arrivals(cfg, 10, rng) == 10
        assert sample_mmtc_arrivals(cfg, 3, rng) == 0

    def test_mmtc_binomial_mean(self, rng):
        cfg = TrafficConfig(k_m=1000, k_m_periodic=10, p_act=0.01)
        trials = 4000
        draws = [sample_mmtc_arrivals(cfg, 3, rng) for _ in range(trials)]
        mean = 990 * 0.01
        sigma = math.sqrt(990 * 0.01 * 0.99 / trials)
        assert abs(np.mean(draws) - mean) < 3 * sigma

    def test_profile_table_draws_as_the_profile(self):
        cfg = TrafficConfig(k_u=40, alpha=2.0, beta=5.0, t_u=7)
        profile = urllc_activation_profile(cfg)
        assert profile == tuple(beta_activation_profile(cfg, t) for t in range(7))
        r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
        for t in range(30):
            expected = r2.binomial(cfg.k_u, beta_activation_profile(cfg, t))
            assert sample_urllc_arrivals(cfg, t, r1, profile) == expected
        assert r1.bit_generator.state == r2.bit_generator.state
        with pytest.raises(ValueError):
            sample_urllc_arrivals(cfg, -1, r1, profile)

    def test_urllc_zero_phase(self, rng):
        cfg = TrafficConfig(k_u=25, alpha=3, beta=4, t_u=10)
        assert sample_urllc_arrivals(cfg, 0, rng, urllc_activation_profile(cfg)) == 0

    def test_urllc_peak_mean(self, rng):
        cfg = TrafficConfig(k_u=25, alpha=3, beta=4, t_u=10)
        p = beta_activation_profile(cfg, 4)
        trials = 4000
        profile = urllc_activation_profile(cfg)
        draws = [sample_urllc_arrivals(cfg, 4, rng, profile) for _ in range(trials)]
        sigma = math.sqrt(25 * p * (1 - p) / trials)
        assert abs(np.mean(draws) - 25 * p) < 3 * sigma

    def test_urllc_period_total(self, rng):
        # mean arrivals summed over a period equal k_u * sum of the profile
        cfg = TrafficConfig(k_u=25, alpha=3, beta=4, t_u=10)
        profile_sum = sum(beta_activation_profile(cfg, t) for t in range(10))
        periods = 4000
        profile = urllc_activation_profile(cfg)
        total = sum(
            sample_urllc_arrivals(cfg, t, rng, profile) for _ in range(periods) for t in range(10)
        )
        expected = 25 * profile_sum
        var = sum(
            25 * beta_activation_profile(cfg, t) * (1 - beta_activation_profile(cfg, t))
            for t in range(10)
        )
        assert abs(total / periods - expected) < 3 * math.sqrt(var / periods)

    def test_empirical_rate_matches_profile_per_phase(self, rng):
        # every phase separately, three standard errors, >= 10^4 periods
        cfg = TrafficConfig(k_u=25, alpha=3, beta=4, t_u=10)
        periods = 10_000
        profile = urllc_activation_profile(cfg)
        means = np.zeros(10)
        for tau in range(10):
            means[tau] = np.mean(
                [sample_urllc_arrivals(cfg, tau, rng, profile) for _ in range(periods)]
            )
        for tau in range(10):
            p = beta_activation_profile(cfg, tau)
            se = math.sqrt(max(25 * p * (1 - p), 1e-12) / periods)
            assert abs(means[tau] - 25 * p) <= 3 * se + 1e-12

    def test_arrivals_never_exceed_population(self, rng):
        cfg = TrafficConfig(k_m=50, k_u=8, k_m_periodic=5, p_act=0.9, alpha=1, beta=1)
        profile = urllc_activation_profile(cfg)
        for t in range(50):
            assert sample_mmtc_arrivals(cfg, t, rng) <= cfg.k_m
            assert sample_urllc_arrivals(cfg, t, rng, profile) <= cfg.k_u


class TestBacklog:
    def test_retries_plus_arrivals(self):
        cfg = TrafficConfig()
        # 50 active mMTC UEs, 20 of them fail and retry next frame beside 5 arrivals
        new_m, new_u = update_backlog(50, 0, 5, 0, 20, 0, cfg)
        assert (new_m, new_u) == (5, 0)
        assert new_m + 20 == 25

    def test_empty(self):
        assert update_backlog(0, 0, 0, 0, 0, 0, TrafficConfig()) == (0, 0)

    def test_failed_exceeding_active_rejected(self):
        with pytest.raises(ValueError):
            update_backlog(3, 0, 0, 0, 4, 0, TrafficConfig())
        with pytest.raises(ValueError):
            update_backlog(0, 3, 0, 0, 0, 4, TrafficConfig())
        with pytest.raises(ValueError):
            update_backlog(3, 3, -1, 0, 0, 0, TrafficConfig())

    def test_overload_saturates_at_population(self, rng):
        # arrivals every frame, zero successes: active climbs monotonically to k_m
        cfg = TrafficConfig(k_m=200, k_m_periodic=0, p_act=0.2)
        active_m = active_u = 0
        prev = 0
        for t in range(300):
            arrivals = sample_mmtc_arrivals(cfg, t, rng)
            new_m, new_u = update_backlog(
                active_m, active_u, arrivals, 0, active_m, active_u, cfg
            )
            active_m, active_u = new_m + active_m, new_u + active_u
            assert active_m >= prev
            assert active_m <= cfg.k_m
            prev = active_m
        assert active_m == cfg.k_m

    @given(
        new_m=st.integers(0, 100),
        retry_m=st.integers(0, 100),
        failed=st.integers(0, 200),
        arrivals=st.integers(0, 300),
    )
    @settings(max_examples=200, deadline=None)
    def test_update_is_deterministic_and_capped(self, new_m, retry_m, failed, arrivals):
        cfg = TrafficConfig(k_m=150)
        active_m = new_m + retry_m
        if failed > active_m:
            with pytest.raises(ValueError):
                update_backlog(active_m, 0, arrivals, 0, failed, 0, cfg)
            return
        a = update_backlog(active_m, 0, arrivals, 0, failed, 0, cfg)
        b = update_backlog(active_m, 0, arrivals, 0, failed, 0, cfg)
        assert a == b
        next_new_m, next_new_u = a
        assert next_new_u == 0
        assert next_new_m + failed <= cfg.k_m
        assert next_new_m == min(arrivals, cfg.k_m - failed)


def test_expected_arrivals_prior():
    mean_u, mean_m = expected_arrivals_per_frame(TrafficConfig())
    # 990 * 0.005 + 10/10 periodic; URLLC: 25 * mean profile
    assert mean_m == pytest.approx(990 * 0.005 + 1.0)
    cfg = TrafficConfig()
    prof = sum(beta_activation_profile(cfg, t) for t in range(10)) / 10
    assert mean_u == pytest.approx(25 * prof)
