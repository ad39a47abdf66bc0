import math

import numpy as np
import pytest
from scipy import stats

from rasim.acb import (
    AcbPolicy,
    acb_factors,
    collided_survivors,
    parse_policy,
)


def factor(policy, n):
    return acb_factors(policy, [n])[0]


class TestFactor:
    def test_literal_rule_pair(self):
        assert factor(AcbPolicy("opt-lit"), 2) == pytest.approx(0.5)

    @pytest.mark.parametrize("kind", ["gf", "opt-inv", "opt-lit"])
    def test_singleton_always_passes(self, kind):
        assert acb_factors(AcbPolicy(kind), [1, 0]).tolist() == [1.0, 1.0]

    def test_static_singleton_passes(self):
        pol = AcbPolicy("static", 0.2)
        assert acb_factors(pol, [1, 5, 0]).tolist() == [1.0, 0.2, 1.0]

    def test_inverse_rule(self):
        assert acb_factors(AcbPolicy("opt-inv"), [4, 2, 1]) == pytest.approx([0.25, 0.5, 1.0])

    @pytest.mark.parametrize("kind", ["gf", "static", "opt-inv", "opt-lit"])
    def test_per_channel_factors_follow_the_rule(self, kind, rng):
        policy = AcbPolicy(kind, 0.3) if kind == "static" else AcbPolicy(kind)
        counts = rng.integers(0, 9, size=300)
        factors = acb_factors(policy, counts)
        assert factors.shape == counts.shape
        loaded = counts >= 2
        k = counts[loaded].astype(float)
        rule = {"gf": np.ones_like(k), "static": np.full_like(k, 0.3),
                "opt-inv": 1.0 / k, "opt-lit": 1.0 - 1.0 / k}[kind]
        assert np.array_equal(factors[loaded], rule)
        assert np.all(factors[~loaded] == 1.0)

    def test_grant_free_always_one(self):
        assert factor(AcbPolicy("gf"), 50) == 1.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            acb_factors(AcbPolicy("gf"), [3, -1])

    def test_parse(self):
        assert parse_policy("static:0.4") == AcbPolicy("static", 0.4)
        assert AcbPolicy("static", 0.4).label == "static:0.4"
        with pytest.raises(ValueError, match="takes no factor"):
            AcbPolicy("opt-inv", 0.5)
        assert parse_policy("opt-inv").kind == "opt-inv"
        with pytest.raises(ValueError):
            parse_policy("bogus")
        with pytest.raises(ValueError):
            parse_policy("static:1.5")


class TestRound:
    def test_degenerate_probabilities(self, rng):
        loaded = np.array([5, 5, 2])
        assert collided_survivors(AcbPolicy("static", 1.0), loaded, rng).tolist() == [5, 5, 2]
        assert collided_survivors(AcbPolicy("static", 0.0), loaded, rng).tolist() == [0, 0, 0]

    def test_pass_one_consumes_no_randomness(self, rng):
        state = rng.bit_generator.state
        loaded = np.array([7, 2, 3])
        for policy in (AcbPolicy("gf"), AcbPolicy("static", 1.0)):
            assert collided_survivors(policy, loaded, rng) is loaded
            assert loaded.tolist() == [7, 2, 3]
        assert rng.bit_generator.state == state

    def test_single_survivor_frequency(self, rng):
        # binomial pmf oracle: P(exactly 1 of 10 at p=0.1) = 10 * 0.1 * 0.9^9
        trials = 100_000
        draws = collided_survivors(AcbPolicy("static", 0.1), np.full(trials, 10), rng)
        hits = np.count_nonzero(draws == 1)
        p = stats.binom.pmf(1, 10, 0.1)
        assert p == pytest.approx(10 * 0.1 * 0.9**9)
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) < 3 * se

    def test_survivors_bounded_and_mean(self, rng):
        for n, p in [(4, 0.3), (12, 0.8), (30, 0.05)]:
            draws = collided_survivors(AcbPolicy("static", p), np.full(4000, n), rng)
            assert draws.max() <= n and draws.min() >= 0
            se = math.sqrt(n * p * (1 - p) / 4000)
            assert abs(draws.mean() - n * p) < 3 * se

    @pytest.mark.parametrize("kind", ["static", "opt-inv", "opt-lit"])
    def test_one_draw_per_channel_at_its_factor(self, kind):
        # the same stream as drawing each channel at its acb_factors factor
        policy = AcbPolicy(kind, 0.4) if kind == "static" else AcbPolicy(kind)
        loaded = np.random.default_rng(1).integers(2, 40, size=60)
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        survivors = collided_survivors(policy, loaded, r1)
        assert survivors.tolist() == r2.binomial(loaded, acb_factors(policy, loaded)).tolist()
        assert r1.bit_generator.state == r2.bit_generator.state


class TestSingleSurvivorOptimality:
    def test_inverse_factor_maximizes_single_survivor_probability(self):
        # analytic: P(exactly one of n survives at pass p) = n p (1-p)^(n-1),
        # maximized over constant p by p = 1/n
        for n in range(2, 11):
            best_grid = max(
                n * p * (1 - p) ** (n - 1) for p in np.linspace(0.001, 1.0, 2000)
            )
            at_inverse = n * (1 / n) * (1 - 1 / n) ** (n - 1)
            assert at_inverse >= best_grid - 1e-6

    def test_inverse_beats_literal_for_three_plus(self):
        for n in range(3, 11):
            inv = n * (1 / n) * (1 - 1 / n) ** (n - 1)
            lit = n * (1 - 1 / n) * (1 / n) ** (n - 1)
            assert inv > lit
