import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from rasim.acb import (
    TABLE_CAP,
    AcbPolicy,
    _threshold_table,
    barred_outcomes,
    barring_factor,
    parse_policy,
)
from rasim.engine import contend_uniform

BARRING = [AcbPolicy("static", 0.4), AcbPolicy("opt-inv"), AcbPolicy("opt-lit")]


def assert_draws_only_the_tally(policy, n_ues, n_channels, seed=3):
    """contend_uniform under policy draws its selection tally and nothing more; returns the tally.

    A twin generator that made only the multinomial must end in the same state.
    """
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    served, collided = contend_uniform(n_ues, n_channels, policy, rng)
    tally = twin.multinomial(n_ues, np.full(n_channels, 1 / n_channels))
    assert rng.bit_generator.state == twin.bit_generator.state
    assert (served, collided) == (np.count_nonzero(tally == 1), np.count_nonzero(tally >= 2))
    return tally


def assert_singletons_pass_and_idles_stay(policy, exact=False):
    # same seed: the selection counts contend_uniform drew, before barring
    for seed in range(200):
        n = seed % 12
        counts = np.random.default_rng(seed).multinomial(n, np.full(6, 1 / 6))
        served, collided = contend_uniform(n, 6, policy, np.random.default_rng(seed))
        singles, idles = np.count_nonzero(counts == 1), np.count_nonzero(counts == 0)
        assert served >= singles  # no singleton is barred
        assert 6 - served - collided >= idles  # no idle channel is taken
        if exact:
            assert served == singles


class TestFactor:
    def test_literal_rule_pair(self):
        assert barring_factor(AcbPolicy("opt-lit"), 2) == pytest.approx(0.5)

    @pytest.mark.parametrize("kind", ["gf", "opt-inv", "opt-lit"])
    def test_singleton_always_passes(self, kind):
        assert_singletons_pass_and_idles_stay(AcbPolicy(kind))

    def test_static_singleton_passes(self):
        assert [barring_factor(AcbPolicy("static", 0.2), k) for k in (5, 2)] == [0.2, 0.2]
        # factor 0 empties every collided channel, and still serves each singleton
        assert_singletons_pass_and_idles_stay(AcbPolicy("static", 0.0), exact=True)

    def test_inverse_rule(self):
        factors = [barring_factor(AcbPolicy("opt-inv"), k) for k in (4, 2)]
        assert factors == pytest.approx([0.25, 0.5])

    @pytest.mark.parametrize("kind", ["gf", "static", "opt-inv", "opt-lit"])
    def test_per_channel_factors_follow_the_rule(self, kind, rng):
        policy = AcbPolicy(kind, 0.3) if kind == "static" else AcbPolicy(kind)
        loaded = rng.integers(2, 9, size=300)
        factors = [barring_factor(policy, k) for k in loaded.tolist()]
        assert len(factors) == loaded.size
        k = loaded.astype(float)
        rule = {"gf": np.ones_like(k), "static": np.full_like(k, 0.3),
                "opt-inv": 1.0 / k, "opt-lit": 1.0 - 1.0 / k}[kind]
        assert np.array_equal(factors, rule)

    def test_grant_free_always_one(self):
        assert barring_factor(AcbPolicy("gf"), 50) == 1.0

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            contend_uniform(-1, 4, AcbPolicy("gf"), rng)

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
        loaded = [5, 5, 2]
        assert barred_outcomes(AcbPolicy("static", 0.0), loaded, len(loaded), rng) == (0, 3)
        # static 1 bars nobody: 12 UEs on 4 channels collide somewhere, and draw only the tally
        assert np.count_nonzero(assert_draws_only_the_tally(AcbPolicy("static", 1.0), 12, 4) >= 2)

    def test_pass_one_consumes_no_randomness(self):
        for policy in (AcbPolicy("gf"), AcbPolicy("static", 1.0)):
            for seed in range(20):
                tally = assert_draws_only_the_tally(policy, 12, 4, seed)
                assert np.count_nonzero(tally >= 2)  # a collided channel, left unbarred

    def test_single_survivor_frequency(self, rng):
        # binomial pmf oracle: P(exactly 1 of 10 at p=0.1) = 10 * 0.1 * 0.9^9
        trials = 100_000
        alone, _ = barred_outcomes(AcbPolicy("static", 0.1), [10] * trials, trials, rng)
        p = stats.binom.pmf(1, 10, 0.1)
        assert p == pytest.approx(10 * 0.1 * 0.9**9)
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(alone / trials - p) < 3 * se

    def test_survivors_bounded_and_mean(self, rng):
        for n, p in [(4, 0.3), (12, 0.8), (30, 0.05)]:
            alone, emptied = barred_outcomes(AcbPolicy("static", p), [n] * 4000, 4000, rng)
            assert 0 <= alone and 0 <= emptied and alone + emptied <= 4000
            for seen, survivors in ((emptied, 0), (alone, 1)):
                q = stats.binom.pmf(survivors, n, p)
                se = math.sqrt(q * (1 - q) / 4000)
                assert abs(seen / 4000 - q) <= 3 * se, (n, p, survivors)

    @pytest.mark.parametrize("kind", ["static", "opt-inv", "opt-lit"])
    def test_one_draw_per_channel_at_its_factor(self, kind):
        # one uniform per channel, in channel order, against that channel's factor
        policy = AcbPolicy(kind, 0.4) if kind == "static" else AcbPolicy(kind)
        for loaded in (
            np.random.default_rng(1).integers(2, 40, size=60).tolist(),
            [TABLE_CAP - 1, 2, TABLE_CAP - 2, 17],  # the table's last entries
            # counts at and past the table's end, among counts inside it
            [5, TABLE_CAP - 1, 2, TABLE_CAP, 40, TABLE_CAP + 1, 3 * TABLE_CAP, 10**6, 3],
        ):
            r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
            alone, emptied = barred_outcomes(policy, loaded, len(loaded), r1)
            expect_alone = expect_empty = 0
            for k, u in zip(loaded, r2.random(len(loaded))):
                f = {"static": 0.4, "opt-inv": 1 / k, "opt-lit": 1 - 1 / k}[kind]
                none_left = (1 - f) ** k
                expect_empty += u < none_left
                expect_alone += none_left <= u < none_left + k * f * (1 - f) ** (k - 1)
            assert (alone, emptied) == (expect_alone, expect_empty), loaded
            assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize("policy", BARRING, ids=lambda p: p.label)
    def test_a_tally_equals_its_collided_channels(self, policy):
        # idle and singleton channels interleaved with counts on both sides of the cap
        tally = [0, 5, 1, TABLE_CAP - 1, 0, 0, TABLE_CAP, 1, 2, 10**6, 1, 0, TABLE_CAP + 3, 40, 1]
        collided = [k for k in tally if k >= 2]
        for seed in range(20):
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            n = len(collided)
            assert barred_outcomes(policy, tally, n, r1) == barred_outcomes(policy, collided, n, r2)
            assert r1.bit_generator.state == r2.bit_generator.state
        # a tally without a collided channel draws nothing past itself
        for n_ues in (0, 1):
            assert not np.count_nonzero(assert_draws_only_the_tally(policy, n_ues, 4) >= 2)


class TestThresholdTable:
    """The per-policy table of barring thresholds, against the per-channel rule."""

    @pytest.mark.parametrize("policy", BARRING, ids=lambda p: p.label)
    def test_every_entry_is_the_scalar_rule_bit_for_bit(self, policy):
        empty_at, alone_at = _threshold_table(policy)
        assert len(empty_at) == len(alone_at) == TABLE_CAP
        for k in range(2, TABLE_CAP):
            # the per-channel expression the table replaces, in Python floats
            f = {"static": 0.4, "opt-inv": 1.0 / k, "opt-lit": 1.0 - 1.0 / k}[policy.kind]
            q = 1.0 - f
            rest_barred = q ** (k - 1)
            empty = rest_barred * q
            alone = empty + k * f * rest_barred
            assert (empty_at[k].hex(), alone_at[k].hex()) == (empty.hex(), alone.hex()), k

    def test_tables_stay_small_over_every_count(self):
        # all three tables, built from scratch, and every count up to 4 x TABLE_CAP;
        # new policies, since a policy keeps its table once it has looked it up
        _threshold_table.cache_clear()
        rng = np.random.default_rng(5)
        counts = range(2, 4 * TABLE_CAP)
        tracemalloc.start()
        try:
            for policy in [AcbPolicy(p.kind, p.p) for p in BARRING]:
                for i in range(0, len(counts), 54):  # a frame's worth of channels per call
                    chunk = list(counts[i:i + 54])
                    barred_outcomes(policy, chunk, len(chunk), rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _threshold_table.cache_info().currsize == 3
        assert AcbPolicy("static", 0.4).thresholds is _threshold_table(BARRING[0])  # equal, shared
        assert peak < 256 * 2**10


class TestClosedFormOutcome:
    """Each policy's empty / alone / collided shares against Binomial(k, f), at paper scale."""

    TRIALS = 100_000

    @pytest.mark.parametrize("policy", BARRING, ids=lambda p: p.label)
    @pytest.mark.parametrize("k", [2, 3, 5, 10, 54, 200, 5000])
    def test_shares_match_the_binomial_pmf(self, policy, k):
        rng = np.random.default_rng(7300 + k)
        f = {"static": 0.4, "opt-inv": 1 / k, "opt-lit": 1 - 1 / k}[policy.kind]
        empty, alone = stats.binom.pmf(0, k, f), stats.binom.pmf(1, k, f)
        ended_alone, emptied = barred_outcomes(policy, [k] * self.TRIALS, self.TRIALS, rng)
        collided = self.TRIALS - ended_alone - emptied
        for seen, p in ((emptied, empty), (ended_alone, alone), (collided, 1 - empty - alone)):
            se = math.sqrt(p * (1 - p) / self.TRIALS)
            assert abs(seen / self.TRIALS - p) <= 4 * se, (policy.label, k, seen)

    @pytest.mark.parametrize("policy", BARRING, ids=lambda p: p.label)
    def test_a_million_contenders_draw_in_constant_memory(self, policy):
        rng = np.random.default_rng(11)
        tracemalloc.start()
        try:
            alone, emptied = barred_outcomes(policy, [10**6], 1, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert alone + emptied <= 1
        assert peak < 2**20


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
