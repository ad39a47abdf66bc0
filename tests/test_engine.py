import dataclasses
import math
import multiprocessing

import numpy as np
import pytest

from conftest import enumerate_success_distribution, frame_rows, make_config

from hypothesis import given, settings
from hypothesis import strategies as st

from rasim.acb import TABLE_CAP, AcbPolicy
from rasim.engine import (
    METRIC_COLUMNS,
    PointConstants,
    SimulationConfig,
    contend_uniform,
    lane_blocks,
    realization_metrics,
    realization_seed,
    run_lanes,
    run_monte_carlo,
    run_points,
    run_simulation,
)
from rasim.metrics import mean_and_stderr
from rasim.predictor import FrameResult, cold_start_prior
from rasim.scenarios import (
    PRESETS,
    Scenario,
    ScenarioPoint,
    run_scenario,
    steady_point_summary,
    write_point_csv,
)
from rasim.slicing import GridConfig, maxrect_slice
from rasim.traffic import urllc_activation_profile


class TestContention:
    @pytest.mark.parametrize("kind", ["gf", "opt-inv", "opt-lit", "static"])
    def test_lone_ue_always_served(self, kind, rng):
        policy = AcbPolicy(kind, 0.2) if kind == "static" else AcbPolicy(kind)
        # one channel served, none collided, the other three idle
        assert contend_uniform(1, 4, policy, rng) == (1, 0)

    def test_two_on_one_channel_grant_free_collide(self, rng):
        # both UEs stay on the one channel: a collision, nobody served
        assert contend_uniform(2, 1, AcbPolicy("gf"), rng) == (0, 1)

    def test_two_on_one_channel_inverse_half_success(self, rng):
        # P(success) = 2 * 1/2 * 1/2 = 0.5
        trials = 30_000
        wins = 0
        pol = AcbPolicy("opt-inv")
        for _ in range(trials):
            served, _ = contend_uniform(2, 1, pol, rng)
            wins += served == 1
        se = math.sqrt(0.25 / trials)
        assert abs(wins / trials - 0.5) < 3 * se

    def test_zero_channels(self, rng):
        state = rng.bit_generator.state
        assert contend_uniform(5, 0, AcbPolicy("gf"), rng) == (0, 0)
        assert rng.bit_generator.state == state

    def test_grant_free_equals_skipping_barring(self, rng):
        # same rng stream: grant-free confers no extra draws and same outcome
        r1 = np.random.default_rng(5)
        r2 = np.random.default_rng(5)
        served, collided = contend_uniform(20, 7, AcbPolicy("gf"), r1)
        c2 = r2.multinomial(20, np.full(7, 1 / 7))
        # survivors equal the selection counts: singletons served, the rest collided
        assert served == np.count_nonzero(c2 == 1)
        assert collided == np.count_nonzero(c2 >= 2)
        assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize("kind", ["static", "opt-inv", "opt-lit"])
    def test_barring_draws_collided_channels_in_order(self, kind):
        # the selection, then one uniform per collided channel in channel order,
        # classed against that channel's factor f and contender count k:
        # empty below (1-f)^k, alone below that plus k f (1-f)^(k-1), else collided
        policy = AcbPolicy(kind, 0.4) if kind == "static" else AcbPolicy(kind)
        ended = {"empty": 0, "alone": 0, "collided": 0}
        for seed in range(50):
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            served, collided = contend_uniform(40, 9, policy, r1)
            counts = r2.multinomial(40, np.full(9, 1 / 9)).tolist()
            loaded = [k for k in counts if k >= 2]
            outcomes = []
            for k, u in zip(loaded, r2.random(len(loaded)).tolist()):
                f = {"static": 0.4, "opt-inv": 1 / k, "opt-lit": 1 - 1 / k}[kind]
                none_left = (1 - f) ** k
                one_left = k * f * (1 - f) ** (k - 1)
                ends = "alone" if u < none_left + one_left else "collided"
                outcomes.append("empty" if u < none_left else ends)
            for name in ended:
                ended[name] += outcomes.count(name)
            assert served == counts.count(1) + outcomes.count("alone")
            assert collided == outcomes.count("collided")
            assert r1.bit_generator.state == r2.bit_generator.state
        assert all(ended.values()), ended  # every outcome was drawn

    def test_gf_success_distribution_matches_enumeration(self, rng):
        # classic slotted multichannel model, exhaustively enumerated
        for n, length in [(2, 2), (3, 2), (4, 3), (3, 3)]:
            exact = enumerate_success_distribution(n, length)
            trials = 20_000
            seen = {}
            pol = AcbPolicy("gf")
            for _ in range(trials):
                s, _ = contend_uniform(n, length, pol, rng)
                seen[s] = seen.get(s, 0) + 1
            for s, p in exact.items():
                assert abs(seen.get(s, 0) / trials - p) < 0.015, (n, length, s)


class TestClosedFormOracles:
    """contend_uniform at paper scale (L = 54) against closed-form expectations.

    Each test draws TRIALS frames and z-tests the sample mean. The standard
    error uses the larger of the sample variance and the oracle's own
    independent-channel variance E(1 - E/L), so a mean that is 0 in every
    frame (E below 1e-200 at n = 30000) is still tested, not divided by 0.
    """

    L = 54
    TRIALS = 4000

    def _z(self, samples, expected):
        samples = np.asarray(samples, dtype=float)
        var = max(samples.var(ddof=1), expected * (1.0 - expected / self.L))
        return (samples.mean() - expected) / math.sqrt(var / samples.size)

    @pytest.mark.parametrize("n", [50, 1000, 30000])
    def test_grant_free_successes_and_idles(self, n):
        rng = np.random.default_rng(6100 + n)
        draws = [contend_uniform(n, self.L, AcbPolicy("gf"), rng) for _ in range(self.TRIALS)]
        served = [s for s, _ in draws]
        idle = [self.L - s - c for s, c in draws]
        q = 1.0 - 1.0 / self.L
        assert abs(self._z(served, n * q ** (n - 1))) < 4
        assert abs(self._z(idle, self.L * q**n)) < 4

    @pytest.mark.parametrize("n", [50, 1000, 30000])
    def test_inverse_barring_successes(self, n):
        from scipy.stats import binom

        rng = np.random.default_rng(6200 + n)
        pol = AcbPolicy("opt-inv")
        served = [contend_uniform(n, self.L, pol, rng)[0] for _ in range(self.TRIALS)]
        # per channel: k contenders with P = Binom(k; n, 1/L); one survivor of
        # k >= 2 at factor 1/k with probability (1 - 1/k)^(k - 1), a singleton always
        k = np.arange(2, n + 1, dtype=float)
        expected = self.L * (
            binom.pmf(1, n, 1 / self.L)
            + np.sum(binom.pmf(k, n, 1 / self.L) * (1.0 - 1.0 / k) ** (k - 1.0))
        )
        assert abs(self._z(served, expected)) < 4


class TestFrames:
    def test_single_frame_run(self):
        cfg = make_config(frames=1, slicer="counts:2,10", predictor="perfect")
        out = run_simulation(cfg)
        assert out.shape == (1, len(FrameResult._fields))

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError):
            make_config(frames=0)

    def test_observation_sums_match_plan(self):
        cfg = make_config(frames=40, slicer="counts:3,20")
        for fr in frame_rows(run_simulation(cfg)):
            assert (fr.l_u, fr.l_m) == (3, 20)
            idle_u = fr.l_u - fr.served_u - fr.collided_u
            idle_m = fr.l_m - fr.served_m - fr.collided_m
            assert min(fr.served_u, fr.collided_u, idle_u, fr.served_m, fr.collided_m, idle_m) >= 0

    def test_conservation_per_frame(self):
        cfg = make_config(frames=60, slicer="maxrect", predictor="perfect", seed=9)
        results = frame_rows(run_simulation(cfg))
        for prev, cur in zip(results, results[1:]):
            # UEs that failed in the previous frame all retry now
            assert cur.retry_u == prev.active_u - prev.served_u
            assert cur.retry_m == prev.active_m - prev.served_m
            assert cur.active_u == cur.new_u + cur.retry_u
        for fr in results:
            assert 0 <= fr.served_u <= fr.active_u
            assert 0 <= fr.served_m <= fr.active_m

    def test_mode_without_channels_is_backlogged_not_fatal(self):
        cfg = make_config(
            frames=12, slicer="counts:0,8", traffic__alpha=1.0, traffic__beta=1.0,
            traffic__k_u=10, seed=3,
        )
        results = frame_rows(run_simulation(cfg))
        assert all(fr.served_u == 0 for fr in results)
        assert any(fr.active_u > 0 for fr in results)
        # URLLC keeps accumulating while mMTC is still being served
        assert any(fr.served_m > 0 for fr in results)

    def test_channel_states_bounded_by_contenders(self):
        # the barring draw is checked on barred_outcomes (test_acb.py); here every
        # channel of the plan has a state, and survivors never exceed contenders:
        # a served channel holds one UE, a collided one at least two
        cfg = make_config(frames=30, slicer="counts:2,5", acb=AcbPolicy("opt-inv"))
        for fr in frame_rows(run_simulation(cfg)):
            assert (fr.l_u, fr.l_m) == (2, 5)
            assert fr.served_u + fr.collided_u <= fr.l_u and fr.served_m + fr.collided_m <= fr.l_m
            assert fr.served_u + 2 * fr.collided_u <= fr.active_u
            assert fr.served_m + 2 * fr.collided_m <= fr.active_m

    def test_barred_to_empty_counts_as_idle(self):
        # force heavy barring: static factor 0 bars every collision completely
        cfg = make_config(
            frames=30, slicer="counts:0,2", acb=AcbPolicy("static", 0.0),
            traffic__k_u=0, traffic__k_m=30, traffic__p_act=0.5, traffic__k_m_periodic=0,
            seed=11,
        )
        for fr in frame_rows(run_simulation(cfg)):
            assert fr.collided_m == 0  # all barred away: observed idle, not collision
            assert fr.l_m == 2  # served and idle channels
        # a channel with two or more contenders ends idle; a singleton is served
        pol = AcbPolicy("static", 0.0)
        for seed in range(300):
            n = seed % 7
            counts = np.random.default_rng(seed).multinomial(n, np.full(2, 0.5))
            served, collided = contend_uniform(n, 2, pol, np.random.default_rng(seed))
            assert (served, collided) == (np.count_nonzero(counts == 1), 0)


class TestCountSlicer:
    @given(
        f=st.integers(1, 24),
        s=st.integers(1, 6),
        nu=st.integers(1, 14),
        p_u=st.integers(1, 40),
        p_m=st.integers(1, 120),
        xi=st.integers(0, 5),
        k_u=st.integers(0, 150),
        k_m=st.integers(0, 150),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_match_packer(self, f, s, nu, p_u, p_m, xi, k_u, k_m):
        # demands up to 150 exceed the capacity of every grid drawn here
        grid = GridConfig(f=f, s=s, nu=nu, p_u=p_u, p_m=p_m, xi=xi)
        point = PointConstants.of(SimulationConfig(grid=grid, slicer="maxrect"))
        plan = maxrect_slice(grid, k_u, k_m)
        assert point.plan(k_u, k_m) == (plan.l_u, plan.l_m)


class TestDeterminism:
    def test_same_seed_same_results(self):
        cfg = make_config(frames=50, slicer="maxrect", predictor="perfect", seed=42)
        a = frame_rows(run_simulation(cfg))
        b = frame_rows(run_simulation(cfg))
        assert len(a) == len(b) == 50
        for fa, fb in zip(a, b):
            assert (fa.served_u, fa.collided_u, fa.served_m, fa.collided_m) == (
                fb.served_u, fb.collided_u, fb.served_m, fb.collided_m
            )
            assert (fa.active_u, fa.active_m) == (fb.active_u, fb.active_m)
            assert fa == fb  # every field, prediction and plan included

    def test_sub_seeds_are_order_insensitive(self):
        cfg = make_config(frames=20, slicer="counts:2,10", realizations=4, seed=7)
        fwd = [realization_metrics(cfg, range(i, i + 1)) for i in range(4)]
        rev = [realization_metrics(cfg, range(i, i + 1)) for i in (3, 2, 1, 0)][::-1]
        for a, b in zip(fwd, rev):
            assert np.array_equal(a, b, equal_nan=True)

    def test_distinct_realizations_differ(self):
        cfg = make_config(frames=30, slicer="counts:2,10", seed=7)
        a = realization_metrics(cfg, range(0, 1))
        b = realization_metrics(cfg, range(1, 2))
        eta = METRIC_COLUMNS.index("eta")
        assert not np.array_equal(a[eta], b[eta], equal_nan=True)

    def test_seed_sequence_spawn_equivalence(self):
        direct = realization_seed(123, 5)
        spawned = np.random.SeedSequence(123).spawn(7)[5]
        assert direct.generate_state(4).tolist() == spawned.generate_state(4).tolist()


class TestMonteCarlo:
    def test_single_realization_equals_run_simulation(self):
        cfg = make_config(frames=25, slicer="counts:2,10", realizations=1, seed=13)
        mc = run_monte_carlo(cfg)
        rng = np.random.default_rng(realization_seed(cfg.seed, 0))
        frames = frame_rows(run_simulation(cfg, rng=rng))
        eta = [(fr.served_u + fr.served_m) / (fr.l_u + fr.l_m) for fr in frames]
        assert mc.stacks["eta"][0].tolist() == eta

    def test_stderr_shrinks_with_realizations(self):
        base = make_config(
            frames=60, slicer="counts:2,10", seed=5,
            traffic__k_m=300, traffic__p_act=0.02,
        )
        small = run_monte_carlo(dataclasses.replace(base, realizations=25))
        large = run_monte_carlo(dataclasses.replace(base, realizations=100))
        se_small = np.nanmean([mean_and_stderr(col)[1] for col in small.stacks["eta"].T])
        se_large = np.nanmean([mean_and_stderr(col)[1] for col in large.stacks["eta"].T])
        ratio = se_small / se_large
        assert 1.4 < ratio < 2.8  # ~sqrt(4) with Monte-Carlo slack

    @pytest.mark.parametrize("realizations,parts,sizes", [
        (5, 1, [5]), (5, 2, [2, 3]), (5, 3, [1, 2, 2]), (2, 2, [1, 1]), (2, 8, [1, 1]),
    ])
    def test_lane_blocks_are_contiguous(self, realizations, parts, sizes):
        blocks = lane_blocks(realizations, parts)
        assert [len(b) for b in blocks] == sizes
        assert [i for b in blocks for i in b] == list(range(realizations))

    def test_block_rows_equal_single_realizations(self):
        cfg = make_config(frames=20, slicer="maxrect", predictor="naive", seed=4)
        block = realization_metrics(cfg, range(1, 4))
        for row, i in enumerate(range(1, 4)):
            alone = realization_metrics(cfg, range(i, i + 1))
            assert np.array_equal(block[:, row], alone[:, 0], equal_nan=True)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_parallel_matches_serial(self, tmp_path, model_file, workers):
        # one sweep of an lstm point, a naive maxrect point and a single realization
        points = (
            ScenarioPoint("lstm", make_config(
                frames=15, predictor=f"lstm:{model_file}", slicer="maxrect", realizations=3, seed=21)),
            ScenarioPoint("naive", make_config(
                frames=15, predictor="naive", slicer="maxrect", realizations=4, seed=22)),
            ScenarioPoint("one", make_config(frames=15, slicer="counts:2,10", seed=23)),
        )
        run_scenario(Scenario("mixed", points), str(tmp_path / "out"), workers=workers)
        results = list(run_points([p.cfg for p in points], workers))
        assert multiprocessing.active_children() == []
        for point, result in zip(points, results):
            cfg = point.cfg
            for i in range(cfg.realizations):  # each row is its realization run alone
                alone = realization_metrics(cfg, range(i, i + 1))
                assert np.array_equal(result.metrics[:, i], alone[:, 0], equal_nan=True)
            write_point_csv(str(tmp_path / "alone.csv"), result)
            written = (tmp_path / "out" / f"{point.label}.csv").read_bytes()
            assert written == (tmp_path / "alone.csv").read_bytes()

    @pytest.mark.parametrize("sweep", ["fig3", "fig4", "fig5", "opt-inv", "opt-lit", "static:0.4"])
    def test_barring_draws_match_serial(self, tmp_path, sweep):
        # the stock presets at 3 x 60, and one point per policy whose 2 mMTC
        # channels hold thousands of contenders each, past acb.TABLE_CAP
        base = SimulationConfig(realizations=3, frames=60)
        if sweep in PRESETS:
            scenario = PRESETS[sweep](base)
        else:
            past_cap = make_config(
                traffic__k_m=30_000, traffic__k_u=750, acb=sweep, slicer="counts:4,2",
                realizations=3, frames=60,
            )
            scenario = Scenario("past_cap", (ScenarioPoint("run", past_cap),))
        serial, pooled = tmp_path / "w1", tmp_path / "w2"
        run_scenario(scenario, str(serial), workers=1)
        run_scenario(scenario, str(pooled), workers=2)
        assert multiprocessing.active_children() == []
        names = sorted(p.name for p in serial.iterdir())
        assert names == sorted(p.name for p in pooled.iterdir())
        assert "manifest.json" in names and len(names) == len(scenario.points) + 2
        for name in names:
            assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name
        if sweep not in PRESETS:  # a frame's mean over lanes puts a channel past the cap
            rows = (serial / "run.csv").read_text().splitlines()
            column = rows[0].split(",").index("backlog_m")
            assert max(float(row.split(",")[column]) for row in rows[1:]) / 2 >= TABLE_CAP

    def test_overload_grant_free_throughput_collapses(self):
        # frozen regression: saturated population on the classic 54-channel pool
        cfg = make_config(
            frames=300, slicer="counts:5,49", acb=AcbPolicy("gf"),
            traffic__k_m=30_000, traffic__k_u=750, realizations=1, seed=2,
        )
        mc = run_monte_carlo(cfg)
        eta_tail = np.nanmean(mc.stacks["eta"][0, -200:])
        assert eta_tail < 0.05


class TestPredictorsInTheLoop:
    def test_perfect_predictor_sees_truth(self):
        cfg = make_config(frames=30, slicer="maxrect", predictor="perfect", seed=17)
        for fr in frame_rows(run_simulation(cfg)):
            assert fr.k_hat_u == fr.active_u
            assert fr.k_hat_m == fr.active_m

    def test_naive_predictor_runs_and_stays_bounded(self):
        cfg = make_config(frames=40, slicer="maxrect", predictor="naive", seed=17)
        for fr in frame_rows(run_simulation(cfg)):
            assert 0 <= fr.k_hat_u <= cfg.traffic.k_u
            assert 0 <= fr.k_hat_m <= cfg.traffic.k_m

    def test_naive_predictor_keeps_urllc_channels(self):
        # a frame with no URLLC channel must not lock the URLLC estimate at 0
        cfg = make_config(frames=400, realizations=4, slicer="maxrect", predictor="naive", seed=5)
        stats = steady_point_summary(run_monte_carlo(cfg))
        assert stats["l_u"][0] > 0
        assert stats["served_u"][0] > 0

    def test_naive_predictor_keeps_urllc_channels_for_few_devices(self):
        # at k_u <= 5 the long-run mean rounds to 0; the prior must still be >= 1
        cfg = make_config(
            traffic__k_u=5, frames=200, slicer="maxrect", predictor="naive", seed=5
        )
        assert steady_point_summary(run_monte_carlo(cfg))["l_u"][0] > 0

    def test_lstm_predictor_roundtrip_through_engine(self, tmp_path, rng):
        from rasim.lstm import init_lstm
        from rasim.predictor import LstmPredictor, save_predictor

        pred = LstmPredictor(init_lstm(4, rng=rng), init_lstm(4, rng=rng), 25, 1000, t_w=10)
        path = tmp_path / "m.model"
        save_predictor(pred, path)
        cfg = make_config(frames=15, slicer="maxrect", predictor=f"lstm:{path}", seed=3)
        results = run_simulation(cfg)
        assert len(results) == 15

    @staticmethod
    def _lanes(cfg, lanes=3):
        """Each lane's frames, lane by lane: cfg run as `lanes` lanes in lockstep."""
        rngs = [np.random.default_rng(realization_seed(cfg.seed, i)) for i in range(lanes)]
        return [frame_rows(rows) for rows in run_lanes(cfg, rngs)]

    @pytest.mark.parametrize("predictor", ["perfect", "naive", "lstm"])
    def test_run_lanes_returns_one_table_of_the_lanes_rows(self, predictor, model_file):
        spec = f"lstm:{model_file}" if predictor == "lstm" else predictor
        cfg = make_config(frames=30, slicer="maxrect", predictor=spec, seed=8)
        rngs = [np.random.default_rng(realization_seed(cfg.seed, i)) for i in range(3)]
        table = run_lanes(cfg, rngs)
        assert table.dtype == np.int64
        assert table.shape == (3, cfg.frames, len(FrameResult._fields))
        for i, rows in enumerate(table):
            alone = run_simulation(cfg, np.random.default_rng(realization_seed(cfg.seed, i)))
            assert alone.dtype == np.int64
            assert np.array_equal(rows, alone), i

    def test_lstm_estimate_reads_the_lanes_last_t_w_frames(self, tmp_path):
        from rasim.lstm import init_lstm, lstm_forward
        from rasim.predictor import LstmPredictor, save_predictor

        rng = np.random.default_rng(5)
        model_u, model_m = init_lstm(4, rng=rng, scale=1.0), init_lstm(4, rng=rng, scale=1.0)
        # estimates that follow the window, and in some frames of each class fall below the floor
        model_u.b_out[:], model_m.b_out[:] = 0.2, 0.05
        pred = LstmPredictor(model_u, model_m, 25, 1000, t_w=4)
        path = tmp_path / "m.model"
        save_predictor(pred, path)
        cfg = make_config(frames=25, t_w=4, slicer="maxrect", predictor=f"lstm:{path}", seed=8)
        prior = cold_start_prior(cfg.traffic)
        pops = (cfg.traffic.k_u, cfg.traffic.k_m)

        def fractions(fr):
            rows = []
            for served, collided, channels in (
                (fr.served_u, fr.collided_u, fr.l_u), (fr.served_m, fr.collided_m, fr.l_m)
            ):
                idle = channels - served - collided
                rows.append([n / channels if channels else 0.0 for n in (served, collided, idle)])
            return rows

        estimates, raised = set(), [0, 0]
        for frames in self._lanes(cfg):
            assert (frames[0].k_hat_u, frames[0].k_hat_m) == prior
            for t in range(1, cfg.frames):
                rows = [fractions(fr) for fr in frames[max(0, t - cfg.t_w) : t]]
                window = np.array(rows).swapaxes(0, 1)  # (2, frames, 3), URLLC first
                raw = lstm_forward(pred.stack, window[None])[0].tolist()
                # scaled to the class population, rounded and clamped to it
                from_window = tuple(max(0, min(pop, round(r * pop))) for r, pop in zip(raw, pops))
                last = frames[t - 1]  # a collided channel held two UEs or more
                floor = (
                    min(cfg.traffic.k_u, last.served_u + 2 * last.collided_u),
                    min(cfg.traffic.k_m, last.served_m + 2 * last.collided_m),
                )
                want = tuple(map(max, from_window, floor))
                assert (frames[t].k_hat_u, frames[t].k_hat_m) == want, t
                estimates.add(want)
                raised = [n + (w != e) for n, w, e in zip(raised, want, from_window)]
        assert len(estimates) > 3
        assert all(raised)  # the floor acts on each class in some frame

    def test_naive_estimate_reads_the_lanes_last_frame(self):
        from rasim.predictor import estimate_from_idle

        cfg = make_config(frames=25, t_w=4, slicer="maxrect", predictor="naive", seed=8)
        tc = cfg.traffic
        prior = cold_start_prior(tc)
        for frames in self._lanes(cfg):
            assert (frames[0].k_hat_u, frames[0].k_hat_m) == prior
            for t, (prev, fr) in enumerate(zip(frames, frames[1:]), 1):
                want = [
                    estimate_from_idle(channels - served - collided, channels, pop) if channels
                    else fallback
                    for served, collided, channels, pop, fallback in (
                        (prev.served_u, prev.collided_u, prev.l_u, tc.k_u, prior.k_hat_u),
                        (prev.served_m, prev.collided_m, prev.l_m, tc.k_m, prior.k_hat_m),
                    )
                ]
                assert [fr.k_hat_u, fr.k_hat_m] == want, t

    def test_unknown_predictor_rejected(self):
        with pytest.raises(ValueError):
            make_config(predictor="psychic")


class RecordingGenerator:
    """A Generator that passes every call on and logs it: (method, arguments, result)."""

    def __init__(self, rng: np.random.Generator):
        self._rng, self.calls = rng, []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args):
            out = method(*args)
            self.calls.append((name, args, out))
            return out

        return record


class TestLaneStep:
    """The calls a lane makes per frame, which hold under any numpy release."""

    @staticmethod
    def _expected_calls(cfg, rows, tallies):
        """A lane's calls of each frame, from its rows and the tallies multinomial returned."""
        tc = cfg.traffic
        profile = urllc_activation_profile(tc)
        for t, row in enumerate(rows):
            fr = FrameResult(*row)
            yield ("binomial", (tc.k_m - tc.k_m_periodic, tc.p_act))
            yield ("binomial", (tc.k_u, profile[t % tc.t_u]))
            for active, channels in ((fr.active_u, fr.l_u), (fr.active_m, fr.l_m)):
                if channels:
                    yield ("multinomial", active, channels)
                    collided = sum(k >= 2 for k in next(tallies))
                    if cfg.acb.bars and collided:
                        yield ("random", (collided,))

    @pytest.mark.parametrize("acb", ["gf", "static:1.0", "static:0.4", "opt-inv", "opt-lit"])
    @pytest.mark.parametrize("predictor", ["perfect", "naive"])
    @pytest.mark.parametrize("slicer", ["counts:5,49", "maxrect"])
    def test_draw_order(self, acb, predictor, slicer):
        # mMTC arrivals, URLLC arrivals; then per class with channels, URLLC
        # first: the selection, and the barring draw of its collided channels
        cfg = make_config(
            traffic__k_m=3000, traffic__k_u=75, frames=40, seed=12,
            acb=acb, predictor=predictor, slicer=slicer,
        )
        lanes = [RecordingGenerator(np.random.default_rng(realization_seed(12, i))) for i in (0, 1)]
        table = run_lanes(cfg, lanes)
        barring_draws = 0
        for lane, rows in zip(lanes, table.tolist()):
            seen = []
            for name, args, out in lane.calls:
                if name == "multinomial":
                    n, pvals = args
                    assert pvals.tolist() == [1 / len(pvals)] * len(pvals)
                    seen.append((name, n, len(pvals)))
                else:
                    seen.append((name, args))
            tallies = (out.tolist() for name, _, out in lane.calls if name == "multinomial")
            assert seen == list(self._expected_calls(cfg, rows, tallies))
            barring_draws += sum(name == "random" for name, _, _ in lane.calls)
        assert barring_draws if cfg.acb.bars else not barring_draws

    @pytest.mark.parametrize("predictor", ["perfect", "naive", "lstm"])
    def test_run_frame_once_per_realization_frame(self, predictor, model_file, monkeypatch):
        # as perfbench's tracer counts it: the module global rebound to a wrapper
        import rasim.engine

        calls = []
        step = rasim.engine.run_frame

        def counted(*args):
            calls.append(args[1])
            return step(*args)

        monkeypatch.setattr(rasim.engine, "run_frame", counted)
        spec = f"lstm:{model_file}" if predictor == "lstm" else predictor
        cfg = make_config(frames=20, realizations=3, slicer="maxrect", predictor=spec, seed=4)
        run_monte_carlo(cfg)
        assert sorted(calls) == sorted(list(range(cfg.frames)) * cfg.realizations)
