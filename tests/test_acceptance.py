"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Stochastic checks use fixed seeds and three-standard-error bands;
regression values are frozen from the committed deterministic heuristic.
"""

import copy
import math
import re

import numpy as np

from conftest import enumerate_success_distribution, exhaustive_pack_count, frame_rows, make_config

from rasim.acb import AcbPolicy, barred_outcomes
from rasim.engine import (
    SimulationConfig,
    contend_uniform,
    run_monte_carlo,
    run_simulation,
)
from rasim.lstm import init_lstm, lstm_loss_and_grads
from rasim.scenarios import steady_point_summary, urllc_reservation_ramp
from rasim.slicing import (
    GridConfig,
    fixed_grid_slice,
    maxrect_slice,
    mmtc_box_ladder,
    validate_constraints,
)
from rasim.traffic import TrafficConfig
from rasim.training import train_backlog_predictor


def _report(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


def test_c01_fixed_grid_baseline():
    plan = fixed_grid_slice(GridConfig())
    assert plan.l_total == 30
    assert all(c.f_len == 16 and c.s_len == 1 for c in plan.channels)
    _report("C1 fixed-grid baseline", "30 channels of 16 RB x 1 slot")


def test_c02_slicing_capacity_range():
    grid = GridConfig()
    totals = [maxrect_slice(grid, ku, 41 - ku).l_total for ku in range(1, 41)]
    assert min(totals) == 31
    assert max(totals) == 41
    assert all(31 <= t <= 41 for t in totals)
    _report("C2 capacity range", f"sweep totals span [{min(totals)}, {max(totals)}]")


def test_c03_constraint_soundness():
    rng = np.random.default_rng(1234)
    violations = 0
    for _ in range(10_000):
        cfg = GridConfig(
            f=int(rng.integers(4, 40)),
            s=int(rng.integers(1, 14)),
            nu=int(rng.integers(2, 16)),
            p_u=int(rng.integers(1, 64)),
            p_m=int(rng.integers(1, 256)),
            m_u=int(2 ** rng.integers(1, 5)),
            m_m=int(2 ** rng.integers(1, 9)),
            xi=int(rng.integers(0, 8)),
        )
        plan = maxrect_slice(cfg, int(rng.integers(0, 55)), int(rng.integers(0, 65)))
        violations += len(validate_constraints(plan, cfg))
    assert violations == 0
    _report("C3 constraint soundness", "10^4 fuzzed plans, zero violations")


def test_c04_small_grid_optimality():
    worst = 1.0
    for iota in (1, 2, 3, 4):
        shapes = [(w, h) for (w, h, _) in mmtc_box_ladder(iota)]
        for f in range(1, 9):
            for s in range(1, 9):
                cfg = GridConfig(f=f, s=s, nu=1, p_m=iota, m_m=256, xi=0)
                got = maxrect_slice(cfg, 0, 10**6).l_total
                opt = exhaustive_pack_count(f, s, shapes)
                assert got <= opt, (f, s, iota)
                if opt:
                    assert got >= 0.9 * opt, (f, s, iota, got, opt)
                    worst = min(worst, got / opt)
    _report("C4 small-grid optimality", f"worst heuristic/optimal ratio {worst:.3f}")


def test_c05_acb_microbench():
    rng = np.random.default_rng(99)
    trials = 100_000
    for n in range(2, 11):
        p_one = n * (1 / n) * (1 - 1 / n) ** (n - 1)
        loaded = [n] * trials
        inv, lit = AcbPolicy("opt-inv"), AcbPolicy("opt-lit")
        hits_inv, _ = barred_outcomes(inv, loaded, trials, rng)
        se = math.sqrt(p_one * (1 - p_one) / trials)
        assert abs(hits_inv / trials - p_one) < 3 * se, n
        if n >= 3:
            hits_lit, _ = barred_outcomes(lit, loaded, trials, rng)
            assert hits_inv > hits_lit, n
    _report(
        "C5 ACB microbench",
        "single-survivor rate matches n(1/n)(1-1/n)^(n-1); inverse beats literal for n>=3",
    )


def test_c06_protocol_brute_force_equivalence():
    rng = np.random.default_rng(31337)
    trials, tied = 100_000, 2_000
    pol = AcbPolicy("gf")
    checked = 0
    for n in range(1, 5):
        for length in range(1, 4):
            exact = enumerate_success_distribution(n, length)
            twin = copy.deepcopy(rng)
            tallies = rng.multinomial(n, np.full(length, 1 / length), size=trials)
            served = np.count_nonzero(tallies == 1, axis=1)
            collided = np.count_nonzero(tallies >= 2, axis=1)
            # the rows are the tallies contend_uniform draws, call by call, from the same stream
            drawn = [contend_uniform(n, length, pol, twin) for _ in range(tied)]
            assert drawn == list(zip(served[:tied].tolist(), collided[:tied].tolist())), (n, length)
            seen = np.bincount(served, minlength=length + 1)
            for s in range(length + 1):
                assert abs(seen[s] / trials - exact.get(s, 0.0)) < 1e-2, (n, length, s)
            checked += 1
    _report("C6 brute-force equivalence", f"{checked} (UEs, channels) cases within 1e-2")


def test_c07_congestion_reproduction():
    etas = {}
    for k_m in (1000, 4000, 10000):
        l_u = urllc_reservation_ramp(k_m)
        for pol in ("gf", "opt-inv"):
            cfg = SimulationConfig(
                traffic=TrafficConfig(k_m=k_m, k_u=round(k_m / 40)),
                acb=pol,
                slicer=f"counts:{l_u},{54 - l_u}",
                predictor="perfect",
                frames=400,
                realizations=25,
                seed=1,
            )
            etas[(pol, k_m)] = steady_point_summary(run_monte_carlo(cfg))["eta"][0]
    # (a) grant-free collapses once the population saturates the pool
    assert etas[("gf", 4000)] < 0.02
    assert etas[("gf", 10000)] < 0.02
    # (b) inverse barring strictly dominates grant-free at every sweep point
    for k_m in (1000, 4000, 10000):
        assert etas[("opt-inv", k_m)] > etas[("gf", k_m)]
    # (c) throughput is maintained: no more than a 25% drop from the low-load value
    assert etas[("opt-inv", 10000)] >= 0.75 * etas[("opt-inv", 1000)]
    _report(
        "C7 congestion reproduction",
        "gf {:.3f}/{:.3f}/{:.3f}, opt-inv {:.3f}/{:.3f}/{:.3f}".format(
            *(etas[("gf", k)] for k in (1000, 4000, 10000)),
            *(etas[("opt-inv", k)] for k in (1000, 4000, 10000)),
        ),
    )


def test_c08_full_scheme_reproduction():
    # URLLC throughput (success channels over the whole pool) must grow with
    # the load, and mMTC service must collapse once the URLLC reservation
    # swallows the grid (k_u beyond ~250 with stock packet sizes).
    eta_u, served_m = [], []
    for k_m in (2000, 10000, 30000, 60000, 120000):
        cfg = SimulationConfig(
            traffic=TrafficConfig(k_m=k_m, k_u=max(1, round(k_m / 400))),
            acb="opt-inv",
            slicer="maxrect",
            predictor="perfect",
            frames=400,
            realizations=25,
            seed=1,
        )
        mc = run_monte_carlo(cfg)
        start = int(cfg.frames * 0.8)
        with np.errstate(invalid="ignore"):
            s_u = float(np.nanmean(mc.stacks["served_u"][:, start:]))
            s_m = float(np.nanmean(mc.stacks["served_m"][:, start:]))
            l_tot = float(
                np.nanmean(mc.stacks["l_u"][:, start:] + mc.stacks["l_m"][:, start:])
            )
        eta_u.append(s_u / l_tot)
        served_m.append(s_m)
    for lo, hi in zip(eta_u, eta_u[1:]):
        assert hi >= lo - 1e-3
    assert served_m[-1] < 0.2 * max(served_m)
    _report(
        "C8 full-scheme reproduction",
        f"eta_urllc {['%.3f' % v for v in eta_u]}, served_m tail {served_m[-1]:.2f} "
        f"vs peak {max(served_m):.2f}",
    )


def test_c09_conservation_suite():
    rng = np.random.default_rng(777)
    slicers = ("maxrect", "fixed:3", "counts:2,6", "counts:0,4")
    checked_frames = 0
    for case in range(1000):
        overload = case % 4 == 0
        cfg = make_config(
            traffic__k_m=int(rng.integers(5, 400)),
            traffic__k_u=int(rng.integers(1, 40)),
            traffic__p_act=float(rng.uniform(0.2, 0.6)) if overload else float(rng.uniform(0, 0.05)),
            traffic__k_m_periodic=int(rng.integers(0, 5)),
            traffic__alpha=float(rng.uniform(0.5, 4)),
            traffic__beta=float(rng.uniform(0.5, 4)),
            grid__f=int(rng.integers(16, 51)),
            grid__s=int(rng.integers(2, 11)),
            slicer="counts:1,1" if overload else slicers[case % len(slicers)],
            predictor=("perfect", "naive")[case % 2],
            acb=AcbPolicy(("gf", "opt-inv", "opt-lit")[case % 3]),
            frames=100,
            seed=int(rng.integers(0, 2**31)),
        )
        results = frame_rows(run_simulation(cfg))
        prev = None
        prev_active_m = 0
        for fr in results:
            # every channel of the slice ends served, collided or idle
            idle_u = fr.l_u - fr.served_u - fr.collided_u
            idle_m = fr.l_m - fr.served_m - fr.collided_m
            assert min(fr.served_u, fr.collided_u, idle_u, fr.served_m, fr.collided_m, idle_m) >= 0
            assert fr.active_u == fr.new_u + fr.retry_u
            assert fr.active_m == fr.new_m + fr.retry_m
            assert fr.active_u <= cfg.traffic.k_u
            assert fr.active_m <= cfg.traffic.k_m
            assert 0 <= fr.served_u <= fr.active_u
            assert 0 <= fr.served_m <= fr.active_m
            if prev is not None:
                assert fr.retry_u == prev.active_u - prev.served_u
                assert fr.retry_m == prev.active_m - prev.served_m
            if overload:
                # service capacity is one channel: backlog may never shrink by
                # more than the single served packet, and grows to saturation
                assert fr.active_m >= min(prev_active_m - 1, cfg.traffic.k_m - 1)
                prev_active_m = fr.active_m
            prev = fr
            checked_frames += 1
        if overload:
            assert results[-1].active_m >= 0.9 * cfg.traffic.k_m
    assert checked_frames == 100_000
    _report("C9 conservation suite", f"{checked_frames} frames across 1000 configs")


def test_c10_lstm_verification(prediction_demo):
    # (a) analytic gradients against central finite differences
    rng = np.random.default_rng(42)
    for trial in range(3):
        model = init_lstm(3, rng=rng, scale=0.6)
        x = rng.uniform(-1, 1, size=(2, 4, 3))
        y = rng.uniform(0, 1, size=2)
        _, grads = lstm_loss_and_grads(model, x, y)
        eps = 1e-5
        for name, arr in model.param_items():
            flat = arr.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                if name == "b_out":
                    model.b_out = orig + eps
                    up, _ = lstm_loss_and_grads(model, x, y)
                    model.b_out = orig - eps
                    dn, _ = lstm_loss_and_grads(model, x, y)
                    model.b_out = orig
                else:
                    flat[idx] = orig + eps
                    up, _ = lstm_loss_and_grads(model, x, y)
                    flat[idx] = orig - eps
                    dn, _ = lstm_loss_and_grads(model, x, y)
                    flat[idx] = orig
                numeric = (up - dn) / (2 * eps)
                a = grads[name].ravel()[idx]
                assert abs(a - numeric) / max(1.0, abs(a), abs(numeric)) < 1e-4

    # (b) desk-scale training beats the naive estimator on held-out traces.
    # demo_prediction trains that model (k_m 500, k_u 13, counts:5,49, perfect,
    # 100 frames, seed 3; 1000 samples, 100 epochs) and prints its report at .2e.
    # Rounding is monotone, so printed val < printed naive implies it for the exact values.
    assert prediction_demo.returncode == 0, prediction_demo.stderr
    val_u, val_m = _printed_nmse(prediction_demo.stdout, "val")
    naive_u, naive_m = _printed_nmse(prediction_demo.stdout, "naive")
    assert val_u < naive_u
    assert val_m < naive_m
    _report(
        "C10 LSTM verification",
        f"gradcheck ok; val nmse (u={val_u:.2e}, m={val_m:.2e}) "
        f"< naive (u={naive_u:.2e}, m={naive_m:.2e})",
    )


def _printed_nmse(stdout: str, name: str) -> tuple[float, float]:
    """The (urllc, mmtc) values of demo_prediction's `<name> nmse:` line."""
    (pair,) = re.findall(rf"^ +{name} +nmse: urllc=(\S+) mmtc=(\S+)$", stdout, re.MULTILINE)
    return float(pair[0]), float(pair[1])


def test_c11_determinism(tmp_path):
    from rasim.scenarios import Scenario, ScenarioPoint, run_scenario

    cfg = make_config(
        traffic__k_m=400,
        traffic__k_u=10,
        slicer="maxrect",
        predictor="naive",
        acb=AcbPolicy("opt-inv"),
        frames=60,
        realizations=4,
        seed=99,
    )
    scenario = Scenario("determinism", (ScenarioPoint("point", cfg),))
    digests = []
    for run, workers in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / run
        run_scenario(scenario, str(out), workers=workers)
        digests.append(
            tuple(
                (out / name).read_bytes() for name in ("point.csv", "summary.csv", "manifest.json")
            )
        )
    assert digests[0] == digests[1] == digests[2]
    _report("C11 determinism", "byte-identical outputs across reruns and 2-worker run")


def test_c12_lstm_holds_up_in_closed_loop(tmp_path):
    # a small seeded model, trained on perfect-predictor traces, runs the grant-free
    # loop; every collided channel held two UEs or more, and the estimate floor that
    # follows keeps its under-estimates from starving the mMTC slice
    from rasim.predictor import save_predictor

    predictor, _ = train_backlog_predictor(SimulationConfig(seed=1), samples=200, epochs=20)
    model = tmp_path / "c12.model"
    save_predictor(predictor, model)
    steady = {}
    for name, spec in (("lstm", f"lstm:{model}"), ("naive", "naive")):
        cfg = SimulationConfig(
            predictor=spec, slicer="maxrect", acb="gf", frames=200, realizations=16, seed=5
        )
        steady[name] = steady_point_summary(run_monte_carlo(cfg))
    (eta, se), (eta_naive, se_naive) = steady["lstm"]["eta"], steady["naive"]["eta"]
    backlog_m = steady["lstm"]["backlog_m"][0]
    assert eta >= eta_naive - 3 * math.hypot(se, se_naive), (eta, eta_naive)
    assert backlog_m < 0.1 * cfg.traffic.k_m, backlog_m
    _report(
        "C12 LSTM in closed loop",
        f"gf maxrect steady eta lstm {eta:.3f} +/- {se:.3f} vs naive {eta_naive:.3f} "
        f"+/- {se_naive:.3f}; lstm backlog_m {backlog_m:.1f} of {cfg.traffic.k_m}",
    )
