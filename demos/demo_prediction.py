#!/usr/bin/env python3
"""Train the backlog predictor on simulated traces and watch it track truth.

The station only sees per-frame channel-state triplets (success / collision /
idle counts per mode), read from each frame's row of the trace's table. Two
small recurrent models, one per use mode, learn to map a history of the last
10 rows to the current number of active UEs. The moment-matching baseline
inverts the latest idle fraction instead.
It ran in 3.8-5.6 s on a shared 2-core VM.
"""

from rasim.engine import SimulationConfig
from rasim.predictor import FrameResult, predict_backlogs
from rasim.traffic import TrafficConfig
from rasim.training import generate_trace, train_backlog_predictor

cfg = SimulationConfig(
    traffic=TrafficConfig(k_m=500, k_u=13),
    slicer="counts:5,49",
    predictor="perfect",
    frames=100,
    seed=3,
)

# tests/test_acceptance.py (C10) checks the val and naive lines of this report
print("training on 1000 grant-free frames (two models, 20 hidden units each)...")
predictor, report = train_backlog_predictor(cfg, samples=1000, epochs=100)
print(f"  train nmse: urllc={report.train_mse_u:.2e} mmtc={report.train_mse_m:.2e}")
print(f"  val   nmse: urllc={report.val_mse_u:.2e} mmtc={report.val_mse_m:.2e}")
print(f"  naive nmse: urllc={report.naive_mse_u:.2e} mmtc={report.naive_mse_m:.2e}")

print("\ntracking a fresh trace (true vs predicted active UEs):")
trace = generate_trace(cfg, 40, seed=2024)  # each frame's active counts are the truth
print(f"{'frame':>6} {'true u':>7} {'pred u':>7} {'true m':>7} {'pred m':>7}")
for t in range(cfg.t_w, len(trace)):
    if t % 3 == 0:  # estimated from the history of frames t - t_w .. t - 1, as one lane
        (pred,) = predict_backlogs(predictor, trace[None, t - cfg.t_w : t])
        fr = FrameResult(*trace[t].tolist())
        print(f"{t:>6} {fr.active_u:>7} {pred.k_hat_u:>7} {fr.active_m:>7} {pred.k_hat_m:>7}")
