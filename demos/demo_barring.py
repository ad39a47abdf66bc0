#!/usr/bin/env python3
"""Compare the barring policies on a single collided channel.

With n UEs on one channel, passing each with probability 1/n maximizes the
chance that exactly one survives (the collision is resolved). The literal
1 - 1/n rule keeps too many contenders alive: the gap grows quickly with n.
"""

import numpy as np

from rasim.acb import AcbPolicy, barred_outcomes, barring_factor

rng = np.random.default_rng(3)
trials = 50_000

print(f"{'n':>3} {'p=1/n':>8} {'sim':>7} {'p=1-1/n':>9} {'sim':>7}")
for n in range(2, 11):
    loaded = [n] * trials
    inv = barring_factor(AcbPolicy("opt-inv"), n)
    lit = barring_factor(AcbPolicy("opt-lit"), n)
    analytic_inv = n * inv * (1 - inv) ** (n - 1)
    analytic_lit = n * lit * (1 - lit) ** (n - 1)
    sim_inv = barred_outcomes(AcbPolicy("opt-inv"), loaded, trials, rng)[0] / trials
    sim_lit = barred_outcomes(AcbPolicy("opt-lit"), loaded, trials, rng)[0] / trials
    print(f"{n:>3} {analytic_inv:8.4f} {sim_inv:7.4f} {analytic_lit:9.4f} {sim_lit:7.4f}")

print("\nP(resolve) under 1/n tends to 1/e ~ 0.368; under 1 - 1/n it vanishes.")
print("Both rules agree at n = 2 (factor 1/2 either way).")
