#!/usr/bin/env python3
"""Compare the barring policies on a single collided channel.

With n UEs on one channel, passing each with probability 1/n maximizes the
chance that exactly one survives (the collision is resolved). The literal
1 - 1/n rule keeps too many contenders alive: the gap grows quickly with n.
"""

import numpy as np

from rasim.acb import AcbPolicy, acb_factors, collided_survivors

rng = np.random.default_rng(3)
trials = 50_000

print(f"{'n':>3} {'p=1/n':>8} {'sim':>7} {'p=1-1/n':>9} {'sim':>7}")
for n in range(2, 11):
    counts = np.full(trials, n)
    inv = acb_factors(AcbPolicy("opt-inv"), counts)
    lit = acb_factors(AcbPolicy("opt-lit"), counts)
    analytic_inv = n * inv[0] * (1 - inv[0]) ** (n - 1)
    analytic_lit = n * lit[0] * (1 - lit[0]) ** (n - 1)
    sim_inv = np.mean(collided_survivors(AcbPolicy("opt-inv"), counts, rng) == 1)
    sim_lit = np.mean(collided_survivors(AcbPolicy("opt-lit"), counts, rng) == 1)
    print(f"{n:>3} {analytic_inv:8.4f} {sim_inv:7.4f} {analytic_lit:9.4f} {sim_lit:7.4f}")

print("\nP(resolve) under 1/n tends to 1/e ~ 0.368; under 1 - 1/n it vanishes.")
print("Both rules agree at n = 2 (factor 1/2 either way).")
