#!/usr/bin/env python3
"""Walk through the two arrival models and the backlog recurrence.

mMTC devices wake up sporadically (binomial) plus a small periodic group;
URLLC devices follow a repeating Beta-shaped burst. The second half shows how
unserved UEs pile up into the backlog when service is withheld.
"""

import numpy as np

from rasim.traffic import (
    TrafficConfig,
    sample_mmtc_arrivals,
    sample_urllc_arrivals,
    update_backlog,
    urllc_activation_profile,
)

cfg = TrafficConfig()  # stock populations: 1000 mMTC (10 periodic), 25 URLLC
rng = np.random.default_rng(7)

print("URLLC activation profile over one period (Beta(3,4) shape):")
profile = urllc_activation_profile(cfg)  # the activation probability at each phase
for t, p in enumerate(profile):
    print(f"  phase {t}: p={p:5.3f} {'#' * int(60 * p)}")

print("\nOne period of sampled arrivals (mMTC | URLLC):")
for t in range(10):
    a_m = sample_mmtc_arrivals(cfg, t, rng)
    a_u = sample_urllc_arrivals(cfg, t, rng, profile)
    tag = " <- periodic mMTC group wakes up" if t % cfg.t_m == 0 else ""
    print(f"  frame {t}: {a_m:3d} | {a_u:2d}{tag}")

print("\nBacklog growth with zero service (every active UE fails each frame):")
active_m = active_u = 0
for t in range(25):
    a_m = sample_mmtc_arrivals(cfg, t, rng)
    a_u = sample_urllc_arrivals(cfg, t, rng, profile)
    new_m, new_u = update_backlog(active_m, active_u, a_m, a_u, active_m, active_u, cfg)
    active_m, active_u = new_m + active_m, new_u + active_u
    if t % 4 == 0:
        print(f"  frame {t:2d}: active mMTC {active_m:4d}, active URLLC {active_u:2d}")
print(f"  ... the counts keep climbing toward the populations "
      f"({cfg.k_m} and {cfg.k_u}) and then saturate.")
