"""Per-frame arrival models for the two use modes and backlog bookkeeping.

mMTC devices activate independently with a small per-frame probability, plus a
fixed sub-population that wakes up periodically. URLLC devices activate with a
probability that follows a Beta-shaped profile repeating every period, which
produces the characteristic periodic burst. Backlog = new arrivals plus UEs
retrying after a failed access attempt (retry happens in the very next frame).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_scalar_fields


@dataclass(frozen=True)
class TrafficConfig:
    """Population sizes and activation parameters for both use modes."""

    k_m: int = 1000          # mMTC population
    k_u: int = 25            # URLLC population
    p_act: float = 0.005     # mMTC per-frame activation probability
    k_m_periodic: int = 10   # mMTC UEs that wake every t_m frames
    t_m: int = 10            # mMTC wake-up period, frames
    t_u: int = 10            # URLLC burst period, frames
    alpha: float = 3.0       # Beta shape of the burst profile
    beta: float = 4.0

    def __post_init__(self):
        check_scalar_fields(self)
        if self.k_m < 0 or self.k_u < 0:
            raise ConfigError("k_m and k_u must be non-negative")
        if self.k_m_periodic < 0 or self.k_m_periodic > self.k_m:
            raise ConfigError("k_m_periodic must lie in [0, k_m]")
        if self.t_m < 1 or self.t_u < 1:
            raise ConfigError("t_m and t_u must be >= 1")
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ConfigError("alpha and beta must be positive and finite")
        if not 0.0 <= self.p_act <= 1.0:
            raise ConfigError("p_act must lie in [0, 1]")


def beta_activation_profile(cfg: TrafficConfig, t: int) -> float:
    """Per-UE URLLC activation probability at frame t.

    The profile is the Beta(alpha, beta) density stretched over one period and
    evaluated at the integer phase tau = t mod t_u:

        tau^(a-1) * (t_u - tau)^(b-1) / (t_u^(a+b-1) * B(a, b))

    clamped into [0, 1] so it is always usable as a probability.
    """
    if t < 0:
        raise ValueError("frame index must be non-negative")
    tau = t % cfg.t_u
    a, b = cfg.alpha, cfg.beta
    if tau == 0:
        if a > 1:
            return 0.0
        if a < 1:
            return 1.0  # density diverges at the period edge; clamp
        num = float(cfg.t_u) ** (b - 1.0)
    else:
        num = tau ** (a - 1.0) * (cfg.t_u - tau) ** (b - 1.0)
    # B(a, b) through log-gamma: Gamma(a + b) alone overflows above a + b ~ 171
    beta_fn = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    dens = num / (cfg.t_u ** (a + b - 1.0) * beta_fn)
    return float(min(max(dens, 0.0), 1.0))


def sample_mmtc_arrivals(cfg: TrafficConfig, t: int, rng: np.random.Generator) -> int:
    """New mMTC packets in frame t: binomial activations plus the periodic comb."""
    if t < 0:
        raise ValueError("frame index must be non-negative")
    n = int(rng.binomial(cfg.k_m - cfg.k_m_periodic, cfg.p_act))
    if t % cfg.t_m == 0:
        n += cfg.k_m_periodic
    return n


def urllc_activation_profile(cfg: TrafficConfig) -> tuple[float, ...]:
    """beta_activation_profile at each phase 0 .. t_u - 1 of the burst period."""
    return tuple(beta_activation_profile(cfg, tau) for tau in range(cfg.t_u))


def sample_urllc_arrivals(
    cfg: TrafficConfig, t: int, rng: np.random.Generator, profile: tuple[float, ...]
) -> int:
    """New URLLC packets in frame t, binomial with the periodic Beta profile.

    ``profile`` is the table of urllc_activation_profile, built once per run.
    """
    if t < 0:
        raise ValueError("frame index must be non-negative")
    return int(rng.binomial(cfg.k_u, profile[t % cfg.t_u]))


def update_backlog(
    active_m: int,
    active_u: int,
    arrivals_m: int,
    arrivals_u: int,
    failed_m: int,
    failed_u: int,
    cfg: TrafficConfig,
) -> tuple[int, int]:
    """New arrivals (new_m, new_u) admitted next frame, after this frame's failures.

    ``failed_*`` of this frame's ``active_*`` UEs failed; they retry in the
    next frame (zero barring time), so its active count is the new arrivals
    plus the failed count. A backlogged UE does not queue a second packet,
    so effective new arrivals are capped at the population headroom beyond
    the retrying UEs.
    """
    if failed_m < 0 or failed_u < 0 or arrivals_m < 0 or arrivals_u < 0:
        raise ValueError("counts must be non-negative")
    if failed_m > active_m or failed_u > active_u:
        raise ValueError(
            f"failed counts ({failed_m}, {failed_u}) exceed active counts "
            f"({active_m}, {active_u})"
        )
    return min(arrivals_m, cfg.k_m - failed_m), min(arrivals_u, cfg.k_u - failed_u)


def expected_arrivals_per_frame(cfg: TrafficConfig) -> tuple[float, float]:
    """Long-run mean arrivals per frame (URLLC, mMTC); used as a cold-start prior."""
    mean_profile = sum(urllc_activation_profile(cfg)) / cfg.t_u
    mean_u = cfg.k_u * mean_profile
    mean_m = (cfg.k_m - cfg.k_m_periodic) * cfg.p_act + cfg.k_m_periodic / cfg.t_m
    return mean_u, mean_m
