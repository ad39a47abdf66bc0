"""Access class barring: per-channel pass probabilities and the barring draw.

After preamble selection the base station knows how many UEs landed on each
channel and broadcasts a barring factor; every colliding UE draws a uniform
number and proceeds only if it does not exceed the factor. A UE alone on its
channel always proceeds.

Two "optimal" flavours are shipped: ``opt-inv`` passes each of n colliders
with probability 1/n (maximizes the chance that exactly one survives) and
``opt-lit`` with probability 1 - 1/n (the literal collision-thinning rule).
They disagree for n >= 3; both are kept so the difference can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

GRANT_FREE = "gf"
STATIC = "static"
OPT_INVERSE = "opt-inv"
OPT_LITERAL = "opt-lit"


@dataclass(frozen=True)
class AcbPolicy:
    kind: str
    p: float = 1.0  # used by the static policy only

    def __post_init__(self):
        if self.kind not in (GRANT_FREE, STATIC, OPT_INVERSE, OPT_LITERAL):
            raise ConfigError(f"unknown barring policy {self.kind!r}")
        if self.kind == STATIC and not 0.0 <= self.p <= 1.0:
            raise ConfigError("static barring factor must lie in [0, 1]")

    @property
    def label(self) -> str:
        return f"static:{self.p:g}" if self.kind == STATIC else self.kind


def parse_policy(text: str) -> AcbPolicy:
    """Parse 'gf' | 'static:<p>' | 'opt-inv' | 'opt-lit'."""
    if text.startswith("static:"):
        return AcbPolicy(STATIC, float(text.split(":", 1)[1]))
    return AcbPolicy(text)


def collided_factors(policy: AcbPolicy, collided: np.ndarray) -> np.ndarray:
    """Pass probability of each channel holding the given count (>= 2) of contenders."""
    if policy.kind == GRANT_FREE:
        return np.ones(collided.shape)
    if policy.kind == STATIC:
        return np.full(collided.shape, policy.p)
    if policy.kind == OPT_INVERSE:
        return 1.0 / collided
    return 1.0 - 1.0 / collided  # opt-lit


def acb_factors(policy: AcbPolicy, counts) -> np.ndarray:
    """Pass probability broadcast per channel, given its contender count.

    Idle and singleton channels always get 1 regardless of policy.
    """
    counts = np.asarray(counts)
    if counts.size and counts.min() < 0:
        raise ValueError("contender count must be non-negative")
    factors = np.ones(counts.shape)
    loaded = counts >= 2
    factors[loaded] = collided_factors(policy, counts[loaded])
    return factors


def acb_round(counts, factors, rng: np.random.Generator) -> np.ndarray:
    """Per channel, how many of its contenders pass their channel's factor.

    Only channels with a factor below 1 draw, so a round without barring
    consumes no randomness and returns ``counts`` itself.
    """
    counts, factors = np.asarray(counts), np.asarray(factors)
    barring = factors < 1.0
    drawing = np.count_nonzero(barring)
    if not drawing:
        return counts
    if drawing == barring.size:  # the same draws as through the mask, without the copy
        return rng.binomial(counts, factors)
    survivors = counts.copy()
    survivors[barring] = rng.binomial(counts[barring], factors[barring])
    return survivors
