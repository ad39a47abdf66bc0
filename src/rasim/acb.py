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

from .errors import ConfigError, check_scalar_fields

GRANT_FREE = "gf"
STATIC = "static"
OPT_INVERSE = "opt-inv"
OPT_LITERAL = "opt-lit"


@dataclass(frozen=True)
class AcbPolicy:
    kind: str
    p: float = 1.0  # used by the static policy only

    def __post_init__(self):
        check_scalar_fields(self)
        if self.kind not in (GRANT_FREE, STATIC, OPT_INVERSE, OPT_LITERAL):
            raise ConfigError(f"unknown barring policy {self.kind!r}")
        if self.kind == STATIC and not 0.0 <= self.p <= 1.0:
            raise ConfigError("static barring factor must lie in [0, 1]")
        if self.kind != STATIC and self.p != 1.0:
            raise ConfigError(f"barring policy {self.kind!r} takes no factor")

    @property
    def bars(self) -> bool:
        """Whether a collided UE can be barred: every policy but grant-free and static 1."""
        return not (self.kind == GRANT_FREE or (self.kind == STATIC and self.p == 1.0))

    @property
    def label(self) -> str:
        """The policy as parse_policy reads it; repr keeps every digit of p."""
        return f"static:{float(self.p)!r}" if self.kind == STATIC else self.kind


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


def collided_survivors(policy: AcbPolicy, loaded, rng: np.random.Generator):
    """How many contenders of each collided channel pass the policy's factor.

    ``loaded`` holds the contender count (>= 2) of each collided channel, in
    channel order. Grant-free and a static factor of 1 bar nobody: they draw
    nothing and return ``loaded`` itself. Every other policy draws one
    binomial per channel, in channel order.
    """
    if not policy.bars:
        return loaded
    if policy.kind == STATIC:
        return rng.binomial(loaded, policy.p)
    return rng.binomial(loaded, collided_factors(policy, loaded))
