"""Access class barring: per-channel pass probabilities and the barring draw.

After preamble selection the base station knows how many UEs landed on each
channel and broadcasts a barring factor; every colliding UE draws a uniform
number and proceeds only if it does not exceed the factor. A UE alone on its
channel always proceeds.

The frame needs only whether a collided channel ends with 0, 1 or more
contenders, so the barring draw samples that outcome directly: one uniform
per collided channel, against the closed-form probabilities that 0 or 1 of
its k contenders pass a factor f, (1-f)^k and k f (1-f)^(k-1). This is the
exact distribution of barring each contender on its own.

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
    kind, sep, factor = text.partition(":")
    if kind != STATIC or not sep:
        return AcbPolicy(text)
    try:
        p = float(factor)
    except ValueError:
        raise ConfigError(f"static barring factor {factor!r} is not a number") from None
    return AcbPolicy(STATIC, p)


def collided_factors(policy: AcbPolicy, loaded: list[int]) -> list[float]:
    """Pass probability of each channel holding the given count (>= 2) of contenders."""
    if policy.kind == GRANT_FREE:
        return [1.0] * len(loaded)
    if policy.kind == STATIC:
        return [policy.p] * len(loaded)
    if policy.kind == OPT_INVERSE:
        return [1.0 / k for k in loaded]
    return [1.0 - 1.0 / k for k in loaded]  # opt-lit


def collided_outcomes(
    policy: AcbPolicy, loaded: list[int], rng: np.random.Generator
) -> tuple[int, int]:
    """(alone, emptied): how many collided channels barring leaves with one UE, and with none.

    ``loaded`` holds the contender count k (>= 2) of each collided channel, in
    channel order; a channel counted in neither stays collided. Grant-free and
    a static factor of 1 bar nobody: they draw nothing and return (0, 0). Every
    other policy draws one uniform u per channel, in channel order, in one
    ``rng.random`` call. With the channel's factor f, it ends empty if
    u < (1-f)^k, alone if u < (1-f)^k + k f (1-f)^(k-1), and collided
    otherwise: the Binomial(k, f) survivor count, classed as 0, 1 or more.
    """
    if not policy.bars:
        return 0, 0
    alone = emptied = 0
    draws = rng.random(len(loaded)).tolist()
    for k, f, u in zip(loaded, collided_factors(policy, loaded), draws):
        q = 1.0 - f
        rest_barred = q ** (k - 1)  # one pow per channel: (1-f)^k is this times q
        empty = rest_barred * q
        if u < empty:
            emptied += 1
        elif u < empty + k * f * rest_barred:
            alone += 1
    return alone, emptied
