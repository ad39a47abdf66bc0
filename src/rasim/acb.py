"""Access class barring: per-channel pass probabilities and the barring draw.

After preamble selection the base station knows how many UEs landed on each
channel and broadcasts a barring factor; every colliding UE draws a uniform
number and proceeds only if it does not exceed the factor. A UE alone on its
channel always proceeds.

The frame needs only whether a collided channel ends with 0, 1 or more
contenders, so the barring draw samples that outcome directly: one uniform
per collided channel, against the closed-form probabilities that 0 or 1 of
its k contenders pass a factor f, (1-f)^k and k f (1-f)^(k-1). This is the
exact distribution of barring each contender on its own. The two thresholds
depend only on the policy and k: for k below TABLE_CAP they are read from a
table per policy, filled once by the expression a channel past it computes.

Two "optimal" flavours are shipped: ``opt-inv`` passes each of n colliders
with probability 1/n (maximizes the chance that exactly one survives) and
``opt-lit`` with probability 1 - 1/n (the literal collision-thinning rule).
They disagree for n >= 3; both are kept so the difference can be measured.
"""

from __future__ import annotations

import functools
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

    def __reduce__(self):  # pickle the fields only, not the cached tables
        return AcbPolicy, (self.kind, self.p)

    @functools.cached_property
    def bars(self) -> bool:
        """Whether a collided UE can be barred: every policy but grant-free and static 1."""
        return not (self.kind == GRANT_FREE or (self.kind == STATIC and self.p == 1.0))

    @functools.cached_property
    def thresholds(self) -> tuple[memoryview, memoryview]:
        """The policy's _threshold_table, looked up on its first draw."""
        return _threshold_table(self)

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


def barring_factor(policy: AcbPolicy, k: int) -> float:
    """Pass probability of a channel holding k >= 2 contenders."""
    if policy.kind == GRANT_FREE:
        return 1.0
    if policy.kind == STATIC:
        return policy.p
    if policy.kind == OPT_INVERSE:
        return 1.0 / k
    return 1.0 - 1.0 / k  # opt-lit


def _thresholds(policy: AcbPolicy, k: int) -> tuple[float, float]:
    """(empty, alone): a channel of k contenders ends empty if u < empty, alone if u < alone.

    With the channel's factor f these are (1-f)^k and (1-f)^k + k f (1-f)^(k-1),
    in Python floats.
    """
    f = barring_factor(policy, k)
    q = 1.0 - f
    rest_barred = q ** (k - 1)  # (1-f)^k is this times q
    empty = rest_barred * q
    return empty, empty + k * f * rest_barred


# Contender counts below this read their thresholds from a table per policy:
# 2 x 8 bytes x TABLE_CAP per policy, built on the policy's first draw. fig4's
# busiest channels hold ~1640 contenders; a channel at or past the cap (fig5
# has some) computes its own thresholds with _thresholds.
TABLE_CAP = 2048


@functools.cache  # equal policies hash alike, so they share one table
def _threshold_table(policy: AcbPolicy) -> tuple[memoryview, memoryview]:
    """(empty, alone) thresholds of policy at index k, for every k in 2 .. TABLE_CAP - 1.

    Each is a flat buffer of C doubles, which hold a Python float exactly.
    """
    empty_at = memoryview(bytearray(8 * TABLE_CAP)).cast("d")
    alone_at = memoryview(bytearray(8 * TABLE_CAP)).cast("d")
    for k in range(2, TABLE_CAP):
        empty_at[k], alone_at[k] = _thresholds(policy, k)
    return empty_at, alone_at


def barred_outcomes(policy: AcbPolicy, counts: list[int], collided: int, rng) -> tuple[int, int]:
    """(alone, emptied): how many collided channels barring leaves with one UE, and with none.

    ``counts`` is the selection tally, each channel's contender count k in
    channel order, and ``collided`` how many channels have k >= 2; only those
    are barred, and one counted in neither stays collided. Grant-free and a
    static factor of 1 bar nobody, so the caller draws only if ``policy.bars``.
    This draws one uniform u per collided channel, in channel order, in one
    ``rng.random`` call, and classes the channel by the _thresholds of its k:
    empty if u < empty, alone if u < alone.
    """
    draws = iter(rng.random(collided).tolist())
    empty_at, alone_at = policy.thresholds
    alone = emptied = 0
    for k in counts:
        if k < 2:
            continue
        u = next(draws)
        try:
            if u < empty_at[k]:
                emptied += 1
            elif u < alone_at[k]:
                alone += 1
        except IndexError:  # a count past the table: its thresholds from the rule
            empty, below_alone = _thresholds(policy, k)
            emptied += u < empty
            alone += empty <= u < below_alone
    return alone, emptied
