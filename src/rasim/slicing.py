"""Partitioning of the frequency-time resource grid into access channels.

The grid is F frequency resource blocks by S time slots. Each channel is one
contiguous rectangle of blocks dedicated to a single use mode. URLLC channels
are always one slot long (latency rule); mMTC channels are shaped as
numerology boxes: doubling the subcarrier spacing doubles the box width in
frequency and roughly halves its length in time, at constant symbol capacity.

Packing uses the maximal-rectangles bottom-left heuristic: keep the set of all
maximal free rectangles, place each box at the lowest-frequency (then earliest
slot) feasible corner, split and prune the free set afterwards.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ConfigError, check_scalar_fields

URLLC = "urllc"
MMTC = "mmtc"

FIXED_CHANNEL_WIDTH = 16  # frequency RBs of one baseline (no-slicing) channel

# mMTC box ladder tried at each candidate corner, narrowest first. Widths are
# k * 2^mu with mu capped at 2; the final step doubles the mu=2 width (k=2),
# which keeps the width a multiple of 2^mu while reaching a two-slot footprint.
_MMTC_WIDTH_LADDER = ((1, 0), (2, 1), (4, 2), (8, 2))


@dataclass(frozen=True)
class GridConfig:
    """Grid geometry and packet formats."""

    f: int = 50             # frequency RBs per frame
    s: int = 10             # time slots per frame
    nu: int = 14            # OFDM symbols per RB
    p_u: int = 32           # URLLC packet size, bytes
    p_m: int = 200          # mMTC packet size, bytes
    m_u: int = 4            # URLLC modulation order
    m_m: int = 256          # mMTC modulation order
    xi: int = 5             # protocol overhead, symbols

    def __post_init__(self):
        check_scalar_fields(self)
        if min(self.f, self.s, self.nu) < 1:
            raise ConfigError("f, s and nu must be >= 1")
        for name, m in (("m_u", self.m_u), ("m_m", self.m_m)):
            if m < 2 or m & (m - 1):
                raise ConfigError(f"{name} must be a power of 2 and >= 2")
        if self.p_u <= 0 or self.p_m <= 0 or self.xi < 0:
            raise ConfigError("p_u and p_m must be positive and xi >= 0")


@dataclass(frozen=True)
class ChannelAssignment:
    """One channel: a rectangle of RBs with a use mode and numerology factor."""

    id: int
    use_mode: str
    mu: int
    f_start: int
    f_len: int
    s_start: int
    s_len: int

    @property
    def area(self) -> int:
        return self.f_len * self.s_len

    def overlaps(self, other: "ChannelAssignment") -> bool:
        return (
            self.f_start < other.f_start + other.f_len
            and other.f_start < self.f_start + self.f_len
            and self.s_start < other.s_start + other.s_len
            and other.s_start < self.s_start + self.s_len
        )


@dataclass(frozen=True)
class SlicingPlan:
    """Channel set for one frame plus the grid it was drawn on."""

    channels: tuple[ChannelAssignment, ...]
    f_size: int
    s_size: int

    @property
    def l_u(self) -> int:
        return sum(1 for c in self.channels if c.use_mode == URLLC)

    @property
    def l_m(self) -> int:
        return sum(1 for c in self.channels if c.use_mode == MMTC)


@dataclass
class Violation:
    constraint: str          # well-formed | single-slot | numerology | overlap | capacity
    channel_ids: tuple
    detail: str


def packet_size_rbs(p_bytes: int, m_order: int, xi: int, nu: int) -> tuple[float, int]:
    """Resource demand of one packet: (symbols, whole RBs).

    Symbols = 8*bytes / bits-per-symbol + overhead; the RB count is ceiled so a
    packed channel always covers the full symbol demand.
    """
    if p_bytes <= 0 or m_order < 2 or xi < 0 or nu < 1:
        raise ValueError("invalid packet parameters")
    symbols = 8.0 * p_bytes / math.log2(m_order) + xi
    return symbols, math.ceil(symbols / nu)


def _iota_rbs(cfg: GridConfig) -> tuple[int, int]:
    _, iota_u = packet_size_rbs(cfg.p_u, cfg.m_u, cfg.xi, cfg.nu)
    _, iota_m = packet_size_rbs(cfg.p_m, cfg.m_m, cfg.xi, cfg.nu)
    return iota_u, iota_m


class FreeRectSet:
    """All maximal free rectangles of a partially packed grid.

    Rectangles are (f_start, f_len, s_start, s_len) tuples. After each
    placement every intersecting free rectangle is split into up to four
    maximal remainders and contained rectangles are pruned, so the set stays
    exactly the maximal rectangles of the free region.
    """

    def __init__(self, f_size: int, s_size: int):
        self.rects: list[tuple[int, int, int, int]] = (
            [(0, f_size, 0, s_size)] if f_size > 0 and s_size > 0 else []
        )

    def place(self, bf: int, bw: int, bs: int, bh: int):
        """Carve the box (bf, bw, bs, bh) out of the free region."""
        bf2, bs2 = bf + bw, bs + bh
        out = []
        for (rf, rw, rs, rh) in self.rects:
            rf2, rs2 = rf + rw, rs + rh
            if bf >= rf2 or bf2 <= rf or bs >= rs2 or bs2 <= rs:
                out.append((rf, rw, rs, rh))
                continue
            if bf > rf:
                out.append((rf, bf - rf, rs, rh))
            if bf2 < rf2:
                out.append((bf2, rf2 - bf2, rs, rh))
            if bs > rs:
                out.append((rf, rw, rs, bs - rs))
            if bs2 < rs2:
                out.append((rf, rw, bs2, rs2 - bs2))
        self.rects = _prune_contained(out)

    def bottom_left_fit(self, shapes) -> tuple[int, int, int, int, int] | None:
        """First (box, corner) along the bottom-left order that hosts a shape.

        Corners are visited lowest frequency first, then earliest slot; at each
        corner the shapes are tried in ladder order. Returns
        (f, width, s, length, mu) or None when nothing fits anywhere.
        """
        for (rf, rw, rs, rh) in sorted(self.rects, key=lambda r: (r[0], r[2], r[1], r[3])):
            for (w, h, mu) in shapes:
                if w <= rw and h <= rh:
                    return rf, w, rs, h, mu
        return None


def _prune_contained(rects):
    rects = sorted(set(rects), key=lambda r: (-r[1] * r[3], r))
    kept: list[tuple[int, int, int, int]] = []
    for r in rects:
        rf, rw, rs, rh = r
        contained = any(
            kf <= rf and kf + kw >= rf + rw and ks <= rs and ks + kh >= rs + rh
            for (kf, kw, ks, kh) in kept
        )
        if not contained:
            kept.append(r)
    return kept


def mmtc_box_ladder(iota_rbs: int) -> tuple[tuple[int, int, int], ...]:
    """Candidate mMTC box shapes (width, length, mu), narrowest first."""
    return tuple(
        (w, math.ceil(iota_rbs / w), mu) for (w, mu) in _MMTC_WIDTH_LADDER
    )


def maxrect_slice(cfg: GridConfig, k_hat_u: int, k_hat_m: int) -> SlicingPlan:
    """Pack up to k_hat_u URLLC and k_hat_m mMTC channels into the grid.

    URLLC channels go first as single-slot strips of the full packet width.
    mMTC channels then walk the bottom-left corners, escalating through the
    numerology box ladder whenever the current shape does not fit, and stop
    once the demand is met or no shape fits anywhere. Returns fewer channels
    than requested when space runs out.
    """
    if k_hat_u < 0 or k_hat_m < 0:
        raise ValueError("channel demands must be non-negative")
    iota_u, iota_m = _iota_rbs(cfg)
    free = FreeRectSet(cfg.f, cfg.s)
    channels: list[ChannelAssignment] = []
    _place(free, channels, URLLC, ((iota_u, 1, 0),), k_hat_u)
    _place(free, channels, MMTC, mmtc_box_ladder(iota_m), k_hat_m)
    return SlicingPlan(tuple(channels), cfg.f, cfg.s)


def _place(free: FreeRectSet, channels: list[ChannelAssignment], mode: str, shapes, demand: int):
    """Append up to demand channels of one mode at bottom-left fits of shapes.

    Stops once the demand is met or no shape fits anywhere.
    """
    for _ in range(demand):
        if (spot := free.bottom_left_fit(shapes)) is None:
            break
        f, w, s, h, mu = spot
        free.place(f, w, s, h)
        channels.append(ChannelAssignment(len(channels), mode, mu, f, w, s, h))


@functools.cache
def urllc_room(cfg: GridConfig) -> int:
    """URLLC channels the packer places when the URLLC demand is unbounded.

    The packer places URLLC strips, then mMTC boxes, in an order that does not
    depend on the demand, so maxrect_slice(cfg, k_u, k_m) holds
    l_u = min(k_u, urllc_room(cfg)) URLLC and min(k_m, mmtc_room(cfg, l_u))
    mMTC channels. mmtc_room is not monotone in l_u, so both come from the
    packer, called through this module's global name.
    """
    iota_u, _ = _iota_rbs(cfg)
    return maxrect_slice(cfg, cfg.f * cfg.s // iota_u + 1, 0).l_u


@functools.cache
def mmtc_room(cfg: GridConfig, l_u: int) -> int:
    """mMTC channels the packer places after l_u URLLC strips, mMTC demand unbounded."""
    _, iota_m = _iota_rbs(cfg)
    return maxrect_slice(cfg, l_u, cfg.f * cfg.s // iota_m + 1).l_m


def fixed_grid_slice(cfg: GridConfig, l_u: int = 5) -> SlicingPlan:
    """Baseline without slicing: tile identical 16-RB x 1-slot channels.

    The first l_u channels in bottom-left order are labelled URLLC, the rest
    mMTC. A grid narrower than one channel yields an empty plan, which signals
    the infeasible tiling.
    """
    per_slot = cfg.f // FIXED_CHANNEL_WIDTH
    channels = []
    for f_idx in range(per_slot):
        for s in range(cfg.s):
            cid = len(channels)
            channels.append(
                ChannelAssignment(
                    cid,
                    URLLC if cid < l_u else MMTC,
                    0,
                    f_idx * FIXED_CHANNEL_WIDTH,
                    FIXED_CHANNEL_WIDTH,
                    s,
                    1,
                )
            )
    return SlicingPlan(tuple(channels), cfg.f, cfg.s)


def validate_constraints(plan: SlicingPlan, cfg: GridConfig) -> list[Violation]:
    """Check a plan against the assignment rules; empty list means valid.

    Covers rectangle well-formedness (binary, contiguous, in-bounds), the
    URLLC single-slot rule, numerology width multiplicity, pairwise
    disjointness, and per-packet capacity.
    """
    iota_u, iota_m = _iota_rbs(cfg)
    out: list[Violation] = []
    for c in plan.channels:
        if (
            c.f_len < 1
            or c.s_len < 1
            or c.f_start < 0
            or c.s_start < 0
            or c.f_start + c.f_len > plan.f_size
            or c.s_start + c.s_len > plan.s_size
        ):
            out.append(Violation("well-formed", (c.id,), "rectangle empty or out of grid"))
        if c.use_mode == URLLC and c.s_len != 1:
            out.append(Violation("single-slot", (c.id,), f"URLLC channel spans {c.s_len} slots"))
        if c.mu not in (0, 1, 2) or c.f_len % (1 << c.mu):
            out.append(
                Violation("numerology", (c.id,), f"width {c.f_len} not a multiple of 2^{c.mu}")
            )
        iota = iota_u if c.use_mode == URLLC else iota_m
        if c.area < iota:
            out.append(
                Violation("capacity", (c.id,), f"area {c.area} below packet demand {iota}")
            )
    chans = plan.channels
    for i in range(len(chans)):
        for j in range(i + 1, len(chans)):
            if chans[i].overlaps(chans[j]):
                out.append(
                    Violation("overlap", (chans[i].id, chans[j].id), "rectangles intersect")
                )
    return out


_ID_CHARS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def plan_dump_lines(plan: SlicingPlan) -> list[str]:
    """One CSV-ish line per channel: id,mode,mu,f_start,f_len,s_start,s_len."""
    return [
        f"{c.id},{c.use_mode},{c.mu},{c.f_start},{c.f_len},{c.s_start},{c.s_len}"
        for c in plan.channels
    ]


def render_plan_grid(plan: SlicingPlan) -> str:
    """ASCII view of the grid, one row per time slot, one char per RB.

    Channels print as their id mod 62 in 0-9a-zA-Z, free blocks as '.'.
    """
    rows = [["."] * plan.f_size for _ in range(plan.s_size)]
    for c in plan.channels:
        ch = _ID_CHARS[c.id % 62]
        for s in range(c.s_start, c.s_start + c.s_len):
            for f in range(c.f_start, c.f_start + c.f_len):
                rows[s][f] = ch
    return "\n".join("".join(r) for r in rows)
