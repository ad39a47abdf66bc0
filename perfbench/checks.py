"""Output checks whose expectations are computed apart from rasim.

The expectations come from the model's definition, not from rasim's code:
uniform channel choice, a per-channel barring factor, and decoding of a
channel with exactly one survivor; the packet sizing formula
ceil((8p / log2 m + xi) / nu); the packer's documented box ladder; and the
LSTM equations. Each function returns a list of problems, empty when the
output passes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

Z_LIMIT = 5.0  # standard errors a success-count residual mean may stray from 0
TOL = 1e-9
FIXED_CHANNEL_WIDTH = 16  # RBs of one fixed:<l_u> baseline channel
MMTC_LADDER_WIDTHS = (1, 2, 4, 8)  # mMTC box widths; length is ceil(iota / width)


def packet_rbs(p_bytes: int, m_order: int, xi: int, nu: int) -> int:
    """Whole RBs one packet needs: ceil((8p / log2 m + xi) / nu)."""
    return math.ceil((8.0 * p_bytes / math.log2(m_order) + xi) / nu)


def grid_iotas(grid: dict) -> tuple[int, int]:
    return (packet_rbs(grid["p_u"], grid["m_u"], grid["xi"], grid["nu"]),
            packet_rbs(grid["p_m"], grid["m_m"], grid["xi"], grid["nu"]))


# --- success counts ------------------------------------------------------


def single_survivor(policy: str, k: np.ndarray) -> np.ndarray:
    """q(k): probability that exactly one of k contenders passes barring.

    q(0) = 0, q(1) = 1 and q(k) = k f (1 - f)^(k - 1) for k >= 2, with f the
    policy's pass factor for k contenders.
    """
    k = np.asarray(k, dtype=float)
    q = np.where(k == 1, 1.0, 0.0)
    many = k >= 2
    km = k[many]
    if policy == "gf":
        f = np.ones_like(km)
    elif policy.startswith("static:"):
        f = np.full_like(km, float(policy.split(":", 1)[1]))
    elif policy == "opt-inv":
        f = 1.0 / km
    elif policy == "opt-lit":
        f = 1.0 - 1.0 / km
    else:
        raise ValueError(f"unknown barring policy {policy!r}")
    q[many] = km * f * (1.0 - f) ** (km - 1.0)
    return q


def expected_successes(n: int, channels: int, policy: str) -> float:
    """E[S | n, L] = L * sum_k Binom(k; n, 1/L) q(k), summed over +-12 sd."""
    if n == 0 or channels == 0:
        return 0.0
    if channels == 1:
        return float(single_survivor(policy, np.array([n]))[0])
    p = 1.0 / channels
    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
    k = np.arange(max(0, int(mean - 12 * sd) - 10), min(n, int(mean + 12 * sd) + 10) + 1,
                  dtype=float)
    log_pmf = (gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
               + k * math.log(p) + (n - k) * math.log1p(-p))
    return float(channels * np.sum(np.exp(log_pmf) * single_survivor(policy, k)))


def success_residual_z(served, active, channels, policy: str) -> float:
    """z-score of the mean residual served - E[S | n, L] over all frames.

    Frame by frame the residuals have conditional mean zero. The variance is
    the larger of the residuals' own sum of squares and the sum of
    independent-channel variances E(1 - E/L), so that frames where E is tiny
    and S is always 0 do not shrink the error to nothing.
    """
    served, active, channels = (np.asarray(a, dtype=np.int64).ravel()
                                for a in (served, active, channels))
    pairs, inverse = np.unique(np.stack([active, channels], axis=1), axis=0,
                               return_inverse=True)
    expect = np.array([expected_successes(int(n), int(l), policy) for n, l in pairs])
    e = expect[inverse.ravel()]
    r = served - e
    var = np.where(channels > 0, e * (1.0 - e / np.maximum(channels, 1)), 0.0)
    denom = math.sqrt(max(float(np.sum(r * r)), float(np.sum(var))))
    total = float(np.sum(r))
    if denom == 0.0:
        return 0.0 if abs(total) < TOL else math.inf
    return total / denom


def residual_problems(stacks: dict, policy: str) -> list[str]:
    out = []
    for mode in ("u", "m"):
        served, active, chans = (stacks[f"{c}_{mode}"] for c in ("served", "backlog", "l"))
        if np.any((chans == 0) & (served != 0)):
            out.append(f"served_{mode} > 0 on a frame with no channels")
        z = success_residual_z(served, active, chans, policy)
        if not abs(z) <= Z_LIMIT:
            out.append(f"served_{mode} residual mean at {z:.2f} standard errors")
    return out


# --- exported CSVs -------------------------------------------------------


def csv_problems(path: str, cfg: dict, frames: int) -> list[str]:
    """Frames 0..frames-1 and inequalities that hold on the per-frame means of
    an exported point CSV."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    col = dict(zip(header, data.T))
    out = []
    if data.shape[0] != frames or not np.array_equal(col["frame"], np.arange(frames)):
        out.append(f"expected frames 0..{frames - 1}")
        return out
    for m in ("u", "m"):
        served, backlog, chans, coll = (col[f"{c}_{m}"] for c in
                                        ("served", "backlog", "l", "collisions"))
        if np.any(served < -TOL) or np.any(coll < -TOL):
            out.append(f"negative count in mode {m}")
        if np.any(served > backlog + TOL):
            out.append(f"served_{m} > backlog_{m}")
        if np.any(served + coll > chans + TOL):
            out.append(f"served_{m} + collisions_{m} > l_{m}")
    eta = col["eta"]
    if np.any(eta[np.isfinite(eta)] < -TOL) or np.any(eta[np.isfinite(eta)] > 1 + TOL):
        out.append("eta outside [0, 1]")
    l_u, l_m = col["l_u"], col["l_m"]
    grid = cfg["grid"]
    kind, _, arg = cfg["slicer"].partition(":")
    if kind == "counts":
        a, b = (int(v) for v in arg.split(","))
        if not (np.all(l_u == a) and np.all(l_m == b)):
            out.append(f"channel counts differ from counts:{arg}")
    elif kind == "fixed":
        total = (grid["f"] // FIXED_CHANNEL_WIDTH) * grid["s"]
        a = min(int(arg), total)
        if not (np.all(l_u == a) and np.all(l_m == total - a)):
            out.append(f"channel counts differ from the {total}-channel fixed tiling")
    else:
        iota_u, iota_m = grid_iotas(grid)
        if np.any(iota_u * l_u + iota_m * l_m > grid["f"] * grid["s"] + TOL):
            out.append("channels exceed the grid area")
    return out


# --- packer geometry -----------------------------------------------------


def _fits(occupied: np.ndarray, width: int, length: int) -> bool:
    """Whether a width x length box fits anywhere in the free cells."""
    f_size, s_size = occupied.shape
    if width > f_size or length > s_size:
        return False
    cs = np.zeros((f_size + 1, s_size + 1), dtype=np.int64)
    cs[1:, 1:] = occupied.cumsum(0).cumsum(1)
    used = (cs[width:, length:] - cs[:-width, length:]
            - cs[width:, :-length] + cs[:-width, :-length])
    return bool(np.any(used == 0))


def plan_problems(plan, grid: dict, k_u: int, k_m: int) -> list[str]:
    """Geometry of one maxrect plan for demand (k_u, k_m)."""
    f_size, s_size = grid["f"], grid["s"]
    iota = dict(zip(("urllc", "mmtc"), grid_iotas(grid)))
    occ = np.zeros((f_size, s_size), dtype=np.int64)
    count = {"urllc": 0, "mmtc": 0}
    out = []
    for c in plan.channels:
        if c.use_mode not in count:
            out.append(f"channel {c.id}: unknown mode {c.use_mode!r}")
            continue
        count[c.use_mode] += 1
        if (c.f_len < 1 or c.s_len < 1 or c.f_start < 0 or c.s_start < 0
                or c.f_start + c.f_len > f_size or c.s_start + c.s_len > s_size):
            out.append(f"channel {c.id} out of bounds")
            continue
        occ[c.f_start:c.f_start + c.f_len, c.s_start:c.s_start + c.s_len] += 1
        if c.use_mode == "urllc" and c.s_len != 1:
            out.append(f"URLLC channel {c.id} spans {c.s_len} slots")
        if c.f_len * c.s_len < iota[c.use_mode]:
            out.append(f"channel {c.id} area {c.f_len * c.s_len} < {iota[c.use_mode]}")
    if np.any(occ > 1):
        out.append("channels overlap")
    if count["urllc"] > k_u or count["mmtc"] > k_m:
        out.append("more channels than asked for")
    free = (occ > 0).astype(np.int64)
    if count["urllc"] < k_u and _fits(free, iota["urllc"], 1):
        out.append("URLLC short of demand though a strip still fits")
    ladder = [(w, math.ceil(iota["mmtc"] / w)) for w in MMTC_LADDER_WIDTHS]
    if count["mmtc"] < k_m and any(_fits(free, w, h) for w, h in ladder):
        out.append("mMTC short of demand though a ladder box still fits")
    return out


# --- LSTM forward --------------------------------------------------------


def read_model(path: str) -> tuple[int, dict]:
    """Parse a model file: (t_w, {tag: {population, hidden, arrays...}})."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[0] != "rasim-lstm v1":
        raise ValueError("unexpected model header")
    t_w = int(lines[1].split()[1])
    models, pos = {}, 2
    while pos < len(lines):
        _, tag, _, pop, _, hidden = lines[pos].split()
        model = {"population": int(pop), "hidden": int(hidden)}
        pos += 1
        for _ in range(5):
            _, name, rows, cols = lines[pos].split()
            block = [[float(v) for v in lines[pos + 1 + r].split()] for r in range(int(rows))]
            model[name] = np.array(block).reshape(int(rows), int(cols))
            pos += 1 + int(rows)
        models[tag] = model
    return t_w, models


def lstm_reference(model: dict, window: np.ndarray) -> float:
    """Forget / input / output / candidate LSTM over the window, linear head,
    clamped to [0, 1]."""
    hdim = model["hidden"]
    w_x, w_h, b = model["w_x"], model["w_h"], model["b"].ravel()
    h, c = np.zeros(hdim), np.zeros(hdim)
    for x in window:
        a = w_x @ x + w_h @ h + b
        f, i, o = (1.0 / (1.0 + np.exp(-a[j * hdim:(j + 1) * hdim])) for j in range(3))
        c = f * c + i * np.tanh(a[3 * hdim:])
        h = o * np.tanh(c)
    y = float(model["w_out"].ravel() @ h + model["b_out"].ravel()[0])
    return min(max(y, 0.0), 1.0)


def sample_windows(rng: np.random.Generator, count: int, t_w: int) -> list[np.ndarray]:
    """Windows of channel-state fractions; about one row in eight is a
    zero-channel frame (all zeros)."""
    out = []
    for _ in range(count):
        w = rng.dirichlet(np.ones(3), size=t_w)
        w[rng.random(t_w) < 0.125] = 0.0
        out.append(w)
    return out
