"""Frame-by-frame execution of the predict / slice / contend access scheme.

Every frame runs the same four steps: the base station predicts the per-mode
backlog and broadcasts a slicing plan; active UEs each pick one channel of
their mode uniformly at random; the station broadcasts per-channel barring
factors and colliding UEs draw against them; channels with exactly one
remaining UE carry a decoded packet. Everyone else (collided, barred, or out
of channels) retries next frame. Under the grant-free policy the barring step
degenerates to a no-op, so success means being alone on the channel already
at selection time.

A point's realizations run as lanes in lockstep; their rows fill one (lanes,
frames, FrameResult fields) integer table, the history the estimates read and
the metrics are reduced from. PointConstants holds what a frame reads,
resolved once per point. A lane's state is four ints, its active and failed
UEs per class; run_frame advances it by one frame, drawing from the lane's
generator the mMTC arrivals, the URLLC arrivals, then per class with
channels, URLLC first, the selection tally and, under a barring policy, one
uniform per collided channel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np
import numpy.random  # noqa: F401 - numpy loads it lazily; load it once, before pool workers fork

from .acb import GRANT_FREE, AcbPolicy, barred_outcomes, parse_policy
from .errors import ConfigError, check_scalar_fields
from .metrics import channel_loading, normalized_throughput
from .predictor import (
    FrameResult,
    LstmPredictor,
    cold_start_prior,
    load_predictor,
    naive_predict,
    observation_floor,
    predict_backlogs,
)
from .slicing import GridConfig, fixed_grid_slice, mmtc_room, urllc_room
from .traffic import (
    TrafficConfig,
    sample_mmtc_arrivals,
    sample_urllc_arrivals,
    update_backlog,
    urllc_activation_profile,
)


PERFECT, NAIVE, LSTM = "perfect", "naive", "lstm"
MAXRECT, FIXED, COUNTS = "maxrect", "fixed", "counts"


class PredictorSpec(NamedTuple):
    """The ``predictor`` setting, parsed; model_path is set for lstm only."""

    kind: str
    model_path: str = ""

    @property
    def label(self) -> str:
        """The setting as parse_predictor reads it."""
        return f"{self.kind}:{self.model_path}" if self.model_path else self.kind


class SlicerSpec(NamedTuple):
    """The ``slicer`` setting, parsed; counts is (l_u, l_m) for counts, () or (l_u,) for fixed."""

    kind: str
    counts: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        """The setting as parse_slicer reads it, each count in decimal."""
        return f"{self.kind}:{','.join(map(str, self.counts))}" if self.counts else self.kind


def parse_predictor(text: str) -> PredictorSpec:
    """Parse 'perfect' | 'naive' | 'lstm:<model path>'."""
    kind, sep, path = text.partition(":")
    if kind == LSTM and path:
        return PredictorSpec(kind, path)
    if kind in (PERFECT, NAIVE) and not sep:
        return PredictorSpec(kind)
    raise ConfigError(f"{text!r} is not perfect, naive or lstm:<model path>")


def parse_slicer(text: str) -> SlicerSpec:
    """Parse 'maxrect' | 'fixed[:<l_u>]' | 'counts:<l_u>,<l_m>'."""
    kind, _, arg = text.partition(":")
    fields = arg.split(",") if arg else []
    arities = {MAXRECT: (0,), FIXED: (0, 1), COUNTS: (2,)}.get(kind, ())
    if len(fields) not in arities or not all(f.isdecimal() for f in fields):
        raise ConfigError(
            f"{text!r} is not maxrect, fixed[:<l_u>] or counts:<l_u>,<l_m> "
            "with non-negative integer counts"
        )
    return SlicerSpec(kind, tuple(int(f) for f in fields))


_SETTINGS = (
    ("acb", AcbPolicy, parse_policy),
    ("predictor", PredictorSpec, parse_predictor),
    ("slicer", SlicerSpec, parse_slicer),
)


@dataclass(frozen=True)
class SimulationConfig:
    """The parameter set of a run.

    acb, predictor and slicer may be given as text; it is parsed once, here,
    and stored as the setting's typed form.
    """

    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    acb: AcbPolicy = AcbPolicy(GRANT_FREE)
    predictor: PredictorSpec = PredictorSpec(PERFECT)
    slicer: SlicerSpec = SlicerSpec(MAXRECT)
    frames: int = 1200
    realizations: int = 1
    seed: int = 1
    t_w: int = 10                # frames of history the lstm predictor reads
    steady_fraction: float = 0.2

    def __post_init__(self):
        check_scalar_fields(self)
        if self.frames < 1:
            raise ConfigError("frames must be >= 1")
        if self.realizations < 1:
            raise ConfigError("realizations must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.t_w < 1:
            raise ConfigError("t_w must be >= 1")
        if not 0.0 < self.steady_fraction <= 1.0:
            raise ConfigError("steady_fraction must lie in (0, 1]")
        for name, kind, parse in _SETTINGS:
            value = getattr(self, name)
            if isinstance(value, str):
                try:
                    object.__setattr__(self, name, parse(value))
                except ConfigError as exc:
                    raise ConfigError(f"{name}: {exc}") from None
            elif not isinstance(value, kind):
                raise ConfigError(f"{name} must be a string, not {value!r}")

    @property
    def steady_start(self) -> int:
        """First frame of the steady-state window, the final steady_fraction of the run.

        The window holds ceil(frames * steady_fraction) frames, with the
        fraction read as the decimal its repr writes (0.9 is 9/10), in integers:
        400 frames at 0.9 keep 360, where 400 * (1 - 0.9) in floats gives 39.99...
        """
        # repr as digits / 10**scale, scale >= 0; a Fraction would load decimal: +0.5 MiB peak RSS
        mantissa, _, exponent = repr(self.steady_fraction).partition("e")
        whole, _, decimals = mantissa.partition(".")
        digits, scale = int(whole + decimals), len(decimals) - int(exponent or 0)
        window = -(-self.frames * digits // 10**scale)  # ceil(frames * steady_fraction)
        return self.frames - window


@functools.cache
def _uniform_pvals(n_channels: int) -> np.ndarray:
    """Selection probabilities 1/n over n channels, built once per channel count."""
    pvals = np.full(n_channels, 1.0 / n_channels)
    pvals.flags.writeable = False
    return pvals


def contend_uniform(
    n_ues: int, n_channels: int, policy: AcbPolicy, rng: np.random.Generator
) -> tuple[int, int]:
    """One mode's selection and barring round: (served, collided) channel counts.

    After barring, a channel with exactly one UE left is served, one with two
    or more collided, and the other n_channels - served - collided are idle.
    With zero channels everything is 0 and all UEs fail this frame.
    """
    if n_channels == 0:
        return 0, 0
    tally = rng.multinomial(n_ues, _uniform_pvals(n_channels)).tolist()
    served = tally.count(1)
    collided = n_channels - served - tally.count(0)
    if collided and policy.bars:  # idle and singleton channels are never barred
        alone, emptied = barred_outcomes(policy, tally, collided, rng)
        served += alone
        collided -= alone + emptied
    return served, collided


class PointConstants(NamedTuple):
    """What every frame of a point reads, resolved once, before its first frame."""

    traffic: TrafficConfig
    profile: tuple[float, ...]    # urllc_activation_profile(traffic)
    policy: AcbPolicy
    pool: tuple[int, int] | None  # (l_u, l_m) of a fixed or counts slicer; None under maxrect
    grid: GridConfig
    room_u: int                   # urllc_room(grid) under maxrect

    @classmethod
    def of(cls, cfg: SimulationConfig) -> PointConstants:
        """The constants of cfg's frames."""
        (kind, counts), grid = cfg.slicer, cfg.grid
        pool = counts if kind == COUNTS else None
        if kind == FIXED:
            plan = fixed_grid_slice(grid, *counts)
            pool = (plan.l_u, plan.l_m)
        room_u = urllc_room(grid) if kind == MAXRECT else 0
        return cls(cfg.traffic, urllc_activation_profile(cfg.traffic), cfg.acb, pool, grid, room_u)

    def plan(self, k_hat_u: int, k_hat_m: int) -> tuple[int, int]:
        """Channel counts (l_u, l_m) of maxrect_slice(grid, k_hat_u, k_hat_m), from the rooms."""
        l_u = min(k_hat_u, self.room_u)
        return l_u, min(k_hat_m, mmtc_room(self.grid, l_u))


def run_frame(
    lane: list[int], t: int, estimate: tuple[int, int] | None, point: PointConstants, rng
) -> tuple[int, ...]:
    """Advance one lane by frame t; its FrameResult fields, as a plain tuple.

    ``lane``, updated in place, is [active_u, active_m, failed_u, failed_m] of the
    last frame. ``estimate`` is a naive or LSTM lane's (k_hat_u, k_hat_m), None for perfect.
    """
    active_u, active_m, retry_u, retry_m = lane
    traffic = point.traffic
    arrivals_m = sample_mmtc_arrivals(traffic, t, rng)
    arrivals_u = sample_urllc_arrivals(traffic, t, rng, point.profile)
    new_m, new_u = update_backlog(active_m, active_u, arrivals_m, arrivals_u,
                                  retry_m, retry_u, traffic)
    active_u, active_m = new_u + retry_u, new_m + retry_m
    k_hat_u, k_hat_m = estimate or (active_u, active_m)
    l_u, l_m = point.pool or point.plan(k_hat_u, k_hat_m)
    served_u, collided_u = contend_uniform(active_u, l_u, point.policy, rng)
    served_m, collided_m = contend_uniform(active_m, l_m, point.policy, rng)
    lane[:] = active_u, active_m, active_u - served_u, active_m - served_m
    return (new_u, new_m, retry_u, retry_m, k_hat_u, k_hat_m,
            l_u, l_m, served_u, served_m, collided_u, collided_m)


def resolve_model(cfg: SimulationConfig, loaded: dict | None = None) -> LstmPredictor | None:
    """The LSTM predictor of cfg, checked against it; None for other predictors.

    It is read from the model file of cfg.predictor, once per path into
    ``loaded``, the cache a sweep keeps for its points. A model made for
    another window length or other class populations is refused: its window
    would be cut to the wrong length, and its estimates, scaled by the
    populations it was trained at, would clamp to them.
    """
    if cfg.predictor.kind != LSTM:
        return None
    path = cfg.predictor.model_path
    loaded = {} if loaded is None else loaded
    if path not in loaded:
        loaded[path] = load_predictor(path)
    lstm = loaded[path]
    for name, have, want in (
        ("t_w", lstm.t_w, cfg.t_w),
        ("traffic.k_u", lstm.population_u, cfg.traffic.k_u),
        ("traffic.k_m", lstm.population_m, cfg.traffic.k_m),
    ):
        if have != want:
            raise ConfigError(f"model file {path}: model has {name} {have}, the config {want}")
    return lstm


def run_lanes(
    cfg: SimulationConfig,
    rngs: list[np.random.Generator],
    lstm: LstmPredictor | None = None,
) -> np.ndarray:
    """Realizations in lockstep, one lane per generator: their (lanes, frames, fields) table.

    Row [i, t] is run_frame's row of lane i and frame t, and the table is the
    only history a predictor reads. A lane draws from its own generator only,
    so it draws exactly what it draws run alone. An estimate reads only rows
    before its frame, so each is set before the lanes run the frame: naive
    reads each lane's last row, and one LSTM forward pass the last t_w rows
    of every lane, each then raised to the observation_floor of the lane's
    last row. ``lstm`` is the checked model from run_points, or read here.
    """
    if lstm is None:
        lstm = resolve_model(cfg)
    point, perfect = PointConstants.of(cfg), cfg.predictor.kind == PERFECT
    lanes = [[0, 0, 0, 0] for _ in rngs]
    table = np.empty((len(rngs), cfg.frames, len(FrameResult._fields)), np.int64)
    k_u, k_m, prior = cfg.traffic.k_u, cfg.traffic.k_m, cold_start_prior(cfg.traffic)
    estimates = [None if perfect else prior] * len(rngs)  # frame 0 takes the prior
    for t in range(cfg.frames):
        if t and not perfect:
            if lstm is None:
                estimates = [naive_predict(row, k_u, k_m, prior) for row in rows]
            else:
                estimates = predict_backlogs(lstm, table[:, max(0, t - cfg.t_w) : t])
                estimates = observation_floor(estimates, rows, k_u, k_m)
        rows = [run_frame(lane, t, e, point, rng) for lane, e, rng in zip(lanes, estimates, rngs)]
        table[:, t] = rows
    return table


def run_simulation(cfg: SimulationConfig, rng: np.random.Generator | None = None) -> np.ndarray:
    """One realization of cfg.frames frames with persistent backlog: its (frames, fields) table."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    return run_lanes(cfg, [rng])[0]


def realization_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Counter-split sub-seed: independent of order and of the total count."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))


METRIC_COLUMNS = (
    "eta",
    "cl_u",
    "cl_m",
    "served_u",
    "served_m",
    "backlog_u",
    "backlog_m",
    "l_u",
    "l_m",
    "collisions_u",
    "collisions_m",
)


def realization_metrics(
    cfg: SimulationConfig, block: range, lstm: LstmPredictor | None = None
) -> np.ndarray:
    """Run the realizations of `block` as lanes in lockstep: their per-frame metrics.

    The array has shape (columns, lanes, frames), columns in METRIC_COLUMNS
    order and lane i for realization block[i].
    ``lstm`` is passed on to run_lanes: the checked model, carried into a pool worker.
    """
    rngs = [np.random.default_rng(realization_seed(cfg.seed, i)) for i in block]
    fr = FrameResult(*np.moveaxis(run_lanes(cfg, rngs, lstm), -1, 0))  # fields over lanes, frames
    active_u, active_m = fr.active_u, fr.active_m
    return np.array((
        normalized_throughput(fr.served_u, fr.served_m, fr.l_u, fr.l_m),
        *channel_loading(active_u, active_m, fr.l_u, fr.l_m),
        fr.served_u,
        fr.served_m,
        active_u,
        active_m,
        fr.l_u,
        fr.l_m,
        fr.collided_u,
        fr.collided_m,
    ))


def nanmean_quiet(data, axis=None):
    """nanmean that treats an all-NaN slice as NaN without a warning."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanmean(data, axis=axis)


@dataclass
class MonteCarloResult:
    """A point's per-frame metrics: shape (columns, realizations, frames), METRIC_COLUMNS order."""

    metrics: np.ndarray
    cfg: SimulationConfig

    @property
    def stacks(self) -> dict[str, np.ndarray]:
        """Each column's (realizations, frames) view of metrics, by name."""
        return dict(zip(METRIC_COLUMNS, self.metrics))


def lane_blocks(realizations: int, parts: int) -> list[range]:
    """Indices 0 .. realizations - 1 cut into at most `parts` contiguous blocks.

    Block sizes differ by at most one.
    """
    parts = max(1, min(parts, realizations))
    return [range(i * realizations // parts, (i + 1) * realizations // parts) for i in range(parts)]


def run_points(cfgs: list[SimulationConfig], workers: int = 1) -> Iterator[MonteCarloResult]:
    """The one sweep runner: yields each config's realizations, merged in index order.

    Each model file is read once and checked against every config in the
    call, before the caller can make or write anything. Serially a point runs
    as one block of lanes. With workers > 1 and two or more realizations in
    all, every point's realizations go to one process pool as at most
    `workers` contiguous blocks each, all submitted before the first result
    is collected; lanes draw as if run alone, so the split changes no result.
    On an error, or when the caller closes the generator, tasks not yet
    started are cancelled. concurrent.futures is imported only for a pool, so
    serial runs never load it.
    """
    loaded = {}
    models = [resolve_model(cfg, loaded) for cfg in cfgs]
    if workers <= 1 or sum(cfg.realizations for cfg in cfgs) < 2:
        return (
            MonteCarloResult(realization_metrics(cfg, range(cfg.realizations), lstm), cfg)
            for cfg, lstm in zip(cfgs, models)
        )
    return _pooled_points(cfgs, models, workers)


def _pooled_points(cfgs, models, workers) -> Iterator[MonteCarloResult]:
    """run_points' pooled path, started on the first point."""
    from concurrent.futures import ProcessPoolExecutor

    blocks = [lane_blocks(cfg.realizations, workers) for cfg in cfgs]
    # no more processes than blocks: the pool starts all of them on the first submit
    with ProcessPoolExecutor(max_workers=min(workers, sum(map(len, blocks)))) as pool:
        try:
            pending = [
                [pool.submit(realization_metrics, cfg, block, lstm) for block in cfg_blocks]
                for cfg, lstm, cfg_blocks in zip(cfgs, models, blocks)
            ]
            for cfg, futures in zip(cfgs, pending):
                yield MonteCarloResult(np.concatenate([f.result() for f in futures], axis=1), cfg)
                futures.clear()  # free the blocks: pending lives to the end of the sweep
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_monte_carlo(cfg: SimulationConfig, workers: int = 1) -> MonteCarloResult:
    """cfg.realizations independent runs, merged in index order."""
    (result,) = run_points([cfg], workers)
    return result
