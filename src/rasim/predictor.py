"""Backlog estimation from observed channel states.

The base station never sees the backlog directly, only how many channels of
each mode ended a frame in success, collision or idle state. These triplets
form the observation; a sliding window of them is the history a predictor
works from. Three predictors are provided: the trained LSTM pair (one model
per use mode), a moment-matching baseline that inverts the idle fraction, and
the ground-truth oracle used for the perfect-knowledge experiments.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError
from .lstm import LstmModel, lstm_forward, stack_models, unstack_model
from .traffic import TrafficConfig, expected_arrivals_per_frame

MODEL_FORMAT_VERSION = "rasim-lstm v1"


@dataclass(frozen=True)
class Observation:
    """Per-mode channel-state counts (success, collision, idle) for one frame."""

    v_s_u: int
    v_c_u: int
    v_i_u: int
    v_s_m: int
    v_c_m: int
    v_i_m: int
    frame_index: int

    @property
    def l_u(self) -> int:
        return self.v_s_u + self.v_c_u + self.v_i_u

    @property
    def l_m(self) -> int:
        return self.v_s_m + self.v_c_m + self.v_i_m

    def triplet(self, mode: str) -> tuple[int, int, int]:
        if mode == "urllc":
            return self.v_s_u, self.v_c_u, self.v_i_u
        return self.v_s_m, self.v_c_m, self.v_i_m


class ObservationHistory:
    """Sliding window of the last t_w observations, oldest first."""

    def __init__(self, t_w: int = 10):
        if t_w < 1:
            raise ValueError("window size must be >= 1")
        self.t_w = t_w
        self._window: deque[Observation] = deque(maxlen=t_w)

    def __len__(self):
        return len(self._window)

    @property
    def window(self) -> tuple[Observation, ...]:
        return tuple(self._window)

    @property
    def last(self) -> Observation:
        return self._window[-1]


_COUNTS = attrgetter("v_s_u", "v_c_u", "v_i_u", "v_s_m", "v_c_m", "v_i_m")


def state_fractions(observations, lanes: int = 0) -> np.ndarray:
    """(2, frames, 3) success/collision/idle fractions per class, URLLC first.

    Each frame's triplet is divided by that frame's channel count of the
    class; a frame without channels of the class gives a zero row. Given
    lanes, the observations are that many equally long windows, one after
    another, and the result is (lanes, 2, frames, 3).
    """
    counts = np.array(list(map(_COUNTS, observations)), dtype=float)
    counts = counts.reshape(*((lanes,) if lanes else ()), -1, 2, 3).swapaxes(-3, -2)
    total = counts.sum(axis=-1, keepdims=True)
    return np.divide(counts, total, out=np.zeros(counts.shape), where=total > 0)


def record_observation(hist: ObservationHistory, obs: Observation) -> ObservationHistory:
    """Append obs to the window, evicting the oldest entry when full."""
    if len(hist) and obs.frame_index <= hist.last.frame_index:
        raise ValueError(
            f"observation frame {obs.frame_index} not after {hist.last.frame_index}"
        )
    hist._window.append(obs)
    return hist


class PredictionResult(NamedTuple):
    k_hat_u: int
    k_hat_m: int


def cold_start_prior(cfg: TrafficConfig) -> PredictionResult:
    """Rounded long-run mean arrivals: the estimate made without an observation."""
    mean_u, mean_m = expected_arrivals_per_frame(cfg)
    # at least 1 for a class with devices: 0 would give it no channels, so
    # the class would go unobserved, and without channels, for good
    return PredictionResult(
        max(round(mean_u), min(cfg.k_u, 1)), max(round(mean_m), min(cfg.k_m, 1))
    )


def perfect_predict(active_u: int, active_m: int) -> tuple[int, int]:
    """Ground-truth backlog, for perfect-prediction experiments: a plain pair."""
    return active_u, active_m


def invert_idle_fraction(idle_fraction: float, channels: int) -> float:
    """Solve (1 - 1/L)^n = idle_fraction for n (users on L channels)."""
    if channels < 2:
        raise ValueError("inversion needs at least two channels")
    if not 0.0 < idle_fraction <= 1.0:
        raise ValueError("idle fraction must lie in (0, 1]")
    return math.log(idle_fraction) / math.log(1.0 - 1.0 / channels)


def estimate_from_idle(idle_count: int, channels: int, population: int) -> int:
    """Invert the idle fraction of a uniform-selection frame.

    With n users on L channels the expected idle fraction is (1 - 1/L)^n, so
    n is recovered as log(idle/L) / log(1 - 1/L). Zero idle channels map to
    the population cap.
    """
    if channels < 1:
        raise ValueError("need at least one channel")
    if not 0 <= idle_count <= channels:
        raise ValueError("idle count out of range")
    if idle_count == 0:
        return population
    if idle_count == channels:
        return 0
    if channels == 1:
        return 0  # single idle channel: nobody transmitted
    n = invert_idle_fraction(idle_count / channels, channels)
    return max(0, min(population, round(n)))


def naive_predict(
    hist: ObservationHistory, population_u: int, population_m: int, prior: PredictionResult
) -> PredictionResult:
    """Moment-based baseline using only the latest observation per mode.

    A mode without channels in that frame takes ``prior``: 0 would keep it
    without channels, and so unobserved, for good.
    """
    if not len(hist):
        raise ValueError("history is empty")
    obs = hist.last
    out = []
    for mode, pop, fallback in (
        ("urllc", population_u, prior.k_hat_u),
        ("mmtc", population_m, prior.k_hat_m),
    ):
        s, c, i = obs.triplet(mode)
        total = s + c + i
        out.append(estimate_from_idle(i, total, pop) if total else fallback)
    return PredictionResult(out[0], out[1])


class LstmPredictor:
    """Both class models as one stack (URLLC first), plus the constants needed
    to denormalize.

    The stack is built once, here, and holds the only copy of the weights;
    ``model_u`` and ``model_m`` read each class model back out of it.
    """

    def __init__(
        self,
        model_u: LstmModel,
        model_m: LstmModel,
        population_u: int,
        population_m: int,
        t_w: int = 10,
    ):
        self.stack = stack_models((model_u, model_m))
        self.hidden = (model_u.hidden_size, model_m.hidden_size)
        self.population_u = population_u
        self.population_m = population_m
        self.t_w = t_w

    @property
    def model_u(self) -> LstmModel:
        return unstack_model(self.stack, 0, self.hidden[0])

    @property
    def model_m(self) -> LstmModel:
        return unstack_model(self.stack, 1, self.hidden[1])


def check_predictor_matches(
    predictor: LstmPredictor, t_w: int, traffic: TrafficConfig, source: str
):
    """Refuse a model made for another window length or other class populations.

    Its window would be cut to the wrong length, and its estimates, scaled
    by the populations it was trained at, would clamp to them.
    """
    for name, have, want in (
        ("t_w", predictor.t_w, t_w),
        ("traffic.k_u", predictor.population_u, traffic.k_u),
        ("traffic.k_m", predictor.population_m, traffic.k_m),
    ):
        if have != want:
            raise ConfigError(f"{source}: model has {name} {have}, the config {want}")


def predict_windows(predictor: LstmPredictor, windows: np.ndarray) -> list[PredictionResult]:
    """Estimates for windows (lanes, 2, t, 3) of state fractions, in one forward pass.

    Both class models run over every lane's window; each raw estimate is
    scaled to its class population, rounded and clamped to it.
    """
    pops = (predictor.population_u, predictor.population_m)
    return [
        PredictionResult(*(max(0, min(pop, round(raw * pop))) for raw, pop in zip(row, pops)))
        for row in lstm_forward(predictor.stack, windows).tolist()
    ]


def predict_backlogs(predictor: LstmPredictor, hists) -> list[PredictionResult]:
    """The estimate of each of several equally long histories, in one forward pass.

    Each equals predict_backlog of its history alone, exactly.
    """
    length = len(hists[0])
    if not length:
        raise ValueError("history is empty")
    if any(len(hist) != length for hist in hists):
        raise ValueError("histories must be equally long")
    observations = [obs for hist in hists for obs in hist._window]
    return predict_windows(predictor, state_fractions(observations, len(hists)))


def predict_backlog(predictor: LstmPredictor, hist: ObservationHistory) -> PredictionResult:
    """Run both class models over the window in one pass; round and clamp to population."""
    return predict_backlogs(predictor, (hist,))[0]


def training_pairs(observations, backlog_u, backlog_m, t_w, population_u, population_m):
    """Turn one simulated trace of more than t_w frames into windows and targets.

    Returns x of shape (2, n, t_w, 3) and y of shape (2, n), URLLC first,
    with n = frames - t_w: window j holds the state fractions of frames
    j .. j + t_w - 1 and is paired with the normalized backlog of frame
    j + t_w, matching what the predictor must do online. x is a read-only
    view of the trace's fraction table.
    """
    if not (len(observations) == len(backlog_u) == len(backlog_m)):
        raise ValueError("trace columns must have equal length")
    if not 0 < t_w < len(observations):
        raise ValueError(f"a trace of {len(observations)} frames has no window of t_w={t_w}")
    fractions = state_fractions(observations)[:, :-1]
    x = sliding_window_view(fractions, t_w, axis=1).swapaxes(-1, -2)
    backlog = np.array([backlog_u[t_w:], backlog_m[t_w:]], dtype=float)
    return x, backlog / np.array([[population_u], [population_m]])


def _write_array(lines: list[str], name: str, arr: np.ndarray):
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    lines.append(f"array {name} {arr.shape[0]} {arr.shape[1]}")
    for row in arr:
        lines.append(" ".join(repr(float(v)) for v in row))


def save_predictor(predictor: LstmPredictor, path):
    """Write both models to a self-describing text file (see README).

    Layout: version line, window size, then per class one header line
    ``class <u|m> population <P> hidden <H>`` followed by the five named
    arrays (shape line, then row-major values with full float precision).
    Identical models always produce identical bytes.
    """
    lines = [MODEL_FORMAT_VERSION, f"t_w {predictor.t_w}"]
    for tag, model, pop in (
        ("u", predictor.model_u, predictor.population_u),
        ("m", predictor.model_m, predictor.population_m),
    ):
        lines.append(f"class {tag} population {pop} hidden {model.hidden_size}")
        for name, arr in model.param_items():
            _write_array(lines, name, arr)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_predictor(path) -> LstmPredictor:
    """Read a file written by save_predictor.

    A malformed or truncated file raises ConfigError naming the file and the
    line at fault.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    line = 0  # number of the line being read

    def fields(keyword: str, count: int) -> list[str]:
        """The count words after keyword on the next line."""
        nonlocal line
        line += 1
        if line > len(lines):
            raise ValueError(f"file ends, expected '{keyword}'")
        words = lines[line - 1].split()
        if words[:1] != [keyword] or len(words) != count + 1:
            raise ValueError(f"expected '{keyword}' and {count} value(s)")
        return words[1:]

    def array(name: str, rows: int, cols: int) -> np.ndarray:
        nonlocal line
        if fields("array", 3) != [name, str(rows), str(cols)]:
            raise ValueError(f"expected 'array {name} {rows} {cols}'")
        block = []
        for _ in range(rows):
            line += 1
            if line > len(lines):
                raise ValueError(f"file ends inside array {name}")
            block.append([float(v) for v in lines[line - 1].split()])
            if len(block[-1]) != cols:
                raise ValueError(f"array {name} needs {cols} values per row")
        return np.array(block)

    try:
        if fields("rasim-lstm", 1) != ["v1"]:
            raise ValueError(f"unsupported model file (expected '{MODEL_FORMAT_VERSION}')")
        t_w = int(fields("t_w", 1)[0])
        if t_w < 1:
            raise ValueError("t_w must be >= 1")
        models, pops = {}, {}
        while line < len(lines):
            tag, w_pop, pop, w_hidden, h = fields("class", 5)
            h = int(h)
            header = (w_pop, w_hidden) == ("population", "hidden")
            if tag not in ("u", "m") or tag in models or not header:
                raise ValueError("expected 'class <u|m> population <P> hidden <H>', once per class")
            if h < 1:
                raise ValueError("hidden must be >= 1")
            pops[tag] = int(pop)
            models[tag] = LstmModel(
                w_x=array("w_x", 4 * h, 3),
                w_h=array("w_h", 4 * h, h),
                b=array("b", 1, 4 * h).ravel(),
                w_out=array("w_out", 1, h).ravel(),
                b_out=float(array("b_out", 1, 1)[0, 0]),
            )
        if set(models) != {"u", "m"}:
            line += 1
            raise ValueError("file ends, expected one model per class (u and m)")
    except ValueError as exc:
        raise ConfigError(f"malformed model file {path}, line {line}: {exc}") from None
    return LstmPredictor(models["u"], models["m"], pops["u"], pops["m"], t_w)
