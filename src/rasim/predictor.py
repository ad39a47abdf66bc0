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

import numpy as np

from .lstm import LstmModel, lstm_forward
from .traffic import BacklogState, TrafficConfig, expected_arrivals_per_frame

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

    def normalized_window(self, mode: str) -> np.ndarray:
        """(len, 3) array of state fractions; zero rows for zero-channel frames."""
        rows = []
        for obs in self._window:
            s, c, i = obs.triplet(mode)
            total = s + c + i
            rows.append((s / total, c / total, i / total) if total else (0.0, 0.0, 0.0))
        return np.array(rows)


def record_observation(hist: ObservationHistory, obs: Observation) -> ObservationHistory:
    """Append obs to the window, evicting the oldest entry when full."""
    if len(hist) and obs.frame_index <= hist.last.frame_index:
        raise ValueError(
            f"observation frame {obs.frame_index} not after {hist.last.frame_index}"
        )
    hist._window.append(obs)
    return hist


@dataclass(frozen=True)
class PredictionResult:
    k_hat_u: int
    k_hat_m: int

    @property
    def k_hat(self) -> int:
        return self.k_hat_u + self.k_hat_m


def cold_start_prior(cfg: TrafficConfig) -> PredictionResult:
    """Rounded long-run mean arrivals: the estimate made without an observation."""
    mean_u, mean_m = expected_arrivals_per_frame(cfg)
    return PredictionResult(round(mean_u), round(mean_m))


def perfect_predict(state: BacklogState) -> PredictionResult:
    """Ground-truth backlog, for perfect-prediction experiments."""
    return PredictionResult(state.active_u, state.active_m)


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


@dataclass
class LstmPredictor:
    """Trained per-mode models plus the constants needed to denormalize."""

    model_u: LstmModel
    model_m: LstmModel
    population_u: int
    population_m: int
    t_w: int = 10


def predict_backlog(predictor: LstmPredictor, hist: ObservationHistory) -> PredictionResult:
    """Run both class models over the window; round and clamp to population."""
    if not len(hist):
        raise ValueError("history is empty")
    raw_u = lstm_forward(predictor.model_u, hist.normalized_window("urllc"))
    raw_m = lstm_forward(predictor.model_m, hist.normalized_window("mmtc"))
    k_u = max(0, min(predictor.population_u, round(raw_u * predictor.population_u)))
    k_m = max(0, min(predictor.population_m, round(raw_m * predictor.population_m)))
    return PredictionResult(k_u, k_m)


def training_pairs(observations, backlog_u, backlog_m, t_w, population_u, population_m):
    """Turn one simulated trace into per-mode (window, normalized target) pairs.

    The window ending at frame t-1 is paired with the backlog of frame t,
    matching what the predictor must do online.
    """
    if not (len(observations) == len(backlog_u) == len(backlog_m)):
        raise ValueError("trace columns must have equal length")
    hist = ObservationHistory(t_w)
    pairs_u, pairs_m = [], []
    for t, obs in enumerate(observations):
        if len(hist) == t_w:
            pairs_u.append((hist.normalized_window("urllc"), backlog_u[t] / population_u))
            pairs_m.append((hist.normalized_window("mmtc"), backlog_m[t] / population_m))
        record_observation(hist, obs)
    return pairs_u, pairs_m


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
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model file (expected '{MODEL_FORMAT_VERSION}')")
    t_w = int(lines[1].split()[1])
    pos = 2
    models, pops = {}, {}
    while pos < len(lines):
        head = lines[pos].split()
        if head[0] != "class":
            raise ValueError(f"malformed model file at line {pos + 1}")
        tag, pop = head[1], int(head[3])
        pos += 1
        arrays = {}
        for _ in range(5):
            aname, rows, cols = lines[pos].split()[1:4]
            rows, cols = int(rows), int(cols)
            block = [
                [float(v) for v in lines[pos + 1 + r].split()] for r in range(rows)
            ]
            arrays[aname] = np.array(block)
            pos += 1 + rows
        models[tag] = LstmModel(
            w_x=arrays["w_x"],
            w_h=arrays["w_h"],
            b=arrays["b"].ravel(),
            w_out=arrays["w_out"].ravel(),
            b_out=float(arrays["b_out"][0, 0]),
        )
        pops[tag] = pop
    if set(models) != {"u", "m"}:
        raise ValueError("model file must contain exactly one model per class")
    return LstmPredictor(models["u"], models["m"], pops["u"], pops["m"], t_w)
