"""Backlog estimation from observed channel states.

The base station never sees the backlog directly, only how many channels of
each mode ended a frame in success, collision or idle state. Each frame's
outcome is one integer row with the fields of FrameResult: the served and
collided channel counts and the slice among them, so the idle count is
l - served - collided. A point's rows are one (lanes, frames, fields) table,
a trace is one lane's, and a window of history is a slice of it, oldest frame
first. Three predictors are provided: the trained LSTM pair (one model per
use mode), whose estimates the engine raises to the observation_floor of the
last frame; a moment-matching baseline that inverts the idle fraction of the
last frame; and, for the perfect-knowledge experiments, the true backlog,
which the engine reads itself.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, read_text
from .lstm import LstmModel, lstm_forward, stack_models, unstack_model
from .traffic import TrafficConfig, expected_arrivals_per_frame

MODEL_FORMAT_VERSION = "rasim-lstm v1"


class FrameResult(NamedTuple):
    """One frame's counts, per mode: the backlog, the estimate, the slice and its outcome.

    The frame's active UEs are its new arrivals plus its retries; after
    barring, served channels carried one UE, collided ones two or more, and
    the other channels of the slice ended idle.
    """

    new_u: int
    new_m: int
    retry_u: int
    retry_m: int
    k_hat_u: int
    k_hat_m: int
    l_u: int
    l_m: int
    served_u: int
    served_m: int
    collided_u: int
    collided_m: int

    @property
    def active_u(self) -> int:
        return self.new_u + self.retry_u

    @property
    def active_m(self) -> int:
        return self.new_m + self.retry_m


# the columns of a FrameResult's served, collided and channel counts, URLLC then mMTC
_OUTCOME = [
    FrameResult._fields.index(f"{name}_{mode}")
    for mode in "um"
    for name in ("served", "collided", "l")
]
_outcome_counts = itemgetter(*_OUTCOME)  # those six counts of one row, as a tuple


def state_fractions(table: np.ndarray) -> np.ndarray:
    """(..., 2, frames, 3) success/collision/idle fractions per class, URLLC first.

    table holds FrameResult rows, shape (..., frames, fields). Each frame's
    (served, collided, idle) triplet is divided by that frame's channel count
    of the class; a frame without channels of the class gives a zero row.
    """
    counts = table[..., _OUTCOME].reshape(*table.shape[:-1], 2, 3)
    channels = np.maximum(counts[..., 2:], 1)  # a class without channels has no counts
    counts[..., 2] -= counts[..., 0] + counts[..., 1]  # the idle channels
    return (counts / channels).swapaxes(-3, -2)


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
    if idle_count == channels:  # also every single-channel frame with an idle channel
        return 0
    n = math.log(idle_count / channels) / math.log(1.0 - 1.0 / channels)
    return max(0, min(population, round(n)))


def naive_predict(
    row, population_u: int, population_m: int, prior: PredictionResult
) -> PredictionResult:
    """Moment-based baseline using only the last frame's FrameResult row.

    A mode without channels in that frame takes ``prior``: 0 would keep it
    without channels, and so unobserved, for good.
    """
    counts = _outcome_counts(row)
    out = []
    for (served, collided, channels), pop, fallback in zip(
        (counts[:3], counts[3:]), (population_u, population_m), prior
    ):
        idle = channels - served - collided
        out.append(estimate_from_idle(idle, channels, pop) if channels else fallback)
    return PredictionResult(out[0], out[1])


def observation_floor(
    estimates: list[PredictionResult], rows, population_u: int, population_m: int
) -> list[PredictionResult]:
    """Each lane's estimate raised to the fewest UEs its last frame's outcome allows.

    rows holds each lane's last FrameResult row. A served channel carried one
    UE and a collided one at least two, so per class at least
    min(population, served + 2 * collided) UEs contended.
    """
    return [
        PredictionResult(max(k_u, min(population_u, served_u + 2 * collided_u)),
                         max(k_m, min(population_m, served_m + 2 * collided_m)))
        for (k_u, k_m), (served_u, collided_u, _, served_m, collided_m, _)
        in zip(estimates, map(_outcome_counts, rows))
    ]


class LstmPredictor:
    """Both class models, of one hidden size, as one stack (URLLC first), plus
    the constants needed to denormalize.

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
        self.population_u = population_u
        self.population_m = population_m
        self.t_w = t_w

    @property
    def model_u(self) -> LstmModel:
        return unstack_model(self.stack, 0)

    @property
    def model_m(self) -> LstmModel:
        return unstack_model(self.stack, 1)


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


def predict_backlogs(predictor: LstmPredictor, window: np.ndarray) -> list[PredictionResult]:
    """Each lane's estimate from its rows of window, a (lanes, frames, fields) table slice.

    One forward pass; each equals the estimate of its lane passed alone, exactly.
    """
    return predict_windows(predictor, state_fractions(window))


def training_pairs(trace: np.ndarray, t_w, population_u, population_m):
    """Windows and targets of one trace, a (frames, fields) table of more than t_w rows.

    Returns x of shape (2, n, t_w, 3) and y of shape (2, n), URLLC first,
    with n = frames - t_w: window j holds the state fractions of frames
    j .. j + t_w - 1 and is paired with the normalized backlog of frame
    j + t_w, its active counts, matching what the predictor must do online.
    x is a read-only view of the trace's fraction table.
    """
    if not 0 < t_w < len(trace):
        raise ValueError(f"a trace of {len(trace)} frames has no window of t_w={t_w}")
    x = sliding_window_view(state_fractions(trace)[:, :-1], t_w, axis=1).swapaxes(-1, -2)
    targets = FrameResult(*trace[t_w:].T)
    backlog = np.array([targets.active_u, targets.active_m], float)
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

    A malformed or truncated file, one with a weight that is not finite, or
    one whose classes differ in hidden size raises ConfigError naming the
    file and the line at fault.
    """
    lines = read_text(path).splitlines()
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
            if not all(map(math.isfinite, block[-1])):
                raise ValueError(f"array {name} holds a value that is not finite")
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
            if h < 1 or any(model.hidden_size != h for model in models.values()):
                raise ValueError("hidden must be >= 1, and the same in both classes")
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
