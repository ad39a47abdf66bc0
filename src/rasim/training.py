"""Offline training of the backlog predictor from simulated traces.

Traces are produced by the grant-free engine (no barring round) so the
channel states reflect raw contention, then cut into (window, next backlog)
pairs per use mode. Each target backlog is a frame's active count, read from
the trace's table of FrameResult rows. Validation always happens on a trace
the models never saw, and the moment-matching baseline is scored on the same
held-out frames for a like-for-like comparison.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .engine import SimulationConfig, run_simulation
from .errors import ConfigError
from .lstm import lstm_train
from .metrics import predictor_mse
from .predictor import (
    FrameResult,
    LstmPredictor,
    cold_start_prior,
    naive_predict,
    predict_windows,
    training_pairs,
)


def generate_trace(cfg: SimulationConfig, frames: int, seed: int) -> np.ndarray:
    """Grant-free trace, a (frames, fields) table; its active counts are the true backlogs."""
    trace_cfg = dataclasses.replace(
        cfg,
        acb="gf",
        predictor="perfect",
        frames=frames,
        seed=seed,
    )
    return run_simulation(trace_cfg)


@dataclass
class TrainingReport:
    train_mse_u: float
    train_mse_m: float
    val_mse_u: float
    val_mse_m: float
    naive_mse_u: float
    naive_mse_m: float
    epochs: int
    samples: int


def train_backlog_predictor(
    cfg: SimulationConfig, samples: int = 1000, epochs: int = 100
) -> tuple[LstmPredictor, TrainingReport]:
    """Train both class models and score them against the naive baseline.

    Sample counts refer to usable windows; the generated traces are longer by
    the warm-up window, and the held-out trace has a fifth as many windows
    (at least one). Both models train in lockstep, as one stack, each from
    its own generator. Everything is seeded from cfg.seed, so the same config
    yields byte-identical serialized models.
    """
    if samples < 1:
        raise ConfigError("need at least one training sample")
    if epochs < 1:
        raise ConfigError("epochs must be >= 1")
    tc = cfg.traffic
    val_samples = max(1, samples // 5)

    trace = generate_trace(cfg, samples + cfg.t_w, seed=cfg.seed)
    x, y = training_pairs(trace, cfg.t_w, tc.k_u, tc.k_m)

    rngs = [
        np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(key,)))
        for key in (101, 102)
    ]
    (model_u, model_m), (hist_u, hist_m) = lstm_train(
        (x, y), epochs, learning_rate=1e-2, rng=rngs, hidden_size=20
    )
    predictor = LstmPredictor(model_u, model_m, tc.k_u, tc.k_m, cfg.t_w)

    v_trace = generate_trace(cfg, val_samples + cfg.t_w, seed=cfg.seed + 7919)
    lstm_pred, naive_pred, truth = _score_on_trace(predictor, cfg, v_trace)
    report = TrainingReport(
        train_mse_u=hist_u[-1],
        train_mse_m=hist_m[-1],
        val_mse_u=predictor_mse(lstm_pred[0], truth.active_u, tc.k_u),
        val_mse_m=predictor_mse(lstm_pred[1], truth.active_m, tc.k_m),
        naive_mse_u=predictor_mse(naive_pred[0], truth.active_u, tc.k_u),
        naive_mse_m=predictor_mse(naive_pred[1], truth.active_m, tc.k_m),
        epochs=epochs,
        samples=x.shape[1],
    )
    return predictor, report


def _score_on_trace(predictor: LstmPredictor, cfg: SimulationConfig, trace: np.ndarray):
    """Both estimators' (2, frames) estimates over one held-out trace, URLLC first, and the truth.

    Every frame after the first t_w is predicted from the t_w frames before
    it; the LSTM scores all those windows as lanes of one forward pass. The
    truth is the predicted frames' rows, read by column.
    """
    tc = cfg.traffic
    windows, _ = training_pairs(trace, cfg.t_w, tc.k_u, tc.k_m)
    lstm_est = predict_windows(predictor, windows.swapaxes(0, 1))
    prior = cold_start_prior(tc)
    # the naive estimate reads the last frame only
    rows = trace[cfg.t_w - 1 : -1].tolist()
    naive_est = [naive_predict(row, tc.k_u, tc.k_m, prior) for row in rows]
    return np.array(lstm_est).T, np.array(naive_est).T, FrameResult(*trace[cfg.t_w :].T)
