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
from numpy.lib.stride_tricks import sliding_window_view

from .engine import SimulationConfig, run_simulation
from .errors import ConfigError
from .lstm import lstm_train
from .metrics import predictor_mse
from .predictor import (
    FrameResult,
    LstmPredictor,
    cold_start_prior,
    naive_predict,
    predict_backlogs,
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


def train_backlog_predictor(
    cfg: SimulationConfig, samples: int = 1000, epochs: int = 100
) -> tuple[LstmPredictor, TrainingReport]:
    """Train both class models and score them against the naive baseline.

    Sample counts refer to usable windows; the generated traces are longer by
    the warm-up window, and the held-out trace has a fifth as many windows
    (at least one). Both models train in lockstep, as one stack, each from
    its own generator. Everything is seeded from cfg.seed, so the same config
    yields byte-identical serialized models.

    Each held-out frame after the first t_w is scored from the t_w rows
    before it, as one lane of predict_backlogs, without the observation
    floor that the engine applies; the naive baseline reads the last of
    those rows. A config with an empty class raises ConfigError before
    any trace is generated: its backlog has nothing to normalize by.
    """
    tc = cfg.traffic
    for name in ("k_u", "k_m"):
        if getattr(tc, name) == 0:
            raise ConfigError(f"traffic: {name} is 0; training needs both classes")
    if samples < 1:
        raise ConfigError("need at least one training sample")
    if epochs < 1:
        raise ConfigError("epochs must be >= 1")
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
    # lane j holds the t_w rows before held-out frame t_w + j, oldest first
    windows = sliding_window_view(v_trace[:-1], cfg.t_w, axis=0).swapaxes(-1, -2)
    lstm_est = np.array(predict_backlogs(predictor, windows)).T
    prior = cold_start_prior(tc)
    naive_est = np.array([naive_predict(row, tc.k_u, tc.k_m, prior)
                          for row in windows[:, -1].tolist()]).T
    truth = FrameResult(*v_trace[cfg.t_w :].T)
    report = TrainingReport(
        train_mse_u=hist_u[-1],
        train_mse_m=hist_m[-1],
        val_mse_u=predictor_mse(lstm_est[0], truth.active_u, tc.k_u),
        val_mse_m=predictor_mse(lstm_est[1], truth.active_m, tc.k_m),
        naive_mse_u=predictor_mse(naive_est[0], truth.active_u, tc.k_u),
        naive_mse_m=predictor_mse(naive_est[1], truth.active_m, tc.k_m),
    )
    return predictor, report
