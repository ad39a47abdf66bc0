"""Evaluation quantities computed from frame results.

Normalized throughput is the fraction of channels that carried a decoded
packet; channel loading is active users per channel of a mode. Predictor
quality is reported as mean squared error of the backlog estimate, normalized
by the class population so scenarios of different size are comparable.
"""

from __future__ import annotations

import math

import numpy as np


def _ratio(num, den):
    """num / den elementwise, as floats; NaN where den is 0."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    out = np.full(np.broadcast(num, den).shape, math.nan)
    return np.divide(num, den, out=out, where=den != 0)


def normalized_throughput(served_u, served_m, l_u, l_m):
    """Success channels over total channels, per frame; NaN for a frame without channels.

    Takes scalars or per-frame arrays of the counts.
    """
    return _ratio(np.add(served_u, served_m), np.add(l_u, l_m))


def channel_loading(active_u, active_m, l_u, l_m):
    """Active users per channel of each mode, (cl_u, cl_m); NaN for a mode without channels."""
    return _ratio(active_u, l_u), _ratio(active_m, l_m)


def predictor_mse(predictions, truths, population: int) -> float:
    """Population-normalized mean squared error of a backlog estimator."""
    preds = np.asarray(predictions, dtype=float)
    true = np.asarray(truths, dtype=float)
    if preds.size == 0 or preds.shape != true.shape:
        raise ValueError("predictions and truths must be equal-length and non-empty")
    if population < 1:
        raise ValueError("population must be >= 1")
    return float(np.mean(((preds - true) / population) ** 2))


def mean_and_stderr(samples) -> tuple[float, float]:
    """NaN-aware mean and standard error across realization samples.

    Values are sorted before reduction so the result is exactly invariant to
    sample order (floating-point sums are not associative).
    """
    data = np.asarray(samples, dtype=float)
    finite = np.sort(data[np.isfinite(data)])
    if finite.size == 0:
        return math.nan, math.nan
    if finite.size == 1:
        return float(finite[0]), 0.0
    return float(np.mean(finite)), float(np.std(finite, ddof=1) / math.sqrt(finite.size))
