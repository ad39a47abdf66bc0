"""Minimal LSTM regressor, implemented directly on numpy.

One recurrent layer with forget/input/output gates and a tanh cell candidate,
followed by a linear head that maps the final hidden state to one scalar.
Inputs are short windows of normalized channel-state triplets; targets are
backlogs normalized to [0, 1]. Training is plain minibatch gradient descent
on the mean squared error with global-norm gradient clipping, and the
backward pass is exact backpropagation through time (verified against finite
differences in the test suite).

Gate order in the stacked weight matrices is forget, input, output, candidate.

Several models of one hidden size run as one: ``stack_models`` gives their
arrays a leading class axis, and the forward and backward passes take any
number of leading class axes, so every numpy call serves all the models at
once. Model c of a stack computes exactly what it computes alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


PARAMS = ("w_x", "w_h", "b", "w_out", "b_out")  # an LstmModel's fields, in order


@dataclass
class LstmModel:
    """One model, or a stack of them with a leading class axis on every array."""

    w_x: np.ndarray   # (..., 4*hidden, input)
    w_h: np.ndarray   # (..., 4*hidden, hidden)
    b: np.ndarray     # (..., 4*hidden)
    w_out: np.ndarray  # (..., hidden)
    b_out: np.ndarray  # (..., 1)

    @property
    def hidden_size(self) -> int:
        return self.w_out.shape[-1]

    @property
    def input_size(self) -> int:
        return self.w_x.shape[-1]

    def param_items(self):
        return tuple((name, getattr(self, name)) for name in PARAMS)


def init_lstm(
    hidden_size: int,
    rng: np.random.Generator,
    input_size: int = 3,
    scale: float = 0.2,
) -> LstmModel:
    """Small uniform init drawn from rng; forget-gate bias starts at 1 to favour remembering."""
    if hidden_size < 1 or input_size < 1:
        raise ValueError("hidden_size and input_size must be >= 1")
    h = hidden_size
    model = LstmModel(
        w_x=rng.uniform(-scale, scale, size=(4 * h, input_size)),
        w_h=rng.uniform(-scale, scale, size=(4 * h, h)),
        b=np.zeros(4 * h),
        w_out=rng.uniform(-scale, scale, size=h),
        b_out=np.zeros(1),
    )
    model.b[:h] = 1.0
    return model


def stack_models(models) -> LstmModel:
    """One model whose arrays carry a leading class axis, entry c being models[c].

    The models must share one hidden size; ValueError names the sizes if not.
    """
    models = list(models)
    sizes = sorted({m.hidden_size for m in models})
    if len(sizes) > 1:
        raise ValueError(f"stacked models need one hidden size, not {sizes}")
    return LstmModel(*(np.stack([getattr(m, name) for m in models]) for name in PARAMS))


def unstack_model(stacked: LstmModel, index: int) -> LstmModel:
    """Model ``index`` of a stack; its arrays are views into the stack."""
    return LstmModel(*(getattr(stacked, name)[index] for name in PARAMS))


def _sigmoid(x):
    """1 / (1 + exp(-x)), computed in one buffer."""
    out = np.negative(x)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _forward_batch(model: LstmModel, x: np.ndarray, steps: list | None = None):
    """Run the recurrence over a batch of windows x (..., n, t, input).

    Axes before the batch axis are class axes and pair with the model's.
    Returns raw head outputs (..., n) and the final hidden state. Given a
    list, appends to it per step what BPTT reads: the cell and hidden state
    before the step, the sigmoid of the forget|input|output block, the
    candidate and the tanh of the new cell state. Without a list, no step's
    arrays outlive it.
    """
    if x.ndim < 3 or x.shape[-1] != model.input_size:
        raise ValueError(
            f"window shape {x.shape} incompatible with input size {model.input_size}"
        )
    hd = model.hidden_size
    h = np.zeros(x.shape[:-2] + (hd,))
    c = np.zeros_like(h)
    w_x_t = np.swapaxes(model.w_x, -1, -2)
    w_h_t = np.swapaxes(model.w_h, -1, -2)
    b = model.b[..., None, :]
    for t in range(x.shape[-2]):
        a = x[..., t, :] @ w_x_t
        a += h @ w_h_t
        a += b
        s = _sigmoid(a[..., : 3 * hd])
        g = np.tanh(a[..., 3 * hd :])
        c_new = s[..., :hd] * c + s[..., hd : 2 * hd] * g
        tc = np.tanh(c_new)
        if steps is not None:
            steps.append((c, h, s, g, tc))
        c, h = c_new, s[..., 2 * hd :] * tc
    y = (h @ model.w_out[..., :, None])[..., 0] + model.b_out
    return y, h


def lstm_forward(model: LstmModel, window: np.ndarray):
    """Deterministic estimate for one window (t, input), clamped to [0, 1].

    The model's class axes are those of ``b_out`` before its last: one
    model's ``b_out`` is (1,), a stack of k models' (k, 1). For a stack the
    window is (k, t, input), window c going to model c, and the result is an
    array of k estimates. Axes before those are lane axes: windows (lanes...,
    k, t, input) give estimates (lanes..., k). Each lane's products stay
    single-row, so its estimates are exactly those of its window run alone.
    """
    window = np.asarray(window, dtype=float)
    classes = model.b_out.shape[:-1]
    lanes = window.ndim - len(classes) - 2
    if lanes < 0 or window.shape[lanes:-2] != classes or window.shape[-2] < 1:
        raise ValueError("window must be a non-empty (t, input) array per model")
    y, _ = _forward_batch(model, window[..., None, :, :])
    y = np.clip(y[..., 0], 0.0, 1.0)
    return float(y) if y.ndim == 0 else y


def lstm_loss_and_grads(model: LstmModel, x: np.ndarray, targets: np.ndarray):
    """MSE over the batch and its exact gradients w.r.t. every parameter.

    With class axes, x is (..., n, t, input) and targets (..., n); the loss
    and every gradient then carry the class axes, entry c being model c's.
    """
    steps = []
    y, h_last = _forward_batch(model, x, steps)
    n = x.shape[-3]
    hd = model.hidden_size
    err = y - targets
    loss = np.mean(err**2, axis=-1)
    d_y = 2.0 * err / n

    grads = {
        "w_x": np.zeros_like(model.w_x),
        "w_h": np.zeros_like(model.w_h),
        "b": np.zeros_like(model.b),
        "w_out": (np.swapaxes(h_last, -1, -2) @ d_y[..., None])[..., 0],
        "b_out": np.sum(d_y, axis=-1)[..., None],
    }
    dh = d_y[..., :, None] * model.w_out[..., None, :]
    dc = np.zeros_like(h_last)
    for t in reversed(range(len(steps))):
        c_prev, h_prev, s, g, tc = steps[t]
        dc = dc + dh * s[..., 2 * hd :] * (1.0 - tc**2)
        ds = np.concatenate([dc * c_prev, dc * g, dh * tc], axis=-1)
        ds *= s
        ds *= 1.0 - s
        da = np.concatenate([ds, dc * s[..., hd : 2 * hd] * (1.0 - g**2)], axis=-1)
        da_t = np.swapaxes(da, -1, -2)
        grads["w_x"] += da_t @ x[..., t, :]
        grads["w_h"] += da_t @ h_prev
        grads["b"] += da.sum(axis=-2)
        dh = da @ model.w_h
        dc = dc * s[..., :hd]
    return loss, grads


CLIP_NORM = 1.0  # the global gradient norm of each model is clipped to this


def _clip_global_norm(grads: dict):
    """Scale each model's gradients (leading axis) to a global norm of at most CLIP_NORM."""
    total = np.sqrt(sum(np.square(g.reshape(len(g), -1)).sum(axis=1) for g in grads.values()))
    scale = CLIP_NORM / np.maximum(total, CLIP_NORM)
    for g in grads.values():
        g *= scale.reshape(-1, *(1,) * (g.ndim - 1))


def lstm_train(
    dataset,
    epochs: int,
    rng,
    learning_rate: float = 1e-2,
    hidden_size: int = 20,
    batch_size: int = 32,
    model=None,
):
    """Fit k models in lockstep, as one stack; returns (k models, k epoch-loss lists).

    ``dataset`` is a tuple of arrays ``(x, y)`` with x of shape
    (k, n, t, input) and y (k, n): model c fits windows x[c] to targets y[c].
    ``rng`` and ``model`` are sequences of k, the models of one hidden size
    (ValueError otherwise). Each model draws its init and permutations from
    its own generator, is clipped by its own global norm and is checked for
    divergence on its own, so model c comes out exactly as if trained alone
    (k = 1) on (x[c:c+1], y[c:c+1]) with rng[c].

    Targets must already be normalized to [0, 1]. Raises RuntimeError if a
    loss goes non-finite.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    x, y = (np.asarray(a, dtype=float) for a in dataset)
    if x.ndim != 4 or y.shape != x.shape[:2]:
        raise ValueError(
            f"dataset needs x of shape (k, n, t, input) and y (k, n), got {x.shape} and {y.shape}"
        )
    k, n = y.shape
    if n == 0:
        raise ValueError("training dataset is empty")
    if not (y.min() >= -1e-9 and y.max() <= 1.0 + 1e-9):  # NaN fails both
        raise ValueError("targets must be normalized to [0, 1]")
    if model is None:
        model = [init_lstm(hidden_size, r, x.shape[-1]) for r in rng]
    if len(rng) != k or len(model) != k:
        raise ValueError(f"{k} datasets need {k} generators and {k} models")
    stack = stack_models(model)

    classes = np.arange(k)[:, None]
    losses = []
    for epoch in range(epochs):
        perms = np.stack([r.permutation(n) for r in rng])
        epoch_loss = np.zeros(k)
        for start in range(0, n, batch_size):
            idx = perms[:, start : start + batch_size]
            loss, grads = lstm_loss_and_grads(stack, x[classes, idx], y[classes, idx])
            finite = np.isfinite(loss)
            if not finite.all():
                c = int(np.argmin(finite))
                raise RuntimeError(
                    f"training diverged at epoch {epoch}: model {c} loss {float(loss[c])!r} "
                    f"(lr={learning_rate}, batch={batch_size})"
                )
            _clip_global_norm(grads)
            for name in PARAMS:
                getattr(stack, name)[...] -= learning_rate * grads[name]
            epoch_loss += loss * idx.shape[1]
        losses.append(epoch_loss / n)
    trained = [unstack_model(stack, c) for c in range(k)]
    return trained, np.array(losses).T.tolist()
