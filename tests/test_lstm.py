import math

import numpy as np
import pytest

from rasim.lstm import (
    CLIP_NORM,
    LstmModel,
    _clip_global_norm,
    _forward_batch,
    init_lstm,
    lstm_forward,
    lstm_loss_and_grads,
    lstm_train,
    stack_models,
    unstack_model,
)


def zero_model(hidden=4, inputs=3, b_out=0.0):
    return LstmModel(
        w_x=np.zeros((4 * hidden, inputs)),
        w_h=np.zeros((4 * hidden, hidden)),
        b=np.zeros(4 * hidden),
        w_out=np.zeros(hidden),
        b_out=np.array([b_out]),
    )


class TestForward:
    def test_zero_weights_yield_clamped_head_bias(self, rng):
        window = rng.uniform(0, 1, size=(6, 3))
        assert lstm_forward(zero_model(b_out=0.3), window) == pytest.approx(0.3)
        assert lstm_forward(zero_model(b_out=-1.0), window) == 0.0
        assert lstm_forward(zero_model(b_out=1.7), window) == 1.0

    def test_deterministic(self, rng):
        model = init_lstm(8, rng=rng)
        window = rng.uniform(0, 1, size=(10, 3))
        assert lstm_forward(model, window) == lstm_forward(model, window)

    def test_single_step_one_unit_desk_calculation(self):
        # scalar recurrence evaluated by hand for one cell:
        # f = s(wf.x + 1), i = s(wi.x), o = s(wo.x), g = tanh(wg.x)
        # c = i*g, h = o*tanh(c), y = w_out*h + b_out
        x = np.array([0.5, 0.25, 0.25])
        model = LstmModel(
            w_x=np.array(
                [[0.1, 0.2, 0.3], [-0.2, 0.4, 0.1], [0.3, 0.3, -0.1], [0.5, -0.5, 0.2]]
            ),
            w_h=np.zeros((4, 1)),
            b=np.array([1.0, 0.0, 0.0, 0.0]),
            w_out=np.array([2.0]),
            b_out=np.array([0.05]),
        )

        def s(v):
            return 1.0 / (1.0 + math.exp(-v))

        i_gate = s(-0.2 * 0.5 + 0.4 * 0.25 + 0.1 * 0.25)
        o_gate = s(0.3 * 0.5 + 0.3 * 0.25 - 0.1 * 0.25)
        g = math.tanh(0.5 * 0.5 - 0.5 * 0.25 + 0.2 * 0.25)
        c = i_gate * g  # previous cell is zero; forget gate drops out
        y = 2.0 * o_gate * math.tanh(c) + 0.05
        assert lstm_forward(model, x[None, :]) == pytest.approx(y, rel=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        model = init_lstm(4, input_size=3, rng=rng)
        with pytest.raises(ValueError):
            lstm_forward(model, np.zeros((5, 2)))
        with pytest.raises(ValueError):
            lstm_forward(model, np.zeros((0, 3)))


class TestGradients:
    def test_match_central_finite_differences(self):
        # independent oracle: perturb every parameter by +/- 1e-5
        rng = np.random.default_rng(7)
        model = init_lstm(4, rng=rng, scale=0.5)
        x = rng.uniform(-1, 1, size=(3, 5, 3))
        y = rng.uniform(0, 1, size=3)
        _, grads = lstm_loss_and_grads(model, x, y)
        eps = 1e-5
        for name, arr in model.param_items():
            analytic = grads[name]
            flat = arr.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up, _ = lstm_loss_and_grads(model, x, y)
                flat[idx] = orig - eps
                dn, _ = lstm_loss_and_grads(model, x, y)
                flat[idx] = orig
                numeric = (up - dn) / (2 * eps)
                a = analytic.ravel()[idx]
                rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
                assert rel < 1e-4, (name, idx, a, numeric)


class TestTraining:
    def test_fits_a_constant(self, rng):
        x = np.stack([rng.uniform(0, 1, size=(5, 3)) for _ in range(48)])[None]
        start = init_lstm(4, rng, scale=0.05)
        (model,), (losses,) = lstm_train(
            (x, np.full((1, 48), 0.37)), epochs=600, learning_rate=0.2, rng=[rng],
            batch_size=16, model=[start],
        )
        preds = [lstm_forward(model, w) for w in x[0]]
        assert all(abs(p - 0.37) < 0.01 * 0.37 for p in preds)
        assert losses[-1] < losses[0]

    def test_overfits_single_sample(self, rng):
        window = rng.uniform(0, 1, size=(8, 3))
        (model,), (losses,) = lstm_train(
            (window[None, None], np.array([[0.62]])), epochs=500, learning_rate=0.1, rng=[rng],
            hidden_size=4,
        )
        assert losses[-1] < 1e-4

    def test_empty_dataset_rejected(self, rng):
        with pytest.raises(ValueError):
            lstm_train((np.zeros((1, 0, 4, 3)), np.zeros((1, 0))), epochs=1, rng=[rng])

    def test_unnormalized_targets_rejected(self, rng):
        for target in (3.0, np.nan):  # NaN fails both bounds' comparisons
            with pytest.raises(ValueError, match="normalized"):
                lstm_train((np.zeros((1, 1, 4, 3)), np.array([[target]])), epochs=1, rng=[rng])

    def test_dataset_without_class_axis_rejected(self, rng):
        for x, y in (
            (np.zeros((2, 4, 3)), np.zeros(2)),  # no class axis
            (np.zeros((1, 2, 4, 3)), np.zeros((1, 3))),  # a target too many
            (np.zeros((1, 2, 4, 3)), [0.5, 0.5]),  # targets without class axis
        ):
            with pytest.raises(ValueError, match=r"\(k, n, t, input\)"):
                lstm_train((x, y), epochs=1, rng=[rng])

    def test_divergence_detection(self, rng):
        bad = init_lstm(4, rng=rng)
        bad.w_x[0, 0] = np.nan
        with pytest.raises(RuntimeError, match="diverged"):
            lstm_train(
                (np.ones((1, 1, 4, 3)), np.array([[0.5]])), epochs=2, rng=[rng], model=[bad]
            )

    def test_clipping_equals_the_per_model_loop_exactly(self, rng):
        def clip_each(grads):  # the reference: one model's norm and scale at a time
            for c in range(len(grads["b_out"])):
                total = np.sqrt(sum(float(np.sum(g[c] ** 2)) for g in grads.values()))
                if total > CLIP_NORM:
                    for g in grads.values():
                        g[c] *= CLIP_NORM / total

        for case in range(300):
            k, h = int(rng.integers(1, 4)), int(rng.integers(1, 25))
            shapes = {
                "w_x": (4 * h, 3), "w_h": (4 * h, h), "b": (4 * h,), "w_out": (h,), "b_out": (1,)
            }
            scale = 10.0 ** rng.uniform(-4, 2)  # norms on both sides of the clip
            grads = {name: rng.normal(size=(k, *shape)) * scale for name, shape in shapes.items()}
            if case % 5 == 0:
                for g in grads.values():
                    g[0] = 0.0
            want = {name: g.copy() for name, g in grads.items()}
            clip_each(want)
            _clip_global_norm(grads)
            for name in grads:
                assert np.array_equal(grads[name], want[name]), (case, name)

    def test_seeded_training_is_reproducible(self):
        data_rng = np.random.default_rng(3)
        x = np.stack([data_rng.uniform(0, 1, size=(5, 3)) for _ in range(32)])[None]
        y = np.array([[float(t % 2) / 2 for t in range(32)]])
        (m1,), _ = lstm_train((x, y), epochs=20, rng=[np.random.default_rng(11)], hidden_size=5)
        (m2,), _ = lstm_train((x, y), epochs=20, rng=[np.random.default_rng(11)], hidden_size=5)
        for (_, a), (_, b) in zip(m1.param_items(), m2.param_items()):
            assert np.array_equal(a, b)


class TestStackedModels:
    """A stack of models computes what each model computes alone."""

    def _pair(self, rng, hidden=(6, 6)):
        return [init_lstm(h, rng=rng, scale=0.8) for h in hidden]

    def test_unstack_returns_each_model(self, rng):
        models = self._pair(rng, hidden=(5, 5))
        stack = stack_models(models)
        assert stack.w_x.shape == (2, 20, 3) and stack.b_out.shape == (2, 1)
        for c, model in enumerate(models):
            back = unstack_model(stack, c)
            for (_, a), (_, b) in zip(model.param_items(), back.param_items()):
                assert np.array_equal(a, b)
            assert np.shares_memory(back.w_h, stack.w_h)

    def test_models_of_unequal_hidden_size_refused(self, rng):
        with pytest.raises(ValueError, match=r"one hidden size, not \[3, 5\]"):
            stack_models(self._pair(rng, hidden=(5, 3)))
        x, y = rng.uniform(0, 1, size=(2, 8, 4, 3)), rng.uniform(0, 1, size=(2, 8))
        with pytest.raises(ValueError, match="one hidden size"):
            lstm_train((x, y), epochs=1, rng=[rng, rng], model=self._pair(rng, hidden=(4, 6)))

    def test_forward_and_grads_equal_per_model_exactly(self, rng):
        for _ in range(100):
            models = self._pair(rng)
            n, t_len = rng.integers(1, 9), rng.integers(1, 11)
            x = rng.uniform(0, 1, size=(2, n, t_len, 3))
            y = rng.uniform(0, 1, size=(2, n))
            stack = stack_models(models)
            y_stack = _forward_batch(stack, x)[0]
            loss, grads = lstm_loss_and_grads(stack, x, y)
            for c, model in enumerate(models):
                y_c, loss_c, grads_c = _reference_loss_and_grads(model, x[c], y[c])
                assert np.array_equal(y_stack[c], y_c)
                assert np.array_equal(_forward_batch(model, x[c])[0], y_c)
                assert loss[c] == loss_c
                for name, g in grads_c.items():
                    assert np.array_equal(grads[name][c], g), name
                assert lstm_forward(stack, x[:, 0])[c] == lstm_forward(model, x[c, 0])

    def test_lockstep_training_equals_training_alone(self, rng):
        x = rng.uniform(0, 1, size=(2, 45, 6, 3))
        y = rng.uniform(0, 1, size=(2, 45))
        models, losses = lstm_train(
            (x, y), epochs=6, learning_rate=0.05,
            rng=[np.random.default_rng(1), np.random.default_rng(2)], hidden_size=5, batch_size=8,
        )
        for c in range(2):
            (alone,), (losses_alone,) = lstm_train(
                (x[c : c + 1], y[c : c + 1]), epochs=6, learning_rate=0.05,
                rng=[np.random.default_rng(c + 1)], hidden_size=5, batch_size=8,
            )
            assert losses[c] == losses_alone
            for (_, a), (_, b) in zip(models[c].param_items(), alone.param_items()):
                assert np.array_equal(a, b)

    def test_divergence_is_checked_per_model(self, rng):
        good, bad = init_lstm(4, rng=rng), init_lstm(4, rng=rng)
        bad.w_x[0, 0] = np.nan
        x, y = np.ones((2, 4, 4, 3)), np.full((2, 4), 0.5)
        with pytest.raises(RuntimeError, match="model 1"):
            lstm_train((x, y), epochs=1, rng=[rng, rng], model=[good, bad])


class TestLaneAxis:
    """Leading lane axes: each lane's estimates are exactly its window's run alone."""

    @pytest.mark.parametrize("hidden", [(20, 20)], ids=["equal"])
    @pytest.mark.parametrize("lanes", [1, 3, 25])
    def test_lanes_equal_single_windows_exactly(self, rng, hidden, lanes):
        stack = stack_models([init_lstm(h, rng=rng) for h in hidden])
        for t_len in (1, 10):
            windows = rng.uniform(0, 1, size=(lanes, 2, t_len, 3))
            estimates = lstm_forward(stack, windows)
            assert estimates.shape == (lanes, 2)
            for i in range(lanes):
                assert (estimates[i] == lstm_forward(stack, windows[i])).all()

    def test_single_model_lanes(self, rng):
        model = init_lstm(6, rng=rng)
        windows = rng.uniform(0, 1, size=(4, 10, 3))
        estimates = lstm_forward(model, windows)
        assert estimates.tolist() == [lstm_forward(model, w) for w in windows]

    @pytest.mark.parametrize(
        "shape",
        [(3, 2, 10, 2), (3, 2, 10, 4), (3, 2, 0, 3), (3, 10, 3), (10, 3)],
        ids=["inputs-2", "inputs-4", "empty", "lanes-without-class-axis", "no-class-axis"],
    )
    def test_malformed_windows_rejected(self, rng, shape):
        stack = stack_models([init_lstm(4, rng=rng), init_lstm(4, rng=rng)])
        with pytest.raises(ValueError):
            lstm_forward(stack, np.zeros(shape))


def _reference_loss_and_grads(model, x, targets):
    """One model, one gate at a time: the arithmetic the stacked passes must reproduce."""

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    n, t_len, _ = x.shape
    hd = model.hidden_size
    h, c = np.zeros((n, hd)), np.zeros((n, hd))
    caches = []
    for t in range(t_len):
        xt = x[:, t, :]
        a = xt @ model.w_x.T + h @ model.w_h.T + model.b
        f, i, o = (sigmoid(a[:, k * hd : (k + 1) * hd]) for k in range(3))
        g = np.tanh(a[:, 3 * hd :])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        caches.append((xt, h, c, f, i, o, g, tc))
        h, c = o * tc, c_new
    y = h @ model.w_out + model.b_out
    err = y - targets
    grads = {
        "w_x": np.zeros_like(model.w_x),
        "w_h": np.zeros_like(model.w_h),
        "b": np.zeros_like(model.b),
        "w_out": h.T @ (2.0 * err / n),
        "b_out": np.array([float(np.sum(2.0 * err / n))]),
    }
    dh = np.outer(2.0 * err / n, model.w_out)
    dc = np.zeros((n, hd))
    for xt, h_prev, c_prev, f, i, o, g, tc in reversed(caches):
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc**2)
        da = np.concatenate(
            [dc * c_prev * f * (1.0 - f), dc * g * i * (1.0 - i), do * o * (1.0 - o),
             dc * i * (1.0 - g**2)],
            axis=1,
        )
        grads["w_x"] += da.T @ xt
        grads["w_h"] += da.T @ h_prev
        grads["b"] += da.sum(axis=0)
        dh = da @ model.w_h
        dc = dc * f
    return y, float(np.mean(err**2)), grads
