"""Tests for the dense network: forward, losses, backprop, SGD, dropout.

Gradients are checked against central finite differences on a flattened
parameter vector; the single-sample rank-1 structure is checked with
numpy's SVD.
"""

import math
import tracemalloc

import numpy as np
import pytest

from adareg.data import Dataset, DatasetKind
from adareg.errors import DimensionMismatch, Diverged
from adareg.net import (
    Activation,
    Batch,
    DenseLayer,
    Gradients,
    LossKind,
    Network,
    apply_dropout,
    backward,
    forward,
    loss_value,
    sgd_step,
)
from adareg.optimizer import evaluate


def _flatten_params(net):
    return np.concatenate(
        [np.concatenate([l.weight.ravel(), l.bias]) for l in net.layers]
    )


def _with_params(net, vec):
    layers = []
    at = 0
    for l in net.layers:
        nw = l.weight.size
        w = vec[at : at + nw].reshape(l.weight.shape)
        at += nw
        b = vec[at : at + l.bias.size]
        at += l.bias.size
        layers.append(DenseLayer(w, b, l.activation))
    return Network(tuple(layers), net.loss, net.regularized_layer_index)


def _fd_gradient(net, batch, step=1e-5):
    base = _flatten_params(net)
    grad = np.zeros_like(base)
    for i in range(base.size):
        up = base.copy()
        up[i] += step
        down = base.copy()
        down[i] -= step
        grad[i] = (
            loss_value(_with_params(net, up), batch)
            - loss_value(_with_params(net, down), batch)
        ) / (2.0 * step)
    return grad


def _grad_vector(grads):
    return np.concatenate(
        [
            np.concatenate([w.ravel(), b])
            for w, b in zip(grads.weight, grads.bias)
        ]
    )


class TestStructure:
    def test_rejects_mismatched_chain(self):
        l1 = DenseLayer(np.zeros((3, 2)), np.zeros(3), Activation.RELU)
        l2 = DenseLayer(np.zeros((1, 4)), np.zeros(1), Activation.IDENTITY)
        with pytest.raises(DimensionMismatch):
            Network((l1, l2), LossKind.SQUARED_ERROR)

    def test_rejects_bad_regularized_index(self):
        l1 = DenseLayer(np.zeros((3, 2)), np.zeros(3), Activation.IDENTITY)
        with pytest.raises(ValueError):
            Network((l1,), LossKind.SQUARED_ERROR, regularized_layer_index=2)

    def test_init_shapes_and_bounds(self):
        net = Network.init([4, 5, 3], LossKind.SOFTMAX_CROSS_ENTROPY, seed=0)
        assert [l.weight.shape for l in net.layers] == [(5, 4), (3, 5)]
        assert net.layers[0].activation is Activation.RELU
        assert net.layers[-1].activation is Activation.IDENTITY
        assert np.abs(net.layers[0].weight).max() <= 1.0 / 2.0
        assert np.all(net.layers[0].bias == 0.0)
        assert net.regularized_layer_index == 1

    def test_init_deterministic(self):
        a = Network.init([3, 4, 2], LossKind.SQUARED_ERROR, seed=7)
        b = Network.init([3, 4, 2], LossKind.SQUARED_ERROR, seed=7)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)


class TestInputGuards:
    """Each guard raises on the one bad input it exists for."""

    @pytest.mark.parametrize(
        "build, error, match",
        [
            (lambda: Network((), LossKind.SQUARED_ERROR), ValueError, "at least one"),
            (lambda: Network(
                (DenseLayer(np.zeros((2, 3, 4)), np.zeros((2, 3)), Activation.RELU),
                 DenseLayer(np.zeros((3, 1, 3)), np.zeros((3, 1)), Activation.IDENTITY)),
                LossKind.SQUARED_ERROR),
             DimensionMismatch, "different numbers of cells"),
            (lambda: Batch(np.ones(3), np.ones(3)), DimensionMismatch, "inputs must be"),
        ],
        ids=["no_layers", "mixed_cell_counts", "one_dim_inputs"],
    )
    def test_bad_input_raises(self, build, error, match):
        with pytest.raises(error, match=match):
            build()


class TestForward:
    def test_identity_layer_passthrough(self):
        net = Network(
            (DenseLayer(np.eye(3), np.zeros(3), Activation.IDENTITY),),
            LossKind.SQUARED_ERROR,
        )
        x = np.array([[1.0, -2.0, 0.5]])
        out, _ = forward(net, x)
        np.testing.assert_array_equal(out, x)

    def test_relu_clips_negative(self):
        net = Network(
            (DenseLayer(np.eye(2), np.zeros(2), Activation.RELU),),
            LossKind.SQUARED_ERROR,
        )
        out, _ = forward(net, np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_two_layer_hand_computation(self):
        # x=(1,-2): relu([1.5, -2]) = [1.5, 0]; then 2*1.5 - 0 + 1 = 4.
        l1 = DenseLayer(np.eye(2), np.array([0.5, 0.0]), Activation.RELU)
        l2 = DenseLayer(np.array([[2.0, -1.0]]), np.array([1.0]), Activation.IDENTITY)
        net = Network((l1, l2), LossKind.SQUARED_ERROR)
        out, cache = forward(net, np.array([[1.0, -2.0]]))
        np.testing.assert_allclose(out, [[4.0]])
        np.testing.assert_allclose(cache.layer_inputs[1], [[1.5, 0.0]])

    def test_dimension_mismatch(self):
        net = Network.init([3, 2], LossKind.SQUARED_ERROR, seed=0)
        with pytest.raises(DimensionMismatch):
            forward(net, np.zeros((1, 4)))


class TestForwardMemory:
    """One (2000, 64) hidden array per evaluation: the matmul output takes the
    bias and ReLU in place.  tracemalloc counts numpy's buffers, so the bound
    holds whatever the allocator does with freed memory."""

    HIDDEN_BYTES = 2000 * 64 * 8

    @pytest.fixture
    def net_and_data(self):
        rng = np.random.default_rng(20)
        net = Network.init([21, 64, 7], LossKind.SQUARED_ERROR, seed=21)
        data = Dataset(
            rng.normal(size=(2000, 21)),
            rng.normal(size=(2000, 7)),
            DatasetKind.REGRESSION,
        )
        return net, data

    @staticmethod
    def _peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_forward_holds_one_hidden_array(self, net_and_data):
        net, data = net_and_data
        peak = self._peak_bytes(lambda: forward(net, data.inputs))
        assert peak < 1.5 * self.HIDDEN_BYTES

    def test_evaluate_holds_one_hidden_array(self, net_and_data):
        net, data = net_and_data
        peak = self._peak_bytes(lambda: evaluate(net, data))
        assert peak < 1.5 * self.HIDDEN_BYTES

    def test_inputs_are_not_written(self, net_and_data):
        net, data = net_and_data
        x = data.inputs.copy()
        forward(net, data.inputs, 0.25, np.random.default_rng(0))
        np.testing.assert_array_equal(data.inputs, x)


class TestLossValue:
    def test_perfect_regression_is_zero(self):
        net = Network(
            (DenseLayer(np.eye(2), np.zeros(2), Activation.IDENTITY),),
            LossKind.SQUARED_ERROR,
        )
        x = np.array([[1.0, 2.0], [3.0, -1.0]])
        assert loss_value(net, Batch(x, x)) == 0.0

    def test_uniform_softmax_is_log_k(self):
        net = Network(
            (DenseLayer(np.zeros((10, 4)), np.zeros(10), Activation.IDENTITY),),
            LossKind.SOFTMAX_CROSS_ENTROPY,
        )
        batch = Batch(np.random.default_rng(0).normal(size=(6, 4)), np.arange(6) % 10)
        assert loss_value(net, batch) == pytest.approx(math.log(10.0), abs=1e-12)

    def test_half_mse_convention(self):
        # prediction 4, target 1, one sample: (1/2)*9 = 4.5
        l1 = DenseLayer(np.eye(2), np.array([0.5, 0.0]), Activation.RELU)
        l2 = DenseLayer(np.array([[2.0, -1.0]]), np.array([1.0]), Activation.IDENTITY)
        net = Network((l1, l2), LossKind.SQUARED_ERROR)
        batch = Batch(np.array([[1.0, -2.0]]), np.array([[1.0]]))
        assert loss_value(net, batch) == pytest.approx(4.5)


class TestTargets:
    """``loss_value`` and ``backward`` read targets through one check; here a
    4-row batch meets a 3-output network."""

    @pytest.mark.parametrize("fn", [loss_value, backward])
    @pytest.mark.parametrize(
        "loss, targets, match",
        [
            (LossKind.SQUARED_ERROR, np.zeros((1, 3)), "regression targets"),
            (LossKind.SQUARED_ERROR, np.zeros((4, 2)), "regression targets"),
            (LossKind.SOFTMAX_CROSS_ENTROPY, [0, 1, 2, -1], "class targets"),
            (LossKind.SOFTMAX_CROSS_ENTROPY, [0, 1, 2, 7], "class targets"),
            (LossKind.SOFTMAX_CROSS_ENTROPY, [0, 1], "class targets"),
            (LossKind.SOFTMAX_CROSS_ENTROPY, [0.5, 1.7, 2.9, 0.0], "class targets"),
            (LossKind.SOFTMAX_CROSS_ENTROPY, [0.0, 1.0, np.nan, 2.0], "class targets"),
        ],
        ids=[
            "one_row",
            "two_columns",
            "negative_label",
            "label_past_out",
            "two_labels",
            "fractional_labels",
            "nan_label",
        ],
    )
    def test_targets_that_do_not_fit_are_rejected(self, fn, loss, targets, match):
        net = Network.init([5, 4, 3], loss, seed=0)
        with pytest.raises(DimensionMismatch, match=match):
            fn(net, Batch(np.ones((4, 5)), targets))

    def test_one_dim_regression_target_is_one_column(self):
        net = Network.init([5, 4, 1], LossKind.SQUARED_ERROR, seed=0)
        x = np.random.default_rng(1).normal(size=(4, 5))
        y = np.array([0.5, -1.0, 2.0, 0.25])
        flat, column = Batch(x, y), Batch(x, y[:, None])
        assert loss_value(net, flat) == loss_value(net, column)
        got, want = backward(net, flat), backward(net, column)
        for a, b in zip(got.weight + got.bias, want.weight + want.bias):
            np.testing.assert_array_equal(a, b)

    def test_stacked_backward_rejects_one_row_of_targets(self):
        stack = Network.stack(_cells(LossKind.SQUARED_ERROR, Activation.IDENTITY))
        with pytest.raises(DimensionMismatch, match="regression targets"):
            backward(stack, Batch(np.ones((4, 5)), np.zeros((1, 3))))


class TestBackward:
    def test_zero_inputs_zero_first_layer_gradient(self):
        net = Network.init([3, 4, 2], LossKind.SQUARED_ERROR, seed=1)
        layers = tuple(
            DenseLayer(l.weight, l.bias, Activation.IDENTITY) for l in net.layers
        )
        net = Network(layers, LossKind.SQUARED_ERROR)
        batch = Batch(np.zeros((4, 3)), np.ones((4, 2)))
        grads = backward(net, batch)
        np.testing.assert_array_equal(grads.weight[0], np.zeros((4, 3)))

    def test_single_sample_gradient_is_rank_one(self):
        rng = np.random.default_rng(2)
        net = Network.init([6, 5, 3], LossKind.SOFTMAX_CROSS_ENTROPY, seed=3)
        batch = Batch(rng.normal(size=(1, 6)), np.array([1]))
        grads = backward(net, batch)
        for gw in grads.weight:
            s = np.linalg.svd(gw, compute_uv=False)
            assert s[1] < 1e-8 * s[0]

    def test_batch_gradient_rank_at_most_batch_size(self):
        rng = np.random.default_rng(3)
        b = 3
        net = Network.init([8, 6, 2], LossKind.SQUARED_ERROR, seed=4)
        batch = Batch(rng.normal(size=(b, 8)), rng.normal(size=(b, 2)))
        grads = backward(net, batch)
        s = np.linalg.svd(grads.weight[0], compute_uv=False)
        assert np.all(s[b:] < 1e-8 * s[0])

    @pytest.mark.parametrize(
        "loss,targets",
        [
            (LossKind.SOFTMAX_CROSS_ENTROPY, np.array([0, 2, 1, 2, 0])),
            (LossKind.SQUARED_ERROR, None),
        ],
    )
    def test_matches_finite_differences(self, loss, targets):
        rng = np.random.default_rng(5)
        net = Network.init([4, 6, 3], LossKind.SQUARED_ERROR, seed=6)
        net = Network(net.layers, loss)
        x = rng.normal(size=(5, 4))
        y = targets if targets is not None else rng.normal(size=(5, 3))
        batch = Batch(x, y)
        got = _grad_vector(backward(net, batch))
        want = _fd_gradient(net, batch)
        rel = np.abs(got - want).max() / max(np.abs(want).max(), 1e-10)
        assert rel < 1e-5


def _preactivation_mask_gradients(net, batch, dropout_rate, dropout_rng):
    """Backprop that keeps every preactivation and takes each ReLU mask
    from ``z > 0``, written out step by step with forward's arithmetic."""
    a, inputs, preacts, masks = batch.inputs, [], [], []
    for i, layer in enumerate(net.layers):
        inputs.append(a)
        z = a @ layer.weight.T + layer.bias
        preacts.append(z)
        a = np.maximum(z, 0.0) if layer.activation is Activation.RELU else z
        mask = None
        if dropout_rate > 0.0 and i < len(net.layers) - 1:
            a, mask = apply_dropout(a, dropout_rate, dropout_rng)
        masks.append(mask)
    delta = (a - batch.targets) / a.shape[0]
    weight_grads, bias_grads = [], []
    for i in range(len(net.layers) - 1, -1, -1):
        if masks[i] is not None:
            delta = delta * masks[i] / (1.0 - dropout_rate)
        if net.layers[i].activation is Activation.RELU:
            delta = delta * (preacts[i] > 0.0)
        weight_grads.insert(0, delta.T @ inputs[i])
        bias_grads.insert(0, delta.sum(axis=0))
        delta = delta @ net.layers[i].weight
    return weight_grads, bias_grads


class TestReluMaskFromOutputs:
    """backward reads each ReLU mask off the layer's output; the gradients
    equal, bit for bit, those of masks taken from the preactivations."""

    @pytest.mark.parametrize("last", [Activation.IDENTITY, Activation.RELU])
    @pytest.mark.parametrize("rate", [0.0, 0.25])
    def test_same_bits_as_preactivation_masks(self, rate, last):
        rng = np.random.default_rng(30)
        net = Network.init([5, 8, 6, 3], LossKind.SQUARED_ERROR, seed=31)
        top = net.layers[-1]
        net = Network(
            net.layers[:-1] + (DenseLayer(top.weight, top.bias, last),),
            LossKind.SQUARED_ERROR,
        )
        batch = Batch(rng.normal(size=(40, 5)), rng.normal(size=(40, 3)))
        got = backward(net, batch, rate, np.random.default_rng(32))
        want_w, want_b = _preactivation_mask_gradients(
            net, batch, rate, np.random.default_rng(32)
        )
        for g, w in zip(got.weight + got.bias, want_w + want_b):
            assert g.tobytes() == w.tobytes()


class TestSgdStep:
    def test_zero_gradient_zero_decay_is_identity(self):
        net = Network.init([2, 2], LossKind.SQUARED_ERROR, seed=8)
        zeros = Gradients(
            tuple(np.zeros_like(l.weight) for l in net.layers),
            tuple(np.zeros_like(l.bias) for l in net.layers),
        )
        out = sgd_step(net, zeros, learning_rate=0.5)
        np.testing.assert_array_equal(out.layers[0].weight, net.layers[0].weight)

    def test_pure_decay_scales_weights(self):
        net = Network.init([3, 2], LossKind.SQUARED_ERROR, seed=9)
        zeros = Gradients(
            tuple(np.zeros_like(l.weight) for l in net.layers),
            tuple(np.zeros_like(l.bias) for l in net.layers),
        )
        out = sgd_step(net, zeros, learning_rate=0.1, weight_decay=1.0)
        np.testing.assert_allclose(
            out.layers[0].weight, 0.9 * net.layers[0].weight
        )

    def test_decay_skips_biases(self):
        l1 = DenseLayer(np.eye(2), np.array([1.0, -1.0]), Activation.IDENTITY)
        net = Network((l1,), LossKind.SQUARED_ERROR)
        zeros = Gradients((np.zeros((2, 2)),), (np.zeros(2),))
        out = sgd_step(net, zeros, learning_rate=0.1, weight_decay=1.0)
        np.testing.assert_array_equal(out.layers[0].bias, l1.bias)

    def test_extra_gradient_hits_only_regularized_layer(self):
        net = Network.init([2, 3, 2], LossKind.SQUARED_ERROR, seed=10)
        zeros = Gradients(
            tuple(np.zeros_like(l.weight) for l in net.layers),
            tuple(np.zeros_like(l.bias) for l in net.layers),
        )
        extra = np.ones((2, 3))
        out = sgd_step(net, zeros, 0.5, 0.0, extra)
        np.testing.assert_array_equal(
            out.layers[0].weight, net.layers[0].weight
        )
        np.testing.assert_allclose(
            out.layers[1].weight, net.layers[1].weight - 0.5 * extra
        )

    def test_one_step_decreases_convex_quadratic(self):
        rng = np.random.default_rng(11)
        net = Network.init([3, 1], LossKind.SQUARED_ERROR, seed=12)
        batch = Batch(rng.normal(size=(20, 3)), rng.normal(size=(20, 1)))
        before = loss_value(net, batch)
        out = sgd_step(net, backward(net, batch), learning_rate=0.05)
        assert loss_value(out, batch) < before

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    def test_new_parameters_share_no_memory(self, stacked):
        """Each returned weight and bias is a new array: writing it can
        reach neither ``grads`` nor the network the step started from."""
        rng = np.random.default_rng(14)
        nets = [Network.init([3, 4, 2], LossKind.SQUARED_ERROR, seed=s) for s in (15, 16)]
        net = Network.stack(nets) if stacked else nets[0]
        grads = backward(net, Batch(rng.normal(size=(8, 3)), rng.normal(size=(8, 2))))
        out = sgd_step(net, grads, 0.1, 1e-2, rng.normal(size=(2, 4)))
        old = [a for l in net.layers for a in (l.weight, l.bias)]
        old += list(grads.weight + grads.bias)
        new = [a for l in out.layers for a in (l.weight, l.bias)]
        assert not any(np.shares_memory(a, b) for a in new for b in old)
        assert not any(np.shares_memory(a, b) for a in new for b in new if a is not b)

    def test_step_has_the_bits_of_the_plain_formula(self):
        """Scaling and subtracting in place gives the bits of
        ``W - lr * (gW + decay * W + extra)`` and ``b - lr * gb``."""
        rng = np.random.default_rng(17)
        net = Network.init([5, 6, 3], LossKind.SQUARED_ERROR, seed=18)
        grads = backward(net, Batch(rng.normal(size=(9, 5)), rng.normal(size=(9, 3))))
        extra = rng.normal(size=(3, 6))
        out = sgd_step(net, grads, 0.07, 3e-3, extra)
        for i, (layer, new) in enumerate(zip(net.layers, out.layers)):
            gw = grads.weight[i] + 3e-3 * layer.weight
            if i == net.regularized_layer_index:
                gw = gw + extra
            want_w = layer.weight - 0.07 * gw
            want_b = layer.bias - 0.07 * grads.bias[i]
            assert new.weight.tobytes() == want_w.tobytes()
            assert new.bias.tobytes() == want_b.tobytes()

    def test_raises_on_non_finite(self):
        net = Network.init([2, 1], LossKind.SQUARED_ERROR, seed=13)
        bad = Gradients(
            (np.full((1, 2), np.inf),),
            (np.zeros(1),),
        )
        with pytest.raises(Diverged):
            sgd_step(net, bad, 0.1)


class TestDropout:
    def test_rate_zero_is_identity(self):
        a = np.arange(6.0).reshape(2, 3)
        out, mask = apply_dropout(a, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, a)
        np.testing.assert_array_equal(mask, np.ones_like(a))

    def test_seeded_mask_is_deterministic(self):
        a = np.ones((4, 8))
        out1, m1 = apply_dropout(a, 0.5, np.random.default_rng(42))
        out2, m2 = apply_dropout(a, 0.5, np.random.default_rng(42))
        np.testing.assert_array_equal(out1, out2)
        np.testing.assert_array_equal(m1, m2)

    def test_survivor_fraction(self):
        a = np.ones((1, 100_000))
        _, mask = apply_dropout(a, 0.5, np.random.default_rng(1))
        assert abs(mask.mean() - 0.5) < 0.01

    def test_survivors_rescaled(self):
        a = np.ones((1, 1000))
        out, mask = apply_dropout(a, 0.25, np.random.default_rng(2))
        survivors = out[mask == 1.0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75)

    def test_rejects_rate_one(self):
        with pytest.raises(ValueError):
            apply_dropout(np.ones((1, 2)), 1.0, np.random.default_rng(0))

    def test_rate_without_generator_rejected(self):
        net = Network.init([3, 4, 2], LossKind.SQUARED_ERROR, seed=0)
        with pytest.raises(ValueError, match="needs a dropout_rng"):
            forward(net, np.ones((2, 3)), dropout_rate=0.5)
        with pytest.raises(ValueError, match="needs a dropout_rng"):
            backward(net, Batch(np.ones((2, 3)), np.ones((2, 2))), 0.5)

    def test_negative_rate_rejected(self):
        net = Network.init([3, 4, 2], LossKind.SQUARED_ERROR, seed=0)
        with pytest.raises(ValueError, match="dropout rate must be in"):
            forward(net, np.ones((2, 3)), -0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("rate", [-0.5, 1.0])
    def test_bad_rate_rejected_without_hidden_layer(self, rate):
        net = Network.init([3, 2], LossKind.SQUARED_ERROR, seed=0)
        with pytest.raises(ValueError, match="dropout rate must be in"):
            forward(net, np.ones((2, 3)), rate, np.random.default_rng(0))


class TestDeterminism:
    def test_identical_seeds_identical_trajectories(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(16, 3))
        y = (rng.normal(size=(16,)) > 0).astype(int)
        batch = Batch(x, y)

        def run():
            net = Network.init([3, 5, 2], LossKind.SOFTMAX_CROSS_ENTROPY, seed=99)
            for step in range(5):
                drop = np.random.default_rng([77, step])
                grads = backward(net, batch, dropout_rate=0.3, dropout_rng=drop)
                net = sgd_step(net, grads, 0.1, weight_decay=1e-3)
            return _flatten_params(net)

        np.testing.assert_array_equal(run(), run())


def _cells(loss, last, seeds=(40, 41, 42)):
    """Same-architecture networks from different seeds, last layer ``last``."""
    nets = []
    for seed in seeds:
        net = Network.init([5, 8, 6, 3], loss, seed=seed)
        top = net.layers[-1]
        top = DenseLayer(top.weight, top.bias + 0.1 * seed, last)
        nets.append(Network(net.layers[:-1] + (top,), loss))
    return nets


class TestStackedCells:
    """A stack of cells computes, per cell, the bits of the single network."""

    @pytest.mark.parametrize("rows", [1, 7, 88, 256])
    @pytest.mark.parametrize("loss", list(LossKind))
    @pytest.mark.parametrize("last", [Activation.IDENTITY, Activation.RELU])
    @pytest.mark.parametrize("rate", [0.0, 0.25])
    def test_forward_and_backward_match_single_cells(self, rate, last, loss, rows):
        rng = np.random.default_rng(rows)
        targets = (
            rng.integers(0, 3, size=rows)
            if loss is LossKind.SOFTMAX_CROSS_ENTROPY
            else rng.normal(size=(rows, 3))
        )
        batch = Batch(rng.normal(size=(rows, 5)), targets)
        nets = _cells(loss, last)
        stack = Network.stack(nets)
        assert stack.cells == 3

        out, _ = forward(stack, batch.inputs, rate, np.random.default_rng(9))
        grads = backward(stack, batch, rate, np.random.default_rng(9))
        for c, net in enumerate(nets):
            want_out, _ = forward(net, batch.inputs, rate, np.random.default_rng(9))
            want = backward(net, batch, rate, np.random.default_rng(9))
            assert out[c].tobytes() == want_out.tobytes()
            for got_g, want_g in zip(grads.weight + grads.bias, want.weight + want.bias):
                assert got_g[c].tobytes() == want_g.tobytes()

    def test_unstack_gives_views_of_the_stack(self):
        nets = _cells(LossKind.SQUARED_ERROR, Activation.IDENTITY)
        stack = Network.stack(nets)
        for c, cell in enumerate(stack.unstack()):
            for got, layer, want in zip(cell.layers, stack.layers, nets[c].layers):
                assert got.weight.base is layer.weight
                assert got.weight.tobytes() == want.weight.tobytes()
                assert got.bias.tobytes() == want.bias.tobytes()
        single = nets[0]
        assert Network.stack([single]) is single
        assert single.unstack() == (single,)

    def test_stack_rejects_different_architectures(self):
        a = Network.init([3, 4, 2], LossKind.SQUARED_ERROR, seed=0)
        b = Network.init([3, 5, 2], LossKind.SQUARED_ERROR, seed=0)
        with pytest.raises(DimensionMismatch):
            Network.stack([a, b])
        with pytest.raises(DimensionMismatch):
            DenseLayer(np.zeros((2, 3, 4)), np.zeros(3), Activation.RELU)

    def test_sgd_step_matches_single_cells(self):
        """Per-cell decay and prior terms land on their own cells only; the
        cell with neither updates as plain SGD.  ``grads`` is not written."""
        rng = np.random.default_rng(43)
        nets = _cells(LossKind.SQUARED_ERROR, Activation.IDENTITY, seeds=(1, 2, 3, 4))
        stack = Network.stack(nets)
        batch = Batch(rng.normal(size=(16, 5)), rng.normal(size=(16, 3)))
        grads = backward(stack, batch)
        grads.weight[0][0, :2] = -0.0  # signs of zero must survive too
        before = [g.copy() for g in grads.weight + grads.bias]
        decays = [0.0, 1e-2, 0.0, 3e-3]
        extras = [None, None, rng.normal(size=(3, 6)), rng.normal(size=(3, 6))]

        out = sgd_step(stack, grads, 0.1, decays, extras)
        for g, b in zip(grads.weight + grads.bias, before):
            assert g.tobytes() == b.tobytes()
        for c, (net, decay, extra) in enumerate(zip(nets, decays, extras)):
            cell_grads = Gradients(
                tuple(g[c] for g in grads.weight), tuple(g[c] for g in grads.bias)
            )
            want = sgd_step(net, cell_grads, 0.1, decay, extra)
            for got_l, want_l in zip(out.layers, want.layers):
                assert got_l.weight[c].tobytes() == want_l.weight.tobytes()
                assert got_l.bias[c].tobytes() == want_l.bias.tobytes()

    def test_sgd_step_wants_one_decay_per_cell(self):
        stack = Network.stack(_cells(LossKind.SQUARED_ERROR, Activation.IDENTITY))
        grads = backward(stack, Batch(np.ones((4, 5)), np.ones((4, 3))))
        with pytest.raises(DimensionMismatch, match="2 weight_decay entries for 3 cells"):
            sgd_step(stack, grads, 0.1, [0.0, 1e-3])

    def test_sgd_step_names_the_diverged_cell(self):
        stack = Network.stack(_cells(LossKind.SQUARED_ERROR, Activation.IDENTITY))
        grads = Gradients(
            tuple(np.zeros_like(l.weight) for l in stack.layers),
            tuple(np.zeros_like(l.bias) for l in stack.layers),
        )
        grads.weight[1][2, 0, 0] = np.inf
        with pytest.raises(Diverged, match="cell 2: layer 1") as caught:
            sgd_step(stack, grads, 0.1)
        assert caught.value.cell == 2
