"""Minimal dense feedforward networks with exact backpropagation.

Layers are (weight, bias, activation) triples with weight shaped
(out, in); a network designates one layer whose weight matrix receives the
adaptive prior.  Softmax cross-entropy covers classification, half mean
squared error covers (multitask) regression:

    loss = (1 / 2n) * sum_i ||yhat_i - y_i||^2.

Bias vectors stay out of both weight decay and the prior.  All update and
forward routines are pure functions; given equal seeds they reproduce
parameter trajectories bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, Diverged

__all__ = [
    "Activation",
    "LossKind",
    "DenseLayer",
    "Network",
    "Batch",
    "ForwardCache",
    "Gradients",
    "forward",
    "loss_from_outputs",
    "loss_value",
    "backward",
    "sgd_step",
    "apply_dropout",
]


class Activation(enum.Enum):
    RELU = "relu"
    IDENTITY = "identity"


class LossKind(enum.Enum):
    SOFTMAX_CROSS_ENTROPY = "softmax_cross_entropy"
    SQUARED_ERROR = "squared_error"


@dataclass(frozen=True)
class DenseLayer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: Activation

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise DimensionMismatch(
                f"weight {w.shape} and bias {b.shape} do not chain"
            )
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True)
class Network:
    layers: tuple[DenseLayer, ...]
    loss: LossKind
    regularized_layer_index: int = -1

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise DimensionMismatch(
                    f"layer output {a.out_dim} does not feed input {b.in_dim}"
                )
        idx = self.regularized_layer_index
        if not -len(layers) <= idx < len(layers):
            raise ValueError(f"regularized_layer_index {idx} out of range")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "regularized_layer_index", idx % len(layers))

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def regularized_weight(self) -> np.ndarray:
        return self.layers[self.regularized_layer_index].weight

    @classmethod
    def init(
        cls,
        layer_sizes: list[int],
        loss: LossKind,
        seed,
        regularized_layer_index: int = -1,
    ) -> "Network":
        """Seeded init: weights uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)],
        zero biases, ReLU everywhere except an identity output layer."""
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        rng = np.random.default_rng(seed)
        layers = []
        for i, (fan_in, fan_out) in enumerate(zip(layer_sizes, layer_sizes[1:])):
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
            act = (
                Activation.IDENTITY
                if i == len(layer_sizes) - 2
                else Activation.RELU
            )
            layers.append(DenseLayer(w, np.zeros(fan_out), act))
        return cls(tuple(layers), loss, regularized_layer_index)


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray  # (batch, in_dim)
    targets: np.ndarray  # class indices (batch,) or reals (batch, out_dim)

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1:
            raise DimensionMismatch(f"inputs must be (batch, d), got {x.shape}")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", np.asarray(self.targets))

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class ForwardCache:
    """Each layer's input plus the dropout masks and rate: all backprop
    reads.  A ReLU mask comes from the layer's output, not its preactivation."""

    layers: tuple[DenseLayer, ...]
    layer_inputs: tuple[np.ndarray, ...]
    dropout_masks: tuple[np.ndarray | None, ...]
    dropout_rate: float

    @property
    def preactivations(self) -> tuple[np.ndarray, ...]:
        """Each layer's ``x @ W.T + b``, recomputed from the stored inputs."""
        pairs = zip(self.layer_inputs, self.layers)
        return tuple(x @ layer.weight.T + layer.bias for x, layer in pairs)


@dataclass(frozen=True)
class Gradients:
    weight: tuple[np.ndarray, ...]
    bias: tuple[np.ndarray, ...]


def apply_dropout(activations: np.ndarray, rate: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout: zero each unit with probability ``rate`` and scale
    survivors by 1/(1-rate).  Returns (masked activations, mask); training
    only -- evaluation passes skip this entirely.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return activations, np.ones_like(activations)
    keep = (rng.random(size=activations.shape) >= rate).astype(float)
    scale = 1.0 / (1.0 - rate)
    return activations * keep * scale, keep


def forward(
    net: Network,
    inputs,
    dropout_rate: float = 0.0,
    dropout_rng=None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network, returning outputs and the caches backprop needs.

    Each layer allocates one array, the matmul's output, and adds the bias
    and applies ReLU to it in place; ``inputs`` is never written to.
    Dropout (training only) applies to hidden activations when
    ``dropout_rate > 0`` and a generator is supplied; the final layer's
    outputs are never dropped.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise DimensionMismatch(
            f"inputs {x.shape} do not match network input dim {net.in_dim}"
        )
    use_dropout = dropout_rate > 0.0 and dropout_rng is not None
    layer_inputs = []
    masks: list[np.ndarray | None] = []
    a = x
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        layer_inputs.append(a)
        a = a @ layer.weight.T
        a += layer.bias
        if layer.activation is Activation.RELU:
            np.maximum(a, 0.0, out=a)
        if use_dropout and i < last:
            a, mask = apply_dropout(a, dropout_rate, dropout_rng)
            masks.append(mask)
        else:
            masks.append(None)
    cache = ForwardCache(
        net.layers,
        tuple(layer_inputs),
        tuple(masks),
        dropout_rate if use_dropout else 0.0,
    )
    return a, cache


def loss_from_outputs(net: Network, outputs: np.ndarray, targets) -> float:
    """Mean loss of already computed network outputs against their targets."""
    n = outputs.shape[0]
    if net.loss is LossKind.SOFTMAX_CROSS_ENTROPY:
        y = np.asarray(targets)
        if y.shape != (n,):
            raise DimensionMismatch(
                f"class targets must be ({n},), got {y.shape}"
            )
        shifted = outputs - outputs.max(axis=1, keepdims=True)
        log_norm = np.log(np.sum(np.exp(shifted), axis=1))
        picked = shifted[np.arange(n), y.astype(int)]
        return float(np.mean(log_norm - picked))
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape != outputs.shape:
        raise DimensionMismatch(
            f"regression targets {y.shape} do not match outputs {outputs.shape}"
        )
    diff = outputs - y
    return float(np.sum(diff * diff) / (2.0 * n))


def loss_value(net: Network, batch: Batch) -> float:
    """Mean loss of the network on one batch (evaluation mode, no dropout)."""
    outputs, _ = forward(net, batch.inputs)
    return loss_from_outputs(net, outputs, batch.targets)


def _output_delta(net: Network, outputs: np.ndarray, targets) -> np.ndarray:
    """Gradient of the batch loss with respect to the final preactivations."""
    n = outputs.shape[0]
    if net.loss is LossKind.SOFTMAX_CROSS_ENTROPY:
        y = np.asarray(targets).astype(int)
        shifted = outputs - outputs.max(axis=1, keepdims=True)
        expz = np.exp(shifted)
        probs = expz / expz.sum(axis=1, keepdims=True)
        probs[np.arange(n), y] -= 1.0
        return probs / n
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    return (outputs - y) / n


def backward(
    net: Network,
    batch: Batch,
    dropout_rate: float = 0.0,
    dropout_rng=None,
) -> Gradients:
    """Exact gradients of the batch loss for every weight and bias.

    Runs its own forward pass (with dropout when configured) and
    backpropagates through the cached inputs and masks.  A ReLU mask is
    ``output > 0``, which equals ``preactivation > 0`` wherever dropout kept
    the unit; where it dropped the unit, delta is already +-0 either way.
    """
    outputs, cache = forward(net, batch.inputs, dropout_rate, dropout_rng)
    delta = _output_delta(net, outputs, batch.targets)
    layer_outputs = cache.layer_inputs[1:] + (outputs,)

    weight_grads: list[np.ndarray] = [None] * len(net.layers)  # type: ignore
    bias_grads: list[np.ndarray] = [None] * len(net.layers)  # type: ignore
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        # delta currently holds dLoss/d(activation output of layer i).
        if cache.dropout_masks[i] is not None:
            delta = delta * cache.dropout_masks[i] / (1.0 - cache.dropout_rate)
        if layer.activation is Activation.RELU:
            delta = delta * (layer_outputs[i] > 0.0)
        weight_grads[i] = delta.T @ cache.layer_inputs[i]
        bias_grads[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ layer.weight
    return Gradients(tuple(weight_grads), tuple(bias_grads))


def sgd_step(
    net: Network,
    grads: Gradients,
    learning_rate: float,
    weight_decay: float = 0.0,
    extra_grad_for_regularized_layer: np.ndarray | None = None,
) -> Network:
    """One SGD update; returns a new network.

    Weight decay adds ``weight_decay * W`` to each weight gradient (never to
    biases); the extra gradient (the prior's trace-term gradient) adds to
    the regularized layer only.  Raises Diverged if any parameter leaves the
    finite range.
    """
    new_layers = []
    for i, layer in enumerate(net.layers):
        gw = grads.weight[i]
        if weight_decay != 0.0:
            gw = gw + weight_decay * layer.weight
        if (
            extra_grad_for_regularized_layer is not None
            and i == net.regularized_layer_index
        ):
            gw = gw + extra_grad_for_regularized_layer
        w = layer.weight - learning_rate * gw
        b = layer.bias - learning_rate * grads.bias[i]
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise Diverged(f"layer {i} produced non-finite parameters")
        new_layers.append(replace(layer, weight=w, bias=b))
    return replace(net, layers=tuple(new_layers))

