"""Minimal dense feedforward networks with exact backpropagation.

Layers are (weight, bias, activation) triples with weight shaped
(out, in); a network designates one layer whose weight matrix receives the
adaptive prior.  Softmax cross-entropy covers classification, half mean
squared error covers (multitask) regression:

    loss = (1 / 2n) * sum_i ||yhat_i - y_i||^2.

Bias vectors stay out of both weight decay and the prior.  All update and
forward routines are pure functions; given equal seeds they reproduce
parameter trajectories bit for bit.

A network may also hold a stack of cells: weights (cells, out, in) and
biases (cells, out), all fed the same inputs and dropout masks.
``np.matmul`` over a stack runs one product per cell with that cell's own
shapes, so each cell's outputs and gradients carry the same bits as a
single network's would.
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
    weight: np.ndarray  # (out, in), or (cells, out, in) for a stack
    bias: np.ndarray  # (out,), or (cells, out)
    activation: Activation

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        if w.ndim not in (2, 3) or b.shape != w.shape[:-1]:
            raise DimensionMismatch(
                f"weight {w.shape} and bias {b.shape} do not chain"
            )
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @property
    def out_dim(self) -> int:
        return self.weight.shape[-2]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]


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
            if a.weight.shape[:-2] != b.weight.shape[:-2]:
                raise DimensionMismatch("layers stack different numbers of cells")
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

    @property
    def cells(self) -> int | None:
        """Number of stacked cells, or None for a single network."""
        shape = self.layers[0].weight.shape
        return shape[0] if len(shape) == 3 else None

    @classmethod
    def stack(cls, networks) -> "Network":
        """One network holding ``networks`` as cells, with copied parameters;
        a single network is returned as it is."""
        first, *rest = networks
        if not rest:
            return first

        def architecture(n: Network):
            layers = [(l.weight.shape, l.activation) for l in n.layers]
            return layers, n.loss, n.regularized_layer_index

        if any(architecture(n) != architecture(first) for n in rest):
            raise DimensionMismatch("stacked networks differ in architecture")
        layers = tuple(
            DenseLayer(
                np.stack([n.layers[i].weight for n in networks]),
                np.stack([n.layers[i].bias for n in networks]),
                layer.activation,
            )
            for i, layer in enumerate(first.layers)
        )
        return cls(layers, first.loss, first.regularized_layer_index)

    def unstack(self) -> tuple["Network", ...]:
        """The cells as single networks whose parameters are views into the
        stack; a single network gives itself."""
        if self.cells is None:
            return (self,)
        return tuple(
            Network(
                tuple(
                    DenseLayer(l.weight[c], l.bias[c], l.activation)
                    for l in self.layers
                ),
                self.loss,
                self.regularized_layer_index,
            )
            for c in range(self.cells)
        )

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
    reads.  A ReLU mask comes from the layer's output, not its preactivation.
    The first layer's input is the caller's (rows, in) array for every cell;
    masks are (rows, units), shared by every cell."""

    layers: tuple[DenseLayer, ...]
    layer_inputs: tuple[np.ndarray, ...]
    dropout_masks: tuple[np.ndarray | None, ...]
    dropout_rate: float

    @property
    def preactivations(self) -> tuple[np.ndarray, ...]:
        """Each layer's ``x @ W.T + b``, recomputed from the stored inputs."""
        pairs = zip(self.layer_inputs, self.layers)
        return tuple(
            x @ layer.weight.swapaxes(-1, -2) + layer.bias[..., None, :]
            for x, layer in pairs
        )


@dataclass(frozen=True)
class Gradients:
    weight: tuple[np.ndarray, ...]
    bias: tuple[np.ndarray, ...]


def apply_dropout(activations: np.ndarray, rate: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout: zero each unit with probability ``rate`` and scale
    survivors by 1/(1-rate).  Returns (masked activations, mask); training
    only -- evaluation passes skip this entirely.  The mask is drawn for
    the last two axes, (rows, units), and applies to every stacked cell.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return activations, np.ones(activations.shape[-2:])
    keep = (rng.random(size=activations.shape[-2:]) >= rate).astype(float)
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
    and applies ReLU to it in place; ``inputs`` is never written to.  A
    stacked network returns (cells, rows, out) outputs.
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
        a = a @ layer.weight.swapaxes(-1, -2)
        a += layer.bias[..., None, :]
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
    """Gradient of the batch loss with respect to the final preactivations.

    Normalizes and scales in place an array it allocated; ``x /= r`` gives
    the bits of ``x / r``."""
    n = outputs.shape[-2]
    if net.loss is LossKind.SOFTMAX_CROSS_ENTROPY:
        y = np.asarray(targets).astype(int)
        probs = outputs - outputs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[..., np.arange(n), y] -= 1.0
    else:
        y = np.asarray(targets, dtype=float)
        probs = outputs - (y[:, None] if y.ndim == 1 else y)
    probs /= n
    return probs


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
    Masks apply in place to delta arrays this call allocated.  A stacked
    network gives stacked gradients, (cells, out, in) and (cells, out).
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
            delta *= cache.dropout_masks[i]
            delta /= 1.0 - cache.dropout_rate
        if layer.activation is Activation.RELU:
            delta *= layer_outputs[i] > 0.0
        weight_grads[i] = delta.swapaxes(-1, -2) @ cache.layer_inputs[i]
        bias_grads[i] = delta.sum(axis=-2)
        if i > 0:
            delta = delta @ layer.weight
    return Gradients(tuple(weight_grads), tuple(bias_grads))


def sgd_step(
    net: Network,
    grads: Gradients,
    learning_rate: float,
    weight_decay=0.0,
    extra_grad_for_regularized_layer=None,
) -> Network:
    """One SGD update; returns a new network with newly allocated parameters.

    Weight decay adds ``weight_decay * W`` to each weight gradient (never to
    biases); the extra gradient (the prior's trace-term gradient) adds to
    the regularized layer only.  For a stacked network each term may be
    given per cell: ``weight_decay`` as one float per cell, the extra
    gradient as one (p, d) array or None per cell.  A term is added only to
    the cells that have it, so a cell with neither updates exactly as
    ``W - lr * gW``.  ``grads`` is never written to.  Raises Diverged if any
    parameter leaves the finite range; for a stack it names the cell.
    """
    slices = [...] if net.cells is None else range(net.cells)
    decays = _per_cell(weight_decay, len(slices), "weight_decay")
    extras = _per_cell(extra_grad_for_regularized_layer, len(slices), "extra gradient")
    new_layers = []
    for i, layer in enumerate(net.layers):
        gw = grads.weight[i]
        regularized = i == net.regularized_layer_index
        terms = [
            (c, d, e if regularized else None)
            for c, d, e in zip(slices, decays, extras)
            if d != 0.0 or (regularized and e is not None)
        ]
        if terms:
            gw = gw.copy()
        for c, decay, extra in terms:
            if decay != 0.0:
                gw[c] += decay * layer.weight[c]
            if extra is not None:
                gw[c] += extra
        w = layer.weight - learning_rate * gw
        b = layer.bias - learning_rate * grads.bias[i]
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            if net.cells is None:
                raise Diverged(f"layer {i} produced non-finite parameters")
            finite = np.isfinite(w).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
            cell = int(np.flatnonzero(~finite)[0])
            raise Diverged(f"layer {i} produced non-finite parameters", cell)
        new_layers.append(replace(layer, weight=w, bias=b))
    return replace(net, layers=tuple(new_layers))


def _per_cell(term, cells: int, what: str) -> list:
    """``term`` as one entry per cell: a list or tuple is taken as given,
    anything else (a float, an array or None) is repeated."""
    if not isinstance(term, (list, tuple)):
        return [term] * cells
    if len(term) != cells:
        raise DimensionMismatch(f"{len(term)} {what} entries for {cells} cells")
    return list(term)

