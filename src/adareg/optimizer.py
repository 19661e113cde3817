"""Block coordinate descent between network weights and prior precisions.

One outer iteration first runs a block of minibatch SGD epochs on the
network (precisions frozen, the prior's trace-term gradient added to the
regularized layer at every step), then refreshes the precision pair with
two exact closed-form solves:

    omega_r <- inv_threshold(W @ omega_c @ W.T, d)   using the old omega_c
    omega_c <- inv_threshold(W.T @ omega_r @ W, p)   using the new omega_r

Each solve minimizes its subproblem exactly, so the precision step can
never increase the full objective.  With bounds pinned at u = v = 1 the
precisions stay at the identity and the whole procedure degenerates to SGD
with weight decay 2*lambda.

Each evaluation runs the network once: ``evaluate`` and ``full_objective``
take the outputs of one ``predict`` and score them with one mean over all
rows.  ``predict`` reads its rows through the split's ``rows`` reader and
runs its forward passes on EVAL_CHUNK rows at a time, so that each chunk's
float64 rows (about 6 MB for 784-wide rows, a slice or a gathered copy)
and the copy that BLAS packs for a product stay small and in cache;
no mean is taken per chunk.  ``evaluate`` and ``predict`` also take a
stacked network: each chunk is then read once for the whole group and runs
one stacked ``forward``, and every cell is scored on its own outputs with
the bits of its own call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import net as net_mod
from .data import Dataset, DatasetKind, batches
from .diagnostics import explained_variance
from .errors import Diverged
from .net import Network, loss_from_outputs, squared_error
from .prior import PrecisionPair, regularizer_grad, regularizer_value
from .spectral import SpectralBounds, SymMatrix, inv_threshold

__all__ = [
    "AdaRegState",
    "BcdSchedule",
    "EpochRecord",
    "MetricLog",
    "full_objective",
    "update_precisions",
    "train_block",
    "run_adareg",
    "evaluate",
]

EVAL_CHUNK = 1024


@dataclass(frozen=True)
class AdaRegState:
    """Network plus current precision pair, lambda, and outer-loop counter."""

    net: Network
    precisions: PrecisionPair
    lam: float
    outer_iter: int = 0

    def __post_init__(self):
        w = self.net.regularized_weight
        if (self.precisions.p, self.precisions.d) != w.shape:
            raise ValueError(
                f"precision dims {(self.precisions.p, self.precisions.d)} do "
                f"not match regularized weight {w.shape}"
            )
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")

    @classmethod
    def initial(cls, network: Network, bounds: SpectralBounds, lam: float) -> "AdaRegState":
        p, d = network.regularized_weight.shape
        return cls(network, PrecisionPair.identity(p, d, bounds), lam, 0)


@dataclass(frozen=True)
class BcdSchedule:
    """Outer-loop count, epochs per block, batch size, and learning rate.

    ``learning_rate`` may be zero for degenerate no-op schedules used in
    tests; everything else must be positive.
    """

    outer_loops: int
    epochs_per_block: int
    batch_size: int
    learning_rate: float

    def __post_init__(self):
        if self.outer_loops < 1 or self.batch_size < 1:
            raise ValueError("outer_loops and batch_size must be positive")
        if self.epochs_per_block < 0:
            raise ValueError("epochs_per_block must be >= 0")
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    outer_iter: int
    train_loss: float
    train_objective: float  # train loss plus the prior penalty
    test_loss: float
    train_metric: float
    test_metric: float


@dataclass
class MetricLog:
    """Per-epoch metrics of one run, in epoch order."""

    records: list[EpochRecord] = field(default_factory=list)


def full_objective(state: AdaRegState, dataset: Dataset) -> float:
    """Dataset loss plus the prior penalty on the regularized weight."""
    loss = loss_from_outputs(state.net, predict(state.net, dataset), dataset.targets)
    return loss + regularizer_value(state.net.regularized_weight, state.precisions, state.lam)


def evaluate(network: Network, dataset: Dataset):
    """(mean loss, headline metric) from one ``predict`` over the dataset:
    argmax accuracy for classification, mean explained variance across
    tasks for regression.  Regression scores both from one squared
    residual, against the dataset's cached target variance.

    A stacked network gives a list of one (loss, metric) per cell, each
    equal bit for bit to that cell's own call."""
    outputs = predict(network, dataset)
    if network.cells is None:
        return _score(network, outputs, dataset)
    return [_score(network, cell_outputs, dataset) for cell_outputs in outputs]


def _score(network: Network, outputs: np.ndarray, dataset) -> tuple[float, float]:
    """(mean loss, headline metric) of one cell's (rows, out) outputs."""
    if dataset.kind == DatasetKind.CLASSIFICATION:
        loss = loss_from_outputs(network, outputs, dataset.targets)
        return loss, float(np.mean(outputs.argmax(axis=1) == dataset.targets))
    loss, squared = squared_error(network, outputs, dataset.targets)
    return loss, float(np.mean(explained_variance(squared, dataset.target_variance)))


def predict(network: Network, dataset: Dataset) -> np.ndarray:
    """Network outputs for every row, computed in EVAL_CHUNK-row chunks;
    (cells, rows, out) for a stacked network.

    Each chunk's rows are read once and its forward cache is dropped as
    soon as its outputs are taken, and callers reduce the whole output array
    at once.  Where the chunk boundaries fall can move the last bits of some
    outputs, never training's.  A single chunk's outputs are returned as
    they are, without a copy.
    """
    chunks = [
        net_mod.forward(network, dataset.rows(slice(lo, lo + EVAL_CHUNK)))[0]
        for lo in range(0, dataset.n, EVAL_CHUNK)
    ]
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=-2)


def update_precisions(state: AdaRegState) -> AdaRegState:
    """Closed-form refresh of both precisions, in the order row then column.

    The row solve uses the stale column precision; the column solve uses the
    fresh row precision.  Both are exact minimizers of their subproblems, so
    the full objective cannot increase.  When ``lam`` is zero the prior is
    inert: every pair has zero penalty, so the pair already held is an exact
    minimizer and is kept, with no solve.
    """
    if state.lam == 0.0:
        return replace(state, outer_iter=state.outer_iter + 1)
    w = state.net.regularized_weight
    bounds = state.precisions.bounds
    p, d = w.shape
    delta_r = SymMatrix(w @ state.precisions.omega_c.entries @ w.T)
    omega_r = inv_threshold(delta_r, d, bounds)
    delta_c = SymMatrix(w.T @ omega_r.entries @ w)
    omega_c = inv_threshold(delta_c, p, bounds)
    return replace(
        state,
        precisions=PrecisionPair(omega_r, omega_c, bounds),
        outer_iter=state.outer_iter + 1,
    )


def train_block(
    state,
    schedule: BcdSchedule,
    dataset: Dataset,
    seed,
    weight_decay=0.0,
    dropout_rate: float = 0.0,
    epoch_callback=None,
):
    """One SGD block: ``epochs_per_block`` epochs with precisions frozen.

    The prior gradient 2*lambda * O_r W O_c is added to the regularized
    layer at every step (it is part of the block's objective, not a
    boundary correction).  Batch order and dropout masks derive from
    ``seed``, the outer iteration, and the epoch index, so trajectories are
    reproducible.  ``sgd_step`` raises Diverged on a non-finite parameter.

    ``state`` may also be a group: a tuple of states at one outer iteration,
    with ``weight_decay`` one float per state (or one for all).  The group
    trains in lockstep on one batch and dropout-mask stream, its networks
    stacked once per block, and each cell's parameters get the bits they
    would get alone.  ``epoch_callback(network, epoch)`` then receives the
    tuple of cell networks, and a tuple of states is returned.
    """
    group = isinstance(state, tuple)
    states = state if group else (state,)
    outer_iter = states[0].outer_iter
    if any(s.outer_iter != outer_iter for s in states):
        raise ValueError("a group's states must share the outer iteration")
    network = Network.stack([s.net for s in states])
    for epoch in range(schedule.epochs_per_block):
        shuffle_seed = _derived_seed(seed, outer_iter, epoch, 0)
        dropout_rng = np.random.default_rng(_derived_seed(seed, outer_iter, epoch, 1))
        for batch in batches(dataset, schedule.batch_size, shuffle_seed):
            grads = net_mod.backward(network, batch, dropout_rate, dropout_rng)
            w = network.regularized_weight
            extras = [
                regularizer_grad(w_cell, s.precisions, s.lam) if s.lam > 0.0 else None
                for w_cell, s in zip((w,) if network.cells is None else w, states)
            ]
            network = net_mod.sgd_step(
                network, grads, schedule.learning_rate, weight_decay, extras
            )
        if epoch_callback is not None:
            cells = network.unstack()
            epoch_callback(cells if group else cells[0], epoch)
    new = tuple(replace(s, net=n) for s, n in zip(states, network.unstack()))
    return new if group else new[0]


def _derived_seed(seed, outer_iter: int, epoch: int, stream: int):
    return [int(seed), int(outer_iter), int(epoch), int(stream)]


def run_adareg(
    network: Network,
    schedule: BcdSchedule,
    dataset: Dataset,
    bounds: SpectralBounds,
    lam,
    seed,
    test_dataset: Dataset | None = None,
    weight_decay=0.0,
    dropout_rate: float = 0.0,
):
    """Alternate SGD blocks with precision refreshes for ``outer_loops``
    rounds, starting from identity precisions.

    Per-epoch logging records train/test loss and metric plus the full
    training objective (loss with the prior penalty, evaluated against the
    precisions the block trained under); test columns repeat the train
    values when no test set is given.  A group's cells are evaluated
    together, one stacked ``evaluate`` per split and epoch.

    With ``lam`` a sequence, one entry per cell (and ``weight_decay`` a
    float or one per cell), the cells train from ``network`` as one group
    (see :func:`train_block`) and a list of one (state, log) per cell is
    returned; each cell's results equal those of its own scalar call.  A
    Diverged carries the failing cell's index when there are several.
    """
    group = isinstance(lam, (list, tuple))
    lams = tuple(lam) if group else (lam,)
    states = tuple(AdaRegState.initial(network, bounds, c_lam) for c_lam in lams)
    logs = tuple(MetricLog() for _ in lams)

    def record(states, current, _epoch: int) -> None:
        stack = Network.stack(current)
        train = evaluate(stack, dataset)
        test = train if test_dataset is None else evaluate(stack, test_dataset)
        if stack.cells is None:
            train, test = [train], [test]
        for c, (cell_net, state, log) in enumerate(zip(current, states, logs)):
            epoch = len(log.records)
            (train_loss, train_metric), (test_loss, test_metric) = train[c], test[c]
            objective = train_loss + regularizer_value(
                cell_net.regularized_weight, state.precisions, state.lam
            )
            if not (np.isfinite(train_loss) and np.isfinite(test_loss)):
                raise Diverged(
                    f"loss became non-finite at epoch {epoch}",
                    c if len(states) > 1 else None,
                )
            log.records.append(
                EpochRecord(
                    epoch,
                    state.outer_iter,
                    train_loss,
                    objective,
                    test_loss,
                    train_metric,
                    test_metric,
                )
            )

    # sgd_step and record raise Diverged; numpy's overflow warnings add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(schedule.outer_loops):
            states = train_block(
                states,
                schedule,
                dataset,
                seed,
                weight_decay,
                dropout_rate,
                epoch_callback=partial(record, states),
            )
            states = tuple(map(update_precisions, states))
    results = list(zip(states, logs))
    return results if group else results[0]
