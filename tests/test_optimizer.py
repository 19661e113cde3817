"""Tests for the block coordinate descent loop.

Covers subproblem-exactness consequences (objective monotonicity,
feasibility), the degeneration to weight decay at u = v = 1, trajectory
determinism, and finite-difference checks of the full objective's gradient.
"""

import sys
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from adareg import data as data_mod
from adareg import net as net_mod
from adareg.data import Dataset, DatasetKind, load_idx, read_idx, write_idx
from adareg.errors import Diverged, ZeroVariance
from adareg.net import (
    Activation,
    DenseLayer,
    LossKind,
    Network,
    backward,
    loss_from_outputs,
)
from adareg.optimizer import (
    EVAL_CHUNK,
    AdaRegState,
    BcdSchedule,
    evaluate,
    full_objective,
    run_adareg,
    train_block,
    update_precisions,
)
from adareg import spectral
from adareg.prior import PrecisionPair, regularizer_grad, regularizer_value
from adareg.spectral import SpectralBounds, SymMatrix, inv_threshold

B10 = SpectralBounds.from_v(10.0)


def _loss_trace(log):
    return [
        (r.epoch, r.outer_iter, r.train_loss, r.test_loss, r.train_metric, r.test_metric)
        for r in log.records
    ]


def _toy_regression(n=24, d=3, t=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    w_true = rng.normal(size=(d, t))
    y = x @ w_true + 0.05 * rng.normal(size=(n, t))
    return Dataset(x, y, DatasetKind.REGRESSION)


def _toy_classification(n=30, d=4, k=3, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    return Dataset(x, y, DatasetKind.CLASSIFICATION)


def _random_state(rng, p=4, d=5, lam=0.05):
    net = Network.init([d, p], LossKind.SQUARED_ERROR, seed=int(rng.integers(1e6)))
    scale = float(rng.uniform(0.5, 3.0))
    layers = (
        DenseLayer(
            scale * net.layers[0].weight, net.layers[0].bias, net.layers[0].activation
        ),
    )
    net = Network(layers, LossKind.SQUARED_ERROR)
    state = AdaRegState.initial(net, B10, lam)
    # wander off the identity so both precision solves are non-trivial
    for _ in range(int(rng.integers(0, 3))):
        state = update_precisions(state)
    return state


class TestFullObjective:
    def test_zero_weights_identity_precisions_equal_plain_loss(self):
        ds = _toy_regression()
        zeroed = Network(
            (DenseLayer(np.zeros((2, 3)), np.zeros(2), Activation.IDENTITY),),
            LossKind.SQUARED_ERROR,
        )
        state = AdaRegState.initial(zeroed, B10, lam=0.3)
        loss, _ = evaluate(zeroed, ds)
        assert full_objective(state, ds) == pytest.approx(loss, rel=1e-12)

    def test_lambda_zero_equals_plain_loss(self):
        ds = _toy_regression()
        net = Network.init([3, 2], LossKind.SQUARED_ERROR, seed=3)
        state = AdaRegState.initial(net, B10, lam=0.0)
        state = AdaRegState(net, state.precisions, 0.0)
        loss, _ = evaluate(net, ds)
        assert full_objective(state, ds) == loss

    def test_additivity_of_components(self):
        ds = _toy_regression()
        net = Network.init([3, 2], LossKind.SQUARED_ERROR, seed=4)
        state = AdaRegState.initial(net, B10, lam=0.7)
        state = update_precisions(state)
        loss, _ = evaluate(state.net, ds)
        reg = regularizer_value(state.net.regularized_weight, state.precisions, 0.7)
        assert full_objective(state, ds) == pytest.approx(loss + reg, rel=1e-12)


class TestUpdatePrecisions:
    def test_zero_weight_gives_v_identity(self):
        net = Network(
            (DenseLayer(np.zeros((3, 4)), np.zeros(3), Activation.IDENTITY),),
            LossKind.SQUARED_ERROR,
        )
        state = AdaRegState.initial(net, B10, lam=0.1)
        out = update_precisions(state)
        np.testing.assert_array_equal(out.precisions.omega_r.entries, 10.0 * np.eye(3))
        np.testing.assert_array_equal(out.precisions.omega_c.entries, 10.0 * np.eye(4))

    def test_identity_weight_gives_thresholded_d(self):
        p = 3
        net = Network(
            (DenseLayer(np.eye(p), np.zeros(p), Activation.IDENTITY),),
            LossKind.SQUARED_ERROR,
        )
        state = AdaRegState.initial(net, B10, lam=0.1)
        out = update_precisions(state)
        np.testing.assert_allclose(
            out.precisions.omega_r.entries, min(10.0, float(p)) * np.eye(p)
        )

    def test_order_row_update_feeds_column_update(self):
        rng = np.random.default_rng(5)
        state = _random_state(rng)
        w = state.net.regularized_weight
        out = update_precisions(state)
        bounds = state.precisions.bounds
        expect_r = inv_threshold(
            SymMatrix(w @ state.precisions.omega_c.entries @ w.T), w.shape[1], bounds
        )
        expect_c = inv_threshold(
            SymMatrix(w.T @ expect_r.entries @ w), w.shape[0], bounds
        )
        np.testing.assert_allclose(out.precisions.omega_r.entries, expect_r.entries)
        np.testing.assert_allclose(out.precisions.omega_c.entries, expect_c.entries)

    def test_never_increases_objective(self):
        rng = np.random.default_rng(6)
        ds = _toy_regression(n=16, d=5, t=4, seed=7)
        for _ in range(10):
            state = _random_state(rng, p=4, d=5, lam=float(rng.uniform(0.01, 0.5)))
            before = full_objective(state, ds)
            after = full_objective(update_precisions(state), ds)
            assert after <= before + 1e-9 * abs(before)

    def test_outer_iter_increments(self):
        rng = np.random.default_rng(8)
        state = _random_state(rng)
        assert update_precisions(state).outer_iter == state.outer_iter + 1

    def test_feasibility_preserved(self):
        rng = np.random.default_rng(9)
        state = _random_state(rng)
        for _ in range(3):
            state = update_precisions(state)
            for m in (state.precisions.omega_r.entries, state.precisions.omega_c.entries):
                vals = np.linalg.eigvalsh(m)
                assert vals.min() >= B10.u - 1e-8
                assert vals.max() <= B10.v + 1e-8


class TestOneDecompositionPerSolve:
    """Each closed-form solve decomposes once; its spectrum travels on."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        """Counts calls to spectral.eigh through every adareg binding of it."""
        calls = []
        original = spectral.eigh

        def counting(a):
            calls.append(a)
            return original(a)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "adareg" and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        return calls

    def test_update_precisions_decomposes_twice(self, eigh_calls):
        state = _random_state(np.random.default_rng(10))
        eigh_calls.clear()
        out = update_precisions(state)
        assert len(eigh_calls) == 2
        pair = out.precisions
        assert np.isfinite(pair.logdet_r() + pair.logdet_c())
        pair.to_prior()
        assert len(eigh_calls) == 2

    def test_inert_prior_keeps_its_pair_without_decomposing(self, eigh_calls):
        state = _random_state(np.random.default_rng(10), lam=0.0)
        eigh_calls.clear()
        out = update_precisions(state)
        assert eigh_calls == []
        assert out.precisions is state.precisions
        assert out.outer_iter == state.outer_iter + 1

    def test_identity_and_to_prior_do_not_decompose(self, eigh_calls):
        pair = PrecisionPair.identity(3, 4, B10)
        prior = pair.to_prior()
        assert eigh_calls == []
        np.testing.assert_array_equal(prior.row_cov.entries, np.eye(3))

    def test_raw_matrices_still_checked(self, eigh_calls):
        with pytest.raises(ValueError, match="omega_r spectrum"):
            PrecisionPair(SymMatrix(np.diag([11.0, 1.0])), SymMatrix(np.eye(2)), B10)
        with pytest.raises(ValueError, match="omega_c spectrum"):
            PrecisionPair(SymMatrix(np.eye(2)), SymMatrix(np.diag([1.0, 0.05])), B10)
        assert eigh_calls  # raw matrices carry no spectrum to trust


class TestOneForwardPassPerEvaluation:
    """evaluate and full_objective run the network once per EVAL_CHUNK rows
    and score the whole output array with one mean over all its rows."""

    N = 2 * EVAL_CHUNK + 5

    @pytest.fixture
    def forward_calls(self, monkeypatch):
        """Rows passed to each call of adareg.net.forward."""
        calls = []
        original = net_mod.forward

        def counting(network, inputs, *args):
            calls.append(len(inputs))
            return original(network, inputs, *args)

        monkeypatch.setattr(net_mod, "forward", counting)
        return calls

    def _fixture(self, kind):
        if kind == DatasetKind.REGRESSION:
            dataset = _toy_regression(n=self.N, d=3, t=2, seed=4)
            return dataset, Network.init([3, 5, 2], LossKind.SQUARED_ERROR, seed=5)
        dataset = _toy_classification(n=self.N, d=6, k=4, seed=6)
        return dataset, Network.init([6, 8, 4], LossKind.SOFTMAX_CROSS_ENTROPY, seed=7)

    @staticmethod
    def _one_mean_oracle(network, dataset):
        """(loss, metric) as one mean over all rows of the per-chunk
        ``forward`` outputs, concatenated."""
        outputs = np.concatenate(
            [
                net_mod.forward(network, dataset.inputs[lo : lo + EVAL_CHUNK])[0]
                for lo in range(0, dataset.n, EVAL_CHUNK)
            ]
        )
        loss = loss_from_outputs(network, outputs, dataset.targets)
        if dataset.kind == DatasetKind.CLASSIFICATION:
            return loss, float(np.mean(outputs.argmax(axis=1) == dataset.targets))
        y = dataset.targets
        ev = 1.0 - np.mean((outputs - y) ** 2, axis=0) / y.var(axis=0)
        return loss, float(np.mean(ev))

    @pytest.mark.parametrize("kind", [DatasetKind.CLASSIFICATION, DatasetKind.REGRESSION])
    def test_evaluate_makes_one_pass(self, forward_calls, kind):
        dataset, network = self._fixture(kind)
        got = evaluate(network, dataset)
        assert forward_calls == [EVAL_CHUNK, EVAL_CHUNK, 5]
        assert got == self._one_mean_oracle(network, dataset)

    @pytest.mark.parametrize("kind", [DatasetKind.CLASSIFICATION, DatasetKind.REGRESSION])
    def test_full_objective_makes_one_pass(self, forward_calls, kind):
        dataset, network = self._fixture(kind)
        state = AdaRegState.initial(network, B10, 0.05)
        got = full_objective(state, dataset)
        assert forward_calls == [EVAL_CHUNK, EVAL_CHUNK, 5]
        loss, _ = self._one_mean_oracle(network, dataset)
        penalty = regularizer_value(network.regularized_weight, state.precisions, 0.05)
        assert got == loss + penalty

    @pytest.mark.parametrize("kind", [DatasetKind.CLASSIFICATION, DatasetKind.REGRESSION])
    def test_stacked_evaluate_equals_each_cells_own(self, forward_calls, kind):
        dataset, network = self._fixture(kind)
        sizes = [network.layers[0].in_dim] + [layer.out_dim for layer in network.layers]
        cells = [network] + [Network.init(sizes, network.loss, seed=s) for s in (11, 12)]
        got = evaluate(Network.stack(cells), dataset)
        assert forward_calls == [EVAL_CHUNK, EVAL_CHUNK, 5]  # one pass for the group
        want = [evaluate(cell, dataset) for cell in cells]
        assert len(got) == len(cells)
        assert np.array(got).tobytes() == np.array(want).tobytes()


class TestTrainBlock:
    def test_lambda_zero_matches_plain_sgd(self):
        ds = _toy_classification()
        sched = BcdSchedule(1, 3, 8, 0.1)
        net = Network.init([4, 6, 3], LossKind.SOFTMAX_CROSS_ENTROPY, seed=10)
        state = AdaRegState.initial(net, B10, lam=0.0)
        out = train_block(state, sched, ds, seed=11)

        # hand-rolled SGD with the same batch seeds
        from adareg.data import batches
        from adareg.net import sgd_step

        manual = net
        for epoch in range(3):
            for batch in batches(ds, 8, [11, 0, epoch, 0]):
                manual = sgd_step(manual, backward(manual, batch), 0.1)
        for la, lb in zip(out.net.layers, manual.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_zero_learning_rate_keeps_parameters(self):
        ds = _toy_regression()
        sched = BcdSchedule(1, 2, 6, 0.0)
        net = Network.init([3, 2], LossKind.SQUARED_ERROR, seed=12)
        state = AdaRegState.initial(net, B10, lam=0.1)
        out = train_block(state, sched, ds, seed=13)
        np.testing.assert_array_equal(
            out.net.layers[0].weight, net.layers[0].weight
        )

    def test_objective_decreases_on_convex_fixture(self):
        ds = _toy_regression(n=40, d=3, t=2, seed=14)
        sched = BcdSchedule(1, 10, 10, 0.05)
        net = Network.init([3, 2], LossKind.SQUARED_ERROR, seed=15)
        state = AdaRegState.initial(net, B10, lam=0.01)
        before = full_objective(state, ds)
        out = train_block(state, sched, ds, seed=16)
        assert full_objective(out, ds) < before

    def test_regularizer_gradient_applied_every_step(self):
        # with a huge lambda one step must shrink the regularized weights
        ds = _toy_regression(n=8, d=3, t=2, seed=17)
        sched = BcdSchedule(1, 1, 8, 0.1)
        net = Network.init([3, 2], LossKind.SQUARED_ERROR, seed=18)
        state = AdaRegState.initial(net, B10, lam=5.0)
        out = train_block(state, sched, ds, seed=19)
        assert np.linalg.norm(out.net.regularized_weight) < np.linalg.norm(
            net.regularized_weight
        )


class TestRunAdareg:
    def test_degenerate_schedule_updates_precisions_once(self):
        ds = _toy_regression()
        sched = BcdSchedule(1, 0, 8, 0.1)
        net = Network.init([3, 2], LossKind.SQUARED_ERROR, seed=20)
        state, log = run_adareg(net, sched, ds, B10, lam=0.2, seed=21)
        assert state.outer_iter == 1
        assert log.records == []
        expect = update_precisions(AdaRegState.initial(net, B10, 0.2))
        np.testing.assert_array_equal(
            state.precisions.omega_r.entries, expect.precisions.omega_r.entries
        )
        for la, lb in zip(state.net.layers, net.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)

    def test_identical_seeds_identical_logs(self):
        ds = _toy_classification()
        sched = BcdSchedule(2, 2, 8, 0.1)
        kwargs = dict(bounds=B10, lam=0.05, seed=22, weight_decay=1e-3)

        def run():
            net = Network.init([4, 5, 3], LossKind.SOFTMAX_CROSS_ENTROPY, seed=23)
            return run_adareg(net, sched, ds, test_dataset=ds, **kwargs)

        _, log1 = run()
        _, log2 = run()
        assert log1.records == log2.records

    def test_epoch_and_outer_counters(self):
        ds = _toy_regression()
        sched = BcdSchedule(2, 3, 8, 0.05)
        net = Network.init([3, 2], LossKind.SQUARED_ERROR, seed=24)
        state, log = run_adareg(net, sched, ds, B10, lam=0.1, seed=25)
        assert [r.epoch for r in log.records] == list(range(6))
        assert [r.outer_iter for r in log.records] == [0, 0, 0, 1, 1, 1]
        assert state.outer_iter == 2

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
    def test_lambda_must_be_finite_and_non_negative(self, lam):
        net = Network.init([3, 2], LossKind.SQUARED_ERROR, seed=26)
        with pytest.raises(ValueError, match="lambda must be finite"):
            run_adareg(net, BcdSchedule(1, 1, 8, 0.1), _toy_regression(), B10, lam, 27)

    def test_degenerate_bounds_match_weight_decay_bitwise(self):
        # u = v = 1 pins the precisions at the identity, so the loop must
        # reproduce SGD with weight decay 2*lambda bit for bit.  The decay
        # and the prior both touch only the regularized matrix, so the
        # fixture is a single-layer network.
        ds = _toy_classification(n=40, d=5, k=3, seed=26)
        ones = SpectralBounds.from_v(1.0)
        sched = BcdSchedule(3, 1, 16, 0.2)
        lam = 0.013

        net0 = Network.init([5, 3], LossKind.SOFTMAX_CROSS_ENTROPY, seed=27)
        ada_state, ada_log = run_adareg(
            net0, sched, ds, ones, lam, seed=28, test_dataset=ds
        )
        wd_state, wd_log = run_adareg(
            net0, sched, ds, ones, 0.0, seed=28, test_dataset=ds,
            weight_decay=2.0 * lam,
        )
        for la, lb in zip(ada_state.net.layers, wd_state.net.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)
        # objectives differ by the prior's penalty term; everything that is
        # a pure function of the parameters must agree exactly
        assert _loss_trace(ada_log) == _loss_trace(wd_log)

    def test_full_objective_gradient_matches_finite_differences(self):
        ds = _toy_regression(n=12, d=4, t=3, seed=29)
        net = Network.init([4, 3], LossKind.SQUARED_ERROR, seed=30)
        state = AdaRegState.initial(net, B10, lam=0.15)
        state = update_precisions(state)
        net = state.net

        grads = backward(net, ds.as_batch())
        total = grads.weight[net.regularized_layer_index] + regularizer_grad(
            net.regularized_weight, state.precisions, state.lam
        )

        w0 = net.regularized_weight.copy()
        step = 1e-5
        fd = np.zeros_like(w0)
        for i in range(w0.shape[0]):
            for j in range(w0.shape[1]):
                for sign in (+1.0, -1.0):
                    w = w0.copy()
                    w[i, j] += sign * step
                    patched = Network(
                        (DenseLayer(w, net.layers[0].bias, net.layers[0].activation),),
                        LossKind.SQUARED_ERROR,
                    )
                    val = full_objective(
                        AdaRegState(patched, state.precisions, state.lam), ds
                    )
                    fd[i, j] += sign * val / (2.0 * step)
        rel = np.abs(total - fd).max() / np.abs(fd).max()
        assert rel < 1e-4


class TestRegressionScoring:
    """evaluate scores regression from one squared residual, against the
    target variance each dataset computes once."""

    def test_constant_target_column_raises(self):
        data = _toy_regression(n=12, d=3, t=2, seed=19)
        targets = data.targets.copy()
        targets[:, 1] = 4.0
        constant = Dataset(data.inputs, targets, DatasetKind.REGRESSION)
        network = Network.init([3, 4, 2], LossKind.SQUARED_ERROR, seed=20)
        with pytest.raises(ZeroVariance, match="target column 1 is constant"):
            evaluate(network, constant)

    def test_each_dataset_computes_its_variance_once(self, monkeypatch):
        computed = []
        original = data_mod.target_variance

        def counting(targets):
            computed.append(targets)
            return original(targets)

        monkeypatch.setattr(data_mod, "target_variance", counting)
        train, test = _toy_regression(seed=21), _toy_regression(n=10, seed=22)
        network = Network.init([3, 4, 2], LossKind.SQUARED_ERROR, seed=23)
        _, log = run_adareg(
            network, BcdSchedule(2, 3, 8, 0.05), train, B10, 0.01, 0, test_dataset=test
        )
        assert len(log.records) == 6
        assert [id(t) for t in computed] == [id(train.targets), id(test.targets)]


class TestPredict:
    def test_single_chunk_returns_the_forward_output(self, monkeypatch):
        from adareg.optimizer import predict

        outputs = []
        original = net_mod.forward

        def spying(network, inputs, *args):
            result = original(network, inputs, *args)
            outputs.append(result[0])
            return result

        monkeypatch.setattr(net_mod, "forward", spying)
        dataset = _toy_regression(n=EVAL_CHUNK, d=3, t=2, seed=8)
        network = Network.init([3, 5, 2], LossKind.SQUARED_ERROR, seed=9)
        got = predict(network, dataset)
        assert len(outputs) == 1
        assert got is outputs[0]


# (lambda, weight_decay) of the six methods, in two groups by dropout rate:
# none, weight_decay, adareg, adareg+weight_decay; dropout, adareg+dropout.
_SIX_METHODS = (
    (0.0, [(0.0, 0.0), (0.0, 2e-3), (0.04, 0.0), (0.04, 2e-3)]),
    (0.25, [(0.0, 0.0), (0.04, 0.0)]),
)


class TestGroupTraining:
    """One run_adareg call over several (lambda, weight_decay) pairs trains
    them in lockstep and gives each the bits of its own scalar call."""

    @pytest.mark.parametrize("kind", [DatasetKind.CLASSIFICATION, DatasetKind.REGRESSION])
    @pytest.mark.parametrize("rate,knobs", _SIX_METHODS)
    def test_group_equals_scalar_calls(self, kind, rate, knobs):
        if kind == DatasetKind.CLASSIFICATION:
            train, test = _toy_classification(n=40, seed=31), _toy_classification(n=20, seed=32)
            net = Network.init([4, 6, 3], LossKind.SOFTMAX_CROSS_ENTROPY, seed=33)
        else:
            train, test = _toy_regression(n=40, seed=34), _toy_regression(n=20, seed=35)
            net = Network.init([3, 6, 2], LossKind.SQUARED_ERROR, seed=36)
        sched = BcdSchedule(2, 2, 16, 0.1)
        lams, decays = zip(*knobs)
        group = run_adareg(
            net, sched, train, B10, lams, 37, test_dataset=test,
            weight_decay=decays, dropout_rate=rate,
        )
        assert len(group) == len(knobs)
        for (state, log), (lam, decay) in zip(group, knobs):
            want_state, want_log = run_adareg(
                net, sched, train, B10, lam, 37, test_dataset=test,
                weight_decay=decay, dropout_rate=rate,
            )
            assert log.records == want_log.records
            assert len(log.records) == 4
            assert (state.lam, state.outer_iter) == (want_state.lam, want_state.outer_iter)
            for got, want in zip(state.net.layers, want_state.net.layers):
                assert got.weight.tobytes() == want.weight.tobytes()
                assert got.bias.tobytes() == want.bias.tobytes()
            for got, want in (
                (state.precisions.omega_r, want_state.precisions.omega_r),
                (state.precisions.omega_c, want_state.precisions.omega_c),
            ):
                assert got.entries.tobytes() == want.entries.tobytes()

    def test_train_block_takes_a_tuple_of_states(self):
        ds = _toy_regression(n=24, seed=38)
        sched = BcdSchedule(1, 2, 8, 0.1)
        net = Network.init([3, 4, 2], LossKind.SQUARED_ERROR, seed=39)
        states = (AdaRegState.initial(net, B10, 0.0), AdaRegState.initial(net, B10, 0.1))
        seen = []
        out = train_block(
            states, sched, ds, 40, (1e-3, 0.0),
            epoch_callback=lambda nets, epoch: seen.append((len(nets), epoch)),
        )
        assert seen == [(2, 0), (2, 1)]
        assert isinstance(out, tuple) and len(out) == 2
        for got, state, decay in zip(out, states, (1e-3, 0.0)):
            want = train_block(state, sched, ds, 40, decay)
            for g, w in zip(got.net.layers, want.net.layers):
                assert g.weight.tobytes() == w.weight.tobytes()

    def test_diverged_cell_is_named(self):
        ds = _toy_regression(n=16, seed=41)
        sched = BcdSchedule(1, 3, 8, 0.1)
        net = Network.init([3, 4, 2], LossKind.SQUARED_ERROR, seed=42)
        with pytest.raises(Diverged) as caught:
            run_adareg(net, sched, ds, B10, [0.0, 0.0, 0.1], 43,
                       weight_decay=[0.0, 1e100, 0.0])
        assert caught.value.cell == 1
        assert str(caught.value).startswith("cell 1: ")


class TestIdxSplitTraining:
    """A group trains on an IDX subsample kept as pixel bytes, converting rows
    per batch and per evaluation chunk, with the bits it gets from the same
    rows loaded as float64 by ``load_idx``."""

    N_TRAIN, N_TEST, PIXELS = 2 * EVAL_CHUNK + 1, EVAL_CHUNK + 1, 784

    @pytest.fixture(scope="class")
    def idx_files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("idx")
        rng = np.random.default_rng(60)
        paths = {}
        for name, n in (("train", self.N_TRAIN), ("test", self.N_TEST)):
            pixels = rng.integers(0, 256, size=(n, self.PIXELS))
            ds = Dataset(pixels / 255.0, rng.integers(0, 10, size=n), DatasetKind.CLASSIFICATION)
            paths[name] = (root / f"{name}-img", root / f"{name}-lab")
            write_idx(ds, *paths[name], 28, 28)
        return paths

    @staticmethod
    def _records_bytes(log) -> bytes:
        return np.array([astuple(r) for r in log.records], dtype=float).tobytes()

    @pytest.mark.parametrize(
        "rows", [EVAL_CHUNK - 1, EVAL_CHUNK, EVAL_CHUNK + 1, 2 * EVAL_CHUNK + 1]
    )
    def test_group_on_bytes_equals_group_on_floats(self, idx_files, rows):
        test_bytes, test_floats = read_idx(*idx_files["test"]), load_idx(*idx_files["test"])
        train_bytes = data_mod.subsample(read_idx(*idx_files["train"]), rows, [0, 101])
        train_floats = data_mod.subsample(load_idx(*idx_files["train"]), rows, [0, 101])
        assert isinstance(train_bytes, Dataset) and train_bytes.n == rows
        net = Network.init([self.PIXELS, 16, 10], LossKind.SOFTMAX_CROSS_ENTROPY, seed=61)
        sched = BcdSchedule(2, 1, 256, 0.3)
        knobs = dict(lam=[0.0, 0.0, 1e-3], seed=62, weight_decay=[0.0, 1e-3, 0.0])
        got = run_adareg(net, sched, train_bytes, B10, test_dataset=test_bytes, **knobs)
        want = run_adareg(net, sched, train_floats, B10, test_dataset=test_floats, **knobs)
        for (got_state, got_log), (want_state, want_log) in zip(got, want):
            assert len(got_log.records) == 2
            assert self._records_bytes(got_log) == self._records_bytes(want_log)
            for g, w in zip(got_state.net.layers, want_state.net.layers):
                assert g.weight.tobytes() == w.weight.tobytes()
                assert g.bias.tobytes() == w.bias.tobytes()

    def test_training_holds_no_float_copy_of_its_rows(self, idx_files):
        split, test = read_idx(*idx_files["train"]), read_idx(*idx_files["test"])
        net = Network.init([self.PIXELS, 16, 10], LossKind.SOFTMAX_CROSS_ENTROPY, seed=63)
        tracemalloc.start()
        try:
            train = data_mod.subsample(split, self.N_TRAIN, [0, 101])
            run_adareg(
                net, BcdSchedule(1, 1, 256, 0.3), train, B10, [0.0, 1e-3], 64,
                test_dataset=test,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.N_TRAIN * self.PIXELS * 8


def _net342(seed=50):
    return Network.init([3, 4, 2], LossKind.SQUARED_ERROR, seed=seed)


class TestInputGuards:
    """Each guard raises on the one bad input it exists for."""

    @pytest.mark.parametrize(
        "build, match",
        [
            # the regularized weight is (2, 4), the precisions (4, 2)
            (lambda: AdaRegState(_net342(), PrecisionPair.identity(4, 2, B10), 0.1),
             "precision dims"),
            (lambda: BcdSchedule(1, -1, 8, 0.1), "epochs_per_block"),
            (lambda: BcdSchedule(1, 1, 8, -0.1), "learning_rate"),
            (lambda: train_block(
                (AdaRegState.initial(_net342(), B10, 0.1),
                 AdaRegState(_net342(), PrecisionPair.identity(2, 4, B10), 0.1, 1)),
                BcdSchedule(1, 1, 8, 0.1), _toy_regression(), 51),
             "share the outer iteration"),
        ],
        ids=["precision_shape", "negative_epochs", "negative_rate", "mixed_outer_iter"],
    )
    def test_bad_input_raises(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()
