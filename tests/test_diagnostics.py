"""Tests for spectrum, correlation, and explained-variance diagnostics.

The SVD spectral norm is checked against the cyclic Jacobi oracle in
``oracles.py`` (an algorithmically independent route) and against a
matrix built from known singular values; correlations are checked against
np.corrcoef.
"""

import numpy as np
import pytest

from adareg.diagnostics import (
    SpectrumReport,
    correlation_matrix,
    explained_variance,
    generalization_proxy,
    spectral_norm,
    stable_rank,
    target_variance,
)
from adareg.errors import ConvergenceFailure, DegenerateRow, ZeroMatrix, ZeroVariance
from adareg.net import Activation, DenseLayer, LossKind, Network
from oracles import jacobi_eigh, random_orthogonal


class TestSpectralNorm:
    def test_orthogonal_matrix(self):
        assert spectral_norm(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_norm(np.diag([2.0, 1.0])) == pytest.approx(2.0)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_matches_jacobi_eigensolver(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.normal(size=(5, 3))
            top = jacobi_eigh(w.T @ w)[0][0]
            got = spectral_norm(w)
            assert got == pytest.approx(np.sqrt(top), rel=1e-8)

    def test_matches_numpy_svd(self):
        rng = np.random.default_rng(1)
        for shape in [(4, 4), (2, 7), (9, 3)]:
            w = rng.normal(size=shape)
            assert spectral_norm(w) == pytest.approx(
                np.linalg.svd(w, compute_uv=False)[0], rel=1e-9
            )

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 6))
        q = random_orthogonal(rng, 4)
        r = random_orthogonal(rng, 6)
        assert spectral_norm(q @ w @ r) == pytest.approx(
            spectral_norm(w), rel=1e-8
        )

    def test_deterministic(self):
        w = np.random.default_rng(3).normal(size=(6, 6))
        assert spectral_norm(w) == spectral_norm(w)

    def test_nearly_degenerate_top_gap(self):
        # sigma_2 / sigma_1 = 1 - 1e-4: an iteration on W^T W would need
        # tens of thousands of steps here; the SVD is exact to roundoff.
        rng = np.random.default_rng(13)
        u = random_orthogonal(rng, 50)
        v = np.linalg.qr(rng.normal(size=(784, 50)))[0]
        sigma = np.concatenate([[1.0, 1.0 - 1e-4], np.linspace(0.9, 0.1, 48)])
        w = (u * sigma) @ v.T
        assert spectral_norm(w) == pytest.approx(1.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("fn", [spectral_norm, stable_rank, SpectrumReport.of])
    def test_non_finite_entry_raises(self, fn, bad):
        w = np.ones((3, 2))
        w[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fn(w)

    def test_lapack_failure_is_convergence_failure(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(ConvergenceFailure):
            spectral_norm(np.eye(2))


class TestStableRank:
    def test_identity(self):
        assert stable_rank(np.eye(4)) == pytest.approx(4.0)

    def test_rank_one(self):
        w = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        assert stable_rank(w) == pytest.approx(1.0, abs=1e-8)

    def test_diagonal(self):
        assert stable_rank(np.diag([2.0, 1.0])) == pytest.approx(1.25)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(3, 5))
        for c in (-3.0, 0.25, 100.0):
            assert stable_rank(c * w) == pytest.approx(stable_rank(w), rel=1e-9)

    def test_bounded_by_numerical_rank(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            w = rng.normal(size=(4, 6)) @ np.diag(rng.uniform(0.1, 1.0, 6))
            s = np.linalg.svd(w, compute_uv=False)
            numerical_rank = int(np.sum(s > 1e-10 * s[0]))
            sr = stable_rank(w)
            assert 1.0 - 1e-12 <= sr <= numerical_rank + 1e-8

    def test_zero_matrix_raises(self):
        with pytest.raises(ZeroMatrix):
            stable_rank(np.zeros((2, 2)))


class TestSpectrumReport:
    def test_consistency_invariant(self):
        w = np.random.default_rng(6).normal(size=(5, 4))
        rep = SpectrumReport.of(w)
        ratio = rep.frobenius_norm**2 / rep.spectral_norm**2
        assert rep.stable_rank == pytest.approx(ratio, rel=1e-10)
        assert 1.0 <= rep.stable_rank <= 4.0 + 1e-8

    def test_zero_matrix_raises(self):
        with pytest.raises(ZeroMatrix):
            SpectrumReport.of(np.zeros((3, 2)))


class TestGeneralizationProxy:
    def _single_layer_net(self, w):
        return Network(
            (DenseLayer(w, np.zeros(w.shape[0]), Activation.IDENTITY),),
            LossKind.SQUARED_ERROR,
        )

    def test_identity_layer(self):
        net = self._single_layer_net(np.eye(2))
        assert generalization_proxy(net, 2) == pytest.approx(1.0)

    def test_scaling_one_layer(self):
        rng = np.random.default_rng(7)
        w1 = rng.normal(size=(4, 3))
        w2 = rng.normal(size=(2, 4))
        base = Network(
            (
                DenseLayer(w1, np.zeros(4), Activation.RELU),
                DenseLayer(w2, np.zeros(2), Activation.IDENTITY),
            ),
            LossKind.SQUARED_ERROR,
        )
        scaled = Network(
            (
                DenseLayer(3.0 * w1, np.zeros(4), Activation.RELU),
                DenseLayer(w2, np.zeros(2), Activation.IDENTITY),
            ),
            LossKind.SQUARED_ERROR,
        )
        assert generalization_proxy(scaled, 50) == pytest.approx(
            3.0 * generalization_proxy(base, 50), rel=1e-8
        )

    def test_hand_computation(self):
        w1 = np.diag([2.0, 1.0])
        w2 = np.array([[3.0, 0.0]])
        net = Network(
            (
                DenseLayer(w1, np.zeros(2), Activation.RELU),
                DenseLayer(w2, np.zeros(1), Activation.IDENTITY),
            ),
            LossKind.SQUARED_ERROR,
        )
        # norms^2: 4 and 9; sranks: 1.25 and 1; n=10
        expect = np.sqrt(4.0 * 9.0 * (1.25 + 1.0) / 10.0)
        assert generalization_proxy(net, 10) == pytest.approx(expect, rel=1e-9)

    def test_zero_layer_raises(self):
        net = self._single_layer_net(np.zeros((2, 2)))
        with pytest.raises(ZeroMatrix):
            generalization_proxy(net, 5)


class TestCorrelationMatrix:
    def test_identical_rows(self):
        w = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        corr = correlation_matrix(w)
        assert corr[0, 1] == pytest.approx(1.0)

    def test_anti_correlated_rows(self):
        w = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        corr = correlation_matrix(w)
        assert corr[0, 1] == pytest.approx(-1.0)

    def test_matches_numpy_corrcoef(self):
        w = np.random.default_rng(8).normal(size=(6, 9))
        np.testing.assert_allclose(
            correlation_matrix(w), np.corrcoef(w), atol=1e-12
        )

    def test_unit_diagonal_and_range(self):
        w = np.random.default_rng(9).normal(size=(5, 7))
        corr = correlation_matrix(w)
        np.testing.assert_array_equal(np.diag(corr), np.ones(5))
        assert corr.min() >= -1.0 and corr.max() <= 1.0

    def test_symmetric_psd(self):
        w = np.random.default_rng(10).normal(size=(8, 12))
        corr = correlation_matrix(w)
        np.testing.assert_allclose(corr, corr.T, atol=1e-12)
        assert np.linalg.eigvalsh(corr).min() >= -1e-8

    def test_constant_row_raises(self):
        with pytest.raises(DegenerateRow):
            correlation_matrix(np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]]))


def _ev(pred, y):
    """Explained variance of predictions against targets."""
    return explained_variance((pred - y) ** 2, target_variance(y))


class TestExplainedVariance:
    def test_perfect_predictions(self):
        y = np.random.default_rng(11).normal(size=(20, 3))
        np.testing.assert_allclose(_ev(y, y), np.ones(3))

    def test_mean_predictor_scores_zero(self):
        y = np.random.default_rng(12).normal(size=(50, 2))
        pred = np.tile(y.mean(axis=0), (50, 1))
        np.testing.assert_allclose(_ev(pred, y), np.zeros(2), atol=1e-12)

    def test_hand_computation(self):
        y = np.array([[0.0], [1.0], [2.0]])
        pred = np.array([[0.0], [1.0], [1.0]])
        # mse = 1/3, var = 2/3 -> ev = 0.5
        assert _ev(pred, y)[0] == pytest.approx(0.5)

    def test_multitask_columns_independent(self):
        y = np.array([[0.0, 5.0], [1.0, 5.5], [2.0, 6.0]])
        pred = np.column_stack([y[:, 0], np.full(3, 5.5)])
        ev = _ev(pred, y)
        assert ev[0] == pytest.approx(1.0)
        assert ev[1] == pytest.approx(0.0)

    def test_constant_target_raises(self):
        with pytest.raises(ZeroVariance, match="target column 1 is constant"):
            target_variance(np.array([[0.0, 1.0], [2.0, 1.0]]))


class TestInputGuards:
    """Each guard raises on the one bad input it exists for."""

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: spectral_norm(np.ones(3)), "expected a matrix"),
            (lambda: generalization_proxy(
                Network.init([3, 2], LossKind.SQUARED_ERROR, seed=0), 0),
             "n must be positive"),
            (lambda: explained_variance(np.zeros((4, 2)), np.ones(3)), "shape mismatch"),
        ],
        ids=["one_dim_matrix", "zero_n", "mismatched_shapes"],
    )
    def test_bad_input_raises(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()
