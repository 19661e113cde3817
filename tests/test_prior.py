"""Tests for the matrix-variate normal prior and its regularizer.

Oracles: the explicit Kronecker-product multivariate normal (built with
np.kron and numpy solves), matrix square roots from numpy's eigensolver,
Monte-Carlo covariance estimates, and central finite differences.
"""

import math

import numpy as np
import pytest

from adareg.errors import AdaRegError, DimensionMismatch, NotPD, SpectrumOutOfBounds
from adareg.prior import (
    MatrixNormalPrior,
    PrecisionPair,
    log_density,
    regularizer_grad,
    regularizer_value,
    sample,
)
from adareg.spectral import SpectralBounds, SymMatrix, inv_threshold
from oracles import finite_difference_grad, random_feasible

B = SpectralBounds(0.5, 2.0)


def _prior(rng, p, d):
    a = rng.normal(size=(p, p + 1))
    b = rng.normal(size=(d, d + 1))
    return MatrixNormalPrior(
        SymMatrix(a @ a.T / (p + 1) + 0.3 * np.eye(p)),
        SymMatrix(b @ b.T / (d + 1) + 0.3 * np.eye(d)),
    )


def _pair(rng, p, d):
    return PrecisionPair(
        SymMatrix(random_feasible(rng, p, B.u, B.v)),
        SymMatrix(random_feasible(rng, d, B.u, B.v)),
        B,
    )


def _vec(w):
    """Column-major vectorization."""
    return np.ravel(w, order="F")


def _kron_mvn_logpdf(w, prior):
    cov = np.kron(prior.col_cov.entries, prior.row_cov.entries)
    x = _vec(w)
    k = x.size
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    quad = x @ np.linalg.solve(cov, x)
    return -0.5 * (k * math.log(2.0 * math.pi) + logdet + quad)


class TestTypes:
    def test_prior_rejects_singular_covariance(self):
        with pytest.raises(NotPD):
            MatrixNormalPrior(SymMatrix(np.diag([1.0, 0.0])), SymMatrix(np.eye(2)))

    def test_precision_pair_rejects_out_of_bounds_spectrum(self):
        with pytest.raises(ValueError):
            PrecisionPair(SymMatrix(3.0 * np.eye(2)), SymMatrix(np.eye(2)), B)

    def test_out_of_bounds_spectrum_is_a_typed_error(self):
        with pytest.raises(SpectrumOutOfBounds, match="omega_c spectrum") as info:
            PrecisionPair(SymMatrix(np.eye(2)), SymMatrix(0.1 * np.eye(2)), B)
        assert isinstance(info.value, AdaRegError)
        assert isinstance(info.value, ValueError)

    def test_identity_pair(self):
        pair = PrecisionPair.identity(3, 4, B)
        assert pair.p == 3 and pair.d == 4
        assert pair.logdet_r() == 0.0 and pair.logdet_c() == 0.0

    def test_to_prior_inverts(self):
        rng = np.random.default_rng(0)
        pair = _pair(rng, 3, 2)
        prior = pair.to_prior()
        np.testing.assert_allclose(
            prior.row_cov.entries @ pair.omega_r.entries, np.eye(3), atol=1e-10
        )
        np.testing.assert_allclose(
            prior.col_cov.entries @ pair.omega_c.entries, np.eye(2), atol=1e-10
        )


class TestLogDensity:
    def test_zero_matrix_identity_covs(self):
        prior = MatrixNormalPrior(SymMatrix(np.eye(2)), SymMatrix(np.eye(3)))
        expect = -3.0 * math.log(2.0 * math.pi)
        assert log_density(np.zeros((2, 3)), prior) == pytest.approx(expect, abs=1e-12)

    def test_identity_weight(self):
        prior = MatrixNormalPrior(SymMatrix(np.eye(2)), SymMatrix(np.eye(2)))
        expect = -1.0 - 2.0 * math.log(2.0 * math.pi)
        assert log_density(np.eye(2), prior) == pytest.approx(expect, abs=1e-12)

    def test_matches_kronecker_mvn(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = int(rng.integers(1, 5))
            d = int(rng.integers(1, 5))
            prior = _prior(rng, p, d)
            w = rng.normal(size=(p, d))
            ours = log_density(w, prior)
            ref = _kron_mvn_logpdf(w, prior)
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_dimension_mismatch(self):
        prior = MatrixNormalPrior(SymMatrix(np.eye(2)), SymMatrix(np.eye(3)))
        with pytest.raises(DimensionMismatch):
            log_density(np.zeros((3, 2)), prior)


class TestSample:
    def test_identity_covs_reproduce_generator_stream(self):
        prior = MatrixNormalPrior(SymMatrix(np.eye(2)), SymMatrix(np.eye(3)))
        got = sample(prior, seed=5)
        expect = np.random.default_rng(5).standard_normal((1, 2, 3))[0]
        np.testing.assert_array_equal(got, expect)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        prior = _prior(rng, 2, 2)
        np.testing.assert_array_equal(sample(prior, 9), sample(prior, 9))

    def test_vec_covariance_matches_kron(self):
        sigma_r = np.array([[1.0, 0.5], [0.5, 1.0]])
        prior = MatrixNormalPrior(SymMatrix(sigma_r), SymMatrix(np.eye(2)))
        draws = sample(prior, seed=11, size=100_000)
        vecs = draws.transpose(0, 2, 1).reshape(draws.shape[0], -1)  # column-major vec
        emp = np.cov(vecs, rowvar=False, bias=True)
        target = np.kron(np.eye(2), sigma_r)
        assert np.abs(emp - target).max() < 0.05

    def test_row_marginal_covariance(self):
        sigma_r = np.array([[1.0, 0.5], [0.5, 2.0]])
        sigma_c = np.array([[1.0, -0.3], [-0.3, 1.0]])
        prior = MatrixNormalPrior(SymMatrix(sigma_r), SymMatrix(sigma_c))
        draws = sample(prior, seed=12, size=100_000)
        for i in range(2):
            emp = np.cov(draws[:, i, :], rowvar=False, bias=True)
            target = sigma_r[i, i] * sigma_c
            assert np.abs(emp - target).max() < 0.05 * sigma_r[i, i]


class TestRegularizerValue:
    def test_identity_case(self):
        pair = PrecisionPair.identity(2, 2, B)
        assert regularizer_value(np.eye(2), pair, 1.0) == pytest.approx(2.0)

    def test_zero_weight_leaves_logdets(self):
        rng = np.random.default_rng(3)
        pair = _pair(rng, 3, 2)
        lam = 0.7
        expect = -lam * (2 * pair.logdet_r() + 3 * pair.logdet_c())
        got = regularizer_value(np.zeros((3, 2)), pair, lam)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_matches_explicit_kronecker_tikhonov(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = int(rng.integers(1, 6))
            d = int(rng.integers(1, 6))
            pair = _pair(rng, p, d)
            w = rng.normal(size=(p, d))
            lam = float(rng.uniform(0.1, 2.0))

            def sqrtm(a):
                vals, q = np.linalg.eigh(a)
                return (q * np.sqrt(vals)) @ q.T

            gamma = np.kron(sqrtm(pair.omega_c.entries), sqrtm(pair.omega_r.entries))
            tikhonov = float(np.sum((gamma @ _vec(w)) ** 2))
            sign_r, logdet_r = np.linalg.slogdet(pair.omega_r.entries)
            sign_c, logdet_c = np.linalg.slogdet(pair.omega_c.entries)
            assert sign_r > 0 and sign_c > 0
            ref = lam * tikhonov - lam * (d * logdet_r + p * logdet_c)
            got = regularizer_value(w, pair, lam)
            assert got == pytest.approx(ref, rel=1e-8)


class TestRegularizerGrad:
    def test_identity_precisions_reduce_to_weight_decay(self):
        pair = PrecisionPair.identity(3, 4, B)
        w = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(regularizer_grad(w, pair, 0.5), w)

    def test_zero_weight(self):
        rng = np.random.default_rng(5)
        pair = _pair(rng, 2, 3)
        np.testing.assert_array_equal(
            regularizer_grad(np.zeros((2, 3)), pair, 1.3), np.zeros((2, 3))
        )

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        pair = _pair(rng, 4, 3)
        w = rng.normal(size=(4, 3))
        lam = 0.8
        grad = regularizer_grad(w, pair, lam)
        fd = finite_difference_grad(
            lambda m: regularizer_value(m, pair, lam), w.copy(), step=1e-5
        )
        rel = np.abs(grad - fd).max() / np.abs(fd).max()
        assert rel < 1e-5


class TestVolumeBounds:
    """Concavity-based log-volume bounds on the regularizer."""

    def _trace(self, w, pair):
        return float(np.sum((pair.omega_r.entries @ w @ pair.omega_c.entries) * w))

    def test_row_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            p = int(rng.integers(1, d + 1))  # full row rank needs p <= d
            pair = _pair(rng, p, d)
            w = rng.normal(size=(p, d))
            gram = w @ pair.omega_c.entries @ w.T
            sign, logdet = np.linalg.slogdet(gram / (2.0 * d))
            assert sign > 0
            lhs = d * logdet
            rhs = -d * pair.logdet_r() + 0.5 * self._trace(w, pair) - d * p
            assert lhs <= rhs + 1e-8

    def test_column_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            p = int(rng.integers(2, 6))
            d = int(rng.integers(1, p + 1))  # full column rank needs d <= p
            pair = _pair(rng, p, d)
            w = rng.normal(size=(p, d))
            gram = w.T @ pair.omega_r.entries @ w
            sign, logdet = np.linalg.slogdet(gram / (2.0 * p))
            assert sign > 0
            lhs = p * logdet
            rhs = -p * pair.logdet_c() + 0.5 * self._trace(w, pair) - d * p
            assert lhs <= rhs + 1e-8

    def test_summed_volume_bound_square_case(self):
        # For square full-rank W the two bounds add up to:
        # d*logdet(W Oc W.T) + p*logdet(W.T Or W)
        #   <= trace - (d*logdet(Or) + p*logdet(Oc)) + d*p*(log(4*d*p) - 2)
        rng = np.random.default_rng(9)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            pair = _pair(rng, n, n)
            w = rng.normal(size=(n, n))
            s1, l1 = np.linalg.slogdet(w @ pair.omega_c.entries @ w.T)
            s2, l2 = np.linalg.slogdet(w.T @ pair.omega_r.entries @ w)
            assert s1 > 0 and s2 > 0
            lhs = n * l1 + n * l2
            const = n * n * (math.log(4.0 * n * n) - 2.0)
            rhs = (
                self._trace(w, pair)
                - n * pair.logdet_r()
                - n * pair.logdet_c()
                + const
            )
            assert lhs <= rhs + 1e-8


class TestToPrior:
    def test_identity_pair_gives_exact_identity(self):
        prior = PrecisionPair.identity(3, 5, B).to_prior()
        assert prior.row_cov.entries.tobytes() == np.eye(3).tobytes()
        assert prior.col_cov.entries.tobytes() == np.eye(5).tobytes()

    def test_solved_pair_inverts_the_reversed_spectrum(self):
        """Each covariance is Q' diag(1 / lam') Q'.T with lam' the precision's
        eigenvalues reversed (ascending) and Q' its columns reversed, bit for
        bit; several eigenvalues tie at v, so a re-sort could differ."""
        rng = np.random.default_rng(12)
        w = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 4))  # rank 2
        bounds = SpectralBounds.from_v(10.0)
        omega_r = inv_threshold(w @ w.T, 4, bounds)
        omega_c = inv_threshold(w.T @ omega_r.entries @ w, 6, bounds)
        prior = PrecisionPair(omega_r, omega_c, bounds).to_prior()
        assert np.sum(omega_r.spectrum().eigenvalues == bounds.v) >= 2
        for omega, cov in ((omega_r, prior.row_cov), (omega_c, prior.col_cov)):
            dec = omega.spectrum()
            values = 1.0 / dec.eigenvalues[::-1]
            q = dec.eigenvectors[:, ::-1]
            a = (q * values) @ q.T
            assert cov.entries.tobytes() == ((a + a.T) / 2.0).tobytes()
            np.testing.assert_array_equal(cov.spectrum().eigenvalues, values)
