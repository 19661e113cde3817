"""Zero-mean matrix-variate normal prior with Kronecker-factored covariance.

A p x d weight matrix W gets the prior density

    p(W) = exp(-tr(S_r^{-1} W S_c^{-1} W.T) / 2)
           / ((2*pi)^{pd/2} det(S_r)^{d/2} det(S_c)^{p/2})

with row covariance S_r (p x p) and column covariance S_c (d x d);
equivalently vec(W) is multivariate normal with covariance S_c kron S_r.
Training works with the precision matrices O_r = S_r^{-1}, O_c = S_c^{-1}
instead, and every formula below is written in terms of traces and
log-determinants of the precisions, so matrix square roots are never
materialized outside of sampling.  Only :class:`SymMatrix` builds a matrix
from a spectrum; inverses and square roots come from its ``map_spectrum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPD, SpectrumOutOfBounds
from .spectral import SpectralBounds, SymMatrix

__all__ = [
    "MatrixNormalPrior",
    "PrecisionPair",
    "log_density",
    "sample",
    "regularizer_value",
    "regularizer_grad",
]

# Slack allowed on precision spectra relative to the [u, v] bounds.
SPECTRUM_SLACK = 1e-8


@dataclass(frozen=True)
class MatrixNormalPrior:
    """Matrix-variate normal with zero mean and PD row/column covariances.

    Construction checks positive definiteness on each covariance's
    spectrum, which is decomposed here unless the matrix already carries
    it (as the covariances built by :meth:`PrecisionPair.to_prior` do).
    """

    row_cov: SymMatrix
    col_cov: SymMatrix

    def __post_init__(self):
        object.__setattr__(self, "row_cov", SymMatrix.wrap(self.row_cov))
        object.__setattr__(self, "col_cov", SymMatrix.wrap(self.col_cov))
        for name, cov in (("row", self.row_cov), ("column", self.col_cov)):
            smallest = cov.spectrum().eigenvalues[-1]
            if smallest <= 0.0:
                raise NotPD(
                    f"{name} covariance has non-positive eigenvalue {smallest:.3e}"
                )

    @property
    def p(self) -> int:
        return self.row_cov.dim

    @property
    def d(self) -> int:
        return self.col_cov.dim


@dataclass(frozen=True)
class PrecisionPair:
    """Row/column precision matrices constrained to spectra in [u, v].

    These are the inverse covariances of the corresponding
    :class:`MatrixNormalPrior`.  Construction checks each precision's
    spectrum against [u, v] (1e-8 slack; SpectrumOutOfBounds otherwise):
    the spectrum a solve attached to it, or a fresh decomposition for a raw
    matrix.  Log-determinants and inversion then read that spectrum.
    """

    omega_r: SymMatrix
    omega_c: SymMatrix
    bounds: SpectralBounds

    def __post_init__(self):
        object.__setattr__(self, "omega_r", SymMatrix.wrap(self.omega_r))
        object.__setattr__(self, "omega_c", SymMatrix.wrap(self.omega_c))
        lo = self.bounds.u - SPECTRUM_SLACK
        hi = self.bounds.v + SPECTRUM_SLACK
        for name, omega in (("omega_r", self.omega_r), ("omega_c", self.omega_c)):
            vals = omega.spectrum().eigenvalues
            if vals[-1] < lo or vals[0] > hi:
                raise SpectrumOutOfBounds(
                    f"{name} spectrum [{vals[-1]:.6g}, {vals[0]:.6g}] leaves "
                    f"[{self.bounds.u:.6g}, {self.bounds.v:.6g}]"
                )

    @property
    def p(self) -> int:
        return self.omega_r.dim

    @property
    def d(self) -> int:
        return self.omega_c.dim

    @classmethod
    def identity(cls, p: int, d: int, bounds: SpectralBounds) -> "PrecisionPair":
        return cls(_identity(p), _identity(d), bounds)

    def logdet_r(self) -> float:
        return self.omega_r.spectrum().logdet()

    def logdet_c(self) -> float:
        return self.omega_c.spectrum().logdet()

    def to_prior(self) -> MatrixNormalPrior:
        """Invert both precisions into the covariance parametrization."""
        return MatrixNormalPrior(
            self.omega_r.map_spectrum(np.reciprocal),
            self.omega_c.map_spectrum(np.reciprocal),
        )


def _identity(n: int) -> SymMatrix:
    return SymMatrix.from_spectrum(np.ones(n), np.eye(n))


def _checked_weight(w, p: int, d: int, expected_by: str) -> np.ndarray:
    """``w`` as a float array; DimensionMismatch unless it is (p, d)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (p, d):
        raise DimensionMismatch(f"W has shape {w.shape}, {expected_by} {(p, d)}")
    return w


def log_density(w, prior: MatrixNormalPrior) -> float:
    """Log density of the matrix-variate normal prior at W.

    Equals the multivariate normal log density of vec(W) under covariance
    S_c kron S_r (checked against that construction in the tests).
    """
    p, d = prior.p, prior.d
    w = _checked_weight(w, p, d, "prior expects")
    omega_r = prior.row_cov.map_spectrum(np.reciprocal).entries
    omega_c = prior.col_cov.map_spectrum(np.reciprocal).entries
    trace_term = float(np.sum((omega_r @ w @ omega_c) * w))
    logdet_r = prior.row_cov.spectrum().logdet()
    logdet_c = prior.col_cov.spectrum().logdet()
    return (
        -0.5 * trace_term
        - 0.5 * p * d * math.log(2.0 * math.pi)
        - 0.5 * d * logdet_r
        - 0.5 * p * logdet_c
    )


def sample(prior: MatrixNormalPrior, seed, size: int | None = None) -> np.ndarray:
    """Draw W = S_r^{1/2} Z S_c^{1/2} with Z i.i.d. standard normal.

    vec(W) then has covariance S_c kron S_r.  Deterministic given ``seed``
    (a PCG64 generator drives the draws).  ``size=None`` returns one (p, d)
    matrix; an integer returns a (size, p, d) stack from a single stream.
    """
    p, d = prior.p, prior.d
    sqrt_r = prior.row_cov.map_spectrum(np.sqrt).entries
    sqrt_c = prior.col_cov.map_spectrum(np.sqrt).entries
    rng = np.random.default_rng(seed)
    n = 1 if size is None else int(size)
    z = rng.standard_normal(size=(n, p, d))
    out = sqrt_r @ z @ sqrt_c
    return out[0] if size is None else out


def regularizer_value(w, precisions: PrecisionPair, lam: float) -> float:
    """Penalty lam * tr(O_r W O_c W.T) - lam * (d*logdet O_r + p*logdet O_c).

    The trace term equals the squared Frobenius norm of O_r^{1/2} W O_c^{1/2},
    i.e. a Tikhonov penalty with structure matrix O_c^{1/2} kron O_r^{1/2}; it
    is evaluated without square roots, and not at all at lam 0 (penalty 0.0).
    """
    p, d = precisions.p, precisions.d
    w = _checked_weight(w, p, d, "precisions expect")
    if lam == 0.0:
        return 0.0
    trace_term = float(
        np.sum((precisions.omega_r.entries @ w @ precisions.omega_c.entries) * w)
    )
    logdets = d * precisions.logdet_r() + p * precisions.logdet_c()
    return lam * trace_term - lam * logdets


def regularizer_grad(w, precisions: PrecisionPair, lam: float) -> np.ndarray:
    """Gradient of the trace penalty with respect to W: 2*lam * O_r W O_c."""
    w = _checked_weight(w, precisions.p, precisions.d, "precisions expect")
    return (2.0 * lam) * (
        precisions.omega_r.entries @ w @ precisions.omega_c.entries
    )
