"""Generalization diagnostics for trained weight matrices.

The quantities of interest are the spectral norm ||W||_2 (one LAPACK SVD),
the stable rank srank(W) = ||W||_F^2 / ||W||_2^2 (a smooth stand-in for rank
that ignores tiny singular values), per-layer spectrum reports, a capacity
proxy sqrt(prod_j ||W_j||_2^2 * sum_j srank(W_j) / n) with the bound's hidden
constants dropped, Pearson correlations between the rows of a weight matrix
(one row per class or task), and explained variance for regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DegenerateRow, ZeroMatrix, ZeroVariance
from .net import Network

__all__ = [
    "SpectrumReport",
    "spectral_norm",
    "stable_rank",
    "generalization_proxy",
    "correlation_matrix",
    "target_variance",
    "explained_variance",
]


@dataclass(frozen=True)
class SpectrumReport:
    """Stable rank, spectral norm, and Frobenius norm of one nonzero matrix."""

    stable_rank: float
    spectral_norm: float
    frobenius_norm: float

    @classmethod
    def of(cls, w) -> "SpectrumReport":
        w = np.asarray(w, dtype=float)
        s = spectral_norm(w)
        if s == 0.0:
            raise ZeroMatrix("stable rank of the zero matrix is undefined")
        f = float(np.sqrt(np.sum(w * w)))
        return cls(f * f / (s * s), s, f)


def spectral_norm(w) -> float:
    """Largest singular value of W by one LAPACK SVD; 0 for W = 0."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("matrix has a non-finite entry")
    try:
        s = np.linalg.svd(w, compute_uv=False)
    except np.linalg.LinAlgError as e:
        raise ConvergenceFailure(f"SVD did not converge: {e}") from None
    return float(s[0]) if s.size else 0.0


def stable_rank(w) -> float:
    """||W||_F^2 / ||W||_2^2; between 1 and rank(W) for nonzero W."""
    return SpectrumReport.of(w).stable_rank


def generalization_proxy(network: Network, n: int) -> float:
    """Capacity proxy sqrt(prod_j ||W_j||_2^2 * sum_j srank(W_j) / n).

    Scale behavior: multiplying one layer by c multiplies the proxy by |c|,
    since stable rank is scale-invariant.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    reports = [SpectrumReport.of(layer.weight) for layer in network.layers]
    prod_sq_norms = math.prod(r.spectral_norm**2 for r in reports)
    return math.sqrt(prod_sq_norms * sum(r.stable_rank for r in reports) / n)


def correlation_matrix(w) -> np.ndarray:
    """Pearson correlation between the rows of W.

    Rows are centered before normalization; the diagonal is exactly 1 and
    off-diagonals land in [-1, 1].  Raises DegenerateRow when a row is
    constant (zero variance across its entries).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[1] < 2:
        raise ValueError(f"need a matrix with >= 2 columns, got {w.shape}")
    centered = w - w.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(centered * centered, axis=1))
    degenerate = np.flatnonzero(norms == 0.0)
    if degenerate.size:
        raise DegenerateRow(f"row {degenerate[0]} has zero variance")
    scaled = centered / norms[:, None]
    corr = np.clip(scaled @ scaled.T, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr


def target_variance(targets) -> np.ndarray:
    """Population variance of each (rows, tasks) target column; a constant
    column raises ZeroVariance."""
    var = np.asarray(targets, dtype=float).var(axis=0)
    zero = np.flatnonzero(var == 0.0)
    if zero.size:
        raise ZeroVariance(f"target column {zero[0]} is constant")
    return var


def explained_variance(squared_residual, variance) -> np.ndarray:
    """Per-column 1 - MSE / Var(target); 1 is perfect, 0 matches the mean.

    Takes the (rows, tasks) squared residual (predictions - targets)**2 and
    the targets' ``target_variance``.
    """
    sq = np.asarray(squared_residual, dtype=float)
    var = np.asarray(variance, dtype=float)
    if sq.shape[1:] != var.shape:
        raise ValueError(f"shape mismatch: residual {sq.shape}, variance {var.shape}")
    return 1.0 - np.mean(sq, axis=0) / var
