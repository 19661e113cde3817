"""Closed-form solvers on the bounded-spectrum cone.

The constraint set is C = {symmetric A : u*I <= A <= v*I} with 0 < u <= v
and u*v = 1.  Everything here reduces to one symmetric eigendecomposition
followed by elementwise clamping of the spectrum: Euclidean projection onto
C clamps the eigenvalues themselves, and the precision subproblem

    minimize  tr(omega @ delta) - m * log det(omega)   over omega in C

is solved exactly by clamping m / r_i, where r_i are the eigenvalues of the
(PSD) data matrix delta.

The eigensolver is LAPACK's symmetric driver, called through numpy by
:func:`eigh` from ``SymMatrix.spectrum`` only.  Both solvers rebuild
through ``map_spectrum``, and a solved matrix carries the decomposition it
was built from, so each solve costs exactly one decomposition:
log-determinants, inverses and square roots downstream read the stored
spectrum.  Only :class:`SymMatrix` builds a matrix from a spectrum.
The test suite checks the solver against an independent cyclic Jacobi
implementation (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NotPD, NotPSD

__all__ = [
    "SymMatrix",
    "SpectralBounds",
    "EigenDecomposition",
    "threshold",
    "eigh",
    "project_to_cone",
    "inv_threshold",
    "subproblem_objective",
]

class SymMatrix:
    """A dense real symmetric matrix.

    Construction symmetrizes the input, ``A <- (A + A.T) / 2``, and rejects
    non-square or non-finite input.  ``entries`` is a defensive copy; treat
    it as read-only.  :meth:`spectrum` returns the matrix's eigendecomposition:
    the one it was built from, or one computed on first use.
    """

    __slots__ = ("entries", "_spectrum")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        self.entries = (a + a.T) / 2.0
        self._spectrum = None

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def spectrum(self) -> "EigenDecomposition":
        """Eigendecomposition of this matrix, decomposed at most once."""
        if self._spectrum is None:
            self._spectrum = eigh(self)
        return self._spectrum

    @classmethod
    def from_spectrum(cls, values, vectors) -> "SymMatrix":
        """Q diag(values) Q.T, keeping that spectrum; ``values`` descend.

        A uniform spectrum t is returned as exactly t*I: mathematically
        Q (t I) Q.T = t I, and skipping the product avoids roundoff (and
        keeps the u = v = 1 case bit-exact identity).
        """
        dec = EigenDecomposition(values, vectors)
        if values.size and values[0] == values[-1]:
            out = cls(values[0] * np.eye(len(values)))
        else:
            out = cls(dec.reconstruct())
        out._spectrum = dec
        return out

    def map_spectrum(self, fn) -> "SymMatrix":
        """Q diag(fn(eigenvalues)) Q.T, carrying that spectrum, for a monotone
        ``fn``; values it leaves ascending (as the reciprocal does) are
        reversed, with their vectors, back to descending order."""
        dec = self.spectrum()
        values, vectors = fn(dec.eigenvalues), dec.eigenvectors
        if values.size and values[0] < values[-1]:
            values, vectors = values[::-1], vectors[:, ::-1]
        return SymMatrix.from_spectrum(values, vectors)

    @classmethod
    def wrap(cls, a) -> "SymMatrix":
        """Pass through SymMatrix instances, symmetrize raw arrays."""
        return a if isinstance(a, cls) else cls(a)

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


@dataclass(frozen=True)
class SpectralBounds:
    """Eigenvalue bounds (u, v) with 0 < u <= v and u*v = 1.

    Prefer :meth:`from_v`, which derives ``u = 1/v`` from a single parameter
    ``v >= 1``.
    """

    u: float
    v: float

    def __post_init__(self):
        if not (0.0 < self.u <= self.v):
            raise ValueError(f"need 0 < u <= v, got u={self.u}, v={self.v}")
        if abs(self.u * self.v - 1.0) > 1e-12:
            raise ValueError(f"need u*v = 1, got u*v = {self.u * self.v!r}")

    @classmethod
    def from_v(cls, v: float) -> "SpectralBounds":
        if v < 1.0:
            raise ValueError(f"need v >= 1, got {v}")
        return cls(1.0 / v, float(v))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectrum of a symmetric matrix: A = Q diag(eigenvalues) Q.T.

    ``eigenvalues`` is sorted in descending order and ``eigenvectors`` holds
    the matching orthonormal columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.eigenvectors
        return (q * self.eigenvalues) @ q.T

    def logdet(self) -> float:
        return float(np.sum(np.log(self.eigenvalues)))


def threshold(x, bounds: SpectralBounds):
    """Clamp ``x``, a number or an array, into [u, v]; +inf maps to v."""
    return np.clip(x, bounds.u, bounds.v)


def eigh(a) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix (LAPACK, through numpy).

    The input is symmetrized through :class:`SymMatrix`.  Eigenvalues come
    back in descending order with matching eigenvector columns; the result
    is deterministic for a given input.  Raises ConvergenceFailure when
    LAPACK reports that it did not converge.
    """
    sym = SymMatrix.wrap(a)
    try:
        vals, vecs = np.linalg.eigh(sym.entries)
    except np.linalg.LinAlgError as e:
        raise ConvergenceFailure(f"eigensolver did not converge: {e}") from None
    return EigenDecomposition(vals[::-1].copy(), np.ascontiguousarray(vecs[:, ::-1]))


def project_to_cone(a, bounds: SpectralBounds) -> SymMatrix:
    """Euclidean (Frobenius) projection of a symmetric matrix onto C.

    Decompose A = Q diag(lam) Q.T and clamp the eigenvalues into [u, v]; the
    result is the unique nearest member of C.  Idempotent.  A SymMatrix
    that already carries its spectrum is not decomposed again.
    """
    return SymMatrix.wrap(a).map_spectrum(lambda lam: threshold(lam, bounds))


def inv_threshold(delta, m: int, bounds: SpectralBounds) -> SymMatrix:
    """Exact minimizer of tr(omega @ delta) - m*log det(omega) over C.

    ``delta`` must be symmetric PSD (eigenvalues slightly below zero, down
    to -1e-6 * ||delta||_2, are treated as numerical noise).  With
    delta = Q diag(r) Q.T the minimizer is Q diag(clamp(m / r)) Q.T, where
    m / r = +inf for r <= 0 clamps to v: zero eigenvalues of a
    rank-deficient delta put no data constraint on that direction, so the
    precision takes its largest admissible value.  A SymMatrix ``delta``
    that already carries its spectrum is not decomposed again, and the
    result carries its own, so nothing downstream decomposes it again.
    """
    if m <= 0:
        raise ValueError(f"m must be a positive integer, got {m}")
    delta = SymMatrix.wrap(delta)
    r = delta.spectrum().eigenvalues
    spec_norm = max(abs(r[0]), abs(r[-1]))
    if r[-1] < -1e-6 * spec_norm:
        raise NotPSD(
            f"matrix has eigenvalue {r[-1]:.3e} below -1e-6 * ||delta||_2"
        )

    def clamped_inverse(r):
        inverted = np.full_like(r, np.inf)
        positive = r > 0.0
        inverted[positive] = m / r[positive]
        return threshold(inverted, bounds)

    return delta.map_spectrum(clamped_inverse)


def subproblem_objective(omega, delta, m: int) -> float:
    """Value of tr(omega @ delta) - m * log det(omega).

    The log-determinant is the sum of log eigenvalues; raises NotPD when
    ``omega`` has an eigenvalue <= 0.
    """
    om = SymMatrix.wrap(omega)
    de = SymMatrix.wrap(delta)
    dec = om.spectrum()
    if dec.eigenvalues[-1] <= 0.0:
        raise NotPD(f"omega has non-positive eigenvalue {dec.eigenvalues[-1]:.3e}")
    trace_term = float(np.sum(om.entries * de.entries))
    return trace_term - m * dec.logdet()

