"""Independent brute-force oracles used by the test suite.

Everything here is deliberately built on numpy primitives (not on the
package under test) so that each check compares two unrelated routes to the
same quantity.  The package's eigensolver is LAPACK; :func:`jacobi_eigh`
is a pure-Python cyclic Jacobi solver that shares no code with it.
"""

from __future__ import annotations

import math

import numpy as np


def random_symmetric(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(scale=scale, size=(n, n))
    return (a + a.T) / 2.0


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    k = n if rank is None else rank
    b = rng.normal(size=(n, k))
    return b @ b.T


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_feasible(rng: np.random.Generator, n: int, u: float, v: float) -> np.ndarray:
    """Random member of {A symmetric : u*I <= A <= v*I}."""
    q = random_orthogonal(rng, n)
    lam = rng.uniform(u, v, size=n)
    return (q * lam) @ q.T


def clip_spectrum(a: np.ndarray, u: float, v: float) -> np.ndarray:
    """Projection onto the bounded-spectrum set, via numpy's eigensolver."""
    lam, q = np.linalg.eigh(a)
    return (q * np.clip(lam, u, v)) @ q.T


def precision_objective(omega: np.ndarray, delta: np.ndarray, m: int) -> float:
    sign, logdet = np.linalg.slogdet(omega)
    assert sign > 0, "oracle objective needs a PD omega"
    return float(np.trace(omega @ delta)) - m * float(logdet)


def projected_gradient_minimize(
    delta: np.ndarray,
    m: int,
    u: float,
    v: float,
    steps: int = 100_000,
    step_size: float = 1e-3,
) -> tuple[np.ndarray, float]:
    """Minimize tr(omega @ delta) - m*log det(omega) over the bounded cone.

    Plain projected gradient descent from the cone's midpoint; returns the
    best iterate and its objective.  Slow by design: it shares no code with
    the closed-form solver it is used to check.
    """
    n = delta.shape[0]
    omega = clip_spectrum(np.eye(n), u, v)
    best = omega
    best_val = precision_objective(omega, delta, m)
    for _ in range(steps):
        grad = delta - m * np.linalg.inv(omega)
        omega = clip_spectrum(omega - step_size * grad, u, v)
        val = precision_objective(omega, delta, m)
        if val < best_val:
            best_val = val
            best = omega
    return best, best_val


def finite_difference_grad(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    g = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = f(x)
        flat[i] = orig - step
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * step)
    return g


def _jacobi_rotate(a: np.ndarray, q: np.ndarray, p: int, r: int) -> None:
    """Zero a[p, r] (p < r) with a two-sided Givens rotation, in place.

    ``a`` stays symmetric; ``q`` accumulates the rotations so that the
    original matrix equals q @ a @ q.T throughout.
    """
    apq = a[p, r]
    app = a[p, p]
    aqq = a[r, r]
    tau = (aqq - app) / (2.0 * apq)
    # Smaller-angle root of t^2 + 2*tau*t - 1 = 0; stable for large |tau|.
    if tau >= 0.0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c

    row_p = a[p, :].copy()
    row_r = a[r, :].copy()
    a[p, :] = c * row_p - s * row_r
    a[r, :] = s * row_p + c * row_r
    col_p = a[:, p].copy()
    col_r = a[:, r].copy()
    a[:, p] = c * col_p - s * col_r
    a[:, r] = s * col_p + c * col_r
    # Exact values on the 2x2 block kill roundoff drift.
    a[p, p] = app - t * apq
    a[r, r] = aqq + t * apq
    a[p, r] = 0.0
    a[r, p] = 0.0

    qp = q[:, p].copy()
    qr = q[:, r].copy()
    q[:, p] = c * qp - s * qr
    q[:, r] = s * qp + c * qr


def jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvector columns by cyclic Jacobi.

    Sweeps run until every off-diagonal magnitude drops below
    ``1e-12 * ||A||_F``; the Frobenius norm is rotation-invariant, so the
    bound is fixed up front.  Raises RuntimeError past 100 * n**2 sweeps,
    which for Jacobi iteration means corrupted input, not slow convergence.
    """
    a = np.asarray(a, dtype=float)
    work = (a + a.T) / 2.0
    n = work.shape[0]
    q = np.eye(n)
    fro = math.sqrt(float(np.sum(work * work)))
    tol = 1e-12 * fro
    if n > 1 and fro > 0.0:
        upper = ~np.tri(n, dtype=bool)
        max_sweeps = 100 * n * n
        for _ in range(max_sweeps):
            if np.max(np.abs(work[upper])) <= tol:
                break
            for p in range(n - 1):
                for r in range(p + 1, n):
                    if abs(work[p, r]) > tol:
                        _jacobi_rotate(work, q, p, r)
        else:
            raise RuntimeError(f"Jacobi did not converge in {max_sweeps} sweeps")
    vals = work.diagonal().copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], q[:, order]
