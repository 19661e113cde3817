"""Tests for the bounded-spectrum cone solvers.

The LAPACK-backed eigensolver is checked against the independent cyclic
Jacobi oracle in ``oracles.py``; the closed-form cone operations are checked against spectrum-clipping built directly on numpy,
against random feasible competitors, and against hand-worked 2x2 cases.
"""

import numpy as np
import pytest

from adareg.errors import ConvergenceFailure, NotPD, NotPSD
from adareg.spectral import (
    EigenDecomposition,
    SpectralBounds,
    SymMatrix,
    eigh,
    inv_threshold,
    project_to_cone,
    subproblem_objective,
    threshold,
)
from oracles import (
    clip_spectrum,
    jacobi_eigh,
    precision_objective,
    random_feasible,
    random_orthogonal,
    random_psd,
    random_symmetric,
)

B_HALF_TWO = SpectralBounds(0.5, 2.0)


class TestSymMatrix:
    def test_symmetrizes_on_construction(self):
        m = SymMatrix([[1.0, 2.0], [0.0, 3.0]])
        np.testing.assert_allclose(m.entries, [[1.0, 1.0], [1.0, 3.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_wrap_passes_through(self):
        m = SymMatrix(np.eye(2))
        assert SymMatrix.wrap(m) is m


class TestSpectralBounds:
    def test_from_v(self):
        b = SpectralBounds.from_v(4.0)
        assert b.u == 0.25 and b.v == 4.0

    def test_rejects_product_away_from_one(self):
        with pytest.raises(ValueError):
            SpectralBounds(0.5, 3.0)

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            SpectralBounds(2.0, 0.5)
        with pytest.raises(ValueError):
            SpectralBounds.from_v(0.5)

    def test_degenerate_point(self):
        b = SpectralBounds.from_v(1.0)
        assert b.u == b.v == 1.0


class TestThreshold:
    def test_clamps_above(self):
        assert threshold(3.0, B_HALF_TWO) == 2.0

    def test_interior_fixed_point(self):
        assert threshold(1.0, B_HALF_TWO) == 1.0

    def test_clamps_below(self):
        assert threshold(0.1, B_HALF_TWO) == 0.5

    def test_infinity_maps_to_v(self):
        assert threshold(np.inf, B_HALF_TWO) == 2.0


class TestEigh:
    def test_diagonal_input(self):
        dec = eigh(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [4.0, 1.0])
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(2))

    def test_classic_2x2(self):
        dec = eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-12)
        expect = np.array([1.0, 1.0]) / np.sqrt(2.0)
        got = dec.eigenvectors[:, 0]
        np.testing.assert_allclose(np.abs(got), expect, atol=1e-12)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        a = random_symmetric(rng, 5)
        dec = eigh(a)
        bound = 1e-8 * max(1.0, np.abs(a).max())
        assert np.abs(dec.reconstruct() - a).max() < bound

    def test_orthogonality_invariant(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 6, 12):
            q = eigh(random_symmetric(rng, n)).eigenvectors
            assert np.abs(q.T @ q - np.eye(n)).max() < 1e-8

    def test_descending_order_and_lapack_agreement(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            a = random_symmetric(rng, n)
            vals = eigh(a).eigenvalues
            assert np.all(np.diff(vals) <= 0.0)
            ref = np.sort(np.linalg.eigvalsh(a))[::-1]
            np.testing.assert_allclose(vals, ref, atol=1e-10 * max(1, np.abs(a).max()))

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(21)
        for n in range(1, 13):
            for _ in range(3):
                a = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 10.0)))
                dec = eigh(a)
                vals, vecs = jacobi_eigh(a)
                scale = max(1.0, np.abs(a).max())
                np.testing.assert_allclose(dec.eigenvalues, vals, atol=1e-10 * scale)
                _assert_same_eigenspaces(dec.eigenvalues, dec.eigenvectors, vecs)

    def test_repeated_eigenvalue_subspaces_match_oracle(self):
        rng = np.random.default_rng(20)
        for spectrum in ([3.0, 3.0, 1.0], [2.0, 0.5, 0.5, 0.5, -1.0], [4.0] * 2 + [0.0] * 4):
            n = len(spectrum)
            q = random_orthogonal(rng, n)
            a = (q * np.array(spectrum)) @ q.T
            dec = eigh(a)
            vals, vecs = jacobi_eigh(a)
            np.testing.assert_allclose(dec.eigenvalues, vals, atol=1e-10)
            _assert_same_eigenspaces(dec.eigenvalues, dec.eigenvectors, vecs)

    def test_one_by_one(self):
        dec = eigh(np.array([[-2.5]]))
        np.testing.assert_array_equal(dec.eigenvalues, [-2.5])
        np.testing.assert_array_equal(np.abs(dec.eigenvectors), [[1.0]])

    def test_lapack_failure_is_convergence_failure(self, monkeypatch):
        def fail(_a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            eigh(np.eye(3))

    def test_repeated_eigenvalues(self):
        a = np.eye(4) * 3.0
        dec = eigh(a)
        np.testing.assert_allclose(dec.eigenvalues, 3.0)
        np.testing.assert_allclose(dec.reconstruct(), a)

    def test_zero_matrix(self):
        dec = eigh(np.zeros((3, 3)))
        np.testing.assert_allclose(dec.eigenvalues, 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        a = random_symmetric(rng, 6)
        d1, d2 = eigh(a), eigh(a)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def _assert_same_eigenspaces(eigenvalues, ours, theirs, gap=1e-6):
    """Columns of ``ours`` and ``theirs`` span the same eigenspaces.

    Eigenvalues closer than ``gap`` form one cluster; each cluster is
    compared through its orthogonal projector, which is basis-independent.
    """
    start = 0
    for stop in range(1, len(eigenvalues) + 1):
        if stop < len(eigenvalues) and eigenvalues[stop - 1] - eigenvalues[stop] < gap:
            continue
        a, b = ours[:, start:stop], theirs[:, start:stop]
        np.testing.assert_allclose(a @ a.T, b @ b.T, atol=1e-8)
        start = stop


class TestProjectToCone:
    def test_diagonal_clamp(self):
        out = project_to_cone(np.diag([3.0, 0.1]), B_HALF_TWO)
        np.testing.assert_allclose(out.entries, np.diag([2.0, 0.5]), atol=1e-12)

    def test_fixed_point_inside_cone(self):
        rng = np.random.default_rng(11)
        a = random_feasible(rng, 4, 0.5, 2.0)
        out = project_to_cone(a, B_HALF_TWO)
        assert np.abs(out.entries - a).max() < 1e-8

    def test_2x2_on_same_eigenvectors(self):
        # [[2,1],[1,2]] has spectrum (3, 1) on (1,1)/sqrt2, (1,-1)/sqrt2;
        # clamping to (2, 1) rebuilds [[1.5, 0.5], [0.5, 1.5]].
        out = project_to_cone(np.array([[2.0, 1.0], [1.0, 2.0]]), B_HALF_TWO)
        np.testing.assert_allclose(
            out.entries, [[1.5, 0.5], [0.5, 1.5]], atol=1e-12
        )

    def test_matches_numpy_clipping_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            a = random_symmetric(rng, n, scale=3.0)
            ours = project_to_cone(a, B_HALF_TWO).entries
            ref = clip_spectrum(a, 0.5, 2.0)
            np.testing.assert_allclose(ours, ref, atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = random_symmetric(rng, 5, scale=4.0)
            once = project_to_cone(a, B_HALF_TWO)
            twice = project_to_cone(once, B_HALF_TWO)
            assert np.abs(twice.entries - once.entries).max() < 1e-8

    def test_beats_random_feasible_competitors(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = random_symmetric(rng, n, scale=3.0)
            proj = project_to_cone(a, B_HALF_TWO).entries
            ours = np.linalg.norm(proj - a)
            for _ in range(30):
                z = random_feasible(rng, n, 0.5, 2.0)
                assert ours <= np.linalg.norm(z - a) + 1e-9

    def test_output_spectrum_contained(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            a = random_symmetric(rng, 6, scale=5.0)
            vals = np.linalg.eigvalsh(project_to_cone(a, B_HALF_TWO).entries)
            assert vals.min() >= 0.5 - 1e-8 and vals.max() <= 2.0 + 1e-8


class TestInvThreshold:
    def test_diagonal_formula(self):
        out = inv_threshold(np.diag([4.0, 1.0]), 2, B_HALF_TWO)
        np.testing.assert_allclose(out.entries, np.diag([0.5, 2.0]), atol=1e-12)

    def test_2x2_hand_worked(self):
        # spectrum (3, 1), m=1: clamp(1/3)=0.5, clamp(1/1)=1.0, rebuilt on
        # the (1,1)/(1,-1) eigenvectors.
        out = inv_threshold(np.array([[2.0, 1.0], [1.0, 2.0]]), 1, B_HALF_TWO)
        np.testing.assert_allclose(
            out.entries, [[0.75, -0.25], [-0.25, 0.75]], atol=1e-12
        )

    def test_zero_matrix_gives_v_identity(self):
        for m in (1, 5):
            out = inv_threshold(np.zeros((3, 3)), m, B_HALF_TWO)
            np.testing.assert_array_equal(out.entries, 2.0 * np.eye(3))

    def test_rank_deficient_maps_kernel_to_v(self):
        w = np.array([[1.0], [2.0]])  # delta = w w.T has a zero eigenvalue
        out = inv_threshold(w @ w.T, 3, B_HALF_TWO)
        vals = np.sort(np.linalg.eigvalsh(out.entries))
        np.testing.assert_allclose(vals[-1], 2.0, atol=1e-12)
        np.testing.assert_allclose(vals[0], max(0.5, min(2.0, 3.0 / 5.0)), atol=1e-12)

    def test_rejects_zero_m(self):
        with pytest.raises(ValueError, match="m must be a positive integer, got 0"):
            inv_threshold(np.eye(2), 0, B_HALF_TWO)

    def test_rejects_clearly_indefinite(self):
        with pytest.raises(NotPSD):
            inv_threshold(np.diag([1.0, -0.5]), 2, B_HALF_TWO)

    def test_tolerates_tiny_negative_noise(self):
        out = inv_threshold(np.diag([1.0, -1e-9]), 2, B_HALF_TWO)
        vals = np.sort(np.linalg.eigvalsh(out.entries))
        np.testing.assert_allclose(vals, [2.0, 2.0])

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            delta = random_psd(rng, n)
            q = random_orthogonal(rng, n)
            rotated = inv_threshold((q @ delta @ q.T), 3, B_HALF_TWO).entries
            direct = q @ inv_threshold(delta, 3, B_HALF_TWO).entries @ q.T
            assert np.abs(rotated - direct).max() < 1e-7

    def test_output_spectrum_contained(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = int(rng.integers(1, 7))
            d = int(rng.integers(1, 7))
            w = rng.normal(size=(p, d))
            out = inv_threshold(w @ w.T, d, B_HALF_TWO)
            vals = np.linalg.eigvalsh(out.entries)
            assert vals.min() >= 0.5 - 1e-8 and vals.max() <= 2.0 + 1e-8

    def test_result_carries_its_spectrum(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            delta = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            for out in (
                inv_threshold(delta, 3, B_HALF_TWO),
                project_to_cone(random_symmetric(rng, n, scale=3.0), B_HALF_TWO),
            ):
                dec = out.spectrum()
                assert np.all(np.diff(dec.eigenvalues) <= 0.0)
                np.testing.assert_allclose(dec.reconstruct(), out.entries, atol=1e-12)
                np.testing.assert_allclose(
                    dec.eigenvalues, eigh(out).eigenvalues, atol=1e-12
                )

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            delta = random_psd(rng, n)
            m = int(rng.integers(1, 6))
            ours = subproblem_objective(inv_threshold(delta, m, B_HALF_TWO), delta, m)
            for _ in range(50):
                z = random_feasible(rng, n, 0.5, 2.0)
                assert ours <= precision_objective(z, delta, m) + 1e-6


class TestConeProperties:
    """Seeded random matrices of every size from 1 to 12, across bounds."""

    BOUNDS = [SpectralBounds.from_v(v) for v in (1.0, 2.0, 10.0)]

    @staticmethod
    def _cases(seed):
        rng = np.random.default_rng(seed)
        for n in range(1, 13):
            for bounds in TestConeProperties.BOUNDS:
                yield rng, n, bounds

    @staticmethod
    def _assert_in_cone(out, bounds):
        np.testing.assert_array_equal(out.entries, out.entries.T)
        vals = np.linalg.eigvalsh(out.entries)
        assert vals.min() >= bounds.u - 1e-10 and vals.max() <= bounds.v + 1e-10

    def test_inv_threshold_lands_in_cone(self):
        for rng, n, bounds in self._cases(40):
            delta = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            m = int(rng.integers(1, 20))
            self._assert_in_cone(inv_threshold(delta, m, bounds), bounds)

    def test_project_to_cone_lands_in_cone(self):
        for rng, n, bounds in self._cases(41):
            a = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 20.0)))
            self._assert_in_cone(project_to_cone(a, bounds), bounds)

    def test_inv_threshold_returns_an_admissible_inverse(self):
        # m * omega^{-1} with omega in the cone: the minimizer is omega itself.
        for rng, n, bounds in self._cases(42):
            omega = random_feasible(rng, n, bounds.u, bounds.v)
            m = int(rng.integers(1, 20))
            out = inv_threshold(m * np.linalg.inv(omega), m, bounds).entries
            np.testing.assert_allclose(out, omega, rtol=0.0, atol=1e-10)

    def test_project_to_cone_is_idempotent(self):
        for rng, n, bounds in self._cases(43):
            once = project_to_cone(random_symmetric(rng, n, scale=5.0), bounds)
            twice = project_to_cone(once.entries, bounds)
            np.testing.assert_allclose(
                twice.entries, once.entries, rtol=0.0, atol=1e-10
            )


class TestSubproblemObjective:
    def test_identity_omega(self):
        assert subproblem_objective(np.eye(2), np.diag([4.0, 1.0]), 2) == pytest.approx(5.0)

    def test_diagonal_case(self):
        val = subproblem_objective(np.diag([0.5, 2.0]), np.diag([4.0, 1.0]), 2)
        assert val == pytest.approx(4.0, abs=1e-12)

    def test_rejects_non_pd(self):
        with pytest.raises(NotPD):
            subproblem_objective(np.diag([1.0, 0.0]), np.eye(2), 1)

    def test_matches_numpy_slogdet(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            omega = random_feasible(rng, n, 0.5, 2.0)
            delta = random_psd(rng, n)
            ours = subproblem_objective(omega, delta, 4)
            ref = precision_objective(omega, delta, 4)
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_eigendecomposition_reconstruct_helper():
    dec = EigenDecomposition(np.array([2.0, 1.0]), np.eye(2))
    np.testing.assert_array_equal(dec.reconstruct(), np.diag([2.0, 1.0]))
