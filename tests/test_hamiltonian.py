import numpy as np
import pytest

from blfqvqe.basisfuncs import ModelParameters, compute_exponents
from blfqvqe.hamiltonian import (HermitianObservable, build_effective_hamiltonian,
                                 build_h0_diagonal, build_njl_matrix, diagonalize)

PARAMS = ModelParameters()

# published 4x4 reference matrix (MeV^2, rounded to integers)
REFERENCE = np.array([
    [640323.0, 139872.0, -139872.0, -107450.0],
    [139872.0, 346707.0, 174794.0, 139872.0],
    [-139872.0, 174794.0, 346707.0, -139872.0],
    [-107450.0, 139872.0, -139872.0, 640323.0],
])


class TestH0Diagonal:
    def test_frozen_values(self):
        h0 = build_h0_diagonal(PARAMS)
        # (m+mbar)^2 + 5 kappa^2 and + 3 kappa^2 from the Table-I point
        want = np.diag([711947.9604, 608889.9604, 608889.9604, 711947.9604])
        assert np.allclose(h0.entries, want, atol=1e-6)

    def test_theta_degeneracy(self):
        h0 = build_h0_diagonal(PARAMS).entries
        assert h0[0, 0] == h0[3, 3]
        assert h0[1, 1] == h0[2, 2]
        assert h0[0, 0] > h0[1, 1]

    def test_zero_confinement(self):
        p = ModelParameters(kappa=1e-12, b=227.0)
        h0 = build_h0_diagonal(p).entries
        assert np.allclose(np.diag(h0), (p.m + p.mbar) ** 2)


class TestNjlMatrix:
    def test_zero_coupling(self):
        p = ModelParameters(g_pi=0.0)
        hint = build_njl_matrix(p, compute_exponents(p))
        assert np.all(hint.entries == 0)

    def test_diagonal_shift(self):
        hint = build_njl_matrix(PARAMS, compute_exponents(PARAMS)).entries
        assert abs(hint[0, 0]) == pytest.approx(71665.0, rel=0.02)
        assert hint[0, 0] < 0
        assert hint[0, 0] == hint[3, 3]

    def test_h23_closed_form(self):
        hint = build_njl_matrix(PARAMS, compute_exponents(PARAMS)).entries
        assert hint[1, 2] == pytest.approx(174794.0, rel=0.02)
        assert hint[1, 2] > 0


class TestEffectiveHamiltonian:
    def test_matches_reference_entrywise(self):
        H = build_effective_hamiltonian(PARAMS).entries
        assert np.all(np.abs(H - REFERENCE) <= 0.02 * np.abs(REFERENCE))

    def test_named_entries(self):
        H = build_effective_hamiltonian(PARAMS).entries
        assert H[0, 0] == pytest.approx(640323, rel=2e-4)
        assert H[0, 3] == pytest.approx(-107450, rel=2e-4)
        assert H[1, 2] == pytest.approx(174794, rel=2e-4)

    def test_trace(self):
        H = build_effective_hamiltonian(PARAMS).entries
        assert np.trace(H) == pytest.approx(1974060.0, rel=0.02)
        # 4x the compact-encoding identity coefficient
        assert np.trace(H) / 4 == pytest.approx(493515.0, rel=0.02)

    def test_zero_coupling_reduces_to_h0(self):
        p = ModelParameters(g_pi=0.0)
        H = build_effective_hamiltonian(p).entries
        h0 = build_h0_diagonal(p).entries
        assert np.allclose(H, h0)

    def test_exact_symmetry(self):
        assert np.allclose(build_effective_hamiltonian(PARAMS).entries,
                           build_effective_hamiltonian(PARAMS).entries.T)

    def test_swap_with_sign_symmetry(self):
        # S: (p1,p2,p3,p4) -> (p4,-p3,-p2,p1) commutes with H
        H = build_effective_hamiltonian(PARAMS).entries
        S = np.zeros((4, 4))
        S[0, 3] = S[3, 0] = 1.0
        S[1, 2] = S[2, 1] = -1.0
        assert np.allclose(S @ H @ S, H, atol=1e-9 * np.abs(H).max())


class TestDiagonalize:
    def test_ground_state(self):
        sol = diagonalize(build_effective_hamiltonian(PARAMS))
        assert sol.eigenvalues[0] == pytest.approx(19488.0, rel=1e-3)
        assert sol.eigenvalues[0] == pytest.approx(19476.1262979604, rel=1e-10)

    def test_second_eigenvalue(self):
        sol = diagonalize(build_effective_hamiltonian(PARAMS))
        assert sol.eigenvalues[1] == pytest.approx(521501.0, rel=1e-3)

    def test_ascending_and_orthonormal(self):
        sol = diagonalize(build_effective_hamiltonian(PARAMS))
        assert np.all(np.diff(sol.eigenvalues) > 0)
        assert np.allclose(sol.eigenvectors.T @ sol.eigenvectors, np.eye(4),
                           atol=1e-12)

    def test_ground_vector_upto_sign(self):
        sol = diagonalize(build_effective_hamiltonian(PARAMS))
        v = sol.eigenvectors[:, 0]
        ref = np.array([0.34, -0.62, 0.62, 0.34])
        ref = ref / np.linalg.norm(ref)
        assert abs(abs(v @ ref) - 1.0) < 1e-3

    def test_eigen_equation(self):
        H = build_effective_hamiltonian(PARAMS)
        sol = diagonalize(H)
        for k in range(4):
            resid = H.entries @ sol.eigenvectors[:, k] \
                - sol.eigenvalues[k] * sol.eigenvectors[:, k]
            assert np.abs(resid).max() < 1e-6 * abs(sol.eigenvalues[k])

    def test_sign_convention(self):
        sol = diagonalize(build_effective_hamiltonian(PARAMS))
        for k in range(4):
            col = sol.eigenvectors[:, k]
            assert col[np.argmax(np.abs(col))] > 0

    def test_reordering_invariance(self):
        H = build_effective_hamiltonian(PARAMS).entries
        perm = [2, 0, 3, 1]
        Hp = H[np.ix_(perm, perm)]
        w1 = diagonalize(HermitianObservable(H)).eigenvalues
        w2 = diagonalize(HermitianObservable(Hp)).eigenvalues
        assert np.allclose(w1, w2, rtol=1e-9)


class TestHermitianObservable:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            HermitianObservable(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_dimension(self):
        assert HermitianObservable(np.eye(4)).dimension == 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN passes the symmetry check, so finiteness is checked first
        with pytest.raises(ValueError, match="finite"):
            HermitianObservable(np.array([[1.0, bad], [bad, 1.0]]))
