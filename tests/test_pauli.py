"""Pauli algebra and encoding tests.

Printed-coefficient fixtures below are the published 4-qubit occupation
and 2-qubit compact expansions of the effective Hamiltonian, rounded to
the MeV^2; they pin both the physics numbers and the qubit-ordering
convention (leftmost letter = highest qubit, basis state i+1 on qubit i).
"""
import numpy as np
import pytest

from blfqvqe import ModelParameters, build_effective_hamiltonian
from blfqvqe.pauli import (BK_CNOTS_4, EncoderMatrix, PauliString, PauliSum,
                           bk_encoder, embed_compact, embed_direct,
                           jw_hopping_pauli, jw_to_bk_pauli, pauli_decompose,
                           pauli_string_matrix, pauli_sum_to_matrix)

# Published 17-term occupation-encoding expansion, MeV^2.
DIRECT_REF = {
    "IIII": 987031.0,
    "IXXI": 87397.0, "IYYI": 87397.0,
    "YZZY": -53725.0, "XZZX": -53725.0,
    "IIIZ": -320161.0, "ZIII": -320161.0,
    "IZII": -173353.0, "IIZI": -173353.0,
    "IIYY": 69936.0, "IIXX": 69936.0, "YZYI": 69936.0, "XZXI": 69936.0,
    "IYZY": -69936.0, "IXZX": -69936.0, "YYII": -69936.0, "XXII": -69936.0,
}

# Published 6-term compact expansion, MeV^2.
COMPACT_REF = {
    "II": 493515.0, "XX": 33671.0, "YY": 141122.0,
    "ZZ": 146807.0, "ZX": 139872.0, "XZ": -139872.0,
}


@pytest.fixture(scope="module")
def hmat():
    return build_effective_hamiltonian(ModelParameters())


class TestPauliString:
    def test_valid(self):
        t = PauliString("IXYZ", 2.5)
        assert t.n_qubits == 4
        assert t.weight == 3

    def test_bad_axes(self):
        with pytest.raises(ValueError):
            PauliString("IXQZ", 1.0)
        with pytest.raises(ValueError):
            PauliString("", 1.0)

    def test_nonfinite_coefficient(self):
        with pytest.raises(ValueError):
            PauliString("XX", np.inf)


class TestPauliSum:
    def test_merges_duplicates(self):
        s = PauliSum([("XX", 1.0), ("XX", 2.0), ("ZZ", -1.0)])
        assert s.as_dict() == {"XX": 3.0, "ZZ": -1.0}
        assert len(s) == 2

    def test_drops_cancelled_terms(self):
        s = PauliSum([("XY", 1.0), ("XY", -1.0), ("II", 4.0)])
        assert s.as_dict() == {"II": 4.0}

    def test_mixed_register_sizes_rejected(self):
        with pytest.raises(ValueError):
            PauliSum([("XX", 1.0), ("XXX", 1.0)])

    def test_empty_needs_size(self):
        with pytest.raises(ValueError):
            PauliSum([])
        s = PauliSum([], n_qubits=3)
        assert s.n_qubits == 3 and len(s) == 0

    def test_order_matters_xz_vs_zx(self):
        # XZ and ZX are different operators, not a normal-form ambiguity
        a = pauli_sum_to_matrix(PauliSum([("XZ", 1.0)])).entries
        b = pauli_sum_to_matrix(PauliSum([("ZX", 1.0)])).entries
        assert np.abs(a - b).max() >= 1.0


_SHARED_SUM = PauliSum([("XZ", 1.5), ("ZI", -0.5)])


class TestStringMatrix:
    def test_leftmost_is_high_qubit(self):
        # XZ = X on qubit 1, Z on qubit 0
        ref = np.kron(np.array([[0, 1], [1, 0]]), np.diag([1, -1])).astype(complex)
        assert np.array_equal(pauli_string_matrix("XZ"), ref)

    def test_y(self):
        assert np.array_equal(pauli_string_matrix("Y"),
                              np.array([[0, -1j], [1j, 0]]))

    def test_unitary_hermitian(self):
        M = pauli_string_matrix("XYZI")
        assert np.allclose(M @ M, np.eye(16))
        assert np.allclose(M, M.conj().T)

    def test_sum_matrix_is_the_weighted_string_sum(self):
        s = PauliSum([("XZ", 1.5), ("YY", -0.5), ("II", 2.0)])
        ref = sum(t.coefficient * pauli_string_matrix(t.axes) for t in s)
        assert np.array_equal(s.matrix, ref)
        assert s.matrix is s.matrix

    @pytest.mark.parametrize("get", [
        lambda: pauli_string_matrix("XZ"),
        lambda: _SHARED_SUM.matrix,
        lambda: pauli_sum_to_matrix(_SHARED_SUM).entries,
    ], ids=["string", "sum", "sum_to_matrix"])
    def test_cached_matrices_resist_mutation(self, get):
        # a cached array either refuses writes or is not the cache itself
        before = get().copy()
        try:
            get()[0, 1] += 7.0
        except ValueError:
            pass
        assert np.array_equal(get(), before)


class TestDecompose:
    def test_round_trip_random(self):
        rng = np.random.default_rng(5)
        for n in (2, 4):
            dim = 2**n
            A = rng.normal(size=(dim, dim))
            M = A + A.T
            s = pauli_decompose(M, n)
            back = pauli_sum_to_matrix(s).entries
            assert np.abs(back - M).max() < 1e-9 * np.abs(M).max()

    def test_round_trip_from_sum(self):
        # random real PauliSums with even Y parity have real matrices
        rng = np.random.default_rng(11)
        even_y = [a for a in ("II", "XX", "YY", "ZZ", "XZ", "ZX", "IX", "ZI")]
        coeffs = {a: rng.normal() for a in even_y}
        s = PauliSum(coeffs.items())
        back = pauli_decompose(pauli_sum_to_matrix(s).entries, 2).as_dict()
        for a, c in coeffs.items():
            assert back[a] == pytest.approx(c, abs=1e-12)

    def test_prunes_dust(self):
        M = np.diag([1.0, 1.0])  # = I exactly
        s = pauli_decompose(M, 1)
        assert s.as_dict() == {"I": 1.0}

    def test_rejects_nonsymmetric(self):
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])  # antisymmetric -> iY
        with pytest.raises(ValueError):
            pauli_decompose(M, 1)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            pauli_decompose(np.eye(3), 2)

    def test_sum_to_matrix_rejects_imaginary(self):
        with pytest.raises(ValueError):
            pauli_sum_to_matrix(PauliSum([("IY", 1.0)]))


class TestHopping:
    def test_number_operator(self):
        s = jw_hopping_pauli(2, 2, 4)
        assert s.as_dict() == {"IIII": 0.5, "IIZI": -0.5}
        # counts occupancy of qubit 1 <-> basis state 2
        M = pauli_sum_to_matrix(s).entries
        assert np.array_equal(np.diag(M), [(k >> 1) & 1 for k in range(16)])

    def test_adjacent_hermitian(self):
        s = jw_hopping_pauli(1, 2, 4)
        assert s.as_dict() == {"IIXX": 0.5, "IIYY": 0.5}

    def test_chain_hermitian(self):
        s = jw_hopping_pauli(1, 4, 4)
        assert s.as_dict() == {"XZZX": 0.5, "YZZY": 0.5}

    def test_weight_one_action(self):
        # hermitian hopping moves the particle with unit amplitude
        s = jw_hopping_pauli(2, 4, 5)
        M = pauli_sum_to_matrix(s).entries
        assert M[1 << 3, 1 << 1] == pytest.approx(1.0)
        assert M[1 << 1, 1 << 3] == pytest.approx(1.0)

    def test_index_errors(self):
        with pytest.raises(IndexError):
            jw_hopping_pauli(3, 2, 4)
        with pytest.raises(IndexError):
            jw_hopping_pauli(1, 5, 4)


class TestEmbedDirect:
    def test_printed_coefficients(self, hmat):
        d = embed_direct(hmat).as_dict()
        assert set(d) == set(DIRECT_REF)
        for axes, ref in DIRECT_REF.items():
            assert d[axes] == pytest.approx(ref, rel=1e-4)

    def test_weight_one_block_is_h(self, hmat):
        M = pauli_sum_to_matrix(embed_direct(hmat)).entries
        idx = [1 << i for i in range(4)]
        assert np.abs(M[np.ix_(idx, idx)] - hmat.entries).max() < 1e-8

    def test_random_matrix_block(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(5, 5))
        h = A + A.T
        M = pauli_sum_to_matrix(embed_direct(h)).entries
        idx = [1 << i for i in range(5)]
        assert np.allclose(M[np.ix_(idx, idx)], h, atol=1e-12)

    def test_commutes_with_particle_number(self, hmat):
        s = embed_direct(hmat)
        M = pauli_sum_to_matrix(s).entries
        N = sum(pauli_sum_to_matrix(jw_hopping_pauli(i, i, 4)).entries
                for i in range(1, 5))
        assert np.abs(M @ N - N @ M).max() < 1e-9 * np.abs(M).max()


class TestEmbedCompact:
    def test_printed_coefficients(self, hmat):
        d = embed_compact(hmat).as_dict()
        assert set(d) == set(COMPACT_REF)
        for axes, ref in COMPACT_REF.items():
            assert d[axes] == pytest.approx(ref, rel=1e-4)

    def test_exact_for_power_of_two(self, hmat):
        M = pauli_sum_to_matrix(embed_compact(hmat)).entries
        assert np.abs(M - hmat.entries).max() < 1e-9 * np.abs(hmat.entries).max()

    def test_refuses_non_power_of_two(self):
        rng = np.random.default_rng(9)
        for dim in (1, 3):
            A = rng.normal(size=(dim, dim))
            with pytest.raises(ValueError, match="2\\^n x 2\\^n"):
                embed_compact(A + A.T)


class TestBkEncoder:
    def test_four_modes(self):
        P = bk_encoder(4)
        assert P.matrix.tolist() == [[1, 0, 0, 0],
                                     [1, 1, 0, 0],
                                     [0, 0, 1, 0],
                                     [1, 1, 1, 1]]

    def test_small_sizes(self):
        assert bk_encoder(1).matrix.tolist() == [[1]]
        assert bk_encoder(2).matrix.tolist() == [[1, 0], [1, 1]]

    def test_eight_modes_structure(self):
        P = bk_encoder(8).matrix
        assert np.all(np.diag(P) == 1)
        assert np.all(np.triu(P, 1) == 0)
        # last qubit stores total parity
        assert np.all(P[-1] == 1)
        # doubling structure: top-left and bottom-right blocks both = P_4
        P4 = bk_encoder(4).matrix
        assert np.array_equal(P[:4, :4], P4)
        assert np.array_equal(P[4:, 4:], P4)

    def test_invertible_over_gf2(self):
        for n in (2, 4, 8, 16):
            P = bk_encoder(n)
            assert np.array_equal((P.matrix @ P.inverse()) & 1, np.eye(n, dtype=np.uint8))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            bk_encoder(3)
        with pytest.raises(ValueError):
            bk_encoder(0)

    def test_encode_vector(self):
        P = bk_encoder(4)
        assert P.encode([1, 0, 0, 0]).tolist() == [1, 1, 0, 1]
        assert P.encode([1, 1, 1, 1]).tolist() == [1, 0, 1, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderMatrix(np.array([[1, 1], [0, 1]]))  # upper triangular
        with pytest.raises(ValueError):
            EncoderMatrix(np.array([[0, 0], [1, 1]]))  # zero diagonal


def _dense_cnot(control, target, n):
    dim = 2**n
    U = np.zeros((dim, dim))
    for k in range(dim):
        kk = k ^ (1 << target) if (k >> control) & 1 else k
        U[kk, k] = 1.0
    return U


class TestBkTransform:
    def test_network_realizes_encoder(self):
        # the CNOT list maps |f> to |P f> for every 4-bit occupancy f
        U = np.eye(16)
        for c, t in BK_CNOTS_4:
            U = _dense_cnot(c, t, 4) @ U
        P = bk_encoder(4)
        for f in range(16):
            bits = [(f >> q) & 1 for q in range(4)]
            enc = P.encode(bits)
            target = sum(int(b) << q for q, b in enumerate(enc))
            col = U[:, f]
            assert col[target] == 1.0 and col.sum() == 1.0

    def test_conjugation_rule_matches_dense(self):
        # every 2-qubit Pauli, both CNOT orientations
        axes_list = [a + b for a in "IXYZ" for b in "IXYZ"]
        for c, t in ((0, 1), (1, 0)):
            U = _dense_cnot(c, t, 2)
            for axes in axes_list:
                out = jw_to_bk_pauli(PauliSum([(axes, 1.0)]), cnots=[(c, t)])
                assert len(out) == 1
                term = out.terms[0]
                expected = U @ pauli_string_matrix(axes) @ U.T
                got = term.coefficient * pauli_string_matrix(term.axes)
                assert np.abs(got - expected).max() < 1e-12

    def test_term_count_preserved(self, hmat):
        s = embed_direct(hmat)
        b = jw_to_bk_pauli(s)
        assert len(b) == len(s) == 17

    def test_spectrum_preserved(self, hmat):
        s = embed_direct(hmat)
        b = jw_to_bk_pauli(s)
        ev_s = np.linalg.eigvalsh(pauli_sum_to_matrix(s).entries)
        ev_b = np.linalg.eigvalsh(pauli_sum_to_matrix(b).entries)
        assert np.abs(ev_s - ev_b).max() < 1e-9 * np.abs(ev_s).max()

    def test_involution_on_network(self, hmat):
        # the network is self-inverse up to reversal; conjugating twice
        # (forward then reversed) restores the original sum
        s = embed_direct(hmat)
        fwd = jw_to_bk_pauli(s)
        back = jw_to_bk_pauli(fwd, cnots=tuple(reversed(BK_CNOTS_4)))
        a, b = s.as_dict(), back.as_dict()
        assert set(a) == set(b)
        for k in a:
            assert a[k] == pytest.approx(b[k], rel=1e-12)

    def test_default_requires_four_qubits(self):
        with pytest.raises(ValueError):
            jw_to_bk_pauli(PauliSum([("XX", 1.0)]))
