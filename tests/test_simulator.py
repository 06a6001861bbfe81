"""Simulator, ansatz, sampling, and mitigation tests.

The paper's circuits, gate by gate, live in `oracles`; the package
prepares their states in closed form (`prepared_state`), checked here
against them bit for bit."""
import functools
import re

import numpy as np
import pytest
import scipy.linalg

from blfqvqe import (ModelParameters, build_effective_hamiltonian,
                     diagonalize)
from blfqvqe.pauli import (PauliSum, embed_compact, embed_direct,
                           pauli_string_matrix)
from blfqvqe.simulator import (ReadoutNoiseModel, Statevector, _measurement,
                               _row_sums, expectation_exact,
                               expectation_sampled, sampled_estimates)
from blfqvqe.vqe import (_BK_READOUT, ENCODINGS, GOOD_GUESS, prepared_state,
                         scaling_experiment)
from oracles import (ANSATZ, COMPACT_ANSATZ, DIRECT_ANSATZ, JW_TO_BK_NETWORK,
                     Circuit, Gate, _gate_parts, bk_encoder, run_circuit)


@pytest.fixture(scope="module")
def hmat():
    return build_effective_hamiltonian(ModelParameters())


@pytest.fixture(scope="module")
def ground(hmat):
    sol = diagonalize(hmat)
    return sol.eigenvalues[0], sol.eigenvectors[:, 0]


def compact_angles(v):
    """Closed-form compact-ansatz angles preparing the real unit vector v."""
    a = np.arctan2(v[1], v[0])
    b = np.arctan2(v[2], v[3])
    t2 = 2.0 * np.arccos(np.clip(np.hypot(v[0], v[1]), -1.0, 1.0))
    return a + b, t2, a - b


def direct_angles(v):
    """Closed-form direct-ansatz angles for weight-1 amplitudes v."""
    c1 = np.hypot(v[0], v[1])
    s1 = np.hypot(v[2], v[3])
    return (2.0 * np.arctan2(s1, c1),
            2.0 * np.arctan2(v[0], v[1]),
            2.0 * np.arctan2(v[3], v[2]))


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("Hadamard", (0,))

    def test_duplicate_indices(self):
        with pytest.raises(ValueError):
            Gate.cnot(1, 1)

    @pytest.mark.parametrize("index", [1.7, 1.0, "1"])
    def test_non_integer_index_refused(self, index):
        # an index is read with operator.index: no truncation, no parsing
        with pytest.raises(ValueError, match="gate indices must be integers"):
            Gate("X", (index,))

    def test_numpy_integer_index_accepted(self):
        gate = Gate.cnot(np.int64(0), np.uint8(1))
        assert gate.qubits == (0, 1)
        assert all(type(q) is int for q in gate.qubits)
        assert type(Circuit(np.int64(2), (gate,)).n_qubits) is int

    @pytest.mark.parametrize("n_qubits, gates, message", [
        (2, (Gate.x(2),), "exceeds 2 qubits"),
        # a register size is read with operator.index, like a gate's index
        (2.0, (Gate.x(0),), "non-negative integer"),
        ("4", (), "non-negative integer"),
        (-1, (), "non-negative integer"),
        (None, (), "non-negative integer")])
    def test_circuit_range_check(self, n_qubits, gates, message):
        with pytest.raises(ValueError, match=message):
            Circuit(n_qubits, gates)


class TestStatevector:
    def test_zero(self):
        s = Statevector.zero(3)
        assert s.n_qubits == 3
        assert s.amplitudes[0] == 1.0 and np.all(s.amplitudes[1:] == 0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Statevector([1.0, 1.0])

    @pytest.mark.parametrize("amps", [[1.0, 0.0, 0.0], []])
    def test_rejects_bad_length(self, amps):
        with pytest.raises(ValueError, match="is not a power of 2"):
            Statevector(amps)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="not normalized"):
            Statevector([np.nan, 0.0])

    def test_norm_tolerance(self):
        # the norm may be off by 1e-10: inf and 5e-9 are refused, 5e-13 not
        for amps in ([np.inf, 0.0], [1.0, 1e-4]):
            with pytest.raises(ValueError, match="not normalized"):
                Statevector(amps)
        assert Statevector([1.0, 1e-6]).n_qubits == 1

    def test_does_not_alias_its_input(self):
        amps = np.array([0.0, 1.0], dtype=complex)
        s = Statevector(amps)
        amps[:] = [1.0, 0.0]
        assert s.amplitudes.tolist() == [0.0, 1.0]
        assert not np.shares_memory(s.amplitudes, amps)


class TestRunCircuit:
    def test_empty_circuit(self):
        s = Statevector.zero(2)
        out = run_circuit(Circuit(2), s)
        assert np.array_equal(out.amplitudes, s.amplitudes)

    def test_x_flips(self):
        out = run_circuit(Circuit(1, (Gate.x(0),)), Statevector.zero(1))
        assert out.amplitudes[1] == 1.0

    def test_ry_convention(self):
        out = run_circuit(Circuit(1, (Gate.ry(0),)), Statevector.zero(1),
                          (np.pi / 3,))
        assert out.amplitudes[0] == pytest.approx(np.cos(np.pi / 6))
        assert out.amplitudes[1] == pytest.approx(np.sin(np.pi / 6))

    def test_cnot_and_controls(self):
        # CNOT(c=0, t=1) on |01> -> |11>
        amps = np.zeros(4)
        amps[1] = 1.0
        out = run_circuit(Circuit(2, (Gate.cnot(0, 1),)), Statevector(amps))
        assert out.amplitudes[3] == 1.0
        # CRy acts only when control set
        out = run_circuit(Circuit(2, (Gate.cry(1, 0),)), Statevector(amps),
                          (2.0,))
        assert np.array_equal(out.amplitudes, amps)

    def test_norm_preserved_random_circuit(self):
        rng = np.random.default_rng(0)
        gates, angles = [], []
        for _ in range(40):
            kind = rng.integers(4)
            q = int(rng.integers(3))
            r = int((q + 1 + rng.integers(2)) % 3)
            if kind == 0:
                gates.append(Gate.x(q))
            elif kind == 1:
                gates.append(Gate.ry(q))
                angles.append(rng.uniform(-np.pi, np.pi))
            elif kind == 2:
                gates.append(Gate.cnot(q, r))
            else:
                gates.append(Gate.cry(q, r))
                angles.append(rng.uniform(-np.pi, np.pi))
        out = run_circuit(Circuit(3, gates), Statevector.zero(3), angles)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run_circuit(Circuit(2), Statevector.zero(3))
        for angles in ((), (0.1, 0.2), (0.1, 0.2, 0.3, 0.4)):
            with pytest.raises(ValueError, match="3 rotations"):
                run_circuit(COMPACT_ANSATZ, Statevector.zero(2), angles)
        with pytest.raises(ValueError, match="0 rotations"):
            run_circuit(JW_TO_BK_NETWORK, Statevector.zero(4), (0.1,))

    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_ansatz_needs_its_angles(self, encoding):
        # an ansatz holds no angles of its own, so none are run by default
        circuit = ANSATZ[encoding]
        assert circuit.n_qubits == ENCODINGS[encoding].n_qubits
        with pytest.raises(ValueError, match="3 rotations, got 0 angles"):
            run_circuit(circuit, Statevector.zero(circuit.n_qubits))

    @pytest.mark.parametrize("encoding, kind", [("direct", "CRy"),
                                                ("compact", "Ry"),
                                                ("bk", "CRy")])
    def test_rotation_kinds(self, encoding, kind):
        # the kinds the encoding records for the minimizer are its circuit's
        gates = ANSATZ[encoding].gates
        kinds = [g.kind for g in gates if g.kind.endswith("Ry")]
        assert kinds == [kind] * 3 == list(ENCODINGS[encoding].kinds)

    def test_nan_angle_fails_the_norm_check(self):
        with pytest.raises(ValueError, match="amplitudes are not normalized"):
            run_circuit(Circuit(1, (Gate.ry(0),)), Statevector.zero(1),
                        (float("nan"),))


def dense_gate(kind, qubits, angle, n):
    """The gate built independently: the one-qubit X or expm(-i a/2 Y) on
    the target, and a control as |0><0| x I + |1><1| x U, embedded by
    Kronecker products with the highest qubit leftmost."""
    *control, target = qubits
    if kind in ("X", "CNOT"):
        u = np.array([[0, 1], [1, 0]], dtype=complex)
    else:
        u = scipy.linalg.expm(-0.5j * angle * np.array([[0, -1j], [1j, 0]]))

    def embed(ops):
        out = np.ones((1, 1))
        for q in reversed(range(n)):
            out = np.kron(out, ops.get(q, np.eye(2)))
        return out

    if not control:
        return embed({target: u})
    c = control[0]
    return (embed({c: np.diag([1.0, 0.0])})
            + embed({c: np.diag([0.0, 1.0]), target: u}))


class TestGateParts:
    ANGLES = (0.0, np.pi, 2 * np.pi, -4 * np.pi, 0.7, -2.3, 11.9)

    @pytest.mark.parametrize("kind, n", [(kind, n) for n in (1, 2, 3, 4)
                                         for kind in ("X", "Ry", "CNOT", "CRy")
                                         if n > 1 or not kind.startswith("C")])
    def test_matches_dense_construction(self, kind, n):
        k = 2 if kind.startswith("C") else 1
        rng = np.random.default_rng(100 * n + len(kind))
        angles = self.ANGLES + tuple(rng.uniform(-20, 20, 5))
        basis = np.eye(2**n)
        for angle in angles:
            qubits = tuple(int(q) for q in rng.permutation(n)[:k])
            circ = Circuit(n, (Gate(kind, qubits),))
            run_at = (angle,) if kind.endswith("Ry") else ()
            columns = [run_circuit(circ, Statevector(e), run_at).amplitudes
                       for e in basis]
            np.testing.assert_allclose(np.column_stack(columns),
                                       dense_gate(kind, qubits, angle, n),
                                       rtol=0, atol=1e-12)

    def test_parts_are_built_once_and_read_only(self):
        parts = _gate_parts("CRy", (1, 0), 2)
        assert parts is _gate_parts("CRy", (1, 0), 2)
        for P in parts:
            with pytest.raises(ValueError):
                P[0, 0] = 2.0
        assert _gate_parts("CNOT", (1, 0), 2)[1:] == (None, None)


def monomial_run(circuit, angles):
    """The circuit's state at `angles` from its monomial states: the dot
    product with the products of (1, cos a/2, sin a/2), first rotation's
    factor most significant."""
    half = np.asarray(angles, dtype=float) / 2.0
    v = functools.reduce(np.multiply.outer,
                         [np.array([1.0, np.cos(h), np.sin(h)]) for h in half],
                         np.ones(()))
    return np.dot(v.ravel(), circuit.monomial_states)


class TestPreparedState:
    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_matches_the_circuit_bit_for_bit(self, encoding):
        # the closed form gives, bit for bit, the paper's circuit run gate
        # by gate, zero amplitudes and the good guess's exact zeros included
        circuit = ANSATZ[encoding]
        zero = Statevector.zero(circuit.n_qubits)
        rng = np.random.default_rng(31)
        for theta in [GOOD_GUESS[encoding], (0.0, 0.0, 0.0),
                      *rng.uniform(-10, 10, (1000, 3))]:
            got = prepared_state(encoding, theta).amplitudes
            expected = run_circuit(circuit, zero, theta).amplitudes
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_needs_three_angles(self, encoding):
        for theta in ((0.1, 0.2), (0.1, 0.2, 0.3, 0.4)):
            with pytest.raises(ValueError, match="3 rotations"):
                prepared_state(encoding, theta)


class TestMonomialStates:
    """The oracle's second form of a circuit: its zero state pushed through
    every choice of its rotations' parts, with the angles left open."""

    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_monomial_states_match_gate_by_gate(self, encoding):
        circuit = ANSATZ[encoding]
        zero = Statevector.zero(circuit.n_qubits)
        rng = np.random.default_rng(31)
        for theta in [GOOD_GUESS[encoding], *rng.uniform(-10, 10, (200, 3))]:
            expected = run_circuit(circuit, zero, theta).amplitudes
            assert monomial_run(circuit, theta).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_monomial_states_are_compiled_once(self, encoding):
        circuit = ANSATZ[encoding]
        basis = circuit.monomial_states
        assert basis is circuit.monomial_states
        assert basis.shape == (27, 2**circuit.n_qubits)
        with pytest.raises(ValueError):
            basis[0, 0] = 2.0

    @pytest.mark.parametrize("encoding, nonzero", [("direct", 4),
                                                   ("compact", 8),
                                                   ("bk", 4)])
    def test_real_signed_one_hot_rows_on_readout(self, encoding, nonzero):
        # every row is 0 or +-e_j with j on readout, so each circuit's
        # state is real and leak-free at every angle: four amplitudes,
        # each a signed sum of angle products, as the closed form has it
        enc = ENCODINGS[encoding]
        basis = ANSATZ[encoding].monomial_states
        assert not basis.imag.any()
        assert set(basis.real.ravel().tolist()) <= {0.0, 1.0, -1.0}
        assert (np.count_nonzero(basis, axis=1) <= 1).all()
        assert np.count_nonzero(basis) == nonzero
        off = np.ones(basis.shape[1], dtype=bool)
        off[list(enc.readout)] = False
        assert not basis[:, off].any()

    def test_two_rotations_and_trailing_fixed_gates(self):
        circ = Circuit(3, (Gate.x(1), Gate.ry(0), Gate.cnot(0, 1),
                           Gate.cry(1, 2), Gate.x(2), Gate.cnot(2, 0)))
        assert circ.monomial_states.shape == (9, 8)
        zero = Statevector.zero(3)
        rng = np.random.default_rng(33)
        for angles in rng.uniform(-10, 10, (500, 2)):
            expected = run_circuit(circ, zero, angles).amplitudes
            assert monomial_run(circ, angles).tobytes() == expected.tobytes()

    def test_circuits_without_rotations(self):
        # no rotation: one row, the zero state through the fixed gates
        for circ in (Circuit(2), JW_TO_BK_NETWORK,
                     Circuit(2, (Gate.x(0), Gate.cnot(0, 1)))):
            zero = Statevector.zero(circ.n_qubits)
            expected = run_circuit(circ, zero).amplitudes
            assert circ.monomial_states.shape == (1, 2**circ.n_qubits)
            assert monomial_run(circ, ()).tobytes() == expected.tobytes()


class TestDirectAnsatz:
    def test_zero_angles_single_station(self):
        out = run_circuit(DIRECT_ANSATZ, Statevector.zero(4), (0.0, 0.0, 0.0))
        assert out.amplitudes[2] == pytest.approx(1.0)

    def test_good_guess(self):
        out = run_circuit(DIRECT_ANSATZ, Statevector.zero(4),
                          (3 * np.pi / 2, 0.0, 0.0))
        w1 = np.array([out.amplitudes[1 << i].real for i in range(4)])
        assert np.allclose(w1, [0.0, -1 / np.sqrt(2), 1 / np.sqrt(2), 0.0],
                           atol=1e-12)

    def test_weight_one_support_and_realness(self):
        rng = np.random.default_rng(17)
        idx = [1 << i for i in range(4)]
        off = np.ones(16, dtype=bool)
        off[idx] = False
        worst_leak = 0.0
        worst_imag = 0.0
        for _ in range(10_000):
            t = rng.uniform(-2 * np.pi, 2 * np.pi, size=3)
            out = run_circuit(DIRECT_ANSATZ, Statevector.zero(4), t).amplitudes
            worst_leak = max(worst_leak, np.abs(out[off]).max())
            worst_imag = max(worst_imag, np.abs(out.imag).max())
        assert worst_leak < 1e-12
        assert worst_imag < 1e-12

    def test_amplitude_map(self):
        t1, t2, t3 = 0.9, -1.3, 2.2
        out = run_circuit(DIRECT_ANSATZ, Statevector.zero(4), (t1, t2, t3))
        c1, s1 = np.cos(t1 / 2), np.sin(t1 / 2)
        c2, s2 = np.cos(t2 / 2), np.sin(t2 / 2)
        c3, s3 = np.cos(t3 / 2), np.sin(t3 / 2)
        w1 = [out.amplitudes[1 << i].real for i in range(4)]
        assert np.allclose(w1, [c1 * s2, c1 * c2, s1 * c3, s1 * s3], atol=1e-12)

    def test_reaches_ground_vector(self, ground):
        _, v = ground
        out = run_circuit(DIRECT_ANSATZ, Statevector.zero(4), direct_angles(v))
        w1 = np.array([out.amplitudes[1 << i].real for i in range(4)])
        assert np.abs(w1 - v).max() < 1e-12


class TestCompactAnsatz:
    def test_zero_angles(self):
        out = run_circuit(COMPACT_ANSATZ, Statevector.zero(2), (0.0, 0.0, 0.0))
        assert out.amplitudes[0] == pytest.approx(1.0)

    def test_real_amplitudes(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            t = rng.uniform(-2 * np.pi, 2 * np.pi, size=3)
            out = run_circuit(COMPACT_ANSATZ, Statevector.zero(2), t).amplitudes
            assert np.abs(out.imag).max() < 1e-12

    def test_prepares_printed_ground_vector(self):
        target = np.array([0.34, -0.62, 0.62, 0.34])  # unit norm as printed
        out = run_circuit(COMPACT_ANSATZ, Statevector.zero(2),
                          compact_angles(target))
        assert np.abs(out.amplitudes.real - target).max() < 1e-6

    def test_good_guess(self):
        out = run_circuit(COMPACT_ANSATZ, Statevector.zero(2),
                          (0.0, np.pi / 2, -np.pi))
        assert np.allclose(out.amplitudes.real,
                           [0.0, -1 / np.sqrt(2), 1 / np.sqrt(2), 0.0], atol=1e-12)


class TestJwToBkCircuit:
    def test_vacuum_fixed(self):
        out = run_circuit(JW_TO_BK_NETWORK, Statevector.zero(4))
        assert out.amplitudes[0] == 1.0

    def test_all_basis_states_follow_encoder(self):
        P = bk_encoder(4)
        circ = JW_TO_BK_NETWORK
        for f in range(16):
            amps = np.zeros(16)
            amps[f] = 1.0
            out = run_circuit(circ, Statevector(amps)).amplitudes
            enc = P.encode([(f >> q) & 1 for q in range(4)])
            target = sum(int(b) << q for q, b in enumerate(enc))
            assert out[target] == pytest.approx(1.0)

    def test_self_inverse_reversed(self):
        circ = JW_TO_BK_NETWORK
        rev = Circuit(4, tuple(reversed(circ.gates)))
        rng = np.random.default_rng(4)
        amps = rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        out = run_circuit(rev, run_circuit(circ, Statevector(amps)))
        assert np.abs(out.amplitudes - amps).max() < 1e-12

    def test_one_excitations_land_on_bk_readout(self):
        # the bk encoding reads its coefficients off the images of 1, 2, 4
        # and 8, which it holds as literals
        images = []
        for i in range(4):
            out = run_circuit(JW_TO_BK_NETWORK,
                              Statevector(np.eye(16)[1 << i])).amplitudes
            images.append(int(np.flatnonzero(out)[0]))
            assert out[images[-1]] == 1.0 and np.abs(out).sum() == 1.0
        assert tuple(images) == _BK_READOUT == ENCODINGS["bk"].readout


class TestExpectationExact:
    def test_zz_on_vacuum(self):
        assert expectation_exact(Statevector.zero(2),
                                 PauliSum([("ZZ", 1.0)])) == pytest.approx(1.0)

    def test_identity_any_state(self):
        rng = np.random.default_rng(8)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        s = Statevector(amps)
        assert expectation_exact(s, PauliSum([("III", 2.5)])) == pytest.approx(2.5)

    def test_ground_energy_compact(self, hmat, ground):
        e0, v = ground
        state = run_circuit(COMPACT_ANSATZ, Statevector.zero(2), compact_angles(v))
        e = expectation_exact(state, embed_compact(hmat))
        assert e == pytest.approx(e0, rel=1e-10)
        assert e == pytest.approx(19488.0, rel=1e-3)

    def test_ground_energy_direct(self, hmat, ground):
        e0, v = ground
        state = run_circuit(DIRECT_ANSATZ, Statevector.zero(4), direct_angles(v))
        e = expectation_exact(state, embed_direct(hmat))
        assert e == pytest.approx(e0, rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation_exact(Statevector.zero(3), PauliSum([("ZZ", 1.0)]))


class TestExpectationSampled:
    def test_single_shot_z_term_exact(self):
        amps = np.zeros(4)
        amps[1] = 1.0  # |01>
        est, se = expectation_sampled(Statevector(amps), PauliSum([("ZZ", 1.0)]),
                                      shots_per_term=1, seed=0)
        assert est == -1.0 and se == 0.0

    def test_identity_terms_exact(self):
        est, se = expectation_sampled(Statevector.zero(2), PauliSum([("II", 3.5)]),
                                      shots_per_term=4, seed=0)
        assert est == 3.5 and se == 0.0

    def test_converges_to_exact(self, hmat, ground):
        e0, v = ground
        state = run_circuit(COMPACT_ANSATZ, Statevector.zero(2), compact_angles(v))
        s = embed_compact(hmat)
        est, se = expectation_sampled(state, s, shots_per_term=1_000_000, seed=123)
        assert abs(est - e0) < 3 * se

    def test_unbiased_mean(self, hmat, ground):
        e0, v = ground
        state = run_circuit(COMPACT_ANSATZ, Statevector.zero(2), compact_angles(v))
        s = embed_compact(hmat)
        repeats = 200
        ests, ses = [], []
        for r in range(repeats):
            est, se = expectation_sampled(state, s, shots_per_term=256, seed=50_000 + r)
            ests.append(est)
            ses.append(se)
        mean = np.mean(ests)
        se_mean = np.sqrt(np.mean(np.square(ses)) / repeats)
        assert abs(mean - e0) < 4 * se_mean

    def test_bit_reproducible(self, hmat, ground):
        _, v = ground
        state = run_circuit(COMPACT_ANSATZ, Statevector.zero(2), compact_angles(v))
        s = embed_compact(hmat)
        a = expectation_sampled(state, s, 512, seed=9)
        b = expectation_sampled(state, s, 512, seed=9)
        c = expectation_sampled(state, s, 512, seed=10)
        assert a == b
        assert a != c

    def test_rejects_zero_shots(self, hmat):
        with pytest.raises(ValueError):
            expectation_sampled(Statevector.zero(2), embed_compact(hmat), 0, seed=0)

    @pytest.mark.parametrize("shots", [1.5, 8192.5, float("nan"),
                                       float("inf")])
    def test_rejects_a_non_whole_shot_count(self, hmat, ground, shots):
        # a fraction would draw int(shots) shots but divide by shots
        state = run_circuit(COMPACT_ANSATZ, Statevector.zero(2),
                            compact_angles(ground[1]))
        with pytest.raises(ValueError, match="whole number"):
            expectation_sampled(state, embed_compact(hmat), shots, seed=3)
        with pytest.raises(ValueError, match="whole number"):
            sampled_estimates(state, embed_compact(hmat), shots, seed=3,
                              repeats=2)

    @pytest.mark.parametrize("shots", [np.int64(512), 512.0])
    def test_integral_shot_counts_draw_alike(self, hmat, ground, shots):
        state = run_circuit(COMPACT_ANSATZ, Statevector.zero(2),
                            compact_angles(ground[1]))
        s = embed_compact(hmat)
        assert (expectation_sampled(state, s, shots, seed=3)
                == expectation_sampled(state, s, 512, seed=3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation_sampled(Statevector.zero(3), PauliSum([("ZZ", 1.0)]),
                                64, seed=0)

    def test_std_error_is_the_sample_spread(self):
        # one +-1 outcome per shot: the sample variance is 1 - mean^2
        state = run_circuit(Circuit(1, (Gate.ry(0),)), Statevector.zero(1),
                            (1.1,))
        shots = 1000
        est, se = expectation_sampled(state, PauliSum([("Z", 2.5)]), shots,
                                      seed=4)
        mean = est / 2.5
        assert abs(mean) < 1.0
        assert se == pytest.approx(2.5 * np.sqrt((1.0 - mean**2) / shots),
                                   rel=1e-12)


class TestSeededStream:
    """A seed draws what `np.random.default_rng(seed)` draws, whatever was
    drawn before it; a Generator is drawn from where it stands."""

    def test_interleaved_seeds_draw_as_a_new_generator(self, hmat, ground):
        theta = compact_angles(ground[1])
        state = run_circuit(COMPACT_ANSATZ, Statevector.zero(2), theta)
        s = embed_compact(hmat)
        seed, other = 41, 86
        first = sampled_estimates(state, s, 64, seed, repeats=3)
        sampled_estimates(state, s, 64, other, repeats=3)
        expectation_sampled(state, s, 64, [seed, 1])
        scaling_experiment(s, "compact", repeats=2, seed=seed, theta=theta)
        again = sampled_estimates(state, s, 64, seed, repeats=3)
        assert first.tobytes() == again.tobytes()

    def test_a_generator_is_drawn_from_where_it_stands(self, hmat, ground):
        state = run_circuit(COMPACT_ANSATZ, Statevector.zero(2),
                            compact_angles(ground[1]))
        s = embed_compact(hmat)
        rng = np.random.default_rng(41)
        start = rng.bit_generator.state
        first = expectation_sampled(state, s, 64, rng)
        assert first == expectation_sampled(state, s, 64, 41)
        assert expectation_sampled(state, s, 64, rng) != first
        rng.bit_generator.state = start
        assert expectation_sampled(state, s, 64, rng) == first


class TestSampledEstimates:
    @pytest.mark.parametrize("encoding", ["direct", "compact"])
    def test_one_repeat_is_expectation_sampled(self, hmat, ground, encoding):
        _, v = ground
        if encoding == "direct":
            state = run_circuit(DIRECT_ANSATZ,
                                Statevector.zero(4), direct_angles(v))
            s = embed_direct(hmat)
        else:
            state = run_circuit(COMPACT_ANSATZ,
                                Statevector.zero(2), compact_angles(v))
            s = embed_compact(hmat)
        est = sampled_estimates(state, s, 512, 17, repeats=1)
        assert est.shape == (1,)
        assert est[0] == expectation_sampled(state, s, 512, 17)[0]

    def test_batch_spread_matches_dense_std_error(self, hmat, ground):
        # R estimates from one batched draw scatter with the dense
        # single-estimate error; the sample standard deviation of R normal
        # draws has a relative spread of about 1/sqrt(2R), so 4/sqrt(2R)
        # is a 4-sigma band (0.141 at R = 400).  A batch that reused one
        # draw across repeats would have zero spread.
        _, v = ground
        state = run_circuit(COMPACT_ANSATZ, Statevector.zero(2), compact_angles(v))
        s = embed_compact(hmat)
        shots, repeats = 256, 400
        amps = state.amplitudes
        dense_var = sum(
            t.coefficient**2
            * (1.0 - np.vdot(amps, pauli_string_matrix(t.axes) @ amps).real ** 2)
            for t in s.terms if t.weight)
        dense_se = np.sqrt(dense_var / shots)
        est = sampled_estimates(state, s, shots, seed=31, repeats=repeats)
        assert est.shape == (repeats,)
        tol = 4.0 / np.sqrt(2.0 * repeats)
        assert abs(np.std(est, ddof=1) / dense_se - 1.0) <= tol

    @pytest.mark.parametrize("repeats", [0, 2.5])
    def test_rejects_zero_repeats(self, hmat, repeats):
        with pytest.raises(ValueError, match="^repeats must be a whole number "
                                             f"of at least 1, got {repeats}$"):
            sampled_estimates(Statevector.zero(2), embed_compact(hmat), 64,
                              seed=0, repeats=repeats)


class TestRowSums:
    # the estimator's f.g sums must keep numpy's bits, or every golden
    # sampled output moves; a numpy that reorders short sums fails here
    @pytest.mark.parametrize("lead", [(5,), (16,), (244, 16), (600, 5)],
                             ids=lambda lead: "x".join(map(str, lead)))
    @pytest.mark.parametrize("width", range(1, 17))
    def test_bit_for_bit_numpys_sum(self, lead, width):
        # both signs over 16 decades, so any reordering moves low bits, and
        # zeros of both signs, with one row all -0.0, which numpy sums to +0.0
        rng = np.random.default_rng(width)
        shape = lead + (width,)
        a = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)
        a[rng.random(shape) < 0.3] = -0.0
        a[rng.random(shape) < 0.1] = 0.0
        a[..., 0, :] = -0.0
        expected = a.sum(axis=-1)
        assert np.array_equal(_row_sums(a).view(np.int64),
                              expected.view(np.int64))

    @pytest.mark.parametrize("shape", [(0, 1), (3, 0, 1)])
    def test_identity_only_sum_has_no_rows(self, shape):
        # a sum of identities alone compiles to zero rows of width 1
        assert _row_sums(np.zeros(shape)).shape == shape[:-1]


class TestReadoutMitigation:
    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            ReadoutNoiseModel(-0.1, 0.0)
        with pytest.raises(ValueError):
            ReadoutNoiseModel(0.0, 1.0)

    @pytest.mark.parametrize("p01, p10, refusal", [
        (np.nan, 0.0, "p01 must be finite, got nan"),
        (0.0, np.inf, "p10 must be finite, got inf"),
        (0.0, 1.0, "p10 must lie in [0, 1), got 1.0"),
        (-0.1, 0.0, "p01 must lie in [0, 1), got -0.1")])
    def test_refusal_names_the_probability(self, p01, p10, refusal):
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            ReadoutNoiseModel(p01, p10)

    @pytest.mark.parametrize("p01, p10, refusal", [
        (False, False, "p01 must be a number, not a boolean, got False"),
        (True, 0.0, "p01 must be a number, not a boolean, got True"),
        (0.0, np.False_, "p10 must be a number, not a boolean, got np.False_"),
        ("0.1", 0.0, "p01 must be a number, got '0.1'"),
        (0.0, "0", "p10 must be a number, got '0'"),
    ], ids=["both-false", "p01-true", "p10-np.false", "p01-string",
            "p10-string"])
    def test_refuses_non_numbers(self, p01, p10, refusal):
        # a boolean reads as 0 or 1, so False passes as a noiseless readout;
        # a string would fail at the range check
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            ReadoutNoiseModel(p01, p10)

    def test_zero_noise_identity(self, hmat, ground):
        # without flips, mitigation leaves the draws and estimates unchanged
        _, v = ground
        state = run_circuit(COMPACT_ANSATZ, Statevector.zero(2), compact_angles(v))
        s = embed_compact(hmat)
        assert (expectation_sampled(state, s, 512, 17,
                                    noise=ReadoutNoiseModel(0.0, 0.0),
                                    mitigate=True)
                == expectation_sampled(state, s, 512, 17))

    def test_singular_calibration_raises(self):
        with pytest.raises(ValueError, match="singular"):
            expectation_sampled(Statevector.zero(1), PauliSum([("Z", 1.0)]),
                                64, seed=0, noise=ReadoutNoiseModel(0.4, 0.6),
                                mitigate=True)

    def test_mitigation_without_noise_model_raises(self):
        # there is no calibration to invert, so no mitigated estimate
        with pytest.raises(ValueError, match="noise model"):
            expectation_sampled(Statevector.zero(1), PauliSum([("Z", 1.0)]),
                                64, seed=0, mitigate=True)

    @pytest.mark.parametrize("mode", ["sampled", "noisy", "mitigated"])
    def test_compiled_measurement_is_read_only(self, hmat, mode):
        noise = None if mode == "sampled" else ReadoutNoiseModel(0.03, 0.05)
        compiled = _measurement(embed_direct(hmat), noise, mode == "mitigated")
        arrays = [a for a in compiled[1:] if a is not None]
        assert len(arrays) == (6 if mode == "sampled" else 7)
        assert not any(a.flags.writeable for a in arrays)

    def test_flip_recovery_on_zero_state(self):
        # |0> measured with symmetric flips p: raw <Z> = 1 - 2p
        noise = ReadoutNoiseModel(0.05, 0.05)
        z = PauliSum([("Z", 1.0)])
        raw, _ = expectation_sampled(Statevector.zero(1), z, 100_000, seed=3,
                                     noise=noise)
        assert raw == pytest.approx(0.9, abs=0.01)
        corrected, _ = expectation_sampled(Statevector.zero(1), z, 100_000,
                                           seed=3, noise=noise, mitigate=True)
        assert corrected == pytest.approx(1.0, abs=0.01)

    def test_bias_reduced_for_all_levels(self):
        rng = np.random.default_rng(77)
        amps = rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        state = Statevector(amps)
        term = PauliSum([("ZZ", 1.0)])
        signs = np.array([1.0, -1.0, -1.0, 1.0])
        exact = float((np.abs(amps) ** 2) @ signs)
        for p in (0.01, 0.03, 0.05):
            noise = ReadoutNoiseModel(p, p)
            raw_err, mit_err = [], []
            for r in range(100):
                e_raw, _ = expectation_sampled(state, term, 10_000,
                                               seed=600 + r, noise=noise)
                e_mit, _ = expectation_sampled(state, term, 10_000,
                                               seed=600 + r, noise=noise,
                                               mitigate=True)
                raw_err.append(e_raw - exact)
                mit_err.append(e_mit - exact)
            assert abs(np.mean(mit_err)) < abs(np.mean(raw_err))

    def test_mitigated_std_error_matches_dense_amplification(self, hmat, ground):
        # inverting a symmetric confusion scales a weight-w parity's
        # single-shot variance to (1 - seen^2) / (1 - 2p)^(2w), where
        # seen = (1 - 2p)^w <P> is the parity the noisy readout sees
        _, v = ground
        state = run_circuit(COMPACT_ANSATZ, Statevector.zero(2), compact_angles(v))
        s = embed_compact(hmat)
        p, shots = 0.03, 8192
        noise = ReadoutNoiseModel(p, p)
        amps = state.amplitudes
        dense_var = 0.0
        for t in s.terms:
            if t.weight == 0:
                continue
            shrink = (1.0 - 2.0 * p) ** t.weight
            seen = shrink * np.vdot(amps, pauli_string_matrix(t.axes) @ amps).real
            dense_var += t.coefficient**2 * (1.0 - seen**2) / (shrink**2 * shots)
        ratios = [expectation_sampled(state, s, shots, seed=900 + r, noise=noise,
                                      mitigate=True)[1] / np.sqrt(dense_var)
                  for r in range(160)]
        assert 0.95 <= np.mean(ratios) <= 1.05


# (noise, mitigate) for each readout model the estimator compiles
READOUT_MODELS = {"sampled": (None, False),
                  "noisy-sym": (ReadoutNoiseModel(0.03, 0.03), False),
                  "noisy-asym": (ReadoutNoiseModel(0.03, 0.05), False),
                  "mitigated-zero": (ReadoutNoiseModel(0.0, 0.0), True),
                  "mitigated-sym": (ReadoutNoiseModel(0.03, 0.03), True),
                  "mitigated-asym": (ReadoutNoiseModel(0.03, 0.05), True)}
# every model but asymmetric mitigation reads an outcome by its parity
PARITY_MODELS = {k: v for k, v in READOUT_MODELS.items()
                 if k != "mitigated-asym"}


def folded_probabilities(state, pauli_sum, noise, mitigate):
    """Each compiled row's category probabilities, summed outcome by
    outcome from the outcome probabilities through the readout response."""
    _, _, _, U, response, fold, g, _ = _measurement(pauli_sum, noise, mitigate)
    P = np.abs(U @ state.amplitudes) ** 2
    if response is not None:
        P = P @ response.T
    folded = np.zeros(g.size)
    for i, p in zip(fold, P.ravel()):
        folded[i] += p
    return folded.reshape(g.shape)


class TestFoldedMeasurement:
    @pytest.mark.parametrize("noise, mitigate", READOUT_MODELS.values(),
                             ids=READOUT_MODELS)
    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_folded_rows_are_distributions(self, hmat, encoding, noise,
                                           mitigate):
        s = ENCODINGS[encoding].embed(hmat)
        rng = np.random.default_rng(41)
        for _ in range(5):
            state = prepared_state(encoding, rng.uniform(-np.pi, np.pi, 3))
            P = folded_probabilities(state, s, noise, mitigate)
            assert P.shape[0] == sum(1 for t in s.terms if t.weight)
            assert (P >= 0.0).all()
            assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("noise, mitigate", READOUT_MODELS.values(),
                             ids=READOUT_MODELS)
    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_category_weights_are_the_dense_weights(self, hmat, encoding,
                                                    noise, mitigate):
        # each outcome's category carries the outcome's own weight: its
        # sign, or its sign row times the dense n-fold inverse confusion
        s = ENCODINGS[encoding].embed(hmat)
        n = s.n_qubits
        axes = sorted(t.axes for t in s.terms if t.weight)
        _, _, _, _, _, fold, g, g2 = _measurement(s, noise, mitigate)
        dense = np.array([np.diag(pauli_string_matrix(
            "".join("I" if ch == "I" else "Z" for ch in a))).real
            for a in axes])
        if mitigate:
            C = noise.confusion_matrix()
            dense = dense @ np.linalg.inv(
                functools.reduce(np.kron, [C] * n))
        weights = g.ravel()[fold].reshape(dense.shape)
        assert np.abs(weights - dense).max() < 1e-12
        assert (fold // g.shape[1] == np.repeat(np.arange(len(axes)),
                                                2**n)).all()
        assert np.array_equal(g2, g**2)

    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_parity_split_is_the_exact_expectation(self, hmat, encoding):
        s = ENCODINGS[encoding].embed(hmat)
        axes = sorted(t.axes for t in s.terms if t.weight)
        rng = np.random.default_rng(43)
        for _ in range(5):
            state = prepared_state(encoding, rng.uniform(-np.pi, np.pi, 3))
            P = folded_probabilities(state, s, None, False)
            amps = state.amplitudes
            exact = [np.vdot(amps, pauli_string_matrix(a) @ amps).real
                     for a in axes]
            assert np.abs(P[:, 0] - P[:, 1] - exact).max() < 1e-12

    @pytest.mark.parametrize("noise, mitigate", PARITY_MODELS.values(),
                             ids=PARITY_MODELS)
    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_parity_rows_draw_two_categories(self, hmat, encoding, noise,
                                             mitigate):
        s = ENCODINGS[encoding].embed(hmat)
        _, _, _, _, _, _, g, _ = _measurement(s, noise, mitigate)
        assert g.shape[1] == 2
        assert (g[:, 0] > 0).all() and (g[:, 1] < 0).all()
        assert (g[:, 0] == -g[:, 1]).all()

    def test_asymmetric_rows_draw_at_most_the_support_outcomes(self, hmat):
        s = embed_direct(hmat)
        noise = ReadoutNoiseModel(0.03, 0.05)
        _, _, _, _, _, _, g, _ = _measurement(s, noise, True)
        weights = [t.weight for t in sorted(s.terms, key=lambda t: t.axes)
                   if t.weight]
        for w, row in zip(weights, g):
            assert 2 <= np.count_nonzero(row) <= 2**w

    def test_asymmetric_mitigation_covers_the_exact_energy(self, hmat,
                                                            ground):
        # the widest fold: rows of 2 to 6 categories, padded to 6
        e0, v = ground
        state = run_circuit(DIRECT_ANSATZ, Statevector.zero(4),
                            direct_angles(v))
        s = embed_direct(hmat)
        noise = ReadoutNoiseModel(0.03, 0.05)
        repeats = 400
        ests, ses = np.array([expectation_sampled(
            state, s, 1024, seed=70_000 + r, noise=noise, mitigate=True)
            for r in range(repeats)]).T
        rms_se = np.sqrt(np.mean(ses**2))
        assert abs(ests.mean() - e0) < 4.0 * rms_se / np.sqrt(repeats)
        assert abs(np.std(ests, ddof=1) / rms_se - 1.0) <= 4.0 / np.sqrt(
            2.0 * repeats)


class TestTermOrder:
    @pytest.mark.parametrize("mode", ["sampled", "noisy", "mitigated"])
    def test_reversed_sum_is_bit_identical(self, hmat, ground, mode):
        # rows are drawn in axes order, so the order a sum lists its
        # terms in does not reach the draws
        _, v = ground
        state = run_circuit(DIRECT_ANSATZ, Statevector.zero(4), direct_angles(v))
        s = embed_direct(hmat)
        flipped = PauliSum(reversed(s.terms))
        assert [t.axes for t in flipped] == [t.axes for t in s][::-1]
        noise = None if mode == "sampled" else ReadoutNoiseModel(0.03, 0.05)
        options = {"noise": noise, "mitigate": mode == "mitigated"}
        assert (expectation_sampled(state, s, 512, 17, **options)
                == expectation_sampled(state, flipped, 512, 17, **options))

