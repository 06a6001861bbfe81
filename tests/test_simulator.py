"""Simulator, ansatz, sampling, and mitigation tests."""
import numpy as np
import pytest

from blfqvqe import ModelParameters, build_effective_hamiltonian, diagonalize
from blfqvqe.pauli import (PauliSum, bk_encoder, embed_compact, embed_direct,
                           pauli_string_matrix)
from blfqvqe.simulator import (Circuit, Gate, ReadoutNoiseModel, Statevector,
                               compact_ansatz, direct_ansatz, expectation_exact,
                               expectation_sampled, jw_to_bk_circuit,
                               run_circuit, sampled_estimates)
from blfqvqe.vqe import ENCODINGS


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

    def test_missing_angle(self):
        with pytest.raises(ValueError):
            Gate("Ry", (0,))

    def test_circuit_range_check(self):
        with pytest.raises(ValueError):
            Circuit(2, (Gate.x(2),))


class TestStatevector:
    def test_zero(self):
        s = Statevector.zero(3)
        assert s.n_qubits == 3
        assert s.amplitudes[0] == 1.0 and np.all(s.amplitudes[1:] == 0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Statevector([1.0, 1.0])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Statevector([1.0, 0.0, 0.0])


class TestRunCircuit:
    def test_empty_circuit(self):
        s = Statevector.zero(2)
        out = run_circuit(Circuit(2), s)
        assert np.array_equal(out.amplitudes, s.amplitudes)

    def test_x_flips(self):
        out = run_circuit(Circuit(1, (Gate.x(0),)), Statevector.zero(1))
        assert out.amplitudes[1] == 1.0

    def test_ry_convention(self):
        out = run_circuit(Circuit(1, (Gate.ry(0, np.pi / 3),)), Statevector.zero(1))
        assert out.amplitudes[0] == pytest.approx(np.cos(np.pi / 6))
        assert out.amplitudes[1] == pytest.approx(np.sin(np.pi / 6))

    def test_cnot_and_controls(self):
        # CNOT(c=0, t=1) on |01> -> |11>
        amps = np.zeros(4)
        amps[1] = 1.0
        out = run_circuit(Circuit(2, (Gate.cnot(0, 1),)), Statevector(amps))
        assert out.amplitudes[3] == 1.0
        # CRy acts only when control set
        out = run_circuit(Circuit(2, (Gate.cry(1, 0, 2.0),)), Statevector(amps))
        assert np.array_equal(out.amplitudes, amps)

    def test_norm_preserved_random_circuit(self):
        rng = np.random.default_rng(0)
        gates = []
        for _ in range(40):
            kind = rng.integers(4)
            q = int(rng.integers(3))
            r = int((q + 1 + rng.integers(2)) % 3)
            if kind == 0:
                gates.append(Gate.x(q))
            elif kind == 1:
                gates.append(Gate.ry(q, rng.uniform(-np.pi, np.pi)))
            elif kind == 2:
                gates.append(Gate.cnot(q, r))
            else:
                gates.append(Gate.cry(q, r, rng.uniform(-np.pi, np.pi)))
        out = run_circuit(Circuit(3, gates), Statevector.zero(3))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run_circuit(Circuit(2), Statevector.zero(3))


class TestDirectAnsatz:
    def test_zero_angles_single_station(self):
        out = run_circuit(direct_ansatz(0.0, 0.0, 0.0), Statevector.zero(4))
        assert out.amplitudes[2] == pytest.approx(1.0)

    def test_good_guess(self):
        out = run_circuit(direct_ansatz(3 * np.pi / 2, 0.0, 0.0),
                          Statevector.zero(4))
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
            out = run_circuit(direct_ansatz(*t), Statevector.zero(4)).amplitudes
            worst_leak = max(worst_leak, np.abs(out[off]).max())
            worst_imag = max(worst_imag, np.abs(out.imag).max())
        assert worst_leak < 1e-12
        assert worst_imag < 1e-12

    def test_amplitude_map(self):
        t1, t2, t3 = 0.9, -1.3, 2.2
        out = run_circuit(direct_ansatz(t1, t2, t3), Statevector.zero(4))
        c1, s1 = np.cos(t1 / 2), np.sin(t1 / 2)
        c2, s2 = np.cos(t2 / 2), np.sin(t2 / 2)
        c3, s3 = np.cos(t3 / 2), np.sin(t3 / 2)
        w1 = [out.amplitudes[1 << i].real for i in range(4)]
        assert np.allclose(w1, [c1 * s2, c1 * c2, s1 * c3, s1 * s3], atol=1e-12)

    def test_reaches_ground_vector(self, ground):
        _, v = ground
        out = run_circuit(direct_ansatz(*direct_angles(v)), Statevector.zero(4))
        w1 = np.array([out.amplitudes[1 << i].real for i in range(4)])
        assert np.abs(w1 - v).max() < 1e-12


class TestCompactAnsatz:
    def test_zero_angles(self):
        out = run_circuit(compact_ansatz(0.0, 0.0, 0.0), Statevector.zero(2))
        assert out.amplitudes[0] == pytest.approx(1.0)

    def test_real_amplitudes(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            t = rng.uniform(-2 * np.pi, 2 * np.pi, size=3)
            out = run_circuit(compact_ansatz(*t), Statevector.zero(2)).amplitudes
            assert np.abs(out.imag).max() < 1e-12

    def test_prepares_printed_ground_vector(self):
        target = np.array([0.34, -0.62, 0.62, 0.34])  # unit norm as printed
        t1, t2, t3 = compact_angles(target)
        out = run_circuit(compact_ansatz(t1, t2, t3), Statevector.zero(2))
        assert np.abs(out.amplitudes.real - target).max() < 1e-6

    def test_good_guess(self):
        out = run_circuit(compact_ansatz(0.0, np.pi / 2, -np.pi),
                          Statevector.zero(2))
        assert np.allclose(out.amplitudes.real,
                           [0.0, -1 / np.sqrt(2), 1 / np.sqrt(2), 0.0], atol=1e-12)


class TestJwToBkCircuit:
    def test_vacuum_fixed(self):
        out = run_circuit(jw_to_bk_circuit(), Statevector.zero(4))
        assert out.amplitudes[0] == 1.0

    def test_all_basis_states_follow_encoder(self):
        P = bk_encoder(4)
        circ = jw_to_bk_circuit()
        for f in range(16):
            amps = np.zeros(16)
            amps[f] = 1.0
            out = run_circuit(circ, Statevector(amps)).amplitudes
            enc = P.encode([(f >> q) & 1 for q in range(4)])
            target = sum(int(b) << q for q, b in enumerate(enc))
            assert out[target] == pytest.approx(1.0)

    def test_self_inverse_reversed(self):
        circ = jw_to_bk_circuit()
        rev = Circuit(4, tuple(reversed(circ.gates)))
        rng = np.random.default_rng(4)
        amps = rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        out = run_circuit(rev, run_circuit(circ, Statevector(amps)))
        assert np.abs(out.amplitudes - amps).max() < 1e-12

    def test_one_excitations_land_on_bk_readout(self):
        # the bk encoding reads its coefficients off these images
        readout = ENCODINGS["bk"].readout
        for i in range(4):
            out = run_circuit(jw_to_bk_circuit(),
                              Statevector(np.eye(16)[1 << i])).amplitudes
            assert out[readout[i]] == 1.0 and np.abs(out).sum() == 1.0


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
        state = run_circuit(compact_ansatz(*compact_angles(v)), Statevector.zero(2))
        e = expectation_exact(state, embed_compact(hmat))
        assert e == pytest.approx(e0, rel=1e-10)
        assert e == pytest.approx(19488.0, rel=1e-3)

    def test_ground_energy_direct(self, hmat, ground):
        e0, v = ground
        state = run_circuit(direct_ansatz(*direct_angles(v)), Statevector.zero(4))
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
        state = run_circuit(compact_ansatz(*compact_angles(v)), Statevector.zero(2))
        s = embed_compact(hmat)
        est, se = expectation_sampled(state, s, shots_per_term=1_000_000, seed=123)
        assert abs(est - e0) < 3 * se

    def test_unbiased_mean(self, hmat, ground):
        e0, v = ground
        state = run_circuit(compact_ansatz(*compact_angles(v)), Statevector.zero(2))
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
        state = run_circuit(compact_ansatz(*compact_angles(v)), Statevector.zero(2))
        s = embed_compact(hmat)
        a = expectation_sampled(state, s, 512, seed=9)
        b = expectation_sampled(state, s, 512, seed=9)
        c = expectation_sampled(state, s, 512, seed=10)
        assert a == b
        assert a != c

    def test_rejects_zero_shots(self, hmat):
        with pytest.raises(ValueError):
            expectation_sampled(Statevector.zero(2), embed_compact(hmat), 0, seed=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation_sampled(Statevector.zero(3), PauliSum([("ZZ", 1.0)]),
                                64, seed=0)

    def test_std_error_is_the_sample_spread(self):
        # one +-1 outcome per shot: the sample variance is 1 - mean^2
        state = run_circuit(Circuit(1, (Gate.ry(0, 1.1),)), Statevector.zero(1))
        shots = 1000
        est, se = expectation_sampled(state, PauliSum([("Z", 2.5)]), shots,
                                      seed=4)
        mean = est / 2.5
        assert abs(mean) < 1.0
        assert se == pytest.approx(2.5 * np.sqrt((1.0 - mean**2) / shots),
                                   rel=1e-12)


class TestSampledEstimates:
    @pytest.mark.parametrize("encoding", ["direct", "compact"])
    def test_one_repeat_is_expectation_sampled(self, hmat, ground, encoding):
        _, v = ground
        if encoding == "direct":
            state = run_circuit(direct_ansatz(*direct_angles(v)),
                                Statevector.zero(4))
            s = embed_direct(hmat)
        else:
            state = run_circuit(compact_ansatz(*compact_angles(v)),
                                Statevector.zero(2))
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
        state = run_circuit(compact_ansatz(*compact_angles(v)), Statevector.zero(2))
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

    def test_rejects_zero_repeats(self, hmat):
        with pytest.raises(ValueError):
            sampled_estimates(Statevector.zero(2), embed_compact(hmat), 64,
                              seed=0, repeats=0)


class TestReadoutMitigation:
    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            ReadoutNoiseModel(-0.1, 0.0)
        with pytest.raises(ValueError):
            ReadoutNoiseModel(0.0, 1.0)

    def test_zero_noise_identity(self, hmat, ground):
        # without flips, mitigation leaves the draws and estimates unchanged
        _, v = ground
        state = run_circuit(compact_ansatz(*compact_angles(v)), Statevector.zero(2))
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
        state = run_circuit(compact_ansatz(*compact_angles(v)), Statevector.zero(2))
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


class TestTermOrder:
    @pytest.mark.parametrize("mode", ["sampled", "noisy", "mitigated"])
    def test_reversed_sum_is_bit_identical(self, hmat, ground, mode):
        # rows are drawn in axes order, so the order a sum lists its
        # terms in does not reach the draws
        _, v = ground
        state = run_circuit(direct_ansatz(*direct_angles(v)), Statevector.zero(4))
        s = embed_direct(hmat)
        flipped = PauliSum(reversed(s.terms))
        assert [t.axes for t in flipped] == [t.axes for t in s][::-1]
        noise = None if mode == "sampled" else ReadoutNoiseModel(0.03, 0.05)
        options = {"noise": noise, "mitigate": mode == "mitigated"}
        assert (expectation_sampled(state, s, 512, 17, **options)
                == expectation_sampled(state, flipped, 512, 17, **options))

