"""Each benchmark check rejects a wrong answer and accepts a right one."""
import json
import math
import os

import numpy as np
import pytest

import checks
import reference
import run
from spans import Tracer

E0 = 19476.1263


def rejects(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


def test_ground_energy():
    checks.ground_energy(E0 * (1 + 1e-4), E0)
    rejects(checks.ground_energy, E0 * (1 + 1e-3), E0)


def test_variational_bound():
    checks.variational_bound(E0, E0)
    rejects(checks.variational_bound, E0 - 1.0, E0)


def test_matches_dense():
    checks.matches_dense(E0, E0 * (1 + 1e-12))
    rejects(checks.matches_dense, E0, E0 + 1e-3)


def test_scaling_exponent():
    checks.scaling_exponent(2.0)
    rejects(checks.scaling_exponent, 1.0)
    rejects(checks.scaling_exponent, 2.5)


def test_prefactor_order():
    checks.prefactor_order(75.0, 500.0)
    rejects(checks.prefactor_order, 500.0, 75.0)


def test_rms_rows():
    v_rel, repeats = 4.0e-3, 244
    rows = [(n, math.sqrt(v_rel / n)) for n in (8, 64, 512)]
    checks.rms_rows(rows, v_rel, repeats)
    rejects(checks.rms_rows, rows[:2] + [(512, 2 * rows[2][1])], v_rel, repeats)


def test_within_sigmas():
    checks.within_sigmas(100.0 + 4.0, 100.0, 1.0, "sampled")
    rejects(checks.within_sigmas, 100.0 + 6.0, 100.0, 1.0, "sampled")


def test_exit_code():
    checks.exit_code(["vqe"], 0)
    rejects(checks.exit_code, ["observables"], 4)


def test_strict_json_rejects_nan_and_infinity():
    assert checks.strict_json('{"m_pi": 139.6}') == {"m_pi": 139.6}
    rejects(checks.strict_json, '{"m_pi": NaN}')
    rejects(checks.strict_json, '{"m_pi": Infinity}')
    rejects(checks.strict_json, '{"m_pi": ')


def test_spectrum():
    matrix = [[2.0, 1.0], [1.0, 2.0]]
    checks.spectrum(matrix, [1.0, 3.0])
    rejects(checks.spectrum, matrix, [2.0, 2.0])


def test_form_factor():
    q2 = np.arange(6.0)
    checks.form_factor(q2, [1.0, 0.6, 0.2, -1e-5, -2e-5, -1e-5])
    rejects(checks.form_factor, q2, [0.9, 0.6, 0.2, 0.1, 0.05, 0.0])
    rejects(checks.form_factor, q2, [1.0, 1.2, 0.2, 0.1, 0.05, 0.0])
    rejects(checks.form_factor, q2, [1.0, 0.6, 0.7, 0.1, 0.05, 0.0])


def test_pdf_normalization():
    x = np.linspace(0.0, 1.0, 401)
    f = 30.0 * x**2 * (1 - x) ** 2
    checks.pdf_normalization(x, f)
    rejects(checks.pdf_normalization, x, 2 * f)


def test_published_values():
    checks.published_values(19476.1, 6.30e-3)
    rejects(checks.published_values, 19488.0 * 1.01, 6.31e-3)
    rejects(checks.published_values, 19488.0, 6.31e-3 * 1.02)


def test_read_csv_skips_the_header():
    rows = checks.read_csv("x[dimensionless],f\n0.5,1.25\n1,2\n")
    assert rows.tolist() == [[0.5, 1.25], [1.0, 2.0]]


def test_reference_qubit_order():
    # qubit 0 is the rightmost letter and the least-significant bit
    assert np.allclose(np.diag(reference.pauli_matrix("ZI")), [1, 1, -1, -1])
    assert np.allclose(np.diag(reference.pauli_matrix("IZ")), [1, -1, 1, -1])


@pytest.mark.parametrize("encoding, theta, support", [
    ("compact", (0.0, 0.5 * np.pi, -np.pi), (1, 2)),
    ("direct", (1.5 * np.pi, 0.0, 0.0), (2, 4)),
])
def test_reference_good_guess_state(encoding, theta, support):
    # the good-guess angles prepare (0, -1/sqrt2, +1/sqrt2, 0) up to sign
    psi = reference.ansatz_state(encoding, theta)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert np.abs(psi[list(support)]) == pytest.approx([2**-0.5] * 2)
    assert psi[support[0]] * psi[support[1]] == pytest.approx(-0.5)


def test_sampled_moments_noise_shrinks_and_mitigation_restores():
    psi = reference.ansatz_state("compact", (0.3, 1.1, -0.4))
    terms = [("II", 5.0), ("ZZ", 2.0), ("XI", -1.0)]
    exact = reference.expectation(psi, reference.sum_matrix(terms, 2))
    mean, se = reference.sampled_moments(psi, terms, 100)
    assert mean == pytest.approx(exact)
    raw, raw_se = reference.sampled_moments(psi, terms, 100, p=0.1)
    zz = reference.expectation(psi, reference.pauli_matrix("ZZ")).real
    xi = reference.expectation(psi, reference.pauli_matrix("XI")).real
    assert raw == pytest.approx(5.0 + 2.0 * 0.8**2 * zz - 0.8 * xi)
    mitigated, mit_se = reference.sampled_moments(psi, terms, 100, p=0.1,
                                                  mitigated=True)
    assert mitigated == pytest.approx(exact)
    assert mit_se > raw_se


def test_self_time_subtracts_children():
    tracer = Tracer({})
    tracer.spans = [["outer", 0.0, 10.0, None, 1], ["a", 1.0, 4.0, 0, 1],
                    ["a", 5.0, 7.0, 0, 1], ["b", 2.0, 3.0, 1, 1],
                    ["c", 8.0, 9.0, None, 2]]
    summary = tracer.summary()
    assert summary["outer"] == [1, 10.0, 10.0 - 3.0 - 2.0]
    assert summary["a"] == [2, 5.0, 4.0]
    assert summary["c"] == [1, 1.0, 1.0]


def test_benchmark_json_lists_the_printed_metrics():
    path = os.path.join(os.path.dirname(run.BENCH), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
