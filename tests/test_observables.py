"""Observable values frozen against independent quadrature routes."""
import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import eval_genlaguerre, gammaln, roots_legendre

from blfqvqe.basisfuncs import (BasisCutoffs, ModelParameters,
                                UnsupportedCutoffError, WaveFunction, chi,
                                compute_exponents, enumerate_block)
from blfqvqe import observables
from blfqvqe.hamiltonian import build_effective_hamiltonian, diagonalize
from blfqvqe.observables import (E_ANTIQUARK, E_QUARK, HBARC, FormFactorCurve,
                                 PdfDensity, charge_radius, decay_constant,
                                 decay_projector, decay_spec, default_q2_grid,
                                 elastic_form_factor, form_factor_matrix,
                                 mass_radius, mass_radius_matrix, pdf,
                                 tm_coefficient)
from blfqvqe.pauli import embed_compact, pauli_sum_to_matrix
from blfqvqe.simulator import Statevector, expectation_exact
from blfqvqe.vqe import ENCODINGS, lookup_encoding, vqe_run
from oracles import tm_coefficient_projection

PARAMS = ModelParameters()
EXPS = compute_exponents(PARAMS)
BLOCK = enumerate_block(0, BasisCutoffs())
B2 = PARAMS.b**2


def untabulated_blocks():
    """Four-state blocks enumerate_block does not build: at n = 1, at l = 1
    and in reverse theta order."""
    return [[replace(s, n=1) for s in BLOCK], [replace(s, l=1) for s in BLOCK],
            BLOCK[::-1]]


@pytest.fixture(scope="module")
def psi():
    sol = diagonalize(build_effective_hamiltonian(PARAMS))
    return WaveFunction(sol.eigenvectors[:, 0], BLOCK)


@pytest.fixture(scope="module")
def curve(psi):
    return elastic_form_factor(psi, PARAMS)


class TestDecayConstant:
    def test_prefactor_value(self):
        spec = decay_spec(PARAMS)
        assert spec.prefactor == pytest.approx(61.569799249074926, rel=1e-10)
        assert spec.prefactor == pytest.approx(61.6, rel=0.02)

    def test_reference_vector(self):
        v = np.asarray(decay_spec(PARAMS).reference_vector)
        assert np.allclose(v, [0, 1, -1, 0] / np.sqrt(2.0))

    @pytest.mark.parametrize("field, value, refusal", [
        ("reference_vector", (np.nan,) * 4,
         "reference vector must be a unit vector"),
        ("prefactor", np.nan, "prefactor must be positive")])
    def test_spec_refuses_nan(self, field, value, refusal):
        # nan fails every comparison, so each check must fail on it
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            replace(decay_spec(PARAMS), **{field: value})

    def test_ground_state_value(self, psi):
        f = decay_constant(psi, PARAMS, EXPS)
        assert f == pytest.approx(54.064409356104036, rel=1e-10)

    def test_sum_equals_projection(self, psi):
        spec = decay_spec(PARAMS)
        f_sum = decay_constant(psi, PARAMS, EXPS)
        f_proj = spec.prefactor * abs(np.dot(spec.reference_vector,
                                             psi.coefficients))
        assert abs(abs(f_sum) - f_proj) < 1e-10

    def test_routes_agree_on_random_states(self):
        rng = np.random.default_rng(5)
        spec = decay_spec(PARAMS)
        for _ in range(20):
            c = rng.normal(size=4)
            c /= np.linalg.norm(c)
            w = WaveFunction(c, BLOCK)
            f_sum = abs(decay_constant(w, PARAMS, EXPS))
            f_proj = spec.prefactor * abs(np.dot(spec.reference_vector, c))
            assert abs(f_sum - f_proj) < 1e-10

    def test_symmetric_spin_component_vanishes(self):
        c = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
        assert abs(decay_constant(WaveFunction(c, BLOCK), PARAMS, EXPS)) < 1e-12

    def test_projector_matches_outer_product(self):
        spec = decay_spec(PARAMS)
        v = np.asarray(spec.reference_vector)
        mat = pauli_sum_to_matrix(decay_projector("compact")).entries
        assert np.abs(mat - np.outer(v, v)).max() < 1e-12

    def test_projector_direct_expectation(self, psi):
        spec = decay_spec(PARAMS)
        amps = np.zeros(16, dtype=complex)
        for i, c in enumerate(psi.coefficients):
            amps[1 << i] = c
        state = Statevector(amps)
        p = expectation_exact(state, decay_projector("direct"))
        f_qubit = spec.prefactor * np.sqrt(max(p, 0.0))
        f_sum = abs(decay_constant(psi, PARAMS, EXPS))
        assert abs(f_qubit - f_sum) < 1e-8

    def test_unknown_encoding(self):
        with pytest.raises(ValueError):
            decay_projector("gray")


class TestMassRadius:
    def test_diagonal_fm2(self):
        mrm = mass_radius_matrix(BLOCK, PARAMS)
        diag = np.diag(mrm.fm2)
        exact = 1.5 / B2 * HBARC**2 * np.array([2, 1, 1, 2])
        assert np.abs(diag - exact).max() < 1e-9
        assert diag[0] == pytest.approx(2.267, rel=0.01)
        assert diag[1] == pytest.approx(1.134, rel=0.01)

    def test_ratios_two_one_one_two(self):
        diag = np.diag(mass_radius_matrix(BLOCK, PARAMS).fm2)
        assert np.allclose(diag / diag[1], [2, 1, 1, 2], rtol=1e-12)

    def test_off_diagonal_zero_in_default_block(self):
        m = mass_radius_matrix(BLOCK, PARAMS).mev2.entries
        assert np.abs(m - np.diag(np.diag(m))).max() == 0.0

    def test_ground_state_radius(self, psi):
        r2, r = mass_radius(psi, PARAMS)
        assert r2 == pytest.approx(1.3929762287834695, rel=1e-10)
        assert r == pytest.approx(np.sqrt(r2), rel=1e-12)

    def test_compact_pauli_expansion(self):
        expansion = lookup_encoding("compact").embed(
            mass_radius_matrix(BLOCK, PARAMS).fm2)
        d = expansion.as_dict()
        assert set(d) == {"II", "ZZ"}
        assert d["II"] == pytest.approx(1.700, abs=1e-3)
        assert d["ZZ"] == pytest.approx(0.567, abs=1e-3)
        assert d["II"] / d["ZZ"] == pytest.approx(3.0, rel=1e-12)


class TestPdf:
    def test_density_is_unit_for_default_block(self, psi):
        den = pdf(psi, np.linspace(0.05, 0.95, 19), EXPS)
        assert den.rho == pytest.approx(1.0, abs=1e-12)

    def test_normalization(self, psi):
        den = pdf(psi, np.linspace(0.05, 0.95, 19), EXPS)
        assert den.normalization() == pytest.approx(1.0, abs=1e-6)

    def test_values_match_chi_squared(self, psi):
        x = np.linspace(0.01, 0.99, 99)
        den = pdf(psi, x, EXPS)
        expect = chi(x, EXPS.alpha, EXPS.beta) ** 2 / (4.0 * np.pi)
        assert np.abs(den.values - expect).max() < 1e-12
        assert np.min(den.values) >= 0.0

    def test_printed_form_ratio(self, psi):
        # the rounded closed form overshoots the exact density by ~2.3%
        x = np.array([0.3, 0.5, 0.7])
        den = pdf(psi, x, EXPS)
        printed = (2986.0 * x**4.4 * (1.0 - x) ** 4.4) ** 2
        ratio = 4.0 * np.pi * den.values / printed
        assert ratio[1] == pytest.approx(0.9774, abs=2e-3)
        assert np.all(ratio < 0.98)

    def test_matches_unrounded_closed_form(self, psi):
        # chi_0^2 / 4 pi = x^beta (1-x)^alpha / B(alpha+1, beta+1)
        x = np.array([0.05, 0.2, 0.3, 0.5, 0.7, 0.8, 0.95])
        den = pdf(psi, x, EXPS)
        a, b = EXPS.alpha, EXPS.beta
        closed_form = x**b * (1.0 - x) ** a / beta_fn(a + 1.0, b + 1.0)
        np.testing.assert_allclose(den.values, closed_form, rtol=1e-12, atol=0)

    def test_validation(self):
        good = dict(values=np.array([0.1]), alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            PdfDensity(rho=1.5, **good)
        for bad in (-0.1, np.nan):
            with pytest.raises(ValueError):
                PdfDensity(rho=1.0, values=np.array([bad]), alpha=1.0,
                           beta=1.0)

    @pytest.mark.parametrize("name", ["rho", "alpha", "beta"])
    def test_nan_is_refused(self, name):
        # a nan norm once passed, and normalization() returned nan
        record = dict(rho=1.0, values=np.array([0.1]), alpha=1.0, beta=1.0)
        with pytest.raises(ValueError, match=f"^{name} must be finite, "
                                             f"got nan$"):
            PdfDensity(**{**record, name: np.nan})


class TestLaguerre:
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_recurrence_matches_scipy(self, n, a):
        x = np.linspace(0.0, 50.0, 2001)
        ours = observables._laguerre(n, a, x)
        ref = eval_genlaguerre(n, a, x)
        # relative where |L| >= 1; near a root both routes round the same
        # O(1) terms, so the error there is absolute
        assert np.max(np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))) < 1e-14
        if n <= 1:  # the degrees the form factor reads keep scipy's bits
            assert np.array_equal(ours, ref)


class TestTmCoefficient:
    def test_ground_coefficient_is_one(self):
        assert tm_coefficient(0, 0, 0, 0, 0, 0, 0, 0) == 1.0

    def test_angular_selection_rule_exact_zero(self):
        assert tm_coefficient(0, 0, 0, 0, 0, 1, 0, 0) == 0.0
        assert tm_coefficient(0, 1, 0, 1, 0, 1, 0, 0) == 0.0

    def test_energy_selection_rule_exact_zero(self):
        assert tm_coefficient(0, 0, 0, 0, 1, 0, 1, 0) == 0.0
        assert tm_coefficient(0, 1, 0, 1, 0, 0, 0, 0) == 0.0

    def test_m_one_values(self):
        assert tm_coefficient(0, 1, 0, 1, 0, 0, 1, 0) == 0.5
        assert tm_coefficient(0, 1, 0, 1, 1, 0, 0, 0) == -0.5

    def test_form_factor_terms_are_exact(self):
        assert observables._tm_terms(1) == ((0, 1, 0.5), (1, 0, -0.5))
        assert observables._tm_terms(-1) == ((0, 1, 0.5), (1, 0, -0.5))
        assert observables._tm_terms(0) == ((0, 0, 1.0),)

    def test_matches_gauss_hermite_projection(self):
        # every set the guards accept with N, nbar <= 2 and |M|, |mbar| <= 4:
        # the selection-allowed ones against the oracle, the rest exact zeros
        allowed = 0
        for m_prime, m, big_n, big_m, n_bar, m_bar in itertools.product(
                range(-2, 3), range(-2, 3), range(3), range(-4, 5), range(3),
                range(-4, 5)):
            c = tm_coefficient(0, m_prime, 0, m, big_n, big_m, n_bar, m_bar)
            if (big_m + m_bar == m - m_prime and 2 * big_n + abs(big_m)
                    + 2 * n_bar + abs(m_bar) == abs(m_prime) + abs(m)):
                allowed += 1
                ref = tm_coefficient_projection(0, m_prime, 0, m, big_n,
                                                big_m, n_bar, m_bar)
                assert abs(c - ref) < 1e-14, (m_prime, m, big_n, big_m,
                                              n_bar, m_bar)
            else:
                assert c == 0.0
        assert allowed == 103

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_completeness(self, m):
        # the bilinear (0,m)x(0,m) resolves fully onto the c.m./relative set
        energy = 2 * abs(m)
        total = 0.0
        for big_n in range(energy // 2 + 1):
            for big_m in range(-energy, energy + 1):
                for n_bar in range(energy // 2 + 1):
                    m_bar = -big_m
                    if 2 * big_n + abs(big_m) + 2 * n_bar + abs(m_bar) != energy:
                        continue
                    total += tm_coefficient(0, m, 0, m, big_n, big_m,
                                            n_bar, m_bar) ** 2
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_out_of_scope_errors(self):
        with pytest.raises(ValueError):
            tm_coefficient(1, 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            tm_coefficient(0, 3, 0, 3, 0, 0, 3, 0)
        with pytest.raises(ValueError):
            tm_coefficient(0, 0, 0, 0, -1, 0, 0, 0)

    @pytest.mark.parametrize("bad", [0.5, 1.0])
    def test_non_integer_quantum_number_raises(self, bad):
        with pytest.raises(ValueError, match="must be integers"):
            tm_coefficient(0, bad, 0, 1, 0, 0, 1, 0)


def transverse_ctilde(m, q2):
    """Independent pre-separation route: 2D shifted-mode overlap quadrature."""
    b = PARAMS.b
    t, w = np.polynomial.hermite.hermgauss(24)
    ux = b * t[:, None]
    uy = b * t[None, :]
    weight = w[:, None] * w[None, :] * np.exp((ux**2 + uy**2) / b**2)

    def mode(qx, qy):
        qq = (qx**2 + qy**2) / b**2
        norm = np.exp(0.5 * (np.log(4 * np.pi) + gammaln(1) - gammaln(abs(m) + 1)))
        return (norm / b * np.sqrt(qq) ** abs(m) * np.exp(-qq / 2.0)
                * eval_genlaguerre(0, abs(m), qq)
                * np.exp(1j * m * np.arctan2(qy, qx)))

    nodes, gl_w = roots_legendre(128)
    nodes = 0.5 * (nodes + 1.0)
    gl_w = 0.5 * gl_w
    q = np.sqrt(q2)
    total = 0.0
    for x, wx in zip(nodes, gl_w):
        sq = 0.5 * q * np.sqrt((1.0 - x) / x)
        sqb = 0.5 * q * np.sqrt(x / (1.0 - x))
        fq = np.conj(mode(ux + sq, uy)) * mode(ux - sq, uy)
        fqb = np.conj(mode(ux + sqb, uy)) * mode(ux - sqb, uy)
        val = float(np.sum(weight * (E_QUARK * fq - E_ANTIQUARK * fqb)).real)
        val *= b**2 / (2.0 * np.pi) ** 2
        total += wx * chi(x, EXPS.alpha, EXPS.beta) ** 2 / (4.0 * np.pi) * val
    return total


class TestFormFactorMatrix:
    def test_charge_normalization_at_origin(self):
        mat = form_factor_matrix(0.0, PARAMS, EXPS, BLOCK).entries
        assert np.abs(mat - np.eye(4)).max() < 1e-10

    def test_frozen_diagonal_values(self):
        for q2, c0, c1 in [(B2, 0.763676379232, 0.564005106674),
                           (10 * B2, 0.109991853477, -0.090907248218),
                           (100 * B2, 1.7800450e-5, -8.9955819e-5)]:
            mat = form_factor_matrix(q2, PARAMS, EXPS, BLOCK).entries
            assert mat[1, 1] == pytest.approx(c0, abs=1e-9)
            assert mat[2, 2] == pytest.approx(c0, abs=1e-9)
            assert mat[0, 0] == pytest.approx(c1, abs=1e-9)
            assert mat[3, 3] == pytest.approx(c1, abs=1e-9)

    def test_diagonal_in_default_block(self):
        mat = form_factor_matrix(B2, PARAMS, EXPS, BLOCK).entries
        assert np.abs(mat - np.diag(np.diag(mat))).max() == 0.0

    @pytest.mark.parametrize("q2", [0.0, B2, 10 * B2, 100 * B2])
    @pytest.mark.parametrize("m", [0, 1, -1])
    def test_matches_transverse_quadrature(self, q2, m):
        theta = {0: 1, 1: 3, -1: 0}[m]
        mat = form_factor_matrix(q2, PARAMS, EXPS, BLOCK).entries
        assert abs(mat[theta, theta] - transverse_ctilde(m, q2)) < 1e-6

    def test_rejects_negative_q2(self):
        with pytest.raises(ValueError):
            form_factor_matrix(-1.0, PARAMS, EXPS, BLOCK)

    def test_rejects_radial_excitations(self):
        # the wave function and both operators refuse every block but the
        # tabulated one, radial, longitudinal or reordered
        c = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        for block in untabulated_blocks():
            with pytest.raises(UnsupportedCutoffError):
                WaveFunction(c, block)
            with pytest.raises(UnsupportedCutoffError):
                mass_radius_matrix(block, PARAMS)
            with pytest.raises(UnsupportedCutoffError):
                form_factor_matrix(0.0, PARAMS, EXPS, block)


class TestElasticFormFactor:
    def test_default_grid(self):
        grid = default_q2_grid(PARAMS)
        assert len(grid) >= 50
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(5152900.0)
        assert B2 / 200.0 in grid and B2 / 100.0 in grid

    def test_unit_charge_at_origin(self, curve):
        assert curve.values[0] == pytest.approx(1.0, abs=1e-9)

    def test_bounded_by_one(self, curve):
        assert np.abs(curve.values).max() <= 1.0 + 1e-9

    def test_decreasing_while_positive(self, curve):
        vals = np.asarray(curve.values)
        positive = vals > 0
        assert np.all(np.diff(vals[positive]) < 0)

    def test_small_negative_tail(self, curve):
        # F crosses zero once near Q^2 ~ 2.4e6 and stays tiny beyond
        vals = np.asarray(curve.values)
        q2 = np.asarray(curve.q2)
        crossings = np.sum(np.diff(np.sign(vals[vals != 0])) != 0)
        assert crossings == 1
        assert q2[vals < 0].min() > 2e6
        assert np.abs(vals[vals < 0]).max() < 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            FormFactorCurve(q2=(0.0, 1.0), values=(1.0, 0.5))
        with pytest.raises(ValueError):
            FormFactorCurve(q2=(0.0, 1.0, 2.0), values=(0.9, 0.5, 0.1))
        with pytest.raises(ValueError):
            FormFactorCurve(q2=(0.0, 2.0, 1.0), values=(1.0, 0.5, 0.1))
        for bad in (1.2, np.nan):
            with pytest.raises(ValueError):
                FormFactorCurve(q2=(0.0, 1.0, 2.0), values=(1.0, bad, 0.1))

    @pytest.mark.parametrize("q2", [(0.0, 1.0, 2.0, np.nan),
                                    (np.nan, 1.0, 2.0, 4.0),
                                    (0.0, 1.0, 2.0, np.inf)],
                             ids=["nan-last", "nan-first", "inf"])
    def test_a_grid_point_that_is_not_finite_is_refused(self, q2):
        # a nan Q^2 once passed, and charge_radius read a radius off it
        with pytest.raises(ValueError, match="^grid must be finite, "
                                             "non-negative and increasing$"):
            FormFactorCurve(q2=q2, values=(1.0, 0.9, 0.8, 0.7))

    def test_one_pass_matches_pointwise_matrices(self, psi, curve):
        rng = np.random.default_rng(11)
        states = [psi.coefficients] + [v / np.linalg.norm(v)
                                       for v in rng.normal(size=(3, 4))]
        grid = default_q2_grid(PARAMS)
        mats = [form_factor_matrix(q2, PARAMS, EXPS, BLOCK).entries
                for q2 in grid]
        for c in states:
            got = (curve if c is psi.coefficients
                   else elastic_form_factor(WaveFunction(c, BLOCK), PARAMS))
            assert got.q2 == tuple(float(q) for q in grid)
            assert got.values == tuple(float(c @ m @ c) for m in mats)

    def test_each_relative_mode_bracket_once(self, psi, monkeypatch):
        # the block's modes nbar = 0 and 1, each at 128 and 96 nodes
        calls = []
        bracket = observables._charge_bracket

        def counted(n_bar, *args):
            calls.append(n_bar)
            return bracket(n_bar, *args)

        monkeypatch.setattr(observables, "_charge_bracket", counted)
        elastic_form_factor(psi, PARAMS)
        assert sorted(calls) == [0, 0, 1, 1]

    def test_unconverged_quadrature_names_q2(self, psi, monkeypatch):
        rule = observables.gauss_legendre
        monkeypatch.setattr(observables, "gauss_legendre",
                            lambda n: rule(8 if n == 96 else n))
        with pytest.raises(RuntimeError, match=r"not converged at Q\^2 = \d"):
            elastic_form_factor(psi, PARAMS)

    def test_sampled_state_curve_close_to_exact(self, psi, curve):
        h = build_effective_hamiltonian(PARAMS)
        res = vqe_run(embed_compact(h.entries), "compact",
                      mode="sampled", shots=8192, seed=7)
        coeffs = ENCODINGS["compact"].coefficients(res.theta)
        sampled = elastic_form_factor(WaveFunction(coeffs, BLOCK), PARAMS)
        diff = np.abs(np.asarray(sampled.values) - np.asarray(curve.values))
        assert diff.max() < 0.01


class TestChargeRadius:
    def test_ground_state_value(self, curve):
        rc = charge_radius(curve)
        assert rc == pytest.approx(6.311249038419302e-3, rel=1e-9)
        assert rc == pytest.approx(6.31e-3, rel=0.01)
        assert rc * HBARC == pytest.approx(1.2454, abs=1e-3)

    def test_flat_curve_gives_zero(self):
        h = B2 / 100.0
        flat = FormFactorCurve(q2=(0.0, h / 2.0, h), values=(1.0, 1.0, 1.0))
        assert charge_radius(flat) == 0.0

    def test_requires_origin(self):
        with pytest.raises(ValueError):
            charge_radius(FormFactorCurve(q2=(1.0, 2.0, 4.0),
                                          values=(0.9, 0.8, 0.7)))

    def test_requires_stencil_ratio(self):
        with pytest.raises(ValueError):
            charge_radius(FormFactorCurve(q2=(0.0, 1.0, 3.0),
                                          values=(1.0, 0.9, 0.8)))

    def test_rejects_rising_curve(self):
        vals = (1.0 - 5e-7, 1.0 - 1e-9, 1.0)
        with pytest.raises(ValueError):
            charge_radius(FormFactorCurve(q2=(0.0, 1.0, 2.0), values=vals))
