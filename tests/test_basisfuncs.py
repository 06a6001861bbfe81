import itertools
import re
from dataclasses import fields

import numpy as np
import pytest
import scipy.special
from scipy.special import j0, roots_legendre

from blfqvqe.basisfuncs import (BasisCutoffs, ModelParameters,
                                UnsupportedCutoffError, WaveFunction, chi,
                                compute_exponents, enumerate_block, gammaln,
                                gauss_legendre, longitudinal_integral)
from oracles import longitudinal_integral_quadrature

PARAMS = ModelParameters()
EXP = compute_exponents(PARAMS)
AL, BE = EXP.alpha, EXP.beta


class TestModelParameters:
    def test_defaults(self):
        assert PARAMS.m == PARAMS.mbar == 337.01
        assert PARAMS.kappa == 227.00
        assert PARAMS.b == 227.00  # defaults to kappa
        # the five model settings, and nothing else, are the record's fields
        assert [f.name for f in fields(PARAMS)] == ["m", "mbar", "kappa", "b",
                                                    "g_pi"]
        assert PARAMS.g_pi == pytest.approx(250.785e-6)

    def test_b_override(self):
        p = ModelParameters(b=300.0)
        assert p.b == 300.0 and p.kappa == 227.00

    def test_positivity(self):
        with pytest.raises(ValueError):
            ModelParameters(m=-1.0)

    @pytest.mark.parametrize("name, value", [
        ("g_pi", np.nan), ("m", np.inf), ("mbar", -np.inf),
        ("kappa", np.nan), ("b", np.inf)])
    def test_refuses_non_finite_constants(self, name, value):
        # the record refuses its own bad values, so a library caller gets
        # the refusal the CLI prints
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            ModelParameters(**{name: value})

    @pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "np.bool"])
    @pytest.mark.parametrize("name", ["m", "mbar", "kappa", "b", "g_pi"])
    def test_refuses_booleans(self, name, value):
        # a boolean reads as 1 in arithmetic, so m = True would build a
        # model with m = 1 MeV
        with pytest.raises(ValueError, match=f"^{name} must be a number, "
                                             f"not a boolean, got "
                                             f"{re.escape(repr(value))}$"):
            ModelParameters(**{name: value})


class TestExponents:
    def test_symmetric_masses(self):
        assert AL == BE

    def test_table_point(self):
        # 2 * 337.01 * 674.02 / 227^2
        assert AL == pytest.approx(8.81645210269945, rel=1e-14)
        assert AL == pytest.approx(8.817, abs=1e-3)

    def test_weak_confinement_limit(self):
        e = compute_exponents(ModelParameters(kappa=1e8, b=227.0))
        assert e.alpha < 1e-9 and e.beta < 1e-9

    def test_asymmetric(self):
        e = compute_exponents(ModelParameters(m=300.0, mbar=400.0))
        assert e.alpha == pytest.approx(2 * 400 * 700 / 227**2)
        assert e.beta == pytest.approx(2 * 300 * 700 / 227**2)


class TestLongitudinalIntegral:
    def test_flat_weight_seed(self):
        # chi(x; 0, 0) = sqrt(4 pi), so L(0,0;0,0) = 1/(2 sqrt(pi))
        assert longitudinal_integral(0, 0, 0.0, 0.0) == pytest.approx(
            1 / (2 * np.sqrt(np.pi)), rel=1e-14)

    def test_frozen_model_values(self):
        frozen = {
            (0.0, 0.0): 0.205536294525,
            (0.5, 0.5): 0.098132123303,
            (-0.5, 0.5): 0.216257645907,
            (0.5, -0.5): 0.216257645907,
            (-0.5, -0.5): 0.432515291813,
            (0.5, 1.5): 0.049066061651,
            (-0.5, 1.5): 0.118125522604,
            (1.0, 0.0): 0.102768147262,
            (0.0, 1.0): 0.102768147262,
            (1.0, 1.0): 0.047035554026,
        }
        for (a, b_exp), want in frozen.items():
            got = longitudinal_integral(a, b_exp, AL, BE)
            assert got == pytest.approx(want, abs=1e-11), (a, b_exp)

    def test_recurrence_matches_quadrature(self):
        for a, b_exp in itertools.product((0.0, 0.5, -0.5, 1.0), repeat=2):
            rec = longitudinal_integral(a, b_exp, AL, BE)
            quad = longitudinal_integral_quadrature(a, b_exp, AL, BE)
            assert rec == pytest.approx(quad, rel=1e-10, abs=1e-13), (a, b_exp)

    def test_gamma_domain_error(self):
        with pytest.raises(ValueError):
            longitudinal_integral(-5.0, 0, 0.0, 0.0)


class TestGammaln:
    # scipy's gammaln is the oracle: the port must reproduce its bits, so
    # that the Hamiltonian stays byte-identical

    def test_bit_equal_on_a_seeded_sample(self):
        x = np.exp(np.random.default_rng(26).uniform(
            np.log(0.01), np.log(2000.0), 220_000))
        ours = np.array([gammaln(v) for v in x.tolist()])
        assert np.array_equal(ours, scipy.special.gammaln(x))

    # 2.5563481e305 lies just past Cephes' overflow threshold, where the
    # asymptotic formula would still be finite
    @pytest.mark.parametrize("x", [
        1e-300, 1e-10, 0.5, 1.0, 2.0, 3.0, 13.0, 1000.0, 1e8, 1e300,
        2.5563481e305, 2.6e305, 0.0, np.inf, np.nan])
    def test_bit_equal_at_edge_values(self, x):
        assert np.array_equal(gammaln(x), scipy.special.gammaln(x),
                              equal_nan=True)

    def test_negative_argument_refused(self):
        with pytest.raises(ValueError, match="x >= 0"):
            gammaln(-0.5)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [96, 128])
    def test_matches_scipy_rule_on_unit_interval(self, n):
        x, w = gauss_legendre(n)
        nodes, weights = roots_legendre(n)
        assert np.max(np.abs(x - 0.5 * (nodes + 1.0))) < 5e-14
        assert np.max(np.abs(w - 0.5 * weights)) < 5e-14

    def test_cached_rule_is_read_only(self):
        x, w = gauss_legendre(96)
        assert gauss_legendre(96)[0] is x
        with pytest.raises(ValueError):
            w[0] = 0.0


class TestChi:
    def test_flat_case_constant(self):
        x = np.linspace(0.05, 0.95, 7)
        assert np.allclose(chi(x, 0.0, 0.0), np.sqrt(4 * np.pi))

    def test_orthonormality(self):
        nodes, weights = roots_legendre(128)
        x = 0.5 * (nodes + 1)
        w = 0.5 * weights
        val = np.sum(w * chi(x, AL, BE) ** 2) / (4 * np.pi)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            chi(0.0, AL, BE)
        with pytest.raises(ValueError):
            chi(np.array([0.5, 1.0]), AL, BE)

    def test_ground_mode_closed_form(self):
        # chi(x)^2 = (2985.8895... * x^4.40823 * (1-x)^4.40823)^2 exactly;
        # the rounded display constants (2986, exponent 4.4) sit 2.26% away
        # at x = 0.5, so only the exact form is pinned here.
        pref = 2985.88953443296
        for x in (0.3, 0.5, 0.7):
            exact = chi(x, AL, BE) ** 2
            closed = (pref * x ** (BE / 2) * (1 - x) ** (AL / 2)) ** 2
            assert exact == pytest.approx(closed, rel=1e-10)
        rounded = (2986 * 0.5**4.4 * 0.5**4.4) ** 2
        assert chi(0.5, AL, BE) ** 2 / rounded == pytest.approx(0.9774, abs=2e-3)


class TestEnumeration:
    def test_jz0_default_block(self):
        block = enumerate_block(0, BasisCutoffs())
        assert len(block) == 4
        rows = [(s.theta, s.m, s.s1, s.s2) for s in block]
        assert rows == [(1, -1, 1, 1), (2, 0, 1, -1), (3, 0, -1, 1), (4, 1, -1, -1)]
        assert all(s.j_z == 0 and s.n == 0 and s.l == 0 for s in block)

    def test_unsupported_cutoff(self):
        # only the J_z = 0 block at the default cutoffs is tabulated
        for j_z, cutoffs in [(0, BasisCutoffs(m_max=1)),
                             (0, BasisCutoffs(n_max=1)),
                             (0, BasisCutoffs(l_max=1)),
                             (3, BasisCutoffs()), (4, BasisCutoffs())]:
            with pytest.raises(UnsupportedCutoffError):
                enumerate_block(j_z, cutoffs)


class TestWaveFunction:
    def test_norm_enforced(self):
        block = tuple(enumerate_block(0, BasisCutoffs()))
        WaveFunction(np.array([0.0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0.0]), block)
        with pytest.raises(ValueError):
            WaveFunction(np.array([1.0, 1.0, 0.0, 0.0]), block)
        with pytest.raises(ValueError):
            WaveFunction(np.array([1.0]), block)
