import itertools

import numpy as np
import pytest
from scipy.special import j0, roots_legendre

from blfqvqe.basisfuncs import (BasisCutoffs, ModelParameters,
                                UnsupportedCutoffError, WaveFunction, chi,
                                compute_exponents, enumerate_block,
                                longitudinal_integral,
                                longitudinal_integral_quadrature)

PARAMS = ModelParameters()
EXP = compute_exponents(PARAMS)
AL, BE = EXP.alpha, EXP.beta


class TestModelParameters:
    def test_defaults(self):
        assert PARAMS.m == PARAMS.mbar == 337.01
        assert PARAMS.kappa == 227.00
        assert PARAMS.b == 227.00  # defaults to kappa
        assert PARAMS.n_c == 3
        assert PARAMS.g_pi == pytest.approx(250.785e-6)

    def test_b_override(self):
        p = ModelParameters(b=300.0)
        assert p.b == 300.0 and p.kappa == 227.00

    def test_positivity(self):
        with pytest.raises(ValueError):
            ModelParameters(m=-1.0)


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
        # chi_0(x; 0, 0) = sqrt(4 pi), so L_0(0,0;0,0) = 1/(2 sqrt(pi))
        assert longitudinal_integral(0, 0, 0, 0.0, 0.0) == pytest.approx(
            1 / (2 * np.sqrt(np.pi)), rel=1e-14)

    def test_frozen_model_values(self):
        frozen = {
            (0, 0.0, 0.0): 0.205536294525,
            (0, 0.5, 0.5): 0.098132123303,
            (0, -0.5, 0.5): 0.216257645907,
            (0, 0.5, -0.5): 0.216257645907,
            (0, -0.5, -0.5): 0.432515291813,
            (0, 0.5, 1.5): 0.049066061651,
            (0, -0.5, 1.5): 0.118125522604,
            (0, 1.0, 0.0): 0.102768147262,
            (0, 0.0, 1.0): 0.102768147262,
            (0, 1.0, 1.0): 0.047035554026,
            (2, 0.5, 0.5): 0.045437655977,
            (3, 0.0, 1.0): 0.034582795008,
        }
        for (l, a, b_exp), want in frozen.items():
            got = longitudinal_integral(l, a, b_exp, AL, BE)
            assert got == pytest.approx(want, abs=1e-11), (l, a, b_exp)

    def test_l1_orthogonality_zero(self):
        # chi_1 is orthogonal to the bare weight at a = b = 0
        assert abs(longitudinal_integral(1, 0, 0, AL, BE)) < 1e-15

    def test_recurrence_matches_quadrature(self):
        for l in range(5):
            for a, b_exp in itertools.product((0.0, 0.5, -0.5, 1.0), repeat=2):
                rec = longitudinal_integral(l, a, b_exp, AL, BE)
                quad = longitudinal_integral_quadrature(l, a, b_exp, AL, BE)
                assert rec == pytest.approx(quad, rel=1e-10, abs=1e-13), (l, a, b_exp)

    def test_gamma_domain_error(self):
        with pytest.raises(ValueError):
            longitudinal_integral(0, -5.0, 0, 0.0, 0.0)

    def test_negative_l_rejected(self):
        with pytest.raises(ValueError):
            longitudinal_integral(-1, 0, 0, AL, BE)


class TestChi:
    def test_flat_case_constant(self):
        x = np.linspace(0.05, 0.95, 7)
        assert np.allclose(chi(x, 0, 0.0, 0.0), np.sqrt(4 * np.pi))

    def test_orthonormality(self):
        nodes, weights = roots_legendre(128)
        x = 0.5 * (nodes + 1)
        w = 0.5 * weights
        for l in range(5):
            for lp in range(l, 5):
                val = np.sum(w * chi(x, l, AL, BE) * chi(x, lp, AL, BE)) / (4 * np.pi)
                assert val == pytest.approx(1.0 if l == lp else 0.0, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            chi(0.0, 0, AL, BE)
        with pytest.raises(ValueError):
            chi(np.array([0.5, 1.0]), 0, AL, BE)

    def test_ground_mode_closed_form(self):
        # chi_0(x)^2 = (2985.8895... * x^4.40823 * (1-x)^4.40823)^2 exactly;
        # the rounded display constants (2986, exponent 4.4) sit 2.26% away
        # at x = 0.5, so only the exact form is pinned here.
        pref = 2985.88953443296
        for x in (0.3, 0.5, 0.7):
            exact = chi(x, 0, AL, BE) ** 2
            closed = (pref * x ** (BE / 2) * (1 - x) ** (AL / 2)) ** 2
            assert exact == pytest.approx(closed, rel=1e-10)
        rounded = (2986 * 0.5**4.4 * 0.5**4.4) ** 2
        assert chi(0.5, 0, AL, BE) ** 2 / rounded == pytest.approx(0.9774, abs=2e-3)


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
