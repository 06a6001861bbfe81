import itertools
import re
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from scipy.special import j0, roots_legendre

from blfqvqe.basisfuncs import (BasisCutoffs, ModelParameters,
                                UnsupportedCutoffError, WaveFunction, chi,
                                compute_exponents, enumerate_block, gammaln,
                                gauss_legendre, longitudinal_integral,
                                require_count, require_real)
from blfqvqe.cli import ConfigError, RunConfig
from blfqvqe.pauli import PauliString, PauliSum
from blfqvqe.simulator import (ReadoutNoiseModel, Statevector,
                               expectation_sampled, sampled_estimates)
from blfqvqe.vqe import (GOOD_GUESS, OptimizerConfig, minimize,
                         scaling_experiment, vqe_run)
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

    @pytest.mark.parametrize("name", ["m", "kappa", "g_pi"])
    @pytest.mark.parametrize("value", [10**400, -(2**1024),
                                       Fraction(10**400, 3)],
                             ids=["int", "negative-int", "fraction"])
    def test_refuses_numbers_beyond_float_range(self, name, value):
        # with b unset, kappa is refused before b copies it
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "
                                             "a number beyond float range$"):
            ModelParameters(**{name: value})

    def test_float32_constants_pass_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = ModelParameters(g_pi=np.float32(2.5e-4), kappa=np.float32(227))
        assert p.b == 227.0

    @pytest.mark.parametrize("value, refusal", [
        (True, "not a boolean, got True"),
        (np.True_, "not a boolean, got np.True_"), ("337", "got '337'")],
        ids=["bool", "np.bool", "string"])
    @pytest.mark.parametrize("name", ["m", "mbar", "kappa", "b", "g_pi"])
    def test_refuses_non_numbers(self, name, value, refusal):
        # a boolean reads as 1 in arithmetic, so m = True would build a
        # model with m = 1 MeV; a string would fail inside numpy
        with pytest.raises(ValueError, match=f"^{name} must be a number, "
                                             f"{re.escape(refusal)}$"):
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
        # nan fails every comparison, so the norm check must fail on it
        with pytest.raises(ValueError, match="^wave function must have unit "
                                             "norm$"):
            WaveFunction(np.array([np.nan] * 4), block)


_SUM = PauliSum([("ZI", 1.0), ("XX", 0.5)])  # any two-qubit observable


def _unevaluated(theta):
    # a cost that a refused start must never reach
    raise AssertionError(f"cost evaluated at {theta!r}")


_STATE = Statevector.zero(2)
# every entry point taking a count: the argument's name, the least count
# it takes, and a call passing it a value
_COUNTS = {
    "RunConfig-shots": ("shots", 1,
                        lambda n: RunConfig(mode="sampled", shots=n)),
    "RunConfig-seed": ("seed", 0, lambda n: RunConfig(seed=n)),
    "OptimizerConfig": ("max_iterations", 1,
                        lambda n: OptimizerConfig(max_iterations=n)),
    "expectation_sampled": ("shots_per_term", 1,
                            lambda n: expectation_sampled(_STATE, _SUM, n, 0)),
    "sampled_estimates-shots": ("shots_per_term", 1,
                                lambda n: sampled_estimates(_STATE, _SUM, n, 0,
                                                            repeats=2)),
    "sampled_estimates-repeats": ("repeats", 1,
                                  lambda n: sampled_estimates(_STATE, _SUM, 8,
                                                              0, repeats=n)),
    "scaling_experiment": ("repeats", 2,
                           lambda n: scaling_experiment(_SUM, "compact",
                                                        repeats=n)),
    "vqe_run": ("shots", 1, lambda n: vqe_run(_SUM, "compact", mode="sampled",
                                              shots=n)),
}


class TestRequireCount:
    @pytest.mark.parametrize("value, refusal", [
        (True, "a number, not a boolean, got True"),
        (np.True_, "a number, not a boolean, got np.True_"),
        ("8", "a number, got '8'"),
        (2.5, "a whole number of at least {least}, got 2.5"),
        (np.nan, "a whole number of at least {least}, got nan"),
        (np.inf, "a whole number of at least {least}, got inf"),
        (None, "a whole number of at least {least}, got {below}")],
        ids=["bool", "np-bool", "text", "fraction", "nan", "inf", "below"])
    @pytest.mark.parametrize("entry", _COUNTS)
    def test_every_count_is_refused_by_one_rule(self, entry, value, refusal):
        # a boolean must not read as one shot, nor text as a count
        name, least, call = _COUNTS[entry]
        if value is None:
            value = least - 1
        message = (f"{name} must be "
                   f"{refusal.format(least=least, below=least - 1)}")
        error = ConfigError if entry.startswith("RunConfig") else ValueError
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(value)

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.uint8(3),
                                       np.float32(3.0), Fraction(6, 2),
                                       10**30])
    def test_a_whole_number_of_any_type_comes_back_as_an_int(self, value):
        count = require_count("n", value, 3)
        assert type(count) is int and count == value

    @pytest.mark.parametrize("entry", ["RunConfig-shots", "expectation_sampled",
                                       "sampled_estimates-shots", "vqe_run"])
    def test_shots_numpy_cannot_draw_are_refused(self, entry):
        # numpy's multinomial takes fewer than 2^63 shots; the entry point
        # refuses more itself, where numpy would raise its own OverflowError
        name, _, call = _COUNTS[entry]
        error = ConfigError if entry.startswith("RunConfig") else ValueError
        with pytest.raises(error, match=f"^{name} must be below 2\\^63, "
                                        f"got {2**63}$"):
            call(2**63)

    def test_the_most_shots_numpy_draws_are_drawn(self):
        est, _ = expectation_sampled(_STATE, _SUM, 2**63 - 1, 0)
        assert est == pytest.approx(1.0)


# every entry point taking a real: the name its refusal gives, and a call
# passing it a value
_REALS = {
    **{f"ModelParameters-{name}": (
        name, lambda x, name=name: ModelParameters(**{name: x}))
       for name in ("m", "mbar", "kappa", "b", "g_pi")},
    "PauliString": ("coefficient", lambda x: PauliString("XX", x)),
    "PauliSum": ("coefficient", lambda x: PauliSum([("XX", x)])),
    "OptimizerConfig": ("tolerance", lambda x: OptimizerConfig(tolerance=x)),
    "ReadoutNoiseModel-p01": ("p01", lambda x: ReadoutNoiseModel(x, 0.0)),
    "ReadoutNoiseModel-p10": ("p10", lambda x: ReadoutNoiseModel(0.0, x)),
    "vqe_run": ("initial", lambda x: vqe_run(_SUM, "compact",
                                             initial=(x, 0.0, 0.0))),
    "scaling_experiment": ("theta", lambda x: scaling_experiment(
        _SUM, "compact", theta=(0.0, x, 0.0))),
    "minimize": ("theta0", lambda x: minimize(_unevaluated, (0.0, 0.0, x),
                                              ("Ry",) * 3)),
}


class TestRequireReal:
    @pytest.mark.parametrize("value, refusal", [
        (True, "a number, not a boolean, got True"),
        (np.True_, "a number, not a boolean, got np.True_"),
        ("1.5", "a number, got '1.5'"),
        (np.nan, "finite, got nan"),
        (np.inf, "finite, got inf"),
        (-np.inf, "finite, got -inf"),
        (10**400, "finite, got a number beyond float range")],
        ids=["bool", "np-bool", "text", "nan", "inf", "-inf", "beyond-float"])
    @pytest.mark.parametrize("entry", _REALS)
    def test_every_real_is_refused_by_one_rule(self, entry, value, refusal):
        # a boolean must not read as 1, nor nan or an overflowing int reach
        # numpy, whose own errors would not name the setting
        name, call = _REALS[entry]
        message = f"{name} must be {refusal}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)

    @pytest.mark.parametrize("value", [-2.5, 0, 10**300, np.float32(1e-3),
                                       np.int64(7), Fraction(1, 3)])
    def test_a_finite_real_of_any_type_passes(self, value):
        assert require_real("x", value) is None

    @pytest.mark.parametrize("entry, call", [
        ("initial", lambda t: vqe_run(_SUM, "compact", initial=t)),
        ("theta", lambda t: scaling_experiment(_SUM, "compact", theta=t)),
        ("theta0", lambda t: minimize(_unevaluated, t, ("CRy",) * 3))])
    @pytest.mark.parametrize("theta", [(0, 0), (0.1, 0.2, 0.3, 0.4), 0.5,
                                       "abc", [[0.1], [0.2], [0.3]]],
                             ids=["two", "four", "scalar", "text", "column"])
    def test_angles_other_than_three_are_refused(self, entry, call, theta):
        # (0, 0) once ended in an IndexError inside the minimizer
        with pytest.raises(ValueError, match=f"^{entry} must be 3 angles, "
                                             f"got {re.escape(repr(theta))}$"):
            call(theta)

    def test_three_angles_of_any_sequence_type_are_taken(self):
        theta = np.array(GOOD_GUESS["compact"], dtype=np.float32)
        for initial in (theta, list(theta), tuple(theta)):
            result = vqe_run(_SUM, "compact", initial=initial)
            assert result.converged
