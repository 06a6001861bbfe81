"""Optimizer loop and scaling-experiment tests."""
import functools

import numpy as np
import pytest

import blfqvqe
from blfqvqe import (BasisCutoffs, ModelParameters, ReadoutNoiseModel,
                     Statevector, WaveFunction, build_effective_hamiltonian,
                     decay_projector, decay_spec, diagonalize, embed_compact,
                     embed_direct, enumerate_block, expectation_exact,
                     expectation_sampled, jw_to_bk_pauli, mass_radius,
                     mass_radius_matrix, pauli_sum_to_matrix,
                     sampled_estimates)
from blfqvqe import simulator, vqe
from blfqvqe.vqe import (_DEGREE, ENCODINGS, GOOD_GUESS, OptimizerConfig,
                         ScalingResult, lookup_encoding, minimize,
                         prepared_state,
                         relative_variance, scaling_experiment, vqe_run)
from oracles import reference_minimize


@pytest.fixture(scope="module")
def problem():
    h = build_effective_hamiltonian(ModelParameters())
    sums = {"direct": embed_direct(h), "compact": embed_compact(h)}
    sums["bk"] = jw_to_bk_pauli(sums["direct"])
    return h, sums, diagonalize(h).eigenvalues[0]


def ground_angles(h, name):
    """The closed-form angles of the exact ground state in one encoding."""
    return ENCODINGS[name].angles(diagonalize(h).eigenvectors[:, 0])


class TestAngles:
    @pytest.mark.parametrize("name", sorted(ENCODINGS))
    def test_round_trip(self, name):
        # seeded random unit vectors, the signed basis vectors and the
        # good-guess vector come back exactly, sign included, with nothing
        # off the readout indices; `coefficients` is `angles`' inverse
        enc = ENCODINGS[name]
        vectors = np.random.default_rng(0).normal(size=(500, 4))
        vectors = [*(vectors / np.linalg.norm(vectors, axis=1)[:, None]),
                   *np.eye(4), *-np.eye(4),
                   np.array([0.0, -1.0, 1.0, 0.0]) / np.sqrt(2)]
        for v in vectors:
            expect = np.zeros(2**enc.n_qubits)
            expect[list(enc.readout)] = v
            got = prepared_state(name, enc.angles(v)).amplitudes
            assert np.abs(got - expect).max() < 1e-14, v
            assert np.abs(np.subtract(enc.coefficients(enc.angles(v)),
                                      v)).max() < 1e-14, v

    @pytest.mark.parametrize("name", sorted(ENCODINGS))
    def test_ground_angles_reach_e0(self, problem, name):
        h, sums, e0 = problem
        state = prepared_state(name, ground_angles(h, name))
        assert abs(expectation_exact(state, sums[name]) - e0) < 1e-6

    @pytest.mark.parametrize("coeffs", [
        [1.0, 0.0, 0.0], [[1.0, 0.0, 0.0, 0.0]], [1j, 0, 0, 0],
        [np.nan, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0],
        [2.0, 0.0, 0.0, 0.0], [1.0 + 2e-10, 0.0, 0.0, 0.0],
        ["1", "0", "0", "0"], [True, False, False, False], [None] * 4],
        ids=["three", "matrix", "complex", "nan", "inf", "norm-2",
             "norm-off-by-2e-10", "text", "bool", "none"])
    def test_refuses_anything_but_a_real_unit_4_vector(self, coeffs):
        for enc in ENCODINGS.values():
            with pytest.raises(ValueError, match="need 4 finite reals"):
                enc.angles(coeffs)

    def test_accepts_a_norm_within_the_statevector_tolerance(self):
        theta = ENCODINGS["compact"].angles([1.0 + 5e-11, 0.0, 0.0, 0.0])
        assert prepared_state("compact", theta).amplitudes[0] == 1.0


class TestOptimizerConfig:
    def test_defaults(self):
        c = OptimizerConfig()
        assert (c.max_iterations, c.tolerance) == (500, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=0)
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=0.0)

    @pytest.mark.parametrize("kwargs, refusal", [
        ({"tolerance": np.nan}, "tolerance must be finite, got nan$"),
        ({"tolerance": np.inf}, "tolerance must be finite, got inf$"),
        ({"max_iterations": 2.5}, "max_iterations must be a whole number"),
        ({"max_iterations": np.nan}, "max_iterations must be a whole number"),
        # a boolean reads as 1: a budget of 1 evaluation, a tolerance of 1
        ({"max_iterations": True},
         "max_iterations must be a number, not a boolean, got True$"),
        ({"tolerance": True},
         "tolerance must be a number, not a boolean, got True$"),
        ({"tolerance": np.True_},
         "tolerance must be a number, not a boolean, got np.True_$"),
        # a string would fail inside the arithmetic with numpy's TypeError
        ({"max_iterations": "5"}, "max_iterations must be a number, got '5'$"),
        ({"tolerance": "1.0"}, "tolerance must be a number, got '1.0'$"),
    ], ids=["tolerance-nan", "tolerance-inf", "max-iterations-2.5",
            "max-iterations-nan", "max-iterations-bool", "tolerance-bool",
            "tolerance-np.bool", "max-iterations-string", "tolerance-string"])
    def test_refuses_non_finite_or_fractional_settings(self, kwargs,
                                                       refusal):
        with pytest.raises(ValueError, match=f"^{refusal}"):
            OptimizerConfig(**kwargs)

    def test_whole_budgets_are_accepted(self):
        OptimizerConfig(max_iterations=np.int64(4))
        assert OptimizerConfig(max_iterations=1).max_iterations == 1


def trig_bowl(kinds, target):
    """A cost of the form `minimize` assumes, 0 at `target` alone (mod
    2 pi k per angle): angle a enters through sum_m (1 - cos(m x)) / m
    over m = 1..k, x = (a - t) / k, k = 1 for Ry and 2 for CRy, summed
    over the angles and, for coupling, multiplied."""
    k = np.array([{"Ry": 1, "CRy": 2}[kind] for kind in kinds])

    def cost(theta):
        x = (np.asarray(theta) - target) / k
        u = 1.0 - np.cos(x) + np.where(k == 2, (1.0 - np.cos(2 * x)) / 2, 0.0)
        return float(u.sum() + 0.5 * u.prod())
    return cost


def recorded(cost):
    """`cost` that also appends each (angles, value) it returns to .calls."""
    def wrapper(theta):
        wrapper.calls.append((tuple(theta), cost(theta)))
        return wrapper.calls[-1][1]
    wrapper.calls = []
    return wrapper


class TestMinimize:
    @pytest.mark.parametrize("kinds", [("Ry",) * 3, ("CRy",) * 3,
                                       ("Ry", "CRy", "Ry")],
                             ids=["Ry", "CRy", "mixed"])
    def test_trig_bowl_reaches_its_minimum(self, kinds):
        target = np.array([1.0, -2.0, 2.5])
        res = minimize(trig_bowl(kinds, target), np.zeros(3), kinds,
                       OptimizerConfig(tolerance=1e-12))
        assert res.converged and res.energy < 1e-12
        period = 2 * np.pi * np.array([{"Ry": 1, "CRy": 2}[k] for k in kinds])
        offset = np.remainder(np.asarray(res.theta) - target + period / 2,
                              period) - period / 2
        assert np.abs(offset).max() < 1e-6
        assert res.n_iterations == len(res.trace) <= 500

    @pytest.mark.parametrize("budget, evaluations", [(3, 1), (10, 10),
                                                      (12, 10)])
    def test_non_convergence_flag(self, budget, evaluations):
        # the first evaluation, then 3 per Ry angle: a budget of 10 ends
        # one sweep, which gained too much to stop, and an angle update
        # that would run past the budget is not begun
        res = minimize(trig_bowl(("Ry",) * 3, np.ones(3)), np.zeros(3),
                       ("Ry",) * 3, OptimizerConfig(max_iterations=budget))
        assert not res.converged
        assert res.n_iterations == len(res.trace) == evaluations

    def test_trace_monotone(self):
        # a cost off the assumed form, as a sampled one is: the trace is
        # every evaluated cost in order, and the result is the first
        # evaluation reaching its minimum, never a curve's prediction
        cost = recorded(lambda t: float(np.sum(np.cos(t))
                                        + 0.1 * np.sin(40 * t[0])))
        res = minimize(cost, np.random.default_rng(1).normal(size=3),
                       ("Ry",) * 3)
        values = [e for _, e in cost.calls]
        assert res.trace == tuple(values)
        assert res.energy == min(values)
        assert res.theta == next(t for t, e in cost.calls if e == res.energy)

    def test_stops_on_a_sweep_that_gains_less_than_the_tolerance(self):
        # from the minimum itself the first sweep gains nothing
        target = np.array([0.5, 1.0, 1.5])
        res = minimize(trig_bowl(("CRy",) * 3, target), target, ("CRy",) * 3)
        assert res.converged and res.n_iterations == 1 + 3 * 5
        assert res.energy == 0.0 and res.theta == tuple(target)


def assert_same_steps(got, expect, kinds):
    """Two minimizer results took the same steps: equal trace lengths and
    convergence, energies within 1e-12 relative and angles equal modulo
    each angle's period 2 pi k."""
    assert (len(got.trace), got.converged) == (len(expect.trace),
                                               expect.converged)
    np.testing.assert_allclose(got.trace, expect.trace, rtol=1e-12, atol=0)
    assert got.energy == pytest.approx(expect.energy, rel=1e-12, abs=0)
    period = 2 * np.pi * np.array([_DEGREE[k] for k in kinds])
    offset = np.remainder(np.subtract(got.theta, expect.theta) + period / 2,
                          period) - period / 2
    assert np.abs(offset).max() <= 1e-12


class TestReferenceMinimize:
    """`minimize` against the same step in numpy alone
    (`oracles.reference_minimize`)."""

    @pytest.mark.parametrize("kinds", [("Ry",) * 3, ("CRy",) * 3,
                                       ("Ry", "CRy", "Ry")],
                             ids=["Ry", "CRy", "mixed"])
    def test_trig_bowl(self, kinds):
        cost = trig_bowl(kinds, np.array([1.0, -2.0, 2.5]))
        config = OptimizerConfig(tolerance=1e-12)
        assert_same_steps(minimize(cost, np.zeros(3), kinds, config),
                          reference_minimize(cost, np.zeros(3), kinds, config),
                          kinds)

    @pytest.mark.parametrize("name", sorted(ENCODINGS))
    def test_exact_costs(self, problem, name):
        # the good guess, then 30 seeded random starts
        _, sums, _ = problem
        kinds = ENCODINGS[name].kinds

        def cost(theta):
            return expectation_exact(prepared_state(name, theta), sums[name])

        starts = np.random.default_rng(30).uniform(-np.pi, np.pi, (30, 3))
        for theta0 in (GOOD_GUESS[name], *starts):
            assert_same_steps(minimize(cost, theta0, kinds),
                              reference_minimize(cost, theta0, kinds), kinds)
        # the solve the CLI runs by default takes the same steps to the bit
        assert (minimize(cost, GOOD_GUESS[name], kinds)
                == reference_minimize(cost, GOOD_GUESS[name], kinds))

    @pytest.mark.parametrize("name", sorted(ENCODINGS))
    def test_sampled_costs(self, problem, monkeypatch, name):
        _, sums, _ = problem
        kinds = ENCODINGS[name].kinds
        for seed in range(10):
            got = vqe_run(sums[name], name, mode="sampled", seed=seed)
            with monkeypatch.context() as patch:
                patch.setattr(vqe, "minimize", reference_minimize)
                expect = vqe_run(sums[name], name, mode="sampled", seed=seed)
            assert_same_steps(got, expect, kinds)
            assert got.std_error == pytest.approx(expect.std_error, rel=1e-12)


@pytest.mark.parametrize("name, evaluations", [("direct", 46),
                                               ("compact", 19), ("bk", 46)])
def test_readme_evaluation_counts(problem, name, evaluations):
    # README, opening section: from the good guess an exact solve takes 46
    # (direct, bk) or 19 (compact) evaluations, and converges
    _, sums, _ = problem
    res = vqe_run(sums[name], name)
    assert (res.n_iterations, res.converged) == (evaluations, True)


@pytest.mark.parametrize("name", sorted(ENCODINGS))
def test_exact_solve_reaches_the_closed_form_ground_state(problem, name):
    # from the good guess, the exact solve ends at the state the inverted
    # ansatz prepares: 1 - |<ground|solve>|^2 was 7e-10 on direct and bk
    # and 5e-8 on compact
    h, sums, _ = problem
    ground = prepared_state(name, ground_angles(h, name)).amplitudes
    solve = prepared_state(name, vqe_run(sums[name], name).theta).amplitudes
    assert abs(np.vdot(ground, solve)) ** 2 >= 1 - 1e-6


class TestVqeRun:
    def test_compact_exact(self, problem):
        _, sums, e0 = problem
        res = vqe_run(sums["compact"], "compact", mode="exact")
        assert res.energy == pytest.approx(e0, rel=1e-4)
        assert res.energy == pytest.approx(19488.0, rel=1e-3)
        assert res.energy >= e0 - 1e-6
        assert res.n_iterations <= 200
        assert res.converged

    def test_sampled_refuses_a_non_whole_shot_count(self, problem):
        _, sums, _ = problem
        with pytest.raises(ValueError, match="whole number"):
            vqe_run(sums["compact"], "compact", mode="sampled", shots=8192.5,
                    seed=3)

    def test_direct_exact_matches_compact(self, problem):
        _, sums, e0 = problem
        rd = vqe_run(sums["direct"], "direct", mode="exact")
        rc = vqe_run(sums["compact"], "compact", mode="exact")
        assert rd.energy == pytest.approx(rc.energy, rel=1e-3)
        assert rd.energy >= e0 - 1e-6
        assert rd.n_iterations <= 200

    def test_bk_matches_direct(self, problem):
        _, sums, _ = problem
        rb = vqe_run(sums["bk"], "bk", mode="exact")
        rd = vqe_run(sums["direct"], "direct", mode="exact")
        assert rb.energy == pytest.approx(rd.energy, rel=1e-9)

    def test_the_package_keeps_no_circuit_layer(self):
        # states are prepared in closed form; the circuits are the tests'
        # oracle, and vqe.run_circuit is only a name the benchmark wraps
        for name in ("Gate", "Circuit", "run_circuit", "DIRECT_ANSATZ",
                     "COMPACT_ANSATZ", "JW_TO_BK_NETWORK", "_gate_parts"):
            assert not hasattr(simulator, name), name
            assert not hasattr(blfqvqe, name), name
        assert vqe.run_circuit is prepared_state

    def test_good_guess_state(self, problem):
        for enc in ("direct", "compact"):
            state = prepared_state(enc, GOOD_GUESS[enc])
            amps = state.amplitudes.real
            if enc == "direct":
                amps = np.array([amps[1 << i] for i in range(4)])
            assert np.allclose(amps, [0, -1 / np.sqrt(2), 1 / np.sqrt(2), 0],
                               atol=1e-12)

    def test_sampled_within_errorbars(self, problem):
        _, sums, e0 = problem
        res = vqe_run(sums["compact"], "compact", mode="sampled", shots=8192,
                      seed=11)
        assert res.std_error > 0
        assert abs(res.energy - e0) < 3 * res.std_error

    def test_bit_reproducible(self, problem):
        _, sums, _ = problem
        a = vqe_run(sums["compact"], "compact", mode="sampled", shots=512, seed=5)
        b = vqe_run(sums["compact"], "compact", mode="sampled", shots=512, seed=5)
        c = vqe_run(sums["compact"], "compact", mode="sampled", shots=512, seed=6)
        assert a.energy == b.energy and a.theta == b.theta and a.trace == b.trace
        assert a.energy != c.energy

    @pytest.mark.parametrize("mode", ["sampled", "sampled+noise",
                                      "sampled+noise+mitigation"])
    @pytest.mark.parametrize("name", sorted(ENCODINGS))
    def test_a_draw_between_runs_leaves_a_rerun_unchanged(self, problem,
                                                          name, mode):
        # the solve rewinds the one generator it seeds, so what was drawn
        # before it, from another seed, cannot reach its stream
        _, sums, _ = problem
        runs = []
        for _ in range(2):
            runs.append(vqe_run(sums[name], name, mode=mode, shots=256,
                                seed=5, noise=ReadoutNoiseModel(0.03, 0.05),
                                config=OptimizerConfig(max_iterations=30)))
            expectation_sampled(prepared_state(name, GOOD_GUESS[name]),
                                sums[name], 64, 6)
        a, b = runs
        assert (a.trace, a.theta, a.energy, a.std_error) == (
            b.trace, b.theta, b.energy, b.std_error)

    def test_mitigation_recovers(self, problem):
        _, sums, e0 = problem
        noise = ReadoutNoiseModel(0.03, 0.03)
        raw = vqe_run(sums["compact"], "compact", mode="sampled+noise",
                      noise=noise, seed=11)
        mit = vqe_run(sums["compact"], "compact",
                      mode="sampled+noise+mitigation", noise=noise, seed=11)
        assert abs(mit.energy - e0) < abs(raw.energy - e0)

    def test_validation(self, problem):
        _, sums, _ = problem
        with pytest.raises(ValueError):
            vqe_run(sums["compact"], "direct")        # qubit mismatch
        with pytest.raises(ValueError):
            vqe_run(sums["compact"], "dense")
        with pytest.raises(ValueError):
            vqe_run(sums["compact"], "compact", mode="noisy")
        with pytest.raises(ValueError):
            vqe_run(sums["compact"], "compact", mode="sampled+noise")


@pytest.mark.parametrize("mitigate", [False, True], ids=["sampled", "mitigated"])
@pytest.mark.parametrize("name", ENCODINGS)
def test_sampled_error_bars_cover(problem, name, mitigate):
    # at the exact-mode optimum, z = (estimate - exact) / std_error over 200
    # seeds is centred and |z| <= 2 holds for ~95% of them; 0.25 is ~3.5
    # standard errors of the mean of 200 unit-variance z
    _, sums, _ = problem
    state = prepared_state(name, vqe_run(sums[name], name).theta)
    exact = expectation_exact(state, sums[name])
    noise = ReadoutNoiseModel(0.03, 0.03) if mitigate else None
    z = []
    for seed in range(200):
        est, se = expectation_sampled(state, sums[name], 8192, seed,
                                      noise=noise, mitigate=mitigate)
        z.append((est - exact) / se)
    assert abs(np.mean(z)) <= 0.25
    assert 0.90 <= np.mean(np.abs(z) <= 2.0) <= 0.99


@pytest.mark.parametrize("name", ["direct", "bk"])
def test_sampled_solves_end_at_the_ground_state(problem, name):
    # each angle moves by whole curves, not by small steps onto the
    # sampled cost's plateaus: over 20 seeds the exact energy at the
    # returned angles lies within one reported standard error of e0
    # (measured: within 0.05)
    _, sums, e0 = problem
    for seed in range(20):
        res = vqe_run(sums[name], name, mode="sampled", shots=8192, seed=seed)
        exact = expectation_exact(prepared_state(name, res.theta), sums[name])
        assert exact - e0 <= res.std_error, (seed, exact, res.std_error)


def test_a_category_summing_past_one_is_drawn(problem):
    # at this state a folded category's probabilities sum to 1 + 2.2e-16,
    # which numpy's multinomial refuses unless it is clipped
    _, sums, _ = problem
    theta = (11.000334272051917, 11.583520688364755, 0.0)
    state = prepared_state("bk", theta)
    est, se = expectation_sampled(state, sums["bk"], 8192, 0)
    assert np.isfinite(est) and se > 0
    assert sampled_estimates(state, sums["bk"], 8192, 0, 3)[0] == est
    res = vqe_run(sums["bk"], "bk", mode="sampled", seed=0, initial=theta)
    assert res.trace[0] == est


def counted_solve(monkeypatch, hamiltonian, name, mode, seed):
    """A vqe_run whose state preparations and sampled estimates are
    recorded; returns the result, the preparation count and the
    (estimate, std_error) pairs in evaluation order."""
    prepared, draws = [], []
    prepare, sampled = vqe.prepared_state, vqe.expectation_sampled

    def counting_prepare(*args):
        prepared.append(args)
        return prepare(*args)

    def recording_draw(*args, **kwargs):
        draws.append(sampled(*args, **kwargs))
        return draws[-1]

    monkeypatch.setattr(vqe, "prepared_state", counting_prepare)
    monkeypatch.setattr(vqe, "expectation_sampled", recording_draw)
    res = vqe_run(hamiltonian, name, mode=mode, seed=seed,
                  noise=ReadoutNoiseModel(0.03, 0.05))
    return res, len(prepared), draws


@pytest.mark.parametrize("mode", ["sampled", "sampled+noise",
                                  "sampled+noise+mitigation"])
@pytest.mark.parametrize("name", sorted(ENCODINGS))
def test_sampled_solve_draws_once_per_evaluation(problem, monkeypatch, name,
                                                 mode):
    # the result is the best evaluation's own estimate: no state is
    # prepared and no shot drawn after the optimizer stops
    _, sums, _ = problem
    res, prepared, draws = counted_solve(monkeypatch, sums[name], name, mode,
                                         seed=11)
    assert prepared == len(draws) == len(res.trace)
    first = next(se for est, se in draws if est == res.energy)
    assert res.std_error == first


@pytest.mark.parametrize("mode", ["sampled", "sampled+noise",
                                  "sampled+noise+mitigation"])
@pytest.mark.parametrize("name", sorted(ENCODINGS))
def test_every_evaluation_draws_from_the_seeds_start(problem, monkeypatch,
                                                     name, mode):
    # common random numbers: each evaluation draws what a new generator
    # seeded with the run seed draws, whatever the evaluations before it
    _, sums, _ = problem
    noise = ReadoutNoiseModel(0.03, 0.05)
    states, draws = [], []
    sampled = vqe.expectation_sampled

    def recording(state, *args, **kwargs):
        states.append(state)
        draws.append(sampled(state, *args, **kwargs))
        return draws[-1]

    monkeypatch.setattr(vqe, "expectation_sampled", recording)
    res = vqe_run(sums[name], name, mode=mode, shots=256, seed=5, noise=noise,
                  config=OptimizerConfig(max_iterations=30))
    assert len(draws) == len(res.trace) > 1
    kwargs = {"noise": None if mode == "sampled" else noise,
              "mitigate": mode == "sampled+noise+mitigation"}
    assert draws == [sampled(s, sums[name], 256, 5, **kwargs) for s in states]


def test_tied_estimates_keep_the_first_error(problem, monkeypatch):
    # equal estimates at different angles carry different errors; the
    # reported error is the one of the first evaluation reaching the
    # minimum.  Estimates rounded to 1,000 MeV^2 make such ties certain.
    _, sums, _ = problem
    draws = []
    sampled = vqe.expectation_sampled

    def rounded(*args, **kwargs):
        est, se = sampled(*args, **kwargs)
        draws.append((round(est, -3), se))
        return draws[-1]

    monkeypatch.setattr(vqe, "expectation_sampled", rounded)
    res = vqe_run(sums["direct"], "direct", mode="sampled", seed=11)
    errors = {}
    for est, se in draws:
        errors.setdefault(est, set()).add(se)
    assert len(errors[res.energy]) > 1
    assert res.energy == min(est for est, _ in draws)
    assert res.std_error == next(se for est, se in draws if est == res.energy)


def test_each_measurement_compiles_once(problem):
    # every evaluation of a solve reads its sum's measurement back from
    # the one compile per (sum, noise model, mitigation)
    _, sums, _ = problem
    simulator._measurement.cache_clear()
    evaluations = 0
    for name in sorted(ENCODINGS):
        for mode in ("sampled", "sampled+noise", "sampled+noise+mitigation"):
            res = vqe_run(sums[name], name, mode=mode, shots=256, seed=11,
                          noise=ReadoutNoiseModel(0.03, 0.05),
                          config=OptimizerConfig(max_iterations=20))
            evaluations += len(res.trace)
    info = simulator._measurement.cache_info()
    assert info.misses == info.currsize == 9
    assert info.hits == evaluations - 9


@pytest.fixture(scope="module")
def results(problem):
    _, sums, _ = problem
    return {enc: scaling_experiment(sums[enc], enc)
            for enc in ("direct", "compact")}


class TestScaling:
    def test_exponent_range(self, results):
        for enc, res in results.items():
            assert 1.8 <= res.exponent <= 2.2, (enc, res.exponent)

    def test_compact_constant_smaller(self, results):
        assert results["compact"].constant < results["direct"].constant

    def test_rows_structure(self, results):
        for res in results.values():
            shots = [s for s, _ in res.rows]
            assert shots == sorted(shots)
            assert all(e > 0 for _, e in res.rows)
            assert len(res.rows) == 6

    def test_reproducible(self, problem, results):
        _, sums, _ = problem
        again = scaling_experiment(sums["compact"], "compact")
        assert again.rows == results["compact"].rows

    def test_validation(self, problem):
        _, sums, _ = problem
        with pytest.raises(ValueError):
            scaling_experiment(sums["compact"], "huffman")
        for repeats in (1, 2.5):
            with pytest.raises(ValueError, match="^repeats must be a whole "
                               f"number of at least 2, got {repeats}$"):
                scaling_experiment(sums["compact"], "compact", repeats=repeats)
        whole = scaling_experiment(sums["compact"], "compact", repeats=2.0)
        assert type(whole.repeats) is int and type(whole.total_shots) is int

    def test_relative_variance_positive(self, problem):
        h, sums, e0 = problem
        state = prepared_state("compact", ground_angles(h, "compact"))
        v = relative_variance(state, sums["compact"], e0)
        assert 0 < v < 1e4

    @pytest.mark.parametrize("enc", ["direct", "compact", "bk"])
    def test_relative_variance_matches_dense(self, problem, enc):
        _, sums, _ = problem
        letters = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
                   "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
        psi = prepared_state(enc, (0.3, -1.1, 2.0)).amplitudes
        dense_h = pauli_sum_to_matrix(sums[enc]).entries
        energy = (psi.conj() @ dense_h @ psi).real
        expect = 0.0
        for t in sums[enc].terms:
            if t.weight:
                P = functools.reduce(np.kron, [letters[ch] for ch in t.axes])
                expect += t.coefficient**2 * (1.0 - (psi.conj() @ P @ psi).real ** 2)
        got = relative_variance(Statevector(psi), sums[enc], energy)
        assert got == pytest.approx(expect / energy**2, rel=1e-12)

    @pytest.mark.parametrize("enc", ["direct", "compact"])
    def test_rows_follow_shot_noise(self, problem, results, enc):
        # the estimator is unbiased with relative variance v_rel / n, so
        # each row's mean of R squared errors spreads by about
        # sqrt(2 / R) and its RMS by half that: 6/sqrt(2R) is 6 sigma
        h, sums, _ = problem
        res = results[enc]
        state = prepared_state(enc, ground_angles(h, enc))
        v_rel = relative_variance(state, sums[enc],
                                  expectation_exact(state, sums[enc]))
        tol = 6.0 / np.sqrt(2.0 * res.repeats)
        for shots, rms in res.rows:
            assert abs(rms / np.sqrt(v_rel / shots) - 1.0) <= tol, (shots, rms)

    def test_fits_nothing(self, problem, monkeypatch):
        # the table's default angles come in closed form
        _, sums, _ = problem

        def refuse(*args, **kwargs):
            raise AssertionError("scaling_experiment ran the optimizer")

        monkeypatch.setattr(vqe, "minimize", refuse)
        for enc in ENCODINGS:
            scaling_experiment(sums[enc], enc, repeats=2)

    def test_shot_column_is_the_fixed_grid(self, results):
        # the rows hold 8 to 256 shots per term whatever the state and the
        # Hamiltonian; a different kappa moves the energies, not the column
        h = build_effective_hamiltonian(ModelParameters(kappa=210.0))
        other = scaling_experiment(embed_compact(h), "compact", repeats=2)
        grid = [8, 16, 32, 64, 128, 256]
        for res in (*results.values(), other):
            assert [s for s, _ in res.rows] == grid


@pytest.mark.parametrize("name", ENCODINGS)
def test_encoding_table(name, problem):
    h, _, _ = problem
    enc = lookup_encoding(name)
    params = ModelParameters()
    block = enumerate_block(0, BasisCutoffs())

    good = np.array(enc.coefficients(enc.good_guess))
    expect = np.array([0, -1, 1, 0]) / np.sqrt(2)
    assert np.abs(good - expect).max() < 1e-12

    # embed(h) seen from the readout indices
    dense = pauli_sum_to_matrix(enc.embed(h)).entries
    readout = list(enc.readout)
    assert np.abs(dense[np.ix_(readout, readout)] - h.entries).max() < 1e-9

    v = np.asarray(decay_spec(params).reference_vector)
    radius = enc.embed(mass_radius_matrix(block, params).fm2)
    for theta in [(0.3, -1.1, 2.0), (2.5, 0.7, -0.4)]:
        state = prepared_state(name, theta)
        c = np.array(enc.coefficients(theta))
        assert expectation_exact(state, decay_projector(name)) == \
            pytest.approx(np.dot(v, c) ** 2, abs=1e-12)
        r2, _ = mass_radius(WaveFunction(c, block), params)
        assert expectation_exact(state, radius) == pytest.approx(r2, rel=1e-12)
