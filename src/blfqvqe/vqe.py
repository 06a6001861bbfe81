"""Variational outer loop and the shot-scaling experiment.

The cost surface is the exact or shot-sampled energy of an ansatz state
under a Pauli-sum Hamiltonian, minimized one angle at a time
(`minimize`).  Sampled costs reuse the run seed for every evaluation
(common random numbers): `vqe_run` seeds one generator and rewinds it to
its seeded start before each evaluation, so the surface the optimizer
sees is deterministic and every run is bit-reproducible for a fixed seed
and configuration.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .basisfuncs import require_count, require_real
from .pauli import (embed_compact, embed_direct, jw_to_bk_pauli,
                    pauli_string_matrix)
from .simulator import (Statevector, expectation_exact, expectation_sampled,
                        require_shots, sampled_estimates)

MODES = ("exact", "sampled", "sampled+noise", "sampled+noise+mitigation")


@dataclass(frozen=True)
class Encoding:
    """Everything that tells one qubit encoding of the 4x4 block apart.

    embed maps a one-body matrix to its PauliSum on the n_qubits
    register.  The ansatz is one of the paper's fixed circuits of three
    rotations, of gate kinds `kinds` in gate order (CRy for direct and
    bk, Ry for compact); it prepares the four basis coefficients
    `coefficients(theta)` on the register indices `readout`, and
    `angles` inverts that map.  good_guess are the angles preparing
    (0, -1/sqrt2, +1/sqrt2, 0).  scaling_repeats is the default repeat
    count per point of the shot-scaling experiment.
    """

    embed: Callable
    n_qubits: int
    kinds: tuple
    good_guess: tuple
    readout: tuple
    scaling_repeats: int

    def coefficients(self, theta):
        """The four real coefficients the ansatz prepares at the three
        angles `theta` (README, Encodings): with c_i, s_i the cosine and
        sine of theta_i/2, direct and bk give (c0 s1, c0 c1, s0 c2,
        s0 s2) and compact (c1 cos f, c1 sin f, s1 sin g, s1 cos g), f
        and g the half sum and half difference of theta_0 and theta_2.
        Each is a sum of the products ((v0 v1) v2) of one factor per
        angle, as the circuit forms them gate by gate."""
        if len(theta) != 3:
            raise ValueError(f"ansatz has 3 rotations, got {len(theta)} angles")
        half = np.multiply(theta, 0.5)
        c0, c1, c2 = np.cos(half).tolist()
        s0, s1, s2 = np.sin(half).tolist()
        if self.kinds[0] == "CRy":
            return c0 * s1, c0 * c1, s0 * c2, s0 * s2
        return (c0 * c1 * c2 - s0 * c1 * s2, s0 * c1 * c2 + c0 * c1 * s2,
                s0 * s1 * c2 - c0 * s1 * s2, c0 * s1 * c2 + s0 * s1 * s2)

    def angles(self, coeffs):
        """The angles preparing the real unit 4-vector `coeffs` on `readout`,
        one atan2 each (README, Encodings); ValueError for other input."""
        v = np.asarray(coeffs)
        if not (v.shape == (4,) and v.dtype.kind in "fiu"
                and abs(np.linalg.norm(v) - 1.0) <= 1e-10):
            raise ValueError(f"need 4 finite reals of unit norm, got {coeffs!r}")
        mid = 2 * np.arctan2(np.hypot(*v[2:]), np.hypot(*v[:2]))
        if self.kinds[0] == "CRy":
            return (float(mid),
                    *map(float, 2 * np.arctan2(v[[0, 3]], v[[1, 2]])))
        f, g = np.arctan2(v[[1, 2]], v[[0, 3]])
        return float(f + g), float(mid), float(f - g)


def _embed_bk(h):
    return jw_to_bk_pauli(embed_direct(h))


# the one-excitation indices 2^i; the bk network (BK_CNOTS_4) permutes
# basis states, and bk reads their images under it
_ONE_EXCITATION = (1, 2, 4, 8)
_BK_READOUT = (11, 10, 12, 8)

ENCODINGS = {
    "direct": Encoding(embed_direct, 4, ("CRy",) * 3, (1.5 * np.pi, 0.0, 0.0),
                       _ONE_EXCITATION, 244),
    "compact": Encoding(embed_compact, 2, ("Ry",) * 3,
                        (0.0, 0.5 * np.pi, -np.pi), (0, 1, 2, 3), 600),
    # the direct ansatz, then the occupancy -> parity-tree network
    "bk": Encoding(_embed_bk, 4, ("CRy",) * 3, (1.5 * np.pi, 0.0, 0.0),
                   _BK_READOUT, 244),
}


def lookup_encoding(name):
    """The Encoding record for `name`; ValueError for an unknown name."""
    try:
        return ENCODINGS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown encoding {name!r}") from None


# Angles preparing the (0, -1/sqrt2, +1/sqrt2, 0) starting state.
GOOD_GUESS = {name: enc.good_guess for name, enc in ENCODINGS.items()}


def require_angles(name, theta, count=3):
    """ValueError naming the parameter `name` unless `theta` holds
    `count` angles (by default the ansatz's 3), each passing
    `require_real`."""
    if np.asarray(theta, dtype=object).shape != (count,):
        raise ValueError(f"{name} must be {count} angles, got {theta!r}")
    for angle in theta:
        require_real(name, angle)


# the cost along a rotation's angle a is a trigonometric polynomial of
# degree k in a / k: 1, cos a and sin a for Ry; CRy adds cos a/2, sin a/2
_DEGREE = {"Ry": 1, "CRy": 2}


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for `minimize`: max_iterations, a count of at least 1, caps
    cost evaluations; tolerance, a positive finite real (`require_real`),
    is the drop in the best cost below which a sweep ends the search."""

    max_iterations: int = 500
    tolerance: float = 1.0

    def __post_init__(self):
        require_count("max_iterations", self.max_iterations, 1)
        require_real("tolerance", self.tolerance)
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive and finite, "
                             f"got {self.tolerance!r}")


@dataclass(frozen=True)
class VqeResult:
    theta: tuple
    energy: float
    trace: tuple          # the cost of each evaluation, in order
    mode: str
    converged: bool
    std_error: float = None

    @property
    def n_iterations(self):
        return len(self.trace)


def minimize(cost, theta0, kinds, config=None, mode="exact"):
    """Minimize `cost` one angle at a time, where angle i enters through
    one rotation of gate kind kinds[i] (Nakanishi, Fujii, Todo, PRR 2,
    043158 (2020); Ostaszewski, Grant, Benedetti, Quantum 5, 391 (2021)).

    The cost along one angle is a trigonometric polynomial of degree k
    (`_DEGREE`) in angle / k, fixed by 2k + 1 equally spaced shifts over
    2 pi k, one of them the current angles; each angle's unit step and
    its 2k shift offsets are built once per call.  The curve's k Fourier
    coefficients come from one real FFT.  The angle moves to the curve's
    minimum: the lowest of 32 grid points, then four Newton steps on the
    slope, each taken only where the curve is convex, with the phase,
    curvature and slope as Python scalars.  The cost is evaluated there,
    the step wrapped into [-pi k, pi k).  The best evaluation so far is
    the current point and the result, never a curve's prediction.
    Sweeps end, converged, when one gains less than config.tolerance, or,
    not converged, before an angle's 2k + 1 evaluations would pass
    config.max_iterations; the trace holds every evaluation's cost, in
    order.  The start theta0 must hold one angle per kind
    (`require_angles`), checked once before the first evaluation.
    """
    require_angles("theta0", theta0, len(kinds))
    config = config or OptimizerConfig()
    theta, best, trace = np.array(theta0, dtype=float), np.inf, []

    def evaluate(t):
        nonlocal best, theta
        e = float(cost(t))
        if e < best:
            best, theta = e, t
        trace.append(e)
        return e

    # per angle: its evaluations per step, its unit step k e_i, the 2k
    # shifts of it, one row each, and i m for the harmonics m = 1..k
    steps = []
    for i, kind in enumerate(kinds):
        k = _DEGREE[kind]
        unit = k * np.eye(theta.size)[i]
        shifts = 2 * np.pi * np.arange(1, 2 * k + 1) / (2 * k + 1)
        steps.append((2 * k + 1, unit, shifts[:, None] * unit,
                      1j * np.arange(1, k + 1)))
    evaluate(theta)
    converged = spent = False
    while not (converged or spent):
        start = best
        for n, unit, offsets, im in steps:
            spent = len(trace) + n > config.max_iterations
            if spent:
                break
            base = theta
            # the curve at phase p is Re(F_0 + 2 sum_m F_m e^imp) / (2k + 1)
            F = np.fft.rfft([best, *map(evaluate, base + offsets)])
            harmonics = F[1:]
            p = 2 * np.pi * np.fft.irfft(F, 32).argmin() / 32
            for _ in range(4):  # Newton steps on the slope where it is convex
                # the product stays in numpy: Python's has no fused
                # multiply-add, so it rounds differently and can move a step
                z = (harmonics * np.exp(im * p)).tolist()
                curvature = sum(m * m * w.real for m, w in enumerate(z, 1))
                if curvature < 0:
                    p -= sum(m * w.imag for m, w in enumerate(z, 1)) / curvature
            evaluate(base + unit * (np.remainder(p + np.pi, 2 * np.pi) - np.pi))
        converged = not spent and start - best < config.tolerance
    return VqeResult(theta=tuple(theta), energy=best, trace=tuple(trace),
                     mode=mode, converged=converged)


def prepared_state(encoding, theta):
    """The encoding's ansatz state at the three angles `theta`.

    The state is zero but for `Encoding.coefficients` on the readout
    indices.  Each amplitude is the signed sum of angle products that the
    paper's circuit forms gate by gate from the zero state, in the same
    order, so the two agree bit for bit, a zero amplitude being +0.0
    (the tests run the circuits in `tests/oracles.py` to check this).
    `theta` is not checked: this runs once per cost evaluation, so the
    entry points that take angles (`vqe_run`, `minimize`,
    `scaling_experiment`) check them once with `require_angles` instead.
    """
    enc = lookup_encoding(encoding)
    amps = np.zeros(2**enc.n_qubits)
    for i, c in zip(enc.readout, enc.coefficients(theta)):
        amps[i] = c + 0.0  # a zero is +0.0, as the gates leave it
    return Statevector(amps)


# the benchmark's tracer (bench/spans.py) wraps this name, which no package
# code calls; ROADMAP item 12 retires it
run_circuit = prepared_state


def vqe_run(hamiltonian, encoding, mode="exact", shots=8192, noise=None,
            seed=0, config=None, initial=None):
    """Minimize the energy of `hamiltonian` (a PauliSum) for one encoding.

    The Pauli sum must already be expressed in the requested encoding;
    its qubit count is checked against the encoding's register.  The final
    energy and angles come from the best evaluation seen, the first to
    reach the lowest energy; in sampled modes std_error is that
    evaluation's own combined shot noise, with no further draw, and an
    estimate or error there that is not finite raises ArithmeticError.
    A sampled solve takes `shots` per term, a count of shots
    (`require_shots`), seeds one generator with `seed` and rewinds it
    to its seeded start before each evaluation (common random
    numbers); exact mode reads neither.  The search starts at `initial`
    (`require_angles`), by default the encoding's good guess.
    """
    enc = lookup_encoding(encoding)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if hamiltonian.n_qubits != enc.n_qubits:
        raise ValueError(f"{encoding} encoding needs {enc.n_qubits} qubits, "
                         f"operator has {hamiltonian.n_qubits}")
    if mode in ("sampled+noise", "sampled+noise+mitigation") and noise is None:
        raise ValueError(f"mode {mode!r} needs a noise model")
    theta0 = enc.good_guess if initial is None else initial
    require_angles("initial", theta0)
    mitigate = mode == "sampled+noise+mitigation"
    use_noise = noise if mode != "sampled" else None
    errors = {}  # each energy's error at the first evaluation reaching it
    if mode != "exact":
        shots = require_shots("shots", shots)
        rng = np.random.default_rng(seed)
        start = rng.bit_generator.state

    def cost(theta):
        state = prepared_state(encoding, theta)
        if mode == "exact":
            return expectation_exact(state, hamiltonian)
        rng.bit_generator.state = start
        est, se = expectation_sampled(state, hamiltonian, shots, rng,
                                      noise=use_noise, mitigate=mitigate)
        errors.setdefault(est, se)
        return est

    result = minimize(cost, theta0, enc.kinds, config=config, mode=mode)
    if mode == "exact":
        return result
    est, se = result.energy, errors.get(result.energy, np.nan)
    if not (np.isfinite(est) and np.isfinite(se)):
        raise ArithmeticError(f"sampled energy {est!r} +- {se!r} at the "
                              f"final angles is not finite")
    return replace(result, std_error=se)


def relative_variance(state, pauli_sum, reference_energy):
    """Single-shot estimator variance, relative to the reference energy:
    sum_a c_a^2 (1 - <P_a>^2) / E_ref^2."""
    amps = state.amplitudes
    total = 0.0
    for t in pauli_sum.terms:
        if t.weight:
            ev = np.vdot(amps, pauli_string_matrix(t.axes) @ amps).real
            total += t.coefficient**2 * (1.0 - ev**2)
    return total / reference_energy**2


@dataclass(frozen=True)
class ScalingResult:
    encoding: str
    rows: tuple              # (shots, RMS relative error) pairs
    exponent: float          # p in n ~ A / eps^p
    constant: float          # A
    repeats: int
    total_shots: int         # shots drawn for the whole table


SHOTS_PER_TERM_GRID = (8, 16, 32, 64, 128, 256)


def scaling_experiment(hamiltonian, encoding, repeats=None, seed=2024,
                       theta=None):
    """RMS relative error of the sampled energy versus shots per term.

    Holds the angles fixed at `theta` (`require_angles`; default: the
    `Encoding.angles` of the ground state of the sum's readout block),
    draws `repeats` independent estimates (default: the encoding's
    scaling_repeats; a count of at least 2, `require_count`) at each
    shot count of SHOTS_PER_TERM_GRID, and fits log eps against log n.
    Returns the fit as n ~ constant / eps^exponent.  Each grid point has
    one seed stream (seed, point index), and all repeats of a point come
    from it in one batched draw.  total_shots counts shots per term x
    measured terms x repeats, summed over the grid.
    """
    enc = lookup_encoding(encoding)
    if theta is None:
        block = hamiltonian.matrix[np.ix_(enc.readout, enc.readout)].real
        theta = enc.angles(np.linalg.eigh(block)[1][:, 0])
    require_angles("theta", theta)
    repeats = require_count(
        "repeats", enc.scaling_repeats if repeats is None else repeats, 2)

    state = prepared_state(encoding, theta)
    energy = expectation_exact(state, hamiltonian)
    if not (np.isfinite(energy) and energy != 0.0):
        raise ArithmeticError(f"energy {energy!r} at the fixed angles has no "
                              f"finite relative error")
    rows = []
    for i, shots in enumerate(SHOTS_PER_TERM_GRID):
        est = sampled_estimates(state, hamiltonian, shots, seed=[seed, i],
                                repeats=repeats)
        rel = (est - energy) / energy
        rows.append((shots, float(np.sqrt(np.mean(rel**2)))))
    # rounding alone moves an estimate by ~eps sum|c_a|, so a row within a
    # small multiple of that holds no shot noise to fit
    floor = (64 * np.finfo(float).eps / abs(energy)
             * sum(abs(t.coefficient) for t in hamiltonian.terms))
    if not all(floor < rms < np.inf for _, rms in rows):
        raise ArithmeticError(f"RMS errors {[rms for _, rms in rows]} are not "
                              f"all finite and above the rounding floor "
                              f"{floor:.3g}, so the shot-noise law cannot be "
                              f"fitted")

    # noise lives in eps, so regress log eps on log n and invert the slope
    log_n = np.log([r[0] for r in rows])
    log_e = np.log([r[1] for r in rows])
    slope, intercept = np.polyfit(log_n, log_e, 1)
    exponent = -1.0 / slope
    constant = float(np.exp(-intercept / slope))
    measured = sum(1 for t in hamiltonian.terms if t.weight)
    return ScalingResult(encoding=encoding, rows=tuple(rows),
                         exponent=float(exponent), constant=constant,
                         repeats=repeats,
                         total_shots=sum(SHOTS_PER_TERM_GRID) * measured
                         * repeats)
