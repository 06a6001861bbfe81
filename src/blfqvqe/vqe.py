"""Variational outer loop and the shot-scaling experiment.

The cost surface is the exact or shot-sampled energy of an ansatz state
under a Pauli-sum Hamiltonian.  Sampled costs reuse the run seed for
every evaluation (common random numbers), so the surface the optimizer
sees is deterministic and every run is bit-reproducible for a fixed
seed and configuration.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .pauli import (embed_compact, embed_direct, jw_to_bk_pauli,
                    pauli_string_matrix)
# run_circuit runs once here, at import, to find the bk readout; it
# stays importable as vqe.run_circuit, a name the benchmark's tracer wraps
from .simulator import (COMPACT_ANSATZ, DIRECT_ANSATZ, JW_TO_BK_NETWORK,
                        Circuit, Statevector, expectation_exact,
                        expectation_sampled, run_circuit, sampled_estimates)

MODES = ("exact", "sampled", "sampled+noise", "sampled+noise+mitigation")
_READOUT_TOL = 1e-8  # imaginary amplitude and leak extract_amplitudes allows


@dataclass(frozen=True)
class Encoding:
    """Everything that tells one qubit encoding of the 4x4 block apart.

    ansatz is the fixed state-preparation Circuit on the n_qubits
    register, and each evaluation prepares it at its own three angles,
    one per rotation in gate order; embed maps a one-body matrix to its
    PauliSum on that register; good_guess are the angles preparing
    (0, -1/sqrt2, +1/sqrt2, 0).  The four basis coefficients sit on the
    register indices `readout`; `angles` inverts them.  scaling_repeats
    is the default repeat count per point of the shot-scaling
    experiment.
    """

    embed: Callable
    ansatz: Circuit
    good_guess: tuple
    readout: tuple
    scaling_repeats: int

    @property
    def n_qubits(self):
        return self.ansatz.n_qubits

    def angles(self, coeffs):
        """The angles preparing the real unit 4-vector `coeffs` on `readout`,
        one atan2 each (README, Encodings); ValueError for other input."""
        v = np.asarray(coeffs)
        if not (v.shape == (4,) and v.dtype.kind in "fiu"
                and abs(np.linalg.norm(v) - 1.0) <= 1e-10):
            raise ValueError(f"need 4 finite reals of unit norm, got {coeffs!r}")
        mid = 2 * np.arctan2(np.hypot(*v[2:]), np.hypot(*v[:2]))
        if self.ansatz is COMPACT_ANSATZ:
            f, g = np.arctan2(v[[1, 2]], v[[0, 3]])
            return float(f + g), float(mid), float(f - g)
        return (float(mid), *map(float, 2 * np.arctan2(v[[0, 3]], v[[1, 2]])))


def _embed_bk(h):
    return jw_to_bk_pauli(embed_direct(h))


# the one-excitation indices 2^i; the bk network permutes basis states,
# and bk reads their images 11, 10, 12, 8 under it
_ONE_EXCITATION = tuple(1 << i for i in range(4))
_BK_READOUT = tuple(
    int(run_circuit(JW_TO_BK_NETWORK, Statevector(np.eye(16)[i]))
        .amplitudes.real.argmax())
    for i in _ONE_EXCITATION)

ENCODINGS = {
    "direct": Encoding(embed_direct, DIRECT_ANSATZ, (1.5 * np.pi, 0.0, 0.0),
                       _ONE_EXCITATION, 244),
    "compact": Encoding(embed_compact, COMPACT_ANSATZ,
                        (0.0, 0.5 * np.pi, -np.pi), (0, 1, 2, 3), 600),
    # the direct ansatz, then the occupancy -> parity-tree network
    "bk": Encoding(_embed_bk,
                   Circuit(4, DIRECT_ANSATZ.gates + JW_TO_BK_NETWORK.gates),
                   (1.5 * np.pi, 0.0, 0.0), _BK_READOUT, 244),
}


def lookup_encoding(name):
    """The Encoding record for `name`; ValueError for an unknown name."""
    try:
        return ENCODINGS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown encoding {name!r}") from None


# Angles preparing the (0, -1/sqrt2, +1/sqrt2, 0) starting state.
GOOD_GUESS = {name: enc.good_guess for name, enc in ENCODINGS.items()}

_METHODS = {"simplex": "Nelder-Mead", "linear-trust-region": "COBYLA"}
OPTIMIZER_METHODS = tuple(_METHODS)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the derivative-free minimizer.

    method names the backend (simplex: adaptive Nelder-Mead;
    linear-trust-region: COBYLA) and max_iterations its budget, a whole
    number; COBYLA needs at least the 3 angles + 2.  tolerance, positive
    and finite, is read by the simplex alone: the change in cost at which
    it stops.  Both backends start from their own default steps.
    """

    method: str = "simplex"
    max_iterations: int = 500
    tolerance: float = 1.0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        # below the 3 angles + 2, scipy's COBYLA warns and runs 5 anyway
        least = 5 if self.method == "linear-trust-region" else 1
        if self.max_iterations % 1 or self.max_iterations < least:
            raise ValueError(f"max_iterations must be a whole number of at "
                             f"least {least} for {self.method}, "
                             f"got {self.max_iterations!r}")
        if not 0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be positive and finite, "
                             f"got {self.tolerance!r}")


@dataclass(frozen=True)
class VqeResult:
    theta: tuple
    energy: float
    trace: tuple          # (evaluation index, best energy so far) pairs
    mode: str
    converged: bool
    n_iterations: int
    std_error: float = None

    def __post_init__(self):
        best = np.inf
        for _, e in self.trace:
            if e > best + 1e-12:
                raise ValueError("trace is not monotone non-increasing")
            best = min(best, e)


def minimize(cost, theta0, config=None, mode="exact"):
    """Derivative-free minimization over the 3 ansatz angles.

    converged=False flags hitting the iteration budget without meeting
    the tolerance.
    """
    # imported here, so that commands which never optimize skip its load
    import scipy.optimize

    config = config or OptimizerConfig()
    best_energy = np.inf
    best_theta = np.asarray(theta0, dtype=float)
    trace = []

    def wrapped(t):
        nonlocal best_energy, best_theta
        e = float(cost(np.asarray(t, dtype=float)))
        if e < best_energy:
            best_energy = e
            best_theta = np.array(t, dtype=float)
        trace.append((len(trace), best_energy))
        return e

    method = _METHODS[config.method]
    options = {"maxiter": config.max_iterations}
    if method == "Nelder-Mead":
        options.update({"fatol": config.tolerance, "adaptive": True})
    res = scipy.optimize.minimize(wrapped, np.asarray(theta0, dtype=float),
                                  method=method, options=options)
    iterations = res.nit if method == "Nelder-Mead" else res.nfev
    return VqeResult(theta=tuple(best_theta), energy=best_energy,
                     trace=tuple(trace), mode=mode,
                     converged=bool(res.success), n_iterations=int(iterations))


def prepared_state(encoding, theta):
    """The encoding's ansatz state at the three angles `theta`.

    The state is v @ `Circuit.monomial_states` of the ansatz, with v the
    27 products ((v_0 v_1) v_2) of v_i = (1, cos theta_i/2, sin theta_i/2).
    Each row of those states has at most one nonzero entry, a real +-1,
    so every amplitude is a signed sum of the angle products that
    `run_circuit` forms gate by gate from the zero state: the two agree
    bit for bit, and this costs about half as much.
    """
    enc = lookup_encoding(encoding)
    if len(theta) != 3:
        raise ValueError(f"ansatz has 3 rotations, got {len(theta)} angles")
    half = np.multiply(theta, 0.5)
    t = np.empty((3, 3))    # column i: (1, cos, sin) of angle i
    t[0] = 1.0
    t[1] = np.cos(half)
    t[2] = np.sin(half)
    v = (t[:, 0, None] * t[:, 1])[:, :, None] * t[:, 2]
    return Statevector(np.dot(v.ravel(), enc.ansatz.monomial_states))


def extract_amplitudes(state, encoding):
    """Real basis coefficients encoded in a prepared qubit state.

    Inverts the encoding map: reads the four coefficients off the
    encoding's readout indices (the whole compact register, the
    one-excitation indices 2^i of the direct register, and their images
    under the bk network).  The global sign is fixed so the
    largest-magnitude coefficient is positive.  Raises if the state
    leaks outside the encoded subspace or carries imaginary amplitude
    beyond _READOUT_TOL.
    """
    enc = lookup_encoding(encoding)
    amps = state.amplitudes
    if np.abs(amps.imag).max() > _READOUT_TOL:
        raise ValueError("state has imaginary amplitudes")
    coeffs = amps.real[list(enc.readout)]
    leak = np.linalg.norm(amps) ** 2 - np.linalg.norm(coeffs) ** 2
    if leak > _READOUT_TOL:
        raise ValueError(f"state leaks outside the encoded subspace "
                         f"by {leak:.3e}")
    coeffs = coeffs / np.linalg.norm(coeffs)
    if coeffs[np.argmax(np.abs(coeffs))] < 0:
        coeffs = -coeffs
    return coeffs


def vqe_run(hamiltonian, encoding, mode="exact", shots=8192, noise=None,
            seed=0, config=None, initial=None):
    """Minimize the energy of `hamiltonian` (a PauliSum) for one encoding.

    The Pauli sum must already be expressed in the requested encoding;
    its qubit count is checked against the ansatz register.  The final
    energy and angles come from the best evaluation seen, the first to
    reach the lowest energy; in sampled modes std_error is that
    evaluation's own combined shot noise, with no further draw, and an
    estimate or error there that is not finite raises ArithmeticError.
    """
    n_qubits = lookup_encoding(encoding).n_qubits
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if hamiltonian.n_qubits != n_qubits:
        raise ValueError(f"{encoding} encoding needs {n_qubits} qubits, "
                         f"operator has {hamiltonian.n_qubits}")
    if mode in ("sampled+noise", "sampled+noise+mitigation") and noise is None:
        raise ValueError(f"mode {mode!r} needs a noise model")
    mitigate = mode == "sampled+noise+mitigation"
    use_noise = noise if mode != "sampled" else None
    errors = {}  # each energy's error at the first evaluation reaching it

    def cost(theta):
        state = prepared_state(encoding, theta)
        if mode == "exact":
            return expectation_exact(state, hamiltonian)
        est, se = expectation_sampled(state, hamiltonian, shots, seed,
                                      noise=use_noise, mitigate=mitigate)
        errors.setdefault(est, se)
        return est

    theta0 = GOOD_GUESS[encoding] if initial is None else initial
    result = minimize(cost, theta0, config=config, mode=mode)
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
    seed: int
    total_shots: int         # shots drawn for the whole table


SHOTS_PER_TERM_GRID = (8, 16, 32, 64, 128, 256)


def scaling_experiment(hamiltonian, encoding, repeats=None, seed=2024,
                       theta=None):
    """RMS relative error of the sampled energy versus shots per term.

    Holds the angles fixed at `theta` (default: `Encoding.angles` of the
    ground state of the sum's readout block), draws `repeats` independent
    estimates (default: the encoding's scaling_repeats) at each shot
    count of SHOTS_PER_TERM_GRID, and fits log eps against log n.
    Returns the fit as n ~ constant / eps^exponent.  Each grid point has
    one seed stream (seed, point index), and all repeats of a point come
    from it in one batched draw.  total_shots counts shots per term x
    measured terms x repeats, summed over the grid.
    """
    enc = lookup_encoding(encoding)
    if theta is None:
        block = hamiltonian.matrix[np.ix_(enc.readout, enc.readout)].real
        theta = enc.angles(np.linalg.eigh(block)[1][:, 0])
    if repeats is None:
        repeats = enc.scaling_repeats
    if repeats < 2 or repeats % 1:
        raise ValueError("need a whole number of repeats, at least 2")
    repeats = int(repeats)

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
                         repeats=repeats, seed=seed,
                         total_shots=sum(SHOTS_PER_TERM_GRID) * measured
                         * repeats)
