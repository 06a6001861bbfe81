"""Statevector circuit simulator with shot sampling and readout mitigation.

Conventions: qubit 0 is the least-significant bit of a basis index (and
the rightmost character of a bitstring or axes string).  Every gate,
Pauli term and measurement basis is one dense 2^n matrix built from
pauli.py's Kronecker convention.  Ry(theta) is the real rotation
[[cos t/2, -sin t/2], [sin t/2, cos t/2]].  Pauli terms are measured by
rotating X to Z with H and Y to Z with S-dagger followed by H, then
sampling bitstrings.  A sum's non-identity terms are measured in one
stacked pass: one row per term in axes-string order, every row drawn
from the one generator seeded by `seed`, so a fixed seed gives
identical results whatever order the sum lists its terms in.  Repeated
estimates add a leading repeats axis: one multinomial draw of shape
(repeats, terms, 2^n) from that generator, reduced row by row, and the
first repeat draws exactly what a single estimate with that seed draws.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .pauli import BK_CNOTS_4, kron_axes, one_qubit_axes, pauli_string_matrix

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_MEASURE_1Q = {"I": np.eye(2), "Z": np.eye(2), "X": _H,
               "Y": _H @ np.diag([1.0, -1.0j])}
# per-qubit outcome signs of a parity: every support letter reads as Z
_PARITY_1Q = {"I": np.ones(2), **dict.fromkeys("XYZ", np.array([1.0, -1.0]))}

# qubit indices each gate kind takes
_GATE_KINDS = {"X": 1, "Ry": 1, "CNOT": 2, "CRy": 2}


@dataclass(frozen=True)
class Gate:
    """One primitive gate; build with the class methods."""

    kind: str
    qubits: tuple = ()
    angle: float = None

    def __post_init__(self):
        if self.kind not in _GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        q = tuple(int(x) for x in self.qubits)
        object.__setattr__(self, "qubits", q)
        if any(x < 0 for x in q) or len(set(q)) != len(q):
            raise ValueError(f"gate indices must be distinct and non-negative: {q}")
        if len(q) != _GATE_KINDS[self.kind]:
            raise ValueError(f"{self.kind} takes {_GATE_KINDS[self.kind]} qubit indices")
        if self.kind in ("Ry", "CRy") and self.angle is None:
            raise ValueError(f"{self.kind} needs an angle")

    @classmethod
    def x(cls, qubit):
        return cls("X", (qubit,))

    @classmethod
    def ry(cls, qubit, angle):
        return cls("Ry", (qubit,), angle=float(angle))

    @classmethod
    def cnot(cls, control, target):
        return cls("CNOT", (control, target))

    @classmethod
    def cry(cls, control, target, angle):
        return cls("CRy", (control, target), angle=float(angle))


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.qubits) >= self.n_qubits:
                raise ValueError(f"gate {g.kind} on {g.qubits} exceeds "
                                 f"{self.n_qubits} qubits")

    def __len__(self):
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)


class Statevector:
    """Normalized complex amplitude vector over 2^n basis states."""

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = int(np.log2(amps.size))
        if 2**n != amps.size:
            raise ValueError(f"length {amps.size} is not a power of 2")
        if abs(np.linalg.norm(amps) - 1.0) > 1e-10:
            raise ValueError("amplitudes are not normalized")
        self.amplitudes = amps.copy()
        self.n_qubits = n

    @classmethod
    def zero(cls, n_qubits):
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(amps)


@dataclass(frozen=True)
class ReadoutNoiseModel:
    """Independent per-qubit readout flips: p01 = P(read 1 | true 0)."""

    p01: float
    p10: float

    def __post_init__(self):
        for p in (self.p01, self.p10):
            if not (0.0 <= p < 1.0):
                raise ValueError(f"flip probability out of [0,1): {p}")

    def confusion_matrix(self):
        return np.array([[1.0 - self.p01, self.p10],
                         [self.p01, 1.0 - self.p10]])

    @property
    def is_singular(self):
        return abs(self.p01 + self.p10 - 1.0) < 1e-12


def _exp_pauli(axes, angle):
    """exp(i angle P) = cos(angle) I + i sin(angle) P."""
    return (np.cos(angle) * pauli_string_matrix("I" * len(axes))
            + 1j * np.sin(angle) * pauli_string_matrix(axes))


def _gate_matrix(gate, n):
    """The gate as one 2^n matrix built from cached Pauli strings."""
    *control, target = gate.qubits
    if gate.kind in ("X", "CNOT"):
        U = pauli_string_matrix(one_qubit_axes(n, target, "X"))
    else:  # Ry(a) = exp(-i a/2 Y)
        U = _exp_pauli(one_qubit_axes(n, target, "Y"), -gate.angle / 2.0)
    if not control:
        return U
    # controlled-U = (I + Z_c)/2 + (I - Z_c)/2 . U
    eye = pauli_string_matrix("I" * n)
    z = pauli_string_matrix(one_qubit_axes(n, control[0], "Z"))
    return (eye + z) / 2.0 + ((eye - z) / 2.0) @ U


def run_circuit(circuit, initial):
    """Apply the circuit's gates in order, checking the norm after each."""
    if 2**circuit.n_qubits != initial.amplitudes.size:
        raise ValueError("state and circuit dimensions differ")
    amps = initial.amplitudes
    for g in circuit:
        amps = _gate_matrix(g, circuit.n_qubits) @ amps
        if abs(np.linalg.norm(amps) - 1.0) > 1e-10:
            raise RuntimeError(f"norm drifted after {g.kind} gate")
    return Statevector(amps)


def direct_ansatz(theta1, theta2, theta3):
    """4-qubit circuit spanning the real unit sphere of weight-1 states."""
    return Circuit(4, (
        Gate.x(1),
        Gate.cry(1, 2, theta1),
        Gate.cnot(2, 1),
        Gate.cry(1, 0, theta2),
        Gate.cry(2, 3, theta3),
        Gate.cnot(0, 1),
        Gate.cnot(3, 2),
    ))


def compact_ansatz(theta1, theta2, theta3):
    """2-qubit circuit spanning all real two-qubit states."""
    return Circuit(2, (
        Gate.ry(0, theta1),
        Gate.ry(1, theta2),
        Gate.cnot(1, 0),
        Gate.ry(0, theta3),
    ))


def jw_to_bk_circuit():
    """4-qubit CNOT network converting occupancies to parity-tree coordinates."""
    return Circuit(4, tuple(Gate.cnot(c, t) for c, t in BK_CNOTS_4))


def expectation_exact(state, pauli_sum):
    """<psi|H|psi> with H the sum's dense matrix; no sampling."""
    if 2**pauli_sum.n_qubits != state.amplitudes.size:
        raise ValueError("state and operator dimensions differ")
    amps = state.amplitudes
    return float(np.vdot(amps, pauli_sum.matrix @ amps).real)


def _frozen(M):
    M.setflags(write=False)
    return M


@functools.lru_cache(maxsize=256)
def _measurement_rows(axes, n):
    """Stacked basis changes and parity-sign rows of the terms `axes`.

    Row k rotates each X (by H) and Y (by H S-dagger) of axes[k] onto Z;
    its sign row holds (-1)^(parity of the term's support bits) for every
    outcome.
    """
    d = 2**n
    U = np.array([kron_axes(a, _MEASURE_1Q) for a in axes]).reshape(-1, d, d)
    signs = np.array([kron_axes(a, _PARITY_1Q) for a in axes]).reshape(-1, d)
    return _frozen(U), _frozen(signs)


@functools.lru_cache(maxsize=1024)
def _confusion_power(noise, n, inverse=False):
    """n-fold Kronecker power of the confusion matrix or of its inverse."""
    C = noise.confusion_matrix()
    if inverse:
        if noise.is_singular:
            raise ValueError("confusion matrix is singular: p01 + p10 = 1")
        C = np.linalg.inv(C)
    return _frozen(functools.reduce(np.kron, [C] * n))


def _term_counts(state, axes, shots, seed, noise=None, repeats=None):
    """Outcome counts, one row per term, all drawn from one generator.

    With `repeats` the counts gain a leading axis of that length; the
    generator fills it repeat by repeat, each repeat in term order.
    """
    n = state.n_qubits
    P = np.abs(_measurement_rows(axes, n)[0] @ state.amplitudes) ** 2
    P /= P.sum(axis=-1, keepdims=True)
    if noise is not None:
        P = P @ _confusion_power(noise, n).T
    size = None if repeats is None else (repeats, len(axes))
    return np.random.default_rng(seed).multinomial(int(shots), P, size=size)


def _parity_estimate(freqs, signs, mitigation=None):
    """Row by row: each term's parity mean f.g and single-shot variance.

    Without mitigation g is the sign row s.  With it g = (C^-1)^(x n, T) s,
    so f.g is the unclipped inverse-confusion estimate, unbiased for the
    noiseless parity, and the variance f.g^2 - (f.g)^2 carries the
    amplification of inverting the confusion (Bravyi et al., PRA 103,
    042605 (2021)).  A singular calibration (p01 + p10 = 1) raises.
    """
    g = signs
    if mitigation is not None:
        n = int(np.log2(signs.shape[-1]))
        g = signs @ _confusion_power(mitigation, n, inverse=True)
    fg = (freqs * g).sum(axis=-1)
    return fg, np.maximum(0.0, (freqs * g**2).sum(axis=-1) - fg**2)


def _estimates(state, pauli_sum, shots_per_term, seed, noise, mitigate,
               repeats):
    """Estimates and standard errors; arrays over repeats unless None.

    The unsized draw for repeats=None consumes the stream exactly as a
    one-repeat batch but skips its array overhead: ~6 us a call, 5-9% of
    the noisy-vqe benchmark's job_ms on a 2-CPU machine.
    """
    if shots_per_term < 1:
        raise ValueError("need at least one shot per term")
    n = pauli_sum.n_qubits
    if 2**n != state.amplitudes.size:
        raise ValueError("state and operator dimensions differ")
    coefficients = pauli_sum.as_dict()
    offset = coefficients.pop("I" * n, 0.0)
    axes = tuple(sorted(coefficients))
    c = np.array([coefficients[a] for a in axes])
    counts = _term_counts(state, axes, shots_per_term, seed, noise, repeats)
    means, variances = _parity_estimate(counts / shots_per_term,
                                        _measurement_rows(axes, n)[1],
                                        noise if mitigate else None)
    return (offset + means @ c,
            np.sqrt(variances @ c**2 / shots_per_term))


def sampled_estimates(state, pauli_sum, shots_per_term, seed, repeats):
    """`repeats` independent noiseless shot-based estimates of <psi|S|psi>.

    Returns an array of length `repeats`, each entry computed as by
    `expectation_sampled`.  All repeats come from one multinomial draw
    of shape (repeats, terms, 2^n) on the one generator seeded by
    `seed`; repeat 0 is the estimate `expectation_sampled` gives with
    that seed.
    """
    if repeats < 1:
        raise ValueError("need at least one repeat")
    return _estimates(state, pauli_sum, shots_per_term, seed, None, False,
                      repeats)[0]


def expectation_sampled(state, pauli_sum, shots_per_term, seed,
                        noise=None, mitigate=False):
    """Shot-based estimate of <psi|S|psi> with its standard error.

    The non-identity terms are measured in one stacked pass, one row per
    term in axes-string order, all drawn from one generator seeded by
    `seed`; identity terms contribute exactly.  With a noise model,
    sampled bitstrings pass through per-qubit readout flips; mitigation
    weights the observed frequencies by each parity's signs through the
    inverse of the known confusion matrix, without clipping, and the
    standard error includes the variance that inversion amplifies.
    This is the one-repeat case of `sampled_estimates`, drawn without
    the repeats axis.
    """
    est, se = _estimates(state, pauli_sum, shots_per_term, seed, noise,
                         mitigate, None)
    return float(est), float(se)
