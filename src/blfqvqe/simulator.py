"""Statevector circuit simulator with shot sampling and readout mitigation.

Conventions: qubit 0 is the least-significant bit of a basis index (and
the rightmost character of a bitstring or axes string).  Ry(theta) is the
real rotation [[cos t/2, -sin t/2], [sin t/2, cos t/2]]; PauliExponential
applies exp(+i * angle * P).  Pauli terms are measured one at a time by
rotating X to Z with H and Y to Z with S-dagger followed by H, then
sampling bitstrings; the sampling stream for a term is seeded by
(seed, term rank) with non-identity terms ranked 1, 2, ... in axes-string
order, so a fixed seed gives identical results regardless of evaluation
schedule.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pauli import _PAULI_1Q, PauliString, PauliSum

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_SDG = np.diag([1.0, -1.0j])
_HSDG = _H @ _SDG

_GATE_KINDS = ("X", "Ry", "CNOT", "CRy", "PauliExponential")


@dataclass(frozen=True)
class Gate:
    """One primitive gate; build with the class methods."""

    kind: str
    qubits: tuple = ()
    angle: float = None
    axes: str = None

    def __post_init__(self):
        if self.kind not in _GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        q = tuple(int(x) for x in self.qubits)
        object.__setattr__(self, "qubits", q)
        if any(x < 0 for x in q) or len(set(q)) != len(q):
            raise ValueError(f"gate indices must be distinct and non-negative: {q}")
        n_expected = {"X": 1, "Ry": 1, "CNOT": 2, "CRy": 2, "PauliExponential": 0}
        if len(q) != n_expected[self.kind]:
            raise ValueError(f"{self.kind} takes {n_expected[self.kind]} qubit indices")
        if self.kind in ("Ry", "CRy", "PauliExponential") and self.angle is None:
            raise ValueError(f"{self.kind} needs an angle")
        if self.kind == "PauliExponential":
            if not self.axes or any(ch not in "IXYZ" for ch in self.axes):
                raise ValueError("PauliExponential needs an axes string over I,X,Y,Z")

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

    @classmethod
    def pauli_exp(cls, axes, angle):
        if isinstance(axes, PauliString):
            axes = axes.axes
        return cls("PauliExponential", (), angle=float(angle), axes=axes)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if g.qubits and max(g.qubits) >= self.n_qubits:
                raise ValueError(f"gate {g.kind} on {g.qubits} exceeds "
                                 f"{self.n_qubits} qubits")
            if g.kind == "PauliExponential" and len(g.axes) != self.n_qubits:
                raise ValueError("PauliExponential axes must span the register")

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

    def probabilities(self):
        return np.abs(self.amplitudes) ** 2

    def copy(self):
        return Statevector(self.amplitudes)


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


@dataclass(frozen=True)
class ShotRecord:
    """Measured bitstring counts for one Pauli term (qubit 0 rightmost)."""

    counts: dict
    total: int
    seed: object = None

    def __post_init__(self):
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts do not sum to the declared total")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("negative count")

    def frequency_vector(self, n_qubits):
        freqs = np.zeros(2**n_qubits)
        for bits, c in self.counts.items():
            freqs[int(bits, 2)] = c / self.total
        return freqs


def _apply_single(amps, U, qubit, n):
    view = amps.reshape([2] * n)
    ax = n - 1 - qubit
    view = np.moveaxis(view, ax, 0)
    out = np.tensordot(U, view, axes=(1, 0))
    return np.moveaxis(out, 0, ax).reshape(-1)


def _apply_controlled(amps, U, control, target, n):
    view = amps.reshape([2] * n).copy()
    c_ax = n - 1 - control
    t_ax = n - 1 - target
    idx = [slice(None)] * n
    idx[c_ax] = 1
    sub = view[tuple(idx)]
    t_sub = t_ax - 1 if t_ax > c_ax else t_ax
    sub = np.moveaxis(sub, t_sub, 0)
    sub = np.tensordot(U, sub, axes=(1, 0))
    view[tuple(idx)] = np.moveaxis(sub, 0, t_sub)
    return view.reshape(-1)


def _apply_pauli_string(amps, axes, n):
    out = amps
    for q in range(n):
        ch = axes[n - 1 - q]
        if ch != "I":
            out = _apply_single(out, _PAULI_1Q[ch], q, n)
    return out


def _ry(angle):
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def run_circuit(circuit, initial):
    """Apply the circuit's gates in order, checking the norm after each."""
    if 2**circuit.n_qubits != initial.amplitudes.size:
        raise ValueError("state and circuit dimensions differ")
    amps = initial.amplitudes.copy()
    n = circuit.n_qubits
    for g in circuit:
        if g.kind == "X":
            amps = _apply_single(amps, _PAULI_1Q["X"], g.qubits[0], n)
        elif g.kind == "Ry":
            amps = _apply_single(amps, _ry(g.angle), g.qubits[0], n)
        elif g.kind == "CNOT":
            amps = _apply_controlled(amps, _PAULI_1Q["X"], g.qubits[0],
                                     g.qubits[1], n)
        elif g.kind == "CRy":
            amps = _apply_controlled(amps, _ry(g.angle), g.qubits[0], g.qubits[1], n)
        else:  # PauliExponential: exp(i a P) = cos(a) I + i sin(a) P
            rotated = _apply_pauli_string(amps, g.axes, n)
            amps = np.cos(g.angle) * amps + 1j * np.sin(g.angle) * rotated
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


def jw_to_bk_circuit(n=4):
    """CNOT network converting occupancies to parity-tree coordinates."""
    if n != 4:
        raise ValueError("conversion circuit tabulated for 4 qubits only")
    from .pauli import BK_CNOTS_4
    return Circuit(4, tuple(Gate.cnot(c, t) for c, t in BK_CNOTS_4))


def expectation_exact(state, pauli_sum):
    """Sum of c_a <psi|P_a|psi> with no sampling."""
    if 2**pauli_sum.n_qubits != state.amplitudes.size:
        raise ValueError("state and operator dimensions differ")
    amps = state.amplitudes
    n = pauli_sum.n_qubits
    total = 0.0
    for t in pauli_sum.terms:
        total += t.coefficient * np.vdot(amps, _apply_pauli_string(amps, t.axes, n)).real
    return float(total)


def _support_signs(axes, n):
    mask = 0
    for q in range(n):
        if axes[n - 1 - q] != "I":
            mask |= 1 << q
    signs = np.array([(-1.0) ** bin(k & mask).count("1") for k in range(2**n)])
    return signs


def _measurement_probabilities(state, axes, n):
    amps = state.amplitudes
    for q in range(n):
        ch = axes[n - 1 - q]
        if ch == "X":
            amps = _apply_single(amps, _H, q, n)
        elif ch == "Y":
            amps = _apply_single(amps, _HSDG, q, n)
    p = np.abs(amps) ** 2
    return p / p.sum()


def _apply_confusion(probabilities, matrix, n):
    p = probabilities
    for q in range(n):
        p = _apply_single(p.astype(float), matrix, q, n).real
    return p


def corrected_frequencies(freqs, noise, n):
    """Invert the tensor-product confusion model on observed frequencies.

    Negative entries from the inversion are clipped to zero and the vector
    renormalized.  Raises for a singular calibration (p01 + p10 = 1).
    """
    if noise.is_singular:
        raise ValueError("confusion matrix is singular: p01 + p10 = 1")
    inv = np.linalg.inv(noise.confusion_matrix())
    p = _apply_confusion(freqs, inv, n)
    p = np.clip(p, 0.0, None)
    s = p.sum()
    if s <= 0.0:
        raise ValueError("mitigation produced an empty distribution")
    return p / s


def mitigate_readout(record, noise, support_axes=None):
    """Corrected Z-parity expectation from raw counts.

    support_axes names the measured term ("IZZI" style, identity letters
    excluded from the parity); by default every qubit participates.
    """
    n = max(len(bits) for bits in record.counts)
    freqs = record.frequency_vector(n)
    p = corrected_frequencies(freqs, noise, n)
    axes = support_axes if support_axes is not None else "Z" * n
    return float(p @ _support_signs(axes, n))


def expectation_sampled(state, pauli_sum, shots_per_term, seed,
                        noise=None, mitigate=False):
    """Shot-based estimate of <psi|S|psi> with its standard error.

    Each non-identity term is measured in its own basis with an
    independent substream seeded by (seed, term rank); identity terms
    contribute exactly.  With a noise model, sampled bitstrings pass
    through per-qubit readout flips; mitigation inverts the known
    confusion matrix on the observed frequencies.
    """
    if shots_per_term < 1:
        raise ValueError("need at least one shot per term")
    n = pauli_sum.n_qubits
    if 2**n != state.amplitudes.size:
        raise ValueError("state and operator dimensions differ")
    estimate = 0.0
    variance = 0.0
    term_rank = 0
    for t in sorted(pauli_sum.terms, key=lambda t: t.axes):
        if set(t.axes) == {"I"}:
            estimate += t.coefficient
            continue
        term_rank += 1
        p = _measurement_probabilities(state, t.axes, n)
        if noise is not None:
            p = _apply_confusion(p, noise.confusion_matrix(), n)
        rng = np.random.default_rng([seed, term_rank])
        counts = rng.multinomial(shots_per_term, p)
        freqs = counts / shots_per_term
        if mitigate and noise is not None:
            freqs = corrected_frequencies(freqs, noise, n)
        mean = float(freqs @ _support_signs(t.axes, n))
        estimate += t.coefficient * mean
        variance += t.coefficient**2 * max(0.0, 1.0 - mean**2) / shots_per_term
    return estimate, float(np.sqrt(variance))


def sample_term(state, axes, shots, seed, noise=None):
    """Raw bitstring counts for one Pauli term's measurement basis."""
    n = state.n_qubits
    p = _measurement_probabilities(state, axes, n)
    if noise is not None:
        p = _apply_confusion(p, noise.confusion_matrix(), n)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(int(shots), p)
    record = {format(k, f"0{n}b"): int(c) for k, c in enumerate(counts) if c}
    return ShotRecord(record, int(shots), seed=seed)


def overlap_magnitude(ansatz, v):
    """|<v|psi>| via reflection to |1..1> and an ancilla-flagged MCX.

    Runs the ansatz from |0..0>, reflects v onto the all-ones state with
    a Householder mirror, flips an ancilla controlled on every register
    qubit, un-reflects, and reads sqrt P(ancilla = 1).
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("reference vector must be normalized")
    n = int(np.log2(v.size))
    if 2**n != v.size or 2**n != 2**ansatz.n_qubits:
        raise ValueError("reference vector does not match the ansatz register")
    psi = run_circuit(ansatz, Statevector.zero(n)).amplitudes

    dim = v.size
    ones = np.zeros(dim, dtype=complex)
    ones[-1] = 1.0
    w = v - ones
    nw2 = np.vdot(w, w).real
    if nw2 < 1e-24:
        reflect = np.eye(dim, dtype=complex)
    else:
        reflect = np.eye(dim, dtype=complex) - 2.0 * np.outer(w, w.conj()) / nw2
    if np.abs(reflect @ v - ones).max() > 1e-8:
        raise ValueError("reflection does not map the reference to all-ones")

    # ancilla = qubit n (high bit): full index = anc * dim + k
    full = np.concatenate([psi, np.zeros(dim, dtype=complex)])
    full[:dim] = reflect @ full[:dim]
    full[dim - 1], full[2 * dim - 1] = full[2 * dim - 1], full[dim - 1]
    full[:dim] = reflect.conj().T @ full[:dim]
    full[dim:] = reflect.conj().T @ full[dim:]
    return float(np.sqrt((np.abs(full[dim:]) ** 2).sum()))
