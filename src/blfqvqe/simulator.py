"""Statevector circuit simulator with shot sampling and readout mitigation.

Conventions: qubit 0 is the least-significant bit of a basis index (and
the rightmost character of a bitstring or axes string).  Every gate,
Pauli term and measurement basis is one dense 2^n matrix built from
pauli.py's Kronecker convention.  Ry(theta) is the real rotation
[[cos t/2, -sin t/2], [sin t/2, cos t/2]].  A gate is structure only:
the ansätze are fixed circuits, and `run_circuit` takes one angle per
rotation, in gate order.  Each gate's parts are built once
(`_gate_parts`): the read-only matrices of U(a) = A + cos(a/2) B +
sin(a/2) C, or A alone for a fixed gate.  Running a circuit applies its
gates one at a time and checks the norm of the result once.  Every
part is a signed partial permutation, so a circuit's state is
multilinear in the per-rotation vectors (1, cos a/2, sin a/2);
`Circuit.monomial_states` holds the zero state pushed through every
choice of parts, from which vqe.py prepares its ansätze.
Pauli terms are measured by rotating X to Z with H and Y to Z with
S-dagger followed by H, then sampling outcomes.  Each sum's
measurement is compiled once per readout model (`_measurement`): its
basis changes, readout response, and each row's fold of the 2^n
outcomes onto the K distinct values of its weight (K = 2 without
mitigation), one row per non-identity term in axes-string order.  An
evaluation draws those categories, which are all the estimator reads,
for every row from the stream seeded by `seed`, so a fixed seed gives
identical results whatever order the sum lists its terms in.  Each seed's
generator is built once and cached (`_rewound`); every draw first rewinds
it to its seeded start, so it draws exactly what a new
`default_rng(seed)` would.  Repeated estimates add a leading repeats
axis: one multinomial draw of shape (repeats, terms, K) from that
stream, reduced row by row, and the first repeat draws exactly what a
single estimate with that seed draws.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .pauli import BK_CNOTS_4, kron_axes, one_qubit_axes, pauli_string_matrix

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_MEASURE_1Q = {"I": np.eye(2), "Z": np.eye(2), "X": _H,
               "Y": _H @ np.diag([1.0, -1.0j])}

# qubit indices each gate kind takes; the rotations take an angle
_GATE_KINDS = {"X": 1, "Ry": 1, "CNOT": 2, "CRy": 2}
_ROTATIONS = ("Ry", "CRy")


@dataclass(frozen=True)
class Gate:
    """One primitive gate, without an angle; build with the class methods."""

    kind: str
    qubits: tuple = ()

    def __post_init__(self):
        if self.kind not in _GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        try:
            q = tuple(map(operator.index, self.qubits))
        except TypeError:
            raise ValueError(f"gate indices must be integers: "
                             f"{self.qubits!r}") from None
        object.__setattr__(self, "qubits", q)
        if any(x < 0 for x in q) or len(set(q)) != len(q):
            raise ValueError(f"gate indices must be distinct and non-negative: {q}")
        if len(q) != _GATE_KINDS[self.kind]:
            raise ValueError(f"{self.kind} takes {_GATE_KINDS[self.kind]} qubit indices")

    @classmethod
    def x(cls, qubit):
        return cls("X", (qubit,))

    @classmethod
    def ry(cls, qubit):
        return cls("Ry", (qubit,))

    @classmethod
    def cnot(cls, control, target):
        return cls("CNOT", (control, target))

    @classmethod
    def cry(cls, control, target):
        return cls("CRy", (control, target))


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple = field(default_factory=tuple)

    def __post_init__(self):
        try:
            n = operator.index(self.n_qubits)
        except TypeError:
            n = -1
        if n < 0:
            raise ValueError(f"n_qubits must be a non-negative integer: "
                             f"{self.n_qubits!r}")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.qubits) >= self.n_qubits:
                raise ValueError(f"gate {g.kind} on {g.qubits} exceeds "
                                 f"{self.n_qubits} qubits")

    @functools.cached_property
    def monomial_states(self):
        """The circuit run on the zero state with its angles left open: a
        read-only (3^r, 2^n) matrix for r rotations.

        Row sum_i p_i 3^(r-1-i) is the zero state pushed through the
        gates with part p_i of rotation i (0: A, 1: B, 2: C; first
        rotation most significant) and no angle applied.  The state at
        angles a is the dot product of these rows with the 3^r products
        of the vectors (1, cos a_i/2, sin a_i/2), taken in the same order.
        """
        rows = [Statevector.zero(self.n_qubits).amplitudes]
        for g in self.gates:
            parts = [P for P in _gate_parts(g.kind, g.qubits, self.n_qubits)
                     if P is not None]
            rows = [P @ r for r in rows for P in parts]
        return _frozen(np.array(rows))


class Statevector:
    """Normalized complex amplitude vector over 2^n basis states."""

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        n = amps.size.bit_length() - 1
        if 2**n != amps.size:
            raise ValueError(f"length {amps.size} is not a power of 2")
        if not abs(math.sqrt(np.vdot(amps, amps).real) - 1.0) <= 1e-10:
            raise ValueError("amplitudes are not normalized")
        self.amplitudes = amps
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
        for name in ("p01", "p10"):
            if not 0.0 <= (p := getattr(self, name)) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {p!r}")

    def confusion_matrix(self):
        return np.array([[1.0 - self.p01, self.p10],
                         [self.p01, 1.0 - self.p10]])

    @property
    def is_singular(self):
        return abs(self.p01 + self.p10 - 1.0) < 1e-12


def _frozen(M):
    M.setflags(write=False)
    return M


@functools.lru_cache(maxsize=None)
def _gate_parts(kind, qubits, n):
    """Read-only 2^n matrices (A, B, C), built once per gate and register:
    the gate at angle a is A + cos(a/2) B + sin(a/2) C; a fixed gate is A
    (B = C = None).

    Ry(a) = exp(-i a/2 Y) = cos(a/2) I + sin(a/2) (-i Y); a control c
    folds in once, as controlled-U = (I + Z_c)/2 + (I - Z_c)/2 . U.
    """
    *control, target = qubits
    eye = pauli_string_matrix("I" * n)
    if kind not in _ROTATIONS:
        A, B, C = pauli_string_matrix(one_qubit_axes(n, target, "X")), None, None
    else:
        A, B, C = (np.zeros_like(eye), eye,
                   -1j * pauli_string_matrix(one_qubit_axes(n, target, "Y")))
    if control:
        z = pauli_string_matrix(one_qubit_axes(n, control[0], "Z"))
        on = (eye - z) / 2.0
        A = (eye + z) / 2.0 + on @ A
        if B is not None:
            B, C = on @ B, on @ C
    return tuple(P if P is None else _frozen(P) for P in (A, B, C))


def run_circuit(circuit, initial, angles=()):
    """Apply the circuit's gates one at a time, each rotation at its angle
    in `angles` (gate order); the result's norm is checked once, by
    Statevector."""
    if 2**circuit.n_qubits != initial.amplitudes.size:
        raise ValueError("state and circuit dimensions differ")
    rotations = sum(g.kind in _ROTATIONS for g in circuit.gates)
    if len(angles) != rotations:
        raise ValueError(f"circuit has {rotations} rotations, "
                         f"got {len(angles)} angles")
    amps, angles = initial.amplitudes, iter(angles)
    for g in circuit.gates:
        A, B, C = _gate_parts(g.kind, g.qubits, circuit.n_qubits)
        if B is not None:
            half = float(next(angles)) / 2.0
            A = A + np.cos(half) * B + np.sin(half) * C
        amps = A @ amps
    return Statevector(amps)


# 4-qubit circuit spanning the real unit sphere of weight-1 states
DIRECT_ANSATZ = Circuit(4, (
    Gate.x(1),
    Gate.cry(1, 2),
    Gate.cnot(2, 1),
    Gate.cry(1, 0),
    Gate.cry(2, 3),
    Gate.cnot(0, 1),
    Gate.cnot(3, 2),
))

# 2-qubit circuit spanning all real two-qubit states
COMPACT_ANSATZ = Circuit(2, (
    Gate.ry(0),
    Gate.ry(1),
    Gate.cnot(1, 0),
    Gate.ry(0),
))

# 4-qubit CNOT network converting occupancies to parity-tree coordinates
JW_TO_BK_NETWORK = Circuit(4, tuple(Gate.cnot(c, t) for c, t in BK_CNOTS_4))


def expectation_exact(state, pauli_sum):
    """<psi|H|psi> with H the sum's dense matrix; no sampling."""
    if 2**pauli_sum.n_qubits != state.amplitudes.size:
        raise ValueError("state and operator dimensions differ")
    amps = state.amplitudes
    return float(np.vdot(amps, pauli_sum.matrix @ amps).real)


@functools.lru_cache(maxsize=64)
def _measurement(pauli_sum, noise, mitigate):
    """A sum's measurement under one readout model, compiled once: the
    one sampling cache, keyed on the sum object (sums are never changed).

    Returns, arrays read-only: the identity offset; the non-identity
    coefficients c in axes-string order and c^2; the stacked basis
    changes (each X to Z by H, each Y by H S-dagger); the n-fold
    confusion response (None without noise); the fold, flat `bincount`
    indices sending each row's 2^n outcomes to its categories; and the
    category weights g, g^2 of shape (rows, K).

    An outcome's weight is the term's sign, (-1)^(support parity), or
    with mitigation the sign row times (C^-1)^(x n): f.g is then the
    unclipped, unbiased inverse-confusion estimate, and f.g^2 - (f.g)^2
    carries the variance inversion amplifies (Bravyi et al., PRA 103,
    042605 (2021)).  The estimator reads an outcome only through its
    weight, so each distinct weight is one category, numbered in order
    of first occurrence.  Weights are products of one-qubit rows: ones
    off the support (exact, as the columns of C sum to 1), and (1, -1),
    or (1, -1) C^-1 in closed form, on it.  Without mitigation or with
    symmetric flips that row is (a, -a), every weight is +-a^w with the
    same rounding, and a row folds to 2 categories; with asymmetric
    flips a row has w + 1 weights, which rounding may split, so at most
    2^w categories.  Narrower rows are padded in front with
    zero-probability categories, which draw nothing, so the last
    category takes the draw's remainder as before.
    Mitigation without a noise model, or with a singular one, raises.
    """
    if mitigate and noise is None:
        raise ValueError("mitigation needs a readout noise model")
    n = pauli_sum.n_qubits
    d = 2**n
    coefficients = pauli_sum.as_dict()
    offset = coefficients.pop("I" * n, 0.0)
    axes = sorted(coefficients)
    c = np.array([coefficients[a] for a in axes])
    U = np.array([kron_axes(a, _MEASURE_1Q) for a in axes]).reshape(-1, d, d)
    response, support = None, np.array([1.0, -1.0])
    if noise is not None:
        C = noise.confusion_matrix()
        response = _frozen(functools.reduce(np.kron, [C] * n))
    if mitigate:
        if noise.is_singular:
            raise ValueError("confusion matrix is singular: p01 + p10 = 1")
        p01, p10 = noise.p01, noise.p10
        support = (np.array([1.0 + p01 - p10, -(1.0 - p01 + p10)])
                   / (1.0 - p01 - p10))
    weight_1q = {"I": np.ones(2), **dict.fromkeys("XYZ", support)}
    rows = []  # (category of each outcome, weight of each category)
    for a in axes:
        category = {}
        key = [category.setdefault(w, len(category))
               for w in kron_axes(a, weight_1q).ravel().tolist()]
        rows.append((key, list(category)))
    width = max((len(w) for _, w in rows), default=1)
    # row t's category k lands at flat index t width + pad + k
    fold = np.array([np.add(key, width * (t + 1) - len(w))
                     for t, (key, w) in enumerate(rows)], dtype=np.intp)
    g = np.array([[0.0] * (width - len(w)) + w for _, w in rows])
    g = g.reshape(-1, width)
    return (offset, _frozen(c), _frozen(c**2), _frozen(U), response,
            _frozen(fold.reshape(-1)), _frozen(g), _frozen(g**2))


@functools.lru_cache(maxsize=32)
def _seeded(key):
    """A generator seeded by `key` and the bit-generator state it starts in."""
    rng = np.random.default_rng(key)
    return rng, rng.bit_generator.state


def _rewound(seed):
    """The generator `np.random.default_rng(seed)` would build, at its start.

    An int seed (numpy ints too) or a sequence of ints is keyed as
    `default_rng` reads it, and its cached generator (`_seeded`) is
    rewound to its seeded state: ~3 us against ~12 us for seeding anew
    on a 2-CPU machine.  The generator is module state shared by every
    caller, which is safe because the package runs no threads and each
    caller draws from it before the next rewind.  Any other seed
    `default_rng` takes, such as None, builds a fresh generator.
    """
    try:
        key = operator.index(seed)
    except TypeError:
        try:
            key = tuple(map(operator.index, seed))
        except TypeError:
            return np.random.default_rng(seed)
    rng, start = _seeded(key)
    rng.bit_generator.state = start
    return rng


def _estimates(state, pauli_sum, shots_per_term, seed, noise, mitigate,
               repeats):
    """Estimates and standard errors; arrays over repeats unless None.

    Only what changes with the state is done here: the probabilities of
    the compiled bases through the readout response, summed into each
    row's weight categories (`_measurement`), one multinomial draw of
    category frequencies f from the rewound stream of `seed` (`_rewound`;
    rows in axes-string order; a leading repeats axis, filled repeat by
    repeat), and f.g, f.g^2 - (f.g)^2 per term.
    The estimator reads an outcome only through its weight, so drawing
    categories instead of outcomes leaves its distribution unchanged.
    The unsized draw for repeats=None consumes the stream exactly as a
    one-repeat batch but skips its array overhead (~6 us a call on a
    2-CPU machine).
    """
    if shots_per_term < 1 or shots_per_term % 1:
        raise ValueError("need a whole number of shots per term, at least one")
    if 2**pauli_sum.n_qubits != state.amplitudes.size:
        raise ValueError("state and operator dimensions differ")
    offset, c, c2, U, response, fold, g, g2 = _measurement(pauli_sum, noise,
                                                           mitigate)
    P = np.abs(U @ state.amplitudes) ** 2
    P /= P.sum(axis=-1, keepdims=True)
    if response is not None:
        P = P @ response.T
    P = np.bincount(fold, weights=P.ravel(), minlength=g.size).reshape(g.shape)
    size = None if repeats is None else (int(repeats), len(c))
    f = _rewound(seed).multinomial(int(shots_per_term), P,
                                   size=size) / shots_per_term
    fg = (f * g).sum(axis=-1)
    variances = np.maximum(0.0, (f * g2).sum(axis=-1) - fg**2)
    return offset + fg @ c, np.sqrt(variances @ c2 / shots_per_term)


def sampled_estimates(state, pauli_sum, shots_per_term, seed, repeats):
    """`repeats` independent noiseless shot-based estimates of <psi|S|psi>.

    Returns an array of length `repeats`, each entry computed as by
    `expectation_sampled`.  All repeats come from one multinomial draw
    of shape (repeats, terms, 2) over each term's parity categories
    (`_measurement`) from the stream seeded by `seed`; repeat 0 is
    the estimate `expectation_sampled` gives with that seed.
    """
    if repeats < 1 or repeats % 1:
        raise ValueError("need a whole number of repeats, at least one")
    return _estimates(state, pauli_sum, shots_per_term, seed, None, False,
                      repeats)[0]


def expectation_sampled(state, pauli_sum, shots_per_term, seed,
                        noise=None, mitigate=False):
    """Shot-based estimate of <psi|S|psi> with its standard error.

    The non-identity terms are measured in one stacked pass, one row per
    term in axes-string order, all drawn from the stream seeded by `seed`
    (`_rewound`); identity terms contribute exactly.  With a noise model,
    sampled bitstrings pass through per-qubit readout flips; `mitigate`
    (which needs the model) inverts the confusion, as `_measurement`
    describes.  This is the one-repeat case of `sampled_estimates`,
    drawn without the repeats axis.
    """
    est, se = _estimates(state, pauli_sum, shots_per_term, seed, noise,
                         mitigate, None)
    return float(est), float(se)
