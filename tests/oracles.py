"""Independent reference implementations that the tests check the package
against: the paper's ansatz circuits and the Bravyi-Kitaev CNOT network
run gate by gate, the parity-tree encoder matrix behind that network, a
quadrature form of the longitudinal integral, a Gauss-Hermite projection
of the Talmi-Moshinsky brackets, and the sequential minimizer's step
written in numpy alone."""
import functools
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from blfqvqe.basisfuncs import chi, gauss_legendre
from blfqvqe.pauli import BK_CNOTS_4, one_qubit_axes, pauli_string_matrix
from blfqvqe.simulator import Statevector
from blfqvqe.vqe import _DEGREE, OptimizerConfig, VqeResult

# Gate-level circuits.  Qubit 0 is the least-significant bit of a basis
# index, and every gate is one dense 2^n matrix built from pauli.py's
# Kronecker convention.  Ry(a) is the real rotation
# [[cos a/2, -sin a/2], [sin a/2, cos a/2]].  A gate is structure only:
# `run_circuit` takes one angle per rotation, in gate order.

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

# each encoding's ansatz; bk's is the direct ansatz, then the network
ANSATZ = {"direct": DIRECT_ANSATZ, "compact": COMPACT_ANSATZ,
          "bk": Circuit(4, DIRECT_ANSATZ.gates + JW_TO_BK_NETWORK.gates)}


@dataclass(frozen=True)
class EncoderMatrix:
    """Binary lower-triangular encoder over GF(2): b = P f (mod 2)."""

    matrix: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.matrix, dtype=np.uint8) & 1
        object.__setattr__(self, "matrix", P)
        n = P.shape[0]
        if P.shape != (n, n):
            raise ValueError("encoder must be square")
        if np.any(np.diag(P) != 1) or np.any(np.triu(P, 1) != 0):
            raise ValueError("encoder must be lower-triangular with unit diagonal")

    @property
    def size(self):
        return self.matrix.shape[0]

    def encode(self, bits):
        return (self.matrix @ (np.asarray(bits, dtype=np.uint8) & 1)) & 1

    def inverse(self):
        """GF(2) inverse by Gaussian elimination."""
        n = self.size
        aug = np.concatenate([self.matrix.copy(), np.eye(n, dtype=np.uint8)], axis=1)
        for col in range(n):
            pivot = next(r for r in range(col, n) if aug[r, col])
            if pivot != col:
                aug[[col, pivot]] = aug[[pivot, col]]
            for r in range(n):
                if r != col and aug[r, col]:
                    aug[r] ^= aug[col]
        return aug[:, n:]


def bk_encoder(n_modes):
    """Parity-tree encoder matrix: b_i = sum_j P_ij f_j over GF(2).

    Defined for n_modes = 2^k by the standard doubling construction
    P_2N = [[P_N, 0], [rows of ones on the last row, P_N]].
    """
    n = n_modes
    if n < 1 or n & (n - 1):
        raise ValueError(f"encoder defined for power-of-2 sizes, got {n}")
    P = np.array([[1]], dtype=np.uint8)
    while P.shape[0] < n:
        k = P.shape[0]
        top = np.concatenate([P, np.zeros((k, k), dtype=np.uint8)], axis=1)
        lower_left = np.zeros((k, k), dtype=np.uint8)
        lower_left[-1, :] = 1
        bottom = np.concatenate([lower_left, P], axis=1)
        P = np.concatenate([top, bottom], axis=0)
    return EncoderMatrix(P)


def longitudinal_integral_quadrature(a, b_exp, alpha, beta):
    """L(a, b; alpha, beta) by 128-node Gauss-Legendre.

    The integrand vanishes like x^(beta/2) at the endpoints for the
    physical exponents, so no singular treatment is needed.
    """
    x, w = gauss_legendre(128)
    vals = chi(x, alpha, beta) * x**b_exp * (1 - x) ** a
    return float(np.sum(w * vals) / (4 * np.pi))


def _mode_polynomial(n, m, qx, qy):
    # 2D HO momentum mode at b = 1 with the Gaussian stripped
    q2 = qx**2 + qy**2
    norm = np.exp(0.5 * (np.log(4.0 * np.pi) + gammaln(n + 1)
                         - gammaln(n + abs(m) + 1)))
    return (norm * np.sqrt(q2) ** abs(m) * eval_genlaguerre(n, abs(m), q2)
            * np.exp(1j * m * np.arctan2(qy, qx)))


def tm_coefficient_projection(n_prime, m_prime, n, m, big_n, big_m, n_bar,
                              m_bar):
    """C(n', -m', n, m; N, M, nbar, mbar) by 4D Gauss-Hermite projection.

    The overlap of phi_{n',-m'}(q1) phi_{n,m}(q2) with
    phi_{N,M}(P) phi_{nbar,mbar}(p), P = (q1+q2)/sqrt2, p = (q1-q2)/sqrt2,
    as a complex number.  The integrand is exp(-P^2 - p^2) times a
    polynomial of total degree 2N+|M| + 2nbar+|mbar| + 2n'+|m'| + 2n+|m|,
    which is 2(|m'| + |m|) <= 8 on the energy shell at n = n' = 0, |m| <= 2;
    8 nodes per axis are exact up to degree 15 in each variable.
    """
    t, w = np.polynomial.hermite.hermgauss(8)
    px, py, rx, ry = np.meshgrid(t, t, t, t, indexing="ij", sparse=True)
    wx, wy, wrx, wry = np.meshgrid(w, w, w, w, indexing="ij", sparse=True)
    s2 = np.sqrt(2.0)
    integrand = (np.conj(_mode_polynomial(big_n, big_m, px, py))
                 * np.conj(_mode_polynomial(n_bar, m_bar, rx, ry))
                 * _mode_polynomial(n_prime, -m_prime, (px + rx) / s2,
                                    (py + ry) / s2)
                 * _mode_polynomial(n, m, (px - rx) / s2, (py - ry) / s2))
    return complex(np.sum(wx * wy * wrx * wry * integrand) / (2.0 * np.pi) ** 4)


def reference_minimize(cost, theta0, kinds, config=None, mode="exact"):
    """`blfqvqe.vqe.minimize` with every step built anew from numpy arrays:
    the unit step, harmonics and shifts per angle update, and the Newton
    polish as array sums over the harmonics m = 1..k."""
    config = config or OptimizerConfig()
    theta, best, trace = np.array(theta0, dtype=float), np.inf, []

    def evaluate(t):
        nonlocal best, theta
        e = float(cost(t))
        if e < best:
            best, theta = e, t
        trace.append(e)
        return e

    evaluate(theta)
    converged = spent = False
    while not (converged or spent):
        start = best
        for i, kind in enumerate(kinds):
            k = _DEGREE[kind]
            spent = len(trace) + 2 * k + 1 > config.max_iterations
            if spent:
                break
            base, unit, m = theta, k * np.eye(theta.size)[i], np.arange(1, k + 1)
            # the curve at phase p is Re(F_0 + 2 sum_m F_m e^imp) / (2k + 1)
            shifts = 2 * np.pi * np.arange(1, 2 * k + 1) / (2 * k + 1)
            F = np.fft.rfft([best, *(evaluate(base + unit * s) for s in shifts)])
            p = 2 * np.pi * np.argmin(np.fft.irfft(F, 32)) / 32
            for _ in range(4):  # Newton steps on the slope where it is convex
                z = F[1:] * np.exp(1j * m * p)
                if (m * m * z.real).sum() < 0:
                    p -= (m * z.imag).sum() / (m * m * z.real).sum()
            evaluate(base + unit * (np.remainder(p + np.pi, 2 * np.pi) - np.pi))
        converged = not spent and start - best < config.tolerance
    return VqeResult(theta=tuple(theta), energy=best, trace=tuple(trace),
                     mode=mode, converged=converged)
