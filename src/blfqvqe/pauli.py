"""Pauli-string algebra and the fermionic encodings.

Qubit ordering convention used everywhere: qubit 0 is the rightmost letter
of an axes string and the least-significant bit of a computational basis
label, so "IIXY" applies X to qubit 1 and Y to qubit 0.  In the direct
(occupation) encoding, qubit i stores the occupancy of basis state i+1,
i.e. the weight-1 label 2^i represents the (i+1)-th orbital.

Three encodings of a one-body operator h are provided:
  * embed_direct: one qubit per orbital, hoppings become
    (X Z..Z X + Y Z..Z Y)/2 chains and diagonal entries (I - Z)/2;
  * jw_to_bk_pauli: conjugates the direct image by a fixed CNOT network,
    mapping occupancies to their binary-tree parities;
  * embed_compact: stores the orbital index in binary, so h is expanded
    directly in the 2^n-dimensional Pauli basis.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .basisfuncs import require_real
from .hamiltonian import HermitianObservable

_AXES = "IXYZ"
_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """One tensor product of single-qubit Paulis with a real coefficient."""

    axes: str
    coefficient: float

    def __post_init__(self):
        if not self.axes or any(ch not in _AXES for ch in self.axes):
            raise ValueError(f"axes must be a nonempty string over I,X,Y,Z: {self.axes!r}")
        require_real("coefficient", self.coefficient)
        if not np.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")

    @property
    def n_qubits(self):
        return len(self.axes)

    @property
    def weight(self):
        return sum(ch != "I" for ch in self.axes)


class PauliSum:
    """Weighted sum of Pauli strings on a fixed register.

    Duplicate axes are merged on construction; terms whose merged
    coefficient vanishes are dropped.
    """

    def __init__(self, terms, n_qubits=None):
        merged = {}  # insertion-ordered: first appearance of each axes
        for t in terms:
            if isinstance(t, PauliString):
                axes, coeff = t.axes, t.coefficient
            else:
                axes, coeff = t
                require_real("coefficient", coeff)
            if n_qubits is None:
                n_qubits = len(axes)
            if len(axes) != n_qubits:
                raise ValueError("all strings must act on the same register")
            merged[axes] = merged.get(axes, 0.0) + float(coeff)
        if n_qubits is None:
            raise ValueError("empty sum needs an explicit n_qubits")
        self.n_qubits = n_qubits
        self.terms = tuple(PauliString(a, c) for a, c in merged.items()
                           if c != 0.0)

    def as_dict(self):
        return {t.axes: t.coefficient for t in self.terms}

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    @functools.cached_property
    def matrix(self):
        """Dense complex 2^n matrix of the sum, built once; read-only."""
        M = sum((t.coefficient * pauli_string_matrix(t.axes) for t in self.terms),
                np.zeros((2**self.n_qubits,) * 2, dtype=complex))
        M.setflags(write=False)
        return M

    def __repr__(self):
        inner = " + ".join(f"{t.coefficient:g}*{t.axes}" for t in self.terms)
        return f"PauliSum({inner or '0'})"


def kron_axes(axes, letters):
    """Kronecker product of letters[ch] over an axes string, as a new array;
    the leftmost letter acts on the highest qubit.  Every axes-string
    matrix in the package is built here."""
    return functools.reduce(np.kron, [letters[ch] for ch in axes], np.ones((1, 1)))


@functools.lru_cache(maxsize=1024)  # bounded: embed_compact visits all 4^n
def pauli_string_matrix(axes):
    """Dense 2^n matrix of one axes string, cached per string; read-only."""
    M = kron_axes(axes, _PAULI_1Q)
    M.setflags(write=False)
    return M


def pauli_sum_to_matrix(pauli_sum):
    """Dense matrix of a PauliSum; requires a real-symmetric result."""
    M = pauli_sum.matrix
    if np.abs(M.imag).max() > 1e-12 * max(1.0, np.abs(M.real).max()):
        raise ValueError("sum has an imaginary matrix part; not representable "
                         "as a real symmetric observable")
    return HermitianObservable(M.real)


def one_qubit_axes(n_qubits, qubit, letter):
    """Axes string with `letter` on one qubit and I elsewhere."""
    return "I" * (n_qubits - 1 - qubit) + letter + "I" * qubit


def _chain_axes(i, j, n_qubits, end):
    # 1-based orbital indices i < j -> qubits i-1, j-1 with a Z chain between
    axes = ["I"] * n_qubits
    axes[i - 1] = axes[j - 1] = end
    for q in range(i, j - 1):
        axes[q] = "Z"
    return "".join(reversed(axes))  # leftmost letter = highest qubit


def jw_hopping_pauli(i, j, n_qubits):
    """Occupation-encoding image of one-body ladder bilinears.

    Orbital indices are 1-based.  For i == j returns the number operator
    (I - Z_i)/2; for i < j the hopping a+_i a_j + a+_j a_i ->
    (X Z..Z X + Y Z..Z Y)/2.
    """
    if not (1 <= i <= n_qubits and 1 <= j <= n_qubits):
        raise IndexError(f"orbital indices out of range: {i}, {j}")
    if i == j:
        return PauliSum([("I" * n_qubits, 0.5),
                         (one_qubit_axes(n_qubits, i - 1, "Z"), -0.5)])
    if i > j:
        raise IndexError("need i < j")
    return PauliSum([(_chain_axes(i, j, n_qubits, "X"), 0.5),
                     (_chain_axes(i, j, n_qubits, "Y"), 0.5)])


def embed_direct(h):
    """Occupation-encoding image of a one-body operator matrix h (N qubits).

    Restricted to the Hamming-weight-1 subspace the image is exactly h.
    """
    M = h.entries if isinstance(h, HermitianObservable) else np.asarray(h, dtype=float)
    n = M.shape[0]
    terms = []
    for i in range(n):
        for t in jw_hopping_pauli(i + 1, i + 1, n).terms:
            terms.append((t.axes, M[i, i] * t.coefficient))
    for i in range(n):
        for j in range(i + 1, n):
            if M[i, j] == 0.0:
                continue
            for t in jw_hopping_pauli(i + 1, j + 1, n).terms:
                terms.append((t.axes, M[i, j] * t.coefficient))
    return PauliSum(terms, n_qubits=n)


def embed_compact(h):
    """Binary encoding: expand a real symmetric 2^n x 2^n matrix h over
    n >= 1 qubits as sum_a c_a P_a, c_a = tr(h P_a) / 2^n.

    Coefficients below 1e-9 * max|h| are dropped as numeric dust.
    """
    M = h.entries if isinstance(h, HermitianObservable) else np.asarray(h, dtype=float)
    dim = M.shape[0]
    if M.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise ValueError(f"compact encoding needs a 2^n x 2^n matrix, n >= 1; "
                         f"got shape {M.shape}")
    n_qubits = dim.bit_length() - 1
    threshold = 1e-9 * (np.abs(M).max() or 1.0)
    terms = []
    for axes in map("".join, itertools.product(_AXES, repeat=n_qubits)):
        c = np.trace(pauli_string_matrix(axes) @ M) / dim
        if abs(c.imag) > 1e-9 * max(1.0, abs(c.real)):
            raise ValueError("matrix is not real symmetric")
        if abs(c.real) > threshold:
            terms.append((axes, c.real))
    return PauliSum(terms, n_qubits=n_qubits)


# CNOT network (control, target), in application order, realizing the 4-mode
# parity-tree encoder |f> -> |b> over GF(2): b0 = f0, b1 = f0+f1, b2 = f2,
# b3 = f0+f1+f2+f3.
BK_CNOTS_4 = ((0, 3), (1, 3), (0, 1), (2, 3))


def _conjugate_by_cnot(x, z, control, target):
    """Symplectic update of one Pauli under CNOT conjugation.

    Bit rules: x_t ^= x_c, z_c ^= z_t; the sign flips exactly for the
    X_c Z_t and Y_c Y_t input patterns.
    """
    sign = -1.0 if (x[control] and z[target] and x[target] == z[control]) else 1.0
    x[target] ^= x[control]
    z[control] ^= z[target]
    return sign


def jw_to_bk_pauli(pauli_sum):
    """Conjugate every string of a 4-qubit sum by the occupancy-to-parity
    CNOT network BK_CNOTS_4.

    Pauli strings map one-to-one onto Pauli strings (possibly with a sign),
    so the term count never increases and the spectrum is untouched.
    """
    if pauli_sum.n_qubits != 4:
        raise ValueError("the tabulated CNOT network covers 4 qubits")
    out = []
    for t in pauli_sum.terms:
        # axes string leftmost = qubit 3
        x = [ch in "XY" for ch in reversed(t.axes)]
        z = [ch in "ZY" for ch in reversed(t.axes)]
        coeff = t.coefficient
        for c, tq in BK_CNOTS_4:
            coeff *= _conjugate_by_cnot(x, z, c, tq)
        axes = "".join("Y" if x[q] and z[q] else "X" if x[q] else "Z" if z[q] else "I"
                       for q in reversed(range(4)))
        out.append((axes, coeff))
    return PauliSum(out, n_qubits=4)
