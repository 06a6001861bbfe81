"""Dense reference quantities the benchmark checks the program against.

Everything here is built from Kronecker products of 2x2 matrices and
the paper's ansatz circuits written out gate by gate, without calling
the simulator under test.  Qubit 0 is the rightmost letter of an axes
string and the least-significant bit of a basis index, as in the
package.
"""
from __future__ import annotations

import numpy as np

_I2 = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_Z = np.diag([1.0, -1.0])
_LETTER = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}
_P0 = np.diag([1.0, 0.0])
_P1 = np.diag([0.0, 1.0])


def pauli_matrix(axes):
    """Dense matrix of one axes string, leftmost letter on the top qubit."""
    out = np.ones((1, 1), dtype=complex)
    for ch in axes:
        out = np.kron(out, _LETTER[ch])
    return out


def sum_matrix(terms, n_qubits):
    """Dense matrix of sum_a c_a P_a from (axes, coefficient) pairs."""
    out = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for axes, coeff in terms:
        out += coeff * pauli_matrix(axes)
    return out


def _on(n, factors):
    """kron of per-qubit 2x2 factors ({qubit: matrix}), identity elsewhere."""
    out = np.ones((1, 1))
    for q in reversed(range(n)):
        out = np.kron(out, factors.get(q, _I2))
    return out


def _ry(angle):
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]])


def _controlled(n, control, target, u):
    return _on(n, {control: _P0}) + _on(n, {control: _P1, target: u})


_BK_CNOTS = ((0, 3), (1, 3), (0, 1), (2, 3))


def _gates(encoding, theta):
    t1, t2, t3 = theta
    if encoding == "compact":
        return 2, [_on(2, {0: _ry(t1)}), _on(2, {1: _ry(t2)}),
                   _controlled(2, 1, 0, _X), _on(2, {0: _ry(t3)})]
    gates = [_on(4, {1: _X}), _controlled(4, 1, 2, _ry(t1)),
             _controlled(4, 2, 1, _X), _controlled(4, 1, 0, _ry(t2)),
             _controlled(4, 2, 3, _ry(t3)), _controlled(4, 0, 1, _X),
             _controlled(4, 3, 2, _X)]
    if encoding == "bk":
        gates += [_controlled(4, c, t, _X) for c, t in _BK_CNOTS]
    elif encoding != "direct":
        raise ValueError(f"unknown encoding {encoding!r}")
    return 4, gates


def ansatz_state(encoding, theta):
    """Statevector of the paper's ansatz circuit at the given angles."""
    n, gates = _gates(encoding, theta)
    psi = np.zeros(2**n)
    psi[0] = 1.0
    for g in gates:
        psi = g @ psi
    return psi


def expectation(psi, matrix):
    """<psi|M|psi> for a real or complex statevector."""
    return float(np.vdot(psi, matrix @ psi).real)


def term_expectations(psi, terms):
    """[(coefficient, weight, <P_a>)] for every non-identity term."""
    out = []
    for axes, coeff in terms:
        weight = sum(ch != "I" for ch in axes)
        if weight:
            out.append((coeff, weight, expectation(psi, pauli_matrix(axes))))
    return out


def relative_variance(psi, terms, energy):
    """Single-shot variance of the term-by-term estimator over E^2."""
    return sum(c**2 * (1.0 - ev**2)
               for c, _, ev in term_expectations(psi, terms)) / energy**2


def sampled_moments(psi, terms, shots, p=0.0, mitigated=False):
    """Mean and standard error of the term-by-term shot estimator.

    Symmetric readout flips with probability p shrink a weight-w parity
    by (1 - 2p)^w.  The raw estimator converges to that shrunk value;
    the mitigated one divides the shrinkage back out and with it
    amplifies the shot variance by (1 - 2p)^(-2w).
    """
    mean = sum(c for axes, c in terms if set(axes) == {"I"})
    var = 0.0
    for c, w, ev in term_expectations(psi, terms):
        f = (1.0 - 2.0 * p) ** w
        seen = f * ev
        if mitigated:
            mean += c * ev
            var += c**2 * (1.0 - seen**2) / (f**2 * shots)
        else:
            mean += c * seen
            var += c**2 * (1.0 - seen**2) / shots
    return mean, float(np.sqrt(var))
