"""Statevector expectations, shot sampling and readout mitigation.

Conventions: qubit 0 is the least-significant bit of a basis index (and
the rightmost character of a bitstring or axes string).  Every Pauli
term and measurement basis is one dense 2^n matrix built from pauli.py's
Kronecker convention.
Pauli terms are measured by rotating X to Z with H and Y to Z with
S-dagger followed by H, then sampling outcomes.  Each sum's
measurement is compiled once per readout model (`_measurement`): its
basis changes, readout response, and each row's fold of the 2^n
outcomes onto the K distinct values of its weight (K = 2 without
mitigation), one row per non-identity term in axes-string order.  An
evaluation draws those categories, which are all the estimator reads,
for every row from `np.random.default_rng(seed)`, so a fixed seed gives
identical results whatever order the sum lists its terms in.  A seed is
anything `default_rng` takes; a `Generator` is drawn from where it
stands.  Repeated estimates add a leading repeats axis: one multinomial
draw of shape (repeats, terms, K) from that stream, reduced row by row,
and the first repeat draws exactly what a single estimate with that
seed draws.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basisfuncs import require_count, require_real
from .pauli import kron_axes

# numpy's multinomial takes a draw of fewer shots than this
SHOT_LIMIT = 2**63

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_MEASURE_1Q = {"I": np.eye(2), "Z": np.eye(2), "X": _H,
               "Y": _H @ np.diag([1.0, -1.0j])}


def require_shots(name, value):
    """`value` as an int: a count of at least 1 (`require_count`) below
    SHOT_LIMIT; ValueError naming the setting `name` otherwise."""
    shots = require_count(name, value, 1)
    if shots >= SHOT_LIMIT:
        raise ValueError(f"{name} must be below 2^63, got {value!r}")
    return shots


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
    """Independent per-qubit readout flips: p01 = P(read 1 | true 0).
    Each is a real number in [0, 1), not a boolean."""

    p01: float
    p10: float

    def __post_init__(self):
        for name in ("p01", "p10"):
            require_real(name, p := getattr(self, name))
            if not 0.0 <= p < 1.0:
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


def _row_sums(a):
    """`a.sum(axis=-1)`, bit for bit, added a column at a time.

    numpy reduces a short last axis with one inner loop per row (~15 ns
    each), which on a batched draw of thousands of rows costs more than
    the arithmetic; a column add is one call over every row.  Below 8
    values numpy adds left to right from +0.0, so `0.0 + a0 + a1 + ...`
    over whole columns gives the same bits (the + 0.0 turns a row of
    negative zeros into +0.0, as numpy's start does).  From 8 values on
    numpy sums pairwise, and that is left to it.
    """
    if not 0 < a.shape[-1] < 8:
        return a.sum(axis=-1)
    s = a[..., 0] + 0.0
    for k in range(1, a.shape[-1]):
        s += a[..., k]
    return s


def _estimates(state, pauli_sum, shots_per_term, seed, noise, mitigate,
               repeats):
    """Estimates and standard errors; arrays over repeats unless None.

    shots_per_term is checked here (`require_shots`); repeats by the caller.
    Only what changes with the state is done here: the probabilities of
    the compiled bases through the readout response, summed into each
    row's weight categories (`_measurement`), one multinomial draw of
    category frequencies f from `np.random.default_rng(seed)` (rows in
    axes-string order; a leading repeats axis, filled repeat by repeat),
    and f.g, f.g^2 - (f.g)^2 per term.  On a batched draw those two sums
    over the K categories are added a column at a time (`_row_sums`), in
    the order numpy's own `sum(axis=-1)` uses for K < 8, so every bit is
    as numpy's sum gives it, at a fraction of its cost; an unbatched draw
    has a row per term and keeps numpy's sum.
    The estimator reads an outcome only through its weight, so drawing
    categories instead of outcomes leaves its distribution unchanged.
    The unsized draw for repeats=None consumes the stream exactly as a
    one-repeat batch but skips its array overhead (~6 us a call on a
    2-CPU machine).
    """
    shots_per_term = require_shots("shots_per_term", shots_per_term)
    if 2**pauli_sum.n_qubits != state.amplitudes.size:
        raise ValueError("state and operator dimensions differ")
    offset, c, c2, U, response, fold, g, g2 = _measurement(pauli_sum, noise,
                                                           mitigate)
    P = np.abs(U @ state.amplitudes) ** 2
    P /= P.sum(axis=-1, keepdims=True)
    if response is not None:
        P = P @ response.T
    # a category's sum can round to 1 + 2e-16, which multinomial refuses
    P = np.minimum(np.bincount(fold, weights=P.ravel(), minlength=g.size), 1.0)
    size = None if repeats is None else (repeats, len(c))
    f = np.random.default_rng(seed).multinomial(
        shots_per_term, P.reshape(g.shape), size=size) / shots_per_term
    if repeats is None:  # a row per term, where numpy's own loop is cheaper
        fg, fg2 = (f * g).sum(axis=-1), (f * g2).sum(axis=-1)
    else:
        fg, fg2 = _row_sums(f * g), _row_sums(f * g2)
    variances = np.maximum(0.0, fg2 - fg**2)
    return offset + fg @ c, np.sqrt(variances @ c2 / shots_per_term)


def sampled_estimates(state, pauli_sum, shots_per_term, seed, repeats):
    """`repeats` independent noiseless shot-based estimates of <psi|S|psi>.

    Returns an array of length `repeats`, a count of at least 1
    (`require_count`), each entry computed as by `expectation_sampled`.
    All repeats come from one multinomial draw of shape (repeats,
    terms, 2) over each term's parity categories (`_measurement`) from
    `np.random.default_rng(seed)`; repeat 0 is the estimate
    `expectation_sampled` gives with that seed.
    """
    repeats = require_count("repeats", repeats, 1)
    return _estimates(state, pauli_sum, shots_per_term, seed, None, False,
                      repeats)[0]


def expectation_sampled(state, pauli_sum, shots_per_term, seed,
                        noise=None, mitigate=False):
    """Shot-based estimate of <psi|S|psi> with its standard error.

    The non-identity terms are measured in one stacked pass, one row per
    term in axes-string order, all drawn from `np.random.default_rng(seed)`,
    so a `Generator` is drawn from where it stands; identity terms
    contribute exactly.  With a noise model, sampled bitstrings pass
    through per-qubit readout flips; `mitigate` (which needs the model)
    inverts the confusion, as `_measurement` describes.  This is the
    one-repeat case of `sampled_estimates`, drawn without the repeats
    axis.  `shots_per_term` is a count of shots (`require_shots`).
    """
    est, se = _estimates(state, pauli_sum, shots_per_term, seed, noise,
                         mitigate, None)
    return float(est), float(se)
