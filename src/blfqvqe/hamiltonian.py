"""Effective valence Hamiltonian in the J_z = 0 block.

The mass-squared operator splits into a basis-diagonal part (kinetic plus
confinement zero-point pieces) and the contact-interaction part whose
matrix elements are bilinear in the longitudinal integrals
L(a, b) = L_0(a, b; alpha, beta).  The block is a real symmetric 4x4
matrix over the theta = 1..4 states of `enumerate_block`; all entries
are in MeV^2.

Sign conventions: the contact shift on both |m| = 1 diagonal entries
(theta 1 and 4) is negative, and the (1,2) element carries a plus between
its two quark-mass terms.  Both choices are fixed by requiring the exact
swap-with-sign symmetry S.H.S = H with S: (1,2,3,4) -> (4,-3,-2,1), which
the assembled matrix satisfies to machine precision.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .basisfuncs import (BasisCutoffs, compute_exponents, enumerate_block,
                         longitudinal_integral)


@dataclass(frozen=True)
class HermitianObservable:
    """Dense real symmetric matrix in the basis representation."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("entries must be a square matrix")
        if not np.isfinite(a).all():
            raise ValueError("entries must be finite")
        scale = np.abs(a).max() or 1.0
        if np.abs(a - a.T).max() > 1e-9 * scale:
            raise ValueError("matrix is not symmetric")


@dataclass(frozen=True)
class Eigensolution:
    """Ascending spectrum with orthonormal eigenvector columns.

    Each eigenvector's global sign is fixed so its largest-magnitude
    component is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def build_h0_diagonal(params):
    """Diagonal part: (m+mbar)^2 + 5 kappa^2 for |m| = 1, + 3 kappa^2 for m = 0."""
    msum2 = (params.m + params.mbar) ** 2
    diag = [msum2 + (5 if abs(s.m) == 1 else 3) * params.kappa**2
            for s in enumerate_block(0, BasisCutoffs())]
    return HermitianObservable(np.diag(diag))


def build_njl_matrix(params, exponents):
    """Contact-interaction part of the 4x4 block, proportional to g_pi."""
    m, mbar, b, gp = params.m, params.mbar, params.b, params.g_pi
    al, be = exponents.alpha, exponents.beta

    @functools.cache  # one build reads 8 distinct integrals 49 times
    def L(a, b_exp):
        return longitudinal_integral(a, b_exp, al, be)

    c4 = gp * b**4 / np.pi
    c3 = gp * b**3 / np.pi
    c2 = gp * b**2 / np.pi

    H = np.zeros((4, 4))
    # both |m| = 1 diagonal shifts negative (see module docstring)
    H[0, 0] = H[3, 3] = -8 * c4 * L(0, 0) ** 2
    H[1, 1] = H[2, 2] = (
        -c2 * mbar * m * (L(0.5, 0.5) * L(-0.5, -0.5) + L(-0.5, 0.5) * L(0.5, -0.5)
                          + L(0.5, -0.5) * L(-0.5, 0.5) + L(-0.5, -0.5) * L(0.5, 0.5)
                          + L(-0.5, 1.5) * L(-0.5, -0.5) - 2 * L(-0.5, 0.5) ** 2
                          + L(-0.5, -0.5) * L(-0.5, 1.5))
        - 2 * c2 * (mbar * L(-0.5, 0.5) + m * L(0.5, -0.5)) ** 2)
    # inner sign between the two m terms is +: required by S.H.S = H
    H[0, 1] = 4 * c3 * (m * (L(0, 1) + L(0, 0)) * L(0.5, -0.5)
                        + mbar * L(0, 0) * L(-0.5, 0.5))
    H[0, 2] = -2 * c3 * L(0, 0) * (mbar * (2 * L(-0.5, 0.5) + L(-0.5, 1.5) + L(0.5, 0.5))
                                   + 2 * m * L(0.5, -0.5))
    H[0, 3] = -4 * c4 * (2 * L(0, 1) * L(1, 0) + 2 * L(0, 1) * L(0, 0)
                         - 2 * L(0, 1) ** 2 + 2 * L(0, 0) ** 2)
    H[1, 2] = 2 * c2 * (mbar * L(-0.5, 0.5) + m * L(0.5, -0.5)) ** 2
    H[1, 3] = (2 * c3 * mbar * ((L(-0.5, 1.5) + 2 * L(-0.5, 0.5)) * L(0, 0)
                                - L(-0.5, 0.5) * L(0, 1))
               + 2 * c3 * m * ((L(0.5, 0.5) + 2 * L(0.5, -0.5)) * L(0, 0)
                               + L(0.5, -0.5) * L(0, 1)))
    H[2, 3] = -4 * c3 * (m * L(0.5, -0.5) * (L(0, 1) + L(0, 0))
                         + mbar * L(-0.5, 0.5) * L(0, 0))
    H = H + H.T - np.diag(np.diag(H))
    return HermitianObservable(H)


def build_effective_hamiltonian(params):
    """Full mass-squared matrix H = H0 + H_int in the default J_z = 0 block."""
    h0 = build_h0_diagonal(params)
    hint = build_njl_matrix(params, compute_exponents(params))
    return HermitianObservable(h0.entries + hint.entries)


def diagonalize(observable):
    """Eigensolution of a HermitianObservable (or raw symmetric matrix)."""
    mat = observable.entries if isinstance(observable, HermitianObservable) \
        else np.asarray(observable, dtype=float)
    vals, vecs = np.linalg.eigh(mat)
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        if col[np.argmax(np.abs(col))] < 0:
            vecs[:, k] = -col
    return Eigensolution(eigenvalues=vals, eigenvectors=vecs)
