"""Basis functions for the valence light-front pion and their integrals.

The transverse degrees of freedom live in a 2D harmonic-oscillator basis
phi_{nm} with scale b; the longitudinal direction uses Jacobi-polynomial
modes chi_l(x; alpha, beta) on x in (0, 1).  The one tabulated basis is
the J_z = 0 valence block at n = l = 0, |m| <= 2, where the quantum
number theta labels its four (m, s1, s2) triples.

Conventions:
  * spins are stored as +1/-1 integers (twice the spin projection), so
    every quantum number stays integral;
  * chi_l includes the sqrt(4*pi*(2l+alpha+beta+1)) normalization, hence
    the orthonormality relation reads  integral chi_l chi_l' dx / (4 pi)
    = delta_{ll'};
  * the longitudinal integrals L_l(a, b; alpha, beta) are evaluated by
    closed-form recurrences in log-Gamma space (Gamma(19.6) ~ 4e16, so
    naive products overflow the comfortable range).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import eval_jacobi, gammaln, roots_legendre


class UnsupportedCutoffError(ValueError):
    """Raised when a basis cutoff outside the tabulated scheme is requested."""


@dataclass(frozen=True)
class ModelParameters:
    """Physical constants of the light-front model, in MeV-based units.

    g_pi is the four-fermion contact coupling in MeV^-2; n_c the number
    of colors.  The basis scale b defaults to the confinement strength
    kappa (a single scale controls both in the fits used here).
    """

    m: float = 337.01
    mbar: float = 337.01
    kappa: float = 227.00
    b: float | None = None
    g_pi: float = 250.785e-6
    n_c: int = 3

    def __post_init__(self):
        if self.b is None:
            object.__setattr__(self, "b", float(self.kappa))
        if not (self.m > 0 and self.mbar > 0 and self.kappa > 0 and self.b > 0):
            raise ValueError("masses and scales must be positive")


@dataclass(frozen=True)
class BasisCutoffs:
    """Truncation limits: 0 <= n <= n_max, |m| <= m_max, 0 <= l <= l_max."""

    n_max: int = 0
    m_max: int = 2
    l_max: int = 0

    def __post_init__(self):
        if min(self.n_max, self.m_max, self.l_max) < 0:
            raise ValueError("cutoffs must be nonnegative")


@dataclass(frozen=True)
class LongitudinalExponents:
    alpha: float
    beta: float


@dataclass(frozen=True)
class BasisState:
    """One valence basis state inside a fixed-J_z block.

    s1, s2 are twice the spin projections (+1 or -1); theta is the 1-based
    row label of the (m, s1, s2) triple inside its block.
    """

    n: int
    m: int
    l: int
    s1: int
    s2: int
    theta: int
    j_z: int


@dataclass(frozen=True)
class WaveFunction:
    """Real expansion coefficients over the tabulated block, unit norm."""

    coefficients: np.ndarray
    block: tuple

    def __post_init__(self):
        require_tabulated(self.block)
        c = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", c)
        if len(c) != len(self.block):
            raise ValueError("coefficient count does not match block size")
        if abs(np.sum(c * c) - 1.0) > 1e-12:
            raise ValueError("wave function must have unit norm")


# (m, s1, s2) triples of the J_z = 0 block, in theta order (theta =
# 1-based position)
_JZ0_TRIPLES = ((-1, +1, +1), (0, +1, -1), (0, -1, +1), (+1, -1, -1))


def compute_exponents(params):
    """Longitudinal exponents alpha, beta from the model parameters."""
    al = 2.0 * params.mbar * (params.m + params.mbar) / params.kappa**2
    be = 2.0 * params.m * (params.m + params.mbar) / params.kappa**2
    return LongitudinalExponents(alpha=al, beta=be)


def _c00(a, b_exp, alpha, beta):
    # seed coefficient, all Gamma factors in log space
    args = (alpha + beta + 1, alpha + 1, beta + 1,
            beta / 2 + b_exp + 1, alpha / 2 + a + 1,
            beta / 2 + b_exp + alpha / 2 + a + 2)
    if min(args) <= 0:
        raise ValueError(
            f"longitudinal integral outside the Gamma domain: args {args}")
    lg = (0.5 * (gammaln(alpha + beta + 1) - gammaln(alpha + 1) - gammaln(beta + 1))
          + gammaln(beta / 2 + b_exp + 1) + gammaln(alpha / 2 + a + 1)
          - gammaln(beta / 2 + b_exp + alpha / 2 + a + 2))
    return np.exp(lg)


def longitudinal_integral(l, a, b_exp, alpha, beta):
    """L_l(a, b; alpha, beta) = integral_0^1 x^b (1-x)^a chi_l(x; alpha, beta) dx / (4 pi).

    Evaluated by generating C_{0,0}, walking the l-recurrence to C_{l,0},
    then the in-row m-recurrence for C_{l,m}, and summing row l.
    """
    if l < 0 or l != int(l):
        raise ValueError("l must be a nonnegative integer")
    l = int(l)
    c = _c00(a, b_exp, alpha, beta)
    for j in range(1, l + 1):
        c *= (-np.sqrt((j + beta) * (j + alpha + beta) / (j * (j + alpha)))
              * (alpha / 2 + a + j) / (beta / 2 + b_exp + alpha / 2 + a + j + 1))
    total = c
    cm = c
    for mm in range(1, l + 1):
        cm *= (-(l + alpha - mm + 1) * (l - mm + 1)
               / (mm * (beta + mm) * (alpha / 2 + a + l - mm + 1))
               * (beta / 2 + b_exp + mm))
        total += cm
    return float(np.sqrt((2 * l + alpha + beta + 1) / (4 * np.pi)) * total)


_GL_NODES, _GL_WEIGHTS = roots_legendre(128)
_GL_X = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


def longitudinal_integral_quadrature(l, a, b_exp, alpha, beta):
    """Same integral by 128-node Gauss-Legendre; the independent cross-check.

    The integrand vanishes like x^(beta/2) at the endpoints for the
    physical exponents, so no singular treatment is needed.
    """
    x = _GL_X
    vals = chi(x, l, alpha, beta) * x**b_exp * (1 - x) ** a
    return float(np.sum(_GL_W * vals) / (4 * np.pi))


def chi(x, l, alpha, beta):
    """Longitudinal mode chi_l(x; alpha, beta), vectorized over x in (0,1)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or np.any(x >= 1):
        raise ValueError("chi is defined on the open interval (0, 1)")
    log_norm = 0.5 * (np.log(2 * l + alpha + beta + 1)
                      + gammaln(l + 1) + gammaln(l + alpha + beta + 1)
                      - gammaln(l + alpha + 1) - gammaln(l + beta + 1))
    val = (np.sqrt(4 * np.pi) * np.exp(log_norm)
           * x ** (beta / 2) * (1 - x) ** (alpha / 2)
           * eval_jacobi(l, alpha, beta, 2 * x - 1))
    return val if val.shape else float(val)


def enumerate_block(j_z, cutoffs):
    """The basis states of the J_z block under `cutoffs`, in theta order.

    The one home of the basis truncation: only the J_z = 0 block at the
    default cutoffs (n = l = 0, |m| <= 2) is tabulated, and every other
    block or cutoff raises UnsupportedCutoffError.  The Hamiltonian, the
    observables and the CLI's settings check all take their block here,
    and require_tabulated refuses any other block handed in.
    """
    if j_z != 0 or cutoffs != BasisCutoffs():
        raise UnsupportedCutoffError(
            f"the basis is tabulated for the J_z = 0 block at "
            f"{BasisCutoffs()} only, got J_z = {j_z} at {cutoffs}")
    return [BasisState(n=0, m=m, l=0, s1=s1, s2=s2, theta=k + 1, j_z=0)
            for k, (m, s1, s2) in enumerate(_JZ0_TRIPLES)]


def require_tabulated(block):
    """Refuse any block but enumerate_block(0, BasisCutoffs()), in its order.

    The one refusal of another block: the wave function and the
    observables that take a block directly call it, so their formulas
    may assume n = l = 0 and the theta order of the four states.
    """
    if list(block) != enumerate_block(0, BasisCutoffs()):
        raise UnsupportedCutoffError(
            "only the block enumerate_block(0, BasisCutoffs()) is tabulated, "
            "with its four states in theta order")
