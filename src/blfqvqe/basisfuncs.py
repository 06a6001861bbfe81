"""Basis functions for the valence light-front pion and their integrals.

The transverse degrees of freedom live in a 2D harmonic-oscillator basis
phi_{nm} with scale b; the longitudinal direction uses the l = 0 mode
chi(x; alpha, beta) ~ x^(beta/2) (1-x)^(alpha/2) on x in (0, 1).  The one
tabulated basis is the J_z = 0 valence block at n = l = 0, |m| <= 2,
where the quantum number theta labels its four (m, s1, s2) triples.

Conventions:
  * spins are stored as +1/-1 integers (twice the spin projection), so
    every quantum number stays integral;
  * chi includes the sqrt(4*pi*(alpha+beta+1)) normalization, hence
    integral chi^2 dx / (4 pi) = 1;
  * the longitudinal integrals L(a, b; alpha, beta) are evaluated in
    closed form in log-Gamma space (Gamma(19.6) ~ 4e16, so naive
    products overflow the comfortable range).
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np


def require_real(name, value):
    """ValueError unless the setting `name` holds a real number: not a
    string or other object, which arithmetic would fail on, and not a
    boolean, which it would read as the number 0 or 1."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, not a boolean, "
                         f"got {value!r}")
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


class UnsupportedCutoffError(ValueError):
    """Raised when a basis cutoff outside the tabulated scheme is requested."""


@dataclass(frozen=True)
class ModelParameters:
    """Physical constants of the light-front model, in MeV-based units.

    g_pi is the four-fermion contact coupling in MeV^-2.  The basis scale
    b defaults to the confinement strength kappa (a single scale controls
    both in the fits used here).  The five constants must be finite real
    numbers, not booleans, and the masses and scales positive.
    """

    m: float = 337.01
    mbar: float = 337.01
    kappa: float = 227.00
    b: float | None = None
    g_pi: float = 250.785e-6

    def __post_init__(self):
        if self.b is None:
            object.__setattr__(self, "b", float(self.kappa))
        for field in fields(self):
            require_real(field.name, value := getattr(self, field.name))
            if not np.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
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


# Cephes `lgam` (gamma.c), the routine behind scipy.special.gammaln, ported
# line for line so that every log-Gamma, and so the Hamiltonian's bits,
# match scipy's.  Cephes Math Library Release 2.8, copyright 1984-2000
# Stephen L. Moshier; distributed with scipy under its BSD licence.
# Coefficients run highest degree first; _p1evl has an implied leading 1.
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_LGAM_B = (-1.37825152569120859100E3, -3.88016315134637840924E4,
           -3.31612992738871184744E5, -1.16237097492762307383E6,
           -1.72173700820839662146E6, -8.53555664245765465627E5)
_LGAM_C = (-3.51815701436523470549E2, -1.70642106651881159223E4,
           -2.20528590553854454839E5, -1.13933444367982507207E6,
           -2.53252307177582951285E6, -2.01889141433532773231E6)
_LS2PI = 0.91893853320467274178   # log(sqrt(2 pi))
_MAXLGM = 2.556348e305            # lgam overflows above this


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def gammaln(x):
    """log Gamma(x) for a scalar x >= 0, bit for bit scipy's gammaln.

    0 and +inf give inf and nan gives nan, as in scipy; a negative x
    raises ValueError, since no caller needs the reflection branch.
    """
    x = float(x)
    if x < 0:
        raise ValueError(f"gammaln takes x >= 0, got {x!r}")
    if not math.isfinite(x):
        return x
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _LGAM_B) / _p1evl(x, _LGAM_C)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


def _c00(a, b_exp, alpha, beta):
    # the coefficient C_00 of the l = 0 mode, all Gamma factors in log space
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


def longitudinal_integral(a, b_exp, alpha, beta):
    """L(a, b; alpha, beta) = integral_0^1 x^b (1-x)^a chi(x) dx / (4 pi), in
    closed form: chi's normalization times C_00."""
    return float(np.sqrt((alpha + beta + 1) / (4 * np.pi))
                 * _c00(a, b_exp, alpha, beta))


@functools.cache
def gauss_legendre(n):
    """The n-node Gauss-Legendre rule mapped to (0, 1): (nodes, weights).

    Built on first use, since no VQE run reads one, and returned read-only
    because every caller shares the cached arrays.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (nodes + 1.0), 0.5 * weights
    x.flags.writeable = w.flags.writeable = False
    return x, w


def chi(x, alpha, beta):
    """Longitudinal mode chi(x; alpha, beta), vectorized over x in (0,1)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or np.any(x >= 1):
        raise ValueError("chi is defined on the open interval (0, 1)")
    log_norm = 0.5 * (np.log(alpha + beta + 1) + gammaln(alpha + beta + 1)
                      - gammaln(alpha + 1) - gammaln(beta + 1))
    val = (np.sqrt(4 * np.pi) * np.exp(log_norm)
           * x ** (beta / 2) * (1 - x) ** (alpha / 2))
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
