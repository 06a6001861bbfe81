"""Hadronic observables evaluated on the valence ground-state wave function.

Covers the decay constant (explicit sum and projector routes), the mass
radius, the valence parton distribution, the elastic form factor through
a Talmi-Moshinsky separation of the two-body harmonic modes (closed-form
brackets; each relative mode's longitudinal bracket computed once per
curve), and the charge
radius from the form-factor slope at the origin.  Lengths are
presented in fm via hbar*c = 197.327 MeV fm; quark charges are the up
and anti-down values (+2/3, +1/3 -> e_qbar = -1/3 as the antiquark
coupling enters with its own sign).

Every formula assumes the one tabulated block, the four n = l = 0 states
of enumerate_block(0, BasisCutoffs()) in theta order; require_tabulated
refuses a wave function or an operator on any other block.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .basisfuncs import (chi, compute_exponents, gauss_legendre,
                         longitudinal_integral, require_real,
                         require_tabulated)
from .hamiltonian import HermitianObservable
from .vqe import lookup_encoding

HBARC = 197.327  # MeV fm
N_C = 3  # colors
E_QUARK = 2.0 / 3.0
E_ANTIQUARK = -1.0 / 3.0

@dataclass(frozen=True)
class DecayConstantSpec:
    """Projector form of the decay constant: f = prefactor * |<v|psi>|."""

    reference_vector: tuple
    prefactor: float

    def __post_init__(self):
        v = np.asarray(self.reference_vector, dtype=float)
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-10:  # a nan fails too
            raise ValueError("reference vector must be a unit vector")
        if not self.prefactor > 0:
            raise ValueError("prefactor must be positive")


def decay_spec(params):
    """Reference vector and MeV prefactor for the lowest J_z = 0 block."""
    exps = compute_exponents(params)
    base = (2.0 * np.sqrt(N_C) * params.b / np.sqrt(np.pi)
            * longitudinal_integral(0.5, 0.5, exps.alpha, exps.beta))
    s = 1.0 / np.sqrt(2.0)
    return DecayConstantSpec(reference_vector=(0.0, s, -s, 0.0),
                             prefactor=base * np.sqrt(2.0))


def decay_constant(psi, params, exponents):
    """Explicit basis sum for the decay constant in MeV.

    Only the m = 0, spin-antialigned states (theta = 2, 3) enter; the
    (+-) and (-+) spin orders contribute with opposite signs.
    """
    c = psi.coefficients
    L = longitudinal_integral(0.5, 0.5, exponents.alpha, exponents.beta)
    total = c[1] * L - c[2] * L
    return float(2.0 * np.sqrt(N_C) * params.b / np.sqrt(np.pi) * total)


def decay_projector(encoding):
    """|v><v| for the decay reference state, expanded in the encoding."""
    w = np.array([0.0, 1.0, -1.0, 0.0])  # sqrt(2) v, so 0.5 w w^T = v v^T
    return lookup_encoding(encoding).embed(0.5 * np.outer(w, w))


@dataclass(frozen=True)
class MassRadiusMatrix:
    """Mass-squared radius operator, stored in MeV^-2."""

    mev2: HermitianObservable

    def __post_init__(self):
        if np.any(np.diag(self.mev2.entries) <= 0):
            raise ValueError("radius-squared diagonal must be positive")

    @property
    def fm2(self):
        return self.mev2.entries * HBARC**2


def mass_radius_matrix(block, params):
    # <r^2> of the n = 0 mode is (|m| + 1) * 1.5 / b^2; the four states
    # differ in (m, s1, s2), so no two of them couple
    require_tabulated(block)
    return MassRadiusMatrix(HermitianObservable(
        1.5 / params.b**2 * np.diag([abs(s.m) + 1.0 for s in block])))


def mass_radius(psi, params):
    """Mass radius of a normalized wave function: (<r^2> in fm^2, r in fm)."""
    mat = mass_radius_matrix(psi.block, params).fm2
    r2 = float(psi.coefficients @ mat @ psi.coefficients)
    return r2, float(np.sqrt(r2))


@dataclass(frozen=True)
class PdfDensity:
    """Longitudinal norm rho (the l = 0 weight) and f(x) on an x grid.

    rho, alpha and beta pass `require_real`, and rho lies in [0, 1]."""

    rho: float
    values: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("rho", "alpha", "beta"):
            require_real(name, getattr(self, name))
        if not 0.0 <= self.rho <= 1.0 + 1e-9:
            raise ValueError(f"density norm rho must lie in [0, 1], "
                             f"got {self.rho!r}")
        if not np.all(self.values >= -1e-12):
            raise ValueError("PDF values must be finite and non-negative")

    def normalization(self):
        """Quadrature of f over (0,1); equals rho analytically."""
        x, w = gauss_legendre(128)
        chi0 = chi(x, self.alpha, self.beta)
        f = self.rho * chi0 * chi0 / (4.0 * np.pi)
        return float(np.sum(w * f))


def pdf(psi, x_grid, exponents):
    """Valence-quark momentum-fraction distribution f(x).

    Every state of the block has l = 0, so f(x) = rho chi_0(x)^2 / 4 pi
    with rho the norm of the coefficients (1 for a wave function).  The
    antiquark distribution is f(1-x).
    """
    rho = sum(c * c for c in psi.coefficients)
    x = np.asarray(x_grid, dtype=float)
    chi0 = chi(x, exponents.alpha, exponents.beta)
    f = rho * chi0 * chi0 / (4.0 * np.pi)
    return PdfDensity(rho=rho, values=np.asarray(f, dtype=float),
                      alpha=exponents.alpha, beta=exponents.beta)


def _laguerre(n, a, x):
    # generalized Laguerre L_n^(a)(x) by the three-term recurrence from
    # L_0 = 1 and L_1 = 1 + a - x; at the degrees <= 1 that the form
    # factor reads it returns scipy's eval_genlaguerre bit for bit
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.ones_like(x)
    prev, cur = 1.0, 1.0 + a - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + a - x) * cur - (k + a) * prev) / (k + 1)
    return cur


def tm_coefficient(n_prime, m_prime, n, m, big_n, big_m, n_bar, m_bar):
    """Two-mode to center-of-mass/relative expansion coefficient.

    Computes C(n', -m', n, m; N, M, nbar, mbar): the overlap of
    phi_{n',-m'}(q1) phi_{n,m}(q2) with phi_{N,M}(P) phi_{nbar,mbar}(p)
    for P = (q1+q2)/sqrt2, p = (q1-q2)/sqrt2, in closed form (M. Moshinsky,
    Nucl. Phys. 13, 104 (1959)).  At n = n' = 0 the creation operators
    split as a1 = (A + a)/sqrt2, a2 = (A - a)/sqrt2, so C is a binomial sum
    over the i of q1's |m'| quanta and the j of q2's |m| quanta that go to
    P; (-1)^(N + nbar) is the Laguerre sign of the modes.  A set that breaks
    the angular or energy selection rule leaves the sum empty: exactly 0.0.
    """
    args = (n_prime, m_prime, n, m, big_n, big_m, n_bar, m_bar)
    try:
        q = tuple(map(operator.index, args))
    except TypeError:
        raise ValueError(f"quantum numbers must be integers: {args}") from None
    n_prime, m_prime, n, m, big_n, big_m, n_bar, m_bar = q
    if n_prime != 0 or n != 0 or abs(m_prime) > 2 or abs(m) > 2:
        raise ValueError("coefficient table covers n = n' = 0, |m| <= 2 only")
    if min(big_n, n_bar) < 0:
        raise ValueError("negative radial quantum number")
    # (P+, P-, p+, p-) circular quanta, with m = N+ - N- and n = min(N+, N-)
    target = (big_n + max(big_m, 0), big_n + max(-big_m, 0),
              n_bar + max(m_bar, 0), n_bar + max(-m_bar, 0))
    a, b = abs(m_prime), abs(m)
    s1, s2 = int(m_prime > 0), int(m < 0)  # 1 for the - sense of -m' and m
    total = 0
    for i, j in itertools.product(range(a + 1), range(b + 1)):
        got = [0, 0, 0, 0]
        for slot, k in ((s1, i), (s2, j), (2 + s1, a - i), (2 + s2, b - j)):
            got[slot] += k
        if tuple(got) == target:
            total += math.comb(a, i) * math.comb(b, j) * (-1) ** (b - j)
    if total == 0:
        return 0.0
    scale = math.factorial(a) * math.factorial(b) * 2 ** (a + b)
    return ((-1) ** (big_n + n_bar) * total
            * math.sqrt(math.prod(map(math.factorial, target)) / scale))


@functools.lru_cache(maxsize=None)
def _tm_terms(m):
    """(N, nbar, C) terms feeding the form factor for the (0,m) bilinear.

    Only relative modes with mbar = 0 couple to the longitudinal charge
    density, which forces M = 0 and N + nbar = |m|.
    """
    out = []
    for big_n in range(abs(m) + 1):
        n_bar = abs(m) - big_n
        c = tm_coefficient(0, m, 0, m, big_n, 0, n_bar, 0)
        if c != 0.0:
            out.append((big_n, n_bar, c))
    return tuple(out)


def _charge_bracket(n_bar, q2_over_b2, alpha, beta, nodes, weights):
    # one quadrature per Q^2 row: q2_over_b2 is a column, x runs along axis -1
    x = nodes
    zq = (1.0 - x) / (2.0 * x) * q2_over_b2
    zqb = x / (2.0 * (1.0 - x)) * q2_over_b2
    term_q = E_QUARK * np.exp(-zq / 2.0) * _laguerre(n_bar, 0, zq)
    term_qb = E_ANTIQUARK * np.exp(-zqb / 2.0) * _laguerre(n_bar, 0, zqb)
    chi0 = chi(x, alpha, beta)
    integrand = chi0 * chi0 / (4.0 * np.pi) * (term_q - term_qb)
    return np.sum(weights * integrand, axis=-1)


def _charge_diagonal(q2, params, exponents, block):
    """(Q^2, state) diagonal of the charge operator on the basis block at
    each Q^2 of q2: it conserves (m, s1, s2), which tells the four states
    apart.  Each relative mode's bracket is computed once, at 128 nodes
    checked against 96."""
    require_tabulated(block)
    q2 = np.asarray(q2, dtype=float)
    if np.any(q2 < 0):
        raise ValueError("Q^2 must be non-negative")
    q2b = (q2 / params.b**2)[:, None]
    al, be = exponents.alpha, exponents.beta
    brackets = {}  # relative mode nbar -> its bracket at each Q^2
    for n_bar in dict.fromkeys(t[1] for s in block for t in _tm_terms(s.m)):
        fine = _charge_bracket(n_bar, q2b, al, be, *gauss_legendre(128))
        coarse = _charge_bracket(n_bar, q2b, al, be, *gauss_legendre(96))
        bad = np.abs(fine - coarse) > 1e-8 * np.maximum(1.0, np.abs(fine))
        if bad.any():
            k = np.argmax(bad)
            raise RuntimeError(f"longitudinal quadrature not converged at "
                               f"Q^2 = {q2[k]:g}: {fine[k]} vs {coarse[k]}")
        brackets[n_bar] = fine
    return np.column_stack([sum(c * (-1.0) ** big_n * brackets[n_bar]
                                for big_n, n_bar, c in _tm_terms(s.m))
                            for s in block])


def form_factor_matrix(q2, params, exponents, block):
    """Elastic charge operator on the basis block at one Q^2 (MeV^2)."""
    return HermitianObservable(
        np.diag(_charge_diagonal([q2], params, exponents, block)[0]))


@dataclass(frozen=True)
class FormFactorCurve:
    """Elastic form factor sampled on a Q^2 grid (MeV^2, dimensionless)."""

    q2: tuple
    values: tuple

    def __post_init__(self):
        if len(self.q2) != len(self.values):
            raise ValueError("grid and values differ in length")
        if len(self.q2) < 3:
            raise ValueError("need at least 3 grid points")
        q2 = np.asarray(self.q2, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if not (np.all(np.isfinite(q2)) and q2[0] >= 0
                and np.all(np.diff(q2) > 0)):
            raise ValueError("grid must be finite, non-negative and increasing")
        if q2[0] == 0.0 and abs(vals[0] - 1.0) > 1e-6:
            raise ValueError("form factor at Q^2 = 0 must be 1")
        if not np.all(np.abs(vals) <= 1.0 + 1e-9):
            raise ValueError("|F| must be finite and at most 1")


def default_q2_grid(params):
    """0 .. 100 b^2 scan in 52 points plus the two derivative stencil points."""
    h = params.b**2 / 100.0
    base = np.linspace(0.0, 100.0 * params.b**2, 52)
    return np.unique(np.concatenate([base, [h / 2.0, h]]))


def elastic_form_factor(psi, params):
    """F_P on default_q2_grid for a normalized wave function."""
    q2 = default_q2_grid(params)
    diag = _charge_diagonal(q2, params, compute_exponents(params), psi.block)
    c = psi.coefficients
    return FormFactorCurve(q2=tuple(float(q) for q in q2),
                           values=tuple(float((c * d) @ c) for d in diag))


def charge_radius(curve):
    """sqrt<r_c^2> in MeV^-1 from the slope of F_P at the origin.

    Uses Richardson extrapolation over the curve's two smallest positive
    Q^2 points, which must sit at a 2:1 spacing ratio (the default grid
    provides b^2/200 and b^2/100).
    """
    q2 = np.asarray(curve.q2, dtype=float)
    vals = np.asarray(curve.values, dtype=float)
    if q2[0] != 0.0:
        raise ValueError("curve must include Q^2 = 0")
    positive = q2[q2 > 0]
    if positive.size < 2:
        raise ValueError("insufficient points near the origin")
    half, full = positive[0], positive[1]
    if abs(full - 2.0 * half) > 1e-9 * full:
        raise ValueError("need stencil points at h/2 and h near the origin")
    f0 = vals[0]
    f_half = vals[q2 == half][0]
    f_full = vals[q2 == full][0]
    d_full = (f_full - f0) / full
    d_half = (f_half - f0) / half
    slope = 2.0 * d_half - d_full
    r2 = -6.0 * slope
    if r2 < -1e-15:
        raise ValueError(f"negative radius-squared from curve slope: {r2}")
    return float(np.sqrt(max(0.0, r2)))
