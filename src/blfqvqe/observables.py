"""Hadronic observables evaluated on the valence ground-state wave function.

Covers the decay constant (explicit sum and projector routes), the mass
radius, the valence parton distribution, the elastic form factor through
a Talmi-Moshinsky separation of the two-body harmonic modes, and the
charge radius from the form-factor slope at the origin.  Lengths are
presented in fm via hbar*c = 197.327 MeV fm; quark charges are the up
and anti-down values (+2/3, +1/3 -> e_qbar = -1/3 as the antiquark
coupling enters with its own sign).

Every formula assumes the one tabulated block, the four n = l = 0 states
of enumerate_block(0, BasisCutoffs()) in theta order; require_tabulated
refuses a wave function or an operator on any other block.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, gammaln, roots_legendre

from .basisfuncs import (_GL_W, _GL_X, chi, compute_exponents,
                         longitudinal_integral, require_tabulated)
from .hamiltonian import HermitianObservable
from .vqe import lookup_encoding

HBARC = 197.327  # MeV fm
E_QUARK = 2.0 / 3.0
E_ANTIQUARK = -1.0 / 3.0

_GL96_NODES, _GL96_WEIGHTS = roots_legendre(96)
_GL96_NODES = 0.5 * (_GL96_NODES + 1.0)
_GL96_WEIGHTS = 0.5 * _GL96_WEIGHTS

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(16)


@dataclass(frozen=True)
class DecayConstantSpec:
    """Projector form of the decay constant: f = prefactor * |<v|psi>|."""

    reference_vector: tuple
    prefactor: float

    def __post_init__(self):
        v = np.asarray(self.reference_vector, dtype=float)
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise ValueError("reference vector must be a unit vector")
        if self.prefactor <= 0:
            raise ValueError("prefactor must be positive")


def decay_spec(params):
    """Reference vector and MeV prefactor for the lowest J_z = 0 block."""
    exps = compute_exponents(params)
    base = (2.0 * np.sqrt(params.n_c) * params.b / np.sqrt(np.pi)
            * longitudinal_integral(0, 0.5, 0.5, exps.alpha, exps.beta))
    s = 1.0 / np.sqrt(2.0)
    return DecayConstantSpec(reference_vector=(0.0, s, -s, 0.0),
                             prefactor=base * np.sqrt(2.0))


def decay_constant(psi, params, exponents):
    """Explicit basis sum for the decay constant in MeV.

    Only the m = 0, spin-antialigned states (theta = 2, 3) enter; the
    (+-) and (-+) spin orders contribute with opposite signs.
    """
    c = psi.coefficients
    L = longitudinal_integral(0, 0.5, 0.5, exponents.alpha, exponents.beta)
    total = c[1] * L - c[2] * L
    return float(2.0 * np.sqrt(params.n_c) * params.b / np.sqrt(np.pi) * total)


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

    def pauli_expansion(self, encoding="compact"):
        return lookup_encoding(encoding).embed(self.fm2)


def _radius_entries(block, params):
    # <r^2> of the n = 0 mode is (|m| + 1) * 1.5 / b^2; the four states
    # differ in (m, s1, s2), so no two of them couple
    require_tabulated(block)
    return 1.5 / params.b**2 * np.diag([abs(s.m) + 1.0 for s in block])


def mass_radius_matrix(block, params):
    return MassRadiusMatrix(HermitianObservable(_radius_entries(block, params),
                                                units="MeV^-2"))


def mass_radius(psi, params):
    """Mass radius of a normalized wave function: (<r^2> in fm^2, r in fm)."""
    mat = _radius_entries(psi.block, params) * HBARC**2
    r2 = float(psi.coefficients @ mat @ psi.coefficients)
    return r2, float(np.sqrt(r2))


@dataclass(frozen=True)
class PdfDensity:
    """1x1 longitudinal density rho (the l = 0 weight) and f(x) on an x grid."""

    density: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self):
        rho = np.asarray(self.density, dtype=float)
        if np.abs(rho - rho.T).max() > 1e-9:
            raise ValueError("density matrix must be symmetric")
        if np.trace(rho) > 1.0 + 1e-9:
            raise ValueError("density trace exceeds 1")
        if not np.all(self.values >= -1e-12):
            raise ValueError("PDF values must be finite and non-negative")

    def normalization(self):
        """Quadrature of f over (0,1); equals rho analytically."""
        chi0 = chi(_GL_X, 0, self.alpha, self.beta)
        f = self.density[0, 0] * chi0 * chi0 / (4.0 * np.pi)
        return float(np.sum(_GL_W * f))


def pdf(psi, x_grid, exponents):
    """Valence-quark momentum-fraction distribution f(x).

    Every state of the block has l = 0, so f(x) = rho chi_0(x)^2 / 4 pi
    with rho the norm of the coefficients (1 for a wave function).  The
    antiquark distribution is f(1-x).
    """
    rho = sum(c * c for c in psi.coefficients)
    x = np.asarray(x_grid, dtype=float)
    chi0 = chi(x, 0, exponents.alpha, exponents.beta)
    f = rho * chi0 * chi0 / (4.0 * np.pi)
    return PdfDensity(density=np.array([[rho]]), x_grid=x,
                      values=np.asarray(f, dtype=float),
                      alpha=exponents.alpha, beta=exponents.beta)


def _mode_polynomial(n, m, qx, qy):
    # 2D HO momentum mode at b = 1 with the Gaussian stripped
    q2 = qx**2 + qy**2
    phase = np.arctan2(qy, qx)
    norm = np.exp(0.5 * (np.log(4.0 * np.pi) + gammaln(n + 1)
                         - gammaln(n + abs(m) + 1)))
    return (norm * np.sqrt(q2) ** abs(m) * eval_genlaguerre(n, abs(m), q2)
            * np.exp(1j * m * phase))


@functools.lru_cache(maxsize=None)
def tm_coefficient(n_prime, m_prime, n, m, big_n, big_m, n_bar, m_bar):
    """Two-mode to center-of-mass/relative expansion coefficient.

    Computes C(n', -m', n, m; N, M, nbar, mbar): the overlap of
    phi_{n',-m'}(q1) phi_{n,m}(q2) with phi_{N,M}(P) phi_{nbar,mbar}(p)
    for P = (q1+q2)/sqrt2, p = (q1-q2)/sqrt2, by 4D Gauss-Hermite
    projection (exact for these polynomial-times-Gaussian integrands).
    Angular-momentum and energy selection rules are returned as exact
    zeros without quadrature.
    """
    if n_prime != 0 or n != 0 or abs(m_prime) > 2 or abs(m) > 2:
        raise ValueError("coefficient table covers n = n' = 0, |m| <= 2 only")
    if min(big_n, n_bar) < 0:
        raise ValueError("negative radial quantum number")
    if big_m + m_bar != -m_prime + m:
        return 0.0
    if (2 * big_n + abs(big_m) + 2 * n_bar + abs(m_bar)
            != 2 * n_prime + abs(m_prime) + 2 * n + abs(m)):
        return 0.0
    s2 = np.sqrt(2.0)
    px = _GH_NODES[:, None, None, None]
    py = _GH_NODES[None, :, None, None]
    rx = _GH_NODES[None, None, :, None]
    ry = _GH_NODES[None, None, None, :]
    w = (_GH_WEIGHTS[:, None, None, None] * _GH_WEIGHTS[None, :, None, None]
         * _GH_WEIGHTS[None, None, :, None] * _GH_WEIGHTS[None, None, None, :])
    q1x, q1y = (px + rx) / s2, (py + ry) / s2
    q2x, q2y = (px - rx) / s2, (py - ry) / s2
    integrand = (np.conj(_mode_polynomial(big_n, big_m, px, py))
                 * np.conj(_mode_polynomial(n_bar, m_bar, rx, ry))
                 * _mode_polynomial(n_prime, -m_prime, q1x, q1y)
                 * _mode_polynomial(n, m, q2x, q2y))
    val = np.sum(w * integrand) / (2.0 * np.pi) ** 4
    if abs(val.imag) > 1e-12:
        raise RuntimeError(f"Talmi-Moshinsky projection came out complex: {val}")
    return float(val.real)


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
    term_q = E_QUARK * np.exp(-zq / 2.0) * eval_genlaguerre(n_bar, 0, zq)
    term_qb = E_ANTIQUARK * np.exp(-zqb / 2.0) * eval_genlaguerre(n_bar, 0, zqb)
    chi0 = chi(x, 0, alpha, beta)
    integrand = chi0 * chi0 / (4.0 * np.pi) * (term_q - term_qb)
    return np.sum(weights * integrand, axis=-1)


def _charge_matrices(q2, params, exponents, block):
    """Charge operator on the basis block at each Q^2 of q2, stacked along
    axis 0; every 128-node quadrature is checked against 96 nodes.

    The operator conserves (m, s1, s2), which tells the four states apart,
    so it is diagonal.
    """
    require_tabulated(block)
    q2 = np.asarray(q2, dtype=float)
    if np.any(q2 < 0):
        raise ValueError("Q^2 must be non-negative")
    q2b = (q2 / params.b**2)[:, None]
    al, be = exponents.alpha, exponents.beta
    out = np.zeros((len(q2), len(block), len(block)))
    for i, s in enumerate(block):
        total = 0.0
        for big_n, n_bar, c in _tm_terms(s.m):
            fine = _charge_bracket(n_bar, q2b, al, be, _GL_X, _GL_W)
            coarse = _charge_bracket(n_bar, q2b, al, be, _GL96_NODES, _GL96_WEIGHTS)
            bad = np.abs(fine - coarse) > 1e-8 * np.maximum(1.0, np.abs(fine))
            if bad.any():
                k = np.argmax(bad)
                raise RuntimeError(f"longitudinal quadrature not converged at "
                                   f"Q^2 = {q2[k]:g}: {fine[k]} vs {coarse[k]}")
            total += c * (-1.0) ** big_n * fine
        out[:, i, i] = total
    return out


def form_factor_matrix(q2, params, exponents, block):
    """Elastic charge operator on the basis block at one Q^2 (MeV^2)."""
    return HermitianObservable(_charge_matrices([q2], params, exponents, block)[0],
                               units="dimensionless")


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
        if np.any(q2 < 0) or np.any(np.diff(q2) <= 0):
            raise ValueError("grid must be non-negative and increasing")
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
    mats = _charge_matrices(q2, params, compute_exponents(params), psi.block)
    c = psi.coefficients
    return FormFactorCurve(q2=tuple(float(q) for q in q2),
                           values=tuple(float(c @ m @ c) for m in mats))


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
