"""Independent reference implementations that the tests check the package
against: the parity-tree encoder matrix behind the Bravyi-Kitaev CNOT
network, a quadrature form of the longitudinal integral, a
Gauss-Hermite projection of the Talmi-Moshinsky brackets, and the
sequential minimizer's step written in numpy alone."""
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from blfqvqe.basisfuncs import chi, gauss_legendre
from blfqvqe.vqe import _DEGREE, OptimizerConfig, VqeResult


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
