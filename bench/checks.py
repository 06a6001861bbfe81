"""Correctness checks applied to every benchmark job's output.

Each check takes the program's answer and a reference computed apart
from the code under test (see reference.py), or a property the method
must have, and raises CheckFailed with a one-line reason when the answer
is wrong.  None of them compares against a stored copy of earlier
output.
"""
from __future__ import annotations

import json
import math

import numpy as np

GROUND_REL_TOL = 5e-4          # VQE from the good guess vs eigvalsh
DENSE_REL_TOL = 1e-9           # program energy vs psi^dagger M psi
EXPONENT_RANGE = (1.8, 2.2)    # shot-noise law n ~ A / eps^p
RMS_SIGMAS = 6.0               # row RMS vs sqrt(v_rel / n), in sigmas
SAMPLED_SIGMAS = 5.0           # sampled estimates vs their dense mean
PUBLISHED_M_PI2 = 19488.0      # MeV^2, default parameters
PUBLISHED_R_C = 6.31e-3        # MeV^-1, default parameters
PDF_NORM_TOL = 1e-6


class CheckFailed(Exception):
    """A job's output violates a correctness check."""


def _fail(message):
    raise CheckFailed(message)


def ground_energy(energy, e0):
    """A solve from the good guess lands within 5e-4 of the ground state."""
    if not abs(energy - e0) <= GROUND_REL_TOL * abs(e0):
        _fail(f"energy {energy!r} is not within {GROUND_REL_TOL} of the "
              f"lowest eigenvalue {e0!r}")


def variational_bound(energy, e0):
    """No variational energy lies below the lowest eigenvalue."""
    if not energy >= e0 - DENSE_REL_TOL * abs(e0):
        _fail(f"energy {energy!r} lies below the lowest eigenvalue {e0!r}")


def matches_dense(energy, dense):
    """The reported exact energy equals psi^dagger M psi."""
    if not abs(energy - dense) <= DENSE_REL_TOL * max(1.0, abs(dense)):
        _fail(f"energy {energy!r} differs from the dense value {dense!r}")


def scaling_exponent(exponent):
    lo, hi = EXPONENT_RANGE
    if not lo <= exponent <= hi:
        _fail(f"fitted exponent {exponent!r} lies outside [{lo}, {hi}]")


def prefactor_order(compact, direct):
    """The two-qubit encoding needs fewer shots than the four-qubit one."""
    if not compact < direct:
        _fail(f"compact prefactor {compact!r} is not below the direct "
              f"prefactor {direct!r}")


def rms_rows(rows, v_rel, repeats):
    """Each row's RMS relative error is near sqrt(v_rel / n).

    The estimator is unbiased with variance v_rel / n, so the mean of
    `repeats` squared errors has a relative spread of about
    sqrt(2 / repeats), and the RMS half that.
    """
    tol = RMS_SIGMAS / math.sqrt(2.0 * repeats)
    for shots, rms in rows:
        expected = math.sqrt(v_rel / shots)
        if not abs(rms / expected - 1.0) <= tol:
            _fail(f"RMS error {rms!r} at {shots} shots is not within "
                  f"{tol:.3f} of sqrt(v_rel/n) = {expected!r}")


def within_sigmas(estimate, mean, std_error, label):
    if not abs(estimate - mean) <= SAMPLED_SIGMAS * std_error:
        _fail(f"{label} estimate {estimate!r} is more than {SAMPLED_SIGMAS} "
              f"standard errors ({std_error!r}) from {mean!r}")


def exit_code(command, code):
    if code != 0:
        _fail(f"`{' '.join(command)}` exited with {code!r}")


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text, path="JSON"):
    """Parse JSON, rejecting NaN and Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as err:
        _fail(f"{path} is not valid JSON: {err}")


def read_csv(text):
    """Float rows of a CSV file below its one header line."""
    lines = text.strip().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def spectrum(matrix, eigenvalues):
    """The stored eigenvalues are those of the stored matrix."""
    expected = np.linalg.eigvalsh(np.asarray(matrix, dtype=float))
    got = np.asarray(eigenvalues, dtype=float)
    scale = max(1.0, float(np.abs(expected).max()))
    if got.shape != expected.shape or \
            not np.abs(np.sort(got) - expected).max() <= 1e-9 * scale:
        _fail(f"eigenvalues {got.tolist()} do not match eigvalsh "
              f"{expected.tolist()}")


def form_factor(q2, values):
    """F(0) = 1, |F| <= 1 and F non-increasing in Q^2 while positive.

    In the four-state basis the |m| = 1 components carry a Laguerre
    factor L_1(z) = 1 - z, so F crosses zero near Q^2 = 2.3 GeV^2, dips to
    about -5e-5 and climbs back towards 0.  Monotonicity is therefore
    required only up to the first grid point where F is not positive.
    """
    q2 = np.asarray(q2, dtype=float)
    values = np.asarray(values, dtype=float)
    if q2[0] != 0.0 or not abs(values[0] - 1.0) <= 1e-6:
        _fail(f"F({q2[0]!r}) = {values[0]!r}, expected F(0) = 1")
    if not np.abs(values).max() <= 1.0 + 1e-9:
        _fail(f"|F| reaches {np.abs(values).max()!r} > 1")
    nonpositive = np.flatnonzero(values <= 0.0)
    end = nonpositive[0] + 1 if nonpositive.size else values.size
    rises = np.flatnonzero(np.diff(values[:end]) > 0.0)
    if rises.size:
        i = rises[0] + 1
        _fail(f"form factor rises to {values[i]!r} at Q^2 = {q2[i]!r} "
              f"before its first zero")


def pdf_normalization(x, f):
    """The valence PDF integrates to 1 (trapezoid rule on its grid)."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    norm = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(x)))
    if not abs(norm - 1.0) <= PDF_NORM_TOL:
        _fail(f"PDF integrates to {norm!r}, not 1")


def published_values(m_pi2, r_c):
    """The default parameters reproduce the paper's m_pi^2 and r_c."""
    if not abs(m_pi2 - PUBLISHED_M_PI2) <= 1e-3 * PUBLISHED_M_PI2:
        _fail(f"m_pi^2 = {m_pi2!r} MeV^2, published {PUBLISHED_M_PI2}")
    if not abs(r_c - PUBLISHED_R_C) <= 0.01 * PUBLISHED_R_C:
        _fail(f"r_c = {r_c!r} MeV^-1, published {PUBLISHED_R_C}")
