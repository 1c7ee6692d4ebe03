"""Curvature analysis of the decoding exponent omega(m, p): closed-form
gradient and Hessian, the rate threshold above which omega is jointly concave,
and finite-difference validation utilities.

The joint-concavity condition reduces to a quadratic in the rate r = d/m:
h(r) = Da * r^2 + Db * r + Dc with t = gamma^2 + 2*gamma,

    Da = (9t + 8) / (4 t^2)
    Db = [t (3t + 8) - ln2 * C * (6t + 8)] / (4 t^2 ln2)
    Dc = [ln2 * C * t (t + 4) - (ln2)^2 C^2 (3t + 4) - t^2] / (4 t^2 (ln2)^2)

sign(det Hessian) = sign(h(r)), so omega is concave exactly when r clears the
larger root of h.  The coefficients above are verified against the Hessian
determinant directly by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LN2, ChannelSpec, omega
from .errors import DegenerateChannelError


# ---------------------------------------------------------------------------
# concavity condition
# ---------------------------------------------------------------------------

def _quadratic_coeffs(gamma):
    g = np.asarray(gamma, dtype=float)
    t = g * g + 2.0 * g
    c = np.log2(1.0 + g)
    da = (9.0 * t + 8.0) / (4.0 * t * t)
    db = (t * (3.0 * t + 8.0) - LN2 * c * (6.0 * t + 8.0)) / (4.0 * t * t * LN2)
    dc = (LN2 * c * t * (t + 4.0) - LN2 ** 2 * c ** 2 * (3.0 * t + 4.0) - t * t) / (
        4.0 * t * t * LN2 ** 2
    )
    return da, db, dc


def h_of_rate(gamma, r):
    """The determinant-sign quadratic h(r) = Da r^2 + Db r + Dc."""
    da, db, dc = _quadratic_coeffs(gamma)
    return da * np.asarray(r, dtype=float) ** 2 + db * np.asarray(r, dtype=float) + dc


def rate_threshold(gamma):
    """Smallest rate at which omega(m, p) is jointly concave at SNR gamma:
    the larger root of h(r), clamped below at 0 when h has no positive root."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g <= 0.0):
        raise DegenerateChannelError("rate_threshold requires gamma > 0")
    da, db, dc = _quadratic_coeffs(g)
    disc = db * db - 4.0 * da * dc
    with np.errstate(invalid="ignore"):
        root = (-db + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * da)
    out = np.where(disc < 0.0, 0.0, np.maximum(root, 0.0))
    return out if np.ndim(gamma) else float(out)


def rate_threshold_sweep_max(gamma_max: float = 100.0, points: int = 20000) -> float:
    """Maximum of rate_threshold over a dense log grid on (0, gamma_max]."""
    gs = np.geomspace(1e-8, gamma_max, points)
    return float(np.max(rate_threshold(gs)))


# ---------------------------------------------------------------------------
# closed-form derivatives of omega
# ---------------------------------------------------------------------------

def omega_gradient_mgamma(gamma, d, m):
    """(d omega / dm, d omega / d gamma) in the (m, gamma) parameterization."""
    g = np.asarray(gamma, dtype=float)
    mv = np.asarray(m, dtype=float)
    t = g * g + 2.0 * g
    v = 1.0 - (1.0 + g) ** -2
    c = np.log2(1.0 + g)
    r = d / mv
    d_m = 0.5 * LN2 * mv ** -0.5 * v ** -0.5 * (c + r)
    d_g = np.sqrt(mv) * t ** -1.5 * (t - np.log(1.0 + g) + r * LN2)
    return d_m, d_g


def omega_hessian_mgamma(gamma: float, d: float, m: float) -> np.ndarray:
    """Closed-form Hessian of omega in (m, gamma)."""
    if gamma <= 0.0:
        raise DegenerateChannelError("omega derivatives require gamma > 0")
    t = gamma * gamma + 2.0 * gamma
    v = 1.0 - (1.0 + gamma) ** -2
    c = math.log2(1.0 + gamma)
    r = d / m
    h_mm = -0.25 * LN2 * m ** -1.5 * v ** -0.5 * (c + 3.0 * r)
    h_mg = 0.5 * m ** -0.5 * t ** -1.5 * (t - LN2 * (c + r))
    delta2 = (
        -((1.0 + gamma) ** 3)
        + 1.0 / (1.0 + gamma)
        + 3.0 * (1.0 + gamma) * math.log(1.0 + gamma)
    )
    h_gg = math.sqrt(m) * t ** -2.5 * (delta2 - 3.0 * LN2 * (1.0 + gamma) * r)
    return np.array([[h_mm, h_mg], [h_mg, h_gg]])


def omega_hessian(gamma: float, d: float, m: float, ch: ChannelSpec) -> np.ndarray:
    """Hessian of omega in (m, p); the power map is linear so this is a
    congruence of the (m, gamma) Hessian and shares its definiteness."""
    k = ch.gain / ch.noise_power
    h = omega_hessian_mgamma(gamma, d, m)
    scale = np.array([[1.0, k], [k, k * k]])
    return h * scale


def omega_hessian_fd(gamma: float, d: float, m: float,
                     rel_step: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian of omega in (m, gamma), used to validate the
    closed form.  Steps are relative, with an absolute floor and one Richardson
    extrapolation round when a coordinate is below 1e-6."""

    def f(mm, gg):
        return omega(gg, d, mm)

    def second(h_m, h_g):
        f0 = f(m, gamma)
        d_mm = (f(m + h_m, gamma) - 2.0 * f0 + f(m - h_m, gamma)) / h_m ** 2
        d_gg = (f(m, gamma + h_g) - 2.0 * f0 + f(m, gamma - h_g)) / h_g ** 2
        d_mg = (
            f(m + h_m, gamma + h_g)
            - f(m + h_m, gamma - h_g)
            - f(m - h_m, gamma + h_g)
            + f(m - h_m, gamma - h_g)
        ) / (4.0 * h_m * h_g)
        return np.array([[d_mm, d_mg], [d_mg, d_gg]])

    h_m = rel_step * max(abs(m), 1e-6)
    h_g = rel_step * max(abs(gamma), 1e-6)
    if min(abs(m), abs(gamma)) >= 1e-6:
        return second(h_m, h_g)
    coarse = second(2.0 * h_m, 2.0 * h_g)
    fine = second(h_m, h_g)
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcavityReport:
    """Outcome of the joint-concavity check at one (gamma, d, m) point.

    The Hessian is reported in the (m, gamma) parameterization; the linear
    power map preserves its definiteness.
    """

    gamma: float
    rate_threshold: float
    condition_holds: bool
    hessian: np.ndarray
    leading_minor_sign: int
    det_sign: int


def check_concavity(gamma: float, d: float, m: float) -> ConcavityReport:
    """Evaluate the concavity condition r >= rate_threshold(gamma) and the
    Hessian signs at one point."""
    thr = rate_threshold(gamma)
    h = omega_hessian_mgamma(gamma, d, m)
    det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
    return ConcavityReport(
        gamma=gamma,
        rate_threshold=thr,
        condition_holds=bool(d / m >= thr),
        hessian=h,
        leading_minor_sign=int(np.sign(h[0, 0])),
        det_sign=int(np.sign(det)),
    )
