"""Products of error probabilities bounded by weighted arithmetic means, and
the Gaussian tail function squeezed between anchored exponentials.

Together these turn the leakage-failure probability into a composite
exponential surrogate that upper-bounds it everywhere and touches it at the
anchor allocation.  SurrogateModel holds, per link of a LinkSet, the bound
coefficients and floored anchor probabilities, and evaluates the surrogate
from the links' exponents with each bound computed once; the iterative
solver minimizes it, and approx_lfp evaluates it for any scenario (one
eavesdropper, passive sets and colluders alike).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.special import log_ndtr

from .core import LinkSet, Resources, Scenario, linkset_for, q
from .errors import DegenerateLocalPointError

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS_FLOOR = 1e-300
_EPS_CEIL = float(np.nextafter(1.0, 0.0))


# ---------------------------------------------------------------------------
# product bound
# ---------------------------------------------------------------------------

def am_gm_upper(f: Sequence[float], f_hat: Sequence[float]) -> float:
    """Upper bound on prod(f) anchored at f_hat: with weights F_i = f_hat[0] /
    f_hat[i], the product is at most (1 / prod(F_i)) * (mean(F_i * f_i)) ** N,
    which simplifies to prod(f_hat) * mean(f_i / f_hat[i]) ** N.

    Equality holds when f == f_hat (more precisely when all ratios agree).
    """
    fv = np.asarray(f, dtype=float)
    hv = np.asarray(f_hat, dtype=float)
    if fv.shape != hv.shape or fv.ndim != 1 or fv.size < 1:
        raise ValueError("f and f_hat must be equal-length non-empty vectors")
    if np.any(fv <= 0.0) or np.any(hv <= 0.0):
        raise ValueError("all entries must be positive")
    n = fv.size
    return float(np.prod(hv) * np.mean(fv / hv) ** n)


# ---------------------------------------------------------------------------
# exponential squeeze of the Gaussian tail
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpBoundCoeffs:
    """Coefficients (a, b, c) of the anchored exponential bound
    b * exp(-a * w) + c >= Q(w), with equality at w = omega_hat.

    log_b carries b in log space; b itself can overflow (or underflow) for
    |omega_hat| beyond ~38, where evaluation falls back to log arithmetic and
    the bound degrades gracefully toward a constant.
    """

    a: float
    b: float
    c: float
    omega_hat: float
    log_b: float

    def __post_init__(self):
        if not self.a > 0.0:
            raise ValueError("a must be positive")
        if not math.isfinite(self.log_b):
            raise ValueError("log_b must be finite")


def _hazard(x):
    """phi(x) / Q(x), the normal hazard rate, computed in log space."""
    xv = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        out = np.exp(-0.5 * xv * xv - _LOG_SQRT_2PI - log_ndtr(-xv))
    return out if np.ndim(x) else float(out)


def exp_bound_coeffs(omega_hat: float) -> ExpBoundCoeffs:
    """Build the anchored exponential bound for the Gaussian tail at omega_hat.

    The decay rate is max(hazard rate, omega_hat); the hazard rate always wins
    mathematically, and the log-space evaluation keeps it finite out to anchors
    where the tail itself underflows.
    """
    if not math.isfinite(omega_hat):
        raise ValueError("omega_hat must be finite")
    a = max(_hazard(omega_hat), omega_hat, _EPS_FLOOR)
    log_b = -math.log(a) - _LOG_SQRT_2PI + a * omega_hat - 0.5 * omega_hat ** 2
    with np.errstate(over="ignore", under="ignore"):
        b = math.exp(log_b) if log_b < 709.0 else math.inf
    c = q(omega_hat) - math.exp(min(log_b - a * omega_hat, 709.0))
    return ExpBoundCoeffs(a=a, b=b, c=c, omega_hat=omega_hat, log_b=log_b)


def q_upper(w, coeffs: ExpBoundCoeffs):
    """Evaluate the upper bound b * exp(-a * w) + c >= Q(w); tight at the
    coefficients' anchor."""
    wv = np.asarray(w, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        out = np.exp(np.minimum(coeffs.log_b - coeffs.a * wv, 709.0)) + coeffs.c
    return out if np.ndim(w) else float(out)


def one_minus_q_upper(w, coeffs: ExpBoundCoeffs):
    """Evaluate b * exp(+a * w) + c >= 1 - Q(w), using coefficients built at
    the negated anchor; tight at w = -coeffs.omega_hat."""
    return q_upper(-np.asarray(w) if np.ndim(w) else -w, coeffs)


# ---------------------------------------------------------------------------
# anchored composite surrogate for the LFP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalPoint:
    """The anchor allocation of one surrogate round, with Bob's error and the
    eavesdroppers' joint error (the product of theirs) it induces."""

    m_hat: float
    p_hat: float
    eps_b_hat: float
    eps_e_hat: float

    def __post_init__(self):
        if not (self.m_hat > 0.0 and self.p_hat > 0.0):
            raise ValueError("anchor blocklength and power must be positive")


def local_point(scenario: Scenario, res: Resources) -> LocalPoint:
    """Anchor a scenario, under its own eavesdropper model, at an allocation.
    Error probabilities are floored away from exact 0/1 so downstream ratio
    weights stay finite."""
    eps_b, eps_e = linkset_for(scenario).eps_pair(res.m, res.p)
    return LocalPoint(res.m, res.p, min(max(float(eps_b), _EPS_FLOOR), _EPS_CEIL),
                      min(max(float(eps_e), _EPS_FLOOR), _EPS_CEIL))


class SurrogateModel:
    """The anchored composite surrogate of the LFP for one Bob link (index 0)
    and N eavesdropper links (indices 1..N): the sum of one reliability term
    bounding eps_b * prod_n eps_{e,n} and, per eavesdropper n, one leakage
    term bounding (1 - eps_{e,n}) * prod_{i>n} eps_{e,i} (the telescoped
    expansion of 1 - prod_n eps_{e,n}).  A term is coef * mean(ratios) ** K,
    coef the product of its factors' anchor values and each ratio a factor's
    anchored exponential bound over its anchor value, so it upper-bounds its
    product and matches it at the anchor.

    Per link the model holds the error-bound coefficients and floored anchor
    error, per eavesdropper the leakage-bound coefficients and anchor
    leakage, and omega_floors lists the (link, exponent) pairs below which a
    link's error bound would exceed one.
    """

    def __init__(self, links: LinkSet, m_hat: float, p_hat: float):
        self.links = links
        self.m_hat = float(m_hat)
        self.p_hat = float(p_hat)
        whats = [float(w) for w in links.omegas(m_hat, p_hat)]
        # anchor values floored away from exact 0/1 so the ratios stay finite
        self.eps_hats = [min(max(q(w), _EPS_FLOOR), _EPS_CEIL) for w in whats]
        self.delta_hats = [max(1.0 - e, _EPS_FLOOR) for e in self.eps_hats[1:]]
        self.err_coeffs = [exp_bound_coeffs(w) for w in whats]
        self.leak_coeffs = [exp_bound_coeffs(-w) for w in whats[1:]]
        eps_e = self.eps_hats[1:]
        self.coefs = [self.eps_hats[0] * math.prod(eps_e)] + [
            d * math.prod(eps_e[n + 1:]) for n, d in enumerate(self.delta_hats)]
        self.omega_floors: List[Tuple[int, float]] = []
        for link, (cf, w_hat) in enumerate(zip(self.err_coeffs, whats)):
            if cf.a < 1e-100 or cf.c >= 1.0:
                continue  # the bound has degraded to a near-constant
            w_min = (cf.log_b - math.log1p(-cf.c)) / cf.a
            w_min = min(w_min, w_hat - 1e-9 * (1.0 + abs(w_hat)))
            self.omega_floors.append((link, w_min))
        self.anchor_value = self.value(m_hat, p_hat)

    def terms_at(self, omegas: Sequence) -> list:
        """The terms at the per-link exponents omegas (broadcast arrays
        allowed): the reliability term, then the leakage terms in
        eavesdropper order.  Each bound's ratio is computed once."""
        terms = []
        with np.errstate(over="ignore"):
            err = [q_upper(w, cf) / f
                   for w, cf, f in zip(omegas, self.err_coeffs, self.eps_hats)]
            leak = [one_minus_q_upper(w, cf) / f
                    for w, cf, f in zip(omegas[1:], self.leak_coeffs, self.delta_hats)]
            # leakage term n: eavesdropper n's leakage, then eavesdroppers n+1..N
            ratio_sets = [err] + [[r] + err[n + 2:] for n, r in enumerate(leak)]
            for coef, ratios in zip(self.coefs, ratio_sets):
                s = np.float64(0.0)
                for r in ratios:
                    s = s + r
                terms.append(coef * (s / len(ratios)) ** len(ratios))
        return terms

    def value_at(self, omegas: Sequence):
        """The sum of terms_at(omegas).  Far from the anchor it can overflow
        to inf, an honest report that the bound is vacuous there; a term
        whose coefficient underflowed to 0 times a ratio mean that overflowed
        (0 * inf) counts as inf too."""
        with np.errstate(over="ignore", invalid="ignore"):
            terms = self.terms_at(omegas)
            total = sum(terms[1:], terms[0])
        total = np.where(np.isnan(total), np.inf, total)
        return total if np.ndim(total) else float(total)

    def value(self, m, p):
        return self.value_at(self.links.omegas(m, p))


def approx_lfp(m: float, p: float, scenario: Scenario, lp: LocalPoint) -> float:
    """Anchored surrogate of the scenario's LFP under its own eavesdropper
    model: one eavesdropper, independent ones (each telescoped product term
    bounded separately) or colluders on their summed-gain link.

    Upper-bounds the true LFP for every allocation and equals it at
    (lp.m_hat, lp.p_hat).
    """
    if lp.eps_b_hat <= 0.0 or lp.eps_e_hat <= 0.0:
        raise DegenerateLocalPointError("local point carries zero error probability")
    return SurrogateModel(linkset_for(scenario), lp.m_hat, lp.p_hat).value(m, p)
