"""Products of error probabilities bounded by weighted arithmetic means, and
the Gaussian tail function squeezed between anchored exponentials.

Together these turn the leakage-failure probability into a composite
exponential surrogate that upper-bounds it everywhere and touches it at the
anchor allocation.  SurrogateModel assembles it over a LinkSet; the
iterative solver minimizes it and the public approx_* helpers evaluate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.special import log_ndtr

from .core import LinkSet, Resources, Scenario, linkset_for, linkset_single, q
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


@dataclass(frozen=True)
class FactorSpec:
    """One factor of a product term: an exponential bound on either a decoding
    error (sign -1) or a leakage probability (sign +1) of a given link."""

    link: int
    sign: int
    coeffs: ExpBoundCoeffs
    f_hat: float


@dataclass(frozen=True)
class TermSpec:
    """One product term of the surrogate, bounded by coef * mean(ratios)**K."""

    coef: float
    factors: Tuple[FactorSpec, ...]


def factor_value(fs: FactorSpec, w):
    """Evaluate one factor's exponential bound at the link exponent w."""
    if fs.sign < 0:
        return q_upper(w, fs.coeffs)
    return one_minus_q_upper(w, fs.coeffs)


def build_composite_terms(omega_b_hat: float,
                          omega_e_hats: Sequence[float]) -> List[TermSpec]:
    """Term structure of the anchored LFP surrogate for one Bob link (index 0)
    and N eavesdropper links (indices 1..N):

      - one reliability term bounding eps_b * prod_n eps_{e,n}, and
      - per eavesdropper n, a leakage term bounding
        (1 - eps_{e,n}) * prod_{i>n} eps_{e,i}

    (the telescoped expansion of 1 - prod_n eps_{e,n}).  Every factor is the
    anchored exponential bound of its probability, so each term upper-bounds
    its product and matches it exactly at the anchor.
    """
    n = len(omega_e_hats)
    if n < 1:
        raise ValueError("at least one eavesdropper exponent is required")
    eps_b0 = min(max(q(omega_b_hat), _EPS_FLOOR), _EPS_CEIL)
    eps_e0 = [min(max(q(w), _EPS_FLOOR), _EPS_CEIL) for w in omega_e_hats]
    delta0 = [max(1.0 - e, _EPS_FLOOR) for e in eps_e0]

    coeff_b = exp_bound_coeffs(omega_b_hat)
    coeff_e = [exp_bound_coeffs(w) for w in omega_e_hats]
    coeff_d = [exp_bound_coeffs(-w) for w in omega_e_hats]

    terms: List[TermSpec] = []
    reliability = [FactorSpec(0, -1, coeff_b, eps_b0)]
    reliability += [FactorSpec(i + 1, -1, coeff_e[i], eps_e0[i]) for i in range(n)]
    terms.append(TermSpec(coef=eps_b0 * math.prod(eps_e0), factors=tuple(reliability)))

    for k in range(n):
        leak = [FactorSpec(k + 1, +1, coeff_d[k], delta0[k])]
        leak += [FactorSpec(i + 1, -1, coeff_e[i], eps_e0[i]) for i in range(k + 1, n)]
        coef = delta0[k] * math.prod(eps_e0[k + 1:])
        terms.append(TermSpec(coef=coef, factors=tuple(leak)))
    return terms


def composite_value(terms: Sequence[TermSpec], link_omegas: Sequence):
    """Evaluate the surrogate: sum over terms of coef * mean(ratios)**K, where
    ratio i is the factor bound at the current link exponent over its anchor
    value.  Accepts broadcast arrays per link.  Far from the anchor the value
    can overflow to inf; that is an honest report that the bound is vacuous
    there."""
    total = None
    with np.errstate(over="ignore"):
        for term in terms:
            k = len(term.factors)
            s = np.float64(0.0)
            for fs in term.factors:
                s = s + factor_value(fs, link_omegas[fs.link]) / fs.f_hat
            part = term.coef * (s / k) ** k
            total = part if total is None else total + part
    if np.ndim(total):
        return total
    return float(total)


class SurrogateModel:
    """The anchored composite surrogate in (m, p), plus the exponent lower
    bounds that keep every error-probability factor at or below one."""

    def __init__(self, links: LinkSet, m_hat: float, p_hat: float):
        self.links = links
        self.m_hat = float(m_hat)
        self.p_hat = float(p_hat)
        whats = [float(links.omega_link(i, m_hat, p_hat))
                 for i in range(len(links.channels))]
        self.omega_hats = whats
        self.terms: List[TermSpec] = build_composite_terms(whats[0], whats[1:])
        self.anchor_value = self.value(m_hat, p_hat)
        self.omega_floors = self._exponent_floors()

    def _exponent_floors(self) -> List[Tuple[int, float]]:
        """Per link, the exponent below which its error bound would exceed 1.
        Links whose bound has degraded to a near-constant carry no floor."""
        floors = {}
        for term in self.terms:
            for fs in term.factors:
                if fs.sign >= 0:
                    continue
                cf = fs.coeffs
                if cf.a < 1e-100 or cf.c >= 1.0:
                    continue
                w_min = (cf.log_b - math.log1p(-cf.c)) / cf.a
                w_anchor = self.omega_hats[fs.link]
                margin = 1e-9 * (1.0 + abs(w_anchor))
                w_min = min(w_min, w_anchor - margin)
                floors[fs.link] = max(floors.get(fs.link, -math.inf), w_min)
        return sorted(floors.items())

    def value(self, m, p):
        return composite_value(self.terms, self.links.omegas(m, p))


def approx_lfp(m: float, p: float, scenario: Scenario, lp: LocalPoint) -> float:
    """Anchored convex surrogate of the single-eavesdropper LFP.

    Upper-bounds the true LFP for every allocation and equals it at
    (lp.m_hat, lp.p_hat).
    """
    if lp.eps_b_hat <= 0.0 or lp.eps_e_hat <= 0.0:
        raise DegenerateLocalPointError("local point carries zero error probability")
    return SurrogateModel(linkset_single(scenario), lp.m_hat, lp.p_hat).value(m, p)
