"""Products of error probabilities bounded by weighted arithmetic means, and
the Gaussian tail function bounded by the tangents of its concave logarithm.

Together these turn the leakage-failure probability into a surrogate that
upper-bounds it everywhere and touches it at the anchor allocation.
SurrogateModel holds, per link of a LinkSet, the log-tangent coefficients of
its error bound (and, per eavesdropper, of its leakage bound), and evaluates
each term of the LFP's telescoped expansion as the exp of the sum of its
factors' log bounds; the iterative solver minimizes it, and approx_lfp
evaluates it for any scenario (one eavesdropper, passive sets and colluders
alike).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import log_ndtr

from .core import LinkSet, Resources, Scenario, linkset_for

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


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
# log-tangent bound of the Gaussian tail
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpBoundCoeffs:
    """Coefficients of the anchored bound Q(w) <= exp(log_q - a * (w -
    omega_hat)), the tangent of the concave log Q at omega_hat: a is the
    normal hazard rate there and log_q = log Q(omega_hat), so the bound is
    tight at the anchor.  The coefficients are floats for one anchor, or
    arrays of one shape for several.

    Below omega_hat ~ -38.6 the hazard rate underflows to 0 and the bound is
    the constant Q(omega_hat) = 1.
    """

    a: float
    omega_hat: float
    log_q: float

    def __post_init__(self):
        if not np.all(np.asarray(self.a) >= 0.0):
            raise ValueError("a must be nonnegative")
        if not np.all(np.isfinite(self.log_q)):
            raise ValueError("log_q must be finite")


def _hazard(x):
    """phi(x) / Q(x), the normal hazard rate, computed in log space."""
    xv = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        out = np.exp(-0.5 * xv * xv - _LOG_SQRT_2PI - log_ndtr(-xv))
    return out if np.ndim(x) else float(out)


def exp_bound_coeffs(omega_hat) -> ExpBoundCoeffs:
    """Build the anchored log-tangent bound for the Gaussian tail at
    omega_hat, elementwise for an array of anchors; both coefficients stay
    finite out to anchors where the tail itself underflows."""
    if not np.all(np.isfinite(omega_hat)):
        raise ValueError("omega_hat must be finite")
    log_q = log_ndtr(-np.asarray(omega_hat, dtype=float))
    return ExpBoundCoeffs(a=_hazard(omega_hat), omega_hat=omega_hat,
                          log_q=log_q if np.ndim(omega_hat) else float(log_q))


def _log_upper(w, coeffs: ExpBoundCoeffs):
    """log of the bound on Q(w): log_q - a * (w - omega_hat)."""
    return coeffs.log_q - coeffs.a * (w - coeffs.omega_hat)


def q_upper(w, coeffs: ExpBoundCoeffs):
    """Evaluate the upper bound exp(log_q - a * (w - omega_hat)) >= Q(w);
    tight at the coefficients' anchor, inf where it overflows."""
    with np.errstate(over="ignore"):
        out = np.exp(_log_upper(np.asarray(w, dtype=float), coeffs))
    return out if np.ndim(w) else float(out)


def one_minus_q_upper(w, coeffs: ExpBoundCoeffs):
    """Evaluate the upper bound on 1 - Q(w) = Q(-w), using coefficients built
    at the negated anchor; tight at w = -coeffs.omega_hat."""
    return q_upper(-np.asarray(w) if np.ndim(w) else -w, coeffs)


# ---------------------------------------------------------------------------
# anchored surrogate for the LFP
# ---------------------------------------------------------------------------

class SurrogateModel:
    """The anchored surrogate of the LFP for one Bob link (index 0) and N
    eavesdropper links (indices 1..N): the sum of one reliability term
    bounding eps_b * prod_n eps_{e,n} and, per eavesdropper n, one leakage
    term bounding (1 - eps_{e,n}) * prod_{i>n} eps_{e,i} (the telescoped
    expansion of 1 - prod_n eps_{e,n}).  A term is the exp of the sum of its
    factors' log-tangent bounds, so it upper-bounds its product and matches
    it at the anchor.

    The model holds two ExpBoundCoeffs whose fields are column arrays over
    the links: err_coeffs for every link's error bound and leak_coeffs for
    every eavesdropper's leakage bound.
    """

    def __init__(self, links: LinkSet, m_hat: float, p_hat: float):
        self.links = links
        self.m_hat = float(m_hat)
        self.p_hat = float(p_hat)
        whats = links.omegas(m_hat, p_hat)[:, None]
        self.err_coeffs = exp_bound_coeffs(whats)
        self.leak_coeffs = exp_bound_coeffs(-whats[1:])
        self.anchor_value = self.value(m_hat, p_hat)

    def terms_at(self, omegas: Sequence) -> np.ndarray:
        """The terms at the per-link exponents omegas (a sequence of
        equal-shape arrays, or their stack), stacked on the first axis: the
        reliability term, then the leakage terms in eavesdropper order.
        Each log bound is computed once, and the eavesdroppers' error bounds
        are summed from the last one back."""
        w = np.asarray(omegas, dtype=float)
        flat = w.reshape(w.shape[0], -1)
        err = _log_upper(flat, self.err_coeffs)
        # row n of tail: the summed log error bounds of the eavesdroppers after n
        tail = np.zeros_like(err)
        tail[:-1] = np.cumsum(err[:0:-1], axis=0)[::-1]
        logs = np.concatenate([err[:1] + tail[:1],
                               _log_upper(-flat[1:], self.leak_coeffs) + tail[1:]])
        with np.errstate(over="ignore"):
            return np.exp(logs).reshape(w.shape)

    def value_at(self, omegas: Sequence):
        """The sum of terms_at(omegas).  Far from the anchor it can overflow
        to inf, an honest report that the bound is vacuous there."""
        terms = self.terms_at(omegas)
        with np.errstate(over="ignore"):
            total = sum(terms[1:], terms[0])
        return total if np.ndim(total) else float(total)

    def value(self, m, p):
        return self.value_at(self.links.omegas(m, p))


def approx_lfp(m: float, p: float, scenario: Scenario, anchor: Resources) -> float:
    """Anchored surrogate of the scenario's LFP under its own eavesdropper
    model: one eavesdropper, independent ones (each telescoped product term
    bounded separately) or colluders on their summed-SNR link.

    Upper-bounds the true LFP for every allocation and equals it at the
    anchor allocation.
    """
    return SurrogateModel(linkset_for(scenario), anchor.m, anchor.p).value(m, p)
