"""Blocklength allocation under explicit reliability and security thresholds,
the fixed-leakage baseline, and the statistical-CSI expectation of the LFP.

With power fixed, every link's error probability falls in the blocklength,
so Bob's error falls and the leakage (one minus the product of the
eavesdroppers' errors) rises, and each threshold cuts one end of an integer
feasibility interval.  The searches run on the scenario's own eavesdropper
model (core.linkset_for).  For one eavesdropper (colluders collapse to one)
the LFP is proven convex in the blocklength inside that interval and the
effective secrecy throughput quasi-concave, so integer golden-section search
recovers the exact optimizer; for passive sets no such proof is at hand, and
the test suite checks the search results against dense scans of the interval.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .core import (
    LinkSet,
    Resources,
    Scenario,
    fbl_error_over_gains,
    lfp_from_errors,
    linkset_for,
)
from .errors import InfeasibleError
from .oracle import GridSpec, golden_section_max, refine_argmin


# ---------------------------------------------------------------------------
# thresholds and fading descriptions
# ---------------------------------------------------------------------------

def _check_cap(name: str, v: float) -> None:
    """ValueError unless the probability cap v lies in (0, 0.5], the premise
    of the convexity results used by the searches below."""
    if not 0.0 < v <= 0.5:
        raise ValueError(f"{name} must lie in (0, 0.5], got {v}")


@dataclass(frozen=True)
class Thresholds:
    """Leakage cap and reliability cap, each in (0, 0.5]."""

    delta_max: float
    eps_b_max: float

    def __post_init__(self):
        _check_cap("delta_max", self.delta_max)
        _check_cap("eps_b_max", self.eps_b_max)


@dataclass(frozen=True)
class ExponentialGain:
    """Eavesdropper gain fading with an exponential law (Rayleigh magnitude).
    mean = None defers to the channel's mean_gain."""

    mean: Optional[float] = None

    def __post_init__(self):
        if self.mean is not None and not (math.isfinite(self.mean) and self.mean > 0.0):
            raise ValueError(f"mean gain must be finite and > 0, got {self.mean}")


@dataclass(frozen=True)
class PointMassGain:
    """Degenerate fading pinned at one gain; the zero-variance sanity limit.
    value = None defers to the channel's mean_gain."""

    value: Optional[float] = None

    def __post_init__(self):
        if self.value is not None and not (math.isfinite(self.value) and self.value >= 0.0):
            raise ValueError(f"point-mass gain must be finite and >= 0, got {self.value}")


@dataclass(frozen=True)
class MonteCarlo:
    """Seeded draw-average estimator; the seed is mandatory so every run of a
    configuration reproduces byte-identical results."""

    samples: int = 5000
    seed: Optional[int] = None

    def __post_init__(self):
        if not (isinstance(self.samples, (int, np.integer)) and self.samples >= 1):
            raise ValueError(f"samples must be an integer >= 1, got {self.samples!r}")
        if self.seed is None:
            raise ValueError("a Monte Carlo seed is required for reproducibility")


@dataclass(frozen=True)
class GaussQuadrature:
    """Deterministic estimator: composite Gauss-Legendre panels of this many
    nodes over the gain itself, split at the decode transition, with the
    gain density folded into the integrand (see expected_eps_e)."""

    nodes: int = 64

    def __post_init__(self):
        if not (isinstance(self.nodes, (int, np.integer)) and self.nodes >= 2):
            raise ValueError(
                f"at least two quadrature nodes are required, as an integer; got {self.nodes!r}")


@dataclass(frozen=True)
class FadingSpec:
    distribution: Union[ExponentialGain, PointMassGain] = field(
        default_factory=ExponentialGain
    )
    estimator: Union[MonteCarlo, GaussQuadrature] = field(
        default_factory=GaussQuadrature
    )


# ---------------------------------------------------------------------------
# feasible interval and searches at fixed power
# ---------------------------------------------------------------------------

def _first_true(pred, lo: int, hi: int) -> int:
    """Smallest integer in [lo, hi] satisfying a predicate that is monotone
    false-then-true in m; hi + 1 if even hi fails."""
    if not pred(hi):
        return hi + 1
    if pred(lo):
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _window(links: LinkSet, p: float, th: Thresholds,
            eps_e: Optional[Callable[[float], float]] = None
            ) -> Optional[Tuple[int, int]]:
    """Integer blocklengths meeting both thresholds at fixed power, or None.
    eps_e(m) is the eavesdropper's error at blocklength m, by default the
    link set's own.  ValueError unless p lies in (0, p_cap].

    Reliability cuts from below (error falls with m), leakage cuts from above
    (leakage rises with m)."""
    if not 0.0 < p <= links.p_cap:
        raise ValueError(f"power must lie in (0, p_cap = {links.p_cap:g}], got {p!r}")
    eps_e = eps_e or (lambda m: links.eps_pair(m, p)[1])
    m_lo = _first_true(lambda m: links.errors(float(m), p)[0] <= th.eps_b_max,
                       1, links.m_cap)
    m_hi = _first_true(lambda m: 1.0 - eps_e(float(m)) > th.delta_max,
                       1, links.m_cap) - 1
    return (m_lo, m_hi) if m_lo <= m_hi else None


def feasible_m_interval(scenario: Scenario, p: float, th: Thresholds
                        ) -> Optional[Tuple[int, int]]:
    """Integer blocklengths meeting both thresholds at fixed power, or None."""
    return _window(linkset_for(scenario), p, th)


def solve_blocklength(scenario: Scenario, p: float, th: Thresholds
                      ) -> Tuple[int, float]:
    """Minimize the LFP over the feasible blocklength interval by unimodal
    integer search (the LFP is unimodal in the blocklength there)."""
    links = linkset_for(scenario)
    interval = _window(links, p, th)
    if interval is None:
        raise InfeasibleError("no blocklength satisfies both thresholds")
    m_lo, m_hi = interval
    m_star, neg = golden_section_max(lambda m: -links.lfp(float(m), p), m_lo, m_hi)
    return m_star, -neg


def maximize_throughput(scenario: Scenario, p: float, th: Thresholds
                        ) -> Tuple[int, float]:
    """Maximize the effective secrecy throughput (d/m) * (1 - LFP) over the
    feasible interval; the objective is quasi-concave in the blocklength."""
    links = linkset_for(scenario)
    interval = _window(links, p, th)
    if interval is None:
        raise InfeasibleError("no blocklength satisfies both thresholds")
    m_lo, m_hi = interval

    def tau(m: int) -> float:
        return scenario.d / m * (1.0 - links.lfp(float(m), p))

    return golden_section_max(tau, m_lo, m_hi)


# ---------------------------------------------------------------------------
# fixed-leakage baseline over the full box
# ---------------------------------------------------------------------------

def solve_fixed_leakage(scenario: Scenario, delta_cap: float,
                        p_points: int = 400, refine_rounds: int = 3,
                        p_min: Optional[float] = None
                        ) -> Tuple[int, float, float]:
    """Minimize Bob's error probability subject to a hard leakage cap over the
    resource box; returns (m, p, achieved LFP).

    Equivalent to pure reliability maximization once the leakage budget is
    pinned; the achieved LFP is reported for comparison against the joint
    optimum.  The leakage is one minus the product of the eavesdroppers'
    errors under the scenario's model.  Every integer blocklength times
    p_points powers on [p_min, p_cap] (p_min defaults to 1e-6 p_cap; one
    power point means p_cap alone) is scanned and refined with
    oracle.refine_argmin.  On a box of cells, Bob's error is at least its
    LinkSet.box_floor value, and the whole box breaks the cap when its
    smallest leakage, one minus the box_floor joint error, does.  The result
    equals a scan of every cell.  ValueError unless delta_cap lies in
    (0, 0.5], p_points >= 1, refine_rounds >= 0 and p_min lies in
    (0, p_cap]."""
    _check_cap("delta_cap", delta_cap)
    grid = GridSpec(p_points=p_points, refine_rounds=refine_rounds, p_min=p_min)
    links = linkset_for(scenario)

    def capped_eps_b(m, p):
        eps_b, eps_e = links.eps_pair(m, p)
        return np.where((1.0 - eps_e) <= delta_cap, eps_b, np.inf)

    def bound(m_lo, m_hi, p_lo, p_hi):
        eps_b, eps_e = links.box_floor(m_lo, m_hi, p_lo, p_hi)
        # the cap's slack is grid_argmin's allowance for ulp-level effects
        return np.where(1.0 - eps_e > delta_cap * (1.0 + 1e-9) + 1e-15, np.inf, eps_b)

    best = refine_argmin(grid, links.m_cap, links.p_cap, capped_eps_b, bound,
                         p_floor=1e-6)
    if best is None:
        raise InfeasibleError("the leakage cap is violated everywhere in the box")
    _, m_star, p_star = best
    return m_star, p_star, float(links.lfp(float(m_star), p_star))


# ---------------------------------------------------------------------------
# statistical CSI
# ---------------------------------------------------------------------------

def _bob_link(scenario: Scenario) -> LinkSet:
    """Bob's link alone: under statistical CSI the eavesdropper's gain is a
    fade, and its instantaneous value (zero included) is never consulted."""
    return LinkSet(scenario.d, scenario.bob, (), scenario.m_cap, scenario.p_cap)


def _eve_mean_gain(scenario: Scenario, fading: FadingSpec) -> float:
    dist = fading.distribution
    pinned = dist.mean if isinstance(dist, ExponentialGain) else dist.value
    if pinned is not None:
        return float(pinned)
    mean = scenario.single_eve.mean_gain
    if mean is None:
        raise ValueError(
            "statistical CSI needs a mean gain: set the eavesdropper channel's "
            "mean_gain or pin one in the fading distribution"
        )
    return float(mean)


def _decode_transition(scenario: Scenario, res: Resources) -> Tuple[float, float]:
    """Gain at which the eavesdropper's capacity meets the rate, and the gain
    half-width over which the decoding exponent sweeps +-8 around it.  At
    the transition C(gamma*) = d/m, so the exponent's slope in the gain is
    k * sqrt(m / (gamma* (gamma* + 2))) with k = p / noise_power."""
    eve = scenario.single_eve
    r = scenario.d / res.m
    if r > 300.0:
        return math.inf, math.inf
    gamma_star = 2.0 ** r - 1.0
    k = res.p / eve.noise_power
    return gamma_star / k, 8.0 * math.sqrt(gamma_star * (gamma_star + 2.0) / res.m) / k


@functools.lru_cache(maxsize=16)
def _leggauss(nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre nodes and weights on [-1, 1] for this node count,
    built once (an eigenvalue solve) and returned read-only, since every
    caller shares them."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def expected_eps_e(scenario: Scenario, res: Resources, fading: FadingSpec) -> float:
    """Expectation of the eavesdropper's decoding error over the gain fading.

    The quadrature estimator integrates Gauss-Legendre panels split at the
    decode transition (where the error swings between its extremes), with the
    exponential density folded in explicitly; this stays accurate even when
    the transition lies many mean-gains into the tail.  At zero power every
    gain draw fails to decode, so the expectation is its zero-SNR limit, 1."""
    eve = scenario.single_eve
    xi = _eve_mean_gain(scenario, fading)
    if res.p == 0.0:
        return 1.0
    dist = fading.distribution
    est = fading.estimator

    if isinstance(dist, PointMassGain):
        return float(
            fbl_error_over_gains(np.array([xi]), eve.noise_power, res.p,
                                 scenario.d, res.m)[0]
        )
    if isinstance(est, GaussQuadrature):
        z_hi = 45.0 * xi
        z_star, half = _decode_transition(scenario, res)
        cuts = [0.0]
        if math.isfinite(z_star) and 0.0 < z_star < z_hi:
            lo = max(0.0, z_star - 2.0 * half)
            hi = min(z_hi, z_star + 2.0 * half)
            for c in (lo, hi):
                if 0.0 < c < z_hi:
                    cuts.append(c)
        cuts.append(z_hi)
        cuts = sorted(set(cuts))
        # int: an np.integer node count would key a second cache entry
        x, w = _leggauss(int(est.nodes))
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            z = 0.5 * (b - a) * x + 0.5 * (a + b)
            wz = 0.5 * (b - a) * w
            vals = fbl_error_over_gains(z, eve.noise_power, res.p,
                                        scenario.d, res.m)
            total += float(np.sum(wz * vals * np.exp(-z / xi) / xi))
        # the probability mass beyond 45 mean gains is below 3e-20
        return total
    rng = np.random.default_rng(est.seed)
    z = rng.exponential(xi, size=est.samples)
    vals = fbl_error_over_gains(z, eve.noise_power, res.p, scenario.d, res.m)
    return float(np.mean(vals))


def expected_lfp(scenario: Scenario, res: Resources, fading: FadingSpec) -> float:
    """Expected LFP under statistical eavesdropper CSI.  Bob's link is treated
    as known, so the expectation acts on the leakage side alone (the LFP is
    affine in the eavesdropper's error probability)."""
    eps_b = _bob_link(scenario).errors(res.m, res.p)[0]
    return float(lfp_from_errors(eps_b, expected_eps_e(scenario, res, fading)))


def feasible_m_interval_statistical(scenario: Scenario, p: float, th: Thresholds,
                                    fading: FadingSpec
                                    ) -> Optional[Tuple[int, int]]:
    """Feasible blocklengths when the leakage constraint holds in expectation
    over the eavesdropper fading."""
    return _window(_bob_link(scenario), p, th,
                   lambda m: expected_eps_e(scenario, Resources(m, p), fading))


def solve_blocklength_statistical(scenario: Scenario, p: float, th: Thresholds,
                                  fading: FadingSpec) -> Tuple[int, float]:
    """Minimize the expected LFP over the statistically feasible interval by
    unimodal integer search."""
    interval = feasible_m_interval_statistical(scenario, p, th, fading)
    if interval is None:
        raise InfeasibleError("no blocklength satisfies both thresholds in expectation")
    m_lo, m_hi = interval

    def objective(m: int) -> float:
        return -expected_lfp(scenario, Resources(float(m), p), fading)

    m_star, neg = golden_section_max(objective, m_lo, m_hi)
    return m_star, -neg
