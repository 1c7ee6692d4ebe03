"""Iterative successive-approximation solver: minimize the leakage-failure
probability over (blocklength, power) by repeatedly building the anchored
exponential surrogate, minimizing it inside the resource box, and re-anchoring
at the minimizer.

The achieved LFP is non-increasing across rounds because each surrogate
dominates the true objective and touches it at the anchor; the inner step only
has to not increase the surrogate.  Since the iteration only descends, the
default start is the minimizer of the actual LFP over a coarse grid, found by
the oracle's pruned scan, so the descent starts in the global minimum's basin.
The inner minimizer is a coarse log-grid scan followed by shrinking
log-space zooms around the incumbent; a scan needs no convexity, so it stays
reliable where the surrogate's leakage term bends the valley (it is not
globally convex).  The surrogate is a valid bound at every exponent, so the
scans range over the whole resource box: the scenario's caps on m and p,
the box the oracle searches.  An integer start whose LFP beats the rounded
result is returned instead, so the solve never ends above its start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import List, Optional, Tuple

import numpy as np

from .bounds import SurrogateModel
from .core import (
    LinkSet,
    ReliabilityPair,
    Resources,
    lfp_from_errors,
    q,  # noqa: F401  kept bound here: perfbench's tracer tests patch it in solver
)
from .errors import InfeasibleError
from .oracle import GridSpec, _lfp_argmin

_P_FLOOR_FACTOR = 1e-12
_SEED_GRID = 48     # points per axis of the inner step's coarse scan
_START_GRID = GridSpec(p_points=64, refine_rounds=0)  # default_init's LFP scan


# ---------------------------------------------------------------------------
# configuration and result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the iterative solver.

    init = None selects the documented default start (default_init): the
    minimizer of the actual LFP over a coarse grid of the resource box.
    mu_th must be finite and nonnegative, max_iter an integer of at least 1.
    """

    mu_th: float = 1e-8
    max_iter: int = 100
    init: Optional[Resources] = None

    def __post_init__(self):
        if not (math.isfinite(self.mu_th) and self.mu_th >= 0.0):
            raise ValueError(f"mu_th must be finite and >= 0, got {self.mu_th}")
        if not (isinstance(self.max_iter, Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    m: float
    p: float
    eps_hat: float
    eps_actual: float


@dataclass
class SolveTrace:
    m0: float
    p0: float
    eps0: float
    iterations: List[IterationRecord] = field(default_factory=list)
    converged: bool = False
    rounds_used: int = 0


@dataclass(frozen=True)
class AllocationResult:
    m_star: int
    p_star: float
    eps_lf: float
    pair: ReliabilityPair
    trace: SolveTrace


# ---------------------------------------------------------------------------
# inner minimization: grid seed + shrinking log-space zoom
# ---------------------------------------------------------------------------

def _resource_box(links: LinkSet) -> Tuple[float, float, float, float]:
    """Box (m_lo, m_hi, p_lo, p_hi) for the relaxed problem: blocklengths
    [1, m_cap] and powers (p_cap * 1e-12, p_cap], the scenario's own caps."""
    return 1.0, float(links.m_cap), links.p_cap * _P_FLOOR_FACTOR, links.p_cap


def minimize_surrogate(model: SurrogateModel, box):
    """Minimize the surrogate over the box.

    The surrogate's valley is long and nearly flat, so a coarse scan
    seeds a sequence of shrinking log-space zooms that slide along the valley.
    Returns (m, p, value).  The incumbent starts at the better of the scan and
    the anchor and only ever improves, so the returned point never has a
    larger surrogate value than the anchor.
    """
    m_lo, m_hi, p_lo, p_hi = box

    # ---- coarse seed (vectorized scan plus the anchor)
    ms = np.geomspace(m_lo, m_hi, _SEED_GRID)[:, None]
    ps = np.geomspace(max(p_lo, p_hi * 1e-8), p_hi, _SEED_GRID)[None, :]
    vals = model.value(ms, ps)
    i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
    best = (float(ms[i, 0]), float(ps[0, j]), float(vals[i, j]))
    if model.anchor_value <= best[2]:
        best = (model.m_hat, model.p_hat, float(model.anchor_value))

    # ---- local zoom: shrinking log-space windows around the incumbent
    half_width = math.log(4.0)
    n_loc = 25
    for _zoom in range(45):
        m_c, p_c, _ = best
        offsets = np.exp(np.linspace(-half_width, half_width, n_loc))
        mloc = np.clip(m_c * offsets, m_lo, m_hi)[:, None]
        ploc = np.clip(p_c * offsets, max(p_lo, p_hi * 1e-10), p_hi)[None, :]
        vloc = model.value(mloc, ploc)
        i, j = np.unravel_index(int(np.argmin(vloc)), vloc.shape)
        cand = (float(mloc[i, 0]), float(ploc[0, j]), float(vloc[i, j]))
        if cand[2] < best[2]:
            best = cand
        moved_to_edge = i in (0, n_loc - 1) or j in (0, n_loc - 1)
        if not moved_to_edge:
            half_width *= 0.5
        if half_width < 1e-8:
            break

    return best


# ---------------------------------------------------------------------------
# the iteration
# ---------------------------------------------------------------------------

def default_init(links: LinkSet) -> Tuple[float, float]:
    """Documented default start: the minimizer of the actual LFP over
    _START_GRID, every integer blocklength in [1, m_cap] times 64 geometric
    powers on [1e-4 * p_cap, p_cap], found by the oracle's pruned scan (ties
    to the smallest (m, p)).  The iteration only descends from its start,
    so starting at the coarse global minimum puts it in the right basin."""
    m0, p0, _ = _lfp_argmin(links, _START_GRID)
    return float(m0), p0


def run_iteration(links: LinkSet, cfg: SolverConfig) -> AllocationResult:
    """The iteration on one link set, for any number of eavesdroppers;
    multi_eve.solve_multi runs it on a scenario's links."""
    box = _resource_box(links)
    m_lo, m_hi, p_lo, p_hi = box
    if cfg.init is not None:
        m0, p0 = float(cfg.init.m), float(cfg.init.p)
        if not (m_lo <= m0 <= m_hi and p_lo < p0 <= p_hi):
            raise InfeasibleError(
                f"initial allocation ({m0}, {p0}) lies outside the resource box"
            )
    else:
        m0, p0 = default_init(links)

    eps_prev = float(links.lfp(m0, p0))
    trace = SolveTrace(m0=m0, p0=p0, eps0=eps_prev)
    m_k, p_k = m0, p0

    for k in range(1, cfg.max_iter + 1):
        model = SurrogateModel(links, m_k, p_k)
        m_next, p_next, f_hat = minimize_surrogate(model, box)
        eps_next = float(links.lfp(m_next, p_next))
        if eps_next > eps_prev:
            # numerically no descent available: stay at the anchor and stop
            m_next, p_next, eps_next = m_k, p_k, eps_prev
            f_hat = model.anchor_value
        trace.iterations.append(
            IterationRecord(k=k, m=m_next, p=p_next, eps_hat=float(f_hat),
                            eps_actual=eps_next)
        )
        trace.rounds_used = k
        gap = abs(eps_prev - eps_next)
        m_k, p_k = m_next, p_next
        eps_prev = eps_next
        if gap <= cfg.mu_th:
            trace.converged = True
            break

    m_star = _round_blocklength(links, m_k, p_k)
    pair = links.pair(float(m_star), p_k)
    eps_star = lfp_from_errors(pair.eps_b, pair.eps_e)
    if m0 == math.floor(m0) and trace.eps0 < eps_star:
        m_star, p_k, pair, eps_star = int(m0), p0, links.pair(m0, p0), trace.eps0
    return AllocationResult(m_star=m_star, p_star=p_k, eps_lf=float(eps_star),
                            pair=pair, trace=trace)


def _round_blocklength(links: LinkSet, m_relaxed: float, p_star: float) -> int:
    """The integer neighbor of m_relaxed with the smaller LFP at p_star, ties
    to the smaller; m_relaxed lies in [1, m_cap], so both neighbors are
    admissible."""
    lo, hi = math.floor(m_relaxed), math.ceil(m_relaxed)
    if hi > lo and links.lfp(float(hi), p_star) < links.lfp(float(lo), p_star):
        return hi
    return lo
