"""Iterative successive-approximation solver: minimize the leakage-failure
probability over (blocklength, power) by repeatedly building the anchored
exponential surrogate, minimizing it inside the resource box, and re-anchoring
at the minimizer.

The achieved LFP is non-increasing across rounds because each surrogate
dominates the true objective and touches it at the anchor; the inner step only
has to not increase the surrogate.  Since the iteration only descends, the
default start is the minimizer of the actual LFP over a coarse grid, found by
the oracle's pruned scan, so the descent starts in the global minimum's basin.
The inner minimizer is a coarse feasible log-grid scan followed by shrinking
log-space zooms around the incumbent; a scan needs no convexity, so it stays
reliable where the surrogate's leakage term bends the valley (it is not
globally convex).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .bounds import SurrogateModel
from .convexity import rate_threshold_sweep_max
from .core import (
    LinkSet,
    ReliabilityPair,
    Resources,
    Scenario,
    lfp_from_errors,
    linkset_single,
    q,  # noqa: F401  kept bound here: perfbench's tracer tests patch it in solver
)
from .errors import InfeasibleError
from .oracle import _lfp_argmin

_P_FLOOR_FACTOR = 1e-12
_SEED_GRID = 48     # points per axis of the inner step's coarse scan
_START_P_POINTS = 64  # powers of the default start's coarse LFP scan


# ---------------------------------------------------------------------------
# configuration and result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the iterative solver.

    init = None selects the documented default start (default_init): the
    minimizer of the actual LFP over a coarse grid of the resource box.
    """

    mu_th: float = 1e-8
    max_iter: int = 100
    init: Optional[Resources] = None


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
# inner minimization: feasible grid seed + shrinking log-space zoom
# ---------------------------------------------------------------------------

def _resource_box(links: LinkSet) -> Tuple[float, float, float, float]:
    """Box for the relaxed problem.  The blocklength cap additionally respects
    the concavity region (rate at least the threshold sweep maximum), which at
    practical packet sizes is looser than the hard cap."""
    gamma_max = float(np.max(links.k) * links.p_cap)
    thr = rate_threshold_sweep_max(max(gamma_max, 1e-3))
    m_hi = float(links.m_cap)
    if thr > 0.0:
        m_hi = min(m_hi, links.d / thr)
    if m_hi < 1.0:
        m_hi = float(links.m_cap)
    p_lo = links.p_cap * _P_FLOOR_FACTOR
    return 1.0, m_hi, p_lo, links.p_cap


def _masked_values(model: SurrogateModel, ms: np.ndarray, ps: np.ndarray):
    with np.errstate(over="ignore", invalid="ignore"):
        vals = model.value(ms, ps)
        for link, w_min in model.omega_floors:
            w = model.links.omega_link(link, ms, ps)
            vals = np.where(w >= w_min, vals, np.inf)
    return np.where(np.isfinite(vals), vals, np.inf)


def minimize_surrogate(model: SurrogateModel, box):
    """Minimize the surrogate over the box subject to the exponent floors.

    The surrogate's valley is long and nearly flat, so a coarse feasible scan
    seeds a sequence of shrinking log-space zooms that slide along the valley.
    Returns (m, p, value).  The incumbent starts at the better of the scan and
    the anchor and only ever improves, so the returned point never has a
    larger surrogate value than the anchor.
    """
    m_lo, m_hi, p_lo, p_hi = box

    # ---- coarse feasible seed (vectorized scan plus the anchor)
    ms = np.geomspace(m_lo, m_hi, _SEED_GRID)[:, None]
    ps = np.geomspace(max(p_lo, p_hi * 1e-8), p_hi, _SEED_GRID)[None, :]
    vals = _masked_values(model, ms, ps)
    i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
    best = (float(ms[i, 0]), float(ps[0, j]), float(vals[i, j]))
    if model.anchor_value <= best[2]:
        best = (model.m_hat, model.p_hat, float(model.anchor_value))
    if not np.isfinite(best[2]):
        raise InfeasibleError("no feasible point for the surrogate inside the box")

    # ---- local zoom: shrinking log-space windows around the incumbent
    half_width = math.log(4.0)
    n_loc = 25
    for _zoom in range(45):
        m_c, p_c, _ = best
        offsets = np.exp(np.linspace(-half_width, half_width, n_loc))
        mloc = np.clip(m_c * offsets, m_lo, m_hi)[:, None]
        ploc = np.clip(p_c * offsets, max(p_lo, p_hi * 1e-10), p_hi)[None, :]
        vloc = _masked_values(model, mloc, ploc)
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

def default_init(links: LinkSet, box) -> Tuple[float, float]:
    """Documented default start: the minimizer of the actual LFP over every
    integer blocklength in [1, m_hi] of the box times _START_P_POINTS
    geometric powers on [1e-4 * p_cap, p_cap], found by the oracle's pruned
    scan (ties to the smallest (m, p)).  The iteration only descends from
    its start, so starting at the coarse global minimum puts it in the
    right basin."""
    ms = np.arange(1.0, math.floor(box[1]) + 1.0)
    _, m0, p0 = _lfp_argmin(links, ms, links.p_cap * 1e-4, _START_P_POINTS, 0)
    return float(m0), p0


def run_iteration(links: LinkSet, cfg: SolverConfig) -> AllocationResult:
    """Algorithm core shared by the single-, super-, and passive-eavesdropper
    solvers."""
    box = _resource_box(links)
    m_lo, m_hi, p_lo, p_hi = box
    if cfg.init is not None:
        m0, p0 = float(cfg.init.m), float(cfg.init.p)
        if not (m_lo <= m0 <= m_hi and p_lo < p0 <= p_hi):
            raise InfeasibleError(
                f"initial allocation ({m0}, {p0}) lies outside the resource box"
            )
    else:
        m0, p0 = default_init(links, box)

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
    return AllocationResult(m_star=m_star, p_star=p_k, eps_lf=float(eps_star),
                            pair=pair, trace=trace)


def _round_blocklength(links: LinkSet, m_relaxed: float, p_star: float) -> int:
    lo = int(math.floor(m_relaxed))
    hi = int(math.ceil(m_relaxed))
    candidates = sorted({c for c in (lo, hi) if 1 <= c <= links.m_cap})
    if not candidates:
        candidates = [min(max(lo, 1), links.m_cap)]
    best = candidates[0]
    best_val = float(links.lfp(float(candidates[0]), p_star))
    for c in candidates[1:]:
        v = float(links.lfp(float(c), p_star))
        if v < best_val:
            best, best_val = c, v
    return best


# ---------------------------------------------------------------------------
# public single-eavesdropper surface
# ---------------------------------------------------------------------------

def solve_joint(scenario: Scenario, cfg: SolverConfig | None = None) -> AllocationResult:
    """Minimize the LFP of a single-eavesdropper scenario over blocklength and
    power with the iterative surrogate method."""
    cfg = cfg or SolverConfig()
    links = linkset_single(scenario)
    return run_iteration(links, cfg)


def inner_minimize(scenario: Scenario, lp):
    """One inner solve: minimize the surrogate anchored at the given local
    point over the resource box.  Returns (m_opt, p_opt)."""
    links = linkset_single(scenario)
    model = SurrogateModel(links, lp.m_hat, lp.p_hat)
    m_opt, p_opt, _val = minimize_surrogate(model, _resource_box(links))
    return m_opt, p_opt


def round_blocklength(m_relaxed: float, p_star: float, scenario: Scenario) -> int:
    """Choose the integer neighbor of a relaxed blocklength with the smaller
    achieved LFP (ties to the smaller blocklength)."""
    if m_relaxed < 1.0:
        raise ValueError("relaxed blocklength must be at least 1")
    links = linkset_single(scenario)
    return _round_blocklength(links, m_relaxed, p_star)
