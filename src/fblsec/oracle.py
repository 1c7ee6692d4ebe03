"""Brute-force references: exhaustive grid search over integer blocklengths and
a geometric power grid (with local refinement), and an integer golden-section
maximizer for unimodal objectives.  These are the benchmarks every solver
claim is validated against.

The grid searches here and in the fixed-leakage baseline share refine_argmin,
a power-zoom loop around grid_argmin, a branch-and-bound scanner that
returns the same minimizer as evaluating every cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import Scenario, lfp_from_errors, linkset_for

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_TILE_M = 64
_TILE_P = 25


@dataclass(frozen=True)
class GridSpec:
    """Search grid: all integer blocklengths in m_range, p_points geometric
    power levels on (p_min, p_cap], and refine_rounds local zoom passes (the
    log-width of the power window shrinks five-fold per pass, centered on the
    incumbent)."""

    m_range: Optional[Tuple[int, int]] = None
    p_points: int = 1000
    refine_rounds: int = 3
    p_min: Optional[float] = None

    def __post_init__(self):
        if self.p_points < 1:
            raise ValueError("p_points must be at least 1")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be nonnegative")
        if self.p_min is not None and not self.p_min > 0.0:
            raise ValueError("p_min must be positive")


def grid_argmin(ms, ps, values: Callable, bound: Callable,
                best: Optional[Tuple[float, int, float]] = None
                ) -> Optional[Tuple[float, int, float]]:
    """Fold the smallest finite value of values(m, p) over the grid ms x ps
    into the incumbent best = (value, m, p) and return it (None while no
    finite cell has been seen).

    ms and ps are ascending arrays.  values(m[:, None], p[None, :]) evaluates
    a rectangle of cells.  bound(m_lo, m_hi, p_lo, p_hi), vectorized over the
    tiles' corner coordinates, is a lower bound on every cell of each tile
    (inf when no cell of the tile is finite).  Tiles are visited in stable
    ascending-bound order until one's bound is inf or exceeds the incumbent
    by more than 1e-9 relative plus 1e-15 absolute, the allowance for
    ulp-level non-monotonicity and for the cancellation in
    1 - (1 - eps_b) * eps_e near 0.  Tiles tied with the incumbent are still
    visited and ties break to the lexicographically smallest (m, p), so for a
    valid bound the result equals a scan of every cell.
    """
    m_lo = np.arange(0, ms.size, _TILE_M)
    p_lo = np.arange(0, ps.size, _TILE_P)
    m_hi = np.minimum(m_lo + _TILE_M, ms.size)
    p_hi = np.minimum(p_lo + _TILE_P, ps.size)
    bounds = np.broadcast_to(
        bound(ms[m_lo][:, None], ms[m_hi - 1][:, None],
              ps[p_lo][None, :], ps[p_hi - 1][None, :]),
        (m_lo.size, p_lo.size),
    ).ravel()
    for tile in np.argsort(bounds, kind="stable"):
        level = math.inf if best is None else best[0]
        b = bounds[tile]
        if b == math.inf or b > level + 1e-9 * level + 1e-15:
            break
        i, j = divmod(int(tile), p_lo.size)
        tm = ms[m_lo[i]:m_hi[i]]
        tp = ps[p_lo[j]:p_hi[j]]
        vals = values(tm[:, None], tp[None, :])
        a, c = np.unravel_index(int(np.argmin(vals)), vals.shape)
        cand = (float(vals[a, c]), int(tm[a]), float(tp[c]))
        if cand[0] < math.inf and (best is None or cand < best):
            best = cand
    return best


def refine_argmin(ms, p_min: float, p_cap: float, p_points: int,
                  refine_rounds: int, values: Callable, bound: Callable
                  ) -> Optional[Tuple[float, int, float]]:
    """grid_argmin over ms and p_points geometric powers on [p_min, p_cap]
    (p_cap alone when p_points is 1), then refine_rounds passes that zoom the
    power window around the incumbent, its log-width shrinking five-fold per
    pass.  Returns the incumbent (value, m, p), or None when no cell of the
    first grid is finite."""
    p_lo, p_hi = p_min, p_cap
    best = None
    for _round in range(refine_rounds + 1):
        if p_points == 1:
            ps = np.array([p_hi])
        else:
            ps = np.geomspace(p_lo, p_hi, p_points)
        best = grid_argmin(ms, ps, values, bound, best)
        if best is None:
            return None
        width = (p_hi / p_lo) ** (1.0 / 10.0)
        p_lo = max(p_min, best[2] / width)
        p_hi = min(p_cap, best[2] * width)
    return best


def exhaustive_min_lfp(scenario: Scenario, grid: GridSpec | None = None
                       ) -> Tuple[int, float, float]:
    """Global minimum of the actual LFP over the grid: returns (m, p, value).

    Ties break to the lexicographically smallest (m, p).  Enlarging the grid to
    a superset never increases the returned minimum.

    Each round scans its grid with grid_argmin.  For every link the exponent
    sqrt(m / V) * (C - d/m) * ln 2 rises strictly in m and in the SNR, so
    every error probability falls in m and p.  The LFP rises in Bob's error
    and falls in each eavesdropper's, so on a tile it is at least
    1 - (1 - eps_b(m_hi, p_hi)) * prod eps_e(m_lo, p_lo).  With that bound
    the pruned scan returns the same (m, p, value) as evaluating every cell.
    """
    grid = grid or GridSpec()
    links = linkset_for(scenario)
    m_lo, m_hi = grid.m_range if grid.m_range else (1, scenario.m_cap)
    if not (1 <= m_lo <= m_hi <= scenario.m_cap):
        raise ValueError("m_range must be an integer interval inside [1, m_cap]")
    p_min = grid.p_min if grid.p_min is not None else scenario.p_cap * 1e-4
    if not 0.0 < p_min <= scenario.p_cap:
        raise ValueError(f"p_min must lie in (0, p_cap], got {p_min}")
    ms = np.arange(m_lo, m_hi + 1, dtype=float)

    def bound(tm_lo, tm_hi, tp_lo, tp_hi):
        return lfp_from_errors(links.eps_pair(tm_hi, tp_hi)[0],
                               links.eps_pair(tm_lo, tp_lo)[1])

    best = refine_argmin(ms, p_min, scenario.p_cap, grid.p_points,
                         grid.refine_rounds, links.lfp, bound)
    return best[1], best[2], best[0]


def golden_section_max(f: Callable[[int], float], lo: int, hi: int
                       ) -> Tuple[int, float]:
    """Integer argmax of a unimodal function on [lo, hi] by golden-section
    bracketing with a final exhaustive sweep of the residual bracket.

    Plateaus resolve to the smallest index.  On non-unimodal input the result
    is a local maximum.
    """
    if lo > hi:
        raise ValueError("empty interval")
    cache = {}

    def fv(x: int) -> float:
        if x not in cache:
            cache[x] = float(f(x))
        return cache[x]

    a, b = int(lo), int(hi)
    while b - a > 3:
        span = b - a
        c = b - int(round(_INVPHI * span))
        d = a + int(round(_INVPHI * span))
        if c >= d:
            c = a + span // 3
            d = b - span // 3
            if c >= d:
                break
        if fv(c) >= fv(d):
            b = d
        else:
            a = c
    best_x, best_v = a, fv(a)
    for x in range(a + 1, b + 1):
        v = fv(x)
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v
