"""Brute-force references: exhaustive grid search over integer blocklengths and
a geometric power grid (with local refinement), and an integer golden-section
maximizer for unimodal objectives.  These are the benchmarks every solver
claim is validated against.

Every grid search (the oracle here, the solver's default start and the
fixed-leakage baseline) describes its grid with a GridSpec and runs
refine_argmin, which checks the grid against the resource box (_grid_axes)
and runs a power-zoom loop around grid_argmin.  grid_argmin is a monotonic
branch and bound over boxes of grid cells: it halves the boxes that its
bound cannot rule out and returns the same minimizer as evaluating every
cell.  The bounds come from LinkSet.box_floor.  The solver's default start
is one coarse pass of the same LFP scan as exhaustive_min_lfp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import LinkSet, Scenario, lfp_from_errors, linkset_for

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_LEAF_CELLS = 16        # grid_argmin evaluates boxes this small cell by cell
# and passes at most this many cells to one values call: on a plateau no box
# is pruned, and the cap keeps each call's temporaries small
_CALL_CELLS = 1 << 12
_P_FLOOR = 1e-4         # default p_min of a scan, relative to p_cap


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

    ms and ps are ascending arrays.  values(m, p) evaluates cells
    elementwise on broadcastable arrays.  bound(m_lo, m_hi, p_lo, p_hi),
    elementwise over the boxes' corner coordinates, is a lower bound on
    every cell of each box (inf when no cell of the box is finite).

    The search is breadth-first branch and bound over index boxes, starting
    from one box that covers the grid.  Each level bounds every live box in
    one call and evaluates the centre cell of each box larger than
    _LEAF_CELLS cells, which tightens the incumbent.  It then drops the
    boxes whose bound is inf or exceeds the incumbent by more than 1e-9
    relative plus 1e-15 absolute, the allowance for ulp-level
    non-monotonicity and for the cancellation in 1 - (1 - eps_b) * eps_e
    near 0.  The smaller boxes left are evaluated cell by cell, and the
    larger ones are halved along each axis longer than one cell.  Boxes tied
    with the incumbent stay live and ties break to the lexicographically
    smallest (m, p), so for a valid bound the result equals a scan of every
    cell.
    """
    # live boxes: rows [i0, i1) of ms times columns [j0, j1) of ps
    i0, i1 = np.array([0]), np.array([ms.size])
    j0, j1 = np.array([0]), np.array([ps.size])
    while i0.size:
        b = bound(ms[i0], ms[i1 - 1], ps[j0], ps[j1 - 1])
        rows, cols = i1 - i0, j1 - j0
        leaf = rows * cols <= _LEAF_CELLS
        ci, cj = (i0 + i1 - 1)[~leaf] // 2, (j0 + j1 - 1)[~leaf] // 2
        best = _fold_boxes(ms, ps, values, ci, ci + 1, cj, cj + 1, best)
        level = math.inf if best is None else best[0]
        live = ~((b == math.inf) | (b > level + 1e-9 * level + 1e-15))
        i0, i1, j0, j1 = i0[live], i1[live], j0[live], j1[live]
        rows, cols, leaf = rows[live], cols[live], leaf[live]
        best = _fold_boxes(ms, ps, values, i0[leaf], i1[leaf], j0[leaf], j1[leaf],
                           best)
        i0, i1, j0, j1 = i0[~leaf], i1[~leaf], j0[~leaf], j1[~leaf]
        im = i0 + rows[~leaf] // 2
        jm = j0 + cols[~leaf] // 2
        # the four quarters; a box one cell wide leaves an empty half, dropped
        i0, i1 = np.concatenate([i0, i0, im, im]), np.concatenate([im, im, i1, i1])
        j0, j1 = np.concatenate([j0, jm, j0, jm]), np.concatenate([jm, j1, jm, j1])
        keep = (i1 > i0) & (j1 > j0)
        i0, i1, j0, j1 = i0[keep], i1[keep], j0[keep], j1[keep]
    return best


def _fold_boxes(ms, ps, values: Callable, i0, i1, j0, j1, best):
    """Fold every cell of the boxes [i0, i1) x [j0, j1) into best.  Each
    values call takes at most _CALL_CELLS cells, in ascending (m, p) order,
    so argmin's first occurrence is the smallest of tied cells."""
    cols = j1 - j0
    sizes = (i1 - i0) * cols
    step = _CALL_CELLS // int(sizes.max(initial=1))
    for lo in range(0, sizes.size, step):
        part = slice(lo, lo + step)
        n = sizes[part]
        di, dj = np.divmod(np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n),
                           np.repeat(cols[part], n))
        i, j = np.divmod(np.sort((np.repeat(i0[part], n) + di) * ps.size
                                 + np.repeat(j0[part], n) + dj), ps.size)
        vals = values(ms[i], ps[j])
        k = int(np.argmin(vals))
        cand = (float(vals[k]), int(ms[i[k]]), float(ps[j[k]]))
        if cand[0] < math.inf and (best is None or cand < best):
            best = cand
    return best


def _grid_axes(grid: GridSpec, m_cap: int, p_cap: float,
               p_floor: float = _P_FLOOR) -> Tuple[np.ndarray, float]:
    """The blocklengths and the power floor of a scan of grid in the box
    [1, m_cap] x (0, p_cap]: every integer in m_range ([1, m_cap] when it
    is None), and p_min (p_floor * p_cap when it is None).  ValueError
    unless m_range has integral ends inside [1, m_cap] and p_min lies in
    (0, p_cap]."""
    m_lo, m_hi = grid.m_range or (1, m_cap)
    if not (float(m_lo).is_integer() and float(m_hi).is_integer()
            and 1 <= m_lo <= m_hi <= m_cap):
        raise ValueError("m_range must be an integer interval inside [1, m_cap]")
    p_min = grid.p_min if grid.p_min is not None else p_cap * p_floor
    if not 0.0 < p_min <= p_cap:
        raise ValueError(f"p_min must lie in (0, p_cap], got {p_min}")
    return np.arange(m_lo, m_hi + 1, dtype=float), p_min


def refine_argmin(grid: GridSpec, m_cap: int, p_cap: float, values: Callable,
                  bound: Callable, p_floor: float = _P_FLOOR
                  ) -> Optional[Tuple[float, int, float]]:
    """grid_argmin over the blocklengths of grid (checked by _grid_axes
    against m_cap and p_cap) and grid.p_points geometric powers on
    [p_min, p_cap] (p_cap alone when p_points is 1), then
    grid.refine_rounds passes that zoom the power window around the
    incumbent, its log-width shrinking five-fold per pass.  Returns the
    incumbent (value, m, p), or None when no cell of the first grid is
    finite."""
    ms, p_min = _grid_axes(grid, m_cap, p_cap, p_floor)
    p_lo, p_hi = p_min, p_cap
    best = None
    for _round in range(grid.refine_rounds + 1):
        if grid.p_points == 1:
            ps = np.array([p_hi])
        else:
            ps = np.geomspace(p_lo, p_hi, grid.p_points)
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
    a superset never increases the returned minimum.  Each round is scanned
    by grid_argmin, pruned by LinkSet.box_floor, so the result equals
    evaluating every cell.  ValueError unless m_range has integral ends
    inside [1, m_cap] and p_min lies in (0, p_cap].
    """
    return _lfp_argmin(linkset_for(scenario), grid or GridSpec())


def _lfp_argmin(links: LinkSet, grid: GridSpec) -> Tuple[int, float, float]:
    """(m, p, value): refine_argmin of links.lfp over grid, with p_min
    defaulting to 1e-4 p_cap, pruned by the LFP of links.box_floor."""

    def bound(m_lo, m_hi, p_lo, p_hi):
        return lfp_from_errors(*links.box_floor(m_lo, m_hi, p_lo, p_hi))

    value, m, p = refine_argmin(grid, links.m_cap, links.p_cap, links.lfp, bound)
    return m, p, value


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
