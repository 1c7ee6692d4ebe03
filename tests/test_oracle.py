import math

import numpy as np
import pytest

from fblsec.core import EveModel, Resources, lfp_at, lfp_from_errors
from fblsec.multi_eve import linkset_for, solve_multi
from fblsec.oracle import GridSpec, exhaustive_min_lfp, golden_section_max, grid_argmin

from conftest import make_scenario


def _dense_min_lfp(scenario, grid):
    """Reference for exhaustive_min_lfp: every cell of every round's grid in
    one array, with the same zoom and lexicographic tie-break."""
    links = linkset_for(scenario)
    m_lo, m_hi = grid.m_range or (1, scenario.m_cap)
    p_min = grid.p_min if grid.p_min is not None else scenario.p_cap * 1e-4
    p_lo, p_hi = p_min, scenario.p_cap
    ms = np.arange(m_lo, m_hi + 1, dtype=float)[:, None]
    best = None
    for _ in range(grid.refine_rounds + 1):
        if grid.p_points == 1:
            ps = np.array([p_hi])
        else:
            ps = np.geomspace(p_lo, p_hi, grid.p_points)
        vals = links.lfp(ms, ps[None, :])
        i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
        cand = (float(vals[i, j]), int(ms[i, 0]), float(ps[j]))
        if best is None or cand < best:
            best = cand
        width = (p_hi / p_lo) ** 0.1
        p_lo = max(p_min, best[2] / width)
        p_hi = min(scenario.p_cap, best[2] * width)
    return best[1], best[2], best[0]


def test_degenerate_grid_single_point(default_scenario):
    grid = GridSpec(m_range=(100, 100), p_points=1, refine_rounds=0)
    m, p, v = exhaustive_min_lfp(default_scenario, grid)
    assert m == 100
    assert p == default_scenario.p_cap
    expected, _ = lfp_at(default_scenario, Resources(100.0, default_scenario.p_cap))
    assert v == pytest.approx(expected, rel=1e-15)


def test_superset_grid_never_worse(default_scenario):
    small = GridSpec(m_range=(200, 400), p_points=60, refine_rounds=0, p_min=1e-3)
    # the larger grid's power levels contain the smaller one's: same p_min /
    # p_cap with a point count that nests after doubling minus one
    big = GridSpec(m_range=(100, 800), p_points=119, refine_rounds=0, p_min=1e-3)
    _, _, v_small = exhaustive_min_lfp(default_scenario, small)
    _, _, v_big = exhaustive_min_lfp(default_scenario, big)
    assert v_big <= v_small + 1e-15


def test_refinement_monotone(default_scenario):
    vals = []
    for rounds in range(4):
        grid = GridSpec(p_points=200, refine_rounds=rounds)
        vals.append(exhaustive_min_lfp(default_scenario, grid)[2])
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


@pytest.mark.slow
def test_reference_optimum_stability(default_scenario):
    """The default-grid optimum agrees with an independent coarser scan to
    within that scan's resolution."""
    m, p, v = exhaustive_min_lfp(default_scenario, GridSpec())
    # cross-check with an independent, differently spaced scan
    links = linkset_for(default_scenario)
    ms = np.arange(1, default_scenario.m_cap + 1, dtype=float)[:, None]
    ps = np.geomspace(2e-4, default_scenario.p_cap, 1777)[None, :]
    vals = links.lfp(ms, ps)
    v_scan = float(np.min(vals))
    assert v <= v_scan + 1e-15
    assert v == pytest.approx(v_scan, rel=5e-3)


def test_oracle_not_above_solver(default_scenario):
    res = solve_multi(default_scenario)
    _, _, v = exhaustive_min_lfp(default_scenario, GridSpec(p_points=400))
    # the grid may sit above the continuous optimum only by its resolution
    assert v <= res.eps_lf * (1.0 + 2e-3)


DENSE_CASES = [
    (dict(z_b=1.5), GridSpec(p_points=120, refine_rounds=3)),
    (dict(z_b=2.0, d=300), GridSpec(m_range=(40, 1700), p_points=90, refine_rounds=2)),
    (dict(z_b=2.0, eve_gains=(1.0, 0.5)), GridSpec(p_points=80, refine_rounds=1)),
    (dict(z_b=2.5, eve_gains=(1.0, 0.5, 0.8)),
     GridSpec(p_points=60, refine_rounds=2, p_min=1e-3)),
    (dict(z_b=2.5, eve_gains=(0.8, 0.9), eve_model=EveModel.SUPER),
     GridSpec(p_points=70, refine_rounds=3)),
    (dict(z_b=3.0, d=150), GridSpec(m_range=(7, 7), p_points=1, refine_rounds=2)),
    (dict(z_b=1.2, d=500), GridSpec(m_range=(300, 2999), p_points=1, refine_rounds=0)),
    # the LFP underflows to exactly 0.0 on a whole region of this grid
    (dict(z_b=4.0, d=700), GridSpec(p_points=100, refine_rounds=2)),
]


@pytest.mark.parametrize("kwargs,grid", DENSE_CASES)
def test_pruned_scan_equals_dense_scan(kwargs, grid):
    sc = make_scenario(**kwargs)
    assert exhaustive_min_lfp(sc, grid) == _dense_min_lfp(sc, grid)


def test_pruned_scan_equals_dense_scan_random(rng):
    """Seeded random scenarios and grids: the same triple as the dense scan."""
    for _ in range(12):
        n = int(rng.integers(1, 4))
        model = EveModel.SUPER if n > 1 and rng.random() < 0.5 else EveModel.PASSIVE
        sc = make_scenario(d=int(rng.integers(50, 800)), z_b=float(rng.uniform(1.0, 6.0)),
                           eve_gains=tuple(rng.uniform(0.3, 1.5, n)), eve_model=model,
                           m_cap=int(rng.integers(200, 1500)),
                           p_cap=float(rng.uniform(1.0, 20.0)))
        m_lo = int(rng.integers(1, sc.m_cap))
        grid = GridSpec(
            m_range=(m_lo, int(rng.integers(m_lo, sc.m_cap + 1))) if rng.random() < 0.5 else None,
            p_points=1 if rng.random() < 0.2 else int(rng.integers(2, 80)),
            refine_rounds=int(rng.integers(0, 4)),
            p_min=float(sc.p_cap * 10.0 ** rng.uniform(-6, 0)) if rng.random() < 0.5 else None,
        )
        assert exhaustive_min_lfp(sc, grid) == _dense_min_lfp(sc, grid)


def test_underflow_case_reaches_zero():
    m, p, v = exhaustive_min_lfp(make_scenario(z_b=4.0, d=700),
                                 GridSpec(p_points=100, refine_rounds=2))
    assert v == 0.0


@pytest.mark.parametrize("p_min", [40.0, 10.000001])
def test_p_min_above_p_cap_rejected(default_scenario, p_min):
    with pytest.raises(ValueError):
        exhaustive_min_lfp(default_scenario,
                           GridSpec(p_points=50, refine_rounds=0, p_min=p_min))


def test_p_min_at_p_cap_scans_one_power(default_scenario):
    m, p, _ = exhaustive_min_lfp(default_scenario,
                                 GridSpec(p_points=50, refine_rounds=1, p_min=10.0))
    assert p == 10.0


def test_grid_argmin_skips_most_of_the_grid(default_scenario):
    """On the reference scenario the box bound prunes all but a few cells,
    and the result is the dense argmin of the same grid."""
    links = linkset_for(default_scenario)
    ms = np.arange(1, default_scenario.m_cap + 1, dtype=float)
    ps = np.geomspace(1e-3, default_scenario.p_cap, 200)
    evaluated = []

    def values(m, p):
        evaluated.append(np.broadcast(m, p).size)
        return links.lfp(m, p)

    def bound(m_lo, m_hi, p_lo, p_hi):
        eps_b = links.errors(m_hi, p_hi)[0]
        return 1.0 - (1.0 - eps_b) * links.errors(m_lo, p_lo)[1]

    best = grid_argmin(ms, ps, values, bound)
    vals = links.lfp(ms[:, None], ps[None, :])
    i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
    assert best == (float(vals[i, j]), int(ms[i]), float(ps[j]))
    assert sum(evaluated) < 0.02 * vals.size


def test_grid_argmin_ties_and_incumbent():
    ms = np.arange(1.0, 201.0)
    ps = np.geomspace(0.1, 1.0, 60)

    def flat(m, p):
        return np.zeros(np.broadcast_shapes(m.shape, p.shape))

    def zero_bound(m_lo, m_hi, p_lo, p_hi):
        return np.zeros(np.broadcast_shapes(m_lo.shape, p_lo.shape))

    # a plateau resolves to the lexicographically smallest cell
    assert grid_argmin(ms, ps, flat, zero_bound) == (0.0, 1, float(ps[0]))
    # an incumbent tied in value but smaller in (m, p) survives
    assert grid_argmin(ms[5:], ps, flat, zero_bound, (0.0, 2, 0.05)) == (0.0, 2, 0.05)
    # a lower incumbent prunes every tile whose bound exceeds it
    assert grid_argmin(ms, ps, flat, zero_bound, (-1.0, 9, 1.0)) == (-1.0, 9, 1.0)

    def nowhere(m, p):
        return np.full(np.broadcast_shapes(m.shape, p.shape), math.inf)

    def inf_bound(m_lo, m_hi, p_lo, p_hi):
        return np.full(np.broadcast_shapes(m_lo.shape, p_lo.shape), math.inf)

    assert grid_argmin(ms, ps, nowhere, inf_bound) is None
    assert grid_argmin(ms, ps, nowhere, zero_bound) is None


def _lfp_objective(links):
    def bound(m_lo, m_hi, p_lo, p_hi):
        return lfp_from_errors(links.eps_pair(m_hi, p_hi)[0],
                               links.eps_pair(m_lo, p_lo)[1])

    return links.lfp, bound


def _fixed_leakage_objective(links, delta_cap):
    """Bob's error where the leakage meets the cap, inf elsewhere, with the
    box bound of solve_fixed_leakage."""

    def values(m, p):
        eps_b, eps_e = links.eps_pair(m, p)
        return np.where(1.0 - eps_e <= delta_cap, eps_b, np.inf)

    def bound(m_lo, m_hi, p_lo, p_hi):
        leak = 1.0 - links.eps_pair(m_lo, p_lo)[1]
        eps_b = links.eps_pair(m_hi, p_hi)[0]
        return np.where(leak > delta_cap * (1.0 + 1e-9) + 1e-15, np.inf, eps_b)

    return values, bound


def _dense_argmin(ms, ps, values, best=None):
    """Every cell in one call, ties to the smallest (m, p), folded into the
    incumbent best."""
    vals = np.broadcast_to(values(ms[:, None], ps[None, :]), (ms.size, ps.size))
    i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
    cand = (float(vals[i, j]), int(ms[i]), float(ps[j]))
    if cand[0] < math.inf and (best is None or cand < best):
        return cand
    return best


GRID_SHAPES = [
    (np.array([320.0]), np.array([10.0])),
    (np.array([320.0]), np.geomspace(1e-3, 10.0, 64)),
    (np.arange(1.0, 3001.0), np.array([0.3])),
    (np.unique(np.linspace(1.0, 3000.0, 37).round()), np.geomspace(1e-3, 10.0, 13)),
    (np.arange(1.0, 3001.0), np.geomspace(1e-3, 10.0, 64)),
]
OBJECTIVES = [
    ("passive-1", dict(z_b=1.5), None),
    ("passive-3", dict(z_b=2.0, eve_gains=(1.0, 0.75, 0.5)), None),
    ("passive-8", dict(z_b=2.0, eve_gains=tuple(np.linspace(1.0, 0.5, 8))), None),
    ("colluding-2", dict(z_b=2.5, eve_gains=(0.8, 0.9), eve_model=EveModel.SUPER), None),
    ("fixed-leakage-1", dict(z_b=1.5), 1e-3),
    ("fixed-leakage-3", dict(z_b=2.0, eve_gains=(1.0, 0.75, 0.5)), 1e-2),
]


@pytest.mark.parametrize("name,kwargs,delta_cap", OBJECTIVES, ids=[o[0] for o in OBJECTIVES])
def test_grid_argmin_equals_dense_scan(name, kwargs, delta_cap):
    """The box search returns the dense (value, m, p) on every grid shape,
    with no incumbent and with incumbents tied with the dense minimum,
    below it and above it, on the grid and off it."""
    links = linkset_for(make_scenario(**kwargs))
    if delta_cap is None:
        values, bound = _lfp_objective(links)
    else:
        values, bound = _fixed_leakage_objective(links, delta_cap)
    seen_inf = False
    for ms, ps in GRID_SHAPES:
        dense = _dense_argmin(ms, ps, values)
        seen_inf |= bool(np.isinf(values(ms[:, None], ps[None, :])).any())
        assert grid_argmin(ms, ps, values, bound) == dense
        if dense is None:
            continue
        v, m, p = dense
        incumbents = [
            (v, m, p),              # the dense minimum itself
            (v, m - 1, p),          # tied, smaller m, off the grid
            (v, m, p * 0.5),        # tied, smaller p, off the grid
            (v, m + 1, p),          # tied, larger m: the grid cell wins
            (v - 1e-3, 5000, 0.5),  # lower, off the grid
            (v + 1e-3, m, p),       # higher, at the grid minimum
            (2.0 * v + 1e-3, 1, 1e-9),  # higher, off the grid
        ]
        for best in incumbents:
            assert grid_argmin(ms, ps, values, bound, best) == \
                _dense_argmin(ms, ps, values, best), (ms.size, ps.size, best)
    assert seen_inf == (delta_cap is not None)


def test_grid_argmin_plateau_respects_the_cell_cap():
    """On a plateau no box is pruned; every cell is evaluated, no values call
    exceeds the cap of 2**12 cells, and the tie goes to the smallest (m, p)."""
    ms = np.arange(1.0, 3001.0)
    ps = np.geomspace(1e-3, 10.0, 64)
    sizes = []

    def flat(m, p):
        sizes.append(np.broadcast(m, p).size)
        return np.full(np.broadcast_shapes(m.shape, p.shape), 0.25)

    def flat_bound(m_lo, m_hi, p_lo, p_hi):
        return np.full(np.broadcast_shapes(m_lo.shape, p_lo.shape), 0.25)

    assert grid_argmin(ms, ps, flat, flat_bound) == (0.25, 1, float(ps[0]))
    assert max(sizes) <= 1 << 12
    assert sum(sizes) >= ms.size * ps.size


def test_fractional_m_range_rejected(default_scenario):
    """A blocklength range must have integral ends: (100.5, 400.5) used to
    scan m = 100.5, ..., 400.5 and report the LFP at m = 389.5 as m = 389."""
    for m_range in [(100.5, 400.5), (100, 400.5), (100.5, 400)]:
        with pytest.raises(ValueError, match="m_range"):
            exhaustive_min_lfp(default_scenario,
                               GridSpec(m_range=m_range, p_points=50, refine_rounds=0))
    grid = dict(p_points=50, refine_rounds=0)
    assert exhaustive_min_lfp(default_scenario, GridSpec(m_range=(100.0, 400.0), **grid)) \
        == exhaustive_min_lfp(default_scenario, GridSpec(m_range=(100, 400), **grid))


def test_golden_section_quadratic():
    argmax, val = golden_section_max(lambda m: -(m - 50.0) ** 2, 1, 100)
    assert argmax == 50
    assert val == 0.0


def test_golden_section_plateau_smallest_index():
    argmax, val = golden_section_max(lambda m: 1.0, 10, 90)
    assert argmax == 10
    assert val == 1.0


def test_golden_section_matches_scan(rng):
    for _ in range(200):
        lo = int(rng.integers(1, 50))
        hi = lo + int(rng.integers(1, 400))
        peak = rng.uniform(lo - 20, hi + 20)
        scale = rng.uniform(0.1, 4.0)

        def f(x, peak=peak, scale=scale):
            return -scale * (x - peak) ** 2

        argmax, val = golden_section_max(f, lo, hi)
        xs = np.arange(lo, hi + 1)
        scan = xs[int(np.argmax([f(x) for x in xs]))]
        assert argmax == scan


def test_golden_section_edge_cases():
    assert golden_section_max(lambda m: float(m), 7, 7) == (7, 7.0)
    assert golden_section_max(lambda m: float(m), 3, 4) == (4, 4.0)
    with pytest.raises(ValueError):
        golden_section_max(lambda m: 0.0, 5, 4)
