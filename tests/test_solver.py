import numpy as np
import pytest

from fblsec.core import EveModel, Resources, lfp_at, linkset_for
from fblsec.errors import InfeasibleError
from fblsec.multi_eve import solve_multi
from fblsec.solver import (
    SolverConfig,
    SurrogateModel,
    default_init,
    minimize_surrogate,
    _resource_box,
    _round_blocklength,
)

from conftest import make_scenario


@pytest.fixture(scope="module")
def solved_default():
    sc = make_scenario()
    return sc, solve_multi(sc)


def test_trace_monotone_descent(solved_default):
    sc, res = solved_default
    values = [res.trace.eps0] + [r.eps_actual for r in res.trace.iterations]
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-12)


def test_surrogate_dominates_actual_along_trace(solved_default):
    sc, res = solved_default
    for rec in res.trace.iterations:
        actual, _ = lfp_at(sc, Resources(rec.m, rec.p))
        assert rec.eps_hat >= actual - 1e-9


def test_converges_quickly(solved_default):
    _, res = solved_default
    assert res.trace.converged
    assert res.trace.rounds_used <= 20


def test_anchor_tightness_each_round(solved_default):
    sc, res = solved_default
    links = linkset_for(sc)
    pts = [(res.trace.m0, res.trace.p0)] + [
        (r.m, r.p) for r in res.trace.iterations
    ]
    for m, p in pts:
        model = SurrogateModel(links, m, p)
        actual, _ = lfp_at(sc, Resources(m, p))
        assert model.anchor_value == pytest.approx(actual, abs=1e-9)


def test_result_contracts(solved_default):
    sc, res = solved_default
    assert isinstance(res.m_star, int)
    assert 1 <= res.m_star <= sc.m_cap
    assert 0.0 < res.p_star <= sc.p_cap
    actual, pair = lfp_at(sc, Resources(float(res.m_star), res.p_star))
    assert res.eps_lf == pytest.approx(actual, rel=1e-12)
    assert res.pair.eps_b == pytest.approx(pair.eps_b, rel=1e-12)


def test_inner_minimize_beats_anchor_and_respects_bounds(default_scenario):
    sc = default_scenario
    links = linkset_for(sc)
    model = SurrogateModel(links, 320.0, 0.1)
    box = _resource_box(links)
    m_opt, p_opt, val = minimize_surrogate(model, box)
    assert box[0] <= m_opt <= box[1]
    assert box[2] <= p_opt <= box[3]
    assert val <= model.anchor_value


def test_inner_minimize_matches_dense_grid(default_scenario):
    """The inner step lands at least as low as a dense 400 x 400 scan of the
    surrogate over the box."""
    sc = default_scenario
    links = linkset_for(sc)
    model = SurrogateModel(links, 320.0, 0.1)
    box = _resource_box(links)
    _, _, val = minimize_surrogate(model, box)
    ms = np.linspace(box[0], box[1], 400)[:, None]
    ps = np.geomspace(max(box[2], box[3] * 1e-8), box[3], 400)[None, :]
    assert val <= np.min(model.value(ms, ps)) + 1e-12


def test_round_blocklength_integer_input(default_scenario):
    assert _round_blocklength(linkset_for(default_scenario), 100.0, 0.05) == 100


def test_round_blocklength_picks_smaller_lfp(default_scenario):
    sc = default_scenario
    m = _round_blocklength(linkset_for(sc), 100.5, 0.05)
    v100, _ = lfp_at(sc, Resources(100.0, 0.05))
    v101, _ = lfp_at(sc, Resources(101.0, 0.05))
    expected = 100 if v100 <= v101 else 101
    assert m == expected


def test_round_blocklength_near_solution(solved_default):
    """Rounding the relaxed blocklength moves the achieved LFP by less than
    1e-4 relative."""
    sc, res = solved_default
    m_relaxed = res.trace.iterations[-1].m
    lo = np.floor(m_relaxed)
    hi = np.ceil(m_relaxed)
    vals = []
    for mm in {lo, hi}:
        v, _ = lfp_at(sc, Resources(float(mm), res.p_star))
        vals.append(v)
    v_rel, _ = lfp_at(sc, Resources(m_relaxed, res.p_star))
    assert abs(min(vals) - v_rel) / v_rel < 1e-4


@pytest.mark.parametrize("kwargs", [
    dict(mu_th=float("nan")), dict(mu_th=float("inf")), dict(mu_th=-1.0),
    dict(max_iter=0), dict(max_iter=-3), dict(max_iter=2.5),
])
def test_bad_stop_rule_rejected(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_bad_init_rejected(default_scenario):
    cfg = SolverConfig(init=Resources(m=10 ** 6, p=1.0))
    with pytest.raises(InfeasibleError):
        solve_multi(default_scenario, cfg)


def test_explicit_init_accepted(default_scenario):
    cfg = SolverConfig(init=Resources(m=320.0, p=0.1))
    res = solve_multi(default_scenario, cfg)
    assert res.trace.converged
    values = [res.trace.eps0] + [r.eps_actual for r in res.trace.iterations]
    assert np.all(np.diff(values) <= 1e-12)


def test_stronger_bob_variant_matches_oracle():
    """The gain-1.8 variant also lands on the benchmark optimum."""
    from fblsec.oracle import GridSpec, exhaustive_min_lfp

    sc = make_scenario(z_b=1.8)
    res = solve_multi(sc)
    _, _, v_o = exhaustive_min_lfp(sc, GridSpec(p_points=500, refine_rounds=3))
    assert abs(res.eps_lf - v_o) / v_o <= 1e-3


@pytest.mark.parametrize("kwargs", [
    dict(z_b=1.5, d=100),
    dict(z_b=1.5, d=700),
    dict(z_b=4.0, d=100),
    dict(z_b=2.0, d=300),
    dict(z_b=1.2, d=316),
    dict(z_b=1.65, d=316),
    dict(z_b=2.1, d=316),
    pytest.param(dict(z_b=2.49, d=320, eve_gains=(0.79, 0.91),
                      eve_model=EveModel.SUPER), id="colluding-pair"),
    dict(z_b=3.0),
    dict(z_b=2.0, eve_gains=(1.0, 0.5)),
    dict(z_b=2.0, eve_gains=(1.0, 0.5, 0.8)),
    dict(z_b=1.5, eve_gains=(1.0, 0.5, 0.8)),
    dict(z_b=2.5, eve_gains=(1.0, 0.5, 0.8, 0.6)),
    pytest.param(dict(z_b=2.0, eve_gains=(1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3)),
                 id="eight-passive"),
    *[pytest.param(dict(z_b=z_b, d=700, eve_gains=tuple(np.linspace(1.0, 0.5, n))),
                   id=f"z_b={z_b}-d=700-passive-{n}")
      for z_b in (1.5, 2.0, 2.5) for n in (3, 8)],
    dict(z_b=4.0, d=320),
    pytest.param(dict(z_b=2.0, d=320, eve_gains=tuple(np.linspace(1.0, 0.3, 32))),
                 id="thirty-two-passive"),
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_solver_matches_oracle_across_regimes(kwargs):
    """Single-eavesdropper corners and interior points, a colluding pair and
    passive sets of 2 to 32 eavesdroppers (among them the long packets where
    the weakest eavesdroppers' errors sit at one) land within 1e-3 relative
    of the exhaustive benchmark."""
    from fblsec.oracle import GridSpec, exhaustive_min_lfp

    sc = make_scenario(**kwargs)
    res = solve_multi(sc)
    _, _, v_o = exhaustive_min_lfp(sc, GridSpec(p_points=500, refine_rounds=3))
    assert abs(res.eps_lf - v_o) / v_o <= 1e-3


@pytest.mark.parametrize("z_b,n", [(1.5, 3), (1.5, 8), (2.0, 8)])
def test_short_packet_optimum_at_the_blocklength_cap(z_b, n):
    """At d=100 these passive sets have their optimum at the blocklength cap,
    where the oracle finds it: the solver searches the same box, so it lands
    there too, on or below the oracle."""
    from fblsec.oracle import GridSpec, exhaustive_min_lfp

    sc = make_scenario(z_b=z_b, d=100, eve_gains=tuple(np.linspace(1.0, 0.5, n)))
    res = solve_multi(sc)
    _, _, v_o = exhaustive_min_lfp(sc, GridSpec(p_points=500, refine_rounds=3))
    assert res.m_star == sc.m_cap
    assert res.eps_lf <= v_o * (1.0 + 1e-6)


GRID_45 = [(z_b, d, n) for z_b in (1.5, 2.0, 2.5, 3.0, 4.0)
           for d in (100, 320, 700) for n in (1, 3, 8)]


@pytest.mark.parametrize("z_b,d,n", GRID_45,
                         ids=[f"z_b={z}-d={d}-eves={n}" for z, d, n in GRID_45])
def test_result_never_worse_than_start(z_b, d, n):
    """Across Bob's gain, the packet size and passive sets of 1 to 8
    eavesdroppers, rounding the relaxed blocklength never returns a larger
    LFP than the start."""
    sc = make_scenario(z_b=z_b, d=d, eve_gains=tuple(np.linspace(1.0, 0.5, n)))
    res = solve_multi(sc)
    assert res.eps_lf <= res.trace.eps0


def test_symmetric_channels_no_secrecy(rng):
    """Equal links leave no secrecy margin: the optimum cannot beat the best
    value of the leakage-failure tradeoff at 3/4 and the solver still
    converges monotonically."""
    sc = make_scenario(z_b=1.0, z_e=1.0)
    res = solve_multi(sc)
    assert res.trace.converged
    assert res.eps_lf >= 0.75 - 1e-9
    values = [res.trace.eps0] + [r.eps_actual for r in res.trace.iterations]
    assert np.all(np.diff(values) <= 1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(),
    dict(z_b=3.0, d=100, m_cap=150),    # the minimum sits at the box's m cap
    dict(z_b=2.0, eve_gains=(1.0, 0.5, 0.8)),
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()) or "reference")
def test_default_init_is_the_coarse_grid_minimum(kwargs):
    """The default start lies in the box and is the minimizer of the actual
    LFP over every integer blocklength up to the box's cap times 64 geometric
    powers on [1e-4 p_cap, p_cap], ties to the smallest (m, p)."""
    links = linkset_for(make_scenario(**kwargs))
    box = _resource_box(links)
    m0, p0 = default_init(links)
    assert box[0] <= m0 <= box[1]
    assert box[2] < p0 <= box[3]
    ms = np.arange(1, int(np.floor(box[1])) + 1, dtype=float)
    ps = np.geomspace(links.p_cap * 1e-4, links.p_cap, 64)
    vals = links.lfp(ms[:, None], ps[None, :])
    i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
    assert (m0, p0) == (ms[i], ps[j])
    assert links.lfp(m0, p0) == vals[i, j]
