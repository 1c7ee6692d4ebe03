import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fblsec import constrained
from fblsec.constrained import (
    ExponentialGain,
    FadingSpec,
    GaussQuadrature,
    MonteCarlo,
    PointMassGain,
    Thresholds,
    expected_eps_e,
    expected_lfp,
    feasible_m_interval,
    feasible_m_interval_statistical,
    maximize_throughput,
    solve_blocklength,
    solve_blocklength_statistical,
    solve_fixed_leakage,
)
from fblsec.core import (
    ChannelSpec,
    EveModel,
    Resources,
    capacity,
    fbl_error,
    fbl_error_over_gains,
    lfp_at,
    snr,
)
from fblsec.errors import InfeasibleError
from fblsec.multi_eve import scenario_lfp, solve_multi

from conftest import feasible_threshold_cases, make_scenario


def _dense_eps_e(scenario, ps, ms):
    """The eavesdroppers' joint error: the product of their fbl_error values
    in index order (passive), or the fbl_error of their summed SNR
    (colluders)."""
    if scenario.eve_model is EveModel.SUPER:
        return fbl_error(sum(snr(e, ps) for e in scenario.eves), scenario.d, ms)
    eps_e = fbl_error(snr(scenario.eves[0], ps), scenario.d, ms)
    for eve in scenario.eves[1:]:
        eps_e = eps_e * fbl_error(snr(eve, ps), scenario.d, ms)
    return eps_e


def _dense_fixed_leakage(scenario, cap, p_points, refine_rounds, p_min=None):
    """Reference for solve_fixed_leakage: every cell of every round's grid in
    one array, with the same zoom and lexicographic tie-break."""
    p_min = p_min if p_min is not None else scenario.p_cap * 1e-6
    p_lo, p_hi = p_min, scenario.p_cap
    ms = np.arange(1, scenario.m_cap + 1, dtype=float)[:, None]
    best = None
    for _ in range(refine_rounds + 1):
        ps = (np.array([p_hi]) if p_points == 1
              else np.geomspace(p_lo, p_hi, p_points))[None, :]
        eps_e = _dense_eps_e(scenario, ps, ms)
        eps_b = fbl_error(snr(scenario.bob, ps), scenario.d, ms)
        masked = np.where(1.0 - eps_e <= cap, eps_b, np.inf)
        i, j = np.unravel_index(int(np.argmin(masked)), masked.shape)
        if np.isfinite(masked[i, j]):
            cand = (float(masked[i, j]), int(ms[i, 0]), float(ps[0, j]))
            if best is None or cand < best:
                best = cand
        if best is None:
            raise InfeasibleError("the leakage cap is violated everywhere in the box")
        width = (p_hi / p_lo) ** 0.1
        p_lo = max(p_min, best[2] / width)
        p_hi = min(scenario.p_cap, best[2] * width)
    return best[1], best[2], scenario_lfp(scenario, Resources(float(best[1]), best[2]))


def _scan_values(scenario, p, interval):
    ms = np.arange(interval[0], interval[1] + 1)
    return ms, np.array([lfp_at(scenario, Resources(float(m), p))[0] for m in ms])


def test_thresholds_validation():
    Thresholds(0.5, 0.5)
    with pytest.raises(ValueError):
        Thresholds(0.6, 0.1)
    with pytest.raises(ValueError):
        Thresholds(0.1, 0.0)


def test_interval_at_half_thresholds_is_capacity_window():
    """At thresholds of one half the window is exactly the blocklengths whose
    rate sits between the two capacities."""
    sc = make_scenario(z_b=4.0)
    p = 0.1
    th = Thresholds(0.5, 0.5)
    interval = feasible_m_interval(sc, p, th)
    assert interval is not None
    c_b = capacity(snr(sc.bob, p))
    c_e = capacity(snr(sc.single_eve, p))
    assert interval[0] == int(np.ceil(sc.d / c_b))
    assert interval[1] == int(np.floor(sc.d / c_e))


def test_interval_symmetric_channels_empty():
    sc = make_scenario(z_b=1.0, z_e=1.0)
    assert feasible_m_interval(sc, 0.1, Thresholds(0.3, 0.3)) is None


def test_interval_close_channels_tight_thresholds_empty(default_scenario):
    """The reference gains at power 1 leave no window at a 1e-3 budget: the
    dispersion penalties outgrow the capacity gap (verified by scan)."""
    th = Thresholds(1e-3, 1e-3)
    assert feasible_m_interval(default_scenario, 1.0, th) is None
    from fblsec.core import fbl_error

    ms = np.arange(1, default_scenario.m_cap + 1, dtype=float)
    eps_b = fbl_error(snr(default_scenario.bob, 1.0), default_scenario.d, ms)
    delta = 1.0 - fbl_error(snr(default_scenario.single_eve, 1.0),
                            default_scenario.d, ms)
    assert not np.any((eps_b <= 1e-3) & (delta <= 1e-3))


def test_interval_endpoints_are_sharp():
    for sc, p, th, (m_lo, m_hi) in feasible_threshold_cases(12):
        from fblsec.core import fbl_error

        for m in (m_lo, m_hi):
            eps_b = fbl_error(snr(sc.bob, p), sc.d, float(m))
            delta = 1.0 - fbl_error(snr(sc.single_eve, p), sc.d, float(m))
            assert eps_b <= th.eps_b_max and delta <= th.delta_max
        if m_lo > 1:
            assert fbl_error(snr(sc.bob, p), sc.d, float(m_lo - 1)) > th.eps_b_max
        if m_hi < sc.m_cap:
            delta_next = 1.0 - fbl_error(snr(sc.single_eve, p), sc.d,
                                         float(m_hi + 1))
            assert delta_next > th.delta_max


def test_solve_blocklength_matches_scan():
    for sc, p, th, interval in feasible_threshold_cases(12):
        m_star, v_star = solve_blocklength(sc, p, th)
        ms, vals = _scan_values(sc, p, interval)
        assert m_star == ms[int(np.argmin(vals))]
        assert v_star == pytest.approx(vals.min(), rel=1e-14)


def test_lfp_convex_over_interval():
    for sc, p, th, interval in feasible_threshold_cases(12):
        _, vals = _scan_values(sc, p, interval)
        if len(vals) > 2:
            second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            assert second.min() >= -1e-10


def test_width_one_interval_returns_it():
    sc = make_scenario(z_b=6.0)
    p = 0.5
    from fblsec.core import fbl_error

    m0 = 85
    eps_b0 = fbl_error(snr(sc.bob, p), sc.d, float(m0))
    delta0 = 1.0 - fbl_error(snr(sc.single_eve, p), sc.d, float(m0))
    th = Thresholds(delta_max=delta0, eps_b_max=eps_b0)
    assert feasible_m_interval(sc, p, th) == (m0, m0)
    assert solve_blocklength(sc, p, th)[0] == m0
    assert maximize_throughput(sc, p, th)[0] == m0


def test_infeasible_raises():
    sc = make_scenario(z_b=1.0, z_e=1.0)
    with pytest.raises(InfeasibleError):
        solve_blocklength(sc, 0.1, Thresholds(0.3, 0.3))
    with pytest.raises(InfeasibleError):
        maximize_throughput(sc, 0.1, Thresholds(0.3, 0.3))


def test_throughput_matches_scan_and_unimodal():
    for sc, p, th, interval in feasible_threshold_cases(12):
        m_star, tau_star = maximize_throughput(sc, p, th)
        ms, vals = _scan_values(sc, p, interval)
        taus = sc.d / ms * (1.0 - vals)
        assert m_star == ms[int(np.argmax(taus))]
        assert tau_star == pytest.approx(taus.max(), rel=1e-14)
        interior_maxima = [
            i for i in range(1, len(taus) - 1)
            if taus[i] > taus[i - 1] and taus[i] > taus[i + 1]
        ]
        assert len(interior_maxima) <= 1


WINDOW_SETS = [
    pytest.param(make_scenario(z_b=3.0, eve_gains=(1.0, 0.8)), id="passive-2"),
    pytest.param(make_scenario(z_b=3.0, eve_gains=(1.0, 0.9, 0.8)), id="passive-3"),
    pytest.param(make_scenario(z_b=3.0, eve_gains=tuple(np.linspace(1.0, 0.6, 8))),
                 id="passive-8"),
    pytest.param(make_scenario(z_b=3.0, eve_gains=(0.79, 0.91), eve_model=EveModel.SUPER),
                 id="colluding-pair"),
    pytest.param(replace(make_scenario(z_b=3.0, eve_model=EveModel.SUPER),
                         eves=(ChannelSpec(1.0, 0.1), ChannelSpec(0.5, 0.2))),
                 id="colluders-noise"),
]


@pytest.mark.parametrize("p,thr", [(0.1, 0.3), (0.3, 0.1), (1.0, 0.1)])
@pytest.mark.parametrize("sc", WINDOW_SETS)
def test_window_searches_equal_dense_scan_on_eavesdropper_sets(sc, p, thr):
    """On passive sets and colluders (also with different noise powers) the
    window is the set of blocklengths a dense scan finds feasible, and both
    searches return the optimum of a scan of the whole window."""
    th = Thresholds(thr, thr)
    ms = np.arange(1, sc.m_cap + 1, dtype=float)
    eps_b = fbl_error(snr(sc.bob, p), sc.d, ms)
    feasible = ms[(eps_b <= thr) & (1.0 - _dense_eps_e(sc, p, ms) <= thr)]
    interval = feasible_m_interval(sc, p, th)
    assert interval == (feasible[0], feasible[-1])
    assert len(feasible) == interval[1] - interval[0] + 1

    ms, vals = _scan_values(sc, p, interval)
    m_star, v_star = solve_blocklength(sc, p, th)
    assert m_star == ms[int(np.argmin(vals))]
    assert v_star == pytest.approx(vals.min(), rel=1e-14)
    taus = sc.d / ms * (1.0 - vals)
    m_tau, tau_star = maximize_throughput(sc, p, th)
    assert m_tau == ms[int(np.argmax(taus))]
    assert tau_star == pytest.approx(taus.max(), rel=1e-14)


def test_throughput_direction_in_gain_and_power():
    """Stronger legitimate links and looser power budgets never reduce the
    achievable effective throughput."""
    th = Thresholds(0.05, 0.05)
    taus = []
    for z_b in (1.5, 1.8, 2.1):
        sc = make_scenario(z_b=z_b)
        taus.append(maximize_throughput(sc, 1.0, th)[1])
    assert taus[0] <= taus[1] <= taus[2]
    sc = make_scenario(z_b=2.0)
    tau_p1 = maximize_throughput(sc, 1.0, th)[1]
    tau_p2 = maximize_throughput(sc, 2.0, th)[1]
    assert tau_p2 >= tau_p1 - 1e-12


def test_fixed_leakage_respects_cap(default_scenario):
    m, p, v = solve_fixed_leakage(default_scenario, 1e-3,
                                  p_points=200, refine_rounds=2)
    from fblsec.core import fbl_error

    delta = 1.0 - fbl_error(snr(default_scenario.single_eve, p),
                            default_scenario.d, float(m))
    assert delta <= 1e-3 + 1e-12


def test_fixed_leakage_dominated_by_joint_optimum(default_scenario):
    _, _, v_fixed = solve_fixed_leakage(default_scenario, 1e-3,
                                        p_points=200, refine_rounds=2)
    v_joint = solve_multi(default_scenario).eps_lf
    assert v_fixed >= v_joint


def test_fixed_leakage_slack_cap_improves_reliability(default_scenario):
    from fblsec.core import fbl_error

    out = {}
    for cap in (1e-3, 0.5):
        m, p, _ = solve_fixed_leakage(default_scenario, cap,
                                      p_points=200, refine_rounds=2)
        out[cap] = fbl_error(snr(default_scenario.bob, p),
                             default_scenario.d, float(m))
    assert out[0.5] <= out[1e-3] + 1e-12


FIXED_LEAKAGE_CASES = [
    (dict(), 1e-3, 200, 2, None),
    (dict(z_b=2.3, d=316), 1e-3, 300, 2, None),
    (dict(z_b=4.0, d=700, m_cap=1200), 1e-9, 80, 3, None),
    (dict(z_b=1.2, d=100), 0.5, 50, 0, 1e-2),
    (dict(z_b=6.0, d=40, m_cap=600), 1e-12, 1, 1, None),
    (dict(z_b=3.0, z_e=2.0, d=200, m_cap=900), 0.2, 120, 3, 5.0),
]


FIXED_LEAKAGE_MULTI_CASES = [
    pytest.param(dict(z_b=2.0, eve_gains=(1.0, 0.5, 0.8)), 1e-3, 200, 2, None,
                 id="passive-3"),
    pytest.param(dict(z_b=2.5, d=700, m_cap=1500, eve_gains=(1.0, 0.9, 0.7, 0.5)),
                 1e-6, 80, 3, None, id="passive-4-d=700"),
    pytest.param(dict(z_b=3.0, eve_gains=tuple(np.linspace(1.0, 0.3, 8))), 0.2,
                 60, 1, 1e-2, id="passive-8"),
    pytest.param(dict(z_b=2.49, eve_gains=(0.79, 0.91), eve_model=EveModel.SUPER),
                 1e-3, 200, 2, None, id="colluding-pair"),
    pytest.param(dict(z_b=4.0, d=200, m_cap=900, eve_gains=(0.5, 0.4, 0.3),
                      eve_model=EveModel.SUPER), 1e-9, 40, 3, None, id="colluding-3"),
]


@pytest.mark.parametrize("kwargs,cap,p_points,rounds,p_min",
                         FIXED_LEAKAGE_CASES + FIXED_LEAKAGE_MULTI_CASES)
def test_fixed_leakage_equals_dense_scan(kwargs, cap, p_points, rounds, p_min):
    sc = make_scenario(**kwargs)
    assert (solve_fixed_leakage(sc, cap, p_points=p_points, refine_rounds=rounds,
                                p_min=p_min)
            == _dense_fixed_leakage(sc, cap, p_points, rounds, p_min))


def test_fixed_leakage_equals_dense_scan_random(rng):
    """Seeded random scenarios, caps from 1e-14 to 0.5 and power floors: the
    same triple as the dense scan."""
    for _ in range(10):
        sc = make_scenario(d=int(rng.integers(20, 800)), z_b=float(rng.uniform(1.0, 6.0)),
                           z_e=float(rng.uniform(0.3, 1.5)),
                           m_cap=int(rng.integers(100, 1500)),
                           p_cap=float(rng.uniform(1.0, 20.0)))
        cap = float(10.0 ** rng.uniform(-14.0, math.log10(0.5)))
        p_points = int(rng.integers(1, 150))
        rounds = int(rng.integers(0, 4))
        p_min = float(sc.p_cap * 10.0 ** rng.uniform(-8, 0)) if rng.random() < 0.5 else None
        assert (solve_fixed_leakage(sc, cap, p_points=p_points, refine_rounds=rounds,
                                    p_min=p_min)
                == _dense_fixed_leakage(sc, cap, p_points, rounds, p_min))


def test_fixed_leakage_infeasible_cap_raises_like_dense_scan():
    """A strong eavesdropper at full power decodes even a one-use code: every
    cell leaks more than the cap."""
    sc = make_scenario(z_b=200.0, z_e=100.0, d=2, m_cap=400)
    with pytest.raises(InfeasibleError):
        _dense_fixed_leakage(sc, 0.5, 40, 2, p_min=sc.p_cap)
    with pytest.raises(InfeasibleError):
        solve_fixed_leakage(sc, 0.5, p_points=40, refine_rounds=2, p_min=sc.p_cap)


def test_fixed_leakage_single_power_point_is_p_cap(default_scenario):
    """One power point scans p_cap, as the oracle does, not the floor."""
    m, p, v = solve_fixed_leakage(default_scenario, 1e-3, p_points=1)
    assert (m, p) == (43, default_scenario.p_cap)
    assert v == lfp_at(default_scenario, Resources(43.0, default_scenario.p_cap))[0]


@pytest.mark.parametrize("p_min", [40.0, 0.0, -1.0])
def test_fixed_leakage_p_min_outside_box_rejected(default_scenario, p_min):
    with pytest.raises(ValueError):
        solve_fixed_leakage(default_scenario, 1e-3, p_points=50, p_min=p_min)


@pytest.mark.parametrize("kwargs,what", [
    (dict(p_points=0), "p_points"),
    (dict(refine_rounds=-1), "refine_rounds"),
])
def test_fixed_leakage_empty_grid_rejected(default_scenario, kwargs, what):
    """No power point or a negative zoom count is a bad argument, not an
    infeasible cap."""
    with pytest.raises(ValueError, match=what) as info:
        solve_fixed_leakage(default_scenario, 1e-3, **kwargs)
    assert not isinstance(info.value, InfeasibleError)


# ---------------------------------------------------------------------------
# statistical CSI
# ---------------------------------------------------------------------------

STAT_SCENARIO = dict(z_b=15.0, mean_gain=1.0)
STAT_P = 0.3
STAT_TH = Thresholds(delta_max=1e-3, eps_b_max=1e-3)


def test_point_mass_equals_deterministic(default_scenario):
    sc = make_scenario(mean_gain=1.0)
    res = Resources(400.0, 0.1)
    fading = FadingSpec(PointMassGain(), GaussQuadrature(64))
    expected, _ = lfp_at(sc, res)
    assert expected_lfp(sc, res, fading) == pytest.approx(expected, rel=1e-12)


def test_monte_carlo_requires_seed():
    with pytest.raises(ValueError):
        MonteCarlo(5000, seed=None)
    with pytest.raises(ValueError):
        GaussQuadrature(1)


@pytest.mark.parametrize("make", [
    lambda: ExponentialGain(mean=-1.0),
    lambda: ExponentialGain(mean=0.0),
    lambda: ExponentialGain(mean=math.inf),
    lambda: ExponentialGain(mean=math.nan),
    lambda: PointMassGain(value=-2.0),
    lambda: PointMassGain(value=math.inf),
    lambda: PointMassGain(value=math.nan),
    lambda: GaussQuadrature(nodes=2.5),
    lambda: GaussQuadrature(nodes=64.0),
    lambda: MonteCarlo(samples=10.5, seed=1),
    lambda: MonteCarlo(samples=0, seed=1),
])
def test_invalid_fading_parameters_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_valid_fading_parameters_accepted():
    assert ExponentialGain(mean=0.5).mean == 0.5
    assert PointMassGain(value=0.0).value == 0.0
    assert GaussQuadrature(nodes=np.int64(16)).nodes == 16
    assert MonteCarlo(samples=np.int32(10), seed=1).samples == 10


@pytest.mark.parametrize("fading", [
    FadingSpec(ExponentialGain(), GaussQuadrature(64)),
    FadingSpec(ExponentialGain(), MonteCarlo(100, seed=3)),
    FadingSpec(PointMassGain(), GaussQuadrature(64)),
])
def test_zero_power_is_the_zero_snr_limit(fading):
    sc = make_scenario(mean_gain=1.0)
    res = Resources(400.0, 0.0)
    assert expected_eps_e(sc, res, fading) == 1.0
    with np.errstate(divide="ignore"):
        assert expected_lfp(sc, res, fading) == 1.0
        assert lfp_at(sc, res)[0] == 1.0


def test_vanishing_gains_are_the_zero_snr_limit():
    """Gains down to zero, where 1 + gamma rounds to 1, give the zero-SNR
    error 1 exactly and raise no floating-point warning."""
    sc = make_scenario(mean_gain=1.0)
    res = Resources(400.0, 1.0)
    gains = [0.0, 1e-301, 1e-200, 1e-17]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        errs = fbl_error_over_gains(np.array(gains), 0.1, res.p, sc.d, res.m)
        assert errs.tolist() == [1.0] * len(gains)
        for g in gains:
            fading = FadingSpec(PointMassGain(g))
            assert expected_eps_e(sc, res, fading) == 1.0
            expected_lfp(sc, res, fading)


def test_monte_carlo_seed_deterministic():
    sc = make_scenario(**STAT_SCENARIO)
    res = Resources(66.0, STAT_P)
    fading = FadingSpec(ExponentialGain(), MonteCarlo(5000, seed=9))
    assert expected_lfp(sc, res, fading) == expected_lfp(sc, res, fading)


def test_estimators_agree():
    sc = make_scenario(**STAT_SCENARIO)
    fad_q = FadingSpec(ExponentialGain(), GaussQuadrature(64))
    fad_mc = FadingSpec(ExponentialGain(), MonteCarlo(5000, seed=2026))
    interval = feasible_m_interval_statistical(sc, STAT_P, STAT_TH, fad_q)
    assert interval is not None
    for m in range(interval[0], interval[1] + 1):
        res = Resources(float(m), STAT_P)
        gl = expected_lfp(sc, res, fad_q)
        mc = expected_lfp(sc, res, fad_mc)
        assert abs(gl - mc) <= 1e-3
    # the quadrature itself is converged at 64 nodes
    fad_big = FadingSpec(ExponentialGain(), GaussQuadrature(200))
    res = Resources(float(interval[0]), STAT_P)
    assert expected_lfp(sc, res, fad_q) == pytest.approx(
        expected_lfp(sc, res, fad_big), abs=1e-9
    )


def test_expected_lfp_convex_on_interval():
    sc = make_scenario(**STAT_SCENARIO)
    fad = FadingSpec(ExponentialGain(), GaussQuadrature(64))
    interval = feasible_m_interval_statistical(sc, STAT_P, STAT_TH, fad)
    ms = np.arange(interval[0], interval[1] + 1)
    vals = np.array([
        expected_lfp(sc, Resources(float(m), STAT_P), fad) for m in ms
    ])
    if len(vals) > 2:
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert second.min() >= -1e-8


def test_statistical_solve_matches_scan():
    sc = make_scenario(**STAT_SCENARIO)
    fad = FadingSpec(ExponentialGain(), GaussQuadrature(64))
    m_star, v_star = solve_blocklength_statistical(sc, STAT_P, STAT_TH, fad)
    interval = feasible_m_interval_statistical(sc, STAT_P, STAT_TH, fad)
    ms = np.arange(interval[0], interval[1] + 1)
    vals = np.array([
        expected_lfp(sc, Resources(float(m), STAT_P), fad) for m in ms
    ])
    assert m_star == ms[int(np.argmin(vals))]
    assert v_star == pytest.approx(vals.min(), rel=1e-14)


def test_statistical_point_mass_reduces_to_deterministic():
    sc = make_scenario(z_b=6.0, mean_gain=1.0)
    p, th = 0.5, Thresholds(1e-3, 1e-3)
    fad = FadingSpec(PointMassGain(), GaussQuadrature(16))
    m_stat, v_stat = solve_blocklength_statistical(sc, p, th, fad)
    m_det, v_det = solve_blocklength(sc, p, th)
    assert m_stat == m_det
    assert v_stat == pytest.approx(v_det, rel=1e-12)


def test_statistical_search_ignores_instantaneous_eve_gain():
    """Under statistical CSI only the eavesdropper's mean gain is consulted,
    so a zero instantaneous gain gives the same window and optimum."""
    fad = FadingSpec(ExponentialGain(), GaussQuadrature(64))
    known = make_scenario(**STAT_SCENARIO)
    unknown = make_scenario(z_e=0.0, **STAT_SCENARIO)
    assert (feasible_m_interval_statistical(unknown, STAT_P, STAT_TH, fad)
            == feasible_m_interval_statistical(known, STAT_P, STAT_TH, fad))
    assert (solve_blocklength_statistical(unknown, STAT_P, STAT_TH, fad)
            == solve_blocklength_statistical(known, STAT_P, STAT_TH, fad))


def test_statistical_estimator_choice_stable():
    sc = make_scenario(**STAT_SCENARIO)
    fad_q = FadingSpec(ExponentialGain(), GaussQuadrature(64))
    fad_mc = FadingSpec(ExponentialGain(), MonteCarlo(5000, seed=77))
    m_q, v_q = solve_blocklength_statistical(sc, STAT_P, STAT_TH, fad_q)
    m_mc, v_mc = solve_blocklength_statistical(sc, STAT_P, STAT_TH, fad_mc)
    assert abs(m_q - m_mc) <= 1
    assert abs(v_q - v_mc) <= 1e-3


@pytest.mark.parametrize("nodes", [2, 16, 64, 200])
@pytest.mark.parametrize("dist", [ExponentialGain(), PointMassGain()])
def test_cached_rule_equals_a_fresh_build(monkeypatch, nodes, dist):
    """expected_eps_e on the cached Gauss-Legendre rule gives the same bits
    as on a rule built afresh at every call."""
    sc = make_scenario(**STAT_SCENARIO)
    fading = FadingSpec(dist, GaussQuadrature(nodes))
    points = [Resources(m, p) for m in (1.0, 30.0, 66.0, 400.0, 3000.0)
              for p in (1e-3, STAT_P, 10.0)]
    cached = [expected_eps_e(sc, res, fading) for res in points]
    monkeypatch.setattr(constrained, "_leggauss", np.polynomial.legendre.leggauss)
    assert [expected_eps_e(sc, res, fading) for res in points] == cached


def test_cached_rule_is_shared_and_read_only():
    x, w = constrained._leggauss(16)
    x_again, w_again = constrained._leggauss(16)
    assert x_again is x and w_again is w
    fresh_x, fresh_w = np.polynomial.legendre.leggauss(16)
    assert x.tolist() == fresh_x.tolist() and w.tolist() == fresh_w.tolist()
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("search", [
    lambda sc, p, th: feasible_m_interval(sc, p, th),
    lambda sc, p, th: solve_blocklength(sc, p, th),
    lambda sc, p, th: maximize_throughput(sc, p, th),
    lambda sc, p, th: solve_blocklength_statistical(
        sc, p, th, FadingSpec(ExponentialGain(), GaussQuadrature(16))),
])
@pytest.mark.parametrize("p", [0.0, -1.0, math.nan, 10.5, math.inf])
def test_window_searches_reject_power_outside_the_budget(search, p):
    """Every fixed-power search runs inside (0, p_cap]."""
    sc = make_scenario(z_b=6.0, mean_gain=1.0, p_cap=10.0)
    with pytest.raises(ValueError, match="power"):
        search(sc, p, Thresholds(1e-3, 1e-3))
    search(sc, 10.0, Thresholds(0.3, 0.3))
