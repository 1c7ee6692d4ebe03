"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 5's threshold-constant sub-check is expected to fail: the
quadratic coefficients consistent with the exact Hessian put the sweep
maximum of the concavity rate threshold at 0.0349 bits per channel use, not
near the quoted 0.023 (which matches the nats value 0.0242 of the same
quantity); see the repository notes for the analysis.
"""

import json
import time

import mpmath as mp
import numpy as np

from fblsec.bounds import am_gm_upper, exp_bound_coeffs, one_minus_q_upper, q_upper
from fblsec.cli import main as cli_main
from fblsec.constrained import (
    ExponentialGain,
    FadingSpec,
    GaussQuadrature,
    MonteCarlo,
    Thresholds,
    expected_lfp,
    feasible_m_interval_statistical,
    solve_blocklength,
    solve_blocklength_statistical,
    solve_fixed_leakage,
)
from fblsec.convexity import (
    omega_hessian_fd,
    omega_hessian_mgamma,
    rate_threshold,
    rate_threshold_sweep_max,
)
from fblsec.core import EveModel, Resources, fbl_error, lfp_at, omega, q
from fblsec.multi_eve import solve_multi, telescope_leakage
from fblsec.oracle import GridSpec, exhaustive_min_lfp, golden_section_max

from conftest import feasible_threshold_cases, make_scenario

mp.mp.dps = 50


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _q_oracle(x: float) -> mp.mpf:
    return mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2


def _omega_oracle(g: float, d: int, m: float) -> mp.mpf:
    gm, dm, mm = mp.mpf(g), mp.mpf(d), mp.mpf(m)
    v = 1 - (1 + gm) ** -2
    c = mp.log(1 + gm) / mp.log(2)
    return mp.sqrt(mm / v) * (c - dm / mm) * mp.log(2)


def test_criterion_01_fbl_error_oracle(rng):
    """fbl_error matches a 50-digit tail-integral oracle to 1e-12 relative."""
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 1000:
        g = rng.uniform(0.1, 100.0)
        d = int(rng.integers(8, 1025))
        m = rng.uniform(d / 8, 4000.0)
        if abs(omega(g, d, m)) > 8.0:
            continue
        got = fbl_error(g, d, m)
        want = float(_q_oracle(_omega_oracle(g, d, m)))
        worst = max(worst, abs(got - want) / abs(want))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(1, ok, f"max rel err {worst:.2e} over 1000 points in {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_02_monotonicity(rng):
    """Error probability strictly decreases in blocklength and power."""
    violations = 0
    checked = 0
    while checked < 10_000:
        z = rng.uniform(0.05, 5.0)
        s2 = rng.uniform(0.01, 1.0)
        p = rng.uniform(1e-3, 10.0)
        d = int(rng.integers(8, 1025))
        m = rng.uniform(max(8.0, d / 8), 4000.0)
        g = p * z / s2
        e0 = fbl_error(g, d, m)
        if not 1e-300 < e0 < 1.0 - 1e-15:
            continue
        checked += 1
        if not fbl_error(g, d, 1.01 * m) < e0:
            violations += 1
        if not fbl_error(1.01 * p * z / s2, d, m) < e0:
            violations += 1
    ok = violations == 0
    _report(2, ok, f"{violations} violations over 10000 resolvable points")
    assert violations == 0


def test_criterion_03_exponential_bounds():
    """Anchored exponentials dominate the tail function and its complement on
    a 100 x 1000 anchor/argument grid, with anchored equality."""
    anchors = np.linspace(-6.0, 6.0, 100)
    omegas = np.linspace(-10.0, 10.0, 1000)
    qv = q(omegas)
    worst_slack = np.inf
    worst_anchor = 0.0
    for wh in anchors:
        cf = exp_bound_coeffs(float(wh))
        cf_neg = exp_bound_coeffs(float(-wh))
        worst_slack = min(worst_slack, np.min(q_upper(omegas, cf) - qv))
        worst_slack = min(worst_slack,
                          np.min(one_minus_q_upper(omegas, cf_neg) - (1.0 - qv)))
        worst_anchor = max(worst_anchor, abs(q_upper(float(wh), cf) - q(float(wh))))
        worst_anchor = max(
            worst_anchor,
            abs(one_minus_q_upper(float(wh), cf_neg) - (1.0 - q(float(wh)))),
        )
    ok = worst_slack >= -1e-12 and worst_anchor <= 1e-9
    _report(3, ok, f"min slack {worst_slack:.2e}, worst anchor gap {worst_anchor:.2e} "
                   f"over 100000 pairs")
    assert worst_slack >= -1e-12
    assert worst_anchor <= 1e-9


def test_criterion_04_am_gm(rng):
    """The ratio-weighted power mean dominates the product and is exact at the
    anchor."""
    worst_slack = np.inf
    worst_eq = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        f = rng.uniform(1e-6, 10.0, size=n)
        fh = rng.uniform(1e-6, 10.0, size=n)
        prod = float(np.prod(f))
        worst_slack = min(worst_slack, am_gm_upper(f, fh) - prod)
        worst_eq = max(
            worst_eq,
            abs(am_gm_upper(f, f) - prod) / max(prod, 1e-300),
        )
    ok = worst_slack >= -1e-12 and worst_eq <= 1e-12
    _report(4, ok, f"min slack {worst_slack:.2e}, worst anchored gap {worst_eq:.2e}")
    assert worst_slack >= -1e-12
    assert worst_eq <= 1e-12


def test_criterion_05_concavity_condition(rng):
    """Closed-form Hessian vs finite differences, negative semidefiniteness
    above the rate threshold, and the quoted sweep-maximum constant."""
    worst_fd = 0.0
    for _ in range(1000):
        g = rng.uniform(0.05, 80.0)
        m = rng.uniform(20.0, 4000.0)
        d = rng.uniform(8.0, 1500.0)
        analytic = omega_hessian_mgamma(g, d, m)
        numeric = omega_hessian_fd(g, d, m)
        worst_fd = max(worst_fd,
                       np.max(np.abs(analytic - numeric)) / np.max(np.abs(analytic)))
    hess_ok = worst_fd <= 1e-5

    nsd_violations = 0
    for _ in range(1000):
        g = rng.uniform(0.05, 80.0)
        thr = rate_threshold(g)
        r = rng.uniform(max(thr, 1e-3), 8.0)
        m = rng.uniform(20.0, 4000.0)
        h = omega_hessian_mgamma(g, r * m, m)
        ev = np.linalg.eigvalsh(h)
        if ev.max() > 1e-8 * np.max(np.abs(h)):
            nsd_violations += 1
    nsd_ok = nsd_violations == 0

    peak = rate_threshold_sweep_max(100.0)
    peak_ok = abs(peak - 0.023) <= 0.005

    ok = hess_ok and nsd_ok and peak_ok
    _report(5, ok, f"hessian rel err {worst_fd:.2e} (ok={hess_ok}); "
                   f"NSD violations {nsd_violations} (ok={nsd_ok}); "
                   f"sweep max {peak:.4f} vs 0.023+-0.005 (ok={peak_ok}; "
                   f"the exact-Hessian coefficients put it at 0.0349 bits, "
                   f"0.0242 nats)")
    assert hess_ok, f"hessian mismatch {worst_fd:.2e}"
    assert nsd_ok, f"{nsd_violations} NSD violations above threshold"
    assert peak_ok, (
        f"rate-threshold sweep max is {peak:.4f} bits/chn.use, outside "
        f"0.023 +- 0.005; the exact Hessian grouping makes 0.023 unattainable "
        f"(it equals the nats value 0.0242 of the same maximum)"
    )


def test_criterion_06_solver_vs_oracle(default_scenario):
    """Reference setup: monotone trace, oracle agreement to 1e-3 relative,
    convergence within 20 rounds, runtime budgets."""
    sc = default_scenario
    t0 = time.perf_counter()
    res = solve_multi(sc)
    t_solve = time.perf_counter() - t0
    values = [res.trace.eps0] + [r.eps_actual for r in res.trace.iterations]
    monotone = bool(np.all(np.diff(values) <= 1e-12))
    t0 = time.perf_counter()
    m_o, p_o, v_o = exhaustive_min_lfp(sc, GridSpec(p_points=1000, refine_rounds=3))
    t_oracle = time.perf_counter() - t0
    rel_gap = abs(res.eps_lf - v_o) / v_o
    ok = (monotone and rel_gap <= 1e-3 and res.trace.converged
          and res.trace.rounds_used <= 20 and t_solve < 1.0 and t_oracle < 300.0)
    _report(6, ok, f"monotone={monotone}, rel gap {rel_gap:.2e}, "
                   f"rounds {res.trace.rounds_used}, solver {t_solve:.2f}s, "
                   f"oracle {t_oracle:.1f}s (optimum m={m_o}, p={p_o:.5f})")
    assert monotone
    assert rel_gap <= 1e-3
    assert res.trace.converged and res.trace.rounds_used <= 20
    assert t_solve < 1.0
    assert t_oracle < 300.0


def test_criterion_07_gain_sweep_with_baseline():
    """The optimal LFP falls strictly as Bob's gain grows, for either
    eavesdropper gain, and pinning the leakage budget never beats the joint
    optimum."""
    ok = True
    details = []
    for z_e in (0.8, 1.0):
        joint = []
        for z_b in (1.2, 1.4, 1.6, 1.8, 2.0):
            sc = make_scenario(z_b=z_b, z_e=z_e)
            v = solve_multi(sc).eps_lf
            m_fx, p_fx, v_fx = solve_fixed_leakage(sc, 1e-3, p_points=200,
                                                   refine_rounds=2)
            joint.append(v)
            if v_fx < v:
                ok = False
                details.append(f"baseline beat joint at z_b={z_b}, z_e={z_e}")
        if not all(b < a for a, b in zip(joint, joint[1:])):
            ok = False
            details.append(f"not strictly decreasing for z_e={z_e}: {joint}")
    _report(7, ok, "strict decrease in Bob's gain and baseline dominance"
            + ("" if ok else "; " + "; ".join(details)))
    assert ok, details


def test_criterion_08_packet_size_sweep():
    """Bigger packets lower the optimal LFP at the reference caps, with the
    optimizing resources nondecreasing."""
    vals, ms, ps = [], [], []
    for d in (160, 320, 480, 640):
        res = solve_multi(make_scenario(d=d))
        vals.append(res.eps_lf)
        ms.append(res.m_star)
        ps.append(res.p_star)
    strict = all(b < a for a, b in zip(vals, vals[1:]))
    m_mono = all(b >= a for a, b in zip(ms, ms[1:]))
    p_mono = all(b >= a - 1e-12 for a, b in zip(ps, ps[1:]))
    ok = strict and m_mono and p_mono
    _report(8, ok, f"eps {['%.3e' % v for v in vals]}, m* {ms}, "
                   f"p* {['%.5f' % v for v in ps]}")
    assert strict
    assert m_mono
    assert p_mono


def test_criterion_09_multi_eve(rng):
    """Telescoped leakage identity, eavesdropper-count direction for both
    collusion models, and collusion dominance at two eavesdroppers."""
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        eps = rng.uniform(0.0, 1.0, size=n)
        worst = max(worst, abs(telescope_leakage(eps) - (1.0 - np.prod(eps))))
    identity_ok = worst <= 1e-14

    passive, super_ = [], []
    for n in range(1, 6):
        sc_p = make_scenario(eve_gains=[1.0] * n, eve_model=EveModel.PASSIVE)
        sc_s = make_scenario(eve_gains=[1.0] * n, eve_model=EveModel.SUPER)
        passive.append(solve_multi(sc_p).eps_lf)
        super_.append(solve_multi(sc_s).eps_lf)
    passive_ok = all(b >= a - 1e-9 for a, b in zip(passive, passive[1:]))
    super_ok = all(b >= a - 1e-9 for a, b in zip(super_, super_[1:]))
    dominance_ok = super_[1] >= passive[1]

    ok = identity_ok and passive_ok and super_ok and dominance_ok
    _report(9, ok, f"identity gap {worst:.2e}; passive {['%.3e' % v for v in passive]}; "
                   f"super {['%.3e' % v for v in super_]}")
    assert identity_ok
    assert passive_ok and super_ok
    assert dominance_ok


def test_criterion_10_blocklength_convexity():
    """On 50 random feasible threshold problems the LFP is convex over the
    window and the unimodal search equals the exhaustive scan."""
    cases = feasible_threshold_cases(50)
    worst_second = np.inf
    mismatches = 0
    for sc, p, th, (m_lo, m_hi) in cases:
        ms = np.arange(m_lo, m_hi + 1)
        vals = np.array([lfp_at(sc, Resources(float(m), p))[0] for m in ms])
        if len(vals) > 2:
            second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            worst_second = min(worst_second, float(second.min()))
        m_star, v_star = solve_blocklength(sc, p, th)
        if m_star != ms[int(np.argmin(vals))] or v_star != vals.min():
            mismatches += 1
    ok = worst_second >= -1e-10 and mismatches == 0
    _report(10, ok, f"min second difference {worst_second:.2e}, "
                    f"{mismatches} scan mismatches over 50 cases")
    assert worst_second >= -1e-10
    assert mismatches == 0


def test_criterion_11_throughput_quasiconcavity():
    """Effective throughput is unimodal on every tested window and the
    golden-section argmax equals the scan argmax."""
    cases = feasible_threshold_cases(50)
    mismatches = 0
    multi_modal = 0
    for sc, p, th, (m_lo, m_hi) in cases:
        ms = np.arange(m_lo, m_hi + 1)
        vals = np.array([lfp_at(sc, Resources(float(m), p))[0] for m in ms])
        taus = sc.d / ms * (1.0 - vals)
        peaks = [
            i for i in range(1, len(taus) - 1)
            if taus[i] > taus[i - 1] and taus[i] > taus[i + 1]
        ]
        if len(peaks) > 1:
            multi_modal += 1
        m_star, tau_star = golden_section_max(
            lambda m: sc.d / m * (1.0 - lfp_at(sc, Resources(float(m), p))[0]),
            m_lo, m_hi,
        )
        if m_star != ms[int(np.argmax(taus))]:
            mismatches += 1
    ok = multi_modal == 0 and mismatches == 0
    _report(11, ok, f"{multi_modal} multimodal windows, {mismatches} argmax "
                    f"mismatches over 50 cases")
    assert multi_modal == 0
    assert mismatches == 0


def test_criterion_12_statistical_csi():
    """Seeded Monte Carlo and the 64-node quadrature agree to 1e-3; the
    expected LFP is convex over the constrained window; the statistical search
    equals its scan."""
    sc = make_scenario(z_b=15.0, mean_gain=1.0)
    p = 0.3
    th = Thresholds(delta_max=1e-3, eps_b_max=1e-3)
    fad_q = FadingSpec(ExponentialGain(), GaussQuadrature(64))
    fad_mc = FadingSpec(ExponentialGain(), MonteCarlo(5000, seed=20260808))
    interval = feasible_m_interval_statistical(sc, p, th, fad_q)
    assert interval is not None
    ms = np.arange(interval[0], interval[1] + 1)
    vals_q = np.array([expected_lfp(sc, Resources(float(m), p), fad_q) for m in ms])
    vals_mc = np.array([expected_lfp(sc, Resources(float(m), p), fad_mc) for m in ms])
    agree = float(np.max(np.abs(vals_q - vals_mc)))
    agree_ok = agree <= 1e-3
    second_ok = True
    if len(vals_q) > 2:
        second = vals_q[2:] - 2 * vals_q[1:-1] + vals_q[:-2]
        second_ok = float(second.min()) >= -1e-8
    m_star, v_star = solve_blocklength_statistical(sc, p, th, fad_q)
    scan_ok = (m_star == ms[int(np.argmin(vals_q))]) and v_star == vals_q.min()
    ok = agree_ok and second_ok and scan_ok
    _report(12, ok, f"estimator gap {agree:.2e} over window {interval}, "
                    f"convexity ok={second_ok}, scan match={scan_ok}")
    assert agree_ok
    assert second_ok
    assert scan_ok


def test_criterion_13_cli_determinism(tmp_path):
    """Identical config and seed reproduce byte-identical CSV for every
    command."""
    base = {
        "scenario": {
            "d": 320,
            "bob": {"gain": 1.5, "noise_power": 0.1},
            "eves": [{"gain": 1.0, "noise_power": 0.1}],
            "eve_model": "passive",
            "m_cap": 3000,
            "p_cap": 10.0,
        },
        "eval": {"m_points": 5, "p_points": 5, "m_range": [50, 500],
                 "p_range": [0.01, 1.0]},
        "sweep": {"variable": "z_b", "values": [1.5, 1.8], "mode": "joint"},
        "oracle": {"p_points": 120, "refine_rounds": 1},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base))
    ok = True
    details = []
    for command in ("eval", "solve", "sweep", "oracle"):
        payloads = []
        for run in range(2):
            out = tmp_path / f"{command}_{run}.csv"
            rc = cli_main([command, "--config", str(cfg_path),
                           "--out", str(out)])
            assert rc == 0
            payloads.append(out.read_bytes())
        if payloads[0] != payloads[1]:
            ok = False
            details.append(command)
    _report(13, ok, "byte-identical rerun for eval/solve/sweep/oracle"
            + ("" if ok else f"; mismatches: {details}"))
    assert ok, details
