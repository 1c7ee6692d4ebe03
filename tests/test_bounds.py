import math
import warnings

import numpy as np
import pytest

from fblsec.bounds import (
    SurrogateModel,
    am_gm_upper,
    approx_lfp,
    exp_bound_coeffs,
    one_minus_q_upper,
    q_upper,
)
from fblsec.core import EveModel, Resources, lfp_at, linkset_for, q

from conftest import make_scenario


def _anchor_model(scenario, res):
    """The surrogate of a scenario anchored at an allocation."""
    return SurrogateModel(linkset_for(scenario), res.m, res.p)

# hazard rate phi/Q at +6, frozen from a 50-digit oracle
HAZARD_AT_6 = 6.158482604544598917278


def test_am_gm_equality_at_anchor():
    assert am_gm_upper([2.0, 8.0], [2.0, 8.0]) == pytest.approx(16.0, rel=1e-14)


def test_am_gm_dominance_simple():
    assert am_gm_upper([4.0, 4.0], [2.0, 8.0]) == pytest.approx(25.0, rel=1e-14)
    assert 25.0 >= 16.0


def test_am_gm_single_factor():
    for fh in [0.3, 1.0, 7.5]:
        assert am_gm_upper([4.2], [fh]) == pytest.approx(4.2, rel=1e-14)


def test_am_gm_random_dominance(rng):
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        f = rng.uniform(1e-6, 10.0, size=n)
        fh = rng.uniform(1e-6, 10.0, size=n)
        bound = am_gm_upper(f, fh)
        assert bound >= np.prod(f) * (1.0 - 1e-12)
        assert am_gm_upper(fh, fh) == pytest.approx(np.prod(fh), rel=1e-12)


def test_am_gm_rejects_nonpositive():
    with pytest.raises(ValueError):
        am_gm_upper([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        am_gm_upper([1.0], [1.0, 2.0])


def test_exp_bound_coeffs_at_zero():
    cf = exp_bound_coeffs(0.0)
    assert cf.a == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
    assert cf.omega_hat == 0.0
    assert cf.log_q == pytest.approx(math.log(0.5), rel=1e-14)


def test_exp_bound_anchor_identity():
    for wh in [-3.0, -1.0, 1.0, 3.0]:
        cf = exp_bound_coeffs(wh)
        assert math.exp(cf.log_q - cf.a * (wh - cf.omega_hat)) == pytest.approx(
            q(wh), abs=1e-12)
        assert q_upper(wh, cf) == pytest.approx(q(wh), abs=1e-12)


def test_exp_bound_large_anchor_no_overflow():
    cf = exp_bound_coeffs(6.0)
    assert cf.a == pytest.approx(HAZARD_AT_6, rel=1e-13)
    assert math.isfinite(cf.log_q)
    assert q_upper(6.0, cf) == pytest.approx(q(6.0), rel=1e-12)
    # far saturated anchors keep finite coefficients instead of overflowing
    cf_deep = exp_bound_coeffs(60.0)
    assert math.isfinite(cf_deep.a) and math.isfinite(cf_deep.log_q)
    assert q_upper(60.0, cf_deep) == pytest.approx(q(60.0), abs=1e-15)
    # below the hazard rate's underflow the bound is the constant Q = 1
    cf_neg = exp_bound_coeffs(-60.0)
    assert cf_neg.a == 0.0
    assert q_upper(-60.0, cf_neg) == pytest.approx(1.0, abs=1e-12)
    assert q_upper(60.0, cf_neg) == pytest.approx(1.0, abs=1e-12)


def test_q_upper_dominates_everywhere(rng):
    anchors = np.linspace(-6.0, 6.0, 101)
    omegas = np.linspace(-10.0, 10.0, 1001)
    for wh in anchors:
        cf = exp_bound_coeffs(float(wh))
        vals = q_upper(omegas, cf)
        assert np.all(vals >= q(omegas) - 1e-12)
        assert q_upper(float(wh), cf) == pytest.approx(q(float(wh)), abs=1e-9)


def test_one_minus_q_upper_symmetry_and_dominance():
    omegas = np.linspace(-10.0, 10.0, 1001)
    for wh in np.linspace(-6.0, 6.0, 101):
        cf_neg = exp_bound_coeffs(float(-wh))
        vals = one_minus_q_upper(omegas, cf_neg)
        assert np.all(vals >= (1.0 - q(omegas)) - 1e-12)
        # anchored tightness at w = wh
        assert one_minus_q_upper(float(wh), cf_neg) == pytest.approx(
            1.0 - q(float(wh)), abs=1e-9
        )
        # mirror identity with the plain upper bound
        sample = np.array([-2.5, 0.0, 1.75])
        np.testing.assert_allclose(
            one_minus_q_upper(sample, cf_neg),
            q_upper(-sample, cf_neg),
            rtol=0.0, atol=1e-14,
        )


def test_approx_lfp_tight_at_anchor(default_scenario):
    res = Resources(m=320.0, p=0.1)
    actual, _ = lfp_at(default_scenario, res)
    assert approx_lfp(res.m, res.p, default_scenario, res) == pytest.approx(
        actual, abs=1e-9
    )


def test_approx_lfp_dominates(default_scenario, rng):
    anchor = Resources(m=320.0, p=0.1)
    for _ in range(1000):
        m = rng.uniform(50.0, 3000.0)
        p = rng.uniform(1e-3, 10.0)
        actual, _ = lfp_at(default_scenario, Resources(m=m, p=p))
        assert approx_lfp(m, p, default_scenario, anchor) >= actual - 1e-12


def test_surrogate_convex_in_exponent_space(default_scenario, rng):
    """As a function of the two decoding exponents the surrogate is a sum of
    convex exponential compositions: midpoints never beat chord averages."""
    model = _anchor_model(default_scenario, Resources(m=320.0, p=0.1))
    for _ in range(2000):
        wb1, wb2 = rng.uniform(-2.0, 10.0, size=2)
        we1, we2 = rng.uniform(-6.0, 4.0, size=2)
        f1 = model.value_at([wb1, we1])
        f2 = model.value_at([wb2, we2])
        fm = model.value_at([0.5 * (wb1 + wb2), 0.5 * (we1 + we2)])
        if not (np.isfinite(f1) and np.isfinite(f2)):
            continue
        assert fm <= 0.5 * (f1 + f2) + 1e-9 * max(1.0, abs(f1) + abs(f2))


def test_reliability_term_convex_in_resources(default_scenario, rng):
    """The error-product term composes decreasing convex exponentials with the
    jointly concave exponents, so it is convex in (m, p) wherever the rate
    clears the concavity threshold.  (The full surrogate is not: its leakage
    term rises with the eavesdropper exponent, and the exact Hessian picks up
    a small negative eigenvalue along the valley.)"""
    from fblsec.core import omega, snr
    from fblsec.convexity import rate_threshold_sweep_max

    sc = default_scenario
    model = _anchor_model(sc, Resources(m=320.0, p=0.1))
    thr = rate_threshold_sweep_max(150.0)
    m_cap = sc.d / thr

    def value(m, p):
        wb = omega(snr(sc.bob, p), sc.d, m)
        we = omega(snr(sc.single_eve, p), sc.d, m)
        return model.terms_at([wb, we])[0]

    checked = 0
    while checked < 500:
        m1, m2 = rng.uniform(60.0, min(3000.0, m_cap), size=2)
        p1, p2 = rng.uniform(0.01, 10.0, size=2)
        f1, f2 = value(m1, p1), value(m2, p2)
        if not (np.isfinite(f1) and np.isfinite(f2)):
            continue
        fm = value(0.5 * (m1 + m2), 0.5 * (p1 + p2))
        assert fm <= 0.5 * (f1 + f2) + 1e-9 * max(1.0, abs(f1) + abs(f2))
        checked += 1


def test_approx_lfp_is_inf_where_the_reliability_coefficient_underflows():
    """At an anchor where every error is tiny (their product underflows to
    0), the tangents are steep: ten times lower in power the surrogate
    exceeds the largest double, and it reports the vacuous bound as inf,
    never nan, with no warning."""
    sc = make_scenario(z_b=2.5)
    anchor = Resources(m=1000.0, p=0.3)
    pair = lfp_at(sc, anchor)[1]
    assert pair.eps_b * pair.eps_e == 0.0
    model = _anchor_model(sc, anchor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = approx_lfp(1000.0, 0.03, sc, anchor)
        values = model.value(np.array([1000.0, 1000.0]), np.array([0.03, 0.3]))
    assert value == math.inf
    assert value >= lfp_at(sc, Resources(1000.0, 0.03))[0]
    assert values[0] == value
    assert values[1] == model.anchor_value


def test_approx_lfp_tight_at_a_saturated_anchor(default_scenario):
    """Huge resources: both errors underflow to 0 at the anchor, and the
    surrogate there is still finite and equals the LFP."""
    res = Resources(m=3000.0, p=10.0)
    pair = lfp_at(default_scenario, res)[1]
    assert pair.eps_b == 0.0 and pair.eps_e == 0.0
    value = approx_lfp(res.m, res.p, default_scenario, res)
    assert math.isfinite(value)
    assert value == lfp_at(default_scenario, res)[0]


def test_composite_terms_reduce_to_pair_formula(default_scenario):
    """For one eavesdropper the surrogate is the product of Bob's and Eve's
    log-tangent error bounds plus Eve's leakage bound, written out from the
    coefficients (a, omega_hat, log_q)."""
    res = Resources(m=400.0, p=0.08)
    pair = lfp_at(default_scenario, res)[1]
    model = _anchor_model(default_scenario, res)
    from fblsec.core import omega, snr

    m, p = 500.0, 0.1
    wb = omega(snr(default_scenario.bob, p), default_scenario.d, m)
    we = omega(snr(default_scenario.single_eve, p), default_scenario.d, m)
    assert len(model.terms_at([wb, we])) == 2
    val = model.value_at([wb, we])
    cb, ce = (exp_bound_coeffs(*x) for x in model.err_coeffs.omega_hat)
    (cl,) = (exp_bound_coeffs(*x) for x in model.leak_coeffs.omega_hat)
    assert cl.omega_hat == -ce.omega_hat
    for stacked, kinds in ((model.err_coeffs, (cb, ce)), (model.leak_coeffs, (cl,))):
        for field in ("a", "omega_hat", "log_q"):
            assert getattr(stacked, field).ravel().tolist() == [getattr(c, field) for c in kinds]
    manual = math.exp(cb.log_q - cb.a * (wb - cb.omega_hat)
                      + ce.log_q - ce.a * (we - ce.omega_hat)) \
        + math.exp(cl.log_q - cl.a * (-we - cl.omega_hat))
    assert val == pytest.approx(manual, rel=1e-12)
    assert math.exp(cb.log_q) * math.exp(ce.log_q) == pytest.approx(
        pair.eps_b * pair.eps_e, rel=1e-12)


@pytest.mark.parametrize("eve_gains,eve_model", [
    ((1.0,), EveModel.PASSIVE),
    ((1.0, 0.5), EveModel.PASSIVE),
    ((1.0, 0.5, 0.8), EveModel.PASSIVE),
    ((1.0, 0.5, 0.8, 0.6), EveModel.PASSIVE),
    ((0.8, 0.9), EveModel.SUPER),
])
def test_terms_are_mean_bounds_of_their_factors(eve_gains, eve_model, rng):
    """The reliability term is the product of Bob's and every eavesdropper's
    error bound, and leakage term n that of eavesdropper n's leakage bound
    and the error bounds of eavesdroppers n+1..N; each term is at most the
    mean bound of the same factors over their anchor values and matches it
    at the anchor, and the surrogate is the sum of the terms."""
    links = linkset_for(make_scenario(z_b=2.5, eve_gains=eve_gains,
                                      eve_model=eve_model))
    n_eves = len(links.channels) - 1
    anchors = checked = 0
    while anchors < 20:
        m_hat = float(np.exp(rng.uniform(np.log(100.0), np.log(3000.0))))
        p_hat = float(10.0 ** rng.uniform(-3.0, 0.0))
        w_hats = [float(w) for w in links.omegas(m_hat, p_hat)]
        if not -8.0 <= min(w_hats) <= max(w_hats) <= 12.0:
            continue  # far from the valley the bounds saturate
        anchors += 1
        model = SurrogateModel(links, m_hat, p_hat)
        eps_hats = [q(w) for w in w_hats]
        delta_hats = [q(-w) for w in w_hats[1:]]
        hat_sets = [eps_hats] + [[delta_hats[n]] + eps_hats[n + 2:]
                                 for n in range(n_eves)]
        for got, want in zip(model.terms_at(w_hats), hat_sets):
            assert got == pytest.approx(am_gm_upper(want, want), rel=1e-12)
        err_cf = [exp_bound_coeffs(w) for w in w_hats]
        leak_cf = [exp_bound_coeffs(-w) for w in w_hats[1:]]
        for _ in range(5):
            m = m_hat * math.exp(rng.uniform(-0.3, 0.3))
            p = p_hat * math.exp(rng.uniform(-0.5, 0.5))
            ws = links.omegas(m, p)
            err = [q_upper(w, cf) for w, cf in zip(ws, err_cf)]
            leak = [one_minus_q_upper(w, cf) for w, cf in zip(ws[1:], leak_cf)]
            if min(err + leak) <= 0.0:
                continue  # am_gm_upper needs positive factors
            factor_sets = [err] + [[leak[n]] + err[n + 2:] for n in range(n_eves)]
            terms = model.terms_at(ws)
            assert len(terms) == n_eves + 1
            for got, factors, hats in zip(terms, factor_sets, hat_sets):
                assert got == pytest.approx(math.prod(factors), rel=1e-12)
                assert got <= am_gm_upper(factors, hats) * (1.0 + 1e-12)
            assert model.value(m, p) == sum(terms)
            checked += 1
    assert checked >= 80
