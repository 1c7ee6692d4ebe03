import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from fblsec.bounds import approx_lfp
from fblsec.cli import main as cli_main
from fblsec.core import ChannelSpec, EveModel, Resources, fbl_error, lfp_at, snr
from fblsec.multi_eve import linkset_for, scenario_lfp, solve_multi, telescope_leakage
from fblsec.solver import SurrogateModel

from conftest import make_scenario


def test_lfp_passive_reduces_to_single(default_scenario):
    res = Resources(m=400.0, p=0.1)
    expected, _ = lfp_at(default_scenario, res)
    assert scenario_lfp(default_scenario, res) == pytest.approx(expected, rel=1e-14)


def test_lfp_passive_perfect_secrecy_leaves_reliability():
    sc = make_scenario(eve_gains=[1.0, 0.5])
    # starve the eavesdroppers: with tiny power both fail almost surely and
    # the LFP approaches Bob's error probability alone
    res = Resources(m=3000.0, p=1e-6)
    v = scenario_lfp(sc, res)
    eps_b = fbl_error(snr(sc.bob, res.p), sc.d, res.m)
    assert v == pytest.approx(eps_b, abs=1e-12)


def test_lfp_passive_arithmetic():
    # eps_b = 0.1, eps_e = (0.5, 0.5): 0.1 * 0.25 + 0.75
    assert 0.1 * 0.25 + (1 - 0.25) == pytest.approx(0.775)
    # same combination via the telescoped identity
    assert 0.1 * 0.25 + telescope_leakage([0.5, 0.5]) == pytest.approx(0.775)


def test_telescope_identity_simple():
    assert telescope_leakage([0.5, 0.5]) == pytest.approx(0.75, abs=1e-15)
    assert telescope_leakage([1.0, 1.0, 1.0]) == 0.0


def test_telescope_identity_random(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        eps = rng.uniform(0.0, 1.0, size=n)
        assert telescope_leakage(eps) == pytest.approx(
            1.0 - np.prod(eps), abs=1e-14
        )


def test_super_links_sum_gains():
    pair = make_scenario(eve_gains=[1.0, 1.0], eve_model=EveModel.SUPER)
    eves = linkset_for(pair).channels[1:]
    assert [(e.gain, e.noise_power) for e in eves] == [(2.0, 0.1)]
    single = make_scenario(eve_gains=[0.7], eve_model=EveModel.SUPER)
    assert [e.gain for e in linkset_for(single).channels[1:]] == [0.7]


@pytest.mark.parametrize("eves", [
    (ChannelSpec(1.0, 0.1), ChannelSpec(1.0, 0.2)),
    (ChannelSpec(1.0, 0.1), ChannelSpec(2.0, 0.2), ChannelSpec(0.5, 0.4)),
    (ChannelSpec(0.3, 0.7), ChannelSpec(1.1, 0.3)),
])
def test_super_links_sum_snrs(eves):
    """Maximum-ratio combining adds the colluders' SNRs, so the collapsed
    link's gain to noise ratio is sum(g_i / n_i), whatever their noise
    powers; the passive model keeps every link."""
    sc = make_scenario(eve_gains=[1.0, 2.0])
    assert [e.gain for e in linkset_for(sc).channels[1:]] == [1.0, 2.0]
    colluding = replace(sc, eve_model=EveModel.SUPER)
    assert [e.gain for e in linkset_for(colluding).channels[1:]] == [3.0]
    links = linkset_for(replace(colluding, eves=eves))
    (eve,) = links.channels[1:]
    assert eve.noise_power == eves[0].noise_power
    assert links.k[1] == pytest.approx(sum(e.gain / e.noise_power for e in eves),
                                       rel=1e-15)


AGREEMENT_CASES = [
    ((1.0,), EveModel.PASSIVE),
    ((1.0, 0.5), EveModel.PASSIVE),
    ((1.0, 0.5, 0.8), EveModel.PASSIVE),
    ((1.0, 0.5, 0.8, 0.6), EveModel.PASSIVE),
    ((0.8, 0.9), EveModel.SUPER),
]


@pytest.mark.parametrize("gains,model", AGREEMENT_CASES)
def test_lfp_evaluators_and_surrogates_agree(gains, model, tmp_path):
    """Every LFP evaluator and the surrogate give the link kernel's values:
    lfp_at (one eavesdropper, or the colluders' summed-gain link),
    scenario_lfp, LinkSet.lfp, the fblsec eval rows, and approx_lfp against
    the solver's SurrogateModel."""
    sc = make_scenario(z_b=2.5, eve_gains=gains, eve_model=model)
    links = linkset_for(sc)
    # one eavesdropper, or the colluders' single summed-gain link
    single = (make_scenario(z_b=2.5, eve_gains=[sum(gains)])
              if len(gains) == 1 or model is EveModel.SUPER else None)
    cfg = {"scenario": {
        "d": sc.d, "bob": {"gain": sc.bob.gain, "noise_power": sc.bob.noise_power},
        "eves": [{"gain": e.gain, "noise_power": e.noise_power} for e in sc.eves],
        "eve_model": model.value, "m_cap": sc.m_cap, "p_cap": sc.p_cap},
        "eval": {"m_points": 6, "p_points": 7, "m_range": [60, 2400],
                 "p_range": [1e-3, 10.0]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "eval.csv"
    assert cli_main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 42
    for row in rows:
        res = Resources(float(row["m"]), float(row["p"]))
        v = float(links.lfp(res.m, res.p))
        assert float(row["eps_lf"]) == v
        assert scenario_lfp(sc, res) == v
        if single is not None:
            assert lfp_at(single, res)[0] == v

    anchor = Resources(320.0, 0.1)
    model_s = SurrogateModel(links, anchor.m, anchor.p)
    for m, p in [(280.0, 0.12), (500.0, 0.06), (320.0, 0.1), (1500.0, 0.01)]:
        value = model_s.value(m, p)
        assert approx_lfp(m, p, sc, anchor) == value
        if model is EveModel.SUPER:
            assert approx_lfp(m, p, single, anchor) == value


def test_approx_passive_tight_at_anchor():
    sc = make_scenario(eve_gains=[1.0, 0.8, 0.6])
    res = Resources(m=350.0, p=0.08)
    assert approx_lfp(res.m, res.p, sc, res) == pytest.approx(
        scenario_lfp(sc, res), abs=1e-9
    )


@pytest.mark.parametrize("m,p", [(350.0, 0.08), (3000.0, 10.0)])
def test_passive_anchor_joint_error_and_surrogate(m, p):
    """At an anchor of a 3-eavesdropper passive scenario, lfp_at's eps_e is
    the product of the eavesdroppers' errors (at the second anchor it
    underflows to 0), and the passive surrogate is tight there."""
    sc = make_scenario(eve_gains=[1.0, 0.8, 0.6])
    anchor = Resources(m, p)
    errors = [fbl_error(snr(e, p), sc.d, m) for e in sc.eves]
    assert lfp_at(sc, anchor)[1].eps_e == pytest.approx(float(np.prod(errors)), rel=1e-12)
    assert approx_lfp(m, p, sc, anchor) == pytest.approx(
        scenario_lfp(sc, Resources(m, p)), abs=1e-9
    )


def test_approx_passive_dominates(rng):
    sc = make_scenario(eve_gains=[1.0, 0.7])
    anchor = Resources(m=320.0, p=0.1)
    for _ in range(1000):
        m = rng.uniform(60.0, 3000.0)
        p = rng.uniform(1e-3, 10.0)
        bound = approx_lfp(m, p, sc, anchor)
        assert bound >= scenario_lfp(sc, Resources(m, p)) - 1e-12


def test_passive_dominated_by_strongest_eve(rng):
    """The passive LFP is at least the leakage of any single eavesdropper."""
    sc = make_scenario(eve_gains=[1.4, 0.9, 0.3])
    for _ in range(300):
        m = rng.uniform(50.0, 3000.0)
        p = rng.uniform(1e-3, 10.0)
        v = scenario_lfp(sc, Resources(m, p))
        for eve in sc.eves:
            eps_k = fbl_error(snr(eve, p), sc.d, m)
            assert v >= (1.0 - eps_k) - 1e-12


def test_solve_multi_single_eve_passive_equals_super(default_scenario):
    """With one eavesdropper the two collusion models are the same link set,
    so their solves agree exactly, trace included."""
    res_p = solve_multi(replace(default_scenario, eve_model=EveModel.PASSIVE))
    res_s = solve_multi(replace(default_scenario, eve_model=EveModel.SUPER))
    assert res_p == res_s


@pytest.mark.slow
def test_eve_count_sweep_directions():
    """More eavesdroppers never improve the optimum, for either model, and
    collusion is at least as harmful as independence."""
    passive_vals, super_vals = [], []
    for n in range(1, 6):
        sc_p = make_scenario(eve_gains=[1.0] * n, eve_model=EveModel.PASSIVE)
        sc_s = make_scenario(eve_gains=[1.0] * n, eve_model=EveModel.SUPER)
        passive_vals.append(solve_multi(sc_p).eps_lf)
        super_vals.append(solve_multi(sc_s).eps_lf)
    assert all(b >= a - 1e-9 for a, b in zip(passive_vals, passive_vals[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(super_vals, super_vals[1:]))
    assert super_vals[1] >= passive_vals[1] - 1e-9


def test_super_beats_passive_at_two_eves_oracle():
    """Benchmark comparison at N = 2: the colluding optimum is no better than
    the independent one."""
    from fblsec.oracle import GridSpec, exhaustive_min_lfp

    grid = GridSpec(p_points=300, refine_rounds=2)
    sc_p = make_scenario(eve_gains=[1.0, 1.0], eve_model=EveModel.PASSIVE)
    sc_s = make_scenario(eve_gains=[1.0, 1.0], eve_model=EveModel.SUPER)
    _, _, v_p = exhaustive_min_lfp(sc_p, grid)
    _, _, v_s = exhaustive_min_lfp(sc_s, grid)
    assert v_s >= v_p


def test_scenario_lfp_dispatches_models():
    res = Resources(m=200.0, p=0.5)
    sc_p = make_scenario(eve_gains=[1.0, 1.0], eve_model=EveModel.PASSIVE)
    sc_s = make_scenario(eve_gains=[1.0, 1.0], eve_model=EveModel.SUPER)
    v_p = scenario_lfp(sc_p, res)
    eps_b = fbl_error(snr(sc_p.bob, res.p), sc_p.d, res.m)
    eps_e = [fbl_error(snr(e, res.p), sc_p.d, res.m) for e in sc_p.eves]
    assert v_p == pytest.approx(eps_b * np.prod(eps_e) + telescope_leakage(eps_e),
                                rel=1e-14)
    combined = make_scenario(eve_gains=[2.0])
    v_combined, _ = lfp_at(combined, res)
    assert scenario_lfp(sc_s, res) == pytest.approx(v_combined, rel=1e-14)
