import math

import numpy as np
import pytest

from fblsec import core
from fblsec.core import (
    ChannelSpec,
    EveModel,
    ReliabilityPair,
    Resources,
    capacity,
    dispersion,
    fbl_error,
    lfp,
    lfp_at,
    lfp_from_errors,
    linkset_for,
    max_rate,
    omega,
    q,
    q_inv,
    secrecy_rate,
    snr,
)
from fblsec.errors import DegenerateChannelError
from fblsec.multi_eve import scenario_lfp
from fblsec.solver import LinkSet

from conftest import feasible_threshold_cases, make_scenario

# Frozen values computed with a 50-digit complementary-error-function oracle.
Q_AT_5_5556 = 1.3832988504416734706e-8
OMEGA_15_320_100 = 5.556039702576919852
FBL_15_320_100 = 1.3798206376398127755e-8
Q_AT_1 = 0.1586552539314570514148


def test_snr_arithmetic():
    assert snr(ChannelSpec(1.5, 0.1), 1.0) == pytest.approx(15.0, rel=1e-15)
    assert snr(ChannelSpec(1.0, 0.1), 0.0) == 0.0
    assert snr(ChannelSpec(1.0, 0.1), 10.0) == pytest.approx(100.0, rel=1e-15)
    with pytest.raises(ValueError):
        snr(ChannelSpec(1.0, 0.1), -1.0)


def test_capacity_values():
    assert capacity(0.0) == 0.0
    assert capacity(1.0) == pytest.approx(1.0, rel=1e-15)
    assert capacity(3.0) == pytest.approx(2.0, rel=1e-15)


def test_dispersion_values():
    assert dispersion(0.0) == 0.0
    assert dispersion(1.0) == pytest.approx(0.75, rel=1e-15)
    assert dispersion(1e9) == pytest.approx(1.0, abs=1e-12)
    g = np.linspace(0.01, 50, 100)
    v = dispersion(g)
    assert np.all((v >= 0) & (v < 1))


def _dispersion_0d(g):
    """Reference dispersion of a scalar, computed on a 0-d array."""
    return float(1.0 - (1.0 + np.asarray(g, dtype=float)) ** -2)


def test_scalar_capacity_and_dispersion_match_the_array_forms(rng):
    """The scalar paths give the bits of the 0-d-array reference and
    math.log2, a float for any scalar and an array for arrays."""
    gains = np.concatenate([rng.exponential(1.0, 2000),
                            10.0 ** rng.uniform(-12.0, 6.0, 2000), [0.0]])
    for g in gains.tolist():
        assert dispersion(g) == _dispersion_0d(g)
        assert capacity(g) == math.log2(1.0 + g)
    for g in (3, np.float64(3.0), np.int64(3), np.array(3.0)):
        assert type(capacity(g)) is float and capacity(g) == 2.0
        assert type(dispersion(g)) is float and dispersion(g) == _dispersion_0d(g)
    for g in (np.array([3.0]), [3.0, 1.0]):
        assert isinstance(capacity(g), np.ndarray)
        assert isinstance(dispersion(g), np.ndarray)


def test_rates_unchanged_on_feasible_cases():
    """max_rate and secrecy_rate equal, to the bit, their formulas written
    with the 0-d-array reference dispersion, at the window ends of the
    feasible threshold cases."""
    for sc, p, th, (m_lo, m_hi) in feasible_threshold_cases(40):
        gb, ge = snr(sc.bob, p), snr(sc.eves[0], p)
        for m in (m_lo, m_hi):
            pen_b = math.sqrt(_dispersion_0d(gb) / m) * q_inv(th.eps_b_max) / core.LN2
            pen_e = math.sqrt(_dispersion_0d(ge) / m) * q_inv(th.delta_max) / core.LN2
            assert max_rate(gb, m, th.eps_b_max) == math.log2(1.0 + gb) - pen_b
            assert secrecy_rate(gb, ge, m, th.eps_b_max, th.delta_max) == (
                (math.log2(1.0 + gb) - math.log2(1.0 + ge)) - pen_b - pen_e)


def test_q_basics():
    assert q(0.0) == 0.5
    assert q(5.5556) == pytest.approx(Q_AT_5_5556, rel=1e-13)
    xs = np.linspace(-8, 8, 2001)
    assert np.max(np.abs(q(xs) + q(-xs) - 1.0)) < 1e-14
    assert q(39.0) == 0.0
    assert q(-39.0) == 1.0
    assert np.all(np.diff(q(xs)) <= 0)
    # strictly decreasing wherever adjacent values are resolvable in doubles
    mid = np.linspace(-6, 6, 1201)
    assert np.all(np.diff(q(mid)) < 0)


def test_q_inv_round_trips():
    assert q_inv(0.5) == 0.0
    assert q_inv(q(2.0)) == pytest.approx(2.0, abs=1e-12)
    assert q_inv(Q_AT_1) == pytest.approx(1.0, abs=1e-12)
    # identity in the argument, on the range where the double representation
    # of q(x) still carries 1e-12 of argument information (saturation toward
    # y = 1 flattens q to ~1e-8 plateaus beyond x ~ -4.3)
    for x in np.linspace(-4, 6, 51):
        assert q_inv(q(x)) == pytest.approx(x, abs=1e-12)
    for x in np.linspace(-6, -4, 9):
        assert q_inv(q(x)) == pytest.approx(x, abs=1e-7)
    # value-side round trip is well posed everywhere
    for y in [1e-12, 1e-6, 0.3, 0.9, 1 - 1e-9]:
        assert q(q_inv(y)) == pytest.approx(y, abs=1e-12)
    with pytest.raises(ValueError):
        q_inv(0.0)
    with pytest.raises(ValueError):
        q_inv(1.0)


def test_omega_values():
    # rate equal to capacity: exponent vanishes
    g = 3.0
    m = 200.0
    d = int(capacity(g) * m)
    assert omega(g, d, m) == pytest.approx(0.0, abs=1e-12)
    assert omega(15.0, 320, 100.0) == pytest.approx(OMEGA_15_320_100, rel=1e-14)
    # growing blocklength at fixed positive margin pushes the exponent up
    w1 = omega(15.0, 320, 1000.0)
    w2 = omega(15.0, 320, 4000.0)
    assert w2 > w1 > OMEGA_15_320_100
    with pytest.raises(DegenerateChannelError):
        omega(0.0, 320, 100.0)


def test_fbl_error_against_oracle():
    assert fbl_error(15.0, 320, 100.0) == pytest.approx(FBL_15_320_100, rel=1e-12)
    # rate equal to capacity gives a coin flip
    g = 3.0
    m = 200.0
    assert fbl_error(g, int(2 * m), m) == pytest.approx(0.5, abs=1e-12)
    # rate far above capacity: certain failure (oracle value is 1 - 3e-69)
    assert fbl_error(15.0, 320, 40.0) == 1.0


def test_lfp_combinations():
    assert lfp(ReliabilityPair(0.0, 0.0)) == 1.0
    assert lfp(ReliabilityPair(0.0, 1.0)) == 0.0
    assert lfp(ReliabilityPair(0.5, 0.5)) == 0.75
    assert ReliabilityPair(0.2, 0.7).delta == pytest.approx(0.3)
    with pytest.raises(ValueError):
        ReliabilityPair(-0.1, 0.5)


def test_lfp_at_symmetric_channels():
    sc = make_scenario(z_b=1.0, z_e=1.0)
    val, pair = lfp_at(sc, Resources(m=400, p=0.1))
    assert pair.eps_b == pytest.approx(pair.eps_e, rel=1e-15)
    assert val == pytest.approx(lfp(pair), rel=1e-15)


def test_lfp_at_large_resources_leakage_dominates(default_scenario):
    sc = default_scenario
    val, pair = lfp_at(sc, Resources(m=sc.m_cap, p=sc.p_cap))
    # both links decode with certainty: everything leaks
    assert pair.eps_b < 1e-300
    assert pair.delta == pytest.approx(1.0, abs=1e-300)
    assert val == 1.0


def test_lfp_at_oracle_value(default_scenario):
    # at (m=500, p=1) both error probabilities underflow; the oracle LFP is
    # 1 - 4.5e-594 which rounds to exactly 1.0 in double precision
    val, _ = lfp_at(default_scenario, Resources(m=500, p=1.0))
    assert val == 1.0


@pytest.mark.parametrize("eve_model", [EveModel.PASSIVE, EveModel.SUPER],
                         ids=lambda m: m.value)
@pytest.mark.parametrize("gains", [(1.0, 0.5), (1.0, 0.5, 0.8), (0.9,) * 8],
                         ids=lambda g: f"{len(g)}-eves")
def test_lfp_at_is_scenario_lfp(eve_model, gains):
    """lfp_at serves any eavesdropper set under its own model: its value is
    scenario_lfp's to the bit."""
    sc = make_scenario(z_b=2.0, eve_gains=gains, eve_model=eve_model)
    for m, p in ((100.0, 1.0), (320.0, 0.05), (1234.0, 3.7), (2999.0, 1e-6)):
        res = Resources(m=m, p=p)
        assert lfp_at(sc, res)[0] == scenario_lfp(sc, res)


def test_max_rate_contract():
    assert max_rate(3.0, 500, 0.5) == pytest.approx(capacity(3.0), rel=1e-12)
    assert max_rate(3.0, 10 ** 9, 1e-5) == pytest.approx(capacity(3.0), abs=1e-3)
    # round trip through the error model
    g, m, eps = 15.0, 200.0, 1e-5
    r = max_rate(g, m, eps)
    assert fbl_error(g, m * r, m) == pytest.approx(eps, abs=1e-9)
    with pytest.raises(ValueError):
        max_rate(3.0, 100, 0.0)


def test_secrecy_rate_trivial_cases():
    assert secrecy_rate(3.0, 1.0, 100, 0.5, 0.5) == pytest.approx(
        capacity(3.0) - capacity(1.0), rel=1e-12
    )
    # symmetric channels and equal probabilities: only the penalties remain
    g, m, eps = 2.0, 150.0, 0.1
    expected = -2.0 * math.sqrt(dispersion(g) / m) * q_inv(eps) / math.log(2.0)
    assert secrecy_rate(g, g, m, eps, eps) == pytest.approx(expected, rel=1e-12)


def test_secrecy_rate_consistency_identity(rng):
    """The error pair induced by an allocation has zero secrecy margin, with
    each side's rate term individually recovering the transmission rate."""
    for _ in range(1000):
        gb = rng.uniform(0.5, 60.0)
        ge = rng.uniform(0.1, gb)
        d = int(rng.integers(16, 1024))
        # keep both exponents where q and the 1 - eps_e complement still
        # resolve the argument to the tested tolerance
        for _ in range(50):
            m = rng.uniform(d / 8, 4000.0)
            wb = omega(gb, d, m)
            we = omega(ge, d, m)
            if -4.0 < wb < 8.0 and -4.0 < we < 5.5:
                break
        else:
            continue
        eps_b = fbl_error(gb, d, m)
        eps_e = fbl_error(ge, d, m)
        r = d / m
        rb = max_rate(gb, m, eps_b)
        assert rb == pytest.approx(r, abs=1e-9)
        rs = secrecy_rate(gb, ge, m, eps_b, 1.0 - eps_e)
        assert rs == pytest.approx(0.0, abs=1e-9)


def test_fbl_error_always_a_probability(rng):
    """No NaN and no excursion outside [0, 1] across wild random inputs."""
    for _ in range(5000):
        g = 10.0 ** rng.uniform(-8, 4)
        d = int(rng.integers(1, 2049))
        m = 10.0 ** rng.uniform(0, 5)
        v = fbl_error(g, d, m)
        assert 0.0 <= v <= 1.0
        assert not math.isnan(v)


def test_monotonicity_in_resources(rng):
    """Error probability strictly decreases in blocklength and power;
    leakage correspondingly increases."""
    violations = 0
    for _ in range(10_000):
        z = rng.uniform(0.05, 5.0)
        s2 = rng.uniform(0.01, 1.0)
        p = rng.uniform(1e-3, 10.0)
        d = int(rng.integers(8, 1025))
        m = rng.uniform(max(8.0, d / 8), 4000.0)
        g = p * z / s2
        e0 = fbl_error(g, d, m)
        if not 1e-300 < e0 < 1.0 - 1e-16:
            continue
        e_m = fbl_error(g, d, m * 1.01)
        e_p = fbl_error((p * 1.01) * z / s2, d, m)
        if not (e_m < e0 and e_p < e0):
            violations += 1
    assert violations == 0


@pytest.mark.parametrize("d", [1, 100, 320, 700])
def test_exponent_strictly_increasing_on_grids(d):
    """The premise of the oracle's tile bound: the decoding exponent rises
    strictly along every blocklength 1..m_cap and along a geometric power
    grid, for every link of a set and through both implementations."""
    sc = make_scenario(d=d, z_b=4.0, eve_gains=(0.05, 0.3, 1.0, 2.5, 10.0))
    links = LinkSet(sc.d, sc.bob, sc.eves, sc.m_cap, sc.p_cap)
    ms = np.arange(1, sc.m_cap + 1, dtype=float)[:, None]
    ps = np.geomspace(sc.p_cap * 1e-6, sc.p_cap, 400)[None, :]
    stacked = links.omegas(ms, ps)
    for idx, ch in enumerate(links.channels):
        for w in (omega(snr(ch, ps), sc.d, ms), stacked[idx]):
            assert np.all(np.diff(w, axis=0) > 0.0)
            assert np.all(np.diff(w, axis=1) > 0.0)


@pytest.mark.parametrize("n_eves", [0, 1, 3, 8])
def test_stacked_kernel_matches_per_link_evaluation(n_eves):
    """omegas, errors and eps_pair put every link on one leading axis and
    equal the per-link omega(snr(ch, p), d, m), q and the product of the
    eavesdroppers' errors in index order, bit for bit, on a 2-D broadcast
    grid; a scalar (m, p) equals the grid at the same cell.  Noise powers
    are powers of two, so snr's p * gain / noise and the set's
    (gain / noise) * p round alike.  Zero eavesdroppers is Bob's link alone,
    the statistical-CSI set, whose joint failure is the empty product 1."""
    gains = np.linspace(2.0, 0.3, n_eves)
    noises = (0.125, 0.25, 0.5, 1.0)
    bob = ChannelSpec(3.7, 0.125)
    eves = [ChannelSpec(float(g), noises[i % 4]) for i, g in enumerate(gains)]
    links = LinkSet(320, bob, eves, 3000, 10.0)
    ms = np.geomspace(1.0, 3000.0, 97)[:, None]
    ps = np.geomspace(1e-6, 10.0, 113)[None, :]
    ws = links.omegas(ms, ps)
    errs = links.errors(ms, ps)
    eps_b, eps_e = links.eps_pair(ms, ps)
    assert ws.shape == errs.shape == (n_eves + 1, 97, 113)
    expected_e = np.ones((97, 113))
    for idx, ch in enumerate(links.channels):
        w = omega(snr(ch, ps), 320, ms)
        assert np.array_equal(ws[idx], w)
        assert np.array_equal(errs[idx], q(w))
        if idx:
            expected_e = expected_e * q(w)
    assert np.array_equal(eps_b, errs[0])
    assert np.array_equal(eps_e, expected_e)
    for i, j in ((0, 0), (40, 7), (96, 112), (63, 90)):
        m, p = float(ms[i, 0]), float(ps[0, j])
        assert np.array_equal(links.omegas(m, p), ws[:, i, j])
        assert np.array_equal(links.errors(m, p), errs[:, i, j])
        b, e = links.eps_pair(m, p)
        assert (b, e) == (eps_b[i, j], eps_e[i, j])
        assert links.lfp(m, p) == 1.0 - (1.0 - eps_b[i, j]) * eps_e[i, j]


@pytest.mark.parametrize("gains,eve_model", [
    ((1.0,), EveModel.PASSIVE),
    ((1.0, 0.7, 0.4), EveModel.PASSIVE),
    (tuple(np.linspace(1.2, 0.3, 8)), EveModel.PASSIVE),
    ((0.8, 0.9), EveModel.SUPER),
], ids=["passive-1", "passive-3", "passive-8", "colluding-2"])
def test_box_floor_bounds_every_cell(gains, eve_model, rng, monkeypatch):
    """On random boxes of integer blocklengths times geometric powers,
    box_floor equals (eps_pair(m_hi, p_hi)[0], eps_pair(m_lo, p_lo)[1]) bit
    for bit; its eps_b is at most, and its eps_e at least, that of every
    cell of the box, so its LFP is at most every cell's; a 1 x 1 box gives
    back the cell; and a call evaluates N + 1 link rows."""
    links = linkset_for(make_scenario(z_b=2.0, eve_gains=gains, eve_model=eve_model))
    corners = []
    for _ in range(30):
        m_lo = int(rng.integers(1, 3000))
        ms = np.arange(m_lo, min(3000, m_lo + int(rng.integers(0, 80))) + 1,
                       dtype=float)[:, None]
        p_lo = float(10.0 ** rng.uniform(-5.0, 1.0))
        ps = np.geomspace(p_lo, min(10.0, p_lo * 10.0 ** rng.uniform(0.0, 2.0)),
                          int(rng.integers(1, 40)))[None, :]
        box = (ms[0, 0], ms[-1, 0], ps[0, 0], ps[0, -1])
        corners.append(box)
        eps_b, eps_e = links.box_floor(*box)
        assert (eps_b, eps_e) == (links.eps_pair(box[1], box[3])[0],
                                  links.eps_pair(box[0], box[2])[1])
        cell_b, cell_e = links.eps_pair(ms, ps)
        assert np.all(eps_b <= cell_b) and np.all(eps_e >= cell_e)
        assert np.all(lfp_from_errors(eps_b, eps_e) <= links.lfp(ms, ps))
        m, p = float(ms[-1, 0]), float(ps[0, 0])
        assert links.box_floor(m, m, p, p) == links.eps_pair(m, p)
    m_lo, m_hi, p_lo, p_hi = (np.array(c) for c in zip(*corners))
    rows = []
    real_omega = core._omega
    monkeypatch.setattr(core, "_omega", lambda g, d, m: rows.append(len(g)) or real_omega(g, d, m))
    eps_b, eps_e = links.box_floor(m_lo, m_hi, p_lo, p_hi)
    assert sum(rows) == len(links.channels)
    monkeypatch.undo()
    assert np.array_equal(eps_b, links.eps_pair(m_hi, p_hi)[0])
    assert np.array_equal(eps_e, links.eps_pair(m_lo, p_lo)[1])


def test_scenario_validation():
    with pytest.raises(ValueError):
        make_scenario(d=0)
    with pytest.raises(ValueError):
        ChannelSpec(-1.0, 0.1)
    with pytest.raises(ValueError):
        ChannelSpec(1.0, 0.0)
    with pytest.raises(ValueError):
        Resources(m=0.0, p=1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_channel_and_power_cap_must_be_finite(bad):
    """A JSON 1e400 or Infinity parses to inf; no channel value or power cap
    accepts it (or NaN)."""
    with pytest.raises(ValueError, match="finite"):
        ChannelSpec(bad, 0.1)
    with pytest.raises(ValueError, match="finite"):
        ChannelSpec(1.0, bad)
    with pytest.raises(ValueError, match="finite"):
        ChannelSpec(1.0, 0.1, mean_gain=bad)
    with pytest.raises(ValueError, match="finite"):
        make_scenario(p_cap=bad)
