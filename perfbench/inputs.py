"""Seeded input generation for the three workloads.

Every input is a plain JSON-able structure (scenarios use the command line's
``scenario`` section layout), so a run can print exactly what it measured.
The same seed always gives the same inputs.

The solver is chaotic on passive eavesdropper sets: perturbing one gain by
1e-3 can move its optimum by 1.5x and its run time by 2x.  The passive sets
are therefore fixed, like the grid corners; the seed draws the interior
points and the colluding set, each inside a small cell around a fixed site,
so that every seed stresses the same regimes.
"""

from __future__ import annotations

import numpy as np

NOISE = 0.1
M_CAP = 3000
P_CAP = 10.0

# solve_oracle: the ROADMAP item-1 grid (Bob gain 1.5-4, d 100-700, Eve 1.0)
CORNERS = ((1.5, 100), (1.5, 700), (4.0, 100), (4.0, 700))
# one site where the solver matches the oracle (its gap there stays near
# 1e-4; it reaches the 1e-3 match tolerance near Bob gain 2.5) and one where
# it stalls while the oracle underflows
INTERIOR_SITES = ((2.0, 300), (3.25, 550))
INTERIOR_JITTER = (0.02, 5)            # (Bob gain, packet size) half-widths
PASSIVE_SITES = ((2.0, (1.0, 0.5)),
                 (2.0, (1.0, 0.5, 0.8)),
                 (2.5, (1.0, 0.5, 0.8, 0.6)))
SUPER_SITES = ((2.5, (0.8, 0.9)),)
MULTI_D = 320
GAIN_JITTER = 0.01
D_JITTER = 5
ORACLE_GRID = {"p_points": 500, "refine_rounds": 3}

# cli_sweep
# the solver's gap to the oracle reaches the 1e-3 match tolerance near Bob
# gain 2.6, so the sweep stops short of it and its match share stays steady;
# six values keep one sweep near 5 s, so a run holds several
SWEEP_VALUES = tuple(round(1.2 + 0.22 * i, 2) for i in range(6))
SWEEP_JITTER = 0.02
SWEEP_THREADS = 2
EVAL_POINTS = 300
EVAL_M_RANGE = (100, 3000)             # wide enough that no rounded m repeats
EVAL_P_RANGE = (1e-3, 10.0)

# budgeted_stat
N_BUDGETED = 120
N_STATISTICAL = 24
STAT_MEAN_GAIN = 1.0
# with a fading eavesdropper, leakage in expectation stays above ~1e-2 in most
# draws; narrowing the threshold range keeps the feasibility filter cheap
STAT_LOG_THR = (-2.0, -1.3)
MIN_WIDTH = 3


def scenario_dict(d, z_b, eve_gains, model="passive", mean_gain=None):
    """A scenario in the command line's config layout."""
    eves = []
    for g in eve_gains:
        eve = {"gain": g, "noise_power": NOISE}
        if mean_gain is not None:
            eve["mean_gain"] = mean_gain
        eves.append(eve)
    return {"d": int(d), "bob": {"gain": z_b, "noise_power": NOISE},
            "eves": eves, "eve_model": model, "m_cap": M_CAP, "p_cap": P_CAP}


def _jitter(rng, centre, half, digits=4):
    return round(float(centre + rng.uniform(-half, half)), digits)


def _int_jitter(rng, centre, half):
    return int(centre + rng.integers(-half, half + 1))


def solve_oracle_inputs(seed: int) -> dict:
    """Fixed grid corners and passive sets, plus one seeded draw per interior
    and colluding site; the colluders' summed gain stays below Bob's."""
    rng = np.random.default_rng([seed, 1])
    scenarios = [scenario_dict(d, z_b, (1.0,)) for z_b, d in CORNERS]
    for z_b, d in INTERIOR_SITES:
        scenarios.append(scenario_dict(_int_jitter(rng, d, INTERIOR_JITTER[1]),
                                       _jitter(rng, z_b, INTERIOR_JITTER[0]), (1.0,)))
    for z_b, gains in PASSIVE_SITES:
        scenarios.append(scenario_dict(MULTI_D, z_b, gains, "passive"))
    for z_b, gains in SUPER_SITES:
        eve_gains = [_jitter(rng, g, GAIN_JITTER) for g in gains]
        scenarios.append(scenario_dict(_int_jitter(rng, MULTI_D, D_JITTER),
                                       _jitter(rng, z_b, GAIN_JITTER), eve_gains, "super"))
    return {"scenarios": scenarios, "oracle_grid": dict(ORACLE_GRID)}


def cli_sweep_inputs(seed: int) -> dict:
    """One joint sweep over Bob's gain with the fixed-leakage baseline, and
    one plotting-resolution LFP surface."""
    rng = np.random.default_rng([seed, 2])
    values = [_jitter(rng, v, SWEEP_JITTER) for v in SWEEP_VALUES]
    sweep = {
        "scenario": scenario_dict(_int_jitter(rng, 320, D_JITTER), 1.5, (1.0,)),
        "sweep": {"variable": "z_b", "values": values, "mode": "joint",
                  "baseline": {"fixed_leakage": {"delta_cap": 1e-3}}},
    }
    surface = {
        "scenario": scenario_dict(_int_jitter(rng, 320, D_JITTER),
                                  _jitter(rng, 1.5, 0.05), (1.0,)),
        "eval": {"m_points": EVAL_POINTS, "p_points": EVAL_POINTS,
                 "m_range": list(EVAL_M_RANGE), "p_range": list(EVAL_P_RANGE)},
    }
    return {"sweep": sweep, "eval": surface, "threads": SWEEP_THREADS}


def _threshold_draw(rng, mean_gain=None, log_thr=(-4.0, -1.3)):
    """One draw the way the test suite's feasible_threshold_cases makes them."""
    z_b = round(float(rng.uniform(2.0, 8.0)), 6)
    d = int(rng.integers(120, 700))
    p = round(float(rng.uniform(0.05, 1.0)), 6)
    thr = float(f"{10.0 ** rng.uniform(*log_thr):.6g}")
    return {"scenario": scenario_dict(d, z_b, (1.0,), mean_gain=mean_gain),
            "power": p, "delta_max": thr, "eps_b_max": thr}


def budgeted_stat_inputs(seed: int, lib) -> dict:
    """Feasible (scenario, power, thresholds) cases.  Budgeted cases keep a
    feasible window at least MIN_WIDTH wide; statistical cases give the
    eavesdropper a mean gain and keep a window feasible in expectation.
    lib is the imported fblsec package, used only to filter the draws."""
    budgeted, statistical = [], []
    rng = np.random.default_rng([seed, 3])
    while len(budgeted) < N_BUDGETED:
        case = _threshold_draw(rng)
        window = lib.feasible_m_interval(to_scenario(lib, case["scenario"]),
                                         case["power"], to_thresholds(lib, case))
        if window and window[1] - window[0] + 1 >= MIN_WIDTH:
            budgeted.append(case)
    rng = np.random.default_rng([seed, 4])
    fading = statistical_fading(lib)
    while len(statistical) < N_STATISTICAL:
        case = _threshold_draw(rng, STAT_MEAN_GAIN, STAT_LOG_THR)
        window = lib.feasible_m_interval_statistical(
            to_scenario(lib, case["scenario"]), case["power"],
            to_thresholds(lib, case), fading)
        if window and window[1] - window[0] + 1 >= MIN_WIDTH:
            statistical.append(case)
    return {"budgeted": budgeted, "statistical": statistical}


GENERATORS = {
    "solve_oracle": lambda seed, lib: solve_oracle_inputs(seed),
    "cli_sweep": lambda seed, lib: cli_sweep_inputs(seed),
    "budgeted_stat": budgeted_stat_inputs,
}


# ---------------------------------------------------------------------------
# conversion into library objects
# ---------------------------------------------------------------------------

def to_scenario(lib, sc: dict):
    eves = tuple(lib.ChannelSpec(e["gain"], e["noise_power"], e.get("mean_gain"))
                 for e in sc["eves"])
    return lib.Scenario(d=sc["d"], bob=lib.ChannelSpec(sc["bob"]["gain"],
                                                       sc["bob"]["noise_power"]),
                        eves=eves, eve_model=lib.EveModel(sc["eve_model"]),
                        m_cap=sc["m_cap"], p_cap=sc["p_cap"])


def to_thresholds(lib, case: dict):
    return lib.Thresholds(delta_max=case["delta_max"], eps_b_max=case["eps_b_max"])


def statistical_fading(lib):
    return lib.FadingSpec(lib.ExponentialGain(), lib.GaussQuadrature())
