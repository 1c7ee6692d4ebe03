"""Output checks.  Each returns a list of failure messages (empty when the
output is correct).  They run outside the timed region and outside tracing.
"""

from __future__ import annotations

import io
import math

import numpy as np

SWEEP_HEADER = "value,source,m,p,eps_lf,tau_lf"
EVAL_HEADER = "m,p,eps_b,eps_e,eps_lf,flag_insecure"
REL_TOL = 1e-12
ORACLE_SLACK = 1e-3     # grid resolution of the oracle, relative


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_allocation(m, p, scenario) -> list:
    fails = []
    if not (_is_int(m) and 1 <= m <= scenario.m_cap):
        fails.append(f"blocklength {m!r} is not an integer in [1, {scenario.m_cap}]")
    if not (0.0 < p <= scenario.p_cap):
        fails.append(f"power {p!r} is outside (0, {scenario.p_cap}]")
    return fails


def check_solve(lib, scenario, result) -> list:
    """solve_multi: in-range allocation, eps_lf equal to the LFP recomputed at
    it, and a non-increasing trace."""
    fails = check_allocation(result.m_star, result.p_star, scenario)
    if not fails:
        ref = lib.scenario_lfp(scenario, lib.Resources(float(result.m_star), result.p_star))
        if not close(result.eps_lf, ref):
            fails.append(f"eps_lf {result.eps_lf!r} != recomputed {ref!r}")
    eps = [result.trace.eps0] + [r.eps_actual for r in result.trace.iterations]
    if any(b > a for a, b in zip(eps, eps[1:])):
        fails.append("eps_actual increases along the trace")
    return fails


def check_oracle(scenario, out, solver_lfp) -> list:
    """exhaustive_min_lfp: in-range allocation, a probability, and no worse
    than the solver beyond the grid's resolution (a coarser oracle fails
    here instead of shrinking the measured gap)."""
    m, p, v = out
    fails = check_allocation(m, p, scenario)
    if not 0.0 <= v <= 1.0:
        fails.append(f"oracle value {v!r} is not a probability")
    elif solver_lfp is not None and v > solver_lfp * (1.0 + ORACLE_SLACK):
        fails.append(f"oracle value {v!r} is above the solver's {solver_lfp!r}")
    return fails


def parse_csv(text: str):
    lines = text.splitlines()
    return (lines[0] if lines else ""), [line.split(",") for line in lines[1:]]


def check_sweep(lib, base: dict, values, text: str, to_scenario) -> list:
    """sweep CSV: frozen header, one joint and one fixed_leakage row per
    value, no error rows, and every eps_lf equal to the LFP recomputed at
    its (m, p).  to_scenario maps a scenario dict to a Scenario."""
    header, rows = parse_csv(text)
    fails = []
    if header != SWEEP_HEADER:
        fails.append(f"sweep header {header!r}")
    by_key = {}
    for row in rows:
        if len(row) != 6:
            fails.append(f"malformed sweep row {row!r}")
            continue
        if row[1] == "error":
            fails.append(f"sweep error row at value {row[0]}")
        by_key.setdefault((float(row[0]), row[1]), []).append(row)
    for value in values:
        sc = to_scenario(dict(base, bob=dict(base["bob"], gain=value)))
        for source in ("joint", "fixed_leakage"):
            found = by_key.get((float(value), source), [])
            if len(found) != 1:
                fails.append(f"{len(found)} {source} rows at value {value}")
                continue
            m, p, eps = int(found[0][2]), float(found[0][3]), float(found[0][4])
            res = lib.Resources(float(m), p)
            ref = (lib.scenario_lfp(sc, res) if source == "joint"
                   else lib.lfp_at(sc, res)[0])
            if not close(eps, ref):
                fails.append(f"{source} eps_lf {eps!r} != recomputed {ref!r} at {value}")
    if len(rows) != 2 * len(values):
        fails.append(f"{len(rows)} sweep rows for {len(values)} values")
    return fails


def eval_grid_size(cfg: dict) -> int:
    sec = cfg["eval"]
    m_lo, m_hi = sec["m_range"]
    ms = np.unique(np.round(np.geomspace(m_lo, m_hi, sec["m_points"])).astype(int))
    return len(ms) * sec["p_points"]


def check_eval(cfg: dict, text: str) -> list:
    """eval CSV: frozen header and one row per grid cell (counted without
    splitting the file, which is large)."""
    header = text[:text.find("\n")]
    n_rows = text.count("\n") - 1
    fails = []
    if header != EVAL_HEADER:
        fails.append(f"eval header {header!r}")
    if n_rows != eval_grid_size(cfg):
        fails.append(f"{n_rows} eval rows for a grid of {eval_grid_size(cfg)}")
    return fails


def count_zero_lfps(text: str) -> int:
    """Rows of an eval CSV whose eps_lf is exactly 0."""
    return sum(1 for line in io.StringIO(text) if line.split(",", 5)[4] == "0")


def _window_fail(m, window) -> list:
    if window is None or not (_is_int(m) and window[0] <= m <= window[1]):
        return [f"blocklength {m!r} outside the feasible window {window}"]
    return []


def check_blocklength(lib, scenario, p, window, out) -> list:
    """solve_blocklength: m inside the feasible window (as feasible_m_interval
    returns it), LFP as recomputed."""
    m, v = out
    fails = _window_fail(m, window)
    if not fails:
        ref = lib.lfp_at(scenario, lib.Resources(float(m), p))[0]
        if not close(v, ref):
            fails.append(f"LFP {v!r} != recomputed {ref!r}")
    return fails


def check_throughput(lib, scenario, p, window, out) -> list:
    """maximize_throughput: m inside the window, tau = d/m * (1 - LFP)."""
    m, tau = out
    fails = _window_fail(m, window)
    if not fails:
        lfp = lib.lfp_at(scenario, lib.Resources(float(m), p))[0]
        ref = scenario.d / m * (1.0 - lfp)
        if not close(tau, ref):
            fails.append(f"throughput {tau!r} != recomputed {ref!r}")
    return fails


def check_max_rate(scenario, m_lo, rate) -> list:
    """max_rate at the window's lower end supports d/m_lo: the condition
    that admitted m_lo."""
    if not rate >= scenario.d / m_lo:
        return [f"max_rate {rate!r} below d/m_lo = {scenario.d / m_lo!r}"]
    return []


def check_finite(name, value) -> list:
    return [] if math.isfinite(value) else [f"{name} is not finite: {value!r}"]


def check_statistical(lib, scenario, p, fading, out) -> list:
    """solve_blocklength_statistical: an in-range blocklength whose expected
    LFP is the returned value."""
    m, v = out
    fails = check_allocation(m, p, scenario)
    if not fails:
        ref = lib.expected_lfp(scenario, lib.Resources(float(m), p), fading)
        if not close(v, ref):
            fails.append(f"expected LFP {v!r} != recomputed {ref!r}")
    return fails
