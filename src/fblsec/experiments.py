"""Experiment runners behind the command line: scenario/config parsing, the
LFP surface grid, solver traces, parameter sweeps with optional baselines and
trend assertions, and deterministic CSV emission.

CSV columns come from a frozen vocabulary (m, p, eps_b, eps_e, eps_lf, tau_lf,
flag_insecure, source, plus value / k / eps_lf_hat for sweeps and traces).
Floats are written with 17 significant digits and rows are fully ordered, so a
config and seed reproduce byte-identical files.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .constrained import Thresholds, maximize_throughput, solve_blocklength, solve_fixed_leakage
from .core import ChannelSpec, EveModel, Resources, Scenario, lfp_from_errors, linkset_for
from .errors import ConfigError, InfeasibleError, TrendViolationError
from .multi_eve import scenario_lfp, solve_multi
from .oracle import GridSpec, exhaustive_min_lfp
from .solver import SolverConfig

_TREND_CHECKS = {
    "strictly_decreasing": lambda a, b: b < a,
    "strictly_increasing": lambda a, b: b > a,
    "nonincreasing": lambda a, b: b <= a + 1e-12,
    "nondecreasing": lambda a, b: b >= a - 1e-12,
}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _channel_from(obj: dict, what: str) -> ChannelSpec:
    try:
        return ChannelSpec(
            gain=float(obj["gain"]),
            noise_power=float(obj["noise_power"]),
            mean_gain=(float(obj["mean_gain"])
                       if obj.get("mean_gain") is not None else None),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} channel spec: {exc}") from exc


def _section(cfg, name: str, default=None):
    """cfg[name], or default when it is absent or null; ConfigError unless
    cfg and the section are JSON objects.  Every section is read through
    here."""
    if not isinstance(cfg, dict):
        raise ConfigError("the config must be a JSON object")
    sec = cfg.get(name)
    if sec is None:
        return default
    if not isinstance(sec, dict):
        raise ConfigError(f"the {name!r} section must be a JSON object")
    return sec


def scenario_from_config(cfg: dict) -> Scenario:
    sec = _section(cfg, "scenario")
    if sec is None:
        raise ConfigError("config is missing the 'scenario' section")
    try:
        eves = tuple(_channel_from(e, "eavesdropper") for e in sec["eves"])
        model = EveModel(sec.get("eve_model", "passive"))
        return Scenario(
            d=int(sec["d"]),
            bob=_channel_from(sec["bob"], "bob"),
            eves=eves,
            eve_model=model,
            m_cap=int(sec.get("m_cap", 3000)),
            p_cap=float(sec.get("p_cap", 10.0)),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario section: {exc}") from exc


def solver_from_config(cfg: dict) -> SolverConfig:
    sec = _section(cfg, "solver", {})
    try:
        init = sec.get("init")
        return SolverConfig(
            mu_th=float(sec.get("mu_th", 1e-8)),
            max_iter=int(sec.get("max_iter", 100)),
            init=(Resources(float(init["m"]), float(init["p"])) if init else None),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver section: {exc}") from exc


def grid_from_config(cfg: dict) -> Optional[GridSpec]:
    sec = _section(cfg, "oracle")
    if sec is None:
        return None
    try:
        return GridSpec(
            m_range=(tuple(int(v) for v in sec["m_range"])
                     if sec.get("m_range") else None),
            p_points=int(sec.get("p_points", 1000)),
            refine_rounds=int(sec.get("refine_rounds", 3)),
            p_min=(float(sec["p_min"]) if sec.get("p_min") is not None else None),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad oracle section: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def format_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def rows_to_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(c) for c in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_eval(cfg: dict) -> Tuple[List[str], List[list]]:
    """LFP surface over a blocklength/power grid; rows where the value is at
    least one half carry the insecure flag (they stay in the file)."""
    scenario = scenario_from_config(cfg)
    sec = _section(cfg, "eval", {})
    try:
        m_lo, m_hi = sec.get("m_range", [1, scenario.m_cap])
        p_lo, p_hi = sec.get("p_range", [scenario.p_cap * 1e-4, scenario.p_cap])
        n_m = int(sec.get("m_points", 40))
        n_p = int(sec.get("p_points", 40))
        if not (1 <= m_lo <= m_hi <= scenario.m_cap) or not (0 < p_lo <= p_hi <= scenario.p_cap):
            raise ConfigError("eval ranges must lie inside the scenario caps")
        ms = np.unique(np.round(np.geomspace(m_lo, m_hi, n_m)).astype(int))
        ps = np.geomspace(p_lo, p_hi, n_p)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad eval section: {exc}") from exc
    links = linkset_for(scenario)
    header = ["m", "p", "eps_b", "eps_e", "eps_lf", "flag_insecure"]
    rows = []
    for m in ms:
        eps_b, eps_e = links.eps_pair(float(m), ps)
        eps_lf = lfp_from_errors(eps_b, eps_e)
        for j, p in enumerate(ps):
            rows.append([int(m), float(p), float(eps_b[j]), float(eps_e[j]),
                         float(eps_lf[j]), int(eps_lf[j] >= 0.5)])
    return header, rows


def cmd_solve(cfg: dict) -> Tuple[List[str], List[list]]:
    """Iteration trace plus the final allocation; a benchmark row is appended
    when an oracle grid is configured."""
    scenario = scenario_from_config(cfg)
    solver_cfg = solver_from_config(cfg)
    result = solve_multi(scenario, solver_cfg)
    header = ["source", "k", "m", "p", "eps_lf_hat", "eps_lf"]
    rows: List[list] = []
    for rec in result.trace.iterations:
        rows.append(["iterate", rec.k, rec.m, rec.p, rec.eps_hat, rec.eps_actual])
    rows.append(["final", result.trace.rounds_used, result.m_star,
                 result.p_star, None, result.eps_lf])
    grid = grid_from_config(cfg)
    if grid is not None:
        m_o, p_o, v_o = exhaustive_min_lfp(scenario, grid)
        rows.append(["oracle", None, m_o, p_o, None, v_o])
    return header, rows


_SWEEP_VARIABLES = ("z_b", "z_e", "d", "n_eves", "p_cap", "m_cap")


def _eve_index(scenario: Scenario, variable: str) -> Optional[int]:
    """The eavesdropper index of a 'z_e:<index>' sweep variable, checked
    against the scenario; None for any other variable."""
    if not variable.startswith("z_e:"):
        return None
    try:
        idx = int(variable.split(":", 1)[1])
    except ValueError as exc:
        raise ConfigError(f"bad eavesdropper index in {variable!r}") from exc
    if not 0 <= idx < len(scenario.eves):
        raise ConfigError(f"eavesdropper index {idx} out of range")
    return idx


def _validate_sweep_variable(scenario: Scenario, variable: str) -> None:
    if variable in _SWEEP_VARIABLES or _eve_index(scenario, variable) is not None:
        return
    raise ConfigError(
        f"unknown sweep variable {variable!r}; expected one of "
        f"{_SWEEP_VARIABLES} or 'z_e:<index>'"
    )


def _apply_sweep_value(scenario: Scenario, variable: str, value: float) -> Scenario:
    if variable == "z_b":
        return scenario.with_updates(
            bob=ChannelSpec(float(value), scenario.bob.noise_power,
                            scenario.bob.mean_gain))
    if variable == "z_e":
        eves = tuple(ChannelSpec(float(value), e.noise_power, e.mean_gain)
                     for e in scenario.eves)
        return scenario.with_updates(eves=eves)
    idx = _eve_index(scenario, variable)
    if idx is not None:
        eves = list(scenario.eves)
        old = eves[idx]
        eves[idx] = ChannelSpec(float(value), old.noise_power, old.mean_gain)
        return scenario.with_updates(eves=tuple(eves))
    if variable == "d":
        return scenario.with_updates(d=int(value))
    if variable == "n_eves":
        n = int(value)
        if n < 1:
            raise ConfigError("n_eves must be at least 1")
        proto = scenario.eves[0]
        return scenario.with_updates(eves=(proto,) * n)
    if variable == "p_cap":
        return scenario.with_updates(p_cap=float(value))
    if variable == "m_cap":
        return scenario.with_updates(m_cap=int(value))
    raise ConfigError(f"unknown sweep variable {variable!r}")


def _sweep_point(scenario: Scenario, sweep: dict, solver_cfg: SolverConfig,
                 variable: str, value: float) -> List[list]:
    sc = _apply_sweep_value(scenario, variable, value)
    mode = sweep.get("mode", "joint")
    rows: List[list] = []
    if mode == "joint":
        res = solve_multi(sc, solver_cfg)
        rows.append([float(value), "joint", res.m_star, res.p_star,
                     res.eps_lf, None])
    elif mode == "blocklength":
        th = _thresholds_from(sweep)
        p = float(sweep["power"])
        m_star, v = solve_blocklength(sc, p, th)
        rows.append([float(value), "blocklength", m_star, p, v, None])
    elif mode == "throughput":
        th = _thresholds_from(sweep)
        p = float(sweep.get("power", sc.p_cap))
        m_star, tau = maximize_throughput(sc, p, th)
        v = scenario_lfp(sc, Resources(float(m_star), p))
        rows.append([float(value), "throughput", m_star, p, v, tau])
    else:
        raise ConfigError(f"unknown sweep mode {mode!r}")

    fixed = _fixed_leakage_section(sweep)
    if fixed is not None:
        cap = float(fixed.get("delta_cap", 1e-3))
        m_fx, p_fx, v_fx = solve_fixed_leakage(
            sc, cap, p_points=int(fixed.get("p_points", 300)),
            refine_rounds=int(fixed.get("refine_rounds", 2)))
        rows.append([float(value), "fixed_leakage", m_fx, p_fx, v_fx, None])
    return rows


def _fixed_leakage_section(sweep: dict) -> Optional[dict]:
    return _section(_section(sweep, "baseline", {}), "fixed_leakage")


def _thresholds_from(sweep: dict) -> Thresholds:
    try:
        th = sweep["thresholds"]
        return Thresholds(delta_max=float(th["delta_max"]),
                          eps_b_max=float(th["eps_b_max"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad thresholds in sweep section: {exc}") from exc


def cmd_sweep(cfg: dict, threads: int = 1) -> Tuple[List[str], List[list]]:
    """One row per sweep value and source; per-point infeasibilities become
    error rows, each reported on stderr in value order, and the sweep
    continues.  A configured trend is asserted over the primary-source rows
    before any output is produced."""
    scenario = scenario_from_config(cfg)
    solver_cfg = solver_from_config(cfg)
    sweep = _section(cfg, "sweep", {})
    try:
        variable = sweep["variable"]
        values = [float(v) for v in sweep["values"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep section: {exc}") from exc
    if not values:
        raise ConfigError("sweep values must be non-empty")
    _validate_sweep_variable(scenario, variable)
    # checked before the points run, where a ConfigError becomes an error row
    _fixed_leakage_section(sweep)
    trend = _section(sweep, "trend")

    def run_one(value: float):
        try:
            return _sweep_point(scenario, sweep, solver_cfg, variable, value), None
        except (InfeasibleError, ValueError) as exc:
            return [[value, "error", None, None, None, None]], exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, values))
    else:
        results = [run_one(v) for v in values]
    rows = [row for chunk, _ in results for row in chunk]
    rows.sort(key=lambda r: (r[0], r[1]))
    for value, (_, exc) in sorted(zip(values, results), key=lambda vr: vr[0]):
        if exc is not None:
            print(f"fblsec sweep: value {format_cell(value)}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)

    if trend:
        _assert_trend(rows, trend, sweep.get("mode", "joint"))
    header = ["value", "source", "m", "p", "eps_lf", "tau_lf"]
    return header, rows


def _assert_trend(rows: List[list], trend: dict, primary_source: str) -> None:
    column = trend.get("column", "eps_lf")
    direction = trend.get("direction")
    if direction not in _TREND_CHECKS:
        raise ConfigError(
            f"trend direction must be one of {sorted(_TREND_CHECKS)}, got {direction!r}"
        )
    col_idx = {"value": 0, "m": 2, "p": 3, "eps_lf": 4, "tau_lf": 5}.get(column)
    if col_idx is None:
        raise ConfigError(f"unknown trend column {column!r}")
    series = [r[col_idx] for r in rows if r[1] == primary_source]
    if any(v is None for v in series):
        raise TrendViolationError("trend column has missing values")
    check = _TREND_CHECKS[direction]
    for a, b in zip(series, series[1:]):
        if not check(a, b):
            raise TrendViolationError(
                f"{column} is not {direction}: {a!r} then {b!r}"
            )


def cmd_oracle(cfg: dict) -> Tuple[List[str], List[list]]:
    """Benchmark row: the exhaustive-search optimum of the scenario."""
    scenario = scenario_from_config(cfg)
    grid = grid_from_config(cfg) or GridSpec()
    m, p, v = exhaustive_min_lfp(scenario, grid)
    return ["source", "m", "p", "eps_lf"], [["oracle", m, p, v]]
