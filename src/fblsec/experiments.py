"""Experiment runners behind the command line: scenario/config parsing, the
LFP surface grid, solver traces, parameter sweeps with optional baselines and
trend assertions, and deterministic CSV emission.

CSV columns come from a frozen vocabulary (m, p, eps_b, eps_e, eps_lf, tau_lf,
flag_insecure, source, plus value / k / eps_lf_hat for sweeps and traces).
Floats are written with 17 significant digits and rows are fully ordered, so a
config and seed reproduce byte-identical files.  One writer, rows_to_csv,
serves every command: it formats each row with one cached %-format per tuple
of cell types and streams the lines to its output.
"""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .constrained import (
    Thresholds,
    _check_cap,
    maximize_throughput,
    solve_blocklength,
    solve_fixed_leakage,
)
from .core import ChannelSpec, EveModel, Resources, Scenario, lfp_from_errors, linkset_for
from .errors import ConfigError, InfeasibleError, TrendViolationError
from .multi_eve import scenario_lfp, solve_multi
from .oracle import GridSpec, _grid_axes, exhaustive_min_lfp
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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _int(value, what: str) -> int:
    """A config value read as an integer: ints and integral floats pass;
    ConfigError for anything else, bools and fractions included."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not float(value).is_integer()):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


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
            d=_int(sec["d"], "d"),
            bob=_channel_from(sec["bob"], "bob"),
            eves=eves,
            eve_model=model,
            m_cap=_int(sec.get("m_cap", 3000), "m_cap"),
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
            max_iter=_int(sec.get("max_iter", 100), "max_iter"),
            init=(Resources(float(init["m"]), float(init["p"])) if init else None),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver section: {exc}") from exc


def grid_from_config(cfg: dict, scenario: Scenario) -> Optional[GridSpec]:
    """The 'oracle' section, checked against the scenario by the oracle's
    own grid check: m_range is two integers with 1 <= lo <= hi <= m_cap and
    p_min lies in (0, p_cap]."""
    sec = _section(cfg, "oracle")
    if sec is None:
        return None
    try:
        m_range = sec.get("m_range") or None
        grid = GridSpec(
            m_range=(None if m_range is None
                     else tuple(_int(v, "oracle m_range") for v in m_range)),
            p_points=_int(sec.get("p_points", 1000), "oracle p_points"),
            refine_rounds=_int(sec.get("refine_rounds", 3), "oracle refine_rounds"),
            p_min=float(sec["p_min"]) if sec.get("p_min") is not None else None,
        )
        _grid_axes(grid, scenario.m_cap, scenario.p_cap)
        return grid
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad oracle section: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def _cell_format(cls) -> str:
    """The %-format of one cell type: empty for None, the text as is for str,
    a decimal for int, np.integer and bool, and 17 significant digits for
    anything else (converted through float)."""
    if cls is type(None):
        return ""
    if issubclass(cls, str):
        return "%s"
    if issubclass(cls, (int, np.integer)):
        return "%d"
    return "%.17g"


def format_cell(x) -> str:
    fmt = _cell_format(type(x))
    return fmt % x if fmt else ""


def _row_format(shape: tuple) -> Tuple[str, bool]:
    """The line format of one row shape (its tuple of cell types), and
    whether the shape has None cells."""
    cells = [_cell_format(cls) for cls in shape]
    return ",".join(cells) + "\n", "" in cells


def rows_to_csv(header: Sequence[str], rows: Iterable[Sequence], out: TextIO) -> None:
    """Stream the header and the rows to the text stream out, one line each.
    Every row is formatted by one cached %-format per row shape; None cells
    are dropped from the row and left empty in the format."""
    out.write(",".join(header) + "\n")
    write = out.write
    formats: Dict[tuple, Tuple[str, bool]] = {}
    for row in rows:
        shape = tuple(map(type, row))
        try:
            fmt, has_none = formats[shape]
        except KeyError:
            fmt, has_none = formats[shape] = _row_format(shape)
        if has_none:
            row = [c for c in row if c is not None]
        write(fmt % tuple(row))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_eval(cfg: dict) -> Tuple[List[str], Iterable[tuple]]:
    """LFP surface over a blocklength/power grid; rows where the value is at
    least one half carry the insecure flag (they stay in the file)."""
    scenario = scenario_from_config(cfg)
    sec = _section(cfg, "eval", {})
    try:
        m_lo, m_hi = sec.get("m_range", [1, scenario.m_cap])
        p_lo, p_hi = sec.get("p_range", [scenario.p_cap * 1e-4, scenario.p_cap])
        n_m = _int(sec.get("m_points", 40), "eval m_points")
        n_p = _int(sec.get("p_points", 40), "eval p_points")
        if not (1 <= m_lo <= m_hi <= scenario.m_cap) or not (0 < p_lo <= p_hi <= scenario.p_cap):
            raise ConfigError("eval ranges must lie inside the scenario caps")
        if n_m < 1 or n_p < 1:
            raise ConfigError("eval point counts must be at least 1")
        ms = np.unique(np.round(np.geomspace(m_lo, m_hi, n_m)).astype(int))
        ps = np.geomspace(p_lo, p_hi, n_p)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad eval section: {exc}") from exc
    links = linkset_for(scenario)
    eps_b, eps_e = links.eps_pair(ms[:, None], ps)
    eps_lf = lfp_from_errors(eps_b, eps_e)
    header = ["m", "p", "eps_b", "eps_e", "eps_lf", "flag_insecure"]
    rows = zip(np.repeat(ms, len(ps)).tolist(), np.tile(ps, len(ms)).tolist(),
               eps_b.ravel().tolist(), eps_e.ravel().tolist(),
               eps_lf.ravel().tolist(), (eps_lf >= 0.5).ravel().tolist())
    return header, rows


def cmd_solve(cfg: dict) -> Tuple[List[str], List[list]]:
    """Iteration trace plus the final allocation; a benchmark row is appended
    when an oracle grid is configured."""
    scenario = scenario_from_config(cfg)
    solver_cfg = solver_from_config(cfg)
    grid = grid_from_config(cfg, scenario)
    result = solve_multi(scenario, solver_cfg)
    header = ["source", "k", "m", "p", "eps_lf_hat", "eps_lf"]
    rows: List[list] = []
    for rec in result.trace.iterations:
        rows.append(["iterate", rec.k, rec.m, rec.p, rec.eps_hat, rec.eps_actual])
    rows.append(["final", result.trace.rounds_used, result.m_star,
                 result.p_star, None, result.eps_lf])
    if grid is not None:
        m_o, p_o, v_o = exhaustive_min_lfp(scenario, grid)
        rows.append(["oracle", None, m_o, p_o, None, v_o])
    return header, rows


def _point_scenario(scenario: Scenario, variable, value) -> Scenario:
    """The scenario of one sweep point: the sweep variable set to value.
    The variable is 'z_b', 'z_e' (every eavesdropper's gain), 'z_e:<index>'
    (one eavesdropper's gain), 'd', 'm_cap', 'n_eves' (copies of the first
    eavesdropper) or 'p_cap'.  ConfigError for an unknown variable, a bad
    eavesdropper index or a value the scenario rejects, so building every
    point checks the whole sweep."""
    def gain(ch: ChannelSpec) -> ChannelSpec:
        return replace(ch, gain=float(value))

    try:
        if variable == "z_b":
            return replace(scenario, bob=gain(scenario.bob))
        if variable == "z_e":
            return replace(scenario, eves=tuple(map(gain, scenario.eves)))
        if variable in ("d", "m_cap"):
            return replace(scenario, **{variable: _int(value, f"a {variable} sweep value")})
        if variable == "n_eves":
            return replace(scenario, eves=scenario.eves[:1] * _int(value, "an n_eves sweep value"))
        if variable == "p_cap":
            return replace(scenario, p_cap=float(value))
        if isinstance(variable, str) and variable.startswith("z_e:"):
            idx = variable[4:]
            eves = list(scenario.eves)
            if not (idx.isdecimal() and int(idx) < len(eves)):
                raise ConfigError(f"bad eavesdropper index in {variable!r}: the "
                                  f"scenario has {len(eves)} eavesdropper(s)")
            eves[int(idx)] = gain(eves[int(idx)])
            return replace(scenario, eves=tuple(eves))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {variable} sweep value {value!r}: {exc}") from exc
    raise ConfigError(
        f"unknown sweep variable {variable!r}; expected one of z_b, z_e, "
        "z_e:<index>, d, n_eves, p_cap or m_cap")


def _sweep_point(sc: Scenario, mode: tuple,
                 fixed: Optional[Tuple[float, GridSpec]],
                 solver_cfg: SolverConfig, value: float
                 ) -> Tuple[List[list], Optional[Exception]]:
    """The rows of the sweep value and its scenario sc, and the exception of
    a failed fixed-leakage baseline (None otherwise): a failed baseline
    becomes an error row next to the primary row, while a failed primary
    solve raises."""
    name, power, th = mode
    rows: List[list] = []
    if name == "joint":
        res = solve_multi(sc, solver_cfg)
        rows.append([float(value), "joint", res.m_star, res.p_star,
                     res.eps_lf, None])
    elif name == "blocklength":
        m_star, v = solve_blocklength(sc, power, th)
        rows.append([float(value), "blocklength", m_star, power, v, None])
    else:
        p = sc.p_cap if power is None else power
        m_star, tau = maximize_throughput(sc, p, th)
        v = scenario_lfp(sc, Resources(float(m_star), p))
        rows.append([float(value), "throughput", m_star, p, v, tau])

    if fixed is not None:
        cap, grid = fixed
        try:
            m_fx, p_fx, v_fx = solve_fixed_leakage(
                sc, cap, p_points=grid.p_points, refine_rounds=grid.refine_rounds)
        except (InfeasibleError, ValueError) as exc:
            return rows + [[float(value), "error", None, None, None, None]], exc
        rows.append([float(value), "fixed_leakage", m_fx, p_fx, v_fx, None])
    return rows, None


def _fixed_leakage(sweep: dict) -> Optional[Tuple[float, GridSpec]]:
    """(delta_cap, grid) of the sweep's fixed-leakage baseline, or None
    when it has none: delta_cap lies in (0, 0.5] and the grid carries the
    baseline's p_points and refine_rounds, checked by GridSpec."""
    sec = _section(_section(sweep, "baseline", {}), "fixed_leakage")
    if sec is None:
        return None
    try:
        cap = float(sec.get("delta_cap", 1e-3))
        _check_cap("delta_cap", cap)
        return cap, GridSpec(
            p_points=_int(sec.get("p_points", 300), "fixed_leakage p_points"),
            refine_rounds=_int(sec.get("refine_rounds", 2), "fixed_leakage refine_rounds"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad fixed_leakage baseline: {exc}") from exc


def _sweep_mode(sweep: dict) -> Tuple[str, Optional[float], Optional[Thresholds]]:
    """(mode, power, thresholds) of the sweep section: a blocklength sweep
    needs both the power and the thresholds, a throughput sweep needs the
    thresholds and defaults the power to each point's p_cap, and a joint
    sweep needs neither.  A given power is finite and > 0."""
    mode = sweep.get("mode", "joint")
    if mode == "joint":
        return mode, None, None
    if mode not in ("blocklength", "throughput"):
        raise ConfigError(f"unknown sweep mode {mode!r}")
    if mode == "blocklength" and sweep.get("power") is None:
        raise ConfigError("a blocklength sweep needs a 'power'")
    try:
        power = float(sweep["power"]) if sweep.get("power") is not None else None
        if power is not None and not (power > 0.0 and math.isfinite(power)):
            raise ValueError(f"power must be finite and > 0, got {power!r}")
        th = sweep["thresholds"]
        return mode, power, Thresholds(delta_max=float(th["delta_max"]),
                                       eps_b_max=float(th["eps_b_max"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {mode} sweep section: {exc}") from exc


def cmd_sweep(cfg: dict, threads: int = 1) -> Tuple[List[str], List[list]]:
    """One row per sweep value and source.  Every point's scenario is built,
    and so checked, before any point runs, as is a given power against each
    point's p_cap; a failed solve becomes an error row, reported on stderr
    in value order, and the sweep continues.  A configured trend is
    asserted over the primary-source rows before any output is produced."""
    scenario = scenario_from_config(cfg)
    solver_cfg = solver_from_config(cfg)
    sweep = _section(cfg, "sweep", {})
    try:
        variable = sweep["variable"]
        if not isinstance(sweep["values"], list):
            raise TypeError(f"values must be a JSON array, got {sweep['values']!r}")
        values = [float(v) for v in sweep["values"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep section: {exc}") from exc
    if not values:
        raise ConfigError("sweep values must be non-empty")
    points = [_point_scenario(scenario, variable, v) for v in sweep["values"]]
    mode = _sweep_mode(sweep)
    power = mode[1]
    for value, sc in zip(values, points):
        if power is not None and power > sc.p_cap:
            raise ConfigError(f"the sweep power {power:g} exceeds the p_cap "
                              f"{sc.p_cap:g} of the {variable} sweep value "
                              f"{format_cell(value)}")
    fixed = _fixed_leakage(sweep)
    trend = _trend(_section(sweep, "trend"))

    def run_one(value: float, sc: Scenario):
        try:
            return _sweep_point(sc, mode, fixed, solver_cfg, value)
        except (InfeasibleError, ValueError) as exc:
            return [[value, "error", None, None, None, None]], exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, values, points))
    else:
        results = list(map(run_one, values, points))
    rows = [row for chunk, _ in results for row in chunk]
    rows.sort(key=lambda r: (r[0], r[1]))
    for value, (_, exc) in sorted(zip(values, results), key=lambda vr: vr[0]):
        if exc is not None:
            print(f"fblsec sweep: value {format_cell(value)}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)

    if trend is not None:
        _assert_trend(rows, trend, mode[0])
    header = ["value", "source", "m", "p", "eps_lf", "tau_lf"]
    return header, rows


def _trend(sec: Optional[dict]) -> Optional[Tuple[str, int, str]]:
    """(column, column index, direction) of a sweep's trend section, or None
    when it has none (an empty section counts as none)."""
    if not sec:
        return None
    column = sec.get("column", "eps_lf")
    direction = sec.get("direction")
    if not (isinstance(direction, str) and direction in _TREND_CHECKS):
        raise ConfigError(
            f"trend direction must be one of {sorted(_TREND_CHECKS)}, got {direction!r}"
        )
    columns = {"value": 0, "m": 2, "p": 3, "eps_lf": 4, "tau_lf": 5}
    if not (isinstance(column, str) and column in columns):
        raise ConfigError(f"unknown trend column {column!r}")
    return column, columns[column], direction


def _assert_trend(rows: List[list], trend: Tuple[str, int, str],
                  primary_source: str) -> None:
    column, col_idx, direction = trend
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
    grid = grid_from_config(cfg, scenario) or GridSpec()
    m, p, v = exhaustive_min_lfp(scenario, grid)
    return ["source", "m", "p", "eps_lf"], [["oracle", m, p, v]]
