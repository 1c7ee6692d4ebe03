"""The three workloads.  Each turns its generated inputs into a list of
operations, one public fblsec call each, that the harness runs one at a time
(a closed loop with one client).  Every call resolves the library function
when it runs, so the tracer's wrappers are seen when installed.

An operation's ``check`` runs untimed and untraced; it records the output the
first time so that quality figures come from one pass over the inputs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import checks
from .inputs import (
    GENERATORS,
    ORACLE_GRID,
    statistical_fading,
    to_scenario,
    to_thresholds,
)

LFP_FLOOR = 1e-15
MATCH_TOL = checks.ORACLE_SLACK   # a result within the grid resolution matches

# phases of each workload: the name of the phase's own time in the report,
# and the end-to-end timing it adds to
OPTIMIZE, EVALUATE = "optimize_s", "evaluate_s"
PHASES = {
    "solve_oracle": {"solve": ("solve_s", OPTIMIZE), "oracle": ("oracle_s", EVALUATE)},
    "cli_sweep": {"sweep": ("sweep_s", OPTIMIZE), "eval": ("eval_s", EVALUATE)},
    "budgeted_stat": {"budgeted": ("budgeted_s", OPTIMIZE),
                      "statistical": ("statistical_s", OPTIMIZE),
                      "rate": ("rate_s", EVALUATE)},
}


@dataclass
class Op:
    phase: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    weight: int = 1         # runs per cycle through the operations
    calibrate: bool = True  # scale by the single-thread calibration kernel


def floored(v: float) -> float:
    return max(float(v), LFP_FLOOR)


def geomean(values) -> float:
    values = [floored(v) for v in values]
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 1.0


class Workload:
    """Base: ``ops`` to time, ``warmup`` before timing, ``summary`` after."""

    name = ""

    def __init__(self, lib, inputs: dict, workdir: str):
        self.lib = lib
        self.inputs = inputs
        self.workdir = workdir
        self.lfps = []          # every LFP a timed call returned
        self.gaps = []          # returned / exhaustive reference, per optimization
        self.ops = self.build()

    def build(self) -> list:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def summary(self) -> dict:
        return {}

    def gap_geomean(self) -> float:
        return geomean(self.gaps)

    def matched_frac(self) -> float:
        """Share of optimizations whose result is within MATCH_TOL of the
        exhaustive reference (0 when none was recorded)."""
        if not self.gaps:
            return 0.0
        return sum(g <= 1.0 + MATCH_TOL for g in self.gaps) / len(self.gaps)

    def counts(self) -> dict:
        return {"core.lfp_zero": sum(1 for v in self.lfps if v == 0.0)}

    @staticmethod
    def once(store: dict, key, value) -> bool:
        """Record value under key the first time; True when it was new."""
        if key in store:
            return False
        store[key] = value
        return True


class SolveOracle(Workload):
    """Per scenario: one solve_multi, then one exhaustive_min_lfp."""

    name = "solve_oracle"

    def build(self):
        lib = self.lib
        self.grid = lib.GridSpec(**self.inputs["oracle_grid"])
        self.scenarios = [to_scenario(lib, s) for s in self.inputs["scenarios"]]
        self.solved, self.oracled = {}, {}
        ops = []
        for i, sc in enumerate(self.scenarios):
            ops.append(Op("solve", f"solve_multi[{i}]",
                          lambda sc=sc: self.lib.solve_multi(sc),
                          lambda out, i=i, sc=sc: self._check_solve(i, sc, out)))
            ops.append(Op("oracle", f"exhaustive_min_lfp[{i}]",
                          lambda sc=sc: self.lib.exhaustive_min_lfp(sc, self.grid),
                          lambda out, i=i, sc=sc: self._check_oracle(i, sc, out)))
        return ops

    def _check_solve(self, i, sc, out):
        if self.once(self.solved, i, out):
            self.lfps.append(out.eps_lf)
        return checks.check_solve(self.lib, sc, out)

    def _check_oracle(self, i, sc, out):
        solved = self.solved.get(i)
        if self.once(self.oracled, i, out):
            self.lfps.append(out[2])
            if solved is not None:
                self.gaps.append(floored(solved.eps_lf) / floored(out[2]))
        return checks.check_oracle(sc, out, solved.eps_lf if solved else None)

    def warmup(self):
        lib = self.lib
        sc = self.scenarios[0]
        lib.solve_multi(sc, lib.SolverConfig(max_iter=2))
        lib.exhaustive_min_lfp(sc, lib.GridSpec(m_range=(1, 64), p_points=16,
                                                refine_rounds=0))

    def summary(self):
        solver = [r.eps_lf for r in self.solved.values()]
        oracle = [o[2] for o in self.oracled.values()]
        return {
            "solve_lfp_geomean": (geomean(solver), "prob"),
            "oracle_lfp_geomean": (geomean(oracle), "prob"),
            "gap_ratio_max": (max(self.gaps, default=1.0), "ratio"),
        }


class CliSweep(Workload):
    """The command line in process: one threaded sweep, one LFP surface."""

    name = "cli_sweep"

    def build(self):
        self.paths = {}
        for kind in ("sweep", "eval"):
            cfg_path = os.path.join(self.workdir, f"{kind}.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(self.inputs[kind], fh)
            self.paths[kind] = (cfg_path, os.path.join(self.workdir, f"{kind}.csv"))
        self.outputs = {}
        self.eval_zeros = 0
        threads = str(self.inputs["threads"])
        return [
            # the single-thread kernel does not track the 2-thread sweep: over
            # five runs it widened the sweep's range from 10% to 23%
            Op("sweep", "cli sweep", lambda: self._main("sweep", "--threads", threads),
               lambda code: self._check("sweep", code), calibrate=False),
            # the surface is cheap next to the sweep: run it more often so its
            # median rests on as many samples
            Op("eval", "cli eval", lambda: self._main("eval"),
               lambda code: self._check("eval", code), weight=3),
        ]

    def _main(self, command, *extra):
        cfg_path, out_path = self.paths[command]
        return self.lib.cli.main([command, "--config", cfg_path, "--out", out_path, *extra])

    def _check(self, command, code):
        if code != 0:
            return [f"fblsec {command} exited with {code}"]
        with open(self.paths[command][1], encoding="utf-8") as fh:
            text = fh.read()
        cfg = self.inputs[command]
        if command == "eval":
            fails = checks.check_eval(cfg, text)
            if not fails and self.once(self.outputs, command, None):
                self.eval_zeros = checks.count_zero_lfps(text)
            return fails
        values = cfg["sweep"]["values"]
        fails = checks.check_sweep(self.lib, cfg["scenario"], values, text,
                                   lambda d: to_scenario(self.lib, d))
        if not fails and self.once(self.outputs, command, text):
            self._record_sweep(cfg, values, text)
        return fails

    def _record_sweep(self, cfg, values, text):
        """LFPs of the sweep rows, and each joint row's gap to the oracle."""
        rows = checks.parse_csv(text)[1]
        self.lfps.extend(float(r[4]) for r in rows)
        joint = {float(r[0]): float(r[4]) for r in rows if r[1] == "joint"}
        grid = self.lib.GridSpec(**ORACLE_GRID)
        base = cfg["scenario"]
        for value in values:
            sc = to_scenario(self.lib, dict(base, bob=dict(base["bob"], gain=value)))
            ref = self.lib.exhaustive_min_lfp(sc, grid)[2]
            self.gaps.append(floored(joint[float(value)]) / floored(ref))

    def warmup(self):
        cfg = dict(self.inputs["eval"], eval={"m_points": 8, "p_points": 8})
        cfg_path = os.path.join(self.workdir, "warmup.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self.lib.cli.main(["eval", "--config", cfg_path,
                           "--out", os.path.join(self.workdir, "warmup.csv")])

    def counts(self):
        out = super().counts()
        out["core.lfp_zero"] += self.eval_zeros
        return out

    def summary(self):
        text = self.outputs.get("sweep", "")
        joint = [float(r[4]) for r in checks.parse_csv(text)[1] if r[1] == "joint"]
        return {"solve_lfp_geomean": (geomean(joint), "prob")}


class BudgetedStat(Workload):
    """Budgeted blocklength and throughput searches, rate formulas, and the
    statistical-CSI search: thousands of small scalar calls."""

    name = "budgeted_stat"

    def build(self):
        lib = self.lib
        self.fading = statistical_fading(lib)
        self.records = {}
        ops = []
        for i, case in enumerate(self.inputs["budgeted"]):
            sc, p, th = to_scenario(lib, case["scenario"]), case["power"], to_thresholds(lib, case)
            gamma_b = float(lib.snr(sc.bob, p))
            gamma_e = float(lib.snr(sc.eves[0], p))
            window = lib.feasible_m_interval(sc, p, th)
            m_lo = window[0]
            ops += [
                Op("budgeted", f"solve_blocklength[{i}]",
                   lambda sc=sc, p=p, th=th: self.lib.solve_blocklength(sc, p, th),
                   lambda out, i=i, sc=sc, p=p, w=window: self._check_blocklength(i, sc, p, w, out)),
                Op("budgeted", f"maximize_throughput[{i}]",
                   lambda sc=sc, p=p, th=th: self.lib.maximize_throughput(sc, p, th),
                   lambda out, i=i, sc=sc, p=p, w=window: self._check_throughput(i, sc, p, w, out)),
                Op("rate", f"max_rate[{i}]",
                   lambda g=gamma_b, m=m_lo, e=th.eps_b_max: self.lib.max_rate(g, m, e),
                   lambda out, sc=sc, m=m_lo: checks.check_max_rate(sc, m, out)),
                Op("rate", f"secrecy_rate[{i}]",
                   lambda gb=gamma_b, ge=gamma_e, i=i, th=th:
                       self.lib.secrecy_rate(gb, ge, self._m_star(i), th.eps_b_max, th.delta_max),
                   lambda out: checks.check_finite("secrecy_rate", out)),
            ]
        for i, case in enumerate(self.inputs["statistical"]):
            sc, p, th = to_scenario(lib, case["scenario"]), case["power"], to_thresholds(lib, case)
            ops.append(Op(
                "statistical", f"solve_blocklength_statistical[{i}]",
                lambda sc=sc, p=p, th=th:
                    self.lib.solve_blocklength_statistical(sc, p, th, self.fading),
                lambda out, i=i, sc=sc, p=p: self._check_statistical(i, sc, p, out)))
        return ops

    def _m_star(self, i):
        """secrecy_rate runs at the blocklength solve_blocklength returned."""
        return self.records[("blocklength", i)][0][0]

    def _brute(self, sc, p, window):
        """LFP and throughput over the whole feasible window, vectorized."""
        lo, hi = window
        ms = np.arange(lo, hi + 1, dtype=float)
        eps_b = self.lib.fbl_error(self.lib.snr(sc.bob, p), sc.d, ms)
        eps_e = self.lib.fbl_error(self.lib.snr(sc.eves[0], p), sc.d, ms)
        lfp = 1.0 - (1.0 - eps_b) * eps_e
        return float(np.min(lfp)), float(np.max(sc.d / ms * (1.0 - lfp)))

    def _check_blocklength(self, i, sc, p, window, out):
        fails = checks.check_blocklength(self.lib, sc, p, window, out)
        if self.once(self.records, ("blocklength", i), (out, sc, p)) and not fails:
            self.lfps.append(out[1])
            self.gaps.append(floored(out[1]) / floored(self._brute(sc, p, window)[0]))
        return fails

    def _check_throughput(self, i, sc, p, window, out):
        fails = checks.check_throughput(self.lib, sc, p, window, out)
        if self.once(self.records, ("throughput", i), (out, sc, p)) and not fails:
            self.gaps.append(self._brute(sc, p, window)[1] / out[1])
        return fails

    def _check_statistical(self, i, sc, p, out):
        if self.once(self.records, ("statistical", i), (out, sc, p)):
            self.lfps.append(out[1])
        return checks.check_statistical(self.lib, sc, p, self.fading, out)

    def warmup(self):
        case = self.inputs["budgeted"][0]
        self.lib.solve_blocklength(to_scenario(self.lib, case["scenario"]),
                                   case["power"], to_thresholds(self.lib, case))

    def counts(self):
        """Also count allocations at which 1 - eps_e cancels to exactly 0."""
        out = super().counts()
        zero = 0
        for (kind, _), ((m, _), sc, p) in self.records.items():
            if kind in ("blocklength", "throughput"):
                eps_e = self.lib.fbl_error(self.lib.snr(sc.eves[0], p), sc.d, float(m))
                zero += (1.0 - eps_e) == 0.0
        out["core.delta_zero"] = zero
        return out


WORKLOADS = {cls.name: cls for cls in (SolveOracle, CliSweep, BudgetedStat)}


def make_inputs(name: str, seed: int, lib) -> dict:
    return GENERATORS[name](seed, lib)
