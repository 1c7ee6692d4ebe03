"""Run one fblsec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve_oracle --seed 1 --seconds 30 --trace 0

Workloads: solve_oracle, cli_sweep, budgeted_stat (see perfbench/README.md).
The library is imported from ``src/`` next to this directory.  Set-up
imports it, generates the seeded inputs and makes one warm-up call, three
times; the median set-up counts.  Then the workload's operations run one
after another, cycling, until their timed calls add up to ``--seconds`` and
each has run at least once (an operation with weight w runs w times per
cycle).  A fixed calibration kernel runs between operations, and each
single-threaded operation's time is scaled by it to the kernel's nominal
speed (see calibration.py).  A phase's time is the sum over its operations
of each one's median time; the unscaled figures are printed as well.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` one untraced and one traced pass run, and the last line
carries the per-layer metrics, including the tracing overhead; the spans go
to ``.perfbench_out/spans-<workload>.csv.gz``.  Earlier lines print the
inputs, a named report with units, and any failed checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
EXIT_ERROR = 2

END_TO_END = {"setup_s": "s", "optimize_s": "s", "evaluate_s": "s",
              "matched_frac": "ratio", "peak_rss_mb": "MB"}


def per_layer_units(target_names) -> dict:
    units = {}
    for name in target_names:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "solver.LinkSet.lfp.self_s.solve": "s",
        "solver.LinkSet.lfp.self_s.oracle": "s",
        "oracle.golden_section_max.evals": "count",
        "experiments._sweep_point.errors": "count",
        "experiments.sweep_parallel_eff": "ratio",
        "core.lfp_zero": "count",
        "core.delta_zero": "count",
        "solver.rounds": "count",
        "solver.anchor_fallbacks": "count",
        "solver.unconverged": "count",
        "solver.useful_round_frac": "ratio",
        "quality.gap_geomean": "ratio",
        "quality.gap_ratio_max": "ratio",
        "quality.oracle_lfp_geomean": "prob",
        "trace.overhead_s": "s",
    })
    return units


def solver_counts(traces) -> dict:
    """Round statistics of returned SolveTraces.  A fallback round repeats
    the previous anchor; a useful round lowers the actual LFP."""
    rounds = fallbacks = useful = unconverged = 0
    for tr in traces:
        point, eps = (tr.m0, tr.p0), tr.eps0
        for rec in tr.iterations:
            rounds += 1
            fallbacks += (rec.m, rec.p) == point
            useful += rec.eps_actual < eps
            point, eps = (rec.m, rec.p), rec.eps_actual
        unconverged += not tr.converged
    return {"solver.rounds": rounds, "solver.anchor_fallbacks": fallbacks,
            "solver.unconverged": unconverged,
            "solver.useful_round_frac": useful / rounds if rounds else 0.0}


class Pass:
    """Times operations one at a time and runs their checks untimed.  With a
    calibrator, the machine-speed kernel runs between operations."""

    def __init__(self, ops, calibrator=None):
        self.ops = ops
        self.calibrator = calibrator
        self.samples = [[] for _ in ops]     # (seconds, start, end) per run
        self.attempted = 0
        self.failures = []

    def step(self, k: int, tracer=None) -> None:
        op = self.ops[k]
        self.attempted += 1
        if self.calibrator is not None:
            self.calibrator.maybe()
        if tracer is not None:
            tracer.op_id = self.attempted
            tracer.enabled = True
        error = None
        t0 = perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        t1 = perf_counter()
        if tracer is not None:
            tracer.enabled = False
        self.samples[k].append((t1 - t0, t0, t1))
        if error is not None:
            fails = [f"{type(error).__name__}: {error}"]
        else:
            try:
                fails = op.check(out)
            except Exception as exc:
                fails = [f"check raised {type(exc).__name__}: {exc}"]
        if fails:
            self.failures.append({"op": op.label, "why": fails})

    def phase_times(self, calibrated: bool) -> dict:
        """Per phase, the sum over its operations of each one's median time,
        calibrated (where the operation allows it) or wall-clock."""
        totals = {}
        for op, runs in zip(self.ops, self.samples):
            if runs:
                scaled = calibrated and op.calibrate
                times = [(dt * self.calibrator.scale(t0, t1) if scaled else dt)
                         for dt, t0, t1 in runs]
                totals[op.phase] = totals.get(op.phase, 0.0) + statistics.median(times)
        return totals

    def wall(self) -> float:
        return sum(dt for runs in self.samples for dt, _, _ in runs)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import fblsec from this checkout's src/; exit when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    try:
        import fblsec
        import fblsec.cli  # noqa: F401  (the package does not import it)
    except ImportError as exc:
        sys.exit(f"error: cannot import fblsec from {src}: {exc}")
    elapsed = perf_counter() - t0
    if Path(fblsec.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: fblsec was imported from {fblsec.__file__}, not {src}")
    return fblsec, elapsed


def emit(line) -> None:
    print(line if isinstance(line, str) else json.dumps(line), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    # FBLSEC_THREADS would silently override the sweep's --threads
    os.environ.pop("FBLSEC_THREADS", None)
    lib, import_s = import_library()
    sys.path.insert(0, str(ROOT))
    from perfbench.calibration import NOMINAL_S, Calibrator
    from perfbench.tracer import TARGET_NAMES, Tracer
    from perfbench.workloads import PHASES, WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(WORKLOADS)}")
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            inputs = make_inputs(args.workload, args.seed, lib)
            workload = WORKLOADS[args.workload](lib, inputs, str(workdir))
            workload.warmup()
            setups.append(perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)
        emit({"workload": args.workload, "seed": args.seed, "inputs": inputs})

        ops = workload.ops
        cycle = [k for k, op in enumerate(ops) for _ in range(op.weight)]
        calibrator = Calibrator()
        first = Pass(ops, calibrator)
        passes = [first]
        if args.trace:
            for k in cycle:
                first.step(k)
            calibrator.kernel()
            tracer = Tracer()
            tracer.install()
            try:
                traced = Pass(ops)
                for k in cycle:
                    traced.step(k, tracer)
            finally:
                tracer.uninstall()
            passes.append(traced)
        else:
            i = 0
            while i < len(cycle) or first.wall() < args.seconds:
                first.step(cycle[i % len(cycle)])
                i += 1
            calibrator.kernel()

        phase_names = PHASES[args.workload]
        phases = first.phase_times(calibrated=True)
        generic = {"optimize_s": 0.0, "evaluate_s": 0.0}
        for phase, (_, metric) in phase_names.items():
            generic[metric] += phases.get(phase, 0.0)
        attempted = sum(p.attempted for p in passes)
        failures = [f for p in passes for f in p.failures]
        e2e = {
            "setup_s": setup_s, **generic,
            "matched_frac": workload.matched_frac(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report = {name: (value, END_TO_END[name]) for name, value in e2e.items()}
        for phase, total in phases.items():
            report[phase_names[phase][0]] = (total, "s")
        report["gap_geomean"] = (workload.gap_geomean(), "ratio")
        report.update(workload.summary())
        report["failed_frac"] = (len(failures) / attempted, "ratio")
        for name, (value, unit) in report.items():
            emit(f"metric {name} = {value:.6g} {unit}")
        for phase, total in first.phase_times(calibrated=False).items():
            emit(f"wall-clock {phase_names[phase][0]} = {total:.6g} s")
        cal = calibrator.times
        emit(f"calibration kernel: {len(cal)} runs, median {statistics.median(cal):.4g} s, "
             f"min {min(cal):.4g} s, max {max(cal):.4g} s (nominal {NOMINAL_S} s)")
        emit(f"samples per operation: min {min(len(s) for s in first.samples)}, "
             f"max {max(len(s) for s in first.samples)}, operations {len(ops)}")
        for failure in failures[:20]:
            emit({"failed": failure})

        if args.trace:
            layer = tracer.layer_times()
            layer.update(workload.counts())
            layer.update(solver_counts(r.trace for r in tracer.results))
            layer["oracle.golden_section_max.evals"] = tracer.evals["oracle.golden_section_max"]
            layer["experiments._sweep_point.errors"] = tracer.errors["experiments._sweep_point"]
            # CPU time, not span time: under the interpreter lock a waiting
            # thread's span still runs, so span time would read ~1 regardless
            sweep_wall = tracer.total_duration("experiments.cmd_sweep")
            threads = workload.inputs.get("threads", 1)
            layer["experiments.sweep_parallel_eff"] = (
                tracer.cpu_s / (threads * sweep_wall) if sweep_wall else 0.0)
            layer["quality.gap_geomean"] = report["gap_geomean"][0]
            layer["quality.gap_ratio_max"] = report.get("gap_ratio_max", (0.0,))[0]
            layer["quality.oracle_lfp_geomean"] = report.get("oracle_lfp_geomean", (0.0,))[0]
            layer["trace.overhead_s"] = passes[1].wall() - first.wall()
            emit({"absent": tracer.absent, "spans": len(tracer.spans)})
            tracer.write(OUT_DIR / f"spans-{args.workload}.csv.gz")
            units = per_layer_units(TARGET_NAMES)
            metrics = {name: {"value": layer.get(name, 0), "unit": unit}
                       for name, unit in units.items()}
        else:
            metrics = {name: {"value": value, "unit": END_TO_END[name]}
                       for name, value in e2e.items()}
        emit({"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics})
        return 0
    except Exception:
        traceback.print_exc()
        return EXIT_ERROR
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
