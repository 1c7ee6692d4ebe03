"""In-memory span tracer installed around fblsec functions from outside the
package.

Each wrapped call records one span: id, name, start, end, parent span and the
benchmark operation it belongs to.  A function is replaced at every module
binding that callers resolve (``q`` is bound in ``core``, ``solver`` and
``bounds``), and methods are replaced on their class.  Parent stacks are kept
per thread; work that a sweep hands to its thread pool is parented to the
span that submitted it.  A name the package no longer defines is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import sys
import threading
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter, thread_time

PACKAGE = "fblsec"

# (module, qualified name) of every traced function
TARGETS = (
    ("core", "q"), ("core", "fbl_error"), ("core", "fbl_error_over_gains"),
    ("core", "q_inv"),
    ("solver", "LinkSet.omega_link"), ("solver", "LinkSet.lfp"),
    ("solver", "SurrogateModel.__init__"), ("solver", "minimize_surrogate"),
    ("solver", "_masked_values"), ("solver", "SurrogateModel.value_grad_hess"),
    ("solver", "SurrogateModel.value"),
    ("bounds", "build_composite_terms"), ("bounds", "composite_value"),
    ("bounds", "exp_bound_coeffs"),
    ("convexity", "rate_threshold_sweep_max"),
    ("convexity", "omega_gradient_mgamma"), ("convexity", "omega_hessian_mgamma"),
    ("oracle", "exhaustive_min_lfp"), ("oracle", "golden_section_max"),
    ("multi_eve", "solve_multi"), ("multi_eve", "linkset_for"),
    ("constrained", "feasible_m_interval"), ("constrained", "expected_eps_e"),
    ("constrained", "feasible_m_interval_statistical"),
    ("constrained", "solve_fixed_leakage"),
    ("experiments", "_sweep_point"), ("experiments", "cmd_sweep"),
    ("experiments", "cmd_eval"), ("experiments", "rows_to_csv"),
    ("cli", "main"),
)
TARGET_NAMES = tuple(f"{mod}.{qual}" for mod, qual in TARGETS)

# spans under these names (and their descendants) carry the phase tag, which
# splits the self time of the shared LFP kernel between solver and oracle
PHASE_ROOTS = {"multi_eve.solve_multi": "solve", "oracle.exhaustive_min_lfp": "oracle"}
SPLIT_TARGET = "solver.LinkSet.lfp"
EVALS_TARGET = "oracle.golden_section_max"      # objective evaluations counted
RESULT_TARGET = "multi_eve.solve_multi"         # returned results kept
CPU_TARGET = "experiments._sweep_point"         # thread CPU time summed too


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Records spans while ``enabled``; ``install`` patches the package and
    ``uninstall`` restores every original binding."""

    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id, op id, phase)
        self.errors = Counter()
        self.evals = Counter()
        self.results = []      # values returned by RESULT_TARGET calls
        self.cpu_s = 0.0       # thread CPU time inside CPU_TARGET calls
        self.absent = []
        self.op_id = 0
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack, st.phase = [], None
        return st

    def _count(self, counter: Counter, name: str) -> None:
        with self._lock:
            counter[name] += 1

    def _add_cpu(self, seconds: float) -> None:
        with self._lock:
            self.cpu_s += seconds

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call records a span named name."""
        tracer = self
        phase_root = PHASE_ROOTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if name == EVALS_TARGET and args:
                objective = args[0]

                def counted(x):
                    tracer._count(tracer.evals, name)
                    return objective(x)
                args = (counted,) + args[1:]
            st = tracer._state()
            parent = st.stack[-1] if st.stack else 0
            saved_phase = st.phase
            if phase_root:
                st.phase = phase_root
            sid = next(tracer._ids)
            st.stack.append(sid)
            c0 = thread_time() if name == CPU_TARGET else 0.0
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer._count(tracer.errors, name)
                raise
            finally:
                t1 = perf_counter()
                if name == CPU_TARGET:
                    tracer._add_cpu(thread_time() - c0)
                st.stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer.op_id, st.phase))
                st.phase = saved_phase
            if name == RESULT_TARGET:
                tracer.results.append(out)
            return out

        return traced

    def _executor_class(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            """Pool whose tasks inherit the submitting thread's span and phase."""

            def submit(self, fn, /, *args, **kwargs):
                st = tracer._state()
                parent = st.stack[-1] if st.stack else 0
                phase = st.phase

                def run(*a, **k):
                    ws = tracer._state()
                    ws.stack.append(parent)
                    saved, ws.phase = ws.phase, phase
                    try:
                        return fn(*a, **k)
                    finally:
                        ws.stack.pop()
                        ws.phase = saved

                return super().submit(run, *args, **kwargs)

        return TracedExecutor

    def _package_modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS) -> None:
        """Wrap every target at each of its bindings; record missing ones."""
        for mod_name, qual in targets:
            name = f"{mod_name}.{qual}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            *owner_path, attr = qual.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.absent.append(name)
                continue
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original)
            if owner_path:
                self._set(owner, attr, wrapped)
                continue
            for mod in self._package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        pool_class = self._executor_class()
        for mod in self._package_modules():
            for key, value in list(vars(mod).items()):
                if value is ThreadPoolExecutor:
                    self._set(mod, key, pool_class)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------

    def layer_times(self) -> dict:
        """``<name>.calls`` and ``<name>.self_s`` for every target.  A span's
        self time is its duration minus the part its child spans cover.  The
        LFP kernel's self time is also split by phase."""
        children = defaultdict(list)
        for _, _, t0, t1, parent, _, _ in self.spans:
            if parent:
                children[parent].append((t0, t1))
        out = {}
        for name in TARGET_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for phase in PHASE_ROOTS.values():
            out[f"{SPLIT_TARGET}.self_s.{phase}"] = 0.0
        for sid, name, t0, t1, _, _, phase in self.spans:
            own = (t1 - t0) - covered_length(children.get(sid, ()), t0, t1)
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
            if name == SPLIT_TARGET and phase:
                out[f"{name}.self_s.{phase}"] += own
        return out

    def total_duration(self, name: str) -> float:
        return sum(t1 - t0 for _, n, t0, t1, _, _, _ in self.spans if n == name)

    def write(self, path) -> None:
        """Write the spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("id,name,start,end,parent,op,phase\n")
            for sid, name, t0, t1, parent, op, phase in self.spans:
                fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent},{op},{phase or ''}\n")
