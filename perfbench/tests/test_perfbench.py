"""Tests of the benchmark itself: seeded inputs, output checks, the tracer,
and the agreement between BENCHMARK.json and the metrics the runner prints."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import fblsec  # noqa: E402
import fblsec.experiments  # noqa: E402
from fblsec import core, solver  # noqa: E402

from perfbench import checks, inputs, tracer  # noqa: E402
from perfbench.run import END_TO_END, per_layer_units  # noqa: E402
from perfbench.workloads import WORKLOADS, make_inputs  # noqa: E402


def scenario(d=320, z_b=1.5, gains=(1.0,)):
    return inputs.to_scenario(fblsec, inputs.scenario_dict(d, z_b, gains))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@pytest.fixture
def small_budgets(monkeypatch):
    monkeypatch.setattr(inputs, "N_BUDGETED", 5)
    monkeypatch.setattr(inputs, "N_STATISTICAL", 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, small_budgets):
    first = make_inputs(name, 7, fblsec)
    assert json.dumps(first) == json.dumps(make_inputs(name, 7, fblsec))
    assert json.dumps(first) != json.dumps(make_inputs(name, 8, fblsec))


def test_solve_oracle_inputs_keep_fixed_corners_and_weak_colluders():
    scenarios = inputs.solve_oracle_inputs(3)["scenarios"]
    corners = {(s["bob"]["gain"], s["d"]) for s in scenarios[:4]}
    assert corners == {(1.5, 100), (1.5, 700), (4.0, 100), (4.0, 700)}
    sizes = sorted(len(s["eves"]) for s in scenarios if s["eve_model"] == "passive")
    assert sizes[-3:] == [2, 3, 4]
    for s in scenarios:
        if s["eve_model"] == "super":
            assert sum(e["gain"] for e in s["eves"]) < s["bob"]["gain"]


def test_sweep_values_are_ordered():
    values = inputs.cli_sweep_inputs(5)["sweep"]["sweep"]["values"]
    assert values == sorted(values) and len(values) == len(inputs.SWEEP_VALUES)


# ---------------------------------------------------------------------------
# output checks reject corrupted results
# ---------------------------------------------------------------------------

def fake_result(sc, m, p, eps_lf=None, eps_trace=(0.5, 0.2, 0.1)):
    trace = solver.SolveTrace(m0=float(sc.d), p0=1.0, eps0=eps_trace[0])
    for k, e in enumerate(eps_trace[1:], start=1):
        trace.iterations.append(solver.IterationRecord(k, float(m), p, e, e))
    if eps_lf is None:
        eps_lf = fblsec.scenario_lfp(sc, fblsec.Resources(float(m), p))
    pair = fblsec.ReliabilityPair(0.0, 1.0)
    return solver.AllocationResult(m, p, eps_lf, pair, trace)


def test_check_solve_rejects_corruption():
    sc = scenario()
    assert checks.check_solve(fblsec, sc, fake_result(sc, 3000, 0.0063)) == []
    good = fake_result(sc, 3000, 0.0063).eps_lf
    assert checks.check_solve(fblsec, sc, fake_result(sc, 3000, 0.0063, good * (1 + 1e-9)))
    assert checks.check_solve(fblsec, sc, fake_result(sc, 3001, 0.0063))
    assert checks.check_solve(fblsec, sc, fake_result(sc, 2999.5, 0.0063))
    assert checks.check_solve(fblsec, sc, fake_result(sc, 3000, 11.0))
    assert checks.check_solve(fblsec, sc, fake_result(sc, 3000, 0.0063,
                                                      eps_trace=(0.5, 0.1, 0.2)))


def test_check_oracle_rejects_corruption():
    sc = scenario()
    assert checks.check_oracle(sc, (3000, 0.0063, 0.032), 0.032) == []
    assert checks.check_oracle(sc, (3000, 0.0063, 0.033), 0.032)   # coarser than the solver
    assert checks.check_oracle(sc, (0, 0.0063, 0.032), 0.032)
    assert checks.check_oracle(sc, (3000, 0.0063, 1.5), None)


def sweep_csv(base, values, drop=None, bump=None):
    lines = [checks.SWEEP_HEADER]
    for v in values:
        sc = inputs.to_scenario(fblsec, dict(base, bob=dict(base["bob"], gain=v)))
        res = fblsec.Resources(3000.0, 0.01)
        for source, eps in (("fixed_leakage", fblsec.lfp_at(sc, res)[0]),
                            ("joint", fblsec.scenario_lfp(sc, res))):
            if (v, source) == drop:
                continue
            if (v, source) == bump:
                eps *= 1.001
            lines.append(f"{v!r},{source},3000,0.01,{eps!r},")
    return "\n".join(lines) + "\n"


def test_check_sweep_rejects_corruption():
    base = inputs.scenario_dict(320, 1.5, (1.0,))
    values = [1.4, 1.8]
    assert checks.check_sweep(fblsec, base, values, sweep_csv(base, values),
                              lambda d: inputs.to_scenario(fblsec, d)) == []
    to_sc = lambda d: inputs.to_scenario(fblsec, d)  # noqa: E731
    good = sweep_csv(base, values)
    assert checks.check_sweep(fblsec, base, values, good.replace("tau_lf", "tau"), to_sc)
    assert checks.check_sweep(fblsec, base, values,
                              sweep_csv(base, values, drop=(1.8, "joint")), to_sc)
    assert checks.check_sweep(fblsec, base, values,
                              sweep_csv(base, values, bump=(1.4, "fixed_leakage")), to_sc)
    assert checks.check_sweep(fblsec, base, values, good + "1.8,error,,,,\n", to_sc)


def test_check_eval_rejects_corruption():
    cfg = {"eval": {"m_points": 3, "p_points": 2, "m_range": [100, 3000]}}
    rows = [f"{m},0.1,0.5,0.5,0.75,1" for m in (100, 548, 3000) for _ in range(2)]
    good = "\n".join([checks.EVAL_HEADER] + rows) + "\n"
    assert checks.check_eval(cfg, good) == []
    assert checks.check_eval(cfg, good.replace("flag_insecure", "flag"))
    assert checks.check_eval(cfg, "\n".join([checks.EVAL_HEADER] + rows[:-1]) + "\n")


@pytest.fixture
def budget_case():
    sc = scenario(d=300, z_b=4.0)
    p = 0.5
    th = fblsec.Thresholds(delta_max=1e-2, eps_b_max=1e-2)
    assert fblsec.feasible_m_interval(sc, p, th) is not None
    return sc, p, th


def test_check_blocklength_rejects_corruption(budget_case):
    sc, p, th = budget_case
    m, v = fblsec.solve_blocklength(sc, p, th)
    window = fblsec.feasible_m_interval(sc, p, th)
    assert checks.check_blocklength(fblsec, sc, p, window, (m, v)) == []
    assert checks.check_blocklength(fblsec, sc, p, window, (window[1] + 1, v))
    assert checks.check_blocklength(fblsec, sc, p, window, (m, v * 1.01))


def test_check_throughput_rejects_corruption(budget_case):
    sc, p, th = budget_case
    m, tau = fblsec.maximize_throughput(sc, p, th)
    window = fblsec.feasible_m_interval(sc, p, th)
    assert checks.check_throughput(fblsec, sc, p, window, (m, tau)) == []
    assert checks.check_throughput(fblsec, sc, p, window, (window[0] - 1, tau))
    assert checks.check_throughput(fblsec, sc, p, window, (m, tau * 1.01))


def test_check_max_rate_rejects_corruption(budget_case):
    sc, p, th = budget_case
    m_lo = fblsec.feasible_m_interval(sc, p, th)[0]
    rate = fblsec.max_rate(float(fblsec.snr(sc.bob, p)), m_lo, th.eps_b_max)
    assert checks.check_max_rate(sc, m_lo, rate) == []
    assert checks.check_max_rate(sc, m_lo, sc.d / m_lo * 0.999)
    assert checks.check_max_rate(sc, m_lo, float("nan"))


def test_check_statistical_rejects_corruption():
    sc = inputs.to_scenario(fblsec, inputs.scenario_dict(300, 6.0, (1.0,), mean_gain=1.0))
    fading = inputs.statistical_fading(fblsec)
    v = fblsec.expected_lfp(sc, fblsec.Resources(200.0, 0.5), fading)
    assert checks.check_statistical(fblsec, sc, 0.5, fading, (200, v)) == []
    assert checks.check_statistical(fblsec, sc, 0.5, fading, (200, v * 1.01))
    assert checks.check_statistical(fblsec, sc, 0.5, fading, (0, v))


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_self_time_on_nested_calls(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(tracer, "perf_counter", lambda: clock[0])
    tr = tracer.Tracer()

    def leaf(dt):
        clock[0] += dt

    leaf = tr.wrap("toy.leaf", leaf)

    def middle():
        leaf(2.0)
        clock[0] += 0.5
        leaf(1.0)

    middle = tr.wrap("toy.middle", middle)

    def outer():
        clock[0] += 1.0
        middle()
        clock[0] += 0.25

    outer = tr.wrap("toy.outer", outer)
    tr.enabled = True
    outer()
    times = tr.layer_times()
    assert times["toy.leaf.calls"] == 2 and times["toy.leaf.self_s"] == 3.0
    assert times["toy.middle.self_s"] == 0.5
    assert times["toy.outer.self_s"] == 1.25
    assert tr.total_duration("toy.outer") == 4.75


def test_covered_length_merges_overlapping_children():
    assert tracer.covered_length([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.0, 6.0) == 4.0


def test_disabled_tracer_records_nothing():
    tr = tracer.Tracer()
    f = tr.wrap("toy.f", lambda x: x + 1)
    assert f(1) == 2 and tr.spans == []


def test_missing_names_are_reported_not_fatal():
    original_q = core.q
    tr = tracer.Tracer()
    tr.install(targets=(("solver", "SurrogateModel.no_such_method"),
                        ("no_such_module", "f"), ("core", "no_such_function"),
                        ("core", "q")))
    try:
        assert tr.absent == ["solver.SurrogateModel.no_such_method",
                             "no_such_module.f", "core.no_such_function"]
        assert core.q is not original_q and solver.q is core.q and fblsec.q is core.q
        tr.enabled = True
        fblsec.fbl_error(2.0, 100, 200.0)
        assert tr.layer_times()["core.q.calls"] == 1
    finally:
        tr.uninstall()
    assert core.q is original_q and solver.q is original_q


def test_pool_spans_are_parented_to_the_submitter():
    tr = tracer.Tracer()
    tr.install(targets=(("core", "q"),))
    try:
        def submit_all():
            with fblsec.experiments.ThreadPoolExecutor(max_workers=2) as pool:
                return list(pool.map(core.q, [0.0, 1.0, 2.0, 3.0]))

        outer = tr.wrap("toy.sweep", submit_all)
        tr.enabled = True
        tr.op_id = 9
        outer()
    finally:
        tr.uninstall()
    (sweep,) = [s for s in tr.spans if s[1] == "toy.sweep"]
    q_spans = [s for s in tr.spans if s[1] == "core.q"]
    assert len(q_spans) == 4
    assert all(s[4] == sweep[0] and s[5] == 9 for s in q_spans)


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the runner prints
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == per_layer_units(tracer.TARGET_NAMES))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
