import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fblsec import experiments
from fblsec.cli import main
from fblsec.constrained import Thresholds, maximize_throughput, solve_blocklength
from fblsec.core import lfp_from_errors, linkset_for
from fblsec.experiments import rows_to_csv, scenario_from_config


def base_config(**overrides):
    cfg = {
        "scenario": {
            "d": 320,
            "bob": {"gain": 1.5, "noise_power": 0.1},
            "eves": [{"gain": 1.0, "noise_power": 0.1}],
            "eve_model": "passive",
            "m_cap": 3000,
            "p_cap": 10.0,
        },
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_eval_grid_shape_and_flag(tmp_path):
    cfg = base_config(eval={"m_points": 6, "p_points": 5,
                            "m_range": [50, 500], "p_range": [0.01, 1.0]})
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "surface.csv"
    assert main(["eval", "--config", cfg_path, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "m,p,eps_b,eps_e,eps_lf,flag_insecure"
    body = [line.split(",") for line in lines[1:]]
    assert len(body) == 6 * 5
    for row in body:
        assert row[5] == ("1" if float(row[4]) >= 0.5 else "0")


def test_eval_single_cell(tmp_path):
    cfg = base_config(eval={"m_points": 1, "p_points": 1,
                            "m_range": [100, 100], "p_range": [0.5, 0.5]})
    out = tmp_path / "one.csv"
    assert main(["eval", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2


def test_solve_trace_monotone_and_final(tmp_path):
    cfg = base_config(solver={"mu_th": 1e-8})
    out = tmp_path / "trace.csv"
    assert main(["solve", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "source,k,m,p,eps_lf_hat,eps_lf"
    iters = [line.split(",") for line in lines[1:] if line.startswith("iterate")]
    eps = [float(r[5]) for r in iters]
    assert all(b <= a + 1e-12 for a, b in zip(eps, eps[1:]))
    finals = [line for line in lines[1:] if line.startswith("final")]
    assert len(finals) == 1


def test_solve_with_oracle_row_agrees(tmp_path):
    cfg = base_config(solver={}, oracle={"p_points": 300, "refine_rounds": 2})
    out = tmp_path / "trace.csv"
    assert main(["solve", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    final = next(r for r in rows if r[0] == "final")
    oracle = next(r for r in rows if r[0] == "oracle")
    assert float(final[5]) == pytest.approx(float(oracle[5]), rel=1e-3)


def test_sweep_gain_direction_and_baseline(tmp_path):
    cfg = base_config(sweep={
        "variable": "z_b",
        "values": [1.4, 1.6, 1.8],
        "mode": "joint",
        "baseline": {"fixed_leakage": {"delta_cap": 1e-3,
                                        "p_points": 150,
                                        "refine_rounds": 1}},
        "trend": {"column": "eps_lf", "direction": "strictly_decreasing"},
    })
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    joint = {float(r[0]): float(r[4]) for r in rows if r[1] == "joint"}
    fixed = {float(r[0]): float(r[4]) for r in rows if r[1] == "fixed_leakage"}
    assert sorted(joint) == [1.4, 1.6, 1.8]
    vals = [joint[v] for v in sorted(joint)]
    assert vals[0] > vals[1] > vals[2]
    for v, fx in fixed.items():
        assert fx >= joint[v]


def test_sweep_trend_violation_exits_3(tmp_path):
    cfg = base_config(sweep={
        "variable": "z_b",
        "values": [1.4, 1.6],
        "mode": "joint",
        "trend": {"column": "eps_lf", "direction": "strictly_increasing"},
    })
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", write_config(tmp_path, cfg),
               "--out", str(out)])
    assert rc == 3
    assert not out.exists()


def test_sweep_error_rows_continue(tmp_path, capsys):
    # symmetric channels make the thresholds infeasible at every power
    cfg = base_config(sweep={
        "variable": "z_b",
        "values": [1.0, 4.0],
        "mode": "blocklength",
        "power": 0.1,
        "thresholds": {"delta_max": 1e-3, "eps_b_max": 1e-3},
    })
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    sources = {r[0]: r[1] for r in rows}
    assert sources["1"] == "error"
    assert sources["4"] == "blocklength"
    err_lines = capsys.readouterr().err.strip().split("\n")
    assert len(err_lines) == 1
    assert err_lines[0].startswith("fblsec sweep: value 1: InfeasibleError: ")


def test_failed_baseline_keeps_the_joint_row(tmp_path, capsys):
    """A value whose fixed-leakage baseline is infeasible keeps its joint
    row and gets one error row plus one stderr line."""
    cfg = base_config(sweep={
        "variable": "z_e",
        "values": [1.0, 1e6],
        "mode": "joint",
        "baseline": {"fixed_leakage": {"delta_cap": 1e-3}},
    })
    cfg["scenario"].update(d=1, m_cap=300)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("1", "fixed_leakage"), ("1", "joint"),
        ("1000000", "error"), ("1000000", "joint")]
    assert rows[2][2:] == ["", "", "", ""]
    assert float(rows[3][4]) == 1.0
    err_lines = capsys.readouterr().err.strip().split("\n")
    assert len(err_lines) == 1
    assert err_lines[0].startswith("fblsec sweep: value 1000000: InfeasibleError: ")


def test_n_eves_sweep_runs_the_baseline_on_every_set(tmp_path, capsys):
    """The fixed-leakage baseline runs on passive sets of any size: an
    n_eves sweep gives a fixed_leakage row next to each joint row, and each
    baseline allocation meets the cap on the product of the eavesdroppers'
    errors."""
    cfg = base_config(sweep={
        "variable": "n_eves",
        "values": [1, 2, 3],
        "mode": "joint",
        "baseline": {"fixed_leakage": {"delta_cap": 1e-3}},
    })
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        (n, src) for n in ("1", "2", "3") for src in ("fixed_leakage", "joint")]
    base = scenario_from_config(cfg)
    for r in rows[::2]:
        links = linkset_for(replace(base, eves=base.eves * int(r[0])))
        m, p = float(r[2]), float(r[3])
        eps_b, eps_e = links.eps_pair(m, p)
        assert 1.0 - eps_e <= 1e-3
        assert float(r[4]) == lfp_from_errors(eps_b, eps_e)


@pytest.mark.parametrize("mode", ["blocklength", "throughput"])
def test_n_eves_sweep_in_window_modes(tmp_path, capsys, mode):
    """The blocklength and throughput modes search passive sets of any size:
    an n_eves sweep gives one row per value, the library's search on that
    set."""
    th = {"delta_max": 0.1, "eps_b_max": 0.1}
    cfg = base_config(sweep={"variable": "n_eves", "values": [1, 2, 3],
                             "mode": mode, "power": 0.1, "thresholds": th})
    cfg["scenario"]["bob"]["gain"] = 4.0
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert [(r[0], r[1]) for r in rows] == [(n, mode) for n in ("1", "2", "3")]
    base = scenario_from_config(cfg)
    search = solve_blocklength if mode == "blocklength" else maximize_throughput
    for r in rows:
        sc = replace(base, eves=base.eves * int(r[0]))
        m_star, _ = search(sc, 0.1, Thresholds(**th))
        assert (int(r[2]), float(r[3])) == (m_star, 0.1)


def test_solve_colluders_with_different_noise_powers(tmp_path):
    """Colluders with different noise powers are solved on one link whose
    SNR is the sum of theirs."""
    cfg = base_config(solver={})
    cfg["scenario"].update(eve_model="super", eves=[
        {"gain": 1.0, "noise_power": 0.1}, {"gain": 0.5, "noise_power": 0.2}])
    out = tmp_path / "trace.csv"
    assert main(["solve", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    finals = [r for r in rows if r[0] == "final"]
    assert len(finals) == 1
    assert 0.0 < float(finals[0][5]) < 1.0


def test_throughput_sweep_defaults_power_to_each_p_cap(tmp_path):
    cfg = base_config(sweep={
        "variable": "p_cap",
        "values": [0.1, 0.2],
        "mode": "throughput",
        "thresholds": {"delta_max": 1e-3, "eps_b_max": 1e-3},
    })
    cfg["scenario"]["bob"]["gain"] = 4.0
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert [(r[1], float(r[3])) for r in rows] == [("throughput", 0.1),
                                                    ("throughput", 0.2)]


def test_oracle_command(tmp_path):
    cfg = base_config(oracle={"p_points": 200, "refine_rounds": 1})
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "source,m,p,eps_lf"
    row = lines[1].split(",")
    assert row[0] == "oracle"
    assert 1 <= int(row[1]) <= 3000


def test_missing_scenario_exits_2(tmp_path):
    path = write_config(tmp_path, {"solver": {}})
    assert main(["solve", "--config", path]) == 2


def _scenario_with(**changes):
    """A scenario section override: the base scenario with some fields
    replaced."""
    return {"scenario": dict(base_config()["scenario"], **changes)}


def _joint_sweep(**extra):
    """A one-value joint sweep section with extra keys."""
    return {"sweep": dict({"variable": "z_b", "values": [2.0], "mode": "joint"},
                          **extra)}


def _window_sweep(mode, **extra):
    """A one-value blocklength or throughput sweep section with extra keys."""
    return {"sweep": dict({"variable": "z_b", "values": [2.0], "mode": mode,
                           "thresholds": {"delta_max": 0.1, "eps_b_max": 0.1}},
                          **extra)}


def _not_run(*args, **kwargs):
    raise AssertionError("work ran although the config is malformed")


@pytest.mark.parametrize("command,section", [
    ("oracle", {"oracle": {"p_points": 0}}),
    ("eval", {"eval": {"m_points": "many"}}),
    ("solve", {"solver": {"mu_th": "x"}}),
    ("solve", {"solver": "x"}),
    ("eval", {"eval": [1]}),
    ("oracle", {"oracle": [1]}),
    ("sweep", {"sweep": {"variable": "z_b", "values": [2.0], "mode": "joint",
                         "baseline": 7}}),
    ("solve", None),
    ("solve", _scenario_with(p_cap=math.inf)),
    ("oracle", _scenario_with(bob={"gain": math.inf, "noise_power": 0.1})),
    ("oracle", {"oracle": {"m_range": [5]}}),
    ("solve", {"oracle": {"m_range": [1, 5000]}}),
    ("oracle", {"oracle": {"p_min": 50}}),
    ("eval", {"eval": {"m_points": 0}}),
    ("sweep", {"sweep": {"variable": "z_b", "values": [2.0], "mode": "blocklength",
                         "thresholds": {"delta_max": 1e-3, "eps_b_max": 1e-3}}}),
    ("sweep", {"sweep": {"variable": "z_b", "values": [2.0], "mode": "nonsense"}}),
    ("sweep", {"sweep": {"variable": "z_b", "values": [2.0], "mode": "throughput"}}),
    ("solve", {"solver": {"mu_th": math.nan}}),
    ("solve", {"solver": {"mu_th": -1.0}}),
    ("solve", {"solver": {"max_iter": -3}}),
    ("sweep", _joint_sweep(baseline={"fixed_leakage": {"delta_cap": "abc"}})),
    ("sweep", _joint_sweep(baseline={"fixed_leakage": {"delta_cap": 0.9}})),
    ("sweep", _joint_sweep(baseline={"fixed_leakage": {"p_points": 0}})),
    ("sweep", _joint_sweep(baseline={"fixed_leakage": {"refine_rounds": -1}})),
    ("sweep", _joint_sweep(trend={"direction": "bogus"})),
    ("sweep", _joint_sweep(trend={"direction": "nonincreasing", "column": "bogus"})),
    ("sweep", _joint_sweep(trend={"direction": ["nonincreasing"]})),
    ("sweep", _joint_sweep(trend={"direction": "nonincreasing", "column": ["m"]})),
    # integer fields: a fraction, a bool or a string is rejected, not truncated
    ("solve", _scenario_with(d=320.7)),
    ("solve", _scenario_with(m_cap=3000.9)),
    ("eval", _scenario_with(d=True)),
    ("solve", {"solver": {"max_iter": 2.5}}),
    ("oracle", {"oracle": {"p_points": True}}),
    ("oracle", {"oracle": {"refine_rounds": 0.9}}),
    ("oracle", {"oracle": {"p_points": "100"}}),
    ("eval", {"eval": {"m_points": 2.9}}),
    ("eval", {"eval": {"p_points": True}}),
    ("sweep", {"sweep": {"variable": "d", "values": [320, 320.5, 320.9],
                         "mode": "joint"}}),
    ("sweep", {"sweep": {"variable": "m_cap", "values": [3000, 2999.5],
                         "mode": "joint"}}),
    ("sweep", {"sweep": {"variable": "n_eves", "values": [1, True],
                         "mode": "joint"}}),
    ("sweep", _joint_sweep(baseline={"fixed_leakage": {"p_points": 300.5}})),
    ("sweep", _joint_sweep(baseline={"fixed_leakage": {"refine_rounds": 1.5}})),
    # sweep values the point's scenario rejects
    ("sweep", _joint_sweep(variable="n_eves", values=[0, 1])),
    ("sweep", _joint_sweep(variable="d", values=[0, 320])),
    ("sweep", _joint_sweep(variable="m_cap", values=[0, 3000])),
    ("sweep", _joint_sweep(variable="p_cap", values=[0.0, 10.0])),
    ("sweep", _joint_sweep(variable="z_b", values=[-1.0, 1.5])),
    ("sweep", _joint_sweep(variable="z_e", values=[math.nan])),
    # a sweep power that is not finite and > 0
    ("sweep", _window_sweep("blocklength", power=-0.1)),
    ("sweep", _window_sweep("blocklength", power=0)),
    ("sweep", _window_sweep("throughput", power=-1)),
    # a sweep power above a point's p_cap
    ("sweep", _window_sweep("blocklength", power=50)),
    ("sweep", _window_sweep("throughput", power=5, variable="p_cap",
                            values=[10.0, 2.0])),
    # sweep values that are not a JSON array: a string would sweep its
    # characters and an object its keys
    ("sweep", _joint_sweep(values="34")),
    ("sweep", _joint_sweep(values={"3": 0, "4": 1})),
])
def test_malformed_section_exits_2(tmp_path, capsys, monkeypatch, command, section):
    """A malformed config exits 2 with an error line before any solve,
    oracle scan or sweep point runs."""
    for name in ("solve_multi", "exhaustive_min_lfp", "_sweep_point"):
        monkeypatch.setattr(experiments, name, _not_run)
    cfg = [1, 2] if section is None else base_config(**section)
    path = write_config(tmp_path, cfg)
    assert main([command, "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_integral_float_fields_read_as_integers(tmp_path):
    """Integral floats in integer fields give the same output as ints."""
    outs = []
    for scale in (1, 1.0):
        cfg = base_config(eval={"m_points": 3 * scale, "p_points": 2 * scale,
                                "m_range": [100, 200], "p_range": [0.1, 1.0]})
        cfg["scenario"].update(d=320 * scale, m_cap=3000 * scale)
        out = tmp_path / f"eval-{scale!r}.csv"
        assert main(["eval", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 1 + 3 * 2


def test_unknown_sweep_variable_exits_2(tmp_path):
    cfg = base_config(sweep={"variable": "nonsense", "values": [1.0],
                             "mode": "joint"})
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 2


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path)]) == 2


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"scenario": "\xff"}')
    assert main(["solve", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config ")


def test_byte_determinism_across_runs(tmp_path):
    cfg = base_config(sweep={
        "variable": "d",
        "values": [160, 320],
        "mode": "joint",
    })
    cfg_path = write_config(tmp_path, cfg)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["sweep", "--config", cfg_path,
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_four_threads_byte_identical(tmp_path):
    cfg = base_config(sweep={
        "variable": "z_b",
        "values": [1.5, 1.7, 1.9, 2.1],
        "mode": "joint",
    })
    cfg_path = write_config(tmp_path, cfg)
    out1 = tmp_path / "seq.csv"
    assert main(["sweep", "--config", cfg_path, "--out", str(out1)]) == 0
    out2 = tmp_path / "par.csv"
    assert main(["sweep", "--config", cfg_path, "--threads", "4",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_console_entry_point_runs(tmp_path):
    cfg = base_config(eval={"m_points": 2, "p_points": 2,
                            "m_range": [100, 200], "p_range": [0.1, 1.0]})
    cfg_path = write_config(tmp_path, cfg)
    # the package as imported here, whether installed or not
    src = str(Path(experiments.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "fblsec.cli", "eval", "--config", cfg_path],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("m,p,eps_b,eps_e,eps_lf,flag_insecure")


def _reference_cell(x):
    """The per-cell rule of the original writer."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _reference_csv(header, rows):
    lines = [",".join(header)]
    lines += [",".join(_reference_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def _written(header, rows):
    buf = io.StringIO()
    rows_to_csv(header, rows, buf)
    return buf.getvalue()


def test_writer_matches_the_per_cell_rule():
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-300,
                np.float64(0.1), np.float32(0.1), np.float64(-1e300), 1.0 / 3.0]
    rows = [
        [None, "joint", True, False, np.int64(-7), 3],
        ["error", None, None, None, None, None],
        (np.int64(2**62), np.float32(3.5), np.float64(math.nan), "x", None),
        list(specials),
        [np.bool_(True), np.int32(5), np.uint8(200), 10**20, -0.0],
        [],
        ["a%sb%dc", "%", None],
    ]
    rng = np.random.default_rng(8)
    draws = rng.standard_normal(600) * 10.0 ** rng.integers(-320, 300, 600)
    rows += [list(chunk) for chunk in draws.reshape(100, 6)]
    rows += [chunk.tolist() for chunk in draws.reshape(100, 6)]
    rows += [[int(k), float(x), None] for k, x in zip(range(-50, 50), draws)]
    header = ["a", "b", "c"]
    assert _written(header, rows) == _reference_csv(header, rows)
    # a second pass reuses the cached row formats
    assert _written(header, rows) == _reference_csv(header, rows)


def test_eval_csv_equals_row_by_row_reference(tmp_path):
    cfg = base_config(eval={"m_points": 12, "p_points": 9,
                            "m_range": [20, 2500], "p_range": [1e-4, 10.0]})
    out = tmp_path / "surface.csv"
    assert main(["eval", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    links = linkset_for(scenario_from_config(cfg))
    ms = np.unique(np.round(np.geomspace(20, 2500, 12)).astype(int))
    ps = np.geomspace(1e-4, 10.0, 9)
    rows = []
    for m in ms:
        eps_b, eps_e = links.eps_pair(float(m), ps)
        eps_lf = lfp_from_errors(eps_b, eps_e)
        for j, p in enumerate(ps):
            rows.append([int(m), float(p), float(eps_b[j]), float(eps_e[j]),
                         float(eps_lf[j]), int(eps_lf[j] >= 0.5)])
    header = ["m", "p", "eps_b", "eps_e", "eps_lf", "flag_insecure"]
    assert out.read_text() == _reference_csv(header, rows)
    assert any(r[5] for r in rows) and not all(r[5] for r in rows)


@pytest.mark.parametrize("command, section", [
    ("eval", {"eval": {"m_points": 7, "p_points": 5}}),
    ("solve", {"oracle": {"p_points": 50, "refine_rounds": 1}}),
    ("sweep", {"sweep": {"variable": "z_b", "values": [1.0, 4.0],
                         "mode": "blocklength", "power": 0.1,
                         "thresholds": {"delta_max": 1e-3, "eps_b_max": 1e-3}}}),
    ("oracle", {"oracle": {"p_points": 50, "refine_rounds": 1}}),
])
def test_stdout_equals_file_output(tmp_path, capsys, command, section):
    cfg_path = write_config(tmp_path, base_config(**section))
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main([command, "--config", cfg_path]) == 0
    printed = capsys.readouterr().out
    assert printed.encode("utf-8") == out.read_bytes()
    assert printed.count("\n") >= 2
