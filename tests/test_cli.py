import json
import subprocess
import sys

import pytest

from fblsec.cli import main


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
])
def test_malformed_section_exits_2(tmp_path, capsys, command, section):
    cfg = [1, 2] if section is None else base_config(**section)
    path = write_config(tmp_path, cfg)
    assert main([command, "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_sweep_variable_exits_2(tmp_path):
    cfg = base_config(sweep={"variable": "nonsense", "values": [1.0],
                             "mode": "joint"})
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 2


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path)]) == 2


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


def test_threads_env_override_still_deterministic(tmp_path, monkeypatch):
    cfg = base_config(sweep={
        "variable": "z_b",
        "values": [1.5, 1.7, 1.9, 2.1],
        "mode": "joint",
    })
    cfg_path = write_config(tmp_path, cfg)
    out1 = tmp_path / "seq.csv"
    assert main(["sweep", "--config", cfg_path, "--out", str(out1)]) == 0
    monkeypatch.setenv("FBLSEC_THREADS", "4")
    out2 = tmp_path / "par.csv"
    assert main(["sweep", "--config", cfg_path, "--threads", "1",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_console_entry_point_runs(tmp_path):
    cfg = base_config(eval={"m_points": 2, "p_points": 2,
                            "m_range": [100, 200], "p_range": [0.1, 1.0]})
    cfg_path = write_config(tmp_path, cfg)
    proc = subprocess.run(
        [sys.executable, "-m", "fblsec.cli", "eval", "--config", cfg_path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("m,p,eps_b,eps_e,eps_lf,flag_insecure")
