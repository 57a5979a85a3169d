import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from ebusopt.cli import main
from ebusopt.instance import load_instance, save_instance
from _toys import charger_toy, charging_required_instance


@pytest.fixture
def runner():
    return CliRunner()


def test_generate_worst_case(runner, tmp_path):
    out = tmp_path / "wc.json"
    res = runner.invoke(main, ["generate", "worst-case", "--n", "3",
                               "--delta", "0.007", "--epsilon", "0.022",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output.strip().splitlines()[-1])
    assert payload["trips"] == 3
    inst = load_instance(out)
    assert len(inst.trips) == 3


def test_generate_worst_case_invalid_n_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["generate", "worst-case", "--n", "1",
                               "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 2
    assert "n >= 2" in res.output


def test_generate_synthetic_deterministic(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = runner.invoke(main, ["generate", "synthetic", "--trips", "8",
                                   "--seed", "7", "--out", str(out)])
        assert res.exit_code == 0, res.output
    assert a.read_bytes() == b.read_bytes()


def test_solve_toy_instance(runner, tmp_path):
    inst_path = tmp_path / "toy.json"
    save_instance(charging_required_instance(), inst_path)
    out = tmp_path / "run"
    res = runner.invoke(main, ["solve", str(inst_path), "--theta", "300",
                               "-m", "3", "--time-limit", "90",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output.strip().splitlines()[-1])
    assert summary["energy_feasible"] is True
    assert summary["fleet"] == 1
    assert (out / "schedule.json").exists()
    assert (out / "grid_load.csv").exists()
    assert (out / "config.json").exists()
    assert summary["config_hash"]


def test_solve_grid_cap_at_reference_peak(runner, tmp_path):
    # capping at 1.0x the unconstrained peak must not change the optimum
    inst_path = tmp_path / "toy.json"
    save_instance(charging_required_instance(), inst_path)
    base_out = tmp_path / "base"
    res = runner.invoke(main, ["solve", str(inst_path), "-m", "3",
                               "--time-limit", "90", "--out", str(base_out)])
    assert res.exit_code == 0, res.output
    base = json.loads(res.output.strip().splitlines()[-1])
    capped_out = tmp_path / "capped"
    res = runner.invoke(main, ["solve", str(inst_path), "-m", "3",
                               "--grid-cap", "1.0", "--time-limit", "90",
                               "--out", str(capped_out)])
    assert res.exit_code == 0, res.output
    capped = json.loads(res.output.strip().splitlines()[-1])
    assert capped["objective"] == pytest.approx(base["objective"], rel=1e-6)
    assert (capped_out / "reference").exists()


def test_solve_nan_grid_cap_exits_2(runner, tmp_path):
    inst_path = tmp_path / "toy.json"
    save_instance(charger_toy(), inst_path)
    res = runner.invoke(main, ["solve", str(inst_path), "--grid-cap", "nan",
                               "--time-limit", "30",
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2, res.output
    assert "grid limit override" in res.output
    assert not (tmp_path / "run" / "capped").exists()


def test_solve_missing_solver_exits_3(runner, tmp_path):
    inst_path = tmp_path / "toy.json"
    save_instance(charger_toy(), inst_path)
    res = runner.invoke(main, ["solve", str(inst_path), "--time-limit", "30",
                               "--solver-cmd",
                               "/no/such/solver {model} {solution}",
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 3
    assert "solver" in res.output.lower()


def test_solve_in_process_solver_failure_exits_3(runner, tmp_path,
                                                monkeypatch):
    import scipy.optimize

    def boom(*args, **kwargs):
        raise RuntimeError("HiGHS crashed")
    monkeypatch.setattr(scipy.optimize, "milp", boom)
    inst_path = tmp_path / "toy.json"
    save_instance(charger_toy(), inst_path)
    res = runner.invoke(main, ["solve", str(inst_path), "--time-limit", "30",
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 3
    assert "HiGHS crashed" in res.output


def test_import_leaves_scipy_optimize_unloaded():
    import ebusopt
    src = os.path.dirname(os.path.dirname(os.path.abspath(ebusopt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, ebusopt.cli, ebusopt.validate, ebusopt.milp; "
            "print('scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_solve_bad_instance_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    res = runner.invoke(main, ["solve", str(bad),
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2


def test_sweep_command(runner, tmp_path):
    inst_path = tmp_path / "toy.json"
    save_instance(charger_toy(horizon_s=7200, trip_consumption=0.3), inst_path)
    out = tmp_path / "sweep"
    res = runner.invoke(main, ["sweep", str(inst_path), "--m-grid", "2",
                               "--theta-grid", "600", "--time-limit", "60",
                               "--no-reference", "--out", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output.strip().splitlines()[-1])
    assert payload["cells"] == 1
    assert (out / "sweep.csv").exists()


@pytest.mark.parametrize("flag, strengthen", [([], True),
                                              (["--no-strengthen"], False)])
def test_sweep_records_strengthening(runner, tmp_path, flag, strengthen):
    inst_path = tmp_path / "toy.json"
    save_instance(charger_toy(horizon_s=7200, trip_consumption=0.3), inst_path)
    out = tmp_path / "sweep"
    res = runner.invoke(main, ["sweep", str(inst_path), "--m-grid", "2",
                               "--theta-grid", "600", "--time-limit", "60",
                               "--no-reference", "--out", str(out)] + flag)
    assert res.exit_code == 0, res.output
    config = json.loads((out / "config.json").read_text())
    assert config["strengthen"] is strengthen


def test_compare_estimators_command(runner, tmp_path):
    inst_path = tmp_path / "toy.json"
    save_instance(charging_required_instance(), inst_path)
    out = tmp_path / "cmp"
    res = runner.invoke(main, ["compare-estimators", str(inst_path),
                               "--theta", "300", "-m", "4",
                               "--time-limit", "90", "--out", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output.strip().splitlines()[-1])
    assert payload["objective_over"] <= payload["objective_under"] + 1e-6
    assert payload["objective_gap"] >= 0.0
    assert (out / "comparison.json").exists()
