import hashlib
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


def test_solve_duplicate_trip_id_exits_2(runner, tmp_path):
    inst = charger_toy()
    doc = inst.to_dict()
    doc["trips"][1]["id"] = doc["trips"][0]["id"]
    inst_path = tmp_path / "dup.json"
    inst_path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["solve", str(inst_path),
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2, res.output
    assert "duplicate id 't1'" in res.output


@pytest.mark.parametrize("template, named", [
    ("echo {model} {solver}", "unknown placeholder {solver}"),
    ("echo {model} {0}", "unknown placeholder {0}"),
    ("echo {model} }", "Single '}'")])
def test_solve_bad_solver_template_exits_3(runner, tmp_path, template,
                                           named):
    inst_path = tmp_path / "toy.json"
    save_instance(charger_toy(), inst_path)
    res = runner.invoke(main, ["solve", str(inst_path), "--time-limit", "30",
                               "--solver-cmd", template,
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 3, res.output
    line = json.loads(res.output.strip().splitlines()[-1])
    assert (line["status"], line["exit"]) == ("error", 3)
    assert named in line["message"]


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


# sha256 of the model and solution files `ebusopt solve` writes for
# charger_toy (time limit 60 s, other options at their defaults)
TOY_FILES_SHA256 = {
    ("lp", "model/model.lp"):
        "715fe232b864556958062a2c5af487e8b225995cc85dcebb6167443af260dfa7",
    ("lp", "model/model.sol"):
        "9bcd3985e6feacc2732f1f31bcc10b36b5ea2e2b448dbdf62fab9e11a5071399",
    ("lp", "reference/model.lp"):
        "2c7449e355938acd1a38f6f83779da88bc0be1e2a490d55c027788f857622e65",
    ("lp", "reference/model.sol"):
        "9bcd3985e6feacc2732f1f31bcc10b36b5ea2e2b448dbdf62fab9e11a5071399",
    ("lp", "capped/model.lp"):
        "a8520413ef0ab280f5b39016cb3ce25856249f4c1fd743ba9e9030da1f9afd81",
    ("lp", "capped/model.sol"):
        "b1160f1be696c7c9bcdd02c0a5bdf322a97b8c9cfead296b10232a222543680c",
    ("mps", "model/model.mps"):
        "2720dd38e7a67ee95315e39108ca64f88e4d4dc771b11abc1eb5c371e2a52652",
    ("mps", "model/model.sol"):
        "a2f7fbca011fe29c618ae9bc718ee11a307878a62cf7957b34735b09fdb4af1d",
    ("mps", "reference/model.mps"):
        "1738da81518cb6648175dd26a295545b418cf1ea6f3b6f93af5dfaee3c680454",
    ("mps", "reference/model.sol"):
        "a2f7fbca011fe29c618ae9bc718ee11a307878a62cf7957b34735b09fdb4af1d",
    ("mps", "capped/model.mps"):
        "f0579c9d2ac9f8359abb141e5120a47d03ca08a645d7c5a9e58401af413f54f6",
    ("mps", "capped/model.sol"):
        "4f48f203cbb82e1ddac0e58c94dbbccca521bbc6af9555eada95da4214e5cc8e",
}


@pytest.mark.parametrize("fmt", ["lp", "mps"])
def test_solve_writes_model_and_solution_files(runner, tmp_path, fmt):
    inst_path = tmp_path / "toy.json"
    save_instance(charger_toy(), inst_path)
    for extra, subdirs in (([], ["model"]),
                           (["--grid-cap", "0.5"], ["reference", "capped"])):
        out = tmp_path / f"run{len(extra)}"
        res = runner.invoke(main, ["solve", str(inst_path), "--format", fmt,
                                   "--time-limit", "60", "--out", str(out)]
                            + extra)
        assert res.exit_code == 0, res.output
        for sub in subdirs:
            assert sorted(os.listdir(out / sub)) == sorted(
                [f"model.{fmt}", "model.sol"])
            for name in (f"model.{fmt}", "model.sol"):
                digest = hashlib.sha256(
                    (out / sub / name).read_bytes()).hexdigest()
                assert digest == TOY_FILES_SHA256[(fmt, f"{sub}/{name}")]


def _solver_cmd(tmp_path, solution_text):
    """A solver command that writes ``solution_text`` and exits 0."""
    script = tmp_path / "fake_solver.py"
    script.write_text("import sys\n"
                      f"open(sys.argv[1], 'w').write({solution_text!r})\n")
    return f"{{python}} {script} {{solution}}"


@pytest.mark.parametrize("solution_text, message", [
    ("# status optimal\na 1,5\n", "a 1,5"),
    ('<?xml version="1.0"?>\n<CPLEXSolution><header objectiveValue="1" '
     'solutionStatusString="optimal"/><variables><variable name="a" '
     'value="one"/></variables></CPLEXSolution>\n', "'one'"),
    ('<?xml version="1.0"?>\n<CPLEXSolution><header objectiveValue="n/a" '
     'solutionStatusString="optimal"/><variables><variable name="a" '
     'value="1"/></variables></CPLEXSolution>\n', "objectiveValue"),
], ids=["text-value", "xml-value", "xml-objective"])
def test_solve_non_numeric_solution_exits_3(runner, tmp_path, solution_text,
                                            message):
    inst_path = tmp_path / "toy.json"
    save_instance(charger_toy(), inst_path)
    res = runner.invoke(main, ["solve", str(inst_path), "--time-limit", "30",
                               "--solver-cmd",
                               _solver_cmd(tmp_path, solution_text),
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 3, res.output
    assert "cannot parse solution file" in res.output
    assert message in res.output


def test_sweep_missing_solver_exits_3(runner, tmp_path):
    inst_path = tmp_path / "toy.json"
    save_instance(charger_toy(horizon_s=7200, trip_consumption=0.3), inst_path)
    out = tmp_path / "sweep"
    res = runner.invoke(main, ["sweep", str(inst_path), "--m-grid", "2",
                               "--theta-grid", "600", "--time-limit", "30",
                               "--solver-cmd",
                               "/no/such/solver {model} {solution}",
                               "--no-reference", "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert "not found" in (out / "sweep.csv").read_text()
    assert json.loads(res.output.strip().splitlines()[-1])["status"] == "error"


def test_sweep_in_process_writes_no_cell_files(runner, tmp_path):
    inst_path = tmp_path / "toy.json"
    save_instance(charger_toy(horizon_s=7200, trip_consumption=0.3), inst_path)
    out = tmp_path / "sweep"
    res = runner.invoke(main, ["sweep", str(inst_path), "--m-grid", "2,3",
                               "--theta-grid", "600", "--time-limit", "60",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert sorted(os.listdir(out)) == ["config.json", "sweep.csv"]


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
    for est in ("under", "over"):
        assert sorted(os.listdir(out / est)) == ["model.lp", "model.sol"]


def test_compare_estimators_incumbent_without_objective_exits_3(runner,
                                                                 tmp_path):
    inst_path = tmp_path / "toy.json"
    save_instance(charging_required_instance(), inst_path)
    res = runner.invoke(main, ["compare-estimators", str(inst_path),
                               "--time-limit", "30", "--solver-cmd",
                               _solver_cmd(tmp_path, "# status optimal\nx 1\n"),
                               "--out", str(tmp_path / "cmp")])
    assert res.exit_code == 3, res.output
    payload = json.loads(res.output.strip().splitlines()[-1])
    assert payload["status"] == "error" and payload["exit"] == 3
    assert payload["message"].startswith("under solve")
