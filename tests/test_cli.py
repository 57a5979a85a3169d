import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from ebusopt import cli
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


@pytest.mark.parametrize("kind, key, value, named", [
    ("chargers", "step_consumption", float("nan"), "step_consumption"),
    ("grid_points", "energy_price", [[0, 3600, float("inf")]],
     "energy_price"),
    ("grid_points", "max_power_kw", [[0, 3600, -5.0]], "max_power_kw")])
def test_solve_out_of_range_input_exits_2(runner, tmp_path, kind, key, value,
                                          named):
    doc = charger_toy().to_dict()
    doc[kind][0][key] = value
    inst_path = tmp_path / "bad.json"
    inst_path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["solve", str(inst_path),
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2, res.output
    assert named in res.output


def test_solve_convex_tabulated_profile_exits_2(runner, tmp_path):
    # chords of a convex profile's increment lie above it, so the
    # "underestimator" would overstate charging: the instance is refused
    doc = charger_toy().to_dict()
    socs = np.linspace(0.5, 1.0, 101)
    rates = 0.5 / 600.0 * ((1.0 - socs) / 0.5) ** 2
    doc["profiles"]["toy-quad"] = {
        "cc_rate_per_s": 0.5 / 600.0, "cv_break": 0.5,
        "cv_shape": "tabulated",
        "cv_points": [[a, b] for a, b in zip(socs.tolist(), rates.tolist())]}
    inst_path = tmp_path / "convex.json"
    inst_path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["solve", str(inst_path), "--time-limit", "30",
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2, res.output
    assert "concave" in res.output


@pytest.mark.parametrize("key, value", [
    ("cc_rate_per_s", float("inf"))])
def test_solve_meaningless_profile_number_exits_2(runner, tmp_path, key,
                                                  value):
    doc = charger_toy().to_dict()
    doc["profiles"]["toy-quad"][key] = value
    inst_path = tmp_path / "bad.json"
    inst_path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["solve", str(inst_path), "--time-limit", "30",
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2, res.output
    assert key.replace("_per_s", "") in res.output


@pytest.mark.parametrize("bound", [None, 0.0, float("nan")])
def test_old_curvature_bound_key_is_ignored(runner, tmp_path, bound):
    # the PWL error bound is derived from the profile; a file that still
    # declares one solves to the same schedule as a file without the key
    socs = np.linspace(0.5, 1.0, 101)
    rates = 0.5 / 600.0 * (1.0 - ((socs - 0.5) / 0.5) ** 2)
    table = {"cc_rate_per_s": 0.5 / 600.0, "cv_break": 0.5,
             "cv_shape": "tabulated",
             "cv_points": [[a, b] for a, b in zip(socs.tolist(), rates.tolist())]}
    schedules = []
    for extra in ({}, {"cv_second_derivative_bound": bound}):
        doc = charger_toy().to_dict()
        doc["profiles"]["toy-quad"] = {**table, **extra}
        inst_path = tmp_path / f"toy{len(extra)}.json"
        inst_path.write_text(json.dumps(doc))
        out = tmp_path / f"run{len(extra)}"
        res = runner.invoke(main, ["solve", str(inst_path), "--time-limit",
                                   "30", "--out", str(out)])
        assert res.exit_code == 0, res.output
        schedules.append((out / "schedule.json").read_bytes())
    assert schedules[1] == schedules[0]


@pytest.mark.parametrize("command", ["sweep", "solve",
                                     "compare-estimators"])
def test_nan_mix_coefficient_exits_2(runner, tmp_path, command):
    doc = charger_toy(mixed_fleet=True).to_dict()
    doc["mix_constraints"] = [{"plan_types": [["e0", "D0"], ["f0", "D0"]],
                               "coeffs": [float("nan"), 1.0], "lower": 1.0,
                               "upper": float("inf")}]
    inst_path = tmp_path / "mix.json"
    inst_path.write_text(json.dumps(doc))
    res = runner.invoke(main, [command, str(inst_path),
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2, res.output
    assert "mix_constraints[0].coeffs" in res.output


@pytest.mark.parametrize("limit", ["-5", "0", "nan"])
@pytest.mark.parametrize("command", ["sweep", "solve",
                                     "compare-estimators"])
def test_time_limit_that_cannot_run_exits_2(runner, tmp_path, command, limit):
    inst_path = tmp_path / "toy.json"
    save_instance(charger_toy(), inst_path)
    res = runner.invoke(main, [command, str(inst_path), "--time-limit", limit,
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2, res.output
    assert "is not > 0" in res.output
    assert not (tmp_path / "run").exists()


def test_negative_egress_lookahead_exits_2(runner, tmp_path):
    inst_path = tmp_path / "toy.json"
    save_instance(charger_toy(), inst_path)
    res = runner.invoke(main, ["solve", str(inst_path), "--time-limit", "30",
                               "--egress-lookahead", "-1",
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2, res.output
    assert "lookahead of -1 steps is negative" in res.output


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
    from scipy.optimize._highspy import _core

    def boom(*args, **kwargs):
        raise RuntimeError("HiGHS crashed")
    monkeypatch.setattr(_core, "_Highs", boom)
    inst_path = tmp_path / "toy.json"
    save_instance(charger_toy(), inst_path)
    res = runner.invoke(main, ["solve", str(inst_path), "--time-limit", "30",
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 3
    assert "HiGHS crashed" in res.output


# sha256 of the model and solution files `ebusopt solve` writes for
# charger_toy (time limit 60 s, other options at their defaults); the
# capped model has a 0 kW limit, so its dead steps get no columns; the
# solution files hold HiGHS's values to the last bit and the sign of zero,
# so a HiGHS option that changes the search path can move them
TOY_FILES_SHA256 = {
    ("lp", "model/model.lp"):
        "715fe232b864556958062a2c5af487e8b225995cc85dcebb6167443af260dfa7",
    ("lp", "model/model.sol"):
        "9fbb9d646442aa6ac5d1ca1254ae4ffbab371bb336e40f479aca4495cdc352b8",
    ("lp", "reference/model.lp"):
        "2c7449e355938acd1a38f6f83779da88bc0be1e2a490d55c027788f857622e65",
    ("lp", "reference/model.sol"):
        "9fbb9d646442aa6ac5d1ca1254ae4ffbab371bb336e40f479aca4495cdc352b8",
    ("lp", "capped/model.lp"):
        "3101829e73d35b94d068ba8c59ccdfab24e5877f772605d3c34d1729026ca5ef",
    ("lp", "capped/model.sol"):
        "30ac83c370074acfcb58e3bb9ac8bb25703497da705b8d683a934dba6923b368",
    ("mps", "model/model.mps"):
        "2720dd38e7a67ee95315e39108ca64f88e4d4dc771b11abc1eb5c371e2a52652",
    ("mps", "model/model.sol"):
        "c4eca90f711314cbc00813811bcb470a3c1dea4bb369986bc0de5b96896a108e",
    ("mps", "reference/model.mps"):
        "1738da81518cb6648175dd26a295545b418cf1ea6f3b6f93af5dfaee3c680454",
    ("mps", "reference/model.sol"):
        "c4eca90f711314cbc00813811bcb470a3c1dea4bb369986bc0de5b96896a108e",
    ("mps", "capped/model.mps"):
        "ad064a42ca2e7f7d527072bd5c4029e9567d15668e413697eb274a95bc657154",
    ("mps", "capped/model.sol"):
        "bb291071c785ad91e9818a68ed582bde067928ebd9518b7b7091e307632466e3",
}

# sha256 of the decoded and validated outputs of the same runs; the toy's
# one bus never charges, so both formats, capped or not, write these bytes
TOY_OUTPUTS_SHA256 = {
    "schedule.json":
        "d7f1d8566c71ebcb78c8369fadf56bfef5973d03cdda297366b3057dece9d73d",
    "validation.json":
        "311deb36135ab20076727a5b1494b1d981604c6073a07cb7eea8b4415804c6e0",
    "charge_steps.csv":
        "a092ad3e6b4c7d44a47880bdb9fe385b27cd60d0a055a7549016b7ab4c22d82b",
    "grid_load.csv":
        "abbdd63feaaf8df2c5702557113aaea8f06c30076645be549e193657520b29e7",
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
        for name, want in TOY_OUTPUTS_SHA256.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
                == want, name


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
    ("# status optimal\na nan\n", "a nan"),
    ("# status optimal\n# objective nan\n# bound nan\na 1\n",
     "objective nan"),
    ('<?xml version="1.0"?>\n<CPLEXSolution><header objectiveValue="1" '
     'solutionStatusString="optimal"/><variables><variable name="a" '
     'value="nan"/></variables></CPLEXSolution>\n', "'nan'"),
    ("# status optimal\n# objective n/a\na 1\n", "objective n/a"),
], ids=["text-value", "xml-value", "xml-objective", "text-value-nan",
        "text-objective-nan", "xml-value-nan", "text-objective-na"])
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


@pytest.mark.parametrize("m_grid, theta_grid, named", [
    ("", "600", "empty grid"), ("2", " , ", "empty grid"),
    ("2", "nan", "theta must be finite"),
    ("2", "600,inf", "theta must be finite")])
def test_sweep_grid_that_cannot_run_exits_2(runner, tmp_path, m_grid,
                                            theta_grid, named):
    inst_path = tmp_path / "toy.json"
    save_instance(charger_toy(horizon_s=7200), inst_path)
    res = runner.invoke(main, ["sweep", str(inst_path), "--m-grid", m_grid,
                               "--theta-grid", theta_grid,
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2, res.output
    assert "bad grid" in res.output and named in res.output
    assert not (tmp_path / "run").exists()


def test_sweep_in_process_writes_no_cell_files(runner, tmp_path):
    inst_path = tmp_path / "toy.json"
    save_instance(charger_toy(horizon_s=7200, trip_consumption=0.3), inst_path)
    out = tmp_path / "sweep"
    res = runner.invoke(main, ["sweep", str(inst_path), "--m-grid", "2,3",
                               "--theta-grid", "600", "--time-limit", "60",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert sorted(os.listdir(out)) == ["config.json", "sweep.csv"]


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    import ebusopt
    src = os.path.dirname(os.path.dirname(os.path.abspath(ebusopt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    lp, mps = tmp_path / "m.lp", tmp_path / "m.mps"
    lp.write_text("Minimize\n obj: x\nSubject To\n c: x >= 1\nEnd\n")
    mps.write_text("NAME m\nROWS\n N obj\n G c\nCOLUMNS\n x obj 1 c 1\n"
                   "RHS\n RHS c 1\nENDATA\n")
    # the package loads scipy only inside the calls that solve, so neither
    # an import nor a read of a model file loads any scipy module
    code = ("import sys, ebusopt.cli, ebusopt.validate, ebusopt.milp, "
            "ebusopt.lpformat, ebusopt.refsolver; "
            f"ebusopt.lpformat.read_lp({str(lp)!r}); "
            f"ebusopt.lpformat.read_mps({str(mps)!r}); "
            "print(any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules))")
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


def test_solve_negative_grid_cap_exits_2(runner, tmp_path):
    inst_path = tmp_path / "toy.json"
    save_instance(charger_toy(), inst_path)
    res = runner.invoke(main, ["solve", str(inst_path), "--grid-cap", "-0.5",
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2, res.output
    assert "grid-cap" in res.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kind, field, value", [
    ("vehicle_types", "battery_kwh", -50.0),
    ("vehicle_types", "fixed_cost", float("nan")),
    ("deadheads", "cost", {"e0": float("inf")})],
    ids=["battery_kwh", "fixed_cost", "deadhead_cost"])
def test_solve_invalid_costs_and_battery_exit_2(runner, tmp_path, kind, field,
                                                value):
    doc = charger_toy().to_dict()
    doc[kind][0][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["solve", str(path),
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2, res.output
    assert f"{field}" in json.loads(res.output.strip().splitlines()[-1])[
        "message"]


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


@pytest.mark.parametrize("args", [
    ["compare-estimators", "--time-limit", "90"],
    ["solve", "--grid-cap", "0.8", "--time-limit", "60"]],
    ids=["compare-estimators", "solve-grid-cap"])
def test_two_solves_share_the_curves_and_the_graph(runner, tmp_path,
                                                    monkeypatch, args):
    calls = Counter()
    for name in ("exact_curves", "build_graph"):
        def spy(*a, _real=getattr(cli, name), _name=name, **k):
            calls[_name] += 1
            return _real(*a, **k)
        monkeypatch.setattr(cli, name, spy)
    inst_path = tmp_path / "toy.json"
    save_instance(charging_required_instance(), inst_path)
    res = runner.invoke(main, [args[0], str(inst_path), *args[1:],
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    assert calls == {"exact_curves": 1, "build_graph": 1}


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
