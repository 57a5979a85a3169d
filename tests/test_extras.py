"""Coverage for the remaining interface corners: mix constraints, charger
availability snapping, env-var solver override,
recharge-arc idle draw, sweep workers, and large-shape generation."""

import dataclasses
import json

import pytest

from ebusopt.cli import main
from ebusopt.generators import SyntheticParams, generate_synthetic
from ebusopt.instance import MixConstraint
from ebusopt.milp import ModelOptions, build_model, decode_solution, solve_model
from ebusopt.netgraph import GraphOptions, build_graph
from ebusopt.solverbridge import SOLVER_ENV_VAR, resolve_solver_command
from ebusopt.validate import (build_domains, discretization_sweep,
                              exact_curves, save_validation_report,
                              validate_schedule)
from _oracles import arc_records
from _toys import charger_toy, charging_required_instance, two_trip_instance


def test_mix_constraint_rows_and_infeasibility(tmp_path):
    # two time-overlapping trips need two buses; a mix cap of one bus is
    # infeasible, a cap of two is not
    inst = two_trip_instance()
    overlap = dataclasses.replace(
        inst.trips[1], departure_s=700, arrival_s=1900)
    for cap, expect in ((1.0, "infeasible"), (2.0, "optimal")):
        mixed = dataclasses.replace(
            inst, trips=(inst.trips[0], overlap),
            mix_constraints=(MixConstraint((("e0", "D0"),), (1.0,), 0.0, cap),))
        graph = build_graph(mixed, 300.0)
        model = build_model(graph, {}, ModelOptions())
        assert "mix" in model.rows_by_tag()
        raw = solve_model(model, str(tmp_path / f"mix{int(cap)}"),
                          time_limit=60)
        assert raw.status == expect


def test_short_window_snaps_to_zero_and_infeasible(tmp_path):
    # the availability window (after the trip) is shorter than theta=600:
    # snapping leaves no usable step
    inst = charging_required_instance()
    charger = dataclasses.replace(inst.chargers[0], windows=((2700, 3250),))
    windowed = dataclasses.replace(inst, chargers=(charger,))
    curves = exact_curves(windowed)

    graph = build_graph(windowed, 600.0, GraphOptions(egress_lookahead_steps=12))
    domains = build_domains(windowed, curves, 600.0, 3, "under")
    model = build_model(graph, domains, ModelOptions())
    raw = solve_model(model, str(tmp_path / "snapped"), time_limit=60)
    assert raw.status == "infeasible"

    # at theta=300 the window contains one full step and charging works
    graph = build_graph(windowed, 300.0, GraphOptions(egress_lookahead_steps=12))
    domains = build_domains(windowed, curves, 300.0, 3, "under")
    model = build_model(graph, domains, ModelOptions())
    raw = solve_model(model, str(tmp_path / "fits"), time_limit=60)
    assert raw.status == "optimal"


def test_recharge_arc_idle_draw(tmp_path):
    inst = charging_required_instance()
    charger = dataclasses.replace(inst.chargers[0], step_consumption=0.002)
    drawing = dataclasses.replace(inst, chargers=(charger,))
    curves = exact_curves(drawing)
    graph = build_graph(drawing, 300.0, GraphOptions(egress_lookahead_steps=24))
    for a in arc_records(graph):
        if a.kind == "recharge":
            assert a.consumption("e0.D0") == pytest.approx(0.002)
    domains = build_domains(drawing, curves, 300.0, 4, "under")
    model = build_model(graph, domains, ModelOptions())
    raw = solve_model(model, str(tmp_path), time_limit=90)
    assert raw.has_incumbent
    sched = decode_solution(model, raw)
    report = validate_schedule(drawing, sched, graph, "exact", curves)
    assert report.energy_feasible


def test_validation_report_document(tmp_path):
    inst = charging_required_instance()
    curves = exact_curves(inst)
    graph = build_graph(inst, 300.0, GraphOptions(egress_lookahead_steps=24))
    domains = build_domains(inst, curves, 300.0, 4, "under")
    model = build_model(graph, domains, ModelOptions())
    raw = solve_model(model, str(tmp_path), time_limit=90)
    sched = decode_solution(model, raw)
    report = validate_schedule(inst, sched, graph, "exact", curves)
    path = tmp_path / "report.json"
    save_validation_report(report, path)
    doc = json.loads(path.read_text())
    assert doc["format"] == "ebusopt-validation"
    assert doc["strongly_feasible"] == (doc["energy_feasible"]
                                        and doc["weakly_feasible"])
    assert doc["courses"][0]["soc_exact"][0] == 1.0


def test_solver_env_override(monkeypatch):
    monkeypatch.setenv(SOLVER_ENV_VAR, "mysolver {model} {solution}")
    assert resolve_solver_command() == "mysolver {model} {solution}"
    assert "refsolver" in resolve_solver_command("{python} -m ebusopt.refsolver"
                                                 " {model} {solution}")
    monkeypatch.delenv(SOLVER_ENV_VAR)
    assert "refsolver" in resolve_solver_command()


def test_sweep_with_worker_pool(tmp_path):
    inst = charger_toy(horizon_s=7200, trip_consumption=0.3)
    rows = discretization_sweep(inst, [2, 3], [600.0], time_limit=60,
                                workdir=str(tmp_path), workers=2,
                                check_reference=False)
    assert len(rows) == 2
    assert all(r.objective is not None for r in rows)
    serial = discretization_sweep(inst, [2, 3], [600.0], time_limit=60,
                                  workdir=str(tmp_path / "serial"), workers=1,
                                  check_reference=False)
    assert rows == serial


def test_large_shape_generation_smoke():
    # shape echoing the biggest single-depot library row: 121 trips,
    # 3 slots, 1 grid point, 1 depot, 1 electric type
    params = SyntheticParams(trips=121, chargers=1, slots_per_charger=3,
                             grid_points=1, depots=1, electric_types=1)
    inst = generate_synthetic(params, seed=0)
    assert len(inst.trips) == 121
    assert inst.chargers[0].slots == 3
    inst.validate()


def test_cli_solve_defaults_match_recommended():
    params = {p.name: p.default for p in main.commands["solve"].params}
    assert params["theta"] == 300.0
    assert params["segments"] == 4
    assert params["estimator"] == "under"
