"""Command-line front end for generation, solving, sweeps, and comparisons.

Exit codes are scriptable: 0 success, 2 invalid input, 3 solver or
environment failure, 4 model infeasible / no incumbent found.  Heavy output
goes to files in --out; stdout carries a single machine-readable JSON line.
Every run echoes its configuration (with a content hash) into the output
directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys

import click

from .chargemodel import ChargeModelError
from .generators import GenerationError, SyntheticParams, generate_synthetic, \
    generate_worst_case
from .instance import Instance, InstanceError, load_instance, save_instance
from .lpformat import LpFormatError, write_solution_text
from .milp import (DecodeError, ModelError, ModelOptions, build_model,
                   decode_solution, emit_model, save_schedule, solve_model)
from .netgraph import GraphError, GraphOptions, build_graph
from .solverbridge import SolverError, external_command
from .validate import (ValidationError, build_domains, discretization_sweep,
                       exact_curves, grid_load_profile,
                       save_validation_report, validate_schedule,
                       write_grid_load_csv, write_sweep_csv)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ENV = 3
EXIT_UNSOLVED = 4

_INPUT_ERRORS = (InstanceError, GenerationError, GraphError, ModelError,
                 ChargeModelError, LpFormatError, ValidationError, DecodeError,
                 ValueError)


def _fail(code: int, message: str):
    click.echo(json.dumps({"status": "error", "exit": code,
                           "message": message}))
    sys.exit(code)


def _time_limit(ctx, param, value: float) -> float:
    """A solver budget that can run: more than 0 s, or +inf for none."""
    if not value > 0:
        raise click.BadParameter(f"{value} s is not > 0")
    return value


def _emit_config(out_dir: str, config: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    payload = json.dumps(config, sort_keys=True, indent=2)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        fh.write(payload + "\n")
    return digest


@click.group()
def main():
    """Electric bus scheduling with nonlinear charging and grid limits."""


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

@main.group()
def generate():
    """Create instance files."""


@generate.command("worst-case")
@click.option("--n", type=int, required=True, help="number of trips")
@click.option("--delta", type=float, default=0.005, show_default=True)
@click.option("--epsilon", "epsilon_target", type=float, default=0.02,
              show_default=True)
@click.option("--estimator", type=click.Choice(["under", "over"]),
              default="under", show_default=True)
@click.option("--theta", type=float, default=300.0, show_default=True)
@click.option("--segments", type=int, default=2, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def cmd_generate_worst_case(n, delta, epsilon_target, estimator, theta,
                            segments, out):
    """Adversarial chain where the approximation misjudges the fleet size."""
    try:
        inst = generate_worst_case(n, delta, epsilon_target,
                                   estimator=estimator, theta=theta,
                                   segments=segments)
    except _INPUT_ERRORS as exc:
        _fail(EXIT_INPUT, str(exc))
    save_instance(inst, out)
    click.echo(json.dumps({"status": "ok", "instance": out,
                           "trips": len(inst.trips),
                           "deficit": inst.meta["deficit_achieved"]}))


@generate.command("synthetic")
@click.option("--trips", type=int, default=20, show_default=True)
@click.option("--electric-types", type=int, default=1, show_default=True)
@click.option("--non-electric-types", type=int, default=0, show_default=True)
@click.option("--depots", type=int, default=1, show_default=True)
@click.option("--chargers", type=int, default=1, show_default=True)
@click.option("--slots", type=int, default=2, show_default=True)
@click.option("--grid-points", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def cmd_generate_synthetic(trips, electric_types, non_electric_types, depots,
                           chargers, slots, grid_points, seed, out):
    """Random feasible-by-construction network."""
    try:
        params = SyntheticParams(trips=trips, electric_types=electric_types,
                                 non_electric_types=non_electric_types,
                                 depots=depots, chargers=chargers,
                                 slots_per_charger=slots,
                                 grid_points=grid_points)
        inst = generate_synthetic(params, seed)
    except _INPUT_ERRORS as exc:
        _fail(EXIT_INPUT, str(exc))
    save_instance(inst, out)
    click.echo(json.dumps({"status": "ok", "instance": out,
                           "trips": len(inst.trips), "seed": seed}))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _load(instance_path: str) -> Instance:
    try:
        return load_instance(instance_path)
    except _INPUT_ERRORS as exc:
        _fail(EXIT_INPUT, f"cannot load instance: {exc}")


def _pipeline_solve(curves, graph, segments, estimator, out_dir, solver_cmd,
                    time_limit, threads, strengthen, precondition_lead,
                    grid_limit_override=None, fmt="lp", tag="model"):
    domains = build_domains(graph.instance, curves, graph.theta, segments,
                            estimator)
    options = ModelOptions(use_strengthening=strengthen,
                           precondition_lead=precondition_lead,
                           grid_limit_override=grid_limit_override)
    model = build_model(graph, domains, options)
    raw = _solve_into(model, os.path.join(out_dir, tag), solver_cmd, fmt,
                      time_limit, threads)
    return domains, model, raw


def _solve_into(model, workdir, solver_cmd, fmt, time_limit, threads):
    """``solve_model`` that leaves ``model.<fmt>`` and ``model.sol`` in
    ``workdir`` on either path: the bridge writes them itself, the
    in-process solve writes none, so they are written here."""
    in_process = not external_command(solver_cmd)
    if in_process:
        os.makedirs(workdir, exist_ok=True)
        emit_model(model, fmt, os.path.join(workdir, f"model.{fmt}"))
    raw = solve_model(model, workdir, command_template=solver_cmd, fmt=fmt,
                      time_limit=time_limit, threads=threads)
    if in_process:
        write_solution_text(os.path.join(workdir, "model.sol"), raw.values,
                            raw.status, raw.objective, raw.bound)
    return raw


@main.command("solve")
@click.argument("instance_path", type=click.Path(exists=True))
@click.option("--theta", type=float, default=300.0, show_default=True,
              help="time step in seconds")
@click.option("--segments", "-m", type=int, default=4, show_default=True,
              help="PWL segments of the increment domain")
@click.option("--estimator", type=click.Choice(["under", "over", "linear"]),
              default="under", show_default=True)
@click.option("--grid-cap", type=click.FloatRange(min=0.0), default=None,
              help="re-solve with grid limits at this fraction of the "
                   "unconstrained solution's peak")
@click.option("--solver-cmd", default=None,
              help="command template with {model} {solution} {timelimit} "
                   "{threads}; default: HiGHS in process")
@click.option("--time-limit", type=float, default=600.0, show_default=True,
              callback=_time_limit)
@click.option("--threads", type=int, default=1, show_default=True)
@click.option("--strengthen/--no-strengthen", default=True, show_default=True)
@click.option("--precondition-lead", type=int, default=0, show_default=True)
@click.option("--egress-lookahead", type=int, default=None,
              help="limit charger egress arcs to this many steps before the "
                   "latest feasible departure (smaller = faster, coarser)")
@click.option("--format", "fmt", type=click.Choice(["lp", "mps"]),
              default="lp", show_default=True)
@click.option("--out", type=click.Path(file_okay=False), default="ebusopt-out",
              show_default=True)
def cmd_solve(instance_path, theta, segments, estimator, grid_cap, solver_cmd,
              time_limit, threads, strengthen, precondition_lead,
              egress_lookahead, fmt, out):
    """Build the model, solve it, decode, and validate."""
    inst = _load(instance_path)
    config = {"command": "solve", "instance": instance_path, "theta": theta,
              "segments": segments, "estimator": estimator,
              "grid_cap": grid_cap, "time_limit": time_limit,
              "strengthen": strengthen,
              "precondition_lead": precondition_lead,
              "egress_lookahead": egress_lookahead, "format": fmt}
    digest = _emit_config(out, config)
    try:
        curves = exact_curves(inst)
        graph = build_graph(inst, theta, GraphOptions(
            egress_lookahead_steps=egress_lookahead))
        # with a grid cap, a solve without caps first fixes the peak
        capped = grid_cap is not None
        domains, model, raw = _pipeline_solve(
            curves, graph, segments, estimator, out, solver_cmd, time_limit,
            threads, strengthen, precondition_lead,
            grid_limit_override=({gp.id: math.inf for gp in inst.grid_points}
                                 if capped else None),
            fmt=fmt, tag="reference" if capped else "model")
        if capped:
            if not raw.has_incumbent:
                _fail(EXIT_UNSOLVED,
                      f"reference solve found no schedule ({raw.status})")
            ref_sched = decode_solution(model, raw)
            ref_load = grid_load_profile(inst, ref_sched)
            override = {gid: max(float(series.max()) * grid_cap, 0.0)
                        for gid, series in ref_load.items()}
            options = ModelOptions(use_strengthening=strengthen,
                                   precondition_lead=precondition_lead,
                                   grid_limit_override=override)
            model = build_model(graph, domains, options)
            raw = _solve_into(model, os.path.join(out, "capped"), solver_cmd,
                              fmt, time_limit, threads)
    except SolverError as exc:
        _fail(EXIT_ENV, f"{exc} (command: {exc.command})")
    except _INPUT_ERRORS as exc:
        _fail(EXIT_INPUT, str(exc))

    if raw.status in ("infeasible", "unbounded") or not raw.has_incumbent:
        _fail(EXIT_UNSOLVED, f"no schedule: solver status {raw.status}")
    try:
        sched = decode_solution(model, raw)
        report = validate_schedule(inst, sched, graph, mode="exact",
                                   curves=curves)
        approx_report = None
        if estimator in ("under", "over"):
            approx_report = validate_schedule(inst, sched, graph,
                                              mode=f"approx-{estimator}",
                                              curves=curves, domains=domains)
    except _INPUT_ERRORS as exc:
        _fail(EXIT_INPUT, f"decode/validate failed: {exc}")

    save_schedule(sched, os.path.join(out, "schedule.json"))
    sched.write_phi_csv(os.path.join(out, "charge_steps.csv"))
    write_grid_load_csv(report.grid_load, os.path.join(out, "grid_load.csv"))
    save_validation_report(report, os.path.join(out, "validation.json"))
    summary = {
        "status": raw.status,
        "config_hash": digest,
        "objective": sched.objective,
        "solver_objective": raw.objective,
        "bound": raw.bound,
        "fleet": sched.fleet_size,
        "energy_feasible": report.energy_feasible,
        "weakly_feasible": (approx_report.weakly_feasible
                            if approx_report else report.weakly_feasible),
        "out": out,
    }
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
    click.echo(json.dumps(summary, sort_keys=True))
    if not report.energy_feasible:
        sys.exit(EXIT_UNSOLVED)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

@main.command("sweep")
@click.argument("instance_path", type=click.Path(exists=True))
@click.option("--m-grid", default="2,3,4,10", show_default=True)
@click.option("--theta-grid", default="60,300,600", show_default=True)
@click.option("--time-limit", type=float, default=300.0, show_default=True,
              callback=_time_limit, help="per-cell solver budget in seconds")
@click.option("--solver-cmd", default=None)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--no-reference", is_flag=True,
              help="skip the linear-charging reference schedule check")
@click.option("--strengthen/--no-strengthen", default=True, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), default="ebusopt-sweep",
              show_default=True)
def cmd_sweep(instance_path, m_grid, theta_grid, time_limit, solver_cmd,
              workers, no_reference, strengthen, out):
    """Solve over an (m, theta) grid and tabulate objective/bound/gap rows."""
    inst = _load(instance_path)
    try:
        ms = [int(v) for v in m_grid.split(",") if v.strip()]
        thetas = [float(v) for v in theta_grid.split(",") if v.strip()]
        if not (ms and thetas):
            raise ValueError("an empty grid runs no cell")
        if not all(map(math.isfinite, thetas)):
            raise ValueError(f"theta must be finite, got {theta_grid!r}")
    except ValueError as exc:
        _fail(EXIT_INPUT, f"bad grid: {exc}")
    config = {"command": "sweep", "instance": instance_path, "m_grid": ms,
              "theta_grid": thetas, "time_limit": time_limit,
              "strengthen": strengthen}
    digest = _emit_config(out, config)
    rows = discretization_sweep(inst, ms, thetas, solver_cmd=solver_cmd,
                                time_limit=time_limit,
                                workdir=os.path.join(out, "cells"),
                                workers=workers,
                                check_reference=not no_reference,
                                strengthen=strengthen)
    path = os.path.join(out, "sweep.csv")
    write_sweep_csv(rows, path)
    solved = sum(1 for r in rows if r.objective is not None)
    click.echo(json.dumps({"status": "ok" if solved else "error",
                           "config_hash": digest,
                           "cells": len(rows), "solved": solved,
                           "csv": path}))
    if solved == 0:
        # no schedule because the solver could not run is an environment
        # failure, not an infeasible model
        sys.exit(EXIT_ENV if any(r.solver_failed for r in rows)
                 else EXIT_UNSOLVED)


# ---------------------------------------------------------------------------
# compare estimators
# ---------------------------------------------------------------------------

@main.command("compare-estimators")
@click.argument("instance_path", type=click.Path(exists=True))
@click.option("--theta", type=float, default=300.0, show_default=True)
@click.option("--segments", "-m", type=int, default=4, show_default=True)
@click.option("--time-limit", type=float, default=600.0, show_default=True,
              callback=_time_limit)
@click.option("--solver-cmd", default=None)
@click.option("--threads", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(file_okay=False),
              default="ebusopt-compare", show_default=True)
def cmd_compare_estimators(instance_path, theta, segments, time_limit,
                           solver_cmd, threads, out):
    """Solve with the under- and overestimating domains and report the gaps.

    The relative gap between two values a (over) and b (under) is
    |a - b| / ((a + b) / 2); with a tight discretization both objective and
    bound gaps collapse toward zero.
    """
    inst = _load(instance_path)
    config = {"command": "compare-estimators", "instance": instance_path,
              "theta": theta, "segments": segments, "time_limit": time_limit}
    digest = _emit_config(out, config)
    results = {}
    try:
        # neither the curves nor the graph depend on the estimator
        curves = exact_curves(inst)
        graph = build_graph(inst, theta)
        for est in ("under", "over"):
            _, _, raw = _pipeline_solve(
                curves, graph, segments, est, out, solver_cmd, time_limit,
                threads, strengthen=True, precondition_lead=0, tag=est)
            if not raw.has_incumbent:
                _fail(EXIT_UNSOLVED, f"{est} solve failed: {raw.status}")
            if raw.objective is None:
                _fail(EXIT_ENV, f"{est} solve reported an incumbent "
                                f"without an objective ({raw.status})")
            results[est] = raw
    except SolverError as exc:
        _fail(EXIT_ENV, str(exc))
    except _INPUT_ERRORS as exc:
        _fail(EXIT_INPUT, str(exc))

    def rel_gap(a, b):
        mid = 0.5 * (a + b)
        return abs(a - b) / mid if mid else 0.0

    over, under = results["over"], results["under"]
    report = {
        "status": "ok",
        "config_hash": digest,
        "objective_under": under.objective,
        "objective_over": over.objective,
        "bound_under": under.bound,
        "bound_over": over.bound,
        "objective_gap": rel_gap(over.objective, under.objective),
        "bound_gap": (rel_gap(over.bound, under.bound)
                      if over.bound is not None and under.bound is not None
                      else None),
    }
    with open(os.path.join(out, "comparison.json"), "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
    click.echo(json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    main()
