"""The benchmark's workloads: instance generation, one op, and its checks.

An op takes one generated instance through its workload's pipeline, calling
the public functions in the order ``ebusopt.cli`` uses them.  Every call
into a layer sits in a ``Recorder`` span; output checks sit in a CHECK
span so they stay out of the op's wall time.

* ``chains``: worst-case chains n = 3, 4, 5 under both estimators, each a
  full solve through the default solver bridge with LP files.
* ``synth20``: the acceptance suite's 20-trip instance, solved to
  optimality through the default bridge.
* ``synth300-build``: a 300-trip instance of the same shape; the model is
  built and round-tripped through LP and MPS, never solved.
"""

from __future__ import annotations

import json
import os
import random
import shlex
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ebusopt.generators import (SyntheticParams, generate_synthetic,
                                generate_worst_case)
from ebusopt.instance import Instance
from ebusopt.lpformat import parse_solution_file
from ebusopt.milp import (build_model, decode_solution, emit_model,
                          ModelOptions, solve_model)
from ebusopt.netgraph import GraphOptions, build_graph
from ebusopt.refsolver import load_model
from ebusopt.solverbridge import solve_external
from ebusopt.validate import (build_domains, exact_curves,
                              grid_load_profile, validate_schedule)

from spans import CHECK

THETA = 300.0
TIME_LIMIT_S = 120.0
SYNTH20_OBJECTIVE = 4446.2124
SYNTH20_FLEET = 4

TRACED_SOLVER_CMD = ("{python} "
                     + shlex.quote(os.path.join(os.path.dirname(
                         os.path.abspath(__file__)), "tracedsolver.py"))
                     + " {model} {solution} --time-limit {timelimit}"
                       " --threads {threads}")


@dataclass
class Job:
    label: str
    instance: Instance
    estimator: str
    segments: int
    lookahead: Optional[int]
    golden: Callable[["OpResult"], list]


@dataclass
class OpResult:
    job: Job
    curves: Any = None
    graph: Any = None
    domains: Any = None
    model: Any = None
    raw: Any = None
    schedule: Any = None
    exact: Any = None
    approx: Any = None
    solver_trace: Optional[dict] = None   # the traced solver's side file
    model_bytes: int = 0
    problems: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    jobs: list
    run_op: Callable
    shuffle_seed: Optional[int] = None

    def passes(self):
        """Endless passes over the jobs; one pass holds every job once."""
        rng = random.Random(self.shuffle_seed)
        while True:
            order = list(self.jobs)
            if self.shuffle_seed is not None:
                rng.shuffle(order)
            yield order


# ---------------------------------------------------------------------------
# golden outcomes
# ---------------------------------------------------------------------------

def _eps_problems(res: OpResult) -> list:
    out = []
    for report in (res.exact, res.approx):
        for c in report.courses:
            if c.eps_bound is not None and c.max_abs_eps > c.eps_bound:
                out.append(f"{report.mode} course {c.course_index}: |eps| "
                           f"{c.max_abs_eps:.6g} > bound {c.eps_bound:.6g}")
    return out


def _chain_golden(n: int, estimator: str):
    def check(res: OpResult) -> list:
        out = _eps_problems(res)
        fleet, feasible = res.schedule.fleet_size, res.exact.energy_feasible
        if res.raw.status != "optimal":
            out.append(f"status {res.raw.status}")
        if estimator == "under" and (fleet != n or not feasible):
            out.append(f"want fleet {n} and exact-feasible, got fleet "
                       f"{fleet}, feasible={feasible}")
        if estimator == "over" and (fleet != 1 or feasible):
            out.append(f"want fleet 1 and exact-infeasible, got fleet "
                       f"{fleet}, feasible={feasible}")
        return out
    return check


def _synth20_golden(res: OpResult) -> list:
    out = _eps_problems(res)
    obj = res.schedule.objective
    if res.raw.status != "optimal":
        out.append(f"status {res.raw.status}")
    if res.schedule.fleet_size != SYNTH20_FLEET:
        out.append(f"fleet {res.schedule.fleet_size} != {SYNTH20_FLEET}")
    if abs(obj - SYNTH20_OBJECTIVE) > 1e-6 * SYNTH20_OBJECTIVE:
        out.append(f"objective {obj!r} != {SYNTH20_OBJECTIVE}")
    if not res.exact.energy_feasible:
        out.append("schedule is not feasible under the exact physics")
    return out


def _roundtrip_problems(model, parsed, fmt: str) -> list:
    want = (model.num_variables, len(model.rows),
            sum(len(r.coeffs) for r in model.rows))
    got = (len(parsed.variables), len(parsed.rows),
           sum(len(r[1]) for r in parsed.rows))
    out = []
    if got != want:
        out.append(f"{fmt} read back vars/rows/nnz {got}, model has {want}")
    objective = {v.name: v.obj for v in model.variables if v.obj != 0.0}
    read = {k: c for k, c in parsed.objective.items() if c != 0.0}
    if read != objective or parsed.minimize != model.minimize:
        out.append(f"{fmt} read back a different objective vector")
    return out


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def _build(job: Job, rec) -> OpResult:
    res = OpResult(job)
    with rec.span("chargemodel.curves"):
        res.curves = exact_curves(job.instance)
    with rec.span("netgraph.build"):
        res.graph = build_graph(
            job.instance, THETA,
            GraphOptions(egress_lookahead_steps=job.lookahead))
    with rec.span("chargemodel.domains"):
        res.domains = build_domains(job.instance, res.curves, THETA,
                                    job.segments, job.estimator)
    with rec.span("milp.assemble"):
        res.model = build_model(res.graph, res.domains,
                                ModelOptions(use_strengthening=True))
    return res


def _traced_solve(res: OpResult, rec, workdir: str):
    """``solve_model`` split in its emit and bridge halves, with the
    benchmark's solver wrapper in place of the default command."""
    model_path = os.path.join(workdir, "model.lp")
    with rec.span("lpformat.emit_lp"):
        emit_model(res.model, "lp", model_path)
    res.model_bytes = os.path.getsize(model_path)
    with rec.span("solverbridge.wait"):
        raw = solve_external(model_path, command_template=TRACED_SOLVER_CMD,
                             time_limit=TIME_LIMIT_S, threads=1)
        sol_path = model_path.rsplit(".", 1)[0] + ".sol"
        with open(sol_path + ".trace.json") as fh:
            res.solver_trace = json.load(fh)
        for s in res.solver_trace["spans"]:
            rec.add_child(s["name"], s["start"], s["end"])
    # the bridge parses the solution file inside the wait; parse it once more
    # on its own so that cost can be taken out of the spawn estimate
    with rec.span("lpformat.sol_parse"):
        parse_solution_file(sol_path)
    return raw


def solve_op(job: Job, rec, workdir: str) -> OpResult:
    """curves, graph, domains, model, solve, decode, validate."""
    res = _build(job, rec)
    if rec.traced:
        res.raw = _traced_solve(res, rec, workdir)
    else:
        res.raw = solve_model(res.model, workdir, time_limit=TIME_LIMIT_S,
                              threads=1)
    with rec.span("milp.decode"):
        res.schedule = decode_solution(res.model, res.raw)
    with rec.span("validate.exact"):
        res.exact = validate_schedule(job.instance, res.schedule, res.graph,
                                      mode="exact", curves=res.curves)
    with rec.span("validate.approx"):
        res.approx = validate_schedule(
            job.instance, res.schedule, res.graph,
            mode=f"approx-{job.estimator}", curves=res.curves,
            domains=res.domains)
    with rec.span("validate.grid_load"):
        grid_load_profile(job.instance, res.schedule)
    with rec.span(CHECK):
        res.problems = job.golden(res)
    return res


def build_op(job: Job, rec, workdir: str) -> OpResult:
    """curves, graph, domains, model, then LP and MPS emit and read-back."""
    res = _build(job, rec)
    for fmt in ("lp", "mps"):
        path = os.path.join(workdir, f"model.{fmt}")
        with rec.span(f"lpformat.emit_{fmt}"):
            emit_model(res.model, fmt, path)
        if fmt == "lp":
            res.model_bytes = os.path.getsize(path)
        with rec.span(f"lpformat.read_{fmt}"):
            parsed = load_model(path)
        with rec.span(CHECK):
            res.problems += _roundtrip_problems(res.model, parsed, fmt)
            del parsed
            os.unlink(path)
    return res


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def _synthetic(trips: int, seed: int) -> Instance:
    return generate_synthetic(
        SyntheticParams(trips=trips, chargers=1, slots_per_charger=2,
                        horizon_start_s=6 * 3600, horizon_end_s=17 * 3600),
        seed=seed)


def make_workload(name: str, seed: int) -> Workload:
    """Generate a workload's instances.  ``seed`` shuffles the chains' op
    order and seeds the 300-trip generator; synth20 is pinned to generator
    seed 1, whose optimum is its golden outcome."""
    if name == "chains":
        jobs = [Job(f"n{n}-{est}",
                    generate_worst_case(n, 0.005, 0.02, estimator=est,
                                        theta=THETA, segments=2),
                    est, 2, None, _chain_golden(n, est))
                for n in (3, 4, 5) for est in ("under", "over")]
        return Workload(name, jobs, solve_op, shuffle_seed=seed)
    if name == "synth20":
        job = Job("synth20", _synthetic(20, 1), "under", 4, 24,
                  _synth20_golden)
        return Workload(name, [job], solve_op)
    if name == "synth300-build":
        job = Job(f"synth300-seed{seed}", _synthetic(300, seed), "under", 4,
                  24, lambda res: [])
        return Workload(name, [job], build_op)
    raise ValueError(f"unknown workload {name!r}")
