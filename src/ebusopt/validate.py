"""Schedule validation against exact charging physics, plus grid reports.

A decoded schedule carries per-step claimed increments (the model's phi
values).  ``course_trace`` walks each course once into its elements, floors
and charge windows, and validation runs the one soc ledger
(``chargemodel.soc_ledger``) over it twice.  The claimed ledger applies the
increments as promised, y + phi - idle per step (the model's own energy
rows); the exact ledger caps every step at the maximum the charge curve
allows from the current exact soc, less the same idle draw.  A course is

- energy-feasible   if the exact ledger stays above the floors,
- weakly feasible   if the claimed ledger does (and, when an approximation
                    domain is given, every claimed step is admissible under
                    it at the claimed soc it starts from),
- strongly feasible if both.

The floor at a location is the cheapest consumption to reach any depot or
charger from there, and 0 where there is none.  The sweep's ``fs?`` column
re-charges the reference courses greedily through the same walk and ledger,
under each cell's domains.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .chargemodel import (CourseTrace, ROLE_CHARGE_ARRIVAL,
                          ROLE_CHARGE_DEPARTURE, ROLE_DEPOT_END,
                          ROLE_DEPOT_START, ROLE_TRIP_END, ROLE_TRIP_START,
                          build_overestimator, build_underestimator,
                          linear_reference_domain, soc_ledger,
                          solve_max_power_curve, trace_ledgers)
from .instance import Instance
from .milp import (ModelOptions, Schedule, build_model, decode_solution,
                   solve_model)
from .netgraph import (CHARGE, RECHARGE, SINK, TRIP, EnergyBounds,
                       SchedulingGraph, build_graph)
from .solverbridge import SolverError, external_command

SOC_TOL = 1e-6


class ValidationError(ValueError):
    """Schedule does not match the instance it is validated against."""


@dataclass
class CourseReport:
    course_index: int
    plan: str
    trace: CourseTrace
    floors: tuple
    energy_feasible: bool
    weakly_feasible: bool
    first_violation: Optional[tuple]     # (element index, role, soc, floor)
    max_abs_eps: float
    eps_bound: Optional[float]           # sigma * sup-gap when domains known
    sigma_final: int

    @property
    def strongly_feasible(self) -> bool:
        return self.energy_feasible and self.weakly_feasible


@dataclass
class ValidationReport:
    mode: str
    courses: list
    fleet_size: int
    objective: float
    solver_objective: Optional[float]
    grid_load: dict                      # grid point id -> np.ndarray (H,)
    peak: dict                           # grid point id -> (kw, step)
    violations: list = field(default_factory=list)

    @property
    def energy_feasible(self) -> bool:
        return all(c.energy_feasible for c in self.courses)

    @property
    def weakly_feasible(self) -> bool:
        return all(c.weakly_feasible for c in self.courses)

    @property
    def strongly_feasible(self) -> bool:
        return all(c.strongly_feasible for c in self.courses)

    def to_dict(self) -> dict:
        return {
            "format": "ebusopt-validation",
            "mode": self.mode,
            "fleet_size": self.fleet_size,
            "objective": self.objective,
            "solver_objective": self.solver_objective,
            "energy_feasible": self.energy_feasible,
            "weakly_feasible": self.weakly_feasible,
            "strongly_feasible": self.strongly_feasible,
            "violations": list(self.violations),
            "peak_kw": {gid: p[0] for gid, p in self.peak.items()},
            "peak_step": {gid: p[1] for gid, p in self.peak.items()},
            "courses": [
                {"index": c.course_index, "plan": c.plan,
                 "energy_feasible": c.energy_feasible,
                 "weakly_feasible": c.weakly_feasible,
                 "strongly_feasible": c.strongly_feasible,
                 "max_abs_eps": c.max_abs_eps,
                 "eps_bound": c.eps_bound,
                 "sigma": c.sigma_final,
                 "soc_exact": list(c.trace.soc_exact),
                 "soc_claimed": list(c.trace.soc_approx),
                 "eps": list(c.trace.eps),
                 "floors": list(c.floors),
                 "roles": list(c.trace.roles)}
                for c in self.courses],
        }


def save_validation_report(report: ValidationReport, path) -> None:
    import json
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def exact_curves(instance: Instance) -> dict:
    """Max-power curve per profile name."""
    return {name: solve_max_power_curve(p)
            for name, p in instance.profiles.items()}


def validate_schedule(instance: Instance, schedule: Schedule,
                      graph: SchedulingGraph, mode: str = "exact",
                      curves: Optional[dict] = None,
                      domains: Optional[dict] = None) -> ValidationReport:
    """Judge a decoded schedule; see the module docstring for the verdicts.

    ``mode`` selects what the claimed increments are checked against:
    "exact" needs only the curves, "approx-under"/"approx-over" additionally
    require the PWL ``domains`` keyed by (charger id, vehicle type).  The
    certified gap of each (curve, domain, window length) is computed once
    for the whole validation and shared by the courses that use it.
    """
    if mode not in ("exact", "approx-under", "approx-over"):
        raise ValidationError(f"unknown mode {mode!r}")
    if mode != "exact" and domains is None:
        raise ValidationError(f"mode {mode!r} requires the PWL domains")
    curves = curves if curves is not None else exact_curves(instance)
    bounds = graph.energy_bounds()

    course_reports = []
    violations: list = []
    gaps: dict = {}         # _sup_gap's memo, across the courses
    for ci, course in enumerate(schedule.courses):
        rep = _validate_course(ci, course, instance, schedule, graph, mode,
                               curves, domains, bounds, gaps)
        course_reports.append(rep)
        if not rep.strongly_feasible and rep.first_violation is not None:
            j, role, soc, floor = rep.first_violation
            violations.append(
                f"course {ci} ({course.plan}): soc {soc:.6f} below floor "
                f"{floor:.6f} at element {j} ({role})")

    load = grid_load_profile(instance, schedule)
    peak = {gid: (float(series.max()) if len(series) else 0.0,
                  int(series.argmax()) + 1 if len(series) else 0)
            for gid, series in load.items()}
    return ValidationReport(mode=mode, courses=course_reports,
                            fleet_size=schedule.fleet_size,
                            objective=schedule.objective,
                            solver_objective=schedule.solver_objective,
                            grid_load=load, peak=peak, violations=violations)


_END_ROLES = {CHARGE: ROLE_CHARGE_ARRIVAL, SINK: ROLE_DEPOT_END}


def course_trace(course, graph: SchedulingGraph, theta: float,
                 bounds: EnergyBounds):
    """A decoded course as its ``CourseTrace``, floors and charge windows.

    The one walk over a course's arcs, read from the graph's columns and
    its legs' tables.  A trip's start must keep its service plus its
    exit floor, its end the exit floor (0 where no exit is reachable);
    other elements keep 0.  A charger visit followed by recharge arcs is a
    charge window (the next of ``course.windows``), a pass-through visit
    only an arrival.  The windows come back in charge-transition order.
    """
    pid, arcs = course.plan, course.arc_indices
    # (role, consumption and duration of the transition into it, floor)
    elements = [(ROLE_DEPOT_START, 0.0, 0.0, 0.0)]
    windows: list = []
    pending = iter(course.windows)
    kinds, heads = graph.kind[arcs].tolist() + [None], graph.head[arcs]
    for j, (head, kind, leg) in enumerate(zip(
            heads.tolist(), graph.node_kind[heads].tolist(),
            graph.leg[arcs].tolist())):
        if kinds[j] == RECHARGE:
            continue  # taken with the window at its charger visit
        _, moves, services, _ = graph.legs[leg]
        move = moves.get(pid, 0.0)
        if kind == TRIP:
            service = services.get(pid, 0.0)
            floor = float(bounds.min_exit[head, graph.plan_code[pid]])
            floor = floor if math.isfinite(floor) else 0.0
            elements += [(ROLE_TRIP_START, move, 0.0, service + floor),
                         (ROLE_TRIP_END, service, 0.0, floor)]
        elif kind in _END_ROLES:
            elements.append((_END_ROLES[kind], move, 0.0, 0.0))
        if kind == CHARGE and kinds[j + 1] == RECHARGE:
            win = next(pending, None)
            if win is None:
                raise ValidationError(
                    f"plan {pid}: access arc {arcs[j]} has no matching "
                    f"charge window")
            elements.append((ROLE_CHARGE_DEPARTURE, 0.0,
                             len(win.phis) * theta, 0.0))
            windows.append(win)
    roles, consumptions, durations, floors = zip(*elements)
    trace = CourseTrace(roles=roles, consumptions=consumptions[1:],
                        durations=durations[1:])
    return trace, floors, windows


def _first_below(socs, floors) -> Optional[int]:
    """The first element whose soc is below its floor, or None."""
    return next((j for j, (y, floor) in enumerate(zip(socs, floors))
                 if y < floor - SOC_TOL), None)


def _validate_course(ci, course, instance, schedule, graph, mode, curves,
                     domains, bounds, gaps):
    vtype = course.vehicle_type
    theta = schedule.theta
    trace, floors, windows = course_trace(course, graph, theta, bounds)
    specs = []   # per window: (curve, domain, window, idle draw per step)
    for win in windows:
        charger = instance.charger(win.charger)
        specs.append((curves[charger.profiles[vtype]],
                      None if domains is None
                      else domains.get((win.charger, vtype)),
                      win, charger.step_consumption))

    def exact(w, y):
        # the claimed step, capped by what the curve allows from y
        curve, _, win, idle = specs[w]
        for phi in win.phis:
            if y < curve.soc_cap:
                cap_inc = float(curve.increment(max(y, 0.0), theta))
                y = min(y + min(phi, cap_inc + SOC_TOL), curve.soc_cap)
            y -= idle
        return y

    admissible = True

    def claimed(w, y):
        # the model's own arithmetic; each phi must be admissible at the
        # claimed soc it is taken from
        nonlocal admissible
        _, dom, win, idle = specs[w]
        for phi in win.phis:
            if mode != "exact" and (
                    dom is None
                    or phi > max(float(dom.value(max(y, 0.0))), 0.0)
                    + SOC_TOL):
                admissible = False
            y = y + phi - idle
        return min(y, 1.0)

    trace = trace_ledgers(trace, exact, claimed)
    j_exact = _first_below(trace.soc_exact, floors)
    j_claimed = _first_below(trace.soc_approx, floors)
    j = min((j for j in (j_exact, j_claimed) if j is not None), default=None)
    first_violation = None if j is None else (   # exact first on a tie
        j, trace.roles[j],
        (trace.soc_exact if j == j_exact else trace.soc_approx)[j], floors[j])
    eps_bound = (len(specs) * _sup_gap(specs, theta, gaps)
                 if domains is not None and specs else None)

    return CourseReport(course_index=ci, plan=course.plan, trace=trace,
                        floors=floors, energy_feasible=j_exact is None,
                        weakly_feasible=j_claimed is None and admissible,
                        first_violation=first_violation,
                        max_abs_eps=float(max(abs(e) for e in trace.eps)),
                        eps_bound=eps_bound, sigma_final=len(specs))


def _sup_gap(charge_specs, theta, gaps=None) -> float:
    """Max |exact - approximate| single-window increment over the used specs.

    The gap of a (curve, domain, window length) is the max over 1001 socs
    on [0, soc_cap]; ``gaps`` memoizes it by that key, so one dict shared
    by the courses of a validation computes each gap grid once.
    """
    gaps = {} if gaps is None else gaps
    worst = 0.0
    for curve, dom, win, _ in charge_specs:
        if dom is None:
            continue
        k = len(win.phis)
        key = (id(curve), id(dom), k)
        if key not in gaps:
            ys = np.linspace(0.0, curve.soc_cap, 1001)
            exact = np.asarray(curve.increment(ys, k * theta))
            greedy = dom.greedy_final_soc(ys, k) - ys
            gaps[key] = float(np.max(np.abs(exact - greedy)))
        worst = max(worst, gaps[key])
    return worst


# ---------------------------------------------------------------------------
# Grid load
# ---------------------------------------------------------------------------

def grid_load_profile(instance: Instance, schedule: Schedule) -> dict:
    """Per grid point: kW drawn in each time step (length-H series)."""
    start, end = instance.horizon
    h = int((end - start) // int(schedule.theta))
    battery = {v.id: v.battery_kwh for v in instance.vehicle_types}
    load = {g.id: np.zeros(h) for g in instance.grid_points}
    omega_factor = 3600.0 / schedule.theta
    for course in schedule.courses:
        omega = battery[course.vehicle_type] * omega_factor
        for win in course.windows:
            series = load[win.grid_point]
            for step, phi in zip(win.steps, win.phis):
                if 1 <= step <= h:
                    series[step - 1] += omega * phi
    return load


def write_grid_load_csv(load: dict, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["grid_point", "step", "load"])
        for gid in sorted(load):
            for i, val in enumerate(load[gid], start=1):
                w.writerow([gid, i, f"{val:.6f}"])


# ---------------------------------------------------------------------------
# Discretization sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    m: int
    theta: float
    status: str
    feasible: bool
    fleet: Optional[int]
    objective: Optional[float]
    bound: Optional[float]
    gap: Optional[float]
    ref_feasible: Optional[bool]     # "fs?": reference schedule ok at this cell
    error: Optional[str] = None
    solver_failed: bool = False      # the error is a SolverError


def discretization_sweep(instance: Instance, m_grid, theta_grid,
                         solver_cmd=None, time_limit=None, workdir=None,
                         workers: int = 1, check_reference: bool = True,
                         strengthen: bool = True):
    """Solve the model over an (m, theta) grid and tabulate the outcomes.

    One row per configuration with the solver status, fleet size, objective,
    bound and the recomputed gap (objective - bound) / objective.  Every
    model, the cells' and the reference's, has the energy-bound
    strengthening rows unless ``strengthen`` is off.  When
    ``check_reference`` is set, a schedule solved under the fully linear
    charging model is re-validated against each cell's increment domains and
    reported in ``ref_feasible`` (infeasible reference schedules are exactly
    what the exact charging model is there to catch).

    The graph depends on theta only, so each theta's is built once and
    shared by its cells and, at the least theta, the reference.  A theta
    whose graph cannot be built gives an error row in each of its cells.

    Solves run in process and write no files unless ``solver_cmd`` or
    EBUSOPT_SOLVER_CMD sends them through the bridge; only then are model
    and solution files written, under ``workdir`` (a fresh temporary
    directory when None).
    """
    import tempfile

    if workdir is None and external_command(solver_cmd):
        workdir = tempfile.mkdtemp(prefix="ebusopt-sweep-")
    curves = exact_curves(instance)
    graphs: dict = {}       # theta -> its graph, or the error building it
    for theta in map(float, theta_grid):
        if theta not in graphs:
            try:
                graphs[theta] = build_graph(instance, theta)
            except Exception as exc:
                graphs[theta] = exc

    reference = None
    if check_reference:
        try:
            reference = _solve_reference_linear(
                instance, curves, graphs[float(min(theta_grid))], solver_cmd,
                time_limit, workdir and f"{workdir}/ref", strengthen)
        except Exception:  # the fs? column is best-effort
            reference = None

    cells = [(instance, curves, reference, m, float(theta),
              graphs[float(theta)], solver_cmd, time_limit, workdir,
              strengthen)
             for m in m_grid for theta in theta_grid]
    if workers > 1:
        # HiGHS holds the interpreter lock, so cells run in processes
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(_sweep_cell, cells))
    return [_sweep_cell(c) for c in cells]


def _sweep_cell(cell) -> SweepRow:
    """One (m, theta) cell of ``discretization_sweep``; errors become rows."""
    (instance, curves, reference, m, theta, graph, solver_cmd, time_limit,
     workdir, strengthen) = cell
    try:
        if isinstance(graph, Exception):
            raise graph
        domains = build_domains(instance, curves, theta, m, "under")
        fs = _reference_feasible_at(reference, instance, domains, theta)
        model = build_model(graph, domains,
                            ModelOptions(use_strengthening=strengthen))
        raw = solve_model(model, workdir and f"{workdir}/m{m}_t{int(theta)}",
                          command_template=solver_cmd, time_limit=time_limit)
        if not raw.has_incumbent:
            return SweepRow(m=m, theta=theta, status=raw.status,
                            feasible=False, fleet=None, objective=None,
                            bound=raw.bound, gap=None, ref_feasible=fs)
        sched = decode_solution(model, raw)
        rep = validate_schedule(instance, sched, graph, "exact", curves)
        gap = None
        if raw.objective and raw.bound is not None:
            gap = (raw.objective - raw.bound) / abs(raw.objective)
        return SweepRow(m=m, theta=theta, status=raw.status,
                        feasible=rep.energy_feasible,
                        fleet=sched.fleet_size, objective=raw.objective,
                        bound=raw.bound, gap=gap, ref_feasible=fs)
    except Exception as exc:
        return SweepRow(m=m, theta=theta, status="error", feasible=False,
                        fleet=None, objective=None, bound=None, gap=None,
                        ref_feasible=None, error=str(exc),
                        solver_failed=isinstance(exc, SolverError))


def build_domains(instance: Instance, curves: dict, theta: float, m: int,
                  estimator: str) -> dict:
    """PWL increment domain per (charger, electric vehicle type).

    ``estimator`` is "under" (chords), "over" (tangents), or "linear" (the
    classical fully linear charging baseline, which ignores ``m``).  A
    domain depends only on its charging profile, so each profile gets one,
    and every (charger, vehicle type) pair that charges by that profile
    maps to the same domain object.
    """
    build = {"under": lambda curve: build_underestimator(curve, theta, m),
             "over": lambda curve: build_overestimator(curve, theta, m),
             "linear": lambda curve: linear_reference_domain(curve, theta)}
    if estimator not in build:
        raise ValidationError(f"unknown estimator {estimator!r}")
    by_profile: dict = {}
    domains = {}
    for c in instance.chargers:
        for vt, pname in c.profiles.items():
            if pname not in by_profile:
                by_profile[pname] = build[estimator](curves[pname])
            domains[(c.id, vt)] = by_profile[pname]
    return domains


def _solve_reference_linear(instance, curves, graph, solver_cmd, time_limit,
                            workdir, strengthen):
    """Schedule under the fully linear charging model (the classic baseline)
    on ``graph``, or raise the error that building it gave."""
    if isinstance(graph, Exception):
        raise graph
    domains = build_domains(instance, curves, graph.theta, 0, "linear")
    model = build_model(graph, domains,
                        ModelOptions(use_strengthening=strengthen))
    raw = solve_model(model, workdir, command_template=solver_cmd,
                      time_limit=time_limit)
    if not raw.has_incumbent:
        raise ValidationError(
            f"linear reference solve found no schedule ({raw.status})")
    return graph, decode_solution(model, raw)


def _reference_feasible_at(reference, instance, domains, theta):
    """The ``fs?`` verdict: the reference courses, greedily re-charged
    under a cell's domains, stay above their floors (None: no verdict).

    Each reference window holds the k cell steps that fit in its time span;
    the bus charges at the cell's domain bound in each, less the charger's
    idle draw.  The floor test is validation's energy check.
    """
    if reference is None:
        return None
    ref_graph, sched = reference
    start = instance.horizon[0]
    try:
        bounds = ref_graph.energy_bounds()
        for course in sched.courses:
            trace, floors, windows = course_trace(course, ref_graph,
                                                  sched.theta, bounds)
            doms = [domains.get((win.charger, course.vehicle_type))
                    for win in windows]
            if None in doms:
                return False

            def greedy(w, y):
                win = windows[w]
                w_start = start + (win.steps[0] - 1) * sched.theta
                w_end = start + win.steps[-1] * sched.theta
                k = max(0, math.floor((w_end - start) / theta)
                        - math.ceil((w_start - start) / theta))
                idle = instance.charger(win.charger).step_consumption
                y = max(y, 0.0)
                for _ in range(k):
                    y = y + doms[w].greedy_step(y) - idle
                return y

            if _first_below(soc_ledger(trace, greedy)[0], floors) is not None:
                return False
    except Exception:
        return None
    return True


def write_sweep_csv(rows: list, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "theta", "fs", "status", "feasible", "fleet",
                    "objective", "bound", "gap", "error"])
        for r in rows:
            w.writerow([
                r.m, r.theta,
                "" if r.ref_feasible is None else ("yes" if r.ref_feasible
                                                   else "no"),
                r.status, int(r.feasible),
                "" if r.fleet is None else r.fleet,
                "" if r.objective is None else f"{r.objective:.6f}",
                "" if r.bound is None else f"{r.bound:.6f}",
                "" if r.gap is None else f"{r.gap:.6f}",
                r.error or ""])

