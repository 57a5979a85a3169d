"""Schedule validation against exact charging physics, plus grid reports.

A decoded schedule carries per-step claimed increments (the model's phi
values).  Validation propagates two soc ledgers along every course: the
claimed ledger applies the increments as promised (this is the model's own
arithmetic), the exact ledger caps every step at the maximum the charge
curve allows from the current exact soc.  A course is

- energy-feasible   if the exact ledger stays above the location floors,
- weakly feasible   if the claimed ledger does (and, when an approximation
                    domain is given, every claimed step is admissible under
                    it),
- strongly feasible if both.

The floor at a location is the cheapest consumption to reach any depot or
charger from there (plus an optional operator-set minimum level).
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
                          build_underestimator, linear_reference_domain,
                          solve_max_power_curve)
from .instance import Instance
from .milp import (ModelOptions, Schedule, build_model, decode_solution,
                   solve_model)
from .netgraph import EnergyBounds, SchedulingGraph, build_graph

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
                      domains: Optional[dict] = None,
                      bounds: Optional[EnergyBounds] = None,
                      min_soc_floor: float = 0.0) -> ValidationReport:
    """Judge a decoded schedule; see the module docstring for the verdicts.

    ``mode`` selects what the claimed increments are checked against:
    "exact" needs only the curves, "approx-under"/"approx-over" additionally
    require the PWL ``domains`` keyed by (charger id, vehicle type).
    """
    if mode not in ("exact", "approx-under", "approx-over"):
        raise ValidationError(f"unknown mode {mode!r}")
    if mode != "exact" and domains is None:
        raise ValidationError(f"mode {mode!r} requires the PWL domains")
    curves = curves if curves is not None else exact_curves(instance)
    bounds = bounds if bounds is not None else graph.energy_bounds()

    course_reports = []
    violations: list = []
    for ci, course in enumerate(schedule.courses):
        rep = _validate_course(ci, course, instance, schedule, graph, mode,
                               curves, domains, bounds, min_soc_floor)
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


def _validate_course(ci, course, instance, schedule, graph, mode, curves,
                     domains, bounds, min_soc_floor):
    inst = instance
    pid = course.plan
    vtype = course.vehicle_type
    theta = schedule.theta

    roles = [ROLE_DEPOT_START]
    floors = [min_soc_floor]
    consumptions: list = []
    durations: list = []
    charge_specs: list = []   # aligned with charge transitions: (curve, domain, phis)
    window_iter = iter(course.windows)

    exact_soc = [1.0]
    claimed_soc = [1.0]
    sigma = [0]
    events = 0

    def floor_at(node_id):
        e = bounds.exit_floor(node_id, pid)
        if not math.isfinite(e):
            e = 0.0
        return max(e, min_soc_floor)

    def push(role, cons, floor):
        roles.append(role)
        consumptions.append(cons)
        durations.append(0.0)
        floors.append(floor)
        exact_soc.append(exact_soc[-1] - cons)
        claimed_soc.append(claimed_soc[-1] - cons)
        sigma.append(events)

    arcs_list = [graph.arcs[i] for i in course.arc_indices]
    for idx, arc in enumerate(arcs_list):
        head = graph.nodes[arc.head]
        move = arc.move_consumption.get(pid, 0.0)
        service = arc.service_consumption.get(pid, 0.0)
        if arc.kind == "recharge":
            continue  # handled with the window below
        if head.kind == "trip":
            trip_floor = floor_at(arc.head)
            push(ROLE_TRIP_START, move, service + trip_floor)
            push(ROLE_TRIP_END, service, trip_floor)
        elif head.kind == "charge":
            charges_here = (idx + 1 < len(arcs_list)
                            and arcs_list[idx + 1].kind == "recharge")
            if not charges_here:
                # pass-through timeline visit without occupying a step
                push(ROLE_CHARGE_ARRIVAL, move, min_soc_floor)
                continue
            # decode emits one window per charging timeline visit, in order
            win = next(window_iter, None)
            if win is None:
                raise ValidationError(
                    f"course {ci}: access arc {arc.index} has no matching "
                    f"charge window")
            push(ROLE_CHARGE_ARRIVAL, move, min_soc_floor)
            # the charge transition itself
            roles.append(ROLE_CHARGE_DEPARTURE)
            consumptions.append(0.0)
            durations.append(len(win.phis) * theta)
            floors.append(min_soc_floor)
            charger = inst.charger(win.charger)
            curve = curves[charger.profiles[vtype]]
            dom = None
            if domains is not None:
                dom = domains.get((win.charger, vtype))
            y_ex, y_cl = exact_soc[-1], claimed_soc[-1]
            charge_specs.append((curve, dom, win, y_cl))
            for phi in win.phis:
                cap_inc = float(curve.increment(
                    min(max(y_ex, 0.0), curve.soc_cap), theta))
                if y_ex < curve.soc_cap:
                    y_ex = min(y_ex + min(phi, cap_inc + SOC_TOL),
                               curve.soc_cap)
                y_ex -= charger.step_consumption
                y_cl = y_cl + phi - charger.step_consumption
            events += 1
            exact_soc.append(y_ex)
            claimed_soc.append(min(y_cl, 1.0))
            sigma.append(events)
        elif head.kind == "depot-sink":
            push(ROLE_DEPOT_END, move, min_soc_floor)
        elif head.kind == "park":
            push("park", move, min_soc_floor)

    eps = tuple(c - e for c, e in zip(claimed_soc, exact_soc))
    trace = CourseTrace(roles=tuple(roles), consumptions=tuple(consumptions),
                        durations=tuple(durations),
                        soc_exact=tuple(exact_soc),
                        soc_approx=tuple(claimed_soc), eps=eps,
                        sigma=tuple(sigma))

    energy_ok, weak_ok = True, True
    first_violation = None
    for j, (role, ex, cl, fl) in enumerate(zip(roles, exact_soc, claimed_soc,
                                               floors)):
        if ex < fl - SOC_TOL:
            energy_ok = False
            if first_violation is None:
                first_violation = (j, role, ex, fl)
        if cl < fl - SOC_TOL:
            weak_ok = False
            if first_violation is None:
                first_violation = (j, role, cl, fl)

    if mode != "exact":
        # claimed increments must be admissible under the approximation
        for curve, dom, win, y_entry in charge_specs:
            if dom is None:
                weak_ok = False
                continue
            y = y_entry
            for phi in win.phis:
                adm = max(float(dom.value(max(y, 0.0))), 0.0)
                if phi > adm + SOC_TOL:
                    weak_ok = False
                y += phi

    eps_bound = None
    if domains is not None and charge_specs:
        eps_bound = events * _sup_gap(charge_specs, schedule.theta)

    return CourseReport(course_index=ci, plan=pid, trace=trace,
                        floors=tuple(floors), energy_feasible=energy_ok,
                        weakly_feasible=weak_ok,
                        first_violation=first_violation,
                        max_abs_eps=float(max(abs(e) for e in eps)),
                        eps_bound=eps_bound, sigma_final=events)


def _sup_gap(charge_specs, theta) -> float:
    """Max |exact - approximate| single-window increment over the used specs."""
    worst = 0.0
    seen = set()
    for curve, dom, win, _ in charge_specs:
        if dom is None:
            continue
        key = (id(curve), id(dom), len(win.phis))
        if key in seen:
            continue
        seen.add(key)
        ys = np.linspace(0.0, curve.soc_cap, 1001)
        k = len(win.phis)
        exact = np.asarray(curve.increment(ys, k * theta))
        greedy = dom.greedy_final_soc(ys, k) - ys
        worst = max(worst, float(np.max(np.abs(exact - greedy))))
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
# Peak shaving comparison
# ---------------------------------------------------------------------------

@dataclass
class PeakShaveRow:
    cap_fraction: float
    objective: float
    normalized_objective: float
    fleet: int
    peak_kw: float
    load_deciles: list
    monotone: bool          # objective does not improve under a tighter cap


def peak_shave_report(instance: Instance, schedules: dict,
                      tol: float = 1e-6) -> list:
    """Compare schedules solved under decreasing grid-cap fractions.

    ``schedules`` maps cap fraction -> Schedule and must contain the 1.0
    reference; objectives are normalized to it.
    """
    if 1.0 not in schedules:
        raise ValidationError("peak-shave comparison needs the 1.0 reference cap")
    ref_obj = schedules[1.0].objective
    rows = []
    prev_obj = None
    for cap in sorted(schedules, reverse=True):
        sched = schedules[cap]
        load = grid_load_profile(instance, sched)
        total = np.zeros(max(len(s) for s in load.values()) if load else 0)
        for series in load.values():
            total[:len(series)] += series
        nonzero = total[total > tol]
        deciles = (np.percentile(nonzero, [10, 50, 90]).round(3).tolist()
                   if len(nonzero) else [0.0, 0.0, 0.0])
        monotone = prev_obj is None or sched.objective >= prev_obj - tol
        rows.append(PeakShaveRow(
            cap_fraction=cap, objective=sched.objective,
            normalized_objective=(sched.objective / ref_obj if ref_obj else math.nan),
            fleet=sched.fleet_size,
            peak_kw=float(total.max()) if len(total) else 0.0,
            load_deciles=deciles, monotone=monotone))
        prev_obj = sched.objective
    return rows


def write_peak_shave_csv(rows: list, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cap_fraction", "objective", "normalized_objective",
                    "fleet", "peak_kw", "load_q10", "load_q50", "load_q90",
                    "monotone"])
        for r in rows:
            w.writerow([r.cap_fraction, f"{r.objective:.6f}",
                        f"{r.normalized_objective:.6f}", r.fleet,
                        f"{r.peak_kw:.3f}"] + [f"{d:.3f}" for d in r.load_deciles]
                       + [int(r.monotone)])


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
    """
    import tempfile

    workdir = workdir or tempfile.mkdtemp(prefix="ebusopt-sweep-")
    curves = exact_curves(instance)

    reference = None
    if check_reference:
        theta_ref = float(min(theta_grid))
        try:
            reference = _solve_reference_linear(instance, curves, theta_ref,
                                                solver_cmd, time_limit,
                                                f"{workdir}/ref", strengthen)
        except Exception:  # the fs? column is best-effort
            reference = None

    cells = [(instance, curves, reference, m, float(theta), solver_cmd,
              time_limit, workdir, strengthen)
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
    (instance, curves, reference, m, theta, solver_cmd, time_limit, workdir,
     strengthen) = cell
    try:
        graph = build_graph(instance, theta)
        domains = build_domains(instance, curves, theta, m, "under")
        model = build_model(graph, domains,
                            ModelOptions(use_strengthening=strengthen))
        raw = solve_model(model, f"{workdir}/m{m}_t{int(theta)}",
                          command_template=solver_cmd, time_limit=time_limit)
        if not raw.has_incumbent:
            return SweepRow(m=m, theta=theta, status=raw.status,
                            feasible=False, fleet=None, objective=None,
                            bound=raw.bound, gap=None,
                            ref_feasible=_ref_ok(reference, instance, curves,
                                                 domains, theta))
        sched = decode_solution(model, raw)
        rep = validate_schedule(instance, sched, graph, "exact", curves)
        gap = None
        if raw.objective and raw.bound is not None:
            gap = (raw.objective - raw.bound) / abs(raw.objective)
        return SweepRow(m=m, theta=theta, status=raw.status,
                        feasible=rep.energy_feasible,
                        fleet=sched.fleet_size, objective=raw.objective,
                        bound=raw.bound, gap=gap,
                        ref_feasible=_ref_ok(reference, instance, curves,
                                             domains, theta))
    except Exception as exc:
        return SweepRow(m=m, theta=theta, status="error", feasible=False,
                        fleet=None, objective=None, bound=None, gap=None,
                        ref_feasible=None, error=str(exc))


def build_domains(instance: Instance, curves: dict, theta: float, m: int,
                  estimator: str) -> dict:
    """PWL increment domain per (charger, electric vehicle type).

    ``estimator`` is "under" (chords), "over" (tangents), or "linear" (the
    classical fully linear charging baseline, which ignores ``m``).
    """
    from .chargemodel import build_overestimator
    domains = {}
    for c in instance.chargers:
        for vt, pname in c.profiles.items():
            if estimator == "under":
                domains[(c.id, vt)] = build_underestimator(curves[pname],
                                                           theta, m)
            elif estimator == "over":
                domains[(c.id, vt)] = build_overestimator(curves[pname],
                                                          theta, m)
            elif estimator == "linear":
                domains[(c.id, vt)] = linear_reference_domain(curves[pname],
                                                              theta)
            else:
                raise ValidationError(f"unknown estimator {estimator!r}")
    return domains


def _solve_reference_linear(instance, curves, theta, solver_cmd, time_limit,
                            workdir, strengthen):
    """Schedule under the fully linear charging model (the classic baseline)."""
    graph = build_graph(instance, theta)
    domains = build_domains(instance, curves, theta, 0, "linear")
    model = build_model(graph, domains,
                        ModelOptions(use_strengthening=strengthen))
    raw = solve_model(model, workdir, command_template=solver_cmd,
                      time_limit=time_limit)
    if not raw.has_incumbent:
        raise ValidationError(
            f"linear reference solve found no schedule ({raw.status})")
    return graph, decode_solution(model, raw)


def _ref_ok(reference, instance, curves, domains, theta):
    if reference is None:
        return None
    graph, sched = reference
    try:
        return _reference_feasible_at(instance, curves, domains, theta, sched,
                                      graph)
    except Exception:
        return None


def _reference_feasible_at(instance, curves, domains, theta, sched, ref_graph):
    """Greedy re-charge the reference courses under a cell's domains."""
    start = instance.horizon[0]
    bounds = ref_graph.energy_bounds()
    for course in sched.courses:
        pid = course.plan
        vtype = course.vehicle_type
        y = 1.0
        win_iter = iter(course.windows)
        for a_idx in course.arc_indices:
            arc = ref_graph.arcs[a_idx]
            if arc.kind == "recharge":
                continue
            head = ref_graph.nodes[arc.head]
            y -= arc.consumption(pid)
            if head.kind == "trip":
                floor = bounds.exit_floor(arc.head, pid)
                floor = floor if math.isfinite(floor) else 0.0
                if y < floor - SOC_TOL:
                    return False
            elif head.kind == "charge":
                win = next(win_iter, None)
                if win is None:
                    continue
                dom = domains.get((win.charger, vtype))
                if dom is None:
                    return False
                w_start = start + (win.steps[0] - 1) * sched.theta
                w_end = start + win.steps[-1] * sched.theta
                first = math.ceil((w_start - start) / theta)
                last = math.floor((w_end - start) / theta)
                k = max(0, last - first)
                y = dom.greedy_final_soc(max(y, 0.0), k)
            if y < -SOC_TOL:
                return False
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


def geometric_mean_gap(rows: list) -> Optional[float]:
    """Geometric mean of the recomputed gaps over rows that have one."""
    gaps = [max(r.gap, 1e-12) for r in rows if r.gap is not None]
    if not gaps:
        return None
    return float(np.exp(np.mean(np.log(gaps))))
