"""Mixed-integer program for electric bus scheduling over the expanded graph.

Binary flow variables x[arc][plan] route one commodity per plan type through
the DAG; continuous y[arc] carries the active bus's soc just after the tail
node; continuous phi[arc][plan] is the soc gained on a recharge arc.  The
charge increment domain enters as one coupling row (flat segment times the
occupation variable) plus one row per remaining PWL segment; grid access
points cap the weighted sum of simultaneous increments per time step.

Strengthened soc bounds replace the plain coupling rows with per-arc bounds
derived from the cheapest paths to and from depots or chargers; they tighten
the LP relaxation and keep every integer point (the energy-flow equalities
already force soc to cover any remaining path).  A grid point without a
limit (+inf kW) gets no grid rows; a NaN limit override is a ``ModelError``.

``MilpModel`` keeps the program in one array form (columns plus CSR rows);
the LP/MPS writers, the in-process HiGHS solve and the decoder all read
that form, never per-row records.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .chargemodel import IncrementDomainPWL
from .lpformat import (SENSES, ModelArrays, RawSolution, write_lp, write_mps,
                       write_solution_text)
from .netgraph import EnergyBounds, SchedulingGraph, compute_energy_bounds
from .refsolver import emitted_arrays, solve_arrays
from .solverbridge import SOLVER_ENV_VAR, SolverError, solve_external

INTEGRALITY_TOL = 1e-5
IN_PROCESS_COMMAND = "in-process HiGHS"


class ModelError(ValueError):
    """Model cannot be assembled from the given graph and domains."""


class DecodeError(ValueError):
    """Raw solution does not decode into vehicle courses."""


@dataclass
class Var:
    name: str
    lb: float = 0.0
    ub: float = math.inf
    binary: bool = False
    obj: float = 0.0


@dataclass
class Row:
    name: str
    coeffs: dict            # var index -> coefficient
    sense: str              # "<=" | ">=" | "="
    rhs: float
    tag: str


@dataclass
class ModelOptions:
    use_strengthening: bool = False
    grid_caps: bool = True
    mix: bool = True
    precondition_lead: int = 0
    grid_limit_override: Optional[dict] = None  # grid point id -> kW or per-step list


_SENSE_CODE = {sense: code for code, sense in enumerate(SENSES)}


@dataclass
class MilpModel:
    """The MIP over a scheduling graph, stored in one array form.

    ``add_var`` appends a column (name, objective, bounds, binary flag) to
    parallel lists and ``add_row`` a row in CSR layout: its columns in
    ascending order with their coefficients, then a sense code, the
    right-hand side and a tag id.  ``arrays()`` hands that storage to the
    LP/MPS writers and to the in-process solve as ``lpformat.ModelArrays``.
    ``variables`` and ``rows`` are read-only views that build one
    ``Var``/``Row`` record per access; row names ``{tag}{index:07d}`` exist
    only in those records and in the files.  The objective is always
    minimised.
    """

    graph: SchedulingGraph
    domains: dict                     # (charger id, vehicle type id) -> PWL domain
    options: ModelOptions
    x_index: dict = field(default_factory=dict)    # (arc, plan) -> var
    y_index: dict = field(default_factory=dict)    # arc -> var
    phi_index: dict = field(default_factory=dict)  # (arc, plan) -> var
    phi_cost: dict = field(default_factory=dict)   # (arc, plan) -> objective coeff
    energy_bounds: Optional[EnergyBounds] = None
    names: list = field(default_factory=list)      # per column
    obj: list = field(default_factory=list)
    lb: list = field(default_factory=list)
    ub: list = field(default_factory=list)
    binary: list = field(default_factory=list)
    start: list = field(default_factory=lambda: [0])   # per row, plus the end
    cols: list = field(default_factory=list)       # per entry
    vals: list = field(default_factory=list)
    sense: list = field(default_factory=list)      # per row, codes into SENSES
    rhs: list = field(default_factory=list)
    tag: list = field(default_factory=list)        # codes into tags
    tags: dict = field(default_factory=dict)       # tag -> code, first use first

    def add_var(self, name, lb=0.0, ub=math.inf, binary=False, obj=0.0) -> int:
        self.names.append(name)
        self.obj.append(obj)
        self.lb.append(lb)
        self.ub.append(ub)
        self.binary.append(binary)
        return len(self.names) - 1

    def add_row(self, coeffs: dict, sense: str, rhs: float, tag: str) -> None:
        cols = sorted(coeffs)
        self.cols += cols
        self.vals += [coeffs[j] for j in cols]
        self.start.append(len(self.cols))
        self.sense.append(_SENSE_CODE[sense])
        self.rhs.append(rhs)
        self.tag.append(self.tags.setdefault(tag, len(self.tags)))

    def arrays(self) -> ModelArrays:
        """The storage as numpy arrays; later ``add_*`` calls leave them be."""
        return ModelArrays(
            names=list(self.names), obj=np.array(self.obj, dtype=float),
            lb=np.array(self.lb, dtype=float),
            ub=np.array(self.ub, dtype=float),
            binary=np.array(self.binary, dtype=bool),
            start=np.array(self.start, dtype=np.int64),
            cols=np.array(self.cols, dtype=np.int64),
            vals=np.array(self.vals, dtype=float),
            sense=np.array(self.sense, dtype=np.int8),
            rhs=np.array(self.rhs, dtype=float),
            tag=np.array(self.tag, dtype=np.int64), tags=list(self.tags))

    @property
    def variables(self) -> "_Records":
        return _Records(len(self.names), self._var)

    @property
    def rows(self) -> "_Records":
        return _Records(len(self.sense), self._row)

    def _var(self, j: int) -> Var:
        return Var(self.names[j], self.lb[j], self.ub[j], bool(self.binary[j]),
                   self.obj[j])

    def _row(self, r: int) -> Row:
        s, e = self.start[r], self.start[r + 1]
        tag = list(self.tags)[self.tag[r]]
        return Row(f"{tag}{r:07d}", dict(zip(self.cols[s:e], self.vals[s:e])),
                   SENSES[self.sense[r]], self.rhs[r], tag)

    def rows_by_tag(self) -> dict:
        counts = np.bincount(self.tag, minlength=len(self.tags))
        return {t: int(c) for t, c in zip(self.tags, counts) if c}

    @property
    def num_variables(self) -> int:
        return len(self.names)

    @property
    def minimize(self) -> bool:
        return True


class _Records(Sequence):
    """Read-only sequence that builds each record when it is accessed."""

    def __init__(self, length: int, record):
        self._length = length
        self._record = record

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i: int):
        if i < 0:
            i += self._length
        if not 0 <= i < self._length:
            raise IndexError("record index out of range")
        return self._record(i)


def _domain_for(domains: dict, charger: str, vtype: str) -> IncrementDomainPWL:
    dom = domains.get((charger, vtype))
    if dom is None:
        raise ModelError(
            f"no increment domain for charger {charger!r} x type {vtype!r}")
    return dom


def build_model(graph: SchedulingGraph, domains: dict,
                options: ModelOptions = ModelOptions()) -> MilpModel:
    """Assemble the full MIP for a scheduling graph and its PWL domains."""
    inst = graph.instance
    model = MilpModel(graph=graph, domains=domains, options=options)
    vtype_of = {p.id: p.vehicle_type for p in graph.plan_types}
    electric = {p.id for p in graph.plan_types if p.electric}
    battery = {v.id: v.battery_kwh for v in inst.vehicle_types}

    # --- variables, canonical order: x per arc/plan, y per arc, phi ---------
    for a in graph.arcs:
        for pid in a.plans:
            idx = model.add_var(f"x[{a.index:06d}][{pid}]", binary=True,
                                obj=a.cost.get(pid, 0.0))
            model.x_index[(a.index, pid)] = idx
    for a in graph.arcs:
        model.y_index[a.index] = model.add_var(f"y[{a.index:06d}]", 0.0, 1.0)
    for a in graph.arcs:
        if a.kind != "recharge":
            continue
        gp = inst.grid_point(inst.charger(a.charger).grid_point)
        step_start = graph.event_time(a.step - 1)
        for pid in a.plans:
            if pid not in electric:
                continue
            dom = _domain_for(domains, a.charger, vtype_of[pid])
            price = gp.price_at(step_start) * battery[vtype_of[pid]]
            ub = dom.offsets[0] if a.available else 0.0
            idx = model.add_var(f"phi[{a.index:06d}][{pid}]", 0.0, ub,
                                obj=price)
            model.phi_index[(a.index, pid)] = idx
            model.phi_cost[(a.index, pid)] = price

    # --- flow conservation per (non-depot node, plan) ------------------------
    for nid in sorted(graph.nodes):
        node = graph.nodes[nid]
        if node.kind in ("depot-source", "depot-sink"):
            continue
        plans_here = sorted({p for a in graph.in_arcs[nid] for p in a.plans}
                            | {p for a in graph.out_arcs[nid] for p in a.plans})
        for pid in plans_here:
            coeffs: dict = {}
            for a in graph.in_arcs[nid]:
                if pid in a.plans:
                    coeffs[model.x_index[(a.index, pid)]] = 1.0
            for a in graph.out_arcs[nid]:
                if pid in a.plans:
                    coeffs[model.x_index[(a.index, pid)]] = \
                        coeffs.get(model.x_index[(a.index, pid)], 0.0) - 1.0
            if coeffs:
                model.add_row(coeffs, "=", 0.0, "flow")

    # --- every trip serviced exactly once ------------------------------------
    for t in inst.trips:
        nid = f"trip:{t.id}"
        coeffs = {model.x_index[(a.index, pid)]: 1.0
                  for a in graph.out_arcs[nid] for pid in a.plans}
        if not coeffs:
            raise ModelError(f"trip {t.id} has no outgoing arcs")
        model.add_row(coeffs, "=", 1.0, "cover")

    # --- out-capacity of charge (and counted park) nodes ----------------------
    for nid in sorted(graph.nodes):
        node = graph.nodes[nid]
        if node.kind == "charge" or (node.kind == "park"):
            coeffs = {model.x_index[(a.index, pid)]: 1.0
                      for a in graph.out_arcs[nid] for pid in a.plans}
            if coeffs:
                model.add_row(coeffs, "<=", 1.0, "capacity")

    # --- vehicle-mix constraints ----------------------------------------------
    if options.mix:
        for m in inst.mix_constraints:
            coeffs: dict = {}
            for (vt, dep), kappa in zip(m.plan_types, m.coeffs):
                pid = f"{vt}.{dep}"
                for a in graph.out_arcs.get(f"src:{dep}", []):
                    if pid in a.plans:
                        idx = model.x_index[(a.index, pid)]
                        coeffs[idx] = coeffs.get(idx, 0.0) + kappa
            if not coeffs:
                continue
            if m.upper < math.inf:
                model.add_row(dict(coeffs), "<=", m.upper, "mix")
            if m.lower > 0:
                model.add_row(dict(coeffs), ">=", m.lower, "mix")

    # --- soc coupling ----------------------------------------------------------
    bounds = None
    if options.use_strengthening:
        bounds = compute_energy_bounds(graph)
        model.energy_bounds = bounds
    for a in graph.arcs:
        y = model.y_index[a.index]
        e_plans = [p for p in a.plans if p in electric]
        if a.kind == "pullout":
            coeffs = {model.x_index[(a.index, pid)]: 1.0 for pid in e_plans}
            coeffs[y] = coeffs.get(y, 0.0) - 1.0
            model.add_row(coeffs, "=", 0.0, "pullout")
            continue
        if not options.use_strengthening:
            coeffs = {model.x_index[(a.index, pid)]: 1.0 for pid in e_plans}
            coeffs[y] = coeffs.get(y, 0.0) - 1.0
            model.add_row(coeffs, ">=", 0.0, "coupling")
            if graph.nodes[a.head].kind == "depot-sink":
                # depot sinks have no energy row, so the last leg's
                # consumption must be billed on the arc itself
                coeffs = {y: 1.0}
                for pid in e_plans:
                    cons = a.consumption(pid)
                    if cons:
                        coeffs[model.x_index[(a.index, pid)]] = -cons
                if len(coeffs) > 1:
                    model.add_row(coeffs, ">=", 0.0, "sinkfloor")
        else:
            lo_coeffs = {y: 1.0}
            for pid in e_plans:
                exit_floor = bounds.exit_floor(a.head, pid)
                coef = a.consumption(pid) + exit_floor
                if not math.isfinite(coef):
                    coef = 2.0  # dead-end arc for this plan: forces x = 0
                lo_coeffs[model.x_index[(a.index, pid)]] = -min(coef, 2.0)
            model.add_row(lo_coeffs, ">=", 0.0, "strengthlo")
            hi_coeffs = {y: -1.0}
            for pid in e_plans:
                ceiling = bounds.arrival_ceiling(a.tail, pid)
                if not math.isfinite(ceiling):
                    ceiling = 0.0  # unreachable tail for this plan
                hi_coeffs[model.x_index[(a.index, pid)]] = max(min(ceiling, 1.0),
                                                               0.0)
            model.add_row(hi_coeffs, ">=", 0.0, "strengthhi")

    # --- energy flow through every non-depot node ------------------------------
    recharge_into = {}
    for a in graph.arcs:
        if a.kind == "recharge":
            recharge_into[a.head] = a
    for nid in sorted(graph.nodes):
        node = graph.nodes[nid]
        if node.kind in ("depot-source", "depot-sink"):
            continue
        coeffs: dict = {}
        for a in graph.in_arcs[nid]:
            for pid in a.plans:
                if pid in electric:
                    cons = a.consumption(pid)
                    if cons:
                        idx = model.x_index[(a.index, pid)]
                        coeffs[idx] = coeffs.get(idx, 0.0) + cons
            y = model.y_index[a.index]
            coeffs[y] = coeffs.get(y, 0.0) - 1.0
        for a in graph.out_arcs[nid]:
            y = model.y_index[a.index]
            coeffs[y] = coeffs.get(y, 0.0) + 1.0
        ra = recharge_into.get(nid)
        if ra is not None:
            for pid in ra.plans:
                if (ra.index, pid) in model.phi_index:
                    coeffs[model.phi_index[(ra.index, pid)]] = -1.0
        if coeffs:
            model.add_row(coeffs, "=", 0.0, "energy")

    # --- increment coupling and domain segments --------------------------------
    for a in graph.arcs:
        if a.kind != "recharge":
            continue
        y = model.y_index[a.index]
        for pid in a.plans:
            if (a.index, pid) not in model.phi_index:
                continue
            dom = _domain_for(domains, a.charger, vtype_of[pid])
            phi = model.phi_index[(a.index, pid)]
            x = model.x_index[(a.index, pid)]
            model.add_row({x: float(dom.offsets[0]), phi: -1.0}, ">=", 0.0,
                          "inccoupling")
            for j in range(1, dom.segment_count):
                model.add_row({y: float(dom.slopes[j]), phi: -1.0}, ">=",
                              -float(dom.offsets[j]), "incdomain")

    # --- grid capacity per (access point, step) ---------------------------------
    if options.grid_caps:
        slots_of_gp: dict = {}
        for c in inst.chargers:
            for s, cid in graph.slot_charger.items():
                if cid == c.id:
                    slots_of_gp.setdefault(c.grid_point, []).append(s)
        recharge_by_slot_step = {(a.slot, a.step): a
                                 for a in graph.arcs if a.kind == "recharge"}
        for g in inst.grid_points:
            slot_ids = sorted(slots_of_gp.get(g.id, []))
            if not slot_ids:
                continue
            for i in range(1, graph.horizon_steps + 1):
                limit = _grid_limit(g, graph, i, options.grid_limit_override)
                coeffs = {}
                for s in slot_ids:
                    a = recharge_by_slot_step.get((s, i))
                    if a is None:
                        continue
                    for pid in a.plans:
                        key = (a.index, pid)
                        if key in model.phi_index:
                            omega = battery[vtype_of[pid]] * 3600.0 / graph.theta
                            coeffs[model.phi_index[key]] = omega
                if coeffs and limit != math.inf:
                    model.add_row(coeffs, "<=", limit, "grid")

    if options.precondition_lead:
        add_preconditioning(model, options.precondition_lead)
    return model


def _grid_limit(gp, graph, step: int, override) -> float:
    if override is not None and gp.id in override:
        val = override[gp.id]
        if not isinstance(val, (int, float)):
            val = val[step - 1]
        val = float(val)
        if math.isnan(val):
            raise ModelError(
                f"grid limit override of {gp.id!r} is NaN at step {step}")
        return val
    lo = graph.event_time(step - 1)
    hi = graph.event_time(step)
    return gp.min_power_over(lo, hi)


def add_preconditioning(model: MilpModel, lead_steps: int) -> MilpModel:
    """Couple each increment to slot occupation ``lead_steps`` earlier.

    Models batteries that need preparation before drawing power: phi at step
    i stays zero unless the bus already held the slot at step i - lead.
    Arcs too close to the horizon start are skipped.
    """
    if lead_steps < 1:
        raise ModelError("lead_steps must be >= 1")
    graph = model.graph
    vtype_of = {p.id: p.vehicle_type for p in graph.plan_types}
    by_slot_step = {(a.slot, a.step): a for a in graph.arcs
                    if a.kind == "recharge"}
    for a in graph.arcs:
        if a.kind != "recharge":
            continue
        earlier = by_slot_step.get((a.slot, a.step - lead_steps))
        if earlier is None:
            continue
        for pid in a.plans:
            key = (a.index, pid)
            if key not in model.phi_index:
                continue
            dom = _domain_for(model.domains, a.charger, vtype_of[pid])
            x_prev = model.x_index[(earlier.index, pid)]
            model.add_row({x_prev: float(dom.offsets[0]),
                           model.phi_index[key]: -1.0}, ">=", 0.0,
                          "precondition")
    return model


_WRITERS = {"lp": write_lp, "mps": write_mps}


def emit_model(model: MilpModel, fmt: str, path, relax: bool = False) -> None:
    """Write the model as LP or MPS; byte-deterministic for a fixed model."""
    _emit(model.arrays(), fmt, path, relax)


def _emit(arrays: ModelArrays, fmt: str, path, relax: bool) -> None:
    if fmt not in _WRITERS:
        raise ModelError(f"unknown model format {fmt!r} (use 'lp' or 'mps')")
    _WRITERS[fmt](arrays, path, relax=relax)


def solve_model(model: MilpModel, workdir, command_template=None,
                fmt: str = "lp", time_limit=None, threads: int = 1,
                relax: bool = False) -> RawSolution:
    """Emit the model into ``workdir`` and solve it.

    With a ``command_template`` or ``EBUSOPT_SOLVER_CMD`` set, the emitted
    file goes through the subprocess bridge (``solverbridge.solve_external``).
    Otherwise HiGHS solves in this process on ``refsolver.emitted_arrays``
    of the model's arrays, which equal the arrays the bundled ``refsolver``
    would read back from the file, and the solution is written next to it as
    ``model.sol``.  The wall-clock kill of the bridge does not apply in
    process; HiGHS stops itself at ``time_limit``.  ``threads`` reaches only
    the bridge's command.  A failure inside HiGHS raises ``SolverError``.
    """
    os.makedirs(workdir, exist_ok=True)
    suffix = "_relax" if relax else ""
    model_path = os.path.join(workdir, f"model{suffix}.{fmt}")
    arrays = model.arrays()
    _emit(arrays, fmt, model_path, relax)
    if command_template or os.environ.get(SOLVER_ENV_VAR):
        return solve_external(model_path, command_template=command_template,
                              time_limit=time_limit, threads=threads)
    try:
        status, values, objective, bound = solve_arrays(
            emitted_arrays(arrays, fmt, relax), time_limit)
    except Exception as exc:  # solver-internal failure
        raise SolverError(f"in-process HiGHS failed: {exc}",
                          command=IN_PROCESS_COMMAND) from exc
    write_solution_text(os.path.join(workdir, f"model{suffix}.sol"), values,
                        status, objective, bound)
    return RawSolution(values=values, objective=objective, bound=bound,
                       status=status, command=IN_PROCESS_COMMAND)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

@dataclass
class ChargeWindow:
    slot: str
    charger: str
    grid_point: str
    start_step: int                 # first occupied step index (1-based)
    steps: list                     # step indices
    phis: list                      # soc increment per step
    soc_before: Optional[float] = None

    @property
    def total_phi(self) -> float:
        return float(sum(self.phis))

    @property
    def duration_steps(self) -> int:
        return len(self.steps)


@dataclass
class Course:
    plan: str
    vehicle_type: str
    depot: str
    arc_indices: list
    trips: list
    windows: list                   # list[ChargeWindow]
    cost: float

    def to_dict(self) -> dict:
        return {
            "plan": self.plan,
            "vehicle_type": self.vehicle_type,
            "depot": self.depot,
            "trips": list(self.trips),
            "arcs": list(self.arc_indices),
            "windows": [
                {"slot": w.slot, "charger": w.charger,
                 "grid_point": w.grid_point, "steps": list(w.steps),
                 "phis": [float(p) for p in w.phis]}
                for w in self.windows],
            "cost": self.cost,
        }


@dataclass
class Schedule:
    courses: list
    theta: float
    objective: float                # recomputed from arcs and increments
    solver_objective: Optional[float]
    solver_bound: Optional[float]
    solver_status: str
    y_values: dict = field(default_factory=dict)   # arc index -> soc value

    @property
    def fleet_size(self) -> int:
        return len(self.courses)

    def to_dict(self) -> dict:
        return {
            "format": "ebusopt-schedule",
            "theta": self.theta,
            "objective": self.objective,
            "solver_objective": self.solver_objective,
            "solver_bound": self.solver_bound,
            "solver_status": self.solver_status,
            "fleet_size": self.fleet_size,
            "courses": [c.to_dict() for c in self.courses],
        }

    def write_phi_csv(self, path) -> None:
        import csv
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["course", "slot", "step", "phi"])
            for ci, c in enumerate(self.courses):
                for win in c.windows:
                    for step, phi in zip(win.steps, win.phis):
                        w.writerow([ci, win.slot, step, f"{phi:.9g}"])


def decode_solution(model: MilpModel, raw: RawSolution,
                    graph: Optional[SchedulingGraph] = None) -> Schedule:
    """Flow-decompose a raw solution into depot-to-depot vehicle courses.

    Per plan type the active arcs form node-disjoint paths on the DAG (trip
    nodes are covered once, charge nodes have out-capacity one), so walking
    from each active pull-out arc is unambiguous.  Fractional binaries beyond
    the integrality tolerance and unbalanced flows are decode errors.
    """
    graph = graph or model.graph
    if not raw.has_incumbent:
        raise DecodeError(f"no incumbent to decode (status {raw.status})")
    active: dict = {}
    names = model.names
    for (arc_idx, pid), vidx in model.x_index.items():
        v = raw.value(names[vidx])
        if INTEGRALITY_TOL < v < 1.0 - INTEGRALITY_TOL:
            raise DecodeError(f"fractional flow {v:.6f} on {names[vidx]}")
        if v >= 1.0 - INTEGRALITY_TOL:
            active.setdefault(pid, []).append(graph.arcs[arc_idx])

    inst = graph.instance
    y_values = {a_idx: raw.value(names[vy])
                for a_idx, vy in model.y_index.items()}
    courses = []
    for pid in sorted(active):
        arcs = active[pid]
        out_by_node: dict = {}
        for a in arcs:
            out_by_node.setdefault(a.tail, []).append(a)
        starts = [a for a in arcs if graph.nodes[a.tail].kind == "depot-source"]
        used = set()
        for start in sorted(starts, key=lambda a: a.index):
            path = [start]
            used.add(start.index)
            node = start.head
            while graph.nodes[node].kind != "depot-sink":
                nexts = [a for a in out_by_node.get(node, [])
                         if a.index not in used]
                if len(nexts) != 1:
                    raise DecodeError(
                        f"flow imbalance at node {node} for plan {pid}: "
                        f"{len(nexts)} active continuations")
                path.append(nexts[0])
                used.add(nexts[0].index)
                node = nexts[0].head
            courses.append(_course_from_path(model, graph, pid, path, raw))
        leftover = [a.index for a in arcs if a.index not in used]
        if leftover:
            raise DecodeError(
                f"active arcs not reachable from any pull-out for plan {pid}: "
                f"{leftover[:5]}")

    covered = [t for c in courses for t in c.trips]
    if len(covered) != len(set(covered)):
        raise DecodeError("a trip is covered by more than one course")
    missing = {t.id for t in inst.trips} - set(covered)
    if missing:
        raise DecodeError(f"trips not covered by any course: {sorted(missing)}")

    objective = float(sum(c.cost for c in courses))
    return Schedule(courses=courses, theta=graph.theta, objective=objective,
                    solver_objective=raw.objective, solver_bound=raw.bound,
                    solver_status=raw.status, y_values=y_values)


def _course_from_path(model: MilpModel, graph: SchedulingGraph, pid: str,
                      path: list, raw: RawSolution) -> Course:
    inst = graph.instance
    vtype, depot = pid.split(".", 1)
    trips = []
    windows: list = []
    cost = 0.0
    current: Optional[ChargeWindow] = None
    for a in path:
        cost += a.cost.get(pid, 0.0)
        head = graph.nodes[a.head]
        if a.kind == "recharge":
            phi = 0.0
            key = (a.index, pid)
            if key in model.phi_index:
                phi = max(raw.value(model.names[model.phi_index[key]]), 0.0)
                cost += model.phi_cost[key] * phi
            if current is None:
                current = ChargeWindow(
                    slot=a.slot, charger=a.charger,
                    grid_point=inst.charger(a.charger).grid_point,
                    start_step=a.step, steps=[], phis=[],
                    soc_before=raw.value(model.names[model.y_index[a.index]]))
            current.steps.append(a.step)
            current.phis.append(phi)
        else:
            if current is not None:
                windows.append(current)
                current = None
            if head.kind == "trip":
                trips.append(head.trip)
    if current is not None:
        windows.append(current)
    return Course(plan=pid, vehicle_type=vtype, depot=depot,
                  arc_indices=[a.index for a in path], trips=trips,
                  windows=windows, cost=cost)


def save_schedule(schedule: Schedule, path) -> None:
    import json
    with open(path, "w") as fh:
        json.dump(schedule.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
