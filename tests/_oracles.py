"""Independent oracles used in the tests.

The dict-row model-file writers (``write_lp``, ``write_mps`` and
``parsed_model``) are the reference for the array-form writers and for
``lpformat.emitted_arrays``: they read a model only through its
``variables`` and ``rows`` record views.  The dict-row ``build_model`` and
``add_preconditioning`` build each row as a dict and append it with
``MilpModel.add_row``; they are the reference for the array-native
assembly.  The dict-row builder keeps its columns in (arc, plan) and arc
keyed dicts and hands them over as the model's ``x_col``, ``y_col`` and
``phi_col`` arrays at the end.  The unpruned ``build_graph`` gives every
charger arc every plan its charger serves; it is the reference for the
package's graph, which drops the plans that cannot reach a slot.  It lays
the graph out as ``Arc`` records and stores them in the package's columns,
one leg per arc; ``arc_records`` reads any graph's columns back as such
records, the form in which the tests and the dict-row builder read a graph.
``event_time`` and ``price_at`` are the scalar lookups of a timeline
event's time and a grid point's energy price, the reference for the
package's one-pass tables; ``pwl_value`` evaluates a PWL domain over the
outer product of socs and slopes, the reference for its segment-by-segment
minimum.  The readers at the bottom (``_tokenize_lp``, ``read_lp`` and
``read_mps``) lex an LP file one regex match per position and read an MPS
file line by line into a ``ParsedModel`` of name-keyed dicts, one per row;
with ``parsed_arrays`` they are the reference for the package's readers,
which build ``ModelArrays`` directly.

The closed-form charge curves evaluate the max-power charge curve
analytically, bypassing the numerical integrator entirely:

- constant rate c (no CV phase):    zeta(t) = c * t
- linear CV ramp (rate k*(1-y)):    zeta(t) = 1 - (1-y_v) * exp(-k (t - t_cv))
- quadratic CV (rate c*(1-s^2)):    zeta(t) = y_v + w * tanh(c/w (t - t_cv))

with t_cv = y_v / c, w = 1 - y_v, k = c / w.
"""

import math
import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ebusopt.lpformat import SENSES, LpFormatError, ModelArrays
from ebusopt.milp import MilpModel, ModelError, ModelOptions, _domain_for
from ebusopt.netgraph import (ARC_KINDS, GraphError, GraphOptions, Node,
                              SchedulingGraph, _snap_windows_to_steps,
                              compute_energy_bounds)


class ClosedFormCurve:
    """Analytic zeta / zeta^-1 with the same operator interface as the package."""

    def __init__(self, soc_fn, time_fn, soc_cap, t_cv):
        self._soc = soc_fn
        self._time = time_fn
        self.soc_cap = soc_cap
        self.t_full = time_fn(soc_cap)
        self.t_cv = t_cv

    def soc_at(self, t):
        t = np.asarray(t, dtype=float)
        out = np.minimum(self._soc(np.maximum(t, 0.0)), self.soc_cap)
        return float(out) if out.ndim == 0 else out

    def time_at(self, y):
        y = np.asarray(y, dtype=float)
        out = self._time(np.clip(y, 0.0, self.soc_cap))
        return float(out) if out.ndim == 0 else out

    def increment(self, y, t):
        y = np.minimum(np.asarray(y, dtype=float), self.soc_cap)
        out = np.maximum(self.soc_at(self.time_at(y) + np.asarray(t)) - y, 0.0)
        return float(out) if np.ndim(out) == 0 else out


def pwl_value(dom, y):
    """A PWL domain's bound min_j(alpha_j * y + beta_j), over the n x m
    outer product of socs and slopes at once."""
    y_arr = np.asarray(y, dtype=float)
    vals = dom.offsets + np.multiply.outer(y_arr, dom.slopes)
    out = np.min(vals, axis=-1)
    return float(out) if out.ndim == 0 else out


def constant_curve(c=0.5, soc_cap=0.999):
    return ClosedFormCurve(
        soc_fn=lambda t: c * t,
        time_fn=lambda y: y / c,
        soc_cap=soc_cap,
        t_cv=soc_cap / c,
    )


def linear_cv_curve(c=0.5, y_v=0.8, soc_cap=0.999):
    w = 1.0 - y_v
    k = c / w
    t_cv = y_v / c

    def soc(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < t_cv, c * t, 1.0 - w * np.exp(-k * (t - t_cv)))

    def time(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            cv = t_cv + np.log(w / np.maximum(1.0 - y, 1e-300)) / k
        return np.where(y < y_v, y / c, cv)

    return ClosedFormCurve(soc, time, soc_cap, t_cv)


def quadratic_cv_curve(c=0.5, y_v=0.6, soc_cap=0.999):
    w = 1.0 - y_v
    t_cv = y_v / c

    def soc(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < t_cv, c * t, y_v + w * np.tanh(c / w * (t - t_cv)))

    def time(y):
        y = np.asarray(y, dtype=float)
        s = np.clip((y - y_v) / w, 0.0, 1.0 - 1e-15)
        cv = t_cv + w / c * np.arctanh(s)
        return np.where(y < y_v, y / c, cv)

    return ClosedFormCurve(soc, time, soc_cap, t_cv)


# ---------------------------------------------------------------------------
# A model file as name-keyed dicts, and its solver arrays
# ---------------------------------------------------------------------------

@dataclass
class ParsedModel:
    minimize: bool = True
    objective: dict = field(default_factory=dict)    # var -> coefficient
    rows: list = field(default_factory=list)         # (name, coeffs, sense, rhs)
    lower: dict = field(default_factory=dict)        # var -> lb (default 0)
    upper: dict = field(default_factory=dict)        # var -> ub (default +inf)
    integers: set = field(default_factory=set)
    variables: list = field(default_factory=list)    # first-seen order

    def touch(self, name: str):
        if name not in self.lower:
            self.lower[name] = 0.0
            self.upper[name] = math.inf
            self.variables.append(name)


def parsed_arrays(model: ParsedModel, relax: bool = False) -> ModelArrays:
    """Arrays of a parsed model; ``relax`` makes its integer columns
    continuous."""
    from scipy import sparse

    names = model.variables
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    obj = np.zeros(n)
    for var, coef in model.objective.items():
        obj[index[var]] = coef
    if not model.minimize:
        obj = -obj

    data, ri, ci = [], [], []
    for r, (_, coeffs, _, _) in enumerate(model.rows):
        for var, coef in coeffs.items():
            ri.append(r)
            ci.append(index[var])
            data.append(coef)

    m = len(model.rows)
    a = sparse.csr_matrix((data, (ri, ci)), shape=(m, n))
    integer = np.zeros(n, bool)
    if not relax:
        for var in model.integers:
            integer[index[var]] = True
    return ModelArrays(
        names=names, obj=obj,
        lb=np.array([model.lower[v] for v in names], dtype=float),
        ub=np.array([model.upper[v] for v in names], dtype=float),
        integer=integer, start=a.indptr.astype(np.int64),
        cols=a.indices.astype(np.int64), vals=a.data,
        sense=np.array([SENSES.index(row[2]) for row in model.rows], np.int8),
        rhs=np.array([row[3] for row in model.rows], dtype=float),
        tag=np.zeros(m, np.int64), tags=["r"], minimize=model.minimize)


# ---------------------------------------------------------------------------
# Dict-row model-file writers (reference for the array-form writers)
# ---------------------------------------------------------------------------

def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return format(v, ".17g")


def _write_terms(fh, coeffs, name_of):
    items = list(coeffs)
    if not items:
        fh.write(" 0 __zero__")
        return
    for i, (var, coef) in enumerate(items):
        sign = "-" if coef < 0 else "+"
        mag = _num(abs(coef))
        fh.write(f" {sign} {mag} {name_of(var)}")
        if (i + 1) % 6 == 0 and i + 1 < len(items):
            fh.write("\n  ")


def write_lp(model, path, relax: bool = False) -> None:
    """CPLEX-style LP file; ``relax`` drops integrality (binaries become
    continuous in [0, 1])."""
    names = [v.name for v in model.variables]
    with open(path, "w") as fh:
        fh.write("\\ ebusopt model\n")
        fh.write("Minimize\n obj:")
        obj = [(i, v.obj) for i, v in enumerate(model.variables) if v.obj != 0.0]
        _write_terms(fh, obj, lambda i: names[i])
        fh.write("\nSubject To\n")
        for row in model.rows:
            fh.write(f" {row.name}:")
            _write_terms(fh, sorted(row.coeffs.items()), lambda i: names[i])
            sense = {"<=": "<=", ">=": ">=", "=": "="}[row.sense]
            fh.write(f" {sense} {_num(row.rhs)}\n")
        fh.write("Bounds\n")
        binaries = []
        for i, v in enumerate(model.variables):
            if v.binary:
                if relax:
                    fh.write(f" 0 <= {v.name} <= 1\n")
                else:
                    binaries.append(v.name)
                continue
            if v.ub == math.inf:
                if v.lb != 0.0:
                    fh.write(f" {v.name} >= {_num(v.lb)}\n")
            else:
                fh.write(f" {_num(v.lb)} <= {v.name} <= {_num(v.ub)}\n")
        if binaries:
            fh.write("Binaries\n")
            for i in range(0, len(binaries), 4):
                fh.write(" " + " ".join(binaries[i:i + 4]) + "\n")
        fh.write("End\n")


def parsed_model(model, fmt: str = "lp", relax: bool = False) -> ParsedModel:
    """What ``read_lp`` (or ``read_mps``) returns for the file ``write_lp``
    (or ``write_mps``) emits, built straight from the model.

    The writers print every number so that it reads back bit for bit, except
    that -0.0 reads back as 0.0; adding 0.0 does the same here.  Variable
    order is the reader's first-seen order: for LP the objective terms, then
    row terms, bound lines and binaries, with variables that appear in none
    of them left out; for MPS every column in model order.  Rows and the
    solver's problem are the same as for the file.
    """
    if fmt not in ("lp", "mps"):
        raise LpFormatError(f"unknown model format {fmt!r}")
    out = ParsedModel()
    touch = out.touch
    names = [v.name for v in model.variables]
    if fmt == "mps":
        for name in names:
            touch(name)
    for v in model.variables:
        if v.obj != 0.0:
            touch(v.name)
            out.objective[v.name] = v.obj
    for row in model.rows:
        coeffs = {}
        for i, coef in sorted(row.coeffs.items()):
            touch(names[i])
            coeffs[names[i]] = coef + 0.0
        out.rows.append((row.name, coeffs, row.sense, row.rhs + 0.0))
    binaries = []
    for v in model.variables:
        if v.binary:
            if relax:
                touch(v.name)
                out.upper[v.name] = 1.0
            else:
                binaries.append(v.name)
        elif v.lb != 0.0 or v.ub != math.inf:
            touch(v.name)
            out.lower[v.name] = v.lb + 0.0
            out.upper[v.name] = v.ub + 0.0
    for name in binaries:
        touch(name)
        out.integers.add(name)
        out.upper[name] = 1.0
    return out


def write_mps(model, path, relax: bool = False) -> None:
    names = [v.name for v in model.variables]
    sense_code = {"<=": "L", ">=": "G", "=": "E"}
    # column-major coefficient map
    col_entries: dict = {i: [] for i in range(len(names))}
    for i, v in enumerate(model.variables):
        if v.obj != 0.0:
            col_entries[i].append(("obj", v.obj))
    for row in model.rows:
        for i, coef in sorted(row.coeffs.items()):
            col_entries[i].append((row.name, coef))
    with open(path, "w") as fh:
        fh.write("NAME ebusopt\n")
        fh.write("ROWS\n N obj\n")
        for row in model.rows:
            fh.write(f" {sense_code[row.sense]} {row.name}\n")
        fh.write("COLUMNS\n")
        in_int = False
        for i, v in enumerate(model.variables):
            want_int = v.binary and not relax
            if want_int and not in_int:
                fh.write("    MARKER M1 'MARKER' 'INTORG'\n")
                in_int = True
            elif not want_int and in_int:
                fh.write("    MARKER M2 'MARKER' 'INTEND'\n")
                in_int = False
            entries = col_entries[i]
            if not entries:
                entries = [("obj", 0.0)]
            for j in range(0, len(entries), 2):
                chunk = entries[j:j + 2]
                parts = " ".join(f"{rn} {_num(c)}" for rn, c in chunk)
                fh.write(f"    {names[i]} {parts}\n")
        if in_int:
            fh.write("    MARKER M3 'MARKER' 'INTEND'\n")
        fh.write("RHS\n")
        for row in model.rows:
            if row.rhs != 0.0:
                fh.write(f"    RHS {row.name} {_num(row.rhs)}\n")
        fh.write("BOUNDS\n")
        for v in model.variables:
            if v.binary:
                if relax:
                    fh.write(f" UP BND {v.name} 1\n")
                else:
                    fh.write(f" BV BND {v.name}\n")
            else:
                if v.lb != 0.0:
                    fh.write(f" LO BND {v.name} {_num(v.lb)}\n")
                if v.ub != math.inf:
                    fh.write(f" UP BND {v.name} {_num(v.ub)}\n")
        fh.write("ENDATA\n")


# ---------------------------------------------------------------------------
# The graph as records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arc:
    index: int
    tail: str
    head: str
    kind: str                       # pullout | pullin | connection | access | egress | recharge
    plans: tuple                    # admissible plan ids
    move_consumption: dict          # plan id -> relative soc for the deadhead leg
    service_consumption: dict       # plan id -> relative soc for the head node's trip
    cost: dict                      # plan id -> cost contribution of x
    duration_s: int = 0
    charger: Optional[str] = None
    slot: Optional[str] = None
    step: Optional[int] = None      # recharge arcs: head event index i in 1..H
    available: bool = True          # recharge arcs: charger availability window

    def consumption(self, plan: str) -> float:
        return (self.move_consumption.get(plan, 0.0)
                + self.service_consumption.get(plan, 0.0))


def arc_records(graph) -> list:
    """The graph's arcs as ``Arc`` records in index order, read from its
    columns: an arc's plans are its pairs', its tables its leg's."""
    bounds = np.searchsorted(graph.pair_arc,
                             np.arange(len(graph.tail) + 1)).tolist()
    arcs = []
    for i in range(len(graph.tail)):
        plans = tuple(graph.plan_ids[p]
                      for p in graph.pair_plan[bounds[i]:bounds[i + 1]])
        duration, *tables = graph.legs[graph.leg[i]]
        move, service, cost = ({p: t[p] for p in plans if p in t}
                               for t in tables)
        sid = graph.slots[graph.slot[i]] if graph.slot[i] >= 0 else None
        arcs.append(Arc(
            i, graph.node_ids[graph.tail[i]], graph.node_ids[graph.head[i]],
            ARC_KINDS[graph.kind[i]], plans, move, service, cost, duration,
            graph.slot_charger.get(sid), sid, int(graph.step[i]) or None,
            bool(graph.available[i])))
    return arcs


def adjacency(arcs) -> tuple:
    """``(in_arcs, out_arcs)``: node id -> the records into (out of) it."""
    in_arcs, out_arcs = defaultdict(list), defaultdict(list)
    for a in arcs:
        in_arcs[a.head].append(a)
        out_arcs[a.tail].append(a)
    return in_arcs, out_arcs


# ---------------------------------------------------------------------------
# Dict-row model assembly (reference for the array-native ``build_model``)
# ---------------------------------------------------------------------------

def _mix_payoff_plans(inst):
    """Plans one more bus of which can help a mix row."""
    out = set()
    for m in inst.mix_constraints:
        net = defaultdict(float)
        for (vt, dep), kappa in zip(m.plan_types, m.coeffs):
            net[f"{vt}.{dep}"] += kappa
        for pid, k in net.items():
            if (m.lower > 0 and k > 0) or (m.upper < math.inf and k < 0):
                out.add(pid)
    return out


def _dropped_events(graph, arcs, sid, dead_steps, payoff):
    """The events of slot ``sid`` whose egress and pull-out arcs get no
    columns: inside a dead run and more than ``stack`` events after every
    anchor."""
    steps = graph.horizon_steps
    inside = [e for e in range(steps + 1)
              if e in dead_steps and e + 1 in dead_steps]
    if not inside:
        return set()
    anchors = [e for e in range(steps + 1)
               if e + 1 in dead_steps and e not in dead_steps]
    first_pullout, lowest_egress, sink, trips = {}, {}, {}, set()
    for a in arcs:
        if a.slot != sid:
            continue
        if a.kind == "access":
            anchors.append(graph.nodes[a.head].event)
        elif a.kind == "pullout":
            e = graph.nodes[a.head].event
            if a.tail not in first_pullout or e < first_pullout[a.tail][0]:
                first_pullout[a.tail] = (e, a)
        elif a.kind == "egress":
            e = graph.nodes[a.tail].event
            lowest_egress[a.head] = min(lowest_egress.get(a.head, e), e)
            if graph.nodes[a.head].kind == "trip":
                trips.add(a.head)
            else:
                sink[graph.nodes[a.head].depot] = a
    for tail, (e, a) in first_pullout.items():
        anchors.append(e)
        out = sink.get(graph.nodes[tail].depot)
        for pid in a.plans:
            if out is not None and pid in out.plans and (
                    pid in payoff or a.cost[pid] + out.cost[pid] < 0):
                return set()
    anchors += list(lowest_egress.values())
    stack = len(trips) + 1
    return {e for e in inside
            if not any(a <= e <= a + stack for a in anchors)}


def column_arcs(graph, arcs, dead, lead):
    """Per graph arc index, the index of the arc whose columns it uses, or
    None: egress and pull-out arcs at dropped events have none, and each
    arc of a chain of dead recharge arcs uses its chain's first arc."""
    rep = {a.index: a.index for a in arcs}
    if lead == 0:
        payoff = _mix_payoff_plans(graph.instance)
        for sid in graph.slots:
            dead_steps = {a.step for a in arcs
                          if a.slot == sid and a.index in dead}
            drop = _dropped_events(graph, arcs, sid, dead_steps, payoff)
            for a in arcs:
                at = graph.nodes[a.tail if a.kind == "egress" else a.head]
                if (a.kind in ("egress", "pullout") and at.slot == sid
                        and at.event in drop):
                    rep[a.index] = None
    n_in, n_out = defaultdict(int), defaultdict(int)
    for a in arcs:
        if rep[a.index] is not None:
            n_in[a.head] += 1
            n_out[a.tail] += 1
    recharge_into = {a.head: a for a in arcs if a.kind == "recharge"}
    for a in arcs:
        prev = recharge_into.get(a.tail)
        if (a.index in dead and prev is not None and prev.index in dead
                and n_in[a.tail] == 1 and n_out[a.tail] == 1):
            rep[a.index] = rep[prev.index]
    return rep


def event_time(graph, i: int) -> int:
    """The time of timeline event i, one event at a time."""
    return graph.instance.horizon[0] + int(i * graph.theta)


def price_at(gp, t: float) -> float:
    """A grid point's energy price at time t: the first entry whose
    [start, end) holds t, 0 where none does."""
    for s, e, p in gp.energy_price:
        if s <= t < e:
            return p
    return 0.0


def min_power_over(gp, start: float, end: float) -> float:
    """Most restrictive limit of a grid point over [start, end), one
    interval at a time: 0 where any part of it is uncovered."""
    lo = None
    for s, e, kw in gp.max_power_kw:
        if s < end and e > start:
            lo = kw if lo is None else min(lo, kw)
    covered_from = start
    for s, e, _ in sorted(gp.max_power_kw):
        if s > covered_from:
            return 0.0
        covered_from = max(covered_from, e)
        if covered_from >= end:
            break
    if covered_from < end:
        return 0.0
    return lo if lo is not None else 0.0


def _grid_limit(gp, graph, step: int, override) -> float:
    """The kW limit of one step: the override, or ``min_power_over`` of
    the step's event times."""
    if override is not None and gp.id in override:
        val = float(override[gp.id])
        if not val >= 0.0:
            raise ModelError(f"grid limit override of {gp.id!r} is {val}: "
                             f"NaN or negative")
        return val
    return min_power_over(gp, event_time(graph, step - 1),
                          event_time(graph, step))


def build_model(graph, domains, options=ModelOptions(), compress=True):
    """The dict-row assembly: one dict per row, appended with ``add_row``.

    With ``compress`` (the package's model) dead recharge steps get no phi,
    and egress, pull-out and recharge arcs get the columns ``column_arcs``
    gives them; without, every arc keeps its own columns (the reference for
    the exactness of that selection).
    """
    inst = graph.instance
    model = MilpModel(graph=graph, domains=domains, options=options)
    x_index, y_index, phi_index = {}, {}, {}    # (arc, plan) or arc -> var
    vtype_of = {p.id: p.vehicle_type for p in graph.plan_types}
    electric = {p.id for p in graph.plan_types if p.electric}
    battery = {v.id: v.battery_kwh for v in inst.vehicle_types}

    limits = {}
    for g in inst.grid_points:
        if any(inst.charger(cid).grid_point == g.id
               for cid in graph.slot_charger.values()):
            for i in range(1, graph.horizon_steps + 1):
                limits[g.id, i] = _grid_limit(g, graph, i,
                                              options.grid_limit_override)
    arcs = arc_records(graph)
    for a in arcs:
        if a.kind == "recharge":
            for pid in a.plans:
                if pid in electric:
                    _domain_for(domains, a.charger, vtype_of[pid])
    dead = set()
    if compress:
        for a in arcs:
            c = inst.charger(a.charger) if a.kind == "recharge" else None
            if c is not None and c.step_consumption == 0 and (
                    not a.available or limits[c.grid_point, a.step] == 0):
                dead.add(a.index)
    rep = column_arcs(graph, arcs, dead, options.precondition_lead)
    own = {i for i, r in rep.items() if r == i}
    kept_arcs = [a for a in arcs if rep[a.index] is not None]
    interior = {a.tail for a in kept_arcs if a.index not in own}

    # --- variables, canonical order: x per arc/plan, y per arc, phi ---------
    for a in kept_arcs:
        for pid in a.plans:
            if a.index in own:
                idx = model.add_vars([f"x[{a.index:06d}][{pid}]"],
                                     binary=True, obj=a.cost.get(pid, 0.0))
            else:
                idx = x_index[(rep[a.index], pid)]
            x_index[(a.index, pid)] = idx
    for a in kept_arcs:
        if a.index not in own:
            y_index[a.index] = y_index[rep[a.index]]
            continue
        ub = 1.0
        if a.index in dead:
            # the soc where the increment bound of a plan turns negative
            zero = math.inf
            for pid in a.plans:
                dom = _domain_for(domains, a.charger, vtype_of[pid])
                for j in range(1, dom.segment_count):
                    zero = min(zero, float(dom.offsets[j])
                               / -float(dom.slopes[j]))
            ub = min(1.0, zero)
        y_index[a.index] = model.add_vars([f"y[{a.index:06d}]"], ub=ub)
    for a in arcs:
        if a.kind != "recharge" or a.index in dead:
            continue
        gp = inst.grid_point(inst.charger(a.charger).grid_point)
        step_start = event_time(graph, a.step - 1)
        for pid in a.plans:
            if pid not in electric:
                continue
            dom = _domain_for(domains, a.charger, vtype_of[pid])
            price = price_at(gp, step_start) * battery[vtype_of[pid]]
            ub = dom.offsets[0] if a.available else 0.0
            idx = model.add_vars([f"phi[{a.index:06d}][{pid}]"], ub=ub,
                                 obj=price)
            phi_index[(a.index, pid)] = idx

    in_arcs, out_arcs = adjacency(kept_arcs)
    nodes = [nid for nid in sorted(graph.nodes) if nid not in interior]

    # --- flow conservation per (non-depot node, plan) ------------------------
    for nid in nodes:
        node = graph.nodes[nid]
        if node.kind in ("depot-source", "depot-sink"):
            continue
        plans_here = sorted({p for a in in_arcs[nid] for p in a.plans}
                            | {p for a in out_arcs[nid] for p in a.plans})
        for pid in plans_here:
            coeffs: dict = {}
            for a in in_arcs[nid]:
                if pid in a.plans:
                    coeffs[x_index[(a.index, pid)]] = 1.0
            for a in out_arcs[nid]:
                if pid in a.plans:
                    coeffs[x_index[(a.index, pid)]] = \
                        coeffs.get(x_index[(a.index, pid)], 0.0) - 1.0
            if coeffs:
                model.add_row(coeffs, "=", 0.0, "flow")

    # --- every trip serviced exactly once ------------------------------------
    for t in inst.trips:
        nid = f"trip:{t.id}"
        coeffs = {x_index[(a.index, pid)]: 1.0
                  for a in out_arcs[nid] for pid in a.plans}
        if not coeffs:
            raise ModelError(f"trip {t.id} has no outgoing arcs")
        model.add_row(coeffs, "=", 1.0, "cover")

    # --- out-capacity of charge nodes -----------------------------------------
    for nid in nodes:
        if graph.nodes[nid].kind == "charge":
            coeffs = {x_index[(a.index, pid)]: 1.0
                      for a in out_arcs[nid] for pid in a.plans}
            if coeffs:
                model.add_row(coeffs, "<=", 1.0, "capacity")

    # --- vehicle-mix constraints over the pull-outs with columns ---------------
    for m in inst.mix_constraints:
        coeffs: dict = {}
        for (vt, dep), kappa in zip(m.plan_types, m.coeffs):
            pid = f"{vt}.{dep}"
            for a in out_arcs[f"src:{dep}"]:
                if pid in a.plans:
                    idx = x_index[(a.index, pid)]
                    coeffs[idx] = coeffs.get(idx, 0.0) + kappa
        if not coeffs:
            continue
        if m.upper < math.inf:
            model.add_row(dict(coeffs), "<=", m.upper, "mix")
        if m.lower > 0:
            model.add_row(dict(coeffs), ">=", m.lower, "mix")

    # --- soc coupling, once per arc with its own columns -----------------------
    bounds = None
    if options.use_strengthening:
        bounds = compute_energy_bounds(graph)
    for a in kept_arcs:
        if a.index not in own:
            continue
        y = y_index[a.index]
        e_plans = [p for p in a.plans if p in electric]
        if a.kind == "pullout":
            coeffs = {x_index[(a.index, pid)]: 1.0 for pid in e_plans}
            coeffs[y] = coeffs.get(y, 0.0) - 1.0
            model.add_row(coeffs, "=", 0.0, "pullout")
            continue
        if not options.use_strengthening:
            coeffs = {x_index[(a.index, pid)]: 1.0 for pid in e_plans}
            coeffs[y] = coeffs.get(y, 0.0) - 1.0
            model.add_row(coeffs, ">=", 0.0, "coupling")
            if graph.nodes[a.head].kind == "depot-sink":
                # depot sinks have no energy row, so the last leg's
                # consumption must be billed on the arc itself
                coeffs = {y: 1.0}
                for pid in e_plans:
                    cons = a.consumption(pid)
                    if cons:
                        coeffs[x_index[(a.index, pid)]] = -cons
                if len(coeffs) > 1:
                    model.add_row(coeffs, ">=", 0.0, "sinkfloor")
        else:
            lo_coeffs = {y: 1.0}
            for pid in e_plans:
                floor = bounds.min_exit[graph.node_code[a.head],
                                        graph.plan_code[pid]]
                coef = a.consumption(pid) + floor
                if not math.isfinite(coef):
                    coef = 2.0  # dead-end arc for this plan: forces x = 0
                lo_coeffs[x_index[(a.index, pid)]] = -min(coef, 2.0)
            model.add_row(lo_coeffs, ">=", 0.0, "strengthlo")
            hi_coeffs = {y: -1.0}
            for pid in e_plans:
                ceiling = bounds.max_arrival[graph.node_code[a.tail],
                                             graph.plan_code[pid]]
                if not math.isfinite(ceiling):
                    ceiling = 0.0  # unreachable tail for this plan
                hi_coeffs[x_index[(a.index, pid)]] = max(min(ceiling, 1.0),
                                                         0.0)
            model.add_row(hi_coeffs, ">=", 0.0, "strengthhi")

    # --- energy flow through every non-depot node ------------------------------
    recharge_into = {}
    for a in arcs:
        if a.kind == "recharge":
            recharge_into[a.head] = a
    for nid in nodes:
        node = graph.nodes[nid]
        if node.kind in ("depot-source", "depot-sink"):
            continue
        coeffs: dict = {}
        for a in in_arcs[nid]:
            for pid in a.plans:
                if pid in electric:
                    cons = a.consumption(pid)
                    if cons:
                        idx = x_index[(a.index, pid)]
                        coeffs[idx] = coeffs.get(idx, 0.0) + cons
            y = y_index[a.index]
            coeffs[y] = coeffs.get(y, 0.0) - 1.0
        for a in out_arcs[nid]:
            y = y_index[a.index]
            coeffs[y] = coeffs.get(y, 0.0) + 1.0
        ra = recharge_into.get(nid)
        if ra is not None:
            for pid in ra.plans:
                if (ra.index, pid) in phi_index:
                    coeffs[phi_index[(ra.index, pid)]] = -1.0
        if coeffs:
            model.add_row(coeffs, "=", 0.0, "energy")

    # --- increment coupling and domain segments --------------------------------
    for a in arcs:
        if a.kind != "recharge":
            continue
        y = y_index[a.index]
        for pid in a.plans:
            if (a.index, pid) not in phi_index:
                continue
            dom = _domain_for(domains, a.charger, vtype_of[pid])
            phi = phi_index[(a.index, pid)]
            x = x_index[(a.index, pid)]
            model.add_row({x: float(dom.offsets[0]), phi: -1.0}, ">=", 0.0,
                          "inccoupling")
            for j in range(1, dom.segment_count):
                model.add_row({y: float(dom.slopes[j]), phi: -1.0}, ">=",
                              -float(dom.offsets[j]), "incdomain")

    # --- grid capacity per (access point, step) ---------------------------------
    slots_of_gp: dict = {}
    for c in inst.chargers:
        for s, cid in graph.slot_charger.items():
            if cid == c.id:
                slots_of_gp.setdefault(c.grid_point, []).append(s)
    recharge_by_slot_step = {(a.slot, a.step): a
                             for a in arcs if a.kind == "recharge"}
    for g in inst.grid_points:
        slot_ids = sorted(slots_of_gp.get(g.id, []))
        if not slot_ids:
            continue
        for i in range(1, graph.horizon_steps + 1):
            limit = limits[g.id, i]
            coeffs = {}
            for s in slot_ids:
                a = recharge_by_slot_step.get((s, i))
                if a is None:
                    continue
                for pid in a.plans:
                    key = (a.index, pid)
                    if key in phi_index:
                        omega = battery[vtype_of[pid]] * 3600.0 / graph.theta
                        coeffs[phi_index[key]] = omega
            if coeffs and limit != math.inf:
                model.add_row(coeffs, "<=", limit, "grid")

    if options.precondition_lead:
        add_preconditioning(model, options.precondition_lead, x_index,
                            phi_index)
    pairs = list(zip(graph.pair_arc.tolist(),
                     [graph.plan_ids[p] for p in graph.pair_plan]))
    model.x_col = np.array([x_index.get(k, -1) for k in pairs], np.int64)
    model.y_col = np.array([y_index.get(i, -1)
                            for i in range(len(graph.tail))], np.int64)
    model.phi_col = np.array([phi_index.get(k, -1) for k in pairs], np.int64)
    return model


def add_preconditioning(model, lead_steps, x_index, phi_index):
    """The dict-row preconditioning rows, one ``add_row`` per row."""
    if lead_steps < 1:
        raise ModelError("lead_steps must be >= 1")
    graph = model.graph
    vtype_of = {p.id: p.vehicle_type for p in graph.plan_types}
    arcs = arc_records(graph)
    by_slot_step = {(a.slot, a.step): a for a in arcs
                    if a.kind == "recharge"}
    for a in arcs:
        if a.kind != "recharge":
            continue
        earlier = by_slot_step.get((a.slot, a.step - lead_steps))
        if earlier is None:
            continue
        for pid in a.plans:
            key = (a.index, pid)
            if key not in phi_index:
                continue
            dom = _domain_for(model.domains, a.charger, vtype_of[pid])
            x_prev = x_index[(earlier.index, pid)]
            model.add_row({x_prev: float(dom.offsets[0]),
                           phi_index[key]: -1.0}, ">=", 0.0,
                          "precondition")
    return model


# ---------------------------------------------------------------------------
# Unpruned graph expansion (reference for ``netgraph.build_graph``)
# ---------------------------------------------------------------------------

def build_graph(instance, theta, options=GraphOptions()):
    """The full expansion: every charger arc carries every plan the
    charger serves, whether or not the plan can reach the slot.

    Connection arcs exist exactly for time-feasible pairs from the deadhead
    table (same-location connections are implicit with zero cost).  Charger
    access snaps forward to the next timeline event, egress leaves from any
    event that still reaches the target in time (optionally limited to a
    lookahead window before the latest such event).
    """
    start, end = instance.horizon
    span = end - start
    if span <= 0:
        raise GraphError("empty horizon")
    if theta <= 0 or span % int(theta) != 0:
        raise GraphError(f"theta={theta} must divide the horizon span {span}")
    horizon_steps = int(span // int(theta))

    plans = instance.plan_types()
    plan_by_depot = defaultdict(list)
    for p in plans:
        plan_by_depot[p.depot].append(p)
    etype_ids = {v.id for v in instance.vehicle_types if v.electric}

    nodes: dict = {}
    arcs: list = []

    def add_node(n):
        nodes[n.id] = n

    for d in instance.depots:
        add_node(Node(f"src:{d.id}", "depot-source", depot=d.id))
        add_node(Node(f"snk:{d.id}", "depot-sink", depot=d.id))
    for t in instance.trips:
        add_node(Node(f"trip:{t.id}", "trip", trip=t.id))

    slots, slot_charger = [], {}
    slot_available: dict = {}
    for c in instance.chargers:
        for j in range(c.slots):
            sid = f"{c.id}#{j}"
            slots.append(sid)
            slot_charger[sid] = c.id
            if c.windows:
                slot_available[sid] = _snap_windows_to_steps(
                    c.windows, start, theta, horizon_steps)
            else:
                slot_available[sid] = set(range(1, horizon_steps + 1))
            for i in range(horizon_steps + 1):
                add_node(Node(f"{sid}@{i}", "charge", slot=sid, event=i))

    dh = instance.deadhead_map()

    def charger_plans(cid):
        prof = instance.charger(cid).profiles
        return [p for p in plans if p.electric and p.vehicle_type in prof]

    def plan_cons(table, plan_ids):
        return {p: table.get(p.split(".", 1)[0], 0.0) for p in plan_ids}

    def electric_only(table, plan_ids):
        return {p: table.get(p.split(".", 1)[0], 0.0) for p in plan_ids
                if p.split(".", 1)[0] in etype_ids}

    counter = [0]

    def add_arc(**kw):
        a = Arc(index=counter[0], **kw)
        counter[0] += 1
        arcs.append(a)
        return a

    all_plan_ids = tuple(p.id for p in plans)
    fixed = {p.id: instance.vehicle_type(p.vehicle_type).fixed_cost
             for p in plans}

    def connection_leg(a_loc, b_loc):
        """(duration, consumption table, cost table) or None."""
        if a_loc == b_loc:
            return 0, {}, {}
        leg = dh.get((a_loc, b_loc))
        if leg is None:
            return None
        return leg.duration_s, leg.consumption, leg.cost

    # --- depot pull-outs / pull-ins to trips --------------------------------
    trips_with_pullout = set()
    for t in instance.trips:
        for d in instance.depots:
            leg = connection_leg(d.id, t.origin)
            if leg is None:
                continue
            dur, cons, cost = leg
            if start + dur > t.departure_s:
                continue
            pids = tuple(p.id for p in plan_by_depot[d.id])
            add_arc(tail=f"src:{d.id}", head=f"trip:{t.id}", kind="pullout",
                    plans=pids,
                    move_consumption=electric_only(cons, pids),
                    service_consumption=electric_only(t.consumption, pids),
                    cost={p: cost.get(p.split(".", 1)[0], 0.0) + fixed[p]
                          for p in pids},
                    duration_s=dur)
            trips_with_pullout.add(t.id)
        for d in instance.depots:
            leg = connection_leg(t.destination, d.id)
            if leg is None:
                continue
            dur, cons, cost = leg
            if t.arrival_s + dur > end:
                continue
            pids = tuple(p.id for p in plan_by_depot[d.id])
            add_arc(tail=f"trip:{t.id}", head=f"snk:{d.id}", kind="pullin",
                    plans=pids,
                    move_consumption=electric_only(cons, pids),
                    service_consumption={},
                    cost={p: cost.get(p.split(".", 1)[0], 0.0) for p in pids},
                    duration_s=dur)
    missing = [t.id for t in instance.trips if t.id not in trips_with_pullout]
    if missing:
        raise GraphError(f"trips unreachable from every depot: {missing}")

    # --- trip-to-trip connections -------------------------------------------
    def connects(a, b):
        leg = connection_leg(a.destination, b.origin)
        return leg is not None and a.arrival_s + leg[0] <= b.departure_s

    for i, a in enumerate(instance.trips):
        for j, b in enumerate(instance.trips):
            if i == j or not connects(a, b):
                continue
            # of two trips that connect both ways, only the one listed first
            # connects to the other
            if j < i and connects(b, a):
                continue
            dur, cons, cost = connection_leg(a.destination, b.origin)
            add_arc(tail=f"trip:{a.id}", head=f"trip:{b.id}", kind="connection",
                    plans=all_plan_ids,
                    move_consumption=electric_only(cons, all_plan_ids),
                    service_consumption=electric_only(b.consumption,
                                                      all_plan_ids),
                    cost=plan_cons(cost, all_plan_ids),
                    duration_s=dur)

    # --- charger timelines ---------------------------------------------------
    for sid in slots:
        cid = slot_charger[sid]
        cplans = charger_plans(cid)
        cpids = tuple(p.id for p in cplans)
        if not cpids:
            continue
        idle = instance.charger(cid).step_consumption
        idle_cons = ({p: idle for p in cpids} if idle else {})
        for i in range(1, horizon_steps + 1):
            add_arc(tail=f"{sid}@{i-1}", head=f"{sid}@{i}", kind="recharge",
                    plans=cpids, move_consumption=idle_cons,
                    service_consumption={},
                    cost={p: 0.0 for p in cpids},
                    duration_s=int(theta), charger=cid, slot=sid, step=i,
                    available=i in slot_available[sid])

        # access from trips (snap forward to the next event)
        for t in instance.trips:
            leg = connection_leg(t.destination, cid)
            if leg is None:
                continue
            dur, cons, cost = leg
            i = math.ceil((t.arrival_s + dur - start) / theta)
            if i > horizon_steps:
                continue
            add_arc(tail=f"trip:{t.id}", head=f"{sid}@{max(i, 0)}", kind="access",
                    plans=cpids, move_consumption=electric_only(cons, cpids),
                    service_consumption={},
                    cost=plan_cons(cost, cpids), duration_s=dur,
                    charger=cid, slot=sid)

        # access straight from depots (pull-out onto the timeline)
        for d in instance.depots:
            leg = connection_leg(d.id, cid)
            if leg is None:
                continue
            dur, cons, cost = leg
            pids = tuple(p.id for p in charger_plans(cid)
                         if p.depot == d.id)
            if not pids:
                continue
            i_min = max(0, math.ceil(dur / theta))
            for i in range(i_min, horizon_steps + 1):
                add_arc(tail=f"src:{d.id}", head=f"{sid}@{i}", kind="pullout",
                        plans=pids,
                        move_consumption=electric_only(cons, pids),
                        service_consumption={},
                        cost={p: cost.get(p.split(".", 1)[0], 0.0) + fixed[p]
                              for p in pids},
                        duration_s=dur, charger=cid, slot=sid)

        # egress to trips (leave at or before the latest feasible event)
        for t in instance.trips:
            leg = connection_leg(cid, t.origin)
            if leg is None:
                continue
            dur, cons, cost = leg
            i_max = math.floor((t.departure_s - dur - start) / theta)
            if i_max < 0:
                continue
            i_max = min(i_max, horizon_steps)
            i_lo = 0
            if options.egress_lookahead_steps is not None:
                i_lo = max(0, i_max - options.egress_lookahead_steps)
            for i in range(i_lo, i_max + 1):
                add_arc(tail=f"{sid}@{i}", head=f"trip:{t.id}", kind="egress",
                        plans=cpids,
                        move_consumption=electric_only(cons, cpids),
                        service_consumption=electric_only(t.consumption, cpids),
                        cost=plan_cons(cost, cpids), duration_s=dur,
                        charger=cid, slot=sid)

        # egress to depot sinks
        for d in instance.depots:
            leg = connection_leg(cid, d.id)
            if leg is None:
                continue
            dur, cons, cost = leg
            pids = tuple(p.id for p in charger_plans(cid) if p.depot == d.id)
            if not pids:
                continue
            for i in range(0, horizon_steps + 1):
                if start + i * theta + dur > end:
                    break
                add_arc(tail=f"{sid}@{i}", head=f"snk:{d.id}", kind="egress",
                        plans=pids,
                        move_consumption=electric_only(cons, pids),
                        service_consumption={},
                        cost=plan_cons(cost, pids), duration_s=dur,
                        charger=cid, slot=sid)

    # the arcs as the package's columns, one leg per arc
    code = {nid: i for i, nid in enumerate(sorted(nodes))}
    plan_code = {pid: k for k, pid in enumerate(sorted(p.id for p in plans))}
    slot_code = {sid: s for s, sid in enumerate(slots)}
    pairs = [(a.index, plan_code[p], a.cost[p], a.consumption(p))
             for a in arcs for p in a.plans]
    pair_arc, pair_plan, pair_cost, pair_cons = (
        np.array(col, dtype) for col, dtype in zip(
            zip(*pairs) if pairs else ([],) * 4,
            (np.int64, np.int64, float, float)))
    graph = SchedulingGraph(
        instance=instance, theta=float(theta), horizon_steps=horizon_steps,
        nodes=nodes, plan_types=plans, slots=slots, slot_charger=slot_charger,
        tail=np.array([code[a.tail] for a in arcs], np.int64),
        head=np.array([code[a.head] for a in arcs], np.int64),
        kind=np.array([ARC_KINDS.index(a.kind) for a in arcs], np.int8),
        slot=np.array([slot_code.get(a.slot, -1) for a in arcs], np.int64),
        step=np.array([a.step or 0 for a in arcs], np.int64),
        available=np.array([a.available for a in arcs], bool),
        leg=np.arange(len(arcs)),
        legs=[(a.duration_s, a.move_consumption, a.service_consumption,
               a.cost) for a in arcs],
        pair_arc=pair_arc, pair_plan=pair_plan, pair_cost=pair_cost,
        pair_cons=pair_cons)
    graph.topological_order()  # raises on cycles
    return graph


# ---------------------------------------------------------------------------
# Per-position regex LP reader and line-by-line MPS reader (with
# ``parsed_arrays``, the reference for the array readers)
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(
    r"^\s*(minimize|minimise|min|maximize|maximise|max|subject\s+to|such\s+that"
    r"|s\.t\.|st|bounds?|binar(?:y|ies)|bin|generals?|gen|integers?|int|end)\s*$",
    re.IGNORECASE)

_TOKEN_RE = re.compile(
    r"(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?![\w.\[\]@#]))"
    r"|(?P<name>[A-Za-z_!\"#$%&(),;?@'`{}|~.][A-Za-z0-9_!\"#$%&(),;?@'`{}|~.\[\]]*)"
    r"|(?P<op><=|>=|=<|=>|=|\+|-|:)"
    r"|(?P<ws>\s+)")


def _tokenize_lp(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LpFormatError(f"cannot tokenize LP text near {text[pos:pos+30]!r}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        kind = m.lastgroup
        val = m.group()
        if kind == "op" and val in ("=<", "=>"):
            val = "<=" if val == "=<" else ">="
        tokens.append((kind, val))
    return tokens


def _parse_linear_expr(tokens, i):
    """Parse [+-] [coef] name ... ; returns (coeffs, next index)."""
    coeffs: dict = {}
    sign = 1.0
    pending_coef = None
    while i < len(tokens):
        kind, val = tokens[i]
        if kind == "op" and val in ("+", "-"):
            if val == "-":
                sign = -sign
            i += 1
        elif kind == "num":
            if pending_coef is not None:
                raise LpFormatError("two consecutive numbers in expression")
            pending_coef = float(val)
            i += 1
        elif kind == "name":
            coef = sign * (pending_coef if pending_coef is not None else 1.0)
            coeffs[val] = coeffs.get(val, 0.0) + coef
            sign, pending_coef = 1.0, None
            i += 1
        else:
            break
    return coeffs, pending_coef, sign, i


def read_lp(path) -> ParsedModel:
    with open(path) as fh:
        raw_lines = fh.readlines()
    # strip comments, find sections
    sections: list = []  # (kind, text)
    current, buf = None, []
    for line in raw_lines:
        line = line.split("\\", 1)[0].rstrip("\n")
        if not line.strip():
            continue
        m = _SECTION_RE.match(line)
        if m:
            if current is not None:
                sections.append((current, "\n".join(buf)))
            word = re.sub(r"\s+", " ", m.group(1).lower())
            if word in ("minimize", "minimise", "min"):
                current = "objective-min"
            elif word in ("maximize", "maximise", "max"):
                current = "objective-max"
            elif word in ("subject to", "such that", "s.t.", "st"):
                current = "constraints"
            elif word in ("bound", "bounds"):
                current = "bounds"
            elif word in ("binary", "binaries", "bin"):
                current = "binaries"
            elif word in ("general", "generals", "gen", "integer", "integers",
                          "int"):
                current = "generals"
            else:
                current = "end"
            buf = []
        else:
            buf.append(line)
    if current is not None:
        sections.append((current, "\n".join(buf)))

    model = ParsedModel()
    for kind, text in sections:
        if kind in ("objective-min", "objective-max"):
            model.minimize = kind == "objective-min"
            tokens = _tokenize_lp(text)
            i = 0
            if (len(tokens) >= 2 and tokens[0][0] == "name"
                    and tokens[1] == ("op", ":")):
                i = 2
            coeffs, pending, _, i = _parse_linear_expr(tokens, i)
            if i != len(tokens) or pending is not None:
                raise LpFormatError("trailing tokens in objective")
            coeffs.pop("__zero__", None)
            for var in coeffs:
                model.touch(var)
            model.objective = coeffs
        elif kind == "constraints":
            tokens = _tokenize_lp(text)
            i = 0
            while i < len(tokens):
                name = None
                if (i + 1 < len(tokens) and tokens[i][0] == "name"
                        and tokens[i + 1] == ("op", ":")):
                    name = tokens[i][1]
                    i += 2
                coeffs, pending, _, i = _parse_linear_expr(tokens, i)
                if pending is not None:
                    raise LpFormatError("constraint ends with a dangling number")
                if i >= len(tokens) or tokens[i][0] != "op" \
                        or tokens[i][1] not in ("<=", ">=", "="):
                    raise LpFormatError(f"constraint {name or coeffs}: missing sense")
                sense = tokens[i][1]
                i += 1
                sign = 1.0
                if i < len(tokens) and tokens[i] == ("op", "-"):
                    sign, i = -1.0, i + 1
                elif i < len(tokens) and tokens[i] == ("op", "+"):
                    i += 1
                if i >= len(tokens) or tokens[i][0] != "num":
                    raise LpFormatError(f"constraint {name}: missing rhs")
                rhs = sign * float(tokens[i][1])
                i += 1
                coeffs.pop("__zero__", None)
                for var in coeffs:
                    model.touch(var)
                model.rows.append((name or f"r{len(model.rows)}", coeffs,
                                   sense, rhs))
        elif kind == "bounds":
            for line in text.split("\n"):
                _parse_bound_line(line, model)
        elif kind == "binaries":
            for var in text.split():
                model.touch(var)
                model.integers.add(var)
                model.lower[var] = 0.0
                model.upper[var] = min(model.upper.get(var, math.inf), 1.0)
        elif kind == "generals":
            for var in text.split():
                model.touch(var)
                model.integers.add(var)
    return _finite(model)


def _finite(model: ParsedModel) -> ParsedModel:
    """The model, unless it holds a number the formats have no use for: NaN
    anywhere, or an infinite coefficient or rhs."""
    numbers = list(model.objective.values())
    for _, coeffs, _, rhs in model.rows:
        numbers += [*coeffs.values(), rhs]
    bounds = [*model.lower.values(), *model.upper.values()]
    if not all(map(math.isfinite, numbers)) or any(map(math.isnan, bounds)):
        raise LpFormatError("a NaN, or an infinite coefficient or rhs")
    return model


def _parse_bound_line(line: str, model: ParsedModel) -> None:
    tokens = _tokenize_lp(line)
    if not tokens:
        return
    if len(tokens) == 2 and tokens[1][1].lower() == "free":
        var = tokens[0][1]
        model.touch(var)
        model.lower[var] = -math.inf
        return

    def read_value(i):
        sign = 1.0
        if tokens[i] == ("op", "-"):
            sign, i = -1.0, i + 1
        elif tokens[i] == ("op", "+"):
            i += 1
        kind, val = tokens[i]
        if kind == "num":
            return sign * float(val), i + 1
        if kind == "name" and val.lower() in ("inf", "infinity", "+inf"):
            return sign * math.inf, i + 1
        raise LpFormatError(f"bad bound value in {line!r}")

    # forms: v op b | b op v | b op v op b
    if tokens[0][0] == "name" and tokens[0][1].lower() not in ("inf", "infinity"):
        var = tokens[0][1]
        model.touch(var)
        sense = tokens[1][1]
        value, _ = read_value(2)
        if sense == "<=":
            model.upper[var] = value
        elif sense == ">=":
            model.lower[var] = value
        else:
            model.lower[var] = model.upper[var] = value
        return
    lo, i = read_value(0)
    if tokens[i][1] != "<=":
        raise LpFormatError(f"bad bound line {line!r}")
    var = tokens[i + 1][1]
    model.touch(var)
    model.lower[var] = lo
    if i + 2 < len(tokens):
        if tokens[i + 2][1] != "<=":
            raise LpFormatError(f"bad bound line {line!r}")
        hi, _ = read_value(i + 3)
        model.upper[var] = hi


def read_mps(path) -> ParsedModel:
    model = ParsedModel()
    section = None
    row_sense: dict = {}
    obj_row = None
    rows_order: list = []
    row_coeffs: dict = {}
    row_rhs: dict = {}
    integer_mode = False
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("*"):
                continue
            if not line[0].isspace():
                parts = line.split()
                section = parts[0].upper()
                if section == "ENDATA":
                    break
                continue
            parts = line.split()
            if section == "ROWS":
                code, name = parts[0].upper(), parts[1]
                if code == "N":
                    if obj_row is None:
                        obj_row = name
                elif name in row_sense:
                    raise LpFormatError(f"MPS row {name!r} is named twice")
                else:
                    row_sense[name] = {"L": "<=", "G": ">=", "E": "="}[code]
                    rows_order.append(name)
                    row_coeffs[name] = {}
            elif section == "COLUMNS":
                if len(parts) >= 3 and parts[1].startswith("'MARKER'"):
                    integer_mode = parts[2].strip("'") == "INTORG"
                    continue
                if "'MARKER'" in parts:
                    integer_mode = "'INTORG'" in parts
                    continue
                var = parts[0]
                model.touch(var)
                if integer_mode:
                    model.integers.add(var)
                for j in range(1, len(parts) - 1, 2):
                    row, val = parts[j], float(parts[j + 1])
                    if row == obj_row:
                        model.objective[var] = model.objective.get(var, 0.0) + val
                    elif row in row_coeffs:
                        idx = row_coeffs[row]
                        idx[var] = idx.get(var, 0.0) + val
                    else:
                        raise LpFormatError(f"MPS column references unknown row "
                                            f"{row!r}")
            elif section == "RHS":
                for j in range(1, len(parts) - 1, 2):
                    row_rhs[parts[j]] = float(parts[j + 1])
            elif section == "RANGES":
                raise LpFormatError("MPS RANGES section is not supported")
            elif section == "BOUNDS":
                btype = parts[0].upper()
                var = parts[2]
                model.touch(var)
                if btype == "UP":
                    model.upper[var] = float(parts[3])
                elif btype == "LO":
                    model.lower[var] = float(parts[3])
                elif btype == "FX":
                    model.lower[var] = model.upper[var] = float(parts[3])
                elif btype == "BV":
                    model.integers.add(var)
                    model.lower[var] = 0.0
                    model.upper[var] = 1.0
                elif btype == "MI":
                    model.lower[var] = -math.inf
                elif btype == "PL":
                    model.upper[var] = math.inf
                elif btype == "UI":
                    model.integers.add(var)
                    model.upper[var] = float(parts[3])
                else:
                    raise LpFormatError(f"unsupported bound type {btype!r}")
    for name in rows_order:
        model.rows.append((name, row_coeffs[name], row_sense[name],
                           row_rhs.get(name, 0.0)))
    # integer variables with no explicit bounds default to [0, 1] in MPS
    for var in model.integers:
        if model.upper.get(var) == math.inf:
            model.upper[var] = 1.0
    return _finite(model)
