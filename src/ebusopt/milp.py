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
limit (+inf kW) gets no grid rows; a NaN or negative limit override is a
``ModelError``.  Charger time with no power (outside the windows, or a
limit of exactly 0 kW) gets no columns where that is exact; see
``build_model``.

``MilpModel`` keeps the program in ``lpformat.ModelArrays``, the one array
form (columns with their bounds, [0, 1] for a binary, plus CSR rows); the
LP/MPS writers, the readers, the in-process HiGHS solve and the decoder all
use that form, never per-row records; the in-process solve hands those
arrays to HiGHS with no model or solution file.  ``build_model`` reads the
graph's columns, never an ``Arc`` record, and builds each constraint family
as COO entries in one numpy pass, appended in one ``add_rows`` call; only
the few vehicle-mix rows are built one dict at a time.  The model maps the
graph's pairs and arcs to its columns with three arrays (``x_col``,
``y_col``, ``phi_col``), and ``decode_solution`` walks the courses back
over those and the graph's columns.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .chargemodel import IncrementDomainPWL
from .lpformat import (SENSES, ModelArrays, RawSolution, _Records,
                       emitted_arrays, write_lp, write_mps)
from .netgraph import (ACCESS, CHARGE, EGRESS, PULLOUT, RECHARGE, SINK,
                       SOURCE, TRIP, SchedulingGraph)
from .refsolver import solve_arrays
from .solverbridge import SolverError, external_command, solve_external

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
    precondition_lead: int = 0      # see _add_precondition_rows
    grid_limit_override: Optional[dict] = None  # grid point id -> kW


_SENSE_CODE = {sense: code for code, sense in enumerate(SENSES)}


def _codes(labels, n: int, code_of) -> np.ndarray:
    """Codes of ``n`` rows' labels, given as one string or one per row.

    ``code_of`` maps each distinct label, called in order of first use.
    """
    if isinstance(labels, str):
        return np.full(n, code_of(labels) if n else 0, np.int64)
    uniq, first, inv = np.unique(labels, return_index=True,
                                 return_inverse=True)
    codes = np.empty(len(uniq), np.int64)
    for u in np.argsort(first):
        codes[u] = code_of(str(uniq[u]))
    return codes[inv]


def _joined(chunks: list) -> tuple:
    """The chunks' arrays joined field by field; the join replaces them."""
    if len(chunks) > 1:
        chunks[:] = [tuple(np.concatenate(f) for f in zip(*chunks))]
    return chunks[0]


def _no_columns() -> list:
    return [(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0, bool))]


def _no_rows() -> list:
    return [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0),
             np.zeros(0, np.int8), np.zeros(0), np.zeros(0, np.int64))]


@dataclass
class MilpModel:
    """The MIP over a scheduling graph, stored in one array form.

    ``add_vars`` appends columns (name, objective, bounds, binary flag) and
    ``add_rows`` a batch of rows, given as COO entries, in CSR layout: per
    row its columns in ascending order with their coefficients, then a
    sense code, the right-hand side and a tag id.  ``add_var`` and
    ``add_row`` are their one-column and one-row calls.  Each call keeps
    its batch as numpy arrays; ``arrays()`` joins the batches once and
    hands them to the LP/MPS writers and to the in-process solve as a
    read-only ``lpformat.ModelArrays``.  ``variables`` and ``rows`` are
    read-only views that build one ``Var``/``Row`` record per access; row
    names ``{tag}{index:07d}`` exist only in those records and in the
    files.  The objective is always minimised.  ``x_col``, ``y_col`` and
    ``phi_col`` are the one map from the graph's pairs and arcs to columns.
    """

    graph: SchedulingGraph
    domains: dict                     # (charger id, vehicle type id) -> PWL domain
    options: ModelOptions
    # the column of each graph (arc, plan) pair's x and phi and of each
    # graph arc's y, -1 where there is none (see _GraphArrays)
    x_col: Optional[np.ndarray] = field(default=None, compare=False)
    y_col: Optional[np.ndarray] = field(default=None, compare=False)
    phi_col: Optional[np.ndarray] = field(default=None, compare=False)
    names: list = field(default_factory=list)      # per column
    tags: dict = field(default_factory=dict)       # tag -> code, first use first
    # batches of (obj, lb, ub, binary) per column and of (ends, cols, vals,
    # sense, rhs, tag): per row its end offset into the entries, per entry
    # column and coefficient, per row the sense code, rhs and tag code
    _columns: list = field(default_factory=_no_columns, init=False,
                           repr=False, compare=False)
    _rows: list = field(default_factory=_no_rows, init=False, repr=False,
                        compare=False)
    _nnz: int = field(default=0, init=False, repr=False, compare=False)

    def add_var(self, name, lb=0.0, ub=math.inf, binary=False, obj=0.0) -> int:
        return self.add_vars([name], obj, lb, ub, binary)

    def add_vars(self, names: list, obj=0.0, lb=0.0, ub=math.inf,
                 binary=False) -> int:
        """Append one column per name and return the first one's index.

        ``obj``, ``lb``, ``ub`` and ``binary`` are one value for every new
        column or one per column; a binary column's bounds are [0, 1].
        """
        lb = np.where(binary, 0.0, lb)
        ub = np.where(binary, 1.0, ub)
        first, n = len(self.names), len(names)
        self.names += names
        self._columns.append(tuple(
            np.array(np.broadcast_to(np.asarray(value, dtype), n))
            for value, dtype in ((obj, float), (lb, float), (ub, float),
                                 (binary, bool))))
        return first

    def add_row(self, coeffs: dict, sense: str, rhs: float, tag: str) -> None:
        self.add_rows(np.zeros(len(coeffs), np.int64), list(coeffs),
                      list(coeffs.values()), sense, [rhs], tag)

    def add_rows(self, row, col, val, sense, rhs, tag) -> None:
        """Append ``len(rhs)`` rows given as COO entries.

        Entry k puts ``val[k]`` on column ``col[k]`` of new row ``row[k]``,
        counted from 0 among the new rows.  A row holds each column at most
        once; its entries are stored in ascending column order, zeros
        included.  ``sense`` and ``tag`` are one string for every row or
        one per row; a tag gets the next code when its first row arrives.
        """
        rhs = np.array(rhs, dtype=float)
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        order = np.lexsort((col, row))
        ends = self._nnz + np.cumsum(np.bincount(row, minlength=len(rhs)))
        self._nnz += len(order)
        self._rows.append((
            ends, col[order], np.asarray(val, dtype=float)[order],
            _codes(sense, len(rhs), _SENSE_CODE.__getitem__).astype(np.int8),
            rhs, _codes(tag, len(rhs), lambda t: self.tags.setdefault(
                t, len(self.tags)))))

    def arrays(self) -> ModelArrays:
        """The storage as read-only arrays; later ``add_*`` calls leave
        them be."""
        obj, lb, ub, binary = _joined(self._columns)
        ends, cols, vals, sense, rhs, tag = _joined(self._rows)
        start = np.concatenate([np.zeros(1, np.int64), ends])
        arrays = (obj, lb, ub, binary, start, cols, vals, sense, rhs, tag)
        for a in arrays:
            a.flags.writeable = False
        return ModelArrays(list(self.names), *arrays, tags=list(self.tags))

    @property
    def variables(self) -> "_Records":
        return _Records(len(self.names), self._var)

    @property
    def rows(self) -> "_Records":
        return _Records(len(_joined(self._rows)[0]), self._row)

    def _var(self, j: int) -> Var:
        obj, lb, ub, binary = _joined(self._columns)
        return Var(self.names[j], float(lb[j]), float(ub[j]), bool(binary[j]),
                   float(obj[j]))

    def _row(self, r: int) -> Row:
        ends, cols, vals, sense, rhs, tag = _joined(self._rows)
        s, e = (int(ends[r - 1]) if r else 0), int(ends[r])
        name = list(self.tags)[tag[r]]
        return Row(f"{name}{r:07d}",
                   dict(zip(cols[s:e].tolist(), vals[s:e].tolist())),
                   SENSES[sense[r]], float(rhs[r]), name)

    def rows_by_tag(self) -> dict:
        counts = np.bincount(_joined(self._rows)[5], minlength=len(self.tags))
        return {t: int(c) for t, c in zip(self.tags, counts) if c}

    @property
    def num_variables(self) -> int:
        return len(self.names)

    @property
    def minimize(self) -> bool:
        return True


def _domain_for(domains: dict, charger: str, vtype: str) -> IncrementDomainPWL:
    dom = domains.get((charger, vtype))
    if dom is None:
        raise ModelError(
            f"no increment domain for charger {charger!r} x type {vtype!r}")
    return dom


def _grid_limits(graph: SchedulingGraph, override):
    """Per (grid point rank, step 0..H) the kW limit, and per slot the rank
    of its grid point.

    Step i's limit is the override of its point, or the least limit of the
    point's ``max_power_kw`` table over the step's event times.  Only
    points with slots are read (step 0 and other points stay +inf), so a
    NaN or negative override fails for any point with slots.
    """
    inst, steps = graph.instance, graph.horizon_steps
    gp_rank = {gp.id: r for r, gp in enumerate(inst.grid_points)}
    slot_gp = np.array([gp_rank[inst.charger(graph.slot_charger[sid])
                                .grid_point] for sid in graph.slots], int)
    limit = np.full((len(inst.grid_points), steps + 1), math.inf)
    times = np.array([graph.event_time(i) for i in range(steps + 1)], float)
    for r, gp in enumerate(inst.grid_points):
        if not (slot_gp == r).any():
            continue
        if override is not None and gp.id in override:
            val = float(override[gp.id])
            if not val >= 0.0:
                raise ModelError(f"grid limit override of {gp.id!r} is "
                                 f"{val}: NaN or negative")
            limit[r, 1:] = val
        else:
            limit[r, 1:] = _min_power_steps(gp.max_power_kw, times)
    return limit, slot_gp


def _min_power_steps(table, times: np.ndarray) -> np.ndarray:
    """The kW limit of each step [times[i - 1], times[i]) of the increasing
    ``times``, over a piecewise-constant (start, end, kW) ``table``.

    A step gets the least kW of the entries that meet it, or 0 when the
    union of the entries leaves part of it uncovered.  The union is a list
    of runs; one ``searchsorted`` finds the run a step starts in, and the
    step is covered when that run reaches its end.
    """
    start, end, kw = np.array(table, float).reshape(-1, 3).T
    meets = (start < times[1:, None]) & (end > times[:-1, None])
    least = np.where(meets, kw, np.inf).min(axis=1, initial=np.inf)
    order = np.argsort(start)
    start, reach = start[order], np.maximum.accumulate(end[order])
    # a run begins at an entry that starts past the reach of those before;
    # the sentinel run (-inf, -inf) covers nothing
    first = np.flatnonzero(start > np.append(-np.inf, reach[:-1]))
    run_start = np.append(-np.inf, start[first])
    run_end = np.concatenate([[-np.inf], reach[first[1:] - 1], reach[-1:]])
    run = np.searchsorted(run_start, times[:-1], "right") - 1
    covered = run_end[run] >= times[1:]
    return np.where(covered, least, 0.0)


def _mix_payoff_plans(graph: SchedulingGraph) -> np.ndarray:
    """Per plan code, whether one more bus of the plan can help a
    vehicle-mix row: a positive net coefficient in a row with a lower
    bound, or a negative one in a row with an upper bound."""
    code = graph.plan_code
    out = np.zeros(len(code), bool)
    for m in graph.instance.mix_constraints:
        net = np.zeros(len(out))
        for (vt, dep), kappa in zip(m.plan_types, m.coeffs):
            if f"{vt}.{dep}" in code:
                net[code[f"{vt}.{dep}"]] += kappa
        out |= (m.lower > 0) & (net > 0) | (m.upper < math.inf) & (net < 0)
    return out


def _dropped_events(graph: SchedulingGraph, on: np.ndarray, event: np.ndarray,
                    dead: np.ndarray, mix_payoff: np.ndarray):
    """Events of one slot whose egress and pull-out arcs get no columns.

    ``on`` flags the slot's arcs, ``event`` holds each node's timeline
    event and ``dead[i]`` flags step i (1..H).  An event strictly inside a
    dead run (steps i and i + 1 both dead) is dropped unless it lies
    within ``stack`` events after an anchor; see ``build_model``.  Returns
    a bool array over the events 0..H, or None when nothing is dropped.
    """
    steps = graph.horizon_steps
    d = np.concatenate([[False], dead, [False]])    # steps 0..H + 1
    inside = d[:-1] & d[1:]
    if not inside.any():
        return None
    kind, tail, head = graph.kind, graph.tail, graph.head
    pullout = np.flatnonzero(on & (kind == PULLOUT))
    egress = np.flatnonzero(on & (kind == EGRESS))
    to_sink = graph.node_kind[head[egress]] == SINK
    # the lowest event of each pull-out leg (per depot source) and of each
    # egress leg (per trip or depot sink)
    lowest = np.full(len(graph.node_ids), steps + 1)
    np.minimum.at(lowest, tail[pullout], event[head[pullout]])
    np.minimum.at(lowest, head[egress], event[tail[egress]])
    anchors = np.concatenate([
        np.flatnonzero(d[1:] & ~d[:-1]),            # each run's first event
        event[head[on & (kind == ACCESS)]], lowest[lowest <= steps]])
    # parked buses may pay: no bound on stacking.  Per plan, its cheapest
    # pull-out plus its cheapest egress to a sink (inf where one is missing)
    low = np.full((2, len(mix_payoff)), math.inf)
    for side, arcs in enumerate((pullout, egress[to_sink])):
        pair = np.isin(graph.pair_arc, arcs)
        np.minimum.at(low[side], graph.pair_plan[pair], graph.pair_cost[pair])
    parked = low[0] + low[1]
    if (np.isfinite(parked) & (mix_payoff | (parked < 0))).any():
        return None
    stack = len(np.unique(head[egress[~to_sink]])) + 1
    kept = np.zeros(steps + stack + 2, int)
    np.add.at(kept, anchors, 1)
    np.add.at(kept, anchors + stack + 1, -1)
    drop = inside & (np.cumsum(kept)[:steps + 1] == 0)
    return drop if drop.any() else None


class _GraphArrays:
    """The graph's columns narrowed to the arcs that get columns, plus the
    domain, price and limit tables the row families use.

    Nodes and plans keep the graph's codes (their rank in sorted id
    order), slots their position in ``graph.slots``.  The model's arcs are
    the graph's arcs that get columns, with each chain of dead recharge
    arcs folded into its first arc, which takes the chain's last head (see
    ``build_model``); ``arc_ids`` holds their graph indices.  Pairs are the
    graph's pairs of the model's arcs, in arc order; the phi pairs are the
    pairs of live recharge arcs.  Columns are x per pair, then y per model
    arc (``y``), then phi per phi pair (``phi``).  ``x_col`` and
    ``phi_col`` give the column of each graph pair and ``y_col`` that of
    each graph arc, -1 where there is none; a folded arc takes its chain's
    columns.  Raises ``ModelError`` for the first recharge (arc, plan)
    pair in graph order whose (charger, vehicle type) has no increment
    domain.
    """

    def __init__(self, graph: SchedulingGraph, domains: dict,
                 options: ModelOptions):
        inst = graph.instance
        plans = [graph.plan(pid) for pid in graph.plan_ids]
        vtypes = [p.vehicle_type for p in plans]
        self.electric = np.array([p.electric for p in plans], bool)
        self.battery = np.array([inst.vehicle_type(vt).battery_kwh
                                 for vt in vtypes], float)
        self.limit, self.slot_gp = _grid_limits(
            graph, options.grid_limit_override)
        charger_ids = [c.id for c in inst.chargers]

        tail, head, kind = graph.tail, graph.head, graph.kind
        slot, step, available = graph.slot, graph.step, graph.available
        pair_arc, pair_plan = graph.pair_arc, graph.pair_plan
        n = len(tail)
        # the charger of each slot, and -1 at position -1 (no slot)
        charger = np.array([charger_ids.index(graph.slot_charger[sid])
                            for sid in graph.slots] + [-1], np.int64)[slot]

        # increment domain per recharge pair, checked in order of first use
        rc_pair = np.flatnonzero((kind[pair_arc] == RECHARGE)
                                 & self.electric[pair_plan])
        vt_ids = sorted(set(vtypes))
        vt_code = np.array([vt_ids.index(vt) for vt in vtypes], np.int64)
        dom_key = (charger[pair_arc[rc_pair]] * len(vt_ids)
                   + vt_code[pair_plan[rc_pair]])
        keys, first, rc_dom = np.unique(dom_key, return_index=True,
                                        return_inverse=True)
        doms = [None] * len(keys)
        for u in np.argsort(first):
            c, v = divmod(int(keys[u]), len(vt_ids))
            doms[u] = _domain_for(domains, charger_ids[c], vt_ids[v])

        # dead steps: no idle draw and no power (outside the windows or a
        # grid limit of exactly 0)
        idle = np.array([c.step_consumption != 0 for c in inst.chargers],
                        bool)
        dead = np.zeros(n, bool)
        rc = kind == RECHARGE
        dead[rc] = ~idle[charger[rc]] & (
            ~available[rc] | (self.limit[self.slot_gp[slot[rc]], step[rc]]
                              == 0))
        rep = np.arange(n)          # the arc whose columns an arc uses
        if dead.any():
            rep = _column_arcs(graph, dead, options.precondition_lead)
        own = rep == np.arange(n)   # the model's arcs
        kept = rep >= 0
        last = np.arange(n)         # per model arc, its chain's last arc
        folded = np.flatnonzero(kept & ~own)
        np.maximum.at(last, rep[folded], folded)
        model_arc = np.full(n, -1)
        model_arc[own] = np.arange(own.sum())

        self.arc_ids = np.flatnonzero(own)
        self.tail, self.head = tail[own], head[last[own]]
        self.kind = kind[own]
        self.charger, self.slot = charger[own], slot[own]
        self.step, self.available = step[own], available[own]
        mine = own[pair_arc]
        self.pair_arc = model_arc[pair_arc[mine]]
        self.pair_plan = pair_plan[mine]
        self.cost = graph.pair_cost[mine]
        self.cons = graph.pair_cons[mine]
        n_pairs, n_model = len(self.pair_arc), len(self.arc_ids)
        # a folded arc's pairs follow its first arc's, plan for plan
        x_col = np.full(len(pair_arc), -1)
        x_col[mine] = np.arange(n_pairs)
        first_pair = np.searchsorted(pair_arc, np.arange(n))
        with_cols = kept[pair_arc]
        x_col[with_cols] = x_col[first_pair[rep[pair_arc[with_cols]]]] \
            + (np.arange(len(pair_arc)) - first_pair[pair_arc])[with_cols]
        self.x_col = x_col
        self.y = n_pairs + np.arange(n_model)
        self.y_col = np.full(n, -1)
        self.y_col[kept] = self.y[model_arc[rep[kept]]]

        live = ~dead[pair_arc[rc_pair]]
        self.phi_pair = x_col[rc_pair[live]]
        self.phi_arc = self.pair_arc[self.phi_pair]
        self.phi_plan = self.pair_plan[self.phi_pair]
        self.phi_dom = rc_dom[live]
        self.phi = n_pairs + n_model + np.arange(len(self.phi_pair))
        self.phi_col = np.full(len(pair_arc), -1)
        self.phi_col[rc_pair[live]] = self.phi

        self.segments = np.array([d.segment_count for d in doms], np.int64)
        self.dom_base = np.cumsum(self.segments) - self.segments
        self.offsets = np.concatenate(
            [np.asarray(d.offsets, float) for d in doms] + [np.zeros(0)])
        self.slopes = np.concatenate(
            [np.asarray(d.slopes, float) for d in doms] + [np.zeros(0)])
        self.phi_offset0 = self.offsets[self.dom_base[self.phi_dom]]

        # y bound of a dead model arc: the soc at which the increment bound
        # of any of its plans turns negative (see build_model)
        zero = np.array([min([d.offsets[j] / -d.slopes[j]
                              for j in range(1, d.segment_count)],
                             default=math.inf) for d in doms])
        cap = np.full(n_model, math.inf)
        held = ~live & own[pair_arc[rc_pair]]
        np.minimum.at(cap, model_arc[pair_arc[rc_pair[held]]],
                      zero[rc_dom[held]])
        self.y_ub = np.where(cap < 1.0, cap, 1.0)

        # energy price per (charger, step), looked up once per (charger,
        # step), not per variable
        self.price = np.zeros((len(charger_ids), graph.horizon_steps + 1))
        for c in np.unique(self.charger[self.phi_arc]):
            gp = inst.grid_point(inst.charger(charger_ids[c]).grid_point)
            self.price[c, 1:] = [gp.price_at(graph.event_time(i - 1))
                                 for i in range(1, graph.horizon_steps + 1)]


def _column_arcs(graph: SchedulingGraph, dead: np.ndarray,
                 lead: int) -> np.ndarray:
    """Per graph arc, the arc whose columns it uses, or -1 for none.

    Drops the egress and timeline pull-out arcs of the events
    ``_dropped_events`` names, when there is no preconditioning, then
    folds each chain of dead recharge arcs through nodes left with one
    arc in and one arc out into the chain's first arc.
    """
    kind, tail, head, slot = graph.kind, graph.tail, graph.head, graph.slot
    n, n_nodes = len(tail), len(graph.node_ids)
    rep = np.arange(n)
    rc = kind == RECHARGE
    if lead == 0:
        mix_payoff = _mix_payoff_plans(graph)
        event = np.zeros(n_nodes, np.int64)     # a charge node's event
        event[head[rc]] = graph.step[rc]        # event 0 has no arc in
        at = np.where(kind == EGRESS, tail, head)   # the timeline end
        for s in np.unique(slot[dead]).tolist():
            on = slot == s      # a timeline keeps all H recharge arcs or none
            drop = _dropped_events(graph, on, event, dead[on & rc],
                                   mix_payoff)
            if drop is not None:
                rep[on & ((kind == EGRESS) | (kind == PULLOUT))
                    & drop[event[at]]] = -1
    kept = rep >= 0
    n_in = np.bincount(head[kept], minlength=n_nodes)
    n_out = np.bincount(tail[kept], minlength=n_nodes)
    into = np.full(n_nodes, -1)
    into[head[rc]] = np.flatnonzero(rc)
    prev = into[tail]
    fold = dead & (prev >= 0) & (n_in[tail] == 1) & (n_out[tail] == 1)
    fold[fold] = dead[prev[fold]]
    # each folded arc takes its chain's first arc: follow prev until an
    # arc that is not folded, doubling the jump each round
    first = np.where(fold, prev, np.arange(n))
    while fold[first].any():
        first = first[first]
    rep[fold] = first[fold]
    return rep


def _ranked(key: np.ndarray):
    """Dense row numbers for row keys, in ascending key order, and the keys."""
    keys, row = np.unique(key, return_inverse=True)
    return row, keys


def build_model(graph: SchedulingGraph, domains: dict,
                options: ModelOptions = ModelOptions()) -> MilpModel:
    """Assemble the full MIP for a scheduling graph and its PWL domains.

    The graph's columns are narrowed once (``_GraphArrays``).  Each family is
    then one set of COO entries (row key, column, coefficient), appended by
    one ``MilpModel.add_rows`` call with its rows in ascending key order.
    The keys reproduce the row order of a node-by-node, arc-by-arc loop:
    flow rows by (node, plan id), cover rows by trip, capacity rows by node,
    the soc coupling rows of one arc side by side, energy rows by node, the
    increment rows of one (arc, plan) side by side, grid rows by (access
    point, step).

    Dead charging time gets no columns.  A recharge step of a slot is
    *dead* when its charger has no idle draw and the step lies outside the
    charger's windows or its grid point's effective limit (override
    included) is exactly 0 kW; every other step is *live*.

    (a) A dead step has no phi column, no increment rows and no grid entry.
        Its phi is 0 in every solution of the full model (an upper bound
        of 0, or a grid row ``sum omega * phi <= 0`` over phi >= 0).  With
        phi = 0 its increment rows still say ``slope_j * y >= -offset_j``
        for each segment j >= 1 of each plan on the arc, that is, y at most
        the soc where the increment bound turns negative.  That is kept as
        the upper bound of the arc's y column, so the projection is exact.
        Every recharge arc of a slot carries the same plans, so this bound
        holds on each of them, live ones included.

    (b) Without preconditioning, an event strictly inside a dead run (steps
        e and e + 1 both dead) gets no egress or timeline pull-out column
        unless it is ``anchor + k`` with ``0 <= k <= stack``.  Anchors are
        each run's first event, the access snaps, each pull-out leg's first
        event and each egress leg's lowest event (below the latest one by
        the lookahead, when there is one).  A stay on a slot is an interval
        [entry, exit] of events, and two stays share no event (the capacity
        rows).  Take an optimal solution of the full model and repeat,
        while one applies:

        - an exit inside a run moves down to max(entry, the run's first
          event, the leg's lowest event).  The bus keeps its soc, cost and
          grid load, since a dead step adds no phi and no idle draw;
        - a pull-out stay that sits on at least one recharge arc moves its
          entry down to max(the leg's first event, previous exit + 1, the
          run's first event).  Its soc is below the bound of (a), because
          it already sat on one of the slot's recharge arcs;
        - a pass-through pull-out stay (entry = exit: a bus routed through
          the charger to a trip, or parked there and sent to a depot sink)
          moves whole, to max(the pull-out's first event, the egress leg's
          lowest event, previous exit + 1, the run's first event); it sits
          on no recharge arc, so its soc does not matter;
        - a parked pass-through stay is deleted.  That removes a bus whose
          fixed, pull-out and egress costs sum to at least 0 and whose plan
          no mix row needs more of.  On a slot where such a bus could pay
          off (a negative sum, or a plan with a positive net coefficient in
          a mix row with a lower bound or a negative one in a row with an
          upper bound) nothing is dropped.

        Each step lowers an event or the fleet, so this ends, at a solution
        of the same cost.  There, an egress or pull-out used strictly inside
        a run is at an anchor, or is the entry right after the previous
        exit.  Going down that chain gives pass-through pull-out stays at
        anchor + 1, anchor + 2, ..., each a distinct bus that leaves for a
        distinct trip this slot's egress reaches, and at most one more bus
        on top of them.  So ``stack`` = (those trips) + 1 covers every
        ``k``.  The mix rows sum only the pull-out columns that exist.

    (c) A chain of dead recharge arcs through nodes that (b) left with one
        arc in and one arc out shares one x column per plan and one y
        column, named after its first arc.  Flow and energy conservation
        at those nodes say exactly that (no phi, no idle draw), the nodes
        get no rows, and the chain's coupling rows are its first arc's;
        its capacity rows are implied by the row of the chain's first
        node.  ``MilpModel.x_col`` and ``y_col`` map every arc of the
        chain to the shared columns, so ``decode_solution`` sees every
        arc.

    Idle draw is excluded because a bus sitting on a charger that draws
    idle power loses soc, so (b)'s moves and (c)'s equal y columns fail.
    Preconditioning is excluded from (b) because moving an entry or exit
    changes which increments its rows support; (a) and (c) keep every x
    column those rows name.
    """
    inst = graph.instance
    g = _GraphArrays(graph, domains, options)
    model = MilpModel(graph=graph, domains=domains, options=options,
                      x_col=g.x_col, y_col=g.y_col, phi_col=g.phi_col)
    n_pairs, n_arcs, n_phi = len(g.pair_arc), len(g.arc_ids), len(g.phi_pair)
    x, y, phi = np.arange(n_pairs), g.y, g.phi
    pa, pp = g.pair_arc, g.pair_plan
    inner = graph.node_kind > SINK                  # not a depot node

    # --- variables, canonical order: x per arc/plan, y per arc, phi ---------
    arc_ids = g.arc_ids.tolist()
    model.add_vars([f"x[{arc_ids[a]:06d}][{graph.plan_ids[p]}]"
                    for a, p in zip(pa.tolist(), pp.tolist())],
                   obj=g.cost, binary=True)
    model.add_vars([f"y[{i:06d}]" for i in arc_ids], ub=g.y_ub)
    model.add_vars([f"phi[{arc_ids[a]:06d}][{graph.plan_ids[p]}]"
                    for a, p in zip(g.phi_arc.tolist(), g.phi_plan.tolist())],
                   obj=g.price[g.charger[g.phi_arc], g.step[g.phi_arc]]
                   * g.battery[g.phi_plan],
                   ub=np.where(g.available[g.phi_arc], g.phi_offset0, 0.0))

    # --- flow conservation per (non-depot node, plan) ------------------------
    node = np.concatenate([g.head[pa], g.tail[pa]])
    keep = inner[node]
    row, keys = _ranked((node * len(graph.plan_ids) + np.tile(pp, 2))[keep])
    model.add_rows(row, np.tile(x, 2)[keep],
                   np.repeat([1.0, -1.0], n_pairs)[keep], "=",
                   np.zeros(len(keys)), "flow")

    # --- every trip serviced exactly once ------------------------------------
    trip_row = np.full(len(graph.node_kind), -1)
    trip_row[[graph.node_code[f"trip:{t.id}"] for t in inst.trips]] = \
        np.arange(len(inst.trips))
    row = trip_row[g.tail[pa]]
    keep = row >= 0
    uncovered = np.flatnonzero(
        np.bincount(row[keep], minlength=len(inst.trips)) == 0)
    if len(uncovered):
        raise ModelError(
            f"trip {inst.trips[uncovered[0]].id} has no outgoing arcs")
    model.add_rows(row[keep], x[keep], np.ones(keep.sum()), "=",
                   np.ones(len(inst.trips)), "cover")

    # --- out-capacity of charge nodes -----------------------------------------
    keep = graph.node_kind[g.tail[pa]] == CHARGE
    row, keys = _ranked(g.tail[pa][keep])
    model.add_rows(row, x[keep], np.ones(keep.sum()), "<=",
                   np.ones(len(keys)), "capacity")

    # --- vehicle-mix constraints over the pull-outs with columns ---------------
    # a plan of depot d leaves a depot source only on a pull-out from src:d
    pullout = graph.node_kind[g.tail[pa]] == SOURCE
    for m in inst.mix_constraints:
        coeff, hit = np.zeros(n_pairs), np.zeros(n_pairs, bool)
        for (vt, dep), kappa in zip(m.plan_types, m.coeffs):
            at = pullout & (pp == graph.plan_code.get(f"{vt}.{dep}", -1))
            coeff[at] += kappa
            hit |= at
        coeffs = dict(zip(np.flatnonzero(hit).tolist(), coeff[hit].tolist()))
        if coeffs and m.upper < math.inf:
            model.add_row(coeffs, "<=", m.upper, "mix")
        if coeffs and m.lower > 0:
            model.add_row(coeffs, ">=", m.lower, "mix")

    # --- soc coupling: rows 2a and 2a + 1 of arc a ------------------------------
    # row 2a: "pullout" (x = y over the electric plans) on a pull-out arc;
    # otherwise "coupling" (x >= y) or, strengthened, "strengthlo"
    # (y >= the soc the arc needs); row 2a + 1: "sinkfloor" (y covers the
    # last leg into a depot sink) or, strengthened, "strengthhi" (y at most
    # the soc that can arrive at the tail)
    electric = g.electric[pp]
    pull = g.kind == PULLOUT
    if options.use_strengthening:
        bounds = graph.energy_bounds()
        exit_floor, ceiling = bounds.min_exit, bounds.max_arrival
        pull_x = electric & pull[pa]
        inner_x = electric & ~pull[pa]
        inner_arcs = np.flatnonzero(~pull)
        lo = g.cons[inner_x] + exit_floor[g.head[pa[inner_x]], pp[inner_x]]
        lo = np.where(np.isfinite(lo), lo, 2.0)  # dead end: forces x = 0
        hi = ceiling[g.tail[pa[inner_x]], pp[inner_x]]
        hi = np.where(np.isfinite(hi), hi, 0.0)  # unreachable tail
        # min and max written out: np.minimum/np.maximum may break a tie
        # between 0.0 and -0.0 the other way from the builtins
        lo = np.where(2.0 < lo, 2.0, lo)         # min(lo, 2.0)
        hi = np.where(1.0 < hi, 1.0, hi)         # min(hi, 1.0)
        hi = np.where(hi < 0.0, 0.0, hi)         # max(hi, 0.0)
        key = np.concatenate([2 * pa[pull_x], 2 * pa[inner_x],
                              2 * pa[inner_x] + 1, 2 * np.arange(n_arcs),
                              2 * inner_arcs + 1])
        col = np.concatenate([x[pull_x], x[inner_x], x[inner_x], y,
                              y[inner_arcs]])
        val = np.concatenate([np.ones(pull_x.sum()),
                              -lo, hi,
                              np.where(pull, -1.0, 1.0),
                              -np.ones(len(inner_arcs))])
        tags = ("strengthlo", "strengthhi")
    else:
        floor_x = (electric & ~pull[pa] & (g.cons != 0)
                   & (graph.node_kind[g.head[pa]] == SINK))
        floor_arcs = np.unique(pa[floor_x])
        key = np.concatenate([2 * pa[electric], 2 * np.arange(n_arcs),
                              2 * pa[floor_x] + 1, 2 * floor_arcs + 1])
        col = np.concatenate([x[electric], y, x[floor_x], y[floor_arcs]])
        val = np.concatenate([np.ones(electric.sum()), -np.ones(n_arcs),
                              -g.cons[floor_x], np.ones(len(floor_arcs))])
        tags = ("coupling", "sinkfloor")
    row, keys = _ranked(key)
    arc, second = np.divmod(keys, 2)
    model.add_rows(row, col, val, np.where(pull[arc], "=", ">="),
                   np.zeros(len(keys)),
                   np.where(second == 1, tags[1],
                            np.where(pull[arc], "pullout", tags[0])))

    # --- energy flow through every non-depot node ------------------------------
    burn = electric & (g.cons != 0)
    node = np.concatenate([g.head[pa[burn]], g.head, g.tail,
                           g.head[g.phi_arc]])
    keep = inner[node]
    row, keys = _ranked(node[keep])
    model.add_rows(row, np.concatenate([x[burn], y, y, phi])[keep],
                   np.concatenate([g.cons[burn], -np.ones(n_arcs),
                                   np.ones(n_arcs), -np.ones(n_phi)])[keep],
                   "=", np.zeros(len(keys)), "energy")

    # --- increment coupling and domain segments --------------------------------
    # per phi pair, one row per PWL segment j: j = 0 couples phi to x, j > 0
    # bounds it by the segment through y
    seg = g.segments[g.phi_dom]
    owner = np.repeat(np.arange(n_phi), seg)
    j = np.arange(len(owner)) - np.repeat(np.cumsum(seg) - seg, seg)
    at = g.dom_base[g.phi_dom][owner] + j
    first = j == 0
    rows = np.arange(len(owner))
    model.add_rows(np.tile(rows, 2),
                   np.concatenate([np.where(first, g.phi_pair[owner],
                                            y[g.phi_arc][owner]),
                                   phi[owner]]),
                   np.concatenate([np.where(first, g.offsets[at],
                                            g.slopes[at]),
                                   -np.ones(len(owner))]),
                   ">=", np.where(first, 0.0, -g.offsets[at]),
                   np.where(first, "inccoupling", "incdomain"))

    # --- grid capacity per (access point, step) ---------------------------------
    _add_grid_rows(model, g)

    if options.precondition_lead:
        _add_precondition_rows(model, g, options.precondition_lead)
    return model


def _add_grid_rows(model: MilpModel, g: _GraphArrays) -> None:
    """One row per (access point, step) over the increments of its slots.

    A point with a +inf limit at a step gets no row there, and neither
    does a step with no increment column.
    """
    steps = model.graph.horizon_steps
    omega = g.battery * 3600.0 / model.graph.theta
    point = g.slot_gp[g.slot[g.phi_arc]]
    key = point * (steps + 1) + g.step[g.phi_arc]
    keep = g.limit.ravel()[key] != math.inf
    row, keys = _ranked(key[keep])
    model.add_rows(row, g.phi[keep], omega[g.phi_plan][keep], "<=",
                   g.limit.ravel()[keys], "grid")


def _add_precondition_rows(model: MilpModel, g: _GraphArrays,
                           lead_steps: int) -> None:
    """Couple each increment to slot occupation ``lead_steps`` earlier.

    Models batteries that need preparation before drawing power: phi at step
    i stays zero unless the bus already held the slot at step i - lead.
    Arcs too close to the horizon start are skipped.
    """
    if lead_steps < 1:
        raise ModelError("lead_steps must be >= 1")
    # x column of the recharge pair at (slot, step, plan), -1 where none
    graph = model.graph
    rc = (graph.kind[graph.pair_arc] == RECHARGE) & g.electric[graph.pair_plan]
    arc = graph.pair_arc[rc]
    x_at = np.full((len(graph.slots), graph.horizon_steps + 1,
                    len(graph.plan_ids)), -1)
    x_at[graph.slot[arc], graph.step[arc], graph.pair_plan[rc]] = g.x_col[rc]
    slot, step, plan = g.slot[g.phi_arc], g.step[g.phi_arc], g.phi_plan
    earlier = step - lead_steps
    x_prev = np.where(earlier >= 1,
                      x_at[slot, np.maximum(earlier, 0), plan], -1)
    keep = x_prev >= 0
    rows = np.arange(keep.sum())
    model.add_rows(np.tile(rows, 2),
                   np.concatenate([x_prev[keep], g.phi[keep]]),
                   np.concatenate([g.phi_offset0[keep], -np.ones(len(rows))]),
                   ">=", np.zeros(len(rows)), "precondition")


_WRITERS = {"lp": write_lp, "mps": write_mps}


def _writer(fmt: str):
    if fmt not in _WRITERS:
        raise ModelError(f"unknown model format {fmt!r} (use 'lp' or 'mps')")
    return _WRITERS[fmt]


def emit_model(model: MilpModel, fmt: str, path, relax: bool = False) -> None:
    """Write the model as LP or MPS; byte-deterministic for a fixed model."""
    _writer(fmt)(model.arrays(), path, relax=relax)


def solve_model(model: MilpModel, workdir, command_template=None,
                fmt: str = "lp", time_limit=None, threads: int = 1,
                relax: bool = False) -> RawSolution:
    """Solve the model in process, or through a solver command.

    With a ``command_template`` or ``EBUSOPT_SOLVER_CMD`` set, the model is
    emitted into ``workdir`` as ``model.<fmt>`` (``model_relax.<fmt>`` with
    ``relax``) and goes through the subprocess bridge
    (``solverbridge.solve_external``), whose solver writes the ``.sol`` next
    to it.  Otherwise HiGHS solves in this process on
    ``lpformat.emitted_arrays`` of the model's arrays, which equal the
    arrays the bundled ``refsolver`` would read back from that file, so both
    paths give the same values; this path writes no file and does not
    create ``workdir``.  An unknown ``fmt`` is a ``ModelError`` on either
    path.  The wall-clock kill of the bridge does not apply in process;
    HiGHS stops itself at ``time_limit``.  ``threads`` reaches only the
    bridge's command.  A failure inside HiGHS raises ``SolverError``.
    """
    _writer(fmt)
    if external_command(command_template):
        os.makedirs(workdir, exist_ok=True)
        suffix = "_relax" if relax else ""
        model_path = os.path.join(workdir, f"model{suffix}.{fmt}")
        emit_model(model, fmt, model_path, relax)
        return solve_external(model_path, command_template=command_template,
                              time_limit=time_limit, threads=threads)
    try:
        status, values, objective, bound = solve_arrays(
            emitted_arrays(model.arrays(), fmt, relax), time_limit)
    except Exception as exc:  # solver-internal failure
        raise SolverError(f"in-process HiGHS failed: {exc}",
                          command=IN_PROCESS_COMMAND) from exc
    return RawSolution(values=values, objective=objective, bound=bound,
                       status=status)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

@dataclass
class ChargeWindow:
    slot: str
    charger: str
    grid_point: str
    steps: list                     # step indices
    phis: list                      # soc increment per step


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


def decode_solution(model: MilpModel, raw: RawSolution) -> Schedule:
    """Flow-decompose a raw solution into depot-to-depot vehicle courses.

    Per plan type the active arcs form node-disjoint paths on the DAG (trip
    nodes are covered once, charge nodes have out-capacity one), so walking
    from each active pull-out arc is unambiguous.  Fractional binaries beyond
    the integrality tolerance and unbalanced flows are decode errors.  The
    solution is read once, as a vector in column order, and the walk reads
    the graph's columns through ``model.x_col``: no ``Arc`` record.
    """
    graph = model.graph
    if not raw.has_incumbent:
        raise DecodeError(f"no incumbent to decode (status {raw.status})")
    value = np.array([raw.value(name) for name in model.names], float)
    pairs = np.flatnonzero(model.x_col >= 0)
    x = value[model.x_col[pairs]]
    fractional = (INTEGRALITY_TOL < x) & (x < 1.0 - INTEGRALITY_TOL)
    if fractional.any():
        col = model.x_col[pairs[fractional.argmax()]]
        raise DecodeError(f"fractional flow {value[col]:.6f} on "
                          f"{model.names[col]}")
    active = pairs[x >= 1.0 - INTEGRALITY_TOL]

    node_kind = graph.node_kind.tolist()
    courses = []
    for plan in np.unique(graph.pair_plan[active]).tolist():
        pid = graph.plan_ids[plan]
        mine = active[graph.pair_plan[active] == plan]  # one per arc, in order
        arcs = graph.pair_arc[mine].tolist()
        tails, heads = graph.tail[arcs].tolist(), graph.head[arcs].tolist()
        out_by_node: dict = {}
        for j, tail in enumerate(tails):
            out_by_node.setdefault(tail, []).append(j)
        used = set()
        for start in [j for j, tail in enumerate(tails)
                      if node_kind[tail] == SOURCE]:
            path = [start]
            used.add(start)
            while node_kind[heads[path[-1]]] != SINK:
                node = heads[path[-1]]
                nexts = [j for j in out_by_node.get(node, [])
                         if j not in used]
                if len(nexts) != 1:
                    raise DecodeError(
                        f"flow imbalance at node {graph.node_ids[node]} for "
                        f"plan {pid}: {len(nexts)} active continuations")
                path.append(nexts[0])
                used.add(nexts[0])
            courses.append(_course_from_path(model, pid, mine[path], value))
        leftover = [a for j, a in enumerate(arcs) if j not in used]
        if leftover:
            raise DecodeError(
                f"active arcs not reachable from any pull-out for plan {pid}: "
                f"{leftover[:5]}")

    covered = [t for c in courses for t in c.trips]
    if len(covered) != len(set(covered)):
        raise DecodeError("a trip is covered by more than one course")
    missing = {t.id for t in graph.instance.trips} - set(covered)
    if missing:
        raise DecodeError(f"trips not covered by any course: {sorted(missing)}")

    objective = float(sum(c.cost for c in courses))
    return Schedule(courses=courses, theta=graph.theta, objective=objective,
                    solver_objective=raw.objective, solver_bound=raw.bound,
                    solver_status=raw.status)


def _course_from_path(model: MilpModel, pid: str, pairs: np.ndarray,
                      value: np.ndarray) -> Course:
    graph = model.graph
    plan, arcs = graph.plan(pid), graph.pair_arc[pairs]
    col = model.phi_col[pairs]
    # per arc its phi value and price; read at column -1 where there is none
    phis = value[col].tolist()
    prices = _joined(model._columns)[0][col].tolist()
    trips, windows = [], []
    cost = 0.0
    current: Optional[ChargeWindow] = None
    for j, (kind, head, slot, step, arc_cost) in enumerate(zip(
            graph.kind[arcs].tolist(), graph.head[arcs].tolist(),
            graph.slot[arcs].tolist(), graph.step[arcs].tolist(),
            graph.pair_cost[pairs].tolist())):
        cost += arc_cost
        if kind != RECHARGE:
            current = None
            if graph.node_kind[head] == TRIP:
                trips.append(graph.nodes[graph.node_ids[head]].trip)
            continue
        phi = 0.0
        if col[j] >= 0:
            phi = max(phis[j], 0.0)
            cost += prices[j] * phi
        if current is None:
            sid = graph.slots[slot]
            charger = graph.slot_charger[sid]
            current = ChargeWindow(
                slot=sid, charger=charger,
                grid_point=graph.instance.charger(charger).grid_point,
                steps=[], phis=[])
            windows.append(current)
        current.steps.append(step)
        current.phis.append(phi)
    return Course(plan=pid, vehicle_type=plan.vehicle_type, depot=plan.depot,
                  arc_indices=arcs.tolist(), trips=trips, windows=windows,
                  cost=cost)


def save_schedule(schedule: Schedule, path) -> None:
    import json
    with open(path, "w") as fh:
        json.dump(schedule.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
