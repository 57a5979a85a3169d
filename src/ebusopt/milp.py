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
that form, never per-row records; the in-process solve hands those arrays
to HiGHS with no model or solution file.  ``build_model`` reads the graph
once into arrays and builds each constraint family as COO entries in one
numpy pass, appended in one ``add_rows`` call; only the few vehicle-mix rows
are built one dict at a time.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .chargemodel import IncrementDomainPWL
from .lpformat import SENSES, ModelArrays, RawSolution, write_lp, write_mps
from .netgraph import EnergyBounds, SchedulingGraph
from .refsolver import emitted_arrays, solve_arrays
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
    grid_caps: bool = True
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
    files.  The objective is always minimised.
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
        column or one per column.
        """
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


_NODE_KIND = {"depot-source": 0, "depot-sink": 1, "trip": 2, "charge": 3}
_SINK, _CHARGE = 1, 3                   # depot nodes have the codes 0, 1
_ARC_KIND = {"pullout": 1, "recharge": 2}     # any other kind is 0
_PULLOUT, _RECHARGE = 1, 2


class _GraphArrays:
    """A scheduling graph read once into the arrays the row families use.

    Nodes and plans are coded by their rank in sorted id order, slots by
    their position in ``graph.slots``.  Pairs are the (arc, plan) entries of
    ``arc.plans`` in arc order; the phi pairs are the pairs of recharge
    arcs with an electric plan, in the same order.  Columns are x per pair,
    then y per arc (``y_col``), then phi per phi pair (``phi_col``).
    Raises ``ModelError`` for the first phi pair, in that order, whose
    (charger, vehicle type) has no increment domain.
    """

    def __init__(self, graph: SchedulingGraph, domains: dict):
        inst = graph.instance
        node_ids = sorted(graph.nodes)
        self.node_code = {nid: i for i, nid in enumerate(node_ids)}
        self.node_kind = np.array(
            [_NODE_KIND[graph.nodes[nid].kind] for nid in node_ids], np.int8)
        plans = {p.id: p for p in graph.plan_types}
        self.plan_ids = sorted(plans)
        plan_code = {pid: i for i, pid in enumerate(self.plan_ids)}
        vtypes = [plans[pid].vehicle_type for pid in self.plan_ids]
        self.electric = np.array([plans[pid].electric
                                  for pid in self.plan_ids], bool)
        battery = {v.id: v.battery_kwh for v in inst.vehicle_types}
        self.battery = np.array([battery[vt] for vt in vtypes], float)
        self.slot_code = {sid: i for i, sid in enumerate(graph.slots)}
        charger_ids = [c.id for c in inst.chargers]
        charger_code = {cid: i for i, cid in enumerate(charger_ids)}

        tail, head, kind, recharge = [], [], [], []
        self.arc_ids, self.x_names, self.x_index = [], [], {}
        pair_arc, pair_plan, cost, cons = [], [], [], []
        for i, a in enumerate(graph.arcs):
            self.arc_ids.append(a.index)
            tail.append(self.node_code[a.tail])
            head.append(self.node_code[a.head])
            kind.append(_ARC_KIND.get(a.kind, 0))
            if a.kind == "recharge":
                recharge.append((i, charger_code[a.charger],
                                 self.slot_code[a.slot], a.step, a.available))
            for pid in a.plans:
                self.x_index[(a.index, pid)] = len(pair_arc)
                self.x_names.append(f"x[{a.index:06d}][{pid}]")
                pair_arc.append(i)
                pair_plan.append(plan_code[pid])
                cost.append(a.cost.get(pid, 0.0))
                cons.append(a.consumption(pid))
        self.tail = np.array(tail, np.int64)
        self.head = np.array(head, np.int64)
        self.kind = np.array(kind, np.int8)
        self.pair_arc = np.array(pair_arc, np.int64)
        self.pair_plan = np.array(pair_plan, np.int64)
        self.cost = np.array(cost, float)
        self.cons = np.array(cons, float)

        # recharge arcs: charger, slot, step (1..H) and availability
        n = len(self.arc_ids)
        self.charger = np.full(n, -1, np.int64)
        self.slot = np.full(n, -1, np.int64)
        self.step = np.zeros(n, np.int64)
        self.available = np.zeros(n, bool)
        if recharge:
            at, ch, sl, st, av = zip(*recharge)
            at = list(at)
            self.charger[at], self.slot[at] = ch, sl
            self.step[at], self.available[at] = st, av

        self.phi_pair = np.flatnonzero(
            (self.kind[self.pair_arc] == _RECHARGE)
            & self.electric[self.pair_plan])
        self.phi_arc = self.pair_arc[self.phi_pair]
        self.phi_plan = self.pair_plan[self.phi_pair]
        self.y_col = len(pair_arc) + np.arange(n)
        self.phi_col = len(pair_arc) + n + np.arange(len(self.phi_pair))

        # increment domain per phi pair, checked in order of first use
        vt_ids = sorted(set(vtypes))
        vt_code = np.array([vt_ids.index(vt) for vt in vtypes], np.int64)
        dom_key = (self.charger[self.phi_arc] * len(vt_ids)
                   + vt_code[self.phi_plan])
        keys, first, self.phi_dom = np.unique(dom_key, return_index=True,
                                              return_inverse=True)
        doms = [None] * len(keys)
        for u in np.argsort(first):
            c, v = divmod(int(keys[u]), len(vt_ids))
            doms[u] = _domain_for(domains, charger_ids[c], vt_ids[v])
        self.segments = np.array([d.segment_count for d in doms], np.int64)
        self.dom_base = np.cumsum(self.segments) - self.segments
        self.offsets = np.concatenate(
            [np.asarray(d.offsets, float) for d in doms] + [np.zeros(0)])
        self.slopes = np.concatenate(
            [np.asarray(d.slopes, float) for d in doms] + [np.zeros(0)])
        self.phi_offset0 = self.offsets[self.dom_base[self.phi_dom]]

        # energy price per (charger, step), looked up once per (grid point,
        # step), not per variable
        self.price = np.zeros((len(charger_ids), graph.horizon_steps + 1))
        by_point: dict = {}
        for c in np.unique(self.charger[self.phi_arc]):
            gid = inst.charger(charger_ids[c]).grid_point
            if gid not in by_point:
                gp = inst.grid_point(gid)
                by_point[gid] = [gp.price_at(graph.event_time(i - 1))
                                 for i in range(1, graph.horizon_steps + 1)]
            self.price[c, 1:] = by_point[gid]


def _ranked(key: np.ndarray):
    """Dense row numbers for row keys, in ascending key order, and the keys."""
    keys, row = np.unique(key, return_inverse=True)
    return row, keys


def build_model(graph: SchedulingGraph, domains: dict,
                options: ModelOptions = ModelOptions()) -> MilpModel:
    """Assemble the full MIP for a scheduling graph and its PWL domains.

    The graph is read once (``_GraphArrays``).  Each constraint family is
    then one set of COO entries (row key, column, coefficient), appended by
    one ``MilpModel.add_rows`` call with its rows in ascending key order.
    The keys reproduce the row order of a node-by-node, arc-by-arc loop:
    flow rows by (node, plan id), cover rows by trip, capacity rows by node,
    the soc coupling rows of one arc side by side, energy rows by node, the
    increment rows of one (arc, plan) side by side, grid rows by (access
    point, step).
    """
    inst = graph.instance
    model = MilpModel(graph=graph, domains=domains, options=options)
    g = _GraphArrays(graph, domains)
    n_pairs, n_arcs, n_phi = len(g.pair_arc), len(g.arc_ids), len(g.phi_pair)
    x, y, phi = np.arange(n_pairs), g.y_col, g.phi_col
    pa, pp = g.pair_arc, g.pair_plan
    inner = g.node_kind > _SINK                     # not a depot node

    # --- variables, canonical order: x per arc/plan, y per arc, phi ---------
    model.add_vars(g.x_names, obj=g.cost, binary=True)
    model.x_index = g.x_index
    model.add_vars([f"y[{i:06d}]" for i in g.arc_ids], ub=1.0)
    model.y_index = dict(zip(g.arc_ids, y.tolist()))
    phi_keys = [(g.arc_ids[a], g.plan_ids[p])
                for a, p in zip(g.phi_arc.tolist(), g.phi_plan.tolist())]
    price = g.price[g.charger[g.phi_arc], g.step[g.phi_arc]] \
        * g.battery[g.phi_plan]
    model.add_vars([f"phi[{a:06d}][{p}]" for a, p in phi_keys], obj=price,
                   ub=np.where(g.available[g.phi_arc], g.phi_offset0, 0.0))
    model.phi_index = dict(zip(phi_keys, phi.tolist()))
    model.phi_cost = dict(zip(phi_keys, price.tolist()))

    # --- flow conservation per (non-depot node, plan) ------------------------
    node = np.concatenate([g.head[pa], g.tail[pa]])
    keep = inner[node]
    row, keys = _ranked((node * len(g.plan_ids) + np.tile(pp, 2))[keep])
    model.add_rows(row, np.tile(x, 2)[keep],
                   np.repeat([1.0, -1.0], n_pairs)[keep], "=",
                   np.zeros(len(keys)), "flow")

    # --- every trip serviced exactly once ------------------------------------
    trip_row = np.full(len(g.node_kind), -1)
    trip_row[[g.node_code[f"trip:{t.id}"] for t in inst.trips]] = \
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
    keep = g.node_kind[g.tail[pa]] == _CHARGE
    row, keys = _ranked(g.tail[pa][keep])
    model.add_rows(row, x[keep], np.ones(keep.sum()), "<=",
                   np.ones(len(keys)), "capacity")

    # --- vehicle-mix constraints ----------------------------------------------
    plan_id = {(p.vehicle_type, p.depot): p.id for p in graph.plan_types}
    for m in inst.mix_constraints:
        coeffs: dict = {}
        for (vt, dep), kappa in zip(m.plan_types, m.coeffs):
            pid = plan_id.get((vt, dep))
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

    # --- soc coupling: rows 2a and 2a + 1 of arc a ------------------------------
    # row 2a: "pullout" (x = y over the electric plans) on a pull-out arc;
    # otherwise "coupling" (x >= y) or, strengthened, "strengthlo"
    # (y >= the soc the arc needs); row 2a + 1: "sinkfloor" (y covers the
    # last leg into a depot sink) or, strengthened, "strengthhi" (y at most
    # the soc that can arrive at the tail)
    electric = g.electric[pp]
    pull = g.kind == _PULLOUT
    if options.use_strengthening:
        bounds = graph.energy_bounds()
        model.energy_bounds = bounds
        exit_floor = np.full((len(g.node_kind), len(g.plan_ids)), math.inf)
        ceiling = np.full(exit_floor.shape, -math.inf)
        plan_code = {pid: i for i, pid in enumerate(g.plan_ids)}
        for table, out in ((bounds.min_exit, exit_floor),
                           (bounds.max_arrival, ceiling)):
            for (nid, pid), v in table.items():
                out[g.node_code[nid], plan_code[pid]] = v
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
                   & (g.node_kind[g.head[pa]] == _SINK))
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
    if options.grid_caps:
        _add_grid_rows(model, g)

    if options.precondition_lead:
        _add_precondition_rows(model, g, options.precondition_lead)
    return model


def _add_grid_rows(model: MilpModel, g: _GraphArrays) -> None:
    """One row per (access point, step) over the increments of its slots.

    A point with a +inf limit at a step gets no row there; its limit is
    still read, so a NaN override fails for any point with slots.
    """
    graph, options = model.graph, model.options
    inst, steps = graph.instance, graph.horizon_steps
    gp_rank = {gp.id: r for r, gp in enumerate(inst.grid_points)}
    slot_gp = np.full(len(g.slot_code), -1)
    for c in inst.chargers:
        for sid, cid in graph.slot_charger.items():
            if cid == c.id:
                slot_gp[g.slot_code[sid]] = gp_rank.get(c.grid_point, -1)
    limit = np.full((len(inst.grid_points), steps + 1), math.inf)
    for r, gp in enumerate(inst.grid_points):
        if (slot_gp == r).any():
            limit[r, 1:] = [_grid_limit(gp, graph, i,
                                        options.grid_limit_override)
                            for i in range(1, steps + 1)]
    omega = g.battery * 3600.0 / graph.theta
    point = slot_gp[g.slot[g.phi_arc]]
    key = point * (steps + 1) + g.step[g.phi_arc]
    keep = (point >= 0) & (limit.ravel()[np.where(point >= 0, key, 0)]
                           != math.inf)
    row, keys = _ranked(key[keep])
    model.add_rows(row, g.phi_col[keep], omega[g.phi_plan][keep], "<=",
                   limit.ravel()[keys], "grid")


def _grid_limit(gp, graph, step: int, override) -> float:
    if override is not None and gp.id in override:
        val = float(override[gp.id])
        if math.isnan(val):
            raise ModelError(f"grid limit override of {gp.id!r} is NaN")
        return val
    lo = graph.event_time(step - 1)
    hi = graph.event_time(step)
    return gp.min_power_over(lo, hi)


def _add_precondition_rows(model: MilpModel, g: _GraphArrays,
                           lead_steps: int) -> None:
    """Couple each increment to slot occupation ``lead_steps`` earlier.

    Models batteries that need preparation before drawing power: phi at step
    i stays zero unless the bus already held the slot at step i - lead.
    Arcs too close to the horizon start are skipped.
    """
    if lead_steps < 1:
        raise ModelError("lead_steps must be >= 1")
    slot, step, plan = g.slot[g.phi_arc], g.step[g.phi_arc], g.phi_plan
    # x column of the phi pair at (slot, step, plan), -1 where there is none
    x_at = np.full((len(g.slot_code), model.graph.horizon_steps + 1,
                    len(g.plan_ids)), -1)
    x_at[slot, step, plan] = g.phi_pair
    earlier = step - lead_steps
    x_prev = np.where(earlier >= 1,
                      x_at[slot, np.maximum(earlier, 0), plan], -1)
    keep = x_prev >= 0
    rows = np.arange(keep.sum())
    model.add_rows(np.tile(rows, 2),
                   np.concatenate([x_prev[keep], g.phi_col[keep]]),
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
    ``refsolver.emitted_arrays`` of the model's arrays, which equal the
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
    plan = graph.plan(pid)
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
    return Course(plan=pid, vehicle_type=plan.vehicle_type, depot=plan.depot,
                  arc_indices=[a.index for a in path], trips=trips,
                  windows=windows, cost=cost)


def save_schedule(schedule: Schedule, path) -> None:
    import json
    with open(path, "w") as fh:
        json.dump(schedule.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
