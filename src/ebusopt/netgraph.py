"""Time-expanded scheduling digraph with charger-slot timelines, as columns.

Nodes: one source and one sink per depot, one node per trip, and a timeline
node per (charger slot, time event i = 0..H).  Consecutive timeline nodes
are linked by recharge arcs a(s, i) that carry the charge increment
variables.  Splitting each depot into source/sink makes the graph a DAG.

The graph is arrays: per arc its tail, head, kind, slot, step, availability
and leg, and per (arc, plan) pair its arc, plan, cost and consumption, with
nodes and plans coded by their rank in sorted id order.

The arcs of a slot carry only the plans that are live on it: those with a
path of arcs admitting them from their depot source through the slot to
their depot sink.  No feasible schedule uses any other (arc, plan) pair,
so dropping them is exact (see ``build_graph``).

Consumption on an arc covers the connecting deadhead plus the head node's
service (a trip's own consumption), so propagating soc along active arcs
reproduces course energy arithmetic exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .instance import Deadhead, Instance, PlanType


class GraphError(ValueError):
    """Instance cannot be expanded into a valid scheduling graph."""


NODE_KINDS = ("depot-source", "depot-sink", "trip", "charge")
SOURCE, SINK, TRIP, CHARGE = range(4)
ARC_KINDS = ("pullout", "pullin", "connection", "access", "egress",
             "recharge")
PULLOUT, PULLIN, CONNECTION, ACCESS, EGRESS, RECHARGE = range(6)


class Node(NamedTuple):
    id: str
    kind: str                       # depot-source | depot-sink | trip | charge
    depot: Optional[str] = None
    trip: Optional[str] = None
    slot: Optional[str] = None
    event: Optional[int] = None     # timeline index for charge nodes


@dataclass(frozen=True)
class GraphOptions:
    egress_lookahead_steps: Optional[int] = None  # None = egress from every event


@dataclass(eq=False)
class SchedulingGraph:
    instance: Instance
    theta: float
    horizon_steps: int
    nodes: dict                     # id -> Node
    plan_types: list                # list[PlanType]
    slots: list                     # slot ids in canonical order
    slot_charger: dict              # slot id -> charger id
    # per arc, in index order
    tail: np.ndarray                # node code
    head: np.ndarray                # node code
    kind: np.ndarray                # position in ARC_KINDS
    slot: np.ndarray                # position in slots, -1 off the timelines
    step: np.ndarray                # recharge arcs: head event 1..H, else 0
    available: np.ndarray           # recharge arcs: inside a window, else True
    leg: np.ndarray                 # position in legs
    legs: list                      # per leg (duration_s, move, service, cost)
    # per (arc, plan) pair, arc by arc, in each arc's plan order
    pair_arc: np.ndarray
    pair_plan: np.ndarray           # plan code
    pair_cost: np.ndarray
    pair_cons: np.ndarray           # move + service consumption, in that order
    node_ids: list = field(init=False)      # node id per node code
    node_code: dict = field(init=False)     # node id -> code
    node_kind: np.ndarray = field(init=False)   # position in NODE_KINDS
    plan_ids: list = field(init=False)      # plan id per plan code
    plan_code: dict = field(init=False)     # plan id -> code
    _order: Optional[list] = field(default=None, init=False, repr=False)
    _bounds: Optional["EnergyBounds"] = field(default=None, init=False,
                                              repr=False)

    def __post_init__(self):
        self.node_ids = sorted(self.nodes)
        self.node_code = {nid: i for i, nid in enumerate(self.node_ids)}
        self.node_kind = np.array([NODE_KINDS.index(self.nodes[nid].kind)
                                   for nid in self.node_ids], np.int8)
        self.plan_ids = sorted(p.id for p in self.plan_types)
        self.plan_code = {pid: k for k, pid in enumerate(self.plan_ids)}

    def plan(self, pid: str) -> PlanType:
        for p in self.plan_types:
            if p.id == pid:
                return p
        raise GraphError(f"unknown plan type {pid!r}")

    def topological_order(self) -> list:
        """Node ids in topological order, computed once per graph.

        ``build_graph`` sets it from the arcs as laid out, before the dead
        plans are dropped; an order of those arcs is one of any subset.
        """
        if self._order is None:
            self._order = _topological_order(self)
        return list(self._order)

    def energy_bounds(self) -> "EnergyBounds":
        """``compute_energy_bounds`` of this graph, computed once per graph.

        Every caller gets the same object; it is read-only.
        """
        if self._bounds is None:
            self._bounds = compute_energy_bounds(self)
        return self._bounds

    def stats(self) -> dict:
        arcs = np.bincount(self.kind, minlength=len(ARC_KINDS))
        return {"nodes": dict(Counter(n.kind for n in self.nodes.values())),
                "arcs": {k: int(c) for k, c in zip(ARC_KINDS, arcs) if c}}


def _by_node(end: np.ndarray, n_nodes: int):
    """``at[start[c]:start[c + 1]]``: the positions whose ``end`` is c."""
    at = np.argsort(end, kind="stable")
    return at, np.searchsorted(end[at], np.arange(n_nodes + 1)).tolist()


def _topological_order(graph: SchedulingGraph) -> list:
    """Kahn's: the sources in id order, then heads in arc order."""
    n = len(graph.node_ids)
    indeg = np.bincount(graph.head, minlength=n).tolist()
    at, start = _by_node(graph.tail, n)
    heads = graph.head[at].tolist()
    order = [c for c in range(n) if indeg[c] == 0]
    for c in order:                 # a queue: the loop reaches appended nodes
        for h in heads[start[c]:start[c + 1]]:
            indeg[h] -= 1
            if indeg[h] == 0:
                order.append(h)
    if len(order) != n:
        raise GraphError("scheduling graph contains a cycle")
    return [graph.node_ids[c] for c in order]


def _snap_windows_to_steps(windows, start: int, theta: float,
                           horizon_steps: int) -> set:
    """Steps i (1..H) whose full interval lies inside an availability window."""
    usable = set()
    for ws, we in windows:
        first = max(1, math.ceil((ws - start) / theta) + 1)
        last = min(horizon_steps, math.floor((we - start) / theta))
        usable.update(range(first, last + 1))
    return usable


def _drop_dead_pairs(graph: SchedulingGraph, order: list) -> None:
    """Narrow ``graph`` in place: drop the pairs whose plan is not live on
    their slot, and the timeline arcs this leaves with no pair.  Its nodes
    and plans stay as they are.

    Plans are bit masks, bit k for plan code k.  A forward pass in
    topological order marks the plans that reach each node from their
    depot source, a backward pass those that reach their depot sink from
    it, each over the arcs that admit the plan.  A slot is live for a plan
    when its earliest source-reachable event is no later than its latest
    event that reaches the sink: the recharge arcs between close the path.
    """
    n, code = len(graph.node_ids), graph.node_code
    bit = {pid: 1 << k for pid, k in graph.plan_code.items()}
    reach, leave = [0] * n, [0] * n
    for p in graph.plan_types:
        reach[code[f"src:{p.depot}"]] |= bit[p.id]
        leave[code[f"snk:{p.depot}"]] |= bit[p.id]
    at, start = _by_node(graph.tail, n)
    heads = graph.head[at].tolist()
    # a leg's plans are the keys of its cost table
    leg_mask = [sum(map(bit.get, leg[3])) for leg in graph.legs]
    masks = [leg_mask[k] for k in graph.leg[at].tolist()]
    order = [code[nid] for nid in order]
    for c in order:
        m = reach[c]
        for j in range(start[c], start[c + 1]):
            reach[heads[j]] |= m & masks[j]
    for c in reversed(order):
        m = leave[c]
        for j in range(start[c], start[c + 1]):
            m |= leave[heads[j]] & masks[j]
        leave[c] = m
    live = np.ones((len(graph.slots) + 1, len(bit)), bool)  # row -1: True
    for s, sid in enumerate(graph.slots):
        seen = m = 0
        for c in (code[f"{sid}@{i}"] for i in range(graph.horizon_steps + 1)):
            seen |= reach[c]
            m |= seen & leave[c]
        live[s] = [m >> k & 1 for k in range(len(bit))]
    keep = live[graph.slot[graph.pair_arc], graph.pair_plan]
    arc = graph.pair_arc[keep]
    kept = (graph.slot < 0) | (np.bincount(arc, minlength=len(graph.tail))
                               > 0)
    for f in ("tail", "head", "kind", "slot", "step", "available", "leg"):
        setattr(graph, f, getattr(graph, f)[kept])
    graph.pair_arc = (np.cumsum(kept) - 1)[arc]
    for f in ("pair_plan", "pair_cost", "pair_cons"):
        setattr(graph, f, getattr(graph, f)[keep])


def build_graph(instance: Instance, theta: float,
                options: GraphOptions = GraphOptions()) -> SchedulingGraph:
    """Expand an instance into the scheduling DAG at time step theta.

    Every arc that moves a bus from one place to another is a deadhead leg
    (pull-out, pull-in, connection, and access to or egress from a charger
    timeline), and all of them are laid out by one constructor under one
    rule: a bus free to leave at ``ready`` and due at the far end by
    ``due`` has the leg exactly when the deadhead table has it (a leg
    within one place is implicit, with zero duration, consumption and
    cost) and ``ready + duration <= due``.  ``ready`` is
    the trip's arrival when a leg leaves a trip and the horizon start
    otherwise; ``due`` is the trip's departure when a leg enters a trip and
    the horizon end otherwise.  Of two trips that take no time at the same
    instant and so connect both ways, only the one listed first connects to
    the other.  Access snaps forward to the first event at
    or after arrival, a pull-out onto a timeline enters at that event or
    any later one, and egress leaves from any event that still arrives in
    time (optionally only from a lookahead window before the latest one).

    The rule is the same as asking for a timeline event to use, so it never
    lays out a leg without one: theta divides the horizon span, so
    H * theta = end - start, and a leg onto a timeline (due = end) or off
    one (ready = start) has::

        ceil((ready + duration - start) / theta) <= H  iff  ready + duration <= end
        floor((due - duration - start) / theta) >= 0   iff  start + duration <= due

    Deadhead durations are not negative and every trip has a pull-out, so
    a trip's arrival is never before the start and access never snaps to
    an event before 0.

    Each arc gets its leg's (plan, cost, consumption) entries as its
    pairs.  A charger arc (recharge, access, pull-out onto and egress from
    a timeline) keeps only the pairs of plans live on its slot, and one
    left with none is dropped; the other arcs keep their order, with
    ``index`` equal to the position.  A plan is live on a slot when some
    path of arcs admitting it runs from its depot source through the slot
    to its depot sink (``_drop_dead_pairs``).  This is exact: only depot
    d's pull-out, pull-in and egress-to-sink arcs admit a plan of depot d,
    so the plan's flow leaves only ``src:d`` and enters only ``snk:d``,
    and in a DAG that flow splits into such paths.  An (arc, plan) pair on
    no such path is 0 in every feasible solution, so dropping it keeps
    every schedule, and the energy bounds of the narrower graph, which can
    only tighten, stay valid.  The dead pairs are dropped from the laid-out
    graph in place, so its node and plan codes are built once.
    """
    start, end = instance.horizon
    span = end - start
    if span <= 0:
        raise GraphError("empty horizon")
    if theta <= 0 or theta % 1 or span % int(theta) != 0:
        raise GraphError(f"theta={theta} must be whole seconds and divide "
                         f"the horizon span {span}")
    horizon_steps = int(span // int(theta))
    lookahead = options.egress_lookahead_steps
    if lookahead is not None and lookahead < 0:
        raise GraphError(f"egress lookahead of {lookahead} steps is negative")

    plans = instance.plan_types()
    vtype_of = {p.id: p.vehicle_type for p in plans}
    electric = {p.id for p in plans if p.electric}
    all_pids = tuple(p.id for p in plans)
    depot_pids = {d.id: tuple(p.id for p in plans if p.depot == d.id)
                  for d in instance.depots}

    nodes: dict = {}
    for d in instance.depots:
        nodes[f"src:{d.id}"] = Node(f"src:{d.id}", "depot-source", depot=d.id)
        nodes[f"snk:{d.id}"] = Node(f"snk:{d.id}", "depot-sink", depot=d.id)
    for t in instance.trips:
        nodes[f"trip:{t.id}"] = Node(f"trip:{t.id}", "trip", trip=t.id)
    slots, slot_charger = [], {}
    usable = []                     # per slot, per step 0..H: in a window
    for c in instance.chargers:
        steps = np.zeros(horizon_steps + 1, bool)
        steps[list(_snap_windows_to_steps(c.windows, start, theta,
                                          horizon_steps)) if c.windows
              else slice(1, None)] = True
        for j in range(c.slots):
            sid = f"{c.id}#{j}"
            slots.append(sid)
            slot_charger[sid] = c.id
            usable.append(steps)
            for i in range(horizon_steps + 1):
                nid = f"{sid}@{i}"
                nodes[nid] = Node(nid, "charge", slot=sid, event=i)
    code = {nid: k for k, nid in enumerate(sorted(nodes))}
    trip_code = [code[f"trip:{t.id}"] for t in instance.trips]

    legs: list = []                 # (duration, move, service, cost) per leg
    leg_at: list = []               # (kind, slot position or -1) per leg
    tail, head, arc_leg = [], [], []            # per arc

    def add_leg(kind: int, sid, duration: int, move: dict, service: dict,
                cost: dict) -> int:
        legs.append((duration, move, service, cost))
        leg_at.append((kind, slots.index(sid) if sid else -1))
        return len(legs) - 1

    def add_arcs(tails, heads, leg: int) -> None:
        tail.extend(tails)
        head.extend(heads)
        arc_leg.extend([leg] * len(tails))

    def electric_only(table: dict, pids: tuple) -> dict:
        return {p: table.get(vtype_of[p], 0.0) for p in pids if p in electric}

    dh = instance.deadhead_map()
    fixed = {p.id: instance.vehicle_type(p.vehicle_type).fixed_cost
             for p in plans}
    leg_of: dict = {}       # (kind, from, to, plans, trip, slot) -> leg or None

    def deadhead(kind: int, from_loc: str, to_loc: str, ready: int, due: int,
                 pids: tuple, trip=None, sid=None):
        """``(duration, leg)`` of the leg from_loc -> to_loc, or None when
        the table has no such leg or it arrives after ``due``."""
        key = (kind, from_loc, to_loc, pids, trip and trip.id, sid)
        if key not in leg_of:
            row = (Deadhead(from_loc, to_loc, 0, {}, {}) if from_loc == to_loc
                   else dh.get((from_loc, to_loc)))
            leg_of[key] = None
            if row is not None:
                cost = {p: row.cost.get(vtype_of[p], 0.0) for p in pids}
                if kind == PULLOUT:
                    cost = {p: c + fixed[p] for p, c in cost.items()}
                leg_of[key] = add_leg(
                    kind, sid, row.duration_s,
                    electric_only(row.consumption, pids),
                    electric_only(trip.consumption, pids) if trip else {},
                    cost)
        leg = leg_of[key]
        if leg is None or ready + legs[leg][0] > due:
            return None
        return legs[leg][0], leg

    def first_event(ready: int, dur: int) -> int:
        """The event a bus leaving at ``ready`` reaches, snapped forward."""
        return max(0, math.ceil((ready + dur - start) / theta))

    def last_event(due: int, dur: int) -> int:
        """The latest event a bus can leave at and arrive by ``due``."""
        return min(horizon_steps, math.floor((due - dur - start) / theta))

    # --- depot pull-outs / pull-ins to trips --------------------------------
    for k, t in enumerate(instance.trips):
        for d in instance.depots:
            leg = deadhead(PULLOUT, d.id, t.origin, start, t.departure_s,
                           depot_pids[d.id], trip=t)
            if leg:
                add_arcs((code[f"src:{d.id}"],), (trip_code[k],), leg[1])
        for d in instance.depots:
            leg = deadhead(PULLIN, t.destination, d.id, t.arrival_s, end,
                           depot_pids[d.id])
            if leg:
                add_arcs((trip_code[k],), (code[f"snk:{d.id}"],), leg[1])
    entered = set(head)                 # so far only pull-outs enter trips
    missing = [t.id for k, t in enumerate(instance.trips)
               if trip_code[k] not in entered]
    if missing:
        raise GraphError(f"trips unreachable from every depot: {missing}")

    # --- trip-to-trip connections -------------------------------------------
    # Two trips connect both ways only when both take no time, at the same
    # instant, with no deadhead time between them; such a pair keeps only
    # the connection from the lower trip index, so the graph stays acyclic.
    for k, a in enumerate(instance.trips):
        for j, b in enumerate(instance.trips):
            leg = j != k and deadhead(CONNECTION, a.destination, b.origin,
                                      a.arrival_s, b.departure_s, all_pids,
                                      trip=b)
            if leg and j < k and a.departure_s == a.arrival_s and deadhead(
                    CONNECTION, b.destination, a.origin, b.arrival_s,
                    a.departure_s, all_pids, trip=a):
                leg = None
            if leg:
                add_arcs((trip_code[k],), (trip_code[j],), leg[1])

    # --- charger timelines ---------------------------------------------------
    for sid in slots:
        cid = slot_charger[sid]
        charger = instance.charger(cid)
        cpids = tuple(p.id for p in plans
                      if p.electric and p.vehicle_type in charger.profiles)
        if not cpids:
            continue
        events = [code[f"{sid}@{i}"] for i in range(horizon_steps + 1)]
        idle = charger.step_consumption
        leg = add_leg(RECHARGE, sid, int(theta),
                      dict.fromkeys(cpids, idle) if idle else {}, {},
                      dict.fromkeys(cpids, 0.0))
        add_arcs(events[:-1], events[1:], leg)

        for k, t in enumerate(instance.trips):      # access from trips
            leg = deadhead(ACCESS, t.destination, cid, t.arrival_s, end,
                           cpids, sid=sid)
            if leg:
                add_arcs((trip_code[k],),
                         (events[first_event(t.arrival_s, leg[0])],), leg[1])
        for d in instance.depots:       # pull-out onto the timeline
            pids = tuple(p for p in cpids if p in depot_pids[d.id])
            leg = pids and deadhead(PULLOUT, d.id, cid, start, end, pids,
                                    sid=sid)
            if leg:
                to = events[first_event(start, leg[0]):]
                add_arcs([code[f"src:{d.id}"]] * len(to), to, leg[1])
        for k, t in enumerate(instance.trips):      # egress to trips
            leg = deadhead(EGRESS, cid, t.origin, start, t.departure_s,
                           cpids, trip=t, sid=sid)
            if leg:
                i_max = last_event(t.departure_s, leg[0])
                i_lo = 0
                if lookahead is not None:
                    i_lo = max(0, i_max - lookahead)
                fro = events[i_lo:i_max + 1]
                add_arcs(fro, [trip_code[k]] * len(fro), leg[1])
        for d in instance.depots:       # egress to depot sinks
            pids = tuple(p for p in cpids if p in depot_pids[d.id])
            leg = pids and deadhead(EGRESS, cid, d.id, start, end, pids,
                                    sid=sid)
            if leg:
                fro = events[:last_event(end, leg[0]) + 1]
                add_arcs(fro, [code[f"snk:{d.id}"]] * len(fro), leg[1])

    # --- the columns; each arc's pairs are its leg's entries -----------------
    arc_leg = np.array(arc_leg, np.int64)
    kind, slot = np.array(leg_at, np.int64).reshape(-1, 2)[arc_leg].T
    rc = kind == RECHARGE
    step = np.zeros(len(arc_leg), np.int64)
    # each timeline's H recharge arcs are laid out in step order
    step[rc] = np.arange(rc.sum()) % horizon_steps + 1
    available = np.ones(len(arc_leg), bool)
    available[rc] = np.array(usable, bool).reshape(-1, horizon_steps + 1)[
        slot[rc], step[rc]]
    plan_code = {pid: k for k, pid in enumerate(sorted(all_pids))}
    entries = np.array(
        [(plan_code[p], c, move.get(p, 0.0) + service.get(p, 0.0))
         for _, move, service, cost in legs for p, c in cost.items()],
        float).reshape(-1, 3)
    size = np.array([len(leg[3]) for leg in legs], np.int64)
    count = size[arc_leg]
    at = (np.repeat((np.cumsum(size) - size)[arc_leg]
                    - (np.cumsum(count) - count), count)
          + np.arange(count.sum()))
    graph = SchedulingGraph(
        instance=instance, theta=float(theta), horizon_steps=horizon_steps,
        nodes=nodes, plan_types=plans, slots=slots, slot_charger=slot_charger,
        tail=np.array(tail, np.int64), head=np.array(head, np.int64),
        kind=kind, slot=slot, step=step, available=available, leg=arc_leg,
        legs=legs, pair_arc=np.repeat(np.arange(len(arc_leg)), count),
        pair_plan=entries[at, 0].astype(np.int64), pair_cost=entries[at, 1],
        pair_cons=entries[at, 2])
    # raises on cycles; the graph keeps this order (see topological_order)
    order = _topological_order(graph)
    _drop_dead_pairs(graph, order)
    graph._order = order
    return graph


# ---------------------------------------------------------------------------
# Preprocessing bounds
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class EnergyBounds:
    """Per (node, plan): min soc needed to exit (E) and max soc arriving (Y).

    E is the cheapest consumption path from the node to any depot sink or
    charge node; Y is 1 minus the cheapest path from any depot source or
    charge node.  Unreachable exits are +inf, unreachable nodes have
    Y = -inf.  Rows are the graph's node codes, columns its plan codes.
    """

    min_exit: np.ndarray    # (node, plan) -> E
    max_arrival: np.ndarray     # (node, plan) -> Y


def compute_energy_bounds(graph: SchedulingGraph) -> EnergyBounds:
    """E backwards over the pairs out of each depot source and trip, Y
    forwards over the pairs into each trip and depot sink, node by node in
    topological order; the other nodes are anchors."""
    n, kind = len(graph.node_ids), graph.node_kind
    plan, cons = graph.pair_plan, graph.pair_cons
    tail, head = graph.tail[graph.pair_arc], graph.head[graph.pair_arc]
    min_exit = np.full((n, len(graph.plan_ids)), math.inf)
    min_exit[(kind == SINK) | (kind == CHARGE)] = 0.0
    max_arrival = np.full(min_exit.shape, -math.inf)
    max_arrival[(kind == SOURCE) | (kind == CHARGE)] = 1.0
    order = np.array([graph.node_code[nid]
                      for nid in graph.topological_order()], np.int64)
    out, out_start = _by_node(tail, n)
    for c in order[(kind[order] == SOURCE) | (kind[order] == TRIP)][::-1]:
        at = out[out_start[c]:out_start[c + 1]]
        np.minimum.at(min_exit[c], plan[at],
                      cons[at] + min_exit[head[at], plan[at]])
    into, into_start = _by_node(head, n)
    for c in order[(kind[order] == SINK) | (kind[order] == TRIP)]:
        at = into[into_start[c]:into_start[c + 1]]
        np.maximum.at(max_arrival[c], plan[at],
                      max_arrival[tail[at], plan[at]] - cons[at])
    return EnergyBounds(min_exit, max_arrival)
