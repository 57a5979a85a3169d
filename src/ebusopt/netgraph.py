"""Time-expanded scheduling digraph with charger-slot timelines.

Nodes: one source and one sink per depot, one node per trip, and a timeline
node per (charger slot, time event i = 0..H).  Consecutive timeline nodes
are linked by recharge arcs a(s, i) that carry the charge increment
variables.  Splitting each depot into source/sink makes the graph a DAG.

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
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .instance import Deadhead, Instance, PlanType


class GraphError(ValueError):
    """Instance cannot be expanded into a valid scheduling graph."""


@dataclass(frozen=True)
class Node:
    id: str
    kind: str                       # depot-source | depot-sink | trip | charge
    depot: Optional[str] = None
    trip: Optional[str] = None
    slot: Optional[str] = None
    event: Optional[int] = None     # timeline index for charge nodes


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


@dataclass(frozen=True)
class GraphOptions:
    egress_lookahead_steps: Optional[int] = None  # None = egress from every event


@dataclass
class SchedulingGraph:
    instance: Instance
    theta: float
    horizon_steps: int
    nodes: dict                     # id -> Node
    arcs: list                      # list[Arc]
    plan_types: list                # list[PlanType]
    slots: list                     # slot ids in canonical order
    slot_charger: dict              # slot id -> charger id
    in_arcs: dict = field(default_factory=dict)
    out_arcs: dict = field(default_factory=dict)
    _order: Optional[list] = field(default=None, init=False, repr=False,
                                   compare=False)
    _bounds: Optional["EnergyBounds"] = field(default=None, init=False,
                                              repr=False, compare=False)

    def plan(self, pid: str) -> PlanType:
        for p in self.plan_types:
            if p.id == pid:
                return p
        raise GraphError(f"unknown plan type {pid!r}")

    def event_time(self, i: int) -> int:
        return self.instance.horizon[0] + int(i * self.theta)

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
        node_counts = defaultdict(int)
        for n in self.nodes.values():
            node_counts[n.kind] += 1
        arc_counts = defaultdict(int)
        for a in self.arcs:
            arc_counts[a.kind] += 1
        return {"nodes": dict(node_counts), "arcs": dict(arc_counts)}


def _topological_order(graph: SchedulingGraph) -> list:
    indeg = {nid: 0 for nid in graph.nodes}
    for a in graph.arcs:
        indeg[a.head] += 1
    queue = deque(sorted(nid for nid, d in indeg.items() if d == 0))
    order = []
    while queue:
        nid = queue.popleft()
        order.append(nid)
        for a in graph.out_arcs[nid]:
            indeg[a.head] -= 1
            if indeg[a.head] == 0:
                queue.append(a.head)
    if len(order) != len(graph.nodes):
        raise GraphError("scheduling graph contains a cycle")
    return order


def _snap_windows_to_steps(windows, start: int, theta: float,
                           horizon_steps: int) -> set:
    """Steps i (1..H) whose full interval lies inside an availability window."""
    usable = set()
    for ws, we in windows:
        first = max(1, math.ceil((ws - start) / theta) + 1)
        last = min(horizon_steps, math.floor((we - start) / theta))
        usable.update(range(first, last + 1))
    return usable


class _Draft(NamedTuple):
    """An arc as laid out, before the dead plans of its slot are dropped."""
    tail: str
    head: str
    mask: int       # the leg's electric plans, bit k for the k-th one
    leg: int        # position of the ``Arc`` fields it shares in ``legs``
    extra: dict     # its own ``Arc`` fields


class _Layout(NamedTuple):
    """The laid-out graph, as ``_topological_order`` reads it."""
    nodes: dict
    arcs: list      # list[_Draft]
    out_arcs: dict  # node id -> list[_Draft]


def _live_slot_plans(order: list, out_arcs: dict, electric: list,
                     slot_events: dict) -> dict:
    """Per slot, the bit mask of the electric plans that can use it.

    Bit k stands for ``electric[k]``.  One forward pass in topological
    order marks the plans that reach each node from their depot source,
    one backward pass those that reach their depot sink from it, each only
    over the arcs that admit the plan.  A slot is live for a plan when its
    earliest source-reachable event is no later than its latest event that
    reaches the sink: the recharge arcs between them close the path.
    """
    reach = dict.fromkeys(order, 0)
    leave = dict.fromkeys(order, 0)
    for k, p in enumerate(electric):
        reach[f"src:{p.depot}"] |= 1 << k
        leave[f"snk:{p.depot}"] |= 1 << k
    for nid in order:
        m = reach[nid]
        if m:
            for a in out_arcs[nid]:
                reach[a.head] |= m & a.mask
    for nid in reversed(order):
        m = leave[nid]
        for a in out_arcs[nid]:
            m |= leave[a.head] & a.mask
        leave[nid] = m
    live = {}
    for sid, events in slot_events.items():
        seen = m = 0
        for nid in events:
            seen |= reach[nid]
            m |= seen & leave[nid]
        live[sid] = m
    return live


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
    the horizon end otherwise.  Access snaps forward to the first event at
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

    Each charger arc (recharge, access, pull-out onto and egress from a
    timeline) carries only the plans that are live on its slot, and an arc
    left with no plan is dropped; the other arcs keep their order, with
    ``index`` equal to the position.  A plan is live on a slot when some
    path of arcs admitting it runs from its depot source through the slot
    to its depot sink (``_live_slot_plans``).  This is exact: only depot
    d's pull-out, pull-in and egress-to-sink arcs admit a plan of depot d,
    so the plan's flow leaves only ``src:d`` and enters only ``snk:d``, and
    in a DAG that flow splits into such paths.  An (arc, plan) pair on no
    such path is 0 in every feasible solution, so dropping it keeps every
    schedule, and the energy bounds of the narrower graph, which can only
    tighten, stay valid.
    """
    start, end = instance.horizon
    span = end - start
    if span <= 0:
        raise GraphError("empty horizon")
    if theta <= 0 or theta % 1 or span % int(theta) != 0:
        raise GraphError(f"theta={theta} must be whole seconds and divide "
                         f"the horizon span {span}")
    horizon_steps = int(span // int(theta))

    plans = instance.plan_types()
    vtype_of = {p.id: p.vehicle_type for p in plans}
    electric = [p for p in plans if p.electric]
    plan_bit = {p.id: 1 << k for k, p in enumerate(electric)}
    all_pids = tuple(p.id for p in plans)
    depot_pids = {d.id: tuple(p.id for p in plans if p.depot == d.id)
                  for d in instance.depots}

    nodes: dict = {}

    def add_node(n: Node):
        nodes[n.id] = n

    for d in instance.depots:
        add_node(Node(f"src:{d.id}", "depot-source", depot=d.id))
        add_node(Node(f"snk:{d.id}", "depot-sink", depot=d.id))
    for t in instance.trips:
        add_node(Node(f"trip:{t.id}", "trip", trip=t.id))

    slots, slot_charger = [], {}
    slot_available: dict = {}
    slot_events: dict = {}          # slot id -> its node ids, event 0..H
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
            slot_events[sid] = [f"{sid}@{i}" for i in range(horizon_steps + 1)]
            for i, nid in enumerate(slot_events[sid]):
                add_node(Node(nid, "charge", slot=sid, event=i))

    # Arcs are laid out as drafts first.  The arcs of one leg (one deadhead
    # or timeline, over all its events) share one dict of Arc fields, so
    # dropping dead plans costs one copy per leg, not one per arc.
    legs: list = []
    leg_mask: list = []
    plan_mask: dict = {}
    drafts: list = []

    def add_leg(**fields) -> int:
        pids = fields["plans"]
        if pids not in plan_mask:
            plan_mask[pids] = sum(plan_bit.get(p, 0) for p in pids)
        legs.append(fields)
        leg_mask.append(plan_mask[pids])
        return len(legs) - 1

    def add_arc(tail: str, head: str, leg: int, **extra):
        drafts.append(_Draft(tail, head, leg_mask[leg], leg, extra))

    def electric_only(table: dict, pids: tuple) -> dict:
        return {p: table.get(vtype_of[p], 0.0) for p in pids if p in plan_bit}

    dh = instance.deadhead_map()
    fixed = {p.id: instance.vehicle_type(p.vehicle_type).fixed_cost
             for p in plans}
    # per-plan tables, shared by every leg with the same key
    tables: dict = {}       # (from, to, plans, pull-out?) -> (dur, move, cost)
    services: dict = {}     # (trip id, plans) -> service consumption

    def deadhead(kind: str, from_loc: str, to_loc: str, ready: int, due: int,
                 pids: tuple, trip=None, **slot):
        """``(duration, leg)`` of the leg from_loc -> to_loc, or None when
        the table has no such leg or it arrives after ``due``."""
        key = (from_loc, to_loc, pids, kind == "pullout")
        if key not in tables:
            row = (Deadhead(from_loc, to_loc, 0, {}, {}) if from_loc == to_loc
                   else dh.get((from_loc, to_loc)))
            if row is not None:
                cost = {p: row.cost.get(vtype_of[p], 0.0) for p in pids}
                if kind == "pullout":
                    cost = {p: c + fixed[p] for p, c in cost.items()}
                row = row.duration_s, electric_only(row.consumption, pids), cost
            tables[key] = row
        entry = tables[key]
        if entry is None or ready + entry[0] > due:
            return None
        service = {}
        if trip is not None:
            if (trip.id, pids) not in services:
                services[trip.id, pids] = electric_only(trip.consumption, pids)
            service = services[trip.id, pids]
        dur, move, cost = entry
        return dur, add_leg(kind=kind, plans=pids, move_consumption=move,
                            service_consumption=service, cost=cost,
                            duration_s=dur, **slot)

    def first_event(ready: int, dur: int) -> int:
        """The event a bus leaving at ``ready`` reaches, snapped forward."""
        return max(0, math.ceil((ready + dur - start) / theta))

    def last_event(due: int, dur: int) -> int:
        """The latest event a bus can leave at and arrive by ``due``."""
        return min(horizon_steps, math.floor((due - dur - start) / theta))

    # --- depot pull-outs / pull-ins to trips --------------------------------
    trips_with_pullout = set()
    for t in instance.trips:
        for d in instance.depots:
            leg = deadhead("pullout", d.id, t.origin, start, t.departure_s,
                           depot_pids[d.id], trip=t)
            if leg:
                add_arc(f"src:{d.id}", f"trip:{t.id}", leg[1])
                trips_with_pullout.add(t.id)
        for d in instance.depots:
            leg = deadhead("pullin", t.destination, d.id, t.arrival_s, end,
                           depot_pids[d.id])
            if leg:
                add_arc(f"trip:{t.id}", f"snk:{d.id}", leg[1])
    missing = [t.id for t in instance.trips if t.id not in trips_with_pullout]
    if missing:
        raise GraphError(f"trips unreachable from every depot: {missing}")

    # --- trip-to-trip connections -------------------------------------------
    for a in instance.trips:
        for b in instance.trips:
            if a.id == b.id:
                continue
            leg = deadhead("connection", a.destination, b.origin, a.arrival_s,
                           b.departure_s, all_pids, trip=b)
            if leg:
                add_arc(f"trip:{a.id}", f"trip:{b.id}", leg[1])

    # --- charger timelines ---------------------------------------------------
    for sid in slots:
        cid = slot_charger[sid]
        charger = instance.charger(cid)
        cpids = tuple(p.id for p in electric
                      if p.vehicle_type in charger.profiles)
        if not cpids:
            continue
        events = slot_events[sid]
        idle = charger.step_consumption
        shared = add_leg(kind="recharge", plans=cpids,
                         move_consumption=({p: idle for p in cpids} if idle
                                           else {}),
                         service_consumption={}, cost={p: 0.0 for p in cpids},
                         duration_s=int(theta), charger=cid, slot=sid)
        for i in range(1, horizon_steps + 1):
            add_arc(events[i - 1], events[i], shared, step=i,
                    available=i in slot_available[sid])

        for t in instance.trips:        # access from trips
            leg = deadhead("access", t.destination, cid, t.arrival_s, end,
                           cpids, charger=cid, slot=sid)
            if leg:
                add_arc(f"trip:{t.id}", events[first_event(t.arrival_s,
                                                           leg[0])], leg[1])
        for d in instance.depots:       # pull-out onto the timeline
            pids = tuple(p for p in cpids if p in depot_pids[d.id])
            leg = pids and deadhead("pullout", d.id, cid, start, end, pids,
                                    charger=cid, slot=sid)
            if leg:
                for i in range(first_event(start, leg[0]), horizon_steps + 1):
                    add_arc(f"src:{d.id}", events[i], leg[1])
        for t in instance.trips:        # egress to trips
            leg = deadhead("egress", cid, t.origin, start, t.departure_s,
                           cpids, trip=t, charger=cid, slot=sid)
            if leg:
                i_max = last_event(t.departure_s, leg[0])
                i_lo = 0
                if options.egress_lookahead_steps is not None:
                    i_lo = max(0, i_max - options.egress_lookahead_steps)
                for i in range(i_lo, i_max + 1):
                    add_arc(events[i], f"trip:{t.id}", leg[1])
        for d in instance.depots:       # egress to depot sinks
            pids = tuple(p for p in cpids if p in depot_pids[d.id])
            leg = pids and deadhead("egress", cid, d.id, start, end, pids,
                                    charger=cid, slot=sid)
            if leg:
                for i in range(last_event(end, leg[0]) + 1):
                    add_arc(events[i], f"snk:{d.id}", leg[1])

    # --- keep only the plans that are live on each slot ----------------------
    layout_out = {nid: [] for nid in nodes}
    for a in drafts:
        layout_out[a.tail].append(a)
    # raises on cycles; the graph keeps this order (see topological_order)
    order = _topological_order(_Layout(nodes, drafts, layout_out))
    live = _live_slot_plans(order, layout_out, electric, slot_events)
    for k, fields in enumerate(legs):
        sid = fields.get("slot")
        if sid is None or not leg_mask[k] & ~live[sid]:
            continue
        keep = leg_mask[k] & live[sid]
        if not keep:
            legs[k] = None              # its arcs are dropped
            continue
        legs[k] = dict(fields, plans=tuple(p for p in fields["plans"]
                                           if plan_bit[p] & keep))
        for f in ("move_consumption", "service_consumption", "cost"):
            legs[k][f] = {p: v for p, v in fields[f].items()
                          if plan_bit[p] & keep}

    arcs: list = []
    for a in drafts:
        fields = legs[a.leg]
        if fields is not None:
            arcs.append(Arc(index=len(arcs), tail=a.tail, head=a.head,
                            **fields, **a.extra))

    graph = SchedulingGraph(instance=instance, theta=float(theta),
                            horizon_steps=horizon_steps, nodes=nodes,
                            arcs=arcs, plan_types=plans, slots=slots,
                            slot_charger=slot_charger)
    graph.in_arcs = {nid: [] for nid in nodes}
    graph.out_arcs = {nid: [] for nid in nodes}
    for a in arcs:
        graph.in_arcs[a.head].append(a)
        graph.out_arcs[a.tail].append(a)
    graph._order = order
    return graph


# ---------------------------------------------------------------------------
# Preprocessing bounds
# ---------------------------------------------------------------------------

@dataclass
class EnergyBounds:
    """Per (node, plan): min soc needed to exit (E) and max soc arriving (Y).

    E is the cheapest consumption path from the node to any depot sink or
    charge node; Y is 1 minus the cheapest path from any depot source or
    charge node.  Unreachable exits are +inf, unreachable nodes have
    Y = -inf.
    """

    min_exit: dict      # (node id, plan id) -> E
    max_arrival: dict   # (node id, plan id) -> Y

    def exit_floor(self, node: str, plan: str) -> float:
        return self.min_exit.get((node, plan), math.inf)

    def arrival_ceiling(self, node: str, plan: str) -> float:
        return self.max_arrival.get((node, plan), -math.inf)


def compute_energy_bounds(graph: SchedulingGraph) -> EnergyBounds:
    order = graph.topological_order()
    is_anchor = {nid: n.kind in ("depot-source", "depot-sink", "charge")
                 for nid, n in graph.nodes.items()}
    min_exit: dict = {}
    max_arrival: dict = {}
    for plan in graph.plan_types:
        pid = plan.id
        for nid in reversed(order):
            if graph.nodes[nid].kind in ("depot-sink", "charge"):
                min_exit[(nid, pid)] = 0.0
                continue
            best = math.inf
            for a in graph.out_arcs[nid]:
                if pid not in a.plans:
                    continue
                tail_cost = a.consumption(pid) + min_exit.get((a.head, pid),
                                                              math.inf)
                best = min(best, tail_cost)
            min_exit[(nid, pid)] = best
        for nid in order:
            if is_anchor[nid] and graph.nodes[nid].kind != "depot-sink":
                max_arrival[(nid, pid)] = 1.0
                continue
            best = -math.inf
            for a in graph.in_arcs[nid]:
                if pid not in a.plans:
                    continue
                best = max(best,
                           max_arrival.get((a.tail, pid), -math.inf)
                           - a.consumption(pid))
            max_arrival[(nid, pid)] = best
    return EnergyBounds(min_exit=min_exit, max_arrival=max_arrival)
