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

import csv
import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .instance import Instance, PlanType


class GraphError(ValueError):
    """Instance cannot be expanded into a valid scheduling graph."""


@dataclass(frozen=True)
class Node:
    id: str
    kind: str                       # depot-source | depot-sink | trip | charge | park
    depot: Optional[str] = None
    trip: Optional[str] = None
    slot: Optional[str] = None
    event: Optional[int] = None     # timeline index for charge/park nodes


@dataclass(frozen=True)
class Arc:
    index: int
    tail: str
    head: str
    kind: str                       # pullout | pullin | connection | access | egress | recharge | wait
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
    depot_parking: bool = False


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

    def write_stats_csv(self, path):
        stats = self.stats()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["class", "kind", "count"])
            for kind, cnt in sorted(stats["nodes"].items()):
                w.writerow(["node", kind, cnt])
            for kind, cnt in sorted(stats["arcs"].items()):
                w.writerow(["arc", kind, cnt])


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

    Connection arcs exist exactly for time-feasible pairs from the deadhead
    table (same-location connections are implicit with zero cost).  Charger
    access snaps forward to the next timeline event, egress leaves from any
    event that still reaches the target in time (optionally limited to a
    lookahead window before the latest such event).

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
    if theta <= 0 or span % int(theta) != 0:
        raise GraphError(f"theta={theta} must divide the horizon span {span}")
    horizon_steps = int(span // int(theta))

    plans = instance.plan_types()
    plan_by_depot = defaultdict(list)
    for p in plans:
        plan_by_depot[p.depot].append(p)
    vtype_of = {p.id: p.vehicle_type for p in plans}
    electric = [p for p in plans if p.electric]
    plan_bit = {p.id: 1 << k for k, p in enumerate(electric)}

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

    dh = instance.deadhead_map()

    def charger_plans(cid: str) -> list:
        prof = instance.charger(cid).profiles
        return [p for p in plans if p.electric and p.vehicle_type in prof]

    def plan_cons(table: dict, plan_ids) -> dict:
        return {p: table.get(vtype_of[p], 0.0) for p in plan_ids}

    def electric_only(table: dict, plan_ids) -> dict:
        return {p: table.get(vtype_of[p], 0.0) for p in plan_ids
                if p in plan_bit}

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

    all_plan_ids = tuple(p.id for p in plans)
    fixed = {p.id: instance.vehicle_type(p.vehicle_type).fixed_cost
             for p in plans}

    def connection_leg(a_loc: str, b_loc: str):
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
            add_arc(f"src:{d.id}", f"trip:{t.id}", add_leg(
                kind="pullout", plans=pids,
                move_consumption=electric_only(cons, pids),
                service_consumption=electric_only(t.consumption, pids),
                cost={p: cost.get(vtype_of[p], 0.0) + fixed[p] for p in pids},
                duration_s=dur))
            trips_with_pullout.add(t.id)
        for d in instance.depots:
            leg = connection_leg(t.destination, d.id)
            if leg is None:
                continue
            dur, cons, cost = leg
            if t.arrival_s + dur > end:
                continue
            pids = tuple(p.id for p in plan_by_depot[d.id])
            add_arc(f"trip:{t.id}", f"snk:{d.id}", add_leg(
                kind="pullin", plans=pids,
                move_consumption=electric_only(cons, pids),
                service_consumption={},
                cost=plan_cons(cost, pids),
                duration_s=dur))
    missing = [t.id for t in instance.trips if t.id not in trips_with_pullout]
    if missing:
        raise GraphError(f"trips unreachable from every depot: {missing}")

    # --- trip-to-trip connections -------------------------------------------
    # per-plan tables are built once per trip and per deadhead and shared
    service = {t.id: electric_only(t.consumption, all_plan_ids)
               for t in instance.trips}
    deadhead_tables: dict = {}
    for a in instance.trips:
        for b in instance.trips:
            if a.id == b.id:
                continue
            key = (a.destination, b.origin)
            if key not in deadhead_tables:
                leg = connection_leg(*key)
                deadhead_tables[key] = None if leg is None else (
                    leg[0], electric_only(leg[1], all_plan_ids),
                    plan_cons(leg[2], all_plan_ids))
            leg = deadhead_tables[key]
            if leg is None or a.arrival_s + leg[0] > b.departure_s:
                continue
            dur, move, cost = leg
            add_arc(f"trip:{a.id}", f"trip:{b.id}", add_leg(
                kind="connection", plans=all_plan_ids,
                move_consumption=move, service_consumption=service[b.id],
                cost=cost, duration_s=dur))

    # --- charger timelines ---------------------------------------------------
    for sid in slots:
        cid = slot_charger[sid]
        cplans = charger_plans(cid)
        cpids = tuple(p.id for p in cplans)
        if not cpids:
            continue
        events = slot_events[sid]
        idle = instance.charger(cid).step_consumption
        shared = add_leg(kind="recharge", plans=cpids,
                         move_consumption=({p: idle for p in cpids} if idle
                                           else {}),
                         service_consumption={}, cost={p: 0.0 for p in cpids},
                         duration_s=int(theta), charger=cid, slot=sid)
        for i in range(1, horizon_steps + 1):
            add_arc(events[i - 1], events[i], shared, step=i,
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
            add_arc(f"trip:{t.id}", events[max(i, 0)], add_leg(
                kind="access", plans=cpids,
                move_consumption=electric_only(cons, cpids),
                service_consumption={}, cost=plan_cons(cost, cpids),
                duration_s=dur, charger=cid, slot=sid))

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
            shared = add_leg(kind="pullout", plans=pids,
                             move_consumption=electric_only(cons, pids),
                             service_consumption={},
                             cost={p: cost.get(vtype_of[p], 0.0) + fixed[p]
                                   for p in pids},
                             duration_s=dur, charger=cid, slot=sid)
            for i in range(max(0, math.ceil(dur / theta)), horizon_steps + 1):
                add_arc(f"src:{d.id}", events[i], shared)

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
            shared = add_leg(kind="egress", plans=cpids,
                             move_consumption=electric_only(cons, cpids),
                             service_consumption=electric_only(t.consumption,
                                                               cpids),
                             cost=plan_cons(cost, cpids), duration_s=dur,
                             charger=cid, slot=sid)
            for i in range(i_lo, i_max + 1):
                add_arc(events[i], f"trip:{t.id}", shared)

        # egress to depot sinks
        for d in instance.depots:
            leg = connection_leg(cid, d.id)
            if leg is None:
                continue
            dur, cons, cost = leg
            pids = tuple(p.id for p in charger_plans(cid) if p.depot == d.id)
            if not pids:
                continue
            shared = add_leg(kind="egress", plans=pids,
                             move_consumption=electric_only(cons, pids),
                             service_consumption={},
                             cost=plan_cons(cost, pids), duration_s=dur,
                             charger=cid, slot=sid)
            for i in range(0, horizon_steps + 1):
                if start + i * theta + dur > end:
                    break
                add_arc(events[i], f"snk:{d.id}", shared)

    # --- optional depot parking timelines ------------------------------------
    if options.depot_parking:
        for d in instance.depots:
            pids = tuple(p.id for p in plan_by_depot[d.id])
            for i in range(horizon_steps + 1):
                add_node(Node(f"park:{d.id}@{i}", "park", depot=d.id, event=i))
            shared = add_leg(kind="wait", plans=pids, move_consumption={},
                             service_consumption={},
                             cost={p: 0.0 for p in pids},
                             duration_s=int(theta))
            for i in range(1, horizon_steps + 1):
                add_arc(f"park:{d.id}@{i-1}", f"park:{d.id}@{i}", shared)
            for t in instance.trips:
                leg = connection_leg(t.destination, d.id)
                if leg is not None:
                    dur, cons, cost = leg
                    i = math.ceil((t.arrival_s + dur - start) / theta)
                    if 0 <= i <= horizon_steps:
                        add_arc(f"trip:{t.id}", f"park:{d.id}@{i}", add_leg(
                            kind="access", plans=pids,
                            move_consumption=electric_only(cons, pids),
                            service_consumption={},
                            cost=plan_cons(cost, pids), duration_s=dur))
                leg = connection_leg(d.id, t.origin)
                if leg is not None:
                    dur, cons, cost = leg
                    i_max = math.floor((t.departure_s - dur - start) / theta)
                    if i_max >= 0:
                        i_max = min(i_max, horizon_steps)
                        add_arc(f"park:{d.id}@{i_max}", f"trip:{t.id}",
                                add_leg(kind="egress", plans=pids,
                                        move_consumption=electric_only(
                                            cons, pids),
                                        service_consumption=electric_only(
                                            t.consumption, pids),
                                        cost=plan_cons(cost, pids),
                                        duration_s=dur))
            # parked buses may finish their day in place
            add_arc(f"park:{d.id}@{horizon_steps}", f"snk:{d.id}", add_leg(
                kind="pullin", plans=pids, move_consumption={},
                service_consumption={}, cost={p: 0.0 for p in pids},
                duration_s=0))

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
    charge node.  Unreachable exits are +inf (reported in ``dead_ends``),
    unreachable nodes have Y = -inf.
    """

    min_exit: dict      # (node id, plan id) -> E
    max_arrival: dict   # (node id, plan id) -> Y
    dead_ends: list     # (node id, plan id) with no exit path

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
    dead_ends = []
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
            if best is math.inf and graph.nodes[nid].kind == "trip":
                dead_ends.append((nid, pid))
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
    return EnergyBounds(min_exit=min_exit, max_arrival=max_arrival,
                        dead_ends=dead_ends)
