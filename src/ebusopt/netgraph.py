"""Time-expanded scheduling digraph with charger-slot timelines.

Nodes: one source and one sink per depot, one node per trip, and a timeline
node per (charger slot, time event i = 0..H).  Consecutive timeline nodes
are linked by recharge arcs a(s, i) that carry the charge increment
variables.  Splitting each depot into source/sink makes the graph a DAG.

Consumption on an arc covers the connecting deadhead plus the head node's
service (a trip's own consumption), so propagating soc along active arcs
reproduces course energy arithmetic exactly.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Optional

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
        """Node ids in topological order, computed once per graph."""
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


def build_graph(instance: Instance, theta: float,
                options: GraphOptions = GraphOptions()) -> SchedulingGraph:
    """Expand an instance into the scheduling DAG at time step theta.

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

    def add_node(n: Node):
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

    def charger_plans(cid: str) -> list:
        prof = instance.charger(cid).profiles
        return [p for p in plans if p.electric and p.vehicle_type in prof]

    def plan_cons(table: dict, plan_ids) -> dict:
        return {p: table.get(p.split(".", 1)[0], 0.0) for p in plan_ids}

    def electric_only(table: dict, plan_ids) -> dict:
        return {p: table.get(p.split(".", 1)[0], 0.0) for p in plan_ids
                if p.split(".", 1)[0] in etype_ids}

    counter = [0]

    def add_arc(**kw) -> Arc:
        a = Arc(index=counter[0], **kw)
        counter[0] += 1
        arcs.append(a)
        return a

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
    for a in instance.trips:
        for b in instance.trips:
            if a.id == b.id:
                continue
            leg = connection_leg(a.destination, b.origin)
            if leg is None:
                continue
            dur, cons, cost = leg
            if a.arrival_s + dur > b.departure_s:
                continue
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

    # --- optional depot parking timelines ------------------------------------
    if options.depot_parking:
        for d in instance.depots:
            pids = tuple(p.id for p in plan_by_depot[d.id])
            for i in range(horizon_steps + 1):
                add_node(Node(f"park:{d.id}@{i}", "park", depot=d.id, event=i))
            for i in range(1, horizon_steps + 1):
                add_arc(tail=f"park:{d.id}@{i-1}", head=f"park:{d.id}@{i}",
                        kind="wait", plans=pids, move_consumption={},
                        service_consumption={}, cost={p: 0.0 for p in pids},
                        duration_s=int(theta))
            for t in instance.trips:
                leg = connection_leg(t.destination, d.id)
                if leg is not None:
                    dur, cons, cost = leg
                    i = math.ceil((t.arrival_s + dur - start) / theta)
                    if 0 <= i <= horizon_steps:
                        add_arc(tail=f"trip:{t.id}", head=f"park:{d.id}@{i}",
                                kind="access", plans=pids,
                                move_consumption=electric_only(cons, pids),
                                service_consumption={},
                                cost=plan_cons(cost, pids), duration_s=dur)
                leg = connection_leg(d.id, t.origin)
                if leg is not None:
                    dur, cons, cost = leg
                    i_max = math.floor((t.departure_s - dur - start) / theta)
                    if i_max >= 0:
                        i_max = min(i_max, horizon_steps)
                        add_arc(tail=f"park:{d.id}@{i_max}",
                                head=f"trip:{t.id}", kind="egress", plans=pids,
                                move_consumption=electric_only(cons, pids),
                                service_consumption=electric_only(
                                    t.consumption, pids),
                                cost=plan_cons(cost, pids), duration_s=dur)
            # parked buses may finish their day in place
            add_arc(tail=f"park:{d.id}@{horizon_steps}", head=f"snk:{d.id}",
                    kind="pullin", plans=pids, move_consumption={},
                    service_consumption={}, cost={p: 0.0 for p in pids},
                    duration_s=0)

    graph = SchedulingGraph(instance=instance, theta=float(theta),
                            horizon_steps=horizon_steps, nodes=nodes,
                            arcs=arcs, plan_types=plans, slots=slots,
                            slot_charger=slot_charger)
    graph.in_arcs = {nid: [] for nid in nodes}
    graph.out_arcs = {nid: [] for nid in nodes}
    for a in arcs:
        graph.in_arcs[a.head].append(a)
        graph.out_arcs[a.tail].append(a)
    graph.topological_order()  # raises on cycles
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
