import numpy as np
import pytest

from ebusopt.generators import SyntheticParams, generate_synthetic
from ebusopt.netgraph import (ARC_KINDS, EGRESS, GraphError, GraphOptions,
                              build_graph, compute_energy_bounds)
from _oracles import adjacency, arc_records, event_time
from _toys import charger_toy, two_trip_instance


def test_two_trip_graph_minimal_arcs():
    inst = two_trip_instance()
    g = build_graph(inst, 300.0)
    kinds = [ARC_KINDS[k] for k in g.kind]
    assert kinds.count("connection") == 1
    assert kinds.count("pullout") == 2
    assert kinds.count("pullin") == 2
    assert len(kinds) == 5


def test_timeline_has_h_recharge_arcs():
    inst = charger_toy(horizon_s=3600, theta=300)
    g = build_graph(inst, 300.0)
    recharge = [a for a in arc_records(g) if a.kind == "recharge"]
    assert len(recharge) == 12
    assert g.horizon_steps == 12
    for a in recharge:
        tail, head = g.nodes[a.tail], g.nodes[a.head]
        assert tail.slot == head.slot == a.slot
        assert head.event == tail.event + 1 == a.step


def test_mixed_fleet_charger_arcs_electric_only():
    inst = charger_toy(mixed_fleet=True)
    g = build_graph(inst, 300.0)
    arcs = arc_records(g)
    for a in arcs:
        if a.kind in ("recharge", "access", "egress") or a.charger:
            for pid in a.plans:
                assert g.plan(pid).electric
    # non-electric plans do appear elsewhere
    assert any("f0." in pid for a in arcs if a.kind == "pullout"
               for pid in a.plans)


def test_depot_adjacent_arcs_respect_depot():
    inst = generate_synthetic(SyntheticParams(trips=8, depots=2), seed=2)
    g = build_graph(inst, 300.0)
    for a in arc_records(g):
        tail, head = g.nodes[a.tail], g.nodes[a.head]
        if tail.kind == "depot-source":
            assert all(pid.endswith(f".{tail.depot}") for pid in a.plans)
        if head.kind == "depot-sink":
            assert all(pid.endswith(f".{head.depot}") for pid in a.plans)


def test_graph_is_dag_for_generated_instances():
    for seed in range(3):
        inst = generate_synthetic(SyntheticParams(trips=10), seed=seed)
        g = build_graph(inst, 300.0)
        order = g.topological_order()
        pos = {nid: i for i, nid in enumerate(order)}
        assert all(pos[a.tail] < pos[a.head] for a in arc_records(g))


def test_theta_must_divide_horizon():
    inst = two_trip_instance()  # horizon 7200
    with pytest.raises(GraphError):
        build_graph(inst, 700.0)
    # 300.5 s would put event 24 at 7212 s, past the horizon end
    for theta in (0.5, 300.5, float("inf"), float("nan")):
        with pytest.raises(GraphError, match="whole seconds"):
            build_graph(inst, theta)


def test_unreachable_trip_reported():
    inst = two_trip_instance()
    # drop the pull-out deadheads for trip t1's origin
    pruned = [d for d in inst.deadheads if not (d.origin == "D0"
                                                and d.destination == "A")]
    import dataclasses
    broken = dataclasses.replace(inst, deadheads=tuple(pruned))
    with pytest.raises(GraphError, match="t1"):
        build_graph(broken, 300.0)


def test_access_snaps_forward_egress_backward():
    inst = charger_toy(horizon_s=3600, theta=300)
    g = build_graph(inst, 300.0)
    t1, t2 = inst.trips
    for a in arc_records(g):
        if a.kind == "access" and a.tail == "trip:t1":
            event = g.nodes[a.head].event
            assert event_time(g, event) >= t1.arrival_s + a.duration_s
            assert event_time(g, event - 1) < t1.arrival_s + a.duration_s
        if a.kind == "egress" and a.head == "trip:t2":
            event = g.nodes[a.tail].event
            assert event_time(g, event) + a.duration_s <= t2.departure_s


def test_charger_windows_mask_recharge_arcs():
    inst = charger_toy(horizon_s=3600, theta=300, windows=[(600, 1800)])
    g = build_graph(inst, 300.0)
    avail = {a.step: a.available for a in arc_records(g)
             if a.kind == "recharge"}
    # steps fully inside [600, 1800] are 3..6
    assert all(avail[i] for i in (3, 4, 5, 6))
    assert not any(avail[i] for i in (1, 2, 7, 8, 9, 10, 11, 12))


def test_egress_lookahead_limits_arcs():
    inst = charger_toy(horizon_s=7200, theta=300)
    g_all = build_graph(inst, 300.0)
    g_look = build_graph(inst, 300.0, GraphOptions(egress_lookahead_steps=2))
    n_all = np.count_nonzero(g_all.kind == EGRESS)
    n_look = np.count_nonzero(g_look.kind == EGRESS)
    assert n_look < n_all


def test_negative_egress_lookahead_rejected():
    # a negative window would lay out no egress arc to any trip
    inst = charger_toy()
    build_graph(inst, 300.0, GraphOptions(egress_lookahead_steps=0))
    with pytest.raises(GraphError, match="lookahead of -1 steps"):
        build_graph(inst, 300.0, GraphOptions(egress_lookahead_steps=-1))


# ---------------------------------------------------------------------------
# energy bounds
# ---------------------------------------------------------------------------

def test_energy_bounds_direct_values():
    inst = two_trip_instance()
    g = build_graph(inst, 300.0)
    eb = compute_energy_bounds(g)
    p = g.plan_code["e0.D0"]
    t1, t2 = g.node_code["trip:t1"], g.node_code["trip:t2"]
    # E at trip t2: the pull-in deadhead is the only exit (0.05)
    assert eb.min_exit[t2, p] == pytest.approx(0.05)
    # Y at trip t1: straight off the depot: 1 - (0.05 + 0.3)
    assert eb.max_arrival[t1, p] == pytest.approx(1 - 0.35)
    # E at t1: cheapest continuation: pull-in at 0.05
    assert eb.min_exit[t1, p] == pytest.approx(0.05)


def test_energy_bounds_match_bruteforce_enumeration():
    rng = np.random.default_rng(4)
    for seed in range(6):
        inst = generate_synthetic(SyntheticParams(trips=4), seed=seed)
        g = build_graph(inst, 600.0, GraphOptions(egress_lookahead_steps=1))
        eb = compute_energy_bounds(g)
        pid = g.plan_types[0].id
        in_arcs, out_arcs = adjacency(arc_records(g))
        anchors_exit = {nid for nid, n in g.nodes.items()
                        if n.kind in ("depot-sink", "charge")}
        anchors_entry = {nid for nid, n in g.nodes.items()
                         if n.kind in ("depot-source", "charge")}

        # exhaustive path enumeration from every trip node
        def all_exit_costs(nid):
            if nid in anchors_exit:
                return [0.0]
            out = []
            for a in out_arcs[nid]:
                if pid not in a.plans:
                    continue
                for rest in all_exit_costs(a.head):
                    out.append(a.consumption(pid) + rest)
            return out

        def all_entry_costs(nid, _memo={}):
            if nid in anchors_entry:
                return [0.0]
            out = []
            for a in in_arcs[nid]:
                if pid not in a.plans:
                    continue
                for rest in all_entry_costs(a.tail):
                    out.append(a.consumption(pid) + rest)
            return out

        for t in inst.trips:
            nid = f"trip:{t.id}"
            at = g.node_code[nid], g.plan_code[pid]
            exits = all_exit_costs(nid)
            if exits:
                assert eb.min_exit[at] == pytest.approx(min(exits), abs=1e-9)
            entries = all_entry_costs(nid)
            if entries:
                assert eb.max_arrival[at] == pytest.approx(
                    1.0 - min(entries), abs=1e-9)

