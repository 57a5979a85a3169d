"""Charger arcs carry only the plans that can reach their slot.

``netgraph.build_graph`` keeps, on every arc of a charger slot, only the
plans with a path from their depot source through the slot to their depot
sink.  These tests check that against the unpruned expansion in
``_oracles.build_graph``: graph by graph on generated instances, and solve
by solve on a seeded multi-depot corpus.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from ebusopt.chargemodel import ChargingPowerProfile
from ebusopt.generators import (SyntheticParams, generate_synthetic,
                                generate_worst_case)
from ebusopt.instance import (Charger, Deadhead, Depot, GridPoint, Instance,
                              Trip, VehicleType)
from ebusopt.milp import (ModelOptions, build_model, decode_solution,
                          solve_model)
from ebusopt.netgraph import GraphOptions, build_graph
from ebusopt.validate import build_domains, exact_curves, validate_schedule

THETA = 300.0
PROFILE = ChargingPowerProfile(cc_rate=0.5 / 600.0, cv_break=0.5,
                               cv_shape="quadratic", name="quad")


def _live_pairs(graph) -> set:
    """(slot, plan) pairs with a source -> slot -> sink path for the plan,
    found by a search from each end over the arcs that admit the plan."""
    def search(start, step):
        seen, todo = {start}, [start]
        while todo:
            for nid in step(todo.pop()):
                if nid not in seen:
                    seen.add(nid)
                    todo.append(nid)
        return seen

    live = set()
    for p in graph.plan_types:
        if not p.electric:
            continue
        ahead = search(f"src:{p.depot}", lambda n: [
            a.head for a in graph.out_arcs[n] if p.id in a.plans])
        behind = search(f"snk:{p.depot}", lambda n: [
            a.tail for a in graph.in_arcs[n] if p.id in a.plans])
        live |= {(graph.nodes[n].slot, p.id) for n in ahead & behind
                 if graph.nodes[n].kind == "charge"}
    return live


def _pruned_reference(ref) -> list:
    """The reference arcs without their dead (slot, plan) pairs, renumbered."""
    live = _live_pairs(ref)
    arcs = []
    for a in ref.arcs:
        if a.slot is not None:
            pids = tuple(p for p in a.plans if (a.slot, p) in live)
            if not pids:
                continue
            a = dataclasses.replace(a, plans=pids, **{
                f: {p: v for p, v in getattr(a, f).items() if p in pids}
                for f in ("move_consumption", "service_consumption", "cost")})
        arcs.append(dataclasses.replace(a, index=len(arcs)))
    return arcs


def _pairs(graph) -> int:
    return sum(len(a.plans) for a in graph.arcs)


# ---------------------------------------------------------------------------
# graph by graph
# ---------------------------------------------------------------------------

@st.composite
def graph_cases(draw):
    """Small instances: 1-3 depots, chargers only some depots reach,
    availability windows, idle draw, mixed and diesel fleets."""
    steps = draw(st.integers(4, 14))
    end = int(steps * THETA)
    depots = [f"D{j}" for j in range(draw(st.integers(1, 3)))]
    fleet = draw(st.sampled_from(("electric", "two-electric", "mixed",
                                  "diesel")))
    vts = [VehicleType("d0", False, 0.0, 80.0)] if fleet == "diesel" else \
        [VehicleType("e0", True, 100.0, 100.0)]
    if fleet == "two-electric":
        vts.append(VehicleType("e1", True, 150.0, 120.0))
    if fleet == "mixed":
        vts.append(VehicleType("d0", False, 0.0, 80.0))
    etypes = [v.id for v in vts if v.electric]
    soc = st.floats(0.0, 0.3).map(lambda x: round(x, 3))

    def table():
        return {v: draw(soc) for v in etypes}

    terminals = ["T0", "T1", "T2"]
    trips = []
    for k in range(draw(st.integers(1, 5))):
        dep = draw(st.integers(600, end - 300))
        trips.append(Trip(f"t{k}", draw(st.sampled_from(terminals)),
                          draw(st.sampled_from(terminals)), dep,
                          min(end, dep + draw(st.integers(0, 1800))),
                          table()))
    chargers = []
    for c in range(draw(st.integers(1, 2))):
        profiles = {v: "quad" for v in etypes if draw(st.booleans())}
        window = None
        if draw(st.booleans()):
            ws = draw(st.integers(0, end - 300))
            window = ((ws, min(end, ws + draw(st.integers(300, 3600)))),)
        chargers.append(Charger(f"C{c}", draw(st.integers(1, 2)), "G0",
                                profiles, window,
                                draw(st.sampled_from((0.0, 0.01)))))

    deadheads = []

    def leg(a, b, dur=None):
        dur = draw(st.integers(0, 1200)) if dur is None else dur
        deadheads.append(Deadhead(a, b, dur, table(),
                                  {v.id: dur / 60.0 for v in vts}))

    for t in terminals:       # D0 reaches every trip in time
        leg("D0", t, draw(st.integers(0, 600)))
    places = depots + [c.id for c in chargers] + terminals
    for a in places:
        for b in places:
            if (a != b and not (a == "D0" and b in terminals)
                    and draw(st.booleans())):
                leg(a, b)
    inst = Instance(
        vehicle_types=tuple(vts), depots=tuple(Depot(d) for d in depots),
        trips=tuple(trips), deadheads=tuple(deadheads),
        chargers=tuple(chargers),
        grid_points=(GridPoint("G0", ((0, end, 1000.0),), ((0, end, 0.2),)),),
        profiles={"quad": PROFILE}, mix_constraints=(), horizon=(0, end))
    options = GraphOptions(
        egress_lookahead_steps=draw(st.one_of(st.none(), st.integers(0, 4))))
    return inst, options


@settings(max_examples=80, deadline=None)
@given(case=graph_cases())
def test_graph_drops_exactly_the_dead_slot_plans(case):
    inst, options = case
    ref = _oracles.build_graph(inst, THETA, options)
    got = build_graph(inst, THETA, options)
    assert got.arcs == _pruned_reference(ref)
    assert got.nodes == ref.nodes and got.slots == ref.slots
    for nid in got.nodes:
        assert got.out_arcs[nid] == [a for a in got.arcs if a.tail == nid]
        assert got.in_arcs[nid] == [a for a in got.arcs if a.head == nid]
    pos = {nid: i for i, nid in enumerate(got.topological_order())}
    assert len(pos) == len(got.nodes)
    assert all(pos[a.tail] < pos[a.head] for a in got.arcs)


def _two_type_instance(legs, pullout_depot):
    """Types e0 and e1 at depots D0 and D1; trips t1 (A -> B) and then t2
    (B -> A); charger C0 serves e0 only, C1 both types.  ``legs`` are the
    deadheads besides the pull-outs to t1 from ``pullout_depot`` and to t2
    from D1."""
    types = ("e0", "e1")
    legs = [(pullout_depot, "A"), ("D1", "B")] + list(legs)
    return Instance(
        vehicle_types=(VehicleType("e0", True, 100.0, 100.0),
                       VehicleType("e1", True, 100.0, 100.0)),
        depots=(Depot("D0"), Depot("D1")),
        trips=(Trip("t1", "A", "B", 1800, 2400, {v: 0.1 for v in types}),
               Trip("t2", "B", "A", 4800, 5400, {v: 0.1 for v in types})),
        deadheads=tuple(Deadhead(a, b, 300, {v: 0.01 for v in types},
                                 {v: 5.0 for v in types}) for a, b in legs),
        chargers=(Charger("C0", 1, "G0", {"e0": "quad"}),
                  Charger("C1", 1, "G0", {"e0": "quad", "e1": "quad"})),
        grid_points=(GridPoint("G0", ((0, 7200, 1000.0),),
                               ((0, 7200, 0.2),)),),
        profiles={"quad": PROFILE}, mix_constraints=(), horizon=(0, 7200))


@pytest.mark.parametrize("legs, pullout_depot", [
    # e1.D0 reaches D0's sink from t2 only through C0
    ([("B", "C1"), ("C1", "B"), ("A", "C0"), ("C0", "D0")], "D0"),
    # e1.D0 reaches t1 only through C0; t1 is pulled out from D1
    ([("D0", "C0"), ("C0", "A"), ("B", "C1"), ("C1", "D0")], "D1")])
def test_a_charger_carries_no_plan_whose_path_needs_another_type(
        legs, pullout_depot):
    graph = build_graph(_two_type_instance(legs, pullout_depot), THETA)
    on_c1 = {p for a in graph.arcs if a.charger == "C1" for p in a.plans}
    assert on_c1 == {"e0.D0"}


def test_chains_drop_foreign_depot_plans():
    inst = generate_worst_case(5, 0.005, 0.02, estimator="under",
                               theta=THETA, segments=2)
    ref = _oracles.build_graph(inst, THETA)
    got = build_graph(inst, THETA)
    assert (_pairs(ref), _pairs(got)) == (2597, 719)
    assert got.arcs == _pruned_reference(ref)


# ---------------------------------------------------------------------------
# the time rule: a leg exists exactly when ready + duration <= due
# ---------------------------------------------------------------------------

def _boundary_instance(leg, duration):
    """Horizon [1800, 5400] (12 steps); t1 runs A -> B from 2700 to 3300,
    t2 C -> A from 4200 to 4800.  Every deadhead takes 60 s except ``leg``;
    D1 pulls out to both trips, so neither needs a pull-out from D0."""
    legs = [("D0", "A"), ("D0", "C"), ("A", "D0"), ("B", "D0"), ("B", "C"),
            ("B", "C0"), ("D0", "C0"), ("C0", "C"), ("C0", "D0"),
            ("D1", "A"), ("D1", "C"), ("A", "D1"), ("B", "D1")]
    inst = Instance(
        vehicle_types=(VehicleType("e0", True, 100.0, 100.0),),
        depots=(Depot("D0"), Depot("D1")),
        trips=(Trip("t1", "A", "B", 2700, 3300, {"e0": 0.1}),
               Trip("t2", "C", "A", 4200, 4800, {"e0": 0.1})),
        deadheads=tuple(Deadhead(a, b, duration if (a, b) == leg else 60,
                                 {"e0": 0.01}, {"e0": 1.0}) for a, b in legs),
        chargers=(Charger("C0", 1, "G0", {"e0": "quad"}),),
        grid_points=(GridPoint("G0", ((1800, 5400, 1000.0),),
                               ((1800, 5400, 0.2),)),),
        profiles={"quad": PROFILE}, mix_constraints=(), horizon=(1800, 5400))
    return inst


@pytest.mark.parametrize("leg, ready, due, arc", [
    (("D0", "A"), 1800, 2700, ("src:D0", "trip:t1", "pullout")),
    (("B", "D0"), 3300, 5400, ("trip:t1", "snk:D0", "pullin")),
    (("B", "C"), 3300, 4200, ("trip:t1", "trip:t2", "connection")),
    (("B", "C0"), 3300, 5400, ("trip:t1", "C0#0@12", "access")),
    (("D0", "C0"), 1800, 5400, ("src:D0", "C0#0@12", "pullout")),
    (("C0", "C"), 1800, 4200, ("C0#0@0", "trip:t2", "egress")),
    (("C0", "D0"), 1800, 5400, ("C0#0@0", "snk:D0", "egress")),
], ids=["pullout", "pullin", "connection", "timeline-access",
        "timeline-pullout", "egress-to-trip", "egress-to-sink"])
def test_a_leg_on_time_is_kept_and_one_second_late_is_not(
        leg, ready, due, arc):
    for late, kept in ((0, True), (1, False)):
        inst = _boundary_instance(leg, due - ready + late)
        got = build_graph(inst, THETA)
        assert got.arcs == _pruned_reference(_oracles.build_graph(inst, THETA))
        assert any((a.tail, a.head, a.kind) == arc
                   for a in got.arcs) is kept, late


# ---------------------------------------------------------------------------
# solve by solve
# ---------------------------------------------------------------------------

def _corpus_instance(seed: int):
    """A small synthetic instance whose depots past D0 reach only one or
    two terminals and maybe no charger; some get a charger window or idle
    draw."""
    rng = np.random.default_rng(seed)
    inst = generate_synthetic(SyntheticParams(
        trips=int(rng.integers(5, 8)), depots=int(rng.integers(2, 4)),
        chargers=int(rng.integers(1, 3)), slots_per_charger=1,
        electric_types=int(rng.integers(1, 3)),
        non_electric_types=int(rng.integers(0, 2)),
        horizon_start_s=6 * 3600, horizon_end_s=12 * 3600), seed=seed)
    terminals = sorted({t.origin for t in inst.trips}
                       | {t.destination for t in inst.trips})
    reach = {d.id: set(rng.choice(terminals, size=int(rng.integers(1, 3)),
                                  replace=False))
             for d in inst.depots[1:]}
    for d in reach:
        if rng.integers(0, 2):
            reach[d] |= {c.id for c in inst.chargers}

    def kept(leg):
        d, other = ((leg.origin, leg.destination) if leg.origin in reach
                    else (leg.destination, leg.origin))
        return d not in reach or other in reach[d]

    chargers = inst.chargers
    if seed % 4 == 2:
        chargers = tuple(dataclasses.replace(c, windows=((8 * 3600,
                                                          10 * 3600),))
                         for c in chargers)
    if seed % 4 == 3:
        chargers = tuple(dataclasses.replace(c, step_consumption=0.002)
                         for c in chargers)
    inst = dataclasses.replace(
        inst, chargers=chargers,
        deadheads=tuple(leg for leg in inst.deadheads if kept(leg)))
    return inst


def _outcome(inst, graph, curves, workdir):
    domains = build_domains(inst, curves, 600.0, 2, "under")
    model = build_model(graph, domains, ModelOptions(use_strengthening=True))
    raw = solve_model(model, workdir, time_limit=60)
    schedule = decode_solution(model, raw)
    report = validate_schedule(inst, schedule, graph, mode="exact",
                               curves=curves)
    return (raw.status, schedule.fleet_size, report.energy_feasible,
            report.weakly_feasible, report.strongly_feasible), raw.objective


def test_pruned_graph_keeps_every_outcome_on_a_corpus(tmp_path):
    pruned = 0
    for seed in range(12):
        inst = _corpus_instance(seed)
        curves = exact_curves(inst)
        ref = _oracles.build_graph(inst, 600.0)
        got = build_graph(inst, 600.0)
        pruned += _pairs(ref) - _pairs(got)
        want, want_obj = _outcome(inst, ref, curves, tmp_path / f"r{seed}")
        have, have_obj = _outcome(inst, got, curves, tmp_path / f"g{seed}")
        assert have == want, seed
        assert want[0] == "optimal", seed
        assert have_obj == pytest.approx(want_obj, rel=1e-6), seed
    assert pruned > 0


@pytest.mark.parametrize("n, estimator, objective", [
    (3, "under", 3090.0), (3, "over", 1168.13720424),
    (4, "under", 4120.0), (4, "over", 1237.30893136),
    (5, "under", 5150.0), (5, "over", 1306.48065848)])
def test_chains_objectives_are_pinned(tmp_path, n, estimator, objective):
    inst = generate_worst_case(n, 0.005, 0.02, estimator=estimator,
                               theta=THETA, segments=2)
    domains = build_domains(inst, exact_curves(inst), THETA, 2, estimator)
    model = build_model(build_graph(inst, THETA), domains,
                        ModelOptions(use_strengthening=True))
    raw = solve_model(model, tmp_path)
    assert raw.status == "optimal"
    assert raw.objective == pytest.approx(objective, rel=1e-9, abs=1e-6)
