"""Array-native model assembly against the dict-row reference.

``milp.build_model`` builds each constraint family in one pass over arrays;
``_oracles.build_model`` builds one dict per row.  Both must give the same
``ModelArrays`` bit for bit (every -0.0 included) and the same index dicts.
"""

import dataclasses
import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import _oracles
from ebusopt import netgraph
from ebusopt.generators import (GenerationError, SyntheticParams,
                                generate_synthetic, generate_worst_case)
from ebusopt.instance import GridPoint, MixConstraint
from ebusopt.milp import (ModelError, ModelOptions, build_model,
                          decode_solution, emit_model, solve_model)
from ebusopt.netgraph import GraphError, GraphOptions, build_graph
from ebusopt.validate import (build_domains, discretization_sweep,
                              exact_curves, validate_schedule)
from _toys import charger_toy

THETA = 300.0


def _assert_same_model(got, want):
    a, b = got.arrays(), want.arrays()
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(y, np.ndarray):
            assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name
    for index in ("x_index", "y_index", "phi_index", "phi_cost"):
        assert list(getattr(got, index).items()) == \
            list(getattr(want, index).items()), index
    assert got.energy_bounds == want.energy_bounds


def _build_or_error(build, graph, domains, options):
    try:
        return build(graph, domains, options)
    except ModelError as exc:
        return f"ModelError: {exc}"


# ---------------------------------------------------------------------------
# generated instances
# ---------------------------------------------------------------------------

LIMITS = st.sampled_from([0.0, 37.5, 1e3, math.inf])


@st.composite
def assembly_cases(draw):
    start = 6 * 3600
    end = start + 3600 * draw(st.integers(4, 5))
    theta = draw(st.sampled_from([600.0, 900.0, 1200.0]))
    params = SyntheticParams(
        trips=draw(st.integers(2, 5)),
        electric_types=draw(st.integers(1, 2)),
        non_electric_types=draw(st.integers(0, 1)),
        depots=draw(st.integers(1, 2)),
        chargers=draw(st.sampled_from([0, 1, 1, 2, 2])),
        slots_per_charger=draw(st.integers(1, 2)),
        grid_points=draw(st.integers(1, 2)),
        horizon_start_s=start, horizon_end_s=end)
    try:
        inst = generate_synthetic(params, seed=draw(st.integers(0, 2**16)))
    except GenerationError:
        reject()
    steps = int((end - start) // theta)

    def event(i):
        return start + int(i * theta)

    chargers = []
    for c in inst.chargers:
        served = draw(st.lists(st.sampled_from(sorted(c.profiles)),
                               min_size=1, unique=True))
        windows = None
        if draw(st.booleans()):
            windows = tuple(
                (event(min(i, j)), event(max(i, j)) + 300)
                for i, j in draw(st.lists(st.tuples(
                    st.integers(0, steps - 1), st.integers(0, steps - 1)),
                    min_size=1, max_size=2)))
        chargers.append(dataclasses.replace(
            c, profiles={vt: p for vt, p in c.profiles.items()
                         if vt in served},
            windows=windows,
            step_consumption=draw(st.sampled_from([0.0, 0.004, 0.01]))))
    grid_points = []
    for g in inst.grid_points:
        mid = event(draw(st.integers(1, steps - 1)))
        kw = g.max_power_kw[0][2]
        power = draw(st.sampled_from([
            g.max_power_kw, ((start, end, math.inf),),
            ((start, mid, kw), (mid, end, kw / 3)),
            ((start, mid, kw), (mid + 450, end, kw))]))    # a gap: 0 kW
        price = ((start, mid, draw(st.sampled_from([0, 1, 0.25]))),
                 (mid, end, draw(st.sampled_from([0.35, 2]))))
        grid_points.append(GridPoint(g.id, power, price))
    plan_keys = [(v.id, d.id) for v in inst.vehicle_types
                 for d in inst.depots]
    mixes = tuple(
        MixConstraint(tuple(keys), tuple(draw(st.lists(
            st.sampled_from([1, 0.5, -1.0, 0.0]), min_size=len(keys),
            max_size=len(keys)))), draw(st.sampled_from([0, 1, 2.5])),
            draw(st.sampled_from([math.inf, 3, 1.5])))
        for keys in draw(st.lists(st.lists(st.sampled_from(plan_keys),
                                           min_size=1, unique=True),
                                  max_size=2)))
    inst = dataclasses.replace(inst, chargers=tuple(chargers),
                               grid_points=tuple(grid_points),
                               mix_constraints=mixes)
    inst.validate()
    try:
        graph = build_graph(inst, theta, GraphOptions(
            egress_lookahead_steps=draw(st.one_of(st.none(),
                                                  st.integers(0, 3)))))
    except GraphError:
        reject()
    domains = build_domains(inst, exact_curves(inst), theta,
                            draw(st.integers(2, 4)),
                            draw(st.sampled_from(["under", "over"])))
    if domains and draw(st.integers(0, 9)) == 0:
        del domains[draw(st.sampled_from(sorted(domains)))]
    override = None
    if draw(st.booleans()):
        override = {g.id: draw(LIMITS) for g in inst.grid_points}
    options = ModelOptions(
        use_strengthening=draw(st.booleans()),
        grid_caps=draw(st.booleans()),
        precondition_lead=draw(st.integers(0, 3)),
        grid_limit_override=override)
    return graph, domains, options


@settings(max_examples=80, deadline=None)
@given(case=assembly_cases())
def test_assembly_matches_dict_row_reference(case):
    graph, domains, options = case
    got = _build_or_error(build_model, graph, domains, options)
    want = _build_or_error(_oracles.build_model, graph, domains, options)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    _assert_same_model(got, want)


# ---------------------------------------------------------------------------
# golden model files
# ---------------------------------------------------------------------------

def _synthetic(trips):
    return generate_synthetic(
        SyntheticParams(trips=trips, chargers=1, slots_per_charger=2,
                        horizon_start_s=6 * 3600, horizon_end_s=17 * 3600),
        seed=1)


def _golden_model(name):
    strengthened = ModelOptions(use_strengthening=True)
    if name == "charger_toy":
        inst, lookahead, m, est, options = (charger_toy(), 24, 4, "under",
                                            ModelOptions())
    elif name.startswith("n3-"):
        est = name[3:]
        inst, lookahead, m, options = (
            generate_worst_case(3, 0.005, 0.02, estimator=est, theta=THETA,
                                segments=2), None, 2, strengthened)
    else:
        inst, lookahead, m, est, options = (
            _synthetic(int(name[5:])), 24, 4, "under", strengthened)
    graph = build_graph(inst, THETA,
                        GraphOptions(egress_lookahead_steps=lookahead))
    domains = build_domains(inst, exact_curves(inst), THETA, m, est)
    return build_model(graph, domains, options)


# sha256 of the emitted LP and MPS files: (plain, relaxed) per format
GOLDEN_SHA256 = {
    "charger_toy": {
        "lp": ("5620863556b87fbb3e16ab50083148ddc751d9b4597105d177381b1a69d7f353",
               "c67077629f4f25834bcc22a95ae31f403eb21cab7cedfec5a25428b43ee28660"),
        "mps": ("96c2b7aa3ad476f540a071c3d9628adf0183a97fa8966158caf53883ebecacba",
                "cf9a51c5accee11c50303be1608956cb962b20df71ef6f55f7c21e0e86d9b193")},
    "n3-under": {
        "lp": ("746c8573153e5347de43e99047018e9846f94539040d7fc3af0f3d08591bffe6",
               "54e05e0e4e538694a075100b5c47c917bd5d028a9f59a29e46b5b845b2b54290"),
        "mps": ("8099a72440a769d8cb8c1f3627d974bc250cc96422a7d9944ba592977de86166",
                "7e919e3746c63a4bd3eca78df61848e4bd57ef6d0cdebd1bd50ea2ccfac4e24b")},
    "n3-over": {
        "lp": ("d2e2b8fcefe7a60d118cf906a6cdaf6be3196826e86a88169ac8054653a09726",
               "84c7b89b1f2b9dc00e861c7114866cde4dcd8a542b7be9af1da28777960f74fd"),
        "mps": ("c9b18dd4318ab295fc57067d4f094650160871a3d4b990072b1f342e1f7f6caf",
                "035122ea5c681d2604f25eaa2c9584693d9b1e03e20ddabe4cda12a5052e36d3")},
    "synth20": {
        "lp": ("981f75b6afc65d2fd5e417aaa5abf193e581b111dfce5b0e5182fbcc0b717d1c",
               "89c0caf67183d0a30f3d7e157086124197f5c31f4e3b8d66c0c2ac2c27a42617"),
        "mps": ("6ceb891f83565abc596522bd79a4a3eb5e21d61a6fa96d356de00902e80b75ce",
                "637858ed53e0864b5f4574e30b6dd277ab784ab4e80ee8a7ce6b5a1af500f5eb")},
    "synth300": {
        "lp": ("fe746662499a7c41b13ea759676001e163ef01a4e06554718aef34bc8acc2b8f",
               "8b6c0aa61e1439137b96cba58e1b787a538730bea3ccd07f049423f5936c183b"),
        "mps": ("833aa9627aa8aee6bcdfea45c8d4bd6151e80c156f215b49c45ddf9102943d64",
                "a690259bc0ce0579a08ff2cda32b2cc5227b92c172c565755a20e0ab84d36009")},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_model_files_are_unchanged(tmp_path, name):
    model = _golden_model(name)
    for fmt, hashes in GOLDEN_SHA256[name].items():
        for relax, want in zip((False, True), hashes):
            path = tmp_path / f"model.{fmt}"
            emit_model(model, fmt, path, relax=relax)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == want, \
                (fmt, relax)


# ---------------------------------------------------------------------------
# per-graph memo of the energy bounds
# ---------------------------------------------------------------------------

def test_energy_bounds_are_computed_once_per_graph(tmp_path, monkeypatch):
    calls = Counter()
    for name in ("compute_energy_bounds", "_topological_order"):
        def spy(graph, _real=getattr(netgraph, name), _name=name):
            calls[_name] += 1
            return _real(graph)
        monkeypatch.setattr(netgraph, name, spy)
    inst = generate_worst_case(3, 0.005, 0.02, estimator="under",
                               theta=THETA, segments=2)
    curves = exact_curves(inst)
    graph = build_graph(inst, THETA)
    domains = build_domains(inst, curves, THETA, 2, "under")
    model = build_model(graph, domains, ModelOptions(use_strengthening=True))
    schedule = decode_solution(model, solve_model(model, tmp_path))
    validate_schedule(inst, schedule, graph, mode="exact", curves=curves)
    validate_schedule(inst, schedule, graph, mode="approx-under",
                      curves=curves, domains=domains)
    assert calls == {"compute_energy_bounds": 1, "_topological_order": 1}
    assert model.energy_bounds is graph.energy_bounds()
    monkeypatch.undo()
    assert graph.energy_bounds() == netgraph.compute_energy_bounds(graph)
    assert graph.topological_order() == netgraph._topological_order(graph)


def test_energy_bounds_are_computed_once_per_graph_in_a_sweep(tmp_path,
                                                              monkeypatch):
    calls = Counter()

    def spy(graph, _real=netgraph._topological_order):
        calls["_topological_order"] += 1
        return _real(graph)

    class CountedBounds(netgraph.EnergyBounds):
        def __init__(self, *args, **kwargs):
            calls["energy_bounds"] += 1
            super().__init__(*args, **kwargs)

    # every computation of the bounds, by any caller, builds one
    monkeypatch.setattr(netgraph, "EnergyBounds", CountedBounds)
    monkeypatch.setattr(netgraph, "_topological_order", spy)
    inst = charger_toy(horizon_s=7200, theta=600, trip_consumption=0.3)
    rows = discretization_sweep(inst, [2, 3], [600.0], time_limit=60,
                                workdir=str(tmp_path))
    assert [r.ref_feasible is not None for r in rows] == [True, True]
    # the reference graph and one graph per cell
    assert calls == {"energy_bounds": 3, "_topological_order": 3}
