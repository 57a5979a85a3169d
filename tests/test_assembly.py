"""Array-native model assembly against the dict-row reference.

``milp.build_model`` builds each constraint family in one pass over arrays;
``_oracles.build_model`` builds one dict per row.  Both must give the same
``ModelArrays`` bit for bit (every -0.0 included) and the same column
arrays.
"""

import dataclasses
import hashlib
import math
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import _oracles
from ebusopt import milp, netgraph
from ebusopt.generators import (GenerationError, SyntheticParams,
                                generate_synthetic, generate_worst_case)
from ebusopt.instance import GridPoint, MixConstraint
from ebusopt.lpformat import (emitted_arrays, read_lp, read_mps, write_lp,
                              write_mps)
from ebusopt.milp import (ModelError, ModelOptions, build_model,
                          decode_solution, emit_model, solve_model)
from ebusopt.netgraph import GraphError, GraphOptions, build_graph
from ebusopt.validate import (build_domains, discretization_sweep,
                              exact_curves, validate_schedule)
from _toys import charger_toy
from test_milp import _assert_same_arrays

THETA = 300.0


def _assert_same_model(got, want):
    _assert_same_arrays(got.arrays(), want.arrays())
    for cols in ("x_col", "y_col", "phi_col"):
        assert np.array_equal(getattr(got, cols), getattr(want, cols)), cols


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
def assembly_cases(draw, dead_time=False):
    """A small generated graph, its domains and model options.  With
    ``dead_time`` there is a charger, every charger has windows, every grid
    point a gap, and no increment domain is missing."""
    start = 6 * 3600
    end = start + 3600 * draw(st.integers(4, 5))
    theta = draw(st.sampled_from([600.0, 900.0, 1200.0]))
    params = SyntheticParams(
        trips=draw(st.integers(2, 5)),
        electric_types=draw(st.integers(1, 2)),
        non_electric_types=draw(st.integers(0, 1)),
        depots=draw(st.integers(1, 2)),
        chargers=draw(st.sampled_from([1, 2] if dead_time
                                      else [0, 1, 1, 2, 2])),
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
        if dead_time or draw(st.booleans()):
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
        gap = ((start, mid, kw), (mid + 450, end, kw))    # a gap: 0 kW
        power = gap if dead_time else draw(st.sampled_from([
            g.max_power_kw, ((start, end, math.inf),),
            ((start, mid, kw), (mid, end, kw / 3)), gap]))
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
    # one draw in ten deletes a domain; hypothesis favours the first entry,
    # which keeps them all
    if domains and not dead_time and draw(st.sampled_from(
            [False] * 9 + [True])):
        del domains[draw(st.sampled_from(sorted(domains)))]
    override = None
    if draw(st.booleans()):
        override = {g.id: draw(LIMITS) for g in inst.grid_points}
    elif draw(st.booleans()):
        override = {g.id: math.inf for g in inst.grid_points}
    options = ModelOptions(
        use_strengthening=draw(st.booleans()),
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


def _assert_read_back_as_emitted(arrays, directory):
    """Each file, plain and relaxed, reads back as ``emitted_arrays``."""
    for fmt, write, read in (("lp", write_lp, read_lp),
                             ("mps", write_mps, read_mps)):
        for emitted in (arrays, arrays.relaxed()):
            path = f"{directory}/model.{fmt}"
            write(emitted, path)
            _assert_same_arrays(read(path), emitted_arrays(emitted, fmt))


@settings(max_examples=25, deadline=None)
@given(case=assembly_cases())
def test_assembly_models_read_back_as_emitted_arrays(case):
    graph, domains, options = case
    try:
        model = build_model(graph, domains, options)
    except ModelError:
        reject()
    with tempfile.TemporaryDirectory() as tmp:
        _assert_read_back_as_emitted(model.arrays(), tmp)


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
        "lp": ("59f204f6342fd8ceb4593b9e9384c85e44da6f7c8b8ebe696b3b6a03301cde66",
               "f8ac1de35cef11ce87dc8c9d5e73ea73cb94987df3b2a9a559d98a6254a916e8"),
        "mps": ("1295aab7642b8b3a68942b577dd4c55568edc352c27baf76c409121cd23f2248",
                "3bed6fc317b41bfc44f2f58d6b5474dc7e129d5f35f838d0edce51a5b356a113")},
    "n3-over": {
        "lp": ("ac976963afbf4a4467b765099530b932997e90b6f46e09c9991dff7cca3ba9b7",
               "bd1457418357107ab1d636bf6d4084aafb465ec5121409d43cae1b452cc92302"),
        "mps": ("56a6929f999d13c963623184129ecb22add4c5e2cb2befb148dc98a53d4ce171",
                "bfd52f93afe08f21c6c3b710c4e2382e66296b8c9694ad34bc167829253fe188")},
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


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_models_read_back_as_emitted_arrays(tmp_path, name):
    _assert_read_back_as_emitted(_golden_model(name).arrays(), tmp_path)


def test_infinite_lower_bounds_read_back_as_emitted_arrays(tmp_path):
    # built models have lb = 0 everywhere; a model read from a file can
    # have columns with lb = -inf
    path = tmp_path / "free.lp"
    path.write_text("Minimize\n obj: 1 x + 1 y\nSubject To\n"
                    " c1: 1 x + 1 y >= 1\nBounds\n x free\n"
                    " -inf <= y <= 4\nEnd\n")
    arrays = read_lp(str(path))
    assert arrays.lb.tolist() == [-math.inf, -math.inf]
    _assert_read_back_as_emitted(arrays, tmp_path)


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
    monkeypatch.undo()
    memo, fresh = graph.energy_bounds(), netgraph.compute_energy_bounds(graph)
    assert np.array_equal(memo.min_exit, fresh.min_exit)
    assert np.array_equal(memo.max_arrival, fresh.max_arrival)
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
    # one graph for the one theta, shared by the reference and both cells
    assert calls == {"energy_bounds": 1, "_topological_order": 1}


# ---------------------------------------------------------------------------
# one array form: building and assembly read columns
# ---------------------------------------------------------------------------

def _record_free_case(name):
    strengthened = ModelOptions(use_strengthening=True)
    if name == "chains-n3":
        inst = generate_worst_case(3, 0.005, 0.02, estimator="under",
                                   theta=THETA, segments=2)
        return inst, None, 2, strengthened
    if name.startswith("synth20"):
        lead = 2 if name.endswith("lead2") else 0
        return (_synthetic(20), 24, 4,
                dataclasses.replace(strengthened, precondition_lead=lead))
    if name == "dead-step":
        return (charger_toy(windows=[(600, 1800)]), None, 3, strengthened)
    inst = charger_toy(mixed_fleet=True)
    mix = MixConstraint((("e0", "D0"), ("f0", "D0")), (1.0, 2.0), 1.0, 3.0)
    return (dataclasses.replace(inst, mix_constraints=(mix,)), None, 3,
            ModelOptions())


@pytest.mark.parametrize("name", ["chains-n3", "synth20", "synth20-lead2",
                                  "dead-step", "mix-row"])
def test_building_and_assembly_create_no_arc_record(monkeypatch, tmp_path,
                                                    name):
    inst, lookahead, m, options = _record_free_case(name)
    domains = build_domains(inst, exact_curves(inst), THETA, m, "under")
    calls = Counter()

    def column_arcs(*args, _real=milp._column_arcs):
        calls["_column_arcs"] += 1
        return _real(*args)

    monkeypatch.setattr(milp, "_column_arcs", column_arcs)
    graph = build_graph(inst, THETA,
                        GraphOptions(egress_lookahead_steps=lookahead))
    graph.energy_bounds()
    model = build_model(graph, domains, options)
    assert (calls["_column_arcs"] > 0) == (name in ("chains-n3", "dead-step"))
    if name in ("chains-n3", "dead-step"):
        # decode and validation run on the same columns
        schedule = decode_solution(model, solve_model(model, tmp_path,
                                                      time_limit=60))
        for mode in ("exact", "approx-under"):
            validate_schedule(inst, schedule, graph, mode, domains=domains)
        assert schedule.courses
