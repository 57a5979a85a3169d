import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ebusopt.chargemodel import (ChargingPowerProfile, IncrementDomainPWL,
                                 build_overestimator, build_underestimator,
                                 linear_reference_domain)
from ebusopt.generators import generate_worst_case
from ebusopt.milp import (ChargeWindow, Course, ModelOptions, Schedule,
                          build_model, decode_solution, solve_model)
from ebusopt.netgraph import GraphOptions, build_graph
from ebusopt.validate import (ValidationError, build_domains,
                              discretization_sweep, exact_curves,
                              grid_load_profile, validate_schedule,
                              write_grid_load_csv, write_sweep_csv,
                              _reference_feasible_at, _sup_gap)
from _oracles import arc_records
from _toys import (charger_toy, charging_required_instance,
                   idle_draw_instance, pass_through_instance,
                   two_trip_instance)


def solve_toy(inst, theta=300.0, m=4, estimator="under", time_limit=90,
              tmp_path="/tmp/ebusopt-test-validate", options=None):
    curves = exact_curves(inst)
    graph = build_graph(inst, theta, GraphOptions(egress_lookahead_steps=24))
    domains = build_domains(inst, curves, theta, m, estimator)
    model = build_model(graph, domains,
                        options or ModelOptions(use_strengthening=True))
    raw = solve_model(model, tmp_path, time_limit=time_limit)
    assert raw.has_incumbent, raw.status
    sched = decode_solution(model, raw)
    return curves, graph, domains, model, raw, sched


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_under_solution_exact_feasible(tmp_path):
    inst = charging_required_instance()
    curves, graph, domains, model, raw, sched = solve_toy(
        inst, tmp_path=str(tmp_path))
    report = validate_schedule(inst, sched, graph, "exact", curves)
    assert report.energy_feasible
    assert report.strongly_feasible == (report.energy_feasible
                                        and report.weakly_feasible)
    # increments coming from an underestimator are exactly realizable
    assert all(c.max_abs_eps <= 1e-6 for c in report.courses)


def test_under_mode_weak_feasibility(tmp_path):
    inst = charging_required_instance()
    curves, graph, domains, model, raw, sched = solve_toy(
        inst, tmp_path=str(tmp_path))
    rep = validate_schedule(inst, sched, graph, "approx-under", curves,
                            domains)
    assert rep.weakly_feasible
    assert rep.strongly_feasible  # weak + under implies strong


def test_inadmissible_claimed_step_fails_only_the_approx_verdicts(tmp_path):
    # one phi above what its domain admits at any soc, so above the bound at
    # the claimed soc it is taken from; admissibility is no part of the
    # exact verdict
    inst = charging_required_instance()
    curves, graph, domains, model, raw, sched = solve_toy(
        inst, tmp_path=str(tmp_path))
    win = next(w for c in sched.courses for w in c.windows)
    dom = domains[(win.charger, "e0")]
    win.phis[0] = float(dom.value(np.linspace(0.0, 1.0, 101)).max()) + 0.01
    rep = validate_schedule(inst, sched, graph, "approx-under", curves,
                            domains)
    # both ledgers stay above their floors: only admissibility fails
    assert all(c.first_violation is None for c in rep.courses)
    assert not rep.weakly_feasible
    assert not rep.strongly_feasible
    assert rep.energy_feasible


def test_verdict_algebra_always_holds(tmp_path):
    inst = charger_toy()
    curves, graph, domains, model, raw, sched = solve_toy(
        inst, tmp_path=str(tmp_path))
    for mode, doms in (("exact", None), ("approx-under", domains)):
        rep = validate_schedule(inst, sched, graph, mode, curves, doms)
        for c in rep.courses:
            assert c.strongly_feasible == (c.energy_feasible
                                           and c.weakly_feasible)


def test_approx_mode_requires_domains(tmp_path):
    inst = charger_toy()
    curves, graph, domains, model, raw, sched = solve_toy(
        inst, tmp_path=str(tmp_path))
    with pytest.raises(ValidationError):
        validate_schedule(inst, sched, graph, "approx-under", curves, None)


def test_hand_built_draining_course_flagged(tmp_path):
    # force an overclaimed charge: copy a valid schedule and inflate phi
    inst = charging_required_instance()
    curves, graph, domains, model, raw, sched = solve_toy(
        inst, tmp_path=str(tmp_path))
    course = next(c for c in sched.courses if c.windows)
    for win in course.windows:
        win.phis = [p * 3.0 + 0.05 for p in win.phis]
    rep = validate_schedule(inst, sched, graph, "exact", curves)
    # claimed ledger passes, exact ledger (capped increments) need not;
    # at minimum the overclaim shows up as positive eps
    bad = next(c for c in rep.courses if c.course_index == course_index(sched,
                                                                        course))
    assert bad.max_abs_eps > 1e-4


def course_index(sched, course):
    return sched.courses.index(course)


def test_first_violation_reported(tmp_path):
    inst = two_trip_instance()
    curves = exact_curves(inst)
    graph = build_graph(inst, 300.0)
    model = build_model(graph, {}, ModelOptions())
    raw = solve_model(model, str(tmp_path), time_limit=60)
    sched = decode_solution(model, raw)
    # the same schedule on a copy whose second trip drains the battery;
    # consumption decides no arc, so the copy's graph has the same arcs
    t1, t2 = inst.trips
    heavy = dataclasses.replace(inst, trips=(
        t1, dataclasses.replace(t2, consumption={"e0": 0.7})))
    heavy_graph = build_graph(heavy, 300.0)
    assert ([(a.tail, a.head, a.kind) for a in arc_records(heavy_graph)]
            == [(a.tail, a.head, a.kind) for a in arc_records(graph)])
    rep = validate_schedule(heavy, sched, heavy_graph, "exact", curves)
    assert not rep.energy_feasible
    bad = rep.courses[0]
    assert bad.first_violation is not None
    j, role, soc, floor = bad.first_violation
    assert soc < floor


@pytest.mark.parametrize("idle", [0.004, 0.01])
def test_idle_draw_underestimator_schedule_is_weakly_feasible(tmp_path, idle):
    # the model steps y + phi - idle; admissibility is judged at those socs
    inst = idle_draw_instance(idle)
    curves, graph, domains, model, raw, sched = solve_toy(
        inst, tmp_path=str(tmp_path))
    assert raw.status == "optimal" and sched.fleet_size == 1
    rep = validate_schedule(inst, sched, graph, "approx-under", curves,
                            domains)
    assert rep.weakly_feasible and rep.strongly_feasible
    # both ledgers draw the idle soc in every occupied step
    trace = rep.courses[0].trace
    j = trace.roles.index("charge-departure")
    claimed = trace.soc_approx[j - 1]
    for phi in sched.courses[0].windows[0].phis:
        claimed = claimed + phi - idle
    assert trace.soc_approx[j] == min(claimed, 1.0)
    assert trace.soc_exact[j] == pytest.approx(claimed, abs=1e-6)


# ---------------------------------------------------------------------------
# grid load
# ---------------------------------------------------------------------------

def test_grid_series_zero_without_charging(tmp_path):
    inst = two_trip_instance()
    curves = exact_curves(inst)
    graph = build_graph(inst, 300.0)
    model = build_model(graph, {}, ModelOptions())
    raw = solve_model(model, str(tmp_path), time_limit=60)
    sched = decode_solution(model, raw)
    load = grid_load_profile(inst, sched)
    assert load == {}


def test_grid_series_single_bus_rated_step(tmp_path):
    inst = charging_required_instance()
    curves, graph, domains, model, raw, sched = solve_toy(
        inst, tmp_path=str(tmp_path))
    load = grid_load_profile(inst, sched)["G0"]
    omega = 100.0 * 3600.0 / 300.0  # battery_kwh * 3600 / theta
    course = next(c for c in sched.courses if c.windows)
    expected = np.zeros_like(load)
    for win in course.windows:
        for step, phi in zip(win.steps, win.phis):
            expected[step - 1] += omega * phi
    assert np.allclose(load, expected, atol=1e-9)
    beta1 = domains[("C0", "e0")].offsets[0]
    assert load.max() <= omega * beta1 + 1e-6


def test_grid_series_equals_model_lhs(tmp_path):
    inst = charging_required_instance()
    curves, graph, domains, model, raw, sched = solve_toy(
        inst, tmp_path=str(tmp_path))
    load = grid_load_profile(inst, sched)["G0"]
    # recompute every grid row's LHS from the raw phi values
    for row in model.rows:
        if row.tag != "grid":
            continue
        lhs = sum(coef * raw.value(model.variables[idx].name)
                  for idx, coef in row.coeffs.items())
        # identify the step via the phi variables in the row
        steps = set()
        for idx in row.coeffs:
            name = model.variables[idx].name
            arc_idx = int(name.split("[")[1].split("]")[0])
            steps.add(int(graph.step[arc_idx]))
        assert len(steps) == 1
        step = steps.pop()
        assert lhs == pytest.approx(load[step - 1], abs=1e-6)


def test_grid_additivity_two_overlapping_courses():
    # two synthetic courses charging on the same grid point add elementwise
    inst = charging_required_instance()
    win_a = ChargeWindow(slot="C0#0", charger="C0", grid_point="G0",
                         steps=[3, 4], phis=[0.05, 0.04])
    win_b = ChargeWindow(slot="C0#0", charger="C0", grid_point="G0",
                         steps=[4, 5], phis=[0.03, 0.02])
    def course(win):
        return Course(plan="e0.D0", vehicle_type="e0", depot="D0",
                      arc_indices=[], trips=[], windows=[win], cost=0.0)
    sched_a = Schedule([course(win_a)], 300.0, 0.0, None, None, "optimal")
    sched_b = Schedule([course(win_b)], 300.0, 0.0, None, None, "optimal")
    sched_ab = Schedule([course(win_a), course(win_b)], 300.0, 0.0, None,
                        None, "optimal")
    la = grid_load_profile(inst, sched_a)["G0"]
    lb = grid_load_profile(inst, sched_b)["G0"]
    lab = grid_load_profile(inst, sched_ab)["G0"]
    assert np.allclose(lab, la + lb)


def test_grid_load_csv(tmp_path):
    inst = charging_required_instance()
    curves, graph, domains, model, raw, sched = solve_toy(
        inst, tmp_path=str(tmp_path))
    load = grid_load_profile(inst, sched)
    path = tmp_path / "load.csv"
    write_grid_load_csv(load, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "grid_point,step,load"
    assert len(lines) == 1 + len(load["G0"])


# ---------------------------------------------------------------------------
# discretization sweep
# ---------------------------------------------------------------------------

def test_sweep_row_grid(tmp_path):
    inst = charger_toy(horizon_s=7200, theta=600, trip_consumption=0.3)
    rows = discretization_sweep(inst, [2, 3], [600.0, 300.0],
                                time_limit=60, workdir=str(tmp_path),
                                check_reference=True)
    assert len(rows) == 4
    by_key = {(r.m, r.theta): r for r in rows}
    assert set(by_key) == {(2, 600.0), (2, 300.0), (3, 600.0), (3, 300.0)}
    solved = [r for r in rows if r.objective is not None]
    assert solved, [r.error for r in rows]
    for r in solved:
        assert r.gap is not None and r.gap >= -1e-9
        assert r.ref_feasible in (True, False)
    # domain nesting: more segments enlarge the dominated feasible region,
    # so at equal theta the coarser optimum cannot be lower
    for theta in (600.0, 300.0):
        m2 = by_key[(2, theta)]
        m3 = by_key[(3, theta)]
        if (m2.status == "optimal" and m3.status == "optimal"
                and m2.objective is not None and m3.objective is not None):
            assert m2.objective >= m3.objective - 1e-9
    write_sweep_csv(rows, tmp_path / "sweep.csv")
    text = (tmp_path / "sweep.csv").read_text()
    assert text.splitlines()[0].startswith("m,theta,fs")


@pytest.mark.parametrize("strengthen", [None, False])
def test_sweep_models_are_strengthened_by_default(tmp_path, monkeypatch,
                                                  strengthen):
    import ebusopt.validate as validate
    built = []

    def spy(graph, domains, options):
        model = build_model(graph, domains, options)
        built.append(bool({"strengthlo", "strengthhi"}
                          & set(model.arrays().tags)))
        return model

    monkeypatch.setattr(validate, "build_model", spy)
    inst = charger_toy(horizon_s=7200, theta=600, trip_consumption=0.3)
    kwargs = {} if strengthen is None else {"strengthen": strengthen}
    rows = discretization_sweep(inst, [2], [600.0], time_limit=60,
                                workdir=str(tmp_path), **kwargs)
    assert rows[0].ref_feasible is not None      # the reference was solved
    assert built == [strengthen is None] * 2     # reference, then the cell


def test_sweep_builds_one_graph_per_theta(tmp_path, monkeypatch):
    import ebusopt.validate as validate
    built = []

    def spy(instance, theta, *args):
        built.append(theta)
        return build_graph(instance, theta, *args)

    monkeypatch.setattr(validate, "build_graph", spy)
    inst = charger_toy(horizon_s=7200, theta=600, trip_consumption=0.3)
    rows = discretization_sweep(inst, [2, 3], [600.0, 300.0], time_limit=60,
                                workdir=str(tmp_path))
    # the reference solves on the 300 s cells' graph
    assert sorted(built) == [300.0, 600.0]
    assert [r.error for r in rows] == [None] * 4
    assert all(r.ref_feasible is not None for r in rows)


def test_sweep_survives_cell_errors(tmp_path):
    inst = charger_toy(horizon_s=7200)
    # 777 does not divide the horizon: that cell must fail, not raise
    rows = discretization_sweep(inst, [2], [777.0, 600.0], time_limit=30,
                                workdir=str(tmp_path), check_reference=False)
    errs = [r for r in rows if r.error]
    oks = [r for r in rows if not r.error]
    assert len(errs) == 1 and len(oks) == 1


# ---------------------------------------------------------------------------
# the fs? column on hand-built reference courses
# ---------------------------------------------------------------------------

def reference_along(graph, nodes, steps):
    """A one-course reference schedule over the given node path; the window
    occupies ``steps`` (its phis do not matter to the re-charge)."""
    ends = {(a.tail, a.head): a.index for a in arc_records(graph)}
    win = ChargeWindow(slot="C0#0", charger="C0", grid_point="G0",
                       steps=list(steps),
                       phis=[0.0] * len(steps))
    course = Course(plan="e0.D0", vehicle_type="e0", depot="D0",
                    arc_indices=[ends[u, v] for u, v in zip(nodes, nodes[1:])],
                    trips=["t1", "t2"], windows=[win], cost=0.0)
    return graph, Schedule([course], 300.0, 0.0, None, None, "optimal")


def walk(y, legs):
    """Soc along written-out legs; False at the first one below its floor.

    A leg is ("move", consumption, floor) or ("charge", domain, k, idle):
    k greedy steps y <- y + step(y) - idle from max(y, 0).
    """
    for leg in legs:
        if leg[0] == "move":
            y -= leg[1]
            if y < leg[2] - 1e-6:
                return False
        else:
            _, dom, k, idle = leg
            y = max(y, 0.0)
            for _ in range(k):
                y = y + float(dom.greedy_step(y)) - idle
            if y < -1e-6:
                return False
    return True


CELLS = [(2, 300.0), (2, 600.0), (4, 300.0), (4, 600.0)]


def test_reference_check_applies_idle_draw_per_step():
    inst = idle_draw_instance(0.02)
    curves = exact_curves(inst)
    graph = build_graph(inst, 300.0)
    floor = graph.energy_bounds().min_exit[:, graph.plan_code["e0.D0"]]
    t1, t2 = (floor[graph.node_code[n]] for n in ("trip:t1", "trip:t2"))
    events = [f"C0#0@{i}" for i in range(9, 17)]     # charge steps 10..16
    reference = reference_along(
        graph, ["src:D0", "trip:t1"] + events + ["trip:t2", "snk:D0"],
        range(10, 17))
    # the window spans 2700-4800 s: 7 steps of 300 s, 3 of 600 s
    k = {300.0: 7, 600.0: 3}
    got = {}
    for m, theta in CELLS:
        dom = build_domains(inst, curves, theta, m, "under")[("C0", "e0")]
        want = walk(1.0, [("move", 0.3, 0.6 + t1), ("move", 0.6, t1),
                          ("move", 0.02, 0.0), ("charge", dom, k[theta], 0.02),
                          ("move", 0.02, 0.55 + t2), ("move", 0.55, t2),
                          ("move", 0.3, 0.0)])
        doms = {("C0", "e0"): dom}
        got[m, theta] = _reference_feasible_at(reference, inst, doms, theta)
        assert got[m, theta] is want
    # without the idle draw the m=2, 300 s cell would pass
    assert got == {(2, 300.0): False, (2, 600.0): False, (4, 300.0): True,
                   (4, 600.0): True}


def test_reference_check_charges_at_the_visit_that_charges():
    inst = pass_through_instance()
    curves = exact_curves(inst)
    graph = build_graph(inst, 300.0)
    floor = graph.energy_bounds().min_exit[:, graph.plan_code["e0.D0"]]
    t1, t2 = (floor[graph.node_code[n]] for n in ("trip:t1", "trip:t2"))
    # pulled out onto event 1 and off again at once, then charge steps 8..11
    reference = reference_along(
        graph, ["src:D0", "C0#0@1", "trip:t1"]
        + [f"C0#0@{i}" for i in range(7, 12)] + ["trip:t2", "snk:D0"],
        range(8, 12))
    k = {300.0: 4, 600.0: 1}   # the window spans 2100-3300 s
    for m, theta in CELLS:
        dom = build_domains(inst, curves, theta, m, "under")[("C0", "e0")]
        want = walk(1.0, [("move", 0.02, 0.0), ("move", 0.01, 0.6 + t1),
                          ("move", 0.6, t1), ("move", 0.01, 0.0),
                          ("charge", dom, k[theta], 0.0),
                          ("move", 0.01, 0.6 + t2), ("move", 0.6, t2),
                          ("move", 0.02, 0.0)])
        assert want is True     # taking the window at the first visit fails
        assert _reference_feasible_at(reference, inst, {("C0", "e0"): dom},
                                      theta) is want


# ---------------------------------------------------------------------------
# vectorized greedy sweep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("estimator", ["under", "over"])
def test_greedy_sweep_bit_identical_to_scalar_loop(estimator):
    theta = 300.0
    inst = generate_worst_case(3, 0.005, 0.02, estimator, theta=theta)
    curves = exact_curves(inst)
    domains = build_domains(inst, curves, theta, 2, estimator)
    curve = next(iter(curves.values()))
    ys = np.linspace(0.0, curve.soc_cap, 1001)

    def scalar_final_soc(dom, y, k):
        y = float(y)
        for _ in range(k):
            y += float(dom.greedy_step(y))
        return y

    for dom in domains.values():
        specs = []
        for k in (1, 2, 5, 9):
            scalar = np.array([scalar_final_soc(dom, y, k) for y in ys])
            assert dom.greedy_final_soc(float(ys[500]), k) == scalar[500]
            assert dom.greedy_final_soc(ys, k).tobytes() == scalar.tobytes()
            specs.append((curve, dom, SimpleNamespace(phis=[0.0] * k), 0.0))
            reference = float(np.max(np.abs(
                np.asarray(curve.increment(ys, k * theta)) - (scalar - ys))))
            assert _sup_gap(specs[-1:], theta) == reference
        assert _sup_gap(specs, theta) == max(
            _sup_gap([spec], theta) for spec in specs)


# ---------------------------------------------------------------------------
# one domain per profile, one gap grid per (curve, domain, window length)
# ---------------------------------------------------------------------------

FRESH = {"under": build_underestimator, "over": build_overestimator,
         "linear": lambda curve, theta, m: linear_reference_domain(curve,
                                                                   theta)}


def _same_domain(a, b):
    return (all(np.array_equal(getattr(a, f), getattr(b, f))
                for f in ("slopes", "offsets", "breakpoints"))
            and (a.theta, a.kind, a.soc_cap) == (b.theta, b.kind, b.soc_cap)
            and np.array_equal(a.error_bound, b.error_bound, equal_nan=True))


@pytest.mark.parametrize("estimator", ["under", "over", "linear"])
def test_chargers_that_share_a_profile_share_one_domain(estimator):
    theta = 300.0
    inst = generate_worst_case(4, 0.005, 0.02, theta=theta, segments=2)
    # one more profile, on the last charger only
    last = inst.chargers[-1]
    other = ChargingPowerProfile(cc_rate=0.4 / 600.0, cv_break=0.7,
                                 name="other")
    inst = dataclasses.replace(
        inst, profiles={**inst.profiles, "other": other},
        chargers=inst.chargers[:-1] + (dataclasses.replace(
            last, profiles={vt: "other" for vt in last.profiles}),))
    curves = exact_curves(inst)
    domains = build_domains(inst, curves, theta, 2, estimator)
    by_profile = {}
    for c in inst.chargers:
        for vt, pname in c.profiles.items():
            dom = domains[(c.id, vt)]
            assert by_profile.setdefault(pname, dom) is dom
            assert _same_domain(dom, FRESH[estimator](curves[pname], theta, 2))
    assert len(inst.chargers) >= 3
    assert len({id(d) for d in domains.values()}) == 2


def test_one_gap_grid_per_window_length_in_a_validation(tmp_path,
                                                        monkeypatch):
    theta = 300.0
    inst = generate_worst_case(5, 0.005, 0.02, estimator="over", theta=theta,
                               segments=2)
    curves = exact_curves(inst)
    graph = build_graph(inst, theta)
    shared = build_domains(inst, curves, theta, 2, "over")
    model = build_model(graph, shared, ModelOptions(use_strengthening=True))
    sched = decode_solution(model, solve_model(model, tmp_path))
    # the same course twice: the gap grid is shared across courses too
    sched = dataclasses.replace(sched, courses=sched.courses * 2)
    # a domain per charger, equal to the shared one but not the same object
    apart = {key: build_overestimator(curves[inst.charger(key[0])
                                             .profiles[key[1]]], theta, 2)
             for key in shared}
    grids = []
    real = IncrementDomainPWL.greedy_final_soc

    def spy(dom, y0, n_steps):
        if np.size(y0) == 1001:
            grids.append(id(dom))
        return real(dom, y0, n_steps)

    monkeypatch.setattr(IncrementDomainPWL, "greedy_final_soc", spy)
    want = validate_schedule(inst, sched, graph, "approx-over", curves, apart)
    assert len(grids) == 4      # one per charger the course visits
    grids.clear()
    got = validate_schedule(inst, sched, graph, "approx-over", curves, shared)
    assert len(grids) == 1
    bounds = [c.eps_bound for c in got.courses]
    assert bounds == [c.eps_bound for c in want.courses]
    assert bounds[0] is not None and bounds[0] > 0.0
    assert got.to_dict() == want.to_dict()
