import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from ebusopt import refsolver, solverbridge
from ebusopt.generators import generate_worst_case
from ebusopt.instance import GridPoint, InstanceError
from ebusopt.lpformat import (SENSES, LpFormatError, ModelArrays,
                              RawSolution, emitted_arrays,
                              parse_solution_file, parse_solution_text,
                              read_lp, read_mps, write_lp, write_mps,
                              write_solution_text)
from ebusopt.milp import (DecodeError, MilpModel, ModelError, ModelOptions,
                          _event_times, _min_power_steps, _step_prices,
                          build_model, decode_solution, emit_model,
                          solve_model)
from ebusopt.netgraph import RECHARGE, GraphOptions, build_graph
from ebusopt.refsolver import load_model, solve_arrays, solve_parsed
from ebusopt.solverbridge import (DEFAULT_SOLVER_CMD, SOLVER_ENV_VAR,
                                  SolverError, solve_external)
from ebusopt.validate import build_domains, exact_curves
from _toys import charger_toy, charging_required_instance, two_trip_instance


def toy_setup(inst, theta=300.0, m=4, options=None, estimator="under"):
    curves = exact_curves(inst)
    graph = build_graph(inst, theta, GraphOptions(egress_lookahead_steps=24))
    domains = build_domains(inst, curves, theta, m, estimator)
    model = build_model(graph, domains, options or ModelOptions())
    return curves, graph, domains, model


# ---------------------------------------------------------------------------
# constraint structure
# ---------------------------------------------------------------------------

def test_cover_rows_one_per_trip():
    inst = charger_toy()
    _, _, _, model = toy_setup(inst)
    assert model.rows_by_tag()["cover"] == len(inst.trips)


def test_grid_rows_h_when_enabled_zero_when_disabled():
    inst = charger_toy(horizon_s=3600, theta=300)
    _, graph, _, model = toy_setup(inst)
    assert model.rows_by_tag()["grid"] == graph.horizon_steps
    uncapped = {gp.id: math.inf for gp in inst.grid_points}
    _, _, _, off = toy_setup(
        inst, options=ModelOptions(grid_limit_override=uncapped))
    assert "grid" not in off.rows_by_tag()


def test_domain_rows_per_recharge_arc():
    inst = charger_toy(horizon_s=3600, theta=300)
    _, graph, domains, model = toy_setup(inst, m=4)
    dom = domains[("C0", "e0")]
    n_recharge = np.count_nonzero(graph.kind == RECHARGE)
    tags = model.rows_by_tag()
    assert tags["inccoupling"] == n_recharge
    assert tags["incdomain"] == n_recharge * (dom.segment_count - 1)


def test_missing_domain_is_build_error():
    inst = charger_toy()
    curves = exact_curves(inst)
    graph = build_graph(inst, 300.0)
    with pytest.raises(ModelError, match="C0"):
        build_model(graph, {}, ModelOptions())


def test_constraint_counts_random_instance():
    from ebusopt.generators import SyntheticParams, generate_synthetic
    inst = generate_synthetic(SyntheticParams(trips=6, chargers=2), seed=9)
    curves = exact_curves(inst)
    graph = build_graph(inst, 600.0, GraphOptions(egress_lookahead_steps=6))
    domains = build_domains(inst, curves, 600.0, 3, "under")
    model = build_model(graph, domains, ModelOptions())
    tags = model.rows_by_tag()
    assert tags["cover"] == len(inst.trips)
    h = graph.horizon_steps
    assert tags["grid"] == len(inst.grid_points) * h
    expected_domain = 0
    for a in _oracles.arc_records(graph):
        if a.kind != "recharge":
            continue
        for pid in a.plans:
            dom = domains[(a.charger, pid.split(".", 1)[0])]
            expected_domain += dom.segment_count - 1
    assert tags["incdomain"] == expected_domain


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_emission_is_byte_deterministic(tmp_path):
    inst = charger_toy()
    _, _, _, model = toy_setup(inst)
    p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
    emit_model(model, "lp", p1)
    emit_model(model, "lp", p2)
    assert p1.read_bytes() == p2.read_bytes()
    m1, m2 = tmp_path / "a.mps", tmp_path / "b.mps"
    emit_model(model, "mps", m1)
    emit_model(model, "mps", m2)
    assert m1.read_bytes() == m2.read_bytes()


def test_lp_mps_roundtrip_same_polyhedron(tmp_path):
    inst = charger_toy()
    _, _, _, model = toy_setup(inst)
    lp_path, mps_path = tmp_path / "m.lp", tmp_path / "m.mps"
    emit_model(model, "lp", lp_path)
    emit_model(model, "mps", mps_path)
    a, b = read_lp(str(lp_path)), read_mps(str(mps_path))
    assert set(a.variables) == set(b.variables)
    integers = {n for n, i in zip(a.names, a.integer) if i}
    assert integers == {n for n, i in zip(b.names, b.integer) if i}
    assert len(a.rows) == len(b.rows)
    assert a.objective == b.objective
    for (r, coeffs, sense, rhs), (_, cb, sb, rb) in zip(a.rows, b.rows):
        assert sense == sb and rhs == pytest.approx(rb, abs=1e-12), r
        assert coeffs == pytest.approx(cb)


def test_lp_vs_mps_solved_externally_equal(tmp_path):
    inst = charger_toy()
    _, _, _, model = toy_setup(inst)
    lp_path, mps_path = tmp_path / "m.lp", tmp_path / "m.mps"
    emit_model(model, "lp", lp_path)
    emit_model(model, "mps", mps_path)
    sol_lp = solve_external(lp_path, time_limit=60)
    sol_mps = solve_external(mps_path, time_limit=60)
    assert sol_lp.status == "optimal" and sol_mps.status == "optimal"
    assert sol_lp.objective == pytest.approx(sol_mps.objective, abs=1e-6)


def _bare_model() -> MilpModel:
    return MilpModel(graph=None, domains={}, options=ModelOptions())


def test_variable_count_in_lp(tmp_path):
    tiny = _bare_model()
    tiny.add_vars(["a"], obj=1.0, binary=True)
    tiny.add_vars(["b"], obj=2.0)
    tiny.add_vars(["c"], ub=5.0)
    path = tmp_path / "tiny.lp"
    write_lp(tiny.arrays(), path)
    parsed = read_lp(str(path))
    assert sorted(parsed.variables) == ["a", "b", "c"]
    assert parsed.integer.tolist() == [True, False, False]
    assert parsed.ub[parsed.names.index("c")] == 5.0


def test_relaxed_emission_drops_integrality(tmp_path):
    inst = charger_toy()
    _, _, _, model = toy_setup(inst)
    path = tmp_path / "relax.lp"
    emit_model(model, "lp", path, relax=True)
    parsed = read_lp(str(path))
    assert not parsed.integer.any()
    x_vars = [j for j, v in enumerate(parsed.variables) if v.startswith("x[")]
    assert x_vars and all(parsed.ub[x_vars] == 1.0)


# ---------------------------------------------------------------------------
# reference solver + bridge
# ---------------------------------------------------------------------------

def test_refsolver_solves_hand_lp(tmp_path):
    path = tmp_path / "hand.lp"
    path.write_text(
        "Minimize\n obj: 1 a + 2 b\n"
        "Subject To\n c1: 1 a + 1 b >= 1\n"
        "Bounds\nBinaries\n a b\nEnd\n")
    model = load_model(str(path))
    status, values, obj, bound = solve_parsed(model)
    assert status == "optimal"
    assert obj == pytest.approx(1.0)
    assert values["a"] == pytest.approx(1.0)


def test_refsolver_relax_drops_integrality(tmp_path):
    path = tmp_path / "half.lp"
    path.write_text("Minimize\n obj: 1 a + 1 b\n"
                    "Subject To\n c1: 2 a + 2 b >= 1\n"
                    "Binaries\n a b\nEnd\n")
    model = load_model(str(path))
    assert solve_parsed(model)[2] == pytest.approx(1.0)
    assert solve_parsed(model, relax=True)[2] == pytest.approx(0.5)
    assert model.integer.tolist() == [True, True]      # left as read


def test_refsolver_cli_roundtrip(tmp_path):
    path = tmp_path / "hand.lp"
    path.write_text(
        "Minimize\n obj: 1 a + 2 b\n"
        "Subject To\n c1: 1 a + 1 b >= 1\n"
        "Binaries\n a b\nEnd\n")
    sol = tmp_path / "hand.sol"
    proc = subprocess.run([sys.executable, "-m", "ebusopt.refsolver",
                           str(path), str(sol)], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    parsed = parse_solution_file(sol)
    assert parsed.status == "optimal"
    assert parsed.objective == pytest.approx(1.0)


def test_infeasible_toy_reports_infeasible(tmp_path):
    path = tmp_path / "inf.lp"
    path.write_text(
        "Minimize\n obj: 1 a\n"
        "Subject To\n c1: 1 a >= 2\n c2: 1 a <= 1\n"
        "End\n")
    sol = solve_external(path, time_limit=30)
    assert sol.status == "infeasible"
    assert not sol.has_incumbent


def test_time_limit_zero_no_incumbent(tmp_path):
    inst = charger_toy()
    _, _, _, model = toy_setup(inst)
    raw = solve_model(model, tmp_path, time_limit=0)
    assert raw.status == "time-limit"
    assert not raw.has_incumbent


def test_missing_solver_binary(tmp_path):
    inst = charger_toy()
    _, _, _, model = toy_setup(inst)
    with pytest.raises(SolverError):
        solve_model(model, tmp_path,
                    command_template="/nonexistent/solver {model} {solution}")


def test_bridge_timeout_returns_incumbent(tmp_path, monkeypatch):
    # the solver writes an incumbent, prints, then hangs until it is killed
    monkeypatch.setattr(solverbridge, "_TIMEOUT_GRACE_S", 1.0)
    script = ("import sys, time; "
              "open(sys.argv[1], 'w').write('# status feasible\\nx 1.5\\n'); "
              "print('incumbent written', flush=True); time.sleep(60)")
    model_path = tmp_path / "m.lp"
    model_path.write_text(HAND_LP)
    raw = solve_external(model_path, time_limit=0.5,
                         command_template="{python} -c " + shlex.quote(script)
                         + " {solution}")
    assert raw.status == "time-limit"
    assert raw.values == {"x": 1.5}
    assert "incumbent written" in raw.solver_output


# ---------------------------------------------------------------------------
# in-process HiGHS: same problem, same answer as the bridge
# ---------------------------------------------------------------------------

def _identity_models():
    wc = generate_worst_case(3, 0.005, 0.02, estimator="under")
    return [toy_setup(charger_toy())[3],
            toy_setup(wc, m=2, options=ModelOptions(use_strengthening=True))[3]]


def _assert_same_arrays(a, b):
    """Every field of two ``ModelArrays`` is the same, array dtypes and
    float bits included."""
    for f in dataclasses.fields(ModelArrays):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(y, np.ndarray):
            assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("relax", [False, True])
def test_in_process_arrays_equal_lp_file_arrays(tmp_path, relax):
    for k, model in enumerate(_identity_models()):
        path = tmp_path / f"m{k}.lp"
        emit_model(model, "lp", path, relax=relax)
        from_file = read_lp(str(path))
        _assert_same_arrays(_oracles.parsed_arrays(
            _oracles.parsed_model(model, "lp", relax)), from_file)
        arrays = model.arrays()
        in_memory = emitted_arrays(arrays.relaxed() if relax else arrays, "lp")
        _assert_same_arrays(in_memory, from_file)
        assert bool(in_memory.integer.any()) == (not relax)


def test_in_process_arrays_equal_mps_file_arrays(tmp_path):
    model = _identity_models()[1]
    arrays = model.arrays()
    for relax in (False, True):
        path = tmp_path / "m.mps"
        emit_model(model, "mps", path, relax=relax)
        _assert_same_arrays(
            emitted_arrays(arrays.relaxed() if relax else arrays, "mps"),
            read_mps(str(path)))


def test_in_process_model_leaves_out_unused_variables(tmp_path):
    tiny = _bare_model()
    tiny.add_vars(["a"], obj=1.0, binary=True)
    tiny.add_vars(["b"])
    tiny.add_vars(["c"], ub=5.0)
    tiny.add_vars(["d"], lb=2.0)
    path = tmp_path / "tiny.lp"
    emit_model(tiny, "lp", path)
    parsed = _oracles.parsed_model(tiny, "lp")
    assert parsed.variables == ["a", "c", "d"]
    arrays = emitted_arrays(tiny.arrays(), "lp")
    _assert_same_arrays(arrays, _oracles.parsed_arrays(parsed))
    _assert_same_arrays(arrays, read_lp(str(path)))
    assert arrays.names == ["a", "c", "d"]


def _reference_models():
    models = [("toy", toy_setup(charger_toy())[3])]
    for est in ("under", "over"):
        wc = generate_worst_case(3, 0.005, 0.02, estimator=est)
        models.append((f"n3-{est}", toy_setup(
            wc, m=2, estimator=est,
            options=ModelOptions(use_strengthening=True))[3]))
    return models


@pytest.mark.parametrize("relax", [False, True])
def test_writers_match_dict_row_reference(tmp_path, relax):
    writers = {"lp": (write_lp, _oracles.write_lp),
               "mps": (write_mps, _oracles.write_mps)}
    for label, model in _reference_models():
        arrays = model.arrays().relaxed() if relax else model.arrays()
        for fmt, (ours, reference) in writers.items():
            got, want = tmp_path / f"{label}.{fmt}", tmp_path / f"ref.{fmt}"
            ours(arrays, got)
            reference(model, want, relax=relax)
            assert got.read_bytes() == want.read_bytes(), (label, fmt)
            _assert_same_arrays(
                emitted_arrays(arrays, fmt),
                _oracles.parsed_arrays(_oracles.parsed_model(model, fmt,
                                                             relax)))


def test_record_views_match_storage():
    model = toy_setup(charger_toy())[3]
    rows = model.rows
    assert len(rows) == sum(model.rows_by_tag().values())
    assert rows[-1] == rows[len(rows) - 1]
    with pytest.raises(IndexError):
        rows[len(rows)]
    assert [r.name for r in rows][:2] == ["flow0000000", "flow0000001"]
    assert sum(len(r.coeffs) for r in rows) == len(model.arrays().cols)
    assert [v.name for v in model.variables] == model.names


# ---------------------------------------------------------------------------
# writer -> reader round trip over random models
# ---------------------------------------------------------------------------

SPECIAL = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.1 + 0.2, 1e15, -1e15,
                           5e-324, -2.2250738585072014e-308 / 3])
COEFS = st.one_of(
    SPECIAL, st.integers(10**15, 2**62).map(float),
    st.integers(-2**62, -10**15).map(float),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def random_models(draw):
    model = _bare_model()
    n = draw(st.integers(1, 8))
    for j in range(n):
        kind = draw(st.sampled_from(["binary", "free", "floor", "bounded"]))
        obj = draw(st.one_of(SPECIAL, COEFS))
        if kind == "binary":
            model.add_vars([f"b{j}"], binary=True, obj=obj)
        elif kind == "free":
            model.add_vars([f"u{j}"], obj=obj)
        elif kind == "floor":
            model.add_vars([f"f{j}"], lb=draw(st.one_of(SPECIAL, COEFS)),
                           obj=obj)
        else:
            model.add_vars([f"c{j}"], lb=draw(st.one_of(SPECIAL, COEFS)),
                           ub=draw(COEFS), obj=obj)
    for _ in range(draw(st.integers(0, 6))):
        cols = draw(st.lists(st.integers(0, n - 1), unique=True))
        model.add_row({j: draw(COEFS) for j in cols}, draw(st.sampled_from(SENSES)),
                      draw(COEFS), draw(st.sampled_from(["r", "grid"])))
    return model


@settings(max_examples=40, deadline=None)
@given(model=random_models())
def test_writer_reader_round_trip_is_exact(model):
    arrays = model.arrays()
    with tempfile.TemporaryDirectory() as tmp:
        for fmt, write, read in (("lp", write_lp, read_lp),
                                 ("mps", write_mps, read_mps)):
            for emitted in (arrays, arrays.relaxed()):
                path = os.path.join(tmp, f"m.{fmt}")
                write(emitted, path)
                _assert_same_arrays(emitted_arrays(emitted, fmt), read(path))


@pytest.mark.parametrize("relax", [False, True])
def test_in_process_solution_equals_bridge(tmp_path, relax):
    name = "model_relax" if relax else "model"
    for k, model in enumerate(_identity_models()):
        ours = solve_model(model, tmp_path / f"in{k}", time_limit=60,
                           relax=relax)
        bridge = solve_model(model, tmp_path / f"ext{k}", time_limit=60,
                             relax=relax, command_template=DEFAULT_SOLVER_CMD)
        assert ours.status == bridge.status == "optimal"
        assert ours.objective == bridge.objective
        assert ours.bound == bridge.bound
        assert ours.values == bridge.values
        # the bridge's files are the model as emitted and the in-process
        # solution as written
        emit_model(model, "lp", tmp_path / f"{name}{k}.lp", relax=relax)
        write_solution_text(tmp_path / f"{name}{k}.sol", ours.values,
                            ours.status, ours.objective, ours.bound)
        for ext in ("lp", "sol"):
            assert ((tmp_path / f"ext{k}" / f"{name}.{ext}").read_bytes()
                    == (tmp_path / f"{name}{k}.{ext}").read_bytes())


def test_in_process_solve_writes_no_files(tmp_path):
    _, _, _, model = toy_setup(charger_toy())
    existing = tmp_path / "existing"
    existing.mkdir()
    for fmt in ("lp", "mps"):
        for relax in (False, True):
            for workdir in (existing, tmp_path / "absent"):
                raw = solve_model(model, workdir, fmt=fmt, relax=relax,
                                  time_limit=60)
                assert raw.status == "optimal"
    assert os.listdir(tmp_path) == ["existing"]
    assert os.listdir(existing) == []


@pytest.mark.parametrize("command_template",
                         [None, "/nonexistent/solver {model} {solution}"],
                         ids=["in-process", "bridge"])
def test_unknown_format_is_model_error_before_any_solve(tmp_path, monkeypatch,
                                                        command_template):
    def boom(*args, **kwargs):
        raise AssertionError("solved a model in an unknown format")
    monkeypatch.setattr(_highs_core(), "_Highs", boom)
    _, _, _, model = toy_setup(charger_toy())
    with pytest.raises(ModelError, match="unknown model format"):
        solve_model(model, tmp_path / "work", fmt="xml",
                    command_template=command_template, time_limit=30)
    assert not (tmp_path / "work").exists()


def test_in_process_solver_failure_is_solver_error(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("HiGHS crashed")
    monkeypatch.setattr(_highs_core(), "_Highs", boom)
    _, _, _, model = toy_setup(charger_toy())
    with pytest.raises(SolverError, match="HiGHS crashed"):
        solve_model(model, tmp_path, time_limit=30)


def test_solver_env_var_routes_through_bridge(tmp_path, monkeypatch):
    monkeypatch.setenv(SOLVER_ENV_VAR, "/nonexistent/solver {model} {solution}")
    _, _, _, model = toy_setup(charger_toy())
    with pytest.raises(SolverError, match="not found"):
        solve_model(model, tmp_path, time_limit=30)


def _grid_optimum(tmp_path, inst, override=None, **solve):
    _, _, _, model = toy_setup(
        inst, options=ModelOptions(grid_limit_override=override))
    raw = solve_model(model, tmp_path, time_limit=60, **solve)
    assert raw.status == "optimal"
    return model, raw.objective


@pytest.mark.parametrize("bridge", [False, True])
def test_unlimited_grid_point_has_no_grid_rows(tmp_path, bridge):
    solve = {"command_template": DEFAULT_SOLVER_CMD} if bridge else {}
    _, capped = _grid_optimum(tmp_path / "cap", charger_toy(grid_kw=1e12),
                              **solve)
    for k, (inst, override) in enumerate((
            (charger_toy(grid_kw=math.inf), None),
            (charger_toy(), {"G0": math.inf}))):
        model, objective = _grid_optimum(tmp_path / f"inf{k}", inst,
                                         override, **solve)
        assert "grid" not in model.rows_by_tag()
        assert objective == pytest.approx(capped, rel=1e-9)


def test_nan_grid_limit_is_rejected(tmp_path):
    with pytest.raises(InstanceError, match="NaN"):
        charger_toy(grid_kw=math.nan)
    # a NaN override is not taken for "unlimited": the build refuses it
    with pytest.raises(ModelError, match="NaN"):
        toy_setup(charger_toy(), options=ModelOptions(
            grid_limit_override={"G0": math.nan}))


GRID_ENTRIES = st.tuples(st.integers(0, 40), st.integers(0, 40),
                         st.sampled_from([0.0, 0.5, 7.0, 50.0, math.inf]))


@settings(max_examples=300, deadline=None)
@given(table=st.lists(GRID_ENTRIES, max_size=5), first=st.integers(-5, 40),
       widths=st.lists(st.integers(1, 12), min_size=1, max_size=8))
def test_grid_limits_match_the_scalar_lookup(table, first, widths):
    # tables with gaps, overlaps, touching and reversed entries: each
    # step's limit is the scalar lookup over its two event times
    gp = GridPoint("g", tuple(table), ())
    times = first + np.cumsum([0] + widths)
    expected = [_oracles.min_power_over(gp, int(lo), int(hi))
                for lo, hi in zip(times[:-1], times[1:])]
    assert _min_power_steps(gp.max_power_kw, times.astype(float)).tolist() \
        == expected


PRICE_ENTRIES = st.tuples(st.integers(0, 40), st.integers(0, 40),
                          st.sampled_from([0.0, 0.12, 0.3, 7]))


@settings(max_examples=300, deadline=None)
@given(table=st.lists(PRICE_ENTRIES, max_size=5),
       times=st.lists(st.integers(-5, 45), max_size=12))
def test_step_prices_match_the_scalar_lookup(table, times):
    # gaps, overlaps (the first entry wins), touching and reversed entries
    gp = GridPoint("g", (), tuple(table))
    expected = [_oracles.price_at(gp, t) for t in times]
    assert _step_prices(gp.energy_price, np.array(times, np.int64)).tolist() \
        == expected


@pytest.mark.parametrize("theta", [300.0, 600.0])
def test_event_times_match_the_scalar_lookup(theta):
    graph = build_graph(charger_toy(horizon_s=7200), theta)
    assert _event_times(graph).tolist() == [
        _oracles.event_time(graph, i) for i in range(graph.horizon_steps + 1)]


@pytest.mark.parametrize("limit", [-1.0, -1e-9])
def test_negative_grid_limit_override_is_rejected(limit):
    with pytest.raises(ModelError, match="negative"):
        toy_setup(charger_toy(), options=ModelOptions(
            grid_limit_override={"G0": limit}))


# ---------------------------------------------------------------------------
# status mapping
# ---------------------------------------------------------------------------

def _hand_arrays(tmp_path, text):
    path = tmp_path / "hand.lp"
    path.write_text(text)
    return read_lp(str(path))


HAND_LP = ("Minimize\n obj: 1 a + 2 b\n"
           "Subject To\n c1: 1 a + 1 b >= 1\n"
           "Binaries\n a b\nEnd\n")


def test_status_infeasible(tmp_path):
    arrays = _hand_arrays(tmp_path, "Minimize\n obj: 1 a\n"
                          "Subject To\n c1: 1 a >= 2\n c2: 1 a <= 1\nEnd\n")
    for limit in (None, 30):
        assert solve_arrays(arrays, limit) == ("infeasible", {}, None, None)


def test_status_time_limit_zero(tmp_path):
    arrays = _hand_arrays(tmp_path, HAND_LP)
    assert solve_arrays(arrays, 0) == ("time-limit", {}, None, None)


def test_nan_time_limit_is_refused(tmp_path):
    # HiGHS takes a NaN time limit and solves with no limit
    arrays = _hand_arrays(tmp_path, HAND_LP)
    with pytest.raises(ValueError, match="time limit is NaN"):
        solve_arrays(arrays, math.nan)
    # ebusopt-solve refuses a limit that is not above 0, as ebusopt does,
    # instead of writing "time-limit" with no solve
    solution = tmp_path / "hand.sol"
    for limit in ("nan", "0", "-5"):
        with pytest.raises(SystemExit) as stop:
            refsolver.main([str(tmp_path / "hand.lp"), str(solution),
                            "--time-limit", limit])
        assert stop.value.code == 2 and not solution.exists()


def _one_row(rhs, vals):
    """min a + b over binaries a, b with the one row vals . (a, b) >= rhs."""
    return ModelArrays(
        names=["a", "b"], obj=np.ones(2), lb=np.zeros(2), ub=np.ones(2),
        integer=np.ones(2, bool), start=np.array([0, 2]),
        cols=np.array([0, 1]), vals=np.array(vals),
        sense=np.array([SENSES.index(">=")], np.int8), rhs=np.array([rhs]),
        tag=np.zeros(1, np.int64), tags=["r"])


@pytest.mark.parametrize("rhs, vals", [(math.nan, [1.0, 1.0]),
                                       (1.0, [math.inf, 1.0])])
def test_model_highs_refuses_is_an_error_not_a_status(tmp_path, rhs, vals):
    with pytest.raises(RuntimeError, match="HiGHS refused the model"):
        solve_arrays(_one_row(rhs, vals))
    model = _bare_model()
    model.add_vars(["a", "b"], obj=1.0, binary=True)
    model.add_row(dict(enumerate(vals)), ">=", rhs, "r")
    with pytest.raises(SolverError, match="HiGHS refused the model"):
        solve_model(model, tmp_path)


def test_nan_coefficient_is_an_error_not_a_status(tmp_path):
    # HiGHS itself takes a NaN coefficient and reports kOptimal
    with pytest.raises(RuntimeError, match="coefficient is not finite"):
        solve_arrays(_one_row(1.0, [math.nan, 1.0]))
    model = _bare_model()
    model.add_vars(["a", "b"], obj=1.0, binary=True)
    model.add_row({0: math.nan, 1: 1.0}, ">=", 1.0, "r")
    with pytest.raises(SolverError, match="coefficient is not finite"):
        solve_model(model, tmp_path)


def test_solve_runs_without_feasibility_jump(monkeypatch):
    core = _highs_core()
    options = []

    class Recording(core._Highs):
        def setOptionValue(self, option, value):
            options.append((option, value))
            return super().setOptionValue(option, value)

    monkeypatch.setattr(core, "_Highs", Recording)
    assert solve_arrays(_one_row(1.0, [2.0, 2.0]), 5.0)[::2] == \
        ("optimal", 1.0)
    assert dict(options)["mip_heuristic_run_feasibility_jump"] is False


def _highs_core():
    """The private scipy module that ``refsolver.solve_arrays`` calls."""
    from scipy.optimize._highspy import _core
    return _core


def test_private_highs_entry_point_is_pinned():
    # every name solve_arrays takes from scipy's private HiGHS module; a
    # scipy release that moves or renames one fails here first
    core = _highs_core()
    highs, lp = core._Highs(), core.HighsLp()
    for name in ("passModel", "changeColsIntegrality", "setOptionValue",
                 "run", "getModelStatus", "getInfo", "getSolution"):
        assert callable(getattr(highs, name)), name
    for name in ("num_col_", "num_row_", "col_cost_", "col_lower_",
                 "col_upper_", "row_lower_", "row_upper_"):
        assert hasattr(lp, name), name
    for name in ("format_", "num_col_", "num_row_", "start_", "index_",
                 "value_"):
        assert hasattr(lp.a_matrix_, name), name
    assert core.MatrixFormat.kRowwise is not None
    assert core.HighsVarType.kInteger is not None
    for name in ("kOptimal", "kTimeLimit", "kIterationLimit", "kInfeasible",
                 "kUnbounded"):
        assert hasattr(core.HighsModelStatus, name), name
    info = highs.getInfo()
    for name in ("objective_function_value", "mip_dual_bound"):
        assert hasattr(info, name), name
    for option, value in (("log_to_console", False), ("mip_rel_gap", 1e-9),
                          ("mip_heuristic_run_feasibility_jump", False),
                          ("time_limit", 5.0)):
        assert highs.setOptionValue(option, value) == core.HighsStatus.kOk

    # a row-wise model with integrality set after passModel is solved as a
    # MIP: the LP optimum 0.5 would show if the integrality were lost
    arrays = _one_row(rhs=1.0, vals=[2.0, 2.0])
    assert solve_arrays(arrays)[::2] == ("optimal", 1.0)
    relaxed = solve_parsed(arrays, relax=True)
    assert relaxed[0] == "optimal"
    assert relaxed[2] == pytest.approx(0.5)


def _market_split(rows, cols, slack, seed=0):
    """A market-split MIP (Cornuejols & Dawande): sum_j a_ij x_j = d_i over
    binaries, hard for branch and bound.  With ``slack`` every row gets a
    pair of costed slacks, so x = 0 is an incumbent found at once and only
    the proof takes long; without, there is no easy incumbent."""
    a = np.random.default_rng(seed).integers(0, 100, (rows, cols))
    d = (a.sum(axis=1) // 2).astype(float)
    n = cols + (2 * rows if slack else 0)
    indptr, indices, data = [0], [], []
    for i in range(rows):
        indices += list(range(cols))
        data += a[i].astype(float).tolist()
        if slack:
            indices += [cols + 2 * i, cols + 2 * i + 1]
            data += [1.0, -1.0]
        indptr.append(len(indices))
    return ModelArrays(
        names=[f"v{j}" for j in range(n)],
        obj=np.array([0.0] * cols + [1.0] * (n - cols)), lb=np.zeros(n),
        ub=np.array([1.0] * cols + [np.inf] * (n - cols)),
        integer=np.array([True] * cols + [False] * (n - cols)),
        start=np.array(indptr), cols=np.array(indices), vals=np.array(data),
        sense=np.full(rows, SENSES.index("=")), rhs=d,
        tag=np.zeros(rows, np.int64), tags=["r"])


def test_status_time_limit_with_and_without_incumbent():
    status, values, objective, bound = solve_arrays(
        _market_split(5, 40, slack=True), 0.5)
    assert status == "feasible"
    assert len(values) == 50 and objective > 0
    assert objective == pytest.approx(sum(values[f"v{j}"]
                                          for j in range(40, 50)))
    assert bound is not None and bound < objective
    assert solve_arrays(_market_split(6, 50, slack=False), 0.2) == \
        ("time-limit", {}, None, None)


def test_status_unbounded_and_optimal_in_process(tmp_path):
    arrays = _hand_arrays(tmp_path, "Minimize\n obj: - 1 a\n"
                          "Subject To\n c1: 1 a + 1 b >= 1\nEnd\n")
    assert solve_arrays(arrays)[0] == "unbounded"
    status, values, objective, bound = solve_arrays(
        _hand_arrays(tmp_path, HAND_LP))
    assert (status, values, objective, bound) == \
        ("optimal", {"a": 1.0, "b": 0.0}, 1.0, 1.0)


def test_two_trip_single_bus_objective(tmp_path):
    inst = two_trip_instance()
    curves = exact_curves(inst)
    graph = build_graph(inst, 300.0)
    model = build_model(graph, {}, ModelOptions())
    raw = solve_model(model, tmp_path, time_limit=60)
    assert raw.status == "optimal"
    # one bus: pull-out (fixed 100 + 5) + implicit connection (0) + pull-in (5)
    assert raw.objective == pytest.approx(110.0, abs=1e-6)
    sched = decode_solution(model, raw)
    assert sched.fleet_size == 1
    assert sched.courses[0].trips == ["t1", "t2"]


# ---------------------------------------------------------------------------
# solution parsers
# ---------------------------------------------------------------------------

def test_solution_text_roundtrip(tmp_path):
    path = tmp_path / "x.sol"
    write_solution_text(path, {"x[1]": 1.0, "y[2]": 0.25}, "optimal",
                        12.5, 12.0)
    sol = parse_solution_text(path)
    assert sol.status == "optimal"
    assert sol.objective == 12.5
    assert sol.bound == 12.0
    assert sol.values["y[2]"] == 0.25


def test_gurobi_solution_header_is_read(tmp_path):
    path = tmp_path / "gurobi.sol"
    path.write_text("# Solution for model ebusopt\n# Objective value = 12.5\n"
                    "x[1] 1\ny[2] 0.25\n")
    sol = parse_solution_text(path)
    assert sol.objective == 12.5
    assert sol.values == {"x[1]": 1.0, "y[2]": 0.25}


def test_solution_xml_parse(tmp_path):
    path = tmp_path / "x.xml"
    path.write_text(
        '<?xml version="1.0"?>\n'
        '<CPLEXSolution><header objectiveValue="7.5" '
        'solutionStatusString="optimal"/>\n'
        '<variables><variable name="a" value="1"/>'
        '<variable name="b" value="0.5"/></variables></CPLEXSolution>\n')
    sol = parse_solution_file(path)
    assert sol.objective == 7.5
    assert sol.values == {"a": 1.0, "b": 0.5}


def test_unparseable_solution_raises(tmp_path):
    path = tmp_path / "junk.sol"
    path.write_text("!!! not a solution !!!\n")
    with pytest.raises(LpFormatError):
        parse_solution_text(path)


# ---------------------------------------------------------------------------
# preconditioning
# ---------------------------------------------------------------------------

def test_preconditioning_row_counts():
    inst = charger_toy(horizon_s=3600, theta=300)
    _, graph, _, base = toy_setup(inst)
    _, _, _, model = toy_setup(inst, options=ModelOptions(precondition_lead=1))
    added = len(model.rows) - len(base.rows)
    # one row per (recharge arc, plan) that has a predecessor step
    n = np.count_nonzero((graph.kind == RECHARGE) & (graph.step > 1))
    assert added == n
    assert model.rows_by_tag()["precondition"] == n


def test_preconditioning_beyond_horizon_adds_nothing():
    inst = charger_toy(horizon_s=3600, theta=300)
    _, graph, _, base = toy_setup(inst)
    _, _, _, model = toy_setup(inst, options=ModelOptions(
        precondition_lead=graph.horizon_steps + 5))
    assert len(model.rows) == len(base.rows)


def test_preconditioning_forces_first_step_idle(tmp_path):
    # the bus must charge to finish the course; with lead 1 the entry step
    # cannot carry charge, so the first occupied step has phi = 0
    inst = charging_required_instance()
    curves, graph, domains, model = toy_setup(
        inst, options=ModelOptions(precondition_lead=1))
    raw = solve_model(model, tmp_path, time_limit=120)
    assert raw.has_incumbent
    sched = decode_solution(model, raw)
    charged = [w for c in sched.courses for w in c.windows
               if sum(w.phis) > 1e-9]
    assert charged
    for win in charged:
        assert win.phis[0] <= 1e-7


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def test_decode_zero_flow_reports_uncovered(tmp_path):
    inst = charger_toy()
    _, _, _, model = toy_setup(inst)
    raw = RawSolution(values={v.name: 0.0 for v in model.variables},
                      status="optimal")
    with pytest.raises(DecodeError):
        decode_solution(model, raw)


def test_decode_fractional_flow_rejected():
    inst = two_trip_instance()
    curves = exact_curves(inst)
    graph = build_graph(inst, 300.0)
    model = build_model(graph, {}, ModelOptions())
    values = {v.name: 0.0 for v in model.variables}
    some_x = next(v.name for v in model.variables if v.name.startswith("x["))
    values[some_x] = 0.5
    with pytest.raises(DecodeError, match="fractional"):
        decode_solution(model, RawSolution(values=values, status="optimal"))


# trip t1's pull-out and pull-in, as (tail, head)
TRIP_T1 = [("src:D0", "trip:t1"), ("trip:t1", "snk:D0")]


# each case sets the x of charger_toy's mixed-fleet arcs given as (plan,
# tail, head) to 1 and every other column to 0; None gives no values at all
@pytest.mark.parametrize("active, message", [
    (None, "no incumbent to decode"),
    ([("e0.D0", "src:D0", "trip:t1")], "flow imbalance"),
    ([("e0.D0", "trip:t1", "snk:D0")],
     "active arcs not reachable from any pull-out"),
    ([(plan, *arc) for plan in ("e0.D0", "f0.D0") for arc in TRIP_T1],
     "a trip is covered by more than one course"),
])
def test_decode_rejects_a_solution_that_is_no_schedule(active, message):
    _, graph, _, model = toy_setup(charger_toy(mixed_fleet=True))
    values = {}
    if active is not None:
        x = {(graph.plan_ids[graph.pair_plan[p]],
              graph.node_ids[graph.tail[graph.pair_arc[p]]],
              graph.node_ids[graph.head[graph.pair_arc[p]]]):
             model.names[model.x_col[p]]
             for p in np.flatnonzero(model.x_col >= 0).tolist()}
        values = dict.fromkeys(model.names, 0.0)
        values.update(dict.fromkeys(map(x.__getitem__, active), 1.0))
    with pytest.raises(DecodeError, match=message):
        decode_solution(model, RawSolution(values=values, status="time-limit"))


def test_decode_recharge_window_matches_soc_jump(tmp_path):
    inst = charging_required_instance()
    curves, graph, domains, model = toy_setup(inst)
    raw = solve_model(model, tmp_path, time_limit=120)
    assert raw.has_incumbent, raw.status
    sched = decode_solution(model, raw)
    course = next(c for c in sched.courses if c.windows)
    win = next(w for w in course.windows if sum(w.phis) > 1e-9)
    # soc jump across the window in the y variables equals the summed phi
    arcs = _oracles.arc_records(graph)
    first_arc = None
    last_arc = None
    for a_idx in course.arc_indices:
        a = arcs[a_idx]
        if a.kind == "recharge" and a.step in win.steps:
            if first_arc is None:
                first_arc = a
            last_arc = a
    def y(arc):
        return raw.value(model.names[model.y_col[arc.index]])

    y_in = y(first_arc)
    out_arc = next(arcs[i] for i in course.arc_indices
                   if arcs[i].kind != "recharge"
                   and graph.nodes[arcs[i].tail].slot == last_arc.slot
                   and graph.nodes[arcs[i].tail].event == last_arc.step)
    y_out = y(out_arc)
    assert y_out - y_in == pytest.approx(sum(win.phis), abs=1e-6)


def test_decode_vehicle_type_id_with_a_dot(tmp_path):
    # the plan id "e.0.D0" splits ambiguously at its first dot; the course
    # must carry the plan's own vehicle type and depot
    from ebusopt.instance import Instance, dumps_instance
    from ebusopt.validate import validate_schedule
    inst = Instance.from_dict(json.loads(
        dumps_instance(charger_toy()).replace('"e0"', '"e.0"')))
    curves, graph, domains, model = toy_setup(inst)
    raw = solve_model(model, tmp_path, time_limit=60)
    assert raw.status == "optimal"
    sched = decode_solution(model, raw)
    assert [(c.plan, c.vehicle_type, c.depot) for c in sched.courses] == [
        ("e.0.D0", "e.0", "D0")]
    rep = validate_schedule(inst, sched, graph, "approx-under", curves,
                            domains)
    assert rep.strongly_feasible
