"""Dead charging time gets no columns, and the optimum does not move.

``milp.build_model`` leaves out the phi columns of dead recharge steps, the
egress and pull-out columns of events deep inside dead runs, and folds
chains of dead recharge arcs into one column each.  ``_oracles.build_model``
with ``compress=False`` keeps every column; both models are solved here and
must agree on status, fleet, exact-validation verdicts and objective.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from ebusopt.generators import generate_worst_case
from ebusopt.milp import (ModelError, ModelOptions, build_model,
                          decode_solution, solve_model)
from ebusopt.netgraph import build_graph
from ebusopt.validate import build_domains, exact_curves, validate_schedule
from test_assembly import assembly_cases

TIME_LIMIT_S = 60


def _outcome(build, graph, domains, options, workdir):
    """Status, fleet, exact verdicts and objective of one in-process solve,
    or the build's ``ModelError``."""
    try:
        model = build(graph, domains, options)
    except ModelError as exc:
        return f"ModelError: {exc}", None
    raw = solve_model(model, workdir, time_limit=TIME_LIMIT_S)
    assert raw.status in ("optimal", "infeasible"), raw.status
    if not raw.has_incumbent:
        return (raw.status,), None
    schedule = decode_solution(model, raw)
    inst = graph.instance
    report = validate_schedule(inst, schedule, graph, mode="exact",
                               curves=exact_curves(inst))
    return ((raw.status, schedule.fleet_size, report.energy_feasible,
             report.weakly_feasible), raw.objective)


@settings(max_examples=60, deadline=None)
@given(case=assembly_cases(dead_time=True), lead=st.sampled_from([0, 0, 0, 2]))
def test_compressed_model_keeps_the_optimum(tmp_path_factory, case, lead):
    graph, domains, options = case
    options = dataclasses.replace(options, precondition_lead=lead)
    workdir = tmp_path_factory.mktemp("solve")
    got, got_obj = _outcome(build_model, graph, domains, options, workdir)
    want, want_obj = _outcome(
        lambda *a: _oracles.build_model(*a, compress=False),
        graph, domains, options, workdir)
    assert got == want
    if want_obj is not None:
        assert got_obj == pytest.approx(want_obj, rel=1e-6)


@pytest.mark.parametrize("n", [3, 5])
def test_chain_models_shrink(n):
    inst = generate_worst_case(n, 0.005, 0.02, estimator="under",
                               theta=300.0, segments=2)
    graph = build_graph(inst, 300.0)
    domains = build_domains(inst, exact_curves(inst), 300.0, 2, "under")
    options = ModelOptions(use_strengthening=True)
    full = _oracles.build_model(graph, domains, options, compress=False)
    model = build_model(graph, domains, options)
    assert 3 * model.num_variables < full.num_variables
    # every arc of the graph that has columns is indexed, folded or not
    with_y = model.y_col >= 0
    assert (full.y_col[with_y] >= 0).all()
    assert np.array_equal(np.unique(graph.pair_arc[model.x_col >= 0]),
                          np.flatnonzero(with_y))
    assert (model.phi_col >= 0).sum() < (full.phi_col >= 0).sum()
