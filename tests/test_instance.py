import dataclasses
import json
import math

import numpy as np
import pytest

from ebusopt.chargemodel import build_underestimator, solve_max_power_curve
from ebusopt.generators import (GenerationError, SyntheticParams,
                                generate_synthetic, generate_worst_case)
from ebusopt.instance import (Depot, GridPoint, Instance, InstanceError,
                              Trip, VehicleType, dumps_instance,
                              load_instance, save_instance)
from ebusopt.milp import _min_power_steps
from _toys import charger_toy, two_trip_instance


def _step_limit(gp, start, end):
    """The kW limit ``build_model`` gives a step [start, end) at ``gp``."""
    return _min_power_steps(gp.max_power_kw, np.array([start, end], float))[0]


def test_minimal_roundtrip(tmp_path):
    inst = two_trip_instance()
    path = tmp_path / "mini.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert dumps_instance(again) == dumps_instance(inst)


def test_unknown_grid_point_named_in_error(tmp_path):
    inst = charger_toy()
    doc = inst.to_dict()
    doc["chargers"][0]["grid_point"] = "NOPE"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError, match="NOPE"):
        load_instance(path)


def test_unknown_deadhead_endpoint(tmp_path):
    inst = two_trip_instance()
    doc = inst.to_dict()
    doc["deadheads"][0]["to"] = "nowhere"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError, match="nowhere"):
        load_instance(path)


def test_negative_deadhead_duration_rejected(tmp_path):
    doc = two_trip_instance().to_dict()
    doc["deadheads"][0]["duration_s"] = -60
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError, match="negative duration -60"):
        load_instance(path)


def test_trip_arrival_before_departure_rejected():
    e0 = VehicleType("e0", True, 100.0, 10.0)
    with pytest.raises(InstanceError, match="arrival"):
        Instance(vehicle_types=(e0,), depots=(Depot("D"),),
                 trips=(Trip("t", "A", "B", 100, 50, {"e0": 0.1}),),
                 deadheads=(), chargers=(), grid_points=(), profiles={},
                 mix_constraints=(), horizon=(0, 3600)).validate()


def test_consumption_out_of_range_rejected():
    e0 = VehicleType("e0", True, 100.0, 10.0)
    with pytest.raises(InstanceError, match="not in"):
        Instance(vehicle_types=(e0,), depots=(Depot("D"),),
                 trips=(Trip("t", "A", "B", 0, 50, {"e0": 1.5}),),
                 deadheads=(), chargers=(), grid_points=(), profiles={},
                 mix_constraints=(), horizon=(0, 3600)).validate()


def _with_a_second(inst, kind):
    """``inst`` with the first entry of ``kind`` appended once more."""
    items = getattr(inst, kind)
    return dataclasses.replace(inst, **{kind: items + items[:1]})


@pytest.mark.parametrize("kind, dup", [
    ("vehicle_types", "e0"), ("depots", "D0"), ("trips", "t1"),
    ("chargers", "C0"), ("grid_points", "G0")])
def test_duplicate_ids_rejected(kind, dup):
    with pytest.raises(InstanceError, match=f"{kind}: duplicate id '{dup}'"):
        _with_a_second(charger_toy(), kind).validate()


def _with_first(inst, kind, **changes):
    """``inst`` with ``changes`` applied to the first entry of ``kind``."""
    items = getattr(inst, kind)
    first = dataclasses.replace(items[0], **changes)
    return dataclasses.replace(inst, **{kind: (first,) + items[1:]})


@pytest.mark.parametrize("draw", [math.nan, -0.5, 2.0])
def test_step_consumption_out_of_range_rejected(draw):
    inst = _with_first(charger_toy(), "chargers", step_consumption=draw)
    with pytest.raises(InstanceError,
                       match=r"chargers\[C0\]\.step_consumption: .* not in"):
        inst.validate()


@pytest.mark.parametrize("price", [math.nan, math.inf, -math.inf])
def test_non_finite_energy_price_rejected(price):
    inst = _with_first(charger_toy(), "grid_points",
                       energy_price=((0, 3600, price),))
    with pytest.raises(InstanceError,
                       match=r"grid_points\[G0\]\.energy_price: .* not finite"):
        inst.validate()


@pytest.mark.parametrize("kwh", [-50.0, 0.0, math.nan, math.inf])
def test_electric_battery_must_be_finite_and_positive(kwh):
    inst = _with_first(charger_toy(), "vehicle_types", battery_kwh=kwh)
    with pytest.raises(InstanceError, match=r"vehicle_types\[e0\]\.battery_kwh: "
                                            r".* not finite and > 0"):
        inst.validate()
    # a non-electric type carries no battery
    charger_toy(mixed_fleet=True).validate()


@pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf])
def test_non_finite_fixed_cost_rejected(cost):
    inst = _with_first(charger_toy(), "vehicle_types", fixed_cost=cost)
    with pytest.raises(InstanceError, match=r"vehicle_types\[e0\]\.fixed_cost: "
                                            r".* not finite"):
        inst.validate()


@pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf])
def test_non_finite_deadhead_cost_rejected(cost):
    inst = _with_first(charger_toy(), "deadheads", cost={"e0": cost})
    with pytest.raises(InstanceError, match=r"deadheads\[D0->A\]\.cost\[e0\]: "
                                            r".* not finite"):
        inst.validate()


def test_negative_grid_limit_rejected():
    inst = _with_first(charger_toy(), "grid_points",
                       max_power_kw=((0, 3600, -5.0),))
    with pytest.raises(InstanceError,
                       match=r"grid_points\[G0\]\.max_power_kw: negative"):
        inst.validate()


_MIX_ROW = {"plan_types": [["e0", "D0"], ["f0", "D0"]],
            "coeffs": [1.0, -1.0], "lower": 1.0, "upper": math.inf}


def _load_mix_row(tmp_path, **changes):
    """The mixed-fleet toy with one mix row, loaded from JSON."""
    doc = charger_toy(mixed_fleet=True).to_dict()
    doc["mix_constraints"] = [dict(_MIX_ROW, **changes)]
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(doc))
    return load_instance(path)


def test_well_formed_mix_rows_load(tmp_path):
    assert len(_load_mix_row(tmp_path).mix_constraints) == 1
    # lower > upper is an infeasible row, not a malformed one
    _load_mix_row(tmp_path, lower=2.0, upper=1.0)


@pytest.mark.parametrize("changes, message", [
    ({"plan_types": [["zz", "D0"], ["f0", "D0"]], "lower": 1.0},
     r"mix_constraints\[0\]\.plan_types: \['zz', 'D0'\] is not a"),
    ({"coeffs": [1.0]}, r"mix_constraints\[0\]: 1 coeffs for 2 plan types"),
    ({"coeffs": [math.nan, -1.0]},
     r"mix_constraints\[0\]\.coeffs: nan for \['e0', 'D0'\] is not finite"),
    ({"lower": math.nan}, r"mix_constraints\[0\]: NaN in \[nan, inf\]"),
    ({"upper": math.nan}, r"mix_constraints\[0\]: NaN in \[1.0, nan\]")],
    ids=["unknown-plan", "short-coeffs", "nan-coeff", "nan-lower",
         "nan-upper"])
def test_malformed_mix_row_rejected(tmp_path, changes, message):
    with pytest.raises(InstanceError, match=message):
        _load_mix_row(tmp_path, **changes)


def test_depot_capacity_must_be_null(tmp_path):
    doc = charger_toy().to_dict()
    assert doc["depots"] == [{"id": "D0"}]
    path = tmp_path / "old.json"
    doc["depots"][0]["capacity"] = None     # what older files hold
    path.write_text(json.dumps(doc))
    assert load_instance(path) == charger_toy()
    doc["depots"][0]["capacity"] = 4
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError, match=r"depots\[D0\]\.capacity"):
        load_instance(path)


def test_grid_point_piecewise_lookup():
    gp = GridPoint("g", ((0, 100, 50.0), (100, 200, 0.0)),
                   ((0, 200, 0.3),))
    assert _step_limit(gp, 10, 11) == 50.0
    assert _step_limit(gp, 150, 151) == 0.0
    assert _step_limit(gp, 50, 150) == 0.0
    assert _step_limit(gp, 0, 100) == 50.0
    assert _step_limit(gp, 190, 250) == 0.0  # partially uncovered


def test_roundtrip_many_random_instances(tmp_path):
    for seed in range(50):
        inst = generate_synthetic(
            SyntheticParams(trips=4 + seed % 9, chargers=seed % 3,
                            depots=1 + seed % 2), seed=seed)
        path = tmp_path / f"r{seed}.json"
        save_instance(inst, path)
        assert dumps_instance(load_instance(path)) == dumps_instance(inst)


def test_synthetic_determinism():
    params = SyntheticParams(trips=15, chargers=2, slots_per_charger=1)
    a = generate_synthetic(params, seed=42)
    b = generate_synthetic(params, seed=42)
    assert dumps_instance(a) == dumps_instance(b)
    c = generate_synthetic(params, seed=43)
    assert dumps_instance(c) != dumps_instance(a)


def test_synthetic_unique_bus_premise():
    inst = generate_synthetic(SyntheticParams(trips=25, chargers=1), seed=5)
    dh = inst.deadhead_map()
    for t in inst.trips:
        ok = False
        for d in inst.depots:
            out = dh.get((d.id, t.origin))
            back = dh.get((t.destination, d.id))
            if out is None or back is None:
                continue
            total = max(out.consumption.get(v.id, 0.0)
                        + t.consumption.get(v.id, 0.0)
                        + back.consumption.get(v.id, 0.0)
                        for v in inst.vehicle_types if v.electric)
            ok = ok or total <= 1.0
        assert ok, t.id


def test_synthetic_param_validation():
    with pytest.raises(GenerationError):
        generate_synthetic(SyntheticParams(trips=1), seed=0)
    with pytest.raises(GenerationError):
        generate_synthetic(SyntheticParams(trips=10, electric_types=0), seed=0)


# ---------------------------------------------------------------------------
# worst-case generator
# ---------------------------------------------------------------------------

def wc_margins():
    """Feasible (delta, epsilon) pair derived from the coarse-domain deficit."""
    inst = None
    profile = None
    from ebusopt.generators import _wc_profile
    curve = solve_max_power_curve(_wc_profile())
    dom = build_underestimator(curve, 300.0, 2)
    import math
    y_pad = 0.0025
    k = math.ceil((curve.t_full - float(curve.time_at(y_pad))) / 300.0)
    deficit = curve.soc_cap - dom.greedy_final_soc(y_pad, k)
    return 0.25 * deficit, 0.8 * deficit


def test_worst_case_structure():
    delta, eps = wc_margins()
    inst = generate_worst_case(3, delta, eps)
    assert len(inst.trips) == 3
    assert len(inst.chargers) == 2
    assert len(inst.depots) == 2
    assert len(inst.grid_points) == 2
    # grid power is zero outside the designed windows
    for gp, (ws, we) in zip(inst.grid_points, inst.meta["windows"]):
        assert _step_limit(gp, ws, ws + 1) > 0
        assert _step_limit(gp, ws - 1, ws) == 0.0
        assert _step_limit(gp, we + 1, we + 2) == 0.0


def test_worst_case_roundtrips_bit_identically(tmp_path):
    delta, eps = wc_margins()
    inst = generate_worst_case(4, delta, eps)
    path = tmp_path / "wc.json"
    save_instance(inst, path)
    assert dumps_instance(load_instance(path)) == dumps_instance(inst)


def test_worst_case_rejects_bad_parameters():
    with pytest.raises(GenerationError):
        generate_worst_case(1, 0.001, 0.01)
    with pytest.raises(GenerationError):
        generate_worst_case(3, 0.02, 0.01)  # delta >= epsilon
    # epsilon above what the coarse domain can lose
    with pytest.raises(GenerationError, match="epsilon_target"):
        generate_worst_case(3, 0.001, 0.5)


def test_worst_case_over_variant_structure():
    delta, eps = wc_margins()
    inst = generate_worst_case(3, delta, eps, estimator="over")
    assert inst.meta["estimator"] == "over"
    assert 0 < inst.meta["e_trip"] < 1


def test_worst_case_single_course_propagates_feasibly():
    import ebusopt.chargemodel as cm
    from ebusopt.generators import _wc_profile
    delta, eps = wc_margins()
    curve = solve_max_power_curve(_wc_profile())
    for n in (3, 4, 5):
        inst = generate_worst_case(n, delta, eps)
        meta = inst.meta
        dh = inst.deadhead_map()
        vt = "ebus"
        roles = [cm.ROLE_DEPOT_START]
        cons, durs = [], []
        window_s = meta["window_steps"] * meta["theta_design"]
        for i in range(1, n + 1):
            entry = dh[("d1", "t1S")] if i == 1 else dh[(f"s{i-1}", f"t{i}S")]
            roles += [cm.ROLE_TRIP_START, cm.ROLE_TRIP_END]
            cons += [entry.consumption[vt], inst.trip(f"t{i}").consumption[vt]]
            durs += [0.0, 0.0]
            if i < n:
                roles += [cm.ROLE_CHARGE_ARRIVAL, cm.ROLE_CHARGE_DEPARTURE]
                cons += [dh[(f"t{i}E", f"s{i}")].consumption[vt], 0.0]
                durs += [0.0, window_s]
        roles.append(cm.ROLE_DEPOT_END)
        cons.append(dh[(f"t{n}E", "d1")].consumption[vt])
        durs.append(0.0)
        trace = cm.CourseTrace(roles=tuple(roles), consumptions=tuple(cons),
                               durations=tuple(durs))
        out = cm.propagate_course(trace, curve)
        assert min(out.soc_exact) >= -1e-9
        # under the coarse approximation the same course collapses
        dom = build_underestimator(curve, meta["theta_design"],
                                   meta["segments_design"])
        approx = cm.propagate_course(trace, curve, dom)
        assert min(approx.soc_approx) < -1e-6
