"""Tiny hand-built instances used across the test modules."""

from ebusopt.chargemodel import ChargingPowerProfile
from ebusopt.instance import (Charger, Deadhead, Depot, GridPoint, Instance,
                              Trip, VehicleType)

PROFILE = ChargingPowerProfile(cc_rate=0.5 / 600.0, cv_break=0.5,
                               cv_shape="quadratic", name="toy-quad")


def _dh(a, b, dur, cons, types=("e0",)):
    return Deadhead(a, b, dur, {t: cons for t in types},
                    {t: dur / 60.0 for t in types})


def two_trip_instance():
    """Two chainable trips, one depot, no chargers."""
    e0 = VehicleType("e0", True, 100.0, fixed_cost=100.0)
    trips = (
        Trip("t1", "A", "B", 600, 1800, {"e0": 0.3}),
        Trip("t2", "B", "A", 2400, 3600, {"e0": 0.3}),
    )
    deadheads = (
        _dh("D0", "A", 300, 0.05), _dh("D0", "B", 300, 0.05),
        _dh("A", "D0", 300, 0.05), _dh("B", "D0", 300, 0.05),
    )
    inst = Instance(
        vehicle_types=(e0,), depots=(Depot("D0"),), trips=trips,
        deadheads=deadheads, chargers=(), grid_points=(), profiles={},
        mix_constraints=(), horizon=(0, 7200))
    inst.validate()
    return inst


def charger_toy(horizon_s=3600, theta=300, slots=1, windows=None,
                grid_kw=1000.0, trip_consumption=0.35, mixed_fleet=False,
                two_trips=True):
    """One charger between two trips; horizon of 1 hour by default."""
    vts = [VehicleType("e0", True, 100.0, fixed_cost=100.0)]
    if mixed_fleet:
        vts.append(VehicleType("f0", False, 0.0, fixed_cost=80.0))
    types = tuple(v.id for v in vts)
    trips = [Trip("t1", "A", "B", 300, 900, {"e0": trip_consumption})]
    if two_trips:
        trips.append(Trip("t2", "B", "A", horizon_s - 900, horizon_s - 300,
                          {"e0": trip_consumption}))
    deadheads = [
        _dh("D0", "A", 120, 0.02, types), _dh("D0", "B", 120, 0.02, types),
        _dh("A", "D0", 120, 0.02, types), _dh("B", "D0", 120, 0.02, types),
        _dh("B", "C0", 60, 0.01, types), _dh("C0", "B", 60, 0.01, types),
        _dh("A", "C0", 60, 0.01, types), _dh("C0", "A", 60, 0.01, types),
        _dh("D0", "C0", 120, 0.02, types), _dh("C0", "D0", 120, 0.02, types),
    ]
    inst = Instance(
        vehicle_types=tuple(vts), depots=(Depot("D0"),), trips=tuple(trips),
        deadheads=tuple(deadheads),
        chargers=(Charger("C0", slots, "G0", {"e0": "toy-quad"},
                          tuple(windows) if windows else None),),
        grid_points=(GridPoint("G0", ((0, horizon_s, grid_kw),),
                               ((0, horizon_s, 0.25),)),),
        profiles={"toy-quad": PROFILE},
        mix_constraints=(), horizon=(0, horizon_s))
    inst.validate()
    return inst


def charging_required_instance(horizon_s=7200):
    """Round trip costs 1.2 soc: infeasible without in-service recharging."""
    e0 = VehicleType("e0", True, 100.0, fixed_cost=100.0)
    trips = (Trip("t1", "A", "B", 600, 2400, {"e0": 0.6}),)
    deadheads = (
        _dh("D0", "A", 300, 0.3), _dh("B", "D0", 300, 0.3),
        _dh("B", "C0", 60, 0.02), _dh("C0", "D0", 240, 0.29),
    )
    inst = Instance(
        vehicle_types=(e0,), depots=(Depot("D0"),), trips=trips,
        deadheads=deadheads,
        chargers=(Charger("C0", 1, "G0", {"e0": "toy-quad"}),),
        grid_points=(GridPoint("G0", ((0, horizon_s, 1000.0),),
                               ((0, horizon_s, 0.25),)),),
        profiles={"toy-quad": PROFILE},
        mix_constraints=(), horizon=(0, horizon_s))
    inst.validate()
    return inst


IDLE_PROFILE = ChargingPowerProfile(cc_rate=0.4 / 600.0, cv_break=0.5,
                                    cv_shape="quadratic", name="idle-quad")


def idle_draw_instance(step_consumption=0.004, horizon_s=6 * 3600):
    """Out and back with one charge between: the charger draws idle soc.

    One bus covers both trips only if it recharges at C0, which takes
    ``step_consumption`` per occupied step on top of what it charges.
    """
    e0 = VehicleType("e0", True, 100.0, fixed_cost=100.0)
    trips = (Trip("t1", "A", "B", 600, 2400, {"e0": 0.6}),
             Trip("t2", "B", "A", horizon_s - 4000, horizon_s - 1000,
                  {"e0": 0.55}))
    deadheads = (
        _dh("D0", "A", 300, 0.3), _dh("A", "D0", 300, 0.3),
        _dh("D0", "B", 300, 0.3), _dh("B", "D0", 300, 0.3),
        _dh("B", "C0", 60, 0.02), _dh("C0", "B", 60, 0.02),
        _dh("C0", "D0", 240, 0.29), _dh("D0", "C0", 240, 0.29),
    )
    inst = Instance(
        vehicle_types=(e0,), depots=(Depot("D0"),), trips=trips,
        deadheads=deadheads,
        chargers=(Charger("C0", 1, "G0", {"e0": "idle-quad"},
                          step_consumption=step_consumption),),
        grid_points=(GridPoint("G0", ((0, horizon_s, 1000.0),),
                               ((0, horizon_s, 0.25),)),),
        profiles={"idle-quad": IDLE_PROFILE},
        mix_constraints=(), horizon=(0, horizon_s))
    inst.validate()
    return inst


def pass_through_instance(horizon_s=7200):
    """Two trips with the charger visited twice: the pull-out passes
    through C0 without charging, and the bus charges between the trips."""
    e0 = VehicleType("e0", True, 100.0, fixed_cost=100.0)
    trips = (Trip("t1", "A", "B", 1200, 1800, {"e0": 0.6}),
             Trip("t2", "B", "A", 4800, 5400, {"e0": 0.6}))
    deadheads = (
        _dh("D0", "A", 120, 0.02), _dh("A", "D0", 120, 0.02),
        _dh("D0", "B", 120, 0.02), _dh("B", "D0", 120, 0.02),
        _dh("A", "C0", 60, 0.01), _dh("C0", "A", 60, 0.01),
        _dh("B", "C0", 60, 0.01), _dh("C0", "B", 60, 0.01),
        _dh("D0", "C0", 120, 0.02), _dh("C0", "D0", 120, 0.02),
    )
    inst = Instance(
        vehicle_types=(e0,), depots=(Depot("D0"),), trips=trips,
        deadheads=deadheads,
        chargers=(Charger("C0", 1, "G0", {"e0": "toy-quad"}),),
        grid_points=(GridPoint("G0", ((0, horizon_s, 1000.0),),
                               ((0, horizon_s, 0.25),)),),
        profiles={"toy-quad": PROFILE},
        mix_constraints=(), horizon=(0, horizon_s))
    inst.validate()
    return inst
