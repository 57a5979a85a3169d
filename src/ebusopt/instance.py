"""Instance data model for electric bus scheduling, with JSON serialization.

Units are fixed throughout: times in integer seconds, energies in kWh,
consumptions as relative soc in [0, 1].  Serialization is canonical (sorted
keys, 2-space indent, trailing newline) so that save(load(x)) is
byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .chargemodel import ChargingPowerProfile


_TRIANGLE_TOL = 1e-9   # slack of the deadhead consumption triangle check


class InstanceError(ValueError):
    """Schema or invariant violation; message carries the offending path."""


@dataclass(frozen=True)
class VehicleType:
    id: str
    electric: bool
    battery_kwh: float
    fixed_cost: float  # per pull-out; the fleet-size proxy in the objective


@dataclass(frozen=True)
class Depot:
    id: str


@dataclass(frozen=True)
class Trip:
    id: str
    origin: str
    destination: str
    departure_s: int
    arrival_s: int
    consumption: dict  # vehicle type id -> relative soc


@dataclass(frozen=True)
class Deadhead:
    origin: str
    destination: str
    duration_s: int
    consumption: dict  # vehicle type id -> relative soc
    cost: dict         # vehicle type id -> cost


@dataclass(frozen=True)
class Charger:
    id: str            # also the charger's location id
    slots: int
    grid_point: str
    profiles: dict     # electric vehicle type id -> profile name
    windows: Optional[tuple] = None  # ((start_s, end_s), ...) availability
    step_consumption: float = 0.0    # soc drawn per occupied step (usually 0)


@dataclass(frozen=True)
class GridPoint:
    id: str
    max_power_kw: tuple   # ((start_s, end_s, kw), ...) piecewise constant
    energy_price: tuple   # ((start_s, end_s, price_per_kwh), ...)

    def price_at(self, t: float) -> float:
        for s, e, p in self.energy_price:
            if s <= t < e:
                return p
        return 0.0


@dataclass(frozen=True)
class MixConstraint:
    plan_types: tuple   # ((vehicle_type_id, depot_id), ...)
    coeffs: tuple
    lower: float
    upper: float


@dataclass(frozen=True)
class PlanType:
    """A (vehicle type, depot) commodity of the flow model."""
    vehicle_type: str
    depot: str
    electric: bool

    @property
    def id(self) -> str:
        return f"{self.vehicle_type}.{self.depot}"


@dataclass(frozen=True)
class Instance:
    vehicle_types: tuple
    depots: tuple
    trips: tuple
    deadheads: tuple
    chargers: tuple
    grid_points: tuple
    profiles: dict      # name -> ChargingPowerProfile
    mix_constraints: tuple
    horizon: tuple      # (start_s, end_s)
    meta: dict = field(default_factory=dict)

    # ----- lookups -------------------------------------------------------
    def vehicle_type(self, vid: str) -> VehicleType:
        for v in self.vehicle_types:
            if v.id == vid:
                return v
        raise InstanceError(f"unknown vehicle type {vid!r}")

    def trip(self, tid: str) -> Trip:
        for t in self.trips:
            if t.id == tid:
                return t
        raise InstanceError(f"unknown trip {tid!r}")

    def charger(self, cid: str) -> Charger:
        for c in self.chargers:
            if c.id == cid:
                return c
        raise InstanceError(f"unknown charger {cid!r}")

    def grid_point(self, gid: str) -> GridPoint:
        for g in self.grid_points:
            if g.id == gid:
                return g
        raise InstanceError(f"unknown grid point {gid!r}")

    def plan_types(self) -> list:
        return [PlanType(v.id, d.id, v.electric)
                for v in self.vehicle_types for d in self.depots]

    def locations(self) -> set:
        locs = {d.id for d in self.depots} | {c.id for c in self.chargers}
        for t in self.trips:
            locs.add(t.origin)
            locs.add(t.destination)
        return locs

    def deadhead_map(self) -> dict:
        return {(d.origin, d.destination): d for d in self.deadheads}

    # ----- validation ----------------------------------------------------
    def validate(self) -> None:
        start, end = self.horizon
        if end <= start:
            raise InstanceError("horizon: end must be after start")
        for kind, items in (("vehicle_types", self.vehicle_types),
                            ("depots", self.depots), ("trips", self.trips),
                            ("chargers", self.chargers),
                            ("grid_points", self.grid_points)):
            seen: set = set()
            for x in items:
                if x.id in seen:
                    raise InstanceError(f"{kind}: duplicate id {x.id!r}")
                seen.add(x.id)
        for v in self.vehicle_types:
            if v.electric and not (math.isfinite(v.battery_kwh)
                                   and v.battery_kwh > 0):
                raise InstanceError(
                    f"vehicle_types[{v.id}].battery_kwh: {v.battery_kwh} is "
                    f"not finite and > 0")
            if not math.isfinite(v.fixed_cost):
                raise InstanceError(f"vehicle_types[{v.id}].fixed_cost: "
                                    f"{v.fixed_cost} is not finite")
        ids = {v.id for v in self.vehicle_types}
        etypes = {v.id for v in self.vehicle_types if v.electric}
        locs = self.locations()
        for t in self.trips:
            if t.arrival_s < t.departure_s:
                raise InstanceError(f"trips[{t.id}]: arrival before departure")
            for k, c in t.consumption.items():
                if k not in ids:
                    raise InstanceError(f"trips[{t.id}].consumption: unknown type {k}")
                if not 0.0 <= c <= 1.0:
                    raise InstanceError(f"trips[{t.id}].consumption[{k}]: {c} not in [0,1]")
        for d in self.deadheads:
            for endp, side in ((d.origin, "origin"), (d.destination, "destination")):
                if endp not in locs:
                    raise InstanceError(
                        f"deadheads[{d.origin}->{d.destination}].{side}: "
                        f"unknown location {endp!r}")
            if d.duration_s < 0:
                raise InstanceError(f"deadheads[{d.origin}->{d.destination}]: "
                                    f"negative duration {d.duration_s}")
            for k, c in d.consumption.items():
                if not 0.0 <= c <= 1.0:
                    raise InstanceError(
                        f"deadheads[{d.origin}->{d.destination}]: consumption {c}")
            for k, c in d.cost.items():
                if not math.isfinite(c):
                    raise InstanceError(
                        f"deadheads[{d.origin}->{d.destination}].cost[{k}]: "
                        f"{c} is not finite")
        gids = {g.id for g in self.grid_points}
        for c in self.chargers:
            if c.grid_point not in gids:
                raise InstanceError(
                    f"chargers[{c.id}].grid_point: unknown grid point "
                    f"{c.grid_point!r}")
            if c.slots < 1:
                raise InstanceError(f"chargers[{c.id}].slots: must be >= 1")
            if not 0.0 <= c.step_consumption <= 1.0:
                raise InstanceError(
                    f"chargers[{c.id}].step_consumption: "
                    f"{c.step_consumption} not in [0,1]")
            for vt, pname in c.profiles.items():
                if vt not in etypes:
                    raise InstanceError(
                        f"chargers[{c.id}].profiles: {vt} is not an electric type")
                if pname not in self.profiles:
                    raise InstanceError(
                        f"chargers[{c.id}].profiles[{vt}]: unknown profile "
                        f"{pname!r}")
        for g in self.grid_points:
            for t0, t1, kw in g.max_power_kw:
                if math.isnan(kw):
                    raise InstanceError(
                        f"grid_points[{g.id}].max_power_kw: NaN limit on "
                        f"[{t0}, {t1})")
                if kw < 0:
                    raise InstanceError(
                        f"grid_points[{g.id}].max_power_kw: negative limit "
                        f"{kw} on [{t0}, {t1})")
            for t0, t1, price in g.energy_price:
                if not math.isfinite(price):
                    raise InstanceError(
                        f"grid_points[{g.id}].energy_price: {price} on "
                        f"[{t0}, {t1}) is not finite")
        pairs = {(p.vehicle_type, p.depot) for p in self.plan_types()}
        for r, m in enumerate(self.mix_constraints):
            row = f"mix_constraints[{r}]"
            if len(m.coeffs) != len(m.plan_types):
                raise InstanceError(f"{row}: {len(m.coeffs)} coeffs for "
                                    f"{len(m.plan_types)} plan types")
            for pt, kappa in zip(m.plan_types, m.coeffs):
                if tuple(pt) not in pairs:
                    raise InstanceError(f"{row}.plan_types: {list(pt)} is not "
                                        f"a (vehicle type, depot) pair")
                if not (isinstance(kappa, (int, float))
                        and math.isfinite(kappa)):
                    raise InstanceError(f"{row}.coeffs: {kappa!r} for "
                                        f"{list(pt)} is not finite")
            if math.isnan(m.lower) or math.isnan(m.upper):
                raise InstanceError(f"{row}: NaN in [{m.lower}, {m.upper}]")
        self._check_triangle_inequality()

    def _check_triangle_inequality(self) -> None:
        dh = self.deadhead_map()
        for (a, b), leg in dh.items():
            for c in self.locations():
                first = dh.get((a, c))
                second = dh.get((c, b))
                if first is None or second is None:
                    continue
                for k, cons in leg.consumption.items():
                    via = first.consumption.get(k, 0.0) + second.consumption.get(k, 0.0)
                    if cons > via + _TRIANGLE_TOL:
                        raise InstanceError(
                            f"deadheads[{a}->{b}]: consumption {cons} violates "
                            f"the triangle inequality via {c} ({via})")

    # ----- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": "ebusopt-instance",
            "version": 1,
            "horizon": {"start_s": self.horizon[0], "end_s": self.horizon[1]},
            "vehicle_types": [
                {"id": v.id, "electric": v.electric,
                 "battery_kwh": v.battery_kwh, "fixed_cost": v.fixed_cost}
                for v in self.vehicle_types],
            "depots": [{"id": d.id} for d in self.depots],
            "trips": [
                {"id": t.id, "from": t.origin, "to": t.destination,
                 "dep_s": t.departure_s, "arr_s": t.arrival_s,
                 "consumption": dict(sorted(t.consumption.items()))}
                for t in self.trips],
            "deadheads": [
                {"from": d.origin, "to": d.destination,
                 "duration_s": d.duration_s,
                 "consumption": dict(sorted(d.consumption.items())),
                 "cost": dict(sorted(d.cost.items()))}
                for d in self.deadheads],
            "chargers": [
                {"id": c.id, "slots": c.slots, "grid_point": c.grid_point,
                 "profiles": dict(sorted(c.profiles.items())),
                 "windows": [list(w) for w in c.windows] if c.windows else None,
                 "step_consumption": c.step_consumption}
                for c in self.chargers],
            "grid_points": [
                {"id": g.id,
                 "max_power_kw": [list(x) for x in g.max_power_kw],
                 "energy_price": [list(x) for x in g.energy_price]}
                for g in self.grid_points],
            "profiles": {name: p.to_dict()
                         for name, p in sorted(self.profiles.items())},
            "mix_constraints": [
                {"plan_types": [list(pt) for pt in m.plan_types],
                 "coeffs": list(m.coeffs), "lower": m.lower, "upper": m.upper}
                for m in self.mix_constraints],
            "meta": self.meta,
        }

    @staticmethod
    def from_dict(doc: dict) -> "Instance":
        try:
            if doc.get("format") != "ebusopt-instance":
                raise InstanceError("format: not an ebusopt-instance document")
            horizon = (int(doc["horizon"]["start_s"]), int(doc["horizon"]["end_s"]))
            vts = tuple(VehicleType(v["id"], bool(v["electric"]),
                                    float(v["battery_kwh"]), float(v["fixed_cost"]))
                        for v in doc["vehicle_types"])
            deps = tuple(Depot(d["id"]) for d in doc["depots"])
            for d in doc["depots"]:
                if d.get("capacity") is not None:
                    raise InstanceError(
                        f"depots[{d['id']}].capacity: depot capacity is not "
                        f"modelled; give null or leave it out")
            trips = tuple(Trip(t["id"], t["from"], t["to"], int(t["dep_s"]),
                               int(t["arr_s"]), dict(t["consumption"]))
                          for t in doc["trips"])
            dhs = tuple(Deadhead(d["from"], d["to"], int(d["duration_s"]),
                                 dict(d["consumption"]), dict(d["cost"]))
                        for d in doc["deadheads"])
            chargers = tuple(
                Charger(c["id"], int(c["slots"]), c["grid_point"],
                        dict(c["profiles"]),
                        tuple(tuple(w) for w in c["windows"]) if c.get("windows")
                        else None,
                        float(c.get("step_consumption", 0.0)))
                for c in doc["chargers"])
            gps = tuple(GridPoint(g["id"],
                                  tuple(tuple(x) for x in g["max_power_kw"]),
                                  tuple(tuple(x) for x in g["energy_price"]))
                        for g in doc["grid_points"])
            profiles = {name: ChargingPowerProfile.from_dict(p, name)
                        for name, p in doc.get("profiles", {}).items()}
            mixes = tuple(MixConstraint(tuple(tuple(pt) for pt in m["plan_types"]),
                                        tuple(m["coeffs"]), float(m["lower"]),
                                        float(m["upper"]))
                          for m in doc.get("mix_constraints", []))
        except KeyError as exc:
            raise InstanceError(f"missing field {exc.args[0]!r}") from exc
        inst = Instance(vehicle_types=vts, depots=deps, trips=trips,
                        deadheads=dhs, chargers=chargers, grid_points=gps,
                        profiles=profiles, mix_constraints=mixes,
                        horizon=horizon, meta=doc.get("meta", {}))
        inst.validate()
        return inst


def dumps_instance(instance: Instance) -> str:
    return json.dumps(instance.to_dict(), sort_keys=True, indent=2) + "\n"


def save_instance(instance: Instance, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_instance(instance))


def load_instance(path) -> Instance:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"not valid JSON: {exc}") from exc
    return Instance.from_dict(doc)

