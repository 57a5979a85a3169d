"""Exhaustive schedule enumeration oracle for small chain instances.

Independent of the MILP: enumerates all set partitions of the trips into
courses, checks each course by searching deadhead routes (with greedy
charging at stations during their grid-power windows) between consecutive
obligations, and returns the minimum number of feasible courses.

Charging policy per visited station: charge every full time step inside the
intersection of the power window with [arrival, latest feasible departure];
both "leave as late as possible" and "leave as soon as done" departure
policies are explored.  Slot-capacity conflicts between courses are ignored,
which is conservative in both directions for the chain instances this oracle
is used on: the single-course solution uses every window once, and claimed
infeasibility of a multi-trip course only becomes more infeasible under
conflicts.
"""

import itertools
import math


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def station_windows(inst):
    """Charger id -> list of (start, end) spans with positive grid power."""
    wins = {}
    for c in inst.chargers:
        gp = inst.grid_point(c.grid_point)
        wins[c.id] = [(s, e) for s, e, kw in gp.max_power_kw if kw > 0]
    return wins


def _charge_plan(spans, arrive, leave, theta, h0):
    """(usable step count, time the last usable step ends) for the stay."""
    total = 0
    t_done = arrive
    for ws, we in spans:
        lo = max(arrive, ws)
        hi = min(leave, we)
        if hi - lo < theta:
            continue
        first = math.ceil((lo - h0) / theta) + 1
        last = math.floor((hi - h0) / theta)
        if last >= first:
            total += last - first + 1
            t_done = max(t_done, h0 + last * theta)
    return total, t_done


class FleetOracle:
    def __init__(self, inst, charge_fn, theta):
        """charge_fn(charger_id, soc, k_steps) -> soc after greedy charging."""
        self.inst = inst
        self.charge = charge_fn
        self.theta = float(theta)
        self.h0 = inst.horizon[0]
        self.windows = station_windows(inst)
        self.adj = {}
        vt = next(v.id for v in inst.vehicle_types if v.electric)
        self.vt = vt
        for d in inst.deadheads:
            self.adj.setdefault(d.origin, []).append(
                (d.destination, d.duration_s, d.consumption.get(vt, 0.0)))
        self.chargers = {c.id for c in inst.chargers}

    def _paths(self, frm, to, max_len=8):
        out = []

        def dfs(node, path):
            if len(path) > max_len:
                return
            if node == to:
                out.append(list(path))
                return
            for dest, dur, cons in self.adj.get(node, []):
                if dest in path:
                    continue
                path.append(dest)
                dfs(dest, path)
                path.pop()

        dfs(frm, [frm])
        return out

    def _leg(self, a, b):
        for dest, dur, cons in self.adj.get(a, []):
            if dest == b:
                return dur, cons
        raise KeyError((a, b))

    def best_arrival_soc(self, frm, t0, y0, target, deadline):
        """Max soc reachable at target by deadline, or None."""
        best = None
        for path in self._paths(frm, target):
            legs = [self._leg(a, b) for a, b in zip(path, path[1:])]
            # latest departure time from each node, backward from the deadline
            latest = [0.0] * len(path)
            latest[-1] = deadline
            for i in range(len(path) - 2, -1, -1):
                latest[i] = latest[i + 1] - legs[i][0]
            if latest[0] < t0:
                continue
            stations = [i for i in range(1, len(path) - 1)
                        if path[i] in self.chargers]
            for policy in itertools.product((0, 1), repeat=len(stations)):
                soc = self._eval_path(path, legs, latest, t0, y0, stations,
                                      policy)
                if soc is not None and (best is None or soc > best):
                    best = soc
        return best

    def _eval_path(self, path, legs, latest, t0, y0, stations, policy):
        t, y = t0, y0
        for i in range(len(path) - 1):
            if i > 0 and path[i] in self.chargers:
                spans = self.windows.get(path[i], [])
                leave_latest = latest[i]
                k, t_done = _charge_plan(spans, t, leave_latest, self.theta,
                                         self.h0)
                if k > 0:
                    y = self.charge(path[i], max(y, 0.0), k)
                pol = policy[stations.index(i)]
                t = leave_latest if pol == 0 else max(t, t_done)
            dur, cons = legs[i]
            t += dur
            y -= cons
            if y < -1e-9:
                return None
            if t > latest[i + 1] + 1e-9:
                return None
        return y

    def course_feasible(self, trip_ids):
        trips = sorted((t for t in self.inst.trips if t.id in trip_ids),
                       key=lambda t: t.departure_s)
        for depot in self.inst.depots:
            if self._course_from_depot(depot.id, trips):
                return True
        return False

    def _course_from_depot(self, depot, trips):
        y = self.best_arrival_soc(depot, self.h0, 1.0, trips[0].origin,
                                  trips[0].departure_s)
        if y is None:
            return False
        t_now = trips[0].departure_s
        for i, trip in enumerate(trips):
            y -= trip.consumption.get(self.vt, 0.0)
            if y < -1e-9:
                return False
            t_now = trip.arrival_s
            if i + 1 < len(trips):
                nxt = trips[i + 1]
                y = self.best_arrival_soc(trip.destination, t_now, y,
                                          nxt.origin, nxt.departure_s)
                if y is None:
                    return False
                t_now = nxt.departure_s
        y = self.best_arrival_soc(trips[-1].destination, t_now, y, depot,
                                  self.inst.horizon[1])
        return y is not None

    def min_fleet(self, max_trips=6):
        trip_ids = [t.id for t in sorted(self.inst.trips,
                                         key=lambda t: t.departure_s)]
        assert len(trip_ids) <= max_trips
        feasible_cache = {}

        def feasible(block):
            key = tuple(block)
            if key not in feasible_cache:
                feasible_cache[key] = self.course_feasible(block)
            return feasible_cache[key]

        best = None
        for part in set_partitions(trip_ids):
            if best is not None and len(part) >= best:
                continue
            if all(feasible(b) for b in part):
                best = len(part)
        return best
