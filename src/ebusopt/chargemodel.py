"""CC-CV charge calculus: exact max-power curves and certified PWL bounds.

A charging power profile maps state of charge (soc, in [0,1]) to the maximal
relative charge rate (soc per second).  The flow of the autonomous ODE
y' = f(y) from an empty battery is the maximum power charge curve; every
supported profile shape has a closed-form flow, so the curve is evaluated
exactly rather than integrated numerically.  From that curve we derive the
charge duration and charge increment operators and build piecewise-linear
under/overestimators of the per-time-step increment, which is what the
scheduling MIP consumes.

The chords of the increment are a lower bound only for a profile concave
in soc: Delta''(y) = f(z)/f(y)^2 * (f'(z) - f'(y)) with z > y the step's
end soc.  The linear and quadratic CV shapes are concave by their
formulas; a tabulated branch is checked on its points and refused if not.
Each domain's certified error bound follows from Delta and its closed-form
slope Delta'(y) = f(z)/f(y) - 1 alone, the same way for every shape.

Because f(1) = 0 for a CC-CV profile, the flow only reaches a full battery
asymptotically.  All curves therefore stop at an effective full level
soc_cap = 1 - DEFAULT_FULL_TOLERANCE and every operator clamps there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

DEFAULT_FULL_TOLERANCE = 1e-3
DEFAULT_CURVE_TOLERANCE = 1e-8

CV_SHAPES = ("linear", "quadratic", "tabulated")


class ChargeModelError(ValueError):
    """Invalid profile, curve, or operator input."""


class DegenerateGridError(ChargeModelError):
    """Breakpoint grid has coinciding knots (m too large for the domain)."""


# ---------------------------------------------------------------------------
# Charging power profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChargingPowerProfile:
    """Maximal relative charge rate as a function of soc.

    Constant rate ``cc_rate`` below ``cv_break``, then a non-increasing CV
    branch that starts at ``cc_rate`` and falls to 0 at soc 1.  Supported CV
    shapes:

    - ``linear``:     cc_rate * (1 - y) / (1 - cv_break)
    - ``quadratic``:  cc_rate * (1 - s^2),  s = (y - cv_break) / (1 - cv_break)
    - ``tabulated``:  linear interpolation of ``cv_points`` [(soc, rate), ...]

    A table must be finite and run from cc_rate at cv_break to 0 at soc 1
    with slopes that start at or below 0 and never rise (non-increasing and
    concave), up to 1e-9 of the ramp slope cc_rate / (1 - cv_break).  Its
    rate is then positive up to soc_cap, so its flow reaches soc_cap.

    ``cv_break == 1.0`` is the degenerate constant-rate profile (no CV phase).
    """

    cc_rate: float
    cv_break: float
    cv_shape: str = "linear"
    cv_points: Optional[tuple[tuple[float, float], ...]] = None
    name: str = ""
    # cv_points as (socs, rates) arrays, built once in __post_init__
    _cv_table: Optional[tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.cc_rate < math.inf:
            raise ChargeModelError(
                f"cc_rate must be positive and finite, got {self.cc_rate}")
        if not 0.0 < self.cv_break <= 1.0:
            raise ChargeModelError(f"cv_break must lie in (0, 1], got {self.cv_break}")
        if self.cv_shape not in CV_SHAPES:
            raise ChargeModelError(f"unknown cv_shape {self.cv_shape!r}")
        if self.cv_shape == "tabulated" and self.cv_break < 1.0:
            if not self.cv_points or len(self.cv_points) < 2:
                raise ChargeModelError("tabulated profile needs >= 2 cv_points")
            pts = np.asarray(self.cv_points, dtype=float)
            if not np.isfinite(pts).all():
                raise ChargeModelError("cv_points must be finite numbers")
            ys, rs = pts.T
            if np.any(np.diff(ys) <= 0):
                raise ChargeModelError("cv_points socs must be strictly increasing")
            if abs(ys[0] - self.cv_break) > 1e-9 or abs(ys[-1] - 1.0) > 1e-9:
                raise ChargeModelError("cv_points must span [cv_break, 1]")
            if abs(rs[0] - self.cc_rate) > 1e-6 * self.cc_rate:
                raise ChargeModelError("cv_points must start at cc_rate")
            if abs(rs[-1]) > 1e-9 * self.cc_rate:
                raise ChargeModelError("cv_points must end at rate 0")
            slopes = np.diff(rs) / np.diff(ys)
            tol = 1e-9 * self.cc_rate / (1.0 - self.cv_break)
            if slopes[0] > tol:
                raise ChargeModelError(
                    "cv rate must be non-increasing on [cv_break, 1]")
            rising = np.flatnonzero(np.diff(slopes) > tol)
            if len(rising):
                raise ChargeModelError(f"cv rate must be concave: its slope "
                                       f"rises at soc {ys[rising[0] + 1]:.6g}")
            object.__setattr__(self, "_cv_table", (ys, rs))

    def rate(self, y):
        """Maximal charge rate at soc y (vectorized, clamped to [0, 1])."""
        y = np.asarray(y, dtype=float)
        yc = np.clip(y, 0.0, 1.0)
        if self.cv_break >= 1.0:
            out = np.full_like(yc, self.cc_rate)
            return out if out.shape else float(out)
        w = 1.0 - self.cv_break
        if self.cv_shape == "linear":
            cv = self.cc_rate * (1.0 - yc) / w
        elif self.cv_shape == "quadratic":
            s = (yc - self.cv_break) / w
            cv = self.cc_rate * (1.0 - s * s)
        else:
            cv = np.interp(yc, *self._cv_table)
        out = np.where(yc < self.cv_break, self.cc_rate, np.maximum(cv, 0.0))
        return out if out.shape else float(out)

    def to_dict(self) -> dict:
        d = {
            "cc_rate_per_s": self.cc_rate,
            "cv_break": self.cv_break,
            "cv_shape": self.cv_shape,
        }
        if self.cv_points is not None:
            d["cv_points"] = [[float(a), float(b)] for a, b in self.cv_points]
        return d

    @staticmethod
    def from_dict(d: dict, name: str = "") -> "ChargingPowerProfile":
        pts = d.get("cv_points")
        return ChargingPowerProfile(
            cc_rate=float(d["cc_rate_per_s"]),
            cv_break=float(d["cv_break"]),
            cv_shape=d.get("cv_shape", "linear"),
            cv_points=tuple((float(a), float(b)) for a, b in pts) if pts else None,
            name=name,
        )


# ---------------------------------------------------------------------------
# Sampled charge curves and the duration / increment operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampledChargeCurve:
    """Piecewise-linear soc-over-time curve with a monotone inverse.

    ``times`` and ``socs`` are strictly increasing, start at (0, 0), and end
    at (t_full, soc_cap).  Evaluation clamps: soc_at(t) = soc_cap for
    t >= t_full.  The inverse is evaluated on the same samples, so curve and
    inverse are exact inverses of each other, which makes step composition
    exact up to floating point.
    """

    times: np.ndarray
    socs: np.ndarray
    soc_cap: float
    t_full: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.socs, dtype=float)
        if t.shape != s.shape or t.ndim != 1 or len(t) < 2:
            raise ChargeModelError("curve needs matching 1-d time/soc samples")
        if np.any(np.diff(t) <= 0) or np.any(np.diff(s) <= 0):
            raise ChargeModelError("curve samples must be strictly increasing")
        if abs(t[0]) > 1e-12 or abs(s[0]) > 1e-12:
            raise ChargeModelError("curve must start at (0, 0)")
        if abs(s[-1] - self.soc_cap) > 1e-9:
            raise ChargeModelError("curve must end at soc_cap")

    def soc_at(self, t):
        """soc after charging an empty battery for time t (clamped)."""
        return np.interp(t, self.times, self.socs)

    def time_at(self, y):
        """Inverse: time at which the curve reaches soc y."""
        y_arr = np.asarray(y, dtype=float)
        if np.any(y_arr < -1e-9) or np.any(y_arr > self.soc_cap + 1e-9):
            raise ChargeModelError(
                f"soc {y} outside [0, soc_cap={self.soc_cap}]")
        return np.interp(y_arr, self.socs, self.times)

    def increment(self, y, t):
        """soc gained by charging from soc y for duration t (clamped at cap)."""
        if np.any(np.asarray(t) < 0):
            raise ChargeModelError("charge duration must be nonnegative")
        start = self.time_at(np.minimum(y, self.soc_cap))
        end = self.soc_at(start + t)
        return np.maximum(end - np.minimum(y, self.soc_cap), 0.0)


@dataclass(frozen=True)
class MaxPowerCurve(SampledChargeCurve):
    """Flow of y' = f(y) from (0, 0), tabulated up to soc_cap.

    The CC phase is stored exactly (two knots, slope cc_rate); on the CV
    phase the knots are exact values of the closed-form flow, spaced densely
    enough that linear interpolation stays below the curve tolerance.
    """

    profile: ChargingPowerProfile = None
    t_cv: float = 0.0


def _cv_flow(profile: ChargingPowerProfile, soc_cap: float):
    """Exact flow of y' = f(y) on the CV phase, started at (t_cv, cv_break).

    Returns (tau_cap, flow): tau_cap is the time from cv_break to soc_cap and
    flow(tau) the soc reached after charging for tau (vectorized).  On a
    table segment the rate is r0 + b * (y - y0), whose flow is
    y0 + r0 * expm1(b * tau) / b (y0 + r0 * tau for b = 0).
    """
    cc, yv = profile.cc_rate, profile.cv_break
    w = 1.0 - yv
    if profile.cv_shape == "linear":
        return (w / cc * math.log(w / (1.0 - soc_cap)),
                lambda tau: 1.0 - w * np.exp(-cc * tau / w))
    if profile.cv_shape == "quadratic":
        return (w / cc * math.atanh((soc_cap - yv) / w),
                lambda tau: yv + w * np.tanh(cc * tau / w))

    xs, rs = profile._cv_table
    rs = np.maximum(rs, 0.0)  # the last rate may be -1e-9 * cc
    j = int(np.searchsorted(xs, soc_cap, side="right")) - 1  # segment of soc_cap
    x0, r0 = xs[:j + 1], rs[:j + 1]
    b = np.diff(rs[:j + 2]) / np.diff(xs[:j + 2])
    flat = b == 0.0
    b_safe = np.where(flat, 1.0, b)
    # time to cross segments 0..j-1, then to reach soc_cap inside segment j
    dy = np.append(np.diff(x0), soc_cap - x0[-1])
    seg_t = np.where(flat, dy / r0, np.log1p(b * dy / r0) / b_safe)
    t_start = np.concatenate([[0.0], np.cumsum(seg_t)])

    def flow(tau):
        k = np.clip(np.searchsorted(t_start, tau, side="right") - 1, 0, j)
        s = tau - t_start[k]
        return x0[k] + r0[k] * np.where(flat[k], s, np.expm1(b[k] * s) / b_safe[k])

    return float(t_start[-1]), flow


def solve_max_power_curve(profile: ChargingPowerProfile) -> MaxPowerCurve:
    """Tabulate the maximum power charge curve, the flow of y' = f(y).

    ``DEFAULT_CURVE_TOLERANCE`` bounds the linear-interpolation error of
    the returned tabulation: CV knots are spaced
    h = sqrt(8 * DEFAULT_CURVE_TOLERANCE / max|zeta''|) apart in time (at
    most 1/64 of the linear CV duration) and the last knot sits exactly at
    (t_full, soc_cap).
    """
    soc_cap = 1.0 - DEFAULT_FULL_TOLERANCE
    cc = profile.cc_rate

    if profile.cv_break >= soc_cap:
        # pure constant-current up to the cap
        t_cap = soc_cap / cc
        times = np.array([0.0, t_cap])
        socs = np.array([0.0, soc_cap])
        return MaxPowerCurve(times=times, socs=socs, soc_cap=soc_cap,
                             t_full=t_cap, profile=profile, t_cv=t_cap)

    t_cv = profile.cv_break / cc

    # curvature of the curve on the CV phase: |zeta''| = |f'(y)| * f(y)
    ys = np.linspace(profile.cv_break, soc_cap, 2048)
    rates = np.atleast_1d(profile.rate(ys))
    dy = ys[1] - ys[0]
    fprime = np.gradient(rates, dy)
    curv = float(np.max(np.abs(fprime) * rates)) or 1e-30
    h_interp = math.sqrt(8.0 * DEFAULT_CURVE_TOLERANCE / curv)
    h = min(h_interp, (1.0 - profile.cv_break) / cc / 64.0)

    tau_cap, flow = _cv_flow(profile, soc_cap)
    t_full = t_cv + tau_cap
    # knots t_cv + h*k strictly before t_full, then (t_full, soc_cap)
    t_cv_knots = t_cv + h * np.arange(1, math.ceil(tau_cap / h))
    t_cv_knots = t_cv_knots[t_cv_knots < t_full]
    times = np.concatenate([[0.0, t_cv], t_cv_knots, [t_full]])
    socs = np.concatenate([[0.0, profile.cv_break],
                           flow(t_cv_knots - t_cv), [soc_cap]])
    return MaxPowerCurve(times=times, socs=socs, soc_cap=soc_cap,
                         t_full=t_full, profile=profile, t_cv=t_cv)


def increment_slope(curve: MaxPowerCurve, y, theta: float) -> np.ndarray:
    """Analytic slope of the per-step increment curve at socs y (vectorized).

    d/dy [zeta(zeta^-1(y) + theta) - y] = f(z)/f(y) - 1 with z the end-of-step
    soc, except in the clamp region (z at cap) where the slope is -1.
    """
    y = np.clip(np.asarray(y, dtype=float), 0.0, curve.soc_cap)
    z = y + curve.increment(y, theta)
    slope = curve.profile.rate(z) / curve.profile.rate(y) - 1.0
    return np.where(z >= curve.soc_cap - 1e-12, -1.0, slope)


def compose_steps_check(curve: SampledChargeCurve, y0: float,
                        steps: Sequence[float]):
    """Iterated propagation over ``steps`` versus one direct increment.

    Returns (iterated_final_soc, direct_final_soc); the two agree because
    charging along one curve composes over consecutive time steps.
    """
    if any(s <= 0 for s in steps):
        raise ChargeModelError("all steps must be positive")
    y = float(y0)
    for s in steps:
        y = y + float(curve.increment(y, s))
    direct = float(y0) + float(curve.increment(y0, float(sum(steps))))
    return y, direct


# ---------------------------------------------------------------------------
# Piecewise-linear increment domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncrementDomainPWL:
    """Linear segments phi <= alpha_j * y + beta_j bounding the step increment.

    ``kind`` is "under" (chords through the increment curve, dominated by the
    exact increment) or "over" (tangents at interval midpoints, dominating
    it).  Slopes are strictly decreasing with alpha_1 = 0, so the evaluated
    bound min_j(alpha_j y + beta_j) is concave.

    ``error_bound`` certifies the largest gap between the bound and the
    increment over [0, soc_cap]: increment minus bound for "under", bound
    minus increment for "over".  The builders derive it from the increment
    curve and its slope at the knots, with nothing declared by the profile.
    """

    theta: float
    slopes: np.ndarray
    offsets: np.ndarray
    breakpoints: np.ndarray
    kind: str
    error_bound: float
    soc_cap: float

    def __post_init__(self):
        a = np.asarray(self.slopes, dtype=float)
        b = np.asarray(self.offsets, dtype=float)
        if a.shape != b.shape or a.ndim != 1 or len(a) < 1:
            raise ChargeModelError("domain needs matching slope/offset arrays")
        if abs(a[0]) > 1e-12:
            raise ChargeModelError("first segment slope must be 0")
        if np.any(np.diff(a) >= -1e-9):
            raise ChargeModelError("segment slopes must be strictly decreasing")
        ys = np.linspace(0.0, self.soc_cap, 257)
        vals = self.value(ys)
        if np.min(vals) < -1e-9:
            raise ChargeModelError("domain bound must be nonnegative on [0, cap]")
        if abs(float(self.value(self.soc_cap))) > 1e-6:
            raise ChargeModelError("domain bound must vanish at soc_cap")

    @property
    def segment_count(self) -> int:
        return len(self.slopes)

    def value(self, y):
        """Evaluated bound min_j(alpha_j * y + beta_j), segment by segment."""
        y_arr = np.asarray(y, dtype=float)
        out = self.offsets[0] + y_arr * self.slopes[0]
        for a, b in zip(self.slopes[1:], self.offsets[1:]):
            out = np.minimum(out, b + y_arr * a)
        return float(out) if out.ndim == 0 else out

    def greedy_step(self, y):
        """One maximal admissible step from soc y (nonnegative, cap-clamped)."""
        inc = np.clip(self.value(y), 0.0, None)
        return np.minimum(inc, np.maximum(self.soc_cap - y, 0.0))

    def greedy_final_soc(self, y0, n_steps: int):
        """soc after charging greedily at the bound for n_steps steps.

        Vectorized over start socs ``y0``; each element follows the same
        recurrence, bit for bit, as a scalar start.
        """
        y = np.asarray(y0, dtype=float)
        for _ in range(n_steps):
            y = y + self.greedy_step(y)
        return float(y) if y.ndim == 0 else y


def _breakpoint_grid(curve: MaxPowerCurve, theta: float, m: int) -> np.ndarray:
    """Knots y_0 = 0, y_1 = zeta(t_cv - theta), rest equidistant to soc_cap.

    Anchoring the first inner knot where a full step still fits inside the
    constant-current phase makes the first segment exactly flat.  If theta
    exceeds the CC phase the anchor collapses to 0 and the grid is plain
    equidistant.

    The soc_cap clamp puts a kink into the increment curve at
    y_c = zeta(t_full - theta), so the nearest interior knot is snapped onto
    it; right of y_c the increment curve is exactly cap - y and chords are
    exact.
    """
    if m < 2:
        raise ChargeModelError("need at least 2 segments")
    if theta <= 0:
        raise ChargeModelError("theta must be positive")
    y1 = float(curve.soc_at(curve.t_cv - theta)) if curve.t_cv > theta else 0.0
    if y1 > 1e-12:
        knots = np.concatenate([[0.0], np.linspace(y1, curve.soc_cap, m)])
        first_interior = 2
    else:
        knots = np.linspace(0.0, curve.soc_cap, m + 1)
        first_interior = 1
    if curve.t_full > theta:
        y_corner = float(curve.soc_at(curve.t_full - theta))
        interior = np.arange(first_interior, len(knots) - 1)
        if len(interior) and knots[first_interior - 1] < y_corner < curve.soc_cap:
            nearest = interior[np.argmin(np.abs(knots[interior] - y_corner))]
            knots[nearest] = y_corner
            knots = np.sort(knots)
    if np.any(np.diff(knots) <= 1e-12):
        raise DegenerateGridError(
            f"m={m} leaves coinciding breakpoints on [{y1:.6g}, {curve.soc_cap:.6g}]")
    return knots


def _merge_collinear(slopes: list[float], offsets: list[float],
                     kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Drop consecutive segments with (numerically) equal slopes.

    Collinear segments arise on exactly-linear stretches of the increment
    curve, where tabulation noise (~1e-8) can even make the slope sequence
    locally non-monotone; for overestimators the tighter offset wins.
    """
    a_out, b_out = [slopes[0]], [offsets[0]]
    for a, b in zip(slopes[1:], offsets[1:]):
        if abs(a - a_out[-1]) <= 1e-7:
            if kind == "over":
                b_out[-1] = min(b_out[-1], b)
            continue
        a_out.append(a)
        b_out.append(b)
    return np.asarray(a_out), np.asarray(b_out)


def build_underestimator(curve: MaxPowerCurve, theta: float,
                         m: int) -> IncrementDomainPWL:
    """Chord interpolation of the step-increment curve (dominated bound).

    For a concave charging profile the increment curve is concave, so every
    chord lies below it and min over the chord lines underestimates the true
    admissible increment everywhere.  The curve also lies below its tangents
    at a chord's knots, of slopes p >= q, so a chord of slope s over width h
    is off by at most the height h (p - s)(s - q) / (p - q) of the triangle
    they enclose.
    """
    knots = _breakpoint_grid(curve, theta, m)
    vals = np.asarray(curve.increment(knots, theta), dtype=float)
    chords = np.diff(vals) / np.diff(knots)
    tangents = increment_slope(curve, knots, theta)
    rise = np.maximum(tangents[:-1] - chords, 0.0)
    fall = np.maximum(chords - tangents[1:], 0.0)
    span = rise + fall
    heights = np.diff(knots) * rise * fall / np.where(span > 0.0, span, 1.0)
    slopes, offsets = chords.tolist(), (vals[:-1] - chords * knots[:-1]).tolist()
    flat_first = knots[1] < curve.soc_at(max(curve.t_cv - theta, 0.0)) + 1e-12 \
        and curve.t_cv > theta
    if flat_first:
        # the first chord spans the CC plateau; snap away tabulation noise
        slopes[0], offsets[0] = 0.0, float(vals[0])
    else:
        flat = float(curve.increment(0.0, theta))
        slopes.insert(0, 0.0)
        offsets.insert(0, flat)
    a, b = _merge_collinear(slopes, offsets, "under")
    return IncrementDomainPWL(
        theta=theta, slopes=a, offsets=b, breakpoints=knots, kind="under",
        error_bound=float(np.max(heights)), soc_cap=curve.soc_cap)


def build_overestimator(curve: MaxPowerCurve, theta: float,
                        m: int) -> IncrementDomainPWL:
    """Tangents at knot-interval midpoints (dominating bound).

    Each tangent of the concave increment curve lies above it, so the min
    over tangent lines overestimates the admissible increment and touches it
    at every midpoint.  The implicit battery-cap segment phi <= cap - y is
    appended explicitly.  A tangent minus the curve is convex on its
    interval, so its largest gap there is at one of the two knots.
    """
    knots = _breakpoint_grid(curve, theta, m)
    mids = 0.5 * (knots[:-1] + knots[1:])
    tangents = increment_slope(curve, mids, theta)
    tangents = np.where(np.abs(tangents) <= 1e-9, 0.0, tangents)
    lifts = np.asarray(curve.increment(mids, theta)) - tangents * mids
    vals = np.asarray(curve.increment(knots, theta))
    gaps = np.maximum(tangents * knots[:-1] + lifts - vals[:-1],
                      tangents * knots[1:] + lifts - vals[1:])
    slopes, offsets = tangents.tolist(), lifts.tolist()
    if slopes[0] != 0.0:
        slopes.insert(0, 0.0)
        offsets.insert(0, float(curve.increment(0.0, theta)))
    # battery-cap segment
    if slopes[-1] > -1.0 + 1e-10:
        slopes.append(-1.0)
        offsets.append(curve.soc_cap)
    a, b = _merge_collinear(slopes, offsets, "over")
    return IncrementDomainPWL(
        theta=theta, slopes=a, offsets=b, breakpoints=knots, kind="over",
        error_bound=max(float(np.max(gaps)), 0.0), soc_cap=curve.soc_cap)


def linear_reference_domain(curve: SampledChargeCurve,
                            theta: float) -> IncrementDomainPWL:
    """Fully linear charging model: rate fixed at cap / t_full.

    Two segments (flat step gain, battery cap); this is the classical linear
    charge curve through (0, 0) and (t_full, cap) used as a baseline.
    """
    rate = curve.soc_cap / curve.t_full
    return IncrementDomainPWL(
        theta=theta,
        slopes=np.array([0.0, -1.0]),
        offsets=np.array([rate * theta, curve.soc_cap]),
        breakpoints=np.array([0.0, curve.soc_cap - rate * theta, curve.soc_cap]),
        kind="under",
        error_bound=float("nan"),
        soc_cap=curve.soc_cap)


# ---------------------------------------------------------------------------
# Baseline: linear spline of the charge curve itself
# ---------------------------------------------------------------------------

def spline_charge_curve(curve: SampledChargeCurve,
                        time_grid: Sequence[float]) -> SampledChargeCurve:
    """Linear spline interpolation of the charge curve on a time grid.

    This is the widely used baseline that approximates soc-over-time
    directly.  The endpoints 0 and t_full are added if missing.  For a
    concave curve the spline underestimates soc pointwise, yet the induced
    increment operator both under- and overestimates (see
    detect_spline_oscillation).
    """
    grid = np.asarray(time_grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise ChargeModelError("spline grid must be strictly increasing")
    if np.any(grid < -1e-12) or np.any(grid > curve.t_full + 1e-9):
        raise ChargeModelError("spline grid outside [0, t_full]")
    ts = grid.tolist()
    if not ts or ts[0] > 1e-12:
        ts.insert(0, 0.0)
    if ts[-1] < curve.t_full - 1e-12:
        ts.append(curve.t_full)
    else:
        ts[-1] = curve.t_full
    times = np.asarray(ts)
    socs = np.asarray(curve.soc_at(times))
    socs[0], socs[-1] = 0.0, curve.soc_cap
    return SampledChargeCurve(times=times, socs=socs,
                              soc_cap=curve.soc_cap, t_full=curve.t_full)


@dataclass(frozen=True)
class OscillationWitness:
    """Sign witnesses of the spline-induced increment error.

    ``negative``/``positive`` are (y, t, eps) with eps = spline increment
    minus exact increment; either may be None when the search is
    inconclusive at the given resolution.
    """

    negative: Optional[tuple[float, float, float]]
    positive: Optional[tuple[float, float, float]]

    @property
    def conclusive(self) -> bool:
        return self.negative is not None and self.positive is not None


def detect_spline_oscillation(curve: SampledChargeCurve,
                              spline: SampledChargeCurve,
                              grid_resolution: int = 200,
                              threshold: float = 1e-9) -> OscillationWitness:
    """Grid search for both error signs of the spline increment operator.

    Returns one witness of underestimation (eps < 0) and one of
    overestimation (eps > 0) of the exact increment by the spline-induced
    operator; a missing witness means the search was inconclusive, which
    happens only when the spline matches the curve on the grid.
    """
    ys = np.linspace(0.0, curve.soc_cap, grid_resolution)
    ts = np.linspace(curve.t_full / grid_resolution, curve.t_full,
                     grid_resolution)
    best_neg = best_pos = None
    for t in ts:
        eps = np.asarray(spline.increment(ys, t)) - np.asarray(curve.increment(ys, t))
        i_min, i_max = int(np.argmin(eps)), int(np.argmax(eps))
        if eps[i_min] < -threshold and (best_neg is None or eps[i_min] < best_neg[2]):
            best_neg = (float(ys[i_min]), float(t), float(eps[i_min]))
        if eps[i_max] > threshold and (best_pos is None or eps[i_max] > best_pos[2]):
            best_pos = (float(ys[i_max]), float(t), float(eps[i_max]))
    return OscillationWitness(negative=best_neg, positive=best_pos)


# ---------------------------------------------------------------------------
# Course propagation
# ---------------------------------------------------------------------------

ROLE_DEPOT_START = "depot-start"
ROLE_TRIP_START = "trip-start"
ROLE_TRIP_END = "trip-end"
ROLE_CHARGE_ARRIVAL = "charge-arrival"
ROLE_CHARGE_DEPARTURE = "charge-departure"
ROLE_DEPOT_END = "depot-end"


@dataclass(frozen=True)
class CourseTrace:
    """A vehicle course as an element sequence with per-transition data.

    ``consumptions[i]`` is the relative energy spent moving from element i to
    i+1 (zero across a recharge), ``durations[i]`` is nonzero exactly on
    charge-arrival -> charge-departure transitions and gives the charge
    window length.  After propagation the per-element soc ledgers, the
    stepwise error eps = soc_approx - soc_exact, and sigma (number of
    completed recharge events before each element) are filled in.
    """

    roles: tuple[str, ...]
    consumptions: tuple[float, ...]
    durations: tuple[float, ...]
    soc_exact: Optional[tuple[float, ...]] = None
    soc_approx: Optional[tuple[float, ...]] = None
    eps: Optional[tuple[float, ...]] = None
    sigma: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        n = len(self.roles)
        if len(self.consumptions) != n - 1 or len(self.durations) != n - 1:
            raise ChargeModelError("need one transition entry per element pair")
        if any(c < 0 for c in self.consumptions):
            raise ChargeModelError("consumptions must be nonnegative")
        for i, (a, b) in enumerate(zip(self.roles, self.roles[1:])):
            charging = a == ROLE_CHARGE_ARRIVAL and b == ROLE_CHARGE_DEPARTURE
            if charging and self.durations[i] <= 0:
                raise ChargeModelError(f"charge window {i} needs positive duration")
            if not charging and self.durations[i] != 0:
                raise ChargeModelError(f"transition {i} is not a charge window")


def soc_ledger(trace: CourseTrace, charge):
    """Soc at every element of ``trace``, and sigma before every element.

    The one walk that advances soc along a course, from a full battery
    (soc 1) at its first element.  A leg subtracts its consumption; the
    w-th charge window (w = 0, 1, ...) turns its entry soc y into
    ``charge(w, y)``, so the rule owns every per-step detail: the
    increment it grants, the cap and any idle draw.
    """
    y, events = 1.0, 0
    socs, sigma = [y], [0]
    for cons, duration in zip(trace.consumptions, trace.durations):
        if duration > 0:
            y = charge(events, y)
            events += 1
        else:
            y -= cons
        socs.append(y)
        sigma.append(events)
    return tuple(socs), tuple(sigma)


def trace_ledgers(trace: CourseTrace, exact_rule,
                  approx_rule=None) -> CourseTrace:
    """``trace`` with the ``soc_ledger`` of each rule (no approximate rule:
    a mirror of the exact ledger), eps and sigma filled in."""
    soc_e, sigma = soc_ledger(trace, exact_rule)
    soc_a = (soc_e if approx_rule is None
             else soc_ledger(trace, approx_rule)[0])
    eps = tuple(a - e for a, e in zip(soc_a, soc_e))
    return replace(trace, soc_exact=soc_e, soc_approx=soc_a, eps=eps,
                   sigma=sigma)


def propagate_course(trace: CourseTrace,
                     exact: SampledChargeCurve,
                     approx=None) -> CourseTrace:
    """Propagate exact and approximate charge states along a course.

    Recharge events charge greedily at the maximal admissible rate: the
    exact ledger uses the curve's increment operator over the whole window,
    the approximate ledger uses ``approx`` (an IncrementDomainPWL iterated
    per time step, or a spline charge curve, or None to mirror the exact
    ledger).  Both ledgers are runs of ``soc_ledger``, the soc arithmetic
    that validation uses too; a trace carries no idle draw.  A soc below
    zero is recorded, not raised; feasibility is judged elsewhere.
    """
    windows = [t for t in trace.durations if t > 0]

    def along(curve):
        def charge(w, soc):
            if soc < 0 or soc >= curve.soc_cap:
                return soc  # stranded or already (effectively) full
            return min(soc + float(curve.increment(soc, windows[w])),
                       curve.soc_cap)
        return charge

    def greedy(w, soc):
        t = windows[w]
        k = int(round(t / approx.theta))
        if abs(k * approx.theta - t) > 1e-6 * max(1.0, approx.theta):
            raise ChargeModelError(
                f"window {t} is not a multiple of theta={approx.theta}")
        return approx.greedy_final_soc(soc, k) if soc >= 0 else soc

    rule = greedy if isinstance(approx, IncrementDomainPWL) else (
        None if approx is None else along(approx))
    return trace_ledgers(trace, along(exact), rule)
