import math

import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ebusopt.chargemodel as cm
from ebusopt.generators import _wc_profile
from _oracles import (constant_curve, linear_cv_curve, pwl_value,
                      quadratic_cv_curve)
from test_acceptance import sine_tabulated_profile

THETA = 0.2


def make_linear(c=0.5, y_v=0.8):
    return cm.solve_max_power_curve(
        cm.ChargingPowerProfile(cc_rate=c, cv_break=y_v, cv_shape="linear"))


def make_quadratic(c=0.5, y_v=0.6):
    return cm.solve_max_power_curve(
        cm.ChargingPowerProfile(cc_rate=c, cv_break=y_v, cv_shape="quadratic"))


def make_constant(c=0.5):
    return cm.solve_max_power_curve(
        cm.ChargingPowerProfile(cc_rate=c, cv_break=1.0))


# ---------------------------------------------------------------------------
# profile validation
# ---------------------------------------------------------------------------

def test_profile_rejects_bad_parameters():
    with pytest.raises(cm.ChargeModelError):
        cm.ChargingPowerProfile(cc_rate=0.0, cv_break=0.8)
    with pytest.raises(cm.ChargeModelError):
        cm.ChargingPowerProfile(cc_rate=0.5, cv_break=0.0)
    with pytest.raises(cm.ChargeModelError):
        cm.ChargingPowerProfile(cc_rate=0.5, cv_break=1.2)


@pytest.mark.parametrize("cc_rate", [math.inf, math.nan, -0.5])
def test_profile_rejects_a_rate_that_is_not_positive_and_finite(cc_rate):
    with pytest.raises(cm.ChargeModelError, match="cc_rate"):
        cm.ChargingPowerProfile(cc_rate=cc_rate, cv_break=0.8)


def test_profile_rejects_increasing_tabulated_rate():
    pts = ((0.8, 0.5), (0.9, 0.6), (1.0, 0.0))
    with pytest.raises(cm.ChargeModelError):
        cm.ChargingPowerProfile(cc_rate=0.5, cv_break=0.8, cv_shape="tabulated",
                                cv_points=pts)


def _convex_table(cc, y_v=0.8):
    ys = np.linspace(y_v, 1.0, 101)
    rates = cc * ((1.0 - ys) / (1.0 - y_v)) ** 2
    return tuple(zip(ys.tolist(), rates.tolist()))


def test_profile_concavity_check():
    # the table is checked exactly on its points, relative to the ramp slope:
    # a convex branch is refused at the unit rate and at the per-second rates
    # of the synthetic (0.7/2400) and worst-case (0.5/600) generators, and so
    # are tables whose rate stalls at 0 before soc 1 or holds a NaN
    nan = float("nan")
    tables = [(cc, _convex_table(cc)) for cc in (0.5, 0.7 / 2400.0, 0.5 / 600.0)]
    tables += [
        (0.5, ((0.8, 0.5), (0.9, 0.0), (1.0, 0.0))),
        (0.5, ((0.8, 0.5), (0.85, 0.25), (0.9, 0.0), (1.0, 0.0))),
        (0.5, ((0.8, 0.5), (nan, 0.25), (1.0, 0.0))),
        (0.5, ((0.8, 0.5), (0.9, nan), (1.0, 0.0))),
    ]
    for cc, pts in tables:
        with pytest.raises(cm.ChargeModelError):
            cm.ChargingPowerProfile(cc_rate=cc, cv_break=0.8, cv_shape="tabulated",
                                    cv_points=pts)


def test_profile_roundtrip_dict():
    p = cm.ChargingPowerProfile(cc_rate=0.4, cv_break=0.7, cv_shape="quadratic")
    q = cm.ChargingPowerProfile.from_dict(p.to_dict())
    assert q == p
    # an old file's "concave" key is ignored; the shape decides
    assert "concave" not in p.to_dict()
    assert cm.ChargingPowerProfile.from_dict({**p.to_dict(), "concave": False}) == p
    # so is an old file's curvature bound: the error bound is derived
    assert "cv_second_derivative_bound" not in p.to_dict()
    for bound in (0.0, 25.0, math.nan):
        assert cm.ChargingPowerProfile.from_dict(
            {**p.to_dict(), "cv_second_derivative_bound": bound}) == p


def test_tabulated_profile_caches_table_by_value():
    pts = ((0.8, 0.5), (0.9, 0.25), (1.0, 0.0))
    p = cm.ChargingPowerProfile(cc_rate=0.5, cv_break=0.8, cv_shape="tabulated",
                                cv_points=pts)
    q = cm.ChargingPowerProfile.from_dict(p.to_dict())
    assert q == p and hash(q) == hash(p)
    assert q.to_dict() == p.to_dict()
    assert "_cv_table" not in repr(p)
    r = pickle.loads(pickle.dumps(p))
    assert r == p and hash(r) == hash(p)
    assert np.array_equal(r._cv_table[0], [0.8, 0.9, 1.0])
    assert np.array_equal(r._cv_table[1], [0.5, 0.25, 0.0])
    assert r.rate(0.85) == p.rate(0.85) == pytest.approx(0.375)


# ---------------------------------------------------------------------------
# solve_max_power_curve
# ---------------------------------------------------------------------------

def test_constant_profile_curve_is_linear():
    curve = make_constant(0.5)
    assert curve.t_full == pytest.approx(2.0 * curve.soc_cap)
    for t in (0.0, 0.5, 1.3):
        assert float(curve.soc_at(t)) == pytest.approx(0.5 * t, abs=1e-12)


def test_linear_cv_curve_matches_closed_form():
    curve = make_linear(0.5, 0.8)
    oracle = linear_cv_curve(0.5, 0.8, curve.soc_cap)
    assert curve.t_cv == pytest.approx(1.6)
    ts = np.linspace(0.0, curve.t_full, 700)
    err = np.max(np.abs(curve.soc_at(ts) - oracle.soc_at(ts)))
    assert err < 1e-7
    # zeta(1.6 + ln 20 / 2.5) = 0.99
    t99 = 1.6 + math.log(20.0) / 2.5
    assert float(curve.soc_at(t99)) == pytest.approx(0.99, abs=1e-7)


def test_quadratic_cv_curve_matches_closed_form():
    curve = make_quadratic(0.5, 0.6)
    oracle = quadratic_cv_curve(0.5, 0.6, curve.soc_cap)
    ts = np.linspace(0.0, curve.t_full, 700)
    assert np.max(np.abs(curve.soc_at(ts) - oracle.soc_at(ts))) < 1e-7


def test_curve_boundary_and_monotonicity():
    for curve in (make_linear(), make_quadratic(), make_constant()):
        assert float(curve.soc_at(0.0)) == 0.0
        assert np.all(np.diff(curve.socs) > 0)
        assert np.all(np.diff(curve.times) > 0)


def test_curve_satisfies_ode_at_midpoints():
    curve = make_quadratic(0.5, 0.6)
    t_mid = 0.5 * (curve.times[1:] + curve.times[:-1])
    slopes = np.diff(curve.socs) / np.diff(curve.times)
    rates = np.atleast_1d(curve.profile.rate(curve.soc_at(t_mid)))
    mask = t_mid > curve.t_cv  # CC phase is stored exactly
    assert np.max(np.abs(slopes[mask] - rates[mask])) < 1e-5


def test_rate_vanishing_only_at_full_charge_builds():
    # the table is the linear CV ramp; its rate is 0 only at soc 1
    pts = ((0.8, 0.5), (0.9, 0.25), (1.0, 0.0))
    prof = cm.ChargingPowerProfile(cc_rate=0.5, cv_break=0.8, cv_shape="tabulated",
                                   cv_points=pts)
    curve = cm.solve_max_power_curve(prof)
    oracle = linear_cv_curve(0.5, 0.8, curve.soc_cap)
    assert math.isfinite(curve.t_full)
    assert curve.t_full == pytest.approx(oracle.t_full, rel=1e-12)
    assert np.max(np.abs(curve.socs - oracle.soc_at(curve.times))) <= 1e-12


@pytest.mark.parametrize("profile, knots", [
    (_wc_profile(), 7577),
    (cm.ChargingPowerProfile(cc_rate=0.7 / 2400.0, cv_break=0.8,
                             cv_shape="linear"), 8380),
    (sine_tabulated_profile(), 7866),
])
def test_knot_counts(profile, knots):
    assert len(cm.solve_max_power_curve(profile).times) == knots


# ---------------------------------------------------------------------------
# exact CV flow: properties over random profiles
# ---------------------------------------------------------------------------

CC_RATES = st.floats(min_value=1e-4, max_value=1.0)
CV_BREAKS = st.floats(min_value=0.05, max_value=0.95)
ORACLES = {"linear": linear_cv_curve, "quadratic": quadratic_cv_curve}


@settings(max_examples=40, deadline=None)
@given(cc=CC_RATES, yv=CV_BREAKS, shape=st.sampled_from(sorted(ORACLES)))
def test_flow_knots_match_closed_form(cc, yv, shape):
    curve = cm.solve_max_power_curve(
        cm.ChargingPowerProfile(cc_rate=cc, cv_break=yv, cv_shape=shape))
    oracle = ORACLES[shape](cc, yv, curve.soc_cap)
    assert np.max(np.abs(curve.socs - oracle.soc_at(curve.times))) <= 1e-12
    # chord error of the tabulation at interval midpoints; the knot spacing
    # comes from |zeta''| sampled on 2048 socs, which can miss the quadratic
    # shape's curvature peak by a relative ~3e-7
    t_mid = 0.5 * (curve.times[1:] + curve.times[:-1])
    chord = 0.5 * (curve.socs[1:] + curve.socs[:-1])
    chord_err = np.max(np.abs(oracle.soc_at(t_mid) - chord))
    assert chord_err <= cm.DEFAULT_CURVE_TOLERANCE * (1.0 + 1e-6)


@settings(max_examples=40, deadline=None)
@given(cc=CC_RATES, yv=CV_BREAKS)
def test_two_point_table_equals_linear_shape(cc, yv):
    linear = cm.solve_max_power_curve(
        cm.ChargingPowerProfile(cc_rate=cc, cv_break=yv, cv_shape="linear"))
    table = cm.solve_max_power_curve(cm.ChargingPowerProfile(
        cc_rate=cc, cv_break=yv, cv_shape="tabulated",
        cv_points=((yv, cc), (1.0, 0.0))))
    assert len(table.times) == len(linear.times)
    assert np.max(np.abs(table.socs - linear.socs)) <= 1e-12
    assert table.t_full == pytest.approx(linear.t_full, rel=1e-12)


# ---------------------------------------------------------------------------
# duration (a difference of time_at) / increment operators
# ---------------------------------------------------------------------------

def test_duration_identity_and_linear_case():
    curve = make_constant(0.5)
    assert float(curve.time_at(0.4) - curve.time_at(0.4)) == 0.0
    assert float(curve.time_at(0.7) - curve.time_at(0.2)) == pytest.approx(
        1.0, abs=1e-12)


def test_duration_exponential_case():
    curve = make_linear(0.5, 0.8)
    assert float(curve.time_at(0.9) - curve.time_at(0.8)) == pytest.approx(
        math.log(2) / 2.5, abs=1e-7)


def test_duration_out_of_range():
    curve = make_constant(0.5)
    with pytest.raises(cm.ChargeModelError):
        curve.time_at(curve.soc_cap + 0.01)


def test_increment_basics():
    curve = make_constant(0.5)
    assert float(curve.increment(curve.soc_cap, 5.0)) == 0.0
    assert float(curve.increment(0.3, 1.0)) == pytest.approx(0.5, abs=1e-12)


def test_increment_exponential_closed_form():
    curve = make_linear(0.5, 0.8)
    for t in (0.05, 0.2, 0.6):
        want = min(0.2 * (1.0 - math.exp(-2.5 * t)), curve.soc_cap - 0.8)
        assert float(curve.increment(0.8, t)) == pytest.approx(want, abs=1e-7)


def test_increment_curve_monotone_and_zero_at_cap():
    for curve in (make_linear(), make_quadratic(), make_constant()):
        vals = curve.increment(np.linspace(0, curve.soc_cap, 2001), THETA)
        assert np.all(np.diff(vals) <= 1e-9)
        assert vals[-1] == pytest.approx(0.0, abs=1e-9)


def test_increment_curve_constant_profile_shape():
    curve = make_constant(0.5)
    ys = np.linspace(0, curve.soc_cap, 2001)
    vals = curve.increment(ys, 1.0)
    want = np.minimum(0.5, curve.soc_cap - ys)
    assert np.max(np.abs(vals - want)) < 1e-9


def test_increment_curve_linear_cv_slope():
    # on [cv_break, clamp corner] the step increment is linear with slope
    # -(1 - exp(-k theta))
    curve = make_linear(0.5, 0.8)
    k = 2.5
    slope = -(1.0 - math.exp(-k * THETA))
    ys = np.linspace(0.8, 0.95, 50)
    vals = np.asarray(curve.increment(ys, THETA))
    fitted = np.diff(vals) / np.diff(ys)
    assert np.max(np.abs(fitted - slope)) < 1e-5


# ---------------------------------------------------------------------------
# PWL under/overestimators
# ---------------------------------------------------------------------------

SOCS = st.floats(min_value=-0.5, max_value=1.5)


@settings(max_examples=60, deadline=None)
@given(cc=CC_RATES, yv=CV_BREAKS, m=st.integers(2, 8),
       kind=st.sampled_from(["under", "over"]), y=SOCS,
       ys=st.lists(SOCS, max_size=40))
def test_domain_value_matches_the_outer_product(cc, yv, m, kind, y, ys):
    curve = cm.solve_max_power_curve(
        cm.ChargingPowerProfile(cc_rate=cc, cv_break=yv, cv_shape="quadratic"))
    build = {"under": cm.build_underestimator,
             "over": cm.build_overestimator}[kind]
    try:
        dom = build(curve, THETA, m)
    except cm.DegenerateGridError:
        assume(False)
    got = dom.value(y)
    assert type(got) is float and got == pwl_value(dom, y)
    grid = np.array(ys + [0.0, curve.soc_cap])
    assert np.array_equal(dom.value(grid), pwl_value(dom, grid))
    rows = np.stack([grid, grid[::-1]])
    assert np.array_equal(dom.value(rows), pwl_value(dom, rows))


def test_underestimator_structure_m2():
    curve = make_quadratic()
    dom = cm.build_underestimator(curve, THETA, 2)
    assert dom.slopes[0] == 0.0
    assert dom.segment_count == 2
    assert np.all(np.diff(dom.slopes) < 0)


def test_underestimator_flat_offset_is_step_gain():
    curve = make_quadratic()
    dom = cm.build_underestimator(curve, THETA, 3)
    assert dom.offsets[0] == pytest.approx(float(curve.increment(0.0, THETA)),
                                           abs=1e-9)


def test_dominance_under_and_over():
    for curve in (make_linear(), make_quadratic()):
        ys = np.linspace(0.0, curve.soc_cap, 2001)
        exact = np.asarray(curve.increment(ys, THETA))
        for m in (2, 3, 4, 10):
            under = cm.build_underestimator(curve, THETA, m)
            over = cm.build_overestimator(curve, THETA, m)
            assert np.max(under.value(ys) - exact) <= 1e-7
            assert np.min(over.value(ys) - exact) >= -1e-7
            assert np.min(over.value(ys) - under.value(ys)) >= -1e-7


@pytest.mark.parametrize("curve", [make_linear(), make_quadratic(),
                                   cm.solve_max_power_curve(
                                       sine_tabulated_profile(cc=0.5))])
def test_increment_slope_matches_the_scalar_formula(curve):
    # the builders take every slope in one pass; each equals, bit for bit,
    # the per-soc formula f(z)/f(y) - 1 (-1 once the step reaches the cap)
    ys = np.linspace(-0.01, curve.soc_cap + 0.01, 503)
    for theta in (0.05, THETA, 1.0):
        expected = []
        for y in ys:
            y = float(min(max(y, 0.0), curve.soc_cap))
            z = y + float(curve.increment(y, theta))
            expected.append(-1.0 if z >= curve.soc_cap - 1e-12 else
                            float(curve.profile.rate(z))
                            / float(curve.profile.rate(y)) - 1.0)
        assert cm.increment_slope(curve, ys, theta).tolist() == expected


def test_overestimator_touches_at_midpoints():
    curve = make_quadratic()
    over = cm.build_overestimator(curve, THETA, 4)
    kn = over.breakpoints
    for i in range(len(kn) - 1):
        mid = 0.5 * (kn[i] + kn[i + 1])
        assert float(over.value(mid)) == pytest.approx(
            float(curve.increment(mid, THETA)), abs=1e-6)


def test_overestimator_has_cap_segment():
    curve = make_quadratic()
    over = cm.build_overestimator(curve, THETA, 3)
    assert over.slopes[-1] == pytest.approx(-1.0)
    assert over.offsets[-1] == pytest.approx(curve.soc_cap)


def test_error_bound_holds_for_quadratic():
    curve = make_quadratic(0.5, 0.6)
    ys = np.linspace(0.0, curve.soc_cap, 4001)
    for m in (2, 3, 4, 10):
        for theta in (0.05, 0.2, 0.5):
            dom = cm.build_underestimator(curve, theta, m)
            gap = float(np.max(np.asarray(curve.increment(ys, theta))
                               - dom.value(ys)))
            assert gap <= dom.error_bound + 1e-6


def _domain_gap(curve, dom, ys):
    exact = np.asarray(curve.increment(ys, dom.theta))
    gap = exact - dom.value(ys) if dom.kind == "under" else dom.value(ys) - exact
    return float(np.max(gap))


@st.composite
def concave_tables(draw, cc, yv):
    """A concave CV table from cc at yv to 0 at soc 1: slopes that fall."""
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=6, unique=True))
    ys = np.unique(np.concatenate([[yv, 1.0], yv + (1.0 - yv) * np.asarray(
        [u for u in inner if 1e-3 < u < 1.0 - 1e-3])]))
    falls = np.sort(draw(st.lists(st.integers(0, 1000), min_size=len(ys) - 1,
                                  max_size=len(ys) - 1)))
    assume(falls[-1] > 0)
    drops = np.concatenate([[0.0], np.cumsum(falls * np.diff(ys))])
    rates = cc * (1.0 - drops / drops[-1])
    rates[-1] = 0.0
    return tuple(zip(ys.tolist(), rates.tolist()))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), cc=CC_RATES, yv=CV_BREAKS,
       shape=st.sampled_from(cm.CV_SHAPES), m=st.integers(2, 10),
       step=st.floats(0.005, 2.0),
       kind=st.sampled_from(["under", "over"]))
def test_derived_error_bound_holds(data, cc, yv, shape, m, step, kind):
    # the bound holds with no slack factor; theta is drawn relative to the
    # CC phase, so that it spans the same share of the curve at every rate
    points = data.draw(concave_tables(cc, yv)) if shape == "tabulated" else None
    curve = cm.solve_max_power_curve(cm.ChargingPowerProfile(
        cc_rate=cc, cv_break=yv, cv_shape=shape, cv_points=points))
    build = cm.build_underestimator if kind == "under" else cm.build_overestimator
    try:
        dom = build(curve, step * curve.t_cv, m)
    except cm.ChargeModelError as exc:
        # tabulation noise on a linear stretch: the refusal that the strict
        # xfail test_underestimator_builds_on_a_linear_cv_ramp pins
        assume("strictly decreasing" not in str(exc))
        raise
    ys = np.linspace(0.0, curve.soc_cap, 4001)
    assert _domain_gap(curve, dom, ys) <= dom.error_bound + 1e-6


@pytest.mark.parametrize("build, gap", [(cm.build_underestimator, 0.0105),
                                        (cm.build_overestimator, 0.0038)])
def test_linear_cv_error_bound_covers_the_transition_band(build, gap):
    # f' jumps at cv_break, so the increment curve bends on the CC-CV band
    # and a linear CV shape has a nonzero error bound
    curve = cm.solve_max_power_curve(cm.ChargingPowerProfile(
        cc_rate=0.7 / 2400.0, cv_break=0.8, cv_shape="linear"))
    dom = build(curve, 300.0, 2)
    measured = _domain_gap(curve, dom, np.linspace(0.0, curve.soc_cap, 4001))
    assert measured == pytest.approx(gap, abs=1e-4)
    assert measured <= dom.error_bound


def test_constant_profile_underestimator_exact():
    curve = make_constant(0.5)
    dom = cm.build_underestimator(curve, 1.0, 2)
    ys = np.linspace(0.0, curve.soc_cap, 2001)
    gap = np.max(np.abs(np.asarray(curve.increment(ys, 1.0)) - dom.value(ys)))
    assert gap < 1e-9
    assert list(dom.slopes) == [0.0, -1.0]


def test_linear_cv_exact_on_linear_stretch():
    # chords with both knots inside [cv_break, clamp corner] reproduce the
    # increment exactly; the CC-CV transition band stays curved (see ledger)
    curve = make_linear(0.5, 0.8)
    dom = cm.build_underestimator(curve, THETA, 10)
    corner = curve.soc_cap - float(curve.increment(0.95, THETA))
    kn = dom.breakpoints
    for i in range(len(kn) - 1):
        if kn[i] >= 0.8 and kn[i + 1] <= corner:
            ys = np.linspace(kn[i], kn[i + 1], 50)
            gap = np.max(np.abs(np.asarray(curve.increment(ys, THETA))
                                - dom.value(ys)))
            assert gap < 1e-6


def test_degenerate_grid_error():
    curve = make_quadratic()
    with pytest.raises(cm.ChargeModelError):
        cm.build_underestimator(curve, THETA, 1)


def test_domain_requires_positive_theta():
    curve = make_quadratic()
    with pytest.raises(cm.ChargeModelError):
        cm.build_underestimator(curve, 0.0, 4)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_single_step():
    curve = make_quadratic()
    it, direct = cm.compose_steps_check(curve, 0.4, [0.7])
    assert it == direct


def test_compose_constant_profile():
    curve = make_constant(0.4)
    it, direct = cm.compose_steps_check(curve, 0.0, [1.0, 1.0])
    assert it == pytest.approx(0.8, abs=1e-12)
    assert direct == pytest.approx(0.8, abs=1e-12)


def test_compose_exponential_profile():
    curve = make_linear(0.5, 0.8)
    it, direct = cm.compose_steps_check(curve, 0.8, [0.1] * 5)
    assert abs(it - direct) < 1e-8
    oracle = linear_cv_curve(0.5, 0.8, curve.soc_cap)
    assert it == pytest.approx(0.8 + oracle.increment(0.8, 0.5), abs=1e-7)


def test_compose_random_many():
    rng = np.random.default_rng(7)
    curve = make_quadratic()
    for _ in range(200):
        y0 = rng.uniform(0.0, curve.soc_cap)
        steps = rng.uniform(0.01, 0.5, size=rng.integers(1, 6)).tolist()
        it, direct = cm.compose_steps_check(curve, y0, steps)
        assert abs(it - direct) < 1e-9


# ---------------------------------------------------------------------------
# spline baseline and oscillation
# ---------------------------------------------------------------------------

def test_spline_exact_on_full_grid():
    curve = make_quadratic()
    spline = cm.spline_charge_curve(curve, time_grid=curve.times)
    ts = np.linspace(0.0, curve.t_full, 400)
    assert np.max(np.abs(spline.soc_at(ts) - curve.soc_at(ts))) < 1e-12


def test_spline_underestimates_concave_curve():
    curve = make_quadratic()
    mid_cv = 0.5 * (curve.t_cv + curve.t_full)
    spline = cm.spline_charge_curve(curve, time_grid=[0.0, curve.t_cv, mid_cv,
                                                      curve.t_full])
    ts = np.linspace(0.0, curve.t_full, 500)
    diff = spline.soc_at(ts) - curve.soc_at(ts)
    assert np.max(diff) <= 1e-9
    assert np.min(diff) < -1e-4  # strictly below between CV knots


def test_spline_unsorted_grid_rejected():
    curve = make_quadratic()
    with pytest.raises(cm.ChargeModelError):
        cm.spline_charge_curve(curve, time_grid=[0.0, 1.0, 0.5])


def test_oscillation_witnesses_found():
    curve = make_linear(0.5, 0.8)
    mid_cv = 0.5 * (curve.t_cv + curve.t_full)
    spline = cm.spline_charge_curve(curve, time_grid=[0.0, curve.t_cv, mid_cv,
                                                      curve.t_full])
    wit = cm.detect_spline_oscillation(curve, spline, 150)
    assert wit.conclusive
    assert wit.negative[2] < -1e-6
    assert wit.positive[2] > 1e-6


def test_oscillation_inconclusive_for_exact_spline():
    curve = make_quadratic()
    spline = cm.spline_charge_curve(curve, time_grid=curve.times)
    wit = cm.detect_spline_oscillation(curve, spline, 100, threshold=1e-7)
    assert not wit.conclusive


def test_oscillation_inconclusive_for_linear_curve():
    curve = make_constant(0.5)
    spline = cm.spline_charge_curve(curve, time_grid=[0.0, 1.0, curve.t_full])
    wit = cm.detect_spline_oscillation(curve, spline, 100, threshold=1e-7)
    assert not wit.conclusive


# ---------------------------------------------------------------------------
# course propagation
# ---------------------------------------------------------------------------

def drive_charge_trace(consumptions, windows):
    """Alternating trip/charge course: depot -> (trip, charge)* -> depot."""
    roles = [cm.ROLE_DEPOT_START]
    cons, durs = [], []
    for c, w in zip(consumptions, windows):
        roles += [cm.ROLE_TRIP_START, cm.ROLE_TRIP_END]
        cons += [0.0, c]
        durs += [0.0, 0.0]
        if w is not None:
            roles += [cm.ROLE_CHARGE_ARRIVAL, cm.ROLE_CHARGE_DEPARTURE]
            cons += [0.0, 0.0]
            durs += [0.0, w]
    roles.append(cm.ROLE_DEPOT_END)
    cons.append(0.0)
    durs.append(0.0)
    return cm.CourseTrace(roles=tuple(roles), consumptions=tuple(cons),
                          durations=tuple(durs))


def test_propagate_no_recharge_zero_eps():
    curve = make_quadratic()
    trace = drive_charge_trace([0.3, 0.2], [None, None])
    out = cm.propagate_course(trace, curve,
                              cm.build_underestimator(curve, THETA, 2))
    assert all(e == 0.0 for e in out.eps)
    assert out.soc_exact[-1] == pytest.approx(0.5)
    assert all(s == 0 for s in out.sigma)


def test_propagate_single_recharge_constant():
    curve = make_constant(0.5)
    trace = drive_charge_trace([0.5], [1.0])
    out = cm.propagate_course(trace, curve)
    # 1.0 - 0.5 then + c * theta (clamped at cap)
    assert out.soc_exact[-2] == pytest.approx(min(0.5 + 0.5, curve.soc_cap))
    assert out.sigma[-1] == 1


def test_propagate_underestimator_sign_and_bound():
    curve = make_quadratic()
    under = cm.build_underestimator(curve, THETA, 2)
    rng = np.random.default_rng(11)
    ys = np.linspace(0.0, curve.soc_cap, 2001)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        cons = rng.uniform(0.1, 0.4, size=n).tolist()
        ks = [int(rng.integers(1, 6)) for _ in range(n)]
        windows = [k * THETA for k in ks]
        trace = drive_charge_trace(cons, windows)
        out = cm.propagate_course(trace, curve, under)
        assert all(e <= 1e-9 for e in out.eps)
        sup_gap = {}
        for k in set(ks):
            exact_k = np.asarray(curve.increment(ys, k * THETA))
            greedy_k = under.greedy_final_soc(ys, k) - ys
            sup_gap[k] = float(np.max(exact_k - greedy_k))
        worst = max(sup_gap.values())
        for e, s in zip(out.eps, out.sigma):
            assert abs(e) <= s * worst + 1e-6


@pytest.mark.parametrize("shape", ["quadratic", pytest.param(
    "linear", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="a linear CV ramp makes the increment curve linear on "
               "[cv_break, soc_cap]; there the chords coincide with the "
               "tabulated curve, whose interpolation noise (~1e-8) lets the "
               "greedy PWL ledger run above the exact one (eps +5e-9 in the "
               "pinned example)"))])
@settings(max_examples=60, deadline=None)
@given(cc=CC_RATES, yv=CV_BREAKS, m=st.integers(2, 6),
       legs=st.lists(st.tuples(st.floats(0.0, 1.0),
                               st.one_of(st.none(), st.integers(1, 6))),
                     min_size=1, max_size=5))
@example(cc=1.0, yv=0.0625, m=3, legs=[(0.5, 1)])
def test_propagate_underestimator_ledger_properties(shape, cc, yv, m, legs):
    # the guarantee is for courses the approximation keeps charged, so the
    # consumptions are scaled to leave at least 0.05 without charging
    curve = cm.solve_max_power_curve(
        cm.ChargingPowerProfile(cc_rate=cc, cv_break=yv, cv_shape=shape))
    under = cm.build_underestimator(curve, THETA, m)
    total = sum(c for c, _ in legs)
    cons = [c * 0.95 / max(total, 0.95) for c, _ in legs]
    ks = [k for _, k in legs]
    trace = drive_charge_trace(cons, [k and k * THETA for k in ks])
    out = cm.propagate_course(trace, curve, under)
    assert min(out.soc_approx) >= 0.0
    assert all(e <= 1e-9 for e in out.eps)
    ys = np.linspace(0.0, curve.soc_cap, 2001)
    worst = max((float(np.max(np.abs(np.asarray(curve.increment(ys, k * THETA))
                                     - (under.greedy_final_soc(ys, k) - ys))))
                 for k in set(ks) if k), default=0.0)
    for e, s in zip(out.eps, out.sigma):
        assert abs(e) <= s * worst + 1e-6


@pytest.mark.xfail(
    strict=True, raises=cm.ChargeModelError,
    reason="on the linear stretch of the increment curve tabulation noise "
           "moves the chord slopes by more than _merge_collinear's 1e-7, "
           "so they are not strictly decreasing")
def test_underestimator_builds_on_a_linear_cv_ramp():
    curve = cm.solve_max_power_curve(cm.ChargingPowerProfile(
        cc_rate=0.03125, cv_break=0.875, cv_shape="linear"))
    cm.build_underestimator(curve, THETA, 5)


def test_propagate_records_negative_soc():
    curve = make_constant(0.5)
    trace = drive_charge_trace([0.8, 0.8], [None, None])
    out = cm.propagate_course(trace, curve)
    assert out.soc_exact[-1] < 0  # recorded, not raised


def test_trace_validation():
    with pytest.raises(cm.ChargeModelError):
        cm.CourseTrace(roles=(cm.ROLE_DEPOT_START, cm.ROLE_DEPOT_END),
                       consumptions=(-0.1,), durations=(0.0,))


# ---------------------------------------------------------------------------
# convexity of the increment domain (exact closed forms)
# ---------------------------------------------------------------------------

def test_increment_domain_convex_closed_form():
    rng = np.random.default_rng(3)
    for oracle in (constant_curve(), linear_cv_curve(), quadratic_cv_curve()):
        for _ in range(300):
            y1, y2 = rng.uniform(0.0, oracle.soc_cap, size=2)
            u1, u2 = rng.uniform(0.0, 1.0, size=2)
            p1 = u1 * oracle.increment(y1, THETA)
            p2 = u2 * oracle.increment(y2, THETA)
            ym, pm = 0.5 * (y1 + y2), 0.5 * (p1 + p2)
            assert pm <= oracle.increment(ym, THETA) + 1e-9
