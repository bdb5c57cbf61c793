"""Contours from region families: bisection, assertions, duality, level sets."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import special

from confbel.contours import (
    ALPHA_BISECT_LEVELS,
    ALPHA_BISECT_TOL,
    AlphaLevel,
    ConfidenceFamily,
    ConsonanceError,
    DegenerateAssertionError,
    GridRegion,
    GridSpec,
    Interval,
    IntervalUnion,
    NestednessError,
    OutOfRangeError,
    PlausibilityContour,
    PredicateRegion,
    Singleton,
    UnsupportedAssertionError,
    as_alpha,
    belief,
    bisect,
    contour_from_family,
    marginal_contour,
    marginal_region,
    plausibility,
    plausibility_region,
)
from confbel.models import normal_mean

Z_975 = 1.9599639845400542


def pivot_family() -> ConfidenceFamily:
    return normal_mean.family()


def pivot_closed_form(x, theta):
    return 2.0 * special.ndtr(-abs(x - theta))


def tent(theta):
    return float(max(0.0, 1.0 - abs(theta)))


# --------------------------------------------------------------------------
# levels, grids, regions


def test_alpha_validation():
    assert as_alpha(0.3) == 0.3
    assert as_alpha(AlphaLevel(0.25)) == 0.25
    for bad in (0.0, 1.0, -1, 2):
        with pytest.raises(ValueError):
            as_alpha(bad)
        if 0 <= bad <= 1:
            with pytest.raises(ValueError):
                AlphaLevel(bad)


def test_grid_spec():
    g = GridSpec(0.0, 1.0, 5)
    assert np.array_equal(g.points(), np.linspace(0, 1, 5))
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        GridSpec(0.0, np.inf, 5)


def test_region_basics():
    iv = Interval(-1.0, 2.0)
    assert iv.contains(0.0) and iv.contains(-1.0) and not iv.contains(2.5)
    assert not iv.is_empty
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(np.nan, 1.0)

    union = IntervalUnion((Interval(0, 1), Interval(3, 4)))
    assert union.contains(0.5) and union.contains(3.0) and not union.contains(2.0)
    assert IntervalUnion(()).is_empty

    gr = GridRegion([0.0, 0.5, 1.0], [True, False, True])
    assert np.array_equal(gr.included(), [0.0, 1.0])
    assert gr.contains(1.0) and not gr.contains(0.5)
    assert GridRegion([0.0], [False]).is_empty
    with pytest.raises(ValueError):
        GridRegion([0.0, 1.0], [True])

    assert Singleton(0.3).contains(0.3) and not Singleton(0.3).contains(0.4)
    assert PredicateRegion(lambda t: t > 0).contains(1.0)


def test_contour_consonance_enforced():
    PlausibilityContour(tent, sup_witness=0.0, unimodal=True)  # peaks at 1: fine
    with pytest.raises(ConsonanceError):
        PlausibilityContour(lambda t: 0.8 * tent(t), sup_witness=0.0)
    with pytest.raises(ConsonanceError):
        PlausibilityContour(lambda t: 1.7, sup_witness=0.0)


# --------------------------------------------------------------------------
# bisection against the closed form


def test_bisection_matches_closed_form():
    fam = pivot_family()
    x = 0.4
    for theta in np.linspace(-3.5, 4.2, 41):
        got = contour_from_family(fam, x, theta)
        assert got == pytest.approx(pivot_closed_form(x, theta), abs=1e-5)


def test_bisection_clamps():
    fam = pivot_family()
    assert contour_from_family(fam, 0.0, 0.0) == 1.0
    assert contour_from_family(fam, 0.0, 50.0) == 0.0


def _sequential_bisect(pred, lo, hi, tol):
    # the one-point-at-a-time search, as the package ran it before batching
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
        if abs(hi - lo) <= tol:
            break
    return 0.5 * (lo + hi)


def _sequential_contour(family, x, theta, tol=ALPHA_BISECT_TOL):
    if family.member(x, 1.0 - tol, theta):
        return 1.0
    if not family.member(x, tol, theta):
        return 0.0
    return _sequential_bisect(lambda a: family.member(x, a, theta), tol, 1.0 - tol, tol)


def test_contour_from_family_probe_count():
    # one call probes both clamps; (tol, 1 - tol) takes 20 halvings down to
    # width tol, ALPHA_BISECT_LEVELS of them a call
    calls = []
    fam = pivot_family()
    counted = ConfidenceFamily(member=lambda x, a, t: calls.append(a) or fam.member(x, a, t), center=fam.center)
    bisected = 1 + math.ceil(20 / ALPHA_BISECT_LEVELS)
    for theta, probes in ((1.7, bisected), (-2.1, bisected), (0.3, 1), (50.0, 1)):
        calls.clear()
        got = contour_from_family(counted, 0.3, theta)
        assert len(calls) == probes, theta
        assert got == _sequential_contour(fam, 0.3, theta), theta


@given(
    lo=st.floats(-10.0, 10.0, allow_nan=False),
    width=st.floats(1e-3, 10.0, allow_nan=False),
    frac=st.floats(0.0, 1.0),
    flipped=st.booleans(),
    wavy=st.booleans(),
    tol=st.sampled_from([0.0, 1e-6]),
    levels=st.sampled_from([1, 2, 5, 8]),
)
@settings(max_examples=300, deadline=None)
def test_batched_bisect_is_the_sequential_search(lo, width, frac, flipped, wavy, tol, levels):
    hi = lo + width
    c = lo + frac * width
    if wavy:  # not monotone: the walk must still follow the sequential path
        def pred(t):
            return np.sin(37.0 * t) > 0.0
    elif flipped:
        def pred(t):
            return t >= c
    else:
        def pred(t):
            return t <= c
    start = (hi, lo) if flipped else (lo, hi)
    sizes = []

    def batched(ts):
        sizes.append(len(ts))
        return pred(ts)

    halvings = []

    def sequential(t):
        halvings.append(t)
        return bool(pred(t))

    got = bisect(batched, *start, tol, levels)
    want = _sequential_bisect(sequential, *start, tol)
    assert float(got).hex() == float(want).hex()
    # every call but the last resolves `levels` halvings
    assert len(sizes) == math.ceil(len(halvings) / levels)
    assert sizes[:-1] == [2**levels - 1] * (len(sizes) - 1)


def _plain_halvings(pred, lo, hi):
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@given(
    lo=st.floats(-10.0, 10.0, allow_nan=False),
    width=st.floats(1e-3, 10.0, allow_nan=False),
    frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    flipped=st.booleans(),
    tol=st.sampled_from([0.0, 1e-6]),
)
@settings(max_examples=200, deadline=None)
def test_bisect_finds_threshold(lo, width, frac, flipped, tol):
    hi = lo + width
    c = lo + frac * width
    assume(lo < c < hi)
    # the predicate holds on c's side of the bracket's first argument
    if flipped:
        pred, start = (lambda t: t >= c), (hi, lo)
    else:
        pred, start = (lambda t: t <= c), (lo, hi)
    got = bisect(pred, *start, tol)
    if tol:
        assert abs(got - c) <= tol
    else:
        # 60 halvings of the bracket, or its last float spacing
        assert abs(got - c) <= max(width * 2.0**-59, 2.0 * np.spacing(abs(c)))
        assert got == _plain_halvings(pred, *start)


def test_non_nested_family_detected():
    # inside only at high alpha: impossible for a nested family
    fam = ConfidenceFamily(member=lambda x, alpha, theta: alpha > 0.5, center=lambda x: 0.0)
    with pytest.raises(NestednessError):
        contour_from_family(fam, 0.0, 1.0)


# --------------------------------------------------------------------------
# assertions


def unimodal_contour(x=0.0):
    return PlausibilityContour(lambda t: pivot_closed_form(x, t), sup_witness=x, unimodal=True)


def test_singleton_plausibility():
    c = unimodal_contour()
    assert plausibility(c, Singleton(1.0)) == pytest.approx(pivot_closed_form(0, 1.0), abs=1e-12)


def test_interval_plausibility_unimodal():
    c = unimodal_contour()
    assert plausibility(c, Interval(-0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)
    # witness outside: supremum at the nearer endpoint
    assert plausibility(c, Interval(1.0, 4.0)) == pytest.approx(pivot_closed_form(0, 1.0), abs=1e-12)
    assert plausibility(c, Interval(-np.inf, -2.0)) == pytest.approx(pivot_closed_form(0, -2.0), abs=1e-12)


def test_interval_plausibility_needs_grid_when_not_unimodal():
    c = PlausibilityContour(lambda t: max(tent(t - 2), tent(t + 2)), sup_witness=2.0)
    with pytest.raises(UnsupportedAssertionError):
        plausibility(c, Interval(-3, 3))
    got = plausibility(c, Interval(-3, 3), grid=GridSpec(-3, 3, 601))
    assert got == pytest.approx(1.0, abs=1e-2)


def test_union_and_grid_region_plausibility():
    c = unimodal_contour()
    u = IntervalUnion((Interval(1, 2), Interval(-3, -2)))
    assert plausibility(c, u) == pytest.approx(pivot_closed_form(0, 1.0), abs=1e-12)
    with pytest.raises(DegenerateAssertionError):
        plausibility(c, IntervalUnion(()))
    gr = GridRegion([0.5, 1.5], [True, True])
    assert plausibility(c, gr) == pytest.approx(pivot_closed_form(0, 0.5), abs=1e-12)
    with pytest.raises(DegenerateAssertionError):
        plausibility(c, GridRegion([0.5], [False]))


def test_predicate_region_plausibility():
    c = unimodal_contour()
    pr = PredicateRegion(lambda t: t >= 1.0)
    with pytest.raises(UnsupportedAssertionError):
        plausibility(c, pr)
    got = plausibility(c, pr, grid=GridSpec(-4, 4, 801))
    assert got == pytest.approx(pivot_closed_form(0, 1.0), abs=1e-4)
    with pytest.raises(DegenerateAssertionError):
        plausibility(c, PredicateRegion(lambda t: False), grid=GridSpec(-4, 4, 11))
    with pytest.raises(UnsupportedAssertionError):
        plausibility(c, "not an assertion")


def test_belief_duality():
    c = unimodal_contour()
    a = Interval(-1.0, 1.0)
    comp_pl = max(pivot_closed_form(0, -1.0), pivot_closed_form(0, 1.0))
    assert belief(c, a) == pytest.approx(1.0 - comp_pl, abs=1e-12)
    # full line: complement empty, belief 1
    assert belief(c, Interval(-np.inf, np.inf)) == 1.0
    # belief never exceeds plausibility of the same assertion
    for lo, hi in [(-2, -1), (-0.3, 0.4), (1, 5)]:
        iv = Interval(lo, hi)
        assert belief(c, iv) <= plausibility(c, iv) + 1e-12


def test_belief_respects_domain():
    c = unimodal_contour()
    # complement of [0, inf) within [-3, 3] is [-3, 0]
    got = belief(c, Interval(0.0, np.inf), domain=Interval(-3.0, 3.0))
    assert got == pytest.approx(1.0 - pivot_closed_form(0, 0.0), abs=1e-12)


@given(
    lo=st.floats(min_value=-3, max_value=2.5),
    width=st.floats(min_value=0.05, max_value=2.0),
    grow=st.floats(min_value=0.0, max_value=1.5),
)
@settings(max_examples=60, deadline=None)
def test_plausibility_monotone_under_inclusion(lo, width, grow):
    c = unimodal_contour()
    small = Interval(lo, lo + width)
    large = Interval(lo - grow, lo + width + grow)
    assert plausibility(c, small) <= plausibility(c, large) + 1e-12


# --------------------------------------------------------------------------
# level sets


def test_plausibility_region_recovers_interval():
    c = unimodal_contour(x=0.7)
    region = plausibility_region(c, 0.05, GridSpec(-8, 8, 801))
    assert isinstance(region, Interval)
    assert region.lower == pytest.approx(0.7 - Z_975, abs=1e-6)
    assert region.upper == pytest.approx(0.7 + Z_975, abs=1e-6)


def test_plausibility_region_strict_threshold():
    c = PlausibilityContour(tent, sup_witness=0.0, unimodal=True)
    # grid hits the level exactly at -+0.5; strictness keeps them out
    region = plausibility_region(c, 0.5, GridSpec(-1, 1, 5))
    assert isinstance(region, Interval)
    assert region.lower == pytest.approx(-0.5, abs=1e-9)
    assert region.upper == pytest.approx(0.5, abs=1e-9)
    assert not region.contains(-0.75)


def test_plausibility_region_empty_and_disconnected():
    c = PlausibilityContour(tent, sup_witness=0.0, unimodal=True)
    empty = plausibility_region(c, 0.9, GridSpec(-1, 1, 4))  # grid misses the peak
    assert isinstance(empty, IntervalUnion) and empty.is_empty

    bimodal = PlausibilityContour(lambda t: max(tent(t - 2), tent(t + 2)), sup_witness=2.0)
    region = plausibility_region(bimodal, 0.5, GridSpec(-4, 4, 161))
    assert isinstance(region, IntervalUnion)
    assert len(region.intervals) == 2
    assert region.contains(2.0) and region.contains(-2.0) and not region.contains(0.0)


# --------------------------------------------------------------------------
# marginalization


def test_marginal_contour_abs_map():
    c = unimodal_contour(x=1.3)
    got = marginal_contour(c, abs, 0.8, normal_mean.abs_fiber)
    want = max(pivot_closed_form(1.3, 0.8), pivot_closed_form(1.3, -0.8))
    assert got == pytest.approx(want, abs=1e-12)
    with pytest.raises(OutOfRangeError):
        marginal_contour(c, abs, -0.5, normal_mean.abs_fiber)


def test_marginal_contour_checks_fiber():
    c = unimodal_contour()
    with pytest.raises(OutOfRangeError):
        marginal_contour(c, abs, 1.0, lambda phi: [3.0])  # fiber point maps elsewhere


def test_marginal_region_abs_map():
    c = unimodal_contour(x=1.3)
    region = marginal_region(c, abs, 0.05, GridSpec(0.0, 8.0, 801), normal_mean.abs_fiber)
    assert isinstance(region, Interval)
    assert region.lower == 0.0  # -0.66 < 0, so every small phi stays plausible
    assert region.upper == pytest.approx(1.3 + Z_975, abs=1e-6)
