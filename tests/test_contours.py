"""Contours from region families: bisection, assertions, duality, level sets."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import special

from confbel.contours import (
    ALPHA_BISECT_TOL,
    ALPHA_SPLIT,
    ConfidenceFamily,
    ConsonanceError,
    DegenerateAssertionError,
    GridSpec,
    Interval,
    IntervalUnion,
    NestednessError,
    OutOfRangeError,
    PlausibilityContour,
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
from confbel.models import binomial, normal_mean, uniform_loc

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
    for bad in (0.0, 1.0, -1, 2):
        with pytest.raises(ValueError):
            as_alpha(bad)


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

    point = Interval(0.3, 0.3)  # the point assertion {0.3}
    assert point.contains(0.3) and not point.contains(0.4) and not point.is_empty


def test_contour_consonance_enforced():
    PlausibilityContour(tent, sup_witness=0.0, unimodal=True)  # peaks at 1: fine
    with pytest.raises(ConsonanceError):
        PlausibilityContour(lambda t: 0.8 * tent(t), sup_witness=0.0)
    with pytest.raises(ConsonanceError):
        PlausibilityContour(lambda t: 1.7, sup_witness=0.0)


# --------------------------------------------------------------------------
# bisection against the closed form


# the alpha search cuts its bracket into equal cells and lands within tol/2
# of the supremum; 1e-12 absorbs the rounding between a family's membership
# test and the closed form it is checked against
SPLIT_BOUND = ALPHA_BISECT_TOL / 2 + 1e-12


def _assert_index(got, want):
    tol = ALPHA_BISECT_TOL
    if got == 0.0:  # outside the widest region probed
        assert want <= tol + 1e-12
    elif got == 1.0:  # inside the narrowest
        assert want >= 1.0 - tol - 1e-12
    else:
        assert abs(got - want) <= SPLIT_BOUND


def test_bisection_matches_closed_form():
    fam = pivot_family()
    x = 0.4
    for theta in np.linspace(-3.5, 4.2, 41):
        _assert_index(contour_from_family(fam, x, theta), pivot_closed_form(x, theta))
    n = 25
    for k in (0, 3, 17, 25):
        for theta in np.linspace(0.01, 0.99, 25):
            _assert_index(contour_from_family(binomial.family(n), k, theta), binomial.cp_contour(n, k, theta))
    for x in ((0.2, 0.9), (0.05, 0.5), (0.31, 0.33)):
        for theta in np.linspace(x[1] - 1.0, x[0], 25):
            _assert_index(contour_from_family(uniform_loc.family(), x, theta), uniform_loc.alpha_index_exact(x, theta))


def test_bisection_clamps():
    fam = pivot_family()
    assert contour_from_family(fam, 0.0, 0.0) == 1.0
    assert contour_from_family(fam, 0.0, 50.0) == 0.0


def _halvings(pred, lo, hi):
    """60 plain halvings of the bracket: the oracle of the level-set crossings."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_contour_from_family_probe_count():
    # one call probes both clamps; (tol, 1 - tol) takes 4 cuts into 32 cells
    # down to width tol
    calls = []
    fam = pivot_family()
    counted = ConfidenceFamily(member=lambda x, a, t: calls.append(a) or fam.member(x, a, t), center=fam.center)
    tol = ALPHA_BISECT_TOL
    assert (1.0 - 2.0 * tol) / ALPHA_SPLIT**3 > tol >= (1.0 - 2.0 * tol) / ALPHA_SPLIT**4
    searched = 1 + 4
    for theta, probes in ((1.7, searched), (-2.1, searched), (0.3, 1), (50.0, 1)):
        calls.clear()
        got = contour_from_family(counted, 0.3, theta)
        assert len(calls) == probes, theta
        if probes > 1:
            assert abs(got - pivot_closed_form(0.3, theta)) <= SPLIT_BOUND, theta


@given(
    lo=st.floats(-10.0, 10.0, allow_nan=False),
    width=st.floats(1e-3, 10.0, allow_nan=False),
    frac=st.floats(0.0, 1.0),
    flipped=st.booleans(),
    wavy=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_split_search_keeps_the_first_false_cell(lo, width, frac, flipped, wavy):
    tol = 1e-6
    hi = lo + width
    c = lo + frac * width
    if wavy:  # not monotone: the search still ends on a cell whose ends disagree
        def pred(t):
            return np.sin(37.0 * t) > 0.0
    elif flipped:
        def pred(t):
            return t >= c
    else:
        def pred(t):
            return t <= c
    start = (hi, lo) if flipped else (lo, hi)
    sizes, asked = [], {start[0]: True, start[1]: False}  # the ends the search assumes

    def counted(ts):
        sizes.append(len(ts))
        answers = pred(ts)
        asked.update(zip(ts.tolist(), np.asarray(answers, dtype=bool).tolist()))
        return answers

    true_end, false_end = bisect(counted, *start, tol)
    assert asked[true_end] and not asked[false_end]
    got = 0.5 * (true_end + false_end)
    assert sizes == [ALPHA_SPLIT - 1] * len(sizes)
    span = abs(start[1] - start[0])
    # the least count reaching tol, up to rounding at an exact power of 32
    assert span / ALPHA_SPLIT**len(sizes) <= tol * (1 + 1e-9)
    assert span / ALPHA_SPLIT ** (len(sizes) - 1) > tol * (1 - 1e-9)
    if wavy:  # the cell's ends disagree, and it is tol wide at most
        assert abs(false_end - true_end) <= tol
    else:
        assert abs(got - c) <= tol / 2


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
    true_end, false_end = bisect(pred, *start, tol)
    got = 0.5 * (true_end + false_end)
    if tol:
        assert abs(got - c) <= tol
    else:
        # 60 halvings' worth of the bracket, or its last float spacing
        assert abs(got - c) <= max(width * 2.0**-59, 2.0 * np.spacing(abs(c)))


def test_non_nested_family_detected():
    # inside only at high alpha: impossible for a nested family
    fam = ConfidenceFamily(member=lambda x, alpha, theta: alpha > 0.5, center=lambda x: 0.0)
    with pytest.raises(NestednessError):
        contour_from_family(fam, 0.0, 1.0)


# --------------------------------------------------------------------------
# assertions


def unimodal_contour(x=0.0):
    return PlausibilityContour(lambda t: pivot_closed_form(x, t), sup_witness=x, unimodal=True)


def grid_path_contour(x=0.0):
    """The same contour without the unimodal flag: assertions need a grid."""
    return PlausibilityContour(lambda t: pivot_closed_form(x, t), sup_witness=x)


def test_singleton_plausibility():
    c = unimodal_contour()
    assert plausibility(c, Interval(1.0, 1.0)) == pytest.approx(pivot_closed_form(0, 1.0), abs=1e-12)
    # the grid path reads the point itself, not the grid points beside it
    got = plausibility(grid_path_contour(), Interval(1.0, 1.0), grid=GridSpec(-4, 4, 10))
    assert got == pivot_closed_form(0, 1.0)


def test_point_assertion_has_belief_zero():
    # the closed complement of {t} still holds t, and the contour's mode
    for t in (-2.5, 0.0, 1.0):
        assert belief(unimodal_contour(), Interval(t, t)) == 0.0
        assert belief(grid_path_contour(), Interval(t, t), grid=GridSpec(-4, 4, 801)) == 0.0


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
    points = IntervalUnion((Interval(0.5, 0.5), Interval(1.5, 1.5)))  # the finite set {0.5, 1.5}
    assert plausibility(c, points) == pytest.approx(pivot_closed_form(0, 0.5), abs=1e-12)


def test_predicate_region_plausibility():
    c = grid_path_contour()
    at_least_one = Interval(1.0, np.inf)  # {theta >= 1}
    with pytest.raises(UnsupportedAssertionError):
        plausibility(c, at_least_one)
    got = plausibility(c, at_least_one, grid=GridSpec(-4, 4, 801))
    assert got == pytest.approx(pivot_closed_form(0, 1.0), abs=1e-4)
    with pytest.raises(DegenerateAssertionError):
        plausibility(c, IntervalUnion(()), grid=GridSpec(-4, 4, 11))
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


def _counting(fn):
    calls = []

    def counted(t):
        calls.append(t)
        return fn(t)

    return counted, calls


def test_plausibility_region_recovers_interval():
    fn, calls = _counting(lambda t: pivot_closed_form(0.7, t))
    c = PlausibilityContour(fn, sup_witness=0.7, unimodal=True)
    calls.clear()
    region = plausibility_region(c, 0.05, GridSpec(-8, 8, 801))
    assert isinstance(region, Interval)
    assert region.lower == pytest.approx(0.7 - Z_975, abs=1e-6)
    assert region.upper == pytest.approx(0.7 + Z_975, abs=1e-6)
    # the contour values guide the search: at most 16 calls a crossing
    # beyond the grid, where 60 halvings took 60
    assert len(calls) - 801 <= 2 * 16


def test_crossing_beside_a_level_it_barely_clears_does_not_creep():
    # the contour sits within 2e-16 of alpha on the in side of the lower
    # crossing; regula falsi moved the in end a few floats a step there
    x = (0.0296983111690462, 0.9935630649357576)
    fn, calls = _counting(lambda t: uniform_loc.alpha_index_exact(x, t))
    c = PlausibilityContour(fn, sup_witness=uniform_loc.theta_hat(x))
    lo, hi = x[1] - 1.0, x[0]
    pad = 0.02 * (hi - lo)
    calls.clear()
    region = plausibility_region(c, 0.05, GridSpec(lo - pad, hi + pad, 41))
    assert len(calls) - 41 <= 16
    for e in (region.lower, region.upper):
        assert uniform_loc.alpha_index_exact(x, e) == pytest.approx(0.05, abs=1e-12)


def test_plausibility_region_strict_threshold():
    fn, calls = _counting(tent)
    c = PlausibilityContour(fn, sup_witness=0.0, unimodal=True)
    # grid hits the level exactly at -+0.5; strictness keeps them out
    region = plausibility_region(c, 0.5, GridSpec(-1, 1, 5))
    assert isinstance(region, Interval)
    assert region.lower == pytest.approx(-0.5, abs=1e-9)
    assert region.upper == pytest.approx(0.5, abs=1e-9)
    assert not region.contains(-0.75)
    # each crossing lies a few floats off a grid point: 8 calls in all beyond
    # the grid for both (60 halvings a crossing took 120)
    calls.clear()
    assert plausibility_region(c, 0.5, GridSpec(-1, 1, 801)) == Interval(-0.4999999999999999, 0.4999999999999999)
    assert len(calls) - 801 <= 8


def test_plausibility_region_empty_and_disconnected():
    c = PlausibilityContour(tent, sup_witness=0.0, unimodal=True)
    empty = plausibility_region(c, 0.9, GridSpec(-1, 1, 4))  # grid misses the peak
    assert isinstance(empty, IntervalUnion) and empty.is_empty

    bimodal = PlausibilityContour(lambda t: max(tent(t - 2), tent(t + 2)), sup_witness=2.0)
    region = plausibility_region(bimodal, 0.5, GridSpec(-4, 4, 161))
    assert isinstance(region, IntervalUnion)
    assert len(region.intervals) == 2
    assert region.contains(2.0) and region.contains(-2.0) and not region.contains(0.0)


@pytest.mark.parametrize("edge", [math.pi / 10, 1.0 / 3.0, 0.7071067811865476])
def test_jump_at_the_crossing_costs_at_most_two_searches_of_halvings(edge):
    # nothing to interpolate across a jump: the worst case is 2 * 60 calls a
    # crossing, and the endpoints are still the halvings' floats
    def step(t):
        return 1.0 if abs(t) < edge else 0.0

    fn, calls = _counting(step)
    c = PlausibilityContour(fn, sup_witness=0.0)
    for grid in (GridSpec(-1, 1, 801), GridSpec(-1, 1, 11), GridSpec(-8, 8, 801)):
        calls.clear()
        region = plausibility_region(c, 0.5, grid)
        assert len(calls) - grid.n <= 2 * 2 * 60
        pts = grid.points()
        i = int(np.searchsorted(pts, edge))  # pts[i - 1] < edge <= pts[i]
        want = _halvings(lambda t: step(t) > 0.5, float(pts[i - 1]), float(pts[i]))
        assert region.upper == want and region.lower == -want


def _float_crossings(above, a: float, b: float) -> int:
    """Changes of ``above`` over every float from just below min(a, b) to
    just above max(a, b)."""
    t, stop = math.nextafter(min(a, b), -math.inf), math.nextafter(max(a, b), math.inf)
    assert (stop - t) <= 4096 * math.ulp(max(abs(t), abs(stop)))  # a few floats, not a search
    prev, changes = above(t), 0
    while t < stop:
        t = math.nextafter(t, math.inf)
        cur = above(t)
        changes += cur != prev
        prev = cur
    return changes


def _oracle_endpoints(fn, pts, alpha):
    """Each region endpoint as 60 plain halvings find it on its straddling
    cell (None at a grid edge), with the cell and whether the halvings had
    stalled at adjacent floats."""
    ins = [float(fn(p)) > alpha for p in pts]
    out = []
    for k in range(len(pts)):
        if not ins[k]:
            continue
        for j in (k - 1, k + 1):
            if j in (-1, len(pts)):
                out.append((None, float(pts[k]), None, None))
            elif not ins[j]:
                a, b = float(pts[k]), float(pts[j])
                asked = []
                want = _halvings(lambda t: asked.append((t, float(fn(t)) > alpha)) or asked[-1][1], a, b)
                lo, hi = a, b  # the bracket the halvings ended on
                for t, inside in asked:
                    lo, hi = (t, hi) if inside else (lo, t)
                out.append((want, a, b, want in (lo, hi)))
    return out


def _shifted_pivot(x, span):
    c = PlausibilityContour(lambda t: pivot_closed_form(x, t), sup_witness=x)
    return c, (x - span, x + span), (abs, normal_mean.abs_fiber, (0.0, abs(x) + span))


def _uniform(x):
    c = PlausibilityContour(lambda t: uniform_loc.alpha_index_exact(x, t), uniform_loc.theta_hat(x), unimodal=True)
    pad = 0.02 * (x[0] - x[1] + 1.0)
    return c, (x[1] - 1.0 - pad, x[0] + pad), (abs, normal_mean.abs_fiber, (0.0, 1.0))


def _binomial(x):
    n = 25
    c = PlausibilityContour(lambda t: binomial.cp_contour(n, x, t), sup_witness=min(max(x / n, 1e-9), 1.0 - 1e-9))

    def fiber(phi):  # preimage of theta -> |theta - 1/2|
        return list(dict.fromkeys((0.5 - phi, 0.5 + phi)))

    return c, (0.001, 0.999), (lambda t: abs(t - 0.5), fiber, (0.0, 0.499))


# (model, its arguments): plain values, so a draw can be pinned and printed
_MODELS = st.one_of(
    st.tuples(st.just(_shifted_pivot), st.tuples(st.floats(-5.0, 5.0), st.floats(2.5, 8.0))),
    st.tuples(st.just(_uniform), st.floats(0.0, 0.9).flatmap(
        lambda lo: st.tuples(st.tuples(st.just(lo), st.floats(lo, min(lo + 0.95, 1.0))))
    )),
    st.tuples(st.just(_binomial), st.tuples(st.integers(0, 25))),
)


@given(model=_MODELS, marginal=st.booleans(), alpha=st.floats(0.01, 0.99), n=st.integers(3, 120))
# 60 halvings end short of adjacent floats, at a float 131 floats from the
# search's over which the contour crosses the level 3 times
@example(model=(_shifted_pivot, (1.3, 7.0)), marginal=False, alpha=0.1847039511732638, n=3)
@settings(max_examples=200, deadline=None)
def test_region_endpoints_are_the_halvings_floats(model, marginal, alpha, n):
    contour, span, (phi_map, fiber, phi_span) = model[0](*model[1])
    if marginal:
        grid = GridSpec(*phi_span, n)
        region = marginal_region(contour, phi_map, alpha, grid, fiber)

        def fn(phi):
            return marginal_contour(contour, phi_map, phi, fiber)
    else:
        grid = GridSpec(*span, n)
        region = plausibility_region(contour, alpha, grid)
        fn = contour
    got = [e for iv in getattr(region, "intervals", (region,)) for e in (iv.lower, iv.upper)]
    oracle = _oracle_endpoints(fn, grid.points(), alpha)
    assert len(got) == len(oracle)
    for e, (want, a, b, stalled) in zip(got, oracle):
        assert type(e) is float
        if want is None:  # the run reaches the grid edge
            assert e == a
        elif e.hex() != want.hex() and (stalled or abs(e - want) > abs(b - a) * 2.0**-59):
            # a second answer beyond the halvings' resolution (or beside
            # their adjacent floats): the floats between them cross the
            # level more than once
            assert _float_crossings(lambda t: float(fn(t)) > alpha, e, want) > 1


def test_crossing_short_of_adjacent_floats_is_within_the_halvings_resolution():
    # 0.5 + t rises past 0.5 only above t = 2**-54: 60 halvings of the cell
    # (-0.01, 0.01) stop far short of that float's spacing
    def ramp(t):
        return min(1.0, max(0.0, 0.5 + t))

    c = PlausibilityContour(ramp, sup_witness=0.5)
    grid = GridSpec(-0.01, 0.99, 51)
    region = plausibility_region(c, 0.5, grid)
    want = _halvings(lambda t: ramp(t) > 0.5, 0.01, -0.01)
    assert abs(region.lower - want) <= 0.02 * 2.0**-59
    assert abs(region.lower - 2.0**-54) <= 0.02 * 2.0**-59


# --------------------------------------------------------------------------
# marginalization


def test_marginal_contour_abs_map():
    c = unimodal_contour(x=1.3)
    got = marginal_contour(c, abs, 0.8, normal_mean.abs_fiber)
    want = max(pivot_closed_form(1.3, 0.8), pivot_closed_form(1.3, -0.8))
    assert got == pytest.approx(want, abs=1e-12)
    assert normal_mean.abs_contour(1.3)(0.8) == pytest.approx(got, abs=1e-12)  # the closed form
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
