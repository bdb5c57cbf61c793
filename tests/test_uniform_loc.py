"""Uniform location model: everything is available in closed form."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from confbel.audit import contour_validity_audit, coverage_probability
from confbel.contours import Interval, PlausibilityContour, contour_from_family, plausibility_region
from confbel.fusion import check_compatibility, check_nested_support, support_mass
from confbel.mc import MCConfig
from confbel.models import uniform_loc

X = (0.2, 0.9)
MC = MCConfig(reps=20_000, seed=19)


def uniform_contour(x) -> PlausibilityContour:
    """The fused contour as a consonance-checked contour: the alpha index,
    unimodal about theta_hat."""
    return PlausibilityContour(lambda t: uniform_loc.alpha_index_exact(x, t), uniform_loc.theta_hat(x), unimodal=True)


def test_theta_hat_and_interval():
    assert uniform_loc.theta_hat(X) == pytest.approx(0.05, abs=1e-15)
    iv = uniform_loc.interval(X, 0.05)
    # slack = 1 - 0.7 = 0.3: [x1 - 0.3 * 0.975, x1 - 0.3 * 0.025]
    assert iv.lower == pytest.approx(0.2 - 0.2925, abs=1e-12)
    assert iv.upper == pytest.approx(0.2 - 0.0075, abs=1e-12)
    with pytest.raises(ValueError):
        uniform_loc.interval((0.9, 0.2), 0.05)
    for x in ((0.9, 0.2), [X, (0.9, 0.2), X]):  # one pair or any pair of a stack
        with pytest.raises(ValueError):
            uniform_loc.alpha_index_exact(x, 0.0)


def test_interval_is_level_set_of_contour():
    contour = uniform_contour(X)
    for alpha in (0.05, 0.1, 0.5):
        region = plausibility_region(contour, alpha, uniform_loc.default_grid(X))
        iv = uniform_loc.interval(X, alpha)
        assert isinstance(region, Interval)
        assert region.lower == pytest.approx(iv.lower, abs=1e-7)
        assert region.upper == pytest.approx(iv.upper, abs=1e-7)


def test_alpha_index_exact_values():
    # r = (x1 - theta) / (1 + theta - x2); index = 2 min(r, 1) / (1 + r)
    assert uniform_loc.alpha_index_exact(X, 0.05) == 1.0  # r = 1 at the peak
    r = 0.2 / 0.1
    assert uniform_loc.alpha_index_exact(X, 0.0) == pytest.approx(2 * min(r, 1) / (1 + r), abs=1e-14)
    # outside the feasible window the index vanishes
    assert uniform_loc.alpha_index_exact(X, 0.3) == 0.0
    assert uniform_loc.alpha_index_exact(X, -0.2) == 0.0


def test_alpha_index_range_one_edge():
    # a full-range observation pins theta completely
    assert uniform_loc.alpha_index_exact((0.2, 1.2), 0.2) == 1.0
    assert uniform_loc.alpha_index_exact((0.2, 1.2), 0.21) == 0.0


@given(theta=st.floats(min_value=-0.11, max_value=0.21))
@settings(max_examples=80, deadline=None)
def test_member_iff_index_at_least_alpha(theta):
    for alpha in (0.05, 0.25, 0.5):
        idx = uniform_loc.alpha_index_exact(X, theta)
        if abs(idx - alpha) > 1e-12:
            assert uniform_loc.member(X, alpha, theta) == (idx >= alpha)


def test_contour_peaks_at_theta_hat():
    contour = uniform_contour(X)
    # the midpoint is not exactly representable; 1 is reached up to rounding
    assert contour(uniform_loc.theta_hat(X)) == pytest.approx(1.0, abs=1e-12)
    th = np.linspace(-0.2, 0.3, 201)
    vals = contour(th)
    assert vals.max() == pytest.approx(1.0, abs=1e-12)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_contour_at_truth_matches_pointwise():
    xs = uniform_loc.sampling(10).sample(0.0, MCConfig(reps=200, seed=23))
    vec = uniform_loc.alpha_index_exact(xs, 0.0)
    pointwise = np.asarray([uniform_loc.alpha_index_exact(x, 0.0) for x in xs])
    assert np.array_equal(vec, pointwise)


@given(
    x1=st.floats(min_value=-1.0, max_value=1.0),
    width=st.floats(min_value=0.0, max_value=1.0),
    theta=st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=200, deadline=None)
def test_batch_and_scalar_routes_agree(x1, width, theta):
    x = (x1, x1 + width)
    batch = uniform_loc.alpha_index_exact(np.asarray([x]), theta)[0]
    assert batch == uniform_loc.alpha_index_exact(x, theta)


@pytest.mark.parametrize(
    "x, theta, want",
    [
        ((0.0, 1.0), 0.0, 1.0),  # full range: theta pinned, fiber point in every support
        ((0.2, 1.2), 0.2, 1.0),
        ((0.2, 1.2), 0.21, 0.0),
        ((0.2, 0.9), 0.2, 0.0),  # theta = x1: u1 = 0 on the support boundary
        ((0.2, 0.9), -0.1, 0.0),  # theta = x2 - 1: 1 - u2 = 0
        ((0.2, 0.9), 0.05, 1.0),  # theta_hat
        ((0.25, 1.25), 0.25, 1.0),
        # a support one ulp wide: theta = x2 - 1 is its left end, where 1 - u2 = 0
        ((0.0, 1.0 - 2.0**-53), -(2.0**-53), 0.0),
    ],
)
def test_batch_and_scalar_routes_agree_on_edges(x, theta, want):
    assert uniform_loc.alpha_index_exact(x, theta) == want
    assert uniform_loc.alpha_index_exact(np.asarray([x]), theta)[0] == want
    assert contour_from_family(uniform_loc.family(), x, theta) == want


def test_support_mass_closed_form():
    rs = uniform_loc.random_set(10)
    for alpha in (0.05, 0.3, 0.7):
        assert support_mass(rs, alpha, 0.0, MC) == 1.0 - alpha
    report = check_nested_support(rs, 0.0, (0.05, 0.1, 0.25, 0.5, 0.9), MC)
    assert report.passed


def test_compatibility_via_witness():
    report = check_compatibility(
        uniform_loc.association(), uniform_loc.random_set(10), X, uniform_loc.theta_hat(X), 0.05, MC
    )
    assert report.compatible


def test_coverage_exact_for_every_theta_and_n():
    for n, theta, alpha in [(2, 0.0, 0.1), (10, -3.7, 0.05), (25, 12.0, 0.5)]:
        est = coverage_probability(uniform_loc.sampling(n), uniform_loc.family(), theta, alpha, MC)
        assert est.estimate == pytest.approx(1 - alpha, abs=4 * max(est.se, 1e-4))


def test_validity_audit_clean():
    report = contour_validity_audit(
        uniform_loc.sampling(10),
        uniform_loc.alpha_index_exact,
        theta_grid=(0.0, 0.37),
        mc=MCConfig(reps=10_000, seed=29),
    )
    assert not report.flagged()
    # the index is exactly uniform at the truth here, so exceedance ~ alpha
    for row in report.rows:
        assert row.exceedance == pytest.approx(row.alpha, abs=4 * row.se)
