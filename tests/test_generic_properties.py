"""Property tests of the generic layer over every shipped model bundle.

Datasets come from each bundle's ``data_replicates`` at random seeds and
truths.  On every containment candidate the grid contour is a plausibility
(in [0, 1]) that never rises above the contour of the confidence-region family
it sharpens, checked at every level at once by one membership query at the
contour's own value (:func:`containment_violations`) and, on a few
candidates, against the generic bisection; the family's membership is
nested in alpha on the same candidates; and each bundle's random set has
nested supports at its hint truths.  Both contours, and the fused
plausibility, attain 1 at the family's center.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from numpy.testing import assert_allclose

from confbel.contours import ALPHA_BISECT_TOL, NORMALIZATION_TOL, Interval, contour_from_family
from confbel.fusion import EMPTY_REGION, check_nested_support, theta_specific_plaus
from confbel.mc import MCConfig
from confbel.models import REGISTRY, behrens_fisher, binomial, dkw, normal_mean, uniform_loc

BUNDLES = {name: factory() for name, factory in REGISTRY.items()}
# each bundle's association, at the bundle's default sample sizes
ASSOCIATIONS = {
    "binomial": binomial.association(25),
    "uniform_loc": uniform_loc.association(),
    "normal_mean": normal_mean.association(),
    "behrens_fisher": behrens_fisher.association(5, 11),
    "dkw": dkw.association(799),
}
seeds = st.integers(0, 2**32 - 1)
levels = st.floats(0.01, 0.99, allow_nan=False)


def containment_violations(member, x, candidates, pl, eps: float = 1e-12) -> np.ndarray:
    """Indices of the candidates where the fused contour ``pl`` rises above
    the confidence contour: ``eps < pl < 1 - eps`` and the candidate lies
    outside ``C_{pl - eps}(x)``.  By nesting in alpha, that one membership
    query checks every level below ``pl`` at once, in one ``member`` call."""
    pl = np.asarray(pl, dtype=float)
    live = (eps < pl) & (pl < 1.0 - eps)
    inside = np.asarray(member(x, np.where(live, pl - eps, 0.5), candidates), dtype=bool)
    return np.flatnonzero(live & ~inside)


def _dataset(bundle, data):
    truth = data.draw(st.sampled_from(bundle.theta_grid_hint), label="truth")
    seed = data.draw(seeds, label="seed")
    x = bundle.data_replicates(truth, 1, MCConfig(reps=1, seed=seed))[0]
    return x, list(bundle.candidates_for(x))


@pytest.mark.parametrize("name", sorted(BUNDLES))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_grid_contour_lies_in_unit_interval_below_family_contour(name, data):
    bundle = BUNDLES[name]
    x, cands = _dataset(bundle, data)
    grid = cands if name == "dkw" else np.asarray(cands)
    pl = np.asarray(bundle.plaus_grid(x, grid), dtype=float)
    assert pl.shape == (len(cands),)
    assert np.all((pl >= 0.0) & (pl <= 1.0))
    assert containment_violations(bundle.member_grid, x, grid, pl).size == 0
    # the family contour costs one bisection a candidate: check a few
    picks = data.draw(st.lists(st.integers(0, len(cands) - 1), min_size=1, max_size=6, unique=True), label="picks")
    for j in picks:
        family_pl = contour_from_family(bundle.family, x, cands[j])
        assert pl[j] <= family_pl + ALPHA_BISECT_TOL, j


@pytest.mark.parametrize("name", sorted(BUNDLES))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), a=levels, b=levels)
def test_member_grid_is_nested_in_alpha(name, data, a, b):
    bundle = BUNDLES[name]
    x, cands = _dataset(bundle, data)
    grid = cands if name == "dkw" else np.asarray(cands)
    lo, hi = min(a, b), max(a, b)
    inner = np.asarray(bundle.member_grid(x, hi, grid), dtype=bool)
    outer = np.asarray(bundle.member_grid(x, lo, grid), dtype=bool)
    assert not np.any(inner & ~outer)


@pytest.mark.parametrize("name", sorted(BUNDLES))
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), alphas=st.lists(levels, min_size=2, max_size=5, unique=True), seed=seeds)
def test_random_set_supports_are_nested(name, data, alphas, seed):
    bundle = BUNDLES[name]
    truth = data.draw(st.sampled_from(bundle.theta_grid_hint), label="truth")
    report = check_nested_support(bundle.random_set, truth, alphas, MCConfig(reps=1_000, seed=seed))
    assert report.passed, report.violations


@pytest.mark.parametrize("name", sorted(BUNDLES))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_contours_attain_one_at_the_family_center(name, data):
    # the center lies in every region, so both contours are 1 there, and so is
    # the fused plausibility at the association's center (its index is capped)
    bundle = BUNDLES[name]
    x, _ = _dataset(bundle, data)
    center = bundle.family.center(x)
    assert contour_from_family(bundle.family, x, center) == 1.0
    assoc = ASSOCIATIONS[name]
    assert theta_specific_plaus(assoc, bundle.random_set, x, assoc.family.center(x), MCConfig(reps=1, seed=0)) == 1.0
    grid = [center] if name == "dkw" else np.asarray([center])
    (pl,) = np.asarray(bundle.plaus_grid(x, grid), dtype=float).tolist()
    if name == "uniform_loc":
        # a cusp at theta_hat, which is rounded: 1 within the consonance tolerance
        assert 1.0 - NORMALIZATION_TOL <= pl <= 1.0
    else:
        assert pl == 1.0


def _step_cdf(data):
    """A step CDF with 1 to 5 jumps, 0 before the first and 1 from the last:
    its quantile takes few values, so the data it draws are tied."""
    xs = sorted(data.draw(st.sets(st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=5), label="jumps"))
    weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(xs), max_size=len(xs)), label="weights")
    ys = np.cumsum(weights) / np.sum(weights)
    ys[-1] = 1.0
    return dkw.StepFn(xs, ys)


def _exp_cdf(scale: float) -> dkw.ParametricCDF:
    return dkw.ParametricCDF(
        cdf=lambda t: -np.expm1(-np.maximum(np.asarray(t, dtype=float), 0.0) / scale),
        quantile=lambda u: -scale * np.log1p(-u),
        name=f"Exp(mean={scale})",
    )


TRUTHS = {
    "binomial": lambda data: data.draw(st.floats(0.0, 1.0), label="theta"),
    "normal_mean": lambda data: data.draw(st.floats(-10.0, 10.0), label="theta"),
    "uniform_loc": lambda data: data.draw(st.floats(-10.0, 10.0), label="theta"),
    "behrens_fisher": lambda data: (
        data.draw(st.floats(-5.0, 5.0), label="mu1"),
        data.draw(st.floats(-5.0, 5.0), label="mu2"),
        data.draw(st.floats(0.05, 10.0), label="s1"),
        data.draw(st.floats(0.05, 10.0), label="s2"),
    ),
    "dkw": lambda data: (
        _step_cdf(data) if data.draw(st.booleans(), label="tied") else _exp_cdf(data.draw(st.floats(0.1, 10.0)))
    ),
}


@pytest.mark.parametrize("name", sorted(ASSOCIATIONS))
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), seed=seeds)
def test_focal_set_round_trip(name, data, seed):
    # x = forward(truth, u) for u from the random set's auxiliary law; the
    # focal set of (x, u) is non-empty and forward maps its point back to x
    assoc = ASSOCIATIONS[name]
    truth = TRUTHS[name](data)
    u = BUNDLES[name].random_set.aux_sampler(MCConfig(reps=1, seed=seed))[0]
    x = assoc.forward(truth, u)
    focal = assoc.focal(x, u)
    assert not getattr(focal, "is_empty", False)
    if isinstance(focal, Interval):
        assert focal.lower - 1e-12 <= truth <= focal.upper + 1e-12
        # an inner point: at binomial's ends the rounding of betaincinv picks the outcome
        point = focal.lower + data.draw(st.floats(0.001, 0.999), label="fraction") * (focal.upper - focal.lower)
        assert_allclose(assoc.forward(point, u), x, rtol=0.0, atol=1e-12 if name != "binomial" else 0)
    elif name == "behrens_fisher":
        assert_allclose(assoc.forward(focal, u), x, rtol=1e-12, atol=1e-12)  # (m1, m2, v1, v2)
    else:
        assert isinstance(focal, dkw.StepFn)
        assert np.array_equal(assoc.forward(focal, u), x)  # the sorted sample
        # forward reads u's order statistics, so a permuted u round-trips too
        assert np.array_equal(assoc.forward(assoc.focal(x, u[::-1]), u[::-1]), x)
        assert assoc.focal(x, np.append(u[1:], 0.0)) is EMPTY_REGION  # no CDF sends u = 0 to a value
