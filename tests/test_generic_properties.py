"""Property tests of the generic layer over every shipped model bundle.

Datasets come from each bundle's ``data_replicates`` at random seeds and
truths.  On every containment candidate the grid contour is a plausibility
(in [0, 1]) that never rises above the contour of the confidence-region family
it sharpens, as evaluated by the generic bisection; the family's membership is
nested in alpha on the same candidates; and each bundle's random set has
nested supports at its hint truths.  Both contours, and the fused
plausibility, attain 1 at the family's center.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from confbel.contours import ALPHA_BISECT_TOL, NORMALIZATION_TOL, contour_from_family
from confbel.fusion import check_nested_support, theta_specific_plaus
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
    pl = np.asarray(bundle.plaus_grid(x, cands if name == "dkw" else np.asarray(cands)), dtype=float)
    assert pl.shape == (len(cands),)
    assert np.all((pl >= 0.0) & (pl <= 1.0))
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
