"""Fused random-set machinery against the models' closed forms."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import optimize, special

from confbel import distributions as dist
from confbel import fusion
from confbel.contours import ConsonanceError, GridSpec, Interval
from confbel.fusion import (
    EMPTY_REGION,
    Association,
    ModelInconsistencyError,
    RandomSetFamily,
    alpha_index,
    check_compatibility,
    check_nested_support,
    focal_set,
    fused_contour,
    support_mass,
    theta_specific_plaus,
)
from confbel.mc import MCConfig
from confbel.models import binomial, normal_mean, uniform_loc

MC = MCConfig(reps=20_000, seed=31)
X_PAIR = (0.2, 0.9)  # observed (min, max) of the uniform-location model


def test_alpha_index_matches_normal_closed_form():
    assoc = normal_mean.association()
    rs = normal_mean.random_set()
    x = 0.4
    for theta in (-1.5, 0.0, 0.4, 1.1, 2.7):
        got = alpha_index(assoc, rs, x, theta)
        want = 2.0 * special.ndtr(-abs(x - theta))
        assert got == pytest.approx(want, abs=2e-6)


def test_alpha_index_clamps_exact():
    assoc = normal_mean.association()
    rs = normal_mean.random_set()
    assert alpha_index(assoc, rs, 0.4, 0.4) == 1.0
    assert alpha_index(assoc, rs, 0.4, 40.0) == 0.0


def test_alpha_index_matches_uniform_closed_form():
    assoc = uniform_loc.association()
    rs = uniform_loc.random_set(10)
    for theta in (-0.05, 0.0, 0.1, 0.19):
        got = alpha_index(assoc, rs, X_PAIR, theta)
        want = uniform_loc.alpha_index_exact(X_PAIR, theta)
        assert got == pytest.approx(want, abs=2e-6)


def test_alpha_index_empty_fiber_raises():
    assoc = uniform_loc.association()
    rs = uniform_loc.random_set(10)
    # theta above the observed minimum cannot have produced the data
    with pytest.raises(ModelInconsistencyError):
        alpha_index(assoc, rs, X_PAIR, 0.5)


def test_theta_specific_plaus_uniform_exact():
    assoc = uniform_loc.association()
    rs = uniform_loc.random_set(10)
    for theta in (-0.05, 0.0, 0.1):
        got = theta_specific_plaus(assoc, rs, X_PAIR, theta, MC)
        want = uniform_loc.alpha_index_exact(X_PAIR, theta)
        # exact support mass: only the 2-tol nudge separates the two
        assert got == pytest.approx(want, abs=1e-5)
    assert theta_specific_plaus(assoc, rs, X_PAIR, uniform_loc.theta_hat(X_PAIR), MC) == 1.0


def test_support_mass_exact_vs_sampled():
    exact = uniform_loc.random_set(10)
    sampled = RandomSetFamily(
        support_member=exact.support_member,
        aux_sampler=exact.aux_sampler,
    )
    for alpha in (0.05, 0.25, 0.5):
        assert support_mass(exact, alpha, 0.0, MC) == 1.0 - alpha
        se = np.sqrt(alpha * (1 - alpha) / MC.reps)
        got = support_mass(sampled, alpha, 0.0, MC)
        assert got == pytest.approx(1.0 - alpha, abs=4 * se)


def test_focal_sets():
    assoc = normal_mean.association()
    fs = focal_set(assoc, 0.4, np.asarray([0.1]))
    assert isinstance(fs, Interval)
    assert fs.lower == pytest.approx(0.3) and fs.upper == pytest.approx(0.3)

    singular = uniform_loc.association()
    on_diag = np.asarray([0.25, 0.95])  # u2 - u1 == x2 - x1
    off_diag = np.asarray([0.25, 0.80])
    assert not focal_set(singular, X_PAIR, on_diag).is_empty
    assert focal_set(singular, X_PAIR, off_diag).is_empty
    assert EMPTY_REGION.is_empty


def test_fused_contour_generic_matches_exact():
    assoc = uniform_loc.association()
    rs = uniform_loc.random_set(10)
    contour = fused_contour(assoc, rs, X_PAIR, MC, witness=uniform_loc.theta_hat(X_PAIR), unimodal=True)
    for theta in (-0.09, 0.0, 0.15, 0.19):
        assert contour(theta) == pytest.approx(uniform_loc.alpha_index_exact(X_PAIR, theta), abs=1e-5)


def test_fused_contour_searches_for_witness():
    assoc = normal_mean.association()
    rs = normal_mean.random_set()
    contour = fused_contour(assoc, rs, 0.4, MC, search=GridSpec(-3.0, 3.0, 41), unimodal=True)
    assert float(contour.sup_witness) == pytest.approx(0.4, abs=1e-3)
    assert contour(0.4) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        fused_contour(assoc, rs, 0.4, MC)  # neither witness nor search grid


@pytest.mark.parametrize(
    "assoc, rs, x, search",
    [
        (normal_mean.association(), normal_mean.random_set(), 0.4, GridSpec(-3.0, 3.0, 41)),
        (binomial.association(25), binomial.random_set(25), 17, GridSpec(0.43, 0.93, 11)),
        (uniform_loc.association(), uniform_loc.random_set(10), X_PAIR, GridSpec(-0.09, 0.2, 21)),
    ],
    ids=["normal_mean", "binomial", "uniform_loc"],
)
def test_fused_contour_refinement_matches_scipy_golden(assoc, rs, x, search):
    calls = []

    def plaus(theta):
        calls.append(theta)
        return theta_specific_plaus(assoc, rs, x, theta, MC)

    witness = float(fused_contour(assoc, rs, x, MC, search, plaus=plaus).sup_witness)
    ours = len(calls)

    # Reference: the same grid search refined by scipy.optimize.golden.
    calls.clear()
    pts = search.points()
    vals = np.array([plaus(p) for p in pts])
    i = int(np.argmax(vals))
    assert 0 < i < len(pts) - 1 and vals[i] > vals[i - 1] and vals[i] > vals[i + 1]
    refined = optimize.golden(lambda t: -plaus(float(t)), brack=(pts[i - 1], pts[i], pts[i + 1]), tol=1e-6)
    want = float(refined) if plaus(float(refined)) >= vals[i] else float(pts[i])
    assert want != float(pts[i])  # the refinement ran and moved the witness
    assert witness == want
    # Both routes end with the same two consonance checks at the witness.
    assert ours <= len(calls) + 2


def test_golden_refinement_near_zero_costs_no_more_than_away_from_it():
    # scipy's purely relative stop chases a witness near 0 to ever finer
    # precision; the floor at the starting bracket's width bounds that work
    assoc, rs = normal_mean.association(), normal_mean.random_set()

    def count(x):
        calls = []

        def plaus(theta):
            calls.append(theta)
            return theta_specific_plaus(assoc, rs, x, theta, MC)

        fused_contour(assoc, rs, x, MC, GridSpec(x - 8.0, x + 8.0, 11), plaus=plaus)
        return len(calls)

    assert count(0.0) <= count(3.0) + 2


def test_fused_contour_detects_normalization_failure():
    # supports shrunk by half never meet the fiber at high alpha anywhere
    assoc = normal_mean.association()
    broken = RandomSetFamily(
        support_member=lambda u, alpha, theta: np.abs(np.asarray(u, dtype=float)).reshape(len(u), -1)[:, 0]
        <= 0.5 * dist.quantile(dist.normal(), 1.0 - alpha / 2.0) - 0.2,
        aux_sampler=lambda mc: dist.sample(dist.normal(), mc),
        mass=lambda alpha, theta, mc: 1.0 - alpha,
    )
    with pytest.raises(ConsonanceError):
        fused_contour(assoc, broken, 0.4, MC, search=GridSpec(-3.0, 3.0, 41))


def test_check_nested_support():
    report = check_nested_support(uniform_loc.random_set(10), 0.0, (0.05, 0.1, 0.25, 0.5, 0.9), MC)
    assert report.passed
    assert report.checked_draws == MC.reps

    # alpha mapped through 1 - alpha orders the supports backwards
    rs = uniform_loc.random_set(10)
    flipped = RandomSetFamily(
        support_member=lambda u, alpha, theta: rs.support_member(u, 1.0 - alpha, theta),
        aux_sampler=rs.aux_sampler,
    )
    bad = check_nested_support(flipped, 0.0, (0.05, 0.5), MC)
    assert not bad.passed
    assert bad.violations[0][:2] == (0.05, 0.5)

    with pytest.raises(ValueError):
        check_nested_support(rs, 0.0, (0.05,), MC)


def test_check_compatibility_witness_path():
    # singular association: sampled u are off-diagonal almost surely, so only
    # the deterministic witness can establish compatibility
    report = check_compatibility(
        uniform_loc.association(), uniform_loc.random_set(10), X_PAIR, uniform_loc.theta_hat(X_PAIR), 0.05, MC
    )
    assert report.compatible
    assert report.status == "compatible"


def test_check_compatibility_sampled_path():
    report = check_compatibility(normal_mean.association(), normal_mean.random_set(), 0.4, 0.0, 0.05, MC)
    assert report.compatible


def test_check_compatibility_incompatible():
    # focal sets globally empty: nothing can explain the observation
    assoc = Association(
        forward=lambda theta, u: theta + u,
        fiber=lambda x, theta: np.asarray([[x - theta]], dtype=float),
        focal=lambda x, u: EMPTY_REGION,
    )
    report = check_compatibility(assoc, normal_mean.random_set(), 0.4, 0.0, 0.05, MC)
    assert report.status == "incompatible"
    assert not report.compatible


def test_draw_cache_never_serves_another_familys_draws():
    # Every random_set() call builds a fresh sampler closure.  Once one is
    # freed (reference counting frees it at ``del``), CPython may hand its id
    # to the next one, so the cache must not key on id(): alternate two
    # families whose draws differ in shape.
    mc = MCConfig(reps=50, seed=3)
    wrong = 0
    for i in range(400):
        rs = binomial.random_set(5) if i % 2 == 0 else uniform_loc.random_set(4)
        wrong += not np.array_equal(fusion._cached_draws(rs, mc), rs.aux_sampler(mc))
        del rs
    assert wrong == 0
