"""Fused random-set machinery against the models' closed forms."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from confbel import distributions as dist
from confbel import fusion
from confbel.contours import ConfidenceFamily, ConsonanceError, GridSpec, Interval, contour_from_family
from confbel.fusion import (
    EMPTY_REGION,
    RandomSetFamily,
    alpha_index,
    check_compatibility,
    check_nested_support,
    focal_set,
    fused_contour,
    support_mass,
    support_of,
    theta_specific_plaus,
)
from confbel.mc import MCConfig
from confbel.models import REGISTRY, binomial, normal_mean, uniform_loc

MC = MCConfig(reps=20_000, seed=31)
X_PAIR = (0.2, 0.9)  # observed (min, max) of the uniform-location model


def test_alpha_index_matches_normal_closed_form():
    assoc = normal_mean.association()
    x = 0.4
    for theta in (-1.5, 0.0, 0.4, 1.1, 2.7):
        got = alpha_index(assoc, x, theta)
        want = 2.0 * special.ndtr(-abs(x - theta))
        assert got == pytest.approx(want, abs=2e-6)


def test_alpha_index_clamps_exact():
    assoc = normal_mean.association()
    assert alpha_index(assoc, 0.4, 0.4) == 1.0
    assert alpha_index(assoc, 0.4, 40.0) == 0.0


def test_alpha_index_matches_uniform_closed_form():
    assoc = uniform_loc.association()
    for theta in (-0.05, 0.0, 0.1, 0.19):
        got = alpha_index(assoc, X_PAIR, theta)
        want = uniform_loc.alpha_index_exact(X_PAIR, theta)
        assert got == pytest.approx(want, abs=2e-6)


def test_alpha_index_is_zero_off_the_support():
    # theta above the observed minimum cannot have produced the data: no
    # region contains it, and the supremum over an empty set is 0
    assert uniform_loc.alpha_index_exact(X_PAIR, 0.5) == 0.0
    assert alpha_index(uniform_loc.association(), X_PAIR, 0.5) == 0.0


def test_theta_specific_plaus_uniform_exact():
    assoc = uniform_loc.association()
    rs = uniform_loc.random_set(10)
    for theta in (-0.05, 0.0, 0.1):
        got = theta_specific_plaus(assoc, rs, X_PAIR, theta, MC)
        want = uniform_loc.alpha_index_exact(X_PAIR, theta)
        # exact support mass: only the bisection's resolution separates the two
        assert got == pytest.approx(want, abs=1e-5)
    assert theta_specific_plaus(assoc, rs, X_PAIR, uniform_loc.theta_hat(X_PAIR), MC) == 1.0


def _generic_route_case(model, rng):
    """One (x, theta) drawn as the benchmark's generic route draws them."""
    if model == "normal_mean":
        x = float(rng.normal(3.0))
        return x, x + rng.uniform(-3.5, 3.5)
    if model == "binomial":
        x = int(rng.binomial(25, rng.uniform(0.05, 0.95)))
        return x, rng.uniform(max(0.001, x / 25 - 0.25), min(0.999, x / 25 + 0.25))
    u = rng.random(10)
    lo, hi = u.max() - 1.0, u.min()
    return (float(u.min()), float(u.max())), lo + (hi - lo) * rng.uniform(0.001, 0.999)


GENERIC_ROUTE = {
    # model: (association, random set, closed-form contour, closed-form fused contour)
    "normal_mean": (
        normal_mean.association(),
        normal_mean.random_set(),
        normal_mean.pivot_contour,
        normal_mean.pivot_contour,
    ),
    "binomial": (
        binomial.association(25),
        binomial.random_set(25),
        lambda x, t: binomial.cp_contour(25, x, t),
        lambda x, t: binomial.im_contour(25, x, t),
    ),
    "uniform_loc": (
        uniform_loc.association(),
        uniform_loc.random_set(10),
        uniform_loc.alpha_index_exact,
        uniform_loc.alpha_index_exact,
    ),
}


@pytest.mark.parametrize("model", sorted(GENERIC_ROUTE))
def test_generic_route_reads_the_closed_forms(model):
    # the benchmark's generic-route reference check, on 300 fixed draws a model
    assoc, rs, contour, fused = GENERIC_ROUTE[model]
    rng = np.random.default_rng(7)
    mc = MCConfig(reps=2_000, seed=5)
    for _ in range(300):
        x, theta = _generic_route_case(model, rng)
        theta = float(theta)
        assert abs(contour_from_family(assoc.family, x, theta) - contour(x, theta)) <= 1e-5, (x, theta)
        assert abs(theta_specific_plaus(assoc, rs, x, theta, mc) - fused(x, theta)) <= 1e-5, (x, theta)


def sampled_mass(rs: RandomSetFamily, alpha, theta, mc: MCConfig) -> float:
    """Monte Carlo ``P_U(S_alpha(theta))``: the share of ``rs``'s own draws
    inside the support, the oracle of every random set's ``mass``."""
    return float(np.mean(rs.support_member(rs.aux_sampler(mc), alpha, theta)))


def test_support_mass_exact_vs_sampled():
    rs = uniform_loc.random_set(10)
    for alpha in (0.05, 0.25, 0.5):
        assert support_mass(rs, alpha, 0.0, MC) == 1.0 - alpha
        se = np.sqrt(alpha * (1 - alpha) / MC.reps)
        got = sampled_mass(rs, alpha, 0.0, MC)
        assert got == pytest.approx(1.0 - alpha, abs=4 * se)


SUPPORT_ALPHAS = (0.05, 0.25, 0.5)
SUPPORT_CELLS = [(name, truth) for name in sorted(REGISTRY) for truth in REGISTRY[name]().theta_grid_hint]


@pytest.mark.parametrize("name, truth", SUPPORT_CELLS, ids=[f"{n}-{getattr(t, 'name', t)}" for n, t in SUPPORT_CELLS])
def test_every_support_mass_is_the_share_of_draws_in_its_support(name, truth):
    # Two-sided, Bonferroni over every (model, truth, alpha) cell at a
    # family-wise level of 1e-3, fixed before any run: each cell's sampled
    # share lies within z se of the mass, z = Phi^-1(1 - 1e-3 / (2 cells)).
    # behrens_fisher's mass is itself the share of its pivot table below a
    # quantile, drawn from the same stream, so its cells test that the
    # support is that event.
    cells = len(SUPPORT_CELLS) * len(SUPPORT_ALPHAS)
    z = special.ndtri(1.0 - 1e-3 / (2 * cells))
    rs = REGISTRY[name]().random_set
    mc = MCConfig(reps=2_000, seed=61)
    for alpha in SUPPORT_ALPHAS:
        mass = support_mass(rs, alpha, truth, mc)
        se = np.sqrt(mass * (1.0 - mass) / mc.reps)
        assert abs(sampled_mass(rs, alpha, truth, mc) - mass) <= z * se, (alpha, mass)


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
    contour = fused_contour(assoc, rs, X_PAIR, MC)
    for theta in (-0.09, 0.0, 0.15, 0.19):
        assert contour(theta) == pytest.approx(uniform_loc.alpha_index_exact(X_PAIR, theta), abs=1e-5)


def test_fused_contour_witness_is_the_family_center():
    # the center lies in every region, so the index is capped at 1 there and
    # the generic plausibility reads exactly 1 without a search
    for assoc, rs, x in (
        (normal_mean.association(), normal_mean.random_set(), 0.4),
        (binomial.association(25), binomial.random_set(25), 17),
        (uniform_loc.association(), uniform_loc.random_set(10), X_PAIR),
    ):
        contour = fused_contour(assoc, rs, x, MC)
        assert contour.sup_witness == assoc.family.center(x)
        assert contour(contour.sup_witness) == 1.0


def test_fused_contour_accepts_the_benchmark_search_keyword():
    # perfbench/workloads.py (generic_route) calls fused_contour with search=;
    # the grid is ignored and the witness is still the center
    assoc, rs = binomial.association(25), binomial.random_set(25)
    contour = fused_contour(assoc, rs, 17, MC, search=GridSpec(0.43, 0.93, 11))
    assert contour.sup_witness == assoc.family.center(17)


def test_fused_contour_detects_normalization_failure():
    # a family whose intervals shrink below zero width at high alpha: the
    # index, and with it the fused contour, peaks at about 0.69
    def member(x, alpha, theta):
        return np.abs(x - theta) <= 0.5 * dist.quantile(1.0 - alpha / 2.0) - 0.2

    assoc = replace(normal_mean.association(), family=ConfidenceFamily(member=member, center=lambda x: x))
    rs = replace(normal_mean.random_set(), support_member=support_of(assoc))
    assert alpha_index(assoc, 0.4, 0.4) == pytest.approx(2.0 * special.ndtr(-0.4), abs=2e-6)
    with pytest.raises(ConsonanceError):
        fused_contour(assoc, rs, 0.4, MC)


def test_check_nested_support():
    report = check_nested_support(uniform_loc.random_set(10), 0.0, (0.05, 0.1, 0.25, 0.5, 0.9), MC)
    assert report.passed
    assert report.checked_draws == MC.reps

    # alpha mapped through 1 - alpha orders the supports backwards
    rs = uniform_loc.random_set(10)
    flipped = RandomSetFamily(
        support_member=lambda u, alpha, theta: rs.support_member(u, 1.0 - alpha, theta),
        aux_sampler=rs.aux_sampler,
        mass=rs.mass,
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
    assoc = replace(normal_mean.association(), focal=lambda x, u: EMPTY_REGION, compat_witness=None)
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


def test_cached_draws_are_read_only():
    # the cache serves the same array to every later caller in the process
    draws = fusion._cached_draws(binomial.random_set(5), MCConfig(reps=50, seed=3))
    with pytest.raises(ValueError):
        draws[0] = 0.5
