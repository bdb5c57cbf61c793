"""Normal location model and the |theta| calibration demonstration."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import optimize, special

from confbel.audit import coverage_probability, ks_uniform
from confbel.mc import MCConfig
from confbel.models import normal_mean

W_MAX = 0.38292492254802621  # value of the CD assignment at x = 0


def test_pivot_contour_closed_form():
    assert normal_mean.pivot_contour(0.4, 0.4) == 1.0
    assert normal_mean.pivot_contour(0.0, 1.0) == pytest.approx(2 * special.ndtr(-1.0), abs=1e-14)
    # symmetric in the residual
    th = np.linspace(-3, 3, 41)
    assert_allclose(normal_mean.pivot_contour(0.0, th), normal_mean.pivot_contour(0.0, -th), atol=1e-15)


def test_family_coverage():
    est = coverage_probability(
        normal_mean.sampling(), normal_mean.family(), 0.5, 0.05, MCConfig(reps=20_000, seed=37)
    )
    assert est.estimate == pytest.approx(0.95, abs=4 * est.se)


def test_abs_fiber():
    assert normal_mean.abs_fiber(-0.1) == []
    assert normal_mean.abs_fiber(0.0) == [0.0]
    assert normal_mean.abs_fiber(0.7) == [0.7, -0.7]


def test_abs_contour_is_branch_maximum():
    x = 1.3
    c = normal_mean.abs_contour(x)
    phis = np.linspace(0.0, 4.0, 81)
    want = np.maximum(normal_mean.pivot_contour(x, phis), normal_mean.pivot_contour(x, -phis))
    assert_allclose(c(phis), want, atol=1e-15)
    assert c(abs(x)) == 1.0


def test_cd_abs_value_closed_form():
    x, phi = 0.9, 0.5
    want = special.ndtr(phi - x) - special.ndtr(-phi - x)
    assert normal_mean.cd_abs_value(x, phi) == pytest.approx(want, abs=1e-15)
    with pytest.raises(ValueError):
        normal_mean.cd_abs_value(0.9, -0.5)
    # a genuine CDF in phi: monotone, 0 at 0, 1 in the limit
    phis = np.linspace(0.0, 30.0, 301)
    vals = normal_mean.cd_abs_value(x, phis)
    assert np.all(np.diff(vals) >= 0)
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)


def cd_abs_draws(mc: MCConfig, theta: float = 0.5) -> np.ndarray:
    """Values of ``H_X(|theta|)`` under repeated sampling at the truth: the
    Monte Carlo oracle of ``normal_mean.cd_abs_law``."""
    return normal_mean.cd_abs_value(normal_mean.sampling().sample(theta, mc), abs(theta))


def test_cd_abs_draws_deterministic_and_bounded():
    mc = MCConfig(reps=2000, seed=41)
    draws = cd_abs_draws(mc)
    assert np.array_equal(draws, cd_abs_draws(mc))
    assert draws.shape == (2000,)
    assert np.all(draws > 0.0)
    assert np.all(draws <= W_MAX + 1e-12)


def cd_abs_exact_cdf(t: float, theta: float = 0.5) -> float:
    """CDF of the CD assignment at the truth, by inverting its even profile."""
    w = lambda x: special.ndtr(theta - x) - special.ndtr(-theta - x)
    if t <= 0.0:
        return 0.0
    if t >= w(0.0):
        return 1.0
    x_t = optimize.brentq(lambda x: w(x) - t, 0.0, 60.0)
    return float(1.0 - special.ndtr(x_t - theta) + special.ndtr(-x_t - theta))


def test_cd_abs_draws_far_from_uniform_but_match_their_law():
    mc = MCConfig(reps=5000, seed=1)
    draws = np.sort(cd_abs_draws(mc))
    # nowhere near Uniform(0, 1)
    assert ks_uniform(draws) > 0.10
    # yet exactly as predicted by the closed-form law of the assignment
    grid = np.linspace(1e-4, W_MAX, 200)
    exact = np.asarray([cd_abs_exact_cdf(t) for t in grid])
    empirical = np.searchsorted(draws, grid, side="right") / len(draws)
    assert np.max(np.abs(empirical - exact)) < 0.02


def _fig1_grid(theta: float) -> np.ndarray:
    """``confbel fig1``'s c-grid: from past ``|theta| + 9`` down to 0."""
    return np.linspace(abs(theta) + 9.0, 0.0, 5000)


@pytest.mark.parametrize("theta", [0.5, -1.3, 2.0, 0.05])
def test_cd_abs_law_is_the_brentq_oracle(theta):
    # the inversion behind the oracle is ill-conditioned where H is flat, at
    # c = 0, so the grid starts at 0.05 (c = 0 is the oracle's 1 exactly)
    cs = np.linspace(0.05, abs(theta) + 9.0, 400)
    v, law = normal_mean.cd_abs_law(theta, cs)
    want = [cd_abs_exact_cdf(t, abs(theta)) for t in v]
    assert_allclose(law, want, rtol=0, atol=1e-12)
    v0, law0 = normal_mean.cd_abs_law(theta, 0.0)
    assert law0 == 1.0 and v0 == normal_mean.cd_abs_value(0.0, abs(theta))


def test_cd_abs_law_is_the_law_of_the_draws():
    # DKW: the ECDF of n draws is within eps of the law everywhere with
    # probability >= 1 - 2 exp(-2 n eps^2) = 1 - 1e-3
    n = 200_000
    eps = np.sqrt(np.log(2 / 1e-3) / (2 * n))
    draws = np.sort(cd_abs_draws(MCConfig(reps=n, seed=53), theta=0.5))
    v, law = normal_mean.cd_abs_law(0.5, _fig1_grid(0.5))
    ecdf = np.searchsorted(draws, v, side="right") / n
    assert np.max(np.abs(ecdf - law)) <= eps


@pytest.mark.parametrize("theta", [0.5, -1.3, 2.0, 0.05])
def test_cd_abs_law_ks_gap_is_two_tails_at_c_zero(theta):
    cs = _fig1_grid(theta)
    v, law = normal_mean.cd_abs_law(theta, cs)
    assert np.all(np.diff(v) >= 0.0) and np.all(np.diff(law) >= 0.0)
    gap = law - v
    assert np.argmax(gap) == len(cs) - 1  # c = 0
    assert abs(np.max(gap) - 2.0 * special.ndtr(-abs(theta))) <= 1e-15
    # the grid reaches past the c where P{|X| >= c} falls below 1e-15
    assert law[0] < 1e-15


def test_cd_abs_law_at_zero_is_a_point_mass():
    v, law = normal_mean.cd_abs_law(0.0, _fig1_grid(0.0))
    assert np.all(v == 0.0) and np.all(law == 1.0)
    assert np.max(law - v) == 1.0


def test_abs_plausibility_remains_valid_at_truth():
    # the consonant marginal dominates one exactly-uniform branch, so its
    # exceedance stays below alpha even though the CD assignment's does not
    theta = 0.5
    mc = MCConfig(reps=20_000, seed=43)
    xs = normal_mean.sampling().sample(theta, mc)
    pl = np.maximum(normal_mean.pivot_contour(xs, theta), normal_mean.pivot_contour(xs, -theta))
    cd = normal_mean.cd_abs_value(xs, theta)
    for alpha in (0.05, 0.1, 0.25):
        se = np.sqrt(alpha * (1 - alpha) / mc.reps)
        assert np.mean(pl <= alpha) <= alpha + 3 * se
    # the additive assignment is anti-conservative at small levels here
    assert np.mean(cd <= 0.05) > 0.05 + 3 * np.sqrt(0.05 * 0.95 / mc.reps)
