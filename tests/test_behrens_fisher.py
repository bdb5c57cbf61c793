"""Two-sample mean difference with unequal variances: interval family vs fusion."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, special, stats

from confbel.audit import coverage_probability
from confbel.fusion import support_mass
from confbel.mc import MCConfig
from confbel.models import REGISTRY
from confbel.models import behrens_fisher as bf
from confbel.reportio import write_rows

# independently computed from the stock data (arbitrary-precision t CDF)
DIFF = 1.444
SE = 0.67382220476648262
T4_Q_975 = 2.7764451051977944
HS_AT_ZERO = 0.098754664550390614

MC = MCConfig(reps=100_000, seed=11)

# Monte Carlo slices are checked at 11 lambdas x 21 phis on each of 3
# datasets, 693 points in all.  Bonferroni: 2 * 693 * Phi(-4.9) = 6.6e-4, so
# a correct table trips the bound anywhere with probability below 1e-3.
SLICE_LAMBDAS = np.linspace(0.0, 1.0, 11)
K_SE = 4.9


def slice_exact(n1: int, n2: int, lam: float, t: float) -> float:
    """Exact fixed-lambda slice ``S_lambda(t) = P{|Z| > t sqrt(W)}``, where
    ``W = lam A + (1 - lam) B`` with ``A ~ chi2_{n1-1}/(n1-1)`` and
    ``B ~ chi2_{n2-1}/(n2-1)``.

    Craig's form ``erfc(x) = (2/pi) int_0^{pi/2} exp(-x^2 / sin^2 th) dth``
    turns the slice into one smooth integral of the moment generating function
    of W, which is a product of two scaled chi-square MGFs.
    """
    m, k = n1 - 1, n2 - 1

    def mgf(th):
        q = t * t / np.sin(th) ** 2
        return (1.0 + lam * q / m) ** (-m / 2.0) * (1.0 + (1.0 - lam) * q / k) ** (-k / 2.0)

    val, _ = integrate.quad(mgf, 0.0, np.pi / 2.0, epsabs=1e-15, epsrel=1e-13, limit=200)
    return 2.0 / np.pi * val


def test_data_summaries():
    d = bf.DEFAULT_DATA
    assert d.diff == pytest.approx(DIFF, abs=1e-15)
    assert d.se == pytest.approx(SE, abs=1e-15)
    assert d.dof == 4
    with pytest.raises(ValueError):
        bf.BehrensFisherData(1, 0.0, 1.0, 5, 0.0, 1.0)
    with pytest.raises(ValueError):
        bf.BehrensFisherData(5, 0.0, 0.0, 5, 0.0, 1.0)


def test_from_csv_raw_rows(tmp_path):
    rows = [{"group": "a", "value": v} for v in ("1.0", "2.0", "3.0")]
    rows += [{"group": "b", "value": v} for v in ("10.0", "14.0")]
    path = tmp_path / "raw.csv"
    write_rows(path, rows, {}, "csv")
    d = bf.BehrensFisherData.from_csv(path)
    assert (d.n1, d.n2) == (3, 2)
    assert d.m1 == pytest.approx(2.0)
    assert d.v1 == pytest.approx(1.0)  # ddof = 1
    assert d.m2 == pytest.approx(12.0)
    assert d.v2 == pytest.approx(8.0)


def test_from_csv_summary_form(tmp_path):
    rows = [
        {"n": "5", "mean": "7.580", "variance": "2.237"},
        {"n": "11", "mean": "6.136", "variance": "0.073"},
    ]
    path = tmp_path / "summary.csv"
    write_rows(path, rows, {}, "csv")
    d = bf.BehrensFisherData.from_csv(path)
    assert d == bf.DEFAULT_DATA

    bad = tmp_path / "bad.csv"
    write_rows(bad, rows[:1], {}, "csv")
    with pytest.raises(ValueError):
        bf.BehrensFisherData.from_csv(bad)


def test_hs_contour_and_interval():
    d = bf.DEFAULT_DATA
    assert bf.hs_contour(d, d.diff) == pytest.approx(1.0, abs=1e-14)
    assert bf.hs_contour(d, 0.0) == pytest.approx(HS_AT_ZERO, abs=1e-12)
    iv = bf.hs_interval(d, 0.05)
    assert iv.lower == pytest.approx(DIFF - T4_Q_975 * SE, abs=1e-9)
    assert iv.upper == pytest.approx(DIFF + T4_Q_975 * SE, abs=1e-9)
    # contour at the endpoints returns the level
    assert bf.hs_contour(d, iv.lower) == pytest.approx(0.05, abs=1e-9)


def test_pivotal_draws_cached_and_shaped():
    a = bf.pivotal_draws(5, 11, MC)
    b = bf.pivotal_draws(5, 11, MC)
    assert a is b
    assert a.shape == (MC.reps, 3)
    # u21 ~ mean of 4 squared normals: mean 1, var 1/2
    assert a[:, 1].mean() == pytest.approx(1.0, abs=0.02)
    assert a[:, 2].mean() == pytest.approx(1.0, abs=0.02)


def test_t_lambda_edges():
    u = np.asarray([[1.0, 4.0, 0.25]])
    assert bf.t_lambda(u, 1.0)[0] == pytest.approx(0.5)
    assert bf.t_lambda(u, 0.0)[0] == pytest.approx(2.0)
    assert bf.t_lambda(u, 0.5)[0] == pytest.approx(1.0 / np.sqrt(0.5 * 4.25))


def test_lambda_of():
    assert bf.lambda_of((0.0, 0.0, 1.0, 1.0), 5, 11) == pytest.approx((1 / 5) / (1 / 5 + 1 / 11))
    assert bf.lambda_of((0.0, 0.0, 1.0, 1e9), 5, 11) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValueError):
        bf.lambda_of((0.0, 0.0, -1.0, 1.0), 5, 11)


def test_lambda_one_slice_is_exact_t():
    # at lambda = 1 the pivot is a plain |t| with dof = n1 - 1 = dof of the
    # interval family, so the sampled slice must match the closed form
    d = bf.DEFAULT_DATA
    phis = np.linspace(d.diff - 4 * d.se, d.diff + 4 * d.se, 21)
    got = bf.bf_lambda_plaus(d, phis, 1.0, MC)
    want = bf.hs_contour(d, phis)
    assert np.max(np.abs(got - want)) < 0.01


def test_lambda_plaus_validation():
    with pytest.raises(ValueError):
        bf.bf_lambda_plaus(bf.DEFAULT_DATA, 0.0, 1.5, MC)


def test_support_mass_is_the_pivot_law_at_the_interval_level():
    # support mass at (alpha, theta) is P{T_lambda <= t*_alpha} over the pivot
    # table, and the sorted column slice_plaus reads gives the same count,
    # also once slice_plaus has filled that column's 8-entry cache
    rs = bf.random_set(5, 11)
    u = bf.pivotal_draws(5, 11, MC)
    for lam in np.linspace(0.05, 0.95, 9):
        bf.slice_plaus(5, 11, bf.DEFAULT_DATA, float(lam), 0.0, MC)
    for theta in ((0.3, 4.0, 1.0), (0.0, 1.0, 1.0), (-2.0, 0.01, 9.0), (1.0, 9.0, 0.01)):
        lam = bf.lambda_of(theta, 5, 11)
        t_sorted = bf._sorted_t_lambda(5, 11, MC, lam)
        for alpha in (0.01, 0.05, 0.2, 0.5, 0.9):
            t_star = float(bf._t_quantile(4, 1.0 - alpha / 2.0))
            got = support_mass(rs, alpha, theta, MC)
            assert got == np.mean(bf.t_lambda(u, lam) <= t_star)
            assert got == np.searchsorted(t_sorted, t_star, side="right") / len(t_sorted)


def test_marginal_dominates_slices_and_peaks_at_one():
    # the bundle's marginal is the interval contour: every exact slice lies
    # below it, the lambda = 1 slice (all weight on the smaller group, n1 = 5)
    # attains it, and it peaks at 1 at the observed difference
    d = bf.DEFAULT_DATA
    marginal = REGISTRY["behrens_fisher"]().plaus_grid
    phis = np.linspace(d.diff - 3 * d.se, d.diff + 3 * d.se, 41)
    pl = marginal(d, phis)
    ts = np.abs(d.diff - phis) / d.se
    for lam in (0.0, 0.3, 0.7, 1.0):
        exact = np.asarray([slice_exact(d.n1, d.n2, lam, t) for t in ts])
        assert np.all(exact <= pl + 1e-12)
    assert_allclose(exact, pl, rtol=0.0, atol=1e-12)
    assert marginal(d, d.diff) == pytest.approx(1.0, abs=1e-12)


def _replicate(seed: int) -> bf.BehrensFisherData:
    m1, m2, v1, v2 = bf.sampling(5, 11).sample((0.0, 0.0, 4.0, 1.0), MCConfig(reps=1, seed=seed))[0]
    return bf.BehrensFisherData(5, m1, v1, 11, m2, v2)


@pytest.mark.parametrize("data", [bf.DEFAULT_DATA, _replicate(101), _replicate(202)])
def test_marginal_is_max_of_lambda_slices(data):
    # the Monte Carlo slices track the exact ones within K_SE standard
    # errors, and the max of the exact slices over lambda is hs_contour; a
    # slice sees the data only through t, so the datasets exercise
    # bf_lambda_plaus's phi-to-t mapping
    phis = np.linspace(data.diff - 3 * data.se, data.diff + 3 * data.se, 21)
    ts = np.abs(data.diff - phis) / data.se
    exact = np.asarray([[slice_exact(data.n1, data.n2, lam, t) for t in ts] for lam in SLICE_LAMBDAS])
    mc = np.asarray([bf.bf_lambda_plaus(data, phis, float(lam), MC) for lam in SLICE_LAMBDAS])
    se = np.sqrt(exact * (1.0 - exact) / MC.reps)
    assert np.all(np.abs(mc - exact) <= K_SE * se + 1e-12)
    assert_allclose(exact.max(axis=0), bf.hs_contour(data, phis), rtol=0.0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    n1=st.integers(2, 30),
    n2=st.integers(2, 30),
    lam=st.floats(0.0, 1.0),
    t=st.floats(0.05, 12.0),
)
def test_slices_never_exceed_interval_contour(n1, n2, lam, t):
    # Mickey & Brown: S_lambda(t) <= 2(1 - F_dof(t)), dof = min(n1, n2) - 1,
    # with equality at the lambda that puts all the weight on the smaller group
    bound = 2.0 * (1.0 - special.stdtr(min(n1, n2) - 1, t))
    assert slice_exact(n1, n2, lam, t) <= bound + 1e-10
    endpoint = 1.0 if n1 <= n2 else 0.0
    assert slice_exact(n1, n2, endpoint, t) == pytest.approx(bound, abs=1e-10)


def test_family_coverage_nominal():
    theta = (0.0, 0.0, 4.0, 1.0)
    est = coverage_probability(
        bf.sampling(5, 11),
        bf.family(5, 11),
        theta,
        0.05,
        MCConfig(reps=20_000, seed=47),
        interest=lambda t: t[0] - t[1],
    )
    # the interval family is conservative for unequal variances: >= nominal
    assert est.estimate >= 0.95 - 4 * est.se


# The sampler's laws, stated before the draws were made: 25 size pairs x 6
# Kolmogorov-Smirnov tests at a family-wise level of 1e-3, Bonferroni, so
# each test rejects below p = 1e-3 / 150.  20 000 rows a pair.
LAW_SIZES = (2, 3, 4, 5, 11)  # k = n - 1 of both parities, k = 1 included
LAW_TRUTH = (1.5, -2.0, 4.0, 0.25)
LAW_P = 1e-3 / (len(LAW_SIZES) ** 2 * 6)


@pytest.mark.parametrize("n1", LAW_SIZES)
@pytest.mark.parametrize("n2", LAW_SIZES)
def test_sampler_draws_the_exact_summary_laws(n1, n2):
    # m ~ N(mu, s/n) and v ~ s chi2_k / k; the studentized mean is t_k only
    # if each group's mean and variance are independent, which fails if they
    # share uniforms
    mu1, mu2, s1, s2 = LAW_TRUTH
    m1, m2, v1, v2 = bf.sampling(n1, n2).sample(LAW_TRUTH, MCConfig(reps=20_000, seed=2303)).T
    for n, mu, s, m, v in ((n1, mu1, s1, m1, v1), (n2, mu2, s2, m2, v2)):
        k = n - 1
        for sample, law in (
            ((m - mu) / np.sqrt(s / n), stats.norm.cdf),
            (k * v / s, stats.chi2(k).cdf),
            ((m - mu) / np.sqrt(v / n), stats.t(k).cdf),
        ):
            assert stats.kstest(sample, law).pvalue > LAW_P


def test_association_round_trip():
    assoc = bf.association(5, 11)
    u = bf.pivotal_draws(5, 11, MCConfig(reps=50, seed=9))
    for theta in ((1.2, 4.0, 1.0), (-0.5, 0.3, 7.0)):  # (phi, s1, s2)
        xs = assoc.forward(theta, u)
        assert xs.shape == (50, 4)
        for x, row in zip(xs, u):
            assert_allclose(assoc.forward(theta, row), x, rtol=0.0, atol=0.0)
            assert assoc.focal(x, row).contains(theta)


def test_contour_at_truth_validity():
    fn = bf.contour_at_truth(5, 11)
    theta = (0.0, 0.0, 4.0, 1.0)
    mc = MCConfig(reps=10_000, seed=53)
    xs = bf.sampling(5, 11).sample(theta, mc)
    pls = fn(xs, theta)
    assert pls.shape == (mc.reps,)
    for alpha in (0.05, 0.25, 0.5):
        se = np.sqrt(alpha * (1 - alpha) / mc.reps)
        assert np.mean(pls <= alpha) <= alpha + 3 * se


def test_default_grid_centered():
    g = bf.default_grid(bf.DEFAULT_DATA)
    pts = g.points()
    assert len(pts) == 201
    assert pts[0] == pytest.approx(DIFF - 6 * SE)
    assert pts[-1] == pytest.approx(DIFF + 6 * SE)
