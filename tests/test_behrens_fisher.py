"""Two-sample mean difference with unequal variances: interval family vs fusion."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, optimize, special, stats

from confbel import fusion
from confbel import mc as mc_module
from confbel.audit import DEFAULT_ALPHA_GRID, coverage_probability
from confbel.fusion import support_mass
from confbel.mc import MCConfig
from confbel.models import REGISTRY, behrens_fisher_bundle
from confbel.models import behrens_fisher as bf

# the stock data, the bf command's default summaries: a small two-route
# commute-time summary with severely unequal variances
DATA = bf.BehrensFisherData(n1=5, m1=7.580, v1=2.237, n2=11, m2=6.136, v2=0.073)

# independently computed from the stock data (arbitrary-precision t CDF)
DIFF = 1.444
SE = 0.67382220476648262
T4_Q_975 = 2.7764451051977944
HS_AT_ZERO = 0.098754664550390614

MC = MCConfig(reps=100_000, seed=11)

# The slices are checked at 11 lambdas x 21 phis on each of 3 datasets.
SLICE_LAMBDAS = np.linspace(0.0, 1.0, 11)

# ROADMAP item 2's grid: 4 x 3 x 4 x 6 = 288 cases, plus t = 0.
GRID_N1, GRID_N2, GRID_LAMBDAS = (2, 3, 5, 30), (2, 4, 30), (0.0, 0.3, 0.7, 1.0)
GRID_T = (0.0, 0.01, 0.05, 0.5, 2.0, 12.0, 50.0)

HINT_TRUTH = (0.0, 0.0, 4.0, 1.0)


def slice_exact(n1: int, n2: int, lam: float, t: float) -> float:
    """Exact fixed-lambda slice ``S_lambda(t) = P{|Z| > t sqrt(W)}``, where
    ``W = lam A + (1 - lam) B`` with ``A ~ chi2_{n1-1}/(n1-1)`` and
    ``B ~ chi2_{n2-1}/(n2-1)``.

    Craig's form ``erfc(x) = (2/pi) int_0^{pi/2} exp(-x^2 / sin^2 th) dth``
    turns the slice into one smooth integral of the moment generating function
    of W, which is a product of two scaled chi-square MGFs.  At small t the
    integrand climbs from 0 to near 1 within th ~ t, a step that one adaptive
    ``quad`` over [0, pi/2] can miss (it reads 1.0 at t = 1e-5 for (30, 30,
    0.3), 7.9e-6 too high), so the range is split at ``min(pi/4, 8t)``.
    """
    m, k = n1 - 1, n2 - 1

    def mgf(th):
        q = t * t / np.sin(th) ** 2
        return (1.0 + lam * q / m) ** (-m / 2.0) * (1.0 + (1.0 - lam) * q / k) ** (-k / 2.0)

    if t == 0.0:
        return 1.0
    split = min(np.pi / 4.0, 8.0 * t)
    val = sum(
        integrate.quad(mgf, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        for a, b in ((0.0, split), (split, np.pi / 2.0))
    )
    return 2.0 / np.pi * val


def test_data_summaries():
    d = DATA
    assert d.diff == pytest.approx(DIFF, abs=1e-15)
    assert d.se == pytest.approx(SE, abs=1e-15)
    assert d.dof == 4
    with pytest.raises(ValueError):
        bf.BehrensFisherData(1, 0.0, 1.0, 5, 0.0, 1.0)
    with pytest.raises(ValueError):
        bf.BehrensFisherData(5, 0.0, 0.0, 5, 0.0, 1.0)


def test_hs_contour_and_interval():
    d = DATA
    assert bf.hs_contour(d, d.diff) == pytest.approx(1.0, abs=1e-14)
    assert bf.hs_contour(d, 0.0) == pytest.approx(HS_AT_ZERO, abs=1e-12)
    tstar = special.stdtrit(d.dof, 0.975)
    lower, upper = d.diff - tstar * d.se, d.diff + tstar * d.se
    assert lower == pytest.approx(DIFF - T4_Q_975 * SE, abs=1e-9)
    assert upper == pytest.approx(DIFF + T4_Q_975 * SE, abs=1e-9)
    # contour at the endpoints returns the level
    assert bf.hs_contour(d, lower) == pytest.approx(0.05, abs=1e-9)


def test_pivotal_draws_cached_and_shaped():
    # the data path draws afresh; the structural checks read the draws through
    # fusion's one cache
    rs = bf.random_set(5, 11)
    a = fusion._cached_draws(rs, MC)
    assert a is fusion._cached_draws(rs, MC) and np.array_equal(a, bf.pivotal_draws(5, 11, MC))
    assert a.shape == (MC.reps, 4)
    # c_k ~ chi2_{n_k - 1}: mean n_k - 1, variance 2 (n_k - 1)
    assert a[:, 2].mean() == pytest.approx(4.0, abs=0.08)
    assert a[:, 3].mean() == pytest.approx(10.0, abs=0.2)



def test_cached_pivot_table_is_read_only():
    # the structural checks read bf's pivotal draws from fusion's cache; a
    # write would move every later draw of those checks
    u = fusion._cached_draws(bf.random_set(5, 11), MC)
    assert np.array_equal(u, bf.random_set(5, 11).aux_sampler(MC))
    with pytest.raises(ValueError):
        u[:, 0] *= 2.0

# The sizes of the two groups: both parities of n - 1, n - 1 = 1, and a group
# of 300, whose 149 exponentials numpy sums pairwise.
SAMPLER_N1, SAMPLER_N2 = (2, 3, 4, 5, 11, 12, 40), (2, 3, 5, 11, 300)


def _hand_written_sample(n1: int, n2: int, theta, mc: MCConfig) -> np.ndarray:
    """The sampler as it was written beside the association: the oracle of
    the draws through it."""
    k1, k2 = n1 - 1, n2 - 1
    normals, h1 = 2 + k1 % 2 + k2 % 2, k1 // 2
    mu1, mu2, s1, s2 = (float(v) for v in theta)
    u = mc.generator().random((mc.reps, normals + h1 + k2 // 2))
    z = special.ndtri(u[:, :normals])
    e = np.log1p(-u[:, normals:])  # minus the unit exponentials
    sq = z[:, 2:] * z[:, 2:]
    chi1 = np.sum(sq[:, : k1 % 2], axis=1) - 2.0 * np.sum(e[:, :h1], axis=1)
    chi2 = np.sum(sq[:, k1 % 2 :], axis=1) - 2.0 * np.sum(e[:, h1:], axis=1)
    m1 = mu1 + np.sqrt(s1 / n1) * z[:, 0]
    m2 = mu2 + np.sqrt(s2 / n2) * z[:, 1]
    return np.column_stack([m1, m2, s1 * chi1 / k1, s2 * chi2 / k2])


def test_sampler_draws_are_the_hand_written_ones(monkeypatch):
    # bit for bit: the same uniforms through the same ufuncs, whole and in
    # row blocks, and the bundle's datasets hold those rows
    monkeypatch.setattr(mc_module, "BLOCK_DRAWS", 1 << 14)  # 20 000 reps take 20 to 211 blocks
    for n1 in SAMPLER_N1:
        for n2 in SAMPLER_N2:
            bundle = behrens_fisher_bundle(n1, n2)
            for truth in (HINT_TRUTH, (1.5, -2.0, 0.3, 9.0)):
                for reps in (1, 7, 20_000):
                    mc = MCConfig(reps=reps, seed=23, stream_id=2)
                    want = _hand_written_sample(n1, n2, truth, mc)
                    assert np.array_equal(bundle.sampling.sample(truth, mc), want), (n1, n2, truth, reps)
                    blocks = [bundle.sampling.sample(truth, b) for b in mc.blocks(bundle.sampling.draws_per_rep)]
                    assert len(blocks) > 1 or reps < 20_000
                    assert np.array_equal(np.concatenate(blocks), want), (n1, n2, truth, reps)
                    if reps < 20_000:
                        rows = bundle.data_replicates(truth, reps, mc)
                        assert [(r.n1, r.n2) for r in rows] == [(n1, n2)] * reps
                        assert np.array_equal([(r.m1, r.m2, r.v1, r.v2) for r in rows], want)


def test_lambda_of():
    assert bf.lambda_of((0.0, 0.0, 1.0, 1.0), 5, 11) == pytest.approx((1 / 5) / (1 / 5 + 1 / 11))
    assert bf.lambda_of((0.0, 0.0, 1.0, 1e9), 5, 11) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValueError):
        bf.lambda_of((0.0, 0.0, -1.0, 1.0), 5, 11)


def test_lambda_one_slice_is_exact_t():
    # at lambda = 1 the pivot is a plain |t| with dof = n1 - 1 = dof of the
    # interval family, so the slice must match the closed form
    d = DATA
    phis = np.linspace(d.diff - 4 * d.se, d.diff + 4 * d.se, 21)
    got = bf.slice_plaus(d.n1, d.n2, d, 1.0, phis)
    want = bf.hs_contour(d, phis)
    assert np.max(np.abs(got - want)) < 0.01


def test_slice_plaus_reads_the_exact_slice_at_each_key():
    # rows with v1/5 + v2/11 = 1 have f = 1, so at phi = 0 a row's key is its
    # m1 exactly: ties between rows, a negative m1, 0, far tails and one NaN,
    # read against phi on a column
    m1 = np.asarray([0.01, 0.7, 0.7, 1.9, 6.5, -0.4, np.nan, 0.0, 40.0])
    rows = np.column_stack([m1, np.zeros_like(m1), np.full_like(m1, 2.5), np.full_like(m1, 5.5)])
    phi = np.asarray([0.0, 0.25, -1.0])[:, None]
    got = bf.slice_plaus(5, 11, rows, 0.3, phi)
    keys = np.abs(m1 - phi)
    want = np.asarray([[slice_exact(5, 11, 0.3, t) if np.isfinite(t) else 0.0 for t in row] for row in keys])
    assert got.shape == (3, len(m1))
    assert np.max(np.abs(got - want)) <= 1e-10
    assert got[0, 6] == 0.0 and got[0, 7] == pytest.approx(1.0, abs=1e-15) and got[0, 1] == got[0, 2]


def test_lambda_plaus_validation():
    with pytest.raises(ValueError):
        bf.slice_plaus(5, 11, DATA, 1.5, 0.0)


def test_support_mass_is_the_pivot_law_at_the_interval_level():
    # support mass at (alpha, theta) is P{T_lambda <= t*_alpha}, within 1e-10
    # of the oracle, at the bundle's hint truth and beside it; the mass reads
    # the table slice_plaus reads, also once slice_plaus has filled that
    # table's 8-entry cache
    rs = bf.random_set(5, 11)
    for lam in np.linspace(0.05, 0.95, 9):
        bf.slice_plaus(5, 11, DATA, float(lam), 0.0)
    for theta in (HINT_TRUTH, (0.3, 4.0, 1.0), (0.0, 1.0, 1.0), (-2.0, 0.01, 9.0), (1.0, 9.0, 0.01)):
        lam = bf.lambda_of(theta, 5, 11)
        for alpha in (0.01, 0.05, 0.2, 0.5, 0.9):
            t_star = float(bf._t_quantile(4, 1.0 - alpha / 2.0))
            got = support_mass(rs, alpha, theta, MC)
            assert abs(got - (1.0 - slice_exact(5, 11, lam, t_star))) <= 1e-10
            row = (t_star, 0.0, 2.5, 5.5)  # f = 1, so the key is t_star
            assert got == 1.0 - bf.slice_plaus(5, 11, row, lam, 0.0)


def test_rule_and_table_are_exact_on_the_grid():
    # the 2 x 96-node rule within 1e-12 of the split-quad oracle, and the
    # interpolated table within 1e-10, on every case of the grid (measured:
    # 8.9e-14 and 2.1e-12)
    for n1 in GRID_N1:
        for n2 in GRID_N2:
            for lam in GRID_LAMBDAS:
                exact = np.asarray([slice_exact(n1, n2, lam, t) for t in GRID_T])
                assert np.max(np.abs(bf._craig_rule(n1, n2, lam, GRID_T) - exact)) <= 1e-12, (n1, n2, lam)
                assert np.max(np.abs(bf._slice(n1, n2, lam, np.asarray(GRID_T)) - exact)) <= 1e-10, (n1, n2, lam)


def test_endpoint_slices_are_student_t():
    # at lambda = 1 the slice is 2 F_{n1-1}(-t), at lambda = 0 2 F_{n2-1}(-t),
    # on t in [0, 20] and out to 1e6 (measured: rule 2.5e-15, table 2.8e-12);
    # the table also below the rule's range, t in [1e-9, 1e-3], against
    # P{|T| <= t} = I_{t^2/(dof + t^2)}(1/2, dof/2), which keeps its digits
    # there (stdtr(1, -1e-9) is 3.2e-10 off; measured 4.8e-12)
    ts = np.concatenate([np.linspace(0.0, 20.0, 2001), np.geomspace(20.0, 1e6, 200)])
    small = np.geomspace(1e-9, 1e-3, 61)
    for n1, n2 in ((2, 2), (2, 5), (5, 11), (30, 4), (3, 200)):
        for lam, dof in ((1.0, n1 - 1), (0.0, n2 - 1)):
            want = 2.0 * special.stdtr(dof, -ts)
            assert np.max(np.abs(bf._craig_rule(n1, n2, lam, ts) - want)) <= 1e-12, (n1, n2, lam)
            assert np.max(np.abs(bf._slice(n1, n2, lam, ts) - want)) <= 1e-10, (n1, n2, lam)
            near_one = 1.0 - special.betainc(0.5, dof / 2.0, small**2 / (dof + small**2))
            assert np.max(np.abs(bf._slice(n1, n2, lam, small) - near_one)) <= 1e-10, (n1, n2, lam)


def test_slices_far_in_the_tail_with_a_group_of_two():
    # n = 2 gives the heaviest tail, S ~ 1/t; from t = 1e3 to 1e7 the table
    # reads the oracle within 1e-12 (measured: 8.2e-13)
    ts = np.geomspace(1e3, 1e7, 40)
    for n1, n2 in ((2, 2), (2, 4), (2, 30), (4, 2)):
        for lam in (0.3, 0.7):
            exact = np.asarray([slice_exact(n1, n2, lam, t) for t in ts])
            assert np.max(np.abs(bf._slice(n1, n2, lam, ts) - exact)) <= 1e-12, (n1, n2, lam)


def test_slice_at_zero_is_one_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n1, n2, lam in ((2, 2, 0.0), (5, 11, 0.3), (30, 4, 1.0)):
            assert bf._craig_rule(n1, n2, lam, [0.0])[0] == pytest.approx(1.0, abs=1e-15)
            assert bf.slice_plaus(n1, n2, (0.0, 0.0, 1.0, 1.0), lam, 0.0) == pytest.approx(1.0, abs=1e-15)
            assert bf.slice_plaus(n1, n2, (np.inf, 0.0, 1.0, 1.0), lam, 0.0) == 0.0


def test_oracle_is_exact_at_small_t():
    # the split quad against the closed form at the endpoint lambdas, where
    # the one-piece quad was 7.9e-6 off at t = 1e-5
    for t in (1e-5, 1e-4, 1e-3):
        for lam, dof in ((1.0, 29), (0.0, 29)):
            assert slice_exact(30, 30, lam, t) == pytest.approx(2.0 * special.stdtr(dof, -t), abs=1e-13)
    assert abs(slice_exact(30, 30, 0.3, 1e-5) - bf._slice(30, 30, 0.3, 1e-5)) <= 1e-12


def test_marginal_dominates_slices_and_peaks_at_one():
    # the bundle's marginal is the interval contour: every exact slice lies
    # below it, the lambda = 1 slice (all weight on the smaller group, n1 = 5)
    # attains it, and it peaks at 1 at the observed difference
    d = DATA
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
    m1, m2, v1, v2 = bf.sampling(5, 11).sample(HINT_TRUTH, MCConfig(reps=1, seed=seed))[0]
    return bf.BehrensFisherData(5, m1, v1, 11, m2, v2)


@pytest.mark.parametrize("data", [DATA, _replicate(101), _replicate(202)])
def test_marginal_is_max_of_lambda_slices(data):
    # the slices read the exact ones within 1e-10, and the max of the exact
    # slices over lambda is hs_contour; a slice sees the data only through t,
    # so the datasets exercise slice_plaus's phi-to-t mapping
    phis = np.linspace(data.diff - 3 * data.se, data.diff + 3 * data.se, 21)
    ts = np.abs(data.diff - phis) / data.se
    exact = np.asarray([[slice_exact(data.n1, data.n2, lam, t) for t in ts] for lam in SLICE_LAMBDAS])
    got = np.asarray([bf.slice_plaus(data.n1, data.n2, data, float(lam), phis) for lam in SLICE_LAMBDAS])
    assert np.max(np.abs(got - exact)) <= 1e-10
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
    for theta in ((1.2, 0.0, 4.0, 1.0), (1.5, 2.0, 0.3, 7.0)):  # (mu1, mu2, s1, s2)
        xs = assoc.forward(theta, u)
        assert xs.shape == (50, 4)
        for x, row in zip(xs, u):
            assert_allclose(assoc.forward(theta, row), x, rtol=0.0, atol=0.0)
            assert_allclose(assoc.focal(x, row), theta, rtol=1e-12, atol=1e-12)  # the one focal point


def test_contour_at_truth_validity():
    # the exact contour is uniform under the truth, so at each of the seven
    # levels the exceedance lies within 3 se of alpha, two-sided; stated
    # before the run: Bonferroni over 14 tails, family-wise 14 Phi(-3) = 0.019
    fn = bf.contour_at_truth(5, 11)
    theta = HINT_TRUTH
    mc = MCConfig(reps=10_000, seed=53)
    xs = bf.sampling(5, 11).sample(theta, mc)
    pls = fn(xs, theta)
    assert pls.shape == (mc.reps,)
    for alpha in DEFAULT_ALPHA_GRID:
        se = np.sqrt(alpha * (1 - alpha) / mc.reps)
        assert abs(np.mean(pls <= alpha) - alpha) <= 3 * se, alpha


def test_contour_at_truth_reads_alpha_at_each_exact_alpha_point():
    # t_alpha solves S_lambda(t) = alpha at the hint truth's lambda on the
    # oracle; a fixed 100 000-row pivot table read 0.00943 at alpha = 0.01
    # (t = 3.7695) and 0.50129 at alpha = 0.5
    fn = bf.contour_at_truth(5, 11)
    lam = bf.lambda_of(HINT_TRUTH, 5, 11)
    for alpha in DEFAULT_ALPHA_GRID:
        t_alpha = optimize.brentq(lambda t: slice_exact(5, 11, lam, t) - alpha, 1e-9, 100.0, xtol=1e-14)
        row = np.asarray([[t_alpha, 0.0, 2.5, 5.5]])  # f = 1 and phi = 0, so the key is t_alpha
        assert abs(fn(row, HINT_TRUTH)[0] - alpha) <= 1e-9, (alpha, t_alpha)


def test_default_grid_centered():
    g = bf.default_grid(DATA)
    pts = g.points()
    assert len(pts) == 201
    assert pts[0] == pytest.approx(DIFF - 6 * SE)
    assert pts[-1] == pytest.approx(DIFF + 6 * SE)
