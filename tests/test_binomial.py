"""Binomial model: exact-tail contours, the sharpened fused contour, enumeration oracles."""

from __future__ import annotations

import functools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import special, stats

from confbel import distributions as dist
from confbel.audit import contour_validity_audit
from confbel.contours import ConfidenceFamily
from confbel.fusion import EMPTY_REGION, alpha_index, check_nested_support, theta_specific_plaus
from confbel.mc import MCConfig
from confbel.models import REGISTRY, binomial

N = 25
THETA_GRID = np.linspace(0.02, 0.98, 49)


def test_cdf_given_theta_cross_routes():
    # incomplete-beta route vs the summed-pmf table vs scipy
    for theta in (0.1, 0.3, 0.68, 0.9):
        table = dist.binom_cdf_table(N, theta)
        for x in (0, 3, 12, 24, 25):
            got = binomial.cdf_given_theta(N, x, theta)
            assert got == pytest.approx(table[min(x, N)], abs=1e-12)
            assert got == pytest.approx(stats.binom.cdf(x, N, theta), abs=1e-12)
    assert binomial.cdf_given_theta(N, -1, 0.3) == 0.0
    assert binomial.cdf_given_theta(N, 40, 0.3) == 1.0


def test_cp_member_matches_beta_quantile_interval():
    # equal-tail interval endpoints through the independent beta-quantile route
    for x in (0, 1, 7, 17, 25):
        for alpha in (0.05, 0.1, 0.25):
            lo = 0.0 if x == 0 else stats.beta.ppf(alpha / 2, x, N - x + 1)
            hi = 1.0 if x == N else stats.beta.ppf(1 - alpha / 2, x + 1, N - x)
            for theta in THETA_GRID:
                if min(abs(theta - lo), abs(theta - hi)) < 1e-9:
                    continue
                assert bool(binomial.cp_member(N, x, alpha, theta)) == bool(lo <= theta <= hi)


def test_cp_contour_formula():
    for x in (0, 7, 17, 25):
        got = binomial.cp_contour(N, x, THETA_GRID)
        f2 = stats.binom.cdf(x, N, THETA_GRID)
        f1 = stats.binom.cdf(x - 1, N, THETA_GRID)
        want = np.minimum(np.minimum(2 * f2, 2 * (1 - f1)), 1.0)
        assert_allclose(got, want, atol=1e-12)


@given(
    x=st.integers(min_value=0, max_value=N),
    theta=st.floats(min_value=0.01, max_value=0.99),
    alpha=st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=80, deadline=None)
def test_cp_member_iff_contour_at_least_alpha(x, theta, alpha):
    member = bool(binomial.cp_member(N, x, alpha, theta))
    contour = binomial.cp_contour(N, x, theta)
    if abs(contour - alpha) > 1e-12:  # ties are representation-dependent
        assert member == (contour >= alpha)


def binom_g(n: int, x: int, theta):
    """Right-limit support mass ``g(theta, x)`` at the alpha index, by
    enumerating the outcomes whose two tails both exceed ``alpha*/2``."""
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    astar = np.atleast_1d(binomial.cp_contour(n, x, thetas))
    ks = np.arange(n + 1, dtype=float)
    f_curr = binomial.cdf_given_theta(n, ks[:, None], thetas[None, :])
    # S[k] = P(X >= k) = 1 - F(k-1), but taken from the stable route.
    s_curr = binomial.sf_given_theta(n, ks[:, None], thetas[None, :])
    pmf = np.exp(dist.binom_log_pmf(n, ks[:, None], thetas[None, :]))
    qualifies = (f_curr > astar[None, :] / 2.0) & (s_curr > astar[None, :] / 2.0)
    g = np.sum(pmf * qualifies, axis=0)
    return g if np.ndim(theta) else float(g[0])


def test_binom_g_matches_exact_mass_right_limit():
    # strict enumeration at the index == closed support mass just beyond it;
    # the 1e-9 nudge must stay below the local jump spacing, so deep-tail
    # indices (where spacing ~ alpha itself) are skipped
    checked = 0
    for x in (3, 7, 12, 17):
        for theta in (0.15, 0.3, 0.4, 0.62, 0.75):
            astar = binomial.cp_contour(N, x, theta)
            if not 1e-3 < astar < 1.0:
                continue
            g = binom_g(N, x, theta)
            assert g == pytest.approx(binomial.exact_mass(N, astar + 1e-9, theta), abs=1e-10)
            checked += 1
    assert checked >= 8


def hand_written_support(n):
    """The support as written in auxiliary coordinates: the test oracle of
    the one derived from the family."""

    def member(u, alpha, theta):
        u = np.ravel(np.asarray(u, dtype=float))
        table = dist.binom_cdf_table(n, float(theta))
        xs = np.clip(np.searchsorted(table, u, side="left"), 0, n)
        f1 = np.where(xs == 0, 0.0, table[np.maximum(xs - 1, 0)])
        f2 = table[xs]
        return (f2 >= alpha / 2.0) & (1.0 - f1 >= alpha / 2.0)

    return member


def test_derived_support_is_the_hand_written_one():
    derived, oracle = binomial.random_set(N).support_member, hand_written_support(N)
    u = MCConfig(reps=20_000, seed=71).uniforms()
    bad = sum(
        int(np.count_nonzero(derived(u, alpha, theta) != oracle(u, alpha, theta)))
        for theta in np.linspace(0.02, 0.98, 25)
        for alpha in (0.01, 0.05, 0.2, 0.5, 0.9)
    )
    assert bad == 0


def test_binom_g_matches_monte_carlo():
    # Two of the cases sit on the capped plateau, where astar + 1e-9 lies
    # above 1: no region of the family has a level there, so the support
    # derived from it is empty.  g's enumeration extends the tail predicate
    # beyond 1, and so does the hand-written support it is checked against.
    member = hand_written_support(N)
    u = MCConfig(reps=100_000, seed=41).uniforms()
    for x, theta in [(7, 0.3), (17, 0.62), (12, 0.5)]:
        astar = binomial.cp_contour(N, x, theta)
        g = binom_g(N, x, theta)
        est = float(np.mean(member(u, astar + 1e-9, theta)))
        se = np.sqrt(max(g * (1 - g), 1e-12) / len(u))
        assert est == pytest.approx(g, abs=4 * se)


def test_im_contour_never_exceeds_cp():
    for x in range(N + 1):
        cp = binomial.cp_contour(N, x, THETA_GRID)
        im = binomial.im_contour(N, x, THETA_GRID)
        assert np.all(im <= cp + 1e-12)
        assert np.all((im >= 0) & (im <= 1))


def test_im_contour_visible_gap_at_fig_settings():
    thetas = binomial.default_grid().points()
    gap = binomial.cp_contour(N, 17, thetas) - binomial.im_contour(N, 17, thetas)
    assert gap.max() > 0.02


def test_im_contour_one_on_capped_plateau():
    # where both tails clear 1/2 the index caps at 1 and so does the contour
    thetas = THETA_GRID[binomial.cp_contour(N, 17, THETA_GRID) >= 1.0]
    assert len(thetas) > 0
    assert_allclose(binomial.im_contour(N, 17, thetas), 1.0, atol=0)


def _im_contour_two_tables(n, x, theta):
    """The fused contour read from both full tail tables, each tail by its own
    incomplete-beta expression: the oracle of the one-table ``im_contour``."""

    def cdf(k, t):
        return np.where((0 <= k) & (k < n), special.betainc(n - k, k + 1.0, 1.0 - t), k >= n)

    def sf(k, t):
        return np.where((0 < k) & (k <= n), special.betainc(k, n - k + 1.0, t), k <= 0)

    xs, thetas = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(theta, dtype=float))
    astar = np.minimum(2.0 * np.minimum(cdf(xs, thetas), sf(xs, thetas)), 1.0)
    ks = np.arange(n + 1, dtype=float).reshape((-1,) + (1,) * thetas.ndim)
    f, s, half = cdf(ks, thetas[None]), sf(ks, thetas[None]), astar[None] / 2.0
    lo = np.max(np.where(f <= half, f, 0.0), axis=0)
    hi = np.max(np.where(s <= half, s, 0.0), axis=0)
    return np.where(astar >= 1.0, 1.0, lo + hi)


def test_im_contour_is_the_two_table_oracle_bit_for_bit():
    # Off [0, 1] and at NaN both tails are NaN or one of them is, so alpha* is
    # NaN and the contour reads 0.0; the smallest subnormals and the floats
    # next to 0 and 1 are where a per-column choice of table could slip.
    edges = [0.0, 1.0, 5e-324, 1e-300, 1e-16, 1.0 - 1e-16, np.nextafter(1.0, 0.0), 0.5]
    outside = [-1e-300, -0.5, 1.0 + 1e-16, 1.0114, 2.0, np.inf, -np.inf, np.nan]
    thetas = np.concatenate([np.linspace(-0.05, 1.05, 221), edges, outside])
    for n in (1, 2, 5, 25, 60, 200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in range(n + 1):
                got, want = binomial.im_contour(n, x, thetas), _im_contour_two_tables(n, x, thetas)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, x)
            stacked = np.arange(n + 1)
            for theta in thetas[::5]:
                got, want = binomial.im_contour(n, stacked, theta), _im_contour_two_tables(n, stacked, theta)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, theta)


def test_im_contour_matches_the_oracle_where_betainc_does_not_underflow():
    # At n = 1000 betainc is not monotone in a below about 1e-250, so the
    # first passing outcome need not hold the table's largest passing tail;
    # everywhere else the two agree bit for bit.
    n = 1000
    thetas = np.concatenate([np.linspace(0.0, 1.0, 401), [1e-300, 1.0 - 1e-16, np.nan, 1.5]])
    for x in (0, 1, 3, 100, 333, 500, 777, 999, 1000):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = binomial.im_contour(n, x, thetas), _im_contour_two_tables(n, x, thetas)
        same = got.view(np.int64) == want.view(np.int64)
        assert np.all(same | ((got < 1e-250) & (want < 1e-250))), x


@pytest.mark.parametrize("n", [25, 1000])
def test_im_contour_costs_log_n_tails_a_theta_column(monkeypatch, n):
    evaluated = []
    betainc = special.betainc

    def counting(a, b, z):
        evaluated.append(np.broadcast(a, b, z).size)
        return betainc(a, b, z)

    # patched where the package reads it: binomial.special holds its own copy
    # of scipy.special's names once read, so a patch there would go unseen
    monkeypatch.setattr(binomial.special, "betainc", counting)
    thetas = binomial.default_grid().points()
    bound = int(np.ceil(np.log2(n + 2))) + 2
    for x in (0, n // 3, n):
        evaluated.clear()
        binomial.im_contour(n, x, thetas)
        assert 0 < sum(evaluated) <= bound * len(thetas), (x, sum(evaluated))
    # a stack at one theta: one column per outcome, counted on a cold table
    evaluated.clear()
    binomial._outcome_table.cache_clear()
    binomial.im_contour(n, np.arange(n + 1), 0.3)
    assert 0 < sum(evaluated) <= bound * (n + 1)


def test_im_contour_reads_zero_off_the_unit_interval_on_every_route():
    # x = 1 at theta just above 1: the lower tail is NaN and the upper tail 1,
    # so a side picked by comparing the two would read the capped value 1.0
    theta = 1.0114
    assert binomial.im_contour(N, 1, np.array([0.5, theta]))[1] == 0.0
    assert binomial.im_contour(N, 1, theta) == 0.0
    bundle = REGISTRY["binomial"]()
    assert bundle.contour_at_truth(np.array([0, 1, N]), theta).tolist() == [0.0, 0.0, 0.0]
    # the exact-tail contour reads 0.0 there too, so containment holds; at
    # -1e-300 one tail's 1 - theta rounds to 1, and 1 + 1e-16 is 1.0
    outside = np.array([theta, -0.5, 2.0, np.inf, -np.inf, np.nan])
    edges = np.array([-1e-300, 1.0 + 1e-16])
    for x in range(N + 1):
        im, cp = binomial.im_contour(N, x, outside), binomial.cp_contour(N, x, outside)
        assert np.all(im == 0.0) and np.all(cp == 0.0), x
        assert np.all(binomial.im_contour(N, x, edges) <= binomial.cp_contour(N, x, edges)), x
    for t in np.concatenate([outside, edges]):
        stacked = np.arange(N + 1)
        assert np.all(binomial.im_contour(N, stacked, t) <= binomial.cp_contour(N, stacked, t))
        assert binomial.im_contour(N, 1, t) <= binomial.cp_contour(N, 1, t)


def test_im_contour_matches_generic_fusion():
    assoc = binomial.association(N)
    rs = binomial.random_set(N)
    mc = MCConfig(reps=1000, seed=3)
    # The last three are near ties: another outcome's threshold lies less than
    # 2.5e-6 above the index, where a reading at index + 2 tol drops its atom.
    near_ties = [(17, 0.5202663348549804), (23, 0.6743066295759572), (12, 0.2431606124019985)]
    for x, theta in [(7, 0.2), (7, 0.45), (17, 0.5), (17, 0.75)] + near_ties:
        idx = alpha_index(assoc, x, theta)
        assert idx == pytest.approx(binomial.cp_contour(N, x, theta), abs=2e-6)
        pl = theta_specific_plaus(assoc, rs, x, theta, mc)
        assert pl == pytest.approx(binomial.im_contour(N, x, theta), abs=1e-9)


def test_right_limit_costs_one_membership_call():
    calls = []

    def member(x, alpha, theta):
        calls.append(alpha)
        return binomial.cp_member(N, x, alpha, theta)

    assoc = replace(binomial.association(N), family=ConfidenceFamily(member=member, center=lambda x: x / N))
    rs = binomial.random_set(N)
    mc = MCConfig(reps=10, seed=3)
    for x, theta in [(7, 0.2), (17, 0.5202663348549804), (0, 0.9), (12, 0.48)]:
        calls.clear()
        index = alpha_index(assoc, x, theta)
        probes = len(calls)
        calls.clear()
        theta_specific_plaus(assoc, rs, x, theta, mc)
        # an index inside (0, 1) refines its last bracket in one call, an
        # index of 0 searches (0, tol) in all 12, and an index of 1 reads 1
        assert len(calls) == probes + {0.0: 12, 1.0: 0}.get(index, 1)


def test_tails_scalar_calls_are_the_array_call_and_exact_off_the_support():
    thetas = np.array([0.0, 1e-300, 0.5, 1.0 - 1e-12, 1.0])
    for n in (1, 2, 25, 100):
        xs = np.arange(-4, 2 * n + 5) / 2.0  # -2..n+2 in half steps
        for fn, zero, one in (
            (binomial.cdf_given_theta, xs < 0, xs >= n),
            (binomial.sf_given_theta, xs > n, xs <= 0),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                grid = fn(n, xs[:, None], thetas[None, :])
                scalars = [[fn(n, x, t) for t in thetas] for x in xs.tolist()]
            assert all(type(v) is float for row in scalars for v in row)
            assert grid.tobytes() == np.array(scalars).tobytes()
            assert np.all(grid[zero] == 0.0) and np.all(grid[one] == 1.0)


def test_exact_validity_by_enumeration():
    # the fused contour at the truth is stochastically no smaller than uniform,
    # provable here by summing pmf over outcomes, no sampling involved
    for theta in (0.1, 0.37, 0.5, 0.82):
        pmf = np.diff(dist.binom_cdf_table(N, theta), prepend=0.0)
        pls = binomial.im_contour(N, np.arange(N + 1), theta)
        for alpha in (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9):
            assert float(pmf[pls <= alpha].sum()) <= alpha + 1e-12


def test_family_batch_matches_scalar():
    fam = binomial.family(N)
    xs = np.arange(N + 1)
    for alpha, theta in [(0.05, 0.3), (0.25, 0.68)]:
        batch = fam.member_batch(xs, alpha, theta)
        scalar = np.asarray([fam.member(x, alpha, theta) for x in xs])
        assert np.array_equal(batch, scalar)
    # the anchor sits inside regions at every practical level
    for x in (0, 7, 25):
        c = fam.center(x)
        assert fam.member(x, 0.999, c)


def test_association_round_trip():
    assoc = binomial.association(N)
    u = MCConfig(reps=40, seed=9).uniforms()
    for theta in (0.05, 0.3, 0.8):
        xs = assoc.forward(theta, u)
        for x, ui in zip(xs.tolist(), u):
            assert assoc.forward(theta, ui) == x
            assert assoc.focal(x, ui).contains(theta)
    # the ends at x = 0 and x = n are 0 and 1, and each end's inner point maps
    # forward to the outcome
    for ui in u:
        low, high = assoc.focal(0, ui), assoc.focal(N, ui)
        assert low.lower == 0.0 and high.upper == 1.0
        assert assoc.forward(0.5 * low.upper, ui) == 0
        assert assoc.forward(0.5 * (1.0 + high.lower), ui) == N


@pytest.mark.parametrize("u", [0.0, 1e-300, 1e-310, 5e-324])
def test_focal_at_vanishing_u(u):
    # u = 0 fits no outcome; under about 1e-300 betaincinv may return NaN or a
    # bound that crosses the other, which read empty rather than raise
    assoc = binomial.association(N)
    for x in range(N + 1):
        focal = assoc.focal(x, np.asarray([u]))
        if u == 0.0:
            assert focal is EMPTY_REGION
        else:
            assert focal is EMPTY_REGION or 0.0 <= focal.lower <= focal.upper <= 1.0


def test_random_set_nested():
    report = check_nested_support(
        binomial.random_set(N), 0.3, (0.05, 0.1, 0.25, 0.5, 0.9), MCConfig(reps=20_000, seed=8)
    )
    assert report.passed


@pytest.mark.parametrize("outcome", [-1, N + 1, 2.5, np.nan])
def test_outcome_outside_range_raises(outcome):
    # a stack at one theta indexes a table of the n + 1 outcomes, where a
    # negative outcome would otherwise wrap round to the top of the table, a
    # fraction would be truncated and NaN would index far outside it
    for x in (outcome, [3, outcome]):
        with pytest.raises(ValueError):
            binomial.im_contour(N, x, 0.3)
        with pytest.raises(ValueError):
            binomial.cp_member(N, x, 0.05, 0.3)


def test_contour_at_truth_validity():
    fn = functools.partial(binomial.im_contour, N)
    mc = MCConfig(reps=10_000, seed=12)
    xs = binomial.sampling(N).sample(0.3, mc)
    assert xs.dtype.kind == "i" and xs.min() >= 0 and xs.max() <= N
    pls = fn(xs, 0.3)
    assert pls.shape == (mc.reps,)
    for alpha in (0.05, 0.25):
        se = np.sqrt(alpha * (1 - alpha) / mc.reps)
        assert np.mean(pls <= alpha) <= alpha + 3 * se


def test_audit_cell_builds_its_outcome_table_once_per_theta(monkeypatch):
    # a 100 000-rep cell draws in several row blocks at one theta; the first
    # block evaluates the 0..n outcome table and the others read it
    calls = []
    cdf = binomial.cdf_given_theta

    def counting(n, x, theta):
        calls.append(np.unique(theta).tolist())
        return cdf(n, x, theta)

    monkeypatch.setattr(binomial, "cdf_given_theta", counting)
    binomial._outcome_table.cache_clear()
    b = REGISTRY["binomial"]()
    mc = MCConfig(reps=100_000, seed=5)
    assert len(list(mc.blocks(b.sampling.draws_per_rep))) == 7
    thetas = b.theta_grid_hint[:3]
    first = contour_validity_audit(b.sampling, b.contour_at_truth, thetas, mc=mc)
    assert calls == [[t] for t in thetas]
    # a second audit reads every table from the cache, to the same rows
    assert contour_validity_audit(b.sampling, b.contour_at_truth, thetas, mc=mc).rows == first.rows
    assert len(calls) == len(thetas)
