"""Distribution toolkit: exact values, round trips, seeded streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from confbel import distributions as dist
from confbel.audit import ks_uniform
from confbel.mc import MCConfig
from confbel.models import binomial

# High-precision reference values, computed independently of the scipy
# routines the module wraps (arbitrary-precision erf/betainc/gammainc).
Z_975 = 1.9599639845400542
T4_CDF_2776 = 0.9749886108400118
T4_Q_975 = 2.7764451051977944
BINOM_25_03_PMF7 = 0.1711936396919514

# the df argument of each continuous law: None is the standard normal
DFS = {
    "normal": None,
    "student_t": 4,
}


def test_df_validation():
    # Student t takes integer df >= 1 and nothing else
    for df in (0, -1, 2.5, np.nan):
        with pytest.raises(ValueError):
            dist.cdf(0.5, df=df)
        with pytest.raises(ValueError):
            dist.quantile(0.5, df=df)


def test_cdf_known_values():
    assert dist.cdf(0.0) == 0.5
    assert dist.binom_cdf_table(2, 0.5)[1] == pytest.approx(0.75, abs=1e-14)
    assert dist.cdf(2.776, df=4) == pytest.approx(T4_CDF_2776, abs=1e-12)
    assert dist.cdf(Z_975) == pytest.approx(0.975, abs=1e-13)


def test_quantile_known_values():
    assert dist.quantile(0.975) == pytest.approx(Z_975, abs=1e-9)
    assert dist.quantile(0.975, df=4) == pytest.approx(T4_Q_975, abs=1e-8)
    # support maximum is reached just below p = 1
    assert dist.binom_inverse_cdf(25, 0.68, 1.0 - 1e-12) == 25


def test_quantile_endpoint_errors():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            dist.quantile(p)


def test_quantile_rejects_nan():
    for df in DFS.values():
        for p in (np.nan, [0.5, np.nan, 0.975]):
            with pytest.raises(ValueError):
                dist.quantile(p, df=df)


def test_binom_log_pmf_exact():
    assert np.exp(dist.binom_log_pmf(25, 7, 0.3)) == pytest.approx(BINOM_25_03_PMF7, rel=1e-13)
    # degenerate p: point masses at the support edges
    assert np.exp(dist.binom_log_pmf(10, 0, 0.0)) == 1.0
    assert np.exp(dist.binom_log_pmf(10, 10, 1.0)) == 1.0
    table = np.exp(dist.binom_log_pmf(25, np.arange(26), 0.3))
    assert table.sum() == pytest.approx(1.0, abs=1e-12)


def test_binom_cdf_table_matches_pmf_cumsum():
    table = dist.binom_cdf_table(25, 0.3)
    pmf = np.exp(dist.binom_log_pmf(25, np.arange(26), 0.3))
    assert_allclose(table, np.cumsum(pmf), atol=1e-12)
    assert table[-1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", [*sorted(DFS), "binomial"])
def test_cdf_monotone_on_grid(name):
    if name == "binomial":  # the CDF the binomial model reads: its table at floor(x)
        grid = np.linspace(-1, 26, 1000)
        table = dist.binom_cdf_table(25, 0.3)
        vals = np.where(grid < 0, 0.0, table[np.clip(np.floor(grid).astype(int), 0, 25)])
    else:
        grid = np.linspace(-8, 8, 1000)
        vals = np.asarray([dist.cdf(x, df=DFS[name]) for x in grid])
    assert np.all(np.diff(vals) >= 0)
    assert np.all((vals >= 0) & (vals <= 1))


@pytest.mark.parametrize("name", sorted(DFS))
def test_continuous_round_trips(name):
    df = DFS[name]
    ps = np.linspace(0.001, 0.999, 41)
    qs = dist.quantile(ps, df=df)
    assert_allclose(dist.cdf(qs, df=df), ps, atol=1e-9)
    xs = qs[::4]
    assert_allclose(dist.quantile(dist.cdf(xs, df=df), df=df), xs, atol=1e-7, rtol=1e-7)


@given(
    family=st.sampled_from(["normal", "student_t"]),
    df=st.integers(min_value=1, max_value=30),
    ps=st.lists(
        st.one_of(st.sampled_from([1e-12, 1.0 - 1e-12]), st.floats(min_value=1e-12, max_value=1.0 - 1e-12)),
        min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=200, deadline=None)
def test_continuous_quantile_round_trip_to_clip_edges(family, df, ps):
    # [1e-12, 1 - 1e-12] is the range the two-sample model clips its
    # t-quantile requests to
    df = None if family == "normal" else df
    ps = np.asarray(ps)
    qs = dist.quantile(ps, df=df)
    assert np.all(np.abs(dist.cdf(qs, df=df) - ps) <= 1e-10)
    assert np.array_equal(qs, [dist.quantile(float(p), df=df) for p in ps])


@given(p=st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=60, deadline=None)
def test_binomial_quantile_is_minimal(p):
    table = dist.binom_cdf_table(25, 0.3)
    k = dist.binom_inverse_cdf(25, 0.3, p)
    assert table[k] >= p
    if k > 0:
        assert table[k - 1] < p


# Keys for the guide-table lookup, resolved against the table and its m
# cells: ("table", i, s) is the float s steps from table[i], ("edge", j, s)
# the float s steps from j/m, ("value", v, 0) the float v itself.
_GUIDE_KEY = st.one_of(
    st.tuples(st.just("table"), st.integers(0, 100_000), st.integers(-1, 1)),
    st.tuples(st.just("edge"), st.integers(0, 1 << 16), st.integers(-1, 1)),
    st.tuples(
        st.just("value"),
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, -1e-300, -0.5, 1.5, 1e300]),
            st.floats(0.0, 1.0, exclude_max=True),
            st.floats(allow_nan=False),
        ),
        st.just(0),
    ),
)


def _step(x: float, steps: int) -> float:
    return float(np.nextafter(x, np.inf if steps > 0 else -np.inf)) if steps else x


@given(
    n=st.integers(1, 1000),
    p=st.one_of(st.sampled_from([0.0, 1.0, 1e-300, 0.5]), st.floats(0.0, 1.0)),
    picks=st.lists(_GUIDE_KEY, min_size=1, max_size=24),
)
@example(n=100_000, p=0.5, picks=[("table", 50_000, 1), ("edge", 1 << 15, -1), ("value", np.nan, 0)])
@settings(max_examples=200, deadline=None)
def test_binomial_inverse_cdf_is_the_table_search(n, p, picks):
    table = dist.binom_cdf_table(n, p)
    m = len(dist._binom_guide(n, p)[1])
    assert m & (m - 1) == 0 and m <= dist.GUIDE_MAX_CELLS
    u = np.asarray(
        [
            _step(float(table[i % (n + 1)]) if kind == "table" else (i % (m + 1)) / m if kind == "edge" else i, s)
            for kind, i, s in picks
        ]
    )
    expected = np.searchsorted(table, u, side="left")
    assert np.array_equal(dist.binom_inverse_cdf(n, p, u), expected)
    # one route for every shape: 0-d keys give scalars, 2-d keys keep their shape
    assert [dist.binom_inverse_cdf(n, p, key) for key in u] == expected.tolist()
    if len(u) % 2 == 0:
        grid = u.reshape(2, -1)
        assert np.array_equal(dist.binom_inverse_cdf(n, p, grid), np.searchsorted(table, grid, side="left"))


def test_sample_determinism():
    mc = MCConfig(reps=10, seed=7)
    a = dist.sample(mc)
    b = dist.sample(MCConfig(reps=10, seed=7))
    assert np.array_equal(a, b)
    c = dist.sample(MCConfig(reps=10, seed=7, stream_id=1))
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("name", ["normal"])
def test_sampler_goodness(name):
    # 1% KS critical value for the cdf-transformed stream
    reps = 100_000
    draws = dist.sample(MCConfig(reps=reps, seed=3))
    u = dist.cdf(draws, df=DFS[name])
    assert ks_uniform(np.clip(u, 0.0, 1.0)) <= 1.63 / np.sqrt(reps)


def test_normal_sample_mean():
    reps = 100_000
    draws = dist.sample(MCConfig(reps=reps, seed=5))
    assert abs(draws.mean()) <= 3.0 / np.sqrt(reps)


def test_binomial_sample_matches_inversion():
    mc = MCConfig(reps=2000, seed=9)
    draws = binomial.sampling(25).sample(0.3, mc)
    u = mc.uniforms()
    expected = np.asarray([dist.binom_inverse_cdf(25, 0.3, ui) for ui in u])
    assert np.array_equal(draws, expected)
    assert draws.min() >= 0 and draws.max() <= 25


def test_sample_uniform_minmax_shape_and_order():
    pairs = dist.sample_uniform_minmax(10, MCConfig(reps=5000, seed=21))
    assert pairs.shape == (5000, 2)
    assert np.all(pairs[:, 0] <= pairs[:, 1])
    assert np.all((pairs >= 0.0) & (pairs <= 1.0))
    # order-statistic means: 1/(n+1) and n/(n+1), each with sd ~ 1/(n+1)/sqrt(reps)-ish
    assert pairs[:, 0].mean() == pytest.approx(1 / 11, abs=0.005)
    assert pairs[:, 1].mean() == pytest.approx(10 / 11, abs=0.005)
    with pytest.raises(ValueError):
        dist.sample_uniform_minmax(1, MCConfig(reps=10, seed=0))


# The pair's laws, stated before the draws were made: 4 sizes x 3
# Kolmogorov-Smirnov tests at a family-wise level of 1e-3, Bonferroni, so
# each test rejects below p = 1e-3 / 12.  20 000 rows a size.
@pytest.mark.parametrize("n", [2, 3, 10, 1000])
def test_sample_uniform_minmax_draws_the_order_statistic_laws(n):
    lo, hi = dist.sample_uniform_minmax(n, MCConfig(reps=20_000, seed=2304)).T
    for sample, law in ((lo, stats.beta(1, n)), (hi, stats.beta(n, 1)), (hi - lo, stats.beta(n - 1, 2))):
        assert stats.kstest(sample, law.cdf).pvalue > 1e-3 / 12
