"""The fused construction read from the confidence family.

The support ``S_alpha(theta) = {u : theta in C_alpha(forward(theta, u))}`` is
the family's membership read through the association (``support_of``), and
the alpha index is the family's confidence contour.  The supports written
in auxiliary coordinates are kept here as oracles of the first fact
(binomial's in ``test_binomial.py``); the models' closed-form contours are
the oracles of the second.  The data are drawn through the association too
(``sampling_of``); the samplers once written beside it are the oracles of
that.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from confbel import distributions as dist
from confbel import mc as mc_module
from confbel.contours import ALPHA_BISECT_TOL, GridSpec
from confbel.fusion import alpha_index, check_compatibility, fused_contour, support_of, theta_specific_plaus
from confbel.mc import MCConfig
from confbel.models import behrens_fisher as bf
from confbel.models import REGISTRY, binomial, dkw, normal_mean, uniform_loc

ALPHAS = (0.01, 0.05, 0.2, 0.5, 0.9)


# --------------------------------------------------------------------------
# Oracles: the supports as written in auxiliary coordinates


def normal_support(u, alpha, theta):
    return np.abs(np.asarray(u, dtype=float)) <= dist.quantile(1.0 - alpha / 2.0)


def uniform_support(u, alpha, theta):
    u = np.atleast_2d(np.asarray(u, dtype=float))
    u1, u2 = u[:, 0], u[:, 1]
    slack = 1.0 - u2
    valid = (u1 >= 0.0) & (u2 <= 1.0) & (u1 <= u2)
    return valid & (u1 * (2.0 - alpha) >= slack * alpha) & (u1 * alpha <= slack * (2.0 - alpha))


def bf_support(n1, n2):
    def member(u, alpha, theta):
        tstar = dist.quantile(1.0 - alpha / 2.0, df=min(n1, n2) - 1)
        u, lam = np.atleast_2d(np.asarray(u, dtype=float)), bf.lambda_of(theta, n1, n2)
        z = np.sqrt(lam) * u[:, 0] - np.sqrt(1.0 - lam) * u[:, 1]
        return np.abs(z) <= tstar * np.sqrt(lam * u[:, 2] / (n1 - 1) + (1.0 - lam) * u[:, 3] / (n2 - 1))

    return member


def dkw_support(u, alpha, theta):
    u = np.atleast_2d(np.asarray(u, dtype=float))
    return dkw.ks_distances(u) <= dkw.dkw_delta(u.shape[1], alpha)


def _mismatches(derived, oracle, draws, thetas):
    return sum(
        int(np.count_nonzero(np.asarray(derived(draws, a, t)) != np.asarray(oracle(draws, a, t))))
        for t in thetas
        for a in ALPHAS
    )


def unit_exp():
    return dkw.ParametricCDF(
        cdf=lambda t: -np.expm1(-np.maximum(np.asarray(t, dtype=float), 0.0)),
        quantile=lambda u: -np.log1p(-u),
        name="Exp(1)",
    )


def test_normal_and_uniform_supports_are_the_hand_written_ones():
    mc = MCConfig(reps=20_000, seed=72)
    normal = normal_mean.random_set()
    assert _mismatches(normal.support_member, normal_support, normal.aux_sampler(mc), (-2.0, 0.0, 0.7, 5.0)) == 0
    unif = uniform_loc.random_set(10)
    assert _mismatches(unif.support_member, uniform_support, unif.aux_sampler(mc), (-0.4, 0.0, 0.37)) == 0


def test_behrens_fisher_support_is_the_hand_written_one():
    rs = bf.random_set(5, 11)
    draws = rs.aux_sampler(MCConfig(reps=50_000, seed=73))
    thetas = [(1.2, 0.0, 4.0, 1.0), (-0.3, 0.0, 0.2, 3.0), (0.0, 0.0, 1.0, 1.0), (8.5, 1.5, 50.0, 0.01)]
    assert _mismatches(rs.support_member, bf_support(5, 11), draws, thetas) == 0


def test_dkw_support_is_the_hand_written_one():
    rs = dkw.random_set(799)
    draws = rs.aux_sampler(MCConfig(reps=2_000, seed=74))
    assert _mismatches(rs.support_member, dkw_support, draws, (unit_exp(),)) == 0


# --------------------------------------------------------------------------
# The alpha index is the confidence contour


@settings(max_examples=60, deadline=None)
@given(x=st.floats(-5.0, 5.0), theta=st.floats(-8.0, 8.0))
def test_normal_index_is_the_pivot_contour(x, theta):
    assert abs(alpha_index(normal_mean.association(), x, theta) - normal_mean.pivot_contour(x, theta)) <= (
        2 * ALPHA_BISECT_TOL
    )


@settings(max_examples=60, deadline=None)
@given(x=st.integers(0, 25), theta=st.floats(0.001, 0.999))
def test_binomial_index_is_the_exact_tail_contour(x, theta):
    got = alpha_index(binomial.association(25), x, theta)
    assert abs(got - binomial.cp_contour(25, x, theta)) <= 2 * ALPHA_BISECT_TOL


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0), s=st.floats(-0.2, 1.2))
def test_uniform_index_is_the_exact_index(a, b, s):
    x = (min(a, b), max(a, b))
    # The support [x2 - 1, x1] has width 1 - (x2 - x1), and the contour rises
    # from 0 to 1 and falls back across it.  Below about 1e-9 that happens
    # within a few ulps of theta, and the two routes round to either side.
    assume(x[1] - x[0] <= 1.0 - 1e-9)
    theta = x[1] - 1.0 + s * (1.0 + x[0] - x[1])  # s in [0, 1] spans the support
    got = alpha_index(uniform_loc.association(), x, theta)
    assert abs(got - uniform_loc.alpha_index_exact(x, theta)) <= 2 * ALPHA_BISECT_TOL


@settings(max_examples=60, deadline=None)
@given(
    m=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    v=st.tuples(st.floats(0.01, 9.0), st.floats(0.01, 9.0)),
    theta=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), st.floats(0.01, 9.0), st.floats(0.01, 9.0)),
)
def test_behrens_fisher_index_is_the_interval_contour(m, v, theta):
    # the association scales by f(sigma), so the index reads the observed t
    data = bf.BehrensFisherData(5, m[0], v[0], 11, m[1], v[1])
    got = alpha_index(bf.association(5, 11), data, theta)
    assert abs(got - bf.hs_contour(data, theta[0] - theta[1])) <= 2 * ALPHA_BISECT_TOL


def test_binomial_deep_tail_reads_its_contour():
    # both tail CDFs round to 1 here, but the observation is possible
    mc = MCConfig(reps=1_000, seed=3)
    assert alpha_index(binomial.association(25), 17, 0.037) == 0.0
    pl = theta_specific_plaus(binomial.association(25), binomial.random_set(25), 17, 0.037, mc)
    assert abs(pl - binomial.im_contour(25, 17, 0.037)) <= 1e-15


@pytest.mark.parametrize("x", [(0.2, 0.9), (0.05, 0.5)])
def test_uniform_off_the_support_reads_at_most_the_nudge(x):
    mc = MCConfig(reps=1_000, seed=3)
    assoc, rs = uniform_loc.association(), uniform_loc.random_set(10)
    if x == (0.2, 0.9):
        for theta in (-0.106, 0.5):
            assert 0.0 <= theta_specific_plaus(assoc, rs, x, theta, mc) <= 2 * ALPHA_BISECT_TOL
    contour = fused_contour(assoc, rs, x, mc)
    assert contour(contour.sup_witness) >= 1.0 - 1e-8
    # the default grid reaches past the support [x2 - 1, x1] on both sides
    pts = uniform_loc.default_grid(x, 21).points()
    off = pts[(pts < x[1] - 1.0) | (pts > x[0])]
    assert len(off) >= 2 and all(0.0 <= contour(float(t)) <= 2 * ALPHA_BISECT_TOL for t in off)


# --------------------------------------------------------------------------
# Compatibility on the derived supports


def test_dkw_compatibility_by_the_mid_ranks():
    mc = MCConfig(reps=200, seed=5)
    sample = dkw.synthetic_sample(799)
    far = dkw.ParametricCDF(
        cdf=lambda t: -np.expm1(-np.maximum(np.asarray(t, dtype=float), 0.0) / 100.0),
        quantile=lambda u: -100.0 * np.log1p(-u),
        name="Exp(mean=100)",
    )
    assert dkw.dkw_contour(sample, far)[0] == 0.0  # far outside every band
    for candidate in (unit_exp(), far):
        report = check_compatibility(dkw.association(799), dkw.random_set(799), sample, candidate, 0.05, mc)
        assert report.compatible
        assert np.array_equal(report.witness, (np.arange(799) + 0.5) / 799)


def test_binomial_compatibility_by_sampling():
    mc = MCConfig(reps=2_000, seed=5)
    for x, theta in ((17, 0.68), (0, 0.02), (25, 0.9)):
        report = check_compatibility(binomial.association(25), binomial.random_set(25), x, theta, 0.05, mc)
        assert report.compatible
        assert report.acceptance_rate > 0.9


# --------------------------------------------------------------------------
# Data drawn through the association


def _by_hand(name, truth, mc):
    """Each bundle's sampler as it was written beside its association."""
    if name == "binomial":
        return dist.binom_inverse_cdf(25, float(truth), mc.uniforms())
    if name == "normal_mean":
        return truth + dist.sample(mc)
    if name == "uniform_loc":
        return truth + dist.sample_uniform_minmax(10, mc)
    u = mc.generator().random((mc.reps, 799))
    return np.sort(truth.quantile(u), axis=1)


@pytest.mark.parametrize("name", ["binomial", "dkw", "normal_mean", "uniform_loc"])
def test_samplers_are_the_hand_written_ones(name, monkeypatch):
    monkeypatch.setattr(mc_module, "BLOCK_DRAWS", 64)  # 300 reps take 75 to 300 blocks
    b = REGISTRY[name]()
    for truth in b.theta_grid_hint[:3]:
        for seed, reps in ((0, 1), (7, 5), (123, 300)):
            mc = MCConfig(reps=reps, seed=seed, stream_id=2)
            want = _by_hand(name, truth, mc)
            got = b.sampling.sample(truth, mc)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            blocks = [b.sampling.sample(truth, block) for block in mc.blocks(b.sampling.draws_per_rep)]
            assert len(blocks) > 1 or reps < 300
            assert np.array_equal(np.concatenate(blocks), want)
            rows = b.data_replicates(truth, reps, MCConfig(reps=1, seed=seed, stream_id=2))
            if name == "binomial":
                assert rows == [int(v) for v in want] and {type(r) for r in rows} == {int}
            elif name == "dkw":
                assert np.array_equal([r.values for r in rows], want)
            else:
                assert np.array_equal(rows, want)
