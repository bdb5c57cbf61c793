"""Distribution-free CDF bands and the sup-norm contour."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from confbel.fusion import check_compatibility, check_nested_support, support_mass
from confbel.mc import MCConfig
from confbel.models import dkw, dkw_bundle
from confbel.reportio import write_rows

DELTA_799_005 = 0.048046177817020379
MC = MCConfig(reps=100_000, seed=23)


def unit_exp() -> dkw.ParametricCDF:
    return dkw.ParametricCDF(
        cdf=lambda t: -np.expm1(-np.maximum(np.asarray(t, dtype=float), 0.0)),
        quantile=lambda u: -np.log1p(-u),
        name="Exp(1)",
    )


def left_limit(f: dkw.StepFn, t):
    """``f(t-)``: the value on the last jump strictly before ``t``."""
    idx = np.searchsorted(f.xs, np.asarray(t, dtype=float), side="left") - 1
    vals = np.where(idx >= 0, f.ys[np.maximum(idx, 0)], f.y_pre)
    return vals if vals.ndim else float(vals)


def test_step_fn_evaluation():
    f = dkw.StepFn([1.0, 2.0], [0.4, 1.0], y_pre=0.1)
    assert f(0.5) == 0.1
    assert f(1.0) == 0.4  # right-continuous
    assert left_limit(f, 1.0) == 0.1
    assert f(1.7) == 0.4
    assert f(2.0) == 1.0
    assert left_limit(f, 2.0) == 0.4
    # the generalized inverse inf{t : f(t) >= u}
    assert f.quantile(0.1) == -np.inf and f.quantile(0.0) == -np.inf
    assert f.quantile(0.2) == 1.0 and f.quantile(0.4) == 1.0
    assert f.quantile(np.nextafter(0.4, 1.0)) == 2.0 and f.quantile(1.0) == 2.0
    assert np.array_equal(dkw.StepFn([1.0], [0.5]).quantile([0.5, 0.75]), [1.0, np.inf])
    assert np.array_equal(f(np.asarray([0.0, 1.0, 3.0])), [0.1, 0.4, 1.0])
    with pytest.raises(ValueError):
        dkw.StepFn([2.0, 1.0], [0.1, 0.2])
    with pytest.raises(ValueError):
        dkw.StepFn([1.0], [0.1, 0.2])
    with pytest.raises(ValueError):
        dkw.StepFn([], [])


def test_empirical_sample():
    s = dkw.EmpiricalSample([3.0, 1.0, 2.0, 2.0])
    assert s.n == 4
    assert np.array_equal(s.values, [1.0, 2.0, 2.0, 3.0])
    e = s.ecdf()
    assert np.array_equal(e.xs, [1.0, 2.0, 3.0])
    assert np.array_equal(e.ys, [0.25, 0.75, 1.0])  # tie handled in one jump
    with pytest.raises(ValueError):
        dkw.EmpiricalSample([])
    with pytest.raises(ValueError):
        dkw.EmpiricalSample([1.0, np.inf])


def test_empirical_sample_from_csv(tmp_path):
    path = tmp_path / "vals.csv"
    write_rows(path, [{"value": "0.3"}, {"value": "0.1"}], {}, "csv")
    s = dkw.EmpiricalSample.from_csv(path)
    assert np.array_equal(s.values, [0.1, 0.3])
    with pytest.raises(ValueError):
        dkw.EmpiricalSample.from_csv(path, column="missing")


def test_dkw_delta():
    assert dkw.dkw_delta(799, 0.05) == pytest.approx(DELTA_799_005, abs=1e-15)
    assert dkw.dkw_delta(799, 2.0 - 1e-12) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValueError):
        dkw.dkw_delta(0, 0.05)
    with pytest.raises(ValueError):
        dkw.dkw_delta(799, 2.5)
    # broadcasts over alpha, each entry the scalar value, and checks every entry
    alphas = np.array([[0.01], [0.05], [0.5]])
    assert dkw.dkw_delta(799, alphas).tolist() == [[dkw.dkw_delta(799, float(a))] for a in alphas[:, 0]]
    for bad in ([0.05, 2.5], [0.0, 0.05], [0.05, np.nan]):
        with pytest.raises(ValueError):
            dkw.dkw_delta(799, np.array(bad))


def test_dkw_band_geometry():
    sample = dkw.synthetic_sample(799)
    delta, lower, upper = dkw.dkw_band(sample, 0.05)
    ehat = sample.ecdf()
    assert np.all(lower.ys <= ehat.ys) and np.all(ehat.ys <= upper.ys)
    assert np.all((lower.ys >= 0.0) & (upper.ys <= 1.0))
    # unclipped somewhere at the top, so the band edge sits exactly delta away
    assert dkw.distance(sample, lower) == pytest.approx(delta, abs=1e-15)
    assert dkw.distance(sample, upper) == pytest.approx(delta, abs=1e-15)


def test_sup_norm_continuous_matches_classic_formula():
    sample = dkw.synthetic_sample(799)
    truth = unit_exp()
    f = truth(sample.values)
    n = sample.n
    i = np.arange(1, n + 1)
    classic = max(np.max(i / n - f), np.max(f - (i - 1) / n))
    assert dkw.distance(sample, truth) == pytest.approx(classic, abs=1e-12)
    assert dkw.distance(sample, truth) == pytest.approx(
        stats.kstest(sample.values, truth.cdf).statistic, abs=1e-12
    )


def test_sup_norm_step_candidate_by_hand():
    sample = dkw.EmpiricalSample([1.0, 2.0, 3.0])
    candidate = dkw.StepFn([1.5], [1.0], y_pre=0.25)
    # the largest gap opens just after the candidate's jump: |1/3 - 1|
    assert dkw.distance(sample, candidate) == pytest.approx(2.0 / 3.0, abs=1e-15)


def sup_norm_reference(sample, candidate) -> float:
    """Both one-sided limits of both functions, each found by ``searchsorted``
    at every point of the union of their jump points."""
    xs, counts = np.unique(sample.values, return_counts=True)
    ehat = dkw.StepFn(xs, np.cumsum(counts) / sample.n)
    ts = xs
    if isinstance(candidate, dkw.StepFn):
        ts = np.union1d(ts, candidate.xs)
        f_right = np.asarray(candidate(ts), dtype=float)
        f_left = np.asarray(left_limit(candidate, ts), dtype=float)
    else:
        f_right = f_left = np.asarray(candidate(ts), dtype=float)
    e_right = np.asarray(ehat(ts), dtype=float)
    e_left = np.asarray(left_limit(ehat, ts), dtype=float)
    return float(max(np.max(np.abs(e_right - f_right)), np.max(np.abs(e_left - f_left))))


def _step_candidate(draw, xs):
    ys = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=len(xs), max_size=len(xs))))
    y_pre = draw(st.floats(0.0, float(ys[0])))
    return dkw.StepFn(xs, ys, y_pre=y_pre)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sup_norm_equals_both_limit_reference(data):
    # Rounding to 0-2 decimals makes ties, so the ECDF has fewer jumps than n.
    decimals = data.draw(st.integers(0, 2), label="decimals")
    raw = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=60), label="values")
    sample = dkw.EmpiricalSample(np.round(raw, decimals))
    ehat = sample.ecdf()
    subset = data.draw(st.lists(st.sampled_from(ehat.xs.tolist()), min_size=1, unique=True), label="subset")
    unrelated = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=20, unique=True), label="unrelated")
    scale = data.draw(st.floats(0.2, 5.0), label="scale")
    # 2-4 step candidates on the sample's own jumps, plus ehat itself, make a
    # stack of several rows in distances; the rest go one at a time, in any order
    on_jumps = [_step_candidate(data.draw, ehat.xs) for _ in range(data.draw(st.integers(2, 4), label="stacked"))]
    candidates = data.draw(st.permutations([
        *on_jumps,
        _step_candidate(data.draw, np.sort(subset)),
        _step_candidate(data.draw, np.sort(unrelated)),
        lambda t: -np.expm1(-np.maximum(np.asarray(t, dtype=float) + 3.0, 0.0) / scale),
        ehat,
    ]), label="order")
    want = [sup_norm_reference(sample, c) for c in candidates]
    for candidate, d in zip(candidates, want):
        assert dkw.distance(sample, candidate) == d
    assert np.array_equal(dkw.distances(sample, candidates), want)
    assert dkw.distances(sample, []).shape == (0,)


def test_ecdf_is_computed_once_and_sample_stays_frozen():
    s = dkw.EmpiricalSample([3.0, 1.0, 2.0, 2.0])
    assert s.ecdf() is s.ecdf()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.values = np.asarray([0.0])
    with pytest.raises(ValueError):  # the cached ECDF cannot go stale
        s.values[0] = 5.0


def test_dkw_paths_never_build_the_null_table(monkeypatch):
    # the contour and the support mass read the exact law; the Monte Carlo
    # table is only the oracle of test_ks_null_sample_against_exact_law
    def refuse(*args, **kwargs):
        raise AssertionError("a dkw path built the Monte Carlo K_n table")

    monkeypatch.setattr(dkw, "ks_null_sample", refuse)
    for n in (100, 799):
        bundle = dkw_bundle(n)
        truth = bundle.theta_grid_hint[0]
        x = bundle.data_replicates(truth, 1, MCConfig(reps=1, seed=3))[0]
        cands = bundle.candidates_for(x)
        assert len(cands) == 10
        assert bundle.plaus_grid(x, cands).shape == (10,)
        assert bundle.contour_at_truth(bundle.sampling.sample(truth, MCConfig(reps=50, seed=4)), truth).shape == (50,)
        _, lower, _ = dkw.dkw_band(x, 0.05)
        assert 0.0 <= dkw.dkw_contour(x, lower)[1] <= 1.0
        assert 0.95 <= support_mass(bundle.random_set, 0.05, None, MC) <= 1.0


def test_sup_norm_rejects_non_cdf():
    sample = dkw.EmpiricalSample([1.0, 2.0])
    with pytest.raises(ValueError):
        dkw.distance(sample, lambda t: -0.5)
    with pytest.raises(ValueError):
        dkw.distance(sample, dkw.StepFn([0.5, 1.5], [0.9, 0.2]))
    with pytest.raises(ValueError):  # NaN would otherwise read as fully plausible
        dkw.dkw_contour(dkw.synthetic_sample(), lambda t: np.full(np.shape(t), np.nan))
    # the value before the first jump must lie in [0, ys[0]], also on the sample's own jumps
    sample = dkw.EmpiricalSample([0.1, 0.2, 0.3, 0.4])
    xs = sample.ecdf().xs
    ys = [0.2, 0.4, 0.6, 0.8]
    for y_pre in (0.9, 1.5, -0.5, np.nan):
        with pytest.raises(ValueError):
            dkw.distance(sample, dkw.StepFn(xs, ys, y_pre=y_pre))
        with pytest.raises(ValueError):
            dkw.distance(sample, dkw.StepFn(xs + 0.05, ys, y_pre=y_pre))
    assert dkw.distance(sample, dkw.StepFn(xs, ys, y_pre=0.2)) == pytest.approx(0.2, abs=1e-15)
    # one bad row fails the whole stacked pass
    good = dkw.StepFn(xs, ys, y_pre=0.1)
    with pytest.raises(ValueError):
        dkw.distances(sample, [good, sample.ecdf(), dkw.StepFn(xs, [0.2, 0.4, 0.3, 0.8]), good])


def test_alpha_index_at_band_edge_recovers_level():
    sample = dkw.synthetic_sample(799)
    for alpha in (0.05, 0.1, 0.32):
        _, lower, _ = dkw.dkw_band(sample, alpha)
        d = dkw.distance(sample, lower)
        idx, _ = dkw.dkw_contour(sample, lower)
        assert d == pytest.approx(dkw.dkw_delta(799, alpha), abs=1e-15)
        assert idx == pytest.approx(alpha, abs=1e-12)


def test_alpha_index_caps_at_one():
    sample = dkw.synthetic_sample(50)
    d = dkw.distance(sample, sample.ecdf())
    idx, _ = dkw.dkw_contour(sample, sample.ecdf())
    assert d == 0.0
    assert idx == 1.0
    assert dkw.dkw_contour(sample, sample.ecdf()) == (1.0, 1.0)


def test_ks_null_sample_against_exact_law():
    mc = MCConfig(reps=30_000, seed=59)
    table = dkw.ks_null_sample(60, mc)
    assert len(table) == mc.reps
    assert np.all(np.diff(table) >= 0)
    assert dkw.ks_null_sample(60, mc) is table  # cached
    with pytest.raises(ValueError):  # read-only, as it is shared
        table[0] = 1.0
    for x in (0.08, 0.12, 0.2):
        want = stats.kstwo.cdf(x, 60)
        got = np.searchsorted(table, x, side="right") / len(table)
        se = np.sqrt(want * (1 - want) / mc.reps)
        assert got == pytest.approx(want, abs=4 * se + 1e-6)


def test_dkw_contour_matches_exact_tail():
    sample = dkw.synthetic_sample(799)
    truth = unit_exp()
    d = dkw.distance(sample, truth)
    _, pl = dkw.dkw_contour(sample, truth)
    assert pl == pytest.approx(stats.kstwo.sf(d, 799), abs=1e-10)


def test_support_mass_respects_band_bound():
    # Massart's constant: the DKW band covers with probability >= 1 - alpha
    for n in (60, 799, 5000):
        rs = dkw.random_set(n)
        for alpha in (0.001, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 0.9):
            delta = dkw.dkw_delta(n, alpha)
            mass = support_mass(rs, alpha, None, MC)
            assert mass >= 1.0 - alpha
            assert mass == pytest.approx(1.0 - stats.kstwo.sf(delta, n), abs=1e-10)
            # For n > 140 and 2.2 <= n delta^2 < 18 scipy's cdf takes Pelz-Good
            # and its sf takes twice the one-sided tail; they differ by up to
            # 1.8e-8 there (n = 5000, alpha = 0.02).  The mass is 1 - sf, the
            # law the contour reads.
            assert mass == pytest.approx(stats.kstwo.cdf(delta, n), abs=3e-8)


def _ks_sf_grid(n: int) -> np.ndarray:
    """A grid over (0, 1] with points on, just inside and just outside every
    branch edge of ks_sf: n d = 1, n d^2 = 2.2 and 370, n d^(3/2) = 1.4,
    d = 0.5 and d = 1 - 1/n."""
    edges = np.array([1.0 / n, np.sqrt(2.2 / n), np.sqrt(370.0 / n), (1.4 / n) ** (2.0 / 3.0), 0.5, 1.0 - 1.0 / n])
    near = edges[:, None] * np.array([1.0 - 1e-3, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-3])
    d = np.concatenate((np.linspace(0.0, 1.0, 401)[1:], np.geomspace(1e-4, 1.0, 200), near.ravel()))
    return np.unique(d[(d > 0.0) & (d <= 1.0)])


@pytest.mark.parametrize("n", [1, 2, 10, 60, 140, 141, 500, 799, 5000])
def test_ks_sf_matches_kstwo(n):
    d = _ks_sf_grid(n)
    got = dkw.ks_sf(n, d)
    want = stats.kstwo.sf(d, n)
    assert np.all(np.abs(got - want) <= 1e-10)
    tail = want >= 1e-300
    assert np.all(np.abs(got - want)[tail] <= 1e-9 * want[tail])
    # one point at a time reads the same bits as the whole array
    assert [dkw.ks_sf(n, float(x)) for x in d] == got.tolist()
    assert dkw.ks_sf(n, d.reshape(-1, 1)).tolist() == got.reshape(-1, 1).tolist()


def test_random_set_nested():
    small = MCConfig(reps=4000, seed=61)
    report = check_nested_support(dkw.random_set(40), unit_exp(), (0.05, 0.1, 0.25, 0.5), small)
    assert report.passed


def test_association_round_trip():
    assoc = dkw.association(5)
    truth = unit_exp()
    u = np.sort(MCConfig(reps=1, seed=9).generator().random((20, 5)), axis=1)
    xs = assoc.forward(truth, u)
    assert xs.shape == (20, 5)
    assert np.allclose(xs, truth.quantile(u))
    for x, row in zip(xs, u):
        assert np.array_equal(assoc.forward(truth, row), x)
        # the truth and the focal CDF both lie in {F : F^{-1}(u_i) = x_(i)}
        for data in (x, dkw.EmpiricalSample(x)):
            focal = assoc.focal(data, row)
            assert isinstance(focal, dkw.StepFn)
            assert np.array_equal(focal.xs, x) and np.array_equal(assoc.forward(focal, row), x)
    # forward reads u through its order statistics, so a permuted u has the
    # sorted u's focal set; a u with a 0 entry fits no CDF
    permuted = u[0][[4, 0, 2, 1, 3]]
    focal = assoc.focal(xs[0], permuted)
    assert np.array_equal(focal.xs, xs[0]) and np.array_equal(assoc.forward(focal, permuted), xs[0])
    assert assoc.focal(xs[0], np.asarray([0.9, 0.0, 0.3, 0.5, 0.7])).is_empty
    with pytest.raises(TypeError):
        assoc.forward(lambda t: t, u)


def test_sampled_compatibility_check_finds_a_fitting_draw():
    # the sampled path alone: the random set's rows are unsorted, and each
    # one's focal set is the sorted row's, which fits the sample
    n = 40
    sample = dkw.EmpiricalSample(unit_exp().quantile(MCConfig(reps=n, seed=3).uniforms()))
    assoc = dataclasses.replace(dkw.association(n), compat_witness=None)
    report = check_compatibility(assoc, dkw.random_set(n), sample, unit_exp(), 0.05, MCConfig(reps=2_000, seed=4))
    assert report.compatible and report.checked >= 1
    assert not np.array_equal(report.witness, np.sort(report.witness))  # an unsorted draw fitted


def test_focal_cdf_of_a_tied_sample():
    # {F : F^{-1}(u_i) = x_(i)}: tied data take every u of their run, so the
    # set is not {F : F(x_i) = u_i}, which no CDF meets at a tie
    focal = dkw.association(3).focal
    cdf = focal(np.asarray([1.0, 1.0, 2.0]), np.asarray([0.2, 0.3, 0.9]))
    assert np.array_equal(cdf.xs, [1.0, 2.0]) and np.array_equal(cdf.ys, [0.3, 1.0]) and cdf.y_pre == 0.0
    assert np.array_equal(cdf.quantile([0.2, 0.3, 0.9]), [1.0, 1.0, 2.0])
    # no CDF sends one u to two values, u = 0 to a finite value, or u past 1
    x = np.asarray([1.0, 2.0, 2.0])
    for u in ([0.4, 0.4, 0.6], [0.0, 0.5, 0.6], [0.2, 0.5, 1.5]):
        assert focal(x, np.asarray(u)).is_empty


def test_sampling_and_synthetic_sample():
    rows = dkw.sampling(12).sample(unit_exp(), MCConfig(reps=30, seed=67))
    assert rows.shape == (30, 12)
    assert np.all(np.diff(rows, axis=1) >= 0)
    assert np.all(rows >= 0)
    a = dkw.synthetic_sample(799)
    b = dkw.synthetic_sample(799)
    assert np.array_equal(a.values, b.values)
    assert a.values.min() >= 0
