"""Coverage estimates, validity audits, and the KS statistic."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from confbel import mc as mc_module
from confbel.audit import (
    DEFAULT_ALPHA_GRID,
    SamplingModel,
    assertion_validity_audit,
    contour_validity_audit,
    coverage_probability,
    ks_distances,
    ks_uniform,
    sup_norms,
)
from confbel.contours import Interval
from confbel.mc import MCConfig
from confbel.models import REGISTRY, behrens_fisher, fieller, normal_mean, uniform_loc
from confbel.reportio import read_csv

MC = MCConfig(reps=20_000, seed=17)


def test_coverage_probability_nominal():
    est = coverage_probability(normal_mean.sampling(), normal_mean.family(), 0.3, 0.05, MC)
    assert est.estimate == pytest.approx(0.95, abs=4 * est.se)
    assert est.reps == MC.reps
    assert est.se == pytest.approx(np.sqrt(est.estimate * (1 - est.estimate) / MC.reps), rel=1e-12)


def test_coverage_probability_deterministic():
    a = coverage_probability(uniform_loc.sampling(10), uniform_loc.family(), 0.0, 0.1, MC)
    b = coverage_probability(uniform_loc.sampling(10), uniform_loc.family(), 0.0, 0.1, MC)
    assert a == b


def test_coverage_probability_batch_equals_scalar_path():
    fam = uniform_loc.family()
    scalar_fam = type(fam)(member=fam.member, center=fam.center)  # drop the batch path
    small = MCConfig(reps=500, seed=17)
    a = coverage_probability(uniform_loc.sampling(10), fam, 0.0, 0.1, small)
    b = coverage_probability(uniform_loc.sampling(10), scalar_fam, 0.0, 0.1, small)
    assert a.estimate == b.estimate


def test_coverage_probability_interest_map():
    est = coverage_probability(
        normal_mean.sampling(),
        normal_mean.family(),
        -0.7,
        0.05,
        MC,
        interest=lambda t: t,  # identity: same as omitting it
    )
    assert est.estimate == pytest.approx(0.95, abs=4 * est.se)


def test_contour_validity_audit_exact_pivot():
    report = contour_validity_audit(
        normal_mean.sampling(),
        lambda xs, theta: normal_mean.pivot_contour(xs, theta),
        theta_grid=(0.0, 1.3),
        mc=MCConfig(reps=5000, seed=2),
    )
    assert report.passed
    assert not report.flagged()
    assert len(report.rows) == 2 * len(DEFAULT_ALPHA_GRID)
    # the pivot contour is exactly uniform at the truth: exceedance ~ alpha
    for row in report.rows:
        assert row.exceedance == pytest.approx(row.alpha, abs=4 * row.se)
    assert report.worst_excess() <= 3.0


def test_contour_validity_audit_flags_overconfidence():
    # halving the contour doubles the exceedance: flagged at every moderate alpha
    report = contour_validity_audit(
        normal_mean.sampling(),
        lambda xs, theta: 0.5 * normal_mean.pivot_contour(xs, theta),
        theta_grid=(0.0,),
        mc=MCConfig(reps=5000, seed=2),
    )
    assert not report.passed
    assert any(row.flagged for row in report.rows)


def test_contour_validity_audit_shape_contract():
    with pytest.raises(ValueError):
        contour_validity_audit(
            normal_mean.sampling(),
            lambda xs, theta: np.asarray([0.5]),  # wrong length
            theta_grid=(0.0,),
            mc=MCConfig(reps=100, seed=2),
        )


def test_assertion_validity_audit():
    assertion = Interval(-1.0, 1.0)

    def assertion_plaus(xs, theta):
        # sup of the pivot contour over [-1, 1] at each draw
        xs = np.asarray(xs, dtype=float)
        nearest = np.clip(xs, -1.0, 1.0)
        return normal_mean.pivot_contour(xs, nearest)

    report = assertion_validity_audit(
        normal_mean.sampling(),
        assertion_plaus,
        assertion,
        theta_grid=(0.0, 0.9),
        mc=MCConfig(reps=5000, seed=4),
    )
    assert report.passed
    # truths outside the assertion are rejected up front
    with pytest.raises(ValueError):
        assertion_validity_audit(
            normal_mean.sampling(), assertion_plaus, assertion, theta_grid=(2.0,), mc=MCConfig(reps=100, seed=4)
        )


def test_audit_report_round_trip(tmp_path):
    report = contour_validity_audit(
        normal_mean.sampling(),
        lambda xs, theta: normal_mean.pivot_contour(xs, theta),
        theta_grid=(0.0,),
        mc=MCConfig(reps=1000, seed=6),
    )
    path = tmp_path / "audit.csv"
    report.write(path)
    meta, rows = read_csv(path)
    assert meta["report"] == "contour-validity"
    assert meta["model"] == "normal_mean"
    assert len(rows) == len(report.rows)
    assert float(rows[0]["exceedance"]) == pytest.approx(report.rows[0].exceedance, rel=1e-12)


def test_ks_uniform_exact_values():
    # single sample at 0.5: ecdf jumps 0 -> 1 there; distance 1/2 on both sides
    assert ks_uniform([0.5]) == pytest.approx(0.5, abs=1e-15)
    # evenly placed mid-quantiles minimize the distance at 1/(2n)
    n = 10
    u = (np.arange(1, n + 1) - 0.5) / n
    assert ks_uniform(u) == pytest.approx(1 / (2 * n), abs=1e-15)
    assert ks_uniform([0.0, 1.0]) == pytest.approx(0.5, abs=1e-15)


def test_ks_distances_reads_sorted_rows_as_they_stand():
    # rows already in order skip the sort; the same rows shuffled go through
    # it, and every distance keeps its bytes
    rng = np.random.default_rng(3)
    u = np.sort(rng.random((6, 40)), axis=-1)
    shuffled = rng.permuted(u, axis=-1)
    assert np.all(np.any(shuffled[:, 1:] < shuffled[:, :-1], axis=-1))
    want = ks_distances(u).tobytes()
    assert ks_distances(shuffled).tobytes() == want
    assert ks_distances(np.vstack([u[:5], shuffled[5:]])).tobytes() == want
    # ks_uniform sorts what it is given: the mid-quantiles in reverse order
    n = 10
    assert ks_uniform((np.arange(n, 0, -1) - 0.5) / n) == pytest.approx(1 / (2 * n), abs=1e-15)


def test_ks_uniform_rejects_bad_input():
    with pytest.raises(ValueError):
        ks_uniform([])
    with pytest.raises(ValueError):
        ks_uniform([0.5, 1.4])
    with pytest.raises(ValueError):
        ks_uniform([-0.2, 0.5])


def test_sup_norms_checks_every_value_of_a_row_out_of_exact_order():
    # a row that steps down by less than the 1e-12 slack is a CDF's values;
    # its range is then read at every value, not only at its ends
    e = np.arange(5) / 4
    assert np.isfinite(sup_norms(e, [0.2, 0.5, 0.5 - 5e-13, 0.7]))
    with pytest.raises(ValueError):
        sup_norms(e, [1.0, 1.0 + 2.5e-12, 1.0 + 1.7e-12, 1.0 + 9e-13])
    with pytest.raises(ValueError):
        sup_norms(e, [0.0, -8e-13, -1.6e-12, 0.0])


def test_sampling_model_carries_name():
    sm = SamplingModel(name="demo", sample=lambda theta, mc: np.zeros(mc.reps), draws_per_rep=1)
    assert sm.name == "demo"
    assert len(sm.sample(0.0, MCConfig(reps=7, seed=0))) == 7


# Uniforms per block in the streaming tests: every sampler splits a few
# hundred reps into several blocks (a row counts as at least MIN_ROW_DRAWS
# uniforms), and dkw (n = 799) into blocks of two.
SMALL_BLOCK = 2000


def _block_rows(draws_per_rep: int) -> int:
    return max(1, SMALL_BLOCK // max(draws_per_rep, mc_module.MIN_ROW_DRAWS))
STREAMED = sorted(REGISTRY) + ["fieller"]


def _streamed(name):
    """(sampling, family, interest, truth, contour at the truth or None)."""
    if name == "fieller":
        return fieller.sampling(), fieller.family(), fieller.interest, (1.0, 20.0), None
    b = REGISTRY[name]()
    return b.sampling, b.family, b.interest, b.theta_grid_hint[0], b.contour_at_truth


# Row layouts the bundles do not reach: behrens_fisher draws one squared
# normal for each group with an odd n - 1, none at the bundle's (5, 11), one
# at (2, 3) and (4, 7), two at (2, 4); and uniform_loc's pair at its smallest n.
BLOCKS_ONLY = {
    "behrens_fisher(2,3)": (behrens_fisher.sampling(2, 3), (0.5, -1.0, 2.0, 0.3)),
    "behrens_fisher(2,4)": (behrens_fisher.sampling(2, 4), (0.5, -1.0, 2.0, 0.3)),
    "behrens_fisher(4,7)": (behrens_fisher.sampling(4, 7), (0.5, -1.0, 2.0, 0.3)),
    "uniform_loc(2)": (uniform_loc.sampling(2), 0.25),
}


@pytest.mark.parametrize("name", STREAMED + sorted(BLOCKS_ONLY))
def test_blocks_reproduce_one_draw(name, monkeypatch):
    monkeypatch.setattr(mc_module, "BLOCK_DRAWS", SMALL_BLOCK)
    if name in BLOCKS_ONLY:
        sampling, truth = BLOCKS_ONLY[name]
    else:
        sampling, _, _, truth, _ = _streamed(name)
    size = _block_rows(sampling.draws_per_rep)

    def stitched(s, mc):
        return np.concatenate([s.sample(truth, block) for block in mc.blocks(s.draws_per_rep)])

    for offset in (5, 6, 7, 8):  # every residue mod 4 of the first block's start
        mc = MCConfig(reps=2 * size + 1, seed=9, stream_id=3, offset=offset)
        whole = sampling.sample(truth, mc)
        assert len(list(mc.blocks(sampling.draws_per_rep))) == 3
        assert np.array_equal(stitched(sampling, mc), whole)
        # a miscounted draws_per_rep starts the later blocks in the wrong place
        wrong = dataclasses.replace(sampling, draws_per_rep=sampling.draws_per_rep + 1)
        assert not np.array_equal(stitched(wrong, mc), whole)


@pytest.mark.parametrize("name", STREAMED)
def test_streamed_estimates_equal_one_block_reference(name, monkeypatch):
    monkeypatch.setattr(mc_module, "BLOCK_DRAWS", SMALL_BLOCK)
    sampling, family, interest, truth, contour = _streamed(name)
    mc = MCConfig(reps=7 * _block_rows(sampling.draws_per_rep) + 3, seed=4, stream_id=1)

    hits = np.asarray(family.member_batch(sampling.sample(truth, mc), 0.1, interest(truth)), dtype=bool)
    est = coverage_probability(sampling, family, truth, 0.1, mc, interest=interest)
    p = float(np.mean(hits))
    assert (est.estimate, est.se, est.reps) == (p, float(np.sqrt(p * (1.0 - p) / mc.reps)), mc.reps)

    if contour is not None:
        pls = np.asarray(contour(sampling.sample(truth, mc.substream(0)), truth), dtype=float)
        report = contour_validity_audit(sampling, contour, (truth,), mc=mc)
        assert [r.exceedance for r in report.rows] == [float(np.mean(pls <= a)) for a in DEFAULT_ALPHA_GRID]
        assert {r.reps for r in report.rows} == {mc.reps}


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_streamed_audits_stay_within_16_mb():
    # drawn at once these replicates peak at 183 (dkw coverage), 92 (dkw
    # audit) and 24 MB (behrens_fisher audit); in blocks at 6.1, 6.1 and 4.6 MB
    dkw_b, bf_b = REGISTRY["dkw"](), REGISTRY["behrens_fisher"]()
    exp1, bf_truth = dkw_b.theta_grid_hint[0], bf_b.theta_grid_hint[0]
    # warm the cached pivot table and K_n terms: the peaks measure the replicates
    contour_validity_audit(bf_b.sampling, bf_b.contour_at_truth, (bf_truth,), mc=MCConfig(reps=10, seed=1))
    contour_validity_audit(dkw_b.sampling, dkw_b.contour_at_truth, (exp1,), mc=MCConfig(reps=10, seed=1))
    peaks = {
        "dkw coverage": _traced_peak_mb(
            lambda: coverage_probability(
                dkw_b.sampling, dkw_b.family, exp1, 0.05, MCConfig(reps=10_000, seed=1), interest=dkw_b.interest
            )
        ),
        "dkw audit": _traced_peak_mb(
            lambda: contour_validity_audit(
                dkw_b.sampling, dkw_b.contour_at_truth, (exp1,), mc=MCConfig(reps=5_000, seed=1)
            )
        ),
        "behrens_fisher audit": _traced_peak_mb(
            lambda: contour_validity_audit(
                bf_b.sampling, bf_b.contour_at_truth, (bf_truth,), mc=MCConfig(reps=100_000, seed=1)
            )
        ),
    }
    assert max(peaks.values()) < 16.0, peaks
