"""Acceptance suite: one test per shipped claim, each printing a PASS/FAIL
line with the measured numbers (run with ``pytest tests/test_acceptance.py -s``
to see the lines as they happen).

Criterion 1 checks that the equal-tailed ratio-of-means set at theta=(1, 20)
covers the true ratio at exactly 1 - alpha, within 3 Monte Carlo standard
errors on either side.  The set is Fieller's exact set (its endpoints escape to
+-infinity when the data stop identifying the ratio), so over-coverage is as
much a fault as under-coverage; the proof is in docs/decisions.md.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import optimize

from confbel import distributions as dist
from confbel.audit import contour_validity_audit, coverage_probability, ks_uniform
from confbel.contours import contour_from_family
from confbel.mc import MCConfig
from confbel.models import (
    REGISTRY,
    behrens_fisher,
    binomial,
    dkw,
    fieller,
    normal_mean,
)
from test_binomial import binom_g
from test_generic_properties import containment_violations
from test_normal_mean import cd_abs_draws


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}", flush=True)


def test_criterion_1_ratio_interval_coverage():
    t0 = time.perf_counter()
    alpha, reps = 0.05, 10_000
    est = coverage_probability(
        fieller.sampling(),
        fieller.family(),
        (1.0, 20.0),
        alpha,
        MCConfig(reps=reps, seed=7),
        interest=fieller.interest,
    )
    dt = time.perf_counter() - t0
    # Exact coverage (docs/decisions.md), so the bound is two-sided and its
    # width comes from alpha and reps, not from the estimate.
    target = 1.0 - alpha
    tol = 3.0 * math.sqrt(alpha * (1.0 - alpha) / reps)
    ok = abs(est.estimate - target) <= tol
    _report(
        1,
        ok,
        f"ratio-of-means coverage at theta=(1,20) alpha={alpha}: measured "
        f"{est.estimate:.4f} = exact {target:.2f} +/- 3se ({tol:.4f}) ({dt:.1f}s)",
    )
    assert ok, (
        f"measured coverage {est.estimate:.4f} (se {est.se:.4f}), outside "
        f"{target:.2f} +/- {tol:.4f} (3se); the equal-tailed set is Fieller's exact "
        "set, whose coverage is 1 - alpha at every truth -- proof in docs/decisions.md"
    )


def test_criterion_2_cd_draws_nonuniform_but_lawful():
    mc = MCConfig(reps=5000, seed=1)
    draws = np.sort(cd_abs_draws(mc, theta=0.5))
    ks = ks_uniform(draws)

    # Independent oracle for the exact law of the drawn values: the profile
    # x -> cd_abs_value(x, 0.5) is even and strictly decreasing in |x|, so
    # {value <= t} is exactly {|X| >= x_t} with x_t the nonnegative root.
    w_max = normal_mean.cd_abs_value(0.0, 0.5)

    def exact_cdf(t: float) -> float:
        if t >= w_max:
            return 1.0
        if t <= 0.0:
            return 0.0
        xt = optimize.brentq(lambda v: normal_mean.cd_abs_value(v, 0.5) - t, 0.0, 12.0, xtol=1e-12)
        phi = lambda z: dist.cdf(z)
        return (1.0 - phi(xt - 0.5)) + phi(-xt - 0.5)

    n = len(draws)
    fs = np.asarray([exact_cdf(t) for t in draws])
    pos = np.arange(1, n + 1)
    sup_diff = float(np.max(np.maximum(pos / n - fs, fs - (pos - 1) / n)))

    ok = ks > 0.10 and sup_diff <= 0.02
    _report(2, ok, f"cd draws: ks_uniform {ks:.4f} > 0.10, oracle sup-diff {sup_diff:.4f} <= 0.02")
    assert ok, f"ks_uniform={ks:.4f}, oracle sup-diff={sup_diff:.4f}"


def test_criterion_3_binomial_containment_with_visible_gap():
    n, x = 25, 17
    thetas = binomial.default_grid(512).points()
    cp = binomial.cp_contour(n, x, thetas)
    im = binomial.im_contour(n, x, thetas)
    contained = bool(np.all(im <= cp))
    gap = float(np.max(cp - im))
    ok = contained and gap > 0.02
    _report(3, ok, f"fused binomial contour inside exact-tail contour, max gap {gap:.4f} > 0.02")
    assert ok, f"contained={contained}, max gap={gap:.6f}"


def test_criterion_4_two_sample_marginal_tracks_interval_contour():
    t0 = time.perf_counter()
    data = behrens_fisher.DEFAULT_DATA
    phis = behrens_fisher.default_grid(data, 201).points()
    lam_grid = tuple(np.linspace(0.0, 1.0, 101))
    hs = behrens_fisher.hs_contour(data, phis)
    marginal = REGISTRY["behrens_fisher"]().plaus_grid(data, phis)
    max_gap = float(np.max(np.abs(marginal - hs)))

    worst_fixed = -np.inf
    for lam in lam_grid:
        excess = np.max(behrens_fisher.slice_plaus(data.n1, data.n2, data, lam, phis) - hs)
        worst_fixed = max(worst_fixed, float(excess))
    dt = time.perf_counter() - t0

    ok = max_gap <= 0.03 and worst_fixed <= 0.03
    _report(
        4,
        ok,
        f"two-sample marginal vs interval contour: max |gap| {max_gap:.4f} <= 0.03, "
        f"worst fixed-lambda excess {worst_fixed:.4f} <= 0.03 ({dt:.1f}s)",
    )
    assert ok, f"max_gap={max_gap:.4f}, worst_fixed_excess={worst_fixed:.4f}"


def test_criterion_5_band_contour_calibration():
    # The contour reads the exact K_n law, and Massart's bound makes
    # P{K_n >= delta(n, alpha)} <= alpha exactly: 0.0484 at the band edge.
    sample = dkw.synthetic_sample(799, seed=1404)
    _, lower, _ = dkw.dkw_band(sample, 0.05)
    idx, plaus = dkw.dkw_contour(sample, lower)
    ok = abs(idx - 0.05) <= 0.005 and plaus <= idx
    _report(
        5,
        ok,
        f"clipped lower band: alpha index {idx:.4f} = 0.05 +/- 0.005, "
        f"plaus {plaus:.4f} <= index",
    )
    assert ok, f"alpha_index={idx:.5f}, plaus={plaus:.5f}"


def test_criterion_6_validity_of_fused_contours():
    t0 = time.perf_counter()
    reps = 10_000
    alphas = (0.05, 0.1, 0.25, 0.5)
    cells = (
        ("binomial", REGISTRY["binomial"](), (0.1, 0.3, 0.5, 0.7, 0.9)),
        ("uniform_loc", REGISTRY["uniform_loc"](), (0.0, 0.37)),
        ("behrens_fisher", REGISTRY["behrens_fisher"](), ((0.0, 0.0, 4.0, 1.0),)),
    )
    worst = []
    ok = True
    for name, bundle, thetas in cells:
        report = contour_validity_audit(
            bundle.sampling,
            bundle.contour_at_truth,
            thetas,
            alpha_grid=alphas,
            mc=MCConfig(reps=reps, seed=3),
        )
        for row in report.rows:
            bound = row.alpha + 3.0 * math.sqrt(row.alpha * (1.0 - row.alpha) / reps)
            if row.exceedance > bound + 1e-12:
                ok = False
        worst.append(f"{name} {max(r.exceedance - r.alpha for r in report.rows):+.4f}")
    dt = time.perf_counter() - t0
    _report(
        6,
        ok,
        "exceedance <= alpha + 3se in every cell; worst excess per model: "
        + ", ".join(worst)
        + f" ({dt:.1f}s)",
    )
    assert ok


def test_criterion_7_regions_inside_confidence_regions():
    t0 = time.perf_counter()
    alphas = (0.05, 0.1, 0.2)
    summary = []
    total_bad = 0
    for name, factory in REGISTRY.items():
        bundle = factory()
        truth = bundle.theta_grid_hint[0]
        datasets = bundle.data_replicates(truth, 20, MCConfig(reps=20, seed=101))
        bad = 0
        for x in datasets:
            cands = bundle.candidates_for(x)
            pl = np.asarray(bundle.plaus_grid(x, cands), dtype=float)
            for alpha in alphas:
                member = np.asarray(bundle.member_grid(x, alpha, cands), dtype=bool)
                bad += int(np.sum((pl > alpha) & ~member))
            # every level at once; a pl within 1e-12 of a level or of 1 is
            # left to the three-level check above
            bad += containment_violations(bundle.member_grid, x, cands, pl).size
        total_bad += bad
        summary.append(f"{name}:{bad}")
    dt = time.perf_counter() - t0
    ok = total_bad == 0
    _report(
        7,
        ok,
        "plausibility regions inside confidence regions over 20 replicates, at 3 levels and at every level "
        f"(violations {', '.join(summary)}; {dt:.1f}s)",
    )
    assert ok, f"containment violations: {', '.join(summary)}"


def test_criterion_8_independent_route_equivalences():
    reps = 1_000_000
    n = 25
    u = MCConfig(reps=reps, seed=13).generator().random(reps)

    # Support masses and the width-adjusted tail mass: enumeration vs draws.
    mass_ok = True
    for theta, alpha in ((0.3, 0.1), (0.62, 0.05), (0.5, 0.25)):
        exact = binomial.exact_mass(n, alpha, theta)
        mc_est = float(np.mean(binomial.random_set(n).support_member(u, alpha, theta)))
        if abs(exact - mc_est) > 3.0 * math.sqrt(exact * (1.0 - exact) / reps):
            mass_ok = False
    g_ok = True
    for x, theta in ((17, 0.4), (17, 0.55), (12, 0.3)):
        astar = binomial.cp_contour(n, x, theta)
        assert 1e-3 < astar < 1.0
        g = binom_g(n, x, theta)
        mc_est = float(np.mean(binomial.random_set(n).support_member(u, astar + 1e-9, theta)))
        if abs(g - mc_est) > 3.0 * math.sqrt(g * (1.0 - g) / reps):
            g_ok = False

    # Bisection against the closed normal-pivot form.
    fam = normal_mean.family()
    bisect_ok = True
    for theta in np.linspace(-2.5, 3.5, 31):
        closed = math.erfc(abs(1.0 - theta) / math.sqrt(2.0))
        if abs(contour_from_family(fam, 1.0, theta) - closed) > 1e-5:
            bisect_ok = False

    # Distribution round trips at the documented tolerances.
    dist_ok = True
    ps = np.linspace(0.01, 0.99, 25)
    for df in (None, 4):
        for p in ps:
            if abs(dist.cdf(dist.quantile(p, df=df), df=df) - p) > 1e-10:
                dist_ok = False
    table = dist.binom_cdf_table(n, 0.68)
    for p in ps:
        k = dist.binom_inverse_cdf(n, 0.68, p)
        if not (table[int(k)] >= p and (k == 0 or table[int(k) - 1] < p)):
            dist_ok = False

    ok = mass_ok and g_ok and bisect_ok and dist_ok
    _report(
        8,
        ok,
        f"enumeration vs 1e6-draw MC (masses {mass_ok}, tail adj {g_ok}), "
        f"bisection vs closed form <= 1e-5 ({bisect_ok}), dist round trips ({dist_ok})",
    )
    assert ok
