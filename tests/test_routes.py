"""One evaluator per model: the scalar, batch and grid routes agree exactly.

Each model's ``family.member``, ``family.member_batch`` and the bundle's
``member_grid`` are one broadcasting evaluator, and ``contour_at_truth`` is
the bundle's contour evaluated at one truth for a stack of datasets.  The
probes sit where separately written routes drift apart: region endpoints (and
one float either side) and levels alpha equal to the contour value (and one
float either side).
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import special

import confbel
from confbel.audit import coverage_probability
from confbel.mc import MCConfig
from confbel.models import REGISTRY, behrens_fisher, binomial, dkw, dkw_bundle, fieller, normal_mean, uniform_loc

N_BINOM = 25
N1, N2 = 5, 11


def _fieller_contour(x, phi):
    g = fieller.fieller_cdf(x, phi)
    return min(2.0 * g, 2.0 * (1.0 - g))


def _binomial_endpoints(x, alpha):
    n = N_BINOM
    lo = 0.0 if x == 0 else float(special.betaincinv(x, n - x + 1, alpha / 2.0))
    hi = 1.0 if x == n else 1.0 - float(special.betaincinv(n - x, x + 1, alpha / 2.0))
    return lo, hi


def _interval_endpoints(interval):
    def endpoints(x, alpha):
        iv = interval(x, alpha)
        return iv.lower, iv.upper

    return endpoints


def _normal_endpoints(x, alpha):
    z = float(special.ndtri(1.0 - alpha / 2.0))
    return x - z, x + z


finite = dict(allow_nan=False, allow_infinity=False)

# Per model: (bundle or None, family, draw one dataset, its row in a stack,
# interval-family contour, region endpoints, whether contour_at_truth is one
# entry of plaus_grid).
MODELS = {
    "binomial": (
        REGISTRY["binomial"](),
        binomial.family(N_BINOM),
        st.integers(0, N_BINOM),
        lambda x: x,
        lambda x, t: float(binomial.cp_contour(N_BINOM, x, t)),
        _binomial_endpoints,
        True,
    ),
    "uniform_loc": (
        REGISTRY["uniform_loc"](),
        uniform_loc.family(),
        st.tuples(st.floats(-1.0, 1.0, **finite), st.floats(0.0, 0.99, **finite)).map(lambda p: (p[0], p[0] + p[1])),
        lambda x: x,
        lambda x, t: float(uniform_loc.alpha_index_exact(x, t)),
        _interval_endpoints(uniform_loc.interval),
        True,
    ),
    "normal_mean": (
        REGISTRY["normal_mean"](),
        normal_mean.family(),
        st.floats(-5.0, 5.0, **finite),
        lambda x: x,
        lambda x, t: float(normal_mean.pivot_contour(x, t)),
        _normal_endpoints,
        True,
    ),
    "behrens_fisher": (
        REGISTRY["behrens_fisher"](),
        behrens_fisher.family(N1, N2),
        st.tuples(
            st.floats(-3.0, 3.0, **finite), st.floats(-3.0, 3.0, **finite),
            st.floats(0.05, 5.0, **finite), st.floats(0.05, 5.0, **finite),
        ).map(lambda r: behrens_fisher.BehrensFisherData(N1, r[0], r[2], N2, r[1], r[3])),
        lambda x: (x.m1, x.m2, x.v1, x.v2),
        lambda x, t: float(behrens_fisher.hs_contour(x, t)),
        _interval_endpoints(behrens_fisher.hs_interval),
        False,
    ),
    "fieller": (
        None,
        fieller.family(),
        st.tuples(st.floats(-3.0, 3.0, **finite), st.floats(3.0, 20.0, **finite)),
        lambda x: x,
        _fieller_contour,
        _interval_endpoints(fieller.fieller_interval),
        False,
    ),
}


def _with_neighbours(values):
    out = []
    for v in values:
        if np.isfinite(v):
            out.extend([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])
    return out


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_scalar_batch_and_grid_routes_agree(name, data):
    bundle, fam, dataset, row, contour, endpoints, contour_is_plaus_grid_entry = MODELS[name]
    x = data.draw(dataset, label="x")
    others = data.draw(st.lists(dataset, min_size=1, max_size=4), label="others")
    i = data.draw(st.integers(0, len(others)), label="row")
    stack = [row(o) for o in others]
    stack.insert(i, row(x))
    stack = np.asarray(stack)
    alpha0 = data.draw(st.floats(0.01, 0.99, **finite), label="alpha")
    theta0 = float(endpoints(x, 0.5)[0]) + data.draw(st.floats(-1.0, 1.0, **finite), label="offset")

    thetas = _with_neighbours([theta0, *endpoints(x, alpha0)])
    alphas = [a for a in _with_neighbours([alpha0] + [contour(x, t) for t in thetas]) if 0.0 < a < 1.0]
    grid = np.asarray(thetas)
    for alpha in alphas:
        on_grid = (bundle.member_grid if bundle is not None else fam.member)(x, alpha, grid)
        for j, theta in enumerate(thetas):
            scalar = bool(fam.member(x, alpha, theta))
            assert bool(fam.member_batch(stack, alpha, theta)[i]) == scalar, (alpha, theta)
            assert bool(on_grid[j]) == scalar, (alpha, theta)
    if contour_is_plaus_grid_entry:
        pl_grid = np.asarray(bundle.plaus_grid(x, grid), dtype=float)
        for j, theta in enumerate(thetas):
            assert bundle.contour_at_truth(stack, theta)[i] == pl_grid[j], theta


def test_binomial_contour_at_truth_is_im_contour_at_every_outcome():
    # theta = 0.5 is the symmetric truth, where each lower tail ties exactly
    # with its mirrored upper tail and the tie decides the excluded mass.
    xs = np.arange(N_BINOM + 1)
    for theta in (0.1, 0.37, 0.5, 0.68):
        direct = [binomial.im_contour(N_BINOM, int(x), theta) for x in xs]
        assert binomial.im_contour(N_BINOM, xs, theta).tolist() == direct


@pytest.mark.parametrize("name", ["binomial", "uniform_loc", "normal_mean"])
def test_contour_at_truth_is_plaus_grid(name):
    bundle = REGISTRY[name]()
    assert bundle.contour_at_truth is bundle.plaus_grid


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_member_grid_is_family_member(name):
    bundle = REGISTRY[name]()
    assert bundle.member_grid is bundle.family.member


def test_every_dkw_route_rejects_a_non_cdf_candidate():
    # A decreasing candidate must not be sorted into a CDF, and NaN must not
    # read as an answer, on the stacked routes as on the one-sample route.
    n = 50
    bundle = dkw_bundle(n)
    truth = bundle.theta_grid_hint[0]
    x = bundle.data_replicates(truth, 1, MCConfig(reps=1, seed=6))[0]
    stack = bundle.sampling.sample(truth, MCConfig(reps=3, seed=6))
    for cdf in (lambda t: 1.0 - np.clip(t, 0.0, 1.0), lambda t: np.full(np.shape(t), np.nan)):
        bad = dkw.ParametricCDF(cdf=cdf, quantile=lambda u: np.asarray(u, dtype=float), name="not a CDF")
        routes = {
            "one-sample member": lambda: dkw.member(x, 0.05, bad),
            "stacked member": lambda: dkw.member(stack, 0.05, bad),
            "contour_at_truth": lambda: bundle.contour_at_truth(stack, bad),
            "plaus_grid": lambda: bundle.plaus_grid(x, [truth, bad]),
            "member_grid": lambda: bundle.member_grid(x, 0.05, [truth, bad]),
            "coverage_probability": lambda: coverage_probability(
                bundle.sampling, bundle.family, bad, 0.05, MCConfig(reps=10, seed=6), interest=bundle.interest
            ),
        }
        for route, call in routes.items():
            with pytest.raises(ValueError, match="not a CDF"):
                call()
                pytest.fail(route)


def test_dkw_contour_at_truth_is_dkw_contour_row_by_row():
    # About one row in eight sits close enough to the truth that the index
    # caps at 1; the batch route must apply the same cap.
    n = 100
    bundle = dkw_bundle(n)
    truth = bundle.theta_grid_hint[0]
    rows = bundle.sampling.sample(truth, MCConfig(reps=500, seed=4))
    want = [dkw.dkw_contour(dkw.EmpiricalSample(r), truth)[1] for r in rows]
    got = bundle.contour_at_truth(rows, truth)
    assert np.sum(got == 1.0) > 20
    assert got.tolist() == want


def test_dkw_grid_routes_are_per_candidate_routes():
    bundle = dkw_bundle(100)
    truth = bundle.theta_grid_hint[0]
    for x in bundle.data_replicates(truth, 8, MCConfig(reps=8, seed=5)):
        _, lower, _ = dkw.dkw_band(x, 0.2)
        # the band edge and the truth itself reach the union-of-jumps and the
        # continuous branches of the distance; the shifted candidates share x's jumps
        cands = [*bundle.candidates_for(x), lower, x.ecdf(), truth]
        assert bundle.plaus_grid(x, cands).tolist() == [dkw.dkw_contour(x, c)[1] for c in cands]
        for alpha in (0.01, 0.05, 0.1, 0.2, 0.5):
            got = bundle.member_grid(x, alpha, cands)
            assert got.tolist() == [bool(dkw.member(x, alpha, c)) for c in cands], alpha


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_coverage_probability_runs_on_every_bundle(name):
    bundle = REGISTRY[name]()
    truth = bundle.theta_grid_hint[0]
    mc = MCConfig(reps=2_000, seed=21)
    est = coverage_probability(bundle.sampling, bundle.family, truth, 0.05, mc, interest=bundle.interest)
    assert est.reps == mc.reps
    # every shipped family covers at least at the nominal rate
    assert est.estimate >= 0.95 - 4.0 * np.sqrt(0.95 * 0.05 / mc.reps)


INSTRUMENTED_RUN = """
import sys
sys.path.insert(0, {perfbench!r})
from tracer import Tracer, instrument
from confbel.mc import MCConfig
from confbel.models import REGISTRY

tracer = Tracer()
instrument(tracer)
for bundle in (factory() for factory in REGISTRY.values()):
    truth = bundle.theta_grid_hint[0]
    x = bundle.data_replicates(truth, 1, MCConfig(reps=1, seed=1))[0]
    cands = bundle.candidates_for(x)
    bundle.plaus_grid(x, cands)
    bundle.member_grid(x, 0.05, cands)
    bundle.contour_at_truth(bundle.sampling.sample(truth, MCConfig(reps=20, seed=1)), truth)
print(sorted({{span[0] for span in tracer.spans}}))
"""


def test_benchmark_tracer_instruments_every_bundle():
    # The benchmark's tracer patches names in confbel by hand; a refactor that
    # drops one breaks only traced benchmark runs, so run it here.
    src = os.path.dirname(os.path.dirname(confbel.__file__))
    perfbench = os.path.join(os.path.dirname(src), "perfbench")
    code = INSTRUMENTED_RUN.format(perfbench=perfbench)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for name in REGISTRY:
        for attr in ("plaus_grid", "member_grid", "contour_at_truth"):
            assert f"'models.{name}.{attr}'" in done.stdout
