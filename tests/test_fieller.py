"""Normal-ratio model: the closed form against the integral that defines it,
stranded mass, equal-tailed sets, and the failure modes of treating the
assignment as a CDF."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, special

from confbel.audit import coverage_probability
from confbel.mc import MCConfig
from confbel.models import fieller

# High-precision quadrature oracle, 30 significant digits.
G_120_AT_010 = 0.8401409115935648
G_120_AT_M002 = 0.080798578563873676
LOWER_120_005 = -0.048111552939992403
UPPER_120_005 = 0.14908123008219377


def _phi(t: float) -> float:
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


def g_closed_form(x, phi: float) -> float:
    # Averaging Phi(phi z - x1) over z ~ N(x2, 1) asks for the chance that one
    # normal variable falls below an independent scaled one; their difference
    # is again normal, so the whole mixture collapses to a single Phi call.
    # Built on math.erfc, so it shares nothing with the scipy routes on trial.
    x1, x2 = float(x[0]), float(x[1])
    return _phi((phi * x2 - x1) / math.hypot(1.0, phi))


def g_quadrature(x, phi: float) -> float:
    # The definition itself, integral of Phi(phi z - x1) f(z - x2) dz with f
    # the standard normal density, by adaptive quadrature over z in
    # [x2 - 10, x2 + 10]; the truncated mass is under 2e-23.
    x1, x2 = float(x[0]), float(x[1])
    val, err = integrate.quad(
        lambda z: special.ndtr(phi * z - x1) * math.exp(-0.5 * (z - x2) ** 2) / math.sqrt(2.0 * math.pi),
        x2 - 10.0,
        x2 + 10.0,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    assert err < 1e-10
    return val


def fieller_g(x, phi) -> float:
    """``G_x(phi)`` of one pair: a stack of one through the batch evaluator."""
    return float(fieller.fieller_cdf_batch([x], phi)[0])


XS = [(1.0, 20.0), (1.0, 0.5), (-0.7, 2.3), (1.0, -1.5)]
PHIS = [-2.0, -0.02, 0.0, 0.05, 0.1, 0.8, 3.0]


def test_cdf_matches_single_normal_reduction():
    for x in XS:
        for phi in PHIS:
            assert fieller_g(x, phi) == pytest.approx(g_closed_form(x, phi), abs=1e-14)


def test_cdf_matches_quadrature_of_the_definition():
    for x in XS:
        for phi in PHIS:
            assert fieller_g(x, phi) == pytest.approx(g_quadrature(x, phi), abs=1e-9)


def test_cdf_scalar_is_one_row_of_batch():
    for phi in PHIS:
        stacked = fieller.fieller_cdf_batch(XS, phi)
        for k, x in enumerate(XS):
            assert fieller_g(x, phi) == stacked[k]


def test_cdf_batch_matches_closed_form():
    xs = np.asarray(XS)
    for phi in PHIS:
        want = [g_closed_form(x, phi) for x in XS]
        assert_allclose(fieller.fieller_cdf_batch(xs, phi), want, rtol=0.0, atol=1e-14)


def test_cdf_batch_per_row_phi_and_shapes():
    xs = np.asarray(XS)
    phis = np.asarray([0.3, -1.0, 0.0, 2.0])
    got = fieller.fieller_cdf_batch(xs, phis)
    assert got.shape == (4,)
    assert_allclose(got, [g_closed_form(x, p) for x, p in zip(XS, phis)], rtol=0.0, atol=1e-14)
    assert fieller.fieller_cdf_batch(np.asarray([1.0, 20.0]), 0.1).shape == (1,)


@settings(max_examples=60, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-5.0, 5.0), st.floats(-4.0, 4.0))
def test_cdf_reduction_property(x1, x2, phi):
    assert fieller_g((x1, x2), phi) == pytest.approx(
        g_closed_form((x1, x2), phi), abs=1e-14
    )


def test_cdf_frozen_values():
    assert fieller_g((1.0, 20.0), 0.05) == pytest.approx(0.5, abs=1e-10)
    assert fieller_g((1.0, 20.0), 0.1) == pytest.approx(G_120_AT_010, abs=1e-10)
    assert fieller_g((1.0, 20.0), -0.02) == pytest.approx(G_120_AT_M002, abs=1e-10)


def test_cdf_monotone_when_denominator_is_solid():
    # Range chosen so G stays clear of the float64 saturation plateaus.
    phis = np.linspace(-0.15, 0.3, 241)
    g = fieller.fieller_cdf_batch(np.tile([1.0, 20.0], (phis.size, 1)), phis)
    assert np.all(np.diff(g) > 0.0)


def test_dip_when_denominator_is_weak():
    # Global minimum at phi = -x2/x1 with value Phi(-sqrt(x1^2 + x2^2)).
    x = (1.0, 0.1)
    dip = fieller_g(x, -0.1)
    assert dip == pytest.approx(_phi(-math.hypot(1.0, 0.1)), abs=1e-9)
    assert fieller_g(x, -0.6) > dip
    assert fieller_g(x, 0.4) > dip


def test_runs_backwards_for_negative_denominator():
    phis = np.linspace(-1.0, 1.0, 81)
    g = fieller.fieller_cdf_batch(np.tile([1.0, -1.5], (phis.size, 1)), phis)
    assert np.all(np.diff(g) < 0.0)


def test_mass_at_infinity_closed_form():
    for x2 in (-1.5, 0.0, 0.1, 0.5, 20.0):
        assert fieller.mass_at_infinity((1.0, x2)) == pytest.approx(
            0.5 * math.erfc(x2 / math.sqrt(2.0)), abs=1e-15
        )


def test_interval_frozen_endpoints():
    iv = fieller.fieller_interval((1.0, 20.0), 0.05)
    assert iv.lower == pytest.approx(LOWER_120_005, abs=1e-8)
    assert iv.upper == pytest.approx(UPPER_120_005, abs=1e-8)


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.32])
def test_interval_quantile_round_trip(alpha):
    iv = fieller.fieller_interval((1.0, 20.0), alpha)
    assert fieller_g((1.0, 20.0), iv.lower) == pytest.approx(alpha / 2, abs=1e-8)
    assert fieller_g((1.0, 20.0), iv.upper) == pytest.approx(1 - alpha / 2, abs=1e-8)


def test_intervals_nest():
    wide = fieller.fieller_interval((1.0, 20.0), 0.05)
    narrow = fieller.fieller_interval((1.0, 20.0), 0.32)
    assert wide.lower < narrow.lower < narrow.upper < wide.upper


def test_interval_escapes_when_mass_swallows_the_tail():
    iv = fieller.fieller_interval((1.0, 0.5), 0.05)  # Phi(-0.5) ~ 0.31 > 0.025
    assert iv.lower == -np.inf and iv.upper == np.inf
    iv = fieller.fieller_interval((1.0, 0.1), 0.6)  # Phi(-0.1) ~ 0.46 > 0.3
    assert iv.lower == -np.inf and iv.upper == np.inf


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.7])
def test_interval_alpha_validation(alpha):
    with pytest.raises(ValueError):
        fieller.fieller_interval((1.0, 20.0), alpha)


def test_quantile_through_the_dip_is_finite():
    # alpha/2 = 0.475 sits between the stranded mass Phi(-0.1) ~ 0.460 and the
    # upper tail limit; the dip only reaches values below the stranded mass,
    # so each end is the unique solution of G = level.
    iv = fieller.fieller_interval((1.0, 0.1), 0.95)
    assert iv.lower == pytest.approx(6.1147, abs=1e-4)
    assert iv.upper == pytest.approx(26.8458, abs=1e-4)
    for end, level in ((iv.lower, 0.475), (iv.upper, 0.525)):
        assert fieller_g((1.0, 0.1), end) == pytest.approx(level, abs=1e-12)
        assert g_quadrature((1.0, 0.1), end) == pytest.approx(level, abs=1e-9)


def test_center_through_the_dip_is_the_ratio():
    # G = 1/2 where the pivot phi x2 - x1 vanishes, at phi = x1 / x2
    assert fieller.family().center((1.0, 0.1)) == pytest.approx(10.0, rel=1e-12)


# The bound, fixed before the test was run: each endpoint solves G = p within
# 1e-12, and on 1999 interior angles G - p changes sign once, a grid value
# counting only when it is more than 1e-13 (well above G's rounding) from p.
@settings(max_examples=400, deadline=None)
@given(
    st.floats(-50.0, 50.0),
    st.floats(0.0, 30.0, exclude_min=True),
    st.one_of(st.floats(0.0, 1.0), st.sampled_from(["one float above", "one float below"])),
)
def test_g_inverse_is_the_unique_solution(x1, x2, where):
    x = (x1, x2)
    tail = fieller.mass_at_infinity(x)
    if where == "one float above":
        p = np.nextafter(tail, 1.0)
    elif where == "one float below":
        p = np.nextafter(1.0 - tail, 0.0)
    else:
        p = tail + where * (1.0 - 2.0 * tail)
    assume(tail < p < 1.0 - tail)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        phi = fieller._g_inverse(x, p)
    assert abs(fieller_g(x, phi) - p) <= 1e-12
    t = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 2001)[1:-1]
    d = fieller.fieller_cdf_batch(x, np.tan(t)) - p
    signs = np.sign(np.concatenate([[tail - p], d[np.abs(d) > 1e-13], [1.0 - tail - p]]))
    assert np.count_nonzero(np.diff(signs)) == 1


def test_family_member_matches_interval():
    fam = fieller.family()
    iv = fieller.fieller_interval((1.0, 20.0), 0.05)
    for phi in np.linspace(-0.2, 0.35, 45):
        if min(abs(phi - iv.lower), abs(phi - iv.upper)) < 1e-6:
            continue
        assert fam.member((1.0, 20.0), 0.05, phi) == (iv.lower <= phi <= iv.upper)


def test_family_member_batch_matches_scalar():
    fam = fieller.family()
    xs = np.asarray([[1.0, 20.0], [0.5, 3.0], [-0.7, 2.3]])
    for phi in (-0.1, 0.05, 0.4):
        got = fam.member_batch(xs, 0.1, phi)
        assert got.tolist() == [fam.member(x, 0.1, phi) for x in xs]


def test_member_batch_agrees_with_quadrature_membership():
    # At the criterion-1 truth, no membership flips between the closed form
    # and the quadrature of the definition.
    xs = fieller.sampling().sample((1.0, 20.0), MCConfig(reps=2000, seed=13))
    g = np.asarray([g_quadrature(x, 0.05) for x in xs])
    want = (g >= 0.025) & (g <= 0.975)
    assert np.array_equal(fieller.family().member_batch(xs, 0.05, 0.05), want)


def test_center_is_the_median():
    # G((1, 20), 1/20) = 1/2 by symmetry of the reduced argument.
    assert fieller.family().center((1.0, 20.0)) == pytest.approx(0.05, abs=1e-7)


def test_sampling_shape_and_determinism():
    sm = fieller.sampling()
    a = sm.sample((1.0, 20.0), MCConfig(reps=500, seed=7))
    b = sm.sample((1.0, 20.0), MCConfig(reps=500, seed=7))
    assert a.shape == (500, 2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sm.sample((1.0, 20.0), MCConfig(reps=500, seed=8)))
    assert np.mean(a[:, 0]) == pytest.approx(1.0, abs=4 / np.sqrt(500))
    assert np.mean(a[:, 1]) == pytest.approx(20.0, abs=4 / np.sqrt(500))


def test_interest_ratio():
    assert fieller.interest((3.0, 2.0)) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        fieller.interest((0.3, 0.0))


def test_equal_tailed_set_covers_at_nominal_rate_here():
    # With the +-infinity escape hatch the equal-tailed set is calibrated at
    # this truth; the batch runner reports whatever the draw says.
    est = coverage_probability(
        fieller.sampling(),
        fieller.family(),
        (1.0, 20.0),
        0.05,
        MCConfig(reps=4000, seed=29),
        interest=fieller.interest,
    )
    assert est.estimate == pytest.approx(0.95, abs=4 * math.sqrt(0.95 * 0.05 / 4000))
