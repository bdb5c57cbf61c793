"""Binomial success probability: exact tail intervals and their fused sharpening.

``X ~ Binomial(n, theta)``.  The equal-tailed exact family is

    C_alpha(x) = {theta : F_theta(x) >= alpha/2  and  1 - F_theta(x-1) >= alpha/2},

whose induced contour has the piecewise closed form (with ``F1 = F_theta(x-1)``
and ``F2 = F_theta(x)``)

    2 (1 - F1)   if F1 >= 1/2,
    2 F2         if F2 <= 1/2,
    1            otherwise,

equal to ``min(2 F2, 2(1 - F1), 1)``.  Fusing through the inverse-CDF
association ``x = min{k : F_theta(k) >= u}`` keeps the same alpha index but
replaces ``1 - alpha`` with the exact support mass, giving the sharpened
contour ``1 - g(theta, x)`` where

    g = sum over x' of pmf_theta(x') [F_theta(x') > alpha*/2] [F_theta(x'-1) < 1 - alpha*/2]

at ``alpha* = `` the piecewise contour above (strict inequalities: ``g`` is the
right limit of the support mass just beyond the index).  The sharpened contour
never exceeds the exact-tail one, and its level sets sit inside the exact-tail
intervals.

The fused contour is evaluated as the tail mass excluded from that support,
the deepest lower tail ``F_theta(k) <= alpha*/2`` plus the deepest upper tail
``P(X >= k) <= alpha*/2``.  The smaller of ``F_theta(x)`` and ``P(X >= x)`` is
``alpha*/2`` itself and is the deepest on its side.  The other side's tails
fall as the number of outcomes they count grows, so its deepest tail is the
first one at or below ``alpha*/2``: a binary search over the n + 2 counts
finds it with ceil(log2(n + 2)) tails per theta.  Off [0, 1] or at NaN a
tail at x is NaN, and both contours read 0.

Both contours broadcast over outcomes and theta; a stack of outcomes at one
theta, as the audits pass, reads one evaluation at every outcome 0..n.
"""

from __future__ import annotations

import functools

import numpy as np

from .. import _special as special
from .. import distributions as dist
from ..audit import SamplingModel
from ..contours import ConfidenceFamily, GridSpec, Interval
from ..fusion import EMPTY_REGION, Association, RandomSetFamily, sampling_of, support_of


def _tail(n: int, a, z):
    """The binomial tail ``I_z(a, n + 1 - a)`` that counts ``a`` outcomes:
    ``P(X >= k)`` is ``a = k``, ``z = theta``, and ``F_theta(k)`` is
    ``a = n - k``, ``z = 1 - theta``.  Outside ``0 < a <= n`` the tail is
    exactly 1 for ``a <= 0`` and 0 above n; betainc's value there is
    discarded.  Broadcasts over ``a`` and ``z``."""
    return np.where((0 < a) & (a <= n), special.betainc(a, n + 1.0 - a, z), a <= 0)


def cdf_given_theta(n: int, x, theta):
    """``F_theta(x)`` vectorized over theta via the incomplete-beta identity.

    Independent route from the summed-pmf table in :mod:`confbel.distributions`
    (the two are cross-checked in the test suite).
    """
    out = _tail(n, n - np.floor(np.asarray(x, dtype=float)), 1.0 - np.asarray(theta, dtype=float))
    return out if out.ndim else float(out)


def sf_given_theta(n: int, x, theta):
    """``P(X >= x)`` vectorized, via the complementary incomplete-beta
    orientation rather than ``1 - F``: the upper tail keeps full relative
    accuracy however deep it is."""
    k = np.ceil(np.asarray(x, dtype=float))  # P(X >= x) = P(X >= ceil(x)) for real x
    out = _tail(n, k, np.asarray(theta, dtype=float))
    return out if out.ndim else float(out)


@functools.lru_cache(maxsize=64)
def _outcome_table(contour, n: int, theta: float) -> np.ndarray:
    """``contour`` at every outcome 0..n at one theta, read-only."""
    table = np.asarray(contour(n, np.arange(n + 1), theta))
    table.flags.writeable = False
    return table


def _tabulated(contour):
    """``contour(n, x, theta)`` checked to take integer outcomes in 0..n (else
    ValueError; an integer dtype skips the integer check).  A stack of
    outcomes at one theta indexes the outcome table of that theta, evaluated
    once and cached."""

    @functools.wraps(contour)
    def fn(n: int, x, theta):
        xs = np.asarray(x)
        if (
            xs.min(initial=0) < 0
            or xs.max(initial=n) > n
            or (xs.dtype.kind not in "iub" and not np.all(xs == np.floor(xs)))
        ):
            raise ValueError(f"binomial outcomes must be integers in 0..{n}")
        if xs.ndim and not np.ndim(theta):
            return _outcome_table(contour, n, float(theta))[xs.astype(int, copy=False)]
        return contour(n, x, theta)

    return fn


def cp_member(n: int, x, alpha: float, theta):
    """Exact-tail region membership ``cp_contour >= alpha``; broadcasts over
    outcomes ``x`` and ``theta``."""
    return np.asarray(cp_contour(n, x, theta)) >= alpha


@_tabulated
def cp_contour(n: int, x, theta):
    """``min(2 F2, 2 S, 1)`` with ``S = P(X >= x)``: the exact-tail contour
    and alpha index, each tail evaluated directly as a small number; 0.0 off
    [0, 1] and at NaN."""
    thetas = np.asarray(theta, dtype=float)
    f2 = np.asarray(cdf_given_theta(n, x, thetas))
    sx = np.asarray(sf_given_theta(n, x, thetas))
    # fmax reads a NaN tail (theta off [0, 1]) as 0.0, as im_contour does
    out = np.fmax(np.minimum(2.0 * np.minimum(f2, sx), 1.0), 0.0)
    return out if out.ndim else float(out)


@_tabulated
def im_contour(n: int, x, theta):
    """Fused contour: 1 at capped index, otherwise the excluded tail mass
    (equal to ``1 - g`` but evaluated without subtracting from one).

    Broadcasts over outcomes ``x`` and ``theta``."""
    xs, thetas = np.broadcast_arrays(np.asarray(x), np.asarray(theta, dtype=float))
    f2 = cdf_given_theta(n, xs, thetas)
    sx = sf_given_theta(n, xs, thetas)
    # alpha*/2 below the cap; NaN wherever either tail is (theta off [0, 1])
    half = np.minimum(f2, sx)
    # The mass outside the right-limit support is the deepest low-tail CDF
    # value still <= alpha*/2 plus its upper-tail twin.  The smaller tail at x
    # is one of the two addends, half itself.  The other side's tails are
    # _tail(n, a, z) for a = 0..n, nonincreasing in a, so the deepest one
    # <= half is the one at the first passing a; past n every tail is 0.0 and
    # passes.  A binary search finds that a with one tail a step: ``failing``
    # is the largest a known to fail, each step probes ``failing + step``, and
    # ``other`` keeps the tail of the smallest passing probe.  Both addends are
    # <= half by selection, so the sum can never round above 2*half = alpha*:
    # the sharpened contour stays below the exact-tail one in float
    # arithmetic, not just in the limit.
    # where f2 <= sx, half is the lower tail and the upper side is searched
    z = np.where(f2 <= sx, thetas, 1.0 - thetas)
    failing, other = np.full(z.shape, -1.0), np.zeros(z.shape)
    for step in 2.0 ** np.arange(int(n + 1).bit_length() - 1, -1, -1):
        probe = failing + step
        tail = _tail(n, probe, z)
        passes = tail <= half
        other = np.where(passes, tail, other)
        failing = np.where(passes, failing, probe)
    # NaN tails read 0.0: no tail is <= NaN, so no addend is kept
    out = np.where(2.0 * half >= 1.0, 1.0, np.where(np.isnan(half), 0.0, half) + other)
    return out if out.ndim else float(out)


def family(n: int) -> ConfidenceFamily:
    def center(x):
        # The median-unbiased-ish anchor: any theta with both tails above 1/2.
        return float(np.clip(x / n, 1e-9, 1.0 - 1e-9))

    return ConfidenceFamily(member=functools.partial(cp_member, n), center=center)


def association(n: int) -> Association:
    def forward(theta, u):
        # x = min{k : F_theta(k) >= u} for every entry of u; the table ends at 1
        p = float(theta)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"binomial requires p in [0, 1], got {p!r}")
        return dist.binom_inverse_cdf(n, p, u)

    def focal(x, u):
        # {theta : F_theta(x-1) < u <= F_theta(x)}.  F_theta(k) is
        # I_{1-theta}(n - k, k + 1), falling in theta, so the set runs from
        # where F_theta(x-1) = u up to where F_theta(x) = u; F_theta(-1) = 0
        # and F_theta(n) = 1 put the ends at 0 and 1 for x = 0 and x = n.
        k, u = int(x), float(np.ravel(u)[0])
        lower = 0.0 if k == 0 else 1.0 - special.betaincinv(n - k + 1, k, u)
        upper = 1.0 if k == n else 1.0 - special.betaincinv(n - k, k + 1, u)
        # a NaN end (k off 0..n, or betaincinv giving up at u near 0) reads empty
        if u == 0.0 or not lower <= upper:
            return EMPTY_REGION
        return Interval(float(lower), float(upper))

    return Association(forward=forward, family=family(n), focal=focal)


def exact_mass(n: int, alpha: float, theta: float) -> float:
    """``P_U(S_alpha(theta))`` by full outcome enumeration (closed version)."""
    table = dist.binom_cdf_table(n, float(theta))
    pmf = np.diff(table, prepend=0.0)
    f1 = np.concatenate([[0.0], table[:-1]])
    keep = (table >= alpha / 2.0) & (1.0 - f1 >= alpha / 2.0)
    return float(np.sum(pmf[keep]))


def random_set(n: int) -> RandomSetFamily:
    return RandomSetFamily(
        support_member=support_of(association(n)),
        aux_sampler=lambda mc: mc.uniforms(),
        mass=lambda alpha, theta, mc: exact_mass(n, alpha, theta),
    )


def sampling(n: int) -> SamplingModel:
    return sampling_of(f"binomial(n={n})", association(n), random_set(n), 1)


def default_grid(n_points: int = 512) -> GridSpec:
    return GridSpec(0.001, 0.999, n_points)
