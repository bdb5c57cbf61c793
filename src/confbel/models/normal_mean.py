"""Normal location with unit variance: the transparent reference model.

One observation ``X ~ N(theta, 1)``.  The two-sided intervals
``C_alpha(x) = x -+ z_{1-alpha/2}`` induce the closed-form contour
``2(1 - Phi(|x - theta|))``, and the fused construction reproduces it exactly,
so every generic routine in the package can be validated against plain algebra
here.

The module also carries the absolute-value demonstration: the
confidence-distribution assignment of "CDF mass" to ``{|theta| <= phi}`` is
not calibrated (its values at the true parameter pile up far from uniform),
whereas the consonant marginal plausibility for ``|theta|`` stays valid.
"""

from __future__ import annotations

import numpy as np

from .. import _special as special
from .. import distributions as dist
from ..audit import SamplingModel
from ..contours import ConfidenceFamily, GridSpec, Interval, PlausibilityContour
from ..fusion import Association, RandomSetFamily, sampling_of, support_of


def pivot_contour(x, theta):
    """``pl_x(theta) = 2(1 - Phi(|x - theta|))``; broadcasts over both args."""
    out = 2.0 * special.ndtr(-np.abs(np.asarray(x, dtype=float) - np.asarray(theta, dtype=float)))
    return out if out.ndim else float(out)


def member(x, alpha, theta):
    """``|x - theta| <= z_{1-alpha/2}``; broadcasts over x, alpha and theta."""
    return np.abs(np.asarray(x, dtype=float) - theta) <= special.ndtri(1.0 - alpha / 2.0)


def family() -> ConfidenceFamily:
    """The nested interval family ``x -+ z_{1-alpha/2}``."""
    return ConfidenceFamily(member=member, center=lambda x: float(x))


def association() -> Association:
    return Association(
        forward=lambda theta, u: theta + u,
        family=family(),
        focal=lambda x, u: Interval(float(x - np.ravel(u)[0]), float(x - np.ravel(u)[0])),
        compat_witness=lambda x: 0.0,
    )


def random_set() -> RandomSetFamily:
    return RandomSetFamily(
        support_member=support_of(association()),
        aux_sampler=lambda mc: dist.sample(mc),
        mass=lambda alpha, theta, mc: 1.0 - alpha,
    )


def sampling() -> SamplingModel:
    return sampling_of("normal_mean", association(), random_set(), 1)


# --------------------------------------------------------------------------
# |theta| interest parameter


def abs_fiber(phi: float):
    """Preimage of ``phi`` under ``theta -> |theta|``; empty below zero."""
    if phi < 0.0:
        return []
    if phi == 0.0:
        return [0.0]
    return [phi, -phi]


def abs_contour(x: float) -> PlausibilityContour:
    """Marginal plausibility contour for ``phi = |theta|`` (phi >= 0)."""

    def fn(phi):
        phis = np.asarray(phi, dtype=float)
        out = np.maximum(pivot_contour(x, phis), pivot_contour(x, -phis))
        return out if out.ndim else float(out)

    return PlausibilityContour(fn, sup_witness=abs(float(x)), unimodal=True)


# A difference past the float range rounds to -inf or inf, where ndtr's limit,
# 0 or 1, is exact: fig1 --theta 1e308 evaluates ndtr(-inf).
@np.errstate(over="ignore")
def cd_abs_value(x, phi):
    """Confidence-distribution mass assigned to ``{|theta| <= phi}``.

    ``H_x(phi) = Phi(phi - x) - Phi(-phi - x)``; this is the additive
    assignment whose calibration the package exists to refute.  ``phi`` must
    be non-negative.
    """
    phis = np.asarray(phi, dtype=float)
    if np.any(phis < 0.0):
        raise ValueError("|theta| assertions need phi >= 0")
    xs = np.asarray(x, dtype=float)
    out = special.ndtr(phis - xs) - special.ndtr(-phis - xs)
    return out if out.ndim else float(out)


@np.errstate(over="ignore")
def cd_abs_law(theta, c):
    """The law of ``H_X(|theta|)`` at the truth: ``(v, F)`` with ``v = H_c(|theta|)``
    and ``F = P_theta{H_X(|theta|) <= v}``, for ``c >= 0``.

    ``H_x(a)`` is even and, for ``a = |theta| > 0``, falls in ``|x|``, so the
    event is ``{|X| >= c}`` and ``F = v + 2 Phi(-c - a)``; were the confidence
    distribution calibrated, ``F`` would be ``v``.  At ``theta = 0``, ``H`` is 0
    and ``F`` is 1.
    """
    a = abs(float(theta))
    v = cd_abs_value(c, a)
    if a == 0.0:
        return v, np.ones_like(v)
    return v, v + 2.0 * special.ndtr(-np.asarray(c, dtype=float) - a)
