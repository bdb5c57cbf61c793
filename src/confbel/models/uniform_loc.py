"""Uniform location model: n draws from Unif(theta, theta + 1).

The sufficient summary is the pair ``x = (min, max)``.  With ``d = x2 - x1``
the exact-coverage interval family is

    C_alpha(x) = [x1 - (1 - d)(1 - alpha/2),  x1 - (1 - d) alpha/2],

whose coverage equals ``1 - alpha`` for every theta and every n.  Everything
about the fused construction is available in closed form here, which makes
this model the main exactness fixture: writing ``r = (x1 - theta) /
(1 + theta - x2)`` for theta strictly between ``x2 - 1`` and ``x1``, the
auxiliary supports are

    S_alpha = {u : alpha/(2 - alpha) <= u1 / (1 - u2) <= (2 - alpha)/alpha},

free of theta, the alpha index is ``2 min(r, 1) / (1 + r)``, the support mass
is exactly ``1 - alpha``, and the fused plausibility equals the alpha index,
:func:`alpha_index_exact`, which broadcasts over a stack of pairs and theta.

The association is singular: focal sets are non-empty only on the diagonal
``u1 - u2 = x1 - x2`` of the auxiliary square, so naive sampled compatibility
checks would starve.  The deterministic witness ``u(x) = x - thetahat(x)``
with ``thetahat = (x1 + x2 - 1)/2`` resolves them.
"""

from __future__ import annotations

import numpy as np

from .. import distributions as dist
from ..audit import SamplingModel
from ..contours import ConfidenceFamily, GridSpec, Interval, IntervalUnion, PlausibilityContour
from ..fusion import Association, RandomSetFamily
from ..mc import MCConfig

_EMPTY = IntervalUnion(())


def _split(x):
    """(min, max) of one pair or of a stack of pairs (leading axis)."""
    x = np.asarray(x, dtype=float)
    if np.any(x[..., 1] < x[..., 0]):
        raise ValueError(f"(min, max) pair out of order: {x!r}")
    return x[..., 0], x[..., 1]


def theta_hat(x) -> float:
    """Midpoint of the range-collapsed interval; center of every C_alpha."""
    x1, x2 = _split(x)
    return 0.5 * (x1 + x2 - 1.0)


def _bounds(x, alpha):
    """Endpoints of ``C_alpha`` for one (min, max) pair or a stack of them."""
    x = np.asarray(x, dtype=float)
    slack = 1.0 - (x[..., 1] - x[..., 0])
    return x[..., 0] - slack * (1.0 - alpha / 2.0), x[..., 0] - slack * alpha / 2.0


def interval(x, alpha: float) -> Interval:
    _split(x)
    lo, hi = _bounds(x, alpha)
    return Interval(float(lo), float(hi))


def member(x, alpha, theta):
    """``theta in C_alpha(x)``; broadcasts over a stack of pairs, alpha and theta."""
    lo, hi = _bounds(x, alpha)
    return (lo <= theta) & (theta <= hi)


def family() -> ConfidenceFamily:
    return ConfidenceFamily(member=member, center=theta_hat)


def _index(num, den):
    """``2 min(r, 1) / (1 + r)`` at ``r = num / den``, the fiber point's
    ``u1 / (1 - u2)``, with the degenerate edges handled for every route."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = num / den
        val = 2.0 * np.minimum(r, 1.0) / (1.0 + r)
    # num == den == 0 happens only when the range equals 1 and theta is the
    # single possible location; the fiber point is then in every support.
    pinned = (np.abs(num) < 1e-14) & (np.abs(den) < 1e-14)
    return np.where(pinned, 1.0, np.where((num < 0.0) | (den <= 0.0), 0.0, val))


def alpha_index_exact(x, theta):
    """``2 min(r, 1) / (1 + r)`` with the degenerate edges handled explicitly;
    broadcasts over a stack of (min, max) pairs and over theta."""
    x1, x2 = _split(x)
    thetas = np.asarray(theta, dtype=float)
    out = _index(x1 - thetas, 1.0 + thetas - x2)
    return out if out.ndim else float(out)


def contour(x) -> PlausibilityContour:
    """Fused plausibility contour; equals the alpha index exactly."""
    return PlausibilityContour(
        lambda theta: alpha_index_exact(x, theta),
        sup_witness=theta_hat(x),
        unimodal=True,
    )


def association() -> Association:
    def fiber(x, theta):
        x1, x2 = _split(x)
        u = np.asarray([x1 - theta, x2 - theta], dtype=float)
        if u[0] < 0.0 or u[1] > 1.0 or u[0] > u[1]:
            return np.empty((0, 2))
        return u[None, :]

    def focal(x, u):
        x1, x2 = _split(x)
        u = np.ravel(np.asarray(u, dtype=float))
        t1, t2 = x1 - u[0], x2 - u[1]
        ok = abs(t1 - t2) <= 1e-12 and 0.0 <= u[0] <= u[1] <= 1.0
        return Interval(t1, t1) if ok else _EMPTY

    def compat_witness(x):
        th = theta_hat(x)
        return np.asarray([x[0] - th, x[1] - th], dtype=float)

    return Association(
        forward=lambda theta, u: (theta + u[0], theta + u[1]),
        fiber=fiber,
        focal=focal,
        compat_witness=compat_witness,
    )


def support_member(u, alpha, theta=None):
    """Closed membership in S_alpha (theta-free)."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    u1, u2 = u[:, 0], u[:, 1]
    slack = 1.0 - u2
    valid = (u1 >= 0.0) & (u2 <= 1.0) & (u1 <= u2)
    lo_ok = u1 * (2.0 - alpha) >= slack * alpha
    hi_ok = u1 * alpha <= slack * (2.0 - alpha)
    return valid & lo_ok & hi_ok


def random_set(n: int) -> RandomSetFamily:
    return RandomSetFamily(
        support_member=support_member,
        aux_sampler=lambda mc: dist.sample_uniform_minmax(n, mc),
        mass=lambda alpha, theta, mc: 1.0 - alpha,
    )


def sampling(n: int) -> SamplingModel:
    return SamplingModel(
        name=f"uniform_loc(n={n})",
        sample=lambda theta, mc: theta + dist.sample_uniform_minmax(n, mc),
    )


def default_grid(x, n_points: int = 512) -> GridSpec:
    x1, x2 = _split(x)
    pad = 0.02 * max(1e-3, 1.0 - (x2 - x1))
    return GridSpec(x2 - 1.0 - pad, x1 + pad, n_points)
