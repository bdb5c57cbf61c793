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
from ..contours import ConfidenceFamily, GridSpec, Interval
from ..fusion import EMPTY_REGION, Association, RandomSetFamily, sampling_of, support_of


def _split(x):
    """(min, max) of one pair or of a stack of pairs (leading axis)."""
    x = np.asarray(x, dtype=float)
    if np.count_nonzero(x[..., 1] < x[..., 0]):
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
    """``2 min(r, 1) / (1 + r)`` at ``r = num / den``, the ratio
    ``u1 / (1 - u2)`` of the auxiliary point ``x - theta``, with the
    degenerate edges handled for every route."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = num / den
        val = 2.0 * np.minimum(r, 1.0) / (1.0 + r)
    # num == den == 0 happens only when the range equals 1 and theta is the
    # single possible location; x - theta is then in every support.
    pinned = (num == 0.0) & (den == 0.0)
    return np.where(pinned, 1.0, np.where((num < 0.0) | (den <= 0.0), 0.0, val))


def alpha_index_exact(x, theta):
    """``2 min(r, 1) / (1 + r)`` with the degenerate edges handled explicitly;
    broadcasts over a stack of (min, max) pairs and over theta."""
    x1, x2 = _split(x)
    thetas = np.asarray(theta, dtype=float)
    out = _index(x1 - thetas, 1.0 + thetas - x2)
    return out if out.ndim else float(out)


def association() -> Association:
    def focal(x, u):
        x1, x2 = _split(x)
        u = np.ravel(np.asarray(u, dtype=float))
        t1, t2 = x1 - u[0], x2 - u[1]
        ok = abs(t1 - t2) <= 1e-12 and 0.0 <= u[0] <= u[1] <= 1.0
        return Interval(t1, t1) if ok else EMPTY_REGION

    def compat_witness(x):
        th = theta_hat(x)
        return np.asarray([x[0] - th, x[1] - th], dtype=float)

    return Association(
        forward=lambda theta, u: theta + np.asarray(u, dtype=float),
        family=family(),
        focal=focal,
        compat_witness=compat_witness,
    )


def random_set(n: int) -> RandomSetFamily:
    return RandomSetFamily(
        support_member=support_of(association()),
        aux_sampler=lambda mc: dist.sample_uniform_minmax(n, mc),
        mass=lambda alpha, theta, mc: 1.0 - alpha,
    )


def sampling(n: int) -> SamplingModel:
    return sampling_of(f"uniform_loc(n={n})", association(), random_set(n), 2)


def default_grid(x, n_points: int = 512) -> GridSpec:
    x1, x2 = _split(x)
    pad = 0.02 * max(1e-3, 1.0 - (x2 - x1))
    return GridSpec(x2 - 1.0 - pad, x1 + pad, n_points)
