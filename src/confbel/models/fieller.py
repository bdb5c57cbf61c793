"""Ratio of two normal means: the confidence-distribution cautionary tale.

``X = (X1, X2)`` with independent ``Xi ~ N(theta_i, 1)`` and interest
``phi = theta_1 / theta_2``.  The distribution-function assignment

    G_x(phi) = integral of Phi(phi z - x1) f(z - x2) dz   (f standard normal)

looks like a CDF for ``phi`` but is not one: it strands probability mass
``Phi(-x2)`` beyond each end of the real line, it dips (loses monotonicity)
around ``phi = -x2/x1`` whenever the denominator observation is small, and for
``x2 < 0`` it runs backwards entirely.  The equal-tailed construction
``{phi : alpha/2 <= G_x(phi) <= 1 - alpha/2}`` inherits those defects: its
endpoints escape to +-infinity exactly when the data stop identifying the
ratio.  The dip (a peak when ``x1 < 0``) only takes values beyond the stranded
masses, so every level strictly between them is reached exactly once and has
one quantile, in closed form.  The equal-tailed set is nonetheless
Fieller's exact set, with coverage exactly ``1 - alpha`` at every truth with
``theta_2 != 0``; the caution concerns reading ``G_x`` as a distribution
function for ``phi``, not the set's coverage.  This module ships the
construction as the cautionary fixture for additive confidence assignments; it
deliberately has no fused counterpart, and the batch runner simply reports its
Monte Carlo coverage as observed.

``G_x(phi) = Phi((phi x2 - x1) / sqrt(1 + phi^2))`` in closed form, the pivot of
Fieller's set (proof in ``docs/decisions.md``).  One vectorized evaluator,
:func:`fieller_cdf_batch`, computes it; membership, the curve and the quantiles
derive from it.  The tests keep the integral as a quadrature oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .. import _special as special
from ..audit import SamplingModel
from ..contours import ConfidenceFamily, Interval, as_alpha
from ..mc import MCConfig


def fieller_cdf_batch(xs, phi) -> np.ndarray:
    """``G_x(phi)`` for the (m, 2) data rows ``xs`` (one pair is a stack of
    one), broadcast against a scalar or 1-d ``phi``."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    phis = np.asarray(phi, dtype=float)
    h = np.hypot(1.0, phis)
    return special.ndtr(phis / h * xs[:, 1] - xs[:, 0] / h)  # divided first: phi x2 overflows near 1e308


def mass_at_infinity(x) -> float:
    """The CDF mass ``Phi(-x2)`` stranded beyond each end of the real line."""
    return float(special.ndtr(-float(x[1])))


def _g_inverse(x, p: float) -> float:
    """Solve ``G_x(phi) = p``; +-inf when the stranded mass swallows ``p``.

    With ``phi = tan t`` the pivot is ``r sin(t - t0)``, ``r = hypot(x1, x2)``
    and ``t0 = atan2(x1, x2)``; over ``t`` in [-pi/2, pi/2] it runs from -x2
    to x2 and meets each level ``z`` strictly between once, at ``t - t0 =
    asin(z / r)`` (proof in ``docs/decisions.md``)."""
    tail = mass_at_infinity(x)
    if p <= tail:
        return -np.inf
    if p >= 1.0 - tail:
        return np.inf
    x1, x2 = float(x[0]), float(x[1])
    # one float from an edge, ndtri(p) may round onto or past -x2 or x2
    z = min(max(float(special.ndtri(p)), math.nextafter(-x2, 0.0)), math.nextafter(x2, 0.0))
    r = math.hypot(x1, x2)
    w = math.sqrt(r - abs(z)) * math.sqrt(r + abs(z))  # r cos(t - t0)
    # tan t = (x1 w + x2 z) / (x2 w - x1 z) = (b + w z) / (x2^2 - z^2)
    # = (x1^2 - z^2) / (b - w z): take the form whose sum cannot cancel
    b = x1 * x2
    if b * z < 0.0:
        return (x1 - z) * (x1 + z) / (b - w * z)
    return (b + w * z) / ((x2 - z) * (x2 + z))


def fieller_interval(x, alpha) -> Interval:
    """Equal-tailed set ``{phi : alpha/2 <= G_x(phi) <= 1 - alpha/2}``.

    Endpoints become infinite when ``Phi(-x2) >= alpha/2``; that is the
    mass-at-infinity escape hatch, not an error.
    """
    a = as_alpha(alpha)
    return Interval(_g_inverse(x, a / 2.0), _g_inverse(x, 1.0 - a / 2.0))


def member(x, alpha, phi):
    """``alpha/2 <= G_x(phi) <= 1 - alpha/2``; broadcasts like :func:`fieller_cdf_batch`."""
    g = fieller_cdf_batch(x, phi)
    return (g >= alpha / 2.0) & (g <= 1.0 - alpha / 2.0)


def family() -> ConfidenceFamily:
    return ConfidenceFamily(member=member, center=lambda x: _g_inverse(x, 0.5))


def sampling() -> SamplingModel:
    def sample(theta, mc: MCConfig):
        t = np.asarray(theta, dtype=float)
        z = special.ndtri(mc.generator().random((mc.reps, 2)))
        return t[None, :] + z

    return SamplingModel(name="fieller", sample=sample, draws_per_rep=2)


def interest(theta) -> float:
    t1, t2 = float(theta[0]), float(theta[1])
    if t2 == 0.0:
        raise ValueError("theta_2 = 0 has no defined ratio")
    return t1 / t2
