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
ratio, and quantile requests inside a non-monotone stretch have no answer at
all (:class:`NonMonotoneError`).  The equal-tailed set is nonetheless
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

import numpy as np
from scipy import special

from ..audit import SamplingModel
from ..contours import ConfidenceFamily, Interval
from ..mc import MCConfig


class NonMonotoneError(RuntimeError):
    """G_x is not monotone where an inverse was requested."""


def fieller_cdf_batch(xs, phi) -> np.ndarray:
    """``G_x(phi)`` for the (m, 2) data rows ``xs`` (one pair is a stack of
    one), broadcast against a scalar or 1-d ``phi``."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    phis = np.asarray(phi, dtype=float)
    return special.ndtr((phis * xs[:, 1] - xs[:, 0]) / np.hypot(1.0, phis))


def fieller_cdf(x, phi: float) -> float:
    """Scalar ``G_x(phi)``: one row of :func:`fieller_cdf_batch`."""
    return float(fieller_cdf_batch([x], phi)[0])


def mass_at_infinity(x) -> float:
    """The CDF mass ``Phi(-x2)`` stranded beyond each end of the real line."""
    return float(special.ndtr(-float(x[1])))


def _g_inverse(x, p: float) -> float:
    """Solve ``G_x(phi) = p``; +-inf when the stranded mass swallows ``p``."""
    tail = mass_at_infinity(x)
    if p <= tail:
        return -np.inf
    if p >= 1.0 - tail:
        return np.inf
    lo, hi = -1.0, 1.0
    for _ in range(60):
        if fieller_cdf(x, lo) < p:
            break
        lo *= 2.0
    else:
        return -np.inf
    for _ in range(60):
        if fieller_cdf(x, hi) > p:
            break
        hi *= 2.0
    else:
        return np.inf
    probe = fieller_cdf_batch(x, np.linspace(lo, hi, 41))
    if np.any(np.diff(probe) < -1e-7):
        raise NonMonotoneError(f"G_x is not monotone on [{lo}, {hi}] for x={tuple(x)!r}")
    # There the pivot equals z = ndtri(p).  Squared: a phi^2 - 2 b phi + c = 0
    # with b^2 - a c = z^2 (x1^2 + x2^2 - z^2).  Its roots q / a and c / q put
    # the pivot at +z and at -z (where G_x = 1 - p); keep ours.
    x1, x2 = float(x[0]), float(x[1])
    z = float(special.ndtri(p))
    a, b, c = x2 * x2 - z * z, x1 * x2, x1 * x1 - z * z
    q = b + np.copysign(abs(z) * np.sqrt(max(x1 * x1 + x2 * x2 - z * z, 0.0)), b)
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.clip([q / a, c / q], lo, hi)  # the bracket holds the root up to rounding
    return float(roots[np.nanargmin(np.abs(fieller_cdf_batch(x, roots) - p))])


def fieller_interval(x, alpha) -> Interval:
    """Equal-tailed set ``{phi : alpha/2 <= G_x(phi) <= 1 - alpha/2}``.

    Endpoints become infinite when ``Phi(-x2) >= alpha/2``; that is the
    mass-at-infinity escape hatch, not an error.
    """
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
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
