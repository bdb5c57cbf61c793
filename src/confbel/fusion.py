"""Valid fused inference built on predictive random sets.

Given a sampling association ``X = a(theta, U)`` with auxiliary ``U ~ P_U``
and a nested family of confidence regions ``C_alpha`` for an interest
parameter ``phi(theta)``, fusion converts the regions into subsets of the
auxiliary space,

    S_alpha(theta) = closure{u : C_alpha(a(theta, u)) contains phi(theta)},

and uses ``{S_alpha}`` as the supports of a predictive random set whose
containment law is ``P{S inside K} = sup{P_U(S_alpha) : S_alpha inside K}``.
Writing ``alpha(x, theta) = sup{alpha : S_alpha(theta) meets U_x(theta)}`` for
the index of the smallest support meeting the observed fiber
``U_x(theta) = {u : x = a(theta, u)}``, the plausibility of the singleton
truth is

    pl_x({theta}) = 1 - sup{P_U(S_alpha) : alpha > alpha(x, theta)},

which is stochastically no smaller than uniform at the true parameter, and
whose level sets sit inside the original confidence regions whenever those
regions have their nominal coverage.

The supremum over ``alpha`` above the index is evaluated as the support mass
just beyond the index (a nudge of twice the bisection tolerance), which is the
right limit the construction calls for; continuous models lose at most the
nudge, and models with atoms override with exact closed forms.  An index that
reaches the upper clamp means the fiber meets every support, and the
plausibility is exactly 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contours import (
    ALPHA_BISECT_LEVELS,
    ALPHA_BISECT_TOL,
    NORMALIZATION_TOL,
    ConsonanceError,
    GridSpec,
    IntervalUnion,
    PlausibilityContour,
    Point,
    Region,
    as_alpha,
    bisect,
)
from .mc import MCConfig

ALPHA_CLAMP_LO = 1e-9
ALPHA_CLAMP_HI = 1.0 - 1e-9

_COMPAT_STARVATION_RATE = 1e-4
_COMPAT_SCAN_CAP = 10_000


class ModelInconsistencyError(RuntimeError):
    """The observed data has an empty fiber under the association."""


@dataclass(frozen=True)
class Association:
    """Sampling association ``x = forward(theta, u)`` with its fiber geometry.

    ``fiber(x, theta)`` returns an array of auxiliary points (one per row)
    whose support membership decides whether a support meets the full fiber;
    a single row suffices when the association is invertible in ``u``.
    ``focal(x, u)`` is the focal set ``{theta : x = forward(theta, u)}`` as a
    region; return an empty :class:`IntervalUnion` when no parameter fits.
    ``compat_witness``, when present, maps ``x`` to the auxiliary point most
    capable of explaining it regardless of ``theta`` (used by the
    compatibility check before any sampling).
    """

    forward: Callable[..., object]
    fiber: Callable[..., np.ndarray]
    focal: Callable[..., Region]
    compat_witness: Callable[..., np.ndarray] | None = None


@dataclass(frozen=True)
class RandomSetFamily:
    """Nested closed supports plus the auxiliary law they live under.

    ``support_member(u, alpha, theta)`` evaluates the closed support
    ``S_alpha(theta)`` at each row of ``u`` (non-strict inequalities; the
    closure convention matters for the containment law).  It broadcasts over
    alpha: :func:`alpha_index` passes a column of levels, shape ``(k, 1)``,
    and reads a ``(k, rows)`` answer.  ``mass`` returns
    ``P_U(S_alpha(theta))``; leave it None to estimate by Monte Carlo through
    ``aux_sampler``, which is also what the structural checks draw from.
    """

    support_member: Callable[..., np.ndarray]
    aux_sampler: Callable[[MCConfig], np.ndarray]
    mass: Callable[..., float] | None = None

    def mass_at(self, alpha: float, theta, mc: MCConfig) -> float:
        if self.mass is not None:
            return float(self.mass(alpha, theta, mc))
        draws = _cached_draws(self, mc)
        return float(np.mean(self.support_member(draws, alpha, theta)))


@functools.lru_cache(maxsize=8)
def _cached_draws(rs: RandomSetFamily, mc: MCConfig) -> np.ndarray:
    # Common random numbers: every alpha (and every theta) inside one contour
    # evaluation sees the same auxiliary draws, so masses are monotone in
    # alpha by construction and nudges cannot flip signs.  The cache holds the
    # family itself, not its id: the strong reference keeps a collected
    # sampler's id from being reused by another family while the entry lives.
    return rs.aux_sampler(mc)


def focal_set(assoc: Association, x, u) -> Region:
    """The set of parameters mapping ``u`` to the observed ``x``."""
    return assoc.focal(x, u)


def support_mass(rs: RandomSetFamily, alpha, theta, mc: MCConfig) -> float:
    """``P_U(S_alpha(theta))``, exact when the family carries a closed form."""
    return rs.mass_at(as_alpha(alpha), theta, mc)


def alpha_index(
    assoc: Association,
    rs: RandomSetFamily,
    x,
    theta,
    tol: float = ALPHA_BISECT_TOL,
) -> float:
    """Largest alpha whose support still meets the observed fiber.

    Bisection over the clamped range [1e-9, 1 - 1e-9], both clamps probed in
    one call; intersection at the upper clamp is reported as exactly 1 (the
    fiber meets every support), and no intersection at the lower clamp as
    exactly 0.
    """
    witnesses = np.asarray(assoc.fiber(x, theta))
    if witnesses.size == 0:
        raise ModelInconsistencyError(
            f"data {x!r} has an empty fiber at theta={theta!r}; "
            "the observation is impossible under the association"
        )

    def intersects(alphas: np.ndarray) -> np.ndarray:
        return np.any(rs.support_member(witnesses, alphas[:, None], theta), axis=-1)

    meets_lo, meets_hi = intersects(np.array([ALPHA_CLAMP_LO, ALPHA_CLAMP_HI])).tolist()
    if not meets_lo:
        return 0.0
    if meets_hi:
        return 1.0
    return bisect(intersects, ALPHA_CLAMP_LO, ALPHA_CLAMP_HI, tol, ALPHA_BISECT_LEVELS)


def theta_specific_plaus(
    assoc: Association,
    rs: RandomSetFamily,
    x,
    theta,
    mc: MCConfig,
    tol: float = ALPHA_BISECT_TOL,
) -> float:
    """``pl_x({theta})`` for the fused random set.

    One minus the support mass just above the alpha index; exactly 1 when the
    index is capped at 1.
    """
    a = alpha_index(assoc, rs, x, theta, tol)
    if a >= 1.0:
        return 1.0
    nudged = min(a + 2.0 * tol, ALPHA_CLAMP_HI)
    return float(max(0.0, 1.0 - rs.mass_at(nudged, theta, mc)))


def _golden_max(f, xa, xb, xc, fb):
    """Maximize ``f`` over ``xa < xb < xc``, with ``fb = f(xb)`` above both ends, by the
    steps of ``scipy.optimize.golden``, reusing ``fb``.  Returns ``(x, f(x))``.

    scipy stops at ``|x3 - x0| <= 1e-6 (|x1| + |x2|)``, which near 0 asks for
    ever finer absolute precision; here ``|x1| + |x2|`` is floored at the
    starting bracket's width, so the stop is scipy's wherever the maximum sits
    more than about half that width from 0."""
    r = 0.61803399  # golden ratio conjugate, as in scipy
    floor = np.abs(xc - xa)
    x0, x3 = xa, xc
    if np.abs(xc - xb) > np.abs(xb - xa):
        x1, x2 = xb, xb + (1.0 - r) * (xc - xb)
        f1, f2 = fb, f(x2)
    else:
        x1, x2 = xb - (1.0 - r) * (xb - xa), xb
        f1, f2 = f(x1), fb
    for _ in range(5000):
        if np.abs(x3 - x0) <= 1e-6 * max(np.abs(x1) + np.abs(x2), floor):
            break
        if f2 > f1:
            x0, x1, x2 = x1, x2, r * x2 + (1.0 - r) * x3
            f1, f2 = f2, f(x2)
        else:
            x1, x2, x3 = r * x1 + (1.0 - r) * x0, x1, x2
            f1, f2 = f(x1), f1
    return (x1, f1) if f1 > f2 else (x2, f2)


def fused_contour(
    assoc: Association,
    rs: RandomSetFamily,
    x,
    mc: MCConfig,
    search: GridSpec | None = None,
    *,
    plaus: Callable[[Point], float] | None = None,
    witness: Point | None = None,
    unimodal: bool = False,
    tol: float = ALPHA_BISECT_TOL,
) -> PlausibilityContour:
    """Package the fused plausibility as a consonance-checked contour.

    ``plaus`` overrides the generic evaluator with a model closed form.  The
    supremum witness is located on ``search`` and refined by golden-section
    unless supplied; construction fails with :class:`ConsonanceError` if the
    contour cannot reach 1 there (a normalization failure, typically a
    mis-specified association).
    """
    if plaus is None:
        def plaus_fn(theta):
            return theta_specific_plaus(assoc, rs, x, theta, mc, tol)
    else:
        plaus_fn = plaus
    if witness is None:
        if search is None:
            raise ValueError("fused_contour needs either a search grid or an explicit witness")
        pts = search.points()
        vals = np.array([plaus_fn(p) for p in pts])
        i = int(np.argmax(vals))
        witness = float(pts[i])
        if 0 < i < len(pts) - 1 and vals[i] > vals[i - 1] and vals[i] > vals[i + 1]:
            try:
                refined, top = _golden_max(lambda t: plaus_fn(float(t)), pts[i - 1], pts[i], pts[i + 1], vals[i])
                if top >= vals[i]:
                    witness = float(refined)
            except (ValueError, RuntimeError):
                pass
    v = float(plaus_fn(witness))
    if v < 1.0 - NORMALIZATION_TOL:
        raise ConsonanceError(
            f"fused plausibility peaks at {v:.6g} (witness {witness!r}); "
            "no parameter attains plausibility 1, so the construction is not consonant"
        )
    return PlausibilityContour(plaus_fn, witness, unimodal)


# --------------------------------------------------------------------------
# Structural checks


@dataclass(frozen=True)
class NestednessReport:
    checked_draws: int
    alphas: tuple[float, ...]
    violations: tuple[tuple[float, float, int], ...]

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def check_nested_support(rs: RandomSetFamily, theta, alphas, mc: MCConfig) -> NestednessReport:
    """Probe that ``S_a`` contains ``S_b`` for every pair ``a < b`` on
    sampled auxiliaries.

    A draw inside the smaller-support level ``b`` but outside the larger
    ``a``-support witnesses a nesting violation; the report lists each
    offending (a, b) pair with its violating-draw count.
    """
    levels = tuple(sorted(as_alpha(a) for a in alphas))
    if len(levels) < 2:
        raise ValueError("need at least two alpha levels to check nesting")
    draws = _cached_draws(rs, mc)
    member = np.column_stack([np.asarray(rs.support_member(draws, a, theta), dtype=bool) for a in levels])
    violations = []
    for j in range(len(levels)):
        for k in range(j + 1, len(levels)):
            bad = int(np.count_nonzero(~member[:, j] & member[:, k]))
            if bad:
                violations.append((levels[j], levels[k], bad))
    return NestednessReport(len(draws), levels, tuple(violations))


@dataclass(frozen=True)
class CompatibilityReport:
    status: str  # "compatible" | "incompatible" | "inconclusive"
    acceptance_rate: float
    checked: int
    witness: object | None

    @property
    def compatible(self) -> bool:
        return self.status == "compatible"


def _region_nonempty(region: Region) -> bool:
    return not bool(getattr(region, "is_empty", False))


def check_compatibility(
    assoc: Association,
    rs: RandomSetFamily,
    x,
    theta,
    alpha,
    mc: MCConfig,
) -> CompatibilityReport:
    """Can the level-``alpha`` support explain the observation at all?

    Compatible when some ``u`` in ``S_alpha(theta)`` has a non-empty focal
    set.  Deterministic witnesses are tried first (the association's
    ``compat_witness`` and the fiber points at ``theta``); only then does the
    check fall back to scanning sampled support members, whose focal sets can
    all be empty for singular associations even when a witness exists.
    Starvation (acceptance below 1e-4) yields an inconclusive verdict rather
    than a false negative.
    """
    a = as_alpha(alpha)
    candidates: list[np.ndarray] = []
    if assoc.compat_witness is not None:
        candidates.append(np.atleast_2d(np.asarray(assoc.compat_witness(x), dtype=float)))
    try:
        fiber_pts = np.asarray(assoc.fiber(x, theta))
        if fiber_pts.size:
            candidates.append(np.atleast_2d(fiber_pts))
    except ModelInconsistencyError:
        pass
    for block in candidates:
        inside = np.asarray(rs.support_member(block, a, theta), dtype=bool)
        for u, ok in zip(block, inside):
            if ok and _region_nonempty(assoc.focal(x, u)):
                return CompatibilityReport("compatible", float("nan"), len(block), u)

    draws = _cached_draws(rs, mc)
    member = np.asarray(rs.support_member(draws, a, theta), dtype=bool)
    rate = float(np.mean(member))
    if rate < _COMPAT_STARVATION_RATE:
        return CompatibilityReport("inconclusive", rate, 0, None)
    accepted = draws[member][:_COMPAT_SCAN_CAP]
    for u in accepted:
        if _region_nonempty(assoc.focal(x, u)):
            return CompatibilityReport("compatible", rate, len(accepted), u)
    return CompatibilityReport("incompatible", rate, len(accepted), None)


EMPTY_REGION = IntervalUnion(())
