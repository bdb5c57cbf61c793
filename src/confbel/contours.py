"""Consonant belief and plausibility functions built from confidence regions.

A family of confidence regions ``{C_alpha : 0 < alpha < 1}``, nested so that
``C_alpha`` shrinks as ``alpha`` grows (small ``alpha`` means high confidence),
determines a possibility contour

    pl_x(theta) = sup{alpha : theta in C_alpha(x)}.

The contour extends to arbitrary assertions ``A`` about the parameter by
``pl_x(A) = sup_{theta in A} pl_x(theta)``, with dual belief
``bel_x(A) = 1 - pl_x(A complement)``, and the level sets
``{theta : pl_x(theta) > alpha}`` recover the original regions when the family
is genuinely nested.  This module owns those constructions for arbitrary
families; model-specific closed forms live in :mod:`confbel.models`.

Conventions fixed here and relied on throughout the package:

* plausibility regions use the strict inequality ``contour > alpha``;
* suprema over empty sets are 0;
* complements are taken closed (boundary points carry no mass for the
  continuous contours shipped here);
* region boundaries are refined by bisection between straddling grid points,
  never by model-specific root-finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

NORMALIZATION_TOL = 1e-8
ALPHA_BISECT_TOL = 1e-6
# halvings resolved per membership call in the alpha bisections (see docs/decisions.md)
ALPHA_BISECT_LEVELS = 5
_BISECT_MAX_ITER = 60

Point = float | tuple


class NestednessError(RuntimeError):
    """Membership in the region family is not monotone in alpha."""


class ConsonanceError(RuntimeError):
    """A contour fails to reach 1 at its claimed supremum witness."""


class DegenerateAssertionError(ValueError):
    """An assertion resolves to an empty set of parameter points."""


class UnsupportedAssertionError(TypeError):
    """The assertion representation needs a grid (or is not handled at all)."""


class OutOfRangeError(ValueError):
    """A requested interest-parameter value has an empty fiber."""


@dataclass(frozen=True)
class AlphaLevel:
    """A level strictly inside (0, 1); 1 - alpha is the nominal confidence."""

    value: float

    def __post_init__(self) -> None:
        if not 0.0 < self.value < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.value!r}")

    def __float__(self) -> float:
        return float(self.value)


def as_alpha(alpha) -> float:
    """Validate and unwrap an alpha given as a float or :class:`AlphaLevel`."""
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    return a


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid for resolving assertions and level sets."""

    lower: float
    upper: float
    n: int = 512

    def __post_init__(self) -> None:
        if not np.isfinite(self.lower) or not np.isfinite(self.upper):
            raise ValueError("grid bounds must be finite")
        if self.upper <= self.lower:
            raise ValueError("grid upper bound must exceed lower bound")
        if self.n < 2:
            raise ValueError("grid needs at least 2 points")

    def points(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.n)


# --------------------------------------------------------------------------
# Region and assertion representations


@dataclass(frozen=True)
class Interval:
    """Closed interval; endpoints may be infinite."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if np.isnan(self.lower) or np.isnan(self.upper):
            raise ValueError("interval endpoints must not be NaN")
        if self.lower > self.upper:
            raise ValueError(f"interval requires lower <= upper, got [{self.lower}, {self.upper}]")

    @property
    def is_empty(self) -> bool:
        return False

    def contains(self, theta) -> bool:
        return bool(self.lower <= theta <= self.upper)


@dataclass(frozen=True)
class IntervalUnion:
    """Finite (possibly empty) union of closed intervals."""

    intervals: tuple[Interval, ...]

    def __init__(self, intervals: Iterable[Interval] = ()):
        object.__setattr__(self, "intervals", tuple(intervals))

    @property
    def is_empty(self) -> bool:
        return len(self.intervals) == 0

    def contains(self, theta) -> bool:
        return any(iv.contains(theta) for iv in self.intervals)


@dataclass(frozen=True)
class GridRegion:
    """Finite point set with inclusion flags (vector parameters welcome)."""

    points: np.ndarray
    mask: np.ndarray

    def __init__(self, points, mask):
        points = np.asarray(points)
        mask = np.asarray(mask, dtype=bool)
        if len(points) != len(mask):
            raise ValueError("points and mask must have equal length")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "mask", mask)

    @property
    def is_empty(self) -> bool:
        return not bool(self.mask.any())

    def included(self) -> np.ndarray:
        return self.points[self.mask]

    def contains(self, theta) -> bool:
        if self.is_empty:
            return False
        inc = self.included()
        return bool(np.any(np.all(np.isclose(inc, theta, rtol=1e-12, atol=1e-12).reshape(len(inc), -1), axis=1)))


@dataclass(frozen=True)
class PredicateRegion:
    """Region given only by a membership predicate; needs a grid to resolve."""

    predicate: Callable[[Point], bool]

    def contains(self, theta) -> bool:
        return bool(self.predicate(theta))


@dataclass(frozen=True)
class Singleton:
    """Assertion that the parameter equals one point."""

    point: Point

    def contains(self, theta) -> bool:
        return bool(np.all(np.isclose(theta, self.point, rtol=1e-12, atol=1e-12)))


Region = Interval | IntervalUnion | GridRegion | PredicateRegion
Assertion = Region | Singleton


# --------------------------------------------------------------------------
# Families and contours


@dataclass(frozen=True)
class ConfidenceFamily:
    """Nested region family presented through a membership oracle.

    ``member(x, alpha, theta)`` answers ``theta in C_alpha(x)`` and must be
    monotone: once out at some alpha, out at every larger alpha.  ``center(x)``
    is a point contained in every region (the nesting anchor).

    The shipped models' ``member`` broadcasts: ``x`` is one dataset or a stack
    of datasets along a leading axis, ``alpha`` and ``theta`` scalars or
    arrays, and the answer is their numpy broadcast (a scalar boolean for one
    dataset, one alpha and one theta).  :func:`contour_from_family` relies on
    the alpha axis: it passes a 1-d array of levels with one dataset and one
    theta, and reads one answer per level.  ``member_batch`` is the name the
    coverage audit calls; it defaults to ``member`` itself, so a stack of
    datasets and the scalar route share one evaluator.
    """

    member: Callable[..., bool]
    center: Callable[..., Point]
    member_batch: Callable[..., np.ndarray] | None = None
    param_dim: int = 1

    def __post_init__(self) -> None:
        if self.member_batch is None:
            object.__setattr__(self, "member_batch", self.member)


@dataclass(frozen=True)
class PlausibilityContour:
    """Pointwise plausibility ``theta -> pl_x(theta)`` with a supremum witness.

    Construction verifies consonance: the contour must attain 1 (within
    ``NORMALIZATION_TOL``) at ``sup_witness``.  ``unimodal`` marks contours
    that rise then fall along a scalar parameter, which lets interval
    assertions be resolved without a grid.
    """

    fn: Callable[[Point], float]
    sup_witness: Point
    unimodal: bool = False

    def __post_init__(self) -> None:
        v = float(self.fn(self.sup_witness))
        if not 0.0 <= v <= 1.0 + 1e-12:
            raise ConsonanceError(f"contour value {v!r} at witness lies outside [0, 1]")
        if v < 1.0 - NORMALIZATION_TOL:
            raise ConsonanceError(
                f"contour reaches only {v:.6g} at its supremum witness {self.sup_witness!r}; "
                "a consonant plausibility must attain 1"
            )

    def __call__(self, theta):
        return self.fn(theta)


def bisect(pred: Callable[[np.ndarray], object], lo: float, hi: float, tol: float, levels: int = 1) -> float:
    """Midpoint of the bracket from ``lo`` (``pred`` true) to ``hi`` (false),
    in either order, halved until ``|hi - lo| <= tol`` or 60 halvings.

    ``pred`` answers elementwise on a 1-d array.  Each call gets the
    ``2**levels - 1`` midpoints of every path through the next ``levels``
    halvings, built by the same ``0.5 * (lo + hi)``; the walk down the tree
    reads only the answers the one-at-a-time search would have asked for, so
    the result is the same for every ``levels``, monotone ``pred`` or not.
    """
    done = 0
    while True:
        depth = min(levels, _BISECT_MAX_ITER - done)
        # breadth-first tree: node k's children are 2k + 1 (false) and 2k + 2 (true)
        pts, brackets = [], [(lo, hi)]
        for _ in range(depth):
            nxt = []
            for a, b in brackets:
                mid = 0.5 * (a + b)
                pts.append(mid)
                nxt += ((a, mid), (mid, b))
            brackets = nxt
        answers = np.asarray(pred(np.array(pts)), dtype=bool).tolist()
        k = 0
        for _ in range(depth):
            if answers[k]:
                lo = pts[k]
            else:
                hi = pts[k]
            done += 1
            if abs(hi - lo) <= tol or done == _BISECT_MAX_ITER:
                return 0.5 * (lo + hi)
            k = 2 * k + 1 + answers[k]


def contour_from_family(family: ConfidenceFamily, x, theta, tol: float = ALPHA_BISECT_TOL) -> float:
    """Evaluate ``sup{alpha : theta in C_alpha(x)}`` by bisection on alpha.

    Membership is probed at the clamp levels ``tol`` and ``1 - tol`` first,
    in one call: outside the widest region means 0, inside the narrowest
    means 1 (provided membership is consistent; a point inside at ``1 - tol``
    but outside at ``tol`` witnesses a nestedness violation and raises).  The
    bisection then resolves ``ALPHA_BISECT_LEVELS`` halvings a call.
    """
    lo, hi = tol, 1.0 - tol
    in_lo, in_hi = np.asarray(family.member(x, np.array([lo, hi]), theta), dtype=bool).tolist()
    if in_hi:
        if not in_lo:
            raise NestednessError(
                f"theta={theta!r} is outside C_alpha at alpha={lo} yet inside at alpha={hi}; "
                "the family is not nested"
            )
        return 1.0
    if not in_lo:
        return 0.0
    return bisect(lambda a: family.member(x, a, theta), lo, hi, tol, ALPHA_BISECT_LEVELS)


# --------------------------------------------------------------------------
# Assertion plausibility and belief


def _finite(v: float) -> bool:
    return bool(np.isfinite(v))


def _interval_plaus(contour: PlausibilityContour, iv: Interval, grid: GridSpec | None) -> float:
    if contour.unimodal and np.ndim(contour.sup_witness) == 0:
        w = float(contour.sup_witness)
        # Max of a unimodal contour on [lower, upper] sits at the witness
        # clamped into the interval (clamp to a finite endpoint if w escapes).
        t = min(max(w, iv.lower), iv.upper)
        if not _finite(t):
            t = iv.lower if _finite(iv.lower) else iv.upper
        if not _finite(t):
            raise UnsupportedAssertionError("doubly infinite interval needs a grid or a finite witness")
        return float(contour(t))
    if grid is None:
        raise UnsupportedAssertionError("interval assertion needs a grid when the contour is not unimodal")
    pts = grid.points()
    keep = (pts >= iv.lower) & (pts <= iv.upper)
    cand = [float(contour(p)) for p in pts[keep]]
    for endpoint in (iv.lower, iv.upper):
        if _finite(endpoint):
            cand.append(float(contour(endpoint)))
    if not cand:
        raise DegenerateAssertionError(f"no evaluation points inside [{iv.lower}, {iv.upper}]")
    return max(cand)


def plausibility(contour: PlausibilityContour, assertion: Assertion, grid: GridSpec | None = None) -> float:
    """``pl_x(A)``: supremum of the contour over the assertion."""
    if isinstance(assertion, Singleton):
        return float(contour(assertion.point))
    if isinstance(assertion, Interval):
        return _interval_plaus(contour, assertion, grid)
    if isinstance(assertion, IntervalUnion):
        if assertion.is_empty:
            raise DegenerateAssertionError("assertion is an empty union of intervals")
        return max(_interval_plaus(contour, iv, grid) for iv in assertion.intervals)
    if isinstance(assertion, GridRegion):
        if assertion.is_empty:
            raise DegenerateAssertionError("assertion includes no grid points")
        return max(float(contour(p)) for p in assertion.included())
    if isinstance(assertion, PredicateRegion):
        if grid is None:
            raise UnsupportedAssertionError("predicate assertion needs a grid")
        pts = [p for p in grid.points() if assertion.predicate(p)]
        if not pts:
            raise DegenerateAssertionError("predicate holds at no grid point")
        return max(float(contour(p)) for p in pts)
    raise UnsupportedAssertionError(f"unsupported assertion type {type(assertion).__name__}")


def _merge_intervals(intervals: Sequence[Interval]) -> list[Interval]:
    ivs = sorted(intervals, key=lambda iv: iv.lower)
    merged: list[Interval] = []
    for iv in ivs:
        if merged and iv.lower <= merged[-1].upper:
            if iv.upper > merged[-1].upper:
                merged[-1] = Interval(merged[-1].lower, iv.upper)
        else:
            merged.append(iv)
    return merged


def _complement(assertion: Assertion, domain: Interval, grid: GridSpec | None) -> Assertion:
    if isinstance(assertion, Singleton):
        if grid is None:
            raise UnsupportedAssertionError("singleton complement needs a grid")
        pts = grid.points()
        mask = ~np.all(np.isclose(pts.reshape(len(pts), -1), assertion.point, rtol=1e-12, atol=1e-12), axis=1)
        mask &= (pts >= domain.lower) & (pts <= domain.upper)
        return GridRegion(pts, mask)
    if isinstance(assertion, Interval):
        assertion = IntervalUnion((assertion,))
    if isinstance(assertion, IntervalUnion):
        gaps: list[Interval] = []
        cursor = domain.lower
        for iv in _merge_intervals(assertion.intervals):
            lo = max(iv.lower, domain.lower)
            hi = min(iv.upper, domain.upper)
            if hi < lo:
                continue
            if lo > cursor:
                gaps.append(Interval(cursor, lo))
            cursor = max(cursor, hi)
        if cursor < domain.upper:
            gaps.append(Interval(cursor, domain.upper))
        return IntervalUnion(gaps)
    if isinstance(assertion, GridRegion):
        mask = ~assertion.mask
        pts1 = np.asarray(assertion.points)
        if pts1.ndim == 1:
            mask &= (pts1 >= domain.lower) & (pts1 <= domain.upper)
        return GridRegion(assertion.points, mask)
    if isinstance(assertion, PredicateRegion):
        if grid is None:
            raise UnsupportedAssertionError("predicate complement needs a grid")
        pts = grid.points()
        mask = np.array([not assertion.predicate(p) for p in pts])
        mask &= (pts >= domain.lower) & (pts <= domain.upper)
        return GridRegion(pts, mask)
    raise UnsupportedAssertionError(f"cannot complement assertion type {type(assertion).__name__}")


_FULL_LINE = Interval(-np.inf, np.inf)


def belief(
    contour: PlausibilityContour,
    assertion: Assertion,
    grid: GridSpec | None = None,
    domain: Interval = _FULL_LINE,
) -> float:
    """``bel_x(A) = 1 - pl_x(A complement)``, complement taken in ``domain``."""
    comp = _complement(assertion, domain, grid)
    if isinstance(comp, (IntervalUnion, GridRegion)) and comp.is_empty:
        return 1.0
    return 1.0 - plausibility(contour, comp, grid)


# --------------------------------------------------------------------------
# Level sets


def _region_from_values(
    fn: Callable[[float], float], pts: np.ndarray, vals: np.ndarray, alpha: float
) -> Interval | IntervalUnion:
    # first and last index of each run of grid points above the level
    edges = np.flatnonzero(np.diff(np.concatenate(([0], vals > alpha, [0]))))
    if not len(edges):
        return IntervalUnion(())

    def above(ts: np.ndarray) -> list[bool]:  # fn may take scalars only: one point a call
        return [float(fn(t)) > alpha for t in ts.tolist()]

    intervals = []
    for i0, i1 in zip(edges[::2], edges[1::2] - 1):
        left = float(pts[0]) if i0 == 0 else bisect(above, float(pts[i0]), float(pts[i0 - 1]), 0.0)
        right = float(pts[-1]) if i1 == len(pts) - 1 else bisect(above, float(pts[i1]), float(pts[i1 + 1]), 0.0)
        intervals.append(Interval(left, right))
    if len(intervals) == 1:
        return intervals[0]
    return IntervalUnion(intervals)


def plausibility_region(contour: PlausibilityContour, alpha, grid: GridSpec) -> Interval | IntervalUnion:
    """Level set ``{theta : pl_x(theta) > alpha}`` resolved on ``grid``.

    Grid points straddling the level are refined by bisection; a set reaching
    the edge of the grid is truncated there (widen the grid if that matters).
    Strict inequality: points where the contour equals ``alpha`` exactly are
    excluded.
    """
    a = as_alpha(alpha)
    pts = grid.points()
    vals = np.array([float(contour(p)) for p in pts])
    return _region_from_values(lambda t: float(contour(t)), pts, vals, a)


# --------------------------------------------------------------------------
# Marginalization over interest parameters


def marginal_contour(
    contour: PlausibilityContour,
    phi_map: Callable[[Point], float] | None,
    phi,
    fiber: Callable[[float], Sequence[Point]],
) -> float:
    """``pl_x(phi) = sup{pl_x(theta) : phi_map(theta) = phi}``.

    ``fiber(phi)`` enumerates the points of the preimage (a finite set or a
    grid over it).  An empty fiber means ``phi`` is not attainable.
    """
    pts = list(fiber(phi))
    if not pts:
        raise OutOfRangeError(f"interest value {phi!r} has an empty fiber")
    if phi_map is not None:
        mapped = phi_map(pts[0])
        if not np.isclose(mapped, phi, rtol=1e-9, atol=1e-9):
            raise OutOfRangeError(f"fiber point {pts[0]!r} maps to {mapped!r}, not {phi!r}")
    return max(float(contour(p)) for p in pts)


def marginal_region(
    contour: PlausibilityContour,
    phi_map: Callable[[Point], float] | None,
    alpha,
    grid: GridSpec,
    fiber: Callable[[float], Sequence[Point]],
) -> Interval | IntervalUnion:
    """Level set of the marginal contour over an interest-parameter grid."""
    a = as_alpha(alpha)

    def marg(phi: float) -> float:
        return marginal_contour(contour, phi_map, phi, fiber)

    pts = grid.points()
    vals = np.array([marg(p) for p in pts])
    return _region_from_values(marg, pts, vals, a)
