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

* an assertion or region about a real parameter is an :class:`Interval` or a
  finite :class:`IntervalUnion`; the point assertion ``{t}`` is the
  degenerate interval ``Interval(t, t)``;
* plausibility regions use the strict inequality ``contour > alpha``;
* suprema over empty sets are 0;
* complements are taken closed (boundary points carry no mass for the
  continuous contours shipped here);
* region boundaries are refined between straddling grid points by a bracket
  search guided by the contour values (:func:`_crossing`), never by
  model-specific root-finding;
* the alpha index of a generic family is read by :func:`bisect`, which cuts
  its bracket into ``ALPHA_SPLIT`` equal cells per membership call; its final
  cell's midpoint lands within ``ALPHA_BISECT_TOL / 2`` of the supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

NORMALIZATION_TOL = 1e-8
ALPHA_BISECT_TOL = 1e-6
# equal cells per membership call in the alpha searches (see docs/decisions.md)
ALPHA_SPLIT = 32
_SPLIT_FRACTIONS = np.arange(1, ALPHA_SPLIT) / ALPHA_SPLIT
_SPLIT_MAX_CALLS = 12  # 32**12 = 2**60
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


def as_alpha(alpha) -> float:
    """Validate a level strictly inside (0, 1); 1 - alpha is the nominal confidence."""
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    return a


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid for resolving assertions and level sets."""

    lower: float
    upper: float
    n: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.lower) or not np.isfinite(self.upper):
            raise ValueError("grid bounds must be finite")
        if self.upper <= self.lower:
            raise ValueError("grid upper bound must exceed lower bound")
        if not np.isfinite(self.upper - self.lower):
            raise ValueError(f"grid span must be finite, got {self.lower!r} to {self.upper!r}")
        if self.n < 2:
            raise ValueError("grid needs at least 2 points")

    def points(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.n)


# --------------------------------------------------------------------------
# Regions and assertions: closed intervals and their finite unions


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


Region = Interval | IntervalUnion


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


def bisect(pred: Callable[[np.ndarray], object], lo: float, hi: float, tol: float) -> tuple[float, float]:
    """The final cell ``(true end, false end)`` of the bracket from ``lo``
    (``pred`` true) to ``hi`` (false), in either order, cut into
    ``ALPHA_SPLIT`` equal cells a call until ``|hi - lo| <= tol`` or 12 calls
    (60 halvings' worth).

    ``pred`` answers elementwise on the 1-d array of the 31 inner cut points
    ``lo + (hi - lo) * k / 32``; the search keeps the cell where the answers
    first turn false, so each end of the final cell is an asked point or a
    starting end, true at the first and false at the second.
    """
    for _ in range(_SPLIT_MAX_CALLS):
        cuts = lo + (hi - lo) * _SPLIT_FRACTIONS
        answers = np.asarray(pred(cuts), dtype=bool).tolist()
        k = answers.index(False) if False in answers else len(answers)  # the first false cut
        lo, hi = [lo, *cuts.tolist(), hi][k : k + 2]  # the cell that ends at it
        if abs(hi - lo) <= tol:
            break
    return lo, hi


def contour_from_family(family: ConfidenceFamily, x, theta) -> float:
    """Evaluate ``sup{alpha : theta in C_alpha(x)}`` by an alpha search.

    Membership is probed at the clamp levels ``tol = ALPHA_BISECT_TOL`` and
    ``1 - tol`` first, in one call: outside the widest region means 0, inside
    the narrowest means 1 (provided membership is consistent; a point inside
    at ``1 - tol`` but outside at ``tol`` witnesses a nestedness violation and
    raises).  :func:`bisect` then takes 4 calls down to width ``tol``, and the
    result, the final cell's midpoint, lies within ``tol / 2`` of the supremum.
    """
    lo, hi = ALPHA_BISECT_TOL, 1.0 - ALPHA_BISECT_TOL
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
    lo, hi = bisect(lambda a: family.member(x, a, theta), lo, hi, ALPHA_BISECT_TOL)
    return 0.5 * (lo + hi)


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


def plausibility(contour: PlausibilityContour, assertion: Region, grid: GridSpec | None = None) -> float:
    """``pl_x(A)``: supremum of the contour over the assertion.  A point
    assertion ``{t}`` is the degenerate interval ``Interval(t, t)``, read as
    ``contour(t)`` on either path."""
    if isinstance(assertion, Interval):
        return _interval_plaus(contour, assertion, grid)
    if isinstance(assertion, IntervalUnion):
        if assertion.is_empty:
            raise DegenerateAssertionError("assertion is an empty union of intervals")
        return max(_interval_plaus(contour, iv, grid) for iv in assertion.intervals)
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


def _complement(assertion: Region, domain: Interval) -> IntervalUnion:
    if isinstance(assertion, Interval):
        assertion = IntervalUnion((assertion,))
    if not isinstance(assertion, IntervalUnion):
        raise UnsupportedAssertionError(f"cannot complement assertion type {type(assertion).__name__}")
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


_FULL_LINE = Interval(-np.inf, np.inf)


def belief(
    contour: PlausibilityContour,
    assertion: Region,
    grid: GridSpec | None = None,
    domain: Interval = _FULL_LINE,
) -> float:
    """``bel_x(A) = 1 - pl_x(A complement)``, complement taken closed in
    ``domain``: the complement of a point ``Interval(t, t)`` still holds
    ``t``, so its belief is 0 under a continuous contour."""
    comp = _complement(assertion, domain)
    if comp.is_empty:
        return 1.0
    return 1.0 - plausibility(contour, comp, grid)


# --------------------------------------------------------------------------
# Level sets


def _crossing(fn: Callable[[float], float], alpha: float, lo: float, hi: float, g_lo: float, g_hi: float) -> float:
    """Where ``fn`` crosses ``alpha`` between ``lo`` (``fn > alpha``) and
    ``hi`` (not), in either order, given ``g = fn - alpha`` at both ends.

    Each step is regula falsi with the Anderson-Bjorck factor (BIT 13,
    1973): an end kept twice running has its ``g`` scaled by ``1 - g_new /
    g_replaced`` (0.5 unless that is positive), the moved end's ``g`` now and
    before.  A step within ``nudge`` floats of an end moves that far off it,
    and ``nudge`` doubles while steps keep landing there.  A step is a plain
    halving when only halvings can still reach the floor below in the steps
    left.  Every point is classified by ``fn(t) > alpha``, the test of the
    grid values.

    The search stops when ``0.5 * (lo + hi)`` is an end (the bracket is two
    adjacent floats) or the bracket is within ``2**-60`` of the cell, and
    returns that midpoint.  When the cell holds one crossing and 60 plain
    halvings of it reach adjacent floats, it is their float.

    Worst case: ``2 * 60`` evaluations a crossing, with the bracket at the
    floor by then.  60 halvings always cost 60.  At a jump across the level
    there is nothing to interpolate, and the tests see about 50.
    """
    floor = abs(hi - lo) * 2.0**-_BISECT_MAX_ITER
    kept = 0  # the end the last step kept: 1 is lo, -1 is hi
    nudge = 1.0
    for left in range(2 * _BISECT_MAX_ITER, 0, -1):
        mid = 0.5 * (lo + hi)
        width = abs(hi - lo)
        if mid == lo or mid == hi or width <= floor:
            return mid
        if width > floor * 2.0 ** (left - 1) or g_lo <= 0.0:  # g_lo only underflows to 0
            t = mid
        else:
            t = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
            for end, other in ((lo, hi), (hi, lo)):
                step = nudge * math.ulp(end)
                if abs(t - end) <= step:
                    t = end + math.copysign(step, other - end)
                    nudge *= 2.0
                    break
            else:
                nudge = 1.0
            if not min(lo, hi) < t < max(lo, hi):
                t = mid
        v = float(fn(t))
        g = v - alpha
        if v > alpha:
            if kept == -1:
                g_hi *= _anderson_bjorck(g, g_lo)
            lo, g_lo, kept = t, g, -1
        else:
            if kept == 1:
                g_lo *= _anderson_bjorck(g, g_hi)
            hi, g_hi, kept = t, g, 1
    return 0.5 * (lo + hi)


def _anderson_bjorck(g_new: float, g_replaced: float) -> float:
    """The factor on the ``g`` of an end kept twice running."""
    m = 1.0 - g_new / g_replaced if g_replaced else 0.0
    return m if m > 0.0 else 0.5


def _region_from_values(
    fn: Callable[[float], float], pts: np.ndarray, vals: np.ndarray, alpha: float
) -> Interval | IntervalUnion:
    # first and last index of each run of grid points above the level
    edges = np.flatnonzero(np.diff(np.concatenate(([0], vals > alpha, [0]))))
    if not len(edges):
        return IntervalUnion(())

    def crossing(i_in: int, i_out: int) -> float:  # the grid values start the search
        g_in, g_out = float(vals[i_in]) - alpha, float(vals[i_out]) - alpha
        return _crossing(fn, alpha, float(pts[i_in]), float(pts[i_out]), g_in, g_out)

    intervals = []
    for i0, i1 in zip(edges[::2], edges[1::2] - 1):
        left = float(pts[0]) if i0 == 0 else crossing(i0, i0 - 1)
        right = float(pts[-1]) if i1 == len(pts) - 1 else crossing(i1, i1 + 1)
        intervals.append(Interval(left, right))
    if len(intervals) == 1:
        return intervals[0]
    return IntervalUnion(intervals)


def plausibility_region(contour: PlausibilityContour, alpha, grid: GridSpec) -> Interval | IntervalUnion:
    """Level set ``{theta : pl_x(theta) > alpha}`` resolved on ``grid``.

    Grid points straddling the level are refined by :func:`_crossing`; a set
    reaching the edge of the grid is truncated there (widen the grid if that
    matters).
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
    phi_map: Callable[[Point], float],
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
    mapped = phi_map(pts[0])
    if not abs(mapped - phi) <= 1e-9 + 1e-9 * abs(phi):  # np.isclose's test, without its overhead
        raise OutOfRangeError(f"fiber point {pts[0]!r} maps to {mapped!r}, not {phi!r}")
    return max(float(contour(p)) for p in pts)


def marginal_region(
    contour: PlausibilityContour,
    phi_map: Callable[[Point], float],
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
