"""Valid fused inference built on predictive random sets.

Given a sampling association ``X = a(theta, U)`` with auxiliary ``U ~ P_U``
and the nested family of confidence regions ``C_alpha`` that the association
carries, fusion converts the regions into subsets of the auxiliary space,

    S_alpha(theta) = {u : theta in C_alpha(a(theta, u))},

and uses ``{S_alpha}`` as the supports of a predictive random set whose
containment law is ``P{S inside K} = sup{P_U(S_alpha) : S_alpha inside K}``.
Two facts follow from that form, and this module is built on them.

* The support is the family's own membership read through the association
  (:func:`support_of`); no model writes it in auxiliary coordinates.
* The index ``alpha(x, theta)`` of the smallest support meeting
  ``{u : x = a(theta, u)}`` is the confidence contour at theta.  Every such
  ``u`` has ``a(theta, u) = x``, so ``S_alpha(theta)`` meets the set, when
  it is non-empty, exactly when ``theta in C_alpha(x)``, and

      alpha(x, theta) = sup{alpha : theta in C_alpha(x)},

  which :func:`contour_from_family` evaluates (:func:`alpha_index`).  Where
  no ``u`` maps theta to x the supremum is over an empty set, 0, and the
  shipped families read 0 there too.

The plausibility of the singleton truth is

    pl_x({theta}) = 1 - sup{P_U(S_alpha) : alpha > alpha(x, theta)},

which is stochastically no smaller than uniform at the true parameter, and
whose level sets sit inside the original confidence regions whenever those
regions have their nominal coverage.

The supremum over ``alpha`` above the index is the right limit of the support
mass at the index, which every random set carries in closed form or, for
behrens_fisher, by quadrature.  :func:`theta_specific_plaus` cuts the index's
last bracket into ``ALPHA_SPLIT`` cells, in one more membership call, and
reads the mass at the false end of the cell it keeps, at most ``tol/32`` past
the index, so a model with atoms loses one only to a threshold that close
above it.  An index of 1 means every support meets the observation, and the
plausibility is exactly 1; an index of 0 searches all of ``(0, tol)`` in 12
calls, ``tol`` being ``ALPHA_BISECT_TOL``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .audit import SamplingModel
from .contours import (
    ALPHA_BISECT_TOL,
    ConfidenceFamily,
    ConsonanceError,
    GridSpec,
    IntervalUnion,
    PlausibilityContour,
    as_alpha,
    bisect,
    contour_from_family,
)
from .mc import MCConfig

_COMPAT_STARVATION_RATE = 1e-4
_COMPAT_SCAN_CAP = 10_000


@dataclass(frozen=True)
class Association:
    """Sampling association ``x = forward(theta, u)`` and the confidence
    family it carries.

    ``forward`` maps one auxiliary row to one dataset, and a stack of rows
    (leading axis) to a stack of datasets, in the form ``family.member``
    reads; fed the random set's ``aux_sampler``, it draws the data
    (:func:`sampling_of`).  ``family.member(x, alpha, theta)`` takes the
    association's full parameter; the supports and the alpha index are
    derived from it (:func:`support_of`, :func:`alpha_index`).
    ``focal(x, u)`` is the focal set ``{theta : x = forward(theta, u)}``:
    an interval for a real parameter, :data:`EMPTY_REGION` when no parameter
    fits, and otherwise one parameter point of the set (behrens_fisher's
    ``(mu1, mu2, s1, s2)``, one CDF for dkw), which ``forward`` maps back to
    ``x``.  The compatibility check only asks whether it is empty.
    ``compat_witness``, when present, maps ``x`` to the auxiliary point most
    capable of explaining it regardless of ``theta`` (used by the
    compatibility check before any sampling).
    """

    forward: Callable[..., object]
    family: ConfidenceFamily
    focal: Callable[..., object]
    compat_witness: Callable[..., np.ndarray] | None = None


@dataclass(frozen=True)
class RandomSetFamily:
    """Nested closed supports plus the auxiliary law they live under.

    ``support_member(u, alpha, theta)`` evaluates the closed support
    ``S_alpha(theta)`` at each row of ``u`` (non-strict inequalities; the
    closure convention matters for the containment law).  Every shipped model
    passes :func:`support_of` of its association.  ``mass(alpha, theta, mc)``
    returns ``P_U(S_alpha(theta))``, in closed form or by quadrature;
    ``aux_sampler`` draws ``U`` for the data and the structural checks.
    """

    support_member: Callable[..., np.ndarray]
    aux_sampler: Callable[[MCConfig], np.ndarray]
    mass: Callable[..., float]


@functools.lru_cache(maxsize=8)
def _cached_draws(rs: RandomSetFamily, mc: MCConfig) -> np.ndarray:
    # The structural checks probe every alpha of a family on the same draws.
    # The cache holds the family itself, not its id: the strong reference keeps
    # a collected sampler's id from being reused while the entry lives.
    # Read-only, as every cached table is: a write would reach later callers.
    draws = rs.aux_sampler(mc)
    draws.flags.writeable = False
    return draws


def support_of(assoc: Association) -> Callable[..., np.ndarray]:
    """``S_alpha(theta) = {u : theta in C_alpha(forward(theta, u))}`` as a
    ``support_member``: the family's membership read through the association."""
    return lambda u, alpha, theta: assoc.family.member(assoc.forward(theta, u), alpha, theta)


def sampling_of(name: str, assoc: Association, rs: RandomSetFamily, draws_per_rep: int) -> SamplingModel:
    """Data ``X = forward(theta, U)``, ``U`` from ``rs.aux_sampler``: the law
    the supports read.  ``aux_sampler`` spends ``draws_per_rep`` uniforms a
    replicate."""
    return SamplingModel(name, lambda theta, mc: assoc.forward(theta, rs.aux_sampler(mc)), draws_per_rep)


def focal_set(assoc: Association, x, u):
    """The set of parameters mapping ``u`` to the observed ``x``."""
    return assoc.focal(x, u)


def support_mass(rs: RandomSetFamily, alpha, theta, mc: MCConfig) -> float:
    """``P_U(S_alpha(theta))``: the family's own mass at a checked level."""
    return float(rs.mass(as_alpha(alpha), theta, mc))


def alpha_index(assoc: Association, x, theta) -> float:
    """Largest alpha whose support still meets ``{u : x = forward(theta, u)}``:
    the confidence contour of the association's family at theta (see the
    module docstring)."""
    return contour_from_family(assoc.family, x, theta)


def theta_specific_plaus(assoc: Association, rs: RandomSetFamily, x, theta, mc: MCConfig) -> float:
    """``pl_x({theta})`` for the fused random set.

    One minus the support mass just above the alpha index (the right limit;
    see the module docstring); exactly 1 when the index is capped at 1.
    """
    a = alpha_index(assoc, x, theta)
    if a >= 1.0:
        return 1.0
    tol = ALPHA_BISECT_TOL
    # the index's last bracket, a -+ tol/2, cut once, or below the clamp all
    # of (0, tol), cut down to bisect's floor; the mass is read at the false
    # end of the cell the search keeps
    lo, hi, width = (a - tol / 2.0, a + tol / 2.0, tol) if a > 0.0 else (0.0, tol, 0.0)
    member = assoc.family.member
    _, level = bisect(lambda al: member(x, al, theta), lo, hi, width)
    return float(max(0.0, 1.0 - rs.mass(level, theta, mc)))


def fused_contour(
    assoc: Association, rs: RandomSetFamily, x, mc: MCConfig, *, search: GridSpec | None = None
) -> PlausibilityContour:
    """Package the fused plausibility as a consonance-checked contour.

    The supremum witness is the family's center: it lies in every region
    ``C_alpha(x)``, so the alpha index is capped at 1 there and the generic
    plausibility reads exactly 1.  :class:`PlausibilityContour`
    evaluates the contour once at the witness and raises
    :class:`ConsonanceError` if it does not reach 1 (a family whose center is
    not in every region, typically a mis-specified association).  ``search``
    is accepted and ignored: the benchmark's generic_route workload still
    passes it.
    """
    def plaus(theta):
        return theta_specific_plaus(assoc, rs, x, theta, mc)

    return PlausibilityContour(plaus, assoc.family.center(x))


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


def _region_nonempty(focal) -> bool:
    """A region is non-empty unless it says so; a parameter point always is."""
    return not bool(getattr(focal, "is_empty", False))


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
    set.  The association's ``compat_witness`` is tried first; only then does
    the check fall back to scanning sampled support members, whose focal sets
    can all be empty for singular associations even when a witness exists.
    Starvation (acceptance below 1e-4) yields an inconclusive verdict rather
    than a false negative.
    """
    a = as_alpha(alpha)
    if assoc.compat_witness is not None:
        u = np.asarray(assoc.compat_witness(x), dtype=float)
        if rs.support_member(u[None], a, theta)[0] and _region_nonempty(assoc.focal(x, u)):
            return CompatibilityReport("compatible", float("nan"), 1, u)

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
