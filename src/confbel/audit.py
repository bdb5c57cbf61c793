"""Monte Carlo calibration audits.

Three questions get answered here, all by simulation under a declared truth:

* coverage: how often does ``C_alpha(X)`` capture the interest value;
* contour validity: is ``P{pl_X(theta) <= alpha} <= alpha`` at the truth;
* assertion validity: the same bound for ``pl_X(A)`` when the truth is in ``A``.

Estimates are flagged when they exceed the nominal level by more than
``flag_sigma`` binomial standard errors (default 3).  Each parameter point
gets its own substream, and every alpha level within a point shares the same
draws, so exceedance curves are monotone in alpha by construction and audit
results are reproducible bit for bit from the Monte Carlo configuration.

Replicates are drawn and reduced in row blocks of one stream
(:meth:`MCConfig.blocks`), keeping one hit or one plausibility per replicate,
so memory stays bounded by the block size whatever ``reps`` is.  The stream is
counter-based and every sampler transforms each replicate's own uniforms, so
the blocks are the whole draw bit for bit and every estimate is the float a
single draw would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .contours import Assertion, ConfidenceFamily, as_alpha
from .mc import MCConfig
from .reportio import write_rows

DEFAULT_ALPHA_GRID = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9)
DEFAULT_FLAG_SIGMA = 3.0


@dataclass(frozen=True)
class SamplingModel:
    """Data generator for audits: ``sample(theta, mc)`` returns mc.reps draws
    (``fusion.sampling_of`` derives it from an association).

    The return value is whatever the audited callables consume: a 1-d array
    for scalar data, an (reps, k) array for vector summaries.

    ``draws_per_rep`` is the contract that lets the audits draw in blocks:
    replicate ``i`` is a function of the stream's uniforms
    ``i * draws_per_rep`` up to ``(i + 1) * draws_per_rep`` alone, read in
    order from ``mc.generator()``.  Then a block at ``offset = start *
    draws_per_rep`` reproduces rows ``start, start + 1, ...`` of one draw.
    """

    name: str
    sample: Callable[..., np.ndarray]
    draws_per_rep: int


@dataclass(frozen=True)
class CoverageEstimate:
    theta: object
    alpha: float
    estimate: float
    se: float
    reps: int

    def as_row(self) -> dict:
        return {
            "theta": _label(self.theta),
            "alpha": self.alpha,
            "estimate": self.estimate,
            "se": self.se,
            "reps": self.reps,
        }


@dataclass(frozen=True)
class AuditRow:
    label: str
    alpha: float
    exceedance: float
    se: float
    flagged: bool
    reps: int

    def as_row(self) -> dict:
        return {
            "label": self.label,
            "alpha": self.alpha,
            "exceedance": self.exceedance,
            "se": self.se,
            "flagged": self.flagged,
            "reps": self.reps,
        }


@dataclass(frozen=True)
class AuditReport:
    """Rows of exceedance estimates plus the provenance needed to rerun them."""

    kind: str
    rows: tuple[AuditRow, ...]
    metadata: dict

    def flagged(self) -> tuple[AuditRow, ...]:
        return tuple(r for r in self.rows if r.flagged)

    @property
    def passed(self) -> bool:
        return not self.flagged()

    def worst_excess(self) -> float:
        """Largest (exceedance - alpha) over all rows; negative when clean."""
        return max((r.exceedance - r.alpha) for r in self.rows)

    def write(self, path, fmt: str = "csv") -> None:
        write_rows(path, [r.as_row() for r in self.rows], dict(self.metadata), fmt)


def _label(theta) -> str:
    if hasattr(theta, "name"):
        return theta.name
    if np.ndim(theta) == 0:
        return f"{float(theta):.10g}"
    return "(" + ", ".join(f"{float(t):.10g}" for t in np.ravel(np.asarray(theta, dtype=float))) + ")"


def coverage_probability(
    sampling: SamplingModel,
    family: ConfidenceFamily,
    theta,
    alpha,
    mc: MCConfig,
    interest: Callable | None = None,
) -> CoverageEstimate:
    """Estimate ``P{C_alpha(X) contains phi(theta)}`` under truth ``theta``."""
    a = as_alpha(alpha)
    phi = interest(theta) if interest is not None else theta
    hits = _per_replicate(sampling, theta, mc, lambda xs: np.asarray(family.member_batch(xs, a, phi), dtype=bool))
    est = float(np.mean(hits))
    se = float(np.sqrt(est * (1.0 - est) / len(hits)))
    return CoverageEstimate(theta, a, est, se, len(hits))


def _per_replicate(sampling: SamplingModel, theta, mc: MCConfig, reduce: Callable) -> np.ndarray:
    """``reduce(xs)``, one value per replicate, over every replicate of ``mc``
    under ``theta``, drawn and reduced one row block at a time."""
    return np.concatenate(
        [reduce(sampling.sample(theta, block)) for block in mc.blocks(sampling.draws_per_rep)]
    )


def _exceedance_rows(
    label: str,
    pls: np.ndarray,
    alpha_grid: Sequence[float],
    flag_sigma: float,
) -> list[AuditRow]:
    reps = len(pls)
    rows = []
    for alpha in alpha_grid:
        a = as_alpha(alpha)
        exceed = float(np.mean(pls <= a))
        se = float(np.sqrt(a * (1.0 - a) / reps))
        rows.append(AuditRow(label, a, exceed, se, exceed > a + flag_sigma * se, reps))
    return rows


def _validity_audit(
    kind: str,
    sampling: SamplingModel,
    plaus_at_truth: Callable[..., np.ndarray],
    theta_grid: Sequence,
    alpha_grid: Sequence[float],
    mc: MCConfig,
    flag_sigma: float,
) -> AuditReport:
    """Exceedance rows of ``plaus_at_truth(xs, theta)`` at every truth, each
    truth on its own substream, with the provenance metadata of ``kind``."""

    def plaus(xs, theta):
        pls = np.asarray(plaus_at_truth(xs, theta), dtype=float)
        if pls.shape != (len(xs),):
            raise ValueError(f"{kind} audit: the plausibility callable must return one value per draw")
        return pls

    rows: list[AuditRow] = []
    for i, theta in enumerate(theta_grid):
        pls = _per_replicate(sampling, theta, mc.substream(i), lambda xs: plaus(xs, theta))
        rows.extend(_exceedance_rows(_label(theta), pls, alpha_grid, flag_sigma))
    meta = {
        "report": kind,
        "model": sampling.name,
        "reps": mc.reps,
        "seed": mc.seed,
        "stream_id": mc.stream_id,
        "flag_sigma": flag_sigma,
        "alpha_grid": ",".join(f"{as_alpha(a):g}" for a in alpha_grid),
    }
    return AuditReport(kind, tuple(rows), meta)


def contour_validity_audit(
    sampling: SamplingModel,
    contour_at_truth: Callable[..., np.ndarray],
    theta_grid: Sequence,
    alpha_grid: Sequence[float] = DEFAULT_ALPHA_GRID,
    mc: MCConfig = MCConfig(reps=10_000),
    flag_sigma: float = DEFAULT_FLAG_SIGMA,
) -> AuditReport:
    """Audit ``P{pl_X(theta) <= alpha} <= alpha`` over a grid of truths.

    ``contour_at_truth(xs, theta)`` must evaluate the plausibility of the
    truth for every sampled data value at once (array in, array out).
    """
    return _validity_audit("contour-validity", sampling, contour_at_truth, theta_grid, alpha_grid, mc, flag_sigma)


def assertion_validity_audit(
    sampling: SamplingModel,
    assertion_plaus: Callable[..., np.ndarray],
    assertion: Assertion,
    theta_grid: Sequence,
    alpha_grid: Sequence[float] = DEFAULT_ALPHA_GRID,
    mc: MCConfig = MCConfig(reps=10_000),
    flag_sigma: float = DEFAULT_FLAG_SIGMA,
) -> AuditReport:
    """Audit ``P{pl_X(A) <= alpha} <= alpha`` for truths inside ``A``.

    The bound only holds for true parameters belonging to the assertion, so
    every grid point is checked for membership first.
    """
    for theta in theta_grid:
        if not assertion.contains(theta):
            raise ValueError(f"truth {theta!r} lies outside the audited assertion")
    return _validity_audit("assertion-validity", sampling, assertion_plaus, theta_grid, alpha_grid, mc, flag_sigma)


def sup_norms(e: np.ndarray, f, continuous: bool = True) -> np.ndarray:
    """Row-wise exact ``sup_t |E(t) - F(t)|`` on sorted points, after checking
    that each row of ``f`` is a CDF's values there: nondecreasing and in
    [0, 1], within 1e-12, NaN failing.  ``e`` holds the empirical CDF's value
    before the first point and at each.  Continuous rows hold the candidate's
    values at the points; step rows the same columns as ``e`` (both are
    constant between points, so every column's ``|e - f|`` covers both
    one-sided limits).  Every dkw distance and :func:`ks_distances` use it."""
    f = np.asarray(f, dtype=float)
    # rows exactly in order are in range once their first and last values
    # are; the 1e-12 slack pass, run only on a descent, checks every value
    ordered = np.all(f[..., 1:] >= f[..., :-1])
    kept = f[..., [0, -1]] if ordered else f
    if not (
        (ordered or np.all(np.diff(f, axis=-1) >= -1e-12)) and np.all((kept >= -1e-12) & (kept <= 1.0 + 1e-12))
    ):
        raise ValueError("candidate is not a CDF on the evaluation points")
    if continuous:
        return np.maximum((e[1:] - f).max(axis=-1), (f - e[:-1]).max(axis=-1))
    return np.abs(e - f).max(axis=-1)


def ks_distances(u: np.ndarray) -> np.ndarray:
    """Row-wise sup-norm distance of the empirical CDF of u from the identity,
    by :func:`sup_norms` (values off [0, 1] or NaN raise ``ValueError``);
    rows out of order are sorted first."""
    if np.any(u[..., 1:] < u[..., :-1]):
        u = np.sort(u, axis=-1)
    n = u.shape[-1]
    return sup_norms(np.arange(n + 1) / n, u)


def ks_uniform(samples) -> float:
    """Kolmogorov-Smirnov distance between ``samples`` and Uniform(0, 1).

    Inputs must lie in [0, 1] (:func:`sup_norms` raises ``ValueError``
    otherwise); the statistic is the exact sup-norm distance between the
    empirical CDF and the identity.
    """
    u = np.asarray(samples, dtype=float)
    if len(u) == 0:
        raise ValueError("ks_uniform needs at least one sample")
    return float(ks_distances(u))
