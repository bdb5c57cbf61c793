"""Distribution-free CDF bands from the two-sided DKW inequality.

For an iid sample of size n with empirical CDF ``Fhat``, the band of radius

    delta(n, alpha) = sqrt(log(2 / alpha) / (2 n))

covers the true CDF with probability at least ``1 - alpha``, simultaneously in
``t``.  The induced contour of a candidate CDF ``F`` depends on the data only
through the sup-norm distance ``D = sup_t |Fhat(t) - F(t)|``:

    alpha index = min(1, 2 exp(-2 n D^2)),

and fusing through the quantile association ``X_i = F^{-1}(U_i)`` gives
supports free of ``F``,

    S_alpha = {u : K_n(u) <= delta(n, alpha)},

with ``K_n(u)`` the sup-norm distance of the empirical CDF of ``u`` from the
identity.  The fused plausibility is therefore ``P{K_n >= D}``, estimated once
per sample size from a shared Monte Carlo table of the distribution-free
``K_n`` law (the DKW bound guarantees ``P{K_n <= delta} >= 1 - alpha``, so the
support-mass law holds with slack rather than equality).

Sup-norm distances are evaluated exactly at both one-sided limits of every
jump point of both step functions; callable candidates are assumed
continuous.  Each function is evaluated once, on the sorted jump points
``ts``: both step functions are constant between consecutive points, so the
left limit at ``ts[k]`` is the value at ``ts[k-1]`` (and ``y_pre`` at
``k = 0``).  The empirical CDF is computed once per sample.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..audit import SamplingModel
from ..contours import PredicateRegion, IntervalUnion
from ..fusion import Association, RandomSetFamily
from ..mc import MCConfig
from ..reportio import read_csv

_EMPTY = IntervalUnion(())


@dataclass(frozen=True)
class StepFn:
    """Right-continuous step function with a constant value before the first jump."""

    xs: np.ndarray
    ys: np.ndarray
    y_pre: float = 0.0

    def __init__(self, xs, ys, y_pre: float = 0.0):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) == 0:
            raise ValueError("xs and ys must be matching non-empty 1-d arrays")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("jump points must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "y_pre", float(y_pre))

    def __call__(self, t):
        idx = np.searchsorted(self.xs, np.asarray(t, dtype=float), side="right") - 1
        vals = np.where(idx >= 0, self.ys[np.maximum(idx, 0)], self.y_pre)
        return vals if vals.ndim else float(vals)

    def left_limit(self, t):
        idx = np.searchsorted(self.xs, np.asarray(t, dtype=float), side="left") - 1
        vals = np.where(idx >= 0, self.ys[np.maximum(idx, 0)], self.y_pre)
        return vals if vals.ndim else float(vals)


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted sample with its empirical CDF."""

    values: np.ndarray

    def __init__(self, values):
        values = np.sort(np.asarray(values, dtype=float))
        if len(values) == 0:
            raise ValueError("empirical sample must be non-empty")
        if not np.all(np.isfinite(values)):
            raise ValueError("empirical sample must be finite")
        values.flags.writeable = False  # the cached ECDF is derived from it
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)

    @functools.cached_property
    def _ecdf(self) -> StepFn:
        xs, counts = np.unique(self.values, return_counts=True)
        ecdf = StepFn(xs, np.cumsum(counts) / self.n)
        ecdf.xs.flags.writeable = ecdf.ys.flags.writeable = False  # shared by every caller
        return ecdf

    def ecdf(self) -> StepFn:
        """The empirical CDF, computed once per sample."""
        return self._ecdf

    @classmethod
    def from_csv(cls, path, column: str = "value") -> "EmpiricalSample":
        _, rows = read_csv(path)
        if not rows:
            raise ValueError(f"no data rows in {path!r}")
        if column not in rows[0]:
            raise ValueError(f"column {column!r} not found in {path!r}")
        return cls([float(r[column]) for r in rows])


@dataclass(frozen=True)
class ParametricCDF:
    """Continuous candidate truth: a CDF, its quantile transform and a label."""

    cdf: Callable
    quantile: Callable
    name: str

    def __call__(self, t):
        return self.cdf(t)


def dkw_delta(n: int, alpha):
    """Band half-width ``sqrt(log(2/alpha) / (2n))``; broadcasts over alpha."""
    if n < 1:
        raise ValueError("sample size must be positive")
    a = np.asarray(alpha, dtype=float)
    if not np.all((0.0 < a) & (a < 2.0)):
        raise ValueError(f"alpha must lie in (0, 2) for a finite radius, got {alpha!r}")
    out = np.sqrt(np.log(2.0 / a) / (2.0 * n))
    return out if out.ndim else float(out)


def dkw_band(sample: EmpiricalSample, alpha: float) -> tuple[float, StepFn, StepFn]:
    """(delta, lower, upper): the clipped band edges as step functions."""
    delta = dkw_delta(sample.n, alpha)
    ehat = sample.ecdf()
    lower = StepFn(ehat.xs, np.clip(ehat.ys - delta, 0.0, 1.0), y_pre=0.0)
    upper = StepFn(ehat.xs, np.clip(ehat.ys + delta, 0.0, 1.0), y_pre=min(delta, 1.0))
    return delta, lower, upper


def _on(f, ts: np.ndarray) -> np.ndarray:
    """Candidate ``f`` evaluated on the whole array ``ts`` in one call; a
    constant-returning callable is broadcast to ``ts``'s shape."""
    return np.broadcast_to(np.asarray(f(ts), dtype=float), np.shape(ts))


def _left_limits(right: np.ndarray, y_pre: float) -> np.ndarray:
    """Left limits on the evaluation points of a step function that is
    constant between consecutive points: the right value one point earlier."""
    return np.concatenate(([y_pre], right[:-1]))


def sup_norm(sample: EmpiricalSample, candidate) -> float:
    """Exact ``sup_t |Fhat(t) - F(t)|`` for step or continuous candidates."""
    ehat = sample.ecdf()
    ts, e_right = ehat.xs, ehat.ys
    if isinstance(candidate, StepFn):
        if np.array_equal(candidate.xs, ts):
            f_right = candidate.ys
        else:
            ts = np.union1d(ts, candidate.xs)
            f_right, e_right = candidate(ts), ehat(ts)
        f_left = _left_limits(f_right, candidate.y_pre)
    else:
        f_right = f_left = _on(candidate, ts)  # callable candidates are continuous
    if np.any(np.diff(f_right) < -1e-12) or np.any(f_right < -1e-12) or np.any(f_right > 1.0 + 1e-12):
        raise ValueError("candidate is not a CDF on the evaluation points")
    e_left = _left_limits(e_right, ehat.y_pre)
    return float(max(np.max(np.abs(e_right - f_right)), np.max(np.abs(e_left - f_left))))


def distances(sample: EmpiricalSample, candidates) -> np.ndarray:
    """Sup-norm distance of one sample's empirical CDF from each candidate."""
    return np.asarray([sup_norm(sample, c) for c in candidates], dtype=float)


def _index(n: int, d):
    """Contour index ``min(1, 2 exp(-2 n D^2))``; broadcasts over D."""
    return np.minimum(1.0, 2.0 * np.exp(-2.0 * n * d * d))


def ks_distances(u: np.ndarray) -> np.ndarray:
    """Row-wise sup-norm distance of the empirical CDF of u from the identity."""
    u = np.sort(u, axis=1)
    n = u.shape[1]
    i = np.arange(1, n + 1) / n
    d_plus = np.max(i[None, :] - u, axis=1)
    d_minus = np.max(u - (np.arange(n) / n)[None, :], axis=1)
    return np.maximum(d_plus, d_minus)


@functools.lru_cache(maxsize=4)
def ks_null_sample(n: int, mc: MCConfig) -> np.ndarray:
    """Sorted Monte Carlo sample of the distribution-free K_n law (cached)."""
    gen = mc.generator()
    chunks = []
    remaining = mc.reps
    while remaining > 0:
        block = min(remaining, max(1, 2_000_000 // max(n, 1)))
        chunks.append(ks_distances(gen.random((block, n))))
        remaining -= block
    return np.sort(np.concatenate(chunks))


def plaus_of_distance(n: int, d, mc: MCConfig):
    """Fused plausibility ``P{K_n >= D}`` under the shared null table, or
    exactly 1 where the index caps (D small enough that every support meets
    the fiber).  Broadcasts over D."""
    d = np.asarray(d, dtype=float)
    table = ks_null_sample(n, mc)
    pl = np.where(_index(n, d) >= 1.0, 1.0, 1.0 - np.searchsorted(table, d, side="left") / len(table))
    return pl if pl.ndim else float(pl)


def dkw_contour(sample: EmpiricalSample, candidate, mc: MCConfig) -> tuple[float, float]:
    """(alpha index, fused plausibility) of a candidate CDF, from one distance."""
    d = sup_norm(sample, candidate)
    return float(_index(sample.n, d)), plaus_of_distance(sample.n, d, mc)


def distance(x, candidate):
    """Sup-norm distance of the empirical CDF from ``candidate``: exact for one
    :class:`EmpiricalSample` (step or continuous candidate), row-wise for a
    stack of sorted samples (continuous candidate)."""
    if isinstance(x, EmpiricalSample):
        return sup_norm(x, candidate)
    return ks_distances(candidate(np.asarray(x, dtype=float)))


def member(x, alpha, candidate):
    """Band membership ``D <= delta(n, alpha)`` for one sample or a stack of
    sorted samples (leading axis); broadcasts over alpha."""
    n = x.n if isinstance(x, EmpiricalSample) else np.shape(x)[-1]
    return distance(x, candidate) <= dkw_delta(n, alpha)


def support_member(u, alpha, theta=None):
    """Closed support membership: ``K_n(u) <= delta(n, alpha)`` (F-free)."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    return ks_distances(u) <= dkw_delta(u.shape[1], alpha)


def random_set(n: int) -> RandomSetFamily:
    def mass(alpha, theta, mc):
        table = ks_null_sample(n, mc)
        return float(np.searchsorted(table, dkw_delta(n, alpha), side="right") / len(table))

    return RandomSetFamily(
        support_member=support_member,
        aux_sampler=lambda mc: mc.generator().random((mc.reps, n)),
        mass=mass,
    )


def association(n: int) -> Association:
    def forward(candidate, u):
        if not hasattr(candidate, "quantile"):
            raise TypeError("forward needs a candidate with a quantile transform")
        return EmpiricalSample(candidate.quantile(np.ravel(np.asarray(u, dtype=float))))

    def fiber(sample, candidate):
        return _on(candidate, sample.values)[None, :]

    def focal(sample, u):
        u = np.ravel(np.asarray(u, dtype=float))
        order = np.argsort(sample.values, kind="stable")
        if np.any(np.diff(u[order]) < 0.0):
            return _EMPTY
        return PredicateRegion(lambda f: np.allclose(_on(f, sample.values), u, atol=1e-9))

    return Association(forward=forward, fiber=fiber, focal=focal)


def sampling(n: int) -> SamplingModel:
    """Draws of sorted samples given a truth with a ``quantile`` callable."""

    def sample(truth, mc: MCConfig):
        u = mc.generator().random((mc.reps, n))
        return np.sort(truth.quantile(u), axis=1)

    return SamplingModel(name=f"dkw(n={n})", sample=sample)


def synthetic_sample(n: int = 799, seed: int = 1404, scale: float = 0.22) -> EmpiricalSample:
    """Fixed seeded stand-in data: exponential-ish positive waiting times."""
    u = MCConfig(reps=n, seed=seed).uniforms()
    return EmpiricalSample(-scale * np.log1p(-u))
