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
identity.  The fused plausibility is therefore ``P{K_n >= D}``, and the
support mass ``P{K_n <= delta(n, alpha)}``; both read the exact law of the
distribution-free ``K_n`` (:func:`ks_sf`, Simard & L'Ecuyer's algorithm).
Massart's DKW bound guarantees ``P{K_n <= delta} >= 1 - alpha``, so the
support-mass law holds with slack rather than equality: at n = 799 and
alpha = 0.05 the mass is 0.9516.

Sup-norm distances are exact at both one-sided limits of every jump point of
both step functions; callable candidates are assumed continuous.  Every
distance goes through one checked row-wise evaluator,
:func:`confbel.audit.sup_norms`, on two routes: one sample against a sequence
of candidates (:func:`distances`: the step candidates on the sample's own jump
points and the continuous candidates each in one stacked pass, a step
candidate on other points on the union of jumps), and a stack of sorted
samples against one continuous candidate (:func:`distance` on an array, hence
``contour_at_truth`` and the coverage audit).  :func:`member` takes one CDF or
a sequence of them, as other models take a scalar or 1-d theta.  The
empirical CDF is computed once per sample.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from ..audit import SamplingModel, ks_distances, sup_norms
from ..contours import ConfidenceFamily, IntervalUnion, PredicateRegion
from ..fusion import Association, RandomSetFamily, sampling_of, support_of
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
        values = []
        for i, r in enumerate(rows, 1):
            try:
                values.append(float(r[column]))
            except (TypeError, ValueError):  # TypeError: a short row reads None
                raise ValueError(f"row {i} of {path!r} has no number in column {column!r}, got {r[column]!r}") from None
        return cls(values)


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


def _with_pre(y_pre, ys) -> np.ndarray:
    """A step function's value before the first evaluation point and at each."""
    return np.concatenate(([y_pre], ys))


def distances(sample: EmpiricalSample, candidates) -> np.ndarray:
    """Exact sup-norm distance of one sample's empirical CDF from each step
    or continuous candidate.  Step candidates on the sample's own jump points
    go through one stacked pass, continuous candidates through another; a
    step candidate on other points is taken on the union of jumps."""
    candidates = list(candidates)
    ehat = sample.ecdf()
    e = _with_pre(ehat.y_pre, ehat.ys)
    step = np.array([isinstance(c, StepFn) for c in candidates], dtype=bool)
    on_jumps = np.array([s and np.array_equal(c.xs, ehat.xs) for c, s in zip(candidates, step)], dtype=bool)
    out = np.empty(len(candidates))
    if on_jumps.any():
        rows = [_with_pre(c.y_pre, c.ys) for c, on in zip(candidates, on_jumps) if on]
        out[on_jumps] = sup_norms(e, rows, continuous=False)
    if not step.all():
        out[~step] = sup_norms(e, [_on(c, ehat.xs) for c, s in zip(candidates, step) if not s])
    for i in np.flatnonzero(step & ~on_jumps):
        c = candidates[i]
        ts = np.union1d(ehat.xs, c.xs)
        out[i] = sup_norms(_with_pre(ehat.y_pre, ehat(ts)), _with_pre(c.y_pre, c(ts)), continuous=False)
    return out


def _index(n: int, d):
    """Contour index ``min(1, 2 exp(-2 n D^2))``; broadcasts over D."""
    return np.minimum(1.0, 2.0 * np.exp(-2.0 * n * d * d))


@functools.lru_cache(maxsize=4)
def ks_null_sample(n: int, mc: MCConfig) -> np.ndarray:
    """Sorted Monte Carlo sample of the distribution-free K_n law (cached).
    No package path reads it; it is the tests' independent oracle of
    :func:`ks_sf`."""
    gen = mc.generator()
    chunks = []
    remaining = mc.reps
    while remaining > 0:
        block = min(remaining, max(1, 2_000_000 // max(n, 1)))
        chunks.append(ks_distances(gen.random((block, n))))
        remaining -= block
    return np.sort(np.concatenate(chunks))


# The floats one chunk of the Birnbaum-Tingey sum may hold.
_CHUNK_FLOATS = 2_000_000


def ks_sf(n: int, d):
    """Exact upper tail ``P{K_n >= d}`` of the two-sided Kolmogorov-Smirnov
    statistic; broadcasts over d.

    The branches are Simard & L'Ecuyer's (J. Stat. Softw. 39(11), 2011),
    chosen as ``scipy.stats.kstwo.sf`` chooses them, in this order:

    ====================================  =================================
    d >= 1                                0
    n d <= 1                              1 (Ruben-Gambino: 1 minus a mass
                                          below n!/n^n < 1e-59)
    n d >= n - 1                          2 (1 - d)^n (Ruben-Gambino)
    d >= 0.5                              2 S+(n, d) (Birnbaum-Tingey)
    n d^2 >= 370                          0
    n d^2 >= 2.2                          2 S+(n, d)
    n <= 100 000 and n d^(3/2) <= 1.4     kstwo.sf (Durbin's matrix)
    otherwise                             1 - Pelz-Good
    ====================================  =================================

    for n > 140, in numpy and ``scipy.special``.  Every n <= 140 and the
    Durbin corner go to ``scipy.stats.kstwo.sf`` itself, imported only then;
    for n > 140 that corner lies where the dkw contour index caps at 1.
    """
    d = np.asarray(d, dtype=float)
    flat = d.ravel()
    if n <= 140:
        out = _kstwo_sf(n, flat)
    else:
        t = n * flat
        ndd = t * flat
        # the first branch whose condition holds, as in the table
        first = np.array([
            flat >= 1.0, t <= 1.0, t >= n - 1, flat >= 0.5, ndd >= 370.0, ndd >= 2.2,
            (n <= 100_000) & (n * np.abs(flat) ** 1.5 <= 1.4), np.ones(flat.shape, dtype=bool),
        ]).argmax(axis=0)
        laws = (
            np.zeros_like,
            np.ones_like,
            lambda x: 2.0 * (1.0 - x) ** n,
            lambda x: 2.0 * _smirnov_sf(n, x),
            np.zeros_like,
            lambda x: 2.0 * _smirnov_sf(n, x),
            lambda x: _kstwo_sf(n, x),
            lambda x: 1.0 - _pelz_good_cdf(n, x),
        )
        out = np.empty(flat.shape)
        for k in set(first.tolist()):
            at = first == k
            out[at] = laws[k](flat[at])
    out = out.clip(0.0, 1.0).reshape(d.shape)
    return out if out.ndim else float(out)


def _kstwo_sf(n: int, d: np.ndarray) -> np.ndarray:
    from scipy import stats  # 0.8 s of import, paid only by the branches that need it

    return stats.kstwo.sf(d, n)


@functools.lru_cache(maxsize=4)
def _birnbaum_tingey_terms(n: int) -> tuple[np.ndarray, ...]:
    """``j/n``, ``n - j``, ``j - 1`` and ``log C(n, j)`` for ``0 <= j < n``."""
    j = np.arange(float(n))
    out = (j / n, n - j, j - 1.0, special.gammaln(n + 1.0) - special.gammaln(j + 1.0) - special.gammaln(n - j + 1.0))
    for a in out:
        a.flags.writeable = False
    return out


def _smirnov_sf(n: int, d: np.ndarray) -> np.ndarray:
    """One-sided ``P{D_n+ >= d}`` for 0 < d < 1, by the Birnbaum-Tingey sum
    ``d sum_j C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1)`` over
    ``0 <= j < n (1 - d)`` (j = n never contributes for d > 0).  The terms
    are positive, so the sum is taken in log space from its largest term
    without cancellation."""
    j_n, n_j, j_1, log_c = _birnbaum_tingey_terms(n)
    out = np.empty(d.shape)
    rows = max(1, _CHUNK_FLOATS // n)
    for s in range(0, d.size, rows):
        dd = d[s : s + rows, None]
        head = 1.0 - dd - j_n
        live = head > 0.0
        log_t = np.log(head, out=np.full(head.shape, -np.inf), where=live)
        log_t *= n_j
        log_t += log_c + j_1 * np.log(dd + j_n)
        top = log_t.max(axis=1, keepdims=True)
        log_t -= top
        out[s : s + rows] = np.exp(np.log(dd[:, 0]) + top[:, 0] + np.log(np.exp(log_t).sum(axis=1)))
    return out


def _pelz_good_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pelz & Good's expansion of ``P{K_n <= d}`` as tables, with ``w = n d^2``.

    Its six theta series are ``s_a = sum_m weight[a, m] exp(-pi^2 exponent[m] / w)``:
    for a = 0..3 over odd ``m <= 15``, exponent ``m^2 / 8`` and weight
    ``(pi^2 m^2 / 4)^a``; for a = 4, 5 over ``k <= 8``, exponent ``k^2 / 2``
    and weight ``k^2``, ``k^4``.  scipy sums ``ceil(16 sqrt(w) / pi)`` terms
    of each; 8 cover every w below 2.2, and one fixed count keeps scalar and
    array calls bit for bit equal.  The order-i numerator is
    ``N_i = sum_ab coef[i, a, b] s_a w^b``, with Pelz & Good's constant
    ``c_i = (1, 6, 72, 6480)[i]`` divided into it."""
    m2 = (2.0 * np.arange(1, 9) - 1.0) ** 2
    k2 = np.arange(1, 9) ** 2.0
    weight = np.zeros((6, 16))
    weight[:4, :8] = (np.pi**2 / 4.0 * m2) ** np.arange(4.0)[:, None]
    weight[4:, 8:] = k2 ** np.arange(1.0, 3.0)[:, None]
    coef = np.zeros((4, 6, 5))
    for (i, a, b), c in {
        (0, 0, 0): 1.0,
        (1, 0, 1): -1.0, (1, 1, 0): 1.0,
        (2, 0, 2): 2.0, (2, 0, 3): 6.0, (2, 1, 1): -5.0, (2, 1, 2): 2.0, (2, 2, 0): 1.0, (2, 2, 1): -2.0,
        (2, 4, 2): -2.0 * np.pi**2,
        (3, 0, 3): -30.0, (3, 0, 4): -90.0, (3, 1, 2): 135.0, (3, 1, 3): -96.0, (3, 2, 1): -60.0,
        (3, 2, 2): 212.0, (3, 3, 0): 5.0, (3, 3, 1): -30.0, (3, 4, 3): 90.0 * np.pi**2, (3, 5, 2): -30.0 * np.pi**4,
    }.items():
        coef[i, a, b] = c
    coef /= np.array([1.0, 6.0, 72.0, 6480.0])[:, None, None]
    return np.concatenate((m2 / 8.0, k2 / 2.0)), weight, coef.reshape(4, 30)


_PG_EXPONENT, _PG_WEIGHT, _PG_COEF = _pelz_good_tables()


def _pelz_good_cdf(n: int, d: np.ndarray) -> np.ndarray:
    """Pelz & Good's ``P{K_n <= d}`` to order n^(-3/2) (J. R. Stat. Soc. B
    38(2), 1976), as scipy's ``_kolmogn_PelzGood``: with ``z = sqrt(n) d``, the
    order-i term is ``sqrt(2 pi) N_i / (z^(3i + 1) n^(i/2))``."""
    z = np.sqrt(n) * d
    w = z * z
    s = (np.exp(np.multiply.outer(-np.pi**2 / w, _PG_EXPONENT))[:, None, :] * _PG_WEIGHT).sum(axis=-1)
    terms = s[:, :, None] * w[:, None, None] ** np.arange(5.0)
    num = (terms.reshape(len(d), 1, 30) * _PG_COEF).sum(axis=-1)
    u = 1.0 / (w * z * np.sqrt(n))
    return np.sqrt(2.0 * np.pi) / z * (num * u[:, None] ** np.arange(4.0)).sum(axis=1)


def plaus_of_distance(n: int, d):
    """Fused plausibility ``P{K_n >= D}`` by the exact law, or exactly 1 where
    the index caps (D small enough that the candidate lies in every band).
    Broadcasts over D."""
    d = np.asarray(d, dtype=float)
    pl = np.ones(d.shape)
    live = _index(n, d) < 1.0
    pl[live] = ks_sf(n, d[live])
    return pl if pl.ndim else float(pl)


def dkw_contour(sample: EmpiricalSample, candidate) -> tuple[float, float]:
    """(alpha index, fused plausibility) of a candidate CDF, from one distance."""
    d = distance(sample, candidate)
    return float(_index(sample.n, d)), plaus_of_distance(sample.n, d)


def distance(x, candidate):
    """Sup-norm distance of the empirical CDF from ``candidate``: exact for one
    :class:`EmpiricalSample` and one step or continuous candidate (a float) or
    a sequence of them (an array); row-wise for one sorted sample or a stack
    of them (leading axis) and one continuous candidate."""
    if isinstance(x, EmpiricalSample):
        return float(distances(x, [candidate])[0]) if callable(candidate) else distances(x, candidate)
    xs = np.asarray(x, dtype=float)
    return sup_norms(np.arange(xs.shape[-1] + 1) / xs.shape[-1], _on(candidate, xs))


def member(x, alpha, candidate):
    """Band membership ``D <= delta(n, alpha)`` for every pairing
    :func:`distance` takes; broadcasts over alpha."""
    n = x.n if isinstance(x, EmpiricalSample) else np.shape(x)[-1]
    return distance(x, candidate) <= dkw_delta(n, alpha)


def family() -> ConfidenceFamily:
    """The DKW bands; the empirical CDF lies in every one of them."""
    return ConfidenceFamily(member=member, center=lambda x: x.ecdf())


def random_set(n: int) -> RandomSetFamily:
    def mass(alpha, theta, mc):
        return 1.0 - ks_sf(n, dkw_delta(n, alpha))

    return RandomSetFamily(
        support_member=support_of(association(n)),
        aux_sampler=lambda mc: mc.generator().random((mc.reps, n)),
        mass=mass,
    )


def association(n: int) -> Association:
    """``X_(i) = F^{-1}(U_(i))``: a candidate's quantile transform of sorted
    uniforms.  The mid-ranks ``(i + 1/2) / n`` lie in every support
    (``K_n = 1/(2n)``) and fit every sample, so they witness compatibility."""

    def forward(candidate, u):
        if not hasattr(candidate, "quantile"):
            raise TypeError("forward needs a candidate with a quantile transform")
        return np.sort(candidate.quantile(np.asarray(u, dtype=float)), axis=-1)

    def focal(x, u):
        # both data forms are sorted, so a fitting u is sorted too
        values = x.values if isinstance(x, EmpiricalSample) else np.asarray(x, dtype=float)
        u = np.ravel(np.asarray(u, dtype=float))
        if np.any(np.diff(u) < 0.0):
            return _EMPTY
        return PredicateRegion(lambda f: np.allclose(_on(f, values), u, atol=1e-9))

    return Association(
        forward=forward,
        family=family(),
        focal=focal,
        compat_witness=lambda x: (np.arange(n) + 0.5) / n,
    )


def sampling(n: int) -> SamplingModel:
    """Draws of sorted samples given a truth with a ``quantile`` callable."""
    return sampling_of(f"dkw(n={n})", association(n), random_set(n), n)


def synthetic_sample(n: int = 799, seed: int = 1404, scale: float = 0.22) -> EmpiricalSample:
    """Fixed seeded stand-in data: exponential-ish positive waiting times."""
    u = MCConfig(reps=n, seed=seed).uniforms()
    return EmpiricalSample(-scale * np.log1p(-u))
