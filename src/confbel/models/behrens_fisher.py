"""Difference of normal means with unequal, unknown variances.

Data reduce to the two-sample summary ``(m1, v1, m2, v2)`` with known group
sizes.  The conservative interval family is

    C_alpha = d -+ t*_{alpha, dof} f,   d = m1 - m2,
    f = sqrt(v1/n1 + v2/n2),            dof = min(n1, n2) - 1,

with contour ``2(1 - F_dof(|t|))`` at ``t = (d - phi)/f``.  Fusing through the
association ``d = phi + f(sigma) U1``, ``v_k = sigma_k^2 U_{2k}`` (U1 standard
normal, U_{2k} scaled chi-square means) turns the family into supports

    S_alpha(theta) = {u : T_lambda(u) <= t*_alpha},
    T_lambda = |u1| / sqrt(lambda u21 + (1 - lambda) u22),

where ``lambda = (s1/n1) / (s1/n1 + s2/n2)`` depends only on the variance part
of ``theta``.  The observed statistic ``T_lambda`` at the fiber point equals
``|t|`` for every theta in a phi-fiber, so the theta-specific plausibility is

    pl = 1 - P{T_lambda <= t*_{alpha*(phi)}} = P{T_lambda > |t|},

with ``alpha*(phi)`` the contour above.  Every fixed-lambda slice is at most
``2(1 - F_dof(|t|))``, with equality at the endpoint lambda that puts all the
weight on the smaller group, where ``T_lambda`` is exactly ``|t_dof|`` (Mickey
& Brown 1966; the proof is in ``docs/decisions.md``).  The marginal
plausibility for phi, the sup over lambda, is therefore :func:`hs_contour`
itself.  The conservatism of the interval family lives only in the slices
away from that endpoint.  :func:`slice_plaus` estimates them by Monte Carlo
from one shared pivotal draw table per configuration (common random numbers
across alpha, lambda, and phi).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import special

from .. import distributions as dist
from ..audit import SamplingModel
from ..contours import ConfidenceFamily, GridRegion, GridSpec, Interval
from ..fusion import Association, RandomSetFamily
from ..mc import MCConfig
from ..reportio import read_csv


@dataclass(frozen=True)
class BehrensFisherData:
    """Two-group summary: sizes, means, and sample variances (ddof = 1)."""

    n1: int
    m1: float
    v1: float
    n2: int
    m2: float
    v2: float

    def __post_init__(self) -> None:
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("both groups need at least 2 observations")
        if self.v1 <= 0.0 or self.v2 <= 0.0:
            raise ValueError("sample variances must be positive")

    @property
    def diff(self) -> float:
        return self.m1 - self.m2

    @property
    def se(self) -> float:
        return float(np.sqrt(self.v1 / self.n1 + self.v2 / self.n2))

    @property
    def dof(self) -> int:
        return min(self.n1, self.n2) - 1

    @classmethod
    def from_csv(cls, path, group_column: str = "group", value_column: str = "value") -> "BehrensFisherData":
        """Read either raw rows (group, value) or per-group summaries.

        A header containing ``n``, ``mean`` and ``variance`` columns is taken
        as the summary form, one row per group; anything else is treated as
        one observation per row.
        """
        _, rows = read_csv(path)
        if not rows:
            raise ValueError(f"no data rows in {path!r}")
        if {"n", "mean", "variance"} <= set(rows[0]):
            if len(rows) != 2:
                raise ValueError(f"summary form needs exactly 2 rows, found {len(rows)}")
            a, b = rows
            return cls(
                int(a["n"]), float(a["mean"]), float(a["variance"]),
                int(b["n"]), float(b["mean"]), float(b["variance"]),
            )
        groups: dict[str, list[float]] = {}
        for r in rows:
            groups.setdefault(r[group_column], []).append(float(r[value_column]))
        if len(groups) != 2:
            raise ValueError(f"expected exactly 2 groups, found {sorted(groups)}")
        (g1, a), (g2, b) = sorted(groups.items())
        a, b = np.asarray(a), np.asarray(b)
        return cls(len(a), float(a.mean()), float(a.var(ddof=1)), len(b), float(b.mean()), float(b.var(ddof=1)))


# Small two-route commute-time summary with severely unequal variances; the
# stock demonstration data for this model.
DEFAULT_DATA = BehrensFisherData(n1=5, m1=7.580, v1=2.237, n2=11, m2=6.136, v2=0.073)


def hs_contour(data: BehrensFisherData, phi):
    """Interval-family contour ``2(1 - F_dof(|d - phi| / f))``; also the fused
    marginal contour, the sup of the fixed-lambda slices."""
    t = np.abs((data.diff - np.asarray(phi, dtype=float)) / data.se)
    out = 2.0 * (1.0 - special.stdtr(data.dof, t))
    return out if out.ndim else float(out)


def _t_quantile(dof: int, p):
    p = np.clip(np.asarray(p, dtype=float), 1e-12, 1.0 - 1e-12)
    out = dist.quantile(dist.student_t(dof), p)
    return out


def hs_interval(data: BehrensFisherData, alpha: float) -> Interval:
    tstar = float(_t_quantile(data.dof, 1.0 - alpha / 2.0))
    return Interval(data.diff - tstar * data.se, data.diff + tstar * data.se)


def _diff_se(x, n1: int, n2: int):
    """``(d, f)`` of a :class:`BehrensFisherData` or of (m1, m2, v1, v2) rows."""
    if isinstance(x, BehrensFisherData):
        x = (x.m1, x.m2, x.v1, x.v2)
    x = np.asarray(x, dtype=float)
    return x[..., 0] - x[..., 1], np.sqrt(x[..., 2] / n1 + x[..., 3] / n2)


def member(n1: int, n2: int, x, alpha, phi):
    """``|d - phi| <= t*_{alpha, dof} f``; broadcasts over a stack of summary
    rows, alpha and phi."""
    d, f = _diff_se(x, n1, n2)
    return np.abs(d - phi) <= _t_quantile(min(n1, n2) - 1, 1.0 - alpha / 2.0) * f


def family(n1: int, n2: int) -> ConfidenceFamily:
    return ConfidenceFamily(member=functools.partial(member, n1, n2), center=lambda x: x.diff)


# --------------------------------------------------------------------------
# Pivotal machinery


@functools.lru_cache(maxsize=8)
def pivotal_draws(n1: int, n2: int, mc: MCConfig) -> np.ndarray:
    """(reps, 3) table of (U1, U21, U22) draws, cached per configuration."""
    z = special.ndtri(mc.generator().random((mc.reps, 1 + (n1 - 1) + (n2 - 1))))
    u1 = z[:, 0]
    u21 = np.mean(z[:, 1:n1] ** 2, axis=1)
    u22 = np.mean(z[:, n1:] ** 2, axis=1)
    return np.column_stack([u1, u21, u22])


def t_lambda(u: np.ndarray, lam: float) -> np.ndarray:
    """``|u1| / sqrt(lam u21 + (1 - lam) u22)`` row-wise."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    denom = lam * u[:, 1] + (1.0 - lam) * u[:, 2]
    return np.abs(u[:, 0]) / np.sqrt(denom)


def lambda_of(theta, n1: int, n2: int) -> float:
    """Variance-split weight; theta's last two entries are the variances."""
    s1, s2 = float(theta[-2]), float(theta[-1])
    if s1 <= 0.0 or s2 <= 0.0:
        raise ValueError("variances must be positive")
    a, b = s1 / n1, s2 / n2
    return a / (a + b)


def _upper_mass(draws: np.ndarray, lam: float, tstar: np.ndarray) -> np.ndarray:
    """``1 - P{T_lambda <= t*}`` under the empirical law of the pivot table."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam!r}")
    t_sorted = np.sort(t_lambda(draws, lam))
    return 1.0 - np.searchsorted(t_sorted, tstar, side="right") / len(t_sorted)


def slice_plaus(n1: int, n2: int, x, lam: float, phi, mc: MCConfig) -> np.ndarray:
    """Fixed-lambda slice ``P{T_lambda > |t|}`` at ``t = (d - phi) / f``;
    broadcasts over a stack of summary rows and over phi."""
    d, f = _diff_se(x, n1, n2)
    return _upper_mass(pivotal_draws(n1, n2, mc), lam, np.abs(d - phi) / f)


def bf_lambda_plaus(data: BehrensFisherData, phi, lam: float, mc: MCConfig) -> np.ndarray:
    """Theta-specific fused plausibility along a fixed-lambda fiber slice."""
    out = slice_plaus(data.n1, data.n2, data, lam, np.atleast_1d(np.asarray(phi, dtype=float)), mc)
    return out if np.ndim(phi) else float(out[0])


# --------------------------------------------------------------------------
# Association and random set on the reduced summary (d, v1, v2)


def _reduce(x) -> tuple[float, float, float]:
    if isinstance(x, BehrensFisherData):
        return x.diff, x.v1, x.v2
    d, v1, v2 = (float(v) for v in x)
    return d, v1, v2


def association(n1: int, n2: int) -> Association:
    def forward(theta, u):
        phi, s1, s2 = float(theta[0]), float(theta[-2]), float(theta[-1])
        u = np.ravel(np.asarray(u, dtype=float))
        f = np.sqrt(s1 * u[1] / n1 + s2 * u[2] / n2)
        return (phi + f * u[0], s1 * u[1], s2 * u[2])

    def fiber(x, theta):
        d, v1, v2 = _reduce(x)
        phi, s1, s2 = float(theta[0]), float(theta[-2]), float(theta[-1])
        f = np.sqrt(v1 / n1 + v2 / n2)
        return np.asarray([[(d - phi) / f, v1 / s1, v2 / s2]])

    def focal(x, u):
        d, v1, v2 = _reduce(x)
        u = np.ravel(np.asarray(u, dtype=float))
        s1, s2 = v1 / u[1], v2 / u[2]
        # forward's scale is sqrt(s1 u21/n1 + s2 u22/n2) == the observed se
        phi = d - np.sqrt(v1 / n1 + v2 / n2) * u[0]
        return GridRegion(np.asarray([[phi, s1, s2]]), [True])

    return Association(
        forward=forward,
        fiber=fiber,
        focal=focal,
        compat_witness=lambda x: np.asarray([0.0, 1.0, 1.0]),
    )


def random_set(n1: int, n2: int) -> RandomSetFamily:
    dof = min(n1, n2) - 1

    def support_member(u, alpha, theta):
        lam = lambda_of(theta, n1, n2)
        return t_lambda(u, lam) <= _t_quantile(dof, 1.0 - alpha / 2.0)

    def mass(alpha, theta, mc):
        lam = lambda_of(theta, n1, n2)
        t = t_lambda(pivotal_draws(n1, n2, mc), lam)
        return float(np.mean(t <= float(_t_quantile(dof, 1.0 - alpha / 2.0))))

    return RandomSetFamily(
        support_member=support_member,
        aux_sampler=lambda mc: pivotal_draws(n1, n2, mc),
        mass=mass,
    )


def sampling(n1: int, n2: int) -> SamplingModel:
    """Full-summary generator under theta = (mu1, mu2, s1, s2)."""

    def sample(theta, mc: MCConfig):
        mu1, mu2, s1, s2 = (float(v) for v in theta)
        z = special.ndtri(mc.generator().random((mc.reps, n1 + n2)))
        z1, z2 = z[:, :n1], z[:, n1:]
        m1 = mu1 + np.sqrt(s1) * z1.mean(axis=1)
        m2 = mu2 + np.sqrt(s2) * z2.mean(axis=1)
        v1 = s1 * z1.var(axis=1, ddof=1)
        v2 = s2 * z2.var(axis=1, ddof=1)
        return np.column_stack([m1, m2, v1, v2])

    return SamplingModel(name=f"behrens_fisher(n1={n1},n2={n2})", sample=sample)


def contour_at_truth(n1: int, n2: int, mc_internal: MCConfig):
    """Vectorized pl of the true theta over sampled summaries: the slice at
    the truth's own lambda."""

    def fn(xs, theta):
        theta = np.asarray(theta, dtype=float)
        phi = theta[0] - theta[1] if len(theta) == 4 else theta[0]
        return slice_plaus(n1, n2, xs, lambda_of(theta, n1, n2), phi, mc_internal)

    return fn


def default_grid(data: BehrensFisherData, n_points: int = 201, half_width_se: float = 6.0) -> GridSpec:
    return GridSpec(data.diff - half_width_se * data.se, data.diff + half_width_se * data.se, n_points)
