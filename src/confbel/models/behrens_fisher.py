"""Difference of normal means with unequal, unknown variances.

Data reduce to the two-sample summary ``(m1, v1, m2, v2)`` with known group
sizes.  The conservative interval family is

    C_alpha = d -+ t*_{alpha, dof} f,   d = m1 - m2,
    f = sqrt(v1/n1 + v2/n2),            dof = min(n1, n2) - 1,

with contour ``2(1 - F_dof(|t|))`` at ``t = (d - phi)/f``.  Fusing through the
association on ``theta = (phi, s1, s2)``,

    d = phi + f(sigma) U1,   v_k = s_k U_{2k},   f(sigma) = sqrt(s1/n1 + s2/n2),

(U1 standard normal, U_{2k} scaled chi-square means; the scale is the true
variances' ``f(sigma)``, not the observed ``f``) turns the family into supports

    S_alpha(theta) = {u : T_lambda(u) <= t*_alpha},
    T_lambda = |u1| / sqrt(lambda u21 + (1 - lambda) u22),

where ``lambda = (s1/n1) / (s1/n1 + s2/n2)`` depends only on the variance part
of ``theta``.  The auxiliary point that maps theta to the data,
``u = ((d - phi) / f(sigma), v1/s1, v2/s2)``, has ``T_lambda = |d - phi| / f
= |t|`` for every theta with the same phi, so the theta-specific plausibility
is

    pl = 1 - P{T_lambda <= t*_{alpha*(phi)}} = P{T_lambda > |t|},

with ``alpha*(phi)`` the contour above.  Every fixed-lambda slice is at most
``2(1 - F_dof(|t|))``, with equality at the endpoint lambda that puts all the
weight on the smaller group, where ``T_lambda`` is exactly ``|t_dof|`` (Mickey
& Brown 1966; the proof is in ``docs/decisions.md``).  The marginal
plausibility for phi, the sup over lambda, is therefore :func:`hs_contour`
itself.  The conservatism of the interval family lives only in the slices
away from that endpoint.  :func:`slice_plaus` reads them exactly, from one
table of Craig's integral for the normal tail per (n1, n2, lambda)
(docs/decisions.md, "The two-sample slices are exact").
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .. import _special as special
from .. import distributions as dist
from ..audit import SamplingModel
from ..contours import ConfidenceFamily, GridSpec
from ..fusion import Association, RandomSetFamily, support_of
from ..mc import MCConfig


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
    return dist.quantile(p, df=dof)


def _summary(x) -> np.ndarray:
    """(m1, m2, v1, v2) of a :class:`BehrensFisherData`, or the rows as given."""
    if isinstance(x, BehrensFisherData):
        x = (x.m1, x.m2, x.v1, x.v2)
    return np.asarray(x, dtype=float)


def _diff_se(x, n1: int, n2: int):
    """``(d, f)`` of a :class:`BehrensFisherData` or of (m1, m2, v1, v2) rows."""
    x = _summary(x)
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
    """(reps, 3) table of (U1, U21, U22) draws, cached per configuration and
    read-only.  The uniform draw becomes the normals and then their squares
    in its own buffer, so the build holds one ``reps x (n1 + n2 - 1)`` array,
    not two (docs/decisions.md, "The pivot table is built in one buffer")."""
    z = mc.generator().random((mc.reps, 1 + (n1 - 1) + (n2 - 1)))
    special.ndtri(z, out=z)
    np.square(z[:, 1:], out=z[:, 1:])
    table = np.column_stack([z[:, 0], np.mean(z[:, 1:n1], axis=1), np.mean(z[:, n1:], axis=1)])
    table.flags.writeable = False
    return table


def lambda_of(theta, n1: int, n2: int) -> float:
    """Variance-split weight; theta's last two entries are the variances."""
    s1, s2 = float(theta[-2]), float(theta[-1])
    if s1 <= 0.0 or s2 <= 0.0:
        raise ValueError("variances must be positive")
    a, b = s1 / n1, s2 / n2
    return a / (a + b)


# Gauss-Legendre nodes per panel; table nodes, equally spaced in t / (1 + t)
_PANEL_NODES, _TABLE_NODES = 96, 2048


def _craig_rule(n1: int, n2: int, lam: float, t) -> np.ndarray:
    """Craig's ``S_lambda(t) = (2/pi) int_0^{pi/2} (1 + lam q/m)^(-m/2) (1 +
    (1 - lam) q/k)^(-k/2) dth``, ``q = t^2 / sin^2 th``, at t = 0 or t >= 4e-4
    (1-d): Gauss-Legendre on [0, c] and [c, pi/2], c = min(pi/4, 8t), 128 t at a time."""
    from numpy.polynomial.legendre import leggauss  # costs 1.8 MB, so not at module load

    nodes, weights = leggauss(_PANEL_NODES)
    m, k, t = n1 - 1, n2 - 1, np.asarray(t, dtype=float)
    out = []
    for tc in np.split(t[:, None, None], range(128, len(t), 128)):
        c = np.minimum(np.pi / 4.0, 8.0 * tc)
        half = np.concatenate([c, np.pi / 2.0 - c], axis=1) / 2.0
        th = np.concatenate([np.zeros_like(c), c], axis=1) + half * (nodes + 1.0)
        q = np.divide(tc, np.sin(th), out=np.zeros_like(th), where=th > 0.0) ** 2  # t = 0 leaves q = 0
        f = np.exp(-m / 2.0 * np.log1p(lam / m * q) - k / 2.0 * np.log1p((1.0 - lam) / k * q))
        out.append(2.0 / np.pi * np.sum((f @ weights) * half[..., 0], axis=1))
    return np.concatenate(out)


@functools.lru_cache(maxsize=8)
def _slice_table(n1: int, n2: int, lam: float) -> np.ndarray:
    """``S_lambda`` at the table nodes (0 at s = 1), read-only."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam!r}")
    s = np.arange(_TABLE_NODES - 1) / (_TABLE_NODES - 1)
    table = np.append(_craig_rule(n1, n2, lam, s / (1.0 - s)), 0.0)
    table.flags.writeable = False
    return table


def _slice(n1: int, n2: int, lam: float, t) -> np.ndarray:
    """``P{T_lambda > t}``, t >= 0 (inf, NaN read 0): 4-point Lagrange in the table."""
    table = _slice_table(n1, n2, float(lam))
    x = np.fmin(1.0 - 1.0 / (1.0 + np.asarray(t, dtype=float)), 1.0) * (_TABLE_NODES - 1)
    i = np.clip(x.astype(np.intp) - 1, 0, _TABLE_NODES - 4)
    y0, y1, y2, y3 = table[i], table[i + 1], table[i + 2], table[i + 3]
    a, b, c, d = x - i, x - i - 1.0, x - i - 2.0, x - i - 3.0
    return np.clip((a * b * c * y3 - b * c * d * y0 + 3.0 * a * d * (c * y1 - b * y2)) / 6.0, 0.0, 1.0)


def slice_plaus(n1: int, n2: int, x, lam: float, phi) -> np.ndarray:
    """Fixed-lambda slice ``P{T_lambda > |t|}`` at ``t = (d - phi) / f``;
    broadcasts over a stack of summary rows and over phi."""
    d, f = _diff_se(x, n1, n2)
    return _slice(n1, n2, lam, np.abs(d - phi) / f)


# --------------------------------------------------------------------------
# Association and random set on theta = (phi, s1, s2)


def association(n1: int, n2: int) -> Association:
    """``m1 - m2 = phi + f(sigma) u1``, ``v_k = s_k u_{2k}``, with
    ``f(sigma) = sqrt(s1/n1 + s2/n2)``; the data are (m1, m2, v1, v2) rows
    with ``m2 = 0``, and the family reads ``phi = theta[0]``."""

    def forward(theta, u):
        phi, s1, s2 = float(theta[0]), float(theta[-2]), float(theta[-1])
        u = np.asarray(u, dtype=float)
        d = phi + np.sqrt(s1 / n1 + s2 / n2) * u[..., 0]
        return np.stack([d, np.zeros_like(d), s1 * u[..., 1], s2 * u[..., 2]], axis=-1)

    def focal(x, u):  # the one parameter point that maps u to x
        m1, m2, v1, v2 = _summary(x)
        u = np.ravel(np.asarray(u, dtype=float))
        s1, s2 = v1 / u[1], v2 / u[2]
        return (m1 - m2 - np.sqrt(s1 / n1 + s2 / n2) * u[0], s1, s2)

    phi_family = family(n1, n2)
    return Association(
        forward=forward,
        family=ConfidenceFamily(
            member=lambda x, alpha, theta: phi_family.member(x, alpha, theta[0]),
            center=lambda x: (x.diff, x.v1, x.v2),
        ),
        focal=focal,
        compat_witness=lambda x: np.asarray([0.0, 1.0, 1.0]),
    )


def random_set(n1: int, n2: int) -> RandomSetFamily:
    dof = min(n1, n2) - 1

    def mass(alpha, theta, mc):  # P{T_lambda <= t*_alpha}; draws nothing
        return float(1.0 - _slice(n1, n2, lambda_of(theta, n1, n2), _t_quantile(dof, 1.0 - alpha / 2.0)))

    return RandomSetFamily(
        support_member=support_of(association(n1, n2)),
        aux_sampler=lambda mc: pivotal_draws(n1, n2, mc),
        mass=mass,
    )


def sampling(n1: int, n2: int) -> SamplingModel:
    """Full-summary generator under theta = (mu1, mu2, s1, s2); not drawn
    through :func:`association`, whose rows keep only ``m1 - m2``.

    Each summary is drawn from its exact law, not reduced from a sample: a
    group's mean is ``mu + sqrt(s/n) z`` and its variance ``s chi2_k / k``
    with ``k = n - 1``, independent of the mean, where ``chi2_k`` is twice a
    sum of ``k // 2`` unit exponentials ``-log1p(-U)``, plus one squared
    normal when ``k`` is odd (docs/decisions.md, "Samplers draw each summary
    from its exact law").  A row reads, in order, the two means' uniforms,
    the odd groups' squared-normal uniforms, then group 1's and group 2's
    exponentials."""
    k1, k2 = n1 - 1, n2 - 1
    normals, h1 = 2 + k1 % 2 + k2 % 2, k1 // 2
    draws = normals + h1 + k2 // 2

    def sample(theta, mc: MCConfig):
        mu1, mu2, s1, s2 = (float(v) for v in theta)
        if not (s1 > 0.0 and s2 > 0.0):
            raise ValueError(f"behrens_fisher requires variances s1, s2 > 0, got {s1!r}, {s2!r}")
        u = mc.generator().random((mc.reps, draws))
        z = special.ndtri(u[:, :normals])
        e = np.log1p(-u[:, normals:])  # minus the unit exponentials
        sq = z[:, 2:] * z[:, 2:]
        chi1 = np.sum(sq[:, : k1 % 2], axis=1) - 2.0 * np.sum(e[:, :h1], axis=1)
        chi2 = np.sum(sq[:, k1 % 2 :], axis=1) - 2.0 * np.sum(e[:, h1:], axis=1)
        m1 = mu1 + np.sqrt(s1 / n1) * z[:, 0]
        m2 = mu2 + np.sqrt(s2 / n2) * z[:, 1]
        return np.column_stack([m1, m2, s1 * chi1 / k1, s2 * chi2 / k2])

    return SamplingModel(name=f"behrens_fisher(n1={n1},n2={n2})", sample=sample, draws_per_rep=draws)


def contour_at_truth(n1: int, n2: int):
    """Vectorized pl of the true theta over sampled summaries: the slice at
    the truth's own lambda, exact, so uniform under the truth."""

    def fn(xs, theta):
        theta = np.asarray(theta, dtype=float)
        phi = theta[0] - theta[1] if len(theta) == 4 else theta[0]
        return slice_plaus(n1, n2, xs, lambda_of(theta, n1, n2), phi)

    return fn


def default_grid(data: BehrensFisherData, n_points: int = 201) -> GridSpec:
    """``n_points`` phis spanning 6 standard errors either side of ``d``."""
    return GridSpec(data.diff - 6.0 * data.se, data.diff + 6.0 * data.se, n_points)
