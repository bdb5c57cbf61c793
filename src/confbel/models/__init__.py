"""Worked models, each packaged as a :class:`ModelBundle`.

A bundle collects everything the audits and the containment checks need about
one model: the confidence-region family, the random set behind the fused
contour, a data generator under a declared truth, and vectorized evaluators
for the fused contour and region membership over an interest-parameter grid.
``REGISTRY`` maps bundle names to factories.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .. import distributions as dist
from ..audit import SamplingModel
from ..contours import ConfidenceFamily, GridSpec
from ..fusion import RandomSetFamily
from ..mc import MCConfig
from . import behrens_fisher, binomial, dkw, fieller, normal_mean, uniform_loc

__all__ = [
    "ModelBundle",
    "REGISTRY",
    "behrens_fisher",
    "binomial",
    "dkw",
    "fieller",
    "normal_mean",
    "uniform_loc",
    "behrens_fisher_bundle",
    "binomial_bundle",
    "dkw_bundle",
    "normal_mean_bundle",
    "uniform_loc_bundle",
]


@dataclass(frozen=True)
class ModelBundle:
    """One model's family, fused construction, and audit plumbing.

    ``plaus_grid(x, phis)`` and ``member_grid(x, alpha, phis)`` evaluate the
    fused contour and the confidence-region membership of one dataset over
    the same interest-parameter candidates, which is how containment gets
    checked.  ``member_grid`` is the model's membership evaluator, the one
    behind ``family.member`` and ``family.member_batch``: it broadcasts over a
    stack of datasets (leading axis) and over a scalar or 1-d theta, so the
    scalar, batch and grid routes cannot disagree.  dkw's candidates are
    CDFs, so both its grid routes go through ``dkw.distances``, one sup-norm
    distance per candidate.  ``contour_at_truth(xs, theta)`` evaluates the
    fused contour at one truth for a stack of datasets and feeds the validity
    audits.  binomial, uniform_loc and normal_mean give both contour fields
    one object that broadcasts over data and parameter (behrens_fisher's
    phi-marginal and its slice at the truth are different functions).
    ``mc_boundary_se`` is the distance from the level within which a
    containment check would exempt a grid point whose contour is a Monte
    Carlo estimate.  Every shipped ``plaus_grid`` is exact, so it is 0 in
    every bundle; the field stays because ``perfbench/workloads.py`` reads it.
    """

    name: str
    family: ConfidenceFamily
    random_set: RandomSetFamily
    sampling: SamplingModel
    contour_at_truth: Callable
    plaus_grid: Callable
    member_grid: Callable
    default_grid: Callable
    data_replicates: Callable
    interest: Callable
    theta_grid_hint: tuple = ()
    mc_boundary_se: float = 0.0
    containment_candidates: Callable | None = None

    def candidates_for(self, x) -> Sequence:
        if self.containment_candidates is not None:
            return self.containment_candidates(x)
        return self.default_grid(x).points()


def binomial_bundle(n: int = 25) -> ModelBundle:
    contour = functools.partial(binomial.im_contour, n)
    return ModelBundle(
        name="binomial",
        family=binomial.family(n),
        random_set=binomial.random_set(n),
        sampling=binomial.sampling(n),
        contour_at_truth=contour,
        plaus_grid=contour,
        member_grid=functools.partial(binomial.cp_member, n),
        default_grid=lambda x: binomial.default_grid(),
        data_replicates=lambda theta, k, mc: [
            int(v) for v in dist.sample(dist.binomial(n, float(theta)), mc.with_reps(k))
        ],
        interest=lambda theta: theta,
        theta_grid_hint=tuple(np.round(np.linspace(0.1, 0.9, 9), 10)),
    )


def uniform_loc_bundle(n: int = 10) -> ModelBundle:
    return ModelBundle(
        name="uniform_loc",
        family=uniform_loc.family(),
        random_set=uniform_loc.random_set(n),
        sampling=uniform_loc.sampling(n),
        contour_at_truth=uniform_loc.alpha_index_exact,
        plaus_grid=uniform_loc.alpha_index_exact,
        member_grid=uniform_loc.member,
        default_grid=uniform_loc.default_grid,
        data_replicates=lambda theta, k, mc: list(theta + dist.sample_uniform_minmax(n, mc.with_reps(k))),
        interest=lambda theta: theta,
        theta_grid_hint=(0.0, 0.37),
    )


def normal_mean_bundle() -> ModelBundle:
    return ModelBundle(
        name="normal_mean",
        family=normal_mean.family(),
        random_set=normal_mean.random_set(),
        sampling=normal_mean.sampling(),
        contour_at_truth=normal_mean.pivot_contour,
        plaus_grid=normal_mean.pivot_contour,
        member_grid=normal_mean.member,
        default_grid=lambda x: GridSpec(float(x) - 8.0, float(x) + 8.0, 512),
        data_replicates=lambda theta, k, mc: list(theta + dist.sample(dist.normal(), mc.with_reps(k))),
        interest=lambda theta: theta,
        theta_grid_hint=(0.0, 1.3),
    )


def behrens_fisher_bundle(
    n1: int = 5,
    n2: int = 11,
    mc_internal: MCConfig = MCConfig(reps=100_000, seed=11),
) -> ModelBundle:
    def data_replicates(theta, k, mc):
        rows = behrens_fisher.sampling(n1, n2).sample(theta, mc.with_reps(k))
        return [
            behrens_fisher.BehrensFisherData(n1, float(r[0]), float(r[2]), n2, float(r[1]), float(r[3]))
            for r in rows
        ]

    return ModelBundle(
        name="behrens_fisher",
        family=behrens_fisher.family(n1, n2),
        random_set=behrens_fisher.random_set(n1, n2),
        sampling=behrens_fisher.sampling(n1, n2),
        contour_at_truth=behrens_fisher.contour_at_truth(n1, n2, mc_internal),
        plaus_grid=behrens_fisher.hs_contour,
        member_grid=functools.partial(behrens_fisher.member, n1, n2),
        default_grid=behrens_fisher.default_grid,
        data_replicates=data_replicates,
        interest=lambda theta: float(theta[0] - theta[1]) if len(theta) == 4 else float(theta[0]),
        theta_grid_hint=((0.0, 0.0, 4.0, 1.0),),
    )


def dkw_bundle(n: int = 799) -> ModelBundle:
    def containment_candidates(x):
        ehat = x.ecdf()
        delta = dkw.dkw_delta(x.n, 0.05)
        shifted = [
            dkw.StepFn(ehat.xs, np.clip(ehat.ys + c * delta, 0.0, 1.0), y_pre=float(np.clip(c * delta, 0.0, 1.0)))
            for c in (-1.5, -1.0, -0.6, -0.25, 0.0, 0.25, 0.6, 1.0, 1.5)
        ]
        scale = float(np.mean(x.values))
        smooth = dkw.ParametricCDF(
            cdf=lambda t: -np.expm1(-np.maximum(np.asarray(t, dtype=float), 0.0) / scale),
            quantile=lambda u: -scale * np.log1p(-u),
            name=f"Exp(mean={scale:.6g})",
        )
        return shifted + [smooth]

    def data_replicates(truth, k, mc):
        rows = dkw.sampling(n).sample(truth, mc.with_reps(k))
        return [dkw.EmpiricalSample(r) for r in rows]

    unit_exp = dkw.ParametricCDF(
        cdf=lambda t: -np.expm1(-np.maximum(np.asarray(t, dtype=float), 0.0)),
        quantile=lambda u: -np.log1p(-u),
        name="Exp(1)",
    )
    return ModelBundle(
        name="dkw",
        family=ConfidenceFamily(member=dkw.member, center=lambda x: x.ecdf()),
        random_set=dkw.random_set(n),
        sampling=dkw.sampling(n),
        contour_at_truth=lambda xs, truth: dkw.plaus_of_distance(n, dkw.distance(xs, truth)),
        plaus_grid=lambda x, candidates: dkw.plaus_of_distance(x.n, dkw.distances(x, candidates)),
        member_grid=lambda x, alpha, candidates: dkw.distances(x, candidates) <= dkw.dkw_delta(x.n, alpha),
        default_grid=lambda x: GridSpec(0.0, 1.0, 2),  # unused; candidates are CDFs
        data_replicates=data_replicates,
        interest=lambda truth: truth,
        theta_grid_hint=(unit_exp,),
        containment_candidates=containment_candidates,
    )


REGISTRY: dict[str, Callable[[], ModelBundle]] = {
    "binomial": binomial_bundle,
    "uniform_loc": uniform_loc_bundle,
    "normal_mean": normal_mean_bundle,
    "behrens_fisher": behrens_fisher_bundle,
    "dkw": dkw_bundle,
}
