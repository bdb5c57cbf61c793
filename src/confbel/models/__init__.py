"""Worked models, each packaged as a :class:`ModelBundle`.

A bundle collects everything the audits and the containment checks need about
one model: the confidence-region family, the random set behind the fused
contour, a data generator under a declared truth, and vectorized evaluators
for the fused contour and region membership over an interest-parameter grid.
``REGISTRY`` maps bundle names to factories.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..audit import SamplingModel
from ..contours import ConfidenceFamily, GridSpec
from ..fusion import RandomSetFamily
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
    checked.  ``contour_at_truth(xs, theta)`` evaluates the fused contour at
    one truth for a stack of datasets and feeds the validity audits.
    :func:`_bundle` derives what a factory would only repeat: ``member_grid``
    is ``family.member`` itself, which broadcasts over a stack of datasets,
    alpha and a scalar or 1-d theta (dkw: one CDF or a sequence), so the
    scalar, batch and grid routes cannot disagree; ``plaus_grid`` is
    ``contour_at_truth`` unless passed (behrens_fisher's phi-marginal and
    dkw's CDF candidates differ); ``interest`` is the identity unless passed.
    The derived fields stay fields because the benchmark's tracer wraps them.
    ``mc_boundary_se`` would exempt grid points whose contour is a Monte
    Carlo estimate; every shipped ``plaus_grid`` is exact, so it is 0, and it
    stays because ``perfbench/workloads.py`` reads it.
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


def _bundle(row: Callable = lambda r: r, **fields) -> ModelBundle:
    """The bundle of ``fields`` with its derived fields; ``data_replicates(theta,
    k, mc)`` are ``row`` of each row of one ``k``-rep draw of its ``sampling``."""
    sampling = fields["sampling"]
    fields.setdefault("plaus_grid", fields["contour_at_truth"])
    fields.setdefault("interest", lambda theta: theta)
    return ModelBundle(
        # the evaluator itself: a tracer that wrapped the family's member
        # wraps this field again under its own name (perfbench/tracer.py)
        member_grid=inspect.unwrap(fields["family"].member),
        data_replicates=lambda theta, k, mc: [row(r) for r in sampling.sample(theta, mc.with_reps(k))],
        **fields,
    )


def binomial_bundle(n: int = 25) -> ModelBundle:
    return _bundle(
        row=int,
        name="binomial",
        family=binomial.family(n),
        random_set=binomial.random_set(n),
        sampling=binomial.sampling(n),
        contour_at_truth=functools.partial(binomial.im_contour, n),
        default_grid=lambda x: binomial.default_grid(),
        theta_grid_hint=tuple(np.round(np.linspace(0.1, 0.9, 9), 10)),
    )


def uniform_loc_bundle(n: int = 10) -> ModelBundle:
    return _bundle(
        name="uniform_loc",
        family=uniform_loc.family(),
        random_set=uniform_loc.random_set(n),
        sampling=uniform_loc.sampling(n),
        contour_at_truth=uniform_loc.alpha_index_exact,
        default_grid=uniform_loc.default_grid,
        theta_grid_hint=(0.0, 0.37),
    )


def normal_mean_bundle() -> ModelBundle:
    return _bundle(
        name="normal_mean",
        family=normal_mean.family(),
        random_set=normal_mean.random_set(),
        sampling=normal_mean.sampling(),
        contour_at_truth=normal_mean.pivot_contour,
        default_grid=lambda x: GridSpec(float(x) - 8.0, float(x) + 8.0, 512),
        theta_grid_hint=(0.0, 1.3),
    )


def behrens_fisher_bundle(n1: int = 5, n2: int = 11) -> ModelBundle:
    return _bundle(
        row=lambda r: behrens_fisher.BehrensFisherData(n1, float(r[0]), float(r[2]), n2, float(r[1]), float(r[3])),
        name="behrens_fisher",
        family=behrens_fisher.family(n1, n2),
        random_set=behrens_fisher.random_set(n1, n2),
        sampling=behrens_fisher.sampling(n1, n2),
        contour_at_truth=behrens_fisher.contour_at_truth(n1, n2),
        plaus_grid=behrens_fisher.hs_contour,
        default_grid=behrens_fisher.default_grid,
        interest=lambda theta: float(theta[0] - theta[1]) if len(theta) == 4 else float(theta[0]),
        theta_grid_hint=((0.0, 0.0, 4.0, 1.0),),
    )


def dkw_bundle(n: int = 799) -> ModelBundle:
    shifts = np.array([-1.5, -1.0, -0.6, -0.25, 0.0, 0.25, 0.6, 1.0, 1.5])

    def containment_candidates(x):
        ehat = x.ecdf()
        # each row: the shifted value before the first jump, then at each jump
        e = np.concatenate(([ehat.y_pre], ehat.ys))
        rows = np.clip(e + (shifts * dkw.dkw_delta(x.n, 0.05))[:, None], 0.0, 1.0)
        shifted = [dkw.StepFn(ehat.xs, r[1:], y_pre=r[0]) for r in rows]
        scale = float(np.mean(x.values))
        smooth = dkw.ParametricCDF(
            cdf=lambda t: -np.expm1(-np.maximum(np.asarray(t, dtype=float), 0.0) / scale),
            quantile=lambda u: -scale * np.log1p(-u),
            name=f"Exp(mean={scale:.6g})",
        )
        return shifted + [smooth]

    unit_exp = dkw.ParametricCDF(
        cdf=lambda t: -np.expm1(-np.maximum(np.asarray(t, dtype=float), 0.0)),
        quantile=lambda u: -np.log1p(-u),
        name="Exp(1)",
    )
    return _bundle(
        row=dkw.EmpiricalSample,
        name="dkw",
        family=dkw.family(),
        random_set=dkw.random_set(n),
        sampling=dkw.sampling(n),
        contour_at_truth=lambda xs, truth: dkw.plaus_of_distance(n, dkw.distance(xs, truth)),
        plaus_grid=lambda x, candidates: dkw.plaus_of_distance(x.n, dkw.distances(x, candidates)),
        default_grid=lambda x: GridSpec(0.0, 1.0, 2),  # unused; candidates are CDFs
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
