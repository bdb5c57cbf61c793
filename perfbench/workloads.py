"""The in-process workloads: inputs generated from the seed, units, and the
reference check each unit must pass.

A workload builds its models in ``setup`` (plus one untimed warm-up unit per
model, so cached Monte Carlo tables are built there) and then hands out
rounds of units.  A round covers every model in equal numbers, and the timed
phase always runs whole rounds, so the work mix is the same in every run.  A
traced run does ``trace_rounds`` rounds, a fixed amount of work.

A unit is ``(key, weight, fn)``: ``fn()`` returns a list of failure details
(empty when every reference check passes) and counts as ``weight`` units.  An
exception fails all ``weight`` units.  Failures whose key and exception type
are listed in ``KNOWN_DEFECTS`` are counted as failed but do not make the run
incorrect: they are defects of the program that the benchmark keeps visible.
"""

from __future__ import annotations

import numpy as np

from confbel.mc import MCConfig

# (unit key, exception type name): open defects of the program.
KNOWN_DEFECTS = {
    ("coverage:dkw", "AttributeError"): "dkw has no coverage path (its family needs EmpiricalSample data)",
    ("audit:dkw", "TypeError"): "contour_validity_audit cannot label a CDF truth",
}

CLOSED_FORM_TOL = 1e-5
# The golden-section refinement stops at a relative tolerance of 1e-6 in
# theta, and the uniform-location contour can be steep near its mode.
WITNESS_TOL = 1e-3
CONTAINMENT_ALPHAS = (0.05, 0.1, 0.2)
# Audits run thousands of rows per run; at the package's default 3 sigma a
# calibrated contour would be flagged by chance about once per run.
AUDIT_FLAG_SIGMA = 5.0


def warm_up(unit) -> None:
    """Run a unit untimed and ignore its outcome; the timed phase counts it."""
    try:
        unit()
    except Exception:
        pass


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# --------------------------------------------------------------------------
# replicate_sweep: many datasets, one contour each


class ReplicateSweep:
    """One dataset per unit from ``bundle.data_replicates`` at the first hint
    truth: candidates, ``plaus_grid``, ``member_grid`` at three levels, and
    criterion 7's containment rule."""

    trace_rounds = 10

    def setup(self, seed: int) -> None:
        from confbel.models import REGISTRY

        self.seed = seed
        self.bundles = [factory() for factory in REGISTRY.values()]
        for bundle in self.bundles:
            warm_up(self._unit(bundle, self._dataset(bundle, 0)))

    def wrap(self, tracer) -> None:
        from tracer import wrap_bundle

        self.bundles = [wrap_bundle(tracer, b) for b in self.bundles]

    def _dataset(self, bundle, stream: int):
        truth = bundle.theta_grid_hint[0]
        return bundle.data_replicates(truth, 1, MCConfig(reps=1, seed=self.seed, stream_id=stream))[0]

    def _unit(self, bundle, x):
        def run():
            cands = bundle.candidates_for(x)
            pl = np.asarray(bundle.plaus_grid(x, cands), dtype=float)
            if pl.shape != (len(cands),) or not np.all((pl >= 0.0) & (pl <= 1.0)):
                return [f"{bundle.name}: plaus_grid returned values outside [0, 1] or the wrong shape"]
            bad = 0
            for alpha in CONTAINMENT_ALPHAS:
                member = np.asarray(bundle.member_grid(x, alpha, cands), dtype=bool)
                bad += int(np.sum((pl > alpha + bundle.mc_boundary_se) & ~member))
            return [f"{bundle.name}: {bad} containment violations"] if bad else []

        return run

    def round(self, r: int):
        for bundle in self.bundles:
            x = self._dataset(bundle, 1 + r)
            yield f"replicate:{bundle.name}", 1, self._unit(bundle, x)


# --------------------------------------------------------------------------
# generic_route: the generic constructions, one parameter point at a time

POINTS_PER_CASE = 8


class _GenericModel:
    """The closed forms and grids the generic route is checked against."""

    def __init__(self, name, family, association, random_set, contour, fused, domain):
        self.name = name
        self.family = family
        self.association = association
        self.random_set = random_set
        self.contour = contour  # closed form of the interval family's contour
        self.fused = fused  # closed form of the fused plausibility
        self.domain = domain


def _generic_models():
    from confbel.contours import Interval
    from confbel.models import binomial, normal_mean, uniform_loc

    n_binom, n_unif = 25, 10
    line = Interval(-np.inf, np.inf)
    return [
        _GenericModel(
            "normal_mean", normal_mean.family(), normal_mean.association(), normal_mean.random_set(),
            normal_mean.pivot_contour, normal_mean.pivot_contour, line,
        ),
        _GenericModel(
            "binomial", binomial.family(n_binom), binomial.association(n_binom), binomial.random_set(n_binom),
            lambda x, t: binomial.cp_contour(n_binom, x, t),
            lambda x, t: binomial.im_contour(n_binom, x, t),
            Interval(0.0, 1.0),
        ),
        _GenericModel(
            "uniform_loc", uniform_loc.family(), uniform_loc.association(), uniform_loc.random_set(n_unif),
            uniform_loc.alpha_index_exact, uniform_loc.alpha_index_exact, line,
        ),
    ]


def _generic_inputs(model: str, rng: np.random.Generator):
    """(x, witness, theta points, search grid bounds, region grid bounds)."""
    if model == "normal_mean":
        # Truth 3: golden-section refinement stops at a tolerance relative to
        # the witness, so an observation near 0 would cost many more
        # iterations than the rest and make rounds uneven.
        x = float(rng.normal(3.0))
        thetas = x + rng.uniform(-3.5, 3.5, POINTS_PER_CASE)
        return x, x, thetas, (x - 3.0, x + 3.0, 21), (x - 5.0, x + 5.0, 41)
    if model == "binomial":
        # Within 0.25 of x/n both tail CDFs stay apart in float arithmetic, so
        # the observation keeps a non-empty fiber at every searched theta.
        x = int(rng.binomial(25, rng.uniform(0.05, 0.95)))
        lo, hi = max(0.001, x / 25 - 0.25), min(0.999, x / 25 + 0.25)
        thetas = rng.uniform(lo, hi, POINTS_PER_CASE)
        witness = float(np.clip(x / 25, 1e-9, 1.0 - 1e-9))
        return x, witness, thetas, (lo, hi, 41), (0.001, 0.999, 41)
    u = rng.random(10)
    x = (float(u.min()), float(u.max()))
    lo, hi = x[1] - 1.0, x[0]
    thetas = lo + (hi - lo) * rng.uniform(0.001, 0.999, POINTS_PER_CASE)
    pad = 0.02 * (hi - lo)
    witness = 0.5 * (x[0] + x[1] - 1.0)
    return x, witness, thetas, (lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 21), (lo - pad, hi + pad, 41)


class GenericRoute:
    """Per (model, x) case: ``contour_from_family`` and ``theta_specific_plaus``
    at ``POINTS_PER_CASE`` points (the units), each against its closed form,
    then the case-level constructions.  A case-level failure fails every
    point of the case."""

    trace_rounds = 8

    def setup(self, seed: int) -> None:
        from confbel import contours, fusion

        self.contours = contours
        self.fusion = fusion
        self.seed = seed
        self.models = _generic_models()
        self.mc = MCConfig(reps=2_000, seed=seed)
        for k, m in enumerate(self.models):
            warm_up(self._case(m, k, 0))

    def wrap(self, tracer) -> None:
        from tracer import wrap_family, wrap_random_set

        self.models = [
            _GenericModel(
                m.name,
                wrap_family(tracer, m.name, m.family),
                m.association,
                wrap_random_set(tracer, m.name, m.random_set),
                tracer.wrap(f"models.{m.name}.contour", m.contour),
                m.fused,
                m.domain,
            )
            for m in self.models
        ]

    def _case(self, m: _GenericModel, k: int, stream: int):
        C, F = self.contours, self.fusion
        x, witness, thetas, search, region = _generic_inputs(m.name, _rng(self.seed, stream, k))

        def closed(t):
            return float(m.contour(x, t))

        def run():
            failures = []
            for theta in thetas:
                generic = C.contour_from_family(m.family, x, float(theta))
                if abs(generic - closed(theta)) > CLOSED_FORM_TOL:
                    failures.append(f"{m.name} x={x} theta={theta}: contour_from_family {generic} vs {closed(theta)}")
                    continue
                pl = F.theta_specific_plaus(m.association, m.random_set, x, float(theta), self.mc)
                ref = float(m.fused(x, float(theta)))
                if abs(pl - ref) > CLOSED_FORM_TOL:
                    failures.append(f"{m.name} x={x} theta={theta}: theta_specific_plaus {pl} vs {ref}")
            case = self._case_checks(m, x, witness, search, region, closed)
            if case:
                return [case] * POINTS_PER_CASE
            return failures

        return run

    def _case_checks(self, m, x, witness, search, region, closed):
        """Case-level constructions; returns a failure detail or None."""
        C, F = self.contours, self.fusion
        alpha = 0.05
        fused = F.fused_contour(m.association, m.random_set, x, self.mc, search=C.GridSpec(*search))
        if closed(float(fused.sup_witness)) < 1.0 - WITNESS_TOL:
            return f"{m.name} x={x}: fused witness {fused.sup_witness} is not a mode of the closed form"

        contour = C.PlausibilityContour(closed, witness, unimodal=False)
        grid = C.GridSpec(*region)
        ivs = _intervals(C.plausibility_region(contour, alpha, grid))
        if not ivs:
            return f"{m.name} x={x}: empty plausibility region"
        for iv in ivs:
            for e in (iv.lower, iv.upper):
                if region[0] < e < region[1] and abs(closed(e) - alpha) > CLOSED_FORM_TOL:
                    return f"{m.name} x={x}: region endpoint {e} has contour {closed(e)}"

        def abs_fiber(phi):
            return [t for t in dict.fromkeys((phi, -phi)) if m.domain.lower <= t <= m.domain.upper]

        def marginal(phi):
            return max(closed(t) for t in abs_fiber(phi))

        top = min(max(abs(region[0]), abs(region[1])), max(abs(m.domain.lower), abs(m.domain.upper)))
        ivs = _intervals(C.marginal_region(contour, abs, alpha, C.GridSpec(0.0, top, 41), abs_fiber))
        if not ivs:
            return f"{m.name} x={x}: empty |theta| region"
        for iv in ivs:
            for e in (iv.lower, iv.upper):
                if 0.0 < e < top and abs(marginal(e) - alpha) > CLOSED_FORM_TOL:
                    return f"{m.name} x={x}: |theta| region endpoint {e} has marginal contour {marginal(e)}"

        # An interval on the roomier side of the mode: its plausibility is the
        # closed form at its nearer endpoint, and belief stays below one minus
        # that (the endpoint lies in the closed complement).
        lo, hi = region[0], region[1]
        if hi - witness >= witness - lo:
            a, b = witness + 0.1 * (hi - witness), witness + 0.6 * (hi - witness)
            near = a
        else:
            a, b = witness - 0.6 * (witness - lo), witness - 0.1 * (witness - lo)
            near = b
        assertion = C.Interval(a, b)
        pl = C.plausibility(contour, assertion, grid)
        if abs(pl - closed(near)) > CLOSED_FORM_TOL:
            return f"{m.name} x={x}: pl[{a}, {b}] = {pl} vs {closed(near)}"
        bel = C.belief(contour, assertion, grid, m.domain)
        if not -1e-12 <= bel <= 1.0 - closed(near) + 1e-12:
            return f"{m.name} x={x}: bel[{a}, {b}] = {bel} outside [0, 1 - pl(endpoint)]"

        nested = F.check_nested_support(m.random_set, witness, (0.05, 0.1, 0.25, 0.5), self.mc)
        if not nested.passed:
            return f"{m.name} x={x}: nestedness violations {nested.violations}"
        compat = F.check_compatibility(m.association, m.random_set, x, witness, alpha, self.mc)
        if not compat.compatible:
            return f"{m.name} x={x}: compatibility {compat.status}"
        return None

    def round(self, r: int):
        for k, m in enumerate(self.models):
            yield f"generic:{m.name}", POINTS_PER_CASE, self._case(m, k, 1 + r)


def _intervals(region) -> tuple:
    """The intervals of an ``Interval`` or ``IntervalUnion`` region."""
    return tuple(getattr(region, "intervals", (region,)))


# --------------------------------------------------------------------------
# validity_audit: Monte Carlo calibration

AUDIT_ALPHA = 0.05
# Cheap models get enough reps that sampling and evaluation, not Python
# overhead, dominate a cell; dkw holds reps x 799 floats and fieller reps x
# 1601 Simpson nodes, so they get fewer.
CELL_REPS = {"dkw": 5_000, "fieller": 5_000}
DEFAULT_CELL_REPS = 100_000


class ValidityAudit:
    """One audit cell per unit: ``contour_validity_audit`` for each bundle at
    each hint truth, and ``coverage_probability`` for each bundle at its first
    hint plus fieller at theta = (1, 20).  Each cell has its own substream."""

    trace_rounds = 5

    def setup(self, seed: int) -> None:
        from confbel import audit
        from confbel.models import REGISTRY, fieller

        self.audit = audit
        self.seed = seed
        self.bundles = [factory() for factory in REGISTRY.values()]
        self.fieller = (fieller.sampling(), fieller.family(), fieller.interest)
        self.n_cells = sum(len(b.theta_grid_hint) for b in self.bundles) + len(self.bundles) + 1
        # Warm-up: one cell per model, on streams the timed phase never uses.
        for b in self.bundles:
            warm_up(self._audit_cell(b, b.theta_grid_hint[0], 0))
        warm_up(self._coverage_cell("fieller", *self.fieller, (1.0, 20.0), 0))

    def wrap(self, tracer) -> None:
        from tracer import wrap_bundle, wrap_family, wrap_sampling

        self.bundles = [wrap_bundle(tracer, b) for b in self.bundles]
        sampling, family, interest = self.fieller
        self.fieller = (wrap_sampling(tracer, "fieller", sampling), wrap_family(tracer, "fieller", family), interest)

    def _mc(self, model: str, stream: int) -> MCConfig:
        return MCConfig(reps=CELL_REPS.get(model, DEFAULT_CELL_REPS), seed=self.seed, stream_id=stream)

    def _audit_cell(self, b, truth, stream):
        def run():
            report = self.audit.contour_validity_audit(
                b.sampling, b.contour_at_truth, (truth,), mc=self._mc(b.name, stream), flag_sigma=AUDIT_FLAG_SIGMA
            )
            expected = len(self.audit.DEFAULT_ALPHA_GRID)
            if len(report.rows) != expected:
                return [f"audit {b.name}: {len(report.rows)} rows, expected {expected}"]
            return [f"audit {b.name}: flagged {r.label} alpha={r.alpha} exceedance={r.exceedance}" for r in report.flagged()]

        return run

    def _coverage_cell(self, name, sampling, family, interest, truth, stream):
        def run():
            mc = self._mc(name, stream)
            est = self.audit.coverage_probability(sampling, family, truth, AUDIT_ALPHA, mc, interest=interest)
            floor = 1.0 - AUDIT_ALPHA - AUDIT_FLAG_SIGMA * np.sqrt(AUDIT_ALPHA * (1.0 - AUDIT_ALPHA) / mc.reps)
            if not floor <= est.estimate <= 1.0 or est.reps != mc.reps:
                return [f"coverage {name}: estimate {est.estimate} below {floor} (reps {est.reps})"]
            return []

        return run

    def round(self, r: int):
        stream = 1 + r * self.n_cells
        for b in self.bundles:
            for truth in b.theta_grid_hint:
                yield f"audit:{b.name}", 1, self._audit_cell(b, truth, stream)
                stream += 1
        for b in self.bundles:
            yield f"coverage:{b.name}", 1, self._coverage_cell(
                b.name, b.sampling, b.family, b.interest, b.theta_grid_hint[0], stream
            )
            stream += 1
        yield "coverage:fieller", 1, self._coverage_cell("fieller", *self.fieller, (1.0, 20.0), stream)


IN_PROCESS = {
    "replicate_sweep": ReplicateSweep,
    "generic_route": GenericRoute,
    "validity_audit": ValidityAudit,
}
