"""In-memory span recorder and the wrappers that put it around confbel's layers.

Spans are recorded from the benchmark's own files: the wrappers replace the
public functions of each ``confbel`` module (the module attribute and every
other ``confbel`` module that imported the same object by name) and the
callables held by model objects (through ``dataclasses.replace``).  Nothing
under ``src/`` knows about tracing.

A span is ``[name, start, end, parent, unit]``.  A layer's self time is a
span's duration minus the part of its interval that its child spans cover, so
summing self time over every span of a run gives the duration of the root
spans exactly once.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# Calls made from inside a span of the same group get no span of their own:
# the bisection inside ``distributions.quantile`` calls ``cdf`` through the
# module global, and that time belongs to ``quantile``.
DIST_GROUP = "distributions"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.unit = -1
        self._stack: list[int] = []
        self._groups: list[str | None] = []

    # -- recording -----------------------------------------------------

    def enter(self, name: str, group: str | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.unit])
        self._stack.append(idx)
        self._groups.append(group)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()
        self._groups.pop()

    def parent(self) -> str | None:
        """Name of the span enclosing the innermost open span."""
        return self.spans[self._stack[-2]][0] if len(self._stack) > 1 else None

    def inside(self, prefix: str) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self._stack)

    def wrap(self, name: str, fn, group: str | None = None, after=None):
        """``fn`` recording one span per call; ``after(args, kwargs, result)``
        runs inside the span to update counters."""
        if getattr(fn, "_bench_span", None) is not None:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if group is not None and self._groups and self._groups[-1] == group:
                return fn(*args, **kwargs)
            idx = self.enter(name, group)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                self.exit(idx)

        traced._bench_span = name
        return traced

    # -- reporting -----------------------------------------------------

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "unit": unit}))
                fh.write("\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, unit in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, unit) in enumerate(spans):
        covered = 0.0
        reach = start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, list]:
    """``{name: [calls, self_s]}`` over a list of spans."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        entry = out[span[0]]
        entry[0] += 1
        entry[1] += own
    return dict(out)


# --------------------------------------------------------------------------
# Instrumentation of confbel


def _replace_everywhere(original, replacement) -> None:
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "confbel" or modname.startswith("confbel.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _patch(tracer: Tracer, module, attr: str, name: str, **kw) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(name, original, **kw))


def wrap_family(tracer: Tracer, model: str, fam):
    def probe(args, kwargs, result):
        if tracer.parent() == "contours.contour_from_family":
            tracer.counts["contours.member_probes"] += 1

    changes = {"member": tracer.wrap(f"models.{model}.member", fam.member, after=probe)}
    if fam.member_batch is not None:
        changes["member_batch"] = tracer.wrap(f"models.{model}.member_batch", fam.member_batch)
    return dataclasses.replace(fam, **changes)


def wrap_random_set(tracer: Tracer, model: str, rs):
    def probe(args, kwargs, result):
        if tracer.parent() == "fusion.alpha_index":
            tracer.counts["fusion.support_probes"] += 1

    def sampled(args, kwargs, result):
        tracer.counts["fusion.aux_sampler.calls"] += 1

    changes = {
        "support_member": tracer.wrap(f"models.{model}.support_member", rs.support_member, after=probe),
        "aux_sampler": tracer.wrap(f"models.{model}.aux_sampler", rs.aux_sampler, after=sampled),
    }
    if rs.mass is not None:
        changes["mass"] = tracer.wrap(f"models.{model}.mass", rs.mass)
    return dataclasses.replace(rs, **changes)


def wrap_sampling(tracer: Tracer, model: str, sampling):
    def drawn(args, kwargs, result):
        if tracer.inside("audit."):
            tracer.counts["audit.draws"] += len(result)

    return dataclasses.replace(sampling, sample=tracer.wrap(f"models.{model}.sample", sampling.sample, after=drawn))


_BUNDLE_CALLABLES = (
    "contour_at_truth",
    "plaus_grid",
    "member_grid",
    "default_grid",
    "data_replicates",
    "containment_candidates",
)


def wrap_bundle(tracer: Tracer, bundle):
    m = bundle.name
    changes = {
        "family": wrap_family(tracer, m, bundle.family),
        "random_set": wrap_random_set(tracer, m, bundle.random_set),
        "sampling": wrap_sampling(tracer, m, bundle.sampling),
    }
    for attr in _BUNDLE_CALLABLES:
        fn = getattr(bundle, attr)
        if fn is not None:
            changes[attr] = tracer.wrap(f"models.{m}.{attr}", fn)
    return dataclasses.replace(bundle, **changes)


def instrument(tracer: Tracer) -> None:
    """Wrap every layer's public functions in the loaded ``confbel`` modules.

    Objects created before this call (bundles, families, random sets) keep
    their original callables; pass them through :func:`wrap_bundle` and
    friends.  Objects the model factories create afterwards come out wrapped.
    """
    from confbel import audit, contours, distributions, fusion, mc, reportio
    from confbel import models
    from confbel.models import behrens_fisher, binomial, dkw, fieller, normal_mean, uniform_loc

    def quantile_points(args, kwargs, result):
        tracer.counts["distributions.quantile.points"] += int(getattr(result, "size", 1))

    for attr in ("cdf", "sample", "sample_uniform_minmax", "binom_cdf_table", "binom_log_pmf"):
        _patch(tracer, distributions, attr, f"distributions.{attr}", group=DIST_GROUP)
    _patch(tracer, distributions, "quantile", "distributions.quantile", group=DIST_GROUP, after=quantile_points)

    mc.MCConfig.generator = tracer.wrap("mc.generator", mc.MCConfig.generator)

    for attr in ("contour_from_family", "plausibility", "belief", "plausibility_region",
                 "marginal_contour", "marginal_region"):
        _patch(tracer, contours, attr, f"contours.{attr}")

    for attr in ("alpha_index", "theta_specific_plaus", "fused_contour", "check_nested_support",
                 "check_compatibility", "support_mass", "focal_set"):
        _patch(tracer, fusion, attr, f"fusion.{attr}")
    cached = fusion._cached_draws

    def draw_request(*args, **kwargs):
        tracer.counts["fusion.draw_requests"] += 1
        return cached(*args, **kwargs)

    fusion._cached_draws = draw_request

    for attr in ("coverage_probability", "contour_validity_audit", "assertion_validity_audit", "ks_uniform"):
        _patch(tracer, audit, attr, f"audit.{attr}")

    def written(args, kwargs, result):
        tracer.counts["reportio.write_rows.bytes"] += os.path.getsize(args[0])

    _patch(tracer, reportio, "write_rows", "reportio.write_rows", after=written)

    _patch(tracer, behrens_fisher, "pivotal_draws", "models.behrens_fisher.pivotal_draws")
    _patch(tracer, dkw, "ks_null_sample", "models.dkw.ks_null_sample")

    # Model factories called after this point hand out wrapped objects, which
    # is how the command line (which builds its models per command) is traced.
    for module in (behrens_fisher, binomial, dkw, fieller, normal_mean, uniform_loc):
        m = module.__name__.rsplit(".", 1)[1]
        for attr, wrapper in (("family", wrap_family), ("random_set", wrap_random_set), ("sampling", wrap_sampling)):
            factory = getattr(module, attr, None)
            if factory is not None:
                setattr(module, attr, _wrapped_factory(tracer, m, factory, wrapper))
    for key, factory in list(models.REGISTRY.items()):
        models.REGISTRY[key] = _wrapped_factory(tracer, key, factory, lambda t, m, b: wrap_bundle(t, b))


def _wrapped_factory(tracer, model, factory, wrapper):
    @functools.wraps(factory)
    def make(*args, **kwargs):
        return wrapper(tracer, model, factory(*args, **kwargs))

    return make
