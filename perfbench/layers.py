"""Per-layer metrics of a traced run, named as in ``BENCHMARK.json``.

``spans`` maps a span name to ``[calls, self_s]``; ``counts`` holds the
counters the wrappers keep.  Every metric is reported for every workload, so a
layer that a workload bypasses reads 0 there (the prediction to check).
"""

from __future__ import annotations

BUNDLES = ("binomial", "uniform_loc", "normal_mean", "behrens_fisher", "dkw")
SUBCOMMANDS = ("fig1", "binom", "bf", "dkw", "fieller", "uniform", "audit", "coverage")


def per_layer(spans: dict, counts: dict, cli: dict | None = None, overhead_frac: float = 0.0) -> dict:
    cli = cli or {}

    def calls(*names):
        return sum(spans.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0))[1] for n in names)

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("distributions.quantile.calls", calls("distributions.quantile"), "count")
    put("distributions.quantile.points", counts.get("distributions.quantile.points", 0), "count")
    put("distributions.quantile.self_s", self_s("distributions.quantile"), "s")
    # CDF evaluations entered from outside the module: the continuous cdf and
    # the exact binomial table and pmf behind the discrete models.
    put("distributions.cdf.self_s", self_s("distributions.cdf", "distributions.binom_cdf_table",
                                           "distributions.binom_log_pmf"), "s")
    put("distributions.sample.self_s", self_s("distributions.sample", "distributions.sample_uniform_minmax"), "s")
    put("mc.generator.calls", calls("mc.generator"), "count")

    put("contours.contour_from_family.calls", calls("contours.contour_from_family"), "count")
    put("contours.contour_from_family.self_s", self_s("contours.contour_from_family"), "s")
    put("contours.member_probes", counts.get("contours.member_probes", 0), "count")
    for fn in ("plausibility_region", "marginal_region", "plausibility", "belief"):
        put(f"contours.{fn}.self_s", self_s(f"contours.{fn}"), "s")

    put("fusion.alpha_index.calls", calls("fusion.alpha_index"), "count")
    put("fusion.alpha_index.self_s", self_s("fusion.alpha_index"), "s")
    put("fusion.support_probes", counts.get("fusion.support_probes", 0), "count")
    for fn in ("theta_specific_plaus", "fused_contour", "check_nested_support", "check_compatibility"):
        put(f"fusion.{fn}.self_s", self_s(f"fusion.{fn}"), "s")
    sampler_calls = counts.get("fusion.aux_sampler.calls", 0)
    requests = counts.get("fusion.draw_requests", 0)
    put("fusion.aux_sampler.calls", sampler_calls, "count")
    put("fusion.draw_cache.hit_ratio", 1.0 - sampler_calls / requests if requests else 0.0, "ratio")

    put("audit.contour_validity_audit.self_s", self_s("audit.contour_validity_audit"), "s")
    put("audit.coverage_probability.self_s", self_s("audit.coverage_probability"), "s")
    put("audit.draws", counts.get("audit.draws", 0), "count")

    for m in BUNDLES:
        put(f"models.{m}.plaus_grid.calls", calls(f"models.{m}.plaus_grid"), "count")
        put(f"models.{m}.plaus_grid.self_s", self_s(f"models.{m}.plaus_grid"), "s")
        put(f"models.{m}.member_grid.self_s", self_s(f"models.{m}.member_grid"), "s")
    for m in BUNDLES:
        put(f"models.{m}.contour_at_truth.self_s", self_s(f"models.{m}.contour_at_truth"), "s")
        put(f"models.{m}.sample.self_s", self_s(f"models.{m}.sample"), "s")
    put("models.fieller.member_batch.self_s", self_s("models.fieller.member_batch"), "s")
    put("models.behrens_fisher.pivotal_draws.calls", calls("models.behrens_fisher.pivotal_draws"), "count")
    put("models.behrens_fisher.pivotal_draws.self_s", self_s("models.behrens_fisher.pivotal_draws"), "s")
    put("models.dkw.ks_null_sample.calls", calls("models.dkw.ks_null_sample"), "count")
    put("models.dkw.ks_null_sample.self_s", self_s("models.dkw.ks_null_sample"), "s")

    put("reportio.write_rows.calls", calls("reportio.write_rows"), "count")
    put("reportio.write_rows.self_s", self_s("reportio.write_rows"), "s")
    put("reportio.write_rows.bytes", counts.get("reportio.write_rows.bytes", 0), "bytes")

    put("cli.import_s", cli.get("import_s", 0.0), "s")
    for sub in SUBCOMMANDS:
        put(f"cli.{sub}.wall_s", cli.get("wall_s", {}).get(sub, 0.0), "s")
    put("cli.exit_nonzero", cli.get("exit_nonzero", 0), "count")

    put("trace.overhead_frac", overhead_frac, "ratio")
    return out


def layer_of(span_name: str) -> str:
    """Layer a span belongs to: the module, or ``models.<model>``."""
    parts = span_name.split(".")
    return ".".join(parts[:2]) if parts[0] == "models" else parts[0]


def layer_self_times(spans: dict) -> dict:
    """Self time per layer, largest first."""
    layers: dict = {}
    for name, (calls, own) in spans.items():
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + own
    return dict(sorted(layers.items(), key=lambda kv: -kv[1]))
