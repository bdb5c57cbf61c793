"""Batch command line: model demonstrations, audits, and coverage checks.

Every subcommand writes one CSV (or JSON) artifact with a metadata header
sufficient to reproduce it: the effective option values, the seed and where it
came from, and the package version.  Writes are atomic.  Exit codes: 0 on
success, 2 for configuration problems, 3 when a numerical routine fails.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .audit import DEFAULT_ALPHA_GRID, contour_validity_audit, coverage_probability, ks_uniform
from .contours import ConsonanceError, GridSpec, NestednessError, as_alpha
from .fusion import ModelInconsistencyError, check_compatibility
from .mc import MCConfig
from .models import REGISTRY, behrens_fisher, binomial, dkw, fieller, normal_mean, uniform_loc
from .reportio import write_rows

SEED_ENV_VAR = "CONFBEL_SEED"

_NUMERICAL_ERRORS = (
    ConsonanceError,
    NestednessError,
    ModelInconsistencyError,
    fieller.NonMonotoneError,
    FloatingPointError,
)


class UsageError(Exception):
    pass


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _read_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = _parse_scalar(value.strip())
    return out


def _explicit_dests(argv: list[str]) -> set[str]:
    out = set()
    for tok in argv:
        if tok.startswith("--"):
            out.add(tok[2:].split("=", 1)[0].replace("-", "_"))
    return out


def _resolve_seed(args, config: dict, explicit: set[str]) -> tuple[int, str]:
    if "seed" in explicit:
        return int(args.seed), "flag"
    if "seed" in config:
        return int(config["seed"]), "config"
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env), "env"
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return int(args.seed), "default"


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


def _metadata(args, seed: int, seed_source: str, **extra) -> dict:
    meta = {
        "tool": f"confbel {__version__}",
        "command": args.command,
        "seed": seed,
        "seed_source": seed_source,
    }
    skip = {"command", "func", "out", "format", "config", "seed"}
    for key, value in sorted(vars(args).items()):
        if key in skip or callable(value):
            continue
        meta[f"opt_{key}"] = value
    meta.update(extra)
    return meta


def _emit(args, rows: list[dict], meta: dict) -> None:
    write_rows(args.out, rows, meta, args.format)
    print(f"wrote {args.out} ({len(rows)} rows)")


# --------------------------------------------------------------------------
# Subcommands


def cmd_fig1(args, seed: int, seed_source: str) -> None:
    mc = MCConfig(reps=args.reps, seed=seed)
    draws = np.sort(normal_mean.cd_abs_draws(mc, theta=args.theta))
    ks = ks_uniform(draws)
    pos = (np.arange(1, len(draws) + 1) - 0.5) / len(draws)
    rows = [{"cd_value": f"{v:.10g}", "uniform_position": f"{p:.10g}"} for v, p in zip(draws, pos)]
    _emit(args, rows, _metadata(args, seed, seed_source, ks_uniform=f"{ks:.6f}"))


def cmd_binom(args, seed: int, seed_source: str) -> None:
    if not 0 <= args.x <= args.n:
        raise UsageError(f"x must lie in 0..{args.n}")
    thetas = binomial.default_grid(args.grid_points).points()
    cp = binomial.cp_contour(args.n, args.x, thetas)
    im = binomial.im_contour(args.n, args.x, thetas)
    rows = [
        {"theta": f"{t:.10g}", "cp_contour": f"{c:.10g}", "im_contour": f"{i:.10g}"}
        for t, c, i in zip(thetas, cp, im)
    ]
    _emit(args, rows, _metadata(args, seed, seed_source, max_gap=f"{np.max(cp - im):.6f}"))


def cmd_bf(args, seed: int, seed_source: str) -> None:
    data = behrens_fisher.BehrensFisherData(args.n1, args.m1, args.v1, args.n2, args.m2, args.v2)
    mc = MCConfig(reps=args.reps, seed=seed)
    phis = behrens_fisher.default_grid(data, args.grid_points).points()
    hs = behrens_fisher.hs_contour(data, phis)
    lam_cols = _csv_floats(args.lambda_cols)
    col_values = {lam: behrens_fisher.bf_lambda_plaus(data, phis, lam, mc) for lam in lam_cols}
    rows = []
    for i, phi in enumerate(phis):
        row = {"phi": f"{phi:.10g}", "hs_contour": f"{hs[i]:.10g}"}
        for lam in lam_cols:
            row[f"lambda_{lam:g}"] = f"{col_values[lam][i]:.10g}"
        # the fused marginal, the sup over lambda of the slices, is the
        # interval contour itself (docs/decisions.md)
        row["marginal"] = row["hs_contour"]
        rows.append(row)
    _emit(args, rows, _metadata(args, seed, seed_source, max_abs_gap="0.000000"))


def cmd_dkw(args, seed: int, seed_source: str) -> None:
    if args.data is not None:
        sample = dkw.EmpiricalSample.from_csv(args.data, column=args.column)
    else:
        sample = dkw.synthetic_sample(args.n, seed=args.sample_seed)
    delta, lower, upper = dkw.dkw_band(sample, args.alpha)
    idx, plaus = dkw.dkw_contour(sample, lower)
    ehat = sample.ecdf()
    rows = [
        {
            "x": f"{x:.10g}",
            "ecdf": f"{e:.10g}",
            "lower": f"{lo:.10g}",
            "upper": f"{hi:.10g}",
        }
        for x, e, lo, hi in zip(ehat.xs, ehat.ys, lower.ys, upper.ys)
    ]
    meta = _metadata(
        args,
        seed,
        seed_source,
        n=sample.n,
        delta=f"{delta:.8f}",
        lower_band_alpha_index=f"{idx:.6f}",
        lower_band_plaus=f"{plaus:.6f}",
        lower_band_plaus_law="exact K_n law (Simard-L'Ecuyer)",
    )
    _emit(args, rows, meta)


def cmd_fieller(args, seed: int, seed_source: str) -> None:
    x = (args.x1, args.x2)
    mc = MCConfig(reps=args.reps, seed=seed)
    iv = fieller.fieller_interval(x, args.alpha)
    theta = (args.theta1, args.theta2)
    if args.theta is not None:
        theta = _csv_floats(args.theta)
        if len(theta) != 2:
            raise UsageError(f"--theta takes two components, got {args.theta!r}")
    est = coverage_probability(
        fieller.sampling(), fieller.family(), theta, args.alpha, mc, interest=fieller.interest
    )
    if args.curve:
        phis = np.linspace(args.phi_lo, args.phi_hi, args.grid_points)
        gs = fieller.fieller_cdf_batch(x, phis)
        rows = [{"phi": f"{p:.10g}", "g": f"{g:.10g}"} for p, g in zip(phis, gs)]
    else:
        rows = [est.as_row()]
    meta = _metadata(
        args,
        seed,
        seed_source,
        interval_lower=f"{iv.lower:.8g}",
        interval_upper=f"{iv.upper:.8g}",
        mass_at_infinity=f"{fieller.mass_at_infinity(x):.3e}",
        coverage_estimate=f"{est.estimate:.6f}",
        coverage_se=f"{est.se:.6f}",
    )
    _emit(args, rows, meta)


def cmd_uniform(args, seed: int, seed_source: str) -> None:
    x = (args.x1, args.x2)
    if x[1] < x[0]:
        raise UsageError("x2 must be at least x1")
    mc = MCConfig(reps=args.reps, seed=seed)
    grid = uniform_loc.default_grid(x, args.grid_points)
    thetas = grid.points()
    contour = uniform_loc.alpha_index_exact(x, thetas)
    iv = uniform_loc.interval(x, args.alpha)
    in_region = uniform_loc.member(x, args.alpha, thetas)
    rows = [
        {"theta": f"{t:.10g}", "contour": f"{c:.10g}", "in_region": bool(m)}
        for t, c, m in zip(thetas, contour, in_region)
    ]
    compat = check_compatibility(
        uniform_loc.association(), uniform_loc.random_set(args.n), x, uniform_loc.theta_hat(x), args.alpha, mc
    )
    est = coverage_probability(uniform_loc.sampling(args.n), uniform_loc.family(), args.theta, args.alpha, mc)
    meta = _metadata(
        args,
        seed,
        seed_source,
        interval_lower=f"{iv.lower:.8g}",
        interval_upper=f"{iv.upper:.8g}",
        compatibility=compat.status,
        coverage_estimate=f"{est.estimate:.6f}",
        coverage_se=f"{est.se:.6f}",
    )
    _emit(args, rows, meta)


def cmd_audit(args, seed: int, seed_source: str) -> None:
    bundle = REGISTRY[args.model]()
    mc = MCConfig(reps=args.reps, seed=seed)
    alphas = _csv_floats(args.alphas)
    for a in alphas:
        as_alpha(a)
    report = contour_validity_audit(
        bundle.sampling,
        bundle.contour_at_truth,
        bundle.theta_grid_hint,
        alpha_grid=alphas,
        mc=mc,
    )
    report.write(args.out, args.format)
    n_flagged = len(report.flagged())
    print(f"wrote {args.out} ({len(report.rows)} rows, {n_flagged} flagged)")
    if n_flagged:
        for row in report.flagged():
            print(f"  flagged: theta={row.label} alpha={row.alpha} exceedance={row.exceedance:.4f}")


def cmd_coverage(args, seed: int, seed_source: str) -> None:
    mc = MCConfig(reps=args.reps, seed=seed)
    theta = _csv_floats(args.theta)
    if args.model == "fieller":
        sampling, family, interest, size = fieller.sampling(), fieller.family(), fieller.interest, 2
    else:
        bundle = REGISTRY[args.model]()
        sampling, family, interest = bundle.sampling, bundle.family, bundle.interest
        size = np.size(bundle.theta_grid_hint[0])
    # a dkw truth is a CDF, which the comma form cannot name
    if args.model != "dkw" and len(theta) != size:
        raise UsageError(
            f"coverage --model {args.model} takes a truth of {size} comma-separated value(s), got {args.theta!r}"
        )
    t = theta[0] if len(theta) == 1 else theta
    est = coverage_probability(sampling, family, t, args.alpha, mc, interest=interest)
    _emit(args, [est.as_row()], _metadata(args, seed, seed_source))


# --------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confbel",
        description="Consonant plausibility from confidence regions: demos, audits, coverage checks.",
    )
    parser.add_argument("--version", action="version", version=f"confbel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_out: str, reps: int):
        p.add_argument("--out", default=default_out, help="output path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0, help=f"RNG seed (falls back to ${SEED_ENV_VAR})")
        p.add_argument("--reps", type=int, default=reps, help="Monte Carlo replications")
        p.add_argument("--config", default=None, help="key=value defaults file (flags win)")

    p = sub.add_parser("fig1", help="calibration failure of the |theta| confidence distribution")
    common(p, "confbel_fig1.csv", 5000)
    p.add_argument("--theta", type=float, default=0.5)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("binom", help="exact-tail vs fused binomial contours on a theta grid")
    common(p, "confbel_binom.csv", 1)
    p.add_argument("--n", type=int, default=25)
    p.add_argument("--x", type=int, default=17)
    p.add_argument("--grid-points", type=int, default=512)
    p.set_defaults(func=cmd_binom)

    p = sub.add_parser("bf", help="two-sample contours: the interval contour (= fused marginal) and lambda slices")
    common(p, "confbel_bf.csv", 100_000)
    d = behrens_fisher.DEFAULT_DATA
    p.add_argument("--n1", type=int, default=d.n1)
    p.add_argument("--m1", type=float, default=d.m1)
    p.add_argument("--v1", type=float, default=d.v1)
    p.add_argument("--n2", type=int, default=d.n2)
    p.add_argument("--m2", type=float, default=d.m2)
    p.add_argument("--v2", type=float, default=d.v2)
    p.add_argument("--grid-points", type=int, default=201)
    p.add_argument("--lambda-cols", default="0,0.25,0.5,0.75,1", help="lambda slices to emit as columns")
    p.set_defaults(func=cmd_bf)

    p = sub.add_parser("dkw", help="distribution-free CDF band with the fused contour of its lower edge")
    common(p, "confbel_dkw.csv", 100_000)
    p.add_argument("--n", type=int, default=799, help="size of the synthetic sample")
    p.add_argument("--sample-seed", type=int, default=1404, help="seed of the synthetic sample")
    p.add_argument("--data", default=None, help="CSV of raw values (overrides the synthetic sample)")
    p.add_argument("--column", default="value")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_dkw)

    p = sub.add_parser("fieller", help="ratio-of-means CDF, its intervals, and their coverage")
    common(p, "confbel_fieller.csv", 10_000)
    p.add_argument("--x1", type=float, default=1.0)
    p.add_argument("--x2", type=float, default=20.0)
    p.add_argument("--theta1", type=float, default=1.0)
    p.add_argument("--theta2", type=float, default=20.0)
    p.add_argument("--theta", default=None, help="comma form of the truth, overrides --theta1/--theta2")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--curve", action="store_true", help="emit the CDF curve instead of the coverage row")
    p.add_argument("--phi-lo", type=float, default=-0.1)
    p.add_argument("--phi-hi", type=float, default=0.2)
    p.add_argument("--grid-points", type=int, default=201)
    p.set_defaults(func=cmd_fieller)

    p = sub.add_parser("uniform", help="uniform-location fused contour, region, and compatibility")
    common(p, "confbel_uniform.csv", 10_000)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--x1", type=float, default=0.2)
    p.add_argument("--x2", type=float, default=0.9)
    p.add_argument("--theta", type=float, default=0.0, help="truth for the coverage estimate")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--grid-points", type=int, default=512)
    p.set_defaults(func=cmd_uniform)

    p = sub.add_parser("audit", help="contour validity audit for a model bundle")
    common(p, "confbel_audit.csv", 10_000)
    p.add_argument("--model", choices=sorted(REGISTRY), default="binomial")
    p.add_argument("--alphas", default=",".join(str(a) for a in DEFAULT_ALPHA_GRID))
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("coverage", help="Monte Carlo coverage of a model's region family")
    common(p, "confbel_coverage.csv", 10_000)
    p.add_argument("--model", choices=sorted(list(REGISTRY) + ["fieller"]), default="fieller")
    p.add_argument("--theta", default="1,20", help="comma-separated truth")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_coverage)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    explicit = _explicit_dests(argv)
    try:
        config = _read_config_file(args.config) if args.config else {}
        unknown = sorted(set(config) - (set(vars(args)) - {"command", "func"}))
        if unknown:
            raise UsageError(f"{args.config}: {args.command} has no option {', '.join(unknown)}")
        for key, value in config.items():
            if key != "seed" and key not in explicit:
                setattr(args, key, value)
        seed, seed_source = _resolve_seed(args, config, explicit)
        args.func(args, seed, seed_source)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
