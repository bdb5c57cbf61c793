"""Batch command line: model demonstrations, audits, and coverage checks.

Every subcommand writes one CSV (or JSON) artifact with a metadata header
sufficient to reproduce it: the effective option values, the package version
and, for the commands that draw, the seed and where it came from.  Writes are
atomic.  Exit codes: 0 on success, 2 for configuration problems, 3 when a
numerical routine fails.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .audit import DEFAULT_ALPHA_GRID, contour_validity_audit, coverage_probability
from .contours import ConsonanceError, GridSpec, NestednessError, as_alpha
from .fusion import check_compatibility
from .mc import MCConfig
from .models import REGISTRY, behrens_fisher, binomial, dkw, fieller, normal_mean, uniform_loc
from .reportio import write_rows

SEED_ENV_VAR = "CONFBEL_SEED"

# Boundary checks raise UsageError; a ValueError past them is the numerics'.
_NUMERICAL_ERRORS = (
    ConsonanceError,
    NestednessError,
    FloatingPointError,
    ValueError,
)


class UsageError(Exception):
    pass


def _read_config_file(path: str) -> dict:
    """The file's ``key = value`` lines, each value the raw text a flag takes."""
    if not os.path.isfile(path):
        raise UsageError(f"--config {path}: no such file")
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve_seed(args, config: dict) -> tuple[int, str]:
    """The seed and its source: the flag, the config file, the environment, else 0."""
    if args.seed is not None:
        return args.seed, "flag"
    env = os.environ.get(SEED_ENV_VAR)
    for source, name, text in (("config", f"seed in {args.config}", config.get("seed")), ("env", SEED_ENV_VAR, env)):
        if text is not None:
            try:
                return _seed(text), source
            except argparse.ArgumentTypeError as exc:
                raise UsageError(f"{name}: {exc}") from exc
    return 0, "default"


def _check_out(path: str) -> None:
    """``--out`` must name a file in an existing directory; checked before any work."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise UsageError(f"--out {path}: no such directory {directory}")
    if os.path.isdir(path):
        raise UsageError(f"--out {path}: is a directory")


def _finite_float(text: str) -> float:
    """argparse type of every scalar float option: NaN and infinities exit 2."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _alpha(text: str) -> float:
    """argparse type of every scalar ``--alpha``: a level strictly inside (0, 1)."""
    try:
        return as_alpha(_finite_float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_float(text: str) -> float:
    """argparse type of a sample variance: a finite number above 0."""
    value = _finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _count_at_least(minimum: int):
    """argparse type of a count option: an integer of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {minimum}, got {text!r}")
        return value

    return parse


def _seed(text: str) -> int:
    """argparse type of ``--seed``: the ``SeedSequence`` entropy of every
    PCG64DXSM stream a command draws, a 64-bit non-negative integer."""
    value = _count_at_least(0)(text)
    if value >= 2**64:
        raise argparse.ArgumentTypeError(f"expected an integer below 2**64, got {text!r}")
    return value


def _switch(text: str) -> bool:
    """argparse type of a switch's config line; the flag itself takes no value."""
    value = {"true": True, "1": True, "false": False, "0": False}.get(text.lower())
    if value is None:
        raise argparse.ArgumentTypeError(f"expected true, false, 1 or 0, got {text!r}")
    return value


def _csv_floats(option: str, text: str) -> tuple[float, ...]:
    try:
        return tuple(_finite_float(v) for v in text.split(","))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{option}: expected comma-separated finite numbers, got {text!r}") from exc


def _check_truth(option: str, sampling, interest, theta) -> None:
    """The model's own domain checks on a truth, run on one replicate before
    any work, so a truth outside the domain exits 2 with the model's message."""
    try:
        sampling.sample(theta, MCConfig(reps=1))
        interest(theta)
    except ValueError as exc:
        raise UsageError(f"{option}: {exc}") from exc


def _metadata(args, **extra) -> dict:
    meta = {"tool": f"confbel {__version__}", "command": args.command}
    if "seed" in vars(args):  # only the commands that draw take a seed
        meta.update(seed=args.seed, seed_source=args.seed_source)
    skip = {"command", "func", "out", "format", "config", "seed", "seed_source"}
    for key, value in sorted(vars(args).items()):
        if key in skip or callable(value):
            continue
        meta[f"opt_{key}"] = value
    meta.update(extra)
    return meta


def _emit(args, rows: list[dict], meta: dict, note: str = "") -> None:
    """Write the artifact to ``--out``; a failed write exits 2 naming it."""
    try:
        write_rows(args.out, rows, meta, args.format)
    except OSError as exc:
        raise UsageError(f"--out {args.out}: {exc.strerror or exc}") from exc
    print(f"wrote {args.out} ({len(rows)} rows{note})")


# --------------------------------------------------------------------------
# Subcommands


def cmd_fig1(args) -> None:
    # 5 000 rows, c falling from |theta| + 9 (P{|X| >= c} < 1e-18) to 0, where
    # the gap law - value is largest (docs/decisions.md)
    values, law = normal_mean.cd_abs_law(args.theta, np.linspace(abs(args.theta) + 9.0, 0.0, 5000))
    rows = [{"cd_value": f"{v:.10g}", "uniform_position": f"{p:.10g}"} for v, p in zip(values, law)]
    _emit(args, rows, _metadata(args, ks_uniform=f"{np.max(law - values):.6f}"))


def cmd_binom(args) -> None:
    if not 0 <= args.x <= args.n:
        raise UsageError(f"--x must lie in 0..{args.n}, got {args.x}")
    thetas = binomial.default_grid(args.grid_points).points()
    cp = binomial.cp_contour(args.n, args.x, thetas)
    im = binomial.im_contour(args.n, args.x, thetas)
    rows = [
        {"theta": f"{t:.10g}", "cp_contour": f"{c:.10g}", "im_contour": f"{i:.10g}"}
        for t, c, i in zip(thetas, cp, im)
    ]
    _emit(args, rows, _metadata(args, max_gap=f"{np.max(cp - im):.6f}"))


def cmd_bf(args) -> None:
    lam_cols = _csv_floats("--lambda-cols", args.lambda_cols)
    if not all(0.0 <= lam <= 1.0 for lam in lam_cols):
        raise UsageError(f"--lambda-cols: each lambda must lie in [0, 1], got {args.lambda_cols!r}")
    data = behrens_fisher.BehrensFisherData(args.n1, args.m1, args.v1, args.n2, args.m2, args.v2)
    phis = behrens_fisher.default_grid(data, args.grid_points).points()
    hs = behrens_fisher.hs_contour(data, phis)
    col_values = {lam: behrens_fisher.slice_plaus(data.n1, data.n2, data, lam, phis) for lam in lam_cols}
    rows = []
    for i, phi in enumerate(phis):
        row = {"phi": f"{phi:.10g}", "hs_contour": f"{hs[i]:.10g}"}
        for lam in lam_cols:
            row[f"lambda_{lam:g}"] = f"{col_values[lam][i]:.10g}"
        rows.append(row)
    _emit(args, rows, _metadata(args))


def cmd_dkw(args) -> None:
    if args.data is not None:
        try:
            sample = dkw.EmpiricalSample.from_csv(args.data, column=args.column)
        except (OSError, ValueError) as exc:  # no such file, a directory, a row without a number
            raise UsageError(f"--data: {exc}") from exc
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
        n=sample.n,
        delta=f"{delta:.8f}",
        lower_band_alpha_index=f"{idx:.6f}",
        lower_band_plaus=f"{plaus:.6f}",
        lower_band_plaus_law="exact K_n law (Simard-L'Ecuyer)",
    )
    _emit(args, rows, meta)


def cmd_fieller(args) -> None:
    x = (args.x1, args.x2)
    mc = MCConfig(reps=args.reps, seed=args.seed)
    iv = fieller.fieller_interval(x, args.alpha)
    if args.curve and not args.phi_lo < args.phi_hi:
        raise UsageError(f"--phi-hi must exceed --phi-lo, got {args.phi_hi} <= {args.phi_lo}")
    phis = GridSpec(args.phi_lo, args.phi_hi, args.grid_points).points() if args.curve else None
    theta = _csv_floats("--theta", args.theta)
    if len(theta) != 2:
        raise UsageError(f"--theta takes two components, got {args.theta!r}")
    _check_truth("--theta", fieller.sampling(), fieller.interest, theta)
    est = coverage_probability(
        fieller.sampling(), fieller.family(), theta, args.alpha, mc, interest=fieller.interest
    )
    if args.curve:
        gs = fieller.fieller_cdf_batch(x, phis)
        rows = [{"phi": f"{p:.10g}", "g": f"{g:.10g}"} for p, g in zip(phis, gs)]
    else:
        rows = [est.as_row()]
    meta = _metadata(
        args,
        interval_lower=f"{iv.lower:.8g}",
        interval_upper=f"{iv.upper:.8g}",
        mass_at_infinity=f"{fieller.mass_at_infinity(x):.3e}",
        coverage_estimate=f"{est.estimate:.6f}",
        coverage_se=f"{est.se:.6f}",
    )
    _emit(args, rows, meta)


def cmd_uniform(args) -> None:
    x = (args.x1, args.x2)
    if x[1] < x[0]:
        raise UsageError(f"--x2 must be at least --x1, got {args.x2} < {args.x1}")
    if x[1] - x[0] > 1.0:  # Unif(theta, theta + 1) data lie within 1 of each other
        raise UsageError(f"--x2 must be at most --x1 + 1, got {args.x2} > {args.x1} + 1")
    mc = MCConfig(reps=args.reps, seed=args.seed)
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
        interval_lower=f"{iv.lower:.8g}",
        interval_upper=f"{iv.upper:.8g}",
        compatibility=compat.status,
        coverage_estimate=f"{est.estimate:.6f}",
        coverage_se=f"{est.se:.6f}",
    )
    _emit(args, rows, meta)


def cmd_audit(args) -> None:
    bundle = REGISTRY[args.model]()
    mc = MCConfig(reps=args.reps, seed=args.seed)
    try:
        alphas = tuple(as_alpha(a) for a in _csv_floats("--alphas", args.alphas))
    except ValueError as exc:
        raise UsageError(f"--alphas: {exc}") from exc
    report = contour_validity_audit(
        bundle.sampling,
        bundle.contour_at_truth,
        bundle.theta_grid_hint,
        alpha_grid=alphas,
        mc=mc,
    )
    flagged = report.flagged()
    _emit(args, [r.as_row() for r in report.rows], dict(report.metadata), f", {len(flagged)} flagged")
    for row in flagged:
        print(f"  flagged: theta={row.label} alpha={row.alpha} exceedance={row.exceedance:.4f}")


def _truth(model: str, text: str, hints: tuple):
    """The truth ``text`` names: one of the hint CDFs by name (dkw), else
    comma-separated values of the hint truths' length."""
    if hasattr(hints[0], "name"):
        named = {h.name: h for h in hints}
        if text not in named:
            raise UsageError(f"coverage --model {model} takes a truth named {', '.join(named)}, got {text!r}")
        return named[text]
    size = np.size(hints[0])
    theta = _csv_floats("--theta", text)
    if len(theta) != size:
        raise UsageError(f"coverage --model {model} takes a truth of {size} comma-separated value(s), got {text!r}")
    return theta[0] if size == 1 else theta


def cmd_coverage(args) -> None:
    mc = MCConfig(reps=args.reps, seed=args.seed)
    if args.model == "fieller":
        sampling, family, interest, hints = fieller.sampling(), fieller.family(), fieller.interest, ((1.0, 20.0),)
    else:
        bundle = REGISTRY[args.model]()
        sampling, family, interest, hints = bundle.sampling, bundle.family, bundle.interest, bundle.theta_grid_hint
    if args.theta is None:  # the model's first hint truth, recorded as if given
        first = hints[0]
        args.theta = first.name if hasattr(first, "name") else ",".join(f"{float(v):.10g}" for v in np.ravel(first))
    t = _truth(args.model, str(args.theta), hints)
    _check_truth("--theta", sampling, interest, t)
    est = coverage_probability(sampling, family, t, args.alpha, mc, interest=interest)
    _emit(args, [est.as_row()], _metadata(args))


# --------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confbel",
        description="Consonant plausibility from confidence regions: demos, audits, coverage checks.",
    )
    parser.add_argument("--version", action="version", version=f"confbel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_out: str, reps: int | None):
        p.add_argument("--out", default=default_out, help="output path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if reps is not None:  # None: the subcommand draws nothing
            p.add_argument(
                "--seed", type=_seed, help=f"Monte Carlo seed (else the config file's, ${SEED_ENV_VAR}, then 0)"
            )
            p.add_argument("--reps", type=_count_at_least(1), default=reps, help="Monte Carlo replications")
        p.add_argument("--config", default=None, help="key=value defaults file (flags win)")

    p = sub.add_parser("fig1", help="calibration failure of the |theta| confidence distribution")
    common(p, "confbel_fig1.csv", None)
    p.add_argument("--theta", type=_finite_float, default=0.5)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("binom", help="exact-tail vs fused binomial contours on a theta grid")
    common(p, "confbel_binom.csv", None)
    p.add_argument("--n", type=_count_at_least(1), default=25)
    p.add_argument("--x", type=int, default=17)
    p.add_argument("--grid-points", type=_count_at_least(2), default=512)
    p.set_defaults(func=cmd_binom)

    p = sub.add_parser("bf", help="two-sample contours: the interval contour (= fused marginal) and lambda slices")
    common(p, "confbel_bf.csv", None)
    d = behrens_fisher.DEFAULT_DATA
    p.add_argument("--n1", type=_count_at_least(2), default=d.n1)
    p.add_argument("--m1", type=_finite_float, default=d.m1)
    p.add_argument("--v1", type=_positive_float, default=d.v1)
    p.add_argument("--n2", type=_count_at_least(2), default=d.n2)
    p.add_argument("--m2", type=_finite_float, default=d.m2)
    p.add_argument("--v2", type=_positive_float, default=d.v2)
    p.add_argument("--grid-points", type=_count_at_least(2), default=201)
    p.add_argument("--lambda-cols", default="0,0.25,0.5,0.75,1", help="lambda slices to emit as columns")
    p.set_defaults(func=cmd_bf)

    p = sub.add_parser("dkw", help="distribution-free CDF band with the fused contour of its lower edge")
    common(p, "confbel_dkw.csv", None)
    p.add_argument("--n", type=_count_at_least(1), default=799, help="size of the synthetic sample")
    p.add_argument("--sample-seed", type=_count_at_least(0), default=1404, help="seed of the synthetic sample")
    p.add_argument("--data", default=None, help="CSV of raw values (overrides the synthetic sample)")
    p.add_argument("--column", default="value")
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.set_defaults(func=cmd_dkw)

    p = sub.add_parser("fieller", help="ratio-of-means CDF, its intervals, and their coverage")
    common(p, "confbel_fieller.csv", 10_000)
    p.add_argument("--x1", type=_finite_float, default=1.0)
    p.add_argument("--x2", type=_finite_float, default=20.0)
    p.add_argument("--theta", default="1,20", help="comma-separated truth for the coverage estimate")
    p.add_argument("--alpha", type=_alpha, default=0.05)
    curve = p.add_argument("--curve", action="store_true", help="emit the CDF curve instead of the coverage row")
    curve.type = _switch  # converts a config file's `curve = ...`; the flag takes no value
    p.add_argument("--phi-lo", type=_finite_float, default=-0.1)
    p.add_argument("--phi-hi", type=_finite_float, default=0.2)
    p.add_argument("--grid-points", type=_count_at_least(2), default=201)
    p.set_defaults(func=cmd_fieller)

    p = sub.add_parser("uniform", help="uniform-location fused contour, region, and compatibility")
    common(p, "confbel_uniform.csv", 10_000)
    p.add_argument("--n", type=_count_at_least(2), default=10, help="sample size (a min and a max need two)")
    p.add_argument("--x1", type=_finite_float, default=0.2)
    p.add_argument("--x2", type=_finite_float, default=0.9)
    p.add_argument("--theta", type=_finite_float, default=0.0, help="truth for the coverage estimate")
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument("--grid-points", type=_count_at_least(2), default=512)
    p.set_defaults(func=cmd_uniform)

    p = sub.add_parser("audit", help="contour validity audit for a model bundle")
    common(p, "confbel_audit.csv", 10_000)
    p.add_argument("--model", choices=sorted(REGISTRY), default="binomial")
    p.add_argument("--alphas", default=",".join(str(a) for a in DEFAULT_ALPHA_GRID))
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("coverage", help="Monte Carlo coverage of a model's region family")
    common(p, "confbel_coverage.csv", 10_000)
    p.add_argument("--model", choices=sorted(list(REGISTRY) + ["fieller"]), default="fieller")
    p.add_argument(
        "--theta",
        default=None,
        help="comma-separated truth, or a CDF's name for dkw (Exp(1)); default: the model's first hint truth",
    )
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.set_defaults(func=cmd_coverage)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config_file(args.config) if args.config else {}
        unknown = sorted(set(config) - (set(vars(args)) - {"command", "func"}))
        if unknown:
            raise UsageError(f"{args.config}: {args.command} has no option {', '.join(unknown)}")
        resolved = _resolve_seed(args, config) if "seed" in vars(args) else None
        if config:
            # the file's values become defaults: argparse types them, and flags win
            sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            command = sub.choices[args.command]
            command.set_defaults(**config)
            args = parser.parse_args(argv)
            # argparse checks choices on flags only; a value from the file gets the same check
            for action in command._actions:
                if action.choices is not None and action.dest in config:
                    try:
                        command._check_value(action, getattr(args, action.dest))
                    except argparse.ArgumentError as exc:
                        command.error(str(exc))
        if resolved is not None:
            args.seed, args.seed_source = resolved
        _check_out(args.out)
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
