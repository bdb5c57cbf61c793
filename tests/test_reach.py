"""The reach ledger: every ``src/`` function is on a path.

The benchmark's cli_batch commands, plus ``audit --model dkw``, run in this
process under ``sys.setprofile`` (``--reps 500`` where a command draws), on
a fresh import of ``confbel`` so that calls made at import count too.  A
function that no command calls must be named in :data:`LEDGER` with one of
three reasons: an option path that a non-default flag reaches, run by
``tests/test_cli.py``; the oracle route, the generic construction the closed
forms are held against (docs/decisions.md, "The oracle route"); or a name the
benchmark harness patches or reads, kept until it no longer does (ROADMAP
item 6).  A function not in the ledger and not reached fails the test, and so
does a ledger entry that names no function or a function a command reaches.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "confbel"

OPTION = "option path, run by tests/test_cli.py"
ORACLE = "oracle route"
PERFBENCH = "kept for perfbench until item 6"

LEDGER = {
    # non-default flags: --config, --alpha, --v1 and friends, --seed, the
    # config file's `curve`, --format json, dkw --data, dkw --n <= 140
    "cli._read_config_file": OPTION,
    "cli._alpha": OPTION,
    "cli._positive_float": OPTION,
    "cli._seed": OPTION,
    "cli._switch": OPTION,
    "reportio.render_json": OPTION,
    "reportio.read_csv": OPTION,
    "models.dkw.EmpiricalSample.from_csv": OPTION,
    "models.dkw._kstwo_sf": OPTION,
    # the generic construction: contours by alpha search, assertions, level
    # sets and marginals; the fused random set; each model's random-set mass
    # and focal set; the containment candidates
    "audit.assertion_validity_audit": ORACLE,
    "audit.ks_distances": ORACLE,
    "contours.Interval.contains": ORACLE,
    "contours.IntervalUnion.is_empty": ORACLE,
    "contours.IntervalUnion.contains": ORACLE,
    "contours.PlausibilityContour.__post_init__": ORACLE,
    "contours.PlausibilityContour.__call__": ORACLE,
    "contours.bisect": ORACLE,
    "contours.contour_from_family": ORACLE,
    "contours._finite": ORACLE,
    "contours._interval_plaus": ORACLE,
    "contours.plausibility": ORACLE,
    "contours._merge_intervals": ORACLE,
    "contours._complement": ORACLE,
    "contours.belief": ORACLE,
    "contours._crossing": ORACLE,
    "contours._anderson_bjorck": ORACLE,
    "contours._region_from_values": ORACLE,
    "contours._region_from_values.crossing": ORACLE,
    "contours.plausibility_region": ORACLE,
    "contours.marginal_contour": ORACLE,
    "contours.marginal_region": ORACLE,
    "contours.marginal_region.marg": ORACLE,
    "fusion._cached_draws": ORACLE,
    "fusion.alpha_index": ORACLE,
    "fusion.theta_specific_plaus": ORACLE,
    "fusion.fused_contour": ORACLE,
    "fusion.fused_contour.plaus": ORACLE,
    "fusion.check_nested_support": ORACLE,
    "fusion.CompatibilityReport.compatible": ORACLE,
    "models.ModelBundle.candidates_for": ORACLE,
    "models.dkw_bundle.containment_candidates": ORACLE,
    "models.behrens_fisher.association.forward": ORACLE,
    "models.behrens_fisher.association.focal": ORACLE,
    "models.behrens_fisher.random_set.mass": ORACLE,
    "models.binomial.family.center": ORACLE,
    "models.binomial.association.focal": ORACLE,
    "models.binomial.exact_mass": ORACLE,
    "models.dkw.StepFn.__call__": ORACLE,
    "models.dkw.StepFn.quantile": ORACLE,
    "models.dkw.random_set.mass": ORACLE,
    "models.dkw.association.focal": ORACLE,
    "models.normal_mean.abs_fiber": ORACLE,
    "models.normal_mean.abs_contour": ORACLE,
    "models.normal_mean.abs_contour.fn": ORACLE,
    # names perfbench/tracer.py patches or perfbench/workloads.py reads
    "audit.ks_uniform": PERFBENCH,
    "distributions.cdf": PERFBENCH,
    "fusion.focal_set": PERFBENCH,
    "fusion.support_mass": PERFBENCH,
    "fusion.NestednessReport.passed": PERFBENCH,
    "mc.MCConfig.with_reps": PERFBENCH,
    "models.behrens_fisher.pivotal_draws": PERFBENCH,
    "models.dkw.ks_null_sample": PERFBENCH,
}


def _cli_commands() -> list[list[str]]:
    """``perfbench/run.py``'s ``CLI_COMMANDS`` argv lists, read as literals."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CLI_COMMANDS" for t in node.targets):
            return [list(argv) for argv, _rows, _artifact in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/run.py defines no CLI_COMMANDS")


def _functions() -> dict[tuple[pathlib.Path, int], tuple[str, int]]:
    """``(file, first line) -> (qualified name, lines)`` for every function
    under ``src/confbel``, nested ones included.  A decorated function's
    code object starts at its first decorator."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        module = module.removesuffix("__init__").rstrip(".")

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                    out[(path, first)] = (prefix + child.name, child.end_lineno - first + 1)
                    walk(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8")), f"{module}." if module else "")
    return out


def _reached(tmp_path) -> set[tuple[pathlib.Path, int]]:
    """``(file, first line)`` of every code object called while ``confbel``
    is imported afresh and runs each command; the modules the rest of the
    suite holds are put back afterwards."""
    ours = lambda name: name == "confbel" or name.startswith("confbel.")  # noqa: E731
    held = {name: mod for name, mod in sys.modules.items() if ours(name)}
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    for name in held:
        del sys.modules[name]
    sys.setprofile(hook)
    try:
        cli = importlib.import_module("confbel.cli")
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        for k, argv in enumerate([*_cli_commands(), ["audit", "--model", "dkw"]]):
            draws = ["--reps", "500"] if "--reps" in commands[argv[0]]._option_string_actions else []
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, *draws, "--out", str(tmp_path / f"{k}.csv")])
            assert code == 0, argv
    finally:
        sys.setprofile(previous)
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(held)
    return {(pathlib.Path(c.co_filename).resolve(), c.co_firstlineno) for c in seen}


def test_every_function_is_reached_or_in_the_ledger(tmp_path, monkeypatch):
    monkeypatch.delenv("CONFBEL_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    functions = _functions()
    reached = _reached(tmp_path)
    unreached = {name for key, (name, _lines) in functions.items() if key not in reached}
    names = {name for name, _lines in functions.values()}
    assert set(LEDGER.values()) <= {OPTION, ORACLE, PERFBENCH}
    assert sorted(set(LEDGER) - names) == [], "ledger entries that name no function"
    assert sorted(set(LEDGER) - set(unreached)) == [], "ledger entries a command reaches"
    assert sorted(set(unreached) - set(LEDGER)) == [], "functions no command reaches and the ledger does not name"
