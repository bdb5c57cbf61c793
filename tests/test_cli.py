"""End-to-end runs of the batch command line: artifacts, metadata, seed
resolution, config files, and exit codes."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import confbel
from confbel.cli import SEED_ENV_VAR, build_parser, main
from confbel.models import dkw
from confbel.reportio import read_csv

FIELLER_LOWER = -0.048111552939992403
FIELLER_UPPER = 0.14908123008219377


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def test_fig1_artifact(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--out", str(out), "--reps", "300", "--seed", "5"]) == 0
    meta, rows = read_csv(out)
    assert meta["command"] == "fig1"
    assert meta["seed"] == "5"
    assert meta["seed_source"] == "flag"
    assert meta["opt_reps"] == "300"
    assert meta["opt_theta"] == "0.5"
    assert 0.0 < float(meta["ks_uniform"]) < 1.0
    assert len(rows) == 300
    assert set(rows[0]) == {"cd_value", "uniform_position"}


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["fig1", "--reps", "200", "--seed", "8"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_source_default(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["fig1", "--out", str(out), "--reps", "50"]) == 0
    meta, _ = read_csv(out)
    assert meta["seed"] == "0"
    assert meta["seed_source"] == "default"


def test_seed_source_env(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "42")
    out = tmp_path / "o.csv"
    assert main(["fig1", "--out", str(out), "--reps", "50"]) == 0
    meta, _ = read_csv(out)
    assert meta["seed"] == "42"
    assert meta["seed_source"] == "env"


def test_env_seed_must_be_integer(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "abc")
    assert main(["fig1", "--out", str(tmp_path / "o.csv"), "--reps", "50"]) == 2


def test_config_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 9\nreps = 123  # comment survives\n")
    out = tmp_path / "o.csv"
    assert main(["fig1", "--out", str(out), "--config", str(cfg)]) == 0
    meta, rows = read_csv(out)
    assert meta["seed"] == "9"
    assert meta["seed_source"] == "config"
    assert len(rows) == 123

    out2 = tmp_path / "o2.csv"
    assert main(["fig1", "--out", str(out2), "--config", str(cfg), "--seed", "3", "--reps", "50"]) == 0
    meta2, rows2 = read_csv(out2)
    assert meta2["seed"] == "3"
    assert meta2["seed_source"] == "flag"
    assert len(rows2) == 50


def test_config_file_errors(tmp_path):
    assert main(["fig1", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "o.csv")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no delimiter\n")
    assert main(["fig1", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 2


@pytest.mark.parametrize("text, key", [("lambdas = 11\n", "lambdas"), ("rep = 5\n", "rep")])
def test_config_key_naming_no_option_exits_2(tmp_path, capsys, text, key):
    # `lambdas` was a bf option once; `rep` is a misspelling of `reps`.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "o.csv"
    assert main(["bf", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and str(cfg) in err
    assert not out.exists()


def test_binom_artifact(tmp_path):
    out = tmp_path / "binom.csv"
    assert main(["binom", "--out", str(out)]) == 0
    meta, rows = read_csv(out)
    assert len(rows) == 512
    assert set(rows[0]) == {"theta", "cp_contour", "im_contour"}
    assert float(meta["max_gap"]) > 0.02
    cp = np.asarray([float(r["cp_contour"]) for r in rows])
    im = np.asarray([float(r["im_contour"]) for r in rows])
    assert np.all(im <= cp + 1e-12)


def test_binom_x_out_of_range(tmp_path):
    assert main(["binom", "--x", "40", "--out", str(tmp_path / "o.csv")]) == 2


def test_bf_artifact(tmp_path):
    out = tmp_path / "bf.csv"
    argv = [
        "bf", "--out", str(out), "--reps", "400", "--grid-points", "21", "--seed", "2",
    ]
    assert main(argv) == 0
    meta, rows = read_csv(out)
    assert len(rows) == 21
    assert list(rows[0]) == [
        "phi", "hs_contour", "lambda_0", "lambda_0.25", "lambda_0.5",
        "lambda_0.75", "lambda_1", "marginal",
    ]
    # the fused marginal is the interval contour itself
    assert all(r["marginal"] == r["hs_contour"] for r in rows)
    assert float(meta["max_abs_gap"]) == 0.0


def test_dkw_artifact(tmp_path):
    out = tmp_path / "dkw.csv"
    assert main(["dkw", "--out", str(out), "--n", "60", "--reps", "2000", "--seed", "3"]) == 0
    meta, rows = read_csv(out)
    assert len(rows) == 60
    assert set(rows[0]) == {"x", "ecdf", "lower", "upper"}
    assert float(meta["delta"]) == pytest.approx(dkw.dkw_delta(60, 0.05), abs=1e-7)
    assert float(meta["lower_band_alpha_index"]) == pytest.approx(0.05, abs=0.02)


def test_dkw_reads_raw_data_file(tmp_path):
    data = tmp_path / "values.csv"
    data.write_text("value\n" + "\n".join(f"{v:.4f}" for v in np.linspace(0.1, 3.0, 12)) + "\n")
    out = tmp_path / "dkw.csv"
    assert main(["dkw", "--data", str(data), "--out", str(out), "--reps", "500"]) == 0
    meta, rows = read_csv(out)
    assert meta["n"] == "12"
    assert len(rows) == 12


def test_fieller_default_is_single_coverage_row(tmp_path):
    out = tmp_path / "fieller.csv"
    argv = [
        "fieller", "--theta", "1,20", "--alpha", "0.05", "--reps", "2000",
        "--out", str(out), "--seed", "11",
    ]
    assert main(argv) == 0
    meta, rows = read_csv(out)
    assert len(rows) == 1
    assert set(rows[0]) == {"theta", "alpha", "estimate", "se", "reps"}
    assert rows[0]["theta"] == "(1, 20)"
    assert float(rows[0]["estimate"]) == pytest.approx(0.95, abs=0.03)
    assert float(meta["interval_lower"]) == pytest.approx(FIELLER_LOWER, abs=1e-6)
    assert float(meta["interval_upper"]) == pytest.approx(FIELLER_UPPER, abs=1e-6)
    assert float(meta["mass_at_infinity"]) < 1e-20
    assert meta["opt_theta"] == "1,20"


def test_fieller_curve_mode(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["fieller", "--curve", "--grid-points", "41", "--reps", "200", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 41
    g = np.asarray([float(r["g"]) for r in rows])
    assert np.all(np.diff(g) > 0.0)


def test_fieller_bad_theta(tmp_path):
    assert main(["fieller", "--theta", "1,2,3", "--out", str(tmp_path / "o.csv")]) == 2
    assert main(["fieller", "--theta", "spam", "--out", str(tmp_path / "o.csv")]) == 2


def test_fieller_nonmonotone_exits_3(tmp_path):
    out = tmp_path / "o.csv"
    argv = ["fieller", "--x1", "1", "--x2", "0.1", "--alpha", "0.95", "--reps", "50", "--out", str(out)]
    assert main(argv) == 3
    assert not out.exists()


def test_uniform_artifact(tmp_path):
    out = tmp_path / "uniform.csv"
    argv = ["uniform", "--out", str(out), "--reps", "1000", "--seed", "4", "--grid-points", "101"]
    assert main(argv) == 0
    meta, rows = read_csv(out)
    assert len(rows) == 101
    assert set(rows[0]) == {"theta", "contour", "in_region"}
    assert meta["compatibility"] == "compatible"
    assert float(meta["coverage_estimate"]) == pytest.approx(0.95, abs=0.03)


def test_uniform_alpha_out_of_range_exits_2(tmp_path):
    assert main(["uniform", "--alpha", "1.5", "--out", str(tmp_path / "o.csv")]) == 2


def test_audit_artifact(tmp_path):
    out = tmp_path / "audit.csv"
    argv = ["audit", "--model", "uniform_loc", "--reps", "500", "--out", str(out), "--seed", "6"]
    assert main(argv) == 0
    _, rows = read_csv(out)
    assert len(rows) == 2 * 7  # two truth points, seven alpha levels


def _model_choices(command: str) -> list[str]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return list(next(a.choices for a in sub.choices[command]._actions if a.dest == "model"))


def test_every_audit_model_choice_exits_0(tmp_path):
    models = _model_choices("audit")
    assert "dkw" in models  # its CDF truth is labelled by name
    for model in models:
        out = tmp_path / f"audit_{model}.csv"
        assert main(["audit", "--model", model, "--reps", "200", "--seed", "3", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows
    _, rows = read_csv(tmp_path / "audit_dkw.csv")
    assert {r["label"] for r in rows} == {"Exp(1)"}


def test_coverage_subcommand(tmp_path):
    out = tmp_path / "cov.csv"
    argv = [
        "coverage", "--model", "binomial", "--theta", "0.3", "--alpha", "0.1",
        "--reps", "2000", "--seed", "5", "--out", str(out),
    ]
    assert main(argv) == 0
    meta, rows = read_csv(out)
    assert len(rows) == 1
    assert meta["opt_model"] == "binomial"
    assert float(rows[0]["estimate"]) >= 0.9 - 0.03  # exact-tail family is conservative


@pytest.mark.parametrize(
    "model, theta, size",
    [("binomial", "1,20", 1), ("uniform_loc", "1,20", 1), ("normal_mean", "1,20", 1),
     ("behrens_fisher", "1,20", 4), ("fieller", "1", 2)],
)
def test_coverage_truth_of_wrong_length_exits_2(model, theta, size, tmp_path, capsys):
    # "1,20", the default, is fieller's truth; no other model takes two values
    out = tmp_path / "cov.csv"
    argv = ["coverage", "--model", model, "--reps", "200", "--seed", "1", "--out", str(out)]
    assert main(argv + (["--theta", theta] if model == "fieller" else [])) == 2
    err = capsys.readouterr().err
    assert f"truth of {size} comma-separated value(s), got '{theta}'" in err
    assert not out.exists()


def test_coverage_unknown_model_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["coverage", "--model", "nope", "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2


def test_json_format(tmp_path):
    out = tmp_path / "fig1.json"
    assert main(["fig1", "--out", str(out), "--format", "json", "--reps", "80", "--seed", "1"]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"metadata", "rows"}
    assert doc["metadata"]["command"] == "fig1"
    assert len(doc["rows"]) == 80


def test_cli_import_loads_no_optimize_or_integrate():
    mods = "('scipy.optimize', 'scipy.integrate', 'scipy.stats')"
    code = f"import sys, confbel.cli; print(sorted(m for m in {mods} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(confbel.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_dkw_exact_law_loads_no_scipy_stats(tmp_path):
    # the dkw contour reads its own K_n law for n > 140, so neither the
    # command at its defaults (n = 799) nor the bundle pays the scipy.stats import
    out = str(tmp_path / "dkw.csv")
    code = "\n".join([
        "import sys",
        "from confbel.cli import main",
        "from confbel.mc import MCConfig",
        "from confbel.models import dkw_bundle",
        f"assert main(['dkw', '--out', {out!r}]) == 0",
        "b = dkw_bundle()",
        "truth = b.theta_grid_hint[0]",
        "x = b.data_replicates(truth, 1, MCConfig(reps=1, seed=3))[0]",
        "b.plaus_grid(x, b.candidates_for(x))",
        "b.contour_at_truth(b.sampling.sample(truth, MCConfig(reps=200, seed=4)), truth)",
        "print('scipy.stats' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(confbel.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False"
    assert os.path.exists(out)
