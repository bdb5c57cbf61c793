"""End-to-end runs of the batch command line: artifacts, metadata, seed
resolution, config files, and exit codes."""

from __future__ import annotations

import argparse
import errno
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import confbel
from confbel.cli import SEED_ENV_VAR, build_parser, main
from confbel.models import binomial, dkw
from confbel.reportio import read_csv

FIELLER_LOWER = -0.048111552939992403
FIELLER_UPPER = 0.14908123008219377


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def test_fig1_artifact(tmp_path):
    # the exact law of H_X(|theta|) on a fixed 5 000-point grid; nothing is drawn
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--out", str(out)]) == 0
    meta, rows = read_csv(out)
    assert meta["command"] == "fig1"
    assert not {"seed", "seed_source", "opt_reps"} & set(meta)
    assert meta["opt_theta"] == "0.5"
    assert meta["ks_uniform"] == "0.617075"  # 2 Phi(-0.5)
    assert len(rows) == 5000
    assert set(rows[0]) == {"cd_value", "uniform_position"}
    values = [float(r["cd_value"]) for r in rows]
    assert values == sorted(values)
    assert float(rows[-1]["uniform_position"]) == 1.0


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["uniform", "--reps", "200", "--seed", "8"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_source_default(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["uniform", "--out", str(out), "--reps", "50"]) == 0
    meta, _ = read_csv(out)
    assert meta["seed"] == "0"
    assert meta["seed_source"] == "default"


def test_seed_source_env(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "42")
    out = tmp_path / "o.csv"
    assert main(["uniform", "--out", str(out), "--reps", "50"]) == 0
    meta, _ = read_csv(out)
    assert meta["seed"] == "42"
    assert meta["seed_source"] == "env"


def test_env_seed_must_be_integer(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "abc")
    assert main(["uniform", "--out", str(tmp_path / "o.csv"), "--reps", "50"]) == 2


def test_config_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 9\nreps = 123  # comment survives\n")
    out = tmp_path / "o.csv"
    assert main(["uniform", "--out", str(out), "--config", str(cfg)]) == 0
    meta, _ = read_csv(out)
    assert meta["seed"] == "9"
    assert meta["seed_source"] == "config"
    assert meta["opt_reps"] == "123"

    out2 = tmp_path / "o2.csv"
    assert main(["uniform", "--out", str(out2), "--config", str(cfg), "--seed", "3", "--reps", "50"]) == 0
    meta2, _ = read_csv(out2)
    assert meta2["seed"] == "3"
    assert meta2["seed_source"] == "flag"
    assert meta2["opt_reps"] == "50"


def test_config_file_errors(tmp_path):
    assert main(["fig1", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "o.csv")]) == 2
    assert main(["fig1", "--config", str(tmp_path), "--out", str(tmp_path / "o.csv")]) == 2  # a directory
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


@pytest.mark.parametrize("command", ["binom", "dkw", "bf"])
def test_reps_is_no_option_of_exact_commands(tmp_path, capsys, command):
    # binom, dkw and bf draw nothing, so none takes --reps, on the command line or in a config file
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, "--reps", "5", "--out", str(out)])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("reps = 5\n")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "reps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fig1", "binom", "dkw", "bf"])
def test_seed_is_no_option_of_exact_commands(tmp_path, capsys, monkeypatch, command):
    # fig1, binom, dkw and bf draw nothing: --seed and a config file's seed exit 2,
    # the environment's seed is not read, and the artifact records no seed
    out = tmp_path / "o.csv"
    assert _exit_code([command, "--seed", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --seed 5" in err and "Traceback" not in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\n")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}: {command} has no option seed" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setenv(SEED_ENV_VAR, "not a seed")
    assert main([command, "--out", str(out)]) == 0
    meta, _ = read_csv(out)
    assert not {"seed", "seed_source"} & set(meta)


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


def test_binom_large_n_holds_one_grid_of_tails(tmp_path):
    # the fused contour keeps O(grid) tails: a table of every outcome's tail
    # at n = 100 000 would hold (n + 1) x 512 floats, about 0.4 GB an array
    out = tmp_path / "binom.csv"
    tracemalloc.start()
    try:
        assert main(["binom", "--n", "100000", "--x", "30000", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    _, rows = read_csv(out)
    assert len(rows) == 512


def test_binom_x_out_of_range(tmp_path):
    assert main(["binom", "--x", "40", "--out", str(tmp_path / "o.csv")]) == 2


def test_bf_artifact(tmp_path):
    out = tmp_path / "bf.csv"
    argv = [
        "bf", "--out", str(out), "--grid-points", "21",
    ]
    assert main(argv) == 0
    meta, rows = read_csv(out)
    assert len(rows) == 21
    assert list(rows[0]) == [
        "phi", "hs_contour", "lambda_0", "lambda_0.25", "lambda_0.5",
        "lambda_0.75", "lambda_1",
    ]
    # the fused marginal is hs_contour itself (test_behrens_fisher.py), so no
    # column or header line copies it; the slices are exact, so nothing is
    # drawn and no seed or replication count is recorded
    assert "max_abs_gap" not in meta
    assert not {"opt_reps", "seed", "seed_source"} & set(meta)


def test_dkw_artifact(tmp_path):
    out = tmp_path / "dkw.csv"
    assert main(["dkw", "--out", str(out), "--n", "60"]) == 0
    meta, rows = read_csv(out)
    assert len(rows) == 60
    assert set(rows[0]) == {"x", "ecdf", "lower", "upper"}
    assert float(meta["delta"]) == pytest.approx(dkw.dkw_delta(60, 0.05), abs=1e-7)
    assert float(meta["lower_band_alpha_index"]) == pytest.approx(0.05, abs=0.02)


def test_dkw_reads_raw_data_file(tmp_path):
    data = tmp_path / "values.csv"
    data.write_text("value\n" + "\n".join(f"{v:.4f}" for v in np.linspace(0.1, 3.0, 12)) + "\n")
    out = tmp_path / "dkw.csv"
    assert main(["dkw", "--data", str(data), "--out", str(out)]) == 0
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


def test_fieller_through_the_dip_exits_0(tmp_path):
    # the levels 0.475 and 0.525 lie beyond the dip, so both ends are finite
    out = tmp_path / "o.csv"
    argv = ["fieller", "--x1", "1", "--x2", "0.1", "--alpha", "0.95", "--reps", "50", "--out", str(out)]
    assert main(argv) == 0
    meta, _ = read_csv(out)
    assert (meta["interval_lower"], meta["interval_upper"]) == ("6.1147195", "26.84583")


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
    # the parser rejects the level, so argparse exits 2 before main returns
    assert _exit_code(["uniform", "--alpha", "1.5", "--out", str(tmp_path / "o.csv")]) == 2


def test_audit_artifact(tmp_path):
    out = tmp_path / "audit.csv"
    argv = ["audit", "--model", "uniform_loc", "--reps", "500", "--out", str(out), "--seed", "6"]
    assert main(argv) == 0
    _, rows = read_csv(out)
    assert len(rows) == 2 * 7  # two truth points, seven alpha levels


def _model_choices(command: str, dest: str = "model") -> list[str]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return list(next(a.choices for a in sub.choices[command]._actions if a.dest == dest))


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
    # "1,20" is fieller's truth; no other model takes two values
    out = tmp_path / "cov.csv"
    argv = ["coverage", "--model", model, "--theta", theta, "--reps", "200", "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"truth of {size} comma-separated value(s), got '{theta}'" in err
    assert not out.exists()


@pytest.mark.parametrize("theta", ["Exp(2)", "1,20", "0"])
def test_coverage_dkw_truth_names_a_hint_truth(theta, tmp_path, capsys):
    out = tmp_path / "cov.csv"
    assert main(["coverage", "--model", "dkw", "--theta", theta, "--reps", "20", "--out", str(out)]) == 2
    assert f"takes a truth named Exp(1), got '{theta}'" in capsys.readouterr().err
    assert not out.exists()


def _exit_code(argv) -> int:
    # argparse rejects a value by raising SystemExit(2); the commands return 2
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dkw", "--alpha", "1.5"], "alpha must lie strictly in (0, 1), got 1.5"),
        (["coverage", "--model", "normal_mean", "--theta", "nan", "--reps", "100"], "finite numbers, got 'nan'"),
        (["coverage", "--model", "behrens_fisher", "--theta", "0,0,-1,1", "--reps", "50"], "variances s1, s2 > 0"),
        (["dkw", "--n", "0"], "argument --n: expected an integer of at least 1, got '0'"),
        (["binom", "--n", "-3", "--x", "0"], "argument --n: expected an integer of at least 1, got '-3'"),
        (["uniform", "--n", "1"], "argument --n: expected an integer of at least 2, got '1'"),
        (["binom", "--out", "{tmp}/no/dir/x.csv"], "--out {tmp}/no/dir/x.csv: no such directory {tmp}/no/dir"),
        (["binom", "--out", "{tmp}"], "--out {tmp}: is a directory"),
        (["dkw", "--data", "{tmp}/no/such.csv"], "--data: [Errno 2] No such file or directory: '{tmp}/no/such.csv'"),
        (["dkw", "--data", "{tmp}"], "--data: [Errno 21] Is a directory: '{tmp}'"),
        (["dkw", "--data", "{tmp}/short.csv"], "--data: row 2 of '{tmp}/short.csv' has no number in column 'value'"),
        (["binom", "--grid-points", "1"], "argument --grid-points: expected an integer of at least 2, got '1'"),
        (["fieller", "--grid-points", "0"], "--grid-points: expected an integer of at least 2, got '0'"),
        (["fig1", "--reps", "5"], "unrecognized arguments: --reps 5"),
        (["bf", "--reps", "5"], "unrecognized arguments: --reps 5"),
        (["uniform", "--reps", "0"], "argument --reps: expected an integer of at least 1, got '0'"),
        (["bf", "--n1", "1"], "argument --n1: expected an integer of at least 2, got '1'"),
        (["bf", "--n2", "0"], "argument --n2: expected an integer of at least 2, got '0'"),
        (["uniform", "--seed", "-1", "--reps", "50"], "argument --seed: expected an integer of at least 0, got '-1'"),
        (["dkw", "--sample-seed", "-1"], "argument --sample-seed: expected an integer of at least 0, got '-1'"),
        (["uniform", "--alpha", "1.5"], "argument --alpha: alpha must lie strictly in (0, 1), got 1.5"),
        (["fieller", "--alpha", "0", "--reps", "50"], "argument --alpha: alpha must lie strictly in (0, 1), got 0.0"),
        (["coverage", "--alpha", "1", "--reps", "50"], "argument --alpha: alpha must lie strictly in (0, 1), got 1.0"),
        (["binom", "--x", "30"], "--x must lie in 0..25, got 30"),
        (["uniform", "--x1", "0.5", "--x2", "0.25", "--reps", "50"], "--x2 must be at least --x1, got 0.25 < 0.5"),
        (["uniform", "--x1", "0.2", "--x2", "1.5", "--reps", "50"], "--x2 must be at most --x1 + 1, got 1.5 > 0.2 + 1"),
        (["audit", "--alphas", "0", "--reps", "50"], "--alphas: alpha must lie strictly in (0, 1), got 0.0"),
        (["bf", "--lambda-cols", "2"], "--lambda-cols: each lambda must lie in [0, 1], got '2'"),
        (["bf", "--v1", "-1"], "argument --v1: expected a positive finite number, got '-1'"),
        (["coverage", "--model", "binomial", "--theta", "1.5"], "binomial requires p in [0, 1], got 1.5"),
        (["fieller", "--theta", "1,0", "--reps", "50"], "--theta: theta_2 = 0 has no defined ratio"),
        (["coverage", "--theta", "1,0", "--reps", "50"], "--theta: theta_2 = 0 has no defined ratio"),
        (["fieller", "--curve", "--phi-lo", "1", "--phi-hi", "0"], "--phi-hi must exceed --phi-lo, got 0.0 <= 1.0"),
        (["uniform", "--seed", str(2**64), "--reps", "50"], "argument --seed: expected an integer below 2**64"),
    ],
    ids=[
        "dkw_alpha", "coverage_nan_truth", "coverage_negative_variance", "dkw_n", "binom_n", "uniform_n",
        "out_in_missing_directory", "out_is_a_directory", "data_missing", "data_is_a_directory", "data_short_row",
        "binom_grid_points", "fieller_grid_points_without_curve", "fig1_reps", "bf_reps", "uniform_reps",
        "bf_n1", "bf_n2", "negative_seed", "negative_sample_seed", "uniform_alpha", "fieller_alpha", "coverage_alpha",
        "binom_x",
        "uniform_x2_below_x1", "uniform_range_above_1", "audit_alphas", "bf_lambda_cols", "bf_v1",
        "coverage_binomial_p", "fieller_theta2_zero", "coverage_fieller_theta2_zero", "fieller_phi_range", "seed_above_64_bits",
    ],
)
def test_out_of_domain_value_exits_2_without_artifact(argv, message, tmp_path, capsys):
    out = tmp_path / "o.csv"
    (tmp_path / "short.csv").write_text("id,value\n1,0.5\n2\n3,0.7\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(out)]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert message.format(tmp=tmp_path) in err and "Traceback" not in err
    assert not out.exists()
    assert not list(tmp_path.rglob(".confbel-*.tmp"))


def test_value_error_in_the_numerics_exits_3(tmp_path, monkeypatch, capsys):
    # a ValueError past the boundary checks is a numerical failure, not a
    # configuration error
    out = tmp_path / "o.csv"

    def fail(*args):
        raise ValueError("tail table out of range")

    monkeypatch.setattr(binomial, "im_contour", fail)
    assert main(["binom", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: tail table out of range" in err and "Traceback" not in err
    assert not out.exists()


def test_failed_write_exits_2_naming_out(tmp_path, monkeypatch, capsys):
    out = tmp_path / "o.csv"

    def full(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "replace", full)
    assert main(["binom", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--out {out}: {os.strerror(errno.ENOSPC)}" in err and "Traceback" not in err
    assert not out.exists() and not list(tmp_path.iterdir())


@pytest.mark.parametrize("where", ["config", "env"])
def test_negative_seed_from_config_or_env_exits_2(where, tmp_path, monkeypatch, capsys):
    out = tmp_path / "o.csv"
    argv = ["uniform", "--reps", "50", "--out", str(out)]
    if where == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -3\n")
        argv += ["--config", str(cfg)]
        source = f"seed in {cfg}"
    else:
        monkeypatch.setenv(SEED_ENV_VAR, "-3")
        source = SEED_ENV_VAR
    assert main(argv) == 2
    assert f"{source}: expected an integer of at least 0, got '-3'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config, code, rows, want",
    [
        (["uniform", "--rep", "7"], "reps = 20\n", 0, 512, {"opt_reps": "7"}),
        (["uniform", "--se", "5", "--reps", "10"], None, 0, 512, {"seed": "5", "seed_source": "flag"}),
        (["uniform"], "reps = 1e3\n", 2, None, None),
        (["fieller", "--reps", "50"], "curve = false\n", 0, 1, {}),
        (["fig1", "--theta", "nan"], None, 2, None, None),
        (["fieller", "--x1", "inf", "--reps", "50"], None, 2, None, None),
        (["fig1"], "theta = -inf\n", 2, None, None),
        (["fieller", "--curve", "--grid-points", "0", "--reps", "50"], None, 2, None, None),
        (["bf", "--grid-points", "5"], "lambda-cols = 0.5\n", 0, 5, {}),
    ],
    ids=[
        "abbreviated_flag_beats_config", "abbreviated_seed_flag", "config_int_written_as_float",
        "config_switch_off", "nan_flag", "inf_flag", "inf_config", "fieller_grid_of_0_points",
        "config_csv_option_of_one_number",
    ],
)
def test_options_parse_alike_from_flags_and_config(argv, config, code, rows, want, tmp_path, capsys):
    out = tmp_path / "o.csv"
    argv = argv + ["--out", str(out)]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    assert _exit_code(argv) == code
    assert "Traceback" not in capsys.readouterr().err
    if rows is None:
        assert not out.exists()
        return
    meta, got = read_csv(out)
    assert len(got) == rows
    assert {key: meta[key] for key in want} == want


def test_config_switch_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "o.csv"
    argv = ["fieller", "--reps", "50", "--grid-points", "11", "--config", str(cfg), "--out", str(out)]
    for text, rows in (("TRUE", 11), ("1", 11), ("0", 1), ("False", 1)):
        cfg.write_text(f"curve = {text}\n")
        assert main(argv) == 0
        assert len(read_csv(out)[1]) == rows
    out.unlink()
    cfg.write_text("curve = yes\n")
    assert _exit_code(argv) == 2
    assert "argument --curve: expected true, false, 1 or 0, got 'yes'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, dest, value",
    [("audit", "model", "nope"), ("coverage", "model", "nope"), ("fig1", "format", "xml")],
)
def test_config_value_outside_choices_exits_2(command, dest, value, tmp_path, capsys):
    # argparse checks choices on flags only; a config line gets the same message
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{dest} = {value}\n")
    out = tmp_path / "o.csv"
    option, choices = f"--{dest}", _model_choices(command, dest)
    draws = [] if command == "fig1" else ["--reps", "20"]  # fig1 draws nothing
    assert _exit_code([command, *draws, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"argument {option}: invalid choice: {value!r}" in err
    assert all(c in err.partition("choose from")[2] for c in choices)
    assert not out.exists()
    # a flag still wins over the file's value
    assert _exit_code([command, *draws, "--config", str(cfg), option, choices[0], "--out", str(out)]) == 0


def test_coverage_truth_from_config_file(tmp_path):
    # a config value that parses as a number is still the truth's text
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = normal_mean\ntheta = 0\nreps = 200\n")
    out = tmp_path / "cov.csv"
    assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows[0]["theta"] == "0"


def test_every_coverage_model_choice_exits_0(tmp_path):
    models = _model_choices("coverage")
    assert {"dkw", "fieller"} <= set(models)
    truths = {}
    for model in models:
        out = tmp_path / f"coverage_{model}.csv"
        assert main(["coverage", "--model", model, "--out", str(out)]) == 0
        meta, rows = read_csv(out)
        assert len(rows) == 1 and int(rows[0]["reps"]) == 10_000
        truths[model] = (meta["opt_theta"], rows[0]["theta"])
    # the default truth is the model's first hint truth, recorded as if given
    assert truths["dkw"] == ("Exp(1)", "Exp(1)")
    assert truths["fieller"] == ("1,20", "(1, 20)")
    assert truths["behrens_fisher"] == ("0,0,4,1", "(0, 0, 4, 1)")
    assert truths["binomial"] == ("0.1", "0.1")


def test_coverage_unknown_model_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["coverage", "--model", "nope", "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2


def test_json_format(tmp_path):
    out = tmp_path / "uniform.json"
    assert main(["uniform", "--out", str(out), "--format", "json", "--reps", "80", "--seed", "1"]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"metadata", "rows"}
    assert doc["metadata"]["command"] == "uniform"
    assert doc["metadata"]["opt_reps"] == 80
    assert len(doc["rows"]) == 512


def test_cli_loads_scipy_special_only_when_a_command_evaluates_it(tmp_path):
    # one cold process, read after each step: importing the cli, --version and
    # a usage error load no scipy at all; the five commands that evaluate no
    # special function finish without scipy.special; binom evaluates one
    out = str(tmp_path / "o.csv")
    quiet = ["dkw", "uniform", "audit --model uniform_loc", "coverage --model uniform_loc", "coverage --model dkw"]
    steps = ["--version", "binom --grid-points 1", *quiet, "binom"]
    code = "\n".join([
        "import json, sys",
        "import confbel.cli",
        "def state(code):",
        "    return [code, any(m.split('.')[0] == 'scipy' for m in sys.modules), 'scipy.special' in sys.modules]",
        "heavy = sorted(m for m in ('scipy.optimize', 'scipy.integrate', 'scipy.stats') if m in sys.modules)",
        "seen = {'import': state(0)}",
        f"for step in {steps!r}:",
        f"    argv = step.split() + ([] if step.startswith('-') else ['--out', {out!r}])",
        "    try:",
        "        code = confbel.cli.main(argv)",
        "    except SystemExit as exc:",
        "        code = exc.code",
        "    seen[step] = state(code)",
        "print(json.dumps([heavy, seen]))",
    ])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(confbel.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300,
                          cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    heavy, seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert heavy == []
    assert seen["import"] == [0, False, False]
    assert seen["--version"] == [0, False, False]
    assert seen["binom --grid-points 1"] == [2, False, False]
    for step in quiet:
        assert seen[step][0] == 0 and seen[step][2] is False, step
    assert seen["binom"] == [0, True, True]


def test_dkw_exact_law_loads_no_scipy_stats(tmp_path):
    # the dkw contour reads its own K_n law for n > 140, so neither the
    # commands at their defaults (n = 799) nor the bundle pays the scipy.stats
    # import; the two-sample slices are Gauss-Legendre tables, so bf and the
    # behrens_fisher audit load neither scipy.stats nor scipy.integrate, and
    # importing the cli does not load numpy.polynomial (1.8 MB)
    out = str(tmp_path / "dkw.csv")
    cov = str(tmp_path / "coverage.csv")
    code = "\n".join([
        "import json, sys",
        "from confbel.cli import main",
        "polynomial_at_import = 'numpy.polynomial' in sys.modules",
        "from confbel.mc import MCConfig",
        "from confbel.models import dkw_bundle",
        f"assert main(['dkw', '--out', {out!r}]) == 0",
        f"assert main(['coverage', '--model', 'dkw', '--out', {cov!r}]) == 0",
        "b = dkw_bundle()",
        "truth = b.theta_grid_hint[0]",
        "x = b.data_replicates(truth, 1, MCConfig(reps=1, seed=3))[0]",
        "b.plaus_grid(x, b.candidates_for(x))",
        "b.contour_at_truth(b.sampling.sample(truth, MCConfig(reps=200, seed=4)), truth)",
        "dkw_stats = 'scipy.stats' in sys.modules",
        f"assert main(['bf', '--out', {out!r}]) == 0",
        f"assert main(['audit', '--model', 'behrens_fisher', '--out', {cov!r}]) == 0",
        "heavy = sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules)",
        "print(json.dumps([dkw_stats, heavy, polynomial_at_import]))",
    ])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(confbel.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == [False, [], False]
    assert os.path.exists(out) and os.path.exists(cov)
