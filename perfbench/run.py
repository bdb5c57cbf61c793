#!/usr/bin/env python3
"""Benchmark of confbel: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (it imports ``confbel`` from ``src``).
Workloads: replicate_sweep, generic_route, validity_audit, cli_batch; see
``perfbench/README.md`` for what each one loads and why.  Every unit's output
is checked against a reference, and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (setup_s, units_per_s,
peak_rss_mb, ok_frac), measured over whole rounds of units for at least
``--seconds``.  With ``--trace 1`` they are the per-layer ones, from a traced
pass over a fixed number of rounds (one pass of every command for cli_batch)
after an untraced pass over the same rounds; spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import slowdown  # noqa: E402
from layers import layer_self_times, per_layer  # noqa: E402
from selftest import check_synthetic  # noqa: E402

WORKLOADS = ("replicate_sweep", "generic_route", "validity_audit", "cli_batch")
# Set-up is measured in this many fresh processes per run (the median is
# reported); a cold command-line import is short, so it gets more samples.
SETUP_SAMPLES = {"cli_batch": 7}
DEFAULT_SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

# Every command the parser offers, at its defaults; ``coverage`` at each
# model's hint truth.  (argv, expected artifact rows, artifact file)
CLI_COMMANDS = (
    (["fig1"], 5000, "confbel_fig1.csv"),
    (["binom"], 512, "confbel_binom.csv"),
    (["bf"], 201, "confbel_bf.csv"),
    (["dkw"], 799, "confbel_dkw.csv"),
    (["fieller"], 1, "confbel_fieller.csv"),
    (["fieller", "--curve"], 201, "confbel_fieller.csv"),
    (["uniform"], 512, "confbel_uniform.csv"),
    (["audit", "--model", "binomial"], 63, "confbel_audit.csv"),
    (["audit", "--model", "behrens_fisher"], 7, "confbel_audit.csv"),
    (["audit", "--model", "normal_mean"], 14, "confbel_audit.csv"),
    (["audit", "--model", "uniform_loc"], 14, "confbel_audit.csv"),
    (["coverage", "--model", "binomial", "--theta", "0.1"], 1, "confbel_coverage.csv"),
    (["coverage", "--model", "uniform_loc", "--theta", "0"], 1, "confbel_coverage.csv"),
    (["coverage", "--model", "normal_mean", "--theta", "0"], 1, "confbel_coverage.csv"),
    (["coverage", "--model", "behrens_fisher", "--theta", "0,0,4,1"], 1, "confbel_coverage.csv"),
    (["coverage", "--model", "dkw"], 1, "confbel_coverage.csv"),
    (["coverage", "--model", "fieller"], 1, "confbel_coverage.csv"),
)
# (argv, exit code, text in stderr): open defects, counted as failed.
CLI_KNOWN_DEFECTS = {("coverage", "--model", "dkw"): (1, "AttributeError")}


class BenchError(RuntimeError):
    pass


def child_env(root: str, confbel_seed: int | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("CONFBEL_SEED", None)
    if confbel_seed is not None:
        env["CONFBEL_SEED"] = str(confbel_seed)
    return env


def worker(root: str, *args) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
        cwd=root, env=child_env(root), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish(proc: subprocess.Popen, what: str) -> dict:
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what}: timed out")
    if proc.returncode != 0:
        raise BenchError(f"{what}: exit {proc.returncode}\n{err[-2000:]}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def timed_setup(root: str, *args) -> tuple[float, subprocess.Popen]:
    """Start a worker and time it from spawn until it reports READY."""
    t0 = time.perf_counter()
    proc = worker(root, *args)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, f"worker {args[0]} {args[1]}")
        raise BenchError(f"worker {args[0]} {args[1]} did not report READY")
    return setup_s, proc


def setup_samples(root: str, workload: str, seed: int, n: int) -> list[float]:
    samples = []
    for _ in range(n):
        slow = slowdown()
        setup_s, proc = timed_setup(root, "setup", workload, seed)
        finish(proc, f"set-up of {workload}")
        samples.append(setup_s / slow)
    return samples


# --------------------------------------------------------------------------
# cli_batch


def count_rows(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        body = [line for line in fh if not line.startswith("#") and line.strip()]
    return len(list(csv.DictReader(body)))


def cli_pass(root: str, workdir: str, seed: int, n_pass: int, spans_dir: str | None = None) -> list[dict]:
    """Every command once, in an order drawn from the seed, each in a fresh
    process; traced when ``spans_dir`` is given."""
    order = list(CLI_COMMANDS)
    random.Random(seed * 7919 + n_pass).shuffle(order)
    env = child_env(root, confbel_seed=(seed * 1009 + n_pass) % (1 << 63))
    results = []
    slow = slowdown()
    for k, (argv, rows, artifact) in enumerate(order):
        if spans_dir is None:
            cmd = [sys.executable, "-m", "confbel.cli", *argv]
        else:
            spans = os.path.join(spans_dir, f"{n_pass}-{k}-{'_'.join(argv)}.jsonl")
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), "cli", spans, *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"confbel {' '.join(argv)} timed out") from exc
        wall = time.perf_counter() - t0
        slow_after = slowdown()
        result = {"argv": argv, "wall_s": wall, "corrected_wall_s": wall / (0.5 * (slow + slow_after))}
        slow = slow_after
        if spans_dir is not None:
            if proc.returncode != 0:
                raise BenchError(f"traced run of {argv} failed\n{proc.stderr[-2000:]}")
            result["trace"] = json.loads(proc.stdout.strip().splitlines()[-1])
            rc = result["trace"]["rc"]
        else:
            rc = proc.returncode
        path = os.path.join(workdir, artifact)
        known = CLI_KNOWN_DEFECTS.get(tuple(argv))
        if rc == 0 and os.path.exists(path) and count_rows(path) == rows:
            result["outcome"] = "ok"
        elif known is not None and rc == known[0] and known[1] in proc.stderr:
            result["outcome"] = "known"
        else:
            result["outcome"] = f"exit {rc}: {proc.stderr.strip()[-300:]}"
        result["rc"] = rc
        if os.path.exists(path):
            os.unlink(path)
        results.append(result)
    return results


def cli_phase(root: str, seed: int, seconds: float, spans_dir: str | None = None) -> dict:
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=os.path.join(root, ".bench_out"))
    try:
        results = []
        rates, raw = [], []  # one per pass, as the in-process workloads do per round
        t0 = time.perf_counter()
        while True:
            done = cli_pass(root, workdir, seed, len(rates), spans_dir)
            results.extend(done)
            rates.append(len(done) / sum(r["corrected_wall_s"] for r in done))
            raw.append(len(done) / sum(r["wall_s"] for r in done))
            if time.perf_counter() - t0 >= seconds:
                break
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = [r for r in results if r["outcome"] not in ("ok", "known")]
    known = sum(r["outcome"] == "known" for r in results)
    return {
        "results": results,
        "attempted": len(results),
        "failed": len(bad) + known,
        "unexpected": len(bad),
        "unexpected_details": [f"{' '.join(r['argv'])}: {r['outcome']}" for r in bad[:20]],
        "known": {"coverage --model dkw AttributeError": known} if known else {},
        "units_per_s": statistics.median(rates),
        "raw_units_per_s": statistics.median(raw),
        "elapsed_s": elapsed,
        "rounds": len(rates),
    }


# --------------------------------------------------------------------------
# Runs


def end_to_end(root: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    n_setup = SETUP_SAMPLES.get(workload, DEFAULT_SETUP_SAMPLES)
    if workload == "cli_batch":
        setups = setup_samples(root, workload, seed, n_setup)
        phase = cli_phase(root, seed, seconds)
        phase["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        slow = slowdown()
        setup_s, proc = timed_setup(root, "timed", workload, seed, seconds)
        phase = finish(proc, f"timed {workload}")
        setups = [setup_s / slow] + setup_samples(root, workload, seed, n_setup - 1)
    phase["setup_samples_s"] = setups
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "units_per_s": {"value": phase["units_per_s"], "unit": "units/s"},
        "peak_rss_mb": {"value": phase["peak_rss_mb"], "unit": "MB"},
        "ok_frac": {"value": 1.0 - phase["failed"] / phase["attempted"], "unit": "ratio"},
    }
    return metrics, phase


def traced(root: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from a fixed amount of work; ``seconds`` is unused."""
    out_dir = os.path.join(root, ".bench_out")
    if workload == "cli_batch":
        base = cli_phase(root, seed, 0.0)
        spans_dir = os.path.join(out_dir, f"spans-cli_batch-seed{seed}")
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
        phase = cli_phase(root, seed, 0.0, spans_dir)
        spans: dict = {}
        counts: dict = {}
        walls: dict = {}
        imports = []
        for r in phase["results"]:
            t = r["trace"]
            for name, (calls, own) in t["spans"].items():
                entry = spans.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += own
            for name, value in t["counts"].items():
                counts[name] = counts.get(name, 0) + value
            walls[r["argv"][0]] = walls.get(r["argv"][0], 0.0) + t["wall_s"]
            imports.append(t["import_s"])
        cli = {
            "import_s": statistics.median(imports),
            "wall_s": walls,
            "exit_nonzero": sum(r["rc"] != 0 for r in phase["results"]),
        }
        phase["traced_wall_s"] = sum(walls.values())
        untraced_rate = base["units_per_s"]
    else:
        spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
        phase = finish(worker(root, "traced", workload, seed, spans_path), f"traced {workload}")
        spans, counts, cli = phase["spans"], phase["counts"], None
        untraced_rate = phase["untraced_units_per_s"]
    phase["layers"] = layer_self_times(spans)
    overhead = 1.0 - phase["units_per_s"] / untraced_rate
    return per_layer(spans, counts, cli, overhead), phase


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpus": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < (1 << 63):
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "confbel", "__init__.py")):
        print("error: run from the root of a confbel checkout (src/confbel not found)", file=sys.stderr)
        return 2
    # One CPU for this process and every child: the calibration kernel must
    # run on the processor the timed work runs on.
    cpu = None
    if hasattr(os, "sched_setaffinity"):
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    try:
        if args.trace:
            check_synthetic()
        run = traced if args.trace else end_to_end
        metrics, phase = run(root, args.workload, args.seed, args.seconds)
    except (BenchError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps(environment(args.workload, args.seed, args.seconds, args.trace) | {"pinned_cpu": cpu}))
    summary = {k: v for k, v in phase.items() if k not in ("results", "spans", "counts")}
    print("phase " + json.dumps(summary))
    print(f"failed_frac = {phase['failed'] / phase['attempted']!r} ({phase['failed']} of {phase['attempted']} units)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": phase["unexpected"] == 0,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
