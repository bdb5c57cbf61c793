"""Committed benchmark records: every ``BENCH_*.json`` at the root.

A record holds the parent and change commits, every run a change cites (its
workload, seed, side, ``--trace`` value and ``run.py``'s last stdout line
verbatim), the ``env`` line ``perfbench/run.py`` printed for each run, in run
order, and per workload, side and metric the median and quartiles of the
``--trace 0`` runs.  The test checks that each file parses, that each run's
last line names exactly the metrics ``BENCHMARK.json`` declares for its
``--trace`` value, and that every summary recomputes from the runs.
"""

from __future__ import annotations

import json
import pathlib
import statistics

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def _declared() -> dict[int, set[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}


def summarize(values: list[float]) -> dict:
    """Median and quartiles, the quartiles by ``statistics.quantiles``'
    inclusive method (the median itself when there is one run)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summaries(runs: list[dict]) -> dict:
    """``{workload: {side: {metric: summary}}}`` over the ``--trace 0`` runs."""
    values: dict = {}
    for run in runs:
        if run["trace"] != 0:
            continue
        metrics = json.loads(run["last_line"])["metrics"]
        for name, m in metrics.items():
            values.setdefault(run["workload"], {}).setdefault(run["side"], {}).setdefault(name, []).append(m["value"])
    return {
        w: {side: {name: summarize(v) for name, v in sorted(by_name.items())} for side, by_name in by_side.items()}
        for w, by_side in values.items()
    }


def check(record: dict) -> None:
    """Assert that ``record`` is well formed and its summary is its runs'."""
    assert {"environment", "parent", "change", "runs", "summary"} <= set(record)
    assert len(record["environment"]) == len(record["runs"]) > 0
    declared = _declared()
    seen = set()
    for line, run in zip(record["environment"], record["runs"]):
        env = json.loads(line.removeprefix("env "))
        assert line.startswith("env ") and (env["workload"], env["seed"], env["trace"]) == (
            run["workload"], run["seed"], run["trace"]
        )
        assert run["side"] in SIDES and run["trace"] in declared
        key = (run["workload"], run["seed"], run["side"], run["trace"])
        assert key not in seen, f"run listed twice: {key}"
        seen.add(key)
        last = json.loads(run["last_line"])
        assert {"correct", "attempted", "failed", "metrics"} <= set(last)
        assert set(last["metrics"]) == declared[run["trace"]], key
    assert record["summary"] == summaries(record["runs"])


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_parses_and_its_summary_recomputes(path):
    check(json.loads(path.read_text(encoding="utf-8")))


def test_a_median_that_does_not_match_its_runs_fails():
    assert BENCH_FILES, "no BENCH_*.json is committed"
    record = json.loads(BENCH_FILES[-1].read_text(encoding="utf-8"))
    by_side = next(iter(record["summary"].values()))
    summary = next(iter(next(iter(by_side.values())).values()))
    summary["median"] += 1.0
    with pytest.raises(AssertionError):
        check(record)
