"""Child process of the benchmark; ``run.py`` starts it, one at a time.

    worker.py setup  WORKLOAD SEED                  set up, print READY, exit
    worker.py timed  WORKLOAD SEED SECONDS          set up, print READY, run the timed phase
    worker.py traced WORKLOAD SEED SPANS            fixed rounds untraced, then traced
    worker.py cli    SPANS ARGV...                  traced ``confbel.cli.main(ARGV)``

The last line of standard output is one JSON object with the results.
``WORKLOAD`` is one of the in-process workloads, or ``cli_batch`` for ``setup``
(whose set-up is a cold ``import confbel.cli``).
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter


def _ready() -> None:
    print("READY", flush=True)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_phase(workload, seconds: float, tracer=None, min_rounds: int = 1) -> dict:
    """Whole rounds of units until ``seconds`` have passed and at least
    ``min_rounds`` rounds are done.

    ``units_per_s`` is the median over rounds of each round's rate, scaled
    to nominal machine speed by the calibration kernel timed before and after
    the round (see ``calibrate.py``): every round does the same mix of work,
    and the median keeps a burst of load from elsewhere out of the figure.
    With a tracer, each round is one root span.
    """
    from calibrate import slowdown

    from workloads import KNOWN_DEFECTS

    attempted = 0
    unexpected: list[str] = []
    n_unexpected = 0
    known: Counter = Counter()
    t0 = time.perf_counter()
    rates, raw = [], []
    slow = slowdown()
    while True:
        if tracer is not None:
            root = tracer.enter("bench.round")
        r0, n0 = time.perf_counter(), attempted
        for key, weight, fn in workload.round(len(rates)):
            attempted += weight
            if tracer is not None:
                tracer.unit += 1
                span = tracer.enter("bench.unit")
            try:
                details = fn()
            except Exception as exc:
                kind = type(exc).__name__
                if (key, kind) in KNOWN_DEFECTS:
                    known[f"{key} {kind}"] += weight
                    details = []
                else:
                    details = [f"{key}: {kind}: {exc}"] * weight
            finally:
                if tracer is not None:
                    tracer.exit(span)
            n_unexpected += len(details)
            unexpected.extend(details[: max(0, 20 - len(unexpected))])
        raw.append((attempted - n0) / (time.perf_counter() - r0))
        if tracer is not None:
            tracer.exit(root)
        slow_after = slowdown()
        rates.append(raw[-1] * 0.5 * (slow + slow_after))
        slow = slow_after
        if len(rates) >= min_rounds and time.perf_counter() - t0 >= seconds:
            break
    elapsed = time.perf_counter() - t0
    return {
        "attempted": attempted,
        "failed": n_unexpected + sum(known.values()),
        "unexpected": n_unexpected,
        "unexpected_details": unexpected,
        "known": dict(known),
        "rounds": len(rates),
        "elapsed_s": elapsed,
        "units_per_s": statistics.median(rates),
        "raw_units_per_s": statistics.median(raw),
        "round_rates": rates,
    }


def _trace_summary(tracer) -> dict:
    """Per-name calls and self times; checks that the self times of all spans
    add up to the traced wall time (the durations of the root spans)."""
    from tracer import self_times, summarize

    root_wall = sum(end - start for name, start, end, parent, unit in tracer.spans if parent < 0)
    own = self_times(tracer.spans)
    total_self = sum(own)
    if abs(total_self - root_wall) > 1e-6 * max(root_wall, 1e-9):
        raise RuntimeError(f"self times sum to {total_self} s but the traced wall time is {root_wall} s")
    if own and min(own) < -1e-9:
        raise RuntimeError(f"negative self time {min(own)} s")
    return {"spans": summarize(tracer.spans), "counts": dict(tracer.counts), "traced_wall_s": root_wall}


def in_process(mode: str, workload_name: str, seed: int, seconds: float, spans_path: str | None) -> dict:
    if workload_name == "cli_batch":
        import confbel.cli  # noqa: F401  (set-up of the command line is its cold import)

        _ready()
        return {}
    from workloads import IN_PROCESS

    workload = IN_PROCESS[workload_name]()
    workload.setup(seed)
    _ready()
    if mode == "setup":
        return {}
    if mode == "timed":
        result = run_phase(workload, seconds)
        result["peak_rss_mb"] = _peak_rss_mb()
        return result

    # A traced run does a fixed amount of work, so its counts repeat exactly;
    # the untraced pass over the same rounds is the base of the overhead.
    untraced = run_phase(workload, 0.0, min_rounds=workload.trace_rounds)
    from tracer import Tracer, instrument

    tracer = Tracer()
    instrument(tracer)
    workload.wrap(tracer)
    traced = run_phase(workload, 0.0, tracer, min_rounds=workload.trace_rounds)
    traced.update(_trace_summary(tracer))
    traced["untraced_units_per_s"] = untraced["units_per_s"]
    tracer.write(spans_path)
    return traced


def traced_cli(spans_path: str, argv: list[str]) -> dict:
    t0 = time.perf_counter()
    import confbel.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer, instrument

    tracer = Tracer()
    instrument(tracer)
    root = tracer.enter(f"cli.{argv[0]}")
    try:
        rc = confbel.cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = 1
    finally:
        tracer.exit(root)
    out = _trace_summary(tracer)
    out.update({"rc": rc, "import_s": import_s, "wall_s": out["traced_wall_s"]})
    tracer.write(spans_path)
    return out


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        result = traced_cli(argv[1], argv[2:])
    elif mode == "traced":
        result = in_process(mode, argv[1], int(argv[2]), 0.0, argv[3])
    else:
        result = in_process(mode, argv[1], int(argv[2]), float(argv[3]) if len(argv) > 3 else 0.0, None)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
