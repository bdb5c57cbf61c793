"""Self-test of the tracer's arithmetic.

    python3 perfbench/selftest.py     (from the root of a checkout)

``check_synthetic`` needs nothing but the standard library and runs at the
start of every traced benchmark run.  ``check_traced_run`` traces a short
phase of a real workload and checks that the self times of all spans, and of
all layers, add up to the traced wall time with nothing counted twice.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import layer_self_times  # noqa: E402
from tracer import Tracer, self_times, summarize  # noqa: E402


class _Clock:
    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return float(self.ticks.pop(0))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def check_synthetic() -> None:
    # root [0, 10] with children a [1, 4] (grandchild a1 [2, 3]) and b [5, 9];
    # c [8, 12] overlaps b and sticks out of root, so only [9, 10] is new.
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a1", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 8.0, 12.0, 0, 0],
    ]
    got = self_times(spans)
    want = [10.0 - 3.0 - 4.0 - 1.0, 2.0, 1.0, 4.0, 4.0]
    if not all(_close(g, w) for g, w in zip(got, want)):
        raise AssertionError(f"self times {got}, expected {want}")

    # The same arithmetic through wrapped calls, with a scripted clock: each
    # enter and exit reads one tick.  The nested call inside a group gets no
    # span, so its time stays with the outer call of that group.
    tracer = Tracer(clock=_Clock([0, 1, 2, 3, 4, 6, 7, 10]))
    inner = tracer.wrap("dist.inner", lambda: None, group="dist")
    outer = tracer.wrap("dist.outer", lambda: inner(), group="dist")
    leaf = tracer.wrap("model.leaf", lambda: None)

    def body():
        outer()
        leaf()
        leaf()

    unit = tracer.wrap("bench.unit", body)
    unit()
    summary = summarize(tracer.spans)
    want_summary = {"bench.unit": [1, 7.0], "dist.outer": [1, 1.0], "model.leaf": [2, 2.0]}
    if set(summary) != set(want_summary) or not all(
        summary[k][0] == v[0] and _close(summary[k][1], v[1]) for k, v in want_summary.items()
    ):
        raise AssertionError(f"summary {summary}, expected {want_summary}")
    if not _close(sum(v[1] for v in summary.values()), 10.0):
        raise AssertionError("self times of a closed tree must sum to the root's duration")


def check_traced_run(seconds: float = 1.0) -> dict:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from tracer import instrument
    from worker import _trace_summary, run_phase
    from workloads import GenericRoute

    workload = GenericRoute()
    workload.setup(seed=0)
    tracer = Tracer()
    instrument(tracer)
    workload.wrap(tracer)
    run_phase(workload, seconds, tracer)
    summary = _trace_summary(tracer)  # raises unless span self times sum to the wall time
    wall = summary["traced_wall_s"]
    layers = layer_self_times(summary["spans"])
    if abs(sum(layers.values()) - wall) > 1e-6 * wall:
        raise AssertionError(f"layer self times sum to {sum(layers.values())} s, wall {wall} s")
    return {"wall_s": wall, "spans": len(tracer.spans), "layers": layers}


if __name__ == "__main__":
    check_synthetic()
    print("synthetic span tree: ok")
    result = check_traced_run()
    print(f"traced generic_route: {result['spans']} spans, layer self times sum to wall {result['wall_s']:.6f} s: ok")
