"""Self-test of the benchmark: every workload at its tiny size, through `run.measure`.

    python3 perfbench/selftest.py

Tiny sizes are Gr(2,4) for both Grassmannian workloads and five points for
the line configuration.  For each workload it checks that a plain run is
correct and reports exactly the end-to-end metrics of BENCHMARK.json, and
that two traced runs report exactly the per-layer metrics with identical
counts.  Exits 1 on the first failure.
"""

import sys

from run import load_spec, measure
from workloads import WORKLOADS


def counts(result):
    """The per-layer values that are counts, not times, so must repeat exactly."""
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] != "s" and k != "trace.overhead_frac"}


def main():
    spec = load_spec()
    want_e2e = [m["name"] for m in spec["end_to_end"]]
    want_layers = [m["name"] for m in spec["per_layer"]]
    failures = []
    for workload in WORKLOADS:
        plain, _ = measure(workload, seed=1, seconds=0, trace=False, tiny=True)
        first, _ = measure(workload, seed=1, seconds=0, trace=True, tiny=True)
        second, _ = measure(workload, seed=1, seconds=0, trace=True, tiny=True)
        checks = [
            ("plain run correct", plain["correct"] and plain["failed"] == 0),
            ("end-to-end metric names", list(plain["metrics"]) == want_e2e),
            ("traced runs correct", first["correct"] and second["correct"]),
            ("per-layer metric names", list(first["metrics"]) == want_layers),
            ("traced counts repeat", counts(first) == counts(second)),
            ("layers were reached", first["metrics"]["dd.dd_cone.calls"]["value"] > 0),
        ]
        for name, ok in checks:
            print(f"{'ok  ' if ok else 'FAIL'} {workload}: {name}")
            if not ok:
                failures.append((workload, name))
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
