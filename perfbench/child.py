"""One cold run of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py MODE WORKLOAD SEED TINY STARTED

MODE is `setup` (import and make inputs, then stop), `run` or `trace` (a run
with spans).  STARTED is the parent's `time.monotonic()` just before it
started this process; the clock is system-wide, so set-up time counts the
interpreter start.  `run.py` starts this script; it is not meant to be run
by hand.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (after the path set-up)

SPANS_DIR = HERE / "out"


def main(mode, workload, seed, tiny, started):
    import ppfan
    import ppfan.verify  # noqa: F401  (loads the remaining modules, as set-up)

    inputs = workloads.make_inputs(workload, seed, tiny)
    record = {"setup_s": time.monotonic() - started, "backend": ppfan.BACKEND}
    if mode == "setup":
        return record
    run = workloads.run
    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("workload", run)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        problems = workloads.check(workload, inputs, run(workload, inputs))
    except Exception as exc:  # a crash is a failed run, reported to the parent
        problems = [f"{type(exc).__name__}: {exc}"]
    record.update(
        wall_s=time.perf_counter() - wall0,
        cpu_s=time.process_time() - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        problems=problems,
    )
    if tracer is not None:
        record["layers"] = tracer.metrics()
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{workload}{'-tiny' if tiny else ''}.tsv")
    return record


if __name__ == "__main__":
    mode, workload, seed, tiny, started = sys.argv[1:]
    print(json.dumps(main(mode, workload, int(seed), tiny == "1", float(started))))
