"""Time-to-verified-result benchmark for ppfan.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: one cold run at a time, each in a fresh
interpreter (`child.py`), because command-line users pay the program's
`lru_cache`s on every invocation.  Each run checks its own output
(`workloads.check`).  Runs start until `--seconds` have passed, at least one.

With `--trace 0` the end-to-end metrics of BENCHMARK.json are reported as
medians over the runs (set-up time also over SETUP_PROBES extra set-up-only
starts).  With `--trace 1` the runs alternate plain and traced; the per-layer
metrics come from the traced runs (times as medians, counts from the first)
and `trace.overhead_frac` is the median extra CPU time of a traced run over
the plain run just before it.

The last line of stdout is the result: `correct`, `attempted`, `failed` and
`metrics` (name -> value and unit).  The line before it is a record with the
environment and sample counts, which `compare.py` reads.  A readable table
goes to stderr.  Nothing is built; the program is imported from `src/`.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

BACKEND = "python"   # Cython is optional; the pure kernel is the one measured
SETUP_PROBES = 5     # set-up-only starts per invocation, on top of one per run
RUN_CAP_S = 60       # a run still going after this is killed and counted failed


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env():
    env = dict(os.environ)
    env["PPFAN_BACKEND"] = BACKEND
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode, workload, seed, tiny):
    """Start one child, wait for it (at most RUN_CAP_S) and return its record.

    A record always has `ok`; a killed, crashed or wrong run has `ok` false and
    its reasons in `problems`.
    """
    started = time.monotonic()
    cmd = [sys.executable, str(CHILD), mode, workload, str(seed), str(int(tiny)), repr(started)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=RUN_CAP_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "problems": [f"killed after {RUN_CAP_S} s"]}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"ok": False, "problems": tail}
    record = json.loads(lines[-1])
    problems = record.setdefault("problems", [])
    if record["backend"] != BACKEND:
        problems.append(f"backend {record['backend']}, expected {BACKEND}")
    record["ok"] = not problems
    return record


def environment():
    """What a result depends on besides the code under test."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = got.stdout.strip() or commit
    digest = sha256()
    for path in sorted((SRC / "ppfan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"backend": BACKEND, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "src_sha256": digest.hexdigest()}


def measure(workload, seed, seconds, trace, tiny=False):
    """Run the closed loop; returns (result, samples) with result in the output format."""
    spec = load_spec()
    warm = spawn("setup", workload, seed, tiny)  # fills the bytecode cache, not counted
    if not warm["ok"]:
        raise RuntimeError(f"set-up fails: {warm['problems']}")
    runs = []
    begin = time.monotonic()
    if not trace:
        probes = [spawn("setup", workload, seed, tiny) for _ in range(SETUP_PROBES)]
        while not runs or time.monotonic() - begin < seconds:
            runs.append(spawn("run", workload, seed, tiny))
        metrics = end_to_end(runs, probes)
        wanted = spec["end_to_end"]
        samples = {"runs": len(runs), "setup": len(probes) + len(runs),
                   "wall_s": [r.get("wall_s") for r in runs]}
    else:
        traced = []
        while not runs or time.monotonic() - begin < seconds:
            runs.append(spawn("run", workload, seed, tiny))
            traced.append(spawn("trace", workload, seed, tiny))
        wanted = spec["per_layer"]
        metrics = per_layer(runs, traced, [m["name"] for m in wanted])
        runs += traced
        samples = {"runs": len(runs) // 2, "traced": len(traced)}
    failed = sum(not r["ok"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    problems = sorted({p for r in runs for p in r["problems"]})
    return result, dict(samples, problems=problems)


def _median(runs, key):
    values = [r[key] for r in runs if key in r]
    return statistics.median(values) if values else 0.0


def end_to_end(runs, probes):
    good = [r for r in runs if r["ok"]] or runs
    return {
        "wall_s": _median(good, "wall_s"),
        "cpu_s": _median(good, "cpu_s"),
        "setup_s": _median(probes + runs, "setup_s"),
        "peak_rss_mb": _median(good, "peak_rss_mb"),
        "verified_frac": sum(r["ok"] for r in runs) / len(runs),
    }


def per_layer(plain, traced, names):
    good = [r for r in traced if r["ok"]] or traced
    layers = [r["layers"] for r in good if "layers" in r]
    if not layers:  # every traced run crashed; the result reports them as failed
        return dict.fromkeys(names, 0.0)
    # counts repeat exactly between runs; times are taken as medians
    out = {key: (statistics.median(l[key] for l in layers) if key.endswith("_s") else value)
           for key, value in layers[0].items()}
    # plain and traced runs alternate, so each pair saw the same machine load
    ratios = [t["cpu_s"] / p["cpu_s"] - 1 for p, t in zip(plain, traced)
              if p["ok"] and t["ok"]]
    out["trace.overhead_frac"] = statistics.median(ratios) if ratios else 0.0
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "ppfan" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure at {SRC / 'ppfan'}")
    result, samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "samples": samples, "result": result}
    for name, m in result["metrics"].items():
        print(f"{name:48} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"samples {samples}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
