"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 perfbench/run.py ... >> base.txt    # repeat per seed, on the parent
    python3 perfbench/run.py ... >> new.txt     # the same seeds, on the change
    python3 perfbench/compare.py base.txt new.txt

Each file holds the stdout of one or more `run.py --trace 0` invocations; the
record lines (those with an `env`) are read.  For every end-to-end metric it
prints both medians, the new one's change as a share of the base median, the
base spread (quartile distance over median) and whether the change is worse
than the bound in BENCHMARK.json.  Results measured on different kernel
backends are not comparable, so mixed backends are refused with exit code 2.
Exit code 1 means some metric got worse by more than its bound.
"""

import json
import statistics
import sys
from collections import defaultdict

from run import load_spec


def read(path):
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.startswith("{")]
    return [r for r in lines if "env" in r and r["trace"] == 0]


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(base_path, new_path):
    base, new = read(base_path), read(new_path)
    backends = {r["env"]["backend"] for r in base + new}
    if len(backends) != 1:
        print(f"refusing to compare results from different backends: {sorted(backends)}",
              file=sys.stderr)
        sys.exit(2)
    for key in ("python", "nproc", "commit"):
        seen = [sorted({str(r["env"][key]) for r in rs}) for rs in (base, new)]
        print(f"{key}: base {', '.join(seen[0])}; new {', '.join(seen[1])}")
    values = defaultdict(lambda: ([], []))
    for side, records in enumerate((base, new)):
        for r in records:
            for name, m in r["result"]["metrics"].items():
                values[r["workload"], name][side].append(m["value"])
    worse = False
    for m in load_spec()["end_to_end"]:
        for (workload, name), (b, n) in sorted(values.items()):
            if name != m["name"] or not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            loss = change if m["better"] == "lower" else -change
            verdict = "WORSE" if loss > m["bound"] else "ok"
            worse |= verdict == "WORSE"
            print(f"{workload:11} {name:14} base {mb:12.6g} new {mn:12.6g} {m['unit']:6}"
                  f" change {change:+.3f} base spread {spread(b):.3f}"
                  f" bound {m['bound']} n={len(b)}/{len(n)} {verdict}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
