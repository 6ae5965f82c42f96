"""Compare two sets of benchmark results, for reading; not a gate.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (``.perfbench/results``;
copy it aside before measuring the other commit).  For every (workload,
metric) the table gives each side's median and quartiles over its runs
(seeds) and the ratio of the medians, new / base.

An end-to-end metric gets a verdict against its bound in BENCHMARK.json.
When the spread between quartiles, as a share of the median, is wider
than the bound on either side, the verdict is ``unresolved`` -- unless
every new run reads better than every base run.  Per-layer metrics have
no bound and get only the ratio.

Results from machines that differ (core count, architecture, Python,
numpy, thread pins) are not compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import machine

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path):
    """{(workload, metric): [values]} and the machine records seen."""
    values = defaultdict(list)
    machines = []
    for path in sorted(directory.rglob("*.json")):
        with open(path) as fh:
            rec = json.load(fh)
        if "result" not in rec:
            continue
        machines.append(rec["machine"])
        for name, m in rec["result"]["metrics"].items():
            values[(rec["workload"], name)].append(m["value"])
    return values, machines


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _fmt(q) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def verdict(base, new, bound, better):
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    if spread > bound:
        if all(sign * (x - y) > 0 for x in new for y in base):
            return "better"
        return "unresolved"
    change = sign * (nm - bm) / abs(bm) if bm else 0.0
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, base_machines = load(Path(argv[0]))
    new, new_machines = load(Path(argv[1]))
    if not base_machines or not new_machines:
        print("no result files in one of the directories", file=sys.stderr)
        return 1
    # every record of both sets must come from the machine of the first
    for b in base_machines + new_machines:
        differ = machine.comparable(base_machines[0], b)
        if differ:
            print(f"refusing to compare results from different machines: {differ}",
                  file=sys.stderr)
            return 1
    print(f"{'workload':16} {'metric':54} {'base q1/med/q3':>30} {'new q1/med/q3':>30} "
          f"{'new/base':>9}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        bq, nq = quartiles(base[key]), quartiles(new[key])
        ratio = nq[1] / bq[1] if bq[1] else float("nan")
        if name in bounds:
            word = verdict(base[key], new[key], bounds[name]["bound"], better[name])
        else:
            word = "(no bound)"
        print(f"{workload:16} {name:54} {_fmt(bq):>30} {_fmt(nq):>30} {ratio:9.4f}  {word}"
              f"  (n={len(base[key])}/{len(new[key])})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
