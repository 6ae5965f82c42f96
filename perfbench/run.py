"""gromovlab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload sample-controls --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py):

  sample-controls   cli.run_sample on the hyperbolic controls and the
                    witness-directed polydisc (scalar kernels + core loop)
  sweep-witnesses   cli.run_sweep, workers=1, on all six witness families
                    plus a fixed edge set (certificates, gn phase scans)
  verify-suites     verify.run_all on consecutive seeds (branch and bound,
                    hop chain, interior sampling)

The load is a closed loop with one client: whole rounds of calls run
back to back until ``--seconds`` have passed.  Every output is checked.

With ``--trace 0`` the last line of stdout is the end-to-end result:
setup time (median of several fresh processes that import the library,
build the workload and make one warm-up call), work items per second,
median and tail latency of one user-visible unit, the share of units
that returned a result (``ok_frac``; a sweep row refused as the reference
recorded is checked, but not ok) and the peak resident memory.  The
result's ``failed`` counts units whose outcome the checks do not allow.  The tail percentile is
fixed per workload so that at least TAIL_BEYOND samples lie beyond it in
a run of 35 s on a 2-core machine; each run prints how many did.

Speed scaling.  On a shared virtual machine the same code can run at
two speeds that differ by up to 1.8x for tens of seconds at a time, so
the wall time of a 35 s run depends on which speed it met.  The run
therefore times a fixed speed probe (``workloads.speed_probe``, which
does not call the library) at least every PROBE_EVERY_S between calls,
and scales the wall time of each call by PROBE_REF_S over the mean of
the probes just before and just after it; set-up processes are scaled
the same way.  Throughput, latencies and set-up time are reported in
these scaled seconds: wall time on a machine where the probe takes
PROBE_REF_S.  The unscaled figures are printed and recorded too.

With ``--trace 1`` the run first measures a quarter of ``--seconds``
untraced, then installs the tracer and replays the same rounds traced;
the last line carries the per-layer metrics of BENCHMARK.json (span times
are not scaled) and the tracing overhead.  Spans are written to
``.perfbench/spans-<workload>.npz``.

Each result, with the machine it came from, is also written under
``.perfbench/results/``; ``compare.py`` reads two such sets.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import machine

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60.0
TAIL_BEYOND = 10
# share of --seconds measured untraced in a traced run; the traced replay
# of the same rounds takes longer by the tracing overhead
TRACE_SHARE = 0.25
PROBE_EVERY_S = 0.1
PROBE_REF_S = 0.004


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("sample-controls", "sweep-witnesses", "verify-suites"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes that do the workload's set-up, each
    scaled by the speed probes taken just before and after it, and unscaled."""
    import workloads

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    scaled, raw = [], []
    before = workloads.speed_probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: " + proc.stderr.decode()[-2000:])
        after = workloads.speed_probe()
        scaled.append(raw[-1] * 2.0 * PROBE_REF_S / (before + after))
        before = after
    return scaled, raw


@dataclass
class Pass:
    """What one pass over the rounds produced."""

    units: list = field(default_factory=list)
    rounds: int = 0
    # per call: start, end, work items, index of its first unit
    calls: list[tuple[float, float, int, int]] = field(default_factory=list)
    # speed probes: start time, duration
    probes: list[tuple[float, float]] = field(default_factory=list)

    def scale(self) -> list[float]:
        """Per call: PROBE_REF_S over the mean of the probes around it."""
        starts = [t for t, _ in self.probes]
        out = []
        for c0, c1, _, _ in self.calls:
            before = self.probes[bisect.bisect_right(starts, c0) - 1][1]
            after = self.probes[bisect.bisect_left(starts, c1)][1]
            out.append(2.0 * PROBE_REF_S / (before + after))
        return out

    def wall(self, scaled: bool = True) -> float:
        factors = self.scale() if scaled else [1.0] * len(self.calls)
        return sum((c1 - c0) * f for (c0, c1, _, _), f in zip(self.calls, factors))

    def latencies(self, per_call: bool, scaled: bool = True) -> list[float]:
        """Latency in ms of each call, or of each unit."""
        factors = self.scale() if scaled else [1.0] * len(self.calls)
        if per_call:
            return [1e3 * (c1 - c0) * f for (c0, c1, _, _), f in zip(self.calls, factors)]
        ends = [first for _, _, _, first in self.calls[1:]] + [len(self.units)]
        return [u.latency_ms * f
                for (_, _, _, first), end, f in zip(self.calls, ends, factors)
                for u in self.units[first:end]]


def run_pass(workload, seconds=None, rounds=None, tracer=None) -> Pass:
    """Whole rounds until ``seconds`` have passed, or exactly ``rounds``."""
    import workloads

    p = Pass()

    def probe():
        t = time.perf_counter()
        p.probes.append((t, workloads.speed_probe()))

    with workload.instrumented():
        t0 = time.perf_counter()
        probe()
        while (p.rounds < rounds) if rounds is not None else (time.perf_counter() - t0 < seconds):
            for call in workload.round(p.rounds):
                if time.perf_counter() - p.probes[-1][0] >= PROBE_EVERY_S:
                    probe()
                if tracer is not None:
                    tracer.begin_unit(call.label)
                c0 = time.perf_counter()
                got = workload.run(call)
                c1 = time.perf_counter()
                p.calls.append((c0, c1, sum(u.work for u in got), len(p.units)))
                p.units += got
            p.rounds += 1
        probe()
    return p


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """Latency at a percentile (nearest rank) and the samples beyond it."""
    lat = sorted(latencies)
    k = min(max(math.ceil(percentile / 100.0 * len(lat)) - 1, 0), len(lat) - 1)
    return lat[k], len(lat) - k - 1


def end_to_end(workload, p: Pass, setup_times, raw_setup) -> tuple[dict, list[str]]:
    lat = p.latencies(workload.latency_per_call)
    raw_lat = p.latencies(workload.latency_per_call, scaled=False)
    failed = sum(u.failed for u in p.units)
    not_ok = sum(not u.ok for u in p.units)
    work = sum(w for _, _, w, _ in p.calls)
    tail_ms, beyond = tail(lat, workload.tail_percentile)
    values = {
        "setup_s": statistics.median(setup_times),
        "work_per_s": work / p.wall(),
        "unit_p50_ms": statistics.median(lat),
        "unit_tail_ms": tail_ms,
        "ok_frac": 1.0 - not_ok / len(p.units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    factors = p.scale()
    notes = [
        f"{workload.work_noun}_per_s = {values['work_per_s']:.6g} "
        f"({work} in {p.wall():.3f} scaled s, {len(p.units)} units)",
        f"unit_tail_ms = {tail_ms:.6g} ms at p{workload.tail_percentile:g} of {len(lat)} "
        f"{workload.latency_noun} latencies ({beyond} beyond"
        + ("" if beyond >= TAIL_BEYOND else f"; fewer than {TAIL_BEYOND}, run longer") + ")",
        f"failed_frac = {not_ok / len(p.units):.6g} ({not_ok} of {len(p.units)} refused "
        f"or failed; {failed} of them not as the checks allow)",
        "setup_s samples = " + ", ".join(f"{t:.4f}" for t in setup_times),
        f"unscaled: setup_s = {statistics.median(raw_setup):.6g}, "
        f"{workload.work_noun}_per_s = {work / p.wall(scaled=False):.6g}, "
        f"unit_p50_ms = {statistics.median(raw_lat):.6g}, "
        f"unit_tail_ms = {tail(raw_lat, workload.tail_percentile)[0]:.6g}",
        f"speed scale over {len(p.probes)} probes: median {statistics.median(factors):.4f}, "
        f"range {min(factors):.4f}..{max(factors):.4f}",
        *workload.notes(p.units),
    ]
    return values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gromovlab" / "__init__.py").is_file():
        print(f"perfbench: no gromovlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    machine.pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.make(args.workload, args.seed, OUT / "work" / args.workload)
    if args.setup_probe:
        workload.warm_up()
        return 0

    spec = load_spec()
    setup_times, raw_setup = ([], []) if args.trace else measure_setup(args)
    workload.warm_up()

    if args.trace:
        import layers
        import tracer as tracing

        plain = run_pass(workload, seconds=args.seconds * TRACE_SHARE)
        tr = tracing.Tracer()
        tracing.install(tr)
        traced = run_pass(workload, rounds=plain.rounds, tracer=tr)
        values = layers.per_layer(tr, plain.units, traced.units,
                                  traced.wall() / plain.wall() - 1.0)
        OUT.mkdir(exist_ok=True)
        tr.save(OUT / f"spans-{args.workload}.npz")
        notes = [f"traced {plain.rounds} rounds: {plain.wall():.3f} s untraced, "
                 f"{traced.wall():.3f} s traced (scaled), {len(tr.start)} spans"]
        wanted = spec["per_layer"]
        units = plain.units + traced.units
        samples = {}
    else:
        plain = run_pass(workload, seconds=args.seconds)
        values, notes = end_to_end(workload, plain, setup_times, raw_setup)
        wanted = spec["end_to_end"]
        units = plain.units
        samples = {"calls": plain.calls, "probes": plain.probes,
                   "labels": [u.label for u in units],
                   "unit_latency_ms": [u.latency_ms for u in units]}

    problems = [p for u in units for p in u.problems]
    failed = sum(u.failed for u in units)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not problems,
        "attempted": len(units),
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    info = machine.describe(ROOT)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": plain.rounds, "machine": info,
              "notes": notes, "problems": problems[:50], "result": result,
              "samples": samples}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}.seed{args.seed}.trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {plain.rounds} rounds")
    print("machine " + json.dumps(info, sort_keys=True))
    for line in notes:
        print(line)
    for p in problems[:20]:
        print("problem: " + p)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
