"""Command-line front end: witness sweeps, defect sampling, verification.

Three subcommands:

  sweep   -- evaluate one witness family over a parameter grid, write CSV
  sample  -- random-quadruple defect estimation on an exact backend
  verify  -- run every invariant suite; exit 3 on any failure, an error
             raised inside a suite included

CSV conventions: mandatory header, 17 significant digits, one row per
parameter or checkpoint, a trailing `error` column that is empty on
success, and a final `# summary ...` comment line.  The sweep's
`wall_ms` column is 0 unless --timings is given, so that identical
arguments reproduce identical bytes (witnesses are deterministic;
`sample` draws from its --seed).

Every setting is a flag; there are no config files.  The environment
variable GROMOVLAB_LOG sets the logging level.

Exit codes: 0 success, 1 usage error, 2 row-level computation failure,
3 verification failure (an error raised inside a suite is that suite's
FAIL).
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import core, exact, verify, witnesses
from .convex import CertificateError

log = logging.getLogger("gromovlab.cli")


# ---------------------------------------------------------------------------
# witness families

# name -> constructor; looked up when a row runs, so a caller may swap in
# a wrapped constructor
FAMILIES = {name: fam.witness for name, fam in witnesses.FAMILIES.items()}

_SLOPE_VERDICT_CUT = 0.05


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _sweep_row(family: str, param: float, timings: bool) -> dict[str, str]:
    """The CSV row of one grid point, as a dict of already formatted
    strings; an error the witness raises fills the row's error column."""
    names = witnesses.FAMILIES[family].terms
    row = {"param": _fmt(param), "S_lb": "", "wall_ms": "0", "error": ""}
    for name in names:
        row[name] = ""
    t0 = time.perf_counter()
    try:
        rep = FAMILIES[family](param)
        got = tuple(name for name, _ in rep.terms)
        if got != names:
            raise RuntimeError(f"term schema drifted: {got} != {names}")
        row["S_lb"] = _fmt(rep.s_lb)
        for name, value in rep.terms:
            row[name] = _fmt(value)
    except Exception as e:
        row["error"] = f"{type(e).__name__}: {e}"
    if timings:
        row["wall_ms"] = _fmt(1e3 * (time.perf_counter() - t0))
    return row


@dataclass(frozen=True)
class SweepConfig:
    family: str
    grid: tuple[float, ...]
    out: str
    # only the benchmark harness sets it, and only to 1
    workers: int = 1
    timings: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not self.grid:
            raise ValueError("empty parameter grid")
        diffs = np.diff(self.grid)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("grid must be strictly monotone")
        if self.workers != 1:
            raise ValueError(f"the sweep runs in one process; workers={self.workers!r} must be 1")


def parse_grid(spec: str) -> tuple[float, ...]:
    """Comma list of floats, or geom:start:ratio:count."""
    spec = spec.strip()
    if spec.startswith("geom:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise ValueError("geometric grid is geom:start:ratio:count")
        start, ratio = float(parts[1]), float(parts[2])
        count = int(parts[3])
        if count < 1 or start <= 0 or ratio <= 0 or ratio == 1.0:
            raise ValueError("geometric grid needs start > 0, ratio != 1, count >= 1")
        return tuple(start * ratio**k for k in range(count))
    values = tuple(float(tok) for tok in spec.split(",") if tok.strip())
    if not values:
        raise ValueError("empty grid spec")
    return values


def _summary_line(family: str, params: list[float], s_lbs: list[float]) -> str:
    fam = witnesses.FAMILIES[family]
    if len(params) < 2:
        return (f"# summary family={family} points={len(params)} "
                f"verdict=insufficient-points")
    xs = np.array([fam.axis(p) for p in params])
    slope = float(np.polyfit(xs, np.array(s_lbs), 1)[0])
    if slope >= _SLOPE_VERDICT_CUT:
        verdict = "diverging"
    else:
        verdict = "no-divergence-slope-test-fails"
    return (f"# summary family={family} points={len(params)} x={fam.axis_label} "
            f"slope={slope:.6g} verdict={verdict}")


def run_sweep(config: SweepConfig) -> int:
    """Evaluate the family over the grid, one row after another in grid
    order, and write the CSV.  Returns the exit code: 0, or 2 when any row
    carries an error."""
    names = witnesses.FAMILIES[config.family].terms
    header = ["param", "S_lb", *names, "wall_ms", "error"]
    log.info("sweep family=%s points=%d", config.family, len(config.grid))
    rows = [_sweep_row(config.family, p, config.timings) for p in config.grid]

    # a refused row is recorded in its error column, the exit code and the
    # closing count
    ok_params = [p for p, row in zip(config.grid, rows) if not row["error"]]
    ok_slbs = [float(row["S_lb"]) for row in rows if not row["error"]]
    failed = len(rows) - len(ok_params)
    with open(config.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        fh.write(_summary_line(config.family, ok_params, ok_slbs) + "\n")
    log.info("sweep wrote %s (%d rows, %d failed)", config.out, len(rows), failed)
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# sampling backends

def _sample_setup(domain: str, directed_scale: float | None, period: int):
    """Array distance and block sampler for one backend."""
    if domain not in exact.SAMPLE_DOMAINS:
        raise ValueError(f"unknown sample domain {domain!r}")
    if directed_scale is None:
        dom = exact.SAMPLE_DOMAINS[domain]
        return dom.distance, core.uniform_quadruple_sampler(dom.points)
    if domain != "polydisc":
        # the injected quadruples are product witnesses: bidisc points
        raise ValueError(f"directed sampling runs on polydisc, not {domain!r}")
    # witness-directed run: the axis representation stays exact at any
    # scale (tanh saturates doubles near 19), so the injected product
    # quadruples keep their defect verbatim
    try:
        quad = witnesses.product_quadruple(directed_scale)
    except CertificateError as e:
        # an out-of-range scale is a usage error, not a failed certificate
        raise ValueError(f"directed scale {directed_scale!r}: {e}") from e
    axis = exact.SAMPLE_DOMAINS["polydisc_axis"]
    base = core.uniform_quadruple_sampler(axis.points)
    return axis.distance, core.mixed_quadruple_sampler(base, quad, period=period)


def run_sample(
    domain: str,
    n: int,
    seed: int,
    out: str,
    directed_scale: float | None = None,
    period: int = 8,
) -> int:
    """Sampled sup of four-point defects, with rows at decade checkpoints.

    One pass over n quadruples; each checkpoint row is the running sup of
    the draws before it, so sup_defect is monotone down the file and each
    row equals a run of that size with the same seed.
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    d, sampler = _sample_setup(domain, directed_scale, period)
    log.info("sample domain=%s n=%d seed=%d directed=%s",
             domain, n, seed, directed_scale)
    t0 = time.perf_counter()
    est = core.estimate_delta(d, sampler, n, seed)
    log.debug("sampled n=%d sup=%.6g (%.0f ms)",
              n, est.sup_defect, 1e3 * (time.perf_counter() - t0))
    with open(out, "w", newline="") as fh:
        # no field can need quoting: a count, a float and an empty error
        fh.write("n,sup_defect,error\n")
        fh.writelines(f"{ck},{_fmt(sup)},\n" for ck, sup in est.checkpoints)
        scale_note = "" if directed_scale is None else f" directed_scale={_fmt(directed_scale)}"
        fh.write(f"# summary domain={domain} n={n} seed={seed}"
                 f"{scale_note} sup={_fmt(est.sup_defect)}\n")
        fh.write(f"# argmax {est.argmax!r}\n")
    return 0


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # row-level failures, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gromovlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="witness-family parameter sweep")
    p_sweep.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p_sweep.add_argument("--grid", required=True, help="comma list or geom:start:ratio:count")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--timings", action="store_true",
                         help="record real wall_ms (breaks byte reproducibility)")

    p_sample = sub.add_parser("sample", help="random-quadruple defect sampling")
    p_sample.add_argument("--domain", required=True,
                          choices=("disc", "ball", "polydisc", "tetra"))
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True)
    p_sample.add_argument("--directed-scale", type=float, default=None, metavar="S",
                          help="polydisc only: inject product witnesses of defect S")

    p_verify = sub.add_parser("verify", help="run every invariant suite")
    p_verify.add_argument("--mutate", action="store_true",
                          help="perturb frozen anchors; the run must fail")
    return parser


def _cmd_sweep(args) -> int:
    config = SweepConfig(
        family=args.family,
        grid=parse_grid(args.grid),
        out=args.out,
        timings=args.timings,
    )
    return run_sweep(config)


def _cmd_sample(args) -> int:
    return run_sample(args.domain, args.n, args.seed, args.out,
                      directed_scale=args.directed_scale)


def _cmd_verify(args) -> int:
    results = verify.run_all(mutate=args.mutate)
    all_passed = True
    for res in results:
        word = "PASS" if res.passed else "FAIL"
        all_passed &= res.passed
        print(f"{word} {res.name}: {res.detail}")
    print(f"{'OK' if all_passed else 'FAILED'} "
          f"({sum(r.passed for r in results)}/{len(results)} suites)")
    return 0 if all_passed else 3


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("GROMOVLAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "sample":
            return _cmd_sample(args)
        return _cmd_verify(args)
    except (ValueError, OSError) as e:
        print(f"gromovlab {args.command}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
