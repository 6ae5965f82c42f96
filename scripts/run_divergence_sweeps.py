#!/usr/bin/env python3
"""Run every witness-family sweep and collect the slope verdicts.

Writes one CSV per family into --outdir and prints the summary line of
each, so the whole divergence picture is reproduced in one command:

    python3 scripts/run_divergence_sweeps.py --outdir results
"""

import argparse
import math
import pathlib
import sys

from gromovlab import cli

# family -> grid spec (descending geometric grids for the boundary families)
SWEEPS = {
    "tetra": "0.5,0.9,0.99,0.999,0.9999",
    "gn": "0.9,0.99,0.999,0.9999",
    "product": "1,2,5,10,50,100,300",
    "hinge": "geom:1e-6:1e-4:5",
    "flat_exp": f"geom:0.02:{math.exp(-2.0)!r}:10",
    "flat_quartic": f"geom:0.02:{math.exp(-2.0)!r}:10",
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="results", help="directory for the CSVs")
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for family, grid in SWEEPS.items():
        out = outdir / f"sweep_{family}.csv"
        code = cli.main([
            "sweep", "--family", family, "--grid", grid,
            "--out", str(out),
        ])
        worst = max(worst, code)
        with open(out) as fh:
            summary = [ln.strip() for ln in fh if ln.startswith("# summary")]
        print(summary[0] if summary else f"# {family}: no summary emitted")
    return worst


if __name__ == "__main__":
    sys.exit(main())
