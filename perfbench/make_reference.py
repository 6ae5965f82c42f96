"""Record the S_lb reference table that sweep-witnesses checks against.

    python3 perfbench/make_reference.py

Evaluates every family on its parameter lattice and writes
``perfbench/reference.json``.  Run it only on a commit whose witnesses
are trusted; the table is the benchmark's notion of a correct S_lb.  A
point the witness refuses (raises) is recorded with S_lb null and its
error, so the benchmark can tell a known refusal from a new one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gromovlab import cli  # noqa: E402

import machine  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    families = {}
    for family, params in workloads.family_lattices().items():
        rows = []
        for p in params:
            try:
                rep = cli.FAMILIES[family](p)
            except (ValueError, RuntimeError) as e:
                rows.append([repr(p), None, f"{type(e).__name__}: {e}"])
                continue
            bad = [name for name, ok in rep.checks if not ok]
            if bad:
                raise SystemExit(f"{family}({p!r}) failed checks {bad}")
            rows.append([repr(p), repr(rep.s_lb)])
        families[family] = rows
    doc = {"source_digest": machine.source_digest(ROOT), "families": families}
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
