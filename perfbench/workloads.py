"""The three benchmark workloads and the checks on their outputs.

Each workload turns a seed into a list of rounds.  A round is a fixed mix
of calls into the library's public entry points (``cli.run_sample``,
``cli.run_sweep``, ``verify.run_all``), so that every round carries the
same share of each kind of work and the run-to-run spread stays small.
A call returns one ``Unit`` per user-visible unit of work: one sample
call, one sweep row or one verify suite.

Outputs are checked as they come back.  A unit that raises where no
refusal is recorded, or fails a check, counts as failed and makes the run
incorrect.  The fixed edge set of sweep-witnesses, and the lattice points
the reference commit refused, are expected to be refused with the
exception type recorded for them: such a row is a checked outcome, not a
failure, and it shows in the share of units refused (``ok_frac`` and the
traced ``failed_frac``), so a fix that makes them certify raises that
share without making the run fail.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gromovlab import cli, verify

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# S_lb values are compared with the reference within this tolerance: wide
# enough for reordered float sums and outward rounding, far below any
# change a certificate would need to be wrong by to matter
SLB_RTOL = 1e-9
SLB_ATOL = 1e-12


@dataclass
class Unit:
    """One unit of work and its outcome; ``latency_ms`` is read only when
    the workload's latency is per unit."""

    label: str
    latency_ms: float
    work: int = 1
    refused: bool = False
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """The outcome differs from what the checks allow."""
        return bool(self.problems)

    @property
    def ok(self) -> bool:
        """A result came back and passed its checks."""
        return not self.refused and not self.problems


@dataclass(frozen=True)
class Call:
    """One call into the library; ``run`` returns the units it produced."""

    label: str
    args: tuple


def speed_probe(iterations: int = 1000) -> float:
    """Seconds a fixed piece of interpreted work takes right now.

    Scalar float and complex arithmetic and tiny numpy calls, the mix the
    library's hot paths run, but none of it calls the library: a change
    to the library cannot move the probe, only the machine can.
    """
    t0 = time.perf_counter()
    acc = 0.0
    v = np.zeros(2)
    for i in range(iterations):
        z = complex(0.001 * (i % 700), 0.0005 * (i % 300))
        acc += math.atanh(abs(z) / (1.0 + abs(z)))
        v[0] = acc
        acc += float(np.sum(v)) * 1e-9
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# parameter lattices for sweep-witnesses

LATTICE_POINTS = 128


def _spaced(lo: float, hi: float, k: int = LATTICE_POINTS) -> list[float]:
    return [lo + (hi - lo) * i / (k - 1) for i in range(k)]


def family_lattices() -> dict[str, list[float]]:
    """Per family, parameters evenly spaced in the family's summary
    coordinate over its documented range (ascending parameter order)."""
    atanh_axis = [math.tanh(u) for u in _spaced(math.atanh(0.5), math.atanh(0.9999))]
    log_hinge = [math.exp(-u) for u in _spaced(math.log(1e4), math.log(1e22))]
    log_flat = [0.02 * math.exp(-u) for u in _spaced(0.0, 18.0)]
    return {
        "tetra": atanh_axis,
        "gn": atanh_axis,
        "product": _spaced(1.0, 300.0),
        "hinge": sorted(log_hinge),
        "flat_exp": sorted(log_flat),
        "flat_quartic": sorted(log_flat),
    }


# points that raise instead of certifying at the reference commit, with
# the exception they raise; kept in every round so that the defect shows
# in the refused share
EDGE_SET = (
    ("gn", 1.0 - 1e-6, "ValueError"),
    ("tetra", 1.0 - 1e-6, "OracleError"),
    ("hinge", 1e-60, "ValueError"),
    ("flat_quartic", 0.02 * math.exp(-40.0), "ValueError"),
)

EXPECTED_VERDICT = {
    "tetra": "diverging",
    "gn": "diverging",
    "product": "diverging",
    "hinge": "diverging",
    "flat_exp": "diverging",
    "flat_quartic": "no-divergence-slope-test-fails",
}


def _error_type(error: str) -> str:
    """Exception type of a row error written as ``Type: message``."""
    return error.split(":", 1)[0]


def load_reference() -> dict[str, list[tuple[float, float | None, str | None]]]:
    """Per family, (param, S_lb, error type) on the lattice; S_lb is None
    and the type is that of the exception where the reference commit
    refused the point, the type is None elsewhere."""
    with open(REFERENCE_FILE) as fh:
        raw = json.load(fh)
    return {
        fam: [(float(row[0]), None, _error_type(row[2])) if row[1] is None
              else (float(row[0]), float(row[1]), None) for row in rows]
        for fam, rows in raw["families"].items()
    }


def _read_csv(path: Path) -> tuple[list[dict[str, str]], list[str]]:
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    comments = [ln for ln in lines if ln.startswith("#")]
    return list(csv.DictReader(body)), comments


def _summary_field(comments: list[str], key: str) -> str | None:
    for line in comments:
        if line.startswith("# summary"):
            for tok in line.split():
                if tok.startswith(key + "="):
                    return tok[len(key) + 1:]
    return None


class Workload:
    """Base: ``round(i)`` gives the calls of round i, ``run(call)`` the
    checked units."""

    name = ""
    work_noun = ""
    # latency of the user-visible unit: one unit, or one whole call
    latency_per_call = False
    latency_noun = ""
    # tail latency percentile, fixed so that at least ten samples lie
    # beyond it in a 35 s run
    tail_percentile: float

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.round_list: list[list[Call]] = []

    def round(self, i: int) -> list[Call]:
        while len(self.round_list) <= i:
            self.round_list.append(self._make_round(len(self.round_list)))
        return self.round_list[i]

    def _make_round(self, i: int) -> list[Call]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, call: Call) -> list[Unit]:
        raise NotImplementedError

    @contextlib.contextmanager
    def instrumented(self):
        """Hooks that capture outputs for checking, active during a pass."""
        yield

    def notes(self, units: list[Unit]) -> list[str]:
        """Workload-specific lines for the human-readable report."""
        return []


# ---------------------------------------------------------------------------
# sample-controls

# Sizes follow the documented usage: ``sample --domain disc --n 100000``
# and ``sample --domain polydisc --n 2000`` for a witness-directed run.
# Ball, polydisc and tetra run at 10^4: a 10^5 ball call alone takes 25 s
# on a 2-core x86-64 VM, most of a run.  Per-call fixed costs (oracle
# set-up, the directed product witness, checkpoint restarts, the CSV
# write) are under 1% of each call at these sizes.  Each round holds five
# directed calls per scale, so that directed is about a tenth of the time,
# and two polydisc and two tetra calls, among which the tail falls.
SAMPLE_CALLS = (
    ("disc", "disc", 100_000, None),
    ("ball", "ball", 10_000, None),
    ("polydisc", "polydisc", 10_000, None),
    ("tetra", "tetra", 10_000, None),
    ("polydisc", "polydisc", 10_000, None),
    ("tetra", "tetra", 10_000, None),
) + tuple(("directed", "polydisc", 2000, scale)
          for scale in (10.0, 100.0, 300.0) for _ in range(5))
SAMPLE_PERIOD = 8


class SampleControls(Workload):
    name = "sample-controls"
    work_noun = "quads"
    latency_noun = "sample call"
    # a round is 15 directed calls, 4 tetra or polydisc calls, a ball and
    # a disc call, so p80 falls in the middle of the tetra and polydisc
    # calls at any number of rounds, where one noisy call moves it least
    tail_percentile = 80.0

    def _make_round(self, i):
        seeds = self.rng.integers(0, 2**31, size=len(SAMPLE_CALLS))
        return [
            Call(label, (domain, n, int(s), scale))
            for (label, domain, n, scale), s in zip(SAMPLE_CALLS, seeds)
        ]

    def warm_up(self):
        for domain, scale in dict.fromkeys((d, sc) for _, d, _, sc in SAMPLE_CALLS):
            self._sample(domain, 10, 0, scale)

    def _sample(self, domain, n, seed, scale):
        out = self.workdir / "sample.csv"
        rc = cli.run_sample(domain, n, seed, str(out), directed_scale=scale,
                            period=SAMPLE_PERIOD)
        return rc, out

    def run(self, call):
        domain, n, seed, scale = call.args
        t0 = time.perf_counter()
        unit = Unit(call.label, 0.0, work=n)
        try:
            rc, out = self._sample(domain, n, seed, scale)
        except Exception as e:
            unit.latency_ms = 1e3 * (time.perf_counter() - t0)
            unit.problems.append(f"{type(e).__name__}: {e}")
            return [unit]
        unit.latency_ms = 1e3 * (time.perf_counter() - t0)
        unit.problems += self.check(out, rc, n, scale)
        return [unit]

    @staticmethod
    def check(out: Path, rc: int, n: int, scale: float | None) -> list[str]:
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        rows, comments = _read_csv(out)
        want_n = [10**k for k in range(1, 12) if 10**k < n] + [n]
        if [int(r["n"]) for r in rows] != want_n:
            problems.append("checkpoint column differs from the decade schedule")
        sups = [float(r["sup_defect"]) for r in rows]
        if any(r["error"] for r in rows):
            problems.append("checkpoint row carries an error")
        if not all(math.isfinite(s) for s in sups):
            problems.append("non-finite sup_defect")
        if any(b < a for a, b in zip(sups, sups[1:])):
            problems.append("sup_defect decreases down the checkpoints")
        # the first injection is draw 8, so every checkpoint holds it
        if scale is not None and any(sup != scale for sup in sups):
            problems.append(f"directed sups {sups!r} != injected scale {scale!r}")
        summary = _summary_field(comments, "sup")
        if summary is None or sups and float(summary) != sups[-1]:
            problems.append("summary sup disagrees with the last checkpoint")
        return problems

    def notes(self, units):
        return [f"directed share of sample time = {directed_time_frac(units):.4f}"]


def directed_time_frac(units: list[Unit]) -> float:
    """Share of sample time spent in witness-directed runs (0 off sample)."""
    directed = sum(u.latency_ms for u in units if u.label == "directed")
    return directed / sum(u.latency_ms for u in units) if directed else 0.0


# ---------------------------------------------------------------------------
# sweep-witnesses

SWEEP_ROWS = 8


class SweepWitnesses(Workload):
    name = "sweep-witnesses"
    work_noun = "rows"
    latency_noun = "sweep row"
    tail_percentile = 99.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.reference = load_reference()
        self.reports: list = []

    def _make_round(self, i):
        calls = []
        for family in EXPECTED_VERDICT:
            ref = self.reference[family]
            idx = np.sort(self.rng.choice(len(ref), size=SWEEP_ROWS, replace=False))
            calls.append(Call(family, (family, tuple(int(k) for k in idx))))
        for family, param, error_type in EDGE_SET:
            calls.append(Call("edge", (family, param, error_type)))
        return calls

    def warm_up(self):
        for family in EXPECTED_VERDICT:
            ref = self.reference[family]
            self._sweep(family, (ref[len(ref) // 2][0],))

    def _sweep(self, family, grid):
        out = self.workdir / "sweep.csv"
        config = cli.SweepConfig(family=family, grid=tuple(grid), out=str(out),
                                 workers=1, timings=True)
        return cli.run_sweep(config), out

    @contextlib.contextmanager
    def instrumented(self):
        # keep every WitnessReport the sweep builds, so its checks can be
        # read; the hook resolves the family callable when the pass
        # starts, after any tracing wrappers are in place
        saved = dict(cli.FAMILIES)

        def capture(fn):
            def hooked(param):
                rep = fn(param)
                self.reports.append(rep)
                return rep
            return hooked

        for family, fn in saved.items():
            cli.FAMILIES[family] = capture(fn)
        try:
            yield
        finally:
            cli.FAMILIES.update(saved)

    def run(self, call):
        family = call.args[0]
        if call.label == "edge":
            expected = [(call.args[1], None, call.args[2])]
        else:
            expected = [self.reference[family][k] for k in call.args[1]]
        grid = tuple(p for p, _, _ in expected)
        self.reports.clear()
        t0 = time.perf_counter()
        try:
            rc, out = self._sweep(family, grid)
        except Exception as e:
            wall = 1e3 * (time.perf_counter() - t0) / len(grid)
            return [Unit(call.label, wall, problems=[f"{type(e).__name__}: {e}"])
                    for _ in grid]
        rows, comments = _read_csv(out)
        units = [
            self._check_row(Unit(call.label, float(row["wall_ms"])), family, row, ref)
            for row, ref in zip(rows, expected)
        ]
        problems = []
        if [r["param"] for r in rows] != [format(p, ".17g") for p in grid]:
            problems.append(f"{family}: row params differ from the grid")
        if rc != (2 if any(u.refused for u in units) else 0):
            problems.append(f"{family}: exit code {rc} disagrees with the row errors")
        verdict = _summary_field(comments, "verdict")
        if len(grid) > 1 and verdict != EXPECTED_VERDICT[family]:
            problems.append(f"{family}: verdict {verdict}, want {EXPECTED_VERDICT[family]}")
        if problems:
            if not units:
                units.append(Unit(call.label, 0.0))
            units[0].problems.extend(problems)
        return units

    def _check_row(self, unit, family, row, expected):
        """A row the reference refused may be refused again with the same
        exception type; any other refusal, a failed check or an S_lb off
        the reference is wrong."""
        param, ref, ref_error = expected
        where = f"{family}({row['param']})"
        if row["error"]:
            unit.refused = True
            if ref_error is None:
                unit.problems.append(f"{where} refused a point certified before: {row['error']}")
            elif _error_type(row["error"]) != ref_error or "checks failed" in row["error"]:
                unit.problems.append(f"{where} refused with {row['error']!r}, "
                                     f"the reference with {ref_error}")
            return unit
        reports = [r for r in self.reports if r.param == param]
        if not reports:
            unit.problems.append(f"{where}: no witness report seen")
        for rep in reports:
            bad = [name for name, ok in rep.checks if not ok]
            if bad:
                unit.problems.append(f"{where}: checks failed {bad}")
        s_lb = float(row["S_lb"])
        if not math.isfinite(s_lb):
            unit.problems.append(f"{where}: non-finite S_lb")
        elif ref is not None and abs(s_lb - ref) > SLB_ATOL + SLB_RTOL * abs(ref):
            unit.problems.append(f"{where}: S_lb {s_lb!r} != reference {ref!r}")
        return unit


# ---------------------------------------------------------------------------
# verify-suites

# more run_all calls than a run makes
VERIFY_SEEDS_PER_RUN = 1000


class VerifySuites(Workload):
    name = "verify-suites"
    work_noun = "suites"
    # suites in one run_all differ in cost by four orders of magnitude, so
    # the unit a user waits for is the whole run_all call
    latency_per_call = True
    latency_noun = "run_all call"
    tail_percentile = 60.0

    def _make_round(self, i):
        # verify seeds of different workload seeds never overlap
        return [Call("run_all", (self.seed * VERIFY_SEEDS_PER_RUN + i,))]

    def warm_up(self):
        verify.suite_exact_anchors(verify.VerifyContext())

    def run(self, call):
        # one unit per suite, for the failure count; latency is per call
        try:
            results = verify.run_all(seed=call.args[0])
        except Exception as e:
            return [Unit("run_all", 0.0, problems=[f"{type(e).__name__}: {e}"])]
        units = []
        for res in results:
            unit = Unit(res.name, 0.0)
            if not res.passed:
                unit.problems.append(f"seed {call.args[0]} {res.name}: {res.detail}")
            units.append(unit)
        if len(units) != len(verify.SUITES):
            units.append(Unit("run_all", 0.0, problems=["suite count changed"]))
        return units


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SampleControls, SweepWitnesses, VerifySuites)
}


def make(name: str, seed: int, workdir: Path) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
