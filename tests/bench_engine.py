"""Microbenchmark of the sampling engine: the four-point defect of one
block on each sampled domain, and one witness-directed `run_sample` call
per scale; then the gn phase scan, each family's README sweep, the
boundary bracket and the verify suites.

    PYTHONPATH=src python tests/bench_engine.py

Each block row times `core.four_point_defects` on one block of
`core.CHUNK` quadruples drawn from the domain's generator, in µs per
block, and the domain's distance kernel alone on as many pairs as a
block hands it, 6 * CHUNK; the difference is the engine's own cost.
Each directed row times one `run_sample` call of 2,000 quadruples on
the bidisc with product witnesses of defect S injected, the call the
sample-controls benchmark makes 15 times a round, in µs per call.
The witness rows time one `gn_witness(0.9)`, whose six pairs share four
lifts, and one `tetra_witness(0.9)`, in µs per call; the gn stack row
times one `gn_pair_bounds` stack of 12 pairs of 24 random real lifts,
the draw of verify's symmetrized-bidisc suite, in µs per call.
Each sweep row times one `cli.run_sweep` call on the family's grid in
`scripts/run_divergence_sweeps.py`, CSV written, in ms per sweep.
Each bracket row times one `boundary_distance_brackets` call on the
model's 120 points of verify's bound-sandwich draw (default seed) and
one at `BASE_POINT` alone, in µs per call, and counts on that draw the
branch-and-bound rounds, the uniform pass included, and the profile
values they evaluate.  It also prints the headroom of the cap on one
point's splits: the least `convex._BB_MAX_ITER` at which each of the two
calls does not refuse, found by bisection.  At the default seed these
sit well under the cap of 6,000 (over that seed and the 19 after it the
draw needs at most 671 splits on the hinge, 524 on flat_exp and 869 on
flat_quartic; `BASE_POINT` needs 0, 0 and 288).  Each chain row times one `ub_euclidean_chain`
call on the model's 1,000 pairs of that draw, in µs per call.  The
rounding row times `rounding.up` on a one-element array next to
`np.nextafter`, in µs per call; the run_all row times one warm
`verify.run_all()`, in ms per call, and the rows after it each verify
suite alone at the default seed, in ms per call.
Not collected by pytest: it measures, it does not check.
"""

import dataclasses
import os
import tempfile
import timeit

import numpy as np

from gromovlab import cli, convex, core, exact, models, verify, witnesses
from gromovlab.convex import BASE_POINT
from gromovlab.rounding import up
from test_scripts import _load

DIRECTED_SCALES = (10.0, 100.0, 300.0)
DIRECTED_N = 2000


def _per_call_us(f):
    timer = timeit.Timer(f)
    n, _ = timer.autorange()
    return 1e6 * min(timer.repeat(5, n)) / n


def _search_counts(dom, pts) -> tuple[int, int]:
    """(rounds, profile values) of the branch and bound in one
    `boundary_distance_brackets` call, from the uniform pass on, counted
    by wrapping the profile."""
    value, shapes = dom.profile.value, []

    def counted(t):
        shapes.append(np.shape(t))
        return value(t)

    spied = dataclasses.replace(dom, profile=dataclasses.replace(dom.profile, value=counted))
    spied.boundary_distance_brackets(pts)
    # the membership test and the search's ends evaluate first; the
    # uniform pass is the one two-dimensional call
    search = shapes[next(k for k, shape in enumerate(shapes) if len(shape) == 2):]
    return len(search), sum(int(np.prod(shape)) for shape in search)


def _least_cap(dom, pts) -> int:
    """The least `convex._BB_MAX_ITER` at which `boundary_distance_brackets`
    on pts does not refuse, by bisection below the cap in use: a search
    runs the same until it refuses, so a cap that passes passes above too."""
    cap = convex._BB_MAX_ITER
    refused, passed = -1, cap
    try:
        while passed - refused > 1:
            convex._BB_MAX_ITER = mid = (refused + passed) // 2
            try:
                dom.boundary_distance_brackets(pts)
                passed = mid
            except convex.CertificateError:
                refused = mid
    finally:
        convex._BB_MAX_ITER = cap
    return passed


def main() -> None:
    print(f"{'domain':>14} {'block us':>9} {'kernel us':>10}")
    for name, dom in exact.SAMPLE_DOMAINS.items():
        sampler = core.uniform_quadruple_sampler(dom.points)
        quads = sampler(np.random.default_rng(0), 0, core.CHUNK)
        pts = dom.points(np.random.default_rng(1), 12 * core.CHUNK)
        xs, ys = pts[: 6 * core.CHUNK], pts[6 * core.CHUNK:]
        block = _per_call_us(lambda: core.four_point_defects(dom.distance, quads))
        kernel = _per_call_us(lambda: dom.distance(xs, ys))
        print(f"{name:>14} {block:>9.1f} {kernel:>10.1f}")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "directed.csv")
        for scale in DIRECTED_SCALES:
            call = _per_call_us(
                lambda: cli.run_sample("polydisc", DIRECTED_N, 5, out, directed_scale=scale))
            print(f"directed run_sample n={DIRECTED_N} S={scale:g}: {call:.0f} us")
    for name, witness in (("gn", witnesses.gn_witness), ("tetra", witnesses.tetra_witness)):
        call = _per_call_us(lambda: witness(0.9))
        print(f"{name}_witness(0.9): {call:.0f} us")
    lifts = np.random.default_rng(2).uniform(-0.9, 0.9, (24, 2))
    first, second = np.arange(12), np.arange(12, 24)
    stack = _per_call_us(lambda: exact.gn_pair_bounds(lifts, first, second))
    print(f"gn_pair_bounds, 12 pairs of 24 lifts: {stack:.0f} us")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.csv")
        for family, grid in _load("run_divergence_sweeps").SWEEPS.items():
            config = cli.SweepConfig(family=family, grid=cli.parse_grid(grid), out=out)
            wall = _per_call_us(lambda: cli.run_sweep(config)) / 1e3
            print(f"sweep {family} ({len(config.grid)} rows): {wall:.2f} ms")
    rng = np.random.default_rng(verify.VerifyContext().seed + 3)
    for name, dom in models.MODELS.items():
        P, i, j = verify._sample_pairs(dom, rng, 120, 1000)
        draw = _per_call_us(lambda: dom.boundary_distance_brackets(P))
        base = _per_call_us(lambda: dom.boundary_distance_brackets([BASE_POINT]))
        rounds, evals = _search_counts(dom, P)
        print(f"bracket {name}: bound-sandwich draw {draw:.0f} us, BASE_POINT {base:.0f} us, "
              f"{rounds} rounds, {evals:,} profile values; least cap on splits "
              f"{_least_cap(dom, P)} on the draw, {_least_cap(dom, [BASE_POINT])} at BASE_POINT "
              f"(cap {convex._BB_MAX_ITER:,})")
        chain = _per_call_us(lambda: dom.ub_euclidean_chain(P[i], P[j]))
        print(f"chain {name}: {len(i):,} bound-sandwich pairs {chain:.0f} us")
    one = np.array([0.5])
    stepped = _per_call_us(lambda: up(one))
    raw = _per_call_us(lambda: np.nextafter(one, np.inf))
    print(f"one-element step: rounding.up {stepped:.2f} us, np.nextafter {raw:.2f} us")
    verify.run_all()
    print(f"verify.run_all(): {_per_call_us(verify.run_all) / 1e3:.1f} ms")
    ctx = verify.VerifyContext()
    for suite in verify.SUITES:
        name = suite.__name__.removeprefix("suite_").replace("_", "-")
        print(f"verify {name}: {_per_call_us(lambda: suite(ctx)) / 1e3:.2f} ms")


if __name__ == "__main__":
    main()
