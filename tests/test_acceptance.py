"""Acceptance harness: the eight headline guarantees, one test each, and
the wall-clock budget of a whole `verify` run.

Each criterion test prints a single summary line (visible under -s and
in failure reports) and enforces its wall-clock budget, so `pytest -v`
reads as a checklist of the guarantees.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from gromovlab import cli, core, exact, verify, witnesses
from gromovlab.models import FLAT_EXP_MODEL, FLAT_QUARTIC_MODEL


@contextlib.contextmanager
def budget(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"budget exceeded: {elapsed:.2f}s >= {seconds}s"


def report(n, ok, detail):
    line = f"criterion-{n} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_tetrablock_exact_defect():
    with budget(1.0):
        worst = 0.0
        worst_id = 0.0
        for a in (0.5, 0.9, 0.99, 0.999):
            rep = witnesses.tetra_witness(a)
            worst = max(worst, abs(rep.s_lb - math.atanh(a)))
            terms = dict(rep.terms)
            worst_id = max(worst_id, abs(2.0 * terms["royal"] - terms["pq"]))
        assert worst < 1e-9
        assert worst_id < 1e-12
    report(1, True, f"defect=atanh(a) to {worst:.2e}, doubling identity to {worst_id:.2e}")


def test_criterion_2_symmetrized_bidisc_divergence():
    with budget(1.0):
        vals = [witnesses.gn_witness(a).s_lb for a in (0.9, 0.99, 0.999, 0.9999)]
        increasing = all(b > a for a, b in zip(vals, vals[1:]))
        gap = vals[-1] - vals[0]
        a = 0.999
        log2_err = abs(2.0 * math.atanh(a) - 2.0 * math.atanh(a * a) - math.log(2.0))
        assert increasing
        assert gap > 2.0
        assert log2_err < 1e-3
    report(2, True, f"S_lb increasing, gap={gap:.3f} > 2, log2 shift err {log2_err:.2e}")


def test_criterion_3_product_exact_defect():
    with budget(1.0):
        d = exact.polydisc_axis_oracle(2).fn
        axis = exact.SAMPLE_DOMAINS["polydisc_axis"].distance
        worst_defect = 0.0
        for s in (1.0, 5.0, 50.0):
            rep = witnesses.product_witness(s)
            p, q, x, w = rep.quadruple
            got = core.four_point_defects(axis, np.array([rep.quadruple]))[0]
            worst_defect = max(worst_defect, abs(got - s))
            # the exact midpoint and a unit-displaced one; the latter
            # saturates the 1/(2s) tolerance exactly
            nudged = (w[0] + 1.0, w[1])
            for ra, rb, _ in core.weak_midpoint_ratios([(p, q, w), (p, q, nudged)], d):
                dev = max(abs(ra - 0.5), abs(rb - 0.5))
                assert dev <= 1.0 / (2.0 * s) + 1e-12
        assert worst_defect < 1e-12
    report(3, True, f"defect=s to {worst_defect:.2e}, midpoint dev within 1/(2s)")


def test_criterion_4_hinge_harness_slope():
    with budget(10.0):
        deltas = (1e-6, 1e-10, 1e-14, 1e-18, 1e-22)
        vals = [witnesses.hinge_witness(d).s_lb for d in deltas]
        slope = float(np.polyfit([math.log(1.0 / d) for d in deltas], vals, 1)[0])
        assert 0.20 <= slope <= 0.30
    report(4, True, f"certified slope {slope:.4f} in [0.20, 0.30], all checks pass")


def test_criterion_5_flat_harness_slope_and_claims():
    with budget(10.0):
        xs = [0.02 * math.exp(-2.0 * k) for k in range(10)]
        logs = [math.log(1.0 / x) for x in xs]
        ev = [witnesses.flat_witness(FLAT_EXP_MODEL, x).s_lb for x in xs]
        qv = [witnesses.flat_witness(FLAT_QUARTIC_MODEL, x).s_lb for x in xs]
        slope = float(np.polyfit(logs, ev, 1)[0])
        qslope = float(np.polyfit(logs, qv, 1)[0])
        assert 0.40 <= slope <= 0.60
        assert -0.05 <= qslope <= 0.05
    report(
        5,
        True,
        f"exp slope {slope:.4f} in [0.40, 0.60], quartic control {qslope:.4f}",
    )


def test_criterion_6_hyperbolic_controls():
    with budget(30.0):
        seed = 7
        drifts = {}
        for name in ("disc", "ball"):
            dom = exact.SAMPLE_DOMAINS[name]
            sampler = core.uniform_quadruple_sampler(dom.points)
            e4 = core.estimate_delta(dom.distance, sampler, 10**4, seed=seed)
            e5 = core.estimate_delta(dom.distance, sampler, 10**5, seed=seed)
            assert e4.sup_defect <= e5.sup_defect  # shared prefix
            drifts[name] = e5.sup_defect - e4.sup_defect
            assert drifts[name] < 0.5

        # directed growth up to the witness constructor's documented scale
        # ceiling: sup tracks s exactly, so every bound below it is exceeded
        axis = exact.SAMPLE_DOMAINS["polydisc_axis"]
        scales = (10.0, 100.0, 300.0)
        sups = []
        for s in scales:
            quad = witnesses.product_witness(s).quadruple
            sampler = core.mixed_quadruple_sampler(
                core.uniform_quadruple_sampler(axis.points),
                quad,
                period=8,
            )
            sups.append(core.estimate_delta(axis.distance, sampler, 128, seed=seed).sup_defect)
        assert all(b > a for a, b in zip(sups, sups[1:]))
        for s, sup in zip(scales, sups):
            assert sup >= s - 1e-9
    report(
        6,
        True,
        f"disc drift {drifts['disc']:.3f}, ball drift {drifts['ball']:.3f} (< 0.5); "
        f"directed bidisc sup reaches {sups[-1]:.0f}",
    )


def test_criterion_7_bound_sandwich():
    with budget(30.0):
        results = {r.name: r for r in verify.run_all()}
        sandwich = results["bound-sandwich"]
        pointwise = results["disc-pointwise"]
        assert sandwich.passed, sandwich.detail
        assert pointwise.passed, pointwise.detail
    report(7, True, "1000 pairs per model: max(lower) <= min(upper) + 1e-9; "
                    "disc pointwise lb <= exact <= chain ub")


def test_verify_run_all_budget():
    # every suite, warm: about 0.2 s on a 2-core x86-64 VM
    verify.run_all()
    with budget(0.75):
        results = verify.run_all()
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_criterion_8_byte_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"h_{tag}.csv"
        code = cli.main(["sweep", "--family", "hinge", "--grid", "geom:1e-6:1e-4:5",
                         "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    souts = []
    for tag in ("a", "b"):
        out = tmp_path / f"s_{tag}.csv"
        code = cli.main(["sample", "--domain", "disc", "--n", "2000", "--seed", "13",
                         "--out", str(out)])
        assert code == 0
        souts.append(out.read_bytes())
    assert souts[0] == souts[1]
    report(8, True, "identical arguments give byte-identical sweep and sample CSVs")
