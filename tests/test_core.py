"""Four-point machinery on abstract metric spaces."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gromovlab import core
from gromovlab.exact import disc_distance, disc_distance_array


def d_real(x, y):
    return abs(x - y)


coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@given(x=coords, y=coords, w=coords)
def test_gromov_product_on_the_line(x, y, w):
    # on R the product is twice the distance from w to the segment [x, y]
    gp = core.four_point_defect(d_real, x, y, x, w).gp_pq_w
    seg = max(min(x, y) - w, w - max(x, y), 0.0)
    assert gp == pytest.approx(2.0 * seg, abs=1e-9)
    assert gp >= -1e-12


@given(p=coords, q=coords, x=coords, w=coords)
def test_line_defect_is_nonpositive(p, q, x, w):
    # trees satisfy the four-point condition with zero defect
    rep = core.four_point_defect(d_real, p, q, x, w)
    assert rep.defect <= 1e-9


def test_four_point_report_fields():
    rep = core.four_point_defect(d_real, 0.0, 6.0, 2.0, 3.0)
    assert rep.gp_pq_w == pytest.approx(0.0)
    assert rep.defect == pytest.approx(min(rep.gp_px_w, rep.gp_xq_w) - rep.gp_pq_w)
    assert rep.quadruple == (0.0, 6.0, 2.0, 3.0)


def test_defect_needs_six_distances():
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return abs(x - y)

    core.four_point_defect(counting, 0.0, 1.0, 2.0, 3.0)
    assert len(calls) == 6


def test_metric_axiom_violations_catches_asymmetry():
    def skew(x, y):
        return abs(x - y) + (0.1 if x < y else 0.0)

    msgs = core.metric_axiom_violations(skew, [0.0, 1.0, 2.0])
    assert any("symmetry" in m for m in msgs)
    assert core.metric_axiom_violations(d_real, [0.0, 1.0, 2.0]) == []


def test_metric_axiom_violations_catches_triangle():
    def bad(x, y):
        return abs(x - y) ** 2

    msgs = core.metric_axiom_violations(bad, [0.0, 1.0, 2.0])
    assert any("triangle" in m for m in msgs)


def test_estimate_delta_deterministic_and_monotone():
    d = disc_distance_array

    def gen(rng, m):
        return rng.uniform(-0.7, 0.7, m) + 1j * rng.uniform(-0.7, 0.7, m)

    est1 = core.estimate_delta(d, core.uniform_quadruple_sampler(gen), 400, seed=5)
    est2 = core.estimate_delta(d, core.uniform_quadruple_sampler(gen), 400, seed=5)
    assert est1.sup_defect == est2.sup_defect
    assert est1.argmax == est2.argmax
    assert all(isinstance(z, complex) for z in est1.argmax)
    assert [ck for ck, _ in est1.checkpoints] == [10, 100, 400]
    assert est1.checkpoints[-1][1] == est1.sup_defect
    small = core.estimate_delta(d, core.uniform_quadruple_sampler(gen), 100, seed=5)
    assert small.sup_defect <= est1.sup_defect
    assert small.sup_defect == est1.checkpoints[1][1]


def test_mixed_sampler_injects_at_period():
    markers = [np.full((4, 2), 9.0), np.full((4, 2), 8.0)]

    def gen(rng, m):
        return rng.uniform(size=(m, 2))

    base = core.uniform_quadruple_sampler(gen)
    sampler = core.mixed_quadruple_sampler(base, markers, period=4)
    rng = np.random.default_rng(0)
    # slots follow the run's draw index, so a block starting at 5 holds
    # the injections of draws 7, 11 and 15 (the 2nd, 3rd and 4th, cycling
    # through the markers) at its slots 2, 6 and 10
    quads = sampler(rng, 5, 12)
    injected = [i for i in range(12) if np.all(quads[i] >= 8.0)]
    assert injected == [2, 6, 10]
    assert [quads[i][0][0] for i in injected] == [8.0, 9.0, 8.0]
    assert np.all(quads[[i for i in range(12) if i not in injected]] < 1.0)


def test_weak_midpoint_ratios_on_the_line():
    triples = [(0.0, 4.0, 2.0), (0.0, 4.0, 3.0)]
    out = core.weak_midpoint_ratios(triples, d_real)
    (r1a, r1b, _), (r2a, r2b, _) = out
    assert (r1a, r1b) == pytest.approx((0.5, 0.5))
    assert (r2a, r2b) == pytest.approx((0.75, 0.25))
