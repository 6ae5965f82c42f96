"""Four-point machinery on abstract metric spaces."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gromovlab import core
from gromovlab.exact import disc_distance


def line(xs, ys):
    # the line metric as an array distance
    return np.abs(np.asarray(xs) - np.asarray(ys))


def seg(w, a, b):
    # distance from w to the segment [a, b] of the line
    return max(min(a, b) - w, w - max(a, b), 0.0)


coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@given(x=coords, y=coords, w=coords)
def test_gromov_product_on_the_line(x, y, w):
    # on R the product (x, y)_w is twice the distance from w to the segment
    # [x, y]; the quadruple (x, y, w, w) has defect min{0, 0} - (x, y)_w
    gp = -core.four_point_defects(line, np.array([[x, y, w, w]]))[0]
    assert gp == pytest.approx(2.0 * seg(w, x, y), abs=1e-9)
    assert gp >= -1e-12


@given(p=coords, q=coords, x=coords, w=coords)
def test_line_defect_is_nonpositive(p, q, x, w):
    # trees satisfy the four-point condition with zero defect; on R the
    # defect is min{2 seg(w, p, x), 2 seg(w, x, q)} - 2 seg(w, p, q)
    got = core.four_point_defects(line, np.array([[p, q, x, w]]))[0]
    want = 2.0 * min(seg(w, p, x), seg(w, x, q)) - 2.0 * seg(w, p, q)
    assert got == pytest.approx(want, abs=1e-9)
    assert got <= 1e-9


def test_defect_needs_six_distances():
    calls = []

    def counting(xs, ys):
        calls.append(len(xs))
        return line(xs, ys)

    core.four_point_defects(counting, np.array([[0.0, 1.0, 2.0, 3.0]]))
    assert calls == [6]


def test_metric_axiom_violations_catches_asymmetry():
    def skew(x, y):
        return np.abs(x - y) + np.where(x < y, 0.1, 0.0)

    points = np.array([0.0, 1.0, 2.0])
    msgs = core.metric_axiom_violations(skew, points)
    assert any("symmetry" in m for m in msgs)
    assert core.metric_axiom_violations(line, points) == []


def test_metric_axiom_violations_calls_d_once_per_ordered_pair():
    calls = []

    def counting(xs, ys):
        calls.append(list(zip(xs.tolist(), ys.tolist())))
        return line(xs, ys)

    points = [float(k) for k in range(10)]
    assert core.metric_axiom_violations(counting, np.array(points)) == []
    assert len(calls) == 1
    assert sorted(calls[0]) == sorted((x, y) for x in points for y in points)


def _axiom_violations_by_calls(d, points, tol=core.METRIC_TOL):
    # the reference: one call of d on one pair per check, in the order of
    # the checks
    def dist(x, y):
        return float(d(np.array([x]), np.array([y]))[0])

    msgs = []
    n = len(points)
    for i in range(n):
        if abs(dist(points[i], points[i])) > tol:
            msgs.append(f"d(x,x) != 0 at index {i}")
    for i in range(n):
        for j in range(i + 1, n):
            a = dist(points[i], points[j])
            b = dist(points[j], points[i])
            if a < -tol:
                msgs.append(f"negative distance at ({i},{j})")
            if abs(a - b) > tol:
                msgs.append(f"asymmetry at ({i},{j}): {a} vs {b}")
    m = min(n, 12)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if dist(points[i], points[k]) > (
                        dist(points[i], points[j]) + dist(points[j], points[k]) + tol):
                    msgs.append(f"triangle violation at ({i},{j},{k})")
    return msgs


def test_metric_axiom_violations_match_the_call_by_call_reference():
    def rough(x, y):
        return (x - y) ** 2 - 0.3 + np.where(x < y, 0.1, 0.0) + np.where(x == 3.0, 0.2, 0.0)

    points = [float(k % 7) * 0.5 for k in range(14)]
    msgs = core.metric_axiom_violations(rough, np.array(points))
    assert len(msgs) > 100
    assert msgs == _axiom_violations_by_calls(rough, points)


def test_metric_axiom_violations_catches_triangle():
    def bad(x, y):
        return np.abs(x - y) ** 2

    msgs = core.metric_axiom_violations(bad, np.array([0.0, 1.0, 2.0]))
    assert any("triangle" in m for m in msgs)


def test_estimate_delta_deterministic_and_monotone():
    d = disc_distance

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
    marker = np.full((4, 2), 9.0)

    def gen(rng, m):
        return rng.uniform(size=(m, 2))

    base = core.uniform_quadruple_sampler(gen)
    sampler = core.mixed_quadruple_sampler(base, marker, period=4)
    rng = np.random.default_rng(0)
    # slots follow the run's draw index, so a block starting at 5 holds
    # the injections of draws 7, 11 and 15 at its slots 2, 6 and 10
    quads = sampler(rng, 5, 12)
    injected = [i for i in range(12) if np.all(quads[i] == 9.0)]
    assert injected == [2, 6, 10]
    assert np.all(quads[[i for i in range(12) if i not in injected]] < 1.0)

