"""The batched four-point engine against its scalar reference.

The array kernels agree with their scalar twins and refuse the same
points; block defects agree with a ``four_point_defect`` loop; the
engine's checks fire on a non-metric oracle and on a point outside the
domain; one ``run_sample`` pass gives every decade checkpoint.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gromovlab import cli, core, exact, witnesses

# relative agreement of a kernel with its scalar twin: the formulas are
# the same, so only the libm and numpy transcendental functions differ,
# by a few ulps
RTOL = 1e-12


def _royal_distance(u, v):
    return exact.tetra_pair_distance((u, u, u * u), (v, v, v * v), u)


SCALAR = {
    "disc": exact.disc_distance,
    "ball": exact.ball_distance,
    "polydisc": exact.polydisc_distance,
    "tetra": _royal_distance,
    "polydisc_axis": exact.polydisc_axis_oracle(2).fn,
}
# sampled domain -> (array kernel, scalar twin)
TWINS = {name: (dom.distance, SCALAR[name]) for name, dom in exact.SAMPLE_DOMAINS.items()}


def check_twins(domain, xs, ys):
    """The array kernel refuses exactly the pairs the scalar one refuses
    and agrees with it on the rest; returns the scalar distances.

    The scalar tetra shift divides by zero when |u| is within an ulp or
    two of 1 and raises ZeroDivisionError; its array twin refuses the
    same pairs with OracleError.
    """
    array_fn, scalar_fn = TWINS[domain]
    keep, want = [], []
    for k, (x, y) in enumerate(zip(xs, ys)):
        try:
            want.append(scalar_fn(x, y))
        except (exact.OracleError, ZeroDivisionError):
            with pytest.raises(exact.OracleError):
                array_fn(np.array([x]), np.array([y]))
        else:
            keep.append(k)
    if keep:
        got = array_fn(np.array([xs[k] for k in keep]), np.array([ys[k] for k in keep]))
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)
    return want


# boundary gaps 1 - |z| from 1e-8 to 1: small gaps put pairs on the log
# path (1 - m^2 < 0.19), large ones on the direct path
gaps = st.floats(min_value=-8.0, max_value=0.0).map(lambda e: 10.0**e)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)
disc_pts = st.builds(lambda g, th: (1.0 - g) * complex(math.cos(th), math.sin(th)), gaps, angles)


def _ball_point(gap, v):
    v = np.array(v) * (1.0 - gap) / np.linalg.norm(v)
    return (complex(v[0], v[1]), complex(v[2], v[3]))


directions = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4).filter(
    lambda v: np.linalg.norm(v) > 0.1)
ball_pts = st.builds(_ball_point, gaps, directions)
polydisc_pts = st.tuples(disc_pts, disc_pts)
royal_pts = st.builds(lambda g, sign: sign * (1.0 - g), gaps, st.sampled_from((-1.0, 1.0)))
axis_pts = st.tuples(*[st.floats(min_value=-50.0, max_value=50.0)] * 2)

POINTS = {
    "disc": disc_pts,
    "ball": ball_pts,
    "polydisc": polydisc_pts,
    "tetra": royal_pts,
    "polydisc_axis": axis_pts,
}


@pytest.mark.parametrize("domain", sorted(TWINS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_kernel_agrees_with_scalar(domain, data):
    pairs = data.draw(st.lists(st.tuples(POINTS[domain], POINTS[domain]), min_size=1,
                               max_size=12))
    check_twins(domain, [x for x, _ in pairs], [y for _, y in pairs])


def test_disc_kernel_covers_both_sides_of_the_switch():
    # pairs on both sides of 1 - m^2 = 0.19, and deep on the log path
    xs = [0.0, 0.0, 0.0, 0.5j, 1.0 - 1e-8, -(1.0 - 1e-8), 0.3 + 0.4j]
    ys = [0.89, 0.9, 0.91, -0.5j, 1.0 - 2e-8, 1.0 - 1e-8, 0.3 + 0.4j]
    check_twins("disc", xs, ys)
    u, v = np.array(xs), np.array(ys)
    a = 1.0 - np.abs(u) ** 2
    b = 1.0 - np.abs(v) ** 2
    one_minus_m2 = a * b / np.abs(1.0 - np.conj(u) * v) ** 2
    assert np.any(one_minus_m2 < 0.19) and np.any(one_minus_m2 >= 0.19)
    assert np.min(one_minus_m2) < 1e-7


# radii on, just inside and outside the unit circle
radii = st.one_of(st.sampled_from((1.0, 1.0 - 1e-16, 1.0 + 1e-16)),
                  st.floats(min_value=0.9, max_value=3.0))
edge_disc = st.builds(lambda r, th: r * complex(math.cos(th), math.sin(th)), radii, angles)


@pytest.mark.parametrize("domain", ("disc", "ball", "polydisc", "tetra"))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_kernel_refuses_like_scalar(domain, data):
    inside = data.draw(POINTS[domain])
    if domain == "disc":
        edge = data.draw(edge_disc)
    elif domain == "ball":
        r, v = data.draw(radii), data.draw(directions)
        v = np.array(v) * r / np.linalg.norm(v)
        edge = (complex(v[0], v[1]), complex(v[2], v[3]))
    elif domain == "polydisc":
        edge = (data.draw(disc_pts), data.draw(edge_disc))
    else:
        edge = data.draw(radii) * data.draw(st.sampled_from((-1.0, 1.0)))
    check_twins(domain, [inside, edge], [edge, inside])


@pytest.mark.parametrize("domain, outside", [
    ("disc", 1.0 + 0.0j), ("disc", -1j), ("disc", 1.5),
    ("ball", (1.0 + 0.0j, 0.0j)), ("ball", (0.0j, 1j)), ("ball", (0.9 + 0.0j, 0.9j)),
    ("polydisc", (0.0j, 1.0 + 0.0j)),
    ("tetra", 1.0), ("tetra", -1.0),
])
def test_boundary_points_raise_in_both(domain, outside):
    array_fn, scalar_fn = TWINS[domain]
    inside = {"disc": 0.1j, "tetra": 0.2}.get(domain, (0.1j, 0.2 + 0.0j))
    for x, y in ((inside, outside), (outside, inside)):
        with pytest.raises(exact.OracleError):
            scalar_fn(x, y)
        with pytest.raises(exact.OracleError):
            array_fn(np.array([inside, x, inside]), np.array([inside, y, inside]))


def _python_quads(quads):
    return [core._python_quadruple(row) for row in quads]


@pytest.mark.parametrize("domain", sorted(TWINS))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_block_defects_match_scalar_loop(domain, seed):
    array_fn, scalar_fn = TWINS[domain]
    sampler = core.uniform_quadruple_sampler(exact.SAMPLE_DOMAINS[domain].points)
    quads = sampler(np.random.default_rng(seed), 0, 64)
    got = core.four_point_defects(array_fn, quads)
    reps = [core.four_point_defect(scalar_fn, *q) for q in _python_quads(quads)]
    want = np.array([rep.defect for rep in reps])
    # a defect adds and subtracts six distances, each within RTOL of its
    # twin relative to itself
    largest = max(scalar_fn(a, b) for q in _python_quads(quads) for a in q for b in q)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=RTOL * (1.0 + 6.0 * largest))


@pytest.mark.parametrize("scale", (1.0, 10.0, 300.0))
def test_directed_block_defects_are_bit_equal(scale):
    quad = witnesses.product_witness(scale).quadruple
    axis = exact.SAMPLE_DOMAINS["polydisc_axis"]
    base = core.uniform_quadruple_sampler(axis.points)
    sampler = core.mixed_quadruple_sampler(base, [quad], period=8)
    quads = sampler(np.random.default_rng(3), 0, 64)
    got = core.four_point_defects(axis.distance, quads)
    d = exact.polydisc_axis_oracle(2).fn
    want = [core.four_point_defect(d, *q).defect for q in _python_quads(quads)]
    assert got.tolist() == want
    assert all(got[7::8] == scale)


# -- the engine's checks can fail ---------------------------------------------------

@pytest.mark.parametrize("domain", ("disc", "polydisc_axis"))
def test_non_metric_oracle_is_refused(domain):
    array_fn = TWINS[domain][0]
    sampler = core.uniform_quadruple_sampler(exact.SAMPLE_DOMAINS[domain].points)
    squared = lambda a, b: array_fn(a, b) ** 2  # noqa: E731
    with pytest.raises(ValueError, match="negative Gromov product"):
        core.estimate_delta(squared, sampler, 2 * core.CHUNK, seed=1)


@pytest.mark.parametrize("domain, bad", [
    ("disc", 1.5 + 0.0j), ("disc", 1.0 + 0.0j), ("disc", complex("nan")),
    ("ball", (1.0 + 0.0j, 0.0j)), ("polydisc", (0.0j, -1j)),
    ("tetra", 1.0), ("polydisc_axis", (math.nan, 0.0)),
])
def test_outside_point_mid_chunk_raises(domain, bad):
    base = core.uniform_quadruple_sampler(exact.SAMPLE_DOMAINS[domain].points)
    target = core.CHUNK + core.CHUNK // 2

    def corrupt(rng, start, size):
        quads = base(rng, start, size)
        if start <= target < start + size:
            quads[target - start, 2] = bad
        return quads

    d = TWINS[domain][0]
    with pytest.raises(exact.OracleError):
        core.estimate_delta(d, corrupt, 2 * core.CHUNK, seed=3)
    # drawn but past n, the bad quadruple is never evaluated
    est = core.estimate_delta(d, corrupt, target, seed=3)
    assert math.isfinite(est.sup_defect)


# -- one pass gives every checkpoint ------------------------------------------------

def _sups(path):
    with open(path) as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    return {int(r["n"]): float(r["sup_defect"]) for r in rows}


def test_run_sample_checkpoints_in_one_pass(tmp_path, monkeypatch):
    estimate, defects = core.estimate_delta, core.four_point_defects
    calls, evaluated = [], []

    def counting_estimate(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    def counting_defects(d, quads):
        evaluated.append(len(quads))
        return defects(d, quads)

    monkeypatch.setattr(core, "estimate_delta", counting_estimate)
    monkeypatch.setattr(core, "four_point_defects", counting_defects)
    out = tmp_path / "disc.csv"
    assert cli.run_sample("disc", 10**4, 11, str(out)) == 0
    assert len(calls) == 1
    assert sum(evaluated) == 10**4
    sups = _sups(out)
    assert list(sups) == [10, 100, 1000, 10**4]
    d, sampler = cli._sample_setup("disc", None, 8)
    for n in (10, 100, 1000):
        assert sups[n] == estimate(d, sampler, n, 11).sup_defect


@pytest.mark.parametrize("scale", (10.0, 100.0, 300.0))
def test_directed_sup_is_the_scale_at_every_checkpoint(tmp_path, scale):
    out = tmp_path / "dir.csv"
    assert cli.run_sample("polydisc", 10**4, 5, str(out), directed_scale=scale) == 0
    sups = _sups(out)
    assert list(sups) == [10, 100, 1000, 10**4]
    assert all(sup == scale for sup in sups.values())
