"""Closed-form distances and two-sided bounds on the model domains."""

import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gromovlab import exact, verify
from gromovlab.exact import DistBound, OracleError

disc_pts = st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False)
unit_reals = st.floats(min_value=-0.95, max_value=0.95)


# -- disc, half-plane, strip -------------------------------------------------

def test_disc_distance_radial():
    assert exact.disc_distance(0.0, 0.5) == pytest.approx(math.atanh(0.5), abs=1e-15)
    assert exact.disc_distance(0.3, -0.3) == pytest.approx(
        math.atanh(0.6 / 1.09), abs=1e-15
    )


@given(u=disc_pts, v=disc_pts)
def test_disc_distance_symmetry(u, v):
    assert exact.disc_distance(u, v) == pytest.approx(exact.disc_distance(v, u), abs=1e-12)


@given(u=disc_pts, v=disc_pts, a=st.complex_numbers(max_magnitude=0.8, allow_nan=False))
def test_disc_distance_mobius_invariant(u, v, a):
    # z -> e^{0.7 i} (z - a)/(1 - conj(a) z), an automorphism of the disc
    def phi(z):
        return cmath.exp(0.7j) * (z - a) / (1.0 - a.conjugate() * z)

    lhs = exact.disc_distance(u, v)
    rhs = exact.disc_distance(phi(u), phi(v))
    assert rhs == pytest.approx(lhs, abs=1e-9, rel=1e-9)


@given(z=disc_pts, w=disc_pts)
def test_cayley_transport(z, w):
    # the Cayley map of the unit disc onto Re > 0
    def cayley(x):
        return (1.0 + x) / (1.0 - x)

    lhs = exact.disc_distance(z, w)
    rhs = exact.halfplane_distance(cayley(z), cayley(w))
    assert rhs == pytest.approx(lhs, abs=1e-9, rel=1e-9)


def test_halfplane_distance_on_the_real_axis():
    # d(x, y) = (1/2) log(y/x) for 0 < x < y
    assert exact.halfplane_distance(1.0, 3.0) == pytest.approx(0.5 * math.log(3.0), abs=1e-15)


def test_halfplane_distance_near_boundary_pair():
    # antipodal pair hugging the imaginary axis; naive 1 - m^2 underflows
    eps = 1e-12
    v = exact.halfplane_distance(eps + 1j, eps - 1j)
    assert v == pytest.approx(math.log(2.0 / eps), rel=1e-14)


def test_strip_distance_against_conformal_map():
    z, w = 0.3 + 0.2j, -0.5 - 0.1j
    t1 = cmath.tan(math.pi * z / 4.0)
    t2 = cmath.tan(math.pi * w / 4.0)
    assert exact.strip_distance(z, w) == pytest.approx(
        exact.disc_distance(t1, t2), abs=1e-12
    )


def _float_calls(fn, zs, ws):
    # a distance on two arrays of points, one Python value at a time
    return np.array([fn(z, w) for z, w in zip(zs.tolist(), ws.tolist())])


def _halfplane_draw(rng, complex_points):
    h = rng.uniform(1e-6, 10.0, (2, 500))
    return h + 1j * rng.uniform(-5.0, 5.0, h.shape) if complex_points else h


def _strip_draw(rng, complex_points):
    s = rng.uniform(-0.99, 0.99, (2, 500))
    return s + 1j * rng.uniform(-2.0, 2.0, s.shape) if complex_points else s


@pytest.mark.parametrize("complex_points", (False, True), ids=("real", "complex"))
@pytest.mark.parametrize("kernel, draw, rtol, boundary", [
    (exact.halfplane_distance, _halfplane_draw, 1e-14, 0.0),
    (exact.strip_distance, _strip_draw, 1e-12, 1.0),
], ids=("halfplane", "strip"))
def test_halfplane_and_strip_on_arrays_are_the_float_calls(kernel, draw, rtol, boundary,
                                                           complex_points):
    # one formula on both: an array entry is the float call to within the
    # difference of numpy's log1p, arctanh and tan from libm's (numpy's may
    # run SIMD loops), which the strip's tan near |Re z| = 1 amplifies; a
    # point on the boundary refuses the whole array
    zs, ws = draw(np.random.default_rng(31), complex_points)
    got = kernel(zs, ws)
    np.testing.assert_allclose(got, _float_calls(kernel, zs, ws), rtol=rtol, atol=0.0)
    outside = zs.copy()
    outside[-1] = boundary
    with pytest.raises(OracleError):
        kernel(outside, ws)


@pytest.mark.parametrize("kernel, check", [
    ("disc_distance", "cayley mismatch"),
    ("halfplane_distance", "cayley mismatch"),
    ("strip_distance", "strip composition mismatch"),
])
def test_a_kernel_scaled_by_a_billionth_fails_conformal_consistency(monkeypatch, kernel, check):
    # each kernel the suite reads, scaled by 1 + 1e-9: a check that reads it
    # names its draws, past the suite's 1e-10 relative tolerance
    real = getattr(exact, kernel)
    monkeypatch.setattr(exact, kernel, lambda z, w: real(z, w) * (1.0 + 1e-9))
    results = {r.name: r for r in verify.run_all()}
    assert not results["conformal-consistency"].passed
    assert check in results["conformal-consistency"].detail


# -- product domains ---------------------------------------------------------

@given(a=unit_reals, b=unit_reals, c=unit_reals, e=unit_reals)
def test_polydisc_distance_is_max(a, b, c, e):
    zs, ws = (complex(a), complex(b)), (complex(c), complex(e))
    expect = max(exact.disc_distance(zs[0], ws[0]), exact.disc_distance(zs[1], ws[1]))
    got = exact.polydisc_distance_array(np.array([zs]), np.array([ws]))[0]
    assert got == pytest.approx(expect, abs=1e-14)


def test_polydisc_axis_oracle_beyond_tanh_saturation():
    d = exact.polydisc_axis_oracle(2).fn
    # axis coordinates are hyperbolic arclengths along (-1, 1) slices
    assert d((0.0, 0.0), (25.0, 0.0)) == pytest.approx(25.0, abs=1e-12)
    assert d((3.0, -2.0), (3.0, 40.0)) == pytest.approx(42.0, abs=1e-12)


def test_ball_distance_radial_and_rotation():
    def ball(z, w):
        return exact.ball_distance_array(np.array([z]), np.array([w]))[0]

    z = (0.7 + 0.0j, 0.0 + 0.0j)
    assert ball((0j, 0j), z) == pytest.approx(math.atanh(0.7), abs=1e-14)
    th = 1.1
    rot = lambda p: (cmath.exp(1j * th) * p[0], p[1])
    w = (0.2 + 0.1j, -0.3 + 0.4j)
    assert ball(rot(z), rot(w)) == pytest.approx(ball(z, w), abs=1e-12)


# -- DistBound ---------------------------------------------------------------

def test_dist_bound_rejects_inversion():
    with pytest.raises(ValueError):
        DistBound(lo=1.0, hi=0.5)


def test_dist_bound_refuses_a_one_ulp_inversion():
    DistBound(lo=1.0, hi=1.0)
    with pytest.raises(ValueError, match="inverted"):
        DistBound(lo=math.nextafter(1.0, 2.0), hi=1.0)
    with pytest.raises(ValueError, match="inverted"):
        DistBound(lo=math.nan, hi=1.0)


def test_atanh_one_minus_deep_argument():
    # atanh(1 - eps) = (1/2) log(2/eps) + O(eps), stated via log eps
    v = exact.atanh_one_minus(-100.0)
    assert v == pytest.approx(0.5 * (math.log(2.0) + 100.0), abs=1e-9)


# -- symmetrized bidisc ------------------------------------------------------

def test_gn_bounds_refuse_lift_outside_bidisc():
    inside = (0.3 + 0.1j, -0.5)
    for outside in ((1.2, 0.3), (0.3, 1.0), (0.6 + 0.8j, 0.0)):
        with pytest.raises(OracleError):
            exact.gn_lower_bound([inside, outside], [0], [1])
        with pytest.raises(OracleError):
            exact.gn_upper_bound([outside, inside], [0], [1])


@pytest.mark.parametrize(
    "bad", [(1.2, 0.3), (0.3, 1.0), (math.nan, 0.1), (0.2, complex(0.0, math.nan))])
@pytest.mark.parametrize("at", [0, 3, 6])
def test_gn_stack_refuses_a_bad_lift_before_scanning(monkeypatch, bad, at):
    # the bad lift first, in the middle and last of a stack of 7; no scan
    # or disc distance may run before the refusal
    def never(*args):
        raise AssertionError("a scan ran before the stack was checked")

    monkeypatch.setattr(exact, "_phi", never)
    monkeypatch.setattr(exact, "_disc_distance_gaps", never)
    good = [(0.1 * k, -0.05 * k + 0.2j) for k in range(7)]
    bad_stack = good[:at] + [bad] + good[at + 1:]
    for fn in (exact.gn_lower_bound, exact.gn_upper_bound):
        for lifts, i in ((bad_stack + good, at), (good + bad_stack, 7 + at)):
            with pytest.raises(OracleError, match=f"lift {i} of the stack") as err:
                fn(lifts, range(7), range(7, 14))
            assert repr(complex(bad[0])) in str(err.value)


def test_gn_stacks_must_pair_up(monkeypatch):
    # each refusal comes before any scan runs
    def never(*args):
        raise AssertionError("a scan ran before the pairs were checked")

    monkeypatch.setattr(exact, "_phi", never)
    monkeypatch.setattr(exact, "_disc_distance_gaps", never)
    lifts = [(0.1, 0.2), (0.3, 0.4), (-0.2, 0.5j)]
    refused = [
        ([0, 1, 2], [1, 2]),        # unequal lengths
        ([[0, 1]], [[1, 2]]),       # not one index per pair
        ([0, 3], [1, 2]),           # past the end of the stack
        ([0, 1], [-1, 2]),          # before its start
        ([0.0, 1.0], [1.0, 2.0]),   # not integers
    ]
    for first, second in refused:
        for fn in (exact.gn_lower_bound, exact.gn_upper_bound, exact.gn_pair_bounds):
            with pytest.raises(OracleError):
                fn(lifts, first, second)


@given(
    a=st.floats(min_value=-0.9, max_value=0.9),
    b=st.floats(min_value=-0.9, max_value=0.9),
    c=st.floats(min_value=-0.9, max_value=0.9),
    e=st.floats(min_value=-0.9, max_value=0.9),
)
def test_gn_pair_bounds_are_ordered(a, b, c, e):
    # at the four cardinal phases, which the scan's grid holds, the disc
    # distance v between the images under Phi_lam(s, p) = (2 lam p - s)/(2 - lam s)
    # sits below the upper bound and, up to the rounding of the scan's own
    # form of Phi_lam, below the lower bound
    x = (complex(a, 0.1 * b), complex(b))
    y = (complex(c, -0.05), complex(e))
    [bound] = exact.gn_pair_bounds([x, y], [0], [1])

    def image(lam, z):
        s, p = z[0] + z[1], z[0] * z[1]
        return (2.0 * lam * p - s) / (2.0 - lam * s)

    for lam in (1.0, 1j, -1.0, -1j):
        v = exact.disc_distance(image(lam, x), image(lam, y))
        assert v <= bound.lo + 1e-12 * (1.0 + v)
        assert v <= bound.hi


def test_gn_diagonal_matches_disc():
    # on the diagonal, lifts (z, z), both bounds collapse to the disc distance
    for z, w in [(0.0, 0.5), (0.2, -0.4), (0.6, 0.61)]:
        [bound] = exact.gn_pair_bounds([(z, z), (w, w)], [0], [1])
        expect = exact.disc_distance(complex(z), complex(w))
        assert bound.lo == pytest.approx(expect, abs=1e-9)
        assert bound.hi == pytest.approx(expect, abs=1e-12)


def _one_pair(x, y):
    return exact.gn_lower_bound([x, y], [0], [1])[0], exact.gn_upper_bound([x, y], [0], [1])[0]


# (lift of x, lift of y) -> (gn_lower_bound, gn_upper_bound), bit for bit;
# the last pair has z1 + z2 = 0 at both ends and takes the p-axis disc
GN_PINS = {
    ((0.3 + 0.2j, -0.5 + 0.1j), (0.1 - 0.4j, 0.6 + 0.3j)):
        (0.787657923404961, 0.8789497090486915),
    ((0.7j, 0.2 - 0.3j), (-0.45 + 0.45j, 0.05)):
        (0.7060581661547669, 0.8342917134272988),
    ((0.85 + 0.1j, 0.8 - 0.2j), (-0.3 - 0.6j, 0.4j)):
        (1.6551807253967148, 1.7498596502950199),
    ((0.6 + 0.6j, 0.1), (0.6 - 0.6j, -0.1)):
        (1.3035471794638622, 1.3264471932564463),
    ((0.9 - 0.3j, 0.2j), (0.5 - 0.5j, 0.5 + 0.5j)):
        (1.3347732499566742, 1.4436354751788107),
    ((0.5j, -0.5j), (0.3 + 0.4j, -0.3 - 0.4j)):
        (0.3147759800187903, 0.31477598001879015),
}


@pytest.mark.parametrize("lifts", list(GN_PINS), ids=range(len(GN_PINS)))
def test_gn_bounds_pinned_off_the_real_axis(lifts):
    x, y = lifts
    assert _one_pair(x, y) == GN_PINS[lifts]


@pytest.mark.parametrize("lifts", list(GN_PINS), ids=range(len(GN_PINS)))
def test_gn_bounds_ignore_lift_order(lifts):
    # (z1, z2) and (z2, z1) lift the same point
    x, y = lifts
    want = _one_pair(x, y)
    for u in (x, x[::-1]):
        for v in (y, y[::-1]):
            assert _one_pair(u, v) == want


def _lift(log_gap1, log_gap2, phase1, phase2, on_p_axis):
    # a lift with gaps 1 - |z_i| from 1e-12 up, at any phases; on the
    # p-axis it is (z, -z)
    z1 = (1.0 - 10.0 ** log_gap1) * cmath.exp(1j * phase1)
    return (z1, -z1) if on_p_axis else (z1, (1.0 - 10.0 ** log_gap2) * cmath.exp(1j * phase2))


_log_gaps = st.floats(min_value=-12.0, max_value=0.0)
_phases = st.floats(min_value=0.0, max_value=2.0 * math.pi)
_lifts = st.builds(_lift, _log_gaps, _log_gaps, _phases, _phases, st.booleans())


@given(pairs=st.lists(st.tuples(_lifts, _lifts), min_size=1, max_size=16), data=st.data())
def test_gn_stack_bits_match_each_pair_alone(pairs, data):
    xs, ys = zip(*pairs)
    k = len(pairs)
    stacked = exact.gn_pair_bounds(xs + ys, range(k), range(k, 2 * k))
    assert stacked == [exact.gn_pair_bounds([x, y], [0], [1])[0] for x, y in pairs]
    order = data.draw(st.permutations(range(k)))
    shuffled = exact.gn_pair_bounds(
        [xs[i] for i in order] + [ys[i] for i in order], range(k), range(k, 2 * k))
    assert shuffled == [stacked[i] for i in order]


@given(lifts=st.lists(_lifts, min_size=1, max_size=6),
       picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=12))
def test_gn_shared_lifts_match_repeated_lifts(lifts, picks):
    # pairs that share lifts get the bits of the expanded stack, in which
    # every pair has its own two lifts
    first, second = (np.array(side) % len(lifts) for side in zip(*picks))
    z = np.asarray(lifts)
    k = len(first)
    expanded = np.concatenate([z[first], z[second]])
    want = (exact.gn_lower_bound(expanded, np.arange(k), np.arange(k, 2 * k)),
            exact.gn_upper_bound(expanded, np.arange(k), np.arange(k, 2 * k)))
    got = exact.gn_lower_bound(lifts, first, second), exact.gn_upper_bound(lifts, first, second)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_gn_lower_bound_hits_extremal_direction():
    # royal-axis pairs (0, -p^2): the theta grid contains the maximizer
    assert exact.gn_lower_bound([(0.0, 0.0), (0.8, -0.8)], [0], [1])[0] == pytest.approx(
        math.atanh(0.64), abs=1e-12
    )


# -- tetrablock --------------------------------------------------------------

def test_tetra_origin_distance_royal_point():
    assert exact.tetra_origin_distance((0.8, 0.8, 0.64)) == pytest.approx(
        math.atanh(0.8), abs=1e-14
    )


@pytest.mark.parametrize("k", range(3))
@pytest.mark.parametrize("part", [math.nan, math.inf])
def test_tetra_origin_distance_refuses_a_nan_or_infinite_coordinate(k, part):
    # an underflowing exp leaves errno at ERANGE, where CPython's complex
    # abs on a NaN part would raise OverflowError rather than return NaN
    x = [0.1 + 0.0j] * 3
    x[k] = complex(0.0, part)
    math.exp(-1000.0)
    with pytest.raises(OracleError):
        exact.tetra_origin_distance(tuple(x))


def test_tetra_automorphism_fixes_membership():
    # the origin form refuses points outside the tetrablock, so a finite
    # distance means the image of the reference automorphism is inside
    oracle_gen = pytest.importorskip("oracle_gen", reason="the automorphism is an mpmath reference")
    x = (0.3, 0.2, 0.05)
    y = tuple(complex(c) for c in oracle_gen.tetra_automorphism(0.4, x))
    assert math.isfinite(exact.tetra_origin_distance(y))
    z = tuple(complex(c) for c in oracle_gen.tetra_automorphism(-0.4, y))
    assert math.isfinite(exact.tetra_origin_distance(z))
    with pytest.raises(OracleError):
        exact.tetra_origin_distance((0.9, 0.9, -0.9))


def test_tetra_origin_distance_on_the_bidisc_slice():
    # z -> (z1, z2, z1 z2) embeds the bidisc and x -> (x1, x2) retracts onto
    # it, so on the slice the origin form is the bidisc's distance to 0
    rng = np.random.default_rng(36)
    real = rng.uniform(-0.9, 0.9, (2000, 2))
    lifts = np.concatenate([real, 0.9 * exact.polydisc_points(rng, 2000)])
    wrong = []
    for z1, z2 in lifts.tolist():
        got = exact.tetra_origin_distance((z1, z2, z1 * z2))
        want = max(math.atanh(abs(z1)), math.atanh(abs(z2)))
        if abs(got - want) > 1e-14:
            wrong.append((z1, z2, got - want))
    assert not wrong, (len(wrong), wrong[:5])


def test_royal_kernel_on_the_royal_line():
    # the royal line is a complex geodesic: the disc kernel on the
    # parameters is the tetrablock distance of (u, u, u^2) and (v, v, v^2),
    # which the reference automorphism shifting u to 0 and the origin form
    # give in mpmath
    oracle_gen = pytest.importorskip("oracle_gen", reason="the automorphism is an mpmath reference")
    mp = oracle_gen.mp
    kernel = exact.SAMPLE_DOMAINS["tetra"].distance
    assert kernel is exact.disc_distance
    rng = np.random.default_rng(12)
    u, v = rng.uniform(-0.9, 0.9, (2, 500))
    got = kernel(u, v)
    for k in range(len(u)):
        royal = (v[k], v[k], mp.mpf(v[k]) ** 2)
        want = oracle_gen.tetra_origin_distance(oracle_gen.tetra_automorphism(u[k], royal))
        assert got[k] == pytest.approx(float(want), rel=1e-11), (u[k], v[k])


# -- real points run real arithmetic -----------------------------------------

def _as_complex(x):
    # the same values cast to complex, in the same container
    if isinstance(x, np.ndarray):
        return x.astype(complex)
    if isinstance(x, tuple):
        return tuple(_as_complex(c) for c in x)
    return complex(x)


def _outcome(fn, *args):
    # the result's bits as hex, or the refusal
    try:
        v = fn(*args)
    except OracleError:
        return "OracleError"

    def bits(v):
        if isinstance(v, DistBound):
            return v.lo.hex(), v.hi.hex()
        if isinstance(v, (list, np.ndarray)):
            return [bits(e) for e in v]
        return float(v).hex()

    return bits(v)


def _real_cases():
    rng = np.random.default_rng(25)
    tetra, ball, poly = (exact.SAMPLE_DOMAINS[k].distance for k in ("tetra", "ball", "polydisc"))
    u, v = (exact.royal_line_points(rng, 2000) for _ in range(2))
    disc = exact.disc_points(rng, 2000)
    b1, b2 = (exact.ball_points(rng, 500).real for _ in range(2))
    p1, p2 = (exact.polydisc_points(rng, 500).real for _ in range(2))
    h1, h2 = rng.uniform(1e-6, 10.0, (2, 300))
    s1, s2 = rng.uniform(-0.99, 0.99, (2, 300))
    a, b, c = rng.uniform(-0.9, 0.9, (3, 300))
    # |x3 - x1 x2| < (1 - |x1|)(1 - |x2|) keeps each point in the tetrablock
    off_royal = np.stack([a, b, a * b + c * (1.0 - abs(a)) * (1.0 - abs(b))], axis=1)
    lifts = rng.uniform(-0.9, 0.9, (12, 2, 2))
    on_axis = np.stack([lifts[:, 0, 0], -lifts[:, 0, 0]], axis=1)

    def origin(xs):
        return [exact.tetra_origin_distance(tuple(x)) for x in xs.tolist()]

    return {
        "royal-line block": (tetra, u, v),
        "royal-line block against complex disc points": (exact.disc_distance, u, disc),
        "ball rows": (ball, b1, b2),
        "polydisc rows": (poly, p1, p2),
        "disc anchor 0..0.5": (exact.disc_distance, 0.0, 0.5),
        "disc anchor 0..0.9": (exact.disc_distance, 0.0, 0.9),
        "halfplane anchor": (exact.halfplane_distance, 1.0, 3.0),
        "polydisc anchor": (lambda x, y: verify._sampled("polydisc", x, y), (0.5, 0.1), (0.0, 0.0)),
        "ball anchor": (lambda x, y: verify._sampled("ball", x, y), (0.7, 0.0), (0.0, 0.0)),
        "tetra anchor": (exact.tetra_origin_distance, (0.8, 0.8, 0.64)),
        "half-plane points": (exact.halfplane_distance, h1, h2),
        "strip points": (exact.strip_distance, s1, s2),
        "tetra origin off the royal line": (origin, off_royal),
        "gn lifts": (functools.partial(exact.gn_pair_bounds, first=np.arange(12),
                                       second=np.arange(12, 24)),
                     np.concatenate([lifts[:, 0], lifts[:, 1]])),
        "gn lifts on the p-axis": (functools.partial(exact.gn_pair_bounds, first=np.arange(12),
                                                     second=np.arange(11, -1, -1)), on_axis),
    }


@pytest.mark.parametrize("case", list(_real_cases()))
def test_real_points_get_the_bits_of_complex_ones(case):
    fn, *args = _real_cases()[case]
    assert _outcome(fn, *args) == _outcome(fn, *map(_as_complex, args))
