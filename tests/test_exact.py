"""Closed-form distances and two-sided bounds on the model domains."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gromovlab import exact
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
    phi = exact.mobius_disc_automorphism(a, 0.7)
    lhs = exact.disc_distance(u, v)
    rhs = exact.disc_distance(phi(u), phi(v))
    assert rhs == pytest.approx(lhs, abs=1e-9, rel=1e-9)


@given(z=disc_pts, w=disc_pts)
def test_cayley_transport(z, w):
    lhs = exact.disc_distance(z, w)
    rhs = exact.halfplane_distance(exact.disc_to_halfplane(z), exact.disc_to_halfplane(w))
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


# -- product domains ---------------------------------------------------------

@given(a=unit_reals, b=unit_reals, c=unit_reals, e=unit_reals)
def test_polydisc_distance_is_max(a, b, c, e):
    zs, ws = (complex(a), complex(b)), (complex(c), complex(e))
    expect = max(exact.disc_distance(zs[0], ws[0]), exact.disc_distance(zs[1], ws[1]))
    assert exact.polydisc_distance(zs, ws) == pytest.approx(expect, abs=1e-14)


def test_polydisc_axis_oracle_beyond_tanh_saturation():
    d = exact.polydisc_axis_oracle(2).fn
    # axis coordinates are hyperbolic arclengths along (-1, 1) slices
    assert d((0.0, 0.0), (25.0, 0.0)) == pytest.approx(25.0, abs=1e-12)
    assert d((3.0, -2.0), (3.0, 40.0)) == pytest.approx(42.0, abs=1e-12)


def test_ball_distance_radial_and_rotation():
    z = (0.7 + 0.0j, 0.0 + 0.0j)
    assert exact.ball_distance((0j, 0j), z) == pytest.approx(math.atanh(0.7), abs=1e-14)
    th = 1.1
    rot = lambda p: (cmath.exp(1j * th) * p[0], p[1])
    w = (0.2 + 0.1j, -0.3 + 0.4j)
    assert exact.ball_distance(rot(z), rot(w)) == pytest.approx(
        exact.ball_distance(z, w), abs=1e-12
    )


# -- DistBound ---------------------------------------------------------------

def test_dist_bound_rejects_inversion():
    with pytest.raises(ValueError):
        DistBound(lo=1.0, hi=0.5, lo_tag="a", hi_tag="b")


def test_dist_bound_tolerates_roundoff_crossing():
    b = DistBound(lo=1.0 + 5e-13, hi=1.0, lo_tag="a", hi_tag="b")
    assert b.width <= 1e-12


def test_atanh_one_minus_deep_argument():
    # atanh(1 - eps) = (1/2) log(2/eps) + O(eps), stated via log eps
    v = exact.atanh_one_minus(-100.0)
    assert v == pytest.approx(0.5 * (math.log(2.0) + 100.0), abs=1e-9)


# -- symmetrized bidisc ------------------------------------------------------

def test_sym_poly_map_and_membership():
    s = exact.sym_poly_map((0.3 + 0.1j, -0.5))
    assert s[0] == pytest.approx(-0.2 + 0.1j)
    assert s[1] == pytest.approx(-0.15 - 0.05j)
    assert exact.gn_membership(s)
    assert not exact.gn_membership(exact.sym_poly_map((1.2, 0.3)))


def test_gn_roots_recover_coordinates():
    zs = (0.4 + 0.2j, -0.6 + 0.1j)
    roots = exact.gn_roots(exact.sym_poly_map(zs))
    assert sorted(np.round(roots, 10), key=lambda z: z.real) == pytest.approx(
        sorted(zs, key=lambda z: z.real), abs=1e-9
    )


@given(
    a=st.floats(min_value=-0.9, max_value=0.9),
    b=st.floats(min_value=-0.9, max_value=0.9),
    c=st.floats(min_value=-0.9, max_value=0.9),
    e=st.floats(min_value=-0.9, max_value=0.9),
)
def test_gn_pair_bounds_are_ordered(a, b, c, e):
    x = exact.sym_poly_map((complex(a, 0.1 * b), complex(b)))
    y = exact.sym_poly_map((complex(c, -0.05), complex(e)))
    bd = exact.gn_pair_bounds(x, y)
    assert bd.lo <= bd.hi + 1e-12
    assert bd.lo >= -1e-12


def test_gn_diagonal_matches_disc():
    # on the diagonal s = (2z, z^2) both bounds collapse to the disc distance
    for z, w in [(0.0, 0.5), (0.2, -0.4), (0.6, 0.61)]:
        x = exact.sym_poly_map((z, z))
        y = exact.sym_poly_map((w, w))
        bd = exact.gn_pair_bounds(x, y)
        expect = exact.disc_distance(complex(z), complex(w))
        assert bd.lo == pytest.approx(expect, abs=1e-9)
        assert bd.hi == pytest.approx(expect, abs=1e-6)


def test_gn_lower_bound_hits_extremal_direction():
    # royal-axis pairs (0, -p^2): the theta grid contains the maximizer
    x = exact.sym_poly_map((0.8, -0.8))
    assert exact.gn_lower_bound((0.0, 0.0), x) == pytest.approx(
        math.atanh(0.64), abs=1e-12
    )


# -- tetrablock --------------------------------------------------------------

def test_tetra_origin_distance_royal_point():
    assert exact.tetra_origin_distance((0.8, 0.8, 0.64)) == pytest.approx(
        math.atanh(0.8), abs=1e-14
    )


def test_tetra_automorphism_fixes_membership():
    # the origin form refuses points outside the tetrablock, so a finite
    # distance means the image is inside
    x = (0.3, 0.2, 0.05)
    y = exact.tetra_automorphism(0.4, x)
    assert math.isfinite(exact.tetra_origin_distance(y))
    z = exact.tetra_automorphism(-0.4, y)
    assert math.isfinite(exact.tetra_origin_distance(z))
    with pytest.raises(OracleError):
        exact.tetra_origin_distance((0.9, 0.9, -0.9))


def test_tetra_pair_distance_on_royal_line():
    u, v = 0.3, 0.7
    x, y = (u, u, u * u), (v, v, v * v)
    got = exact.tetra_pair_distance(x, y, u)
    assert got == pytest.approx(abs(math.atanh(v) - math.atanh(u)), abs=1e-12)


def test_tetra_pair_distance_needs_vanishing_image():
    with pytest.raises(OracleError):
        exact.tetra_pair_distance((0.3, 0.2, 0.05), (0.1, 0.1, 0.01), 0.9)


def test_tetra_shift_with_vanishing_denominator_raises_oracle_error():
    # 1 - 2u^2 + u^4 rounds to 0 one ulp below 1
    u = 0.9999999999999999
    with pytest.raises(OracleError):
        exact.tetra_pair_distance((u, u, u * u), (-1.0, -1.0, 1.0), u)
