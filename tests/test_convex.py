"""Certified bounds on the convex profile domains."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gromovlab.convex import (
    CertificateError,
    TangentHalfspaceCert,
    lb_boundary_ratio,
    lb_boundary_ratio_log,
    ub_interior_ball,
)
from gromovlab.models import (
    FLAT_EXP_MODEL,
    FLAT_QUARTIC_MODEL,
    HINGE_MODEL,
    MODELS,
    curvature_margin,
    sample_interior,
)

ALL = (HINGE_MODEL, FLAT_EXP_MODEL, FLAT_QUARTIC_MODEL)


# -- membership and sampling -------------------------------------------------

def test_contains_base_point():
    for m in ALL:
        assert m.contains(m.base_point)
        assert not m.contains((-1.0 + 0.0j, 0.0j))


def test_sample_interior_respects_margin(rng):
    pts = sample_interior(FLAT_EXP_MODEL, 40, rng, margin=0.05)
    assert len(pts) == 40
    for z in pts:
        assert FLAT_EXP_MODEL.contains(z, slack=-0.05)


def test_hinge_profile_vanishes_below_one():
    assert HINGE_MODEL.profile.value(0.7) == 0.0
    assert HINGE_MODEL.profile.value(1.3) == pytest.approx(0.09)


# -- boundary distance brackets ----------------------------------------------

def test_hinge_bracket_is_exact():
    b = HINGE_MODEL.boundary_distance_bracket((0.5 + 0.0j, 0.2 + 0.0j))
    assert b.lo == b.hi == pytest.approx(0.5)


def test_hinge_bracket_past_the_kink():
    # above t = 1 the parabola arc comes closer than the flat facet
    b = HINGE_MODEL.boundary_distance_bracket((0.5 + 0.0j, 0.0 + 1.5j))
    expect = HINGE_MODEL._hinge_profile_distance(0.5, 1.5)
    assert b.lo == b.hi == pytest.approx(expect)
    assert expect < 0.5


@pytest.mark.parametrize("m", [FLAT_EXP_MODEL, FLAT_QUARTIC_MODEL], ids=lambda m: m.name)
def test_bracket_orders_and_covers_vertical_drop(m):
    z = (0.3 + 0.0j, 0.5 + 0.0j)
    b = m.boundary_distance_bracket(z)
    assert 0.0 < b.lo <= b.hi
    # the vertical drop to the graph is one admissible path
    assert b.lo <= 0.3 - m.profile.value(0.5) + 1e-12


def test_bracket_tiny_scale_offset_point():
    # squared distances near 1e-45: the straddling cell sits at float
    # resolution and must still certify through the interval bound
    x = 0.02
    px1 = FLAT_EXP_MODEL.profile.value(x)
    z = (complex(px1), complex(0.993 * x))
    b = FLAT_EXP_MODEL.boundary_distance_bracket(z)
    assert b.lo > 0.0
    assert (b.hi - b.lo) / b.lo < 1e-3


def test_bracket_rejects_exterior_point():
    with pytest.raises(CertificateError):
        FLAT_QUARTIC_MODEL.boundary_distance_bracket((0.3 + 0.0j, 1.5 + 0.0j))


@given(
    x1=st.floats(min_value=0.05, max_value=2.5),
    t=st.floats(min_value=0.0, max_value=1.8),
)
def test_cheap_lower_never_beats_bracket(x1, t):
    for m in ALL:
        z = (complex(x1), complex(t))
        if not m.contains(z, slack=-1e-6):
            continue
        cheap = m.cheap_boundary_lower(z)
        b = m.boundary_distance_bracket(z)
        assert cheap <= b.hi * (1.0 + 1e-9)
        assert b.lo <= b.hi


# -- chain upper bounds vs ratio lower bounds ---------------------------------

@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
def test_sandwich_on_random_pairs(m, rng):
    pts = sample_interior(m, 12, rng, margin=0.02)
    for i in range(0, 12, 2):
        z, w = pts[i], pts[i + 1]
        lb = lb_boundary_ratio(m.boundary_distance_bracket(z), m.boundary_distance_bracket(w))
        ub = m.ub_euclidean_chain(z, w)
        assert lb <= ub + 1e-9


def test_ratio_log_formula():
    assert lb_boundary_ratio_log(math.log(0.1), math.log(0.4)) == pytest.approx(
        0.5 * math.log(4.0)
    )
    # no positive part: bound degrades to zero
    assert lb_boundary_ratio_log(math.log(0.4), math.log(0.1)) == 0.0


def test_chain_upper_bound_basics(rng):
    # the greedy chain is direction-dependent; each direction is a bound
    m = FLAT_EXP_MODEL
    pts = sample_interior(m, 2, rng, margin=0.1)
    z, w = pts
    assert m.ub_euclidean_chain(z, z) == 0.0
    fwd, bwd = m.ub_euclidean_chain(z, w), m.ub_euclidean_chain(w, z)
    assert fwd > 0.0 and bwd > 0.0
    lb = lb_boundary_ratio(m.boundary_distance_bracket(z), m.boundary_distance_bracket(w))
    assert min(fwd, bwd) >= lb - 1e-9


# -- tangent half-space certificates ------------------------------------------

def test_tangent_cert_verifies_on_positive_part():
    m = FLAT_EXP_MODEL
    t0 = 0.9
    norm_log = math.log(t0) + m.profile.log_deriv(t0)
    cert = TangentHalfspaceCert(m.profile, t0, 0.0, norm_log).verify(m)
    for z in [(1.0 + 0.0j, 0.0j), (0.5 + 0.1j, 0.3 + 0.2j)]:
        assert cert.re_f_float(z) > 0.0


def test_tangent_cert_rejects_negative_time():
    m = FLAT_EXP_MODEL
    with pytest.raises(CertificateError):
        TangentHalfspaceCert(m.profile, -0.2, 0.0, 0.0).verify(m)


def test_log_tau_cert_needs_opposed_phases():
    m = FLAT_EXP_MODEL
    t0 = 0.9
    norm_log = math.log(t0) + m.profile.log_deriv(t0)
    cp = TangentHalfspaceCert(m.profile, t0, 0.0, norm_log).verify(m)
    cm = TangentHalfspaceCert(m.profile, t0, math.pi, norm_log).verify(m)
    tau = cp.log_tau_cert(cm)
    assert math.isfinite(tau)
    with pytest.raises(CertificateError):
        cp.log_tau_cert(cp)


# -- interior tangent ball ----------------------------------------------------

@pytest.mark.parametrize("m", [FLAT_EXP_MODEL, FLAT_QUARTIC_MODEL], ids=lambda m: m.name)
def test_curvature_margin_nonnegative(m):
    assert curvature_margin(m) >= -1e-3


def test_interior_ball_dominates_ratio_lower():
    m = FLAT_EXP_MODEL
    for t1 in (0.0, 0.12, 0.25):
        z = (complex(m.profile.value(t1) + 1e-4), complex(t1))
        assert m.contains(z)
        lb = lb_boundary_ratio(m.boundary_distance_bracket(z),
                               m.boundary_distance_bracket(m.base_point))
        assert lb <= ub_interior_ball(m, z) + 1e-9


def test_interior_ball_off_contact_range_raises():
    m = FLAT_EXP_MODEL
    z = (1.0 + 0.0j, complex(m.ball_contact_cap + 0.5))
    if m.contains(z):
        with pytest.raises(CertificateError):
            ub_interior_ball(m, z)


# -- slice discs ---------------------------------------------------------------

def test_z1_disc_containment():
    m = FLAT_EXP_MODEL
    disc = m.z1_disc(0.4 + 0.0j)
    m.containment_check(disc)
    assert m.contains(disc.point_at(0.0))


def test_slice_disc_rejects_exterior_center():
    m = FLAT_QUARTIC_MODEL
    with pytest.raises(CertificateError):
        m.z1_disc(complex(m.z2_cap + 0.3))
