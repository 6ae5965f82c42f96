"""Pinned model data: profiles, affine boxes, tangent-ball constants."""

import math

import pytest

from gromovlab.models import (
    EXP_FLAT,
    FLAT_EXP_MODEL,
    FLAT_QUARTIC_MODEL,
    HINGE,
    HINGE_MODEL,
    MODELS,
    QUARTIC,
    curvature_margin,
)


def test_model_registry():
    assert set(MODELS) == {"hinge", "flat_exp", "flat_quartic"}
    for name, m in MODELS.items():
        assert m.name == name
        assert m.contains(m.base_point)


@pytest.mark.parametrize("p", [HINGE, EXP_FLAT, QUARTIC], ids=lambda p: p.name)
def test_profile_derivative_matches_value(p):
    # central difference at a few interior times
    for t in (0.6, 0.9, 1.3):
        h = 1e-6
        fd = (p.value(t + h) - p.value(t - h)) / (2.0 * h)
        if p.value(t) == 0.0 and fd == 0.0:
            continue
        assert p.deriv(t) == pytest.approx(fd, rel=1e-4, abs=1e-12)


@pytest.mark.parametrize("p", [EXP_FLAT, QUARTIC], ids=lambda p: p.name)
def test_profile_log_forms_consistent(p):
    for t in (0.05, 0.3, 0.8):
        if p.value(t) > 0.0:
            assert p.log_value(t) == pytest.approx(math.log(p.value(t)), abs=1e-12)
            assert p.log_deriv(t) == pytest.approx(math.log(p.deriv(t)), abs=1e-12)


@pytest.mark.parametrize("p", [EXP_FLAT, QUARTIC], ids=lambda p: p.name)
def test_profile_inverse_roundtrip(p):
    for t in (0.1, 0.4, 0.9):
        y = p.value(t)
        if y > 0.0:
            assert p.inverse(y) == pytest.approx(t, rel=1e-9)


def test_flat_profiles_are_genuinely_flat():
    # values vanish faster than any power at 0+
    for t in (1e-3, 1e-2):
        assert EXP_FLAT.value(t) < t**8
    assert EXP_FLAT.value(0.0) == 0.0
    with pytest.raises(ValueError):
        EXP_FLAT.value(-0.5)


def test_quartic_profile_is_polynomial_flat():
    assert QUARTIC.value(0.1) == pytest.approx(1e-4)
    assert QUARTIC.value(0.0) == 0.0


@pytest.mark.parametrize(
    "m", [HINGE_MODEL, FLAT_EXP_MODEL, FLAT_QUARTIC_MODEL], ids=lambda m: m.name
)
def test_ball_data_certified(m):
    assert m.ball_radius * m.ball_curvature_sup <= 1.0 + 1e-12
    assert curvature_margin(m) >= -1e-3
    assert m.ball_contact_cap + m.ball_radius <= m.z2_cap
