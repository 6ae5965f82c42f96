"""Pinned model data: profiles, the shared box, cap and base point, and
tangent-ball constants."""

import math

import numpy as np
import pytest

from gromovlab.convex import BASE_POINT, BOX, Z2_CAP
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
    assert (BOX, Z2_CAP, BASE_POINT) == (3.0, 2.0, (1.0 + 0.0j, 0.0j))
    for name, m in MODELS.items():
        assert m.name == name
        assert m.contains(BASE_POINT)


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


def _ulps(a, b):
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


# numpy's evaluation sits within an ulp of the math module's, except where
# np.log and math.log, or np.exp and math.exp, differ by an ulp: the exp
# profile's inverse takes a log and then a reciprocal, and can sit 2 ulps
# off; its derivative divides exp(-1/t) by t twice, and can sit 3 ulps off
INVERSE_ULPS = {"hinge": 1, "exp_flat": 2, "quartic": 1}
DERIV_ULPS = {"hinge": 1, "exp_flat": 3, "quartic": 1}


@pytest.mark.parametrize("p", [HINGE, EXP_FLAT, QUARTIC], ids=lambda p: p.name)
def test_array_evaluation_matches_the_scalar_evaluation(p):
    t = np.concatenate([[0.0, 1e-300, 0.25, 1.0], np.linspace(0.0, 2.5, 50001),
                        np.geomspace(1e-4, 0.25, 20001)])
    y = np.concatenate([[math.exp(-4.0), 1.0], np.geomspace(1e-300, 3.0, 50001)])
    assert _ulps(p.value(t), [p.value(v) for v in t.tolist()]).max() <= 1
    inverse = [p.inverse(v) for v in y.tolist()]
    assert _ulps(p.inverse(y), inverse).max() <= INVERSE_ULPS[p.name]
    array, scalar = p.deriv(t), np.array([p.deriv(v) for v in t.tolist()])
    assert _ulps(array, scalar).max() <= DERIV_ULPS[p.name]
    with pytest.raises(ValueError):
        p.value(np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        p.deriv(np.array([-0.5]))


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
    assert m.ball_contact_cap + m.ball_radius <= Z2_CAP
