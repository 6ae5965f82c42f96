"""Radial boundary profiles for the C^2 model domains.

A profile is a convex, nondecreasing psi on [0, inf) with psi(0) = 0; the
associated domain is { (z1, z2) : Re z1 > psi(|z2|) } cut by a box.  Each
profile also carries log-domain evaluators, because the flat profiles
underflow float range long before the witness constructions stop making
sense (exp(-1/t) is subnormal already at t ~ 1/740).  Each formula is
written once, over the namespace of :mod:`.rounding`: the math module on
a scalar argument, numpy elementwise on an array, so the batched boundary
geometry runs numpy's exp, pow and log where the witnesses run libm's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rounding import MATH

# a float or an array of floats, evaluated elementwise
Evaluator = Callable[[float | np.ndarray], float | np.ndarray]


@dataclass(frozen=True)
class ProfileFn:
    """One radial profile with float and log-domain evaluators, each on a
    float or elementwise on a float array.

    value/deriv may underflow to 0.0 for flat profiles; log_value and
    log_deriv stay exact (they return -inf only where psi or psi' is
    genuinely zero).  inverse expects a representable positive height.
    A negative argument raises ValueError.
    """

    name: str
    value: Evaluator
    deriv: Evaluator
    inverse: Evaluator
    log_value: Evaluator
    log_deriv: Evaluator

    def steepness(self, t: float) -> float:
        """t * psi'(t) / psi(t), evaluated in the log domain."""
        lv = self.log_value(t)
        if lv == -math.inf:
            raise ValueError(f"profile {self.name} vanishes at t={t}")
        return math.exp(self.log_deriv(t) + math.log(t) - lv)


_ndarray = np.ndarray


def _arg(t):
    # the namespace that evaluates t, and t in floats; a negative argument
    # or height raises
    if isinstance(t, _ndarray):
        t = np.asarray(t, dtype=float)
        if not (t < 0.0).any():
            return np, t
    else:
        t = float(t)
        if not t < 0.0:
            return MATH, t
    raise ValueError("profile argument must be >= 0")


# the least positive float: max(t, _TINY) is t wherever t > 0, and keeps
# the log of the branch a log form does not take finite
_TINY = math.ulp(0.0)


# -- hinge: flat up to 1, then a parabola -----------------------------------

def _hinge_value(t):
    xp, t = _arg(t)
    u = xp.maximum(t - 1.0, 0.0)
    return u * u


def _hinge_deriv(t):
    xp, t = _arg(t)
    return 2.0 * xp.maximum(t - 1.0, 0.0)


def _hinge_inverse(y):
    xp, y = _arg(y)
    return 1.0 + xp.sqrt(y)


def _hinge_log_value(t):
    xp, t = _arg(t)
    u = t - 1.0
    return xp.where(u > 0.0, 2.0 * xp.log(xp.maximum(u, _TINY)), -math.inf)


def _hinge_log_deriv(t):
    xp, t = _arg(t)
    u = t - 1.0
    return xp.where(u > 0.0, math.log(2.0) + xp.log(xp.maximum(u, _TINY)), -math.inf)


# -- exp_flat: e^{-1/t}, C^1 convex quadratic continuation past 1/4 ----------

_T_KNEE = 0.25
_E4 = math.exp(-4.0)
# continuation e^{-4} (1 + 16u + 32u^2), u = t - 1/4; note the derivative
# collapses to 64 e^{-4} t exactly, which keeps the formulas tidy

# below this argument both e^{-1/t} and its derivative underflow to 0.0,
# their value at t = 0 too; the formulas clamp t up to it rather than
# divide by zero
_T_UNDERFLOW = 1e-300


def _exp_value(t):
    xp, t = _arg(t)
    u = t - _T_KNEE
    flat = xp.exp(-1.0 / xp.maximum(t, _T_UNDERFLOW))
    return xp.where(t <= _T_KNEE, flat, _E4 * (1.0 + 16.0 * u + 32.0 * u * u))


def _exp_deriv(t):
    xp, t = _arg(t)
    t = xp.maximum(t, _T_UNDERFLOW)
    # psi(t) / t^2, the divisions after the exp: then only -1/t's rounding
    # is amplified, by 1/t, and psi' errs by under 2^-53 (1/t + 4)
    return xp.where(t <= _T_KNEE, xp.exp(-1.0 / t) / t / t, 64.0 * _E4 * t)


def _exp_inverse(y):
    xp, y = _arg(y)
    if not xp.all(y > 0.0):
        raise ValueError("inverse needs a positive height")
    log_y = xp.log(y)
    # solve 32u^2 + 16u + 1 = y e^4 for u >= 0; the clamp only touches the
    # heights the other branch takes
    u = (-2.0 + math.sqrt(2.0) * xp.sqrt(1.0 + xp.exp(log_y + 4.0))) / 8.0
    return xp.where(log_y <= -4.0, -1.0 / xp.minimum(log_y, -4.0), _T_KNEE + u)


def _exp_log_value(t):
    # -1/t at t = 0 is -1/_TINY, which is -inf
    xp, t = _arg(t)
    u = xp.maximum(t - _T_KNEE, 0.0)
    return xp.where(t <= _T_KNEE, -1.0 / xp.maximum(t, _TINY),
                    -4.0 + xp.log1p(16.0 * u + 32.0 * u * u))


def _exp_log_deriv(t):
    xp, t = _arg(t)
    s = xp.maximum(t, _TINY)
    return xp.where(t <= _T_KNEE, -1.0 / s - 2.0 * xp.log(s), xp.log(64.0 * s) - 4.0)


# -- quartic: t^4 (steepness identically 4; the non-flat control) ------------

def _quartic_value(t):
    return _arg(t)[1] ** 4


def _quartic_deriv(t):
    return 4.0 * _arg(t)[1] ** 3


def _quartic_inverse(y):
    return _arg(y)[1] ** 0.25


def _quartic_log_value(t):
    xp, t = _arg(t)
    return xp.where(t > 0.0, 4.0 * xp.log(xp.maximum(t, _TINY)), -math.inf)


def _quartic_log_deriv(t):
    xp, t = _arg(t)
    return xp.where(t > 0.0, math.log(4.0) + 3.0 * xp.log(xp.maximum(t, _TINY)), -math.inf)


HINGE = ProfileFn("hinge", _hinge_value, _hinge_deriv, _hinge_inverse, _hinge_log_value,
                  _hinge_log_deriv)
EXP_FLAT = ProfileFn("exp_flat", _exp_value, _exp_deriv, _exp_inverse, _exp_log_value,
                     _exp_log_deriv)
QUARTIC = ProfileFn("quartic", _quartic_value, _quartic_deriv, _quartic_inverse,
                    _quartic_log_value, _quartic_log_deriv)
