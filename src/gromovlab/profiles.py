"""Radial boundary profiles for the C^2 model domains.

A profile is a convex, nondecreasing psi on [0, inf) with psi(0) = 0; the
associated domain is { (z1, z2) : Re z1 > psi(|z2|) } cut by a box.  Each
profile also carries log-domain evaluators, because the flat profiles
underflow float range long before the witness constructions stop making
sense (exp(-1/t) is subnormal already at t ~ 1/740).  Each float
evaluator has an array twin for the batched boundary geometry; numpy's
exp, pow and log may differ from the math module's by an ulp, so the
witnesses, whose pinned bits come from the scalar evaluators, keep those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ProfileFn:
    """One radial profile with float and log-domain evaluators.

    value/deriv may underflow to 0.0 for flat profiles; log_value and
    log_deriv stay exact (they return -inf only where psi or psi' is
    genuinely zero).  inverse expects a representable positive height.
    value_array, deriv_array and inverse_array are the elementwise twins
    of value, deriv and inverse on float arrays, within an ulp of the
    scalars wherever np.log and np.exp agree with math.log and math.exp;
    where one is an ulp off, exp_flat's inverse can sit 2 ulps off and
    its derivative, an exp followed by two divisions, 3.
    """

    name: str
    value: Callable[[float], float]
    deriv: Callable[[float], float]
    log_value: Callable[[float], float]
    log_deriv: Callable[[float], float]
    inverse: Callable[[float], float]
    value_array: Callable[[np.ndarray], np.ndarray]
    deriv_array: Callable[[np.ndarray], np.ndarray]
    inverse_array: Callable[[np.ndarray], np.ndarray]

    def steepness(self, t: float) -> float:
        """t * psi'(t) / psi(t), evaluated in the log domain."""
        lv = self.log_value(t)
        if lv == -math.inf:
            raise ValueError(f"profile {self.name} vanishes at t={t}")
        return math.exp(self.log_deriv(t) + math.log(t) - lv)


def _check_nonneg(t: float) -> float:
    t = float(t)
    if t < 0.0:
        raise ValueError("profile argument must be >= 0")
    return t


def _check_nonneg_array(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if (t < 0.0).any():
        raise ValueError("profile argument must be >= 0")
    return t


def _check_positive_array(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not (y > 0.0).all():
        raise ValueError("inverse needs a positive height")
    return y


# -- hinge: flat up to 1, then a parabola -----------------------------------

def _hinge_value(t: float) -> float:
    t = _check_nonneg(t)
    u = t - 1.0
    return u * u if u > 0.0 else 0.0


def _hinge_deriv(t: float) -> float:
    t = _check_nonneg(t)
    u = t - 1.0
    return 2.0 * u if u > 0.0 else 0.0


def _hinge_log_value(t: float) -> float:
    t = _check_nonneg(t)
    u = t - 1.0
    return 2.0 * math.log(u) if u > 0.0 else -math.inf


def _hinge_log_deriv(t: float) -> float:
    t = _check_nonneg(t)
    u = t - 1.0
    return math.log(2.0) + math.log(u) if u > 0.0 else -math.inf


def _hinge_value_array(t: np.ndarray) -> np.ndarray:
    u = np.maximum(_check_nonneg_array(t) - 1.0, 0.0)
    return u * u


def _hinge_deriv_array(t: np.ndarray) -> np.ndarray:
    return 2.0 * np.maximum(_check_nonneg_array(t) - 1.0, 0.0)


def _hinge_inverse_array(y: np.ndarray) -> np.ndarray:
    return 1.0 + np.sqrt(np.asarray(y, dtype=float))


# -- exp_flat: e^{-1/t}, C^1 convex quadratic continuation past 1/4 ----------

_T_KNEE = 0.25
_E4 = math.exp(-4.0)
# continuation e^{-4} (1 + 16u + 32u^2), u = t - 1/4; note the derivative
# collapses to 64 e^{-4} t exactly, which keeps the formulas tidy


def _exp_value(t: float) -> float:
    t = _check_nonneg(t)
    if t == 0.0:
        return 0.0
    if t <= _T_KNEE:
        return math.exp(-1.0 / t)
    u = t - _T_KNEE
    return _E4 * (1.0 + 16.0 * u + 32.0 * u * u)


def _exp_deriv(t: float) -> float:
    t = _check_nonneg(t)
    if t == 0.0:
        return 0.0
    if t <= _T_KNEE:
        # psi(t) / t^2, the divisions after the exp: then only -1/t's rounding
        # is amplified, by 1/t, and psi' errs by under 2^-53 (1/t + 4)
        return math.exp(-1.0 / t) / t / t
    return 64.0 * _E4 * t


def _exp_log_value(t: float) -> float:
    t = _check_nonneg(t)
    if t == 0.0:
        return -math.inf
    if t <= _T_KNEE:
        return -1.0 / t
    u = t - _T_KNEE
    return -4.0 + math.log1p(16.0 * u + 32.0 * u * u)


def _exp_log_deriv(t: float) -> float:
    t = _check_nonneg(t)
    if t == 0.0:
        return -math.inf
    if t <= _T_KNEE:
        return -1.0 / t - 2.0 * math.log(t)
    return math.log(64.0 * t) - 4.0


def _exp_inverse_log(log_y: float) -> float:
    if log_y <= -4.0:
        return -1.0 / log_y
    # solve 32u^2 + 16u + 1 = y e^4 for u >= 0
    u = (-2.0 + math.sqrt(2.0) * math.sqrt(1.0 + math.exp(log_y + 4.0))) / 8.0
    return _T_KNEE + u


def _exp_inverse(y: float) -> float:
    if y <= 0.0:
        raise ValueError("inverse needs a positive height")
    return _exp_inverse_log(math.log(y))


# below this argument both e^{-1/t} and its derivative underflow to 0.0,
# the scalars' value at t = 0 too; the array twins clamp t up to it
# rather than divide by zero
_T_UNDERFLOW = 1e-300


def _exp_value_array(t: np.ndarray) -> np.ndarray:
    t = _check_nonneg_array(t)
    flat = np.exp(-1.0 / np.maximum(t, _T_UNDERFLOW))
    u = t - _T_KNEE
    return np.where(t <= _T_KNEE, flat, _E4 * (1.0 + 16.0 * u + 32.0 * u * u))


def _exp_deriv_array(t: np.ndarray) -> np.ndarray:
    t = np.maximum(_check_nonneg_array(t), _T_UNDERFLOW)
    flat = np.exp(-1.0 / t) / t / t
    return np.where(t <= _T_KNEE, flat, 64.0 * _E4 * t)


def _exp_inverse_array(y: np.ndarray) -> np.ndarray:
    log_y = np.log(_check_positive_array(y))
    u = (-2.0 + math.sqrt(2.0) * np.sqrt(1.0 + np.exp(log_y + 4.0))) / 8.0
    # the clamp only touches the entries the other branch takes
    return np.where(log_y <= -4.0, -1.0 / np.minimum(log_y, -4.0), _T_KNEE + u)


# -- quartic: t^4 (steepness identically 4; the non-flat control) ------------

def _quartic_value(t: float) -> float:
    t = _check_nonneg(t)
    return t**4


def _quartic_deriv(t: float) -> float:
    t = _check_nonneg(t)
    return 4.0 * t**3


def _quartic_log_value(t: float) -> float:
    t = _check_nonneg(t)
    return 4.0 * math.log(t) if t > 0.0 else -math.inf


def _quartic_log_deriv(t: float) -> float:
    t = _check_nonneg(t)
    return math.log(4.0) + 3.0 * math.log(t) if t > 0.0 else -math.inf


def _quartic_value_array(t: np.ndarray) -> np.ndarray:
    return _check_nonneg_array(t) ** 4


def _quartic_deriv_array(t: np.ndarray) -> np.ndarray:
    return 4.0 * _check_nonneg_array(t) ** 3


def _quartic_inverse_array(y: np.ndarray) -> np.ndarray:
    return np.asarray(y, dtype=float) ** 0.25


HINGE = ProfileFn(
    name="hinge",
    value=_hinge_value,
    deriv=_hinge_deriv,
    log_value=_hinge_log_value,
    log_deriv=_hinge_log_deriv,
    inverse=lambda y: 1.0 + math.sqrt(y),
    value_array=_hinge_value_array,
    deriv_array=_hinge_deriv_array,
    inverse_array=_hinge_inverse_array,
)

EXP_FLAT = ProfileFn(
    name="exp_flat",
    value=_exp_value,
    deriv=_exp_deriv,
    log_value=_exp_log_value,
    log_deriv=_exp_log_deriv,
    inverse=_exp_inverse,
    value_array=_exp_value_array,
    deriv_array=_exp_deriv_array,
    inverse_array=_exp_inverse_array,
)

QUARTIC = ProfileFn(
    name="quartic",
    value=_quartic_value,
    deriv=_quartic_deriv,
    log_value=_quartic_log_value,
    log_deriv=_quartic_log_deriv,
    inverse=lambda y: y**0.25,
    value_array=_quartic_value_array,
    deriv_array=_quartic_deriv_array,
    inverse_array=_quartic_inverse_array,
)
