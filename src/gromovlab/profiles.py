"""Radial boundary profiles for the C^2 model domains.

A profile is a convex, nondecreasing psi on [0, inf) with psi(0) = 0; the
associated domain is { (z1, z2) : Re z1 > psi(|z2|) } cut by a box.  Each
profile also carries log-domain evaluators, because the flat profiles
underflow float range long before the witness constructions stop making
sense (exp(-1/t) is subnormal already at t ~ 1/740).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ProfileFn:
    """One radial profile with float and log-domain evaluators.

    value/deriv may underflow to 0.0 for flat profiles; log_value and
    log_deriv stay exact (they return -inf only where psi or psi' is
    genuinely zero).  inverse expects a representable positive height.
    """

    name: str
    value: Callable[[float], float]
    deriv: Callable[[float], float]
    log_value: Callable[[float], float]
    log_deriv: Callable[[float], float]
    inverse: Callable[[float], float]
    convex: bool = True

    def steepness(self, t: float) -> float:
        """t * psi'(t) / psi(t), evaluated in the log domain."""
        lv = self.log_value(t)
        if lv == -math.inf:
            raise ValueError(f"profile {self.name} vanishes at t={t}")
        return math.exp(self.log_deriv(t) + math.log(t) - lv)

    def sigma(self, t: float) -> float:
        """psi(t) / (t * psi'(t)), the inverse steepness."""
        return 1.0 / self.steepness(t)


def _check_nonneg(t: float) -> float:
    t = float(t)
    if t < 0.0:
        raise ValueError("profile argument must be >= 0")
    return t


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
        # exp(-1/t - 2 log t) avoids the 0/0 shape for tiny t
        return math.exp(-1.0 / t - 2.0 * math.log(t))
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


HINGE = ProfileFn(
    name="hinge",
    value=_hinge_value,
    deriv=_hinge_deriv,
    log_value=_hinge_log_value,
    log_deriv=_hinge_log_deriv,
    inverse=lambda y: 1.0 + math.sqrt(y),
)

EXP_FLAT = ProfileFn(
    name="exp_flat",
    value=_exp_value,
    deriv=_exp_deriv,
    log_value=_exp_log_value,
    log_deriv=_exp_log_deriv,
    inverse=_exp_inverse,
)

QUARTIC = ProfileFn(
    name="quartic",
    value=_quartic_value,
    deriv=_quartic_deriv,
    log_value=_quartic_log_value,
    log_deriv=_quartic_log_deriv,
    inverse=lambda y: y**0.25,
)
