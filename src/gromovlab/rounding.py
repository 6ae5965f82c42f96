"""Outward rounding: the one error model behind every certified term, and
the two evaluators it covers.

A formula is written once over a namespace ``xp``: ``MATH`` (the math
module's functions under numpy's names) on scalars, numpy on arrays,
picked by whether an input is an ``np.ndarray``.  MATH's ``where``
evaluates both branches, as numpy's does, so a formula must be total on
the branch it does not take.

Every certified float in `exact`, `convex` and `witnesses`, a value known
to lie on one side of an exact real, rounds outward here:

* ``up(x, k)``, ``down(x, k)``: k floats up or down (``math.nextafter``,
  elementwise on numpy arrays).  A sum, product or quotient rounded to
  nearest is within half a float of the exact value.
* the ends of log, log1p, exp and atanh, and sqrt's lower end, the only
  one a certificate reads.  The math module's log, log1p, exp and atanh
  (glibc documents at most 2 ulps, for atanh on x86-64), CPython's own
  math.hypot (ub_interior_ball's hypot(1, psi')) and libm's hypot
  (abs(complex) and np.hypot; the two differ in the last bit on under 1
  in 100 O(1) pairs) are taken within 2 ulps of the exact value, numpy's
  (SIMD routines, and so may be its complex abs) within 8.  N ulps of the
  exact y are at most 2N floats, as the floats below a power of two are
  half as far apart, so the ends step LIBM_FLOATS and SIMD_FLOATS floats;
  sqrt is correctly rounded.
* ``sum_up``, ``sum_down``: left to right, a partial sum stepped only
  where TwoSum shows it inexact, so an exact sum comes back as is.

References: W. Tucker, *Validated Numerics* (2011); J.-M. Muller et al.,
*Handbook of Floating-Point Arithmetic*, 2nd ed. (2018).
"""

from __future__ import annotations

import math
from types import ModuleType

import numpy as np

LIBM_FLOATS, SIMD_FLOATS = 2 * 2, 2 * 8

# float64 bit patterns, as int64, run up from +0 to +inf and down from -0
_NEG_ZERO, _INF_ORDER = np.int64(-(2**63)), np.int64(0x7FF0000000000000)
_INF, _nextafter, _ndarray = math.inf, math.nextafter, np.ndarray


def _shift(x: np.ndarray, k: int) -> np.ndarray:
    # k calls of np.nextafter (k < 0 steps down) in one pass on the ordered bit
    # patterns; where every float is >= +0 and stays so, these are the raw
    # ones, as on verify's lengths and radii (tests/bench_rounding.py)
    bits = x.view(np.int64)
    if bits.size and bits.min() >= max(-k, 0) and bits.max() <= _INF_ORDER - max(k, 0):
        return (bits + k).view(np.float64)
    order = np.where(bits < 0, _NEG_ZERO - bits, bits)
    order = np.clip(order + k, -_INF_ORDER, _INF_ORDER)
    stepped = np.where(order < 0, _NEG_ZERO - order, order).view(np.float64)
    return np.where(np.isnan(x), x, stepped)


def up(x, k: int = 1):
    """x stepped k floats up, elementwise on numpy float64 arrays."""
    if isinstance(x, _ndarray):
        return _shift(x, k)
    x = _nextafter(x, _INF)
    while k > 1:
        x, k = _nextafter(x, _INF), k - 1
    return x


def down(x, k: int = 1):
    """x stepped k floats down, elementwise on numpy float64 arrays."""
    if isinstance(x, _ndarray):
        return _shift(x, -k)
    x = _nextafter(x, -_INF)
    while k > 1:
        x, k = _nextafter(x, -_INF), k - 1
    return x


#: the scalar namespace: numpy's names for the math module's functions, in
#: a module as numpy is, since a module's attributes read in half the time
#: a SimpleNamespace's do.  Its maximum and minimum return what the builtin
#: max and min return on two floats, at a third of their cost
MATH = ModuleType("MATH")
MATH.__dict__.update(
    exp=math.exp, log=math.log, log1p=math.log1p, sqrt=math.sqrt, arctanh=math.atanh,
    maximum=lambda a, b: b if b > a else a, minimum=lambda a, b: b if b < a else a,
    all=bool, where=lambda c, a, b: a if c else b)


def _ends(name, floats=(LIBM_FLOATS, SIMD_FLOATS)):
    # the (down, up) ends of MATH's function on scalars, numpy's on arrays,
    # under their bound
    scalar, array = getattr(MATH, name), getattr(np, name)

    def end(step):
        return lambda x: (step(array(x), floats[1]) if isinstance(x, _ndarray)
                          else step(scalar(x), floats[0]))
    return end(down), end(up)


log_down, log_up = _ends("log")
log1p_down, log1p_up = _ends("log1p")
exp_down, exp_up = _ends("exp")
atanh_down, atanh_up = _ends("arctanh")
sqrt_down = _ends("sqrt", (1, 1))[0]


def _sum(terms, step, sign: float):
    # TwoSum: s + err is exactly total + t; s steps only where err points on
    total = terms[0]
    for t in terms[1:]:
        s = total + t
        b = s - total
        inexact = ((total - (s - b)) + (t - b)) * sign > 0.0
        total = np.where(inexact, step(s), s) if isinstance(s, _ndarray) else (
            step(s) if inexact else s)
    return total


def sum_up(*terms):
    """The sum of the terms, left to right, rounded up."""
    return _sum(terms, up, 1.0)


def sum_down(*terms):
    """The sum of the terms, left to right, rounded down."""
    return _sum(terms, down, -1.0)
