"""Exact invariant distances on model domains, plus certified enclosures.

Disc, half-plane, strip, polydisc and ball carry closed-form distances
(Kobayashi = Caratheodory on these domains) in the atanh normalization.
The symmetrized bidisc gets a two-sided enclosure built from
distance-decreasing maps to the disc (lower bound) and polydisc lifts
(upper bound).  The tetrablock gets the closed form for distances to the
origin, and through its automorphisms for pairs that one of them aligns
to the origin: the configurations the witness constructions use.

Numerical contract: every distance evaluator stays accurate all the way
to boundary gaps of order 1e-300 when handed analytic gap parameters.
The key identity is

    atanh(m) = log1p(m) - 0.5*log(1 - m^2)

combined with closed forms for 1 - m^2 that avoid the catastrophic
cancellation in |1 - conj(u) v|^2 - |u - v|^2.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ArrayDistance, DistanceOracle, PointGenerator


class OracleError(ValueError):
    """A point fed to a distance evaluator is outside its domain."""


# Below this value of 1 - m^2 the direct |u-v|/|1-conj(u)v| quotient loses
# digits, so we switch to the log1p identity.
_STABLE_SWITCH = 0.19

# How close to 0 a tetrablock shift must send the first point of a pair,
# relative to the size of the images, for the origin form to apply.
_ALIGN_TOL = 1e-10

# Phases of the symmetrized bidisc's inner family scanned before the
# golden-section polish around the best one, and the polish's steps.
_PHASE_GRID = 720
_GOLDEN_ITERS = 70

# Relative width under which a DistBound counts as exact.
_EXACT_REL_TOL = 1e-12

# How far inside the unit circle every root of a symmetrized point must be.
_GN_MARGIN = 1e-10


@dataclass(frozen=True)
class DistBound:
    """Two-sided enclosure [lo, hi] of a distance, with provenance tags."""

    lo: float
    hi: float
    lo_tag: str = ""
    hi_tag: str = ""

    def __post_init__(self):
        if not (self.hi >= self.lo - 1e-12 * (1.0 + abs(self.lo))):
            raise ValueError(f"inverted enclosure: lo={self.lo} hi={self.hi}")

    @classmethod
    def exact(cls, value: float, tag: str = "") -> "DistBound":
        return cls(lo=value, hi=value, lo_tag=tag, hi_tag=tag)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def is_exact(self) -> bool:
        return self.width <= _EXACT_REL_TOL * (1.0 + abs(self.lo))

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= value <= self.hi + tol


def _one_minus_abs_sq(z: complex, gap: float | None) -> float:
    # 1 - |z|^2; the analytic override gap = 1 - |z| survives float
    # rounding of z itself (z may round onto the boundary).
    if gap is not None:
        if not 0.0 < gap <= 1.0:
            raise OracleError(f"boundary gap must be in (0, 1], got {gap}")
        return gap * (2.0 - gap)
    return 1.0 - (z.real * z.real + z.imag * z.imag)


def _atanh_stable(m_direct: float, one_minus_m2: float) -> float:
    if one_minus_m2 <= 0.0:
        raise OracleError("point on or outside the boundary")
    if one_minus_m2 >= _STABLE_SWITCH:
        return math.atanh(min(m_direct, 1.0 - 1e-17))
    m = math.sqrt(max(0.0, 1.0 - one_minus_m2))
    return math.log1p(m) - 0.5 * math.log(one_minus_m2)


def atanh_one_minus(log_eps: float) -> float:
    """atanh(1 - eps) given log(eps), exact in the log domain.

    atanh(1-eps) = 0.5*(log(2-eps) - log(eps)).  The eps inside (2-eps)
    only matters to relative order eps, so evaluating it in floats (or
    dropping it entirely on underflow) keeps the result correct; the
    rounding direction is upward, which is the safe side for the upper
    bounds this feeds.
    """
    eps = math.exp(log_eps) if log_eps > -745.0 else 0.0
    if eps >= 1.0:
        raise OracleError("atanh_one_minus needs eps < 1")
    return 0.5 * (math.log(2.0 - eps) - log_eps)


def disc_distance(
    u: complex,
    v: complex,
    gap_u: float | None = None,
    gap_v: float | None = None,
) -> float:
    """Poincare distance atanh|(u-v)/(1-conj(u)v)| on the unit disc.

    gap_u / gap_v are optional analytic values of 1-|u|, 1-|v| for points
    so close to the boundary that the float coordinates have rounded.
    """
    u = complex(u)
    v = complex(v)
    a = _one_minus_abs_sq(u, gap_u)
    b = _one_minus_abs_sq(v, gap_v)
    if a <= 0.0 or b <= 0.0:
        raise OracleError(f"disc_distance: point outside the open disc ({u}, {v})")
    den = abs(1.0 - u.conjugate() * v) ** 2
    one_minus_m2 = (a / den) * b
    m = abs(u - v) / math.sqrt(den)
    return _atanh_stable(m, one_minus_m2)


def halfplane_distance(z: complex, w: complex) -> float:
    """atanh|(z-w)/(z+conj(w))| on the right half-plane Re > 0.

    On the positive reals this is 0.5*|log(z/w)|.
    """
    z = complex(z)
    w = complex(w)
    rz, rw = z.real, w.real
    if rz <= 0.0 or rw <= 0.0:
        raise OracleError("halfplane_distance: point outside Re > 0")
    den = abs(z + w.conjugate()) ** 2
    one_minus_m2 = 4.0 * rz * rw / den
    m = abs(z - w) / math.sqrt(den)
    return _atanh_stable(m, one_minus_m2)


def strip_distance(z: complex, w: complex) -> float:
    """Invariant distance on the vertical strip |Re z| < 1.

    tan(pi z / 4) is a biholomorphism onto the unit disc.
    """
    z = complex(z)
    w = complex(w)
    if abs(z.real) >= 1.0 or abs(w.real) >= 1.0:
        raise OracleError("strip_distance: point outside the strip")
    s = math.pi / 4.0
    return disc_distance(cmath.tan(s * z), cmath.tan(s * w))


def polydisc_distance(zs: Sequence[complex], ws: Sequence[complex]) -> float:
    """Sup of coordinate Poincare distances."""
    if len(zs) != len(ws):
        raise OracleError("dimension mismatch")
    return max(disc_distance(a, b) for a, b in zip(zs, ws))


def ball_distance(zs: Sequence[complex], ws: Sequence[complex]) -> float:
    """Kobayashi distance on the Euclidean unit ball of C^n.

    The Mobius quotient numerator is evaluated through the Lagrange
    identity  |z|^2|w|^2 - |<z,w>|^2 = sum_{i<j} |z_i w_j - z_j w_i|^2,
    which keeps nearby points accurate; the boundary side goes through
    the product form of 1 - m^2.
    """
    z = np.asarray(zs, dtype=complex)
    w = np.asarray(ws, dtype=complex)
    if z.shape != w.shape or z.ndim != 1:
        raise OracleError("ball_distance: shape mismatch")
    nz2 = float(np.sum(z.real**2 + z.imag**2))
    nw2 = float(np.sum(w.real**2 + w.imag**2))
    if nz2 >= 1.0 or nw2 >= 1.0:
        raise OracleError("ball_distance: point outside the open ball")
    ip = complex(np.sum(z * np.conj(w)))
    den = abs(1.0 - ip) ** 2
    one_minus_m2 = (1.0 - nz2) * (1.0 - nw2) / den
    diff2 = float(np.sum(np.abs(z - w) ** 2))
    gram = 0.0
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            gram += abs(z[i] * w[j] - z[j] * w[i]) ** 2
    m = math.sqrt(max(0.0, diff2 - gram) / den)
    return _atanh_stable(m, one_minus_m2)


# ---------------------------------------------------------------------------
# array twins of the sampling kernels
#
# Each works on whole arrays of point pairs with its scalar twin's formula
# and stable branch, and raises OracleError when any point of the batch is
# on or outside the boundary.  The scalar kernels above stay the reference
# (the tests compare the two) and serve every path but sampling.


def _atanh_stable_array(m_direct: np.ndarray, one_minus_m2: np.ndarray) -> np.ndarray:
    if not np.all(one_minus_m2 > 0.0):
        raise OracleError("point on or outside the boundary")
    # both branches on every entry, then the switch: cheaper than indexing
    # the two halves; the direct one may meet m = 1 on entries it loses
    with np.errstate(divide="ignore"):
        direct = np.arctanh(np.minimum(m_direct, 1.0 - 1e-17))
    m = np.sqrt(np.maximum(0.0, 1.0 - one_minus_m2))
    via_log = np.log1p(m) - 0.5 * np.log(one_minus_m2)
    return np.where(one_minus_m2 >= _STABLE_SWITCH, direct, via_log)


def disc_distance_array(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Array twin of :func:`disc_distance` on (N,) complex arrays."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    a = 1.0 - (u.real * u.real + u.imag * u.imag)
    b = 1.0 - (v.real * v.real + v.imag * v.imag)
    if not (np.all(a > 0.0) and np.all(b > 0.0)):
        raise OracleError("disc_distance_array: point outside the open disc")
    den = np.abs(1.0 - np.conj(u) * v) ** 2
    one_minus_m2 = (a / den) * b
    m = np.abs(u - v) / np.sqrt(den)
    return _atanh_stable_array(m, one_minus_m2)


def ball_distance_array(zs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Array twin of :func:`ball_distance` on (N, n) complex arrays, with
    the same Lagrange identity for the numerator.

    Sums over the n coordinates run column by column, in the order
    ``np.sum`` adds the n entries of one point in the scalar twin.
    """
    z = np.asarray(zs, dtype=complex)
    w = np.asarray(ws, dtype=complex)
    if z.shape != w.shape or z.ndim != 2:
        raise OracleError("ball_distance_array: shape mismatch")
    z, w = z.T, w.T
    nz2 = sum(c.real**2 + c.imag**2 for c in z)
    nw2 = sum(c.real**2 + c.imag**2 for c in w)
    if not (np.all(nz2 < 1.0) and np.all(nw2 < 1.0)):
        raise OracleError("ball_distance_array: point outside the open ball")
    ip = sum(a * np.conj(b) for a, b in zip(z, w))
    den = np.abs(1.0 - ip) ** 2
    one_minus_m2 = (1.0 - nz2) * (1.0 - nw2) / den
    diff2 = sum(np.abs(a - b) ** 2 for a, b in zip(z, w))
    n = len(z)
    gram = sum(np.abs(z[i] * w[j] - z[j] * w[i]) ** 2
               for i in range(n) for j in range(i + 1, n))
    m = np.sqrt(np.maximum(0.0, diff2 - gram) / den)
    return _atanh_stable_array(m, one_minus_m2)


def _row_max(a: np.ndarray) -> np.ndarray:
    # column by column: ``a.max(axis=1)`` over a short axis runs a
    # separate reduction per row, some 40 times slower
    return functools.reduce(np.maximum, a.T)


def polydisc_distance_array(zs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Array twin of :func:`polydisc_distance` on (N, n) complex arrays."""
    z = np.asarray(zs, dtype=complex)
    w = np.asarray(ws, dtype=complex)
    if z.shape != w.shape or z.ndim != 2:
        raise OracleError("dimension mismatch")
    return _row_max(disc_distance_array(z.ravel(), w.ravel()).reshape(z.shape))


def polydisc_axis_distance_array(ts: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """Array twin of the :func:`polydisc_axis_oracle` distance on (N, n)
    arrays of geodesic parameters: max_i |t_i - s_i|.

    A non-finite parameter stands for no point, so it raises instead of
    turning into a NaN distance.
    """
    t = np.asarray(ts, dtype=float)
    s = np.asarray(ss, dtype=float)
    if t.shape != s.shape or t.ndim != 2:
        raise OracleError("dimension mismatch")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(s))):
        raise OracleError("polydisc_axis_distance_array: non-finite geodesic parameter")
    return _row_max(np.abs(t - s))


def tetra_royal_distance_array(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Distances between the royal-line points (u, u, u^2) and (v, v, v^2)
    of the tetrablock, on (N,) real arrays.

    Array twin of ``tetra_pair_distance((u, u, u*u), (v, v, v*v), u)``:
    the shift by u (:func:`tetra_automorphism`, here in real arithmetic,
    which rounds like the complex form with zero imaginary parts), the
    same alignment check on the image of the first point, then
    :func:`tetra_origin_distance` at the image of the second.
    """
    t = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.all(np.abs(t) < 1.0):
        raise OracleError("automorphism parameter must be in (-1, 1)")

    def shift(a, p):
        # tetra_automorphism(t, (a, a, p)): both diagonal images agree
        den = 1.0 - t * (a + a) + t * t * p
        return (a - t + t * t * a - t * p) / den, (p - t * (a + a) + t * t) / den

    # a vanishing denominator (|t| within an ulp or two of 1, where the
    # scalar shift raises OracleError) gives inf or NaN here and fails the
    # check below
    with np.errstate(divide="ignore", invalid="ignore"):
        x1, x3 = shift(t, t * t)
        y1, y3 = shift(v, v * v)
    scale = 1.0 + np.maximum.reduce([np.abs(x1), np.abs(x3), np.abs(y1), np.abs(y3)])
    aligned = np.maximum(np.abs(x1), np.abs(x3)) <= _ALIGN_TOL * scale
    if not np.all(aligned & np.isfinite(scale)):
        raise OracleError("royal shift does not send the first point to 0, or divides by 0")
    if not np.all(np.abs(y1) < 1.0):
        raise OracleError("point outside the open tetrablock")
    cross = np.abs(y1 * y1 - y3)
    m = (np.abs(y1 - y1 * y3) + cross) / (1.0 - np.abs(y1) ** 2)
    if not np.all(m < 1.0):
        raise OracleError("point outside the open tetrablock")
    return np.arctanh(m)


def disc_points(rng: np.random.Generator, m: int) -> np.ndarray:
    """m points of the disc of radius 0.999, uniform in area: (m,) complex.

    Rejection from the square: uniform pairs in [-1, 1)^2 inside the unit
    circle, scaled by 0.999.  A batch of 4m/3 + 8 pairs keeps about 1.05m,
    so a second batch is rare.
    """
    pts = np.empty(0, dtype=complex)
    while len(pts) < m:
        z = rng.uniform(-1.0, 1.0, (m + m // 3 + 8, 2)).view(complex).ravel()
        pts = np.concatenate((pts, z[z.real * z.real + z.imag * z.imag < 1.0]))
    return 0.999 * pts[:m]


def ball_points(rng: np.random.Generator, m: int) -> np.ndarray:
    """m points of the ball of radius 0.999 in C^2, uniform in volume:
    (m, 2) complex."""
    v = rng.normal(size=(m, 4))
    v *= (0.999 * rng.uniform(0.0, 1.0, m) ** 0.25 / np.linalg.norm(v, axis=1))[:, None]
    return v[:, 0::2] + 1j * v[:, 1::2]


def polydisc_points(rng: np.random.Generator, m: int) -> np.ndarray:
    """m points of the bidisc, two independent disc points each: (m, 2)
    complex."""
    return disc_points(rng, 2 * m).reshape(m, 2)


def royal_line_points(rng: np.random.Generator, m: int) -> np.ndarray:
    """m royal-line parameters u, uniform in (-0.9, 0.9), each standing for
    the tetrablock point (u, u, u^2): (m,) real."""
    return rng.uniform(-0.9, 0.9, m)


def polydisc_axis_points(rng: np.random.Generator, m: int) -> np.ndarray:
    """m points of the bidisc's real-axis torus, geodesic parameters
    uniform in (-3, 3)^2: (m, 2) real."""
    return rng.uniform(-3.0, 3.0, (m, 2))


@dataclass(frozen=True)
class SampleDomain:
    """A domain that sampled defects run on: an array distance
    ``distance(xs, ys)`` and a generator ``points(rng, m)`` of m points it
    accepts, as an array with the points on axis 0."""

    distance: ArrayDistance
    points: PointGenerator


#: the one table of sampled domains
SAMPLE_DOMAINS = {
    "disc": SampleDomain(disc_distance_array, disc_points),
    "ball": SampleDomain(ball_distance_array, ball_points),
    "polydisc": SampleDomain(polydisc_distance_array, polydisc_points),
    "tetra": SampleDomain(tetra_royal_distance_array, royal_line_points),
    "polydisc_axis": SampleDomain(polydisc_axis_distance_array, polydisc_axis_points),
}


def disc_to_halfplane(z: complex) -> complex:
    """Cayley map of the unit disc onto Re > 0 (0 -> 1)."""
    return (1.0 + z) / (1.0 - z)


def mobius_disc_automorphism(a: complex, theta: float = 0.0) -> Callable[[complex], complex]:
    """z -> e^{i theta} (z - a)/(1 - conj(a) z), an automorphism of the disc."""
    if abs(a) >= 1.0:
        raise OracleError("automorphism parameter must be inside the disc")
    phase = cmath.exp(1j * theta)

    def phi(z: complex) -> complex:
        return phase * (z - a) / (1.0 - a.conjugate() * z)

    return phi


# ---------------------------------------------------------------------------
# oracle factory


def polydisc_axis_oracle(n: int) -> DistanceOracle:
    """Polydisc restricted to the real-axis torus, in geodesic parameters.

    A point is an n-tuple of reals t, standing for the polydisc point
    (tanh t_1, ..., tanh t_n).  The distance is max_i |t_i - s_i|, which
    is the exact polydisc distance of the represented points: on the real
    axis of the disc the geodesic parameter is additive.  This
    representation stays exact for parameters far beyond the tanh
    saturation threshold (~18) where complex coordinates round onto the
    boundary.
    """

    def fn(ts, ss) -> float:
        if len(ts) != n or len(ss) != n:
            raise OracleError("dimension mismatch")
        return max(abs(float(a) - float(b)) for a, b in zip(ts, ss))

    return DistanceOracle(fn=fn)


# ---------------------------------------------------------------------------
# symmetrized polydisc


def sym_poly_map(zs: Sequence[complex]) -> tuple[complex, ...]:
    """Elementary symmetric polynomials (e_1, ..., e_n) of the coordinates."""
    c = np.zeros(len(zs) + 1, dtype=complex)
    c[0] = 1.0
    for k, z in enumerate(zs):
        c[1 : k + 2] = c[1 : k + 2] - z * c[0 : k + 1]
    # prod (X - z_i) = X^n + c_1 X^{n-1} + ... ; e_k = (-1)^k c_k
    return tuple((-1.0) ** k * c[k] for k in range(1, len(zs) + 1))


def gn_roots(s: Sequence[complex]) -> np.ndarray:
    """Coordinates of any polydisc preimage of a symmetrized point."""
    n = len(s)
    coeffs = [1.0 + 0.0j] + [(-1.0) ** k * complex(s[k - 1]) for k in range(1, n + 1)]
    return np.roots(coeffs)


def gn_membership(s: Sequence[complex]) -> bool:
    """Interior membership in the symmetrized polydisc, with a safety margin."""
    r = gn_roots(s)
    return bool(np.max(np.abs(r)) < 1.0 - _GN_MARGIN)


def _gn_magic(lam: complex, s: complex, p: complex) -> complex:
    # rational inner family separating points of the symmetrized bidisc
    return (2.0 * lam * p - s) / (2.0 - lam * s)


def _grid_refine_max(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section polish of a 1-d maximum; returns the best value seen.

    Only ever used to improve a lower bound, so non-unimodality is safe.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    best = max(f(a), f(b), fc, fd)
    for _ in range(_GOLDEN_ITERS):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        best = max(best, fc, fd)
    return best


def gn_lower_bound(x: Sequence[complex], y: Sequence[complex]) -> float:
    """Certified lower bound for the invariant distance on the symmetrized
    polydisc: best separation over distance-decreasing maps to the disc.

    Always includes the scaled coordinate maps e_k / C(n, k); for n = 2
    also the rational inner family, scanned over a phase grid and polished.
    """
    n = len(x)
    if len(y) != n:
        raise OracleError("dimension mismatch")
    best = 0.0
    for k in range(1, n + 1):
        c = math.comb(n, k)
        best = max(best, disc_distance(complex(x[k - 1]) / c, complex(y[k - 1]) / c))
    if n == 2:
        sx, px = complex(x[0]), complex(x[1])
        sy, py = complex(y[0]), complex(y[1])

        def val(theta: float) -> float:
            lam = cmath.exp(1j * theta)
            try:
                return disc_distance(_gn_magic(lam, sx, px), _gn_magic(lam, sy, py))
            except OracleError:
                return 0.0

        step = 2.0 * math.pi / _PHASE_GRID
        vals = [val(k * step) for k in range(_PHASE_GRID)]
        k0 = int(np.argmax(vals))
        best = max(best, vals[k0])
        best = max(best, _grid_refine_max(val, (k0 - 1) * step, (k0 + 1) * step))
    return best


def gn_upper_bound(x: Sequence[complex], y: Sequence[complex]) -> float:
    """Upper bound via polydisc preimages: min over root pairings of the
    polydisc distance between lifted tuples.

    Pairs lying on the top-coordinate axis (e_1 = ... = e_{n-1} = 0) also
    get the analytic disc lam -> (0, ..., 0, lam), whose preimage tuples
    have coordinates of modulus |lam|^{1/n} < 1; that leg is much tighter
    than any root pairing when the top coordinates are close.
    """
    n = len(x)
    if n > 6:
        raise OracleError("root-pairing upper bound limited to n <= 6")
    rx = gn_roots(x)
    ry = gn_roots(y)
    if np.max(np.abs(rx)) >= 1.0 or np.max(np.abs(ry)) >= 1.0:
        raise OracleError("point outside the open symmetrized polydisc")
    best = math.inf
    if all(abs(complex(v)) < 1e-15 for v in x[:-1]) and all(
        abs(complex(v)) < 1e-15 for v in y[:-1]
    ):
        best = disc_distance(complex(x[-1]), complex(y[-1]))
    for perm in itertools.permutations(range(n)):
        cand = max(disc_distance(rx[i], ry[perm[i]]) for i in range(n))
        best = min(best, cand)
    return best


def gn_pair_bounds(x: Sequence[complex], y: Sequence[complex]) -> DistBound:
    return DistBound(
        lo=gn_lower_bound(x, y),
        hi=gn_upper_bound(x, y),
        lo_tag="inner function family",
        hi_tag="polydisc lift pairing",
    )


# ---------------------------------------------------------------------------
# tetrablock

TetraPoint = tuple[complex, complex, complex]


def tetra_automorphism(t: float, x: TetraPoint) -> TetraPoint:
    """Matrix Mobius shift Z -> (Z - tI)(I - tZ)^{-1} pushed to the
    tetrablock, for real t in (-1, 1).

    The push-down is rational in (x1, x2, x3), so no lift (and no square
    root branch) is needed:
        den = 1 - t(x1 + x2) + t^2 x3.
    """
    if not -1.0 < t < 1.0:
        raise OracleError("automorphism parameter must be in (-1, 1)")
    a, b, p = (complex(v) for v in x)
    den = 1.0 - t * (a + b) + t * t * p
    if den == 0.0:
        # |t| within an ulp or two of 1 at a point near the royal line
        raise OracleError(f"automorphism t={t} divides by 0 at {x}")
    m1 = (a - t + t * t * b - t * p) / den
    m2 = (b - t + t * t * a - t * p) / den
    m3 = (p - t * (a + b) + t * t) / den
    return (m1, m2, m3)


def tetra_origin_distance(x: TetraPoint) -> float:
    """Exact invariant distance from the origin of the tetrablock.

        atanh max{ (|x1 - conj(x2) x3| + |x1 x2 - x3|) / (1 - |x2|^2),
                   (|x2 - conj(x1) x3| + |x1 x2 - x3|) / (1 - |x1|^2) }

    Distances to the origin are the one configuration where the
    tetrablock's Lempert function has a closed form and matches the
    Caratheodory side, so this single expression is two-sided exact.
    """
    a, b, p = (complex(v) for v in x)
    if abs(a) >= 1.0 or abs(b) >= 1.0:
        raise OracleError("point outside the open tetrablock")
    cross = abs(a * b - p)
    m = max(
        (abs(a - b.conjugate() * p) + cross) / (1.0 - abs(b) ** 2),
        (abs(b - a.conjugate() * p) + cross) / (1.0 - abs(a) ** 2),
    )
    if m >= 1.0:
        raise OracleError("point outside the open tetrablock")
    return math.atanh(m)


def tetra_pair_distance(x: TetraPoint, y: TetraPoint, t: float) -> float:
    """Exact distance for pairs that an automorphism aligns to the origin.

    Applies the shift by t, requires the image of x to vanish within
    ``_ALIGN_TOL`` relative to the size of the images, and evaluates the
    closed origin form at the image of y.  Raises OracleError when the
    alignment fails rather than guessing.
    """
    X = tetra_automorphism(t, x)
    Y = tetra_automorphism(t, y)
    scale = 1.0 + max(abs(c) for c in (*X, *Y))
    if max(abs(c) for c in X) > _ALIGN_TOL * scale:
        raise OracleError(f"automorphism t={t} does not send the first point to 0")
    return tetra_origin_distance(Y)
