"""Exact invariant distances on model domains, plus certified enclosures.

Disc, half-plane, strip, polydisc and ball carry closed-form distances
(Kobayashi = Caratheodory on these domains) in the atanh normalization.
A symmetrized-bidisc point is carried as either of its bidisc lifts
(z1, z2), with the same bits for both, and gets a two-sided enclosure
from the lifts and their gaps 1 - |z_i|^2: maps to the disc (lower) and
the lifts' bidisc distance (upper).  These take one stack of lifts and
the index arrays ``first`` and ``second`` of its pairs, map each lift
once per phase of the coarse scan and bound every pair in one numpy
pass, each pair with the bits it gets alone.
The tetrablock gets the closed form for distances to the origin.  The
bidisc is a holomorphic retract of it, through z -> (z1, z2, z1 z2) and
back through x -> (x1, x2), so on that slice its distance is the
bidisc's.  Its royal line lambda -> (lambda, lambda, lambda^2) is the
image of the bidisc's diagonal, so the distance between two of its
points is the disc distance of their parameters.

Each sampled domain has exactly one distance kernel, an array function
in SAMPLE_DOMAINS that both `sample` and `verify` run; the royal line
is sampled with the disc kernel on its parameter.  The disc formula is
written once, over the namespace of :mod:`.rounding`: `disc_distance`
evaluates it with the math module on two points and with numpy on two
arrays of them, and the gn scan runs it on the images' analytic gaps.
Every kernel runs on the points it is given: real points run real
arithmetic, with the bits they would get as complex ones.

Numerical contract: every distance evaluator stays accurate all the way
to boundary gaps of order 1e-300 when handed analytic gap parameters,
through atanh(m) = log1p(m) - 0.5*log(1 - m^2) and closed forms for
1 - m^2 that avoid the cancellation in |1 - conj(u) v|^2 - |u - v|^2;
the certified ends round outward through :mod:`.rounding`.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ArrayDistance, DistanceOracle, PointGenerator
from .rounding import (MATH, SIMD_FLOATS, down, exp_down, exp_up, log1p_down, log1p_up, log_up,
                       sum_down, sum_up, up)


class OracleError(ValueError):
    """A point fed to a distance evaluator is outside its domain."""


# Below this value of 1 - m^2 the direct |u-v|/|1-conj(u)v| quotient loses
# digits, so we switch to the log1p identity.
_STABLE_SWITCH = 0.19

# Phases of the symmetrized bidisc's maps to the disc scanned at first,
# then the rounds of rescans around the best phase and the points in each;
# each round shrinks the cell 32-fold, to 2.6e-10 rad after five.  The
# coarse grid's phases and its lam row are constants, mapped at each
# distinct lift of a stack once.
_PHASE_GRID = 720
_REFINE_ROUNDS = 5
_REFINE_POINTS = 65
_PHASE_STEP = 2.0 * math.pi / _PHASE_GRID
_PHASE_THETA = _PHASE_STEP * np.arange(_PHASE_GRID)
_PHASE_LAM = np.exp(1j * _PHASE_THETA)
_REFINE_OFFSETS = np.linspace(-1.0, 1.0, _REFINE_POINTS)


@dataclass(frozen=True)
class DistBound:
    """Two-sided enclosure [lo, hi] of a distance."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi >= self.lo:
            raise ValueError(f"inverted enclosure: lo={self.lo} hi={self.hi}")


def _atanh_stable(xp, m_direct, one_minus_m2):
    # atanh m from the quotient m or from 1 - m^2: both branches on every
    # entry, then the switch.  The direct branch is taken only where 1 - m^2
    # >= _STABLE_SWITCH, so m <= 0.9 there and the cap never binds on it;
    # where it is not taken, m may round to 1 or above, and the cap keeps
    # arctanh finite
    if not xp.all(one_minus_m2 > 0.0):
        raise OracleError("point on or outside the boundary")
    direct = xp.arctanh(xp.minimum(m_direct, 0.95))
    m = xp.sqrt(xp.maximum(0.0, 1.0 - one_minus_m2))
    return xp.where(one_minus_m2 >= _STABLE_SWITCH, direct,
                    xp.log1p(m) - 0.5 * xp.log(one_minus_m2))


def atanh_one_minus(log_eps: float, a: float = 0.0) -> float:
    """Poincare distance from the real parameter a to -(1 - eps) in the
    unit disc, from log(eps), rounded up: at a = 0, atanh(1 - eps) =
    0.5*(log(2 - eps) - log(eps)), where eps's underflow costs nothing.
    eps = exp(log_eps) exactly; the leg grows with a and shrinks with eps,
    so a caller passes a rounded up and log_eps down.  The gap 1 - m =
    eps (1 - a)/(1 + a (1 - eps)) takes its largest denominator."""
    if not (-1.0 < a < 1.0 and log_eps < 0.0):
        raise OracleError("a leg needs an interior parameter and eps < 1")
    if a:
        denom = a if a > 0.0 else up(a * sum_down(1.0, -exp_up(log_eps)))
        log_eps = sum_down(log_eps, log1p_down(-a), -log1p_up(denom))
    return 0.5 * sum_up(log_up(sum_up(2.0, -exp_down(log_eps))), -log_eps)


def _disc_distance_gaps(xp, u, v, gap_u, gap_v):
    # disc distance given the gaps 1 - |u|^2, 1 - |v|^2, which a caller may
    # know better than the coordinates do: 1 - m^2 = gap_u gap_v / |1 - conj(u) v|^2
    den = abs(1.0 - u.conjugate() * v) ** 2
    one_minus_m2 = (gap_u / den) * gap_v
    m = abs(u - v) / xp.sqrt(den)
    return _atanh_stable(xp, m, one_minus_m2)


def _abs2(z):
    # |z|^2; a real array's .imag is a new array of zeros, and adding its
    # square leaves z*z's bits as they are
    if isinstance(z, np.ndarray) and z.dtype.kind != "c":
        return z * z
    return z.real * z.real + z.imag * z.imag


def disc_distance(u, v):
    """Poincare distance atanh|(u-v)/(1-conj(u)v)| on the unit disc,
    between two points or elementwise between two (N,) arrays of them,
    real or complex."""
    if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
        xp, u, v = np, np.asarray(u), np.asarray(v)
    else:
        xp = MATH
    gap_u = 1.0 - _abs2(u)
    gap_v = 1.0 - _abs2(v)
    if not (xp.all(gap_u > 0.0) and xp.all(gap_v > 0.0)):
        raise OracleError("disc_distance: point outside the open disc")
    return _disc_distance_gaps(xp, u, v, gap_u, gap_v)


def halfplane_distance(z: complex, w: complex) -> float:
    """atanh|(z-w)/(z+conj(w))| on the right half-plane Re > 0.

    On the positive reals this is 0.5*|log(z/w)|.
    """
    rz, rw = z.real, w.real
    if rz <= 0.0 or rw <= 0.0:
        raise OracleError("halfplane_distance: point outside Re > 0")
    den = abs(z + w.conjugate()) ** 2
    one_minus_m2 = 4.0 * rz * rw / den
    m = abs(z - w) / math.sqrt(den)
    return _atanh_stable(MATH, m, one_minus_m2)


def strip_distance(z: complex, w: complex) -> float:
    """Invariant distance on the vertical strip |Re z| < 1.

    tan(pi z / 4) is a biholomorphism onto the unit disc.
    """
    if abs(z.real) >= 1.0 or abs(w.real) >= 1.0:
        raise OracleError("strip_distance: point outside the strip")
    s = math.pi / 4.0
    return disc_distance(cmath.tan(s * z), cmath.tan(s * w))


# ---------------------------------------------------------------------------
# sampling kernels: each takes whole arrays of point pairs and raises
# OracleError when a point of the batch fails its membership test, which
# reads the float gap 1 - |z|^2: exact on real points, but on complex ones
# (disc, ball, bidisc) only outside a band about 4 ulps wide about the
# boundary, inside which a point may be refused or accepted either way


def ball_distance_array(zs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Kobayashi distance on the Euclidean unit ball of C^n, on (N, n)
    arrays, real or complex.

    The Mobius quotient numerator is evaluated through the Lagrange
    identity  |z|^2|w|^2 - |<z,w>|^2 = sum_{i<j} |z_i w_j - z_j w_i|^2,
    which keeps nearby points accurate; the boundary side goes through
    the product form of 1 - m^2.

    A point is refused by its float |z|^2, so exactly only outside a band
    about 4 ulps wide about the sphere.
    """
    z, w = np.asarray(zs), np.asarray(ws)
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
    return _atanh_stable(np, m, one_minus_m2)


def _row_max(a: np.ndarray) -> np.ndarray:
    # column by column: ``a.max(axis=1)`` over a short axis runs a
    # separate reduction per row, some 40 times slower
    return functools.reduce(np.maximum, a.T)


def polydisc_distance_array(zs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Sup of coordinate Poincare distances on the polydisc, on (N, n)
    arrays, real or complex."""
    z, w = np.asarray(zs), np.asarray(ws)
    if z.shape != w.shape or z.ndim != 2:
        raise OracleError("dimension mismatch")
    return _row_max(disc_distance(z.ravel(), w.ravel()).reshape(z.shape))


def polydisc_axis_distance_array(ts: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """The :func:`polydisc_axis_oracle` distance on (N, n) arrays of
    geodesic parameters: max_i |t_i - s_i|.

    A non-finite parameter stands for no point, so it raises instead of
    turning into a NaN distance.  The test reads |t_i - s_i|, so a pair
    of finite parameters whose difference overflows raises as well.
    """
    t = np.asarray(ts, dtype=float)
    s = np.asarray(ss, dtype=float)
    if t.shape != s.shape or t.ndim != 2:
        raise OracleError("dimension mismatch")
    diff = np.abs(t - s)
    if not np.isfinite(diff).all():
        raise OracleError("polydisc_axis_distance_array: non-finite geodesic parameter")
    return _row_max(diff)


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
    the tetrablock point (u, u, u^2): (m,) real.  The disc kernel on the
    parameters is the tetrablock distance of the points."""
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
    "disc": SampleDomain(disc_distance, disc_points),
    "ball": SampleDomain(ball_distance_array, ball_points),
    "polydisc": SampleDomain(polydisc_distance_array, polydisc_points),
    "tetra": SampleDomain(disc_distance, royal_line_points),
    "polydisc_axis": SampleDomain(polydisc_axis_distance_array, polydisc_axis_points),
}


def disc_to_halfplane(z: complex) -> complex:
    """Cayley map of the unit disc onto Re > 0 (0 -> 1)."""
    return (1.0 + z) / (1.0 - z)


def mobius_disc_automorphism(a: complex, theta: float) -> Callable[[complex], complex]:
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
        return float(polydisc_axis_distance_array([ts], [ss])[0])

    return DistanceOracle(fn=fn)


# ---------------------------------------------------------------------------
# symmetrized bidisc


def _lift_gaps(zs: Sequence[Sequence[complex]]) -> tuple[np.ndarray, np.ndarray]:
    # a stack of k lifts (z1, z2) as a (k, 2) array, and their gaps
    # 1 - |z_i|^2 in the form (1 - |z_i|)(1 + |z_i|), which keeps its
    # digits as |z_i| -> 1; NaN fails the gap test too
    z = np.asarray(zs)
    if z.ndim != 2 or z.shape[1] != 2:
        raise OracleError("a symmetrized-bidisc point lifts to two coordinates")
    r = np.abs(z)
    g = (1.0 - r) * (1.0 + r)
    bad = ~np.all(g > 0.0, axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise OracleError(
            f"lift {i} of the stack, {tuple(z[i].tolist())}, is outside the open bidisc")
    return z, g


def _gn_stack(lifts, first, second) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the stack's lifts and gaps, and its pairs (lifts[first[m]],
    # lifts[second[m]]) as a (2, k) index array, refused before any scan runs
    z, g = _lift_gaps(lifts)
    i, j = np.asarray(first), np.asarray(second)
    if i.ndim != 1 or i.shape != j.shape:
        raise OracleError(f"pair indices of shapes {i.shape} and {j.shape} do not pair up")
    ij = np.stack([i, j])
    if ij.size and (ij.dtype.kind not in "iu" or ij.min() < 0 or ij.max() >= len(z)):
        raise OracleError(f"a pair index lies outside the stack of {len(z)} lifts")
    return z, g, ij.astype(np.intp)


def _lift_parts(z: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, ...]:
    # the lam-free parts of Phi_lam at each lift: z1, z2, z1 z2, z1 + z2 and
    # the gaps g1, g2, each as a column; z1 z2 is formed first, so both lift
    # orders give its bits
    z1, z2 = z[:, :1], z[:, 1:]
    return z1, z2, z1 * z2, z1 + z2, g[:, :1], g[:, 1:]


def _phi(lam: np.ndarray, parts: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Phi_lam(s, p) = (2 lam p - s)/(2 - lam s) at the points whose lifts
    have the _lift_parts ``parts``, and 1 - |Phi_lam|^2, for each lam of
    the row of ``lam`` that broadcasts against that point's column.

    With w_i = 1 - lam z_i these are (2 lam z1 z2 - (z1 + z2))/(w1 + w2)
    and 2 (g1 |w2|^2 + g2 |w1|^2)/|w1 + w2|^2, which does not cancel.  The
    numerator's other form -(z1 w2 + z2 w1) cancels to 2 lam z1 z2 where
    z1 + z2 = 0.
    """
    z1, z2, prod, total, g1, g2 = parts
    w1 = 1.0 - lam * z1
    w2 = 1.0 - lam * z2
    den = w1 + w2
    phi = (2.0 * lam * prod - total) / den
    return phi, 2.0 * (g1 * np.abs(w2) ** 2 + g2 * np.abs(w1) ** 2) / np.abs(den) ** 2


def gn_lower_bound(lifts: Sequence[Sequence[complex]], first: Sequence[int],
                   second: Sequence[int]) -> np.ndarray:
    """Certified lower bounds for the invariant distances between the
    points with lifts lifts[first[m]] and lifts[second[m]], for each of
    the k pairs: the best disc distance between their images under the
    maps Phi_lam, |lam| = 1, which are holomorphic into the disc.

    The _PHASE_GRID phases map each distinct lift once, and each pair
    reads its two rows; then _REFINE_ROUNDS rescans of _REFINE_POINTS
    over the two cells around each pair's own best phase so far, each
    one _phi call over both sides of every pair.  Every value is the
    distance of two images, so the scan can only undershoot.  Each
    operation is elementwise and each row keeps its first maximum, so a
    pair gets the same bits in any stack.
    """
    z, g, ij = _gn_stack(lifts, first, second)
    parts = _lift_parts(z, g)
    rows = np.arange(ij.shape[1])
    phi, gap = _phi(_PHASE_LAM, parts)
    d = _disc_distance_gaps(np, phi[ij[0]], phi[ij[1]], gap[ij[0]], gap[ij[1]])
    j = np.argmax(d, axis=1)
    best, theta0 = d[rows, j], _PHASE_THETA[j]
    # each part as (2, k, 1): the pairs' first lifts, then their second
    pair_parts = tuple(part[ij] for part in parts)
    step = _PHASE_STEP
    for _ in range(_REFINE_ROUNDS):
        theta = theta0[:, None] + step * _REFINE_OFFSETS
        (u, v), (gap_u, gap_v) = _phi(np.exp(1j * theta), pair_parts)
        d = _disc_distance_gaps(np, u, v, gap_u, gap_v)
        j = np.argmax(d, axis=1)
        best = np.maximum(best, d[rows, j])
        theta0 = theta[rows, j]
        step *= 2.0 / (_REFINE_POINTS - 1)
    return best


def gn_upper_bound(lifts: Sequence[Sequence[complex]], first: Sequence[int],
                   second: Sequence[int]) -> np.ndarray:
    """Upper bounds between the points with lifts lifts[first[m]] and
    lifts[second[m]], for each of the k pairs: their bidisc distance under
    the better of the two pairings of coordinates.

    When z1 + z2 = 0 at both ends the analytic disc lam -> (0, lam) also
    joins them, through p = z1 z2 = -z1^2 with 1 - |p|^2 = g1 (2 - g1);
    that leg is much tighter than either pairing when the p are close.
    """
    z, g, (i, j) = _gn_stack(lifts, first, second)
    zx, gx, zy, gy = z[i], g[i], z[j], g[j]
    # legs (x1, y1), (x2, y2), then (x1, y2), (x2, y1)
    ix, iy = [0, 1, 0, 1], [0, 1, 1, 0]
    d = _disc_distance_gaps(np, zx[:, ix], zy[:, iy], gx[:, ix], gy[:, iy])
    best = np.minimum(np.maximum(d[:, 0], d[:, 1]), np.maximum(d[:, 2], d[:, 3]))
    axis = (zx.sum(axis=1) == 0.0) & (zy.sum(axis=1) == 0.0)
    if axis.any():
        gx0, gy0 = gx[axis, 0], gy[axis, 0]
        p = _disc_distance_gaps(
            np, zx[axis].prod(axis=1), zy[axis].prod(axis=1), gx0 * (2.0 - gx0), gy0 * (2.0 - gy0))
        best[axis] = np.minimum(best[axis], p)
    return best


# floats gn_pair_bounds widens by: where 1 - conj(u) v and the images'
# 1 - lam z_i do not cancel (the witness's maxima sit at lam = +-1, grid
# phases where 1 - lam z_i is exact at real lifts), den, m and the gaps come
# within 2 SIMD_FLOATS + 3 floats; arctanh (1 - m^2 >= 0.19) amplifies m's by
# 1/0.19 at most, log (distances above 1) passes on half of the gaps' and den's
_GN_FLOATS = 16 * SIMD_FLOATS


def gn_pair_bounds(lifts: Sequence[Sequence[complex]], first: Sequence[int],
                   second: Sequence[int]) -> list[DistBound]:
    """Enclosure of the distance between the symmetrized-bidisc points with
    lifts lifts[first[m]] and lifts[second[m]], for each of the k pairs:
    the scan and the pairings, rounded outward by _GN_FLOATS.  A lift that
    several pairs share is mapped once per phase of the coarse scan."""
    lower = np.maximum(down(gn_lower_bound(lifts, first, second), _GN_FLOATS), 0.0)
    upper = up(gn_upper_bound(lifts, first, second), _GN_FLOATS)
    return [DistBound(lo, hi) for lo, hi in zip(lower.tolist(), upper.tolist())]


# ---------------------------------------------------------------------------
# tetrablock

TetraPoint = tuple[complex, complex, complex]


def tetra_origin_distance(x: TetraPoint) -> float:
    """Exact invariant distance from the origin of the tetrablock.

        atanh max{ (|x1 - conj(x2) x3| + |x1 x2 - x3|) / (1 - |x2|^2),
                   (|x2 - conj(x1) x3| + |x1 x2 - x3|) / (1 - |x1|^2) }

    Distances to the origin are the one configuration where the
    tetrablock's Lempert function has a closed form and matches the
    Caratheodory side, so this single expression is two-sided exact.
    """
    a, b, p = x
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
