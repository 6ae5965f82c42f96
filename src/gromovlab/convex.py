"""Certified two-sided distance machinery on convex profile domains in C^2.

Domains have the shape { (z1, z2) : Re z1 > psi(|z2|) } cut down by the
box Re z1 < BOX, |Im z1| < BOX and the radial cap |z2| < Z2_CAP, where psi
is a convex nondecreasing profile.  Such a domain is bounded and convex,
which is what every lower-bound certificate here leans on.  The box only
involves z1, and the profile and the cap only |z2|.  The face distance
`_faces` and the z2 slice radius `ModelDomain.slice_radius` are each one
formula, on floats through ``rounding.MATH`` and on arrays through numpy.

Lower bounds
    * boundary-distance ratio: k(z, w) >= (1/2) log(d(w)/d(z)),
    * tangent-halfspace functionals pushed into the right half-plane,
    * crossing splits for coupled pairs of opposed functionals.
Upper bounds
    * chains of affine analytic discs (z1-plane tangent discs, z2 slice
      discs), each certified inside the domain where it is built: the
      tangent disc's centre and the slice radius are rounded away from
      the faces, and its legs are closed forms rounded up.  The exception
      is `ub_slice_discs`, which checks its discs against the nearest-
      rounded slice radius with a 1e-12 slack (ROADMAP item 1 deletes it),
    * the integrated ball metric, ds/delta, along a polygon.

Certified terms round outward through :mod:`.rounding`, not with slacks
of their own.  CertificateError always means "could not verify a
precondition", never "the bound is loose".
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .exact import DistBound, _modulus, atanh_one_minus
from .profiles import ProfileFn
from .rounding import (LIBM_FLOATS, MATH, SIMD_FLOATS, atanh_up, down, exp_up, log_down, log_up,
                       sum_down, sum_up, up)

PointC2 = tuple[complex, complex]


class CertificateError(RuntimeError):
    """A bound certificate failed one of its checkable preconditions."""


# the box Re z1 < BOX, |Im z1| < BOX and the radial cap |z2| < Z2_CAP that
# bound every model domain, the base point its witness chains end at, and
# the radius of its z1 tangent discs
BOX = 3.0
Z2_CAP = 2.0
BASE_POINT: PointC2 = (1.0 + 0.0j, 0.0 + 0.0j)
DISC_RADIUS = 1.45

# branch and bound of the boundary bracket: cells of the first uniform
# pass, relative gap at which a surviving cell no longer pays to split,
# and the cap on one point's splits
_BB_COARSE = 256
_BB_GAP = 1e-4
_BB_MAX_ITER = 6000


def _modulus_up(w: complex) -> float:  # |w| rounded up: a hypot, exact on the axes
    return up(_modulus(w), LIBM_FLOATS) if w.real and w.imag else _modulus(w)


def _faces(x1, y1, s):
    """min(BOX - x1, BOX - |y1|, Z2_CAP - s), the signed distance to the box
    and cap faces from z1 = x1 + i y1 and |z2| = s, rounded to nearest, on
    floats or elementwise on arrays; at s = 0 its sign is the box's.  A NaN
    |y1| comes first, where MATH.minimum passes it on as np.minimum does."""
    xp = np if isinstance(x1, np.ndarray) or isinstance(s, np.ndarray) else MATH
    return xp.minimum(xp.minimum(BOX - abs(y1), BOX - x1), Z2_CAP - s)


def _face_margin_lower(x1: np.ndarray, y1: np.ndarray, s: np.ndarray) -> np.ndarray:
    """:func:`_faces` from z1 = x1 + i y1 and |z2| = s (a hypot), rounded
    down.  The smallest difference m steps down only where Fast2Sum shows
    its face inexact; every other face's exact margin exceeds m."""
    ay1, s_up = np.abs(y1), up(s, LIBM_FLOATS)
    m = _faces(x1, y1, s_up)
    err = np.minimum(np.minimum((BOX - m) - x1, (BOX - m) - ay1), (Z2_CAP - m) - s_up)
    return np.where(err < 0.0, down(m), m)


def _certified_block_min(
    f: Callable[[np.ndarray], np.ndarray],
    h: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    cell_lb: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    hi: np.ndarray,
    ceiling: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray]:
    """Global minimum of a block of functions, the k-th on [0, hi[k]],
    each with a certified lower bound.

    The functions read an inner function f, evaluated once at each grid
    point and midpoint and shared by the cells that end there:
    h(owner, t, f(t)) evaluates function owner[i] at t[i], and
    cell_lb(owner, a, b, f(a), f(b)) must lower-bound it on [a[i], b[i]].
    Breadth-first branch and bound over interval cells: after a uniform
    pass, each round settles every cell whose bound reaches its
    function's threshold (within _BB_GAP of the best evaluation,
    relative to best itself, so that tiny-scale minima such as squared
    near-boundary distances are still bracketed to relative precision)
    or its floor, and splits all the others, evaluating h at their
    midpoints, until a round splits nothing.  best and floor only fall,
    so a settled cell would never be split later; its bound goes into a
    running minimum.  A cell whose midpoint rounds onto an endpoint is at
    float resolution and cannot be split; its bound becomes a floor.  A
    function whose next round would take it past _BB_MAX_ITER splits
    refuses the whole block, naming its index.
    A function whose uniform-pass cell bounds all reach ceiling[k] settles
    them there; no split lowers a bound, so no skipped value is below it.
    Every step is elementwise in the functions, so each gets the same
    outcome and bits alone as in any block.  Returns (best, lower).
    """
    n = len(hi)
    # np.linspace(0, hi, _BB_COARSE + 1, axis=1), as it rounds, without its overhead
    ts = np.arange(_BB_COARSE + 1) * (hi / _BB_COARSE)[:, None]
    ts[:, -1] = hi
    fts = f(ts)
    owner = np.arange(n)[:, None]
    best = h(owner, ts, fts).min(axis=1)
    a, b, fa, fb = ts[:, :-1], ts[:, 1:], fts[:, :-1], fts[:, 1:]
    lb = cell_lb(owner, a, b, fa, fb)
    exits = (least := lb.min(axis=1)) >= ceiling
    settled = np.where(exits, least, math.inf)
    lb[exits] = math.inf  # so their cells settle in the first round, leaving settled as is
    owner = np.broadcast_to(owner, lb.shape)
    floor = np.full(n, math.inf)
    splits = np.zeros(n, dtype=np.int64)
    while True:
        threshold = best - _BB_GAP * np.abs(best) - 1e-300
        m = 0.5 * (a + b)
        # fmin, not minimum: a NaN threshold must not hide the floor
        settle = lb >= np.fmin(threshold, floor)[owner]
        atomic = ~settle & ((m <= a) | (m >= b))
        if atomic.any():
            np.minimum.at(floor, owner[atomic], lb[atomic])
        split = ~(settle | atomic)
        splits += np.bincount(owner[split], minlength=n)
        over = np.flatnonzero(splits > _BB_MAX_ITER)
        if over.size:
            raise CertificateError(f"point {over[0]} of the block needs more than "
                                   f"{_BB_MAX_ITER} branch-and-bound splits")
        np.minimum.at(settled, owner[settle], lb[settle])
        keep = np.nonzero(split)
        if not keep[0].size:
            break
        owner, a, b, m, fa, fb = owner[keep], a[keep], b[keep], m[keep], fa[keep], fb[keep]
        fm = f(m)
        np.minimum.at(best, owner, h(owner, m, fm))
        owner = np.concatenate([owner, owner])
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
        fa, fb = np.concatenate([fa, fm]), np.concatenate([fm, fb])
        lb = cell_lb(owner, a, b, fa, fb)
    return best, np.minimum(np.minimum(best, floor), settled)


@dataclass(frozen=True)
class ModelDomain:
    """Convex profile domain in C^2 with its certified-bound toolkit."""

    name: str
    profile: ProfileFn
    # interior tangent-ball data.  ball_curvature_sup must dominate psi''
    # on [0, ball_contact_cap + ball_radius], and the ball radius must
    # satisfy ball_radius * ball_curvature_sup <= 1; both are recorded per
    # model and spot-checked by the test suite.
    ball_radius: float
    ball_contact_cap: float
    ball_curvature_sup: float

    # -- membership ---------------------------------------------------------

    def psi_up(self, t: float) -> float:
        """psi(t) rounded up, 0 where log_value is -inf.  Below e^-4 every
        profile is a flat or power piece, whose log_value (a division or libm
        log, times 2 or 4) is within LIBM_FLOATS floats of log psi; above, value
        (a pow or a few roundings of positive terms) is within 4 LIBM_FLOATS."""
        log_v = self.profile.log_value(t)
        if log_v < -4.0:
            return exp_up(up(log_v, LIBM_FLOATS)) if log_v > -math.inf else 0.0
        return up(self.profile.value(t), 4 * LIBM_FLOATS)

    def contains(self, z: PointC2, slack: float = 0.0) -> bool | np.ndarray:
        """Whether z = (z1, z2) is interior with every face margin above
        -slack: Re z1 - psi(|z2|), Z2_CAP - |z2|, BOX - Re z1 and
        BOX - |Im z1|.  Elementwise over z's coordinates, which may be
        complex arrays, with psi evaluated as :mod:`.profiles` evaluates it;
        a NaN or infinite coordinate is not interior."""
        z1, z2 = z
        x1, s, floor = z1.real, _modulus(z2), -slack
        return (x1 - self.profile.value(s) > floor) & (_faces(x1, z1.imag, s) > floor)

    # -- boundary distance ---------------------------------------------------

    def _profile_distance_block(
        self, x1: np.ndarray, s: np.ndarray, ceiling: np.ndarray | float
    ) -> tuple[np.ndarray, np.ndarray]:
        # squared distance from (x1, s) to the graph point (psi(t), t) is
        # h(t), minimized by the branch and bound over [0, t_hi]: past t_hi
        # the axis term alone exceeds h at 0 or at s
        def h(owner: np.ndarray, t: np.ndarray, psi_t: np.ndarray) -> np.ndarray:
            return (x1[owner] - psi_t) ** 2 + (s[owner] - t) ** 2

        def cell_lb(
            owner: np.ndarray, a: np.ndarray, b: np.ndarray, psi_a: np.ndarray, psi_b: np.ndarray
        ) -> np.ndarray:
            # psi nondecreasing, so x1 - psi(t) runs over [x1-psi(b), x1-psi(a)]
            # and each squared term is minimized endpoint-wise; second order
            # accurate near the minimum, where the two linear slopes cancel
            da, db = x1[owner] - psi_a, x1[owner] - psi_b
            graph = np.where(db >= 0.0, db * db, np.where(da <= 0.0, da * da, 0.0))
            so = s[owner]
            inside = (a <= so) & (so <= b)
            axis = np.where(inside, 0.0, np.minimum((so - a) ** 2, (so - b) ** 2))
            return graph + axis

        psi = self.profile.value
        every, zero = np.arange(len(x1)), np.zeros_like(s)
        # psi(0) = 0 for every profile
        ends = np.minimum(h(every, zero, zero), h(every, s, psi(s)))
        best, lower = _certified_block_min(psi, h, cell_lb, s + np.sqrt(ends) + 1e-9, ceiling)
        return np.sqrt(np.maximum(lower, 0.0)), np.sqrt(np.minimum(best, ends))

    def boundary_distance_brackets(self, zs: Sequence[PointC2]) -> list[DistBound]:
        """Enclosures of the Euclidean distance to the boundary at each
        point, or a refusal naming the point.

        The domain is an intersection of regions, so the distance is the
        minimum of the distances to each region's boundary; the box and
        the cap are closed forms, rounded down for the lower end, the
        profile graph is bracketed by one branch and bound over the whole
        block, whose ceiling is the squared face distance f (sqrt(fl(f*f))
        is f, so min(f, .) keeps its bits where a face decides).  A point
        that is not interior, or whose branch and bound would pass
        _BB_MAX_ITER splits, refuses the whole block, naming its index.
        """
        z = np.array(zs, dtype=complex).reshape(-1, 2)
        z1, z2 = z[:, 0], z[:, 1]
        outside = np.flatnonzero(~self.contains((z1, z2)))
        if outside.size:
            k = int(outside[0])
            raise CertificateError(
                f"point {k} of the block, {zs[k]}, is not an interior point of {self.name}"
            )
        x1, y1, s = z1.real, z1.imag, _modulus(z2)
        faces = _faces(x1, y1, s)
        lo, hi = self._profile_distance_block(x1, s, faces * faces)
        lo = np.minimum(_face_margin_lower(x1, y1, s), lo)
        hi = np.minimum(faces, hi)
        return [DistBound(lo=a, hi=b) for a, b in zip(lo.tolist(), hi.tolist())]

    def cheap_boundary_lower(self, z: PointC2) -> np.ndarray:
        """Closed-form certified lower bound for the boundary distance,
        elementwise over z's coordinates, which may be complex arrays.

        Box and cap: :func:`_face_margin_lower`.  Profile face: the graph
        of psi over the slice at the height x1 is Lipschitz with constant
        psi' at its radius, :meth:`slice_radius`, so the vertical margin
        divided by sqrt(1 + psi'^2) there is a valid lower bound.  A height
        x1 <= 0, which no interior point has, refuses the whole block.
        """
        z1, z2 = np.asarray(z[0]), np.asarray(z[1])
        x1 = z1.real
        # an array even at one point, so the profile evaluates it with numpy
        s = np.asarray(_modulus(z2))
        slope = self.profile.deriv(self.slice_radius(x1))
        return np.minimum(_face_margin_lower(x1, z1.imag, s),
                          (x1 - self.profile.value(s)) / np.hypot(1.0, slope))

    def slice_radius(self, x1):
        """Radius of the z2 slice {w : psi(|w|) < x1, |w| < Z2_CAP} at height
        x1, on a float or elementwise on an array; the box does not involve
        z2.  Both branches run, as in :mod:`.profiles`: the inverse reads
        the placeholder height 1.0 where psi(Z2_CAP) <= x1 and the cap binds."""
        xp = np if isinstance(x1, np.ndarray) else MATH
        if not xp.all(x1 > 0.0):
            raise CertificateError("slice height must be positive")
        steep = self.profile.value(Z2_CAP) > x1
        inverse = self.profile.inverse(xp.where(steep, x1, 1.0))
        return xp.where(steep, xp.minimum(Z2_CAP, inverse), Z2_CAP)

    # -- analytic discs ------------------------------------------------------

    def z1_disc(self, w2: complex) -> float:
        """Centre, on the real axis, of the tangent disc of radius
        DISC_RADIUS in the z1 plane at fixed z2 = w2: psi(|w2|) + R rounded
        up, with |w2| and psi rounded up too, so the disc clears the profile
        face; at w2 = 0 it is R exactly, since psi(0) = 0.
        :meth:`refuse_leaky_z1_disc` certifies it."""
        s = _modulus_up(w2)
        center = sum_up(psi := self.psi_up(s), DISC_RADIUS)
        self.refuse_leaky_z1_disc(s, center, psi)
        return center

    @staticmethod
    def refuse_leaky_z1_disc(s: float, center: float, psi: float) -> None:
        """CertificateError unless the disc |z1 - center| < R at |z2| = s
        lies in the domain: s inside the radial cap, center + R inside the
        box face Re z1 = BOX (R < BOX keeps it off |Im z1| = BOX), and
        center - R at least psi = psi_up(s), the profile face."""
        if s >= Z2_CAP:
            raise CertificateError("z1 disc outside the radial cap")
        if sum_up(center, DISC_RADIUS) >= BOX:
            raise CertificateError(f"z1 disc at |z2|={s:g} leaves the box")
        if center - DISC_RADIUS < psi:
            raise CertificateError(f"z1 disc at |z2|={s:g} crosses the profile face")

    def slice_disc(self, c: complex) -> float:
        """Radius of the disc |z2| < r at fixed z1 = c: the profile's inverse
        (or the cap) stepped down 4 LIBM_FLOATS floats, psi_up's most, then by
        doubling steps to psi_up(r) <= Re c; refuse_leaky_slice_disc checks it."""
        r, k, psi = down(self.slice_radius(c.real), 4 * LIBM_FLOATS), 8 * LIBM_FLOATS, math.inf
        while r > 0.0 and (psi := self.psi_up(r)) > c.real:
            r, k = down(r, k), 2 * k
        self.refuse_leaky_slice_disc(c, r, psi)
        return r

    @staticmethod
    def refuse_leaky_slice_disc(c: complex, r: float, psi: float) -> None:
        """CertificateError unless the disc |z2| < r at z1 = c lies in the
        domain: c inside the box, 0 < r <= Z2_CAP, and psi = psi_up(r) at
        most Re c, the profile face (tangency is allowed, since the disc
        is open)."""
        if _faces(c.real, c.imag, 0.0) <= 0.0:
            raise CertificateError(f"slice disc at z1={c} leaves the box")
        if not 0.0 < r <= Z2_CAP:
            raise CertificateError(f"slice radius {r!r} is not in (0, {Z2_CAP}]")
        if psi > c.real:
            raise CertificateError(f"slice disc at Re z1={c.real:g} crosses the profile face")

    # -- generic upper bound --------------------------------------------------

    def ub_euclidean_chain(self, zs: Sequence[PointC2], ws: Sequence[PointC2]) -> np.ndarray:
        """:func:`ub_radius_integral` along :func:`chain_polygon` from each
        zs[k] to ws[k], with the closed-form boundary lower bound as the
        radius at each node; one call over all pairs."""
        nodes, h = chain_polygon(np.array(zs, dtype=complex).reshape(-1, 2),
                                 np.array(ws, dtype=complex).reshape(-1, 2))
        return ub_radius_integral(self.cheap_boundary_lower((nodes[..., 0], nodes[..., 1])), h)


# ---------------------------------------------------------------------------
# the integrated ball metric

# pieces of each chain polygon
_CHAIN_PIECES = 16

# floats a piece length steps up by: a float step at y raises it by at
# least 2^-53 y.  Each coordinate difference rounds by half an ulp (2^-53
# relative), each of the two hypots on the way to the length by
# LIBM_FLOATS such steps (2 ulps), and one more step covers the products
# of these factors
_CHAIN_FLOATS = 1 + 2 * LIBM_FLOATS + 1


def chain_polygon(z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The polygon through _CHAIN_PIECES + 1 evenly spaced float points of
    the segment from each row z[k] of C^2 to w[k], with ends z[k] and w[k]
    exactly: its nodes, shaped (pair, node, 2), and its piece lengths,
    rounded up, 0 exactly for a piece of length 0.  Nodes off the segment
    by a rounding only move the polygon, the path that
    :func:`ub_radius_integral` prices.

    The nodes are formed on the float planes (Re z1, Im z1, Re z2, Im z2):
    a complex product with the real frac rounds as this one does, but for
    the sign of a zero."""
    frac = np.arange(_CHAIN_PIECES + 1)[:, None] / _CHAIN_PIECES
    zf, wf = np.ascontiguousarray(z).view(float), np.ascontiguousarray(w).view(float)
    nodes = zf[:, None, :] + frac * (wf - zf)[:, None, :]
    nodes[:, 0], nodes[:, -1] = zf, wf
    step = np.diff(nodes, axis=1)
    h = np.hypot(np.hypot(step[..., 0], step[..., 1]), np.hypot(step[..., 2], step[..., 3]))
    return nodes.view(complex), np.where(h > 0.0, up(h, _CHAIN_FLOATS), h)


def ub_radius_integral(r: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Upper bounds for the invariant distance between the ends of
    polygons in a convex domain, from certified lower bounds r[k, j] for
    the Euclidean boundary distance delta at the K + 1 nodes of polygon k
    and the lengths h[k, j] of its K pieces.

    The ball B(x, delta(x)) lies in the domain, so the Kobayashi-Royden
    metric is at most |v|/delta(x), and the distance is at most the
    integral of ds/delta.  delta is concave on a convex domain, so on a
    piece it lies above the chord of the end radii a and b, and the piece
    costs at most h log(b/a)/(b - a) = (h/a) g(q), with q = b/a,
    g(q) = log(q)/(q - 1) and g(1) = 1.  g falls as q rises, so q is
    rounded down and g up, numpy's log within SIMD_FLOATS floats; each piece
    is rounded up and the pieces are summed left to right by
    `rounding.sum_up`, so a polygon gets the same bits alone as in any
    block.  A polygon of length 0 costs exactly 0.
    """
    bad = np.argwhere(~(r > 0.0))
    if bad.size:
        raise CertificateError(
            f"node {bad[0][1]} of chain {bad[0][0]} has no positive certified radius"
        )
    a = r[:, :-1]
    q = down(r[:, 1:] / a)
    # log q and q - 1 share a sign, so g = |log q|/|q - 1|
    with np.errstate(divide="ignore", invalid="ignore"):
        g = up(up(np.abs(np.log(q)), SIMD_FLOATS) / down(np.abs(q - 1.0)))
    g[q == 1.0] = 1.0
    pieces = np.where(h > 0.0, up(up(h * g) / a), 0.0)
    return sum_up(*pieces.T)


# ---------------------------------------------------------------------------
# lower-bound certificates


@dataclass(frozen=True)
class TangentHalfspaceCert:
    """Holomorphic functional with positive real part on the domain.

    F(z) = z1 - psi(t0) - psi'(t0) (e^{-i theta} z2 - t0), scaled by
    e^{-normalizer_log}.  Positivity on the domain is by construction:
    convexity gives Re z1 > psi(|z2|) >= psi(t0) + psi'(t0)(|z2| - t0),
    and psi'(t0) >= 0 lets |z2| be replaced by any Re(e^{-i theta} z2).
    """

    domain: ModelDomain
    t0: float
    theta: float
    normalizer_log: float = 0.0

    def __post_init__(self):
        if self.t0 < 0.0:
            raise CertificateError("tangency radius must be >= 0")

    def re_f_float(self, z: PointC2) -> float | np.ndarray:
        """Re F(z) rounded to nearest: the functional's one evaluator, which
        the hinge witness reads at every height delta, 1e-31 among them;
        elementwise over z's coordinates, which may be complex arrays."""
        t0 = self.t0
        profile = self.domain.profile
        val = (
            z[0].real
            - profile.value(t0)
            - profile.deriv(t0)
            * ((complex(math.cos(-self.theta), math.sin(-self.theta)) * z[1]).real - t0)
        )
        return val * math.exp(-self.normalizer_log)

    @cached_property
    def log_tau_cert(self) -> float:
        """log of the certified coupling level tau, computed once.

        With the twin at theta + pi (the same domain, t0 and normalizer),
        Re f + Re f_twin >= 2 (t0 psi'(t0) - psi(t0)) e^{-normalizer}
        on the domain (using Re z1 > psi >= 0), so tau is half of that.
        """
        profile = self.domain.profile
        steep = profile.steepness(self.t0)
        if steep <= 1.0:
            raise CertificateError("coupling level is not positive at this tangency")
        # t0 psi' - psi = psi (steepness - 1)
        return profile.log_value(self.t0) + math.log(steep - 1.0) - self.normalizer_log


def lb_boundary_ratio_log(log_d_z_hi, log_d_w_lo):
    """k(z, w) >= (1/2) log(d(w)/d(z)) on a convex domain, in the log
    domain (pass a certified upper log-distance for z, lower for w), on
    two floats or elementwise on arrays."""
    xp = np if isinstance(log_d_z_hi, np.ndarray) or isinstance(log_d_w_lo, np.ndarray) else MATH
    return 0.5 * xp.maximum(0.0, log_d_w_lo - log_d_z_hi)


def lb_crossing_split(
    cert: TangentHalfspaceCert,
    log_start: float,
    log_tau: float | None = None,
) -> float:
    """Crossing lower bound between mirror points z and w for the
    functional f_A of cert and its twin f_B at theta + pi, the coupled
    pair of :attr:`TangentHalfspaceCert.log_tau_cert`.

    With Re f_A + Re f_B >= 2 tau on the domain, any path from z to w
    drives Re f_A from its small value at z up through the tau level and
    Re f_B down through it, giving

        k(z, w) >= (1/2) log(tau / Re f_A(z)) + (1/2) log(tau / Re f_B(w)).

    Every witness places w at z's mirror under the rotation by pi that
    carries f_A to f_B, so both starting values are the one start
    exp(log_start).  A tau below the certified coupling level may be
    passed in (the bound is monotone in tau); the start must sit below it.

    The half-plane leg estimate behind each summand needs the functional
    value at the starting point to be real and positive: for real
    v in (0, c0] and any w with |w| >= c0,

        (|v-w| / |v+w|)^2  =  (v^2 + |w|^2 - 2 v Re w) / (v^2 + |w|^2 + 2 v Re w)
                           >= ((|w| - v) / (|w| + v))^2   [Re w <= |w|]
                           >= ((c0 - v) / (c0 + v))^2,

    so k_H(v, w) >= (1/2) log(c0 / v).  Every witness construction
    arranges real starting values by symmetry; callers with genuinely
    complex values must not use this bound.
    """
    cap = cert.log_tau_cert
    if log_tau is None:
        log_tau = cap
    elif log_tau > cap:
        raise CertificateError("requested tau exceeds the certified coupling level")
    if log_start > log_tau:
        raise CertificateError("crossing bound needs both endpoints below the tau level")
    # one summand per mirror point: sum_down(log_tau, -log_start) alone
    # rounds differently
    return 0.5 * sum_down(log_tau, -log_start, log_tau, -log_start)


# ---------------------------------------------------------------------------
# disc-leg upper bounds


def _ub_real_leg(x: float, y: float, c: float, r: float) -> float:
    """Poincare distance between the real points x and y of the disc
    |z - c| < r, on either side of its centre, rounded up: atanh(m),
    m = r |x - y| / (r^2 + |x - c| |y - c|), numerator up, denominator down.
    """
    if (x - c) * (y - c) > 0.0:
        raise CertificateError("leg ends on one side of the disc centre")
    num = up(r * up(abs(x - y)))
    m = up(num / down(down(r * r) + down(down(abs(x - c)) * down(abs(y - c)))))
    if m >= 1.0:
        raise CertificateError("leg end outside its disc")
    return atanh_up(m)


def ub_base_chain(domain: ModelDomain, c: tuple[float, complex]) -> tuple[float, float]:
    """The last two legs of a disc chain to BASE_POINT from the center
    c = (c1, c2) of a z1 tangent disc, c1 as :meth:`ModelDomain.z1_disc`
    returns it: down the z2 slice at the height c1 to z2 = 0, then along
    the z1 disc at z2 = 0.  Each caller prices the first leg, from a point
    to c, and sums the legs in its own order."""
    c1, c2 = c
    leg_b = _ub_real_leg(_modulus_up(c2), 0.0, 0.0, domain.slice_disc(c1))
    leg_c = _ub_real_leg(c1, BASE_POINT[0].real, DISC_RADIUS, DISC_RADIUS)
    return leg_b, leg_c


def ub_base_leg(log_h_lo: float) -> float:
    """The z1-disc leg at z2 = 0 from (h, 0), h = exp(log_h_lo), to BASE_POINT, rounded up."""
    R = DISC_RADIUS
    return atanh_one_minus(sum_down(log_h_lo, -log_up(R)), up((BASE_POINT[0].real - R) / R))


# ---------------------------------------------------------------------------
# the two-disc slice bound


def ub_slice_discs(
    domain: ModelDomain,
    p: PointC2,
    p_tilde2: complex,
    s_tilde2: complex,
    r: float,
) -> float:
    """Two-disc slice bound:

        k(p, (p1, s_tilde2)) <= -(1/2) log d'(p) + (1/2) log(2r)
                                  + 4 |p_tilde2 - s_tilde2| / r,

    where d' is the distance to the boundary within the z2 slice, the
    disc of radius slice_radius(Re p1) since the box does not involve
    z2.  The slice discs of radius r around p_tilde2 and s_tilde2 must
    both lie in the slice; their convex hull then lies in the (convex)
    slice, so inclusion into the domain is distance-decreasing.  The
    first leg is the Poincare distance inside the p_tilde2 disc,
    coarsened through d_disc = r - |p2 - p_tilde2|; the second is a hop
    chain of discs of radius r/2 along the segment between the two
    centers.
    """
    rad = domain.slice_radius(p[0].real)
    for center in (p_tilde2, s_tilde2):
        if abs(center) + r > rad + 1e-12:
            raise CertificateError("slice disc leaves the profile slice")
    if _faces(p[0].real, p[0].imag, 0.0) <= 0.0:
        raise CertificateError("slice discs leave the box")
    e = abs(p[1] - p_tilde2)
    if e >= r:
        raise CertificateError("point is not inside its slice disc")
    d_disc = r - e
    d_prime = rad - abs(p[1])
    if d_prime <= 0.0:
        raise CertificateError("point is not interior to its z2 slice")
    if abs(d_disc - d_prime) > 1e-9 * (1.0 + r):
        raise CertificateError(
            "slice-disc depth and directional boundary distance disagree; "
            "the disc is not pushed against the binding face"
        )
    if abs(p[1]) > 0.0:
        contact = p[1] / abs(p[1]) * rad
        if abs(contact - p_tilde2) > r + 1e-12:
            raise CertificateError("directional contact point escapes the closed disc")
    return (
        0.5 * math.log(2.0 * r)
        - 0.5 * math.log(min(d_disc, d_prime))
        + 4.0 * abs(p_tilde2 - s_tilde2) / r
    )


# ---------------------------------------------------------------------------
# interior tangent-ball upper bound

# additive slack absorbing the float-shadow drift of log-domain chains
# (disc centers are computed in floats while the certified quantities are
# carried as logs; the drift is ~1e-300 absolute, far below this)
_LOG_PATH_SLACK = 1e-9


def ub_interior_ball(domain: ModelDomain, z: PointC2, log_g: float) -> float:
    """Upper bound via the interior ball tangent to the profile face.

    At contact radius t1 = |z2| the ball of radius R = ball_radius whose
    center sits at distance R along the inward normal is contained in
    the domain: writing points in the (Re z1, |z2|) half-plane (the
    reduction |z2 - c2| >= ||z2| - |c2|| handles phases, Im z1 only
    enlarges distances), the lower arc of the ball is a convex graph
    with second derivative >= 1/R, tangent to psi at t1, and
    1/R >= ball_curvature_sup >= sup psi'' on the arc's span -- so the
    arc stays above the profile.  The box face Re z1 = BOX and the radial
    cap are checked directly on the ball.

    The point, whose z1 must be real, sits inside the ball whenever its
    height above the contact g = z1 - psi(t1) satisfies g < 2 R cos(phi);
    the hop to the center costs atanh(|z - c|/R), bounded through

        1 - m^2 = (g/R) (2 cos(phi) - g/R),

    evaluated in the log domain from log_g = log g, widened by a relative
    1e-9 either way, with 2 cos(phi) - g/R rounded down; its sums at the
    scale of log g round to nearest, which the widening covers while
    |log g| < 1e5.  From the center a disc chain
    reaches the base point: the z1 tangent disc at the center's z2 to its
    own center, then :func:`ub_base_chain`, each leg a closed form rounded
    up.  The return value includes _LOG_PATH_SLACK.
    """
    R = domain.ball_radius
    if R * domain.ball_curvature_sup > 1.0:
        raise CertificateError("ball radius exceeds the curvature budget")
    t1 = abs(z[1])
    if t1 > domain.ball_contact_cap:
        raise CertificateError("contact radius beyond the certified cap")
    dpsi = domain.profile.deriv(t1)
    hyp = math.hypot(1.0, dpsi)
    cos_phi = 1.0 / hyp
    sin_phi = dpsi / hyp
    if z[0].imag != 0.0:
        raise CertificateError("the ball hop needs a real z1")
    log_g_lo = log_g + math.log1p(-1e-9)
    log_g_hi = log_g + math.log1p(1e-9)

    # ball containment: cap and box at the float-shadow center
    c1 = domain.psi_up(t1) + R * cos_phi
    c2_mag = t1 - R * sin_phi
    if c2_mag < 0.0:
        # the phase reduction recenters at |c2|, which only matches the
        # tangency construction when the radial coordinate keeps its sign
        raise CertificateError("ball center crossed the z2 axis")
    phase = z[1] / t1 if t1 > 0.0 else 1.0 + 0.0j
    c2 = c2_mag * phase
    if sum_up(c2_mag, R) > Z2_CAP:
        raise CertificateError("interior ball pokes through the radial cap")
    if sum_up(c1, R) >= BOX:
        raise CertificateError("interior ball leaves the box")

    # hop from z into the ball center
    second = sum_down(2.0 * cos_phi, -up(exp_up(log_g_hi) / R))
    if log_g_hi >= math.log(2.0 * R * cos_phi):
        raise CertificateError("point is outside the tangent ball")
    if second <= 0.0:
        raise CertificateError("tangent-ball hop lost its positivity margin")
    log_one_minus_m2 = log_g_lo - log_up(R) + log_down(second)
    hop = math.log(2.0) - 0.5 * log_one_minus_m2

    center = domain.z1_disc(c2)
    leg_a = _ub_real_leg(c1, center, center, DISC_RADIUS)
    leg_b, leg_c = ub_base_chain(domain, (center, c2))
    return hop + leg_a + leg_b + leg_c + _LOG_PATH_SLACK
