"""Certified two-sided distance machinery on convex profile domains in C^2.

Domains have the shape { (z1, z2) : Re z1 > psi(|z2|) } intersected with
affine half-spaces and a radial cap |z2| < B, where psi is a convex
nondecreasing profile.  Such a domain is convex, which is what every
lower-bound certificate here leans on.

Lower bounds
    * boundary-distance ratio: k(z, w) >= (1/2) log(d(w)/d(z)),
    * tangent-halfspace functionals pushed into the right half-plane,
    * crossing splits for coupled pairs of opposed functionals.
Upper bounds
    * explicit affine analytic discs (z1-plane tangent discs, z2 slice
      discs) and chains of them,
    * a generic Euclidean-ball hop chain along the straight segment.

CertificateError always means "could not verify a precondition", never
"the bound is loose".
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exact import DistBound, disc_distance
from .profiles import ProfileFn

PointC2 = tuple[complex, complex]


class CertificateError(RuntimeError):
    """A bound certificate failed one of its checkable preconditions."""


# underflow guard: when psi underflows to 0.0 but is analytically positive,
# this is still a valid float upper bound for it (exp() underflows below
# exp(-745) ~ 5e-324)
_PSI_UNDERFLOW_UB = 1e-300

# branch and bound of the boundary bracket: cells of the first uniform
# pass, relative gap at which a surviving cell no longer pays to split,
# and the cap on splits
_BB_COARSE = 256
_BB_GAP = 1e-4
_BB_MAX_ITER = 6000

# how far inside an affine face, the radial cap or the profile an analytic
# disc must stay
_DISC_CHECK_MARGIN = 1e-12

# containment_check: sample points on each of its two circles, and the
# slack allowed at each
_NET_POINTS = 48
_NET_SLACK = 1e-9


@dataclass(frozen=True)
class AffineConstraint:
    """Open half-space Re(a z1 + b z2) < c."""

    a: complex
    b: complex
    c: float

    def margin(self, z: PointC2) -> float:
        return self.c - (self.a * z[0] + self.b * z[1]).real

    @property
    def norm(self) -> float:
        return math.hypot(abs(self.a), abs(self.b))

    def boundary_distance(self, z: PointC2) -> float:
        return self.margin(z) / self.norm


@dataclass(frozen=True)
class AffineDisc:
    """Analytic disc lam -> origin + lam * direction, |lam| < 1."""

    origin: PointC2
    direction: PointC2
    note: str = ""

    def point_at(self, lam: complex) -> PointC2:
        return (
            self.origin[0] + lam * self.direction[0],
            self.origin[1] + lam * self.direction[1],
        )


def _certified_scalar_min(
    h: Callable[[float], float],
    cell_lb: Callable[[float, float], float],
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Global minimum of h on [lo, hi] with a certified lower bound.

    cell_lb(a, b) must lower-bound h on [a, b].  Branch-and-bound over
    interval cells; stops once every surviving cell's bound is within
    _BB_GAP (relative to best itself, so tiny-scale minima such as squared
    near-boundary distances are still bracketed to relative precision) of
    the best evaluation.  A cell whose midpoint rounds onto an endpoint is
    at float resolution and cannot be split; its bound is taken as final.
    Returns (best, lower).
    """
    if hi <= lo:
        v = h(lo)
        return v, v
    ts = np.linspace(lo, hi, _BB_COARSE + 1)
    best = min(h(float(t)) for t in ts)
    heap: list[tuple[float, float, float]] = []
    for i in range(_BB_COARSE):
        a, b = float(ts[i]), float(ts[i + 1])
        heapq.heappush(heap, (cell_lb(a, b), a, b))
    floor = math.inf
    for _ in range(_BB_MAX_ITER):
        if not heap:
            break
        lb, a, b = heap[0]
        if lb >= best - _BB_GAP * abs(best) - 1e-300 or lb >= floor:
            break
        heapq.heappop(heap)
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            floor = min(floor, lb)
            continue
        best = min(best, h(m))
        heapq.heappush(heap, (cell_lb(a, m), a, m))
        heapq.heappush(heap, (cell_lb(m, b), m, b))
    lower = min(best, floor)
    if heap:
        lower = min(lower, heap[0][0])
    return best, lower


@dataclass(frozen=True)
class ModelDomain:
    """Convex profile domain in C^2 with its certified-bound toolkit."""

    name: str
    profile: ProfileFn
    affine: tuple[AffineConstraint, ...]
    z2_cap: float
    base_point: PointC2
    disc_radius: float = 1.45
    # interior tangent-ball data (0 = feature off).  ball_curvature_sup must
    # dominate psi'' on [0, ball_contact_cap + ball_radius], and the ball
    # radius must satisfy ball_radius * ball_curvature_sup <= 1; both are
    # recorded per model and spot-checked by the test suite.
    ball_radius: float = 0.0
    ball_contact_cap: float = 0.0
    ball_curvature_sup: float = 0.0

    # -- membership ---------------------------------------------------------

    def psi_float_ub(self, t: float) -> float:
        """Float upper bound for psi(t), patched across exp underflow."""
        v = self.profile.value(t)
        if v == 0.0 and self.profile.log_value(t) > -math.inf:
            return _PSI_UNDERFLOW_UB
        return v

    def profile_margin(self, z: PointC2) -> float:
        return z[0].real - self.profile.value(abs(z[1]))

    def contains(self, z: PointC2, slack: float = 0.0) -> bool:
        if self.profile_margin(z) <= -slack:
            return False
        if self.z2_cap - abs(z[1]) <= -slack:
            return False
        return all(f.margin(z) > -slack for f in self.affine)

    # -- boundary distance ---------------------------------------------------

    def _hinge_profile_distance(self, x1: float, s: float) -> float:
        # exact closed form for psi = (t-1)_+^2: flat facet + parabola arc
        flat = math.hypot(x1, max(0.0, s - 1.0)) if s > 1.0 else x1
        # stationary points of (x1 - u^2)^2 + (1 + u - s)^2 over u >= 0
        roots = np.roots([2.0, 0.0, 1.0 - 2.0 * x1, 1.0 - s])
        cands = [0.0] + [float(r.real) for r in roots if abs(r.imag) < 1e-12 and r.real > 0.0]
        para = min(
            math.hypot(x1 - u * u, 1.0 + u - s) for u in cands
        )
        return min(flat, para)

    def _profile_distance_bracket(self, z: PointC2) -> DistBound:
        x1 = z[0].real
        s = abs(z[1])
        if self.profile.name == "hinge":
            v = self._hinge_profile_distance(x1, s)
            return DistBound.exact(v, "hinge closed form")
        psi = self.profile.value

        def h(t: float) -> float:
            return (x1 - psi(t)) ** 2 + (s - t) ** 2

        def cell_lb(a: float, b: float) -> float:
            # psi nondecreasing, so x1 - psi(t) runs over [x1-psi(b), x1-psi(a)]
            # and each squared term is minimized endpoint-wise; second order
            # accurate near the minimum, where the two linear slopes cancel
            da, db = x1 - psi(a), x1 - psi(b)
            if db >= 0.0:
                graph = db * db
            elif da <= 0.0:
                graph = da * da
            else:
                graph = 0.0
            axis = 0.0 if a <= s <= b else min((s - a) ** 2, (s - b) ** 2)
            return graph + axis

        t_hi = s + math.sqrt(min(h(0.0), h(s))) + 1e-9
        best, lower = _certified_scalar_min(h, cell_lb, 0.0, t_hi)
        best = min(best, h(0.0), h(s))
        return DistBound(
            lo=math.sqrt(max(lower, 0.0)),
            hi=math.sqrt(best),
            lo_tag="grid + Lipschitz",
            hi_tag="evaluated point",
        )

    def boundary_distance_bracket(self, z: PointC2) -> DistBound:
        """Enclosure of the Euclidean distance to the boundary.

        The domain is an intersection of regions, so the distance is the
        minimum of the distances to each region's boundary; every face
        except the profile graph is exact.
        """
        if not self.contains(z):
            raise CertificateError(f"{z} is not an interior point of {self.name}")
        exact_faces = [f.boundary_distance(z) for f in self.affine]
        exact_faces.append(self.z2_cap - abs(z[1]))
        cap = min(exact_faces)
        prof = self._profile_distance_bracket(z)
        return DistBound(
            lo=min(cap, prof.lo),
            hi=min(cap, prof.hi),
            lo_tag=prof.lo_tag if prof.lo < cap else "affine face",
            hi_tag=prof.hi_tag if prof.hi < cap else "affine face",
        )

    def cheap_boundary_lower(self, z: PointC2) -> float:
        """Closed-form certified lower bound for the boundary distance.

        Profile face: the graph of psi is Lipschitz with constant
        psi'(t_rel) on the relevant radius range, so the vertical margin
        divided by sqrt(1 + psi'(t_rel)^2) is a valid lower bound.
        """
        x1 = z[0].real
        s = abs(z[1])
        faces = [f.boundary_distance(z) for f in self.affine]
        faces.append(self.z2_cap - s)
        t_rel = self.z2_cap
        if self.profile.value(self.z2_cap) > x1 > 0.0:
            t_rel = min(t_rel, self.profile.inverse(x1))
        slope = self.profile.deriv(t_rel)
        faces.append((x1 - self.profile.value(s)) / math.hypot(1.0, slope))
        return min(faces)

    def slice_radius(self, x1: float) -> float:
        """Radius of the z2 slice {w : psi(|w|) < x1, |w| < cap} at height x1.

        Only the rotation-invariant faces enter; affine faces that involve
        z2 must be handled by the caller (none of the stock models has one).
        """
        if x1 <= 0.0:
            raise CertificateError("slice height must be positive")
        if self.profile.value(self.z2_cap) <= x1:
            return self.z2_cap
        return self.profile.inverse(x1)

    # -- analytic discs ------------------------------------------------------

    def z1_disc(self, w2: complex) -> AffineDisc:
        """Tangent disc in the z1 plane at fixed z2 = w2.

        Center psi(|w2|) + R on the real axis, radius R; tangent to the
        profile face from inside by construction, so only the affine
        faces and the radial cap need checking.
        """
        R = self.disc_radius
        s = abs(w2)
        if s >= self.z2_cap:
            raise CertificateError("z1 disc outside the radial cap")
        center = self.psi_float_ub(s) + R
        for f in self.affine:
            worst = (f.a * center + f.b * w2).real + R * abs(f.a)
            if worst >= f.c - _DISC_CHECK_MARGIN:
                raise CertificateError(
                    f"z1 disc at |z2|={s:g} violates affine face {f}"
                )
        return AffineDisc(
            origin=(complex(center), complex(w2)),
            direction=(complex(R), 0.0 + 0.0j),
            note=f"z1 tangent disc at |z2|={s:g}",
        )

    def slice_disc(
        self,
        c: complex,
        w_center: complex = 0.0 + 0.0j,
        radius: float | None = None,
    ) -> AffineDisc:
        """Disc in the z2 plane at fixed z1 = c, centered at w_center.

        Containment needs psi(|w_center| + r) <= Re c (profile face, with
        tangency allowed because the disc is open) plus the affine faces
        and the radial cap.
        """
        if c.real <= 0.0:
            raise CertificateError("slice disc needs Re z1 > 0")
        wc = abs(w_center)
        r_cap = self.z2_cap - wc
        if r_cap <= 0.0:
            raise CertificateError("slice center outside the radial cap")
        if radius is None:
            r = r_cap
            if self.profile.value(wc + r) > c.real:
                r = self.profile.inverse(c.real) - wc
            if r <= 0.0:
                raise CertificateError("no positive slice radius at this height")
        else:
            r = radius
            if r > r_cap + _DISC_CHECK_MARGIN:
                raise CertificateError("requested slice radius exceeds the radial cap")
            if self.profile.value(wc + r) > c.real + _DISC_CHECK_MARGIN:
                raise CertificateError("requested slice radius pierces the profile face")
        for f in self.affine:
            worst = (f.a * c + f.b * w_center).real + r * abs(f.b)
            if worst >= f.c - _DISC_CHECK_MARGIN:
                raise CertificateError(f"slice disc at z1={c} violates affine face {f}")
        return AffineDisc(
            origin=(complex(c), complex(w_center)),
            direction=(0.0 + 0.0j, complex(r)),
            note=f"z2 slice disc at Re z1={c.real:g}",
        )

    def containment_check(self, disc: AffineDisc) -> None:
        """Sampled sanity net under the analytic containment arguments."""
        n = _NET_POINTS
        for rad in (0.5, 1.0 - 1e-9):
            for k in range(n):
                lam = rad * complex(
                    math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n)
                )
                if not self.contains(disc.point_at(lam), slack=_NET_SLACK):
                    raise CertificateError(
                        f"disc {disc.note!r} leaves {self.name} at lam={lam}"
                    )

    # -- generic upper bound --------------------------------------------------

    def ub_euclidean_chain(self, z: PointC2, w: PointC2) -> float:
        """:func:`hop_chain` along the straight segment from z to w, with
        the closed-form boundary lower bound as the ball radius."""
        dz = (w[0] - z[0], w[1] - z[1])
        length = math.hypot(abs(dz[0]), abs(dz[1]))
        if length == 0.0:
            return 0.0
        unit = (dz[0] / length, dz[1] / length)
        return hop_chain(
            lambda s: self.cheap_boundary_lower((z[0] + s * unit[0], z[1] + s * unit[1])),
            length,
        )


# ---------------------------------------------------------------------------
# Euclidean ball-hop chain

# hops a chain may take before it is refused
_HOP_BUDGET = 50000


def hop_chain(radius: Callable[[float], float], length: float) -> float:
    """Upper bound for the invariant distance between the ends of a
    segment of the given length, by Euclidean ball hops along it (valid
    on a convex domain).

    radius(s) is a certified lower bound for the boundary distance of the
    segment's point at arc length s.  Each hop goes half that radius (or
    to the end) inside the ball, costing atanh(step/r).
    """
    done = 0.0
    total = 0.0
    for _ in range(_HOP_BUDGET):
        r = radius(done)
        if r <= 1e-12:
            raise CertificateError("chain ran out of certified radius")
        step = min(length - done, 0.5 * r)
        total += math.atanh(step / r)
        done += step
        if done >= length - 1e-15 * length:
            return total
    raise CertificateError("euclidean chain exceeded the step budget")


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

    profile: ProfileFn
    t0: float
    theta: float
    normalizer_log: float = 0.0

    def verify(self, domain: ModelDomain | None = None) -> "TangentHalfspaceCert":
        if not self.profile.convex:
            raise CertificateError("tangent halfspace needs a convex profile")
        if self.t0 < 0.0:
            raise CertificateError("tangency radius must be >= 0")
        if domain is not None and domain.profile.name != self.profile.name:
            raise CertificateError("certificate profile does not match the domain")
        return self

    def re_f_float(self, z: PointC2) -> float:
        """Direct float evaluation, for the moderate-parameter regime."""
        t0 = self.t0
        val = (
            z[0].real
            - self.profile.value(t0)
            - self.profile.deriv(t0)
            * ((complex(math.cos(-self.theta), math.sin(-self.theta)) * z[1]).real - t0)
        )
        return val * math.exp(-self.normalizer_log)

    def log_tau_cert(self, partner: "TangentHalfspaceCert") -> float:
        """log of the certified coupling level tau.

        For the opposed pair (theta, theta + pi) at the same t0,
        Re f + Re f_partner >= 2 (t0 psi'(t0) - psi(t0)) e^{-normalizer}
        on the domain (using Re z1 > psi >= 0), so tau is half of that.
        """
        if abs(self.t0 - partner.t0) > 1e-15 * (1.0 + self.t0):
            raise CertificateError("coupled certificates must share the tangency radius")
        if abs(self.normalizer_log - partner.normalizer_log) > 1e-12:
            raise CertificateError("coupled certificates must share the normalizer")
        phase = complex(math.cos(self.theta), math.sin(self.theta)) + complex(
            math.cos(partner.theta), math.sin(partner.theta)
        )
        if abs(phase) > 1e-12:
            raise CertificateError("coupled certificates must point in opposite directions")
        steep = self.profile.steepness(self.t0)
        if steep <= 1.0:
            raise CertificateError("coupling level is not positive at this tangency")
        # t0 psi' - psi = psi (steepness - 1)
        return self.profile.log_value(self.t0) + math.log(steep - 1.0) - self.normalizer_log


def lb_boundary_ratio_log(log_d_z_hi: float, log_d_w_lo: float) -> float:
    """k(z, w) >= (1/2) log(d(w)/d(z)) on a convex domain, in the log
    domain (pass a certified upper log-distance for z, lower for w)."""
    return 0.5 * max(0.0, log_d_w_lo - log_d_z_hi)


def lb_halfplane_ratio_log(
    cert: TangentHalfspaceCert, log_re_z: float, log_re_w: float
) -> float:
    """Push the pair through one positive functional into Re > 0, where
    the distance between real parts is at least half the log ratio."""
    cert.verify()
    return 0.5 * abs(log_re_w - log_re_z)


def lb_crossing_split(
    cert_a: TangentHalfspaceCert,
    cert_b: TangentHalfspaceCert,
    log_re_a_z: float,
    log_re_b_w: float,
    log_tau: float | None = None,
    domain: ModelDomain | None = None,
) -> float:
    """Crossing lower bound for a coupled pair of opposed functionals.

    With Re f_A + Re f_B >= 2 tau on the domain, any path from z to w
    drives Re f_A from its small value at z up through the tau level and
    Re f_B down through it, giving

        k(z, w) >= (1/2) log(tau / Re f_A(z)) + (1/2) log(tau / Re f_B(w)).

    A tau below the certified coupling level may be passed in (the bound
    is monotone in tau); both starting values must sit below tau.

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
    cert_a.verify(domain)
    cert_b.verify(domain)
    cap = cert_a.log_tau_cert(cert_b)
    if log_tau is None:
        log_tau = cap
    elif log_tau > cap + 1e-9:
        raise CertificateError("requested tau exceeds the certified coupling level")
    if log_re_a_z > log_tau + 1e-9 or log_re_b_w > log_tau + 1e-9:
        raise CertificateError("crossing bound needs both endpoints below the tau level")
    return 0.5 * (log_tau - log_re_a_z) + 0.5 * (log_tau - log_re_b_w)


# ---------------------------------------------------------------------------
# disc-leg upper bounds


def ub_disc_leg(
    domain: ModelDomain,
    disc: AffineDisc,
    lam_a: complex,
    lam_b: complex,
    gap_a: float | None = None,
    gap_b: float | None = None,
    rim_shrink: float = 0.0,
) -> float:
    """Cost of one chain leg along an analytic disc: the disc is
    distance-decreasing from the parameter disc into the domain.

    rim_shrink > 0 computes the leg inside the concentric subdisc of
    radius (1 - rim_shrink).  Use it whenever the disc's tangency level
    was produced by rounded profile arithmetic: the float value can sit
    up to half an ulp below the true psi, so the full open disc may leak
    through the face by that much at the very rim, while the shrunken
    disc is strictly inside (the profile's radial steepness buys back
    far more than an ulp over a 1e-14 shrink).  Discs whose tangency is
    exact in floats (the hinge's flat face at level 0, discs with slack)
    can keep rim_shrink = 0.
    """
    domain.containment_check(disc)
    if rim_shrink > 0.0:
        scale = 1.0 - rim_shrink
        lam_a, lam_b = lam_a / scale, lam_b / scale
        if gap_a is not None:
            gap_a = (gap_a - rim_shrink) / scale
        if gap_b is not None:
            gap_b = (gap_b - rim_shrink) / scale
        if (gap_a is not None and gap_a <= 0.0) or (gap_b is not None and gap_b <= 0.0):
            raise CertificateError("rim shrink swallowed a parameter gap")
    return disc_distance(lam_a, lam_b, gap_u=gap_a, gap_v=gap_b)


# ---------------------------------------------------------------------------
# directional boundary distance and the two-disc slice bound


def directional_z2_distance(domain: ModelDomain, z: PointC2) -> float:
    """Distance from z to the boundary inside its own z2 slice.

    The slice {w : (z1, w) in D} is the intersection of the disc of
    radius slice_radius(Re z1) with the affine faces' traces; the
    returned minimum is exact when the binding face's nearest point is
    feasible for the others (always true for the stock models, whose
    affine faces do not involve z2), and a certified lower bound in
    general -- the safe direction for every use here.
    """
    if not domain.contains(z):
        raise CertificateError(f"{z} is not an interior point of {domain.name}")
    rad = domain.slice_radius(z[0].real)
    best = rad - abs(z[1])
    for f in domain.affine:
        if abs(f.b) > 0.0:
            best = min(best, f.margin(z) / abs(f.b))
    if best <= 0.0:
        raise CertificateError("point is not interior to its z2 slice")
    return best


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

    where d' is the distance to the boundary within the z2 slice.  The
    slice discs of radius r around p_tilde2 and s_tilde2 must both lie
    in the slice; their convex hull then lies in the (convex) slice, so
    inclusion into the domain is distance-decreasing.  The first leg is
    the Poincare distance inside the p_tilde2 disc, coarsened through
    d_disc = r - |p2 - p_tilde2|; the second is a hop chain of discs of
    radius r/2 along the segment between the two centers.
    """
    rad = domain.slice_radius(p[0].real)
    for center in (p_tilde2, s_tilde2):
        if abs(center) + r > rad + 1e-12:
            raise CertificateError("slice disc leaves the profile slice")
        for f in domain.affine:
            worst = (f.a * p[0] + f.b * center).real + r * abs(f.b)
            if worst >= f.c - 1e-12:
                raise CertificateError(f"slice disc violates affine face {f}")
    if not domain.contains(p):
        raise CertificateError("base point of the two-disc bound is not interior")
    e = abs(p[1] - p_tilde2)
    if e >= r:
        raise CertificateError("point is not inside its slice disc")
    d_disc = r - e
    d_prime = directional_z2_distance(domain, p)
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


def lb_boundary_ratio(bz: DistBound, bw: DistBound) -> float:
    """k(z, w) >= (1/2) log(d(w)/d(z)) on a convex domain, from certified
    brackets bz, bw of the two boundary distances (in either order)."""
    ratio = max(bw.lo / bz.hi, bz.lo / bw.hi)
    if ratio <= 1.0:
        return 0.0
    return 0.5 * math.log(ratio)


# ---------------------------------------------------------------------------
# interior tangent-ball upper bound

# additive slack absorbing the float-shadow drift of log-domain chains
# (disc centers are computed in floats while the certified quantities are
# carried as logs; the drift is ~1e-300 absolute, far below this)
_LOG_PATH_SLACK = 1e-9


def ub_interior_ball(
    domain: ModelDomain,
    z: PointC2,
    log_g_lo: float | None = None,
    log_g_hi: float | None = None,
) -> float:
    """Upper bound via the interior ball tangent to the profile face.

    At contact radius t1 = |z2| the ball of radius R = ball_radius whose
    center sits at distance R along the inward normal is contained in
    the domain: writing points in the (Re z1, |z2|) half-plane (the
    reduction |z2 - c2| >= ||z2| - |c2|| handles phases, Im z1 only
    enlarges distances), the lower arc of the ball is a convex graph
    with second derivative >= 1/R, tangent to psi at t1, and
    1/R >= ball_curvature_sup >= sup psi'' on the arc's span -- so the
    arc stays above the profile.  Affine faces and the radial cap are
    checked directly on the ball.

    The point itself sits inside the ball whenever its height above the
    contact g = Re z1 - psi(t1) satisfies g < 2 R cos(phi); the hop to
    the center costs atanh(|z - c|/R), bounded through

        1 - m^2 = (g/R) (2 cos(phi) - g/R) - (Im z1 / R)^2,

    evaluated in the log domain when (log_g_lo, log_g_hi) is passed (the
    deep-parameter path; Im z1 must then be 0).  From the center a fixed
    three-leg disc chain reaches the base point.  The return value
    includes _LOG_PATH_SLACK.
    """
    R = domain.ball_radius
    if R <= 0.0:
        raise CertificateError(f"{domain.name} has no certified interior-ball radius")
    if R * domain.ball_curvature_sup > 1.0:
        raise CertificateError("ball radius exceeds the curvature budget")
    t1 = abs(z[1])
    if t1 > domain.ball_contact_cap:
        raise CertificateError("contact radius beyond the certified cap")
    dpsi = domain.profile.deriv(t1)
    hyp = math.hypot(1.0, dpsi)
    cos_phi = 1.0 / hyp
    sin_phi = dpsi / hyp
    im1 = z[0].imag

    if log_g_lo is None or log_g_hi is None:
        g = z[0].real - domain.profile.value(t1)
        if g <= 0.0:
            raise CertificateError("point is not above the contact height")
        log_g_lo = math.log(g) + math.log1p(-1e-9)
        log_g_hi = math.log(g) + math.log1p(1e-9)
    elif im1 != 0.0:
        raise CertificateError("log-domain ball hop needs a real z1")
    if log_g_hi < log_g_lo:
        raise CertificateError("inverted height bracket")

    # ball containment: cap and affine faces at the float-shadow center
    c1 = domain.psi_float_ub(t1) + R * cos_phi
    c2_mag = t1 - R * sin_phi
    if c2_mag < 0.0:
        # the phase reduction recenters at |c2|, which only matches the
        # tangency construction when the radial coordinate keeps its sign
        raise CertificateError("ball center crossed the z2 axis")
    phase = z[1] / t1 if t1 > 0.0 else 1.0 + 0.0j
    c2 = c2_mag * phase
    if c2_mag + R > domain.z2_cap:
        raise CertificateError("interior ball pokes through the radial cap")
    for f in domain.affine:
        worst = (f.a * c1 + f.b * c2).real + R * f.norm
        if worst >= f.c - 1e-9:
            raise CertificateError(f"interior ball violates affine face {f}")

    # hop from z into the ball center
    g_hi_float = math.exp(log_g_hi) if log_g_hi > -700.0 else 0.0
    second = 2.0 * cos_phi - (g_hi_float + 1e-290) / R
    if log_g_hi >= math.log(2.0 * R * cos_phi):
        raise CertificateError("point is outside the tangent ball")
    if second <= 0.0:
        raise CertificateError("tangent-ball hop lost its positivity margin")
    log_one_minus_m2 = log_g_lo - math.log(R) + math.log(second)
    if im1 != 0.0:
        a_lo = math.exp(log_one_minus_m2) - (im1 / R) ** 2
        if a_lo <= 0.0:
            raise CertificateError("point is outside the tangent ball")
        log_one_minus_m2 = math.log(a_lo)
    hop = math.log(2.0) - 0.5 * log_one_minus_m2

    # fixed three-leg chain: center -> its z1 tangent disc center,
    # slide z2 to 0 in the slice, then z1 disc at z2 = 0 to the base
    if abs(domain.base_point[1]) != 0.0:
        raise CertificateError("interior-ball chain needs a base point on the z2 axis")
    disc_a = domain.z1_disc(c2)
    lam_a = (c1 - disc_a.origin[0]) / disc_a.direction[0]
    leg_a = ub_disc_leg(domain, disc_a, lam_a, 0.0, rim_shrink=1e-14)
    level = disc_a.origin[0]
    disc_b = domain.slice_disc(level)
    leg_b = ub_disc_leg(
        domain, disc_b, c2 / disc_b.direction[1], 0.0, rim_shrink=1e-14
    )
    disc_c = domain.z1_disc(0.0 + 0.0j)
    lam_from = (level - disc_c.origin[0]) / disc_c.direction[0]
    lam_to = (domain.base_point[0] - disc_c.origin[0]) / disc_c.direction[0]
    leg_c = ub_disc_leg(domain, disc_c, lam_from, lam_to, rim_shrink=1e-14)
    return hop + leg_a + leg_b + leg_c + _LOG_PATH_SLACK
