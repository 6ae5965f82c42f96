"""Certified witness families for four-point defect growth.

Each family produces a WitnessReport around a quadruple (p, q, x, w):
two-sided enclosures of the six pairwise distances, a certified lower
bound s_lb for the additively-normalized four-point defect

    min{ (p,x)_w, (x,q)_w } - (p,q)_w,      (a,b)_c = d(a,c) + d(c,b) - d(a,b),

and the named terms that assemble s_lb (these become CSV columns in the
sweep harness).  A family whose s_lb grows without bound certifies that
no Gromov hyperbolicity constant can work for the space.

The six enclosures double as an internal consistency device: expanding
either branch of the defect cancels one distance, leaving a four-term
expression whose interval evaluation must dominate s_lb.  Every witness
records that comparison in its checks.

Two regimes per parameter are deliberate.  Moderate parameters run in
plain float geometry; deep parameters (boundary gaps far below float
resolution) switch to analytic log-domain certificates, and the float
coordinates stored in the report become shadows of the true witness
points.  The overlap region is cross-validated in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .convex import (
    CertificateError,
    ModelDomain,
    PointC2,
    TangentHalfspaceCert,
    lb_boundary_ratio_log,
    lb_crossing_split,
    lb_halfplane_ratio_log,
    ub_disc_leg,
    ub_interior_ball,
    ub_slice_discs,
)
from .exact import (
    DistBound,
    _atanh_stable,
    atanh_one_minus,
    gn_lower_bound,
    gn_membership,
    gn_pair_bounds,
    sym_poly_map,
    tetra_automorphism,
    tetra_origin_distance,
)
from .models import FLAT_EXP_MODEL, FLAT_QUARTIC_MODEL, HINGE_MODEL
from .profiles import ProfileFn

# deep-parameter switch: below this the profile heights underflow the
# useful float range and every certificate runs through logs
LOG_PATH_THRESHOLD = 0.02

# halvings alpha_schedule tries before it refuses
_MAX_HALVINGS = 10

_PAIR_KEYS = ("pq", "px", "qx", "pw", "qw", "xw")


@dataclass(frozen=True)
class WitnessReport:
    """One certified four-point configuration of a witness family."""

    family: str
    param: float
    quadruple: tuple
    bounds: dict[str, DistBound]
    s_lb: float
    terms: tuple[tuple[str, float], ...]
    checks: tuple[tuple[str, bool], ...] = ()

    def __post_init__(self):
        missing = [k for k in _PAIR_KEYS if k not in self.bounds]
        if missing:
            raise ValueError(f"witness report is missing pair bounds: {missing}")

    @property
    def checks_passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def defect_interval(self) -> DistBound:
        return defect_interval(self.bounds)


def defect_interval(bounds: dict[str, DistBound]) -> DistBound:
    """Enclosure of the four-point defect from the six pair enclosures.

    Each branch of min{(p,x)_w, (x,q)_w} - (p,q)_w shares one distance
    with the subtracted product; cancelling it before interval
    evaluation keeps the enclosure from paying that distance's width
    twice:

        branch_px = d(x,w) - d(p,x) - d(q,w) + d(p,q)
        branch_qx = d(x,w) - d(q,x) - d(p,w) + d(p,q)
    """
    b = bounds
    lo = min(
        b["xw"].lo - b["px"].hi - b["qw"].hi + b["pq"].lo,
        b["xw"].lo - b["qx"].hi - b["pw"].hi + b["pq"].lo,
    )
    hi = min(
        b["xw"].hi - b["px"].lo - b["qw"].lo + b["pq"].hi,
        b["xw"].hi - b["qx"].lo - b["pw"].lo + b["pq"].hi,
    )
    return DistBound(lo=lo, hi=hi, lo_tag="branch cancellation", hi_tag="branch cancellation")


# ---------------------------------------------------------------------------
# product family: the bidisc in geodesic parameters


def product_witness(s: float) -> WitnessReport:
    """Defect exactly s on the bidisc, written in geodesic parameters.

    Points are pairs of real parameters along the coordinate real
    diameters (the actual bidisc point is (tanh t1, tanh t2)), where the
    max-metric is exact:  p = (0,0), q = (2s,0), x = (s,2s), w = (s,0).
    All six distances are exact maxima of parameter differences, and the
    branch cancellation never forms 3s, so the defect is exactly s in
    floats for every representable s.
    """
    if not 0.0 < s <= 300.0:
        raise CertificateError(
            "scale must be in (0, 300]: beyond that even the parameter "
            "representation of derived quantities can overflow downstream "
            "consumers, and tanh(s) is long since exactly 1.0"
        )
    p, q, x, w = (0.0, 0.0), (2.0 * s, 0.0), (s, 2.0 * s), (s, 0.0)

    def d(u: tuple[float, float], v: tuple[float, float]) -> float:
        return max(abs(u[0] - v[0]), abs(u[1] - v[1]))

    bounds = {
        "pq": DistBound.exact(d(p, q), "max metric"),
        "px": DistBound.exact(d(p, x), "max metric"),
        "qx": DistBound.exact(d(q, x), "max metric"),
        "pw": DistBound.exact(d(p, w), "max metric"),
        "qw": DistBound.exact(d(q, w), "max metric"),
        "xw": DistBound.exact(d(x, w), "max metric"),
    }
    interval = defect_interval(bounds)
    midpoint_dev = max(abs(d(p, w) / d(p, q) - 0.5), abs(d(q, w) / d(p, q) - 0.5))
    checks = (
        ("defect equals the scale exactly", interval.lo == s and interval.hi == s),
        ("w is a weak midpoint of (p, q)", midpoint_dev <= 0.5 / (2.0 * s)),
    )
    return WitnessReport(
        family="product",
        param=s,
        quadruple=(p, q, x, w),
        bounds=bounds,
        s_lb=interval.lo,
        terms=(("defect_exact", interval.lo), ("midpoint_dev", midpoint_dev)),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# symmetrized-polydisc family


def gn_witness(a: float) -> WitnessReport:
    """Royal-variety quadruple on the symmetrized bidisc.

    Roots (a, a) against (a, -a) with midpoint-like (a, 0) and the
    origin.  s_lb is the certified lower bound for the defect: the
    midpoint leg through the rational one-parameter family of
    holomorphic maps to the disc, plus the exact shift
    2 atanh(a^2) - 2 atanh(a) (which tends to -log 2), so that
    s_lb ~ (1/2) log(1/(1-a)) - log 2.
    """
    if not 0.0 < a < 1.0:
        raise CertificateError("parameter must be in (0, 1)")
    p = sym_poly_map([a, a])
    q = sym_poly_map([a, -a])
    x = sym_poly_map([a, 0.0])
    w = (0.0 + 0.0j, 0.0 + 0.0j)

    pairs = {
        "pq": (p, q),
        "px": (p, x),
        "qx": (q, x),
        "pw": (p, w),
        "qw": (q, w),
        "xw": (x, w),
    }
    bounds = {k: gn_pair_bounds(u, v) for k, (u, v) in pairs.items()}
    interval = defect_interval(bounds)

    lb_mid = gn_lower_bound(x, w)
    shift = 2.0 * math.atanh(a**2) - 2.0 * math.atanh(a)
    s_lb = lb_mid + shift
    checks = (
        ("formula below branch interval", s_lb <= interval.lo + 1e-9),
        ("all four points interior", all(gn_membership(pt) for pt in (p, q, x, w))),
    )
    return WitnessReport(
        family="gn",
        param=a,
        quadruple=(p, q, x, w),
        bounds=bounds,
        s_lb=s_lb,
        terms=(("lb_mid", lb_mid), ("shift", shift), ("honest_lo", interval.lo)),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# tetrablock family


def tetra_witness(a: float) -> WitnessReport:
    """Royal-geodesic quadruple on the tetrablock, all six legs exact.

    P = (a, a, a^2) and Q = (a, -a, -a^2) sit on royal geodesics through
    the midpoint R = (a, 0, 0); the automorphism aligned at P carries
    the quadruple to slot-coordinate form, where five legs are atanh(a)
    and the long leg is atanh(2a/(1+a^2)) = 2 atanh(a).  The defect is
    exactly atanh(a).
    """
    if not 0.0 < a < 1.0:
        raise CertificateError("parameter must be in (0, 1)")
    P = (complex(a), complex(a), complex(a * a))
    Q = (complex(a), complex(-a), complex(-a * a))
    R = (complex(a), 0.0 + 0.0j, 0.0 + 0.0j)
    O = (0.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j)

    royal = math.atanh(a)
    # long leg with an exact 1 - m^2, so the doubling identity survives
    # to full precision even for a -> 1
    m = 2.0 * a / (1.0 + a * a)
    one_minus_m2 = ((1.0 - a * a) / (1.0 + a * a)) ** 2
    pq = _atanh_stable(m, one_minus_m2)

    bounds = {
        "pq": DistBound.exact(pq, "aligned slot pair"),
        "px": DistBound.exact(royal, "royal geodesic leg"),
        "qx": DistBound.exact(royal, "royal geodesic leg"),
        "pw": DistBound.exact(royal, "royal geodesic leg"),
        "qw": DistBound.exact(royal, "royal geodesic leg"),
        "xw": DistBound.exact(royal, "royal geodesic leg"),
    }
    interval = defect_interval(bounds)

    shifted = tetra_automorphism(a, P)
    align_err = max(abs(v) for v in shifted)
    origin_pq = tetra_origin_distance(tetra_automorphism(a, Q))
    # the automorphism's rational push-down cancels -2a + 2a^3 at this
    # symmetric pair and atanh then amplifies by 1/(1 - m^2); the
    # independent-path agreement can only be asked to that conditioning
    agree_tol = 1e-12 + 8.0 * 2.3e-16 / ((1.0 - a * a) * one_minus_m2)
    checks = (
        ("automorphism sends P to the origin", align_err <= 1e-12 * (1.0 + a)),
        ("doubling identity", abs(2.0 * royal - pq) <= 1e-12),
        ("origin-formula agreement on the long leg", abs(origin_pq - pq) <= agree_tol),
        ("midpoint splits the long leg", abs(bounds["px"].lo + bounds["qx"].lo - pq) <= 1e-12),
        ("defect equals atanh(a)", abs(interval.lo - royal) <= 1e-12 * (1.0 + royal)),
    )
    return WitnessReport(
        family="tetra",
        param=a,
        quadruple=(P, Q, R, O),
        bounds=bounds,
        s_lb=interval.lo,
        terms=(("royal", royal), ("pq", pq)),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# hinge family: quadruple against the rim of the flat face


def hinge_witness(delta: float) -> WitnessReport:
    """Certified defect growth ~ (1/4) log(1/delta) on the hinge domain.

    The quadruple hangs at height delta over the flat face: p and q at
    |z2| = 1 - delta on opposite sides, x directly over the center, and
    the base point w = (1, 0).  The long pair (p, q) is split by a
    coupled pair of tangent functionals at radius 1 + sqrt(delta); the
    near pairs (p, x), (q, x) are capped by the two-disc slice bound;
    (x, w) grows like (1/2) log(1/delta) while the chains p -> w, q -> w
    cost only (1/2) log(1/delta) + O(1).
    """
    if not 0.0 < delta < 0.04:
        raise CertificateError("height must be in (0, 0.04)")
    domain = HINGE_MODEL
    profile = domain.profile
    u = math.sqrt(delta)
    t0 = 1.0 + u

    p: PointC2 = (complex(delta), complex(1.0 - delta))
    q: PointC2 = (complex(delta), complex(-(1.0 - delta)))
    x: PointC2 = (complex(delta), 0.0 + 0.0j)
    w: PointC2 = domain.base_point

    # -- long pair: coupled tangent functionals at the rim ------------------
    cert_p = TangentHalfspaceCert(profile, t0, 0.0).verify(domain)
    cert_m = TangentHalfspaceCert(profile, t0, math.pi).verify(domain)
    # F is affine with real coefficients and every coordinate is real,
    # so the starting values are real by construction; record the check
    # against the actual imaginary parts anyway (the rotations at
    # theta = 0, pi are exactly +-1, not cos/sin floats)
    im_p = p[0].imag - profile.deriv(t0) * p[1].imag
    im_q = q[0].imag - profile.deriv(t0) * (-q[1]).imag
    re_p = cert_p.re_f_float(p)
    re_q = cert_m.re_f_float(q)
    cap = cert_p.log_tau_cert(cert_m)
    log_tau = min(math.log(2.0) + 0.5 * math.log(delta), cap)
    lb_split = lb_crossing_split(
        cert_p, cert_m, math.log(re_p), math.log(re_q), log_tau=log_tau, domain=domain
    )

    # -- near pairs: two-disc slice bound ------------------------------------
    r = 0.25
    p_tilde2 = complex(0.75 + u)
    ub_pair = ub_slice_discs(domain, p, p_tilde2, 0.0 + 0.0j, r)
    ub_pair_q = ub_slice_discs(domain, q, -p_tilde2, 0.0 + 0.0j, r)

    # -- boundary-distance ratios --------------------------------------------
    bx = domain.boundary_distance_bracket(x)
    bw = domain.boundary_distance_bracket(w)
    bp = domain.boundary_distance_bracket(p)
    bq = domain.boundary_distance_bracket(q)
    lb_ratio = lb_boundary_ratio_log(math.log(bx.hi), math.log(bw.lo))

    # -- three-leg chain q -> w (p -> w is its mirror) ------------------------
    disc_a = domain.z1_disc(q[1])
    lam_qa = (q[0] - disc_a.origin[0]) / disc_a.direction[0]
    leg_a = ub_disc_leg(domain, disc_a, lam_qa, 0.0, gap_a=float(delta / disc_a.direction[0].real))
    disc_b = domain.slice_disc(disc_a.origin[0], 0.0 + 0.0j, radius=2.0)
    leg_b = ub_disc_leg(domain, disc_b, q[1] / disc_b.direction[1], 0.0)
    disc_c = domain.z1_disc(0.0 + 0.0j)
    lam_cw = (w[0] - disc_c.origin[0]) / disc_c.direction[0]
    lam_cx = (x[0] - disc_c.origin[0]) / disc_c.direction[0]
    leg_c = ub_disc_leg(domain, disc_c, (disc_b.origin[0] - disc_c.origin[0]) / disc_c.direction[0], lam_cw)
    ub_chain = leg_a + leg_b + leg_c

    # -- remaining pair enclosures -------------------------------------------
    disc_pq = domain.slice_disc(p[0])
    rad = disc_pq.direction[1].real
    gap_rim = (u + delta) / rad
    hi_pq = ub_disc_leg(
        domain,
        disc_pq,
        p[1] / rad,
        q[1] / rad,
        gap_a=gap_rim,
        gap_b=gap_rim,
        rim_shrink=1e-13,
    )
    hi_xw = ub_disc_leg(domain, disc_c, lam_cx, lam_cw, gap_a=float(delta / disc_c.direction[0].real))
    lb_pw = lb_boundary_ratio_log(math.log(bp.hi), math.log(bw.lo))
    lb_qw = lb_boundary_ratio_log(math.log(bq.hi), math.log(bw.lo))

    bounds = {
        "pq": DistBound(lb_split, hi_pq, "crossing split", "rim slice disc"),
        "px": DistBound(0.0, ub_pair, "trivial", "two-disc slice bound"),
        "qx": DistBound(0.0, ub_pair_q, "trivial", "two-disc slice bound"),
        "pw": DistBound(lb_pw, ub_chain, "boundary ratio", "three-leg chain"),
        "qw": DistBound(lb_qw, ub_chain, "boundary ratio", "three-leg chain"),
        "xw": DistBound(lb_ratio, hi_xw, "boundary ratio", "tangent disc leg"),
    }
    interval = defect_interval(bounds)
    s_lb = lb_split - ub_pair + lb_ratio - ub_chain

    checks = (
        ("crossing start values are real", im_p == 0.0 and im_q == 0.0),
        ("crossing starts below tau", math.log(max(re_p, re_q)) <= log_tau),
        ("boundary bracket at x is exact height", bx.is_exact() and abs(bx.lo - delta) <= 1e-14 * delta),
        ("boundary bracket at w is exact", bw.is_exact() and abs(bw.lo - 1.0) <= 1e-14),
        (
            "boundary heights of p, q match x",
            abs(bp.lo - bx.lo) <= 1e-14 * delta and abs(bq.lo - bx.lo) <= 1e-14 * delta,
        ),
        ("mirror symmetry of the two-disc bounds", abs(ub_pair - ub_pair_q) <= 1e-12 * (1.0 + ub_pair)),
        ("formula equals branch interval", abs(s_lb - interval.lo) <= 1e-9),
    )
    return WitnessReport(
        family="hinge",
        param=delta,
        quadruple=(p, q, x, w),
        bounds=bounds,
        s_lb=s_lb,
        terms=(
            ("lb_split", lb_split),
            ("ub_pair", ub_pair),
            ("lb_ratio", lb_ratio),
            ("ub_chain", ub_chain),
        ),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# flat-profile family: quadruple at the infinitely flat boundary point


def alpha_schedule(profile: ProfileFn, x: float) -> float:
    """Offset fraction alpha with psi'((1-alpha) x) >= psi'(x)/2.

    Starts at (log 2 / 2) x and halves until the derivative comparison
    holds (checked in the log domain, so deep x is fine).
    """
    if x <= 0.0:
        raise CertificateError("the flat witness needs x > 0")
    alpha = 0.5 * math.log(2.0) * x
    target = profile.log_deriv(x) - math.log(2.0)
    for _ in range(_MAX_HALVINGS):
        if profile.log_deriv((1.0 - alpha) * x) >= target:
            return alpha
        alpha *= 0.5
    raise CertificateError("derivative-halving schedule did not stabilize")


def _ub_real_leg_log(a: float, log_e: float) -> float:
    """Poincare distance from real parameter a to -(1 - e), log-domain e.

    1 - m = e (1 - a) / (1 + a (1 - e)).  The denominator is evaluated at
    whichever end of the tiny e-uncertainty makes it largest (e = 0 for
    a >= 0, an upper bound for e when a < 0), so the computed 1 - m is a
    certified lower bound and the returned atanh a certified upper bound.
    """
    if not -1.0 < a < 1.0:
        raise CertificateError("leg parameter must be interior")
    e_hi = math.exp(log_e) * (1.0 + 1e-12) if log_e > -700.0 else math.exp(-700.0)
    if e_hi >= 1.0:
        raise CertificateError("leg endpoint gap must be below 1")
    denom_arg = a if a >= 0.0 else a * (1.0 - e_hi)
    log_one_minus_m = log_e + math.log1p(-a) - math.log1p(denom_arg)
    return atanh_one_minus(log_one_minus_m)


def flat_witness(domain: ModelDomain, x: float) -> WitnessReport:
    """Certified defect growth at an infinitely flat boundary point.

    The quadruple sits at height psi(x) over the flat point: p and q at
    z2 = -+(1-alpha) x, x_role the base point, w = (psi(x), 0).  Tangent
    functionals at radius x, normalized by x psi'(x), give the crossing
    split for (p, q) and the half-plane ratio for the short legs; the
    interior tangent ball caps the (p, base) legs; slice discs of
    radius exactly x cap the short legs from above.

        s_lb = lb_ratio + lb_half - ub_ball + lb_cross - 2 ub_slice

    grows like (1/2) log(1/x) when the profile is flatter than every
    polynomial (the t^4 control stays bounded: its terms cancel to a
    constant).  Below LOG_PATH_THRESHOLD all certificates run in the
    log domain and the stored float coordinates are shadows.
    """
    if not 0.0 < x <= 0.1:
        raise CertificateError("flat witness is calibrated for x in (0, 0.1]")
    profile = domain.profile
    if profile.name == "hinge":
        raise CertificateError("the flat witness needs a strictly increasing profile")
    sigma = profile.sigma(x)
    if sigma >= 0.5:
        # the coupling level tau = 1 - sigma must clear the functional
        # values ~alpha; sigma < 1/2 keeps it clear with a full margin
        raise CertificateError("profile is not steep enough at this radius")
    deep = x < LOG_PATH_THRESHOLD

    alpha = alpha_schedule(profile, x)
    t1 = (1.0 - alpha) * x
    log_alpha = math.log(alpha)
    log_psi = profile.log_value(x)
    px1 = profile.value(x)

    p: PointC2 = (complex(px1), complex(-t1))
    q: PointC2 = (complex(px1), complex(t1))
    xb: PointC2 = domain.base_point
    w: PointC2 = (complex(px1), 0.0 + 0.0j)

    norm_log = math.log(x) + profile.log_deriv(x)
    cert_p = TangentHalfspaceCert(profile, x, 0.0, norm_log).verify(domain)
    cert_m = TangentHalfspaceCert(profile, x, math.pi, norm_log).verify(domain)

    # normalized functional values, all real by construction:
    #   f_-(w) = 1,  f_-(p) = alpha,  f_+(q) = alpha
    # the crossing split needs the two starting values real: record that
    # against the actual imaginary parts (the rotations at theta = 0, pi
    # are exactly +-1)
    dpsi = profile.deriv(x)
    im_q = q[0].imag - dpsi * q[1].imag
    im_p = p[0].imag - dpsi * (-p[1]).imag
    lb_half = lb_halfplane_ratio_log(cert_m, log_alpha, 0.0)
    lb_cross = lb_crossing_split(cert_p, cert_m, log_alpha, log_alpha, domain=domain)
    log_tau = cert_p.log_tau_cert(cert_m)

    # boundary ratio for (base, w): d(w) = psi(x) exactly (the nearest
    # boundary point is the flat point itself: for t in (0, cap],
    # t^2 >= psi(t) (2 psi(x) - psi(t)) because psi(t) <= psi(x) << t
    # on these profiles), d(base) from the branch-and-bound bracket
    b_base = domain.boundary_distance_bracket(xb)
    lb_ratio = lb_boundary_ratio_log(log_psi, math.log(b_base.lo))

    # interior-ball cap for (p, base) and (q, base): height above the
    # contact in logs, g = psi(x) - psi(t1)
    rr = math.exp(profile.log_value(t1) - log_psi)
    log_g = log_psi + math.log1p(-rr)
    ub_ball = ub_interior_ball(
        domain, p, log_g_lo=log_g + math.log1p(-1e-9), log_g_hi=log_g + math.log1p(1e-9)
    )

    # slice-disc caps at radius exactly x (analytic tangency psi(x) <= psi(x))
    shadow_checks: list[tuple[str, bool]] = []
    if deep:
        ub_slice = atanh_one_minus(log_alpha)
        pq_hi = 2.0 * ub_slice
        disc_c = domain.z1_disc(0.0 + 0.0j)
        lam_base = float(((xb[0] - disc_c.origin[0]) / disc_c.direction[0]).real)
        xw_hi = _ub_real_leg_log(lam_base, log_psi - math.log(disc_c.direction[0].real))
    else:
        sdisc = domain.slice_disc(complex(px1), 0.0 + 0.0j, radius=x)
        ub_slice = ub_disc_leg(
            domain, sdisc, 0.0, t1 / x, gap_b=alpha, rim_shrink=1e-13
        )
        pq_hi = ub_disc_leg(
            domain, sdisc, -t1 / x, t1 / x, gap_a=alpha, gap_b=alpha, rim_shrink=1e-13
        )
        disc_c = domain.z1_disc(0.0 + 0.0j)
        lam_base = float(((xb[0] - disc_c.origin[0]) / disc_c.direction[0]).real)
        lam_w = (w[0] - disc_c.origin[0]) / disc_c.direction[0]
        rad_c = disc_c.direction[0].real
        xw_hi = ub_disc_leg(domain, disc_c, lam_base, lam_w, gap_b=px1 / rad_c)
        # the two evaluation styles must agree where both are defined
        slice_log = atanh_one_minus(log_alpha)
        xw_log = _ub_real_leg_log(lam_base, log_psi - math.log(rad_c))
        shadow_checks.append(
            ("float/log agreement (slice leg)", abs(ub_slice - slice_log) <= 1e-8 * (1.0 + slice_log))
        )
        shadow_checks.append(
            ("float/log agreement (base leg)", abs(xw_hi - xw_log) <= 1e-8 * (1.0 + xw_log))
        )
        re_w_float = cert_m.re_f_float(w)
        re_p_float = cert_m.re_f_float(p)
        shadow_checks.append(
            ("float shadow of f_-(w) = 1", abs(re_w_float - 1.0) <= 1e-8)
        )
        shadow_checks.append(
            ("float shadow of f_-(p) = alpha", abs(re_p_float - alpha) <= 1e-8 * alpha)
        )

    s_lb = lb_ratio + lb_half - ub_ball + lb_cross - 2.0 * ub_slice

    bounds = {
        "pq": DistBound(lb_cross, pq_hi, "crossing split", "slice disc"),
        "px": DistBound(
            lb_boundary_ratio_log(log_g + math.log1p(1e-9), math.log(b_base.lo)),
            ub_ball,
            "boundary ratio",
            "interior tangent ball",
        ),
        "qx": DistBound(
            lb_boundary_ratio_log(log_g + math.log1p(1e-9), math.log(b_base.lo)),
            ub_ball,
            "boundary ratio",
            "interior tangent ball",
        ),
        "pw": DistBound(lb_half, ub_slice, "half-plane ratio", "slice disc"),
        "qw": DistBound(lb_half, ub_slice, "half-plane ratio", "slice disc"),
        "xw": DistBound(lb_ratio, xw_hi, "boundary ratio", "tangent disc leg"),
    }
    interval = defect_interval(bounds)

    checks = tuple(
        [
            ("crossing start values are real", im_p == 0.0 and im_q == 0.0),
            ("crossing starts below tau", log_alpha <= log_tau),
            ("formula below branch interval", s_lb <= interval.lo + 1e-9),
        ]
        + shadow_checks
    )
    return WitnessReport(
        family=f"flat_{profile.name}",
        param=x,
        quadruple=(p, q, xb, w),
        bounds=bounds,
        s_lb=s_lb,
        terms=(
            ("lb_ratio", lb_ratio),
            ("lb_half", lb_half),
            ("ub_ball", ub_ball),
            ("lb_cross", lb_cross),
            ("ub_slice", ub_slice),
        ),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# structural claims behind the flat witness, checked at moderate x


@dataclass(frozen=True)
class ClaimCheck:
    name: str
    passed: bool
    detail: str


def claims_check(domain: ModelDomain, x: float) -> tuple[ClaimCheck, ...]:
    """Verify the four structural claims of the flat-witness construction
    in plain float geometry (needs x at or above LOG_PATH_THRESHOLD).

    1. d(w) = psi(x) for w = (psi(x), 0): the flat point is nearest.
    2. d(s) for the offset point lands in [alpha x psi'(x)/4, alpha x psi'(x)].
    3. k(s, w) + (1/2) log alpha lands in [0, (1/2) log(2 - alpha)].
    4. k(p, s) + log alpha lands in [log tau, log(2 - alpha)].
    """
    if x < LOG_PATH_THRESHOLD:
        raise CertificateError("claims are checked in the float-geometry regime")
    profile = domain.profile
    alpha = alpha_schedule(profile, x)
    t1 = (1.0 - alpha) * x
    px1 = profile.value(x)
    w: PointC2 = (complex(px1), 0.0 + 0.0j)
    s_pt: PointC2 = (complex(px1), complex(t1))
    out: list[ClaimCheck] = []

    bw = domain.boundary_distance_bracket(w)
    ok1 = (
        bw.contains(px1, tol=1e-12 * px1)
        and bw.hi <= px1 * (1.0 + 1e-12)
        and bw.lo >= px1 * (1.0 - 1e-6)
    )
    out.append(
        ClaimCheck(
            "boundary distance at the center equals the height",
            ok1,
            f"bracket [{bw.lo:.6e}, {bw.hi:.6e}] vs psi(x) = {px1:.6e}",
        )
    )

    inc = px1 - profile.value(t1)
    mine_lo = domain.cheap_boundary_lower(s_pt)
    target_hi = alpha * x * profile.deriv(x)
    target_lo = 0.25 * target_hi
    bs = domain.boundary_distance_bracket(s_pt)
    ok2 = (
        target_lo <= mine_lo
        and mine_lo <= inc * (1.0 + 1e-12)
        and inc <= target_hi * (1.0 + 1e-12)
        and bs.lo >= target_lo
        and bs.hi <= target_hi * (1.0 + 1e-9)
    )
    out.append(
        ClaimCheck(
            "offset-point boundary distance lands in the slab",
            ok2,
            f"[{target_lo:.6e}, {target_hi:.6e}] contains bracket "
            f"[{bs.lo:.6e}, {bs.hi:.6e}] and margin pair ({mine_lo:.6e}, {inc:.6e})",
        )
    )

    norm_log = math.log(x) + profile.log_deriv(x)
    cert_p = TangentHalfspaceCert(profile, x, 0.0, norm_log).verify(domain)
    cert_m = TangentHalfspaceCert(profile, x, math.pi, norm_log).verify(domain)
    log_alpha = math.log(alpha)
    lo3 = lb_halfplane_ratio_log(cert_p, log_alpha, 0.0)
    sdisc = domain.slice_disc(complex(px1), 0.0 + 0.0j, radius=x)
    hi3 = ub_disc_leg(domain, sdisc, 0.0, t1 / x, gap_b=alpha, rim_shrink=1e-13)
    half_log_alpha = 0.5 * log_alpha
    ok3 = (
        lo3 + half_log_alpha >= -1e-12
        and hi3 + half_log_alpha <= 0.5 * math.log(2.0 - alpha) + 1e-9
    )
    out.append(
        ClaimCheck(
            "short-leg bracket after the alpha shift",
            ok3,
            f"[{lo3 + half_log_alpha:.3e}, {hi3 + half_log_alpha:.3e}] "
            f"within [0, {0.5 * math.log(2.0 - alpha):.3e}]",
        )
    )

    lo4 = lb_crossing_split(cert_p, cert_m, log_alpha, log_alpha, domain=domain)
    hi4 = ub_disc_leg(
        domain, sdisc, -t1 / x, t1 / x, gap_a=alpha, gap_b=alpha, rim_shrink=1e-13
    )
    log_tau = cert_p.log_tau_cert(cert_m)
    ok4 = (
        lo4 + log_alpha >= log_tau - 1e-12
        and hi4 + log_alpha <= math.log(2.0 - alpha) + 1e-9
    )
    out.append(
        ClaimCheck(
            "long-leg bracket after the alpha shift",
            ok4,
            f"[{lo4 + log_alpha:.3e}, {hi4 + log_alpha:.3e}] "
            f"within [{log_tau:.3e}, {math.log(2.0 - alpha):.3e}]",
        )
    )
    return tuple(out)


# ---------------------------------------------------------------------------
# the family table: what a sweep evaluates, writes and regresses


@dataclass(frozen=True)
class Family:
    """One witness family as a sweep runs it.

    ``witness(param)`` builds the report; ``terms`` are the names of its
    terms, in order, which become the CSV columns (a report whose names
    disagree is a row error, never a silently reshaped file); the summary
    regresses S_lb against ``axis(param)``, the coordinate the family's
    divergence rate is stated in, labelled ``axis_label``.
    """

    witness: Callable[[float], WitnessReport]
    terms: tuple[str, ...]
    axis_label: str
    axis: Callable[[float], float]


# module-level functions, not partials: they look flat_witness up by its
# global name at each call, so a wrapper installed there sees these calls
def _flat_exp(x: float) -> WitnessReport:
    return flat_witness(FLAT_EXP_MODEL, x)


def _flat_quartic(x: float) -> WitnessReport:
    return flat_witness(FLAT_QUARTIC_MODEL, x)


def _log_inverse(p: float) -> float:
    return -math.log(p)


_FLAT_TERMS = ("lb_ratio", "lb_half", "ub_ball", "lb_cross", "ub_slice")

FAMILIES: dict[str, Family] = {
    "tetra": Family(tetra_witness, ("royal", "pq"), "atanh(param)", math.atanh),
    "gn": Family(gn_witness, ("lb_mid", "shift", "honest_lo"), "atanh(param)", math.atanh),
    "product": Family(product_witness, ("defect_exact", "midpoint_dev"), "param", lambda p: p),
    "hinge": Family(hinge_witness, ("lb_split", "ub_pair", "lb_ratio", "ub_chain"),
                    "log(1/param)", _log_inverse),
    "flat_exp": Family(_flat_exp, _FLAT_TERMS, "log(1/param)", _log_inverse),
    "flat_quartic": Family(_flat_quartic, _FLAT_TERMS, "log(1/param)", _log_inverse),
}
