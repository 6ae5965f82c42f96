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
expression whose interval evaluation must dominate s_lb.  WitnessReport
refuses any report whose s_lb lies above it, with no slack.

Near-boundary gaps are carried as logs: the flat witness's disc legs
and the hinge's (p, q) and (x, w) legs and the first leg of its chain
are closed forms in log heights, so one path serves every parameter, and
the float coordinates stored in a report are shadows once the heights
underflow.  Terms, defect intervals and s_lb round outward through
:mod:`.rounding`, but for the flat 1/x-scale sums and ROADMAP item 3's list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .convex import (BASE_POINT, DISC_RADIUS, CertificateError, ModelDomain, PointC2,
                     TangentHalfspaceCert, lb_boundary_ratio_log, lb_crossing_split,
                     ub_base_chain, ub_base_leg, ub_interior_ball, ub_slice_discs)
from .exact import (DistBound, _atanh_stable, atanh_one_minus, gn_pair_bounds,
                    polydisc_axis_distance_array, tetra_automorphism, tetra_origin_distance)
from .models import FLAT_EXP_MODEL, FLAT_QUARTIC_MODEL, HINGE_MODEL
from .rounding import (LIBM_FLOATS, MATH, atanh_down, atanh_up, down, log1p_down, log1p_up,
                       log_down, log_up, sqrt_down, sum_down, sum_up, up)

# the flat witness's offset fraction per unit radius: alpha = (log 2 / 2) x
_ALPHA_PER_X = 0.5 * math.log(2.0)

_PAIR_KEYS = ("pq", "px", "qx", "pw", "qw", "xw")


@dataclass(frozen=True)
class WitnessReport:
    """One certified four-point configuration of a witness family.

    ``checks`` names the checks its constructor ran; a report with a
    failed check is refused with CertificateError, and so is one whose
    s_lb lies above the lower end of defect_interval(bounds), its own
    enclosure of the defect.  Every report that exists passed them all,
    and its s_lb is a lower bound whenever its six bounds enclose.
    """

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
        failed = [name for name, ok in self.checks if not ok]
        if failed:
            raise CertificateError("checks failed: " + "; ".join(failed))
        lo = defect_interval(self.bounds).lo
        if self.s_lb > lo:
            raise CertificateError(
                f"S_lb {self.s_lb!r} lies above {lo!r}, the lower end of its defect interval")


def defect_interval(bounds: dict[str, DistBound]) -> DistBound:
    """Enclosure of the four-point defect from the six pair enclosures.

    Each branch of min{(p,x)_w, (x,q)_w} - (p,q)_w shares one distance
    with the subtracted product; cancelling it before interval
    evaluation keeps the enclosure from paying that distance's width
    twice:

        branch_px = d(x,w) - d(p,x) - d(q,w) + d(p,q)
        branch_qx = d(x,w) - d(q,x) - d(p,w) + d(p,q)

    Each branch is summed outward, so exact ends give exact sums.
    """
    b = bounds
    lo = min(
        sum_down(b["xw"].lo, -b["px"].hi, -b["qw"].hi, b["pq"].lo),
        sum_down(b["xw"].lo, -b["qx"].hi, -b["pw"].hi, b["pq"].lo),
    )
    hi = min(
        sum_up(b["xw"].hi, -b["px"].lo, -b["qw"].lo, b["pq"].hi),
        sum_up(b["xw"].hi, -b["qx"].lo, -b["pw"].lo, b["pq"].hi),
    )
    return DistBound(lo=lo, hi=hi)


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

    # the six pairs in _PAIR_KEYS order, through the polydisc_axis kernel
    d = dict(zip(_PAIR_KEYS, polydisc_axis_distance_array(
        [p, p, q, p, q, x], [q, x, x, w, w, w]).tolist()))
    bounds = {k: DistBound(v, v) for k, v in d.items()}
    interval = defect_interval(bounds)
    midpoint_dev = max(abs(d["pw"] / d["pq"] - 0.5), abs(d["qw"] / d["pq"] - 0.5))
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

    The points are the images of the bidisc points (a, a) and (a, -a),
    the midpoint-like (a, 0) and the origin; ``quadruple`` holds these
    lifts, and one stacked call bounds all six pairs from them.  s_lb is
    the certified lower bound for the defect: the midpoint leg through
    the rational one-parameter family of holomorphic maps to the disc,
    plus the exact shift 2 atanh(a^2) - 2 atanh(a) (which tends to
    -log 2), so that s_lb ~ (1/2) log(1/(1-a)) - log 2.  It sits about
    (1/2) log 2 below the lower end of the defect interval (the term
    honest_lo), which the report requires it not to exceed.

    Every map Phi_lam sends p to modulus a and q to modulus a^2, so the
    legs to the origin are atanh(a) and atanh(a^2) exactly; the report
    checks that (p, w) and (q, w) enclose them, each rounded outward.
    """
    if not 0.0 < a < 1.0:
        raise CertificateError("parameter must be in (0, 1)")
    p = (complex(a), complex(a))
    q = (complex(a), complex(-a))
    x = (complex(a), 0.0j)
    w = (0.0j, 0.0j)

    pairs = {
        "pq": (p, q),
        "px": (p, x),
        "qx": (q, x),
        "pw": (p, w),
        "qw": (q, w),
        "xw": (x, w),
    }
    us, vs = zip(*pairs.values())
    bounds = dict(zip(pairs, gn_pair_bounds(us, vs)))
    interval = defect_interval(bounds)

    # 2 atanh(t) = log1p(2t/(1 - t)), with 1 - a^2 kept as (1 - a)(1 + a):
    # the ends of 2 atanh(a^2), 2 d(q, w); where a^2 underflows the lower
    # end dips below 0, the floor gn_pair_bounds gives every lower end
    sq_lo = log1p_down(down(2.0 * down(a * a) / up(sum_up(1.0, -a) * sum_up(1.0, a))))
    sq_hi = log1p_up(up(2.0 * up(a * a) / down(sum_down(1.0, -a) * sum_down(1.0, a))))
    pw, qw = bounds["pw"], bounds["qw"]
    legs_enclosed = (pw.lo <= atanh_down(a) and atanh_up(a) <= pw.hi
                     and 2.0 * qw.lo <= max(sq_lo, 0.0) and sq_hi <= 2.0 * qw.hi)

    lb_mid = bounds["xw"].lo
    shift = sum_down(sq_lo, -log1p_up(up(2.0 * a / sum_down(1.0, -a))))
    s_lb = sum_down(lb_mid, shift)
    checks = (("exact legs enclosed", legs_enclosed),)
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
    exactly atanh(a).  Each leg's enclosure is atanh(a), or twice it, rounded
    outward, so s_lb, their sum rounded down, stays at or below atanh(a).
    """
    if not 0.0 < a < 1.0:
        raise CertificateError("parameter must be in (0, 1)")
    P = (complex(a), complex(a), complex(a * a))
    Q = (complex(a), complex(-a), complex(-a * a))
    R = (complex(a), 0.0 + 0.0j, 0.0 + 0.0j)
    O = (0.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j)

    royal = math.atanh(a)
    # long leg with 1 - m^2 formed from (1 - a)(1 + a), which does not
    # cancel, so the doubling identity survives to full precision as a -> 1
    m = 2.0 * a / (1.0 + a * a)
    one_minus_m2 = ((1.0 - a) * (1.0 + a) / (1.0 + a * a)) ** 2
    pq = _atanh_stable(MATH, m, one_minus_m2)

    royal_bound = DistBound(atanh_down(a), atanh_up(a))
    bounds = {"pq": DistBound(2.0 * royal_bound.lo, 2.0 * royal_bound.hi),
              **{k: royal_bound for k in _PAIR_KEYS[1:]}}
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
        ("defect equals atanh(a)",
         max(abs(interval.lo - royal), abs(interval.hi - royal)) <= 1e-12 * (1.0 + royal)),
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
    coupled pair of tangent functionals at radius 1 + sqrt(delta) and
    capped along the slice disc z1 = delta; the near pair (p, x) is
    capped by the two-disc slice bound; (x, w) grows like
    (1/2) log(1/delta) while the chain q -> w costs only
    (1/2) log(1/delta) + O(1).  The legs at the rim read log delta.
    s_lb is the lower end of the defect interval, which both branches
    give as lb_ratio - ub_pair - ub_chain + lb_split.

    x, p and q read their boundary distance as their height delta over
    the flat face, exactly: psi = 0 there, so the point straight below
    is on the boundary.  w is 1 above it: d(w) >= 1 given psi(1) = 0, the one check.

    The rotation z2 -> -z2 is an automorphism of the domain that maps p
    to q and fixes x and w, so each mirror pair of legs is priced once:
    (q, x) reads the slice bound at p, p -> w the chain from q, and the
    twin functional starts at q where cert starts at p.
    """
    if not 0.0 < delta < 0.04:
        raise CertificateError("height must be in (0, 0.04)")
    domain = HINGE_MODEL
    u = math.sqrt(delta)
    t0 = 1.0 + u

    p: PointC2 = (complex(delta), complex(1.0 - delta))
    q: PointC2 = (complex(delta), complex(-(1.0 - delta)))
    x: PointC2 = (complex(delta), 0.0 + 0.0j)
    w: PointC2 = BASE_POINT

    # -- long pair: coupled tangent functionals at the rim ------------------
    cert = TangentHalfspaceCert(domain, t0, 0.0)
    log_re_p = log_up(cert.re_f_float(p))
    log_tau = min(sum_down(log_down(2.0), 0.5 * log_down(delta)), cert.log_tau_cert)
    lb_split = lb_crossing_split(cert, log_re_p, log_tau=log_tau)

    # -- near pair: two-disc slice bound -------------------------------------
    r = 0.25
    ub_pair = ub_slice_discs(domain, p, complex(0.75 + u), 0.0 + 0.0j, r)

    # -- boundary-distance ratios --------------------------------------------
    # x, p and q sit delta above the flat face, so d <= delta there; the open
    # unit ball about w = (1, 0) lies in the domain once psi(1) = 0 (psi is
    # nondecreasing; the box and the cap are farther off), so d(w) >= 1
    lb_ratio = lb_boundary_ratio_log(log_up(delta), log_down(1.0))

    # -- three-leg chain q -> w ------------------------------------------------
    # q's z1 disc reaches down to center - R, which is 0 on the flat face, so
    # q's height over it is delta exactly: the leg to the center reads log delta
    R = DISC_RADIUS
    center = domain.z1_disc(q[1])
    leg_a = atanh_one_minus(sum_down(log_down(delta - (center - R)), -log_up(R)))
    leg_b, leg_c = ub_base_chain(domain, (center, q[1]))
    ub_chain = sum_up(leg_a, leg_b, leg_c)

    # -- remaining pair enclosures -------------------------------------------
    # the slice z1 = delta is the disc |z2| < 1 + u, u = sqrt(delta), where the
    # stored p, q sit at -+(1 - e), e = (u + 1 - fl(1 - delta))/(1 + u) rising with u
    u_lo = sqrt_down(delta)
    e_lo = down(sum_down(u_lo, 1.0 - abs(p[1])) / sum_up(1.0, u_lo))
    hi_pq = 2.0 * atanh_one_minus(log_down(e_lo))

    bounds = {
        "pq": DistBound(lb_split, hi_pq),
        "px": DistBound(0.0, ub_pair),
        "qx": DistBound(0.0, ub_pair),
        "pw": DistBound(lb_ratio, ub_chain),
        "qw": DistBound(lb_ratio, ub_chain),
        "xw": DistBound(lb_ratio, ub_base_leg(log_down(delta))),
    }
    checks = (("unit ball about w clears the flat face", domain.psi_up(1.0) == 0.0),)
    return WitnessReport(
        family="hinge",
        param=delta,
        quadruple=(p, q, x, w),
        bounds=bounds,
        s_lb=defect_interval(bounds).lo,
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


def flat_witness(domain: ModelDomain, x: float) -> WitnessReport:
    """Certified defect growth at an infinitely flat boundary point.

    The quadruple sits at height psi(x) over the flat point: p and q at
    z2 = -+(1-alpha) x with alpha = (log 2 / 2) x, x_role the base point,
    w = (psi(x), 0).  The crossing split refuses where alpha reaches the
    coupling level tau, and log g, g = psi(x) - psi((1-alpha) x), raises
    where g rounds to 0.  Tangent
    functionals at radius x, normalized by x psi'(x), give the crossing
    split for (p, q) and the half-plane ratio for the short legs; the
    interior tangent ball caps the (p, base) legs; the slice disc of
    radius exactly x caps the short legs and the z1 disc at z2 = 0 the
    (base, w) leg from above.

        s_lb = lb_ratio + lb_half - ub_ball + lb_cross - 2 ub_slice

    grows like (1/2) log(1/x) when the profile is flatter than every
    polynomial (the t^4 control stays bounded: its terms cancel to a
    constant).  The certificates read log psi(x) and log alpha at every
    x, so the stored float coordinates are shadows once psi(x) underflows.

    The rotation z2 -> -z2 maps p to q and fixes the other two points, so
    q's legs share p's enclosures, and the twin functional starts at p
    where cert starts at q.
    """
    if not 0.0 < x <= 0.1:
        raise CertificateError("flat witness is calibrated for x in (0, 0.1]")
    profile = domain.profile
    log_psi = profile.log_value(x)
    if log_psi == -math.inf:
        raise CertificateError(f"the flat witness needs psi(x) > 0, and psi({x}) = 0")

    alpha = _ALPHA_PER_X * x
    t1 = (1.0 - alpha) * x
    log_alpha = log_up(alpha)
    px1 = profile.value(x)

    p: PointC2 = (complex(px1), complex(-t1))
    q: PointC2 = (complex(px1), complex(t1))
    xb: PointC2 = BASE_POINT
    w: PointC2 = (complex(px1), 0.0 + 0.0j)

    norm_log = math.log(x) + profile.log_deriv(x)
    cert = TangentHalfspaceCert(domain, x, 0.0, norm_log)

    # normalized functional values of cert (f_+) and its twin at theta = pi
    # (f_-), real since every coordinate is:
    #   f_-(w) = 1,  f_-(p) = alpha,  f_+(q) = alpha
    lb_half = -0.5 * log_alpha  # the half-plane ratio of f_-(p) against f_-(w)
    lb_cross = lb_crossing_split(cert, log_alpha)

    # boundary ratio for (base, w): d(w) = psi(x) exactly (the nearest
    # boundary point is the flat point itself: for t in (0, cap],
    # t^2 >= psi(t) (2 psi(x) - psi(t)) because psi(t) <= psi(x) << t
    # on these profiles), d(base) from the branch-and-bound bracket
    (b_base,), base_cut_short = domain.boundary_distance_brackets([xb])
    log_base = log_down(b_base.lo)
    lb_ratio = lb_boundary_ratio_log(log_psi, log_base)

    # interior-ball cap for (p, base) and (q, base): height above the
    # contact in logs, g = psi(x) - psi(t1)
    rr = math.exp(profile.log_value(t1) - log_psi)
    log_g = log_psi + math.log1p(-rr)
    ub_ball = ub_interior_ball(domain, p, log_g)

    # caps in logs: the slice disc of radius x at height psi(x) (analytic
    # tangency) from w to q at parameter 1 - alpha (p, at -(1 - alpha), is
    # twice as far from q), and ub_base_leg from w, whose log psi(x) is one
    # division or libm log away from log_value; the float disc distance
    # atanh(1 - alpha) re-checks the slice leg s_lb reads twice
    ub_slice = atanh_one_minus(log_down(alpha))
    slice_float = _atanh_stable(MATH, 1.0 - alpha, alpha * (2.0 - alpha))

    # lb_ratio and ub_ball grow like 1/(2x) and cancel; their sum with lb_half
    # keeps the nearest rounding perfbench's reference records (2.4e-7 a step)
    s_lb = sum_down(lb_ratio + lb_half - ub_ball, lb_cross, -2.0 * ub_slice)

    lb_base = lb_boundary_ratio_log(log_g + math.log1p(1e-9), log_base)
    bounds = {
        "pq": DistBound(lb_cross, 2.0 * ub_slice),
        "px": DistBound(lb_base, ub_ball),
        "qx": DistBound(lb_base, ub_ball),
        "pw": DistBound(lb_half, ub_slice),
        "qw": DistBound(lb_half, ub_slice),
        "xw": DistBound(lb_ratio, ub_base_leg(down(log_psi, LIBM_FLOATS))),
    }

    checks = (
        ("base-point bracket converged", not base_cut_short[0]),
        ("float/log agreement (slice leg)", abs(ub_slice - slice_float) <= 1e-8 * (1.0 + ub_slice)),
    )
    return WitnessReport(
        family=domain.name,
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
