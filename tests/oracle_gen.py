"""Independent high-precision recomputation of the closed-form anchors.

Everything here is derived from the defining formulas with mpmath only,
no imports from the package, so agreement is evidence rather than
tautology.  Run as a script to print the anchor table:

    python3 tests/oracle_gen.py

The references that take ``ctx`` evaluate in ``mp`` (60 digits) by
default, or in ``iv``, mpmath's interval arithmetic, to enclose a
witness's S_lb formula at its exact inputs.
"""

import math
import random

import mpmath as mp

mp.mp.dps = 60
iv = mp.iv
iv.dps = 60


def _atanh(ctx, x):
    return (ctx.log1p(x) - ctx.log1p(-x)) / 2


def _min(ctx, a, b):
    # the interval of min(x, y) over x in a, y in b
    return ctx.mpf([min(a.a, b.a), min(a.b, b.b)]) if ctx is iv else min(a, b)


def disc_distance(u, v):
    u, v = mp.mpc(u), mp.mpc(v)
    return mp.atanh(abs(u - v) / abs(1 - mp.conj(u) * v))


def halfplane_distance(z, w):
    z, w = mp.mpc(z), mp.mpc(w)
    return mp.atanh(abs(z - w) / abs(z + mp.conj(w)))


def strip_distance(z, w, half_width=1):
    L = mp.mpf(half_width)
    f = lambda s: mp.tan(mp.pi * mp.mpc(s) / (4 * L))
    return disc_distance(f(z), f(w))


def bidisc_distance(z, w):
    """Sup of the two coordinate Poincare distances."""
    if any(abs(mp.mpc(c)) >= 1 for c in (*z, *w)):
        raise ValueError("point outside the open bidisc")
    return max(disc_distance(a, b) for a, b in zip(z, w))


def unit_ball_distance(z, w):
    """Kobayashi distance on the unit ball of C^n: atanh |phi_z(w)| for the
    ball automorphism phi_z taking z to 0, where

        1 - |phi_z(w)|^2 = (1 - |z|^2) (1 - |w|^2) / |1 - <w, z>|^2.
    """
    z, w = [mp.mpc(c) for c in z], [mp.mpc(c) for c in w]
    gap_z = 1 - sum(mp.re(c) ** 2 + mp.im(c) ** 2 for c in z)
    gap_w = 1 - sum(mp.re(c) ** 2 + mp.im(c) ** 2 for c in w)
    if gap_z <= 0 or gap_w <= 0:
        raise ValueError("point outside the open ball")
    inner = sum(a * mp.conj(b) for a, b in zip(w, z))
    return mp.atanh(mp.sqrt(1 - gap_z * gap_w / abs(1 - inner) ** 2))


def tetra_origin_distance(x):
    a, b, p = (mp.mpc(v) for v in x)
    cross = abs(a * b - p)
    m = max(
        (abs(a - mp.conj(b) * p) + cross) / (1 - abs(b) ** 2),
        (abs(b - mp.conj(a) * p) + cross) / (1 - abs(a) ** 2),
    )
    return mp.atanh(m)


def tetra_automorphism(t, x):
    """The matrix Mobius shift Z -> (Z - tI)(I - tZ)^{-1} pushed to the
    tetrablock, for real t in (-1, 1).  The push-down is rational in
    (x1, x2, x3), so no lift is needed:
        den = 1 - t(x1 + x2) + t^2 x3."""
    t = mp.mpf(t)
    a, b, p = (mp.mpc(v) for v in x)
    den = 1 - t * (a + b) + t * t * p
    return ((a - t + t * t * b - t * p) / den,
            (b - t + t * t * a - t * p) / den,
            (p - t * (a + b) + t * t) / den)


def tetra_slack(x):
    """1 - |x3|^2 - |x1 - conj(x2) x3| - |x2 - conj(x1) x3|, positive
    exactly on the tetrablock (Abouhajar, White and Young, J. Geom. Anal.
    17, 2007)."""
    a, b, p = (mp.mpc(v) for v in x)
    return 1 - abs(p) ** 2 - abs(a - mp.conj(b) * p) - abs(b - mp.conj(a) * p)


def bidisc_slack(z):
    """tetra_slack at F(z) = (z1, z2, z1 z2) for z in the bidisc, in
    factored form: (1 - |z1|)(1 - |z2|)(1 - |z1| |z2|), so F maps the
    bidisc into the tetrablock."""
    r, s = (abs(mp.mpc(v)) for v in z)
    return (1 - r) * (1 - s) * (1 - r * s)


def tetrablock_draws(n, seed):
    """n candidate points about the slice x3 = x1 x2: F(z) for z uniform
    in the bidisc, each coordinate then moved by a point uniform in the
    disc of radius 0.1, so that some (x1, x2) leave the closed bidisc."""
    rnd = random.Random(seed)

    def disc(radius):
        return mp.mpc(mp.rect(radius * mp.sqrt(rnd.random()), 2 * mp.pi * rnd.random()))

    draws = []
    for _ in range(n):
        z1, z2 = disc(1), disc(1)
        draws.append((z1 + disc(0.1), z2 + disc(0.1), z1 * z2 + disc(0.1)))
    return draws


def royal_distance(u, v):
    """Tetrablock distance between the royal-line points (u, u, u^2) and
    (v, v, v^2), for real u, v in (-1, 1).  The line is a complex geodesic
    (x -> x1 maps the tetrablock onto the disc), and on the disc's real
    axis atanh is the geodesic parameter."""
    u, v = mp.mpf(u), mp.mpf(v)
    if abs(u) >= 1 or abs(v) >= 1:
        raise ValueError("point outside the open disc")
    return abs(mp.atanh(v) - mp.atanh(u))


def tetra_defect(a, ctx=mp):
    # five legs atanh(a), long leg 2 atanh(a): defect comes out atanh(a)
    return _atanh(ctx, ctx.mpf(a))


def gn_midpoint_lower(a, ctx=mp):
    # rational family lam -> (2 lam s2 - s1) / (2 - lam s1) applied to
    # (a, 0) against the origin; the maximum over |lam| = 1 sits at lam = 1
    a = ctx.mpf(a)
    return _atanh(ctx, a / (2 - a))


def gn_terms(a, ctx=mp):
    """The gn witness's S_lb terms: the midpoint leg and the exact shift
    2 atanh(a^2) - 2 atanh(a)."""
    a = ctx.mpf(a)
    return {"lb_mid": gn_midpoint_lower(a, ctx),
            "shift": 2 * _atanh(ctx, a * a) - 2 * _atanh(ctx, a)}


def gn_s_lb(a, ctx=mp):
    return sum(gn_terms(a, ctx).values())


def gn_legs(a):
    """The gn witness's legs to the origin, exactly: on the symmetrized
    bidisc d(0, (s, p)) = atanh((2|s - conj(s) p| + |s^2 - 4p|)/(4 - |s|^2)),
    which is a at p's image (2a, a^2), a^2 at q's (0, -a^2) and a/(2 - a)
    at x's (a, 0)."""
    a = mp.mpf(a)
    return {"pw": mp.atanh(a), "qw": mp.atanh(a * a), "xw": mp.atanh(a / (2 - a))}


def hinge_boundary_distance(x1, s):
    """min over the flat facet and the parabola arc of psi = (t-1)_+^2."""
    x1, s = mp.mpf(x1), mp.mpf(s)
    flat = mp.sqrt(x1**2 + max(mp.mpf(0), s - 1) ** 2) if s > 1 else x1
    best = flat
    # stationary points of (x1 - u^2)^2 + (1 + u - s)^2 over u >= 0.  A
    # zero trailing coefficient is a root u = 0, the rim corner, which the
    # flat facet covers; it goes, as polyroots does not converge on the
    # triple root of 2u^3 at (0.5, 1)
    coeffs = [2, 0, 1 - 2 * x1, 1 - s]
    while coeffs[-1] == 0:
        coeffs.pop()
    for r in mp.polyroots(coeffs):
        if abs(mp.im(r)) < mp.mpf("1e-40") and mp.re(r) > 0:
            u = mp.re(r)
            best = min(best, mp.sqrt((x1 - u * u) ** 2 + (1 + u - s) ** 2))
    return best


def atanh_one_minus(log_eps):
    eps = mp.exp(mp.mpf(log_eps))
    return mp.atanh(1 - eps)


def slice_leg(alpha, ctx=mp):
    """atanh(1 - alpha), written as (1/2) log((2 - alpha)/alpha) so that a
    tiny alpha survives: the flat witness's slice leg from the center of
    its slice disc to the point at parameter 1 - alpha."""
    a = ctx.mpf(alpha)
    return ctx.log((2 - a) / a) / 2


def base_leg(h, radius, base):
    """Distance in the disc |z - radius| < radius, tangent to the
    imaginary axis at 0, from the real point ``base`` to the real point h:
    the parameters are a = (base - radius)/radius and -(1 - e) with
    e = h/radius, and the distance is atanh(1 - s) with

        s = e (1 - a) / (1 + a (1 - e)),

    in the log form of :func:`slice_leg`, so that any h > 0 survives."""
    R = mp.mpf(radius)
    e = mp.mpf(h) / R
    a = (mp.mpf(base) - R) / R
    return slice_leg(e * (1 - a) / (1 + a * (1 - e)))


def face_distance(z):
    """Distance from the point z of C^2 to the faces shared by every model
    domain: the box Re z1 < 3, |Im z1| < 3 and the radial cap |z2| < 2."""
    x1, y1 = mp.mpf(z[0].real), mp.mpf(z[0].imag)
    s = mp.sqrt(mp.mpf(z[1].real) ** 2 + mp.mpf(z[1].imag) ** 2)
    return min(3 - x1, 3 - abs(y1), 2 - s)


def hinge_chain(delta, radius, rim=None, ctx=mp):
    """The hinge witness's three-leg disc chain from q = (delta, -rim) to
    the base point (1, 0), rim = 1 - delta unless given: along the z1 disc
    |z1 - radius| < radius at z2 = q2 to its center, across the slice
    |z2| < 2 at that height to z2 = 0, then along the z1 disc at z2 = 0 to
    the base point."""
    d, R = ctx.mpf(delta), ctx.mpf(radius)
    r = 1 - d if rim is None else ctx.mpf(rim)
    return _atanh(ctx, 1 - d / R) + _atanh(ctx, r / 2) + _atanh(ctx, (R - 1) / R)


def hinge_pq(delta, rim=None):
    """The hinge witness's (p, q) leg across the slice disc
    |z2| < 1 + sqrt(delta) at z1 = delta, where p and q sit at
    |z2| = rim, 1 - delta unless given, so at the parameters
    -+rim/(1 + sqrt(delta)), which are -+(1 - sqrt(delta)) at the
    analytic rim."""
    d = mp.mpf(delta)
    r = 1 - d if rim is None else mp.mpf(rim)
    return 2 * mp.atanh(r / (1 + mp.sqrt(d)))


def hinge_terms(delta, radius, ctx=mp):
    """The hinge witness's S_lb terms, which hinge_s_lb combines as
    lb_split - ub_pair + lb_ratio - ub_chain, at its stored points p, q = (delta, -+rim), rim = fl(1 -
    delta), and its float tangency radius t0 = fl(1 + fl(sqrt(delta))):

    * lb_split = log tau - log F(p), tau = min(2 sqrt(delta), t0^2 - 1)
      (the coupling level of psi = (t - 1)_+^2 at t0 is t0^2 - 1) and
      F(p) = delta - psi(t0) - psi'(t0) (rim - t0);
    * ub_pair, the two-disc slice bound with r = 1/4 around
      fl(0.75 + fl(sqrt(delta))), in the slice |z2| < 1 + sqrt(delta);
    * lb_ratio = (1/2) log(d(w)/d(x)), the boundary distances of
      hinge_boundary_distance at x = (delta, 0) and w = (1, 0);
    * ub_chain = hinge_chain at the stored rim.
    """
    u = math.sqrt(delta)
    t0, rim, centre = 1.0 + u, 1.0 - delta, 0.75 + u
    d, T0, RIM, C = (ctx.mpf(v) for v in (delta, t0, rim, centre))
    tau = _min(ctx, 2 * ctx.sqrt(d), T0 * T0 - 1)
    lb_split = ctx.log(tau) - ctx.log(d - (T0 - 1) ** 2 - 2 * (T0 - 1) * (RIM - T0))
    r = ctx.mpf(0.25)
    depth = _min(ctx, r - abs(RIM - C), 1 + ctx.sqrt(d) - RIM)
    ub_pair = ctx.log(2 * r) / 2 - ctx.log(depth) / 2 + 4 * C / r
    d_x, d_w = (ctx.mpf(hinge_boundary_distance(*z)) for z in ((delta, 0), (1, 0)))
    lb_ratio = (ctx.log(d_w) - ctx.log(d_x)) / 2
    return {"lb_split": lb_split, "ub_pair": ub_pair, "lb_ratio": lb_ratio,
            "ub_chain": hinge_chain(delta, radius, rim, ctx)}


def hinge_s_lb(delta, radius, ctx=mp):
    t = hinge_terms(delta, radius, ctx)
    return t["lb_split"] - t["ub_pair"] + t["lb_ratio"] - t["ub_chain"]


def radius_integral(r, h):
    """Sum over the pieces of a polygon of h log(b/a)/(b - a), or h/a when
    a = b: the integral of ds/delta along a piece of length h over which
    delta runs linearly from a to b, at the float radii r and piece
    lengths h as given."""
    total = mp.mpf(0)
    for a, b, length in zip(r, r[1:], h):
        a, b, length = mp.mpf(a), mp.mpf(b), mp.mpf(length)
        total += length / a if a == b else length * mp.log(b / a) / (b - a)
    return total


def exp_flat(t, ctx=mp):
    """e^{-1/t} up to its knee at t = 1/4, then the convex quadratic
    e^{-4} (1 + 16u + 32u^2), u = t - 1/4; t a float."""
    if t <= 0:
        return ctx.mpf(0)
    t = ctx.mpf(t)
    if t <= ctx.mpf(1) / 4:
        return ctx.exp(-1 / t)
    u = t - ctx.mpf(1) / 4
    return ctx.exp(-4) * (1 + 16 * u + 32 * u * u)


def exp_flat_deriv(t, ctx=mp):
    """psi' = e^{-1/t} / t^2 below the knee."""
    t = ctx.mpf(t)
    return ctx.exp(-1 / t) / t**2


# the flat models' profiles psi and, below the knee, psi', exact at a float t
FLAT_HEIGHTS = {
    "flat_exp": exp_flat,
    "flat_quartic": lambda t, ctx=mp: ctx.mpf(t) ** 4,
}
FLAT_SLOPES = {
    "flat_exp": exp_flat_deriv,
    "flat_quartic": lambda t, ctx=mp: 4 * ctx.mpf(t) ** 3,
}


def real_leg(x, y, c, r, ctx=mp):
    """Distance between the real points x and y of the disc |z - c| < r:
    the disc distance of their parameters a = (x - c)/r and b = (y - c)/r,
    atanh |a - b| / |1 - ab|."""
    c, r = ctx.mpf(c), ctx.mpf(r)
    a, b = (ctx.mpf(x) - c) / r, (ctx.mpf(y) - c) / r
    return _atanh(ctx, abs(a - b) / abs(1 - a * b))


def flat_ball_chain(c1, s, center, slice_radius, radius, ctx=mp):
    """The three disc legs of the interior ball's chain on a flat model,
    from the ball's centre (c1, c2) with |c2| = s to the base point
    (1, 0), along the discs at their float centres and radii: the z1 disc
    |z1 - center| < radius at z2 = c2, from c1 to its centre; the slice
    |z2| < slice_radius at z1 = center, from c2 to 0; the z1 disc
    |z1 - radius| < radius at z2 = 0, from center to 1."""
    return (
        real_leg(c1, center, center, radius, ctx),
        real_leg(s, 0, 0, slice_radius, ctx),
        real_leg(center, 1, radius, radius, ctx),
    )


def flat_terms(name, x, alpha, base_lo, chain, ball_radius, ctx=mp):
    """The flat witness's S_lb terms, which flat_s_lb combines as

        lb_ratio + lb_half - ub_ball + lb_cross - 2 ub_slice,

    at the radius x and the certified floats it reads: the offset
    fraction alpha (so t1 = fl((1 - alpha) x)), the lower end base_lo of
    the base point's boundary distance, and the discs of its ball chain
    (flat_ball_chain's first four arguments, with the disc radius):

    * lb_ratio = (1/2) log(base_lo/psi(x)) and lb_half = -(1/2) log alpha;
    * lb_cross = log tau - log alpha, tau = 1 - psi(x)/(x psi'(x));
    * ub_slice = slice_leg(alpha);
    * ub_ball = log 2 - (1/2) log((g/R)(2 cos phi - g/R)), the hop into the
      tangent ball of radius R = ball_radius at the contact t1, with
      g = psi(x) - psi(t1) and cos phi = 1/sqrt(1 + psi'(t1)^2), plus the
      chain's three legs.
    """
    psi, dpsi = FLAT_HEIGHTS[name], FLAT_SLOPES[name]
    t1 = (1.0 - alpha) * x
    X, A, R = ctx.mpf(x), ctx.mpf(alpha), ctx.mpf(ball_radius)
    lb_ratio = (ctx.log(base_lo) - ctx.log(psi(x, ctx))) / 2
    lb_half = -ctx.log(A) / 2
    lb_cross = ctx.log(1 - psi(x, ctx) / (X * dpsi(x, ctx))) - ctx.log(A)
    g = psi(x, ctx) - psi(t1, ctx)
    cos_phi = 1 / ctx.sqrt(1 + dpsi(t1, ctx) ** 2)
    hop = ctx.log(2) - ctx.log((g / R) * (2 * cos_phi - g / R)) / 2
    return {"lb_ratio": lb_ratio, "lb_half": lb_half,
            "ub_ball": hop + sum(flat_ball_chain(*chain, ctx=ctx)),
            "lb_cross": lb_cross, "ub_slice": slice_leg(A, ctx)}


def flat_s_lb(*inputs, ctx=mp):
    t = flat_terms(*inputs, ctx=ctx)
    return t["lb_ratio"] + t["lb_half"] - t["ub_ball"] + t["lb_cross"] - 2 * t["ub_slice"]


def exp_profile_cheap_lower(x):
    # graph-tangent lower bound psi(x) / hypot(1, psi'(x)) at the center point
    x = mp.mpf(x)
    v = mp.exp(-1 / x)
    dv = v / x**2
    return v / mp.sqrt(1 + dv**2)


ANCHORS = {
    "disc 0 to 0.5": (lambda: disc_distance(0, "0.5")),
    "disc 0.3 to -0.3": (lambda: disc_distance("0.3", "-0.3")),
    "halfplane 1 to 3": (lambda: halfplane_distance(1, 3)),
    "strip 0.3+0.2j to -0.5-0.1j": (
        lambda: strip_distance(mp.mpc("0.3", "0.2"), mp.mpc("-0.5", "-0.1"))
    ),
    "tetra origin (0.3,0.2,0.05)": (
        lambda: tetra_origin_distance(("0.3", "0.2", "0.05"))
    ),
    "tetra origin royal 0.8": (
        lambda: tetra_origin_distance(("0.8", "0.8", "0.64"))
    ),
    "tetra defect 0.999": (lambda: tetra_defect("0.999")),
    "gn s_lb 0.9": (lambda: gn_s_lb("0.9")),
    "gn s_lb 0.9999": (lambda: gn_s_lb("0.9999")),
    "hinge boundary (0.5, 1.5)": (lambda: hinge_boundary_distance("0.5", "1.5")),
    "atanh(1 - e^-100)": (lambda: atanh_one_minus(-100)),
    "exp cheap lower 0.1": (lambda: exp_profile_cheap_lower("0.1")),
}


if __name__ == "__main__":
    for name, fn in ANCHORS.items():
        print(f"{name:32s} {mp.nstr(fn(), 22)}")
