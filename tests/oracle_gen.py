"""Independent high-precision recomputation of the closed-form anchors.

Everything here is derived from the defining formulas with mpmath only,
no imports from the package, so agreement is evidence rather than
tautology.  Run as a script to print the anchor table:

    python3 tests/oracle_gen.py
"""

import mpmath as mp

mp.mp.dps = 60


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


def royal_distance(u, v):
    """Tetrablock distance between the royal-line points (u, u, u^2) and
    (v, v, v^2), for real u, v in (-1, 1).  The line is a complex geodesic
    (x -> x1 maps the tetrablock onto the disc), and on the disc's real
    axis atanh is the geodesic parameter."""
    u, v = mp.mpf(u), mp.mpf(v)
    if abs(u) >= 1 or abs(v) >= 1:
        raise ValueError("point outside the open disc")
    return abs(mp.atanh(v) - mp.atanh(u))


def tetra_defect(a):
    # five legs atanh(a), long leg 2 atanh(a): defect comes out atanh(a)
    return mp.atanh(mp.mpf(a))


def gn_midpoint_lower(a):
    # rational family lam -> (2 lam s2 - s1) / (2 - lam s1) applied to
    # (a, 0) against the origin; the maximum over |lam| = 1 sits at lam = 1
    a = mp.mpf(a)
    return mp.atanh(a / (2 - a))


def gn_s_lb(a):
    a = mp.mpf(a)
    return gn_midpoint_lower(a) + 2 * mp.atanh(a * a) - 2 * mp.atanh(a)


def hinge_boundary_distance(x1, s):
    """min over the flat facet and the parabola arc of psi = (t-1)_+^2."""
    x1, s = mp.mpf(x1), mp.mpf(s)
    flat = mp.sqrt(x1**2 + max(mp.mpf(0), s - 1) ** 2) if s > 1 else x1
    best = flat
    # stationary points of (x1 - u^2)^2 + (1 + u - s)^2 over u >= 0
    for r in mp.polyroots([2, 0, 1 - 2 * x1, 1 - s]):
        if abs(mp.im(r)) < mp.mpf("1e-40") and mp.re(r) > 0:
            u = mp.re(r)
            best = min(best, mp.sqrt((x1 - u * u) ** 2 + (1 + u - s) ** 2))
    return best


def atanh_one_minus(log_eps):
    eps = mp.exp(mp.mpf(log_eps))
    return mp.atanh(1 - eps)


def slice_leg(alpha):
    """atanh(1 - alpha), written as (1/2) log((2 - alpha)/alpha) so that a
    tiny alpha survives: the flat witness's slice leg from the center of
    its slice disc to the point at parameter 1 - alpha."""
    a = mp.mpf(alpha)
    return mp.log((2 - a) / a) / 2


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


def hinge_chain(delta, radius):
    """The hinge witness's three-leg disc chain from q = (delta, -(1 - delta))
    to the base point (1, 0): along the z1 disc |z1 - radius| < radius at
    z2 = q2 to its center, across the slice |z2| < 2 at that height to
    z2 = 0, then along the z1 disc at z2 = 0 to the base point."""
    d, R = mp.mpf(delta), mp.mpf(radius)
    return mp.atanh(1 - d / R) + mp.atanh((1 - d) / 2) + mp.atanh((R - 1) / R)


def hinge_pq(delta):
    """The hinge witness's (p, q) leg across the slice disc
    |z2| < 1 + sqrt(delta) at z1 = delta, where p and q sit at the
    parameters -+(1 - delta)/(1 + sqrt(delta)) = -+(1 - sqrt(delta))."""
    return 2 * mp.atanh(1 - mp.sqrt(mp.mpf(delta)))


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


def exp_flat(t):
    """e^{-1/t} up to its knee at t = 1/4, then the convex quadratic
    e^{-4} (1 + 16u + 32u^2), u = t - 1/4."""
    t = mp.mpf(t)
    if t <= 0:
        return mp.mpf(0)
    if t <= mp.mpf(1) / 4:
        return mp.exp(-1 / t)
    u = t - mp.mpf(1) / 4
    return mp.exp(-4) * (1 + 16 * u + 32 * u * u)


def exp_flat_deriv(t):
    """psi' = e^{-1/t} / t^2 below the knee."""
    t = mp.mpf(t)
    return mp.exp(-1 / t) / t**2


# the flat models' profiles psi, exact at a float t
FLAT_HEIGHTS = {
    "flat_exp": exp_flat,
    "flat_quartic": lambda t: mp.mpf(t) ** 4,
}


def real_leg(x, y, c, r):
    """Distance between the real points x and y of the disc |z - c| < r:
    the disc distance of their parameters (x - c)/r and (y - c)/r."""
    c, r = mp.mpf(c), mp.mpf(r)
    return disc_distance((mp.mpf(x) - c) / r, (mp.mpf(y) - c) / r)


def flat_ball_chain(c1, s, center, slice_radius, radius):
    """The three disc legs of the interior ball's chain on a flat model,
    from the ball's centre (c1, c2) with |c2| = s to the base point
    (1, 0), along the discs at their float centres and radii: the z1 disc
    |z1 - center| < radius at z2 = c2, from c1 to its centre; the slice
    |z2| < slice_radius at z1 = center, from c2 to 0; the z1 disc
    |z1 - radius| < radius at z2 = 0, from center to 1."""
    return (
        real_leg(c1, center, center, radius),
        real_leg(s, 0, 0, slice_radius),
        real_leg(center, 1, radius, radius),
    )


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
