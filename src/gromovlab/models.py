"""Stock model domains: convex profile domains in C^2 with named shapes.

Each domain is { (z1, z2) : Re z1 > psi(|z2|) } cut down by the affine
box Re z1 < 3, |Im z1| < 3 and the radial cap |z2| < 2, so everything
is bounded and convex.  The three stock profiles differ only in how
flat the boundary is at the distinguished point (0, 0):

  hinge          flat unit-disc face, parabolic rim, C^{1,1} but not C^2
  flat_exp       infinitely flat (all derivatives vanish at the center)
  flat_quartic   finite type: t^4, the negative control

Interior tangent-ball constants: ball_curvature_sup dominates psi'' on
[0, ball_contact_cap + ball_radius], so radius * sup <= 1 certifies the
curvature comparison in ub_interior_ball.

  hinge          psi'' <= 2 everywhere                     -> R = 0.4
  flat_exp       max of e^{-1/t} t^{-4} (1 - 2t) sits at
                 t = (3 - sqrt 3)/6 ~ 0.21132, value 2.5513,
                 continuation piece is constant 64 e^{-4}   -> R = 0.39
  flat_quartic   12 t^2 <= 12 * 0.55^2 = 3.63 on [0, 0.55] -> R = 0.2
"""

from __future__ import annotations

import math

import numpy as np

from .convex import AffineConstraint, CertificateError, ModelDomain, PointC2
from .profiles import EXP_FLAT, HINGE, QUARTIC

_BOX = (
    AffineConstraint(1.0 + 0.0j, 0.0 + 0.0j, 3.0),
    AffineConstraint(0.0 + 1.0j, 0.0 + 0.0j, 3.0),
    AffineConstraint(0.0 - 1.0j, 0.0 + 0.0j, 3.0),
)

_BASE: PointC2 = (1.0 + 0.0j, 0.0 + 0.0j)

# rejection-sampling tries per requested point
_MAX_TRIES = 200

# grid intervals of the curvature check
_CURVATURE_SAMPLES = 2048

HINGE_MODEL = ModelDomain(
    name="hinge",
    profile=HINGE,
    affine=_BOX,
    z2_cap=2.0,
    base_point=_BASE,
    ball_radius=0.4,
    ball_contact_cap=1.2,
    ball_curvature_sup=2.0,
)

FLAT_EXP_MODEL = ModelDomain(
    name="flat_exp",
    profile=EXP_FLAT,
    affine=_BOX,
    z2_cap=2.0,
    base_point=_BASE,
    ball_radius=0.39,
    ball_contact_cap=0.25,
    ball_curvature_sup=2.5513,
)

FLAT_QUARTIC_MODEL = ModelDomain(
    name="flat_quartic",
    profile=QUARTIC,
    affine=_BOX,
    z2_cap=2.0,
    base_point=_BASE,
    ball_radius=0.2,
    ball_contact_cap=0.35,
    ball_curvature_sup=3.63,
)

MODELS: dict[str, ModelDomain] = {
    m.name: m for m in (HINGE_MODEL, FLAT_EXP_MODEL, FLAT_QUARTIC_MODEL)
}


# ---------------------------------------------------------------------------
# sampling


def sample_interior(
    domain: ModelDomain,
    n: int,
    rng: np.random.Generator,
    margin: float = 1e-6,
) -> list[PointC2]:
    """n interior points with all face margins above `margin`.

    Rejection sampling from the bounding box; the stock domains fill a
    decent fraction of it, so the try budget is generous rather than tight.
    """
    cap = domain.z2_cap
    out: list[PointC2] = []
    for _ in range(_MAX_TRIES * n):
        if len(out) >= n:
            break
        z = (
            complex(rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0)),
            complex(rng.uniform(-cap, cap), rng.uniform(-cap, cap)),
        )
        if domain.contains(z, slack=-margin):
            out.append(z)
    if len(out) < n:
        raise CertificateError(
            f"interior sampling starved after {_MAX_TRIES * n} tries on {domain.name}"
        )
    return out


def curvature_margin(domain: ModelDomain) -> float:
    """min over a grid of (ball_curvature_sup - psi'') on the certified
    span [0, contact_cap + radius]; a nonnegative value (up to second
    difference noise) means the recorded ball constants dominate the
    profile's curvature as required by ub_interior_ball."""
    if domain.ball_radius <= 0.0:
        raise CertificateError(f"{domain.name} has no interior-ball data")
    span = domain.ball_contact_cap + domain.ball_radius
    worst = math.inf
    h = 1e-5
    samples = _CURVATURE_SAMPLES
    for k in range(samples + 1):
        t = h + (span - h) * k / samples
        # central second difference; profiles are C^1 with piecewise
        # smooth psi'', and smearing across a kink only averages the
        # one-sided values, which the recorded sup dominates anyway
        d2 = (
            domain.profile.value(t + h)
            - 2.0 * domain.profile.value(t)
            + domain.profile.value(t - h)
        ) / h**2
        worst = min(worst, domain.ball_curvature_sup - d2)
    return worst
