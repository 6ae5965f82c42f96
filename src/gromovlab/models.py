"""Stock model domains: convex profile domains in C^2 with named shapes.

Each domain is { (z1, z2) : Re z1 > psi(|z2|) } cut down by the box
Re z1 < 3, |Im z1| < 3 and the radial cap |z2| < 2 (``convex.BOX`` and
``convex.Z2_CAP``, shared by every model), so everything is bounded and
convex.  A model is its profile and its interior tangent-ball constants.
The three stock profiles differ only in how flat the boundary is at the
distinguished point (0, 0):

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

import numpy as np

from .convex import BOX, Z2_CAP, CertificateError, ModelDomain
from .profiles import EXP_FLAT, HINGE, QUARTIC

# rejection-sampling tries per requested point
_MAX_TRIES = 200

# grid intervals of the curvature check
_CURVATURE_SAMPLES = 2048

HINGE_MODEL = ModelDomain(
    name="hinge",
    profile=HINGE,
    ball_radius=0.4,
    ball_contact_cap=1.2,
    ball_curvature_sup=2.0,
)

FLAT_EXP_MODEL = ModelDomain(
    name="flat_exp",
    profile=EXP_FLAT,
    ball_radius=0.39,
    ball_contact_cap=0.25,
    ball_curvature_sup=2.5513,
)

FLAT_QUARTIC_MODEL = ModelDomain(
    name="flat_quartic",
    profile=QUARTIC,
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
    margin: float,
) -> np.ndarray:
    """n interior points with all face margins above `margin`, as an (n, 2)
    complex array of rows (z1, z2).

    Rejection sampling from the box with 0 < Re z1 and the square around
    the radial cap; the stock domains fill a decent fraction of it, so the
    try budget is generous rather than tight.  A try is four uniform draws
    (Re z1, Im z1, Re z2, Im z2).  Tries are drawn in blocks, each tested
    by one :meth:`ModelDomain.contains` call with slack -margin, and the
    points are the first n accepted tries, in try order.
    """
    hits, found, tries, budget = [np.empty((0, 2), complex)], 0, 0, _MAX_TRIES * n
    while found < n and tries < budget:
        # eight tries per missing point: the stock domains accept 1/5 to 2/3
        size = (min(budget - tries, 8 * (n - found)), 4)
        block = rng.uniform([0.0, -BOX, -Z2_CAP, -Z2_CAP], [BOX, BOX, Z2_CAP, Z2_CAP], size)
        z = block.view(complex)  # each try as (z1, z2)
        hits.append(z[domain.contains((z[:, 0], z[:, 1]), slack=-margin)])
        found, tries = found + len(hits[-1]), tries + len(z)
    if found < n:
        raise CertificateError(
            f"interior sampling starved after {budget} tries on {domain.name}"
        )
    return np.concatenate(hits)[:n]


def curvature_margin(domain: ModelDomain) -> float:
    """min over a grid of (ball_curvature_sup - psi'') on the certified
    span [0, contact_cap + radius]; a nonnegative value (up to second
    difference noise) means the recorded ball constants dominate the
    profile's curvature as required by ub_interior_ball."""
    span = domain.ball_contact_cap + domain.ball_radius
    h = 1e-5
    samples = _CURVATURE_SAMPLES
    t = h + (span - h) * np.arange(samples + 1) / samples
    psi = domain.profile.value
    # central second difference; profiles are C^1 with piecewise smooth
    # psi'', and smearing across a kink only averages the one-sided
    # values, which the recorded sup dominates anyway
    d2 = (psi(t + h) - 2.0 * psi(t) + psi(t - h)) / h**2
    return float(np.min(domain.ball_curvature_sup - d2))
