"""gromovlab: certified non-hyperbolicity witnesses for invariant metrics.

Exact invariant distances (disc, half-plane, strip, polydisc, ball,
symmetrized bidisc, tetrablock), certified two-sided bounds on convex
model domains in C^2, witness families whose four-point defects diverge,
and control experiments on hyperbolic domains.
"""

from .core import (
    DeltaEstimate,
    DistanceOracle,
    FourPointReport,
    estimate_delta,
    four_point_defect,
    gromov_product,
    metric_axiom_violations,
    mixed_quadruple_sampler,
    uniform_quadruple_sampler,
)
from .convex import CertificateError, ModelDomain, TangentHalfspaceCert
from .exact import (
    SAMPLE_DOMAINS,
    DistBound,
    OracleError,
    ball_oracle,
    disc_distance,
    disc_oracle,
    gn_pair_bounds,
    halfplane_distance,
    polydisc_oracle,
    strip_distance,
    tetra_origin_distance,
    tetra_pair_bounds,
)
from .models import FLAT_EXP_MODEL, FLAT_QUARTIC_MODEL, HINGE_MODEL, MODELS
from .profiles import EXP_FLAT, HINGE, PROFILES, QUARTIC, ProfileFn
from .verify import SuiteResult, run_all
from .witnesses import (
    WitnessReport,
    claims_check,
    find_steep_point,
    flat_witness,
    gn_witness,
    hinge_witness,
    contact_disc_pair,
    product_witness,
    tetra_witness,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "DeltaEstimate",
    "DistBound",
    "DistanceOracle",
    "EXP_FLAT",
    "FLAT_EXP_MODEL",
    "FLAT_QUARTIC_MODEL",
    "FourPointReport",
    "HINGE",
    "HINGE_MODEL",
    "MODELS",
    "ModelDomain",
    "OracleError",
    "PROFILES",
    "ProfileFn",
    "QUARTIC",
    "SAMPLE_DOMAINS",
    "SuiteResult",
    "TangentHalfspaceCert",
    "WitnessReport",
    "ball_oracle",
    "claims_check",
    "disc_distance",
    "disc_oracle",
    "estimate_delta",
    "find_steep_point",
    "flat_witness",
    "four_point_defect",
    "gn_pair_bounds",
    "gn_witness",
    "gromov_product",
    "halfplane_distance",
    "hinge_witness",
    "contact_disc_pair",
    "metric_axiom_violations",
    "mixed_quadruple_sampler",
    "polydisc_oracle",
    "product_witness",
    "run_all",
    "strip_distance",
    "tetra_origin_distance",
    "tetra_pair_bounds",
    "tetra_witness",
    "uniform_quadruple_sampler",
]
