"""gromovlab: certified non-hyperbolicity witnesses for invariant metrics.

Exact invariant distances (disc, half-plane, strip, polydisc, ball,
symmetrized bidisc, tetrablock), certified two-sided bounds on convex
model domains in C^2, witness families whose four-point defects diverge,
and control experiments on hyperbolic domains.
"""

from .core import (
    DeltaEstimate,
    DistanceOracle,
    estimate_delta,
    metric_axiom_violations,
    mixed_quadruple_sampler,
    uniform_quadruple_sampler,
)
from .convex import CertificateError, ModelDomain, TangentHalfspaceCert
from .exact import (
    SAMPLE_DOMAINS,
    DistBound,
    OracleError,
    disc_distance,
    gn_pair_bounds,
    halfplane_distance,
    strip_distance,
    tetra_origin_distance,
)
from .models import FLAT_EXP_MODEL, FLAT_QUARTIC_MODEL, HINGE_MODEL, MODELS
from .profiles import EXP_FLAT, HINGE, QUARTIC, ProfileFn
from .verify import SuiteResult, run_all
from .witnesses import (
    WitnessReport,
    claims_check,
    flat_witness,
    gn_witness,
    hinge_witness,
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
    "HINGE",
    "HINGE_MODEL",
    "MODELS",
    "ModelDomain",
    "OracleError",
    "ProfileFn",
    "QUARTIC",
    "SAMPLE_DOMAINS",
    "SuiteResult",
    "TangentHalfspaceCert",
    "WitnessReport",
    "claims_check",
    "disc_distance",
    "estimate_delta",
    "flat_witness",
    "gn_pair_bounds",
    "gn_witness",
    "halfplane_distance",
    "hinge_witness",
    "metric_axiom_violations",
    "mixed_quadruple_sampler",
    "product_witness",
    "run_all",
    "strip_distance",
    "tetra_origin_distance",
    "tetra_witness",
    "uniform_quadruple_sampler",
]
