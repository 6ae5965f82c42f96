"""Runnable verification suites over every module's invariants.

Each suite checks one cluster of guarantees (closed-form anchors, map
consistency, metric axioms, bound sandwiches, witness certificates,
determinism) and returns its failures, a list of strings that is empty
when every guarantee holds.  `run_all` executes the whole registry and
makes a SuiteResult of each suite, named after its function (`suite_`
dropped, `_` read as `-`); the CLI's `verify` subcommand is a thin
wrapper around it.  An error raised inside a suite, such as a witness
refusing a failed check, is that suite's FAIL, with the error's type and
message.

The `mutate` flag perturbs the frozen anchor table before comparison.
That is a self-test of the harness itself: a verification suite that
cannot be made to fail verifies nothing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core, exact, models, witnesses
from .convex import (
    BASE_POINT,
    DISC_RADIUS,
    ModelDomain,
    TangentHalfspaceCert,
    chain_polygon,
    lb_boundary_ratio_log,
    ub_base_chain,
    ub_interior_ball,
    ub_radius_integral,
)
from .rounding import log_down, log_up

log = logging.getLogger("gromovlab.verify")


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyContext:
    """Knobs shared by all suites.

    bump is added to each frozen anchor when mutation testing is on.
    """

    bump: float = 0.0
    seed: int = 20260816


# ---------------------------------------------------------------------------
# frozen closed-form anchors


def _sampled(domain: str, x, y) -> float:
    # the distance `sample` computes between x and y
    kernel = exact.SAMPLE_DOMAINS[domain].distance
    return float(kernel(np.array([x]), np.array([y]))[0])


_ANCHORS: tuple[tuple[str, Callable[[], float], float], ...] = (
    ("disc 0..0.5", lambda: exact.disc_distance(0.0, 0.5), math.atanh(0.5)),
    ("disc 0..0.9", lambda: exact.disc_distance(0.0, 0.9), math.atanh(0.9)),
    ("halfplane 1..3", lambda: exact.halfplane_distance(1.0, 3.0), 0.5 * math.log(3.0)),
    (
        "polydisc sup",
        lambda: _sampled("polydisc", (0.5, 0.1), (0.0, 0.0)),
        math.atanh(0.5),
    ),
    (
        "ball radial",
        lambda: _sampled("ball", (0.7, 0.0), (0.0, 0.0)),
        math.atanh(0.7),
    ),
    (
        "tetra royal origin",
        lambda: exact.tetra_origin_distance((0.8, 0.8, 0.64)),
        math.atanh(0.8),
    ),
    (
        "product defect",
        lambda: witnesses.product_witness(5.0).s_lb,
        5.0,
    ),
    (
        # the z1-disc leg the hinge chains price, from the disc's rim point
        "hinge chain leg",
        lambda: ub_base_chain(models.HINGE_MODEL, (DISC_RADIUS, 0j))[1],
        math.atanh(9.0 / 29.0),
    ),
)


def suite_exact_anchors(ctx: VerifyContext) -> list[str]:
    failures = []
    tol = 1e-12
    for name, fn, expected in _ANCHORS:
        got = fn()
        want = expected + ctx.bump
        if abs(got - want) > tol * (1.0 + abs(want)):
            failures.append(f"{name}: got {got!r}, expected {want!r}")
    return failures


def suite_conformal_consistency(ctx: VerifyContext) -> list[str]:
    """The disc, half-plane and strip kernels through the Cayley map, a disc
    automorphism per draw and the strip's tan, on 50 draws in one pass each."""
    rng = np.random.default_rng(ctx.seed)
    tol = 1e-10
    z, w = exact.disc_points(rng, 100).reshape(2, 50)
    # per draw: Re a, Im a, theta, then two strip points, (Re, Im) each
    lo, hi = [-0.5, -0.5, 0.0, -0.9, -2.0, -0.9, -2.0], [0.5, 0.5, 2 * math.pi, 0.9, 2.0, 0.9, 2.0]
    ar, ai, theta, x1, y1, x2, y2 = rng.uniform(lo, hi, (50, 7)).T
    a, s1, s2 = ar + 1j * ai, x1 + 1j * y1, x2 + 1j * y2

    def cayley(x):  # the unit disc onto Re > 0, 0 -> 1
        return (1.0 + x) / (1.0 - x)

    def mobius(x):  # e^{i theta} (x - a)/(1 - conj(a) x), an automorphism of the disc
        return np.exp(1j * theta) * (x - a) / (1.0 - a.conj() * x)

    via_disc = exact.disc_distance(z, w)
    via_strip = exact.strip_distance(s1, s2)
    t1, t2 = np.tan(math.pi * s1 / 4.0), np.tan(math.pi * s2 / 4.0)
    checks = (
        ("cayley mismatch", via_disc, exact.halfplane_distance(cayley(z), cayley(w))),
        ("mobius invariance broke", via_disc, exact.disc_distance(mobius(z), mobius(w))),
        ("strip composition mismatch", via_strip,
         exact.halfplane_distance(cayley(t1), cayley(t2))),
    )
    return [f"{name} at draw {k}: {d[k]} vs {other[k]}" for name, d, other in checks
            for k in np.flatnonzero(abs(d - other) > tol * (1.0 + d))]


def suite_metric_axioms(ctx: VerifyContext) -> list[str]:
    """Identity, symmetry and the triangle inequality on ten draws from
    each sampled domain, through the kernel `sample` runs there."""
    rng = np.random.default_rng(ctx.seed + 1)
    failures = []
    for name, domain in exact.SAMPLE_DOMAINS.items():
        violations = core.metric_axiom_violations(domain.distance, domain.points(rng, 10))
        failures += [f"{name}: {msg}" for msg in violations]
    return failures


def suite_symmetrized_bidisc(ctx: VerifyContext) -> list[str]:
    # each pair's DistBound, and each witness, refuses a failed enclosure
    rng = np.random.default_rng(ctx.seed + 2)
    xs, ys = rng.uniform(-0.9, 0.9, (12, 2, 2)).swapaxes(0, 1)
    exact.gn_pair_bounds(np.concatenate([xs, ys]), np.arange(12), np.arange(12, 24))
    for a in (0.3, 0.6, 0.9, 0.99):
        witnesses.gn_witness(a)
    return []


def suite_tetrablock(ctx: VerifyContext) -> list[str]:
    # each witness refuses a defect interval off atanh(a) at either end
    for a in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        witnesses.tetra_witness(a)
    return []


def suite_product(ctx: VerifyContext) -> list[str]:
    # each witness refuses a defect off s or a w off the weak midpoint of (p, q)
    failures = []
    axis = exact.polydisc_axis_oracle(2)
    for s in (1.0, 5.0, 50.0, 300.0):
        p, q, _, _ = witnesses.product_witness(s).quadruple
        if axis.fn(p, q) != 2.0 * s:
            failures.append(f"base distance drifted at s={s}")
    return failures


def _sample_pairs(domain: ModelDomain, rng, n_points: int, n_pairs: int):
    pts = models.sample_interior(domain, n_points, rng, margin=0.02)
    i, j = rng.integers(0, n_points, size=(n_pairs, 2)).T
    return pts, i, np.where(j != i, j, (j + 1) % n_points)


def suite_bound_sandwich(ctx: VerifyContext) -> list[str]:
    """Certified lowers never cross certified uppers on random pairs.

    Boundary brackets are computed once per point, in one block call, and
    shared by every pair's ratio lower bound, (1/2) |log(d(w)/d(z))| taken
    in both orders, formed from the logs of the brackets' ends rounded
    outward; the pairs' chains are priced in one call.
    """
    rng = np.random.default_rng(ctx.seed + 3)
    failures = []
    for domain in models.MODELS.values():
        P, i, j = _sample_pairs(domain, rng, 120, 1000)
        brackets = domain.boundary_distance_brackets(P)
        lo, hi = np.array([[b.lo for b in brackets], [b.hi for b in brackets]])
        for k in np.flatnonzero(~(0.0 < lo)).tolist():
            failures.append(f"{domain.name}: bad boundary bracket at point {k}")
        log_lo, log_hi = log_down(lo), log_up(hi)
        lowers = np.maximum(lb_boundary_ratio_log(log_hi[i], log_lo[j]),
                            lb_boundary_ratio_log(log_hi[j], log_lo[i]))
        uppers = domain.ub_euclidean_chain(P[i], P[j])
        for k in np.flatnonzero(lowers > uppers)[:1].tolist():
            failures.append(
                f"{domain.name}: lower {lowers[k]} exceeds upper {uppers[k]} "
                f"at pair ({i[k]},{j[k]})"
            )
    return failures


def suite_tangent_certs(ctx: VerifyContext) -> list[str]:
    """Positivity of tangent functionals on domain samples."""
    rng = np.random.default_rng(ctx.seed + 4)
    failures = []
    for domain in models.MODELS.values():
        pts = models.sample_interior(domain, 60, rng, margin=1e-3)
        for t0 in (0.3, 0.9, 1.4):
            for theta in (0.0, math.pi / 3.0, math.pi):
                cert = TangentHalfspaceCert(domain, t0, theta)
                worst = float(cert.re_f_float((pts[:, 0], pts[:, 1])).min())
                if worst <= 0.0:
                    failures.append(
                        f"{domain.name}: functional t0={t0} theta={theta:.2f} "
                        f"non-positive ({worst})"
                    )
    return failures


def suite_disc_pointwise(ctx: VerifyContext) -> list[str]:
    """On the unit disc: ratio lower <= exact <= chain upper, pointwise."""
    rng = np.random.default_rng(ctx.seed + 5)
    tol = 1e-12
    z, w = exact.disc_points(rng, 600).reshape(2, 300)
    # the C^2 domains' chain on the disc z2 = 0, with the boundary distance
    # 1 - |z1| as the radius
    zero = np.zeros_like(z)
    nodes, h = chain_polygon(np.stack((z, zero), 1), np.stack((w, zero), 1))
    uppers = ub_radius_integral(1.0 - np.abs(nodes[..., 0]), h)
    log_dz, log_dw = np.log(1.0 - np.abs(z)), np.log(1.0 - np.abs(w))
    # sharp on the disc: |atanh|z| - atanh|w|| >= (1/2)|log(dw/dz)|
    lowers = np.maximum(lb_boundary_ratio_log(log_dz, log_dw), lb_boundary_ratio_log(log_dw, log_dz))
    ex = exact.disc_distance(z, w)
    failures = [f"draw {k}: ratio lower {lowers[k]} exceeds exact {ex[k]}"
                for k in np.flatnonzero(lowers > ex + tol)]
    failures += [f"draw {k}: exact {ex[k]} exceeds chain upper {uppers[k]}"
                 for k in np.flatnonzero(ex > uppers + tol)]
    return failures


def suite_interior_ball(ctx: VerifyContext) -> list[str]:
    """Curvature budgets hold and the tangent-ball bound dominates the
    boundary-ratio lower bound against the base point."""
    failures = []
    for domain in models.MODELS.values():
        margin = models.curvature_margin(domain)
        if margin < -1e-3:
            failures.append(f"{domain.name}: curvature budget violated ({margin})")
        cases = []
        for t1 in (0.0, 0.4 * domain.ball_contact_cap, domain.ball_contact_cap):
            psi = domain.profile.value(t1)
            for h in (1e-3, 1e-6):
                z = (complex(psi + h), complex(t1))
                if domain.contains(z):
                    cases.append((t1, h, psi, z))
        # the base point first, then every case, in one block call
        pts = [BASE_POINT] + [z for *_, z in cases]
        b_base, *b_cases = domain.boundary_distance_brackets(pts)
        for (t1, h, psi, z), b_z in zip(cases, b_cases):
            # the height as it rounds, (psi + h) - psi
            ub = ub_interior_ball(domain, z, math.log(z[0].real - psi))
            lb = max(lb_boundary_ratio_log(log_up(b_z.hi), log_down(b_base.lo)),
                     lb_boundary_ratio_log(log_up(b_base.hi), log_down(b_z.lo)))
            if lb > ub:
                failures.append(
                    f"{domain.name}: ball bound {ub} below ratio bound {lb} "
                    f"at t1={t1}, h={h}"
                )
    return failures


def suite_witness_divergence(ctx: VerifyContext) -> list[str]:
    failures = []
    hinge_vals = [witnesses.hinge_witness(delta).s_lb for delta in (1e-6, 1e-14, 1e-22)]
    if not (hinge_vals[0] < hinge_vals[1] < hinge_vals[2]):
        failures.append(f"hinge S_lb not increasing: {hinge_vals}")

    for domain, lo_slope, hi_slope in (
        (models.FLAT_EXP_MODEL, 0.40, 0.60),
        (models.FLAT_QUARTIC_MODEL, -0.05, 0.05),
    ):
        x_hi, x_lo = 0.02, 0.02 * math.exp(-4.0)
        r_hi = witnesses.flat_witness(domain, x_hi)
        r_lo = witnesses.flat_witness(domain, x_lo)
        slope = (r_lo.s_lb - r_hi.s_lb) / 4.0
        if not lo_slope <= slope <= hi_slope:
            failures.append(f"{r_hi.family}: two-point slope {slope} outside "
                            f"[{lo_slope}, {hi_slope}]")
    return failures


def suite_determinism(ctx: VerifyContext) -> list[str]:
    failures = []
    disc = exact.SAMPLE_DOMAINS["disc"]
    sampler = core.uniform_quadruple_sampler(disc.points)
    e1 = core.estimate_delta(disc.distance, sampler, 500, seed=ctx.seed)
    e2 = core.estimate_delta(disc.distance, sampler, 500, seed=ctx.seed)
    if e1 != e2:
        failures.append("estimate_delta not reproducible for a fixed seed")

    r1 = witnesses.hinge_witness(1e-8)
    r2 = witnesses.hinge_witness(1e-8)
    if r1.terms != r2.terms or r1.s_lb != r2.s_lb:
        failures.append("hinge witness not reproducible")
    return failures


SUITES: tuple[Callable[[VerifyContext], list[str]], ...] = (
    suite_exact_anchors,
    suite_conformal_consistency,
    suite_metric_axioms,
    suite_symmetrized_bidisc,
    suite_tetrablock,
    suite_product,
    suite_bound_sandwich,
    suite_tangent_certs,
    suite_disc_pointwise,
    suite_interior_ball,
    suite_witness_divergence,
    suite_determinism,
)


def _run(suite: Callable[[VerifyContext], list[str]], ctx: VerifyContext) -> SuiteResult:
    # the first six failures and a count of the rest, or an error raised
    # inside the suite, are its FAIL
    name = suite.__name__.removeprefix("suite_").replace("_", "-")
    try:
        failures = suite(ctx)
    except Exception as e:
        log.debug("suite %s raised", suite.__name__, exc_info=True)
        return SuiteResult(name, False, f"{type(e).__name__}: {e}")
    more = f" (+{len(failures) - 6} more)" if len(failures) > 6 else ""
    return SuiteResult(name, not failures, "; ".join(failures[:6]) + more or "ok")


def run_all(mutate: bool = False, seed: int = VerifyContext.seed) -> list[SuiteResult]:
    """Run every suite; `mutate` perturbs the anchor table (must fail)."""
    ctx = VerifyContext(bump=1e-6 if mutate else 0.0, seed=seed)
    return [_run(suite, ctx) for suite in SUITES]
