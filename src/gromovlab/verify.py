"""Runnable verification suites over every module's invariants.

Each suite checks one cluster of guarantees (closed-form anchors, map
consistency, metric axioms, bound sandwiches, witness certificates,
determinism) and reports a SuiteResult.  `run_all` executes the whole
registry; the CLI's `verify` subcommand is a thin wrapper around it.

The `mutate` flag perturbs the frozen anchor table before comparison.
That is a self-test of the harness itself: a verification suite that
cannot be made to fail verifies nothing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core, exact, models, witnesses
from .convex import (
    ModelDomain,
    TangentHalfspaceCert,
    hop_chain,
    lb_boundary_ratio,
    ub_interior_ball,
)


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


def _result(name: str, failures: list[str]) -> SuiteResult:
    if failures:
        return SuiteResult(name, False, "; ".join(failures[:6]))
    return SuiteResult(name, True, "ok")


# ---------------------------------------------------------------------------
# frozen closed-form anchors

_ANCHORS: tuple[tuple[str, Callable[[], float], float], ...] = (
    ("disc 0..0.5", lambda: exact.disc_distance(0.0, 0.5), math.atanh(0.5)),
    ("disc 0..0.9", lambda: exact.disc_distance(0.0, 0.9), math.atanh(0.9)),
    ("halfplane 1..3", lambda: exact.halfplane_distance(1.0, 3.0), 0.5 * math.log(3.0)),
    (
        "polydisc sup",
        lambda: exact.polydisc_distance((0.5, 0.1), (0.0, 0.0)),
        math.atanh(0.5),
    ),
    (
        "ball radial",
        lambda: exact.ball_distance((0.7, 0.0), (0.0, 0.0)),
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
        "hinge chain leg",
        lambda: exact.disc_distance(-0.45 / 1.45, 0.0),
        math.atanh(9.0 / 29.0),
    ),
)


def suite_exact_anchors(ctx: VerifyContext) -> SuiteResult:
    failures = []
    tol = 1e-12
    for name, fn, expected in _ANCHORS:
        got = fn()
        want = expected + ctx.bump
        if abs(got - want) > tol * (1.0 + abs(want)):
            failures.append(f"{name}: got {got!r}, expected {want!r}")
    return _result("exact-anchors", failures)


def suite_conformal_consistency(ctx: VerifyContext) -> SuiteResult:
    rng = np.random.default_rng(ctx.seed)
    tol = 1e-10
    failures = []
    for k in range(50):
        z, w = (complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(2))
        via_disc = exact.disc_distance(z, w)
        via_half = exact.halfplane_distance(
            exact.disc_to_halfplane(z), exact.disc_to_halfplane(w)
        )
        if abs(via_disc - via_half) > tol * (1.0 + via_disc):
            failures.append(f"cayley mismatch at draw {k}: {via_disc} vs {via_half}")
        a = complex(*rng.uniform(-0.5, 0.5, 2))
        mob = exact.mobius_disc_automorphism(a, float(rng.uniform(0, 2 * math.pi)))
        moved = exact.disc_distance(mob(z), mob(w))
        if abs(via_disc - moved) > tol * (1.0 + via_disc):
            failures.append(f"mobius invariance broke at draw {k}")
        s1, s2 = (complex(rng.uniform(-0.9, 0.9), rng.uniform(-2, 2)) for _ in range(2))
        via_strip = exact.strip_distance(s1, s2)
        t1, t2 = cmath.tan(math.pi * s1 / 4.0), cmath.tan(math.pi * s2 / 4.0)
        via_comp = exact.halfplane_distance(
            exact.disc_to_halfplane(t1), exact.disc_to_halfplane(t2)
        )
        if abs(via_strip - via_comp) > tol * (1.0 + via_strip):
            failures.append(f"strip composition mismatch at draw {k}")
    return _result("conformal-consistency", failures)


def suite_metric_axioms(ctx: VerifyContext) -> SuiteResult:
    rng = np.random.default_rng(ctx.seed + 1)
    failures = []

    def disc_pt(r):
        rad = math.sqrt(r.uniform(0, 0.96))
        th = r.uniform(0, 2 * math.pi)
        return complex(rad * math.cos(th), rad * math.sin(th))

    disc_pts = [disc_pt(rng) for _ in range(10)]
    failures += core.metric_axiom_violations(exact.disc_distance, disc_pts)

    poly_pts = [(disc_pt(rng), disc_pt(rng)) for _ in range(10)]
    failures += core.metric_axiom_violations(exact.polydisc_distance, poly_pts)

    def ball_pt(r):
        v = r.normal(size=4)
        v *= r.uniform(0, 0.97) ** 0.25 / np.linalg.norm(v)
        return (complex(v[0], v[1]), complex(v[2], v[3]))

    ball_pts = [ball_pt(rng) for _ in range(10)]
    failures += core.metric_axiom_violations(exact.ball_distance, ball_pts)
    return _result("metric-axioms", failures)


def suite_symmetrized_bidisc(ctx: VerifyContext) -> SuiteResult:
    rng = np.random.default_rng(ctx.seed + 2)
    failures = []
    for k in range(12):
        roots_x = rng.uniform(-0.9, 0.9, 2)
        roots_y = rng.uniform(-0.9, 0.9, 2)
        x = exact.sym_poly_map([complex(v) for v in roots_x])
        y = exact.sym_poly_map([complex(v) for v in roots_y])
        try:
            b = exact.gn_pair_bounds(x, y)  # construction rejects inversion
        except Exception as e:  # pragma: no cover - failure reporting only
            failures.append(f"pair bounds failed at draw {k}: {e}")
            continue
        if b.lo < 0.0:
            failures.append(f"negative pair lower bound at draw {k}")
    for a in (0.3, 0.6, 0.9, 0.99):
        rep = witnesses.gn_witness(a)
        if not rep.checks_passed:
            bad = [n for n, ok in rep.checks if not ok]
            failures.append(f"gn witness checks failed at a={a}: {bad}")
        recomputed = rep.terms[0][1] + rep.terms[1][1]
        if rep.s_lb != recomputed:
            failures.append(f"gn formula drifted at a={a}")
    return _result("symmetrized-bidisc", failures)


def suite_tetrablock(ctx: VerifyContext) -> SuiteResult:
    failures = []
    tol = 1e-12
    for a in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        rep = witnesses.tetra_witness(a)
        if not rep.checks_passed:
            bad = [n for n, ok in rep.checks if not ok]
            failures.append(f"tetra witness checks failed at a={a}: {bad}")
        royal = math.atanh(a)
        iv = rep.defect_interval()
        if abs(iv.lo - royal) > tol * (1.0 + royal) or abs(iv.hi - royal) > tol * (1.0 + royal):
            failures.append(f"tetra defect off atanh(a) at a={a}")
        if abs(2.0 * rep.bounds["px"].lo - rep.bounds["pq"].lo) > tol:
            failures.append(f"tetra doubling identity broke at a={a}")
    return _result("tetrablock", failures)


def suite_product(ctx: VerifyContext) -> SuiteResult:
    failures = []
    for s in (1.0, 5.0, 50.0, 300.0):
        rep = witnesses.product_witness(s)
        if rep.s_lb != s:
            failures.append(f"product defect not exact at s={s}")
        if not rep.checks_passed:
            failures.append(f"product checks failed at s={s}")
        p, q, x, w = rep.quadruple
        axis = exact.polydisc_axis_oracle(2)
        ratios = core.weak_midpoint_ratios([(p, q, w)], axis.fn)
        r1, r2, base = ratios[0]
        if abs(r1 - 0.5) > 0.5 / (2.0 * s) or abs(r2 - 0.5) > 0.5 / (2.0 * s):
            failures.append(f"weak midpoint ratios off at s={s}: {r1}, {r2}")
        if base != 2.0 * s:
            failures.append(f"base distance drifted at s={s}")
    return _result("product", failures)


def _sample_pairs(domain: ModelDomain, rng, n_points: int, n_pairs: int):
    pts = models.sample_interior(domain, n_points, rng, margin=0.02)
    idx = rng.integers(0, n_points, size=(n_pairs, 2))
    pairs = [(int(i), int(j) if j != i else (int(j) + 1) % n_points) for i, j in idx]
    return pts, pairs


def suite_bound_sandwich(ctx: VerifyContext) -> SuiteResult:
    """Certified lowers never cross certified uppers on random pairs.

    Boundary brackets are computed once per point and shared by every
    pair's ratio lower bound.
    """
    rng = np.random.default_rng(ctx.seed + 3)
    tol = 1e-9
    failures = []
    for domain in models.MODELS.values():
        pts, pairs = _sample_pairs(domain, rng, 120, 1000)
        brackets = [domain.boundary_distance_bracket(z) for z in pts]
        for k, b in enumerate(brackets):
            if not 0.0 < b.lo <= b.hi:
                failures.append(f"{domain.name}: bad boundary bracket at point {k}")
        for i, j in pairs:
            lower = lb_boundary_ratio(brackets[i], brackets[j])
            upper = domain.ub_euclidean_chain(pts[i], pts[j])
            if lower > upper + tol:
                failures.append(
                    f"{domain.name}: lower {lower} exceeds upper {upper} "
                    f"at pair ({i},{j})"
                )
                break
    return _result("bound-sandwich", failures)


def suite_tangent_certs(ctx: VerifyContext) -> SuiteResult:
    """Positivity of tangent functionals on domain samples."""
    rng = np.random.default_rng(ctx.seed + 4)
    failures = []
    for domain in models.MODELS.values():
        pts = models.sample_interior(domain, 60, rng, margin=1e-3)
        for t0 in (0.3, 0.9, 1.4):
            for theta in (0.0, math.pi / 3.0, math.pi):
                cert = TangentHalfspaceCert(domain.profile, t0, theta).verify(domain)
                worst = min(cert.re_f_float(z) for z in pts)
                if worst <= 0.0:
                    failures.append(
                        f"{domain.name}: functional t0={t0} theta={theta:.2f} "
                        f"non-positive ({worst})"
                    )
    return _result("tangent-certs", failures)


def suite_disc_pointwise(ctx: VerifyContext) -> SuiteResult:
    """On the unit disc: ratio lower <= exact <= hop-chain upper, pointwise."""
    rng = np.random.default_rng(ctx.seed + 5)
    tol = 1e-12
    failures = []
    for k in range(300):
        rad = np.sqrt(rng.uniform(0, 1, 2)) * 0.98
        th = rng.uniform(0, 2 * np.pi, 2)
        z = complex(rad[0] * math.cos(th[0]), rad[0] * math.sin(th[0]))
        w = complex(rad[1] * math.cos(th[1]), rad[1] * math.sin(th[1]))
        dz, dw = 1.0 - abs(z), 1.0 - abs(w)
        # sharp on the disc: |atanh|z| - atanh|w|| >= (1/2)|log(dw/dz)|
        lower = 0.5 * abs(math.log(dw / dz))
        ex = exact.disc_distance(z, w)
        # the C^2 domains' ball-hop chain, in one complex dimension
        length = abs(w - z)
        unit = (w - z) / length  # independent draws never coincide
        upper = hop_chain(lambda s: 1.0 - abs(z + s * unit), length)
        if lower > ex + tol:
            failures.append(f"draw {k}: ratio lower {lower} exceeds exact {ex}")
        if ex > upper + tol:
            failures.append(f"draw {k}: exact {ex} exceeds chain upper {upper}")
    return _result("disc-pointwise", failures)


def suite_interior_ball(ctx: VerifyContext) -> SuiteResult:
    """Curvature budgets hold and the tangent-ball bound dominates the
    boundary-ratio lower bound against the base point."""
    failures = []
    for domain in models.MODELS.values():
        if domain.ball_radius <= 0.0:
            continue
        margin = models.curvature_margin(domain)
        if margin < -1e-3:
            failures.append(f"{domain.name}: curvature budget violated ({margin})")
        b_base = domain.boundary_distance_bracket(domain.base_point)
        for t1 in (0.0, 0.4 * domain.ball_contact_cap, domain.ball_contact_cap):
            psi = domain.profile.value(t1)
            for h in (1e-3, 1e-6):
                z = (complex(psi + h), complex(t1))
                if not domain.contains(z):
                    continue
                ub = ub_interior_ball(domain, z)
                lb = lb_boundary_ratio(domain.boundary_distance_bracket(z), b_base)
                if lb > ub + 1e-9:
                    failures.append(
                        f"{domain.name}: ball bound {ub} below ratio bound {lb} "
                        f"at t1={t1}, h={h}"
                    )
    return _result("interior-ball", failures)


def suite_witness_divergence(ctx: VerifyContext) -> SuiteResult:
    failures = []
    hinge_vals = []
    for delta in (1e-6, 1e-14, 1e-22):
        rep = witnesses.hinge_witness(delta)
        if not rep.checks_passed:
            bad = [n for n, ok in rep.checks if not ok]
            failures.append(f"hinge checks failed at delta={delta}: {bad}")
        hinge_vals.append(rep.s_lb)
    if not (hinge_vals[0] < hinge_vals[1] < hinge_vals[2]):
        failures.append(f"hinge S_lb not increasing: {hinge_vals}")

    for domain, lo_slope, hi_slope in (
        (models.FLAT_EXP_MODEL, 0.40, 0.60),
        (models.FLAT_QUARTIC_MODEL, -0.05, 0.05),
    ):
        x_hi, x_lo = 0.02, 0.02 * math.exp(-4.0)
        r_hi = witnesses.flat_witness(domain, x_hi)
        r_lo = witnesses.flat_witness(domain, x_lo)
        for rep in (r_hi, r_lo):
            if not rep.checks_passed:
                bad = [n for n, ok in rep.checks if not ok]
                failures.append(f"{rep.family} checks failed at x={rep.param}: {bad}")
        slope = (r_lo.s_lb - r_hi.s_lb) / 4.0
        if not lo_slope <= slope <= hi_slope:
            failures.append(f"{r_hi.family}: two-point slope {slope} outside "
                            f"[{lo_slope}, {hi_slope}]")

    for claim in witnesses.claims_check(models.FLAT_EXP_MODEL, 0.05):
        if not claim.passed:
            failures.append(f"claim failed at x=0.05: {claim.name} ({claim.detail})")
    return _result("witness-divergence", failures)


def suite_determinism(ctx: VerifyContext) -> SuiteResult:
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
    return _result("determinism", failures)


SUITES: tuple[Callable[[VerifyContext], SuiteResult], ...] = (
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


def run_all(mutate: bool = False, seed: int = 20260816) -> list[SuiteResult]:
    """Run every suite; `mutate` perturbs the anchor table (must fail)."""
    ctx = VerifyContext(bump=1e-6 if mutate else 0.0, seed=seed)
    return [suite(ctx) for suite in SUITES]
