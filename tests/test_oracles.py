"""Frozen anchors, cross-checked against an independent mpmath derivation.

The 17-digit constants below were produced by tests/oracle_gen.py at 60
decimal digits and rounded once to float.  The library must reproduce
them; when mpmath is installed the derivation itself is re-run so the
pins cannot drift silently.
"""

import math
import random

import numpy as np
import pytest

from gromovlab import convex, exact, witnesses
from gromovlab.convex import BASE_POINT, DISC_RADIUS, ub_radius_integral
from gromovlab.exact import DistBound
from gromovlab.models import FLAT_EXP_MODEL, HINGE_MODEL, MODELS, sample_interior
from gromovlab.profiles import EXP_FLAT

mp_oracle = pytest.importorskip("mpmath", reason="oracle re-derivation needs mpmath")
import oracle_gen  # noqa: E402  (sibling module, needs mpmath)

# name -> (frozen float, library evaluation)
CASES = {
    "disc 0 to 0.5": (
        0.54930614433405485,
        lambda: exact.disc_distance(0.0, 0.5),
    ),
    "disc 0.3 to -0.3": (
        0.61903920840622343,
        lambda: exact.disc_distance(0.3, -0.3),
    ),
    "halfplane 1 to 3": (
        0.54930614433405485,
        lambda: exact.halfplane_distance(1.0, 3.0),
    ),
    "strip 0.3+0.2j to -0.5-0.1j": (
        0.73175287838178447,
        lambda: exact.strip_distance(0.3 + 0.2j, -0.5 - 0.1j),
    ),
    "tetra origin (0.3,0.2,0.05)": (
        0.32331358246252623,
        lambda: exact.tetra_origin_distance((0.3, 0.2, 0.05)),
    ),
    "tetra origin royal 0.8": (
        1.0986122886681097,
        lambda: exact.tetra_origin_distance((0.8, 0.8, 0.64)),
    ),
    "tetra defect 0.999": (
        3.8002011672502,
        lambda: witnesses.tetra_witness(0.999).s_lb,
    ),
    "gn s_lb 0.9": (
        0.46091161942996767,
        lambda: witnesses.gn_witness(0.9).s_lb,
    ),
    "gn s_lb 0.9999": (
        3.9120230079283961,
        lambda: witnesses.gn_witness(0.9999).s_lb,
    ),
    # the library brackets this distance by its branch and bound, so it is
    # checked as an enclosure, not to a tolerance
    "hinge boundary (0.5, 1.5)": (
        0.16592048182615238,
        lambda: HINGE_MODEL.boundary_distance_brackets([(0.5 + 0.0j, 0.0 + 1.5j)])[0],
    ),
    "atanh(1 - e^-100)": (
        50.346573590279973,
        lambda: exact.atanh_one_minus(-100.0),
    ),
    "exp cheap lower 0.1": (
        4.5399461888569097e-05,
        lambda: FLAT_EXP_MODEL.cheap_boundary_lower(
            (complex(FLAT_EXP_MODEL.profile.value(0.1)), 0.0j)
        ),
    ),
}

# conditioning of atanh near 1 makes a few anchors honest only to ~5e-13
LOOSE = {"tetra defect 0.999": 5e-13, "gn s_lb 0.9999": 5e-12}


@pytest.mark.parametrize("name", sorted(CASES))
def test_frozen_anchor_matches_derivation(name):
    frozen, _ = CASES[name]
    derived = float(oracle_gen.ANCHORS[name]())
    assert derived == pytest.approx(frozen, abs=1e-15, rel=1e-14)


@pytest.mark.parametrize("name", sorted(CASES))
def test_library_reproduces_anchor(name):
    frozen, impl = CASES[name]
    got = impl()
    if isinstance(got, DistBound):
        assert got.lo <= frozen <= got.hi <= got.lo + convex._BB_GAP * got.hi
        return
    tol = LOOSE.get(name, 1e-13)
    assert got == pytest.approx(frozen, abs=tol, rel=tol)


# regression pins for construction outputs with no independent closed form;
# these certify determinism, not correctness (the checks inside each witness
# certify correctness)
PINS = {
    ("hinge", 1e-6): -9.618636137231672,
    ("hinge", 1e-14): -4.996968690964433,
    ("hinge", 1e-22): -0.3917968956994784,
    ("flat_exp", 0.02): 0.024706972323474297,
    ("flat_exp", 3.0459959489425278e-10): 9.051078559925568,
}


@pytest.mark.parametrize("key", sorted(PINS, key=str))
def test_witness_regression_pins(key):
    family, param = key
    if family == "hinge":
        got = witnesses.hinge_witness(param).s_lb
    else:
        got = witnesses.flat_witness(FLAT_EXP_MODEL, param).s_lb
    assert got == pytest.approx(PINS[key], abs=1e-12, rel=1e-12)


# the disc legs that cap the flat and hinge witnesses' pairs from above
# must hold as upper bounds once floats round: each at least the exact leg.
# Flat radii: three moderate ones, the 128-point sweep lattice
# 0.02 e^-u with u evenly spaced in [0, 18], and deep ones
FLAT_LATTICE = [0.02 * math.exp(-18.0 * i / 127) for i in range(128)]
FLAT_LEG_RADII = {
    "flat_exp": [0.1, 0.05, 0.03, *FLAT_LATTICE, 1e-12, 1e-14],
    "flat_quartic": [0.1, 0.05, 0.03, *FLAT_LATTICE, 1e-12],
}


def _base_leg_exact(domain, h):
    # the z1 disc at z2 = 0 is tangent at z1 = 0, as base_leg takes it
    assert domain.z1_disc(0.0j) == DISC_RADIUS
    return oracle_gen.base_leg(h, DISC_RADIUS, BASE_POINT[0].real)


@pytest.mark.parametrize("name", sorted(FLAT_LEG_RADII))
def test_flat_disc_legs_bound_the_exact_legs(name):
    domain = MODELS[name]
    wrong = []
    for x in FLAT_LEG_RADII[name]:
        rep = witnesses.flat_witness(domain, x)
        slice_exact = oracle_gen.slice_leg(witnesses._ALPHA_PER_X * x)
        base_exact = _base_leg_exact(domain, oracle_gen.FLAT_HEIGHTS[name](x))
        for label, got, want in (
            ("ub_slice", dict(rep.terms)["ub_slice"], slice_exact),
            ("pq.hi", rep.bounds["pq"].hi, 2 * slice_exact),
            ("xw.hi", rep.bounds["xw"].hi, base_exact),
        ):
            # at least the exact leg, and within a relative 1e-12 of it
            if not want <= got <= want * (1 + mp_oracle.mpf(1e-12)):
                wrong.append(f"x={x!r} {label}: {got!r} against {mp_oracle.nstr(want, 20)}")
    assert not wrong, wrong


@pytest.mark.parametrize("name", sorted(FLAT_LEG_RADII))
def test_flat_ball_chain_legs_bound_the_exact_legs(name, monkeypatch):
    # the three disc legs of ub_interior_ball, recorded as the flat witness
    # prices them: each disc lies in the domain at 60 digits, and each leg
    # is at least the exact leg along it and within a relative 1e-12 of it
    domain = MODELS[name]
    psi = oracle_gen.FLAT_HEIGHTS[name]
    legs = []
    real_leg = convex._ub_real_leg

    def recording(x, y, c, r):
        legs.append(((x, y, c, r), real_leg(x, y, c, r)))
        return legs[-1][1]

    monkeypatch.setattr(convex, "_ub_real_leg", recording)
    wrong = []
    for x in FLAT_LEG_RADII[name]:
        legs.clear()
        witnesses.flat_witness(domain, x)
        ((c1, center, _, radius), leg_a), ((s, _, _, r), leg_b), (_, leg_c) = legs
        if not (center - radius >= psi(s) and psi(r) <= center and r <= 2):
            wrong.append(f"x={x!r}: a disc leaves the domain")
        exact = oracle_gen.flat_ball_chain(c1, s, center, r, radius)
        for label, got, want in zip(("leg_a", "leg_b", "leg_c"), (leg_a, leg_b, leg_c), exact):
            if not want <= got <= want * (1 + mp_oracle.mpf(1e-12)) + mp_oracle.mpf(1e-300):
                wrong.append(f"x={x!r} {label}: {got!r} against {mp_oracle.nstr(want, 20)}")
    assert not wrong, wrong


@pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-14, 1e-22, 1e-24])
def test_hinge_base_leg_bounds_the_exact_leg(delta):
    got = witnesses.hinge_witness(delta).bounds["xw"].hi
    assert got >= _base_leg_exact(HINGE_MODEL, delta)


# the two lower bounds that read the box and cap faces, against those
# faces at 60 digits, on points sampled up to 1e-9 from the boundary,
# where a face margin formed in round-to-nearest floats can land above the
# exact one
@pytest.mark.parametrize("name", sorted(MODELS))
def test_face_margins_bound_the_exact_face_distance(name):
    domain = MODELS[name]
    pts = sample_interior(domain, 1500, np.random.default_rng(1), margin=1e-9)
    z1, z2 = np.array([z[0] for z in pts]), np.array([z[1] for z in pts])
    cheap = domain.cheap_boundary_lower((z1, z2)).tolist()
    brackets = domain.boundary_distance_brackets(pts)
    above = []
    for z, lo_cheap, bracket in zip(pts, cheap, brackets):
        face = oracle_gen.face_distance(z)
        for label, lo in (("cheap", lo_cheap), ("bracket", bracket.lo)):
            if lo > face:
                above.append(f"{z}: {label} {lo!r} > {mp_oracle.nstr(face, 20)}")
    assert not above, (len(above), above[:5])


HINGE_DEEP = [10.0**-k for k in range(4, 32)]


@pytest.mark.parametrize("delta", HINGE_DEEP)
def test_hinge_rim_legs_bound_the_exact_legs(delta):
    # the chain from the analytic q and from the stored one, and the (p, q)
    # leg of the stored points (delta, -+fl(1 - delta)), at 60 digits
    rep = witnesses.hinge_witness(delta)
    rim = rep.quadruple[0][1].real
    chain = max(oracle_gen.hinge_chain(delta, DISC_RADIUS),
                oracle_gen.hinge_chain(delta, DISC_RADIUS, rim))
    pq = oracle_gen.hinge_pq(delta, rim)
    below = [
        f"{label}: {got!r} < {mp_oracle.nstr(want, 20)}"
        for label, got, want in (
            ("pw.hi", rep.bounds["pw"].hi, chain),
            ("qw.hi", rep.bounds["qw"].hi, chain),
            ("pq.hi", rep.bounds["pq"].hi, pq),
        )
        if got < want
    ]
    assert not below, below


def _radius_polygons():
    """(radii, piece lengths) blocks for ub_radius_integral: one piece
    with end ratios b/a from 1e-12 to 1e6, including a = b, at several
    scales, and random ones; sixteen pieces of random radii, from 1e-6
    to 2, and lengths."""
    rng = np.random.default_rng(14)
    r1, h1 = [], []
    for ratio in (1.0, 1e-12, 0.5, 1.0 - 1e-6, 2.0, 1e6):
        for a in (1e-9, 0.013, 0.37, 1.0, 1.9):
            for h in (1e-7, 0.1, 0.7, 3.0):
                r1.append([a, a * ratio])
                h1.append([h])
    # enough random pieces that some round below the exact value by more
    # than the one-float step alone covers
    r1 += np.exp(rng.uniform(math.log(1e-6), math.log(2.0), (4000, 2))).tolist()
    h1 += rng.uniform(0.0, 1.0, (4000, 1)).tolist()
    r16 = np.exp(rng.uniform(math.log(1e-6), math.log(2.0), (200, 17)))
    # neighbouring radii within 1/2 and 2 of each other, where q - 1 is exact
    r16[100:] = 0.5 * np.cumprod(rng.uniform(0.6, 1.6, (100, 17)), axis=1)
    h16 = rng.uniform(0.0, 0.5, (200, 16))
    return [(np.array(r1), np.array(h1)), (r16, h16)]


@pytest.mark.parametrize("block", _radius_polygons(), ids=["K=1", "K=16"])
def test_radius_integral_bounds_the_exact_integral(block):
    r, h = block
    got = ub_radius_integral(r, h)
    wrong = []
    for k, (rk, hk, total) in enumerate(zip(r.tolist(), h.tolist(), got.tolist())):
        exact = oracle_gen.radius_integral(rk, hk)
        if not exact <= total <= exact * (1 + mp_oracle.mpf(1e-12)):
            wrong.append(f"polygon {k}: {total!r} against {mp_oracle.nstr(exact, 20)}")
    assert not wrong, wrong[:5]


def test_chain_pieces_bound_the_exact_lengths():
    # segments of C^2 with steps from a few ulps of their coordinates to 3,
    # where the differences and the hypots round: each piece is at least the
    # exact distance between its two float nodes, and one of length 0 costs 0
    rng = np.random.default_rng(15)
    below, zero = [], []
    for scale in (1e-15, 1e-12, 1e-6, 1e-3, 1.0, 3.0):
        z = rng.uniform(-1.5, 1.5, (100, 4)).view(complex)
        w = z + scale * rng.uniform(-1.0, 1.0, (100, 4)).view(complex)
        nodes, h = convex.chain_polygon(z, w)
        for k, (ends, lengths) in enumerate(zip(nodes.view(float).tolist(), h.tolist())):
            for j, length in enumerate(lengths):
                a, b = ends[j], ends[j + 1]
                exact = mp_oracle.sqrt(sum((mp_oracle.mpf(x) - y) ** 2 for x, y in zip(a, b)))
                if not length >= exact:
                    below.append(f"scale {scale}, pair {k}, piece {j}: {length!r}")
                if (exact == 0) != (length == 0.0):
                    zero.append((scale, k, j))
    assert not below, (len(below), below[:5])
    assert not zero, zero[:5]


# gn parameters near the boundary: ten points of the perfbench gn lattice
# and its edge point 1 - 1e-6, where a round trip of the lifts through
# (s, p) once made the pair enclosures cross, and three deeper ones down to
# the last float below 1
GN_DEEP = (
    0.9986072462056359,
    0.999015045378817,
    0.9990809879590864,
    0.9992534985813551,
    0.9993034823140653,
    0.9993501203580076,
    0.9996267341651909,
    0.99969681659832,
    0.9997537423422765,
    0.9998585712390334,
    1.0 - 1e-6,
    1.0 - 1e-8,
    1.0 - 1e-12,
    1.0 - 1.1e-16,
)


@pytest.mark.parametrize("a", GN_DEEP)
def test_gn_witness_certifies_near_the_boundary(a):
    rep = witnesses.gn_witness(a)
    assert rep.s_lb <= float(oracle_gen.gn_s_lb(a)) + 4 * math.ulp(rep.s_lb)


# gn's legs to the origin against their closed forms, from the smallest
# parameters (where a cancelling form of the maps' numerator refuses (q, w),
# or lifts its lower end above atanh(a^2)) to the last floats below 1
GN_LEGS_A = sorted({*np.geomspace(1e-300, 0.5, 60).tolist(),
                    *np.geomspace(1e-8, 0.999, 40).tolist(),
                    *(1.0 - np.geomspace(1e-16, 0.5, 30)).tolist()})


def test_gn_legs_to_the_origin_enclose_their_closed_forms():
    wrong = []
    for a in GN_LEGS_A:
        try:
            rep = witnesses.gn_witness(a)
        except (convex.CertificateError, ValueError) as e:
            wrong.append(f"a={a!r} refused: {e}")
            continue
        for key, exact_leg in oracle_gen.gn_legs(a).items():
            b = rep.bounds[key]
            if not b.lo <= exact_leg <= b.hi:
                wrong.append(f"a={a!r} {key}: [{b.lo!r}, {b.hi!r}] misses "
                             f"{mp_oracle.nstr(exact_leg, 20)}")
    assert not wrong, (len(wrong), wrong[:5])


# tetra's deep end, down to the last float below 1: its legs are bidisc
# legs, so no float point of the tetrablock is formed
TETRA_DEEP = (1.0 - 1e-6, 1.0 - 1e-8, 1.0 - 1e-12, math.nextafter(1.0, 0.0))


# each family's float S_lb against the interval enclosure of its formula
# at the witness's exact inputs (oracle_gen, mpmath.iv at 60 digits): S_lb
# must sit at or below the enclosure's lower end, and so must each lower
# term that rounds through gromovlab.rounding alone, while each such upper
# term sits at or above its enclosure's upper end.  A point the witness
# refuses reports no S_lb.  At two of these points S_lb is above its
# formula, so it is not yet a certified lower bound there: it keeps a
# nearest-rounded cancellation whose bits perfbench's reference table
# records (ROADMAP items 3 and 5); OVER_REPORTS below lists every such
# point of the benchmark's lattices
_REFERENCE_BOUND = pytest.mark.xfail(
    strict=True, reason="S_lb exceeds its formula here; the fix moves perfbench's reference S_lb")
ENCLOSURE_POINTS = [
    *(("hinge", d) for d in (1e-4, 1e-12)),
    pytest.param("hinge", 1e-22, marks=_REFERENCE_BOUND),
    ("hinge", 1e-31),
    *((name, x) for name in ("flat_exp", "flat_quartic") for x in (0.02, 1e-4, 1e-10, 1e-14)
      if (name, x) != ("flat_exp", 1e-10)),
    pytest.param("flat_exp", 1e-10, marks=_REFERENCE_BOUND),
    *(("gn", a) for a in (0.5, 0.7309, 0.9999, 1.0 - 1e-12)),
    *(("tetra", a) for a in (0.5, 0.9999, 0.999995) + TETRA_DEEP),
]
# the one point the witness refuses: psi(t1)/psi(x) rounds to 1 there
REFUSED = {("flat_quartic", 1e-14)}
# the terms checked on their own: (report term or bound, its side)
ROUTED_TERMS = {
    "hinge": [("lb_ratio", "lower"), ("ub_chain", "upper")],
    "flat": [("lb_half", "lower"), ("ub_slice", "upper")],
    "gn": [("lb_mid", "lower"), ("shift", "lower")],
    "tetra": [("xw.lo", "lower"), ("pq.lo", "lower"), ("pw.hi", "upper")],
}


def _flat_report_and_terms(name, x, monkeypatch):
    # the flat formula reads the float discs of the ball chain, recorded
    # as the witness prices them
    domain = MODELS[name]
    legs = []
    real_leg = convex._ub_real_leg

    def recording(*args):
        legs.append(args)
        return real_leg(*args)

    monkeypatch.setattr(convex, "_ub_real_leg", recording)
    rep = witnesses.flat_witness(domain, x)
    (c1, center, _, radius), (s, _, _, r), _ = legs
    (base,) = domain.boundary_distance_brackets([BASE_POINT])
    inputs = (name, x, witnesses._ALPHA_PER_X * x, base.lo,
              (c1, s, center, r, radius), domain.ball_radius)
    iv = oracle_gen.iv
    return rep, oracle_gen.flat_s_lb(*inputs, ctx=iv), oracle_gen.flat_terms(*inputs, ctx=iv)


def _report_and_enclosures(family, param, monkeypatch):
    """The report, the enclosure of its S_lb formula, and the enclosures
    of its terms."""
    iv = oracle_gen.iv
    if family == "hinge":
        rep = witnesses.hinge_witness(param)
        return (rep, oracle_gen.hinge_s_lb(param, DISC_RADIUS, iv),
                oracle_gen.hinge_terms(param, DISC_RADIUS, iv))
    if family == "gn":
        return witnesses.gn_witness(param), oracle_gen.gn_s_lb(param, iv), oracle_gen.gn_terms(param, iv)
    if family == "tetra":
        defect = oracle_gen.tetra_defect(param, iv)
        rep = witnesses.tetra_witness(param)
        return rep, defect, {"xw.lo": defect, "pq.lo": 2 * defect, "pw.hi": defect}
    return _flat_report_and_terms(family, param, monkeypatch)


@pytest.mark.parametrize("family, param", ENCLOSURE_POINTS)
def test_s_lb_is_at_most_its_interval_enclosure(family, param, monkeypatch):
    iv = oracle_gen.iv
    try:
        rep, enclosure, exact_terms = _report_and_enclosures(family, param, monkeypatch)
    except (convex.CertificateError, exact.OracleError, ValueError) as e:
        assert (family, param) in REFUSED, f"refused: {e!r}"
        return
    assert (family, param) not in REFUSED
    got = dict(rep.terms) | {f"{k}.{end}": getattr(b, end)
                             for k, b in rep.bounds.items() for end in ("lo", "hi")}
    wrong = [] if iv.mpf(rep.s_lb) <= enclosure.a else [
        f"S_lb {rep.s_lb!r} above {mp_oracle.nstr(enclosure.a, 20)}"]
    for name, side in ROUTED_TERMS[family.split("_")[0]]:
        ok = iv.mpf(got[name]) <= exact_terms[name].a if side == "lower" else \
            iv.mpf(got[name]) >= exact_terms[name].b
        if not ok:
            wrong.append(f"{side} term {name} {got[name]!r} against {exact_terms[name]}")
    assert not wrong, wrong


def _spaced(lo, hi, k=128):
    return [lo + (hi - lo) * i / (k - 1) for i in range(k)]


# the benchmark's parameter lattices, ascending, written out here so that
# the suite reads nothing of the benchmark harness
_ATANH_AXIS = [math.tanh(u) for u in _spaced(math.atanh(0.5), math.atanh(0.9999))]
LATTICES = {
    "gn": _ATANH_AXIS,
    "tetra": _ATANH_AXIS,
    "hinge": sorted(math.exp(-u) for u in _spaced(math.log(1e4), math.log(1e22))),
    "flat_exp": sorted(0.02 * math.exp(-u) for u in _spaced(0.0, 18.0)),
    "flat_quartic": sorted(0.02 * math.exp(-u) for u in _spaced(0.0, 18.0)),
}
# lattice indices whose S_lb lies above the interval enclosure of its own
# formula (ROADMAP item 3's known gaps); a change that mends a point takes
# it out of its row
OVER_REPORTS = {
    "gn": set(),
    "tetra": set(),
    "hinge": {0, 9, 19, 21, 27, 30, 36, 43, 44, 53, 54, 58, 60, 63, 69, 73, 79, 80, 85, 93, 95,
              107, 108, 112},
    "flat_exp": {3, 8, 9, *range(12, 20), 21, 22, *range(28, 33), 39, 40},
    "flat_quartic": {1, 4, 5, 8, 10, 13, 16, 17, 19, *range(21, 26), 27, *range(31, 39), 40, 44,
                     50},
}


@pytest.mark.parametrize("family", sorted(LATTICES))
def test_lattice_over_reports_are_the_recorded_ones(family, monkeypatch):
    over = set()
    for i, param in enumerate(LATTICES[family]):
        rep, enclosure, _ = _report_and_enclosures(family, param, monkeypatch)
        if oracle_gen.iv.mpf(rep.s_lb) > enclosure.a:
            over.add(i)
    assert over == OVER_REPORTS[family]


# tetra: five royal legs atanh(a) and the long leg 2 atanh(a), each rounded
# outward, so s_lb stays at or below the exact defect atanh(a)
TETRA_A = [0.5 + (0.9999 - 0.5) * k / 999 for k in range(1000)] + list(TETRA_DEEP)


def test_tetra_s_lb_is_at_most_the_exact_defect():
    above = []
    with mp_oracle.workdps(50):
        for a in TETRA_A:
            rep = witnesses.tetra_witness(a)
            exact = mp_oracle.atanh(mp_oracle.mpf(a))
            if rep.s_lb > exact:
                above.append(a)
            for key, want in (("pq", 2 * exact), ("xw", exact)):
                if not rep.bounds[key].lo <= want <= rep.bounds[key].hi:
                    above.append((a, key))
    assert not above, (len(above), above[:5])


# the bidisc is a retract of the tetrablock: F(z) = (z1, z2, z1 z2) maps it
# in, since the tetrablock's slack at F(z) factors with every factor
# positive, and (x1, x2) maps the tetrablock back, since it lies over the
# open bidisc
def test_tetra_slack_factors_on_the_bidisc_slice():
    mp = oracle_gen.mp
    rnd = random.Random(36)
    near_rim = [1 - mp.mpf(10) ** -k for k in (3, 8, 16, 30)]
    radii = [(mp.mpf(rnd.random()), mp.mpf(rnd.random())) for _ in range(200)]
    radii += [(r, s) for r in near_rim for s in (0, mp.mpf("0.5"), *near_rim)]
    wrong = []
    for r1, r2 in radii:
        for z in ((r1, -r2), (mp.rect(r1, rnd.uniform(-3, 3)), mp.rect(r2, rnd.uniform(-3, 3)))):
            gap = oracle_gen.tetra_slack((*z, z[0] * z[1])) - oracle_gen.bidisc_slack(z)
            if abs(gap) > mp.mpf(10) ** -50:
                wrong.append((z, gap))
    assert not wrong, (len(wrong), wrong[:5])


def test_points_drawn_in_the_tetrablock_lie_over_the_open_bidisc():
    draws = oracle_gen.tetrablock_draws(4000, seed=36)
    inside = [x for x in draws if oracle_gen.tetra_slack(x) > 0]
    # a draw off the closed bidisc exists to be refused, and most are kept
    assert any(max(abs(x[0]), abs(x[1])) >= 1 for x in draws)
    assert len(inside) > len(draws) // 2
    over = [x for x in inside if max(abs(x[0]), abs(x[1])) >= 1]
    assert not over, (len(over), over[:5])


# exp_flat's psi' = e^{-1/t}/t^2: only -1/t's rounding is amplified, by 1/t,
# so it errs by under 2^-53 (1/t + 4), plus an ulp of a subnormal e^{-1/t}
# divided by t^2 where that underflows
EXP_DERIV_T = [1e-3 + (0.25 - 1e-3) * k / 2999 for k in range(3000)] + [0.04096]


def test_exp_deriv_rounding_is_bounded():
    t = np.array(EXP_DERIV_T)
    wrong = []
    for v, scalar, twin in zip(EXP_DERIV_T, [EXP_FLAT.deriv(v) for v in EXP_DERIV_T],
                               EXP_FLAT.deriv(t).tolist()):
        exact = oracle_gen.exp_flat_deriv(v)
        bound = 2.0**-53 * (1.0 / v + 4.0) * exact + 2.0**-1074 / (v * v)
        for label, got in (("scalar", scalar), ("array", twin)):
            if abs(got - exact) > bound:
                wrong.append(f"{label} t={v!r}: {got!r} against {mp_oracle.nstr(exact, 20)}")
    assert not wrong, (len(wrong), wrong[:5])
