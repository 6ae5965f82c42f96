"""Certified bounds on the convex profile domains."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_gen
from gromovlab import convex, verify
from gromovlab.convex import (
    BASE_POINT,
    BOX,
    DISC_RADIUS,
    Z2_CAP,
    CertificateError,
    TangentHalfspaceCert,
    lb_boundary_ratio_log,
    lb_crossing_split,
    ub_base_chain,
    ub_interior_ball,
    ub_radius_integral,
    ub_slice_discs,
)
from gromovlab.models import (
    FLAT_EXP_MODEL,
    FLAT_QUARTIC_MODEL,
    HINGE_MODEL,
    MODELS,
    curvature_margin,
    sample_interior,
)
from gromovlab.witnesses import flat_witness

ALL = (HINGE_MODEL, FLAT_EXP_MODEL, FLAT_QUARTIC_MODEL)


def _ratio_lower(bz, bw):
    """The boundary-ratio lower bound from two brackets, in both orders."""
    return max(lb_boundary_ratio_log(math.log(bz.hi), math.log(bw.lo)),
               lb_boundary_ratio_log(math.log(bw.hi), math.log(bz.lo)))


# -- membership and sampling -------------------------------------------------

def test_contains_base_point():
    for m in ALL:
        assert m.contains(BASE_POINT)
        assert not m.contains((-1.0 + 0.0j, 0.0j))


@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
def test_box_faces_bound_every_model(m):
    # Re z1 < 3 and |Im z1| < 3, open, just inside and just outside
    eps = 1e-9
    assert m.contains((complex(3.0 - eps), 0.0j))
    assert not m.contains((3.0 + 0.0j, 0.0j))
    assert not m.contains((complex(3.0 + eps), 0.0j))
    for sign in (1.0, -1.0):
        assert m.contains((complex(1.0, sign * (3.0 - eps)), 0.0j))
        assert not m.contains((complex(1.0, sign * 3.0), 0.0j))
        assert not m.contains((complex(1.0, sign * (3.0 + eps)), 0.0j))


@pytest.mark.parametrize("m", [HINGE_MODEL, FLAT_EXP_MODEL], ids=lambda m: m.name)
def test_radial_cap_bounds_above_psi_of_two(m):
    # psi(2) is 1 on the hinge and 127 e^-4 ~ 2.33 on flat_exp, so at
    # height 2.9 only the cap |z2| < 2 binds
    eps = 1e-9
    assert m.profile.value(2.0 + eps) < 2.9
    for phase in (1.0, 1j, -1.0, complex(0.6, -0.8)):
        assert m.contains((2.9 + 0.0j, (2.0 - eps) * phase))
        assert not m.contains((2.9 + 0.0j, (2.0 + eps) * phase))


@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
def test_profile_binds_before_cap_below_psi_of_two(m):
    # below the height psi(2) the profile refuses points inside the cap
    # (on flat_quartic psi(2) = 16 lies above the box, so everywhere)
    x1 = min(m.profile.value(2.0), 3.0) - 0.1
    assert not m.contains((complex(x1), 2.0 - 1e-9 + 0.0j))
    assert m.contains((complex(x1), complex(m.profile.inverse(x1) - 1e-9)))


def test_box_is_the_nearest_face_on_hinge():
    (b,), _ = HINGE_MODEL.boundary_distance_brackets([(2.9 + 0.0j, 0.0j)])
    assert b.lo == b.hi == 3.0 - 2.9


def test_sample_interior_respects_margin(rng):
    # on each point, and on the block of them
    for m in ALL:
        for margin in (1e-9, 1e-3, 0.05, 0.3):
            pts = sample_interior(m, 40, rng, margin=margin)
            assert len(pts) == 40
            for z in pts:
                assert m.contains(z, slack=-margin)
            z = np.array(pts)
            assert m.contains((z[:, 0], z[:, 1]), slack=-margin).all()


# tries from around the sampler's box
_try = st.tuples(st.floats(-0.5, 3.5), st.floats(-3.5, 3.5), st.floats(-2.5, 2.5),
                 st.floats(-2.5, 2.5))


@settings(max_examples=40)
@given(
    m=st.sampled_from(ALL),
    raw=st.lists(_try, min_size=1, max_size=40),
    margin=st.sampled_from([1e-6, 1e-3, 0.02, 0.3]),
)
def test_contains_on_a_block_is_contains_on_each_point(m, raw, margin):
    # numpy's profile and libm's differ by ulps, so the points keep every
    # face margin at least 1e-9 off both thresholds
    def clear(z):
        s = abs(z[1])
        faces = (z[0].real - m.profile.value(s), Z2_CAP - s, BOX - z[0].real,
                 BOX - abs(z[0].imag))
        return all(abs(f - t) >= 1e-9 for f in faces for t in (0.0, margin))

    pts = [z for z in ((complex(a, b), complex(c, d)) for a, b, c, d in raw) if clear(z)]
    z1 = np.array([z[0] for z in pts], dtype=complex)
    z2 = np.array([z[1] for z in pts], dtype=complex)
    for slack in (0.0, -margin):
        assert m.contains((z1, z2), slack).tolist() == [m.contains(z, slack) for z in pts]


def _sample_one_try_at_a_time(domain, n, rng, margin):
    # the sampler as it drew before its tries came in blocks
    out = []
    for _ in range(200 * n):
        if len(out) >= n:
            break
        z = (
            complex(rng.uniform(0.0, BOX), rng.uniform(-BOX, BOX)),
            complex(rng.uniform(-Z2_CAP, Z2_CAP), rng.uniform(-Z2_CAP, Z2_CAP)),
        )
        if domain.contains(z, slack=-margin):
            out.append(z)
    return out


@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
def test_sample_interior_draws_as_one_try_at_a_time(m):
    for seed in range(12):
        for n, margin in ((1, 1e-6), (7, 0.3), (60, 1e-3), (120, 0.02)):
            ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert sample_interior(m, n, rng, margin).tolist() == [
                list(z) for z in _sample_one_try_at_a_time(m, n, ref, margin)
            ]


def test_hinge_profile_vanishes_below_one():
    assert HINGE_MODEL.profile.value(0.7) == 0.0
    assert HINGE_MODEL.profile.value(1.3) == pytest.approx(0.09)


# -- boundary distance brackets ----------------------------------------------

def test_hinge_bracket_is_exact():
    (b,), _ = HINGE_MODEL.boundary_distance_brackets([(0.5 + 0.0j, 0.2 + 0.0j)])
    assert b.lo == b.hi == pytest.approx(0.5)


# oracle_gen.hinge_boundary_distance(0.5, 1.5) at 60 digits, rounded once:
# test_oracles.py's anchor "hinge boundary (0.5, 1.5)", re-derived there
HINGE_KINK_DISTANCE = 0.16592048182615238


def test_hinge_bracket_past_the_kink():
    # above t = 1 the parabola arc comes closer than the flat facet
    (b,), cut = HINGE_MODEL.boundary_distance_brackets([(0.5 + 0.0j, 0.0 + 1.5j)])
    assert b.lo <= HINGE_KINK_DISTANCE <= b.hi < 0.5
    assert not cut[0]


@pytest.mark.parametrize("m", [FLAT_EXP_MODEL, FLAT_QUARTIC_MODEL], ids=lambda m: m.name)
def test_bracket_orders_and_covers_vertical_drop(m):
    z = (0.3 + 0.0j, 0.5 + 0.0j)
    (b,), _ = m.boundary_distance_brackets([z])
    assert 0.0 < b.lo <= b.hi
    # the vertical drop to the graph is one admissible path
    assert b.lo <= 0.3 - m.profile.value(0.5) + 1e-12


def test_bracket_tiny_scale_offset_point():
    # squared distances near 1e-45: the straddling cell sits at float
    # resolution and must still certify through the interval bound
    x = 0.02
    px1 = FLAT_EXP_MODEL.profile.value(x)
    z = (complex(px1), complex(0.993 * x))
    (b,), _ = FLAT_EXP_MODEL.boundary_distance_brackets([z])
    assert b.lo > 0.0
    assert (b.hi - b.lo) / b.lo < 1e-3


def test_bracket_rejects_exterior_point():
    with pytest.raises(CertificateError):
        FLAT_QUARTIC_MODEL.boundary_distance_brackets([(0.3 + 0.0j, 1.5 + 0.0j)])


@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
@pytest.mark.parametrize("where", [0, 20, 39])
def test_block_with_an_exterior_point_is_refused_by_index(m, where, rng):
    pts = sample_interior(m, 40, rng, margin=0.02)
    pts[where] = (-0.5 + 0.0j, 0.0j)
    with pytest.raises(CertificateError, match=f"point {where} of the block"):
        m.boundary_distance_brackets(pts)


# the bracket at BASE_POINT as hex (lo, hi), bit-exact; the
# flat witnesses' ratio bounds read these brackets
BASE_BRACKET_PINS = {
    "hinge": ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    "flat_exp": ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    "flat_quartic": ("0x1.ecd7a9ee8212cp-1", "0x1.ecddf4878171bp-1"),
}


@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
def test_base_point_bracket_pinned(m):
    (b,), _ = m.boundary_distance_brackets([BASE_POINT])
    assert (b.lo.hex(), b.hi.hex()) == BASE_BRACKET_PINS[m.name]


@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
def test_bracket_ends_without_an_empty_round(m):
    # the branch and bound stops after the round that splits nothing, so
    # the profile never runs on an empty array; the bits stay
    value = m.profile.value

    def refuse_empty(t):
        if isinstance(t, np.ndarray) and not t.size:
            raise AssertionError("profile evaluated on an empty array")
        return value(t)

    strict = dataclasses.replace(m, profile=dataclasses.replace(m.profile, value=refuse_empty))
    (b,), _ = strict.boundary_distance_brackets([BASE_POINT])
    assert (b.lo.hex(), b.hi.hex()) == BASE_BRACKET_PINS[m.name]
    pts = sample_interior(m, 40, np.random.default_rng(5), margin=0.02)
    got, got_cut = strict.boundary_distance_brackets(pts)
    want, want_cut = m.boundary_distance_brackets(pts)
    assert [_bits(b) for b in got] == [_bits(b) for b in want]
    assert got_cut.tolist() == want_cut.tolist()


_interior = st.tuples(
    st.floats(min_value=0.02, max_value=2.95),
    st.floats(min_value=-2.9, max_value=2.9),
    st.floats(min_value=0.0, max_value=1.95),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)


def _interior_points(m, raw):
    pts = [(complex(x1, y1), r * complex(math.cos(th), math.sin(th))) for x1, y1, r, th in raw]
    return [z for z in pts if m.contains(z, slack=-1e-6)]


def _bits(bracket):
    return bracket.lo.hex(), bracket.hi.hex()


@settings(max_examples=8)
@given(
    m=st.sampled_from(ALL),
    raw=st.lists(_interior, min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_bracket_bits_do_not_depend_on_the_block(m, raw, seed):
    pts = _interior_points(m, raw)
    if not pts:
        return
    alone = [m.boundary_distance_brackets([z]) for z in pts]
    alone = [(_bits(b[0]), bool(cut[0])) for b, cut in alone]
    block, cut = m.boundary_distance_brackets(pts)
    assert [(_bits(b), bool(c)) for b, c in zip(block, cut)] == alone
    order = np.random.default_rng(seed).permutation(len(pts))
    shuffled, cut = m.boundary_distance_brackets([pts[k] for k in order])
    assert [(_bits(b), bool(c)) for b, c in zip(shuffled, cut)] == [alone[k] for k in order]


@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
def test_bracket_bits_alone_and_in_one_block_of_sampled_points(m):
    # the bracket runs one branch and bound over the whole block
    pts = sample_interior(m, 120, np.random.default_rng(16), margin=0.02)
    block, cut = m.boundary_distance_brackets(pts)
    alone = [m.boundary_distance_brackets([z]) for z in pts]
    assert [(_bits(b), bool(c)) for b, c in zip(block, cut)] == [
        (_bits(b[0]), bool(c[0])) for b, c in alone
    ]


def _sandwich_draw(m):
    # the points verify's bound-sandwich suite brackets on m at its default seed
    rng = np.random.default_rng(verify.VerifyContext().seed + 3)
    for domain in MODELS.values():
        pts, _, _ = verify._sample_pairs(domain, rng, 120, 1000)
        if domain is m:
            return pts


def _interior_ball_cases(m):
    # the points verify's interior-ball suite brackets on m besides the base point
    cases = []
    for t1 in (0.0, 0.4 * m.ball_contact_cap, m.ball_contact_cap):
        psi = m.profile.value(t1)
        cases += [z for h in (1e-3, 1e-6) if m.contains(z := (complex(psi + h), complex(t1)))]
    return cases


def test_hinge_bracket_lower_end_encloses_the_distance():
    # the hinge's bracket against its exact boundary distance, the nearer of
    # the profile graph and the box and cap faces at 60 digits, on every
    # point verify brackets on the hinge, the near-rim cases t1 = 1.2 among them
    cases = _interior_ball_cases(HINGE_MODEL)
    assert len(cases) == 6
    pts = [*_sandwich_draw(HINGE_MODEL), *cases]
    brackets, cut = HINGE_MODEL.boundary_distance_brackets(pts)
    assert not cut.any()
    wrong = []
    for z, b in zip(pts, brackets):
        s = oracle_gen.mp.hypot(z[1].real, z[1].imag)
        exact = min(oracle_gen.hinge_boundary_distance(z[0].real, s), oracle_gen.face_distance(z))
        if not (b.lo <= exact and b.hi - b.lo <= 1e-4 * b.hi):
            wrong.append((z, b, oracle_gen.mp.nstr(exact, 20)))
    assert not wrong, (len(wrong), wrong[:3])


@settings(max_examples=10)
@given(
    m=st.sampled_from(ALL),
    raw=st.lists(_interior, max_size=40),
)
def test_ceiling_keeps_the_bits_of_the_uncapped_search(m, raw):
    # the face distance caps the branch and bound; bracketing the profile
    # with no ceiling and taking the faces afterwards gives the same bits
    pts = [*_interior_points(m, raw), *_sandwich_draw(m)]
    got, got_cut = m.boundary_distance_brackets(pts)
    z = np.array(pts)
    x1, y1, s = z[:, 0].real, z[:, 0].imag, np.hypot(z[:, 1].real, z[:, 1].imag)
    faces = np.minimum(np.minimum(BOX - x1, BOX - np.abs(y1)), Z2_CAP - s)
    assert (np.sqrt(faces * faces) == faces).all()
    lo, hi, cut = m._profile_distance_block(x1, s, ceiling=math.inf)
    # a point that stops at its ceiling keeps a cover of the graph distance
    capped_lo, capped_hi, _ = m._profile_distance_block(x1, s, ceiling=faces * faces)
    assert (capped_lo <= lo).all() and (capped_hi >= hi).all()
    lo = np.minimum(convex._face_margin_lower(x1, y1, s), lo)
    want = [(a.hex(), b.hex()) for a, b in zip(lo.tolist(), np.minimum(faces, hi).tolist())]
    assert [_bits(b) for b in got] == want
    assert got_cut.tolist() == cut.tolist()


def test_face_decided_point_settles_in_the_uniform_pass():
    # at (2.95, 0) the box face is 0.05 away and the flat_exp graph much
    # farther, so no uniform-pass cell bound falls below the squared face
    # distance: the profile runs on arrays for the membership test, the
    # ends and the uniform pass, and for no later round
    m = FLAT_EXP_MODEL
    value, shapes = m.profile.value, []

    def spy(t):
        if isinstance(t, np.ndarray):
            shapes.append(t.shape)
        return value(t)

    spied = dataclasses.replace(m, profile=dataclasses.replace(m.profile, value=spy))
    (b,), cut = spied.boundary_distance_brackets([(2.95 + 0.0j, 0.0j)])
    assert shapes == [(1,), (1,), (1, convex._BB_COARSE + 1)]
    assert b.lo == b.hi == BOX - 2.95
    assert not cut[0]


@settings(max_examples=15)
@given(
    m=st.sampled_from(ALL),
    raw=st.lists(st.tuples(_interior, _interior), min_size=1, max_size=24),
    seed=st.integers(0, 2**32 - 1),
)
def test_chain_bits_do_not_depend_on_the_block(m, raw, seed):
    pairs = [(z, w) for z, w in ((_interior_points(m, [a]), _interior_points(m, [b]))
                                  for a, b in raw) if z and w]
    if not pairs:
        return
    zs, ws = [z[0] for z, _ in pairs], [w[0] for _, w in pairs]
    alone = [m.ub_euclidean_chain([z], [w])[0].hex() for z, w in zip(zs, ws)]
    assert [v.hex() for v in m.ub_euclidean_chain(zs, ws)] == alone
    order = np.random.default_rng(seed).permutation(len(zs))
    shuffled = m.ub_euclidean_chain([zs[k] for k in order], [ws[k] for k in order])
    assert [v.hex() for v in shuffled] == [alone[k] for k in order]


def test_chain_polygon_on_float_planes_matches_the_complex_formulation():
    # the nodes as complex arithmetic forms them: equal, but for the sign of
    # a zero, and so the piece lengths keep their bits
    def complex_polygon(z, w):
        frac = np.arange(convex._CHAIN_PIECES + 1)[:, None] / convex._CHAIN_PIECES
        nodes = z[:, None, :] + frac * (w - z)[:, None, :]
        nodes[:, 0], nodes[:, -1] = z, w
        step = np.diff(nodes, axis=1)
        h = np.hypot(np.hypot(step[..., 0].real, step[..., 0].imag),
                     np.hypot(step[..., 1].real, step[..., 1].imag))
        return nodes, np.where(h > 0.0, convex.up(h, convex._CHAIN_FLOATS), h)

    rng = np.random.default_rng(21)
    z = rng.uniform(-2.0, 2.0, (300, 4))
    w = z + rng.uniform(-1.0, 1.0, (300, 4)) * 10.0 ** rng.integers(-15, 1, (300, 1))
    w[:40] = z[:40]  # zero-length pieces
    w[40:80, ::2] = z[40:80, ::2]  # equal real parts
    # signed-zero ends: every coordinate +0 or -0 on one side or both
    zeros = rng.choice([0.0, -0.0], (120, 4))
    z[80:140] = zeros[:60]
    w[110:170] = zeros[60:]
    z, w = z.view(complex), w.view(complex)
    nodes, h = convex.chain_polygon(z, w)
    want_nodes, want_h = complex_polygon(z, w)
    assert nodes.shape == want_nodes.shape
    assert (nodes == want_nodes).all()
    assert (h.view(np.int64) == want_h.view(np.int64)).all()


def test_bracket_cut_short_still_encloses_and_says_so(monkeypatch):
    # flat_quartic's base-point bracket needs splits: with the cap at one
    # split it stops after the uniform pass, still an enclosure of the
    # distance to the graph, and every caller reports it
    m = FLAT_QUARTIC_MODEL
    (full,), cut = m.boundary_distance_brackets([BASE_POINT])
    assert not cut[0]
    monkeypatch.setattr(convex, "_BB_MAX_ITER", 1)
    (short,), cut = m.boundary_distance_brackets([BASE_POINT])
    assert cut[0]
    t = np.linspace(0.0, 2.0, 400001)
    grid_min = float(np.sqrt(np.min((1.0 - m.profile.value(t)) ** 2 + t * t)))
    assert short.lo <= full.lo <= grid_min <= full.hi <= short.hi
    assert (short.lo, short.hi) != (full.lo, full.hi)

    with pytest.raises(CertificateError, match="checks failed: base-point bracket converged"):
        flat_witness(m, 0.02)
    ctx = verify.VerifyContext()
    for suite in (verify.suite_bound_sandwich, verify.suite_interior_ball):
        assert any("boundary bracket cut short" in f for f in suite(ctx))


def test_a_crossing_below_a_billionth_fails_the_sandwich_suites(monkeypatch):
    # each suite's certified upper bound placed 1e-10 below its ratio lower
    # bound, on one pair: the ends round outward, so no tolerance forgives it
    real_chain = convex.ModelDomain.ub_euclidean_chain

    def chain(self, zs, ws):
        uppers = real_chain(self, zs, ws)
        uppers[0] = _ratio_lower(*self.boundary_distance_brackets([zs[0], ws[0]])[0]) - 1e-10
        return uppers

    def ball(domain, z, log_g):
        return _ratio_lower(*domain.boundary_distance_brackets([z, BASE_POINT])[0]) - 1e-10

    monkeypatch.setattr(convex.ModelDomain, "ub_euclidean_chain", chain)
    monkeypatch.setattr(verify, "ub_interior_ball", ball)
    results = {r.name: r for r in verify.run_all()}
    assert not results["bound-sandwich"].passed
    assert "exceeds upper" in results["bound-sandwich"].detail
    assert not results["interior-ball"].passed
    assert "below ratio bound" in results["interior-ball"].detail


@given(
    x1=st.floats(min_value=0.05, max_value=2.5),
    t=st.floats(min_value=0.0, max_value=1.8),
)
def test_cheap_lower_never_beats_bracket(x1, t):
    for m in ALL:
        z = (complex(x1), complex(t))
        if not m.contains(z, slack=-1e-6):
            continue
        cheap = m.cheap_boundary_lower(z)
        (b,), _ = m.boundary_distance_brackets([z])
        assert cheap <= b.hi * (1.0 + 1e-9)
        assert b.lo <= b.hi


# -- chain upper bounds vs ratio lower bounds ---------------------------------

@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
def test_sandwich_on_random_pairs(m, rng):
    pts = sample_interior(m, 12, rng, margin=0.02)
    ubs = m.ub_euclidean_chain(pts[0::2], pts[1::2])
    for i, ub in zip(range(0, 12, 2), ubs):
        z, w = pts[i], pts[i + 1]
        lb = _ratio_lower(*m.boundary_distance_brackets([z, w])[0])
        assert lb <= ub + 1e-9


def test_ratio_log_formula():
    assert lb_boundary_ratio_log(math.log(0.1), math.log(0.4)) == pytest.approx(
        0.5 * math.log(4.0)
    )
    # no positive part: bound degrades to zero
    assert lb_boundary_ratio_log(math.log(0.4), math.log(0.1)) == 0.0


def test_ratio_log_on_arrays_matches_floats(rng):
    log_z, log_w = rng.normal(size=(2, 200))
    log_w[:20] = log_z[:20]  # no gap: the bound is zero
    got = lb_boundary_ratio_log(log_z, log_w)
    want = [lb_boundary_ratio_log(a, b) for a, b in zip(log_z.tolist(), log_w.tolist())]
    assert got.tobytes() == np.array(want).tobytes()


def test_radius_integral_refuses_a_node_without_radius():
    h = np.array([[0.1, 0.1]])
    for bad in (0.0, -1e-3, math.nan):
        with pytest.raises(CertificateError, match="node 1 of chain 0"):
            ub_radius_integral(np.array([[0.5, bad, 0.5]]), h)


def test_chain_upper_bound_basics(rng):
    # the greedy chain is direction-dependent; each direction is a bound
    m = FLAT_EXP_MODEL
    pts = sample_interior(m, 2, rng, margin=0.1)
    z, w = pts
    assert m.ub_euclidean_chain([z], [z])[0] == 0.0
    fwd, bwd = m.ub_euclidean_chain([z, w], [w, z])
    assert fwd > 0.0 and bwd > 0.0
    lb = _ratio_lower(*m.boundary_distance_brackets([z, w])[0])
    assert min(fwd, bwd) >= lb - 1e-9


# -- tangent half-space certificates ------------------------------------------

def test_tangent_cert_verifies_on_positive_part():
    m = FLAT_EXP_MODEL
    t0 = 0.9
    norm_log = math.log(t0) + m.profile.log_deriv(t0)
    cert = TangentHalfspaceCert(m, t0, 0.0, norm_log)
    for z in [(1.0 + 0.0j, 0.0j), (0.5 + 0.1j, 0.3 + 0.2j)]:
        assert cert.re_f_float(z) > 0.0


def test_tangent_cert_rejects_negative_time():
    m = FLAT_EXP_MODEL
    with pytest.raises(CertificateError, match="tangency radius must be >= 0"):
        TangentHalfspaceCert(m, -0.2, 0.0, 0.0)


def _flat_cert(t0):
    # the flat witness's functional at tangency t0
    m = FLAT_EXP_MODEL
    return TangentHalfspaceCert(m, t0, 0.0, math.log(t0) + m.profile.log_deriv(t0))


def test_crossing_split_refuses_tau_above_the_coupling_level():
    cert = _flat_cert(0.9)
    cap = cert.log_tau_cert
    start = cap - 5.0
    assert lb_crossing_split(cert, start, cap) == pytest.approx(5.0)
    with pytest.raises(CertificateError,
                       match="requested tau exceeds the certified coupling level"):
        lb_crossing_split(cert, start, cap + 1e-6)


def test_crossing_split_refuses_a_start_above_tau():
    cert = _flat_cert(0.9)
    cap = cert.log_tau_cert
    for log_tau in (None, cap - 1.0):
        tau = cap if log_tau is None else log_tau
        with pytest.raises(CertificateError, match="both endpoints below the tau level"):
            lb_crossing_split(cert, tau + 1e-6, log_tau)


# -- interior tangent ball ----------------------------------------------------

@pytest.mark.parametrize("m", [FLAT_EXP_MODEL, FLAT_QUARTIC_MODEL], ids=lambda m: m.name)
def test_curvature_margin_nonnegative(m):
    assert curvature_margin(m) >= -1e-3


def _log_height(m, z):
    return math.log(z[0].real - m.profile.value(abs(z[1])))


def test_interior_ball_dominates_ratio_lower():
    m = FLAT_EXP_MODEL
    for t1 in (0.0, 0.12, 0.25):
        z = (complex(m.profile.value(t1) + 1e-4), complex(t1))
        assert m.contains(z)
        lb = _ratio_lower(*m.boundary_distance_brackets([z, BASE_POINT])[0])
        assert lb <= ub_interior_ball(m, z, _log_height(m, z)) + 1e-9


def test_interior_ball_off_contact_range_raises():
    m = FLAT_EXP_MODEL
    z = (1.0 + 0.0j, complex(m.ball_contact_cap + 0.5))
    if m.contains(z):
        with pytest.raises(CertificateError):
            ub_interior_ball(m, z, _log_height(m, z))


def test_interior_ball_refuses_a_radius_over_the_curvature_budget():
    m = FLAT_EXP_MODEL
    z = (complex(m.profile.value(0.12) + 1e-4), complex(0.12))
    assert math.isfinite(ub_interior_ball(m, z, _log_height(m, z)))
    # 0.5 * ball_curvature_sup = 1.28 > 1
    wide = dataclasses.replace(m, ball_radius=0.5)
    with pytest.raises(CertificateError, match="curvature budget"):
        ub_interior_ball(wide, z, _log_height(m, z))


def test_interior_ball_refuses_complex_z1():
    m = FLAT_EXP_MODEL
    z = (complex(m.profile.value(0.12) + 1e-4, 1e-6), 0.12 + 0.0j)
    assert m.contains(z)
    with pytest.raises(CertificateError):
        ub_interior_ball(m, z, math.log(1e-4))


# -- slice discs ---------------------------------------------------------------

def test_z1_disc_containment():
    # the centre is psi(|z2|) + R rounded up, the smallest float that
    # clears the profile face: one float lower is refused
    m = FLAT_EXP_MODEL
    center = m.z1_disc(0.4 + 0.0j)
    assert center - DISC_RADIUS >= m.profile.value(0.4)
    assert m.contains((complex(center), 0.4 + 0.0j))
    m.refuse_leaky_z1_disc(0.4, center, m.psi_up(0.4))
    with pytest.raises(CertificateError, match="crosses the profile face"):
        m.refuse_leaky_z1_disc(0.4, math.nextafter(center, 0.0), m.psi_up(0.4))


def test_slice_disc_rejects_exterior_center():
    m = FLAT_QUARTIC_MODEL
    with pytest.raises(CertificateError):
        m.z1_disc(complex(Z2_CAP + 0.3))


def test_disc_constructors_refuse_at_the_box():
    # containment is exact: a slice point on a box face is refused, one
    # float inside it is not
    m = HINGE_MODEL
    inside = math.nextafter(3.0, 0.0)
    for c in (complex(3.0), complex(1.0, 3.0), complex(1.0, -3.0)):
        with pytest.raises(CertificateError, match="leaves the box"):
            m.slice_disc(c)
        with pytest.raises(CertificateError, match="leave the box"):
            ub_slice_discs(m, (c, 0.0j), 0.0j, 0.0j, 1.0)
    for c in (complex(inside), complex(1.0, inside), complex(1.0, -inside)):
        m.slice_disc(c)
        ub_slice_discs(m, (c, 0.0j), 0.0j, 0.0j, 2.0 - 1e-12)
    # flat_quartic: psi(s) + 2 * 1.45 reaches the face Re z1 = 3 at s = 0.1^(1/4)
    q = FLAT_QUARTIC_MODEL
    q.z1_disc(complex(0.1 ** 0.25 - 1e-6))
    with pytest.raises(CertificateError, match="leaves the box"):
        q.z1_disc(complex(0.1 ** 0.25 + 1e-6))


# -- containment refusals and the base chain -------------------------------------

@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
def test_z1_disc_refused_past_the_box_and_the_cap(m):
    # a centre whose disc reaches the face Re z1 = 3, and a disc at the cap
    with pytest.raises(CertificateError, match="leaves the box"):
        m.refuse_leaky_z1_disc(0.0, 3.0 - DISC_RADIUS, 0.0)
    with pytest.raises(CertificateError, match="radial cap"):
        m.z1_disc(complex(Z2_CAP))


@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
def test_slice_radius_at_most_zero_is_refused(m):
    for height in (0.0, -0.5):
        with pytest.raises(CertificateError, match="slice height must be positive"):
            m.slice_disc(complex(height))
    for r in (0.0, -0.25, -math.inf):
        with pytest.raises(CertificateError, match="slice radius"):
            m.refuse_leaky_slice_disc(1.45 + 0.0j, r, 0.0)


@pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
def test_a_disc_pushed_one_float_through_a_face_is_refused(m):
    # the z1 disc at z2 = 0 is tangent to the profile face at Re z1 = 0:
    # a centre rounded down one float crosses it
    assert m.z1_disc(0.0j) == DISC_RADIUS
    with pytest.raises(CertificateError, match="crosses the profile face"):
        m.refuse_leaky_z1_disc(0.0, math.nextafter(DISC_RADIUS, 0.0), m.psi_up(0.0))
    # the slice at the height of the z1 discs' centres: the radius rounded
    # up one float past the largest one that clears psi, or past the cap
    height = 1.45 + 0.0j
    r = m.slice_disc(height)
    while r < Z2_CAP and m.psi_up(math.nextafter(r, math.inf)) <= height.real:
        r = math.nextafter(r, math.inf)
    m.refuse_leaky_slice_disc(height, r, m.psi_up(r))
    r_up = math.nextafter(r, math.inf)
    with pytest.raises(CertificateError, match="crosses the profile face|slice radius"):
        m.refuse_leaky_slice_disc(height, r_up, m.psi_up(r_up))


def test_base_chain_legs_sum_to_the_hinge_chain():
    from gromovlab.rounding import log_down, sum_up
    from gromovlab.exact import atanh_one_minus
    from gromovlab.rounding import log_up, sum_down
    from gromovlab.witnesses import hinge_witness

    radius = DISC_RADIUS
    for delta in (1e-6, 1e-14, 1e-22, 1e-31):
        q2 = complex(-(1.0 - delta))
        # q's z1 disc is tangent to the flat face: its centre is R exactly
        center = HINGE_MODEL.z1_disc(q2)
        assert center == radius
        leg_a = atanh_one_minus(sum_down(log_down(delta), -log_up(radius)))
        leg_b, leg_c = ub_base_chain(HINGE_MODEL, (center, q2))
        # from the center (radius, q2): across the slice |z2| < 2, then to
        # the base point at parameter (1 - radius)/radius; each leg is
        # rounded up, by a few ulps (test_oracles checks the chain against mpmath)
        for got, want in ((leg_b, math.atanh((1.0 - delta) / 2.0)),
                          (leg_c, math.atanh((radius - 1.0) / radius))):
            assert want <= got == pytest.approx(want, rel=4e-15)
        assert dict(hinge_witness(delta).terms)["ub_chain"] == sum_up(leg_a, leg_b, leg_c)
