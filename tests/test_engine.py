"""The batched four-point engine against independent pair-by-pair references.

Each sampled domain's array kernel agrees with a reference and refuses
the pairs it refuses: mpmath for the disc, the ball, the bidisc and the
tetrablock's royal line (``tests/oracle_gen.py``), and a plain Python
max for the axis.  The royal line is a complex geodesic, sampled with the
disc kernel on its real parameter u.  Block defects agree with
a loop over the reference distances; the engine's checks fire on a
non-metric oracle and on a point outside the domain, and the refusal's
scaled floor holds to the float; one ``run_sample`` pass gives every
decade checkpoint, and its CSV bytes are pinned.
"""

import csv
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_gen
from gromovlab import cli, core, exact, witnesses

KERNELS = {name: dom.distance for name, dom in exact.SAMPLE_DOMAINS.items()}

# relative agreement of a kernel with a float reference: the axis kernel
# and its reference take the same differences, so they agree but for this
# slack
RTOL = 1e-12

# The disc, ball, bidisc and royal-line kernels against mpmath.  A kernel
# forms the gap g = 1 - |z|^2 of a point (disc, ball), coordinate (bidisc)
# or royal parameter (g = 1 - u^2) in floats: the squares and their sum
# near 1 round, the subtraction is exact, so g carries an absolute error
# of a few U = 2**-52.  The distance is
#     atanh m = log(1 + m) - (1/2) log(1 - m^2),
#     1 - m^2 = g_z g_w / |1 - <z, w>|^2,
# so an absolute error k U in g moves it by (1/2) k U / g; the other
# steps add a few ulps relative to d and to 1.  Hence
#     |kernel - exact| <= 8 U (1 + d + sum 1/g)
# over the gaps of the pair.  Membership, too, is decided on the float
# gap, so a pair with an exact gap within MEMBERSHIP_BAND of 0 may be
# refused or accepted; but for a real u the float 1 - u*u is positive
# exactly when |u| < 1, so the royal line's membership is exact.
ULP = 2.0**-52
MEMBERSHIP_BAND = 4.0 * ULP


FLOAT_REFERENCES = {
    "polydisc_axis": lambda t, s: max(abs(a - b) for a, b in zip(t, s)),
}


def _exact_gaps(domain, pt):
    # 1 - |z|^2 of a disc or ball point, of each bidisc coordinate or of a
    # royal parameter, in mpmath
    mp = oracle_gen.mp
    coords = [pt] if domain in ("disc", "tetra") else pt
    sq = [mp.re(c) ** 2 + mp.im(c) ** 2 for c in map(mp.mpc, coords)]
    return [1 - sum(sq)] if domain == "ball" else [1 - s for s in sq]


MP_REFERENCES = {
    "disc": oracle_gen.disc_distance,
    "ball": oracle_gen.unit_ball_distance,
    "polydisc": oracle_gen.bidisc_distance,
    "tetra": oracle_gen.royal_distance,
}


def reference(domain, x, y):
    """(d, tol, certain) for one pair: the reference distance, or None
    where a point is not inside the domain; the kernel's tolerance around
    it; and False where the kernel may decide membership either way."""
    if domain in FLOAT_REFERENCES:
        try:
            d = FLOAT_REFERENCES[domain](x, y)
        except exact.OracleError:
            return None, 0.0, True
        return d, RTOL * d, True
    gaps = _exact_gaps(domain, x) + _exact_gaps(domain, y)
    certain = domain == "tetra" or abs(min(gaps)) >= MEMBERSHIP_BAND
    if min(gaps) <= 0:
        return None, 0.0, certain
    d = float(MP_REFERENCES[domain](x, y))
    return d, 8.0 * ULP * (1.0 + d + float(sum(1 / g for g in gaps))), certain


def check_kernel(domain, xs, ys):
    """The array kernel refuses exactly the pairs the reference refuses,
    but for pairs within the membership band, and agrees with it within
    the tolerance on the rest.  The pairs it must accept go to the kernel
    as one batch."""
    kernel = KERNELS[domain]
    batch, want, tol = [], [], []
    for x, y in zip(xs, ys):
        d, t, certain = reference(domain, x, y)
        if d is not None and certain:
            batch.append((x, y))
            want.append(d)
            tol.append(t)
            continue
        try:
            got = kernel(np.array([x]), np.array([y]))[0]
        except exact.OracleError:
            continue
        assert not certain, f"{domain} kernel accepts ({x}, {y}), outside the domain"
        if d is not None:
            assert abs(got - d) <= t, f"{domain} kernel at ({x}, {y}): {got} vs {d}"
    if batch:
        got = kernel(np.array([x for x, _ in batch]), np.array([y for _, y in batch]))
        off = np.flatnonzero(~(np.abs(got - np.array(want)) <= np.array(tol)))
        assert not off.size, f"{domain} kernel off its reference at {[batch[k] for k in off]}"


# boundary gaps 1 - |z| from 1e-8 to 1: small gaps put pairs on the log
# path (1 - m^2 < 0.19), large ones on the direct path
gaps = st.floats(min_value=-8.0, max_value=0.0).map(lambda e: 10.0**e)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)
disc_pts = st.builds(lambda g, th: (1.0 - g) * complex(math.cos(th), math.sin(th)), gaps, angles)


def _ball_point(gap, v):
    v = np.array(v) * (1.0 - gap) / np.linalg.norm(v)
    return (complex(v[0], v[1]), complex(v[2], v[3]))


directions = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4).filter(
    lambda v: np.linalg.norm(v) > 0.1)
ball_pts = st.builds(_ball_point, gaps, directions)
polydisc_pts = st.tuples(disc_pts, disc_pts)
royal_pts = st.builds(lambda g, sign: sign * (1.0 - g), gaps, st.sampled_from((-1.0, 1.0)))
axis_pts = st.tuples(*[st.floats(min_value=-50.0, max_value=50.0)] * 2)

POINTS = {
    "disc": disc_pts,
    "ball": ball_pts,
    "polydisc": polydisc_pts,
    "tetra": royal_pts,
    "polydisc_axis": axis_pts,
}


@pytest.mark.parametrize("domain", sorted(KERNELS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_kernel_agrees_with_scalar(domain, data):
    pairs = data.draw(st.lists(st.tuples(POINTS[domain], POINTS[domain]), min_size=1,
                               max_size=12))
    check_kernel(domain, [x for x, _ in pairs], [y for _, y in pairs])


def test_disc_kernel_covers_both_sides_of_the_switch():
    # pairs on both sides of 1 - m^2 = 0.19, and deep on the log path
    xs = [0.0, 0.0, 0.0, 0.5j, 1.0 - 1e-8, -(1.0 - 1e-8), 0.3 + 0.4j]
    ys = [0.89, 0.9, 0.91, -0.5j, 1.0 - 2e-8, 1.0 - 1e-8, 0.3 + 0.4j]
    check_kernel("disc", xs, ys)
    u, v = np.array(xs), np.array(ys)
    a = 1.0 - np.abs(u) ** 2
    b = 1.0 - np.abs(v) ** 2
    one_minus_m2 = a * b / np.abs(1.0 - np.conj(u) * v) ** 2
    assert np.any(one_minus_m2 < 0.19) and np.any(one_minus_m2 >= 0.19)
    assert np.min(one_minus_m2) < 1e-7


def test_royal_kernel_accepts_deep_pairs():
    # interior pairs within 8e-5 of the boundary that a tetrablock shift
    # by u refuses once its rounding swamps the aligned image: the disc
    # kernel takes them, in either order
    pairs = [
        (0.9999999885843504, 0.2759816644138481),
        (1.0 - 8e-5, -(1.0 - 8e-5)),
        (1.0 - 1e-5, -0.999),
        (1.0 - 1e-6, -0.99),
        (1.0 - 1e-7, -0.9),
        (1.0 - 1e-8, -0.5),
    ]
    xs, ys = zip(*pairs)
    check_kernel("tetra", xs + ys, ys + xs)


# radii on, just inside and outside the unit circle
radii = st.one_of(st.sampled_from((1.0, 1.0 - 1e-16, 1.0 + 1e-16)),
                  st.floats(min_value=0.9, max_value=3.0))
edge_disc = st.builds(lambda r, th: r * complex(math.cos(th), math.sin(th)), radii, angles)


@pytest.mark.parametrize("domain", ("disc", "ball", "polydisc", "tetra"))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_kernel_refuses_like_scalar(domain, data):
    inside = data.draw(POINTS[domain])
    if domain == "disc":
        edge = data.draw(edge_disc)
    elif domain == "ball":
        r, v = data.draw(radii), data.draw(directions)
        v = np.array(v) * r / np.linalg.norm(v)
        edge = (complex(v[0], v[1]), complex(v[2], v[3]))
    elif domain == "polydisc":
        edge = (data.draw(disc_pts), data.draw(edge_disc))
    else:
        edge = data.draw(radii) * data.draw(st.sampled_from((-1.0, 1.0)))
    check_kernel(domain, [inside, edge], [edge, inside])


@pytest.mark.parametrize("domain, outside", [
    ("disc", 1.0 + 0.0j), ("disc", -1j), ("disc", 1.5),
    ("ball", (1.0 + 0.0j, 0.0j)), ("ball", (0.0j, 1j)), ("ball", (0.9 + 0.0j, 0.9j)),
    ("polydisc", (0.0j, 1.0 + 0.0j)),
    ("tetra", 1.0), ("tetra", -1.0),
])
def test_boundary_points_raise_in_both(domain, outside):
    inside = {"disc": 0.1j, "tetra": 0.2}.get(domain, (0.1j, 0.2 + 0.0j))
    for x, y in ((inside, outside), (outside, inside)):
        assert reference(domain, x, y)[0] is None
        with pytest.raises(exact.OracleError):
            KERNELS[domain](np.array([inside, x, inside]), np.array([inside, y, inside]))


def _python_quads(quads):
    return [core._python_quadruple(row) for row in quads]


def _defect(dist, p, q, x, w):
    # min{(p,x)_w, (x,q)_w} - (p,q)_w from six distances, in the engine's
    # order of operations
    d_pw, d_qw, d_xw = dist(p, w), dist(q, w), dist(x, w)
    d_px, d_xq, d_pq = dist(p, x), dist(x, q), dist(p, q)
    return min(d_pw + d_xw - d_px, d_xw + d_qw - d_xq) - (d_pw + d_qw - d_pq)


@pytest.mark.parametrize("domain", sorted(KERNELS))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_block_defects_match_scalar_loop(domain, seed):
    sampler = core.uniform_quadruple_sampler(exact.SAMPLE_DOMAINS[domain].points)
    quads = sampler(np.random.default_rng(seed), 0, 64)
    got = core.four_point_defects(KERNELS[domain], quads)
    for k, quad in enumerate(_python_quads(quads)):
        tols = []

        def dist(a, b):
            d, tol, certain = reference(domain, a, b)
            assert d is not None and certain
            tols.append(tol)
            return d

        want = _defect(dist, *quad)
        # a defect adds and subtracts six distances, each within its
        # tolerance of the reference
        assert abs(got[k] - want) <= RTOL + sum(tols), (k, got[k], want)


@pytest.mark.parametrize("scale", (1.0, 10.0, 300.0))
def test_directed_block_defects_are_bit_equal(scale):
    quad = witnesses.product_witness(scale).quadruple
    axis = exact.SAMPLE_DOMAINS["polydisc_axis"]
    base = core.uniform_quadruple_sampler(axis.points)
    sampler = core.mixed_quadruple_sampler(base, quad, period=8)
    quads = sampler(np.random.default_rng(3), 0, 64)
    got = core.four_point_defects(axis.distance, quads)
    d = exact.polydisc_axis_oracle(2).fn
    want = [_defect(d, *q) for q in _python_quads(quads)]
    assert got.tolist() == want
    assert all(got[7::8] == scale)


# -- the engine's checks can fail ---------------------------------------------------

@pytest.mark.parametrize("domain", ("disc", "polydisc_axis"))
def test_non_metric_oracle_is_refused(domain):
    array_fn = KERNELS[domain]
    sampler = core.uniform_quadruple_sampler(exact.SAMPLE_DOMAINS[domain].points)
    squared = lambda a, b: array_fn(a, b) ** 2  # noqa: E731
    with pytest.raises(ValueError, match="negative Gromov product"):
        core.estimate_delta(squared, sampler, 2 * core.CHUNK, seed=1)


# distances of a synthetic block of quadruples (p, q, x, w) = (4k, 4k+1,
# 4k+2, 4k+3): 1 on every pair of a clean quadruple, whose products are
# all 1.  A probed quadruple has (p,x)_w = (x,q)_w = 1, so its scale is
# 1 + 1 = 2 exactly while |(p,q)_w| stays below 1, and (p,q)_w = -d(p,q)
FLOOR = -2.0 * core.METRIC_TOL * 2.0


def _block_with(pq_by_quad, n=8):
    table = np.ones((4 * n, 4 * n))
    for k, d_pq in pq_by_quad.items():
        p, q, x, w = range(4 * k, 4 * k + 4)
        table[p, w] = table[q, w] = table[p, x] = table[x, q] = 0.0
        table[p, q] = d_pq
    quads = np.arange(4.0 * n).reshape(n, 4)
    return (lambda xs, ys: table[xs.astype(int), ys.astype(int)]), quads


@pytest.mark.parametrize("products, refused", [
    ({5: FLOOR}, None),
    ({5: np.nextafter(FLOOR, 0.0)}, None),
    ({5: np.nextafter(FLOOR, -1.0)}, 5),
    ({5: -3e-9}, None),
    ({2: -3e-9, 5: np.nextafter(FLOOR, -1.0)}, 5),
    ({5: math.nan}, 5),
    ({3: math.nan, 5: np.nextafter(FLOOR, -1.0)}, 3),
])
def test_refusal_holds_at_the_scaled_floor(products, refused):
    # a (p,q)_w on the floor -2 METRIC_TOL (1 + max |product|) passes, a
    # float below it or a NaN is refused, naming the first such
    # quadruple; one between the floor and -2 METRIC_TOL passes
    d, quads = _block_with({k: -gp for k, gp in products.items()})
    if refused is None:
        core.four_point_defects(d, quads)
        return
    with pytest.raises(ValueError, match=f"on quadruple {refused} of the block"):
        core.four_point_defects(d, quads)


@pytest.mark.parametrize("domain, bad", [
    ("disc", 1.5 + 0.0j), ("disc", 1.0 + 0.0j), ("disc", complex("nan")),
    ("ball", (1.0 + 0.0j, 0.0j)), ("polydisc", (0.0j, -1j)),
    ("tetra", 1.0), ("polydisc_axis", (math.nan, 0.0)),
])
def test_outside_point_mid_chunk_raises(domain, bad):
    base = core.uniform_quadruple_sampler(exact.SAMPLE_DOMAINS[domain].points)
    target = core.CHUNK + core.CHUNK // 2

    def corrupt(rng, start, size):
        quads = base(rng, start, size)
        if start <= target < start + size:
            quads[target - start, 2] = bad
        return quads

    d = KERNELS[domain]
    with pytest.raises(exact.OracleError):
        core.estimate_delta(d, corrupt, 2 * core.CHUNK, seed=3)
    # drawn but past n, the bad quadruple is never evaluated
    est = core.estimate_delta(d, corrupt, target, seed=3)
    assert math.isfinite(est.sup_defect)


# -- one pass gives every checkpoint ------------------------------------------------

def _sups(path):
    with open(path) as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    return {int(r["n"]): float(r["sup_defect"]) for r in rows}


def test_run_sample_checkpoints_in_one_pass(tmp_path, monkeypatch):
    estimate, defects = core.estimate_delta, core.four_point_defects
    calls, evaluated = [], []

    def counting_estimate(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    def counting_defects(d, quads):
        evaluated.append(len(quads))
        return defects(d, quads)

    monkeypatch.setattr(core, "estimate_delta", counting_estimate)
    monkeypatch.setattr(core, "four_point_defects", counting_defects)
    out = tmp_path / "disc.csv"
    assert cli.run_sample("disc", 10**4, 11, str(out)) == 0
    assert len(calls) == 1
    assert sum(evaluated) == 10**4
    sups = _sups(out)
    assert list(sups) == [10, 100, 1000, 10**4]
    d, sampler = cli._sample_setup("disc", None, 8)
    for n in (10, 100, 1000):
        assert sups[n] == estimate(d, sampler, n, 11).sup_defect


@pytest.mark.parametrize("seed", (0, 5, 11))
def test_royal_sup_is_rounding_at_every_checkpoint(tmp_path, seed):
    # the royal line is a geodesic, so every defect on it is 0 but for
    # the kernel's rounding
    out = tmp_path / "tetra.csv"
    assert cli.run_sample("tetra", 10**4, seed, str(out)) == 0
    sups = _sups(out)
    assert list(sups) == [10, 100, 1000, 10**4]
    assert all(sup <= 1e-14 for sup in sups.values()), sups


@pytest.mark.parametrize("scale", (10.0, 100.0, 300.0))
def test_directed_sup_is_the_scale_at_every_checkpoint(tmp_path, scale):
    out = tmp_path / "dir.csv"
    assert cli.run_sample("polydisc", 10**4, 5, str(out), directed_scale=scale) == 0
    sups = _sups(out)
    assert list(sups) == [10, 100, 1000, 10**4]
    assert all(sup == scale for sup in sups.values())


# sha256 of run_sample's CSV at seed 7 and period 8: any change to a
# sampled bit, a checkpoint or the file's layout changes them
SAMPLE_DIGESTS = [
    ("disc", 10**4, None, "031c1331c19779db2e6b51467f937994e7f144ef9981cc3d6eb247cbbef425c0"),
    ("ball", 10**4, None, "983c885398663b932176229ef7226c34a6d05a260797dcf29fd175d46f314b20"),
    ("polydisc", 10**4, None, "169b1d88cf1399b1e476b572760c1dcbaf6875e102ab3ee98dca4e7b4cc797b5"),
    ("tetra", 10**4, None, "52c6393fb5cc1adec5910ebf52733a2267a261d79ec3bee8c36b94387cacef59"),
    ("polydisc", 2000, 10.0, "abd9139f33aa59cb9519c74cad7833ae4c92f73b558ba6552da2a6ba4dfaab67"),
    ("polydisc", 2000, 100.0, "c672d6b00f402feac8586df4c68ebde7bac24b091df63d42be9cfc1e67d9daea"),
    ("polydisc", 2000, 300.0, "09e19ca86dd0de4538621a9961216a2aadd50c8274105e6548c4aacb88fc2e9b"),
]


@pytest.mark.parametrize("domain, n, scale, digest", SAMPLE_DIGESTS)
def test_sample_csv_bytes_are_pinned(tmp_path, domain, n, scale, digest):
    out = tmp_path / "sample.csv"
    assert cli.run_sample(domain, n, 7, str(out), directed_scale=scale) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
