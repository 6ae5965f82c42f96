"""Witness families: certified divergences and their structural checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gromovlab import convex, verify, witnesses
from gromovlab.convex import BASE_POINT, CertificateError, ModelDomain, ub_interior_ball
from gromovlab.core import PAIR_KEYS, four_point_defects
from gromovlab.exact import SAMPLE_DOMAINS, DistBound
from gromovlab.models import FLAT_EXP_MODEL, FLAT_QUARTIC_MODEL, HINGE_MODEL
from gromovlab.witnesses import (
    defect_interval,
    flat_witness,
    gn_witness,
    hinge_witness,
    product_witness,
    tetra_witness,
)


def test_report_with_a_failed_check_is_refused():
    rep = tetra_witness(0.5)
    checks = (("first", False), ("second", True), ("third", False))
    with pytest.raises(CertificateError, match="^checks failed: first; third$"):
        dataclasses.replace(rep, checks=checks)
    with pytest.raises(ValueError, match="missing pair bounds"):
        dataclasses.replace(rep, bounds={}, checks=checks)


@pytest.mark.parametrize("name", sorted(witnesses.FAMILIES))
def test_report_refuses_s_lb_above_its_defect_interval(name):
    # the lower end of the report's own defect interval is the highest
    # S_lb it takes, with no slack
    rep = witnesses.FAMILIES[name].witness(_ONE_PARAM[name])
    lo = defect_interval(rep.bounds).lo
    assert rep.s_lb <= lo
    assert dataclasses.replace(rep, s_lb=lo).s_lb == lo
    with pytest.raises(CertificateError, match="lower end of its defect interval"):
        dataclasses.replace(rep, s_lb=math.nextafter(lo, math.inf))


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=8, max_size=8))
def test_defect_interval_pairs_the_points_as_the_engine_does(params):
    # small integer parameters on the polydisc axis make every distance and
    # every sum exact; the bounds are keyed by the names alone, so a table,
    # an unpacking or a branch that pairs the points differently on either
    # side shows as a different defect
    quad = np.array(params, dtype=float).reshape(4, 2)
    axis = SAMPLE_DOMAINS["polydisc_axis"].distance
    (defect,) = four_point_defects(axis, quad[None])
    first, second = (["pqxw".index(c) for c in side] for side in zip(*PAIR_KEYS))
    d = axis(quad[first], quad[second]).tolist()
    interval = defect_interval({k: DistBound(v, v) for k, v in zip(PAIR_KEYS, d)})
    assert interval.lo == defect == interval.hi


# -- product -----------------------------------------------------------------

@pytest.mark.parametrize("s", [1.0, 5.0, 50.0, 300.0])
def test_product_witness_defect_is_exact(s):
    rep = product_witness(s)
    assert rep.s_lb == s


def test_product_witness_quadruple_realizes_defect():
    s = 7.0
    rep = product_witness(s)
    axis = SAMPLE_DOMAINS["polydisc_axis"].distance
    defect = four_point_defects(axis, np.array([rep.quadruple]))[0]
    assert defect == pytest.approx(s, abs=1e-12)


# -- tetrablock ----------------------------------------------------------------

@pytest.mark.parametrize("a", [0.5, 0.9, 0.99, 0.999])
def test_tetra_witness_defect_is_atanh(a):
    rep = tetra_witness(a)
    assert rep.s_lb == pytest.approx(math.atanh(a), abs=1e-9)
    iv = defect_interval(rep.bounds)
    assert iv.lo - 1e-9 <= math.atanh(a) <= iv.hi + 1e-9


def test_tetra_witness_doubling_identity():
    # 2 k(P, 0) = k(P, Q) along the royal axis
    rep = tetra_witness(0.9)
    terms = dict(rep.terms)
    assert 2.0 * terms["royal"] == pytest.approx(terms["pq"], abs=1e-12)


# -- symmetrized bidisc ---------------------------------------------------------

def test_gn_witness_monotone_divergence():
    vals = [gn_witness(a).s_lb for a in (0.9, 0.99, 0.999, 0.9999)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] - vals[0] > 2.0


def test_gn_witness_log2_shift():
    rep = gn_witness(0.999)
    gap = 2.0 * math.atanh(0.999) - 2.0 * math.atanh(0.999**2)
    assert abs(gap - math.log(2.0)) < 1e-3
    terms = dict(rep.terms)
    assert rep.s_lb == pytest.approx(terms["lb_mid"] + terms["shift"], abs=1e-12)
    assert terms["honest_lo"] >= rep.s_lb


# bit-exact pins, as hex, of s_lb and the six (lo, hi) pair bounds; they
# pin determinism (a stack of pairs scans each pair as it would alone),
# not correctness
GN_WITNESS_PINS = {
    0.5: (
        '-0x1.ee011ed6f556ap-3',
        {
            'pq': ('0x1.9c041f7ed8c33p-1', '0x1.193ea7aad040bp+0'),
            'px': ('0x1.62e42fefa38efp-2', '0x1.193ea7aad040bp-1'),
            'qx': ('0x1.d5240f0e0df77p-2', '0x1.193ea7aad040bp-1'),
            'pw': ('0x1.193ea7aad020bp-1', '0x1.193ea7aad040bp-1'),
            'qw': ('0x1.058aefa811353p-2', '0x1.058aefa811552p-2'),
            'xw': ('0x1.62e42fefa38efp-2', '0x1.193ea7aad040bp-1'),
        },
    ),
    0.9: (
        '0x1.d7f9372f30fecp-2',
        {
            'pq': ('0x1.4cb42ce468e2cp+1', '0x1.78e360604b42dp+1'),
            'px': ('0x1.26bb1bbb5541ep+0', '0x1.78e360604b42dp+0'),
            'qx': ('0x1.72ad3e0d7c842p+0', '0x1.78e360604b42dp+0'),
            'pw': ('0x1.78e360604b22ep+0', '0x1.78e360604b42dp+0'),
            'qw': ('0x1.2084f96886a2bp+0', '0x1.2084f96886c2ap+0'),
            'xw': ('0x1.26bb1bbb55415p+0', '0x1.78e360604b42dp+0'),
        },
    ),
    0.9999: (
        '0x1.f4bd2b8020276p+1',
        {
            'pq': ('0x1.31d1d45f46b8bp+3', '0x1.3ce8f5de1824cp+3'),
            'px': ('0x1.26bb1bbb55453p+2', '0x1.3ce8f5de1824dp+2'),
            'qx': ('0x1.3ce88d03382c2p+2', '0x1.3ce8f5de1824dp+2'),
            'pw': ('0x1.3ce8f5de1804dp+2', '0x1.3ce8f5de1824dp+2'),
            'qw': ('0x1.26bab2e0756c9p+2', '0x1.26bab2e0758c9p+2'),
            'xw': ('0x1.26bb1bbb55453p+2', '0x1.3ce8f5de1824dp+2'),
        },
    ),
    0.999999: (
        '0x1.8dbc239b07931p+2',
        {
            'pq': ('0x1.c52fca0c09994p+3', '0x1.d046eb8b86d1cp+3'),
            'px': ('0x1.ba18a998fbf65p+2', '0x1.d046eb8b86d1cp+2'),
            'qx': ('0x1.d046ea7f173c2p+2', '0x1.d046eb8b86d1cp+2'),
            'pw': ('0x1.d046eb8b86b1dp+2', '0x1.d046eb8b86d1cp+2'),
            'qw': ('0x1.ba18a88c8c80ap+2', '0x1.ba18a88c8ca0ap+2'),
            'xw': ('0x1.ba18a998fbf65p+2', '0x1.d046eb8b86d1cp+2'),
        },
    ),
    0.9999999999999999: (
        '0x1.1acdd632f651ap+4',
        {
            'pq': ('0x1.28aac01252b6ep+5', '0x1.2b708872321e2p+5'),
            'px': ('0x1.25e4f7b2736fap+4', '0x1.2b708872321e1p+4'),
            'qx': ('0x1.2b70887231fe1p+4', '0x1.2b708872321e1p+4'),
            'pw': ('0x1.2b70887231fe1p+4', '0x1.2b708872321e1p+4'),
            'qw': ('0x1.25e4f7b2736fap+4', '0x1.25e4f7b2738fap+4'),
            'xw': ('0x1.25e4f7b2736fap+4', '0x1.2b708872321e1p+4'),
        },
    ),
}


@pytest.mark.parametrize("a", list(GN_WITNESS_PINS))
def test_gn_witness_pinned(a):
    rep = gn_witness(a)
    got = (rep.s_lb.hex(), {k: (b.lo.hex(), b.hi.hex()) for k, b in rep.bounds.items()})
    assert got == GN_WITNESS_PINS[a]


# -- hinge -----------------------------------------------------------------------

@pytest.mark.parametrize("delta", [1e-4, 1e-10, 1e-22, 1e-26, 1e-31])
def test_hinge_witness_checks_pass(delta):
    hinge_witness(delta)  # a failed check raises CertificateError


def test_hinge_witness_values_increase_as_delta_shrinks():
    v = [hinge_witness(d).s_lb for d in (1e-6, 1e-14, 1e-22)]
    assert v[0] < v[1] < v[2]


# bit-exact pins of the pair bounds that the disc legs, the base chain
# and the interior ball feed; they pin determinism, not correctness, so a
# change that moves S_lb on purpose records them again
HINGE_PINS = {
    1e-06: {
        "pq": (6.906755778649123, 7.600402334500377),
        "px": (0.0, 15.122804299044596),
        "qx": (0.0, 15.122804299044596),
        "pw": (6.907755278982133, 8.310342895818344),
        "qw": (6.907755278982133, 8.310342895818344),
        "xw": (6.907755278982133, 7.119183531978337),
    },
    1e-14: {
        "pq": (16.118095550454356, 16.81124278159821),
        "px": (0.0, 19.71247578550233),
        "qx": (0.0, 19.71247578550233),
        "pw": (16.118095650958306, 17.5206841068748),
        "qw": (16.118095650958306, 17.5206841068748),
        "xw": (16.118095650958306, 16.329524076368354),
    },
    1e-22: {
        "pq": (25.328435940194087, 26.021583203499464),
        "px": (0.0, 24.317644379977096),
        "qx": (0.0, 24.317644379977096),
        "pw": (25.32843602293449, 26.73102447885099),
        "qw": (25.32843602293449, 26.73102447885099),
        "xw": (25.32843602293449, 25.53986444834454),
    },
}


@pytest.mark.parametrize("delta", list(HINGE_PINS))
def test_hinge_bounds_pinned(delta):
    rep = hinge_witness(delta)
    assert {k: (b.lo, b.hi) for k, b in rep.bounds.items()} == HINGE_PINS[delta]


# -- flat profiles ----------------------------------------------------------------

@pytest.mark.parametrize("x", [0.02, 0.0005, 1e-7])
def test_flat_witness_exp_checks_pass(x):
    flat_witness(FLAT_EXP_MODEL, x)  # a failed check raises CertificateError


@pytest.mark.parametrize("name", ["hinge", "shifted"])
def test_flat_witness_refuses_a_profile_that_vanishes_at_x(name):
    # the refusal reads psi(x) = 0 itself, not the profile's name
    profile = dataclasses.replace(HINGE_MODEL.profile, name=name)
    domain = dataclasses.replace(HINGE_MODEL, profile=profile)
    with pytest.raises(CertificateError, match=r"needs psi\(x\) > 0"):
        flat_witness(domain, 0.05)


def test_flat_witness_exp_grows_quartic_does_not():
    xs = [0.02 * math.exp(-2.0 * k) for k in range(5)]
    ev = [flat_witness(FLAT_EXP_MODEL, x).s_lb for x in xs]
    qv = [flat_witness(FLAT_QUARTIC_MODEL, x).s_lb for x in xs]
    assert ev[-1] - ev[0] > 3.0
    assert abs(qv[-1] - qv[0]) < 0.1


# (model, x) -> (ub_ball, ub_slice, pq bound, xw bound), at the top of the
# sweep range and deep inside it
FLAT_PINS = {
    ("flat_exp", 0.02): (
        26.751256448561605, 2.830679265826018,
        (4.951480399252236, 5.661358531652036),
        (25.0, 25.211428425410038),
    ),
    ("flat_exp", 1e-05): (
        50001.74162036811, 6.63286550690117,
        (12.57257556606479, 13.26573101380234),
        (49999.99999999999, 50000.21142842545),
    ),
    ("flat_quartic", 0.02): (
        10.804164292484431, 2.830679265826018,
        (4.68400103411797, 5.661358531652036),
        (7.804978459310703, 8.035474408680109),
    ),
    ("flat_quartic", 1e-05): (
        29.783134665993703, 6.63286550690117,
        (12.284903493660051, 13.26573101380234),
        (23.006783378394868, 23.237279355350495),
    ),
}


@pytest.mark.parametrize("key", list(FLAT_PINS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_flat_bounds_pinned(key):
    model = {"flat_exp": FLAT_EXP_MODEL, "flat_quartic": FLAT_QUARTIC_MODEL}[key[0]]
    rep = flat_witness(model, key[1])
    terms = dict(rep.terms)
    pq, xw = rep.bounds["pq"], rep.bounds["xw"]
    got = (terms["ub_ball"], terms["ub_slice"], (pq.lo, pq.hi), (xw.lo, xw.hi))
    assert got == FLAT_PINS[key]


# -- containment is analytic ------------------------------------------------------

def test_witnesses_test_membership_only_in_the_bracket(monkeypatch):
    # every disc is certified where it is built, with no sampled net: the
    # witnesses and the interior ball call contains only through the
    # boundary bracket's membership check, on each bracketed point once;
    # the flat witness brackets its base point alone, the hinge witness
    # nothing, and each reads every other boundary distance as a height
    # over the profile
    contained, blocks = [], []
    contains, brackets = ModelDomain.contains, ModelDomain.boundary_distance_brackets

    def counting_contains(self, z, slack=0.0):
        contained.append(np.size(z[0]))
        return contains(self, z, slack)

    def recording_brackets(self, zs):
        blocks.append(list(zs))
        return brackets(self, zs)

    monkeypatch.setattr(ModelDomain, "contains", counting_contains)
    monkeypatch.setattr(ModelDomain, "boundary_distance_brackets", recording_brackets)
    m = FLAT_EXP_MODEL
    z = (complex(m.profile.value(0.12) + 1e-4), complex(0.12))
    for build, bracketed in (
        (lambda: hinge_witness(1e-6), []),
        (lambda: hinge_witness(1e-22), []),
        (lambda: flat_witness(FLAT_EXP_MODEL, 0.02), [[BASE_POINT]]),
        (lambda: flat_witness(FLAT_QUARTIC_MODEL, 1e-5), [[BASE_POINT]]),
        (lambda: ub_interior_ball(m, z, math.log(1e-4)), []),
    ):
        contained.clear()
        blocks.clear()
        build()
        assert blocks == bracketed
        assert sum(contained) == sum(map(len, blocks)), (contained, blocks)


# -- family registry -----------------------------------------------------------

_ONE_PARAM = {"tetra": 0.5, "gn": 0.9, "product": 5.0, "hinge": 1e-6,
              "flat_exp": 0.02, "flat_quartic": 0.02}


@pytest.mark.parametrize("name", sorted(witnesses.FAMILIES))
def test_report_carries_its_registry_name(name):
    assert set(_ONE_PARAM) == set(witnesses.FAMILIES)
    rep = witnesses.FAMILIES[name].witness(_ONE_PARAM[name])
    assert rep.family == name


# -- every recorded check can fail ----------------------------------------------
#
# (family, check name) -> (registry name, parameter, mutation): the
# mutation takes pytest's monkeypatch and breaks what the check reads, so
# the constructor at that parameter must refuse naming the check.  A
# check no mutation can reach restates a guard or an identity.

def _wrap(owner, name, change):
    def mutate(monkeypatch):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kw: change(original(*args, **kw)))
    return mutate


def _low_defect(bound):
    return DistBound(bound.lo - 1.0, bound.hi)


def _raised_bounds(bounds):
    return [DistBound(b.lo + 1e-9, b.hi + 1e-9) for b in bounds]


def _stretched_pw(d):
    # the kernel's distances come in the order of core's pair table
    return d * np.where(np.array(PAIR_KEYS) == "pw", 1.5, 1.0)


def _cut_branch_and_bound(monkeypatch):
    monkeypatch.setattr(convex, "_BB_MAX_ITER", 1)


CHECK_MUTATIONS = {
    ("product", "defect equals the scale exactly"):
        ("product", 5.0, _wrap(witnesses, "defect_interval", _low_defect)),
    ("product", "w is a weak midpoint of (p, q)"):
        ("product", 5.0, _wrap(witnesses, "polydisc_axis_distance_array", _stretched_pw)),
    ("gn", "exact legs enclosed"):
        ("gn", 0.9, _wrap(witnesses, "gn_pair_bounds", _raised_bounds)),
    ("tetra", "defect equals atanh(a)"):
        ("tetra", 0.5, _wrap(witnesses, "defect_interval", _low_defect)),
    ("hinge", "unit ball about w clears the flat face"):
        ("hinge", 1e-6, _wrap(ModelDomain, "psi_up", lambda v: v + 1e-300)),
    # the flat_exp base bracket settles in its first pass, so only the
    # quartic profile can be cut short
    ("flat", "base-point bracket converged"): ("flat_quartic", 0.02, _cut_branch_and_bound),
    ("flat", "float/log agreement (slice leg)"):
        ("flat_exp", 0.02, _wrap(witnesses, "_atanh_stable", lambda d: d * (1.0 + 1e-6))),
}

_CONSTRUCTOR = {"product": "product", "gn": "gn", "tetra": "tetra", "hinge": "hinge",
                "flat_exp": "flat", "flat_quartic": "flat"}


@pytest.mark.parametrize("name", sorted(witnesses.FAMILIES))
def test_every_recorded_check_has_a_mutation(name):
    assert set(_CONSTRUCTOR) == set(witnesses.FAMILIES)
    rep = witnesses.FAMILIES[name].witness(_ONE_PARAM[name])
    recorded = [check for check, _ in rep.checks]
    mutated = [check for family, check in CHECK_MUTATIONS if family == _CONSTRUCTOR[name]]
    assert sorted(recorded) == sorted(mutated)


@pytest.mark.parametrize("key", list(CHECK_MUTATIONS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_recorded_check_fails_under_its_mutation(monkeypatch, key):
    name, param, mutate = CHECK_MUTATIONS[key]
    mutate(monkeypatch)
    with pytest.raises(CertificateError, match="^checks failed: ") as info:
        witnesses.FAMILIES[name].witness(param)
    assert key[1] in str(info.value).removeprefix("checks failed: ").split("; ")


def test_verify_product_suite_refuses_a_broken_midpoint(monkeypatch):
    # the suite reads the midpoint through each witness's own checks; at
    # s = 1 the stretched leg breaks the defect before it leaves 1/(2s)
    CHECK_MUTATIONS[("product", "w is a weak midpoint of (p, q)")][2](monkeypatch)
    (result,) = [r for r in verify.run_all() if r.name == "product"]
    assert not result.passed
    assert result.detail.startswith("CertificateError: checks failed: "), result.detail
