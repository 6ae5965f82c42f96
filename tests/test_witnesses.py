"""Witness families: certified divergences and their structural checks."""

import math

import pytest

from gromovlab import witnesses
from gromovlab.exact import polydisc_axis_oracle
from gromovlab.models import FLAT_EXP_MODEL, FLAT_QUARTIC_MODEL
from gromovlab.witnesses import (
    alpha_schedule,
    claims_check,
    defect_interval,
    flat_witness,
    gn_witness,
    hinge_witness,
    product_witness,
    tetra_witness,
)


def _all_checks_pass(rep):
    bad = [name for name, ok in rep.checks if not ok]
    assert not bad, bad


# -- product -----------------------------------------------------------------

@pytest.mark.parametrize("s", [1.0, 5.0, 50.0, 300.0])
def test_product_witness_defect_is_exact(s):
    rep = product_witness(s)
    assert rep.s_lb == s
    _all_checks_pass(rep)


def test_product_witness_quadruple_realizes_defect():
    from gromovlab.core import four_point_defect

    s = 7.0
    rep = product_witness(s)
    d = polydisc_axis_oracle(2).fn
    p, q, x, w = rep.quadruple
    assert four_point_defect(d, p, q, x, w).defect == pytest.approx(s, abs=1e-12)


# -- tetrablock ----------------------------------------------------------------

@pytest.mark.parametrize("a", [0.5, 0.9, 0.99, 0.999])
def test_tetra_witness_defect_is_atanh(a):
    rep = tetra_witness(a)
    assert rep.s_lb == pytest.approx(math.atanh(a), abs=1e-9)
    _all_checks_pass(rep)
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
    _all_checks_pass(rep)


# -- hinge -----------------------------------------------------------------------

@pytest.mark.parametrize("delta", [1e-4, 1e-10, 1e-22])
def test_hinge_witness_checks_pass(delta):
    rep = hinge_witness(delta)
    _all_checks_pass(rep)


def test_hinge_witness_values_increase_as_delta_shrinks():
    v = [hinge_witness(d).s_lb for d in (1e-6, 1e-14, 1e-22)]
    assert v[0] < v[1] < v[2]


# -- flat profiles ----------------------------------------------------------------

@pytest.mark.parametrize("x", [0.02, 0.0005, 1e-7])
def test_flat_witness_exp_checks_pass(x):
    rep = flat_witness(FLAT_EXP_MODEL, x)
    _all_checks_pass(rep)


def test_flat_witness_exp_grows_quartic_does_not():
    xs = [0.02 * math.exp(-2.0 * k) for k in range(5)]
    ev = [flat_witness(FLAT_EXP_MODEL, x).s_lb for x in xs]
    qv = [flat_witness(FLAT_QUARTIC_MODEL, x).s_lb for x in xs]
    assert ev[-1] - ev[0] > 3.0
    assert abs(qv[-1] - qv[0]) < 0.1


@pytest.mark.parametrize("m", [FLAT_EXP_MODEL, FLAT_QUARTIC_MODEL], ids=lambda m: m.name)
@pytest.mark.parametrize("x", [0.02, 0.05, 0.1])
def test_claims_check_float_regime(m, x):
    for claim in claims_check(m, x):
        assert claim.passed, f"{claim.name}: {claim.detail}"


def test_claims_check_refuses_log_regime():
    from gromovlab.convex import CertificateError

    with pytest.raises(CertificateError):
        claims_check(FLAT_EXP_MODEL, 1e-9)


def test_alpha_schedule_keeps_increment_in_slab():
    for x in (0.02, 0.05, 0.1):
        p = FLAT_EXP_MODEL.profile
        a = alpha_schedule(p, x)
        inc = p.value(x) - p.value((1.0 - a) * x)
        hi = a * x * p.deriv(x)
        assert hi / 4.0 <= inc <= hi * (1.0 + 1e-12)
