"""The outward-rounding layer against mpmath at 50 digits: each directed
end of a libm function brackets the exact value, on Python floats and on
numpy arrays, subnormal and huge arguments and values just either side of
a power of two included; the sums bracket
the exact sum and leave an exact one unchanged."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gromovlab import rounding
from gromovlab.rounding import down, sum_down, sum_up, up

mp = pytest.importorskip("mpmath")

_MAX = 1.7976931348623157e308
_BELOW_ONE = math.nextafter(1.0, 0.0)

# name -> (lower end, upper end, exact function, arguments, edge arguments);
# sqrt has only the lower end a certificate reads
FUNCTIONS = {
    "log": (rounding.log_down, rounding.log_up, mp.log,
            st.floats(min_value=5e-324, max_value=_MAX), [5e-324, 2.2e-308, 1.0, _MAX]),
    "log1p": (rounding.log1p_down, rounding.log1p_up, mp.log1p,
              st.floats(min_value=-_BELOW_ONE, max_value=_MAX), [-_BELOW_ONE, -5e-324, 5e-324, _MAX]),
    "exp": (rounding.exp_down, rounding.exp_up, mp.exp,
            st.floats(min_value=-800.0, max_value=709.0), [-800.0, -745.0, -708.5, 5e-324, 709.0]),
    "sqrt": (rounding.sqrt_down, None, mp.sqrt,
             st.floats(min_value=0.0, max_value=_MAX), [0.0, 5e-324, 2.2e-308, 2.0, _MAX]),
    "atanh": (rounding.atanh_down, rounding.atanh_up, mp.atanh,
              st.floats(min_value=-_BELOW_ONE, max_value=_BELOW_ONE), [-_BELOW_ONE, 5e-324, 0.5, _BELOW_ONE]),
}


def _near_powers_of_two(inverse, ys):
    # the floats around each argument where the exact value crosses y = 2^j,
    # where the floats on one side are half as far apart as on the other
    xs = []
    with mp.workdps(50):
        for y in ys:
            x = float(inverse(mp.mpf(y)))
            xs += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    return xs


BINADE_EDGES = {
    "log": _near_powers_of_two(mp.exp, [-1, 1, 4]),
    "log1p": _near_powers_of_two(mp.expm1, [0.5, 1, 2]),
    "exp": _near_powers_of_two(mp.log, [0.5, 2, 1024]),
    "sqrt": _near_powers_of_two(lambda y: y * y, [0.5, 2, 2**100]),
    "atanh": _near_powers_of_two(mp.tanh, [-0.5, 0.5, 1, 2]),
}


def _bracket_failures(name, xs):
    lower, upper, exact_fn, _, _ = FUNCTIONS[name]
    wrong = []
    with mp.workdps(50):
        exact = [exact_fn(mp.mpf(x)) for x in xs]
        upper = upper or (lambda x: np.full(np.shape(x), math.inf))
        scalar = [(lower(x), upper(x)) for x in xs]
        array = list(zip(lower(np.array(xs)).tolist(), upper(np.array(xs)).tolist()))
        for label, ends in (("scalar", scalar), ("array", array)):
            for x, (lo, hi), e in zip(xs, ends, exact):
                if not lo <= e <= hi:
                    wrong.append(f"{label} {name}({x!r}): [{lo!r}, {hi!r}] misses {mp.nstr(e, 20)}")
    return wrong


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_directed_ends_bracket_the_exact_value(name, data):
    xs = data.draw(st.lists(FUNCTIONS[name][3], min_size=1, max_size=8))
    assert not _bracket_failures(name, xs)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_directed_ends_bracket_at_the_edges(name):
    assert not _bracket_failures(name, FUNCTIONS[name][4] + BINADE_EDGES[name])


# the two hypot sources: CPython's own math.hypot, and libm's hypot, which
# abs(complex) and np.hypot call
HYPOTS = {
    "math.hypot": lambda xs, ys: [math.hypot(x, y) for x, y in zip(xs, ys)],
    "abs(complex)": lambda xs, ys: [abs(complex(x, y)) for x, y in zip(xs, ys)],
    "np.hypot": lambda xs, ys: np.hypot(np.array(xs), np.array(ys)).tolist(),
}


def _hypot_failures(name, xs, ys):
    wrong = []
    with mp.workdps(50):
        for x, y, h in zip(xs, ys, HYPOTS[name](xs, ys)):
            exact = mp.sqrt(mp.mpf(x) ** 2 + mp.mpf(y) ** 2)
            if not down(h, rounding.LIBM_FLOATS) <= exact <= up(h, rounding.LIBM_FLOATS):
                wrong.append(f"{name}({x!r}, {y!r}) = {h!r} misses {mp.nstr(exact, 20)}")
    return wrong


@pytest.mark.parametrize("name", sorted(HYPOTS))
@settings(max_examples=50, deadline=None)
@given(pairs=st.lists(st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
                      min_size=1, max_size=8))
def test_each_hypot_stays_inside_the_error_model(name, pairs):
    assert not _hypot_failures(name, *zip(*pairs))


@pytest.mark.parametrize("name", sorted(HYPOTS))
def test_each_hypot_stays_inside_the_error_model_at_hinge_scale(name):
    # O(1) legs, as ub_interior_ball's math.hypot(1, psi') and the hinge
    # bracket's np.hypot(x1 - u^2, 1 + u - s); here the two sources differ
    # in the last bit on under 1% of the pairs
    xs, ys = np.random.default_rng(7).uniform(-3.0, 3.0, (2, 2000)).tolist()
    edges = [(0.0, 0.0), (5e-324, 5e-324), (2.2e-308, 1e-300), (3.0, 4.0), (1e300, 1e300),
             (0.0, _MAX), (_MAX, 5e-324)]
    ex, ey = zip(*edges)
    assert not _hypot_failures(name, xs + list(ex), ys + list(ey))


def test_array_steps_match_repeated_nextafter():
    x = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -2.0, _MAX, -_MAX, math.inf, -math.inf, math.nan])
    for k in (1, 3, 128):
        for step, to in ((up, math.inf), (down, -math.inf)):
            want = x.copy()
            with np.errstate(over="ignore"):
                for _ in range(k):
                    want = np.nextafter(want, to)
                got = step(x, k)
            assert np.array_equal(got, want, equal_nan=True)
            assert [step(v, k) for v in x.tolist()[:-1]] == want.tolist()[:-1]


_FINITE = st.floats(min_value=-1e300, max_value=1e300)


@given(st.lists(_FINITE, min_size=1, max_size=6))
def test_sums_bracket_the_exact_sum(xs):
    exact = sum(Fraction(x) for x in xs)
    assert Fraction(sum_down(*xs)) <= exact <= Fraction(sum_up(*xs))
    lo, hi = sum_down(*map(np.array, xs)), sum_up(*map(np.array, xs))
    assert Fraction(float(lo)) <= exact <= Fraction(float(hi))


@given(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=6), st.integers(-1074, 900))
def test_an_exact_sum_does_not_step(ints, scale):
    # small integers times one power of two: every partial sum is exact
    xs = [math.ldexp(n, scale) for n in ints]
    total = math.ldexp(sum(ints), scale)
    assert sum_down(*xs) == total == sum_up(*xs)
    column = [np.array([x, -x]) for x in xs]
    assert sum_down(*column).tolist() == [total, -total] == sum_up(*column).tolist()
