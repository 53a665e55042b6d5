"""Univariate polynomials as coefficient lists; the root finder's table
and properties are in test_invariants."""

from fractions import Fraction
from math import factorial, lcm

from hypothesis import given, settings, strategies as st

from dscentral.upoly import (DegeneratePoint, derivative, from_roots, integral,
                             rational_roots, scaled_interpolate, value)


def interpolate(xs, ys):
    """Reference: the polynomial of degree below len(xs) through the
    points (x, y), the xs distinct, trailing zeros dropped (Newton's
    divided differences over Fraction)."""
    xs, c = list(xs), [Fraction(y) for y in ys]
    for j in range(1, len(c)):
        for i in range(len(c) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    p = []
    for x, ck in zip(reversed(xs), reversed(c)):
        p = [b - x * a for a, b in zip(p + [0], [0] + p)]    # p (z - x) + ck
        p[0] += ck
    while p and not p[-1]:
        p.pop()
    return p

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@settings(max_examples=100, deadline=None)
@given(rationals.filter(bool), st.lists(rationals, max_size=6))
def test_from_roots_vanishes_at_its_roots(c, roots):
    p = from_roots(c, roots)
    assert len(p) == len(roots) + 1 and p[-1] == c
    assert all(value(p, r) == 0 for r in roots)
    # at an integer the plain Horner path agrees with the Fraction one
    assert value(p, 3) == value(p, Fraction(3))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(rationals, st.integers(-50, 50)), max_size=7), rationals)
def test_integral_inverts_derivative(p, c0):
    q = integral(p, c0)
    assert q[0] == c0
    assert derivative(q) == p
    assert all(type(x) is Fraction for x in q[1:])


@settings(max_examples=100, deadline=None)
@given(st.lists(rationals, max_size=6), st.lists(rationals, min_size=7, max_size=9, unique=True))
def test_interpolate_recovers_the_polynomial(p, xs):
    # through more points than the degree needs, at rational abscissae
    while p and not p[-1]:
        p.pop()
    got = interpolate(xs, [value(p, x) for x in xs])
    assert got == p
    assert all(type(c) is Fraction for c in got)


def test_zero_polynomial():
    assert derivative([]) == derivative([7]) == []
    assert value([], 2) == value([], Fraction(1, 3)) == 0
    assert interpolate([0, 1, 2], [0, 0, 0]) == []


def _roots(p):
    try:
        return rational_roots(p)
    except DegeneratePoint as ex:
        return str(ex)


@st.composite
def integer_data(draw):
    """n + 1 integers, n <= 8: arbitrary ones, all zero, or the values at
    0..n of an integer polynomial with rational roots, of degree at most
    n (below n a degree drop; with repeated roots a degenerate point)."""
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(['any', 'zero', 'roots']))
    if kind == 'any':
        return draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n + 1, max_size=n + 1))
    if kind == 'zero':
        return [0] * (n + 1)
    roots = draw(st.lists(st.fractions(-6, 6, max_denominator=3), max_size=n))
    p = from_roots(draw(st.integers(-4, 4)), roots)
    scale = lcm(*(Fraction(c).denominator for c in p))
    return [int(value(p, z) * scale) for z in range(n + 1)]


@settings(max_examples=300, deadline=None)
@given(integer_data())
def test_scaled_interpolate_is_n_factorial_times_the_fraction_one(ys):
    n = len(ys) - 1
    want = interpolate(range(n + 1), ys)
    got = scaled_interpolate(ys)
    assert all(type(c) is int for c in got)
    assert got == [factorial(n) * c for c in want]
    assert _roots(got) == _roots(want)


def test_scaled_interpolate_edges():
    assert scaled_interpolate([]) == scaled_interpolate([0, 0, 0]) == []
    assert scaled_interpolate([7]) == [7]
    # degree 1 data on 0..3: 3! (2z + 1), the z^2 and z^3 terms dropped
    assert scaled_interpolate([1, 3, 5, 7]) == [6, 12]
    # z(z - 1)(z - 2) vanishes on 0..2, so only z = 3 sees the cube
    assert scaled_interpolate([0, 0, 0, 6]) == [0, 12, -18, 6]
