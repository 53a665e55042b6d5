"""Univariate polynomials as coefficient lists; the root finder's table
and properties are in test_invariants."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dscentral.upoly import derivative, from_roots, integral, interpolate, value

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
