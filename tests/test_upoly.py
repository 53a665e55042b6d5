"""Univariate polynomials as coefficient lists; the root finder's table
and properties are in test_invariants."""

import signal
from contextlib import contextmanager
from fractions import Fraction
from math import factorial, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from dscentral import upoly
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


def _single_root(q, a, b):
    """The root of q in (a, b], where q has exactly one, simple root, if
    it is an integer, else None.  Bisects on the sign of q alone."""
    vb = value(q, b)
    if vb == 0:
        return b
    while b - a > 1:
        m = (a + b) // 2
        vm = value(q, m)
        if vm == 0:
            return m
        if (vm > 0) == (vb > 0):
            b, vb = m, vm
        else:
            a = m
    return None


def _bisected_integer_roots(seq):
    """Ascending integer roots of the squarefree monic q = seq[0], given
    its Sturm sequence: V(a) - V(b) roots lie in (a, b], and an interval
    that holds one root is bisected on the sign of q."""
    q = seq[0]
    d = len(q) - 1
    vlo, vhi = upoly._at_infinity(seq)
    if vlo - vhi == d:
        # all roots real: their squares sum to q_{d-1}^2 - 2 q_{d-2}
        bound = isqrt(q[d - 1] ** 2 - 2 * (q[d - 2] if d > 1 else 0)) + 1
    else:
        bound = 1 + max(abs(c) for c in q[:-1])   # Cauchy
    out, stack = [], [(-bound, vlo, bound, vhi)]
    while stack:
        a, va, b, vb = stack.pop()
        if va - vb == 1:
            y = _single_root(q, a, b)
            if y is not None:
                out.append(y)
        elif va - vb > 1:
            if b - a == 1:
                if value(q, b) == 0:
                    out.append(b)
                continue
            m = (a + b) // 2
            vm = upoly._variations([value(p, m) for p in seq])
            stack += [(m, vm, b, vb), (a, va, m, vm)]
    return sorted(out)


def rational_roots_by_bisection(p):
    """Reference: the root search that the integer Newton descent and the
    squarefree part of gcd(q, q') replaced.  Every integer root of the
    monic q, or of its squarefree part q / gcd(q, q') when q has a
    repeated root, is isolated by Sturm bisection."""
    deg = len(p) - 1
    den = lcm(*(Fraction(c).denominator for c in p))
    p = [Fraction(c).numerator * (den // Fraction(c).denominator) for c in p]
    while p and not p[-1]:
        p.pop()
    if len(p) < 2:
        return [] if deg == 0 else None
    p = upoly._primitive(p if p[-1] > 0 else [-c for c in p])
    d, lc = len(p) - 1, p[-1]
    q = [c * lc ** (d - 1 - i) for i, c in enumerate(p[:-1])] + [1]
    seq = upoly._sturm(q)
    g = seq[-1]
    if len(g) > 1:
        g = g if g[-1] > 0 else [-c for c in g]
        if any(value(g, y) == 0
               for y in _bisected_integer_roots(upoly._sturm(upoly._exquo(q, g)))):
            raise DegeneratePoint("repeated critical point")
        return None
    ys = _bisected_integer_roots(seq)
    return [Fraction(y, lc) for y in ys] if len(ys) == deg else None


def _times(p, f):
    return [sum(p[i] * f[k - i] for i in range(len(p)) if 0 <= k - i < len(f))
            for k in range(len(p) + len(f) - 1)]


@st.composite
def root_cases(draw):
    """A polynomial: any small integer coefficients, or c times linear
    factors at rationals (a cluster of integers near a large base, at
    times over a large denominator) with optional repeated roots, an
    irrational pair (x - b)^2 - m near them and trailing zeros (a degree
    drop); the zero polynomial among the first kind."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-9, 9), max_size=7))
    base, den = draw(st.integers(-10 ** 6, 10 ** 6)), draw(st.sampled_from([1, 2, 7, 10 ** 9 + 7]))
    roots = [Fraction(base + k, den) for k in draw(st.lists(st.integers(-4, 4), max_size=6))]
    factors = [[-r, 1] for r in roots]
    if draw(st.booleans()):
        b, m = base + draw(st.integers(-4, 4)), draw(st.integers(1, 30))
        factors.append([b * b - m, -2 * b, 1])
    p = [draw(st.sampled_from([1, -3, Fraction(5, 2)]))]
    for f in factors:
        p = _times(p, f)
    return p + [0] * draw(st.integers(0, 1))


@contextmanager
def search_ends(seconds=10):
    """SIGALRM turns a root search that does not end into a failure."""
    alarm = getattr(signal, 'SIGALRM', None)
    if alarm is None:
        yield
        return
    old = signal.signal(alarm, lambda *_: pytest.fail('the root search did not end'))
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(alarm, old)


@settings(max_examples=400, deadline=None)
@given(root_cases())
def test_rational_roots_matches_the_bisection_reference(p):
    def outcome(finder):
        try:
            return finder(p)
        except DegeneratePoint as ex:
            return str(ex)
    with search_ends():
        assert outcome(rational_roots) == outcome(rational_roots_by_bisection)


@pytest.mark.parametrize('roots,b,m', [
    ([3, 4, 5], 4, 2),                      # 4 + sqrt 2 in (5, 6), above every root
    ([0, 1, 2, 3, 6], 2, 2),                # 2 + sqrt 2 in (3, 4), between 3 and 6
    ([-568259, -568256, -568255, -568254, -568253], -568255, 2)])
def test_rational_roots_next_to_an_irrational_root(roots, b, m):
    # the integer roots times (x - b)^2 - m: the descent meets an integer
    # root at y - 1 with an irrational one in (y - 1, y), and must not
    # divide it out from below that root
    p = [1]
    for f in [[-r, 1] for r in roots] + [[b * b - m, -2 * b, 1]]:
        p = _times(p, f)
    with search_ends():
        assert rational_roots(p) is rational_roots_by_bisection(p) is None
        with pytest.raises(DegeneratePoint, match='repeated'):
            rational_roots(_times(p, [-roots[0], 1]))
