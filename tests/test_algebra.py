"""Exact polynomial and matrix layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dscentral.algebra import (Poly, antiderivative, bareiss_det,
                               bareiss_adjugate)


def rnd_poly(rng, nterms=3, families=('u',), maxorder=2):
    out = Poly()
    for _ in range(nterms):
        fam = rng.choice(families)
        m = Poly.of(fam, rng.randint(1, 3), rng.randint(0, maxorder),
                    rng.randint(0, 2))
        out = out + m * Fraction(rng.randint(-5, 5))
    return out


coeffs = st.integers(min_value=-6, max_value=6)


@st.composite
def polys(draw):
    out = Poly()
    for _ in range(draw(st.integers(1, 3))):
        c = draw(coeffs)
        i = draw(st.integers(1, 2))
        o = draw(st.integers(0, 1))
        e = draw(st.integers(0, 2))
        out = out + Poly.of('u', i, o, e) * Fraction(c)
    return out


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert ((a + b) * c - (a * c + b * c)).is_zero()
    assert (a * (b * c) - (a * b) * c).is_zero()
    assert (a * b - b * a).is_zero()
    assert (a + (-a)).is_zero()


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_diff_product_rule(a, b):
    v = ('u', 1, 0)
    lhs = (a * b).diff(v)
    rhs = a.diff(v) * b + a * b.diff(v)
    assert (lhs - rhs).is_zero()


def test_xdiff_raises_jet_order():
    u = Poly.of('u', 1, 0)
    assert u.xdiff() == Poly.of('u', 1, 1)
    # Leibniz on a product of two jets
    p = Poly.of('u', 1, 0) * Poly.of('u', 2, 1)
    q = Poly.of('u', 1, 1) * Poly.of('u', 2, 1) \
        + Poly.of('u', 1, 0) * Poly.of('u', 2, 2)
    assert (p.xdiff() - q).is_zero()


def test_xdiff_frozen_families():
    p = Poly.of('p') * Poly.of('u', 1, 0)
    d = p.xdiff(frozenset({'p'}))
    assert (d - Poly.of('p') * Poly.of('u', 1, 1)).is_zero()


def test_subs_evaluates():
    p = Poly.of('u', 1) ** 2 + Poly.of('u', 2) * 3
    got = p.subs({('u', 1, 0): Poly.num(Fraction(1, 2)),
                  ('u', 2, 0): Poly.num(2)})
    assert got.constant() == Fraction(25, 4)


def test_antiderivative_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        p = rnd_poly(rng)
        d = p.xdiff()
        a = antiderivative(d)
        assert (a.xdiff() - d).is_zero()


def test_antiderivative_rejects_non_exact():
    # u1 * u1' is exact; u1'^2 and u1 u1''^2 are not, being nonlinear in
    # their top jet, and u1' / u1 integrates to log u1; each is rejected
    # on sight, not at the iteration cap
    u = Poly.of('u', 1)
    for p in (Poly.of('u', 1, 1) ** 2, u * Poly.of('u', 1, 2) ** 2,
              Poly.of('u', 1, 1) * Poly.of('u', 1, 0, -1)):
        with pytest.raises(ValueError, match='not a total x-derivative'):
            antiderivative(p)


def test_divexact():
    rng = random.Random(3)
    for _ in range(20):
        a, b = rnd_poly(rng), rnd_poly(rng)
        if b.is_zero():
            continue
        assert ((a * b).divexact(b) - a).is_zero()
    u1, u2, p = Poly.of('u', 1), Poly.of('u', 2), Poly.of('p')
    pinv = Poly.of('p', exp=-1)
    a = u1 * u2 / 2 + 7 * pinv - Fraction(3, 4) * u1 ** 2
    divisors = [pinv * u1 + 2,                       # Laurent
                u1 * pinv ** 2 - 3 * u2 * p,          # Laurent, both sides
                3 * u1 ** 2 - 2 * u2 + 5,             # leading coefficient 3
                -6 * u1 * u2 + Fraction(1, 2)]        # leading coefficient -6
    for b in divisors:
        q = (a * b).divexact(b)
        assert q == a
        assert canonical(q)
    with pytest.raises(ValueError):
        (u1 ** 2 + 1).divexact(u1 + 1)
    with pytest.raises(ValueError):
        (2 * u1 + 1).divexact(3 * u1 ** 2 + u2)
    with pytest.raises(ValueError):
        (a * (u1 + 1) + 1).divexact(u1 + 1)


# The kernel stores int or Fraction coefficients.  Its results are checked
# against plain Fraction evaluation of the same operations at a point.

JETS = [('u', 1, 0), ('u', 1, 1), ('u', 2, 0), ('u', 2, 1), ('p', 0, 0)]
POINT_VARS = [('u', i, k) for i in (1, 2) for k in range(3)] + [('p', 0, 0)]
FROZEN = frozenset({'p'})

exact_coeffs = st.one_of(
    st.integers(-6, 6),
    st.fractions(-6, 6, max_denominator=6),
    st.integers(-3, 3).map(lambda k: Fraction(2 * k, 2)))   # integral Fraction
nonzero = st.fractions(-4, 4, max_denominator=5).filter(bool)
points = st.lists(nonzero, min_size=len(POINT_VARS),
                  max_size=len(POINT_VARS)).map(lambda xs: dict(zip(POINT_VARS, xs)))


@st.composite
def laurent_polys(draw, u_low=-2):
    """Mixed int/Fraction coefficients; u exponents from u_low, p Laurent."""
    out = Poly()
    for _ in range(draw(st.integers(0, 4))):
        term = Poly.num(draw(exact_coeffs))
        for _ in range(draw(st.integers(0, 2))):
            v = draw(st.sampled_from(JETS))
            term = term * Poly.from_var(v, draw(st.integers(-2 if v[0] == 'p' else u_low, 2)))
        out = out + term
    return out


def canonical(p):
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms.values()) and all(p.terms.values())


def ev(p, pt):
    """Value of p at a point, in Fraction arithmetic."""
    tot = Fraction(0)
    for m, c in p.terms.items():
        t = Fraction(c)
        for v, e in m:
            t *= pt[v] ** e
        tot += t
    return tot


def ev_deriv(p, pt, var=None, frozen=FROZEN):
    """Value of d/d(var) p, or of the total x-derivative when var is None,
    from the terms of p in Fraction arithmetic."""
    tot = Fraction(0)
    for m, c in p.terms.items():
        for v, e in m:
            if v[0] in frozen or (var is not None and v != var):
                continue
            t = Fraction(c) * e * pt[v] ** (e - 1)
            if var is None:
                t *= pt[(v[0], v[1], v[2] + 1)]
            for w, f in m:
                if w != v:
                    t *= pt[w] ** f
            tot += t
    return tot


@settings(max_examples=80, deadline=None)
@given(laurent_polys(), laurent_polys(), exact_coeffs, points)
def test_kernel_agrees_with_fraction_evaluation(a, b, k, pt):
    A, B = ev(a, pt), ev(b, pt)
    got = {'+': (a + b, A + B), '-': (a - b, A - B), '*': (a * b, A * B),
           'scalar *': (a * k, A * k), 'scalar r*': (k * a, k * A),
           '**': (a ** 3, A ** 3),
           'diff': (a.diff(('u', 1, 0)), ev_deriv(a, pt, ('u', 1, 0))),
           'xdiff': (a.xdiff(FROZEN), ev_deriv(a, pt))}
    if k:
        got['scalar /'] = (a / k, A / Fraction(k))
    x, y = pt[('u', 1, 2)], pt[('u', 2, 2)]      # values a and b never read
    got['subs'] = (a.subs({('u', 1, 0): x, ('p', 0, 0): Poly.num(y)}),
                   ev(a, {**pt, ('u', 1, 0): x, ('p', 0, 0): y}))
    if all(e >= 0 for m in a.terms for v, e in m if v == ('u', 2, 1)):
        got['subs Poly'] = (a.subs({('u', 2, 1): b}), ev(a, {**pt, ('u', 2, 1): B}))
    if not b.is_zero():
        q = (a * b).divexact(b)
        assert q == a
        got['divexact'] = (q, A)
    for name, (p, want) in got.items():
        assert canonical(p), (name, p.terms)
        assert ev(p, pt) == want, name


@settings(max_examples=60, deadline=None)
@given(laurent_polys(u_low=0), points)
def test_antiderivative_agrees_with_fraction_evaluation(a, pt):
    d = a.xdiff(FROZEN)
    f = antiderivative(d, FROZEN)
    assert canonical(f)
    assert f.xdiff(FROZEN) == d
    assert ev_deriv(f, pt) == ev(d, pt)


def test_coefficients_are_canonical():
    half = Poly.num(Fraction(1, 2)) * Poly.of('u', 1)
    for p in (Poly.num(Fraction(4, 2)), Poly.num(True), half * 2, half + half,
              (half * Poly.of('u', 2)).divexact(Poly.of('u', 2) * 4),
              Poly.num(3) / 3, Poly.of('u', 1).subs({('u', 1, 0): Fraction(6, 3)})):
        assert canonical(p), p.terms
    assert (half * 2).terms == {((('u', 1, 0), 1),): 1}


def test_constant_and_coeff_of_return_fractions():
    for c in (Poly.num(5).constant(), Poly.num(Fraction(1, 2)).constant(),
              Poly().constant()):
        assert type(c) is Fraction
    p = Poly.of('u', 1) * 3 + 2
    for mono, want in (((), 2), ([(('u', 1, 0), 1)], 3), ([(('u', 2, 0), 1)], 0)):
        assert type(p.coeff_of(mono)) is Fraction
        assert p.coeff_of(mono) == want
    with pytest.raises(ValueError):
        p.constant()


def rnd_frac_matrix(rng, n):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(n)] for _ in range(n)]


def naive_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    tot = Fraction(0)
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        tot += (-1) ** j * m[0][j] * naive_det(sub)
    return tot


def test_bareiss_det_matches_cofactor_expansion():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(5):
            m = rnd_frac_matrix(rng, n)
            pm = [[Poly.num(x) for x in row] for row in m]
            assert bareiss_det(pm).constant() == naive_det(m)


def test_bareiss_adjugate_identity():
    rng = random.Random(13)
    u1 = Poly.of('u', 1)
    m = [[u1 + 1, Poly.num(2), Poly.num(0)],
         [Poly.num(1), u1, Poly.num(1)],
         [Poly.num(0), Poly.num(3), u1 - 1]]
    adj, det = bareiss_adjugate(m)
    n = 3
    for i in range(n):
        for j in range(n):
            acc = Poly()
            for k in range(n):
                acc = acc + m[i][k] * adj[k][j]
            want = det if i == j else Poly()
            assert (acc - want).is_zero()

