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
    # u1 * u1' is exact, u1'^2 is not
    with pytest.raises(Exception):
        antiderivative(Poly.of('u', 1, 1) ** 2)


def test_divexact():
    rng = random.Random(3)
    for _ in range(20):
        a, b = rnd_poly(rng), rnd_poly(rng)
        if b.is_zero():
            continue
        assert ((a * b).divexact(b) - a).is_zero()


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

