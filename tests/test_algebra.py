"""Exact polynomial and matrix layer."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dscentral.algebra import (Poly, Prepared, _canon, _quo, accumulate, decode, evaluate,
                               exponent, monomial)


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


def dict_rule_product(p, q):
    """Reference: the decoded exponents of each monomial product merged
    through a dict and sorted, the cancelled exponents and coefficients
    dropped; keyed by the sorted (variable, exponent) pairs."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            d = dict(decode(m1))
            for v, e in decode(m2):
                d[v] = d.get(v, 0) + e
            m = tuple(sorted((v, e) for v, e in d.items() if e))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: _canon(c) for m, c in out.items() if c}


VARS = [(f, i, o) for f in ('a', 'u') for i in (1, 2) for o in (0, 1)]


@st.composite
def laurent_polys(draw):
    # few variables and exponents of both signs, so products often
    # cancel an exponent to 0; one-variable monomials are common
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        vs = draw(st.lists(st.sampled_from(VARS), max_size=3, unique=True))
        m = monomial((v, draw(st.sampled_from((-2, -1, 1, 2)))) for v in vs)
        c = Fraction(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 3)))
        terms[m] = _canon(c)
    return Poly(terms)


@settings(max_examples=200, deadline=None)
@given(laurent_polys(), laurent_polys())
def test_product_matches_dict_rule(a, b):
    assert {decode(m): c for m, c in (a * b).terms.items()} == dict_rule_product(a, b)


BOUND = 2 ** 14         # exponents lie in [-BOUND, BOUND)
JET_VARS = [(f, i, o) for f in ('a', 'b', 'u', 'rho') for i in (1, 2, 3) for o in (0, 1, 5)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(JET_VARS),
                          st.integers(-BOUND, BOUND - 1) | st.integers(-3, 3)),
                max_size=6, unique_by=lambda p: p[0]))
def test_monomial_round_trip(pairs):
    # pack and decode, negative exponents and the ends of the range
    # included; the order of the pairs does not matter
    m = monomial(pairs)
    want = tuple(sorted((v, e) for v, e in pairs if e))
    assert decode(m) == want
    assert monomial(reversed(pairs)) == m
    for v in JET_VARS:
        assert exponent(m, v) == dict(pairs).get(v, 0)
    assert exponent(m, ('never', 0, 0)) == 0
    assert monomial(()) == 0 and decode(0) == ()


def test_monomial_product_one_variable():
    u1, u2, a1 = ('u', 1, 0), ('u', 2, 0), ('a', 1, 0)
    m = Poly({monomial([(a1, 1), (u2, -1)]): 1})

    def prod(p, pairs):
        (key, c), = (p * Poly({monomial(pairs): 1})).terms.items()
        return decode(key)
    assert prod(m, [(u1, 2)]) == ((a1, 1), (u1, 2), (u2, -1))           # inserted
    assert prod(Poly.of(*u1, exp=2), [(a1, 1), (u2, -1)]) == prod(m, [(u1, 2)])  # either side
    assert prod(m, [(('v', 1, 0), 1)]) == ((a1, 1), (u2, -1), (('v', 1, 0), 1))
    assert prod(m, [(a1, -3)]) == ((a1, -2), (u2, -1))                  # raised
    assert prod(m, [(u2, 1)]) == ((a1, 1),)                             # cancelled
    assert prod(Poly.of('u', 2), [(u2, -1)]) == ()


def test_exponent_range_raises_overflow():
    x, y = ('u', 7, 0), ('u', 8, 0)
    for e in (BOUND - 1, -BOUND):
        assert decode(monomial([(x, e)])) == ((x, e),)
        assert exponent(Poly.of(*x, exp=e).terms.popitem()[0], x) == e
    for e in (BOUND, -BOUND - 1, 10 ** 6):
        with pytest.raises(OverflowError):
            monomial([(x, e)])
        with pytest.raises(OverflowError):
            Poly.of(*x, exp=e)
    with pytest.raises(OverflowError):          # a repeated variable
        monomial([(x, BOUND - 1), (x, 1)])
    # a chain of products: two x^8000 fit, three do not, and neither
    # do four, which would wrap a 16-bit field
    p = Poly.of(*x, exp=8000) * Poly.of(*y)
    assert decode((p * p).terms.popitem()[0]) == ((x, 16000), (y, 2))
    for k in (3, 4):
        with pytest.raises(OverflowError):
            q = p
            for _ in range(k - 1):
                q = q * p
    with pytest.raises(OverflowError):
        Poly.of(*x, exp=-8000) * Poly.of(*x, exp=-8000) * Poly.of(*x, exp=-8000)
    # powers, quotients and derivatives are checked too
    assert decode((Poly.of(*x, exp=100) ** 163).terms.popitem()[0]) == ((x, 16300),)
    with pytest.raises(OverflowError):
        Poly.of(*x, exp=100) ** 164
    with pytest.raises(OverflowError):
        Poly.of(*x, exp=-BOUND).diff(x)
    with pytest.raises(OverflowError):
        (Poly.of(*x) * Poly.of('u', 7, 1, BOUND - 1)).xdiff()



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


# The greedy inverse of the total x-derivative, a reference for
# `brackets.gy_exact`, which lowers one jet in one step.

def antiderivative(p, frozen=frozenset()):
    """Inverse of the total x-derivative; raises ValueError if `p` is not
    a total derivative.  Greedy: repeatedly strip the term with the
    highest-order jet variable, in which a total derivative is linear."""
    rem = dict(p.terms)
    out = {}
    for _ in range(20000):
        if not rem:
            return Poly(out)
        best = None
        for m, c in rem.items():
            pairs = decode(m)
            top = max(((v[2], v) for v, e in pairs if v[0] not in frozen), default=None)
            if top is None or top[1][2] == 0:
                raise ValueError("not a total x-derivative")
            key = (top[0], pairs)
            if best is None or key > best[0]:
                best = (key, m, c, top[1])
        _, m, c, v = best
        if exponent(m, v) != 1:
            raise ValueError("not a total x-derivative")
        v2 = (v[0], v[1], v[2] - 1)
        e2 = exponent(m, v2) + 1
        if not e2:              # v / v2 integrates to a logarithm
            raise ValueError("not a total x-derivative")
        cand = Poly({monomial(((v, -1), (v2, 1)), m): _quo(c, e2)})
        for m2, c2 in cand.terms.items():
            accumulate(out, m2, c2)
        for m2, c2 in cand.xdiff(frozen).terms.items():
            accumulate(rem, m2, -c2)
    raise ValueError("antiderivative did not terminate")


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
            term = term * Poly.of(*v, draw(st.integers(-2 if v[0] == 'p' else u_low, 2)))
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
        for v, e in decode(m):
            t *= pt[v] ** e
        tot += t
    return tot


def ev_deriv(p, pt, var=None, frozen=FROZEN):
    """Value of d/d(var) p, or of the total x-derivative when var is None,
    from the terms of p in Fraction arithmetic."""
    tot = Fraction(0)
    for m, c in p.terms.items():
        for v, e in decode(m):
            if v[0] in frozen or (var is not None and v != var):
                continue
            t = Fraction(c) * e * pt[v] ** (e - 1)
            if var is None:
                t *= pt[(v[0], v[1], v[2] + 1)]
            for w, f in decode(m):
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
    if all(e >= 0 for m in a.terms for v, e in decode(m) if v == ('u', 2, 1)):
        got['subs Poly'] = (a.subs({('u', 2, 1): b}), ev(a, {**pt, ('u', 2, 1): B}))
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
              Poly.num(3) / 3, Poly.of('u', 1).subs({('u', 1, 0): Fraction(6, 3)})):
        assert canonical(p), p.terms
    assert {decode(m): c for m, c in (half * 2).terms.items()} == {((('u', 1, 0), 1),): 1}


def test_constant_and_coeff_of_return_fractions():
    for c in (Poly.num(5).constant(), Poly.num(Fraction(1, 2)).constant(),
              Poly().constant()):
        assert type(c) is Fraction
    p = Poly.of('u', 1) * 3 + 2
    for mono, want in (((), 2), ([(('u', 1, 0), 1)], 3), ([(('u', 2, 0), 1)], 0)):
        assert type(p.coeff_of(monomial(mono))) is Fraction
        assert p.coeff_of(monomial(mono)) == want
    with pytest.raises(ValueError):
        p.constant()


@pytest.mark.parametrize('value', [0.5, 0.1, Decimal('0.5'), '1/3', 1 + 2j],
                         ids=['float', 'float 0.1', 'Decimal', 'str', 'complex'])
def test_only_exact_coefficients(value):
    # int, bool and Fraction only: no float reaches a coefficient
    u = Poly.of('u', 1)
    for make in (Poly.num, lambda c: u * c, lambda c: c * u, lambda c: u + c,
                 lambda c: u - c, lambda c: u / c, lambda c: u.subs({('u', 1, 0): c})):
        with pytest.raises(TypeError):
            make(value)
    assert (Poly.num(Fraction(1, 2)) == 0.5) is False


def test_hash_agrees_with_equality():
    for c in (0, 3, -7, Fraction(1, 2), True):
        assert Poly.num(c) == c
        assert hash(Poly.num(c)) == hash(c)
    assert Poly() == 0 and hash(Poly()) == hash(0)
    table = {Poly.num(3): 'a', Poly.of('u', 1): 'b', Fraction(1, 2): 'c'}
    assert table.get(3) == 'a'
    assert table.get(Poly.num(Fraction(1, 2))) == 'c'
    assert table.get(Poly.of('u', 1) * 1) == 'b'
    assert hash(Poly.of('u', 1) + 1) == hash(1 + Poly.of('u', 1))


# The point evaluator against subs and diff, on Polys in u_1..u_4.

U4 = [('u', k, 0) for k in range(1, 5)]
coords = st.one_of(st.just(Fraction(0)), st.integers(-5, 5).map(Fraction),
                   st.fractions(-5, 5, max_denominator=7))


@st.composite
def u4_polys(draw):
    out = Poly()
    for _ in range(draw(st.integers(0, 4))):
        term = Poly.num(draw(exact_coeffs))
        for _ in range(draw(st.integers(0, 3))):
            term = term * Poly.of('u', draw(st.integers(1, 4)), 0, draw(st.integers(0, 3)))
        out = out + term
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(u4_polys(), max_size=4), st.lists(coords, min_size=4, max_size=4))
def test_evaluate_agrees_with_subs(ps, pt):
    sub = dict(zip(U4, pt))
    vals, d = evaluate(ps, pt)
    assert all(type(x) is int for x in vals + [d])
    for p, x in zip(ps, vals):
        assert Fraction(x, d) == p.subs(sub).constant()


def test_evaluate_refuses_other_variables_and_negative_exponents():
    u1 = Poly.of('u', 1)
    for p in (u1 * Poly.of('u', 3), u1 + Poly.of('x', 1), u1 + Poly.of('u', 2, 0, -1)):
        with pytest.raises(ValueError, match=r'not a polynomial in u_1\.\.u_2'):
            evaluate([Poly.num(1), p], [1, 2])


@st.composite
def shared_polys(draw):
    """Polys over one small pool of monomials in u_1..u_4, the constant
    one among them, so that monomials recur across Polys; a Poly may be
    empty or constant, and coefficients are int or Fraction."""
    pool = [Poly.num(1)] + [
        Poly.of('u', draw(st.integers(1, 4)), 0, draw(st.integers(1, 3)))
        * Poly.of('u', draw(st.integers(1, 4)), 0, draw(st.integers(0, 2)))
        for _ in range(draw(st.integers(0, 4)))]
    out = []
    for _ in range(draw(st.integers(0, 5))):
        p = Poly()
        for m in draw(st.lists(st.sampled_from(pool), max_size=4)):
            p = p + m * draw(st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6)))
        out.append(p)
    return out


@settings(max_examples=80, deadline=None)
@given(shared_polys(), st.lists(st.lists(coords, min_size=4, max_size=4), min_size=1, max_size=4))
def test_prepared_evaluation_equals_one_shot(ps, points):
    # one Prepared read at several points: each value is the one-shot
    # evaluate's, and subs agrees, so no point leaves state behind; the
    # first two Polys recur, as the entries of a symmetric tensor do
    ps = ps + ps[:2]
    prepared = Prepared(ps)
    for pt in points:
        vals, d = evaluate(prepared, pt)
        assert (vals, d) == evaluate(ps, pt)
        sub = dict(zip(U4, pt))
        assert [Fraction(x, d) for x in vals] == [p.subs(sub).constant() for p in ps]


def test_prepared_evaluation_refuses_at_the_point():
    # the ValueError comes from evaluate, with the one-shot text: whether
    # a monomial lies in u_1..u_n depends on the point
    u1 = Poly.of('u', 1)
    cases = [(u1 * Poly.of('u', 3), '1*u_1^(0)*u_3^(0)'), (u1 + Poly.of('x', 1), '1*x_1^(0)'),
             (u1 + Poly.of('u', 2, 0, -1), '1*u_2^(0)**-1'), (Poly.of('u', 1, 1), '1*u_1^(1)'),
             (Poly.of('u', 0), '1*u_0^(0)')]
    for p, mono in cases:
        prepared = Prepared([Poly.num(1), p])
        text = 'not a polynomial in u_1..u_2: ' + mono
        for polys in ([Poly.num(1), p], prepared):
            with pytest.raises(ValueError) as ex:
                evaluate(polys, [1, 2])
            assert str(ex.value) == text
    # u_3 is fine at a point with three coordinates
    prepared = Prepared([u1 * Poly.of('u', 3)])
    assert evaluate(prepared, [2, 0, 5]) == evaluate([u1 * Poly.of('u', 3)], [2, 0, 5]) == ([10], 1)
