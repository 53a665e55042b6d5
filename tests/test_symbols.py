"""Star product calculus on truncated symbols.

The composition law is checked against its defining properties rather
than against stored expansions: associativity order by order in eps,
the adjoint as an anti-involution, and exactness of the commutator
residue.
"""

import random
from fractions import Fraction

from dscentral.algebra import Poly, antiderivative
from dscentral.symbols import Symbol


def rnd_symbol(rng, K=4, maxorder=2):
    coeffs = {}
    for _ in range(3):
        mono = Poly.num(Fraction(rng.randint(-4, 4)))
        mono = mono * Poly.of('u', rng.randint(1, 2), rng.randint(0, maxorder))
        k = rng.randint(-2, 2)
        coeffs[k] = coeffs.get(k, Poly()) + mono
    return Symbol.from_p_poly(coeffs, K=K)


def test_star_leading_term_is_product():
    f = Symbol.from_p_poly({0: Poly.of('u', 1)}, K=3)
    p = Symbol.from_p_poly({1: 1}, K=3)
    prod = p.star(f)
    # p * u = u p + eps u'
    assert (prod.coeff(1, 0) - Poly.of('u', 1)).is_zero()
    assert (prod.coeff(0, 1) - Poly.of('u', 1, 1)).is_zero()
    # the other order picks up no correction
    assert (f.star(p).coeff(0, 1)).is_zero()


def test_star_associative():
    rng = random.Random(1)
    for _ in range(25):
        x, y, z = (rnd_symbol(rng) for _ in range(3))
        assert (x.star(y).star(z) - x.star(y.star(z))).is_zero()


def test_star_distributes():
    rng = random.Random(2)
    for _ in range(10):
        x, y, z = (rnd_symbol(rng) for _ in range(3))
        assert ((x + y).star(z) - (x.star(z) + y.star(z))).is_zero()


def test_adjoint_involution():
    rng = random.Random(3)
    for _ in range(25):
        x = rnd_symbol(rng)
        assert (x.adjoint().adjoint() - x).is_zero()


def test_adjoint_antihomomorphism():
    rng = random.Random(4)
    for _ in range(25):
        x, y = rnd_symbol(rng), rnd_symbol(rng)
        assert (x.star(y).adjoint() - y.adjoint().star(x.adjoint())).is_zero()


def test_commutator_residue_is_exact():
    # res [A, B] must be a total x-derivative: the antiderivative exists
    # and differentiates back
    rng = random.Random(5)
    for _ in range(15):
        x, y = rnd_symbol(rng), rnd_symbol(rng)
        resid = x.commutator(y).residue()
        for e, pol in resid.items():
            a = antiderivative(pol)
            assert (a.xdiff() - pol).is_zero()


def test_positive_negative_split():
    rng = random.Random(6)
    for _ in range(10):
        x = rnd_symbol(rng)
        assert (x.positive() + x.negative() - x).is_zero()
        assert x.positive().pmin() >= 0 if not x.positive().is_zero() else True


def test_eps_grading_of_star():
    # with both factors eps-free, the eps^k part of the product carries
    # exactly k x-derivatives
    f = Symbol.from_p_poly({2: Poly.of('u', 1)}, K=4)
    g = Symbol.from_p_poly({-1: Poly.of('u', 2)}, K=4)
    prod = f.star(g)
    for (pw, e), pol in prod.c.items():
        for m, c in pol.terms.items():
            tot = sum(v[2] * ex for v, ex in m)
            assert tot == e


def test_coeff_and_residue_accessors():
    s = Symbol.from_p_poly({-1: Poly.of('u', 1), 3: Poly.num(2)}, K=2)
    assert (s.coeff(-1) - Poly.of('u', 1)).is_zero()
    assert s.residue()[0] == Poly.of('u', 1)


def test_scale_and_shift():
    s = Symbol.from_p_poly({1: Poly.of('u', 1)}, K=3)
    assert (s.scale(Fraction(1, 2)) + s.scale(Fraction(1, 2)) - s).is_zero()
    t = s.eps_shift(1)
    assert (t.coeff(1, 1) - Poly.of('u', 1)).is_zero()


def test_star_residue_matches_full_product():
    rng = random.Random(7)
    for K in (2, 4):
        for frozen in (frozenset(), frozenset({'u'})):
            for _ in range(15):
                x, y = rnd_symbol(rng, K=K), rnd_symbol(rng, K=K)
                assert x.star_residue(y, frozen) == x.star(y, frozen).residue()
