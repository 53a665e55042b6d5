"""Star product calculus on truncated symbols.

The composition law is checked against its defining properties rather
than against stored expansions: associativity order by order in eps,
the adjoint as an anti-involution, and exactness of the commutator
residue.
"""

import random
from fractions import Fraction

from dscentral.algebra import Poly, decode
from dscentral.symbols import Symbol
from test_algebra import antiderivative


def commutator(a, b, frozen=frozenset()):
    return a.star(b, frozen) - b.star(a, frozen)


def rnd_symbol(rng, K=4, maxorder=2, rational=False):
    """Three random terms c u_i^(k) p^j; with `rational`, c has a
    denominator 2, 3 or 5, so the products meet non-integral values."""
    coeffs = {}
    for _ in range(3):
        mono = Poly.num(Fraction(rng.randint(-4, 4), rng.choice((2, 3, 5)) if rational else 1))
        mono = mono * Poly.of('u', rng.randint(1, 2), rng.randint(0, maxorder))
        k = rng.randint(-2, 2)
        coeffs[k] = coeffs.get(k, Poly()) + mono
    return Symbol.from_p_poly(coeffs, K=K)


def test_star_leading_term_is_product():
    f = Symbol.from_p_poly({0: Poly.of('u', 1)}, K=3)
    p = Symbol.from_p_poly({1: 1}, K=3)
    prod = p.star(f)
    # p * u = u p + eps u'
    assert (prod.c.get((1, 0), Poly()) - Poly.of('u', 1)).is_zero()
    assert (prod.c.get((0, 1), Poly()) - Poly.of('u', 1, 1)).is_zero()
    # the other order picks up no correction
    assert (f.star(p).c.get((0, 1), Poly())).is_zero()


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
        resid = commutator(x, y).residue()
        for e, pol in resid.items():
            a = antiderivative(pol)
            assert (a.xdiff() - pol).is_zero()


def test_positive_negative_split():
    rng = random.Random(6)
    for _ in range(10):
        x = rnd_symbol(rng)
        pos = x.positive()
        assert all(i >= 0 for i, _ in pos.c)
        assert all(i < 0 for i, _ in (x - pos).c)
        assert all(x.c[k] == pol for k, pol in pos.c.items())


def test_eps_grading_of_star():
    # with both factors eps-free, the eps^k part of the product carries
    # exactly k x-derivatives
    f = Symbol.from_p_poly({2: Poly.of('u', 1)}, K=4)
    g = Symbol.from_p_poly({-1: Poly.of('u', 2)}, K=4)
    prod = f.star(g)
    for (pw, e), pol in prod.c.items():
        for m, c in pol.terms.items():
            tot = sum(v[2] * ex for v, ex in decode(m))
            assert tot == e


def test_coeff_and_residue_accessors():
    s = Symbol.from_p_poly({-1: Poly.of('u', 1), 3: Poly.num(2)}, K=2)
    assert (s.c.get((-1, 0), Poly()) - Poly.of('u', 1)).is_zero()
    assert s.residue()[0] == Poly.of('u', 1)


def test_equality_with_another_type_is_false():
    s = Symbol.from_p_poly({1: Poly.of('u', 1)})
    assert not s == 3
    assert s != 3
    assert s != Poly.of('u', 1)


def test_scale_and_shift():
    s = Symbol.from_p_poly({1: Poly.of('u', 1)}, K=3)
    assert (s.scale(Fraction(1, 2)) + s.scale(Fraction(1, 2)) - s).is_zero()
    # multiplying by eps moves each coefficient up one eps order
    t = Symbol({(0, 1): Poly.num(1)}, 3).star(s)
    assert (t.c.get((1, 1), Poly()) - Poly.of('u', 1)).is_zero()


def test_star_residue_matches_full_product():
    rng = random.Random(7)
    for K in (2, 4):
        for frozen in (frozenset(), frozenset({'u'})):
            for _ in range(15):
                x, y = rnd_symbol(rng, K=K), rnd_symbol(rng, K=K)
                assert x.star(y, frozen, -1, -1).residue() == x.star(y, frozen).residue()


def test_bounded_star_drops_only_the_lower_powers():
    # star with a bound is the full product without the p-powers below
    # it; with a window [low, high], without those outside it
    rng = random.Random(8)
    for K in (2, 4):
        for frozen in (frozenset(), frozenset({'u'})):
            for rational in (False, True):
                for _ in range(10):
                    x, y = (rnd_symbol(rng, K=K, rational=rational) for _ in range(2))
                    full = x.star(y, frozen)

                    def window(low=-99, high=99):
                        return Symbol({k: p for k, p in full.c.items()
                                       if low <= k[0] <= high}, K)
                    for low in (-9, -3, -1, 0, 2, 5):
                        assert x.star(y, frozen, low) == window(low), (K, low)
                    for high in (-9, -3, -1, 0, 2, 5):
                        assert x.star(y, frozen, high=high) == window(high=high), (K, high)
                    assert x.star(y, frozen, -1, -1) == window(-1, -1)
                    for _ in range(6):
                        low, high = rng.randint(-9, 5), rng.randint(-9, 5)
                        assert x.star(y, frozen, low, high) == window(low, high), \
                            (K, low, high)
                    assert x.star(y, frozen, 1, 0).is_zero()


def test_integer_weights_on_rational_coefficients():
    # the binomial weights are ints; coefficients like u/3 and 5/2 keep
    # every identity of the calculus
    rng = random.Random(9)
    for K in (2, 4, 5):
        for frozen in (frozenset(), frozenset({'u'})):
            for _ in range(8):
                x, y, z = (rnd_symbol(rng, K=K, rational=True) for _ in range(3))
                assert x.star(y, frozen, -1, -1).residue() == x.star(y, frozen).residue()
                assert x.star(y, frozen).star(z, frozen) == x.star(y.star(z, frozen), frozen)
        for _ in range(8):
            x, y = rnd_symbol(rng, K=K, rational=True), rnd_symbol(rng, K=K, rational=True)
            assert x.adjoint().adjoint() == x
            assert x.star(y).adjoint() == y.adjoint().star(x.adjoint())


def test_star_weight_at_a_negative_power():
    # p^-2 * u = sum_k C(-2, k) eps^k u^(k) p^(-2-k), C(-2, k) = (-1)^k (k + 1);
    # with rational factors the product scales by them
    K = 6
    u = Poly.of('u', 1)
    for a, b in ((1, 1), (Fraction(5, 2), Fraction(1, 3))):
        prod = Symbol.from_p_poly({-2: a}, K).star(Symbol.from_p_poly({0: u * b}, K))
        assert set(prod.c) == {(-2 - k, k) for k in range(K + 1)}
        for k in range(K + 1):
            assert prod.c[(-2 - k, k)] == Poly.of('u', 1, k) * ((-1) ** k * (k + 1) * a * b)
        # the adjoint of p^-2 carries the same weights, up to the sign (-1)^-2
        adj = Symbol.from_p_poly({-2: u * b}, K).adjoint()
        for k in range(K + 1):
            assert adj.c[(-2 - k, k)] == Poly.of('u', 1, k) * ((-1) ** k * (k + 1) * b)
