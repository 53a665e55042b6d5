"""Bracket coefficient tables and their closed forms.

The table computation runs the full symbol pipeline; every comparison
here is an exact identity of Laurent polynomials, no tolerances.
"""

import random
from fractions import Fraction

import pytest

from dscentral.algebra import Poly
from dscentral import invariants
from dscentral.brackets import (_a_to_b, bracket_density, bracket_table, ibp_reduce,
                                generating_poly,
                                closed_form_small, closed_form_capital,
                                gy_exact, normal_form, unit_derivative,
                                variational_symbol)
from dscentral.lax import dispersionless_symbol
from dscentral.symbols import Symbol


def _swap_ab(p):
    out = {}
    for m, c in p.terms.items():
        nm = []
        for (fam, i, o), e in m:
            if fam == 'a':
                fam = 'b'
            elif fam == 'b':
                fam = 'a'
            nm.append(((fam, i, o), e))
        key = tuple(sorted(nm))
        out[key] = out.get(key, Fraction(0)) + c
    return Poly(out)


@pytest.mark.parametrize('series,n', [('A', 2), ('B', 2), ('C', 2), ('D', 3)])
@pytest.mark.parametrize('which', [1, 2])
def test_bracket_antisymmetry(series, n, which):
    # swapping the two test densities negates the residue density up to
    # a total x-derivative, order by order in eps; the first bracket's
    # density is the unit-field derivative of the second's
    dens = bracket_density(series, n, K=2)
    if which == 1:
        dens = unit_derivative(series, dens)
    for e, pol in dens.items():
        if e > 2:
            continue
        assert ibp_reduce(pol + _swap_ab(pol)).is_zero()


def test_table_has_no_eps0_block():
    for series, n in (('A', 2), ('B', 2)):
        t = bracket_table(series, n, 2)
        assert all(s >= 1 for (_, _, s) in t)


@pytest.mark.parametrize('series,n', [('A', 1), ('A', 2), ('A', 3)])
def test_closed_forms_a(series, n):
    for a in (1, 2):
        t = bracket_table(series, n, a)
        for s in (1, 2, 3):
            g = generating_poly(t, series, n, s)
            ref = closed_form_small(series, n, a, s)
            assert (g - ref).is_zero(), (a, s)


@pytest.mark.parametrize('series,n', [('B', 2), ('C', 2), ('D', 3)])
def test_closed_forms_capital(series, n):
    for a in (1, 2):
        t = bracket_table(series, n, a)
        for s in (1, 3):
            g = generating_poly(t, series, n, s, capital=True)
            ref = closed_form_capital(series, n, a, s)
            assert (g - ref).is_zero(), (a, s)


@pytest.mark.parametrize('series,n', [('B', 2), ('C', 3), ('D', 3)])
def test_delta_double_prime_vanishes_bcd(series, n):
    # the delta'' block of the second bracket collapses for these
    # operators; the table may simply omit it
    t = bracket_table(series, n, 2)
    g = generating_poly(t, series, n, 2, capital=True)
    assert (g - closed_form_small(series, n, 2, 2)).is_zero()
    assert g.is_zero()


def test_closed_form_unavailable_cases():
    with pytest.raises(ValueError):
        closed_form_small('B', 2, 1, 1)
    with pytest.raises(ValueError):
        closed_form_small('A', 2, 1, 4)
    with pytest.raises(ValueError):
        closed_form_capital('B', 2, 1, 2)


def test_generating_roundtrip():
    t = bracket_table('A', 2, 2)
    g = generating_poly(t, 'A', 2, 1)
    for (i, j, s), pol in t.items():
        if s != 1:
            continue
        gi = g.coeffs_in(('p', 0, 0)).get(i - 1, Poly())
        assert (gi.coeffs_in(('q', 0, 0)).get(j - 1, Poly()) - pol).is_zero()


def full_product_density(series, n, which, u, K=4):
    """Reference: the residue of the whole last star product, at a
    numeric point u, with the u-jets suppressed.  The first bracket has
    its own formula for each series here, independent of the unit-field
    derivative that the package takes."""
    frozen = frozenset({'u', 'rho'})
    lsym = dispersionless_symbol(series, n, u, K)
    X = variational_symbol(series, n, 'a', K)
    Y = variational_symbol(series, n, 'b', K)
    st = lambda A, B: A.star(B, frozen)
    if which == 2:
        t = st(st(st(lsym, Y).positive(), lsym), X) \
            - st(st(X, lsym), st(Y, lsym).positive())
        if series == 'A':
            g = gy_exact(lsym.commutator(Y, frozen), frozen)
            t = t + st(X, lsym.commutator(g, frozen)).scale(Fraction(1, n + 1))
    elif series == 'A':
        t = st(Y.commutator(X, frozen), lsym)
    elif series == 'B':
        Ds = Symbol.from_p_poly({1: 1}, K)
        t = st(lsym, st(st(Y, Ds), X) - st(st(X, Ds), Y))
    elif series == 'C':
        t = st(lsym, Y.commutator(X, frozen))
    else:
        Ds = Symbol.from_p_poly({1: 1}, K)
        Xp, Yp = X.positive(), Y.positive()
        Xm, Ym = X - Xp, Y - Yp
        t = st(lsym, st(st(Xp, Ds), Yp) - st(st(Yp, Ds), Xp)
               + st(st(Ym, Ds), Xm) - st(st(Xm, Ds), Ym))
    return t.residue()


@pytest.mark.parametrize('series,n,K', [
    pytest.param(series, n, K, id='%s-%d' % (series, n) + ('' if K == 4 else '-K%d' % K))
    for K in (4, 3, 5) for series, n in (('A', 2), ('B', 3), ('C', 3), ('D', 4))])
def test_cached_tables_at_a_point_match_full_product(series, n, K):
    # the cached symbolic tables, evaluated at a point, equal the tables
    # built from the full last product with the point substituted first
    rng = random.Random(41)
    for _ in range(2):
        u = invariants.random_sample(series, n, rng)
        at = invariants.tables_at(series, n, u, K)
        for a in (1, 2):
            ref = normal_form(full_product_density(series, n, a, u, K))
            assert at[a - 1] == {k: p.constant() for k, p in ref.items()}, a


CLASSICAL = ([('A', n) for n in range(1, 7)] + [('B', n) for n in range(2, 6)]
             + [('C', n) for n in range(2, 6)] + [('D', n) for n in range(3, 6)])


def unshared_density(series, n, K):
    """Reference: the second-bracket density with every star product
    formed in full and on its own, Y built from the family b directly;
    only the p^-1 part of each last product is taken."""
    frozen = frozenset({'u', 'rho'})
    lsym = dispersionless_symbol(series, n, K=K)
    X = variational_symbol(series, n, 'a', K)
    Y = variational_symbol(series, n, 'b', K)
    st = lambda A, B: A.star(B, frozen)
    pairs = [(1, st(st(lsym, Y).positive(), lsym), X),
             (-1, st(X, lsym), st(Y, lsym).positive())]
    if series == 'A':
        g = gy_exact(lsym.commutator(Y, frozen), frozen)
        pairs.append((Fraction(1, n + 1), X, lsym.commutator(g, frozen)))
    out = {}
    for sign, left, right in pairs:
        for e, pol in left.star_residue(right, frozen).items():
            out[e] = out.get(e, Poly()) + pol * sign
    return {e: p for e, p in out.items() if p}


@pytest.mark.parametrize('series,n,K', [
    pytest.param(series, n, K, id='%s%d-K%d' % (series, n, K))
    for series, n, K in [(s, n, 4) for s, n in CLASSICAL]
    + [(s, n, K) for K in (3, 5) for s, n in (('A', 2), ('B', 3), ('C', 3), ('D', 4))]])
def test_shared_products_match_unshared_density(series, n, K):
    # sharing X L, renaming it to Y L and bounding the products below
    # leaves the density the same term for term
    assert bracket_density(series, n, K) == unshared_density(series, n, K)


@pytest.mark.parametrize('series,n', CLASSICAL)
def test_renaming_a_to_b_gives_the_b_side(series, n):
    # the rename keeps every monomial key sorted, so the b-side symbols
    # come out equal as dicts, not merely as polynomials
    frozen = frozenset({'u', 'rho'})
    lsym = dispersionless_symbol(series, n, K=4)
    X = variational_symbol(series, n, 'a', 4)
    Y = variational_symbol(series, n, 'b', 4)
    assert _a_to_b(X) == Y
    assert _a_to_b(X.star(lsym, frozen)) == Y.star(lsym, frozen)
