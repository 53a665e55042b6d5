"""Bracket coefficient tables and their closed forms.

The table computation runs the full symbol pipeline; every comparison
here is an exact identity of Laurent polynomials, no tolerances.
"""

import random
from fractions import Fraction

import pytest

from dscentral.algebra import Poly
from dscentral import brackets, invariants
from dscentral.brackets import (bracket_density, bracket_table, ibp_reduce,
                                generating_poly, table_coeff,
                                closed_form_small, closed_form_capital,
                                dispersionless_pencil, gy_exact, normal_form,
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
    # a total x-derivative, order by order in eps
    dens = bracket_density(series, n, which, K=2)
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
        assert (table_coeff(g, 'A', i, j) - pol).is_zero()


def test_dispersionless_pencil_leading_blocks():
    # delta' parts agree with the closed forms of the full tables
    out = dispersionless_pencil('A', 2)
    assert (out[('delta_prime', 1)] - closed_form_small('A', 2, 1, 1)).is_zero()
    assert (out[('delta_prime', 2)] - closed_form_small('A', 2, 2, 1)).is_zero()
    outb = dispersionless_pencil('B', 2)
    assert (outb[('delta_prime', 1)] - closed_form_capital('B', 2, 1, 1)).is_zero()
    assert (outb[('delta_prime', 2)] - closed_form_capital('B', 2, 2, 1)).is_zero()


def test_pencil_delta_blocks_are_derivatives():
    # the delta coefficient is half the x-derivative of the delta'
    # coefficient in each metric slot (hydrodynamic compatibility is not
    # assumed, it is a consequence of the construction)
    from dscentral.brackets import PQ_FROZEN
    out = dispersionless_pencil('A', 2)
    for s in (1, 2):
        gp = out[('delta_prime', s)]
        g0 = out[('delta', s)]
        # symmetric part of the delta block pairs with d_x of delta'
        sym = g0 + _swap_pq(g0) - gp.xdiff(PQ_FROZEN)
        assert sym.is_zero()


def _swap_pq(p):
    out = {}
    for m, c in p.terms.items():
        nm = []
        for (fam, i, o), e in m:
            if fam == 'p':
                fam = 'q'
            elif fam == 'q':
                fam = 'p'
            nm.append(((fam, i, o), e))
        key = tuple(sorted(nm))
        out[key] = out.get(key, Fraction(0)) + c
    return Poly(out)


def full_product_density(series, n, which, u, K=4):
    """Reference: the residue of the whole last star product, at a
    numeric point u, with the u-jets suppressed."""
    frozen = frozenset({'u', 'rho'})
    lsym = dispersionless_symbol(series, n, u, K)
    X = variational_symbol(series, n, 'a', K)
    Y = variational_symbol(series, n, 'b', K)
    st = lambda A, B: A.star(B, frozen)
    if which == 2:
        t = st(st(st(lsym, Y).positive(), lsym), X) \
            - st(st(X, lsym), st(Y, lsym).positive())
        if series == 'A':
            g = gy_exact(lsym, Y, frozen)
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
        Xp, Xm = X.positive(), X.negative()
        Yp, Ym = Y.positive(), Y.negative()
        t = st(lsym, st(st(Xp, Ds), Yp) - st(st(Yp, Ds), Xp)
               + st(st(Ym, Ds), Xm) - st(st(Xm, Ds), Ym))
    return t.residue()


@pytest.mark.parametrize('series,n', [('A', 2), ('B', 3), ('C', 3), ('D', 4)])
def test_cached_tables_at_a_point_match_full_product(series, n):
    # the cached symbolic tables, evaluated at a point, equal the tables
    # built from the full last product with the point substituted first
    rng = random.Random(41)
    for _ in range(2):
        u = invariants.random_sample(series, n, rng)
        at = invariants.tables_at(series, n, u)
        for a in (1, 2):
            ref = normal_form(full_product_density(series, n, a, u))
            assert at[a - 1] == {k: p.constant() for k, p in ref.items()}, a
