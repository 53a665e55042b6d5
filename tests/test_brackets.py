"""Bracket coefficient tables and their closed forms.

The table computation runs the full symbol pipeline; every comparison
here is an exact identity of Laurent polynomials, no tolerances.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from dscentral.algebra import Poly, accumulate, decode, monomial
from dscentral import brackets, invariants
from dscentral.brackets import (FROZEN, _a_to_b, _over, _scaled_density, bracket_density,
                                bracket_table, ibp_reduce, generating_poly,
                                closed_form_small, closed_form_capital,
                                gy_exact, normal_form, unit_derivative,
                                variational_symbol)
from dscentral.lax import dispersionless_symbol, u_power
from dscentral.symbols import Symbol
from test_algebra import antiderivative
from test_symbols import commutator


def _swap_ab(p):
    out = {}
    for m, c in p.terms.items():
        nm = []
        for (fam, i, o), e in decode(m):
            if fam == 'a':
                fam = 'b'
            elif fam == 'b':
                fam = 'a'
            nm.append(((fam, i, o), e))
        key = monomial(nm)
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


@pytest.mark.parametrize('series,n', [('A', 1), ('A', 2), ('A', 3), ('A', 4)])
def test_closed_forms_a(series, n):
    for a in (1, 2):
        t = bracket_table(series, n, a)
        for s in (1, 2, 3):
            g = generating_poly(t, series, n, s)
            ref = closed_form_small(series, n, a, s)
            assert (g - ref).is_zero(), (a, s)


@pytest.mark.parametrize('series,n', [('B', 2), ('B', 3), ('C', 2), ('C', 3), ('D', 3), ('D', 4)])
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
    assert g.is_zero()


def test_closed_form_unavailable_cases():
    with pytest.raises(ValueError):
        closed_form_small('B', 2, 1, 1)
    with pytest.raises(ValueError):
        closed_form_small('C', 2, 2, 1)
    with pytest.raises(ValueError):
        closed_form_small('A', 2, 1, 4)
    with pytest.raises(ValueError):
        closed_form_capital('B', 2, 1, 2)
    # a series without capital forms is refused at every (a, s), not
    # answered with the D forms
    for series in ('A', 'X'):
        for a in (1, 2):
            with pytest.raises(ValueError, match="unknown series %r" % series):
                closed_form_capital(series, 3, a, 1)
    # and so is an a other than 1 and 2
    with pytest.raises(ValueError, match="no closed form"):
        closed_form_capital('B', 2, 3, 3)


# every closed form that exists at A1-A8, B2-B8, C2-C8 and D3-D8, and the
# error text of every one that does not, one line per (series, n, a, s)
CLOSED_FORMS_DIGEST = '2463e5bab75050da'


def test_closed_forms_digest():
    h = hashlib.sha256()
    for series, lo in (('A', 1), ('B', 2), ('C', 2), ('D', 3)):
        closed = closed_form_small if series == 'A' else closed_form_capital
        for n in range(lo, 9):
            for a in (1, 2):
                for s in (1, 2, 3):
                    try:
                        text = str(closed(series, n, a, s))
                    except ValueError as ex:
                        text = 'ValueError: %s' % ex
                    h.update(('%s%d a=%d s=%d: %s\n' % (series, n, a, s, text)).encode())
    assert h.hexdigest()[:16] == CLOSED_FORMS_DIGEST


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
            g = gy_exact(commutator(lsym, Y, frozen), frozen)
            t = t + st(X, commutator(lsym, g, frozen)).scale(Fraction(1, n + 1))
    elif series == 'A':
        t = st(commutator(Y, X, frozen), lsym)
    elif series == 'B':
        Ds = Symbol.from_p_poly({1: 1}, K)
        t = st(lsym, st(st(Y, Ds), X) - st(st(X, Ds), Y))
    elif series == 'C':
        t = st(lsym, commutator(Y, X, frozen))
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


def unshared_density(series, n, K, full_commutator=False):
    """Reference: the second-bracket density with every star product
    formed in full and on its own, Y built from the family b directly;
    only the p^-1 part of each last product is taken.  The A correction
    is -g res([L, X]) / (n + 1), cut at eps^K, or with `full_commutator`
    res(X [L, g]) / (n + 1), equal to it modulo total x-derivatives."""
    frozen = frozenset({'u', 'rho'})
    lsym = dispersionless_symbol(series, n, K=K)
    X = variational_symbol(series, n, 'a', K)
    Y = variational_symbol(series, n, 'b', K)
    st = lambda A, B: A.star(B, frozen)
    pairs = [(1, st(st(lsym, Y).positive(), lsym), X),
             (-1, st(X, lsym), st(Y, lsym).positive())]
    out = {}
    if series == 'A':
        g = gy_exact(commutator(lsym, Y, frozen), frozen)
        if full_commutator:
            pairs.append((Fraction(1, n + 1), X, commutator(lsym, g, frozen)))
        else:
            for e2, r in commutator(lsym, X, frozen).residue().items():
                for (_, e1), gp in g.c.items():
                    if e1 + e2 <= K:
                        out[e1 + e2] = out.get(e1 + e2, Poly()) - gp * r / (n + 1)
    for sign, left, right in pairs:
        for e, pol in st(left, right).residue().items():
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


@pytest.mark.parametrize('n,K', [pytest.param(n, K, id='A%d-K%d' % (n, K))
                                 for K in (3, 4, 5, 6) for n in range(1, 9)])
def test_a_correction_is_the_commutator_modulo_derivatives(n, K):
    # res(X [L, g]) = -g res([L, X]) up to a total x-derivative, as g is
    # a multiplication operator and res is cyclic: the normal forms agree
    dens, den = _scaled_density('A', n, K)
    want = {k: p / den for k, p in normal_form(dens).items()}
    assert normal_form(unshared_density('A', n, K, full_commutator=True)) == want


def greedy_gy(comm, frozen):
    """Reference for `gy_exact`: the greedy antiderivative of each
    residue term."""
    return Symbol({(0, e - 1): antiderivative(p, frozen)
                   for e, p in comm.residue().items() if e >= 1}, comm.K)


@pytest.mark.parametrize('K', [3, 4, 5])
def test_one_jet_step_matches_the_greedy_antiderivative(monkeypatch, K):
    # every residue that gy_exact receives, symbolic in u or at a sampled
    # point, gives the greedy antiderivative dict for dict
    seen, exact = [], gy_exact
    def recording(comm, frozen=frozenset()):
        seen.append((comm, frozen))
        return exact(comm, frozen)
    monkeypatch.setattr(brackets, 'gy_exact', recording)
    monkeypatch.setitem(globals(), 'gy_exact', recording)
    rng = random.Random(43)
    for n in range(1, 8):
        _scaled_density('A', n, K)
        full_product_density('A', n, 2, invariants.random_sample('A', n, rng), K)
    assert len(seen) == 14
    for comm, frozen in seen:
        assert exact(comm, frozen) == greedy_gy(comm, frozen)


def test_one_jet_step_refuses_what_is_not_a_total_derivative():
    # each term of the residue must be one jet of order >= 1, to the
    # first power, times frozen factors
    frozen = frozenset({'u', 'rho'})
    u, b, b1 = Poly.of('u', 1), Poly.of('b', 1), Poly.of('b', 1, 1)
    assert gy_exact(Symbol({(-1, 2): u * b1}, 4), frozen) == Symbol({(0, 1): u * b}, 4)
    for pol in (u * b, b1 ** 2, u, b1 * Poly.of('b', 2, 1)):
        with pytest.raises(ValueError, match='not a total x-derivative'):
            gy_exact(Symbol({(-1, 2): pol}, 4), frozen)


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


def variational_symbol_by_derivatives(series, n, fam, K):
    """Reference: X = f + w sum_k eps^k/k! d_p^k f d_x^k term by term,
    with d_p^k p^j = j (j - 1) ... (j - k + 1) p^(j - k), w = 1/2 for
    B, C and D, and Fraction weights."""
    w = Fraction(1) if series == 'A' else Fraction(1, 2)
    out = {}
    for i in range(1, n + 1):
        j = -u_power(series, i) - 1
        coef, weight = Poly.of(fam, i), Fraction(1)
        for k in range(K + 1):
            if k:
                coef, weight = coef.xdiff(), weight * (j - k + 1) / k
            out[(j - k, k)] = coef * (weight * w if k else weight)
    return Symbol(out, K)


@pytest.mark.parametrize('series', 'ABCD')
def test_variational_symbol_has_binomial_weights(series):
    for n in range(3 if series == 'D' else 1 if series == 'A' else 2, 7):
        for K in range(7):
            assert variational_symbol(series, n, 'a', K) == \
                variational_symbol_by_derivatives(series, n, 'a', K), (n, K)


@pytest.mark.parametrize('series,n,K', [
    pytest.param(series, n, K, id='%s%d-K%d' % (series, n, K))
    for series, n, K in [(s, n, 4) for s, n in CLASSICAL]
    + [(s, n, K) for K in (2, 3, 5, 6) for s, n in (('A', 3), ('B', 2), ('C', 3), ('D', 4))]])
def test_scaled_density_is_integral(series, n, K):
    # X scaled by the lcm of its denominators (2 for B, C and D past
    # K = 1, 1 for A) and the A weight 1/(n + 1) cleared: every
    # coefficient is an int
    dens, den = _scaled_density(series, n, K)
    assert den == (n + 1 if series == 'A' else 4)
    assert all(type(c) is int for p in dens.values() for c in p.terms.values())


@pytest.mark.parametrize('series,n', [('A', 3), ('B', 2), ('C', 3), ('D', 4)])
@pytest.mark.parametrize('K', [3, 5, 6])
def test_tables_agree_below_the_truncation(series, n, K):
    # the eps order truncates the table and nothing else: the entries
    # both orders reach agree
    for which in (1, 2):
        ref = {k: p for k, p in bracket_table(series, n, which, 4).items() if k[2] <= 3}
        got = {k: p for k, p in bracket_table(series, n, which, K).items() if k[2] <= 3}
        assert got == ref, which


@pytest.mark.parametrize('series,n', [('A', 3), ('B', 3), ('C', 3), ('D', 4)])
def test_central_invariants_at_order_6_equal_order_4(series, n):
    u = invariants.random_sample(series, n, random.Random(17))
    assert invariants.central_invariants(series, n, u, 6) == \
        invariants.central_invariants(series, n, u, 4)


ADJOINT_CASES = ([(s, n, 4) for s, lo in (('B', 2), ('C', 2), ('D', 3)) for n in range(lo, 8)]
                 + [(s, n, K) for K in (3, 5, 6)
                    for s, lo in (('B', 2), ('C', 2), ('D', 3)) for n in range(lo, 5)])


@pytest.mark.parametrize('series,n,K', [
    pytest.param(series, n, K, id='%s%d-K%d' % (series, n, K))
    for series, n, K in ADJOINT_CASES])
def test_second_residue_is_minus_the_first_for_bcd(series, n, K):
    # L* = +-L and X* = +-X, so res(X L (Y L)_+) = -res((L Y)_+ L X)
    # term for term, which lets bracket_density form only the first
    frozen = frozenset({'u', 'rho'})
    lsym = dispersionless_symbol(series, n, K=K)
    X = variational_symbol(series, n, 'a', K)
    Y = variational_symbol(series, n, 'b', K)
    res = lambda A, B: A.star(B, frozen, -1, -1).residue()
    first = res(lsym.star(Y, frozen).positive().star(lsym, frozen), X)
    second = res(X.star(lsym, frozen), Y.star(lsym, frozen).positive())
    assert first
    assert second == {e: -p for e, p in first.items()}


def ibp_one_derivative_per_round(pol):
    """Reference: move one derivative off `a` per round, with the
    Leibniz rule on the rest, until no `a` carries one."""
    out = {}
    rem = pol.terms
    while rem:
        again = {}
        for m, c in rem.items():
            pairs = decode(m)
            target = next(((v, e) for v, e in pairs if v[0] == 'a' and v[2] > 0), None)
            if target is None:
                accumulate(out, m, c)
                continue
            v, e = target
            if e != 1:
                raise ValueError("nonlinear density in a")
            rest = Poly({monomial(x for x in pairs if x[0] != v): c})
            low = Poly.from_var((v[0], v[1], v[2] - 1))
            for m2, c2 in (low * rest.xdiff(FROZEN)).terms.items():
                accumulate(again, m2, -c2)
        rem = again
    return Poly(out)


@pytest.mark.parametrize('series,n', CLASSICAL)
def test_ibp_reduce_matches_one_derivative_per_round(series, n):
    second = bracket_density(series, n, 4)
    for dens in (second, unit_derivative(series, second)):
        for pol in dens.values():
            assert ibp_reduce(pol) == ibp_one_derivative_per_round(pol)


def random_bilinear(rng, terms=12):
    # sum c u^.. a_i^(k) b_j^(s), with a-jets up to order 6, Laurent
    # u factors and some terms without b or without a
    out = Poly()
    for _ in range(terms):
        t = Poly.num(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for i in rng.sample((1, 2, 3), rng.randint(0, 2)):
            t = t * Poly.of(rng.choice(('u', 'rho')), i, 0, rng.choice((-2, -1, 1, 2)))
        if rng.random() < 0.9:
            t = t * Poly.of('a', rng.randint(1, 3), rng.randint(0, 6))
        if rng.random() < 0.9:
            t = t * Poly.of('b', rng.randint(1, 3), rng.randint(0, 4))
        out = out + t
    return out


def test_ibp_reduce_matches_one_derivative_per_round_on_random_densities():
    rng = random.Random(16)
    for _ in range(200):
        pol = random_bilinear(rng)
        assert ibp_reduce(pol) == ibp_one_derivative_per_round(pol)


def test_ibp_reduce_rejects_what_it_cannot_integrate():
    a1, a2 = Poly.of('a', 1, 2), Poly.of('a', 2)
    b1, b2, u = Poly.of('b', 1), Poly.of('b', 2, 1), Poly.of('u', 1)
    for nonlinear in (a1 ** 2 * b1, a1 * a2 * b1, u * Poly.of('a', 1, 1) ** 3):
        with pytest.raises(ValueError, match="nonlinear density in a"):
            ibp_reduce(nonlinear)
    for two_free in (a1 * b1 * b2, a1 * b1 ** 2, u * a1 * b1 * Poly.of('c', 1)):
        with pytest.raises(ValueError, match="non-frozen"):
            ibp_reduce(two_free)
    # without a derivative on a, a term is kept as it is
    assert ibp_reduce(a2 * b1 * b2) == a2 * b1 * b2


def test_over_inverts_the_product_by_a_power_of_the_base():
    # k synthetic divisions by x - y, for either orientation of x and y
    # and for Laurent numerators, undo the product by (x - y)^k, and a
    # remainder is refused
    rng = random.Random(5)
    u = Poly.of('u', 1)
    for x, y in (('p', 'q'), ('q', 'p')):
        base = Poly.of(x) - Poly.of(y)
        for k in (1, 2, 3):
            assert _over(Poly(), x, y, k) == Poly()
            for _ in range(15):
                num = Poly()
                for _ in range(rng.randint(1, 5)):
                    num = num + (Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                 * Poly.of('p', exp=rng.randint(-2, 3))
                                 * Poly.of('q', exp=rng.randint(-2, 3)) * u ** rng.randint(0, 2))
                assert _over(num * base ** k, x, y, k) == num
                if not num.is_zero():
                    rem = num * base ** k + u * Poly.of(y, exp=rng.randint(-2, 3)) * base ** (k - 1)
                    with pytest.raises(ValueError, match="not an exact division"):
                        _over(rem, x, y, k)
