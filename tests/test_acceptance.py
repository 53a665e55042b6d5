"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible
with -s or in failure reports).  All value comparisons are exact
rational identities; the only tolerances are the wall-clock budgets of
the first two criteria.
"""

import random
import time
from fractions import Fraction

from dscentral.algebra import Poly, antiderivative
from dscentral.symbols import Symbol
from dscentral import (brackets, dirac, fixtures, frobenius, invariants,
                       liealg, reference)


def _report(num, label, ok):
    print('criterion %d (%s): %s' % (num, label, 'PASS' if ok else 'FAIL'))
    assert ok, 'criterion %d failed' % num


def test_criterion_01_a_series_values():
    t0 = time.time()
    rng = random.Random(101)
    ok = True
    for n in range(1, 7):
        for _ in range(3):
            u = invariants.random_sample('A', n, rng)
            cs = invariants.central_invariants('A', n, u)['c']
            if cs != reference.classical_invariants('A', n):
                ok = False
    elapsed = time.time() - t0
    _report(1, 'A1..A6 all 1/24, 3 samples each', ok and elapsed < 60)


def test_criterion_02_bcd_series_values():
    t0 = time.time()
    rng = random.Random(202)
    ok = True
    for series, lo in (('B', 2), ('C', 2), ('D', 3)):
        for n in range(lo, 6):
            u = invariants.random_sample(series, n, rng)
            cs = invariants.central_invariants(series, n, u)['c']
            if cs != reference.classical_invariants(series, n):
                ok = False
    elapsed = time.time() - t0
    _report(2, 'B2..5, C2..5, D3..5 exact values', ok and elapsed < 300)


def test_criterion_03_closed_form_match():
    ok = True
    for series in 'ABCD':
        lo = 1 if series == 'A' else (3 if series == 'D' else 2)
        for n in range(lo, 5):
            capital = series != 'A'
            for a in (1, 2):
                t = brackets.bracket_table(series, n, a)
                for s in sorted({k[2] for k in t}):
                    g = brackets.generating_poly(t, series, n, s,
                                                 capital=capital)
                    try:
                        if capital:
                            ref = brackets.closed_form_capital(series, n, a, s)
                        else:
                            ref = brackets.closed_form_small(series, n, a, s)
                    except ValueError:
                        continue
                    if not (g - ref).is_zero():
                        ok = False
    _report(3, 'coefficient tables equal closed forms, n <= 4', ok)


def test_criterion_04_g2_pipeline():
    alg = liealg.g2_algebra()
    tens = dirac.dirac_tensors(alg, dirac.g2_slice(alg))
    fx = fixtures.load_frobenius('g2')
    stored = fx['tensors']
    ok = True
    for key, prefix in (('g2', 'g2u'), ('g1', 'g1u'),
                        ('A22', 'A22u'), ('A21', 'A21u')):
        for (i, j) in ((1, 1), (1, 2), (2, 2)):
            want = stored['%s_%d%d' % (prefix, i, j)]
            want = want if isinstance(want, Poly) else Poly.num(want)
            if not (tens[key][i - 1][j - 1] - want).is_zero():
                ok = False
    # flat potential
    t1, t2 = Poly.of('t', 1), Poly.of('t', 2)
    wantF = t1 ** 2 * t2 * Fraction(1, 2) + t2 ** 7 * Fraction(24, 35)
    if not (fx['F'] - wantF).is_zero():
        ok = False
    # canonical coordinates and invariant values
    u = [Fraction(5), Fraction(-3)]
    usub = {('u', i + 1, 0): Poly.num(u[i]) for i in range(2)}
    tv = [x.subs(usub).constant() for x in fx['t']]
    roots, cs = dirac.central_invariants_dirac(tens, 2, u)
    by_root = dict(zip(roots, cs))
    if set(roots) != {tv[0] + 4 * tv[1] ** 3, tv[0] - 4 * tv[1] ** 3}:
        ok = False
    if by_root.get(tv[0] + 4 * tv[1] ** 3) != Fraction(1, 8):
        ok = False
    if by_root.get(tv[0] - 4 * tv[1] ** 3) != Fraction(1, 24):
        ok = False
    _report(4, 'rank 2 reduction: tables, potential, c = {1/8, 1/24}', ok)


def test_criterion_05_f4_values():
    rng = random.Random(505)
    ok = True
    for _ in range(3):
        t = reference.f4_sample(rng)
        roots, cs = fixtures.fixture_invariants('f4', t)
        if sorted(cs) != sorted(reference.TABLE[('F', 4)]):
            ok = False
    _report(5, 'rank 4 fixture pipeline c = {1/24, 1/24, 1/12, 1/12}', ok)


def test_criterion_06_table_and_foldings():
    ok = len(reference.TABLE) == 9 and all(
        liealg.lie_central_invariants(t, n) == v
        for (t, n), v in reference.TABLE.items())
    for typ, n, target in reference.FOLDINGS.values():
        if liealg.fold(typ, n) != liealg.lie_central_invariants(*target):
            ok = False
    _report(6, 'nine-row table and folding identities', ok)


def test_criterion_07_residue_identity():
    rng = random.Random(707)
    ok = True
    for n in range(2, 9):
        want = Fraction(1 - n, 2 * (n + 1))
        for _ in range(20):
            rs = sorted(rng.sample(range(-50, 50), n))
            if invariants.residue_identity(rs) != [want] * n:
                ok = False
    _report(7, 'residue sums equal (1-n)/(2(n+1))', ok)


def _rnd_symbol(rng, K=4):
    coeffs = {}
    for _ in range(3):
        mono = Poly.num(Fraction(rng.randint(-4, 4)))
        mono = mono * Poly.of('u', rng.randint(1, 2), rng.randint(0, 2))
        k = rng.randint(-2, 2)
        coeffs[k] = coeffs.get(k, Poly()) + mono
    return Symbol.from_p_poly(coeffs, K=K)


def _swap_fams(p, f1, f2):
    out = {}
    for m, c in p.terms.items():
        nm = []
        for (fam, i, o), e in m:
            if fam == f1:
                fam = f2
            elif fam == f2:
                fam = f1
            nm.append(((fam, i, o), e))
        key = tuple(sorted(nm))
        out[key] = out.get(key, Fraction(0)) + c
    return Poly(out)


def test_criterion_08_property_suite():
    rng = random.Random(808)
    ok = True
    for _ in range(50):
        x, y, z = (_rnd_symbol(rng) for _ in range(3))
        if not (x.star(y).star(z) - x.star(y.star(z))).is_zero():
            ok = False
        if not (x.adjoint().adjoint() - x).is_zero():
            ok = False
        if not (x.star(y).adjoint() - y.adjoint().star(x.adjoint())).is_zero():
            ok = False
    for _ in range(15):
        x, y = _rnd_symbol(rng), _rnd_symbol(rng)
        for e, pol in x.commutator(y).residue().items():
            a = antiderivative(pol)
            if not (a.xdiff() - pol).is_zero():
                ok = False
    for series, n in (('A', 2), ('B', 2), ('C', 2), ('D', 3)):
        for which in (1, 2):
            dens = brackets.bracket_density(series, n, which, K=2)
            for e, pol in dens.items():
                if e > 2:
                    continue
                if not brackets.ibp_reduce(
                        pol + _swap_fams(pol, 'a', 'b')).is_zero():
                    ok = False
    _report(8, 'star product, adjoint, trace and antisymmetry', ok)


def test_criterion_09_constancy():
    rng = random.Random(909)
    ok = True
    for series, lo in (('A', 1), ('B', 2), ('C', 2), ('D', 3)):
        for n in range(lo, 5):
            seen = set()
            for _ in range(5):
                u = invariants.random_sample(series, n, rng)
                cs = invariants.central_invariants(series, n, u)['c']
                seen.add(tuple(cs))
            if len(seen) != 1:
                ok = False
    _report(9, 'invariants constant across 5 samples per series', ok)


def test_criterion_10_frobenius_cross_checks():
    ok = True
    # coefficient-space metrics vs the delta' blocks, one global sign
    pts = [(1, 2, 1), (-1, 3, 2), (2, 0, -1), (3, -2, 1), (0, 1, 5)]
    for n in (1, 2, 3):
        orb = frobenius.orbit_metrics_a(n)
        pen = brackets.dispersionless_pencil('A', n)
        p, q = ('p', 0, 0), ('q', 0, 0)
        for pt in pts:
            subs_u = {('u', k + 1, 0): Poly.num(Fraction(pt[k]))
                      for k in range(n)}
            subs_t = {('t', k + 1, 0): Poly.num(Fraction(pt[k]))
                      for k in range(n)}
            for s in (1, 2):
                g = pen[('delta_prime', s)]
                mat = 'g1' if s == 1 else 'g2'
                for i in range(n):
                    for j in range(n):
                        c = g.coeffs_in(p).get(i, Poly()) \
                             .coeffs_in(q).get(j, Poly())
                        lhs = c.subs(subs_u).constant()
                        rhs = orb[mat][i][j].subs(subs_t).constant()
                        if lhs != -rhs:
                            ok = False
    # potential reconstruction roundtrip for the rank 2 model
    fx = fixtures.load_frobenius('g2')
    pen2 = frobenius.pencil_from_potential(fx['F'], fx['E'], fx['e'], 2)
    F2 = frobenius.potential_from_metrics(pen2['g2'], pen2['eta'],
                                          [Fraction(6), Fraction(2)], 2)
    if not (F2 - fx['F']).is_zero():
        ok = False
    _report(10, 'orbit pencil and potential roundtrip', ok)
