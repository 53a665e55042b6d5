"""Flat pencils from potentials and from orbit spaces."""

from fractions import Fraction

import pytest

from dscentral.algebra import Poly
from dscentral import brackets, fixtures, liealg
from dscentral.frobenius import (eta_from_potential, pencil_from_potential, potential_from_metrics,
                                 orbit_metrics_a, tvar)


def _p(x):
    return x if isinstance(x, Poly) else Poly.num(x)


def test_eta_rank2():
    fx = fixtures.load_frobenius('g2')
    eta = eta_from_potential(fx['F'], fx['e'], 2)
    assert eta == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]


def test_eta_rejects_nonflat_direction():
    t1 = Poly.of('t', 1)
    with pytest.raises(ValueError):
        eta_from_potential(t1 ** 4, [Fraction(1)], 1)


def test_invert_const():
    eta = [[Fraction(0), Fraction(2)], [Fraction(2), Fraction(1)]]
    inv = liealg.inverse(eta)
    for i in range(2):
        for j in range(2):
            want = Fraction(1) if i == j else Fraction(0)
            assert sum(eta[i][k] * inv[k][j] for k in range(2)) == want
    with pytest.raises(ValueError):
        liealg.inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_pencil_matches_stored_g2_tables():
    fx = fixtures.load_frobenius('g2')
    pen = pencil_from_potential(fx['F'], fx['E'], fx['e'], 2)
    stored = fx['tensors']
    for (i, j) in ((1, 1), (1, 2), (2, 2)):
        assert (pen['g2'][i - 1][j - 1] - _p(stored['g2t_%d%d' % (i, j)])).is_zero()
        assert (pen['g1'][i - 1][j - 1] - _p(stored['g1t_%d%d' % (i, j)])).is_zero()


def test_potential_roundtrip_rank2():
    fx = fixtures.load_frobenius('g2')
    pen = pencil_from_potential(fx['F'], fx['E'], fx['e'], 2)
    F2 = potential_from_metrics(pen['g2'], pen['eta'],
                                [Fraction(6), Fraction(2)], 2)
    assert (F2 - fx['F']).is_zero()


def test_potential_from_metrics_rejects_garbage():
    eta = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    g2 = [[Poly.of('t', 2) ** 5, Poly.num(1)],
          [Poly.num(1), Poly.of('t', 1)]]
    with pytest.raises(ValueError):
        potential_from_metrics(g2, eta, [Fraction(6), Fraction(2)], 2)


@pytest.mark.parametrize('n', [2, 3])
def test_orbit_metrics_match_pencil_up_to_sign(n):
    # the coefficient-space metrics agree with the delta' blocks of the
    # scalar pencil after one global sign flip
    orb = orbit_metrics_a(n)
    p, q = ('p', 0, 0), ('q', 0, 0)
    ren = {('t', k, 0): Poly.of('u', k) for k in range(1, n + 1)}
    for s in (1, 2):
        g = brackets.closed_form_small('A', n, s, 1)
        for i in range(n):
            for j in range(n):
                c = g.coeffs_in(p).get(i, Poly()).coeffs_in(q).get(j, Poly())
                o = orb['g1' if s == 1 else 'g2'][i][j].subs(ren)
                assert (c + o).is_zero(), (s, i, j)


def test_orbit_metrics_first_is_t1_derivative():
    orb = orbit_metrics_a(3)
    for i in range(3):
        for j in range(3):
            assert (orb['g1'][i][j] - orb['g2'][i][j].diff(tvar(1))).is_zero()


def test_orbit_metrics_at_samples():
    # numeric agreement at rational points, including the sign
    orb = orbit_metrics_a(2)
    p, q = ('p', 0, 0), ('q', 0, 0)
    pts = [(Fraction(1), Fraction(2)), (Fraction(-1), Fraction(3)),
           (Fraction(1, 2), Fraction(0)), (Fraction(5), Fraction(-2)),
           (Fraction(0), Fraction(7))]
    for t1v, t2v in pts:
        subs_t = {('t', 1, 0): Poly.num(t1v), ('t', 2, 0): Poly.num(t2v)}
        subs_u = {('u', 1, 0): Poly.num(t1v), ('u', 2, 0): Poly.num(t2v)}
        for s in (1, 2):
            g = brackets.closed_form_small('A', 2, s, 1)
            mat = 'g1' if s == 1 else 'g2'
            for i in range(2):
                for j in range(2):
                    c = g.coeffs_in(p).get(i, Poly()).coeffs_in(q).get(j, Poly())
                    lhs = c.subs(subs_u).constant()
                    rhs = orb[mat][i][j].subs(subs_t).constant()
                    assert lhs == -rhs
