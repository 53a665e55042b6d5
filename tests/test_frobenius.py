"""Flat pencils from potentials and from orbit spaces."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dscentral.algebra import Poly
from dscentral import brackets, fixtures, liealg
from dscentral.frobenius import (_match_coefficients, _mono_poly, _monomials, eta_from_potential,
                                 pencil_from_potential, potential_from_metrics, orbit_metrics_a,
                                 tvar)


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


# the degrees of the flat coordinates of each stored potential
DEGREES = {'g2': [6, 2], 'f4': [12, 8, 6, 2], 'e6': [12, 9, 8, 6, 5, 2]}


@pytest.mark.parametrize('name', sorted(DEGREES))
def test_potential_roundtrip(name):
    degrees = DEGREES[name]
    fx = fixtures.load_frobenius(name)
    n = fx['rank']
    # the document's Euler field E^i = d_i t_i gives deg_i = 2 d_i / min d
    d = [fx['E'][i].diff(tvar(i + 1)).constant() for i in range(n)]
    assert [2 * x / min(d) for x in d] == degrees
    pen = pencil_from_potential(fx['F'], fx['E'], fx['e'], n)
    F2 = potential_from_metrics(pen['g2'], pen['eta'], [Fraction(x) for x in degrees], n)
    assert (F2 - fx['F']).is_zero()


# the coefficient solve that the Euler sum of potential_from_metrics
# replaced, kept as the reference it equals: one unknown per monomial of
# weighted degree 2h + 2 and total degree >= 3, matched on H_kl for k <= l

def solve_potential(g2, eta, degrees, n):
    h = max(degrees)
    H = [[sum((g2[i][j] * (eta[k][i] * eta[l][j] * Fraction(h) / (degrees[i] + degrees[j] - 2))
               for i in range(n) for j in range(n)), Poly())
          for l in range(n)] for k in range(n)]
    cands = [m for m in _monomials(degrees, 2 * h + 2) if sum(m) >= 3]
    polys = [_mono_poly(m) for m in cands]
    F = _match_coefficients(cands, [
        (H[k][l], [p.diff(tvar(k + 1)).diff(tvar(l + 1)) for p in polys])
        for k in range(n) for l in range(k, n)])
    if F is None:
        raise ValueError("metric is not potential")
    for k in range(n):
        for l in range(n):
            if not (F.diff(tvar(k + 1)).diff(tvar(l + 1)) - H[k][l]).is_zero():
                raise ValueError("reconstruction check failed")
    return F


def _refused_or(f, *args):
    try:
        return f(*args)
    except ValueError:
        return 'refused'


SMALL = st.fractions(-9, 9, max_denominator=9)


@st.composite
def frobenius_potentials(draw):
    """(degrees, eta, F) at the G2, F4 or E6 degrees: F has rational
    coefficients on the monomials of degree 2h + 2 free of t_1, and its
    terms in t_1 make e = d/dt_1 a flat unit with d_1 F = eta(t, t) / 2
    for a random invertible symmetric eta on the pairs deg_a + deg_b = h + 2."""
    # G2 first, so that a failing example shrinks to the smallest rank
    degrees = [Fraction(x) for x in draw(st.sampled_from(sorted(DEGREES.values(), key=len)))]
    n, h = len(degrees), max(degrees)
    eta = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            if degrees[a] + degrees[b] == h + 2:
                eta[a][b] = eta[b][a] = draw(SMALL.filter(bool))
    t = [Poly.of('t', k) for k in range(1, n + 1)]
    F = sum((t[0] ** 2 * t[b] * (eta[0][b] / 2) for b in range(1, n)), Poly())
    F = F + sum((t[0] * t[a] * t[b] * (eta[a][b] / 2) for a in range(1, n) for b in range(1, n)),
                Poly())
    for m in _monomials(degrees, 2 * h + 2):
        if not m[0]:
            F = F + _mono_poly(m) * draw(SMALL)
    return degrees, eta, F


@settings(max_examples=20, deadline=None)
@given(frobenius_potentials(), st.data())
def test_potential_from_metrics_equals_the_coefficient_solve(case, data):
    degrees, eta, F = case
    n, h = len(degrees), max(degrees)
    E = [Poly.of('t', k) * (degrees[k - 1] / h) for k in range(1, n + 1)]
    pen = pencil_from_potential(F, E, [1] + [0] * (n - 1), n)
    assert pen['eta'] == eta
    g2 = pen['g2']
    assert potential_from_metrics(g2, eta, degrees, n) == F
    assert solve_potential(g2, eta, degrees, n) == F
    # a monomial on one off-diagonal entry: g2, and so the Hessian, is not symmetric
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    exps = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    mono = _mono_poly(exps) * data.draw(SMALL.filter(bool))
    one = [row[:] for row in g2]
    one[i][j] = one[i][j] + mono
    with pytest.raises(ValueError, match="metric is not potential"):
        potential_from_metrics(one, eta, degrees, n)
    assert _refused_or(solve_potential, one, eta, degrees, n) == 'refused'
    # the same monomial on both entries: the two methods still agree
    both = [row[:] for row in one]
    both[j][i] = both[j][i] + mono
    assert (_refused_or(potential_from_metrics, both, eta, degrees, n)
            == _refused_or(solve_potential, both, eta, degrees, n))


def test_potential_from_metrics_rejects_garbage():
    eta = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    g2 = [[Poly.of('t', 2) ** 5, Poly.num(1)],
          [Poly.num(1), Poly.of('t', 1)]]
    with pytest.raises(ValueError, match="metric is not potential"):
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
