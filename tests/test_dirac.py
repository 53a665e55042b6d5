"""Constrained reduction of the rank 2 matrix model.

The symbolic tensors are compared entry by entry against the bundled
exact tables, in the slice coordinates and in the flat ones, and the
invariants are evaluated at exact points.
"""

import random
from fractions import Fraction

import pytest

from dscentral.algebra import Poly
from dscentral import dirac, fixtures, liealg, reference
from dscentral.dirac import (slice_bases, dirac_tensors, char_poly,
                             central_invariants_dirac, numeric_pencil,
                             g2_slice)


@pytest.fixture(scope='module')
def g2():
    alg = liealg.g2_algebra()
    slices = g2_slice(alg)
    tens = dirac_tensors(alg, slices)
    fx = fixtures.load_frobenius('g2')
    return alg, slices, tens, fx


def _p(x):
    return x if isinstance(x, Poly) else Poly.num(x)


def test_slice_exponents(g2):
    alg, slices, _, _ = g2
    assert slices['exponents'] == [1, 5]
    assert len(slices['f']) == 12


def test_dual_pairing(g2):
    alg, slices, _, _ = g2
    for i, gu in enumerate(slices['gamma_ups']):
        for j, gam in enumerate(slices['gammas']):
            want = Fraction(1) if i == j else Fraction(0)
            assert alg.form(gu, gam) == want


def test_tensors_match_stored_tables(g2):
    _, _, tens, fx = g2
    stored = fx['tensors']
    for key, prefix in (('g2', 'g2u'), ('g1', 'g1u'),
                        ('A22', 'A22u'), ('A21', 'A21u')):
        for (i, j) in ((1, 1), (1, 2), (2, 2)):
            want = _p(stored['%s_%d%d' % (prefix, i, j)])
            assert (tens[key][i - 1][j - 1] - want).is_zero(), (key, i, j)
            assert (tens[key][j - 1][i - 1] - want).is_zero(), (key, j, i)


def test_first_level_tensors_vanish(g2):
    # the shift enters only through the top block pair
    _, _, tens, _ = g2
    for key in ('A12', 'A11'):
        assert all(e.is_zero() for row in tens[key] for e in row)


def test_flat_coordinate_tables_consistent(g2):
    # contravariant transform of the slice tables along the stored
    # coordinate change reproduces the stored flat tables
    _, _, _, fx = g2
    stored = fx['tensors']
    texp = fx['t']
    J = [[texp[i].diff(('u', k + 1, 0)) for k in range(2)] for i in range(2)]
    sub = {('t', i + 1, 0): texp[i] for i in range(2)}
    for key in ('g2', 'g1', 'A22', 'A21'):
        for (i, j) in ((1, 1), (1, 2), (2, 2)):
            tt = _p(stored['%st_%d%d' % (key, i, j)]).subs(sub)
            tr = Poly()
            for k in range(2):
                for l in range(2):
                    a, b = min(k, l) + 1, max(k, l) + 1
                    tr = tr + J[i - 1][k] * J[j - 1][l] \
                        * _p(stored['%su_%d%d' % (key, a, b)])
            assert (tr - tt).is_zero(), (key, i, j)


def test_canonical_roots_are_critical_values(g2):
    # det(g2 - z g1) factors through z = t1 +- 4 t2^3
    _, _, tens, fx = g2
    rng = random.Random(7)
    for _ in range(4):
        u = reference.g2_sample(rng)
        usub = {('u', i + 1, 0): Poly.num(u[i]) for i in range(2)}
        t = [x.subs(usub).constant() for x in fx['t']]
        roots, _cs = central_invariants_dirac(tens, 2, u)
        want = sorted([t[0] + 4 * t[1] ** 3, t[0] - 4 * t[1] ** 3])
        assert roots == want


def test_invariant_values(g2):
    _, _, tens, fx = g2
    u = [Fraction(3), Fraction(2)]
    usub = {('u', i + 1, 0): Poly.num(u[i]) for i in range(2)}
    t = [x.subs(usub).constant() for x in fx['t']]
    roots, cs = central_invariants_dirac(tens, 2, u)
    by_root = dict(zip(roots, cs))
    assert by_root[t[0] + 4 * t[1] ** 3] == Fraction(1, 8)
    assert by_root[t[0] - 4 * t[1] ** 3] == Fraction(1, 24)


def test_char_poly_degree(g2):
    _, _, tens, _ = g2
    p = char_poly(tens, 2)
    zc = p.coeffs_in(('z', 0, 0))
    assert max(zc) == 2


def test_numeric_pencil_matches_symbolic(g2):
    alg, slices, tens, _ = g2
    rng = random.Random(17)
    points = [[Fraction(2), Fraction(-1)]]
    points += [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
               for _ in range(10)]
    for u in points:
        N = numeric_pencil(alg, slices, u)
        usub = {('u', i + 1, 0): Poly.num(u[i]) for i in range(2)}
        for key in ('g2', 'g1', 'A12', 'A11', 'A22', 'A21'):
            for i in range(2):
                for j in range(2):
                    assert N[key][i][j] == tens[key][i][j].subs(usub).constant(), (u, key)
                    assert type(N[key][i][j]) is Fraction


def test_degenerate_directions_detected(g2):
    _, _, tens, _ = g2
    # u1 = 0 forces t2 = 0 and the two critical values collide
    from dscentral.invariants import DegeneratePoint
    with pytest.raises(DegeneratePoint):
        central_invariants_dirac(tens, 2, [Fraction(0), Fraction(1)])


def test_default_slice_agrees_up_to_scaling(g2):
    # the graded kernel without pinned generators spans the same lines
    alg, slices, _, _ = g2
    free = slice_bases(alg)
    assert free['exponents'] == [1, 5]
    for a, b in zip(free['gammas'], slices['gammas']):
        # proportional matrices
        ra = [x for row in a for x in row]
        rb = [x for row in b for x in row]
        k = None
        for x, y in zip(ra, rb):
            if x or y:
                assert x and y
                if k is None:
                    k = Fraction(y) / Fraction(x)
                else:
                    assert Fraction(y) == k * Fraction(x)


def _symbolic_invariants(tensors, n, upoint):
    """Reference for central_invariants_dirac: expand det(g2 - z g1) in z
    and all u^i with char_poly, differentiate symbolically and only then
    substitute the point."""
    from dscentral.invariants import _rational_roots, DegeneratePoint
    usub = {('u', i + 1, 0): Fraction(v) for i, v in enumerate(upoint)}
    p = char_poly(tensors, n)
    dp = [p.diff(('u', k + 1, 0)).subs(usub) for k in range(n)]
    p0 = p.subs(usub)
    pz = p0.diff(('z', 0, 0))
    cz = {e: c.constant() for e, c in p0.coeffs_in(('z', 0, 0)).items()}
    roots = _rational_roots(cz)
    if roots is None:
        raise DegeneratePoint("irrational canonical coordinates")
    roots = sorted(roots)

    def at(pol, z):
        return sum((c.constant() * z ** e
                    for e, c in pol.coeffs_in(('z', 0, 0)).items()), Fraction(0))

    def ev(key):
        return [[tensors[key][i][j].subs(usub).constant() for j in range(n)]
                for i in range(n)]
    g1, A22, A21 = ev('g1'), ev('A22'), ev('A21')
    out = []
    for z in roots:
        d = [at(x, z) for x in dp]
        num = sum(d[k] * d[l] * (A22[k][l] - z * A21[k][l])
                  for k in range(n) for l in range(n))
        den = sum(d[k] * d[l] * g1[k][l] for k in range(n) for l in range(n))
        if den == 0:
            raise DegeneratePoint("degenerate first metric direction")
        out.append(Fraction(1, 3) * at(pz, z) ** 2 * num / den ** 2)
    return roots, out


def _outcome(fn, *args):
    from dscentral.invariants import DegeneratePoint
    try:
        return fn(*args)
    except DegeneratePoint as ex:
        return 'DegeneratePoint: %s' % ex


def test_pointwise_defect_formula_matches_symbolic_g2(g2):
    _, _, tens, _ = g2
    rng = random.Random(23)
    points = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(-3)],
              [Fraction(2), Fraction(0)], [Fraction(0), Fraction(0)]]
    points += [[Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 3))]
               for _ in range(20)]
    outcomes = []
    for u in points:
        want = _outcome(_symbolic_invariants, tens, 2, u)
        assert _outcome(central_invariants_dirac, tens, 2, u) == want, u
        outcomes.append(want)
    assert any(isinstance(o, str) for o in outcomes)
    assert sum(not isinstance(o, str) for o in outcomes) >= 15


def test_pointwise_defect_formula_matches_symbolic_f4(monkeypatch):
    rng = random.Random(29)
    points = []
    for _ in range(4):          # the perfect-square family: rational roots
        points.append(reference.f4_sample(rng))
    points += [[Fraction(1), Fraction(2), Fraction(0), Fraction(0)],
               [Fraction(0), Fraction(0), Fraction(0), Fraction(0)],
               [Fraction(3), Fraction(-1), Fraction(1, 2), Fraction(2)]]
    fast = [_outcome(fixtures.fixture_invariants, 'f4', t) for t in points]
    calls = []

    def symbolic(*args):
        calls.append(args)
        return _symbolic_invariants(*args)
    monkeypatch.setattr(dirac, 'central_invariants_dirac', symbolic)
    slow = [_outcome(fixtures.fixture_invariants, 'f4', t) for t in points]
    assert len(calls) == len(points)
    assert fast == slow
    assert sum(isinstance(o, str) for o in fast) >= 2
    assert sum(not isinstance(o, str) for o in fast) >= 4
