"""Constrained reduction of the rank 2 matrix model.

The symbolic tensors are compared entry by entry against the bundled
exact tables, in the slice coordinates and in the flat ones, and the
invariants are evaluated at exact points.
"""

import gc
import hashlib
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from dscentral.algebra import Poly
from dscentral import dirac, fixtures, invariants, liealg, reference
from dscentral.dirac import (slice_bases, dirac_tensors,
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


def _form(alg, A, B):
    """The normalized invariant form tr(AB) * form_scale of two matrices,
    entries or dense rows."""
    return liealg.spair(liealg.sparse(A), liealg.sparse(B)) * alg.form_scale


def cofactor_det(m):
    """Determinant by expansion along the first row, over any ring."""
    if len(m) == 1:
        return m[0][0]
    return sum(((-1) ** j * m[0][j] * cofactor_det([r[:j] + r[j + 1:] for r in m[1:]])
                for j in range(len(m)) if m[0][j]), Poly())


def char_poly(tensors, n):
    """p(z; u) = det(g2 - z g1) as a Poly in z and the u^i, by cofactor
    expansion, independent of the package's elimination."""
    z = Poly.of('z')
    return cofactor_det([[tensors['g2'][i][j] - z * tensors['g1'][i][j]
                          for j in range(n)] for i in range(n)])


def test_slice_exponents(g2):
    alg, slices, _, _ = g2
    assert slices['exponents'] == [1, 5]
    assert len(slices['f']) == 12


def test_dual_pairing(g2):
    alg, slices, _, _ = g2
    for i, gu in enumerate(slices['gamma_ups']):
        for j, gam in enumerate(slices['gammas']):
            want = Fraction(1) if i == j else Fraction(0)
            assert _form(alg, liealg.dense(gu, alg.size), gam) == want


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


@pytest.mark.parametrize('unit', [None, 0], ids=['u2', 'u1'])
def test_kernel_vector_off_the_unit_field_is_degenerate(unit):
    # constant diagonal tensors: the kernel vectors at the roots 1 and 2
    # are (1, 0) and (0, 1), and one of them has no unit component; that
    # is a DegeneratePoint (exit 2), not a division by zero
    from dscentral.invariants import DegeneratePoint

    def diag(a, b):
        return [[Poly.num(a), Poly()], [Poly(), Poly.num(b)]]
    tens = {'g2': diag(1, 2), 'g1': diag(1, 1), 'A22': diag(1, 1), 'A21': diag(0, 0)}
    with pytest.raises(DegeneratePoint, match='unit field'):
        central_invariants_dirac(tens, 2, [Fraction(1), Fraction(1)], unit)


def test_first_metric_degenerate_at_the_point_is_refused():
    # det g1 = 0 drops the z^n term of p(z), which would leave one root
    # and one invariant for n = 2
    from dscentral.invariants import DegeneratePoint
    tens = {'g2': [[Poly.of('u', 1), Poly()], [Poly(), Poly.num(1)]],
            'g1': [[Poly.num(1), Poly()], [Poly(), Poly()]]}
    with pytest.raises(DegeneratePoint, match='first metric degenerate at this point'):
        central_invariants_dirac(tens, 2, [Fraction(3), Fraction(1)], 0)


def test_default_slice_agrees_up_to_scaling(g2):
    # the graded kernel without pinned generators spans the same lines
    alg, slices, _, _ = g2
    free = slice_bases(alg)
    assert free['exponents'] == [1, 5]
    for a, b in zip(free['gammas'], slices['gammas']):
        # proportional matrices, compared value by value
        ra = [x for row in liealg.dense(a, alg.size) for x in row]
        rb = [x for row in liealg.dense(b, alg.size) for x in row]
        k = None
        for x, y in zip(ra, rb):
            if x or y:
                assert x and y
                if k is None:
                    k = Fraction(y) / Fraction(x)
                else:
                    assert Fraction(y) == k * Fraction(x)


def d_algebra(n):
    """D_n in its defining representation of size 2n, with half the
    trace form: X_i = E_(i,i+1) - E_(2n-i,2n+1-i) for i < n and
    X_n = E_(n-1,n+1) - E_(n,n+2), Y_i the transpose of X_i."""
    def E(i, j, k, l):
        m = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
        m[i - 1][j - 1], m[k - 1][l - 1] = Fraction(1), Fraction(-1)
        return m
    X = [E(i, i + 1, 2 * n - i, 2 * n + 1 - i) for i in range(1, n)]
    X.append(E(n - 1, n + 1, n, n + 2))
    Y = [[list(r) for r in zip(*x)] for x in X]
    return liealg.MatrixLieAlgebra(n, X, Y, Fraction(1, 2), n * (2 * n - 1))


@pytest.mark.parametrize('n,exponents', [(3, [1, 2, 3]), (4, [1, 3, 3, 5]),
                                         (5, [1, 3, 4, 5, 7])],
                         ids=['D3', 'D4', 'D5'])
def test_slice_bases_repeated_exponent(n, exponents):
    # D4 has the exponent 3 twice: its duals come from a 2 x 2 pairing
    alg = d_algebra(n)
    assert alg.realized_cartan() == liealg.cartan_matrix('D', n)
    slices = slice_bases(alg)
    assert slices['exponents'] == exponents
    assert [[_form(alg, liealg.dense(gu, alg.size), gam) for gam in slices['gammas']]
            for gu in slices['gamma_ups']] == [[int(i == j) for j in range(n)]
                                               for i in range(n)]
    assert len(slices['f']) == n * (2 * n - 1) - n


def _pencil_digest(N):
    """The first 16 hex digits of the sha256 of 'key=[[entries]]' over
    the sorted keys, joined by ';'."""
    text = ';'.join('%s=%s' % (k, [[str(x) for x in row] for row in N[k]])
                    for k in sorted(N))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _slices(name):
    """The algebra and its slice data: G2 with the historical slice, the
    others from their documents."""
    if name == 'G2':
        alg = liealg.g2_algebra()
        return alg, g2_slice(alg)
    alg = fixtures.build_algebra(name.lower())
    return alg, slice_bases(alg, fixtures.load_gammas(name.lower(), alg))


@pytest.mark.parametrize('name,digest', [('D5', 'e577f82a29a6c03b'),
                                         ('F4', '474d9862d99b34fb'),
                                         ('E6', '2ff45dd9bc858d24'),
                                         ('E7', '044b72e93eac390d'),
                                         ('E8', '9d8983645d6d9b36')],
                         ids=['D5', 'F4', 'E6', 'E7', 'E8'])
def test_numeric_pencil_golden(name, digest):
    # 40, 48, 72, 126 and 240 constraints; the digests were recorded with
    # the chain over Fraction matrices (D5, E6, E7) and with three integer
    # chains at the shifts 0, 1 and 2 (F4, E8)
    if name == 'D5':
        alg = d_algebra(5)
        slices = slice_bases(alg)
    else:
        alg, slices = _slices(name)
    up = [Fraction(k + 2, 3) for k in range(1, alg.n + 1)]
    assert _pencil_digest(numeric_pencil(alg, slices, up)) == digest


@pytest.mark.parametrize('size', [3, 5], ids=['short', 'long'])
def test_numeric_pencil_needs_one_coordinate_per_generator(size):
    # a short point cut the parts short and a long one was cut itself,
    # each giving a pencil of the wrong size with the shift on the wrong
    # coordinate
    alg, slices = _slices('F4')
    with pytest.raises(ValueError, match='expected 4 coordinates, got %d' % size):
        numeric_pencil(alg, slices, [Fraction(k + 2, 3) for k in range(1, size + 1)])


@pytest.mark.parametrize('name', ['G2', 'F4'])
def test_numeric_pencil_refuses_a_shift_not_entering_linearly(name):
    # with the P and R parts reversed the shift rides on u^1, and the
    # blocks are no longer affine in it
    alg, slices = _slices(name)
    P, R, Q, S, W = slices['parts']
    swapped = dict(slices, parts=(P[::-1], R[::-1], Q, S, W))
    up = [Fraction(k + 2, 3) for k in range(1, alg.n + 1)]
    with pytest.raises(ValueError, match='shift dependence not linear at this point'):
        numeric_pencil(alg, swapped, up)


def test_shift_check_sees_every_power():
    # lam (lam - 1) (lam - 2) vanishes at the three shifts 0, 1 and 2 that
    # a second difference reads, but it is not linear
    lam = Poly.from_var(dirac.SHIFT)
    assert dirac._at_shift(Fraction(1, 3) + 2 * lam, 1) == Fraction(7, 3)
    with pytest.raises(ValueError, match='not linear'):
        dirac._at_shift(lam * (lam - 1) * (lam - 2), 0)


def _constraint_matrix(alg, slices, coeffs, den):
    """P = P0 + sum c^k P_k / den, dense: P0[a][b] = <I_-, [f_b, f_a]>
    from the stored f, the P_k from the parts (E, d)."""
    f = [liealg.dense(E, alg.size) for E in slices['f']]
    P = [[_form(alg, alg.I_minus, liealg.mcomm(fb, fa)) for fb in f] for fa in f]
    for c, (E, d) in zip(coeffs, slices['parts'][0]):
        for (a, b), v in E.items():
            P[a][b] += c * Fraction(v, d * den)
    return P


def _divided(E, d, m):
    return [[x * Fraction(1, d) for x in row] for row in liealg.dense(E, m)]


@pytest.mark.parametrize('case', ['G2', 'D4'])
def test_neumann_inverse_times_p_is_identity(case):
    # G2 over Poly in the u^k, D4 (exponent 3 twice) over Fraction: the
    # series runs over integral rows and is divided once
    if case == 'G2':
        alg = liealg.g2_algebra()
        slices = g2_slice(alg)
        coeffs, den = [Poly.of('u', k + 1) for k in range(2)], 1
    else:
        alg = d_algebra(4)
        slices = slice_bases(alg)
        coeffs, den = [14, -21, 15, 63], 21      # 2/3, -1, 5/7, 3
    parts = slices['parts']
    (W, w), m = parts[4], len(slices['f'])
    eye = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    P0 = _constraint_matrix(alg, slices, [], den)
    assert liealg.mmul(P0, _divided(W, w, m)) == eye
    negN, e = dirac._combine((-c, Pk) for c, Pk in zip(coeffs, parts[0]))
    U = liealg.smul(liealg.rows(negN), liealg.rows(W)), den * e * w   # -N P0^-1
    ones = liealg.rows({(i, i): 1 for i in range(m)})
    Pinv, d = dirac._times_inverse((ones, 1), (liealg.rows(W), w), U)
    Pinv = _divided(liealg.flat(Pinv), d, m)
    assert liealg.mmul(_constraint_matrix(alg, slices, coeffs, den), Pinv) == eye
    assert any(isinstance(x, Poly) and not x.is_constant()
               for row in Pinv for x in row) == (case == 'G2')


def test_neumann_series_must_terminate():
    # U = identity is not nilpotent: every term stays nonzero
    ones = liealg.rows({(i, i): 1 for i in range(3)})
    with pytest.raises(ValueError, match='does not terminate'):
        dirac._times_inverse((ones, 1), (ones, 1), (ones, 1))


def _symbolic_invariants(tensors, n, upoint):
    """Reference for central_invariants_dirac: expand det(g2 - z g1) in z
    and all u^i with char_poly, differentiate symbolically and only then
    substitute the point."""
    from dscentral.upoly import DegeneratePoint, rational_roots
    usub = {('u', i + 1, 0): Fraction(v) for i, v in enumerate(upoint)}
    p = char_poly(tensors, n)
    dp = [p.diff(('u', k + 1, 0)).subs(usub) for k in range(n)]
    p0 = p.subs(usub)
    pz = p0.diff(('z', 0, 0))
    cz = {e: c.constant() for e, c in p0.coeffs_in(('z', 0, 0)).items()}
    roots = rational_roots([cz.get(e, Fraction(0)) for e in range(max(cz) + 1)])
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
    _, _, tensors, prepared = fixtures._fixture_tensors(fixtures.DATA_DIR, 'f4')

    def symbolic(keys, entries, n, upoint, unit):
        # the point route gets the cached prepared entries; the Jacobi
        # formula reads dlam off p(z; u), with no unit field
        assert keys == list(tensors) and entries is prepared
        calls.append(unit)
        return _symbolic_invariants(tensors, n, upoint)
    monkeypatch.setattr(dirac, 'point_invariants', symbolic)
    slow = [_outcome(fixtures.fixture_invariants, 'f4', t) for t in points]
    assert calls == [0] * len(points)      # the document's unit field is d/dt1
    assert fast == slow
    assert sum(isinstance(o, str) for o in fast) >= 2
    assert sum(not isinstance(o, str) for o in fast) >= 4


@pytest.mark.parametrize('size', [5, 3], ids=['long', 'short'])
def test_point_must_have_one_coordinate_per_tensor_index(size):
    # a fifth coordinate was ignored and a missing one failed on a free u^4
    t = reference.f4_point(1, 2, Fraction(1, 2)) + [Fraction(7)]
    with pytest.raises(ValueError, match='expected 4 coordinates, got %d' % size):
        fixtures.fixture_invariants('f4', t[:size])


def test_point_evaluation_calls_neither_subs_nor_diff(g2, monkeypatch):
    # every tensor and table entry is read by algebra.evaluate; the
    # symbolic tensors and tables are built before the spy goes in
    _, _, tens, _ = g2
    t = reference.f4_point(1, 2, Fraction(1, 2))
    u = invariants.sample_from_roots('C', 3, [1, -2])
    runs = [lambda: fixtures.fixture_invariants('f4', t),
            lambda: central_invariants_dirac(tens, 2, [Fraction(3), Fraction(2)]),
            lambda: invariants.tables_at('C', 3, u),
            lambda: invariants.central_invariants('C', 3, u)]
    want = [run() for run in runs]

    def refuse(*args):
        raise AssertionError('Poly.diff or Poly.subs called at a point')
    monkeypatch.setattr(Poly, 'diff', refuse)
    monkeypatch.setattr(Poly, 'subs', refuse)
    assert [run() for run in runs] == want


def test_cached_entries_are_prepared_once(g2, monkeypatch):
    # the fixture tensors and the symbol tables are prepared for
    # algebra.evaluate when their cache entry is made, not at each point;
    # central_invariants_dirac, with no cache, prepares at each call
    from dscentral import algebra
    _, _, tens, _ = g2
    made = []
    init = algebra.Prepared.__init__

    def spy(self, polys):
        made.append(1)
        init(self, polys)
    monkeypatch.setattr(algebra.Prepared, '__init__', spy)
    fixtures._fixture_tensors.cache_clear()
    invariants._symbolic_tables.cache_clear()
    rng = random.Random(41)
    for _ in range(5):
        _outcome(fixtures.fixture_invariants, 'f4', reference.f4_sample(rng))
    assert len(made) == 1
    for roots in ([1, -2], [2, 3], [-1, 4]):
        invariants.central_invariants('C', 3, invariants.sample_from_roots('C', 3, roots))
    assert len(made) == 2
    for u in ([Fraction(3), Fraction(2)], [Fraction(-7, 4), Fraction(5, 3)]):
        central_invariants_dirac(tens, 2, u)
    assert len(made) == 4


def test_constraint_parts_need_the_graded_block_form(g2):
    # P0 pairs n with its complement only; with f reordered across the
    # two halves a diagonal block is nonzero
    alg, slices, _, _ = g2
    f = list(slices['f'])
    f[0], f[-1] = f[-1], f[0]
    with pytest.raises(ValueError, match=r'not of the form \[\[0, B\], \[-B\^T, 0\]\]'):
        dirac._constraint_parts(alg, dict(slices, f=f))


def test_point_route_runs_no_fraction_elimination(g2, monkeypatch):
    # determinants, kernel vectors and forms run in integers: with the
    # tensors built, the one Fraction row reduction is never entered
    _, _, tens, _ = g2
    runs = [lambda: fixtures.fixture_invariants('f4', reference.f4_point(1, 2, Fraction(1, 2))),
            lambda: fixtures.fixture_invariants('f4', reference.f4_point(-3, 4, Fraction(-2, 3))),
            lambda: central_invariants_dirac(tens, 2, [Fraction(3), Fraction(2)]),
            lambda: central_invariants_dirac(tens, 2, [Fraction(-7, 4), Fraction(5, 3)])]
    want = [run() for run in runs]

    def refuse(*args):
        raise AssertionError('liealg.Echelon.reduce called at a point')
    monkeypatch.setattr(liealg.Echelon, 'reduce', refuse)
    assert [run() for run in runs] == want
    # the spy does fire on the elimination
    with pytest.raises(AssertionError, match='Echelon.reduce called'):
        liealg.nullspace([[1, 2], [2, 4]])


def _fraction_route(tensors, n, upoint, unit, roots):
    """Reference for the integer point route: the tensors at the point as
    Fractions, dlam = v / v[unit] for v in the Fraction kernel of
    g2 - lam g1, and the defect formula over Fraction."""
    usub = {('u', i + 1, 0): Fraction(x) for i, x in enumerate(upoint)}
    vals = {key: [[x.subs(usub).constant() for x in row] for row in M]
            for key, M in tensors.items()}
    dlams = []
    for lam in roots:
        v, = liealg.nullspace(liealg.madd(vals['g2'], vals['g1'], -lam))
        dlams.append([x / v[unit] for x in v])
    blocks = {dirac.BLOCKS[key]: [(i, j, x) for i, row in enumerate(M)
                                  for j, x in enumerate(row) if x]
              for key, M in vals.items()}
    return invariants.defect_invariants(roots, dlams, blocks)[1]


@pytest.mark.parametrize('name', ['G2', 'F4'])
def test_integer_route_equals_fraction_route(g2, name):
    # dlam and the blocks stay integers, and each c_i is rescaled by
    # d v[unit]^2 at the end: the same invariants as over Fraction
    from dscentral.upoly import DegeneratePoint
    if name == 'G2':
        n, unit, tens = 2, 1, g2[2]
        rng = random.Random(31)
        points = [reference.g2_sample(rng) for _ in range(12)]
    else:
        n, unit, tens, _ = fixtures._fixture_tensors(fixtures.DATA_DIR, 'f4')
        rng = random.Random(37)
        points = [reference.f4_sample(rng) for _ in range(8)]
    checked = 0
    for u in points:
        try:
            roots, cs = central_invariants_dirac(tens, n, u, unit)
        except DegeneratePoint:
            continue
        assert all(type(c) is Fraction for c in cs)
        assert cs == _fraction_route(tens, n, u, unit, roots), u
        checked += 1
    assert checked >= 6


@pytest.mark.parametrize('name', ['g2', 'f4'])
def test_stored_slice_data_is_compact(name):
    # generators in integers, duals as entries, each f_a primitive in
    # integers, the parts without P0, and every stored position shared
    if name == 'g2':
        alg = liealg.g2_algebra()
        slices = g2_slice(alg)
    else:
        alg = fixtures.build_algebra('f4')
        slices = slice_bases(alg, fixtures.load_gammas('f4', alg))
    # the algebra's matrices are entries with shared keys, none a dense view
    views = alg.X + alg.Y + alg.H + [alg.I_plus, alg.I_minus, alg.rho,
                                     alg.root_vector(max(alg.weights, key=sum)),
                                     alg.from_coords([1] * alg.dim)]
    assert all(type(m) is dict and m for m in views)
    assert all(type(x) is int for m in alg.X + alg.Y + alg.H for x in m.values())
    for gu in slices['gamma_ups']:
        assert isinstance(gu, dict) and gu and all(gu.values())
        assert all(0 <= r < alg.size and 0 <= c < alg.size for r, c in gu)
    for f in slices['f']:
        assert f and all(type(x) is int for x in f.values())
        assert gcd(*f.values()) == 1
    # an f_a on a single primitive integer basis element is that element
    primitive = [b for b in alg.basis
                 if all(type(x) is int for x in b.values()) and gcd(*b.values()) == 1]
    for f in slices['f']:
        for b in primitive:
            if f.keys() == b.keys() and len({Fraction(x, b[k]) for k, x in f.items()}) == 1:
                assert f is b
    # integral pivot inverses as int, one Fraction object per grade
    pivots = alg._echelon.pivots.values()
    assert len(pivots) == alg.dim
    assert all(type(inv) is int for _, inv, _, _ in pivots if inv.denominator == 1)
    assert len(set(map(id, alg.grades))) == len(set(alg.grades))
    P, R, Q, S, (W, w) = slices['parts']
    assert len(P) == len(R) == alg.n
    stored = alg.basis + views + [E for E, _ in P + R + [Q, S, (W, w)]]
    gammas = slices['gammas']
    if name == 'f4':            # the document's gammas are kept as entries
        assert all(isinstance(g, liealg.Stored) for g in gammas)
        gammas = [g.entries for g in gammas]
    assert all(type(g) is dict for g in gammas)
    stored += gammas
    assert all(liealg._KEYS[k] is k for E in stored for k in E)


def test_f4_slice_data_kept_is_small():
    # what build_algebra, load_gammas and slice_bases keep for F4, by
    # tracemalloc, after a first build has filled the shared tables; dense
    # gamma matrices alone would break the bound
    def build():
        alg = fixtures.build_algebra('f4')
        gammas = fixtures.load_gammas('f4', alg)
        return alg, gammas, slice_bases(alg, gammas)
    build()
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert kept[2]['exponents'] == [1, 5, 7, 11]
    assert size < 125 * 1024, size
