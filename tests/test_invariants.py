"""Canonical coordinates and the invariant evaluation chain.

The expected invariant values come from dscentral.reference: the
classical values are in the trace form of the defining representation,
and the normalized-form table divides them by the form ratio of the
series.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dscentral import brackets, dirac, fixtures, invariants, liealg, reference
from dscentral.invariants import (DegeneratePoint, canonical_coordinates,
                                  central_invariants, defect_invariants,
                                  residue_identity, sample_from_roots,
                                  random_sample)
from dscentral.liealg import lie_central_invariants
from dscentral.upoly import rational_roots


def test_sample_from_roots_a_roundtrip():
    roots = [Fraction(-3), Fraction(1), Fraction(2)]
    u = sample_from_roots('A', 3, roots, c0=5)
    pts = canonical_coordinates('A', 3, u)
    assert [r for r, _ in pts] == sorted(roots)


def test_sample_from_roots_bc_distinguished_point():
    u = sample_from_roots('B', 3, [1, -2], c0=7)
    pts = canonical_coordinates('B', 3, u)
    # the extra canonical point sits at the origin, last in the ordering
    assert pts[-1][0] == 0
    assert pts[-1][1] == 7


def test_sample_from_roots_d_completion():
    u = sample_from_roots('D', 3, [1, 3], u2=2)
    pts = canonical_coordinates('D', 3, u)
    assert len(pts) == 3
    assert all(r != 0 for r, _ in pts)


def test_degenerate_coinciding_values():
    # lam = p^3 - 3p has critical values -+ 2; shift one on top of the
    # other via a double root instead
    with pytest.raises(DegeneratePoint):
        sample_from_roots('A', 2, [1, -1], c0=0)
        canonical_coordinates('A', 2, sample_from_roots('A', 2, [0, 0]))


def test_degenerate_d_origin():
    with pytest.raises(DegeneratePoint):
        canonical_coordinates('D', 3, [0, 1, 1])


@pytest.mark.parametrize('n', [1, 2, 3, 4])
def test_invariants_a(n):
    rng = random.Random(100 + n)
    u = random_sample('A', n, rng)
    res = central_invariants('A', n, u)
    assert res['c'] == reference.classical_invariants('A', n)


@pytest.mark.parametrize('series,n,last', [
    ('B', 2, Fraction(1, 6)), ('B', 3, Fraction(1, 6)),
    ('B', 4, Fraction(1, 6)),
    ('C', 2, Fraction(1, 24)), ('C', 3, Fraction(1, 24)),
    ('C', 4, Fraction(1, 24)),
])
def test_invariants_bc(series, n, last):
    rng = random.Random(hash((series, n)) % 10000)
    u = random_sample(series, n, rng)
    res = central_invariants(series, n, u)
    assert res['c'] == reference.classical_invariants(series, n)
    # the exceptional value sits at the distinguished canonical point
    assert res['points'][-1][0] == 0
    assert res['c'][-1] == last


@pytest.mark.parametrize('n', [3, 4])
def test_invariants_d(n):
    rng = random.Random(300 + n)
    u = random_sample('D', n, rng)
    res = central_invariants('D', n, u)
    assert res['c'] == reference.classical_invariants('D', n)


def test_invariants_constant_across_samples():
    rng = random.Random(17)
    for series, n in (('A', 3), ('B', 2), ('C', 3), ('D', 3)):
        seen = set()
        for _ in range(3):
            u = random_sample(series, n, rng)
            res = central_invariants(series, n, u)
            seen.add(tuple(sorted(res['c'])))
        assert len(seen) == 1


@pytest.mark.parametrize('series,n', [('A', 25), ('A', 26), ('B', 30), ('C', 26),
                                      ('C', 27), ('D', 30)])
def test_random_sample_above_the_pool(series, n):
    # POOL holds too few integers for these ranks, so the draw widens it;
    # only the critical points are found, no table is built
    u = random_sample(series, n, random.Random(0))
    pts = canonical_coordinates(series, n, u)
    assert len(u) == n and len({lam for _, lam in pts}) == n
    assert invariants._pool(series, n) != invariants.POOL


def test_random_sample_keeps_the_pool_where_it_serves():
    # the widest ranks that draw from POOL: their seeded draws stay put
    for series, n in (('A', 24), ('B', 25), ('C', 25), ('D', 24)):
        assert invariants._pool(series, n) is invariants.POOL
        random_sample(series, n, random.Random(0))


def test_first_metric_diagonal_data():
    rng = random.Random(23)
    u = random_sample('A', 3, rng)
    res = central_invariants('A', 3, u)
    assert all(f != 0 for f in res['f'])
    assert len(res['points']) == 3


def test_residue_identity_random_sets():
    rng = random.Random(29)
    for n in range(2, 7):
        rs = sorted(rng.sample(range(-30, 30), n))
        want = Fraction(1 - n, 2 * (n + 1))
        assert residue_identity(rs) == [want] * n


def test_lie_formula_table():
    for (typ, n), want in reference.TABLE.items():
        assert lie_central_invariants(typ, n) == want, (typ, n)
    # other ranks: the normalized-form values times the form ratio are
    # the scalar-Lax values, slot by slot
    for series, lo in (('A', 1), ('B', 2), ('C', 2), ('D', 3)):
        for n in range(lo, 7):
            got = [c / liealg.defining_form_ratio(series)
                   for c in lie_central_invariants(series, n)]
            assert got == reference.classical_invariants(series, n)


def test_series_scale_links_both_computations():
    # scalar-Lax values = normalized-form values x (1 / form ratio),
    # with the distinguished vertex moved to the last slot
    rng = random.Random(31)
    for series, n in (('B', 3), ('C', 3), ('D', 3)):
        u = random_sample(series, n, rng)
        cs = sorted(central_invariants(series, n, u)['c'])
        lie = sorted(c / liealg.defining_form_ratio(series)
                     for c in lie_central_invariants(series, n))
        assert cs == lie


def test_foldings():
    for key, (typ, n, target) in reference.FOLDINGS.items():
        assert liealg.fold(typ, n) == lie_central_invariants(*target), key


def test_second_call_reuses_the_tables(monkeypatch):
    calls = []
    build = brackets.bracket_table

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)
    monkeypatch.setattr(brackets, 'bracket_table', counting)
    invariants._symbolic_tables.cache_clear()
    rng = random.Random(37)
    u, v = random_sample('C', 3, rng), random_sample('C', 3, rng)
    first = central_invariants('C', 3, u)
    assert calls == [('C', 3, 2)]     # the first table is derived from it
    assert central_invariants('C', 3, u) == first
    assert central_invariants('C', 3, v)['c'] == first['c']
    assert len(calls) == 1


def _inputs_of_defect_invariants(monkeypatch, module, run):
    """The (lams, dlams, blocks) that `run` hands to defect_invariants
    through `module`."""
    seen = []

    def spy(*args):
        seen.append(args)
        return defect_invariants(*args)
    with monkeypatch.context() as m:
        m.setattr(module, 'defect_invariants', spy)
        run()
    assert len(seen) == 1
    return seen[0]


def _change_coordinates(dlams, blocks, J):
    """The blocks as J B J^T and the covectors as J^-T dlam."""
    m = len(J)
    Jinv = liealg.inverse(J)
    out = {}
    for key, entries in blocks.items():
        B = [[Fraction(0)] * m for _ in range(m)]
        for j, k, v in entries:
            B[j][k] += v
        JBJt = liealg.mmul(liealg.mmul(J, B), [list(r) for r in zip(*J)])
        out[key] = [(a, b, x) for a, row in enumerate(JBJt)
                    for b, x in enumerate(row) if x]
    return ([[sum(Jinv[j][a] * d[j] for j in range(m)) for a in range(m)]
             for d in dlams], out)


def test_defect_formula_is_coordinate_free(monkeypatch):
    # dlam_k B dlam_i is a scalar, so a linear change of coordinates
    # leaves (f, c) as they are; symbol-route data and G2 Dirac data
    rng = random.Random(43)
    cases = []
    for series, n in (('A', 3), ('B', 3), ('C', 2), ('D', 3)):
        u = random_sample(series, n, rng)
        cases.append(_inputs_of_defect_invariants(
            monkeypatch, invariants, lambda: central_invariants(series, n, u)))
    alg = liealg.g2_algebra()
    tens = dirac.dirac_tensors(alg, dirac.g2_slice(alg))
    for _ in range(2):
        u = reference.g2_sample(rng)
        cases.append(_inputs_of_defect_invariants(
            monkeypatch, dirac, lambda: dirac.central_invariants_dirac(tens, 2, u)))
    assert any(key[1] == 2 for _, _, blocks in cases for key in blocks)
    moves = 0
    for lams, dlams, blocks in cases:
        want = defect_invariants(lams, dlams, blocks)
        m = len(dlams[0])
        for _ in range(3):
            J = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)]
                 for _ in range(m)]
            try:
                moved = _change_coordinates(dlams, blocks, J)
            except ValueError:          # a singular J
                continue
            assert defect_invariants(lams, *moved) == want
            moves += 1
    assert moves >= 2 * len(cases)


def defect_invariants_by_fractions(lams, dlams, blocks):
    """Reference: the defect formula with one Fraction per cross term
    and lam_i E_1^s(k, i) formed as it stands, the form that
    `defect_invariants` replaced by one integer pair per invariant."""
    n = len(lams)

    def E(key):
        B = blocks.get(key) or []
        return lambda k, i: sum(v * dlams[k][j] * dlams[i][m] for j, m, v in B)

    E11, E21, E12, E22, E13, E23 = (E((a, s)) for s in (1, 2, 3) for a in (1, 2))
    f = []
    for i in range(n):
        if any(E11(k, i) for k in range(n) if k != i):
            raise DegeneratePoint("first metric not diagonal")
        f.append(E11(i, i))
        if E21(i, i) != lams[i] * f[i]:
            raise DegeneratePoint("second metric not lam * first")
    if any(x == 0 for x in f):
        raise DegeneratePoint("vanishing diagonal metric entry")
    delta2 = blocks.get((1, 2)) or blocks.get((2, 2))

    def c(i, lam):
        cross = sum((Fraction((E22(k, i) - lam * E12(k, i)) ** 2, f[k] * (lams[k] - lam))
                     for k in range(n) if k != i and delta2), 0)
        return Fraction(E23(i, i) - lam * E13(i, i) + cross, 3 * f[i] ** 2)
    return f, [c(i, lam) for i, lam in enumerate(lams)]


def _defect_outcome(formula, lams, dlams, blocks):
    try:
        f, cs = formula(lams, dlams, blocks)
    except DegeneratePoint as ex:
        return 'DegeneratePoint: %s' % ex
    assert all(type(c) is Fraction for c in cs)
    return f, cs


@st.composite
def diagonal_pencils(draw):
    """(lams, dlams, blocks) with distinct lam of unlike denominators,
    dlam_i = a_i e_i and the first metric diagonal; the blocks over int
    or Fraction, the second metric at times off lam times the first."""
    n = draw(st.integers(1, 4))
    lams = draw(st.lists(st.fractions(-20, 20, max_denominator=12), min_size=n, max_size=n,
                         unique=True))
    ints = st.integers(-9, 9)
    scalar = draw(st.sampled_from([ints, st.fractions(-9, 9, max_denominator=5)]))
    a = [draw(st.sampled_from([1, -1])) * draw(st.integers(1, 9)) for _ in range(n)]
    f = [draw(scalar) for _ in range(n)]
    lams = [int(x) if x.denominator == 1 and draw(st.booleans()) else x for x in lams]
    blocks = {(1, 1): [(i, i, x) for i, x in enumerate(f)],
              (2, 1): [(i, i, lam * x + draw(st.sampled_from([0, 0, 0, 1])))
                       for i, (lam, x) in enumerate(zip(lams, f))]}
    for key in draw(st.sets(st.sampled_from([(1, 2), (2, 2), (1, 3), (2, 3)]))):
        xs = draw(st.lists(scalar, min_size=n * n, max_size=n * n))
        blocks[key] = [(j // n, j % n, x) for j, x in enumerate(xs)]
    return lams, [[x if j == i else 0 for j in range(n)] for i, x in enumerate(a)], blocks


@settings(max_examples=150, deadline=None)
@given(diagonal_pencils())
def test_integer_pair_defect_formula_matches_the_fraction_one(case):
    assert (_defect_outcome(defect_invariants, *case)
            == _defect_outcome(defect_invariants_by_fractions, *case))


def test_integer_pair_defect_formula_on_every_route(monkeypatch):
    # the doctest cases, the symbol route (Fraction blocks) and the G2 and
    # F4 point routes (int blocks)
    blocks = {(1, 1): [(0, 0, 2), (1, 1, 1)], (2, 1): [(0, 0, 2), (1, 1, -1)],
              (2, 3): [(0, 0, 6), (1, 1, 3)]}
    cases = [([1, -1], [[1, 0], [0, 1]], blocks),
             ([1, -1], [[1, 0], [0, 1]], {**blocks, (2, 2): [(0, 1, 1), (1, 0, 1)]})]
    rng = random.Random(5)
    for series, n in (('A', 3), ('B', 3), ('C', 2), ('D', 3)):
        u = random_sample(series, n, rng)
        cases.append(_inputs_of_defect_invariants(
            monkeypatch, invariants, lambda: central_invariants(series, n, u)))
    alg = liealg.g2_algebra()
    tens = dirac.dirac_tensors(alg, dirac.g2_slice(alg))
    points = [(lambda u=reference.g2_sample(rng): dirac.central_invariants_dirac(tens, 2, u))
              for _ in range(2)]
    points += [lambda t=reference.f4_sample(rng): fixtures.fixture_invariants('f4', t)
               for _ in range(2)]
    cases += [_inputs_of_defect_invariants(monkeypatch, dirac, run) for run in points]
    assert {type(x) for _, _, b in cases for e in b.values() for *_, x in e} == {int, Fraction}
    assert any(lam.denominator > 1 for lams, _, _ in cases for lam in lams)
    for case in cases:
        want = defect_invariants_by_fractions(*case)
        assert defect_invariants(*case) == want


def test_table_row_derivation_matches_the_stored_rank_4_rows():
    for series in ('A', 'B', 'C', 'D'):
        assert reference.table_row(series, 4) == reference.TABLE[(series, 4)]


def _expand(c, factors):
    """c times the product of the factors, each a coefficient list with
    the constant term first."""
    out = [Fraction(c)]
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def _outcome(coeffs):
    try:
        return rational_roots(coeffs)
    except DegeneratePoint as ex:
        return 'raise: %s' % ex


def _lin(r):
    return [-Fraction(r), 1]


X2M2 = [-2, 0, 1]
BIG = 10 ** 50 + 151
SIX = [Fraction(-7, 2), -2, Fraction(-1, 3), 0, Fraction(5, 4), 6]
REPEATED = 'raise: repeated critical point'

# polynomial -> roots in ascending order, None (a root that is not
# rational) or the DegeneratePoint text (a repeated rational root)
FINDER_CASES = [
    (_expand(3, [[-2, 3]]), [Fraction(2, 3)]),                    # degree 1
    (_expand(1, [[0, -4, 0, 1]]), [-2, 0, 2]),                   # simple 0
    (_expand(6, [_lin(Fraction(1, 2)), _lin(Fraction(-1, 3))]),
     [Fraction(-1, 3), Fraction(1, 2)]),                         # lc != 1
    (_expand(Fraction(-5, 7), [_lin(r) for r in SIX]), SIX),     # six roots
    (_expand(1, [X2M2]), None),                                  # x^2 - 2
    (_expand(1, [[1, 0, 1]]), None),                             # x^2 + 1
    (_expand(1, [[5]]), []),                                     # constant
    ([Fraction(-1), Fraction(1), Fraction(0)], None),            # last entry 0
    (_expand(BIG, [_lin(Fraction(BIG + 2, 3)),
                   _lin(Fraction(-BIG, BIG - 2))]),              # 100 digits
     [Fraction(-BIG, BIG - 2), Fraction(BIG + 2, 3)]),
    (_expand(1, [[-(10 ** 100 + 1), 0, 1]]), None),              # 100 digits
    # x^2 - 3 shares the unit intervals (-2, -1] and (1, 2] with -1 and 2
    (_expand(1, [_lin(-1), _lin(2), [-3, 0, 1]]), None),
    (_expand(1, [_lin(2), _lin(2), [-3, 0, 1]]), REPEATED),
    # complex roots, so the bisection starts from the Cauchy bound
    (_expand(1, [_lin(50), _lin(50), [1, 0, 1]]), REPEATED),
    # a repeated root; a Sturm sequence term has a negative lead
    (_expand(1, [_lin(-1), _lin(-1), _lin(-4), [7, -1, 1]]), REPEATED),
    # the mixed cases: a repeated root next to roots that are not
    # rational; sympy's `roots` gave these outcomes
    (_expand(1, [_lin(1), _lin(1), X2M2]), REPEATED),
    (_expand(1, [_lin(1), _lin(1), [1, 0, 1]]), REPEATED),
    (_expand(1, [_lin(3), X2M2, X2M2]), None),
    (_expand(1, [_lin(Fraction(1, 2)), _lin(Fraction(1, 2)), [-1, -1, 0, 1]]),
     REPEATED),
    (_expand(1, [_lin(-2), _lin(-2), _lin(-2), _lin(5)]), REPEATED),
    (_expand(1, [_lin(1), _lin(1), [-1, -1, 0, 0, 0, 1]]), REPEATED),
    # sympy returned None here; a repeated rational root always raises
    (_expand(1, [[0, 0, 1], X2M2]), REPEATED),
]


@pytest.mark.parametrize('coeffs,want', FINDER_CASES)
def test_rational_roots_table(coeffs, want):
    assert _outcome(coeffs) == want


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=60)


@settings(max_examples=80, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=6, unique=True),
       rationals.filter(bool),
       st.integers(2, 400).filter(lambda m: math.isqrt(m) ** 2 != m))
def test_rational_roots_recovers_distinct_rationals(roots, c, m):
    factors = [_lin(r) for r in roots]
    assert rational_roots(_expand(c, factors)) == sorted(roots)
    assert rational_roots(_expand(c, factors + [[-m, 0, 1]])) is None
