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

from dscentral import invariants, liealg, reference
from dscentral.invariants import (DegeneratePoint, canonical_coordinates,
                                  central_invariants, residue_identity,
                                  transform_invariants, sample_from_roots,
                                  random_sample, series_scale,
                                  _rational_roots)
from dscentral.liealg import lie_central_invariants


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


def test_first_metric_diagonal_data():
    rng = random.Random(23)
    u = random_sample('A', 3, rng)
    res = central_invariants('A', 3, u)
    assert all(f != 0 for f in res['f'])
    # second metric is lam times the first on the diagonal; implied by
    # construction, re-checked here through the returned blocks
    for i, lam in enumerate(res['lambdas']):
        assert res['Q1'][i] is not None
    assert len(res['points']) == 3


def test_residue_identity_random_sets():
    rng = random.Random(29)
    for n in range(2, 7):
        rs = sorted(rng.sample(range(-30, 30), n))
        want = Fraction(1 - n, 2 * (n + 1))
        assert residue_identity(rs) == [want] * n


def test_transform_invariants_roundtrip():
    lams = [Fraction(1), Fraction(3), Fraction(0)]
    cs = [Fraction(1, 24)] * 3
    kappa = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
    nl, nc = transform_invariants(lams, cs, kappa)
    inv = ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(2)))
    bl, bc = transform_invariants(nl, nc, inv)
    assert bl == lams and bc == cs


def test_transform_invariants_rejects_singular():
    with pytest.raises(ValueError):
        transform_invariants([Fraction(1)], [Fraction(1)],
                             ((1, 1), (2, 2)))


def test_lie_formula_table():
    for (typ, n), want in reference.TABLE.items():
        assert lie_central_invariants(typ, n) == want, (typ, n)
    # other ranks: the normalized-form values times the form ratio are
    # the scalar-Lax values, slot by slot
    for series, lo in (('A', 1), ('B', 2), ('C', 2), ('D', 3)):
        for n in range(lo, 7):
            got = [c * series_scale(series)
                   for c in lie_central_invariants(series, n)]
            assert got == reference.classical_invariants(series, n)


def test_series_scale_links_both_computations():
    # scalar-Lax values = normalized-form values x (1 / form ratio),
    # with the distinguished vertex moved to the last slot
    rng = random.Random(31)
    for series, n in (('B', 3), ('C', 3), ('D', 3)):
        u = random_sample(series, n, rng)
        cs = sorted(central_invariants(series, n, u)['c'])
        lie = sorted(c * series_scale(series)
                     for c in lie_central_invariants(series, n))
        assert cs == lie


def test_foldings():
    for key, (typ, n, target) in reference.FOLDINGS.items():
        assert liealg.fold(typ, n) == lie_central_invariants(*target), key


def test_second_call_reuses_the_tables(monkeypatch):
    calls = []
    build = invariants.bracket_table

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)
    monkeypatch.setattr(invariants, 'bracket_table', counting)
    invariants._symbolic_tables.cache_clear()
    rng = random.Random(37)
    u, v = random_sample('C', 3, rng), random_sample('C', 3, rng)
    first = central_invariants('C', 3, u)
    assert len(calls) == 2
    assert central_invariants('C', 3, u) == first
    assert central_invariants('C', 3, v)['c'] == first['c']
    assert len(calls) == 2


def test_table_row_derivation_matches_the_stored_rank_4_rows():
    for series in ('A', 'B', 'C', 'D'):
        assert reference.table_row(series, 4) == reference.TABLE[(series, 4)]


def _expand(c, factors):
    """c times the product of the factors (coefficient lists, constant
    term first) as a dict power -> Fraction."""
    out = [Fraction(c)]
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return {e: x for e, x in enumerate(out) if x}


def _outcome(coeffs):
    try:
        return _rational_roots(coeffs)
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
    ({2: Fraction(0), 1: Fraction(1), 0: Fraction(-1)}, None),  # key 2 is 0
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
    assert _rational_roots(_expand(c, factors)) == sorted(roots)
    assert _rational_roots(_expand(c, factors + [[-m, 0, 1]])) is None
