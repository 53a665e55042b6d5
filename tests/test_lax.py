"""Scalar operators and their symbols."""

from fractions import Fraction

import pytest

from dscentral.algebra import Poly
from dscentral.lax import (NU, u_list, dispersionless_symbol, lambda_xpoly,
                           capital_lambda, capital_lambda_tilde,
                           build_lax_bcd)


def test_u_list_length_check():
    with pytest.raises(ValueError):
        u_list('A', 3, [1, 2])


def test_dispersionless_symbol_a():
    s = dispersionless_symbol('A', 2)
    assert (s.coeff(3) - Poly.num(1)).is_zero()
    assert (s.coeff(1) - Poly.of('u', 2)).is_zero()
    assert (s.coeff(0) - Poly.of('u', 1)).is_zero()


def test_dispersionless_symbol_powers_bcd():
    for series in 'BCD':
        nu = NU[series]
        s = dispersionless_symbol(series, 3)
        pows = {pw for (pw, e) in s.c if not s.c[(pw, e)].is_zero()}
        assert max(pows) == 7 - nu
        assert pows == {7 - nu} | {2 * i - 1 - nu for i in (1, 2, 3)}


def test_lambda_tilde_is_lambda_over_p():
    L = capital_lambda(4)
    Lt = capital_lambda_tilde(4)
    assert (Lt * Poly.of('P') - L).is_zero()


def test_lambda_xpoly_matches_symbol():
    for series, n in (('A', 3), ('B', 2), ('C', 2), ('D', 3)):
        lam = lambda_xpoly(series, n)
        s = dispersionless_symbol(series, n)
        for e, c in lam.coeffs_in(('p', 0, 0)).items():
            assert (s.coeff(e) - c).is_zero()


def test_build_lax_a_truncation():
    L = dispersionless_symbol('A', 2, None, 3)
    assert L.K == 3
    assert (L.coeff(3) - Poly.num(1)).is_zero()


@pytest.mark.parametrize('series,n', [('B', 1), ('B', 2), ('C', 2), ('D', 3)])
def test_bcd_symmetry_constraint(series, n):
    L, v = build_lax_bcd(series, n, K=3)
    sgn = -1 if series == 'C' else 1
    assert (L + L.adjoint().scale(sgn)).is_zero()


def test_bcd_corrections_are_first_order():
    # the v_i vanish at eps^0: they are genuine dispersive corrections
    for series, n in (('B', 2), ('C', 2), ('D', 3)):
        L, v = build_lax_bcd(series, n, K=3)
        for i, parts in v.items():
            assert all(e >= 1 for e in parts)


def test_b1_correction_value():
    L, v = build_lax_bcd('B', 1, K=3)
    want = Poly.num(Fraction(1, 2)) * Poly.of('u', 1, 1)
    assert (v[1][1] - want).is_zero()


def test_d_series_rho_square():
    # the D operator closes with u_1 = rho^2 in the dispersionless part
    L, _ = build_lax_bcd('D', 3, K=2)
    c = L.coeff(-1, 0)
    assert (c - Poly.of('rho', 0) ** 2).is_zero()
