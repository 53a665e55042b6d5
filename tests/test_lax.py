"""Scalar operators and their symbols."""

import pytest

from dscentral.algebra import Poly, u_list
from dscentral.lax import (NU, dispersionless_symbol, lambda_xpoly,
                           capital_lambda, capital_lambda_tilde)


def test_u_list_length_check():
    with pytest.raises(ValueError):
        u_list(3, [1, 2])


def test_dispersionless_symbol_a():
    s = dispersionless_symbol('A', 2)
    assert (s.c.get((3, 0), Poly()) - Poly.num(1)).is_zero()
    assert (s.c.get((1, 0), Poly()) - Poly.of('u', 2)).is_zero()
    assert (s.c.get((0, 0), Poly()) - Poly.of('u', 1)).is_zero()


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
            assert (s.c.get((e, 0), Poly()) - c).is_zero()


def test_build_lax_a_truncation():
    L = dispersionless_symbol('A', 2, None, 3)
    assert L.K == 3
    assert (L.c.get((3, 0), Poly()) - Poly.num(1)).is_zero()
