"""Scalar Lax operators for the classical series.

Series tags: 'A', 'B', 'C', 'D'.  The scalar operators are

    A_n : L = D^(n+1) + u_n D^(n-1) + ... + u_1
    B_n : L = D^(2n+1) + sum u_i D^(2i-1) + sum v_i D^(2i-2),   L + L+ = 0
    C_n : L = D^(2n)   + sum u_i D^(2i-2) + sum v_i D^(2i-3),   L - L+ = 0
    D_n : L = D^(2n-1) + sum u_i D^(2i-3) + sum v_i D^(2i-4)
              + rho D^-1 rho,  u_1 = rho^2,                     L + L+ = 0

with the v_i fixed uniquely (and of order eps) by the symmetry
constraint.  With derivatives of the coefficients suppressed the
symbols reduce to Laurent polynomials in p:

    lam(p) = p^(2n+1-nu) + sum_i u_i p^(2i-1-nu),  nu = 0, 1, 2.
"""

from .algebra import Poly, u_list
from .symbols import Symbol

NU = {'B': 0, 'C': 1, 'D': 2}


def u_power(series, i):
    """The power of p that u_i multiplies in lam(p); the leading power
    is n + 1 for A and u_power(series, n + 1) otherwise."""
    return i - 1 if series == 'A' else 2 * i - 1 - NU[series]


def _lam_coeffs(series, n, u):
    # lam(p) as a dict power of p -> coefficient
    if series != 'A' and series not in NU:
        raise ValueError("unknown series %r" % series)
    c = {n + 1 if series == 'A' else u_power(series, n + 1): Poly.num(1)}
    for i, x in enumerate(u_list(n, u), 1):
        c[u_power(series, i)] = x
    return c


def dispersionless_symbol(series, n, u=None, K=4):
    """Symbol of the Lax operator with all x-derivatives suppressed."""
    return Symbol.from_p_poly(_lam_coeffs(series, n, u), K)


def lambda_xpoly(series, n, pname='p'):
    """lam as a Laurent Poly in the variable (pname, 0, 0)."""
    out = Poly()
    for e, x in _lam_coeffs(series, n, None).items():
        out = out + x * Poly.of(pname, 0, 0, e)
    return out


def capital_lambda(n, Pname='P'):
    """Lam(P) = P^n + u_n P^(n-1) + ... + u_1 (all series)."""
    u = u_list(n)
    out = Poly.of(Pname, 0, 0, n)
    for i in range(1, n + 1):
        out = out + u[i - 1] * Poly.of(Pname, 0, 0, i - 1)
    return out


def capital_lambda_tilde(n, Pname='P'):
    """Lam(P)/P, the natural object for the D series."""
    return capital_lambda(n, Pname) * Poly.of(Pname, 0, 0, -1)

