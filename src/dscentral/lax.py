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

from fractions import Fraction

from .algebra import Poly
from .symbols import Symbol

NU = {'B': 0, 'C': 1, 'D': 2}


def u_list(series, n, u=None):
    """Normalize a coordinate list: entries Poly/Fraction, u[0] is u_1."""
    if u is None:
        return [Poly.of('u', i) for i in range(1, n + 1)]
    out = []
    for x in u:
        out.append(x if isinstance(x, Poly) else Poly.num(x))
    if len(out) != n:
        raise ValueError("expected %d coordinates" % n)
    return out


def dispersionless_symbol(series, n, u=None, K=4):
    """Symbol of the Lax operator with all x-derivatives suppressed."""
    u = u_list(series, n, u)
    c = {}
    if series == 'A':
        c[n + 1] = Poly.num(1)
        for i in range(1, n + 1):
            c[i - 1] = c.get(i - 1, Poly()) + u[i - 1]
    elif series in NU:
        nu = NU[series]
        c[2 * n + 1 - nu] = Poly.num(1)
        for i in range(1, n + 1):
            pw = 2 * i - 1 - nu
            c[pw] = c.get(pw, Poly()) + u[i - 1]
    else:
        raise ValueError("unknown series %r" % series)
    return Symbol.from_p_poly(c, K)


def lambda_xpoly(series, n, u=None, pname='p'):
    """lam as a Laurent Poly in the variable (pname, 0, 0)."""
    u = u_list(series, n, u)
    p = Poly.of(pname)
    if series == 'A':
        out = Poly.of(pname, 0, 0, n + 1)
        for i in range(1, n + 1):
            out = out + u[i - 1] * Poly.of(pname, 0, 0, i - 1)
        return out
    nu = NU[series]
    out = Poly.of(pname, 0, 0, 2 * n + 1 - nu)
    for i in range(1, n + 1):
        out = out + u[i - 1] * Poly.of(pname, 0, 0, 2 * i - 1 - nu)
    return out


def capital_lambda(n, u=None, Pname='P'):
    """Lam(P) = P^n + u_n P^(n-1) + ... + u_1 (all series)."""
    u = u_list('B', n, u)
    out = Poly.of(Pname, 0, 0, n)
    for i in range(1, n + 1):
        out = out + u[i - 1] * Poly.of(Pname, 0, 0, i - 1)
    return out


def capital_lambda_tilde(n, u=None, Pname='P'):
    """Lam(P)/P, the natural object for the D series."""
    return capital_lambda(n, u, Pname) * Poly.of(Pname, 0, 0, -1)


def build_lax_bcd(series, n, K=4):
    """Full Lax symbol with the v_i solved from the symmetry constraint.

    Returns (L, vdict) where vdict maps i -> dict eps-power -> Poly.

    >>> L, v = build_lax_bcd('B', 1, K=3)
    >>> v[1] == {1: Poly.num(Fraction(1, 2)) * Poly.of('u', 1, 1)}
    True
    """
    nu = NU[series]
    c = {2 * n + 1 - nu: Poly.num(1)}
    i0 = 2 if series == 'D' else 1
    for i in range(i0, n + 1):
        c[2 * i - 1 - nu] = Poly.of('u', i)
    base = Symbol.from_p_poly(c, K)
    if series == 'D':
        rho = Symbol.from_p_poly({0: Poly.of('rho', 0)}, K)
        pinv = Symbol.from_p_poly({-1: 1}, K)
        base = base + rho.star(pinv).star(rho)
    sgn = -1 if series == 'C' else 1   # E = L + sgn L+
    v0 = 1 if series == 'B' else 2
    vpows = [2 * i - 2 - nu for i in range(v0, n + 1)]
    V = Symbol({}, K)
    for _ in range(K + 2):
        L = base + V
        E = L + L.adjoint().scale(sgn)
        if E.is_zero():
            break
        upd = Symbol({}, K)
        for (pw, e), pol in E.c.items():
            if pw in vpows:
                upd._merge((pw, e), pol * Fraction(-1, 2))
        if upd.is_zero():
            break
        V = V + upd
    L = base + V
    E = L + L.adjoint().scale(sgn)
    if not E.is_zero():
        raise ValueError("symmetry constraint not solvable: %s" % E)
    vdict = {}
    for k, i in zip(vpows, range(v0, n + 1)):
        vdict[i] = {e: pol for (pw, e), pol in V.c.items() if pw == k}
    return L, vdict
