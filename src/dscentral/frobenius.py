"""Flat pencils of metrics from quasihomogeneous potentials and from
reflection group orbit spaces.

Coordinates are the variables ('t', i); vector fields are given by
their component lists (Poly or numbers).
"""

from fractions import Fraction

from .algebra import Poly
from . import liealg


def tvar(i):
    return ('t', i, 0)


def _as_poly(x):
    return x if isinstance(x, Poly) else Poly.num(x)


def vec_apply(vec, f):
    """Derivative of f along the vector field with the given components."""
    out = Poly()
    for i, c in enumerate(vec, start=1):
        out = out + _as_poly(c) * f.diff(tvar(i))
    return out


def eta_from_potential(F, e, n):
    """eta_ij = third derivative of the potential along the unit field;
    must be a constant matrix."""
    eF = vec_apply(e, F)
    eta = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            d = eF.diff(tvar(i)).diff(tvar(j))
            if not d.is_constant():
                raise ValueError("unit direction not flat for this potential")
            row.append(d.constant())
        eta.append(row)
    return eta


def pencil_from_potential(F, E, e, n):
    """Contravariant metrics of the Frobenius pencil:

        g2^ij = sum_m E^m eta^ik eta^jl F_mkl,   g1^ij = eta^ij.
    """
    F = _as_poly(F)
    eta = eta_from_potential(F, e, n)
    etainv = liealg.inverse(eta)
    g2 = [[Poly() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = Poly()
            for k in range(n):
                for l in range(n):
                    if etainv[i][k] == 0 or etainv[j][l] == 0:
                        continue
                    d2 = F.diff(tvar(k + 1)).diff(tvar(l + 1))
                    acc = acc + vec_apply(E, d2) * (etainv[i][k] * etainv[j][l])
            g2[i][j] = acc
    g1 = [[Poly.num(etainv[i][j]) for j in range(n)] for i in range(n)]
    return {'g2': g2, 'g1': g1, 'eta': eta}


def _monomials(degrees, total):
    """Exponent tuples m with sum m_i degrees_i = total."""
    n = len(degrees)
    out = []

    def rec(i, left, cur):
        if i == n:
            if left == 0:
                out.append(tuple(cur))
            return
        d = degrees[i]
        k = 0
        while k * d <= left:
            rec(i + 1, left - k * d, cur + [k])
            k += 1
    rec(0, Fraction(total), [])
    return out


def _mono_poly(m, factors=None):
    # prod_i factors_i^(m_i), the coordinates t_i by default
    out = Poly.num(1)
    for i, e in enumerate(m, start=1):
        if e:
            out = out * (Poly.of('t', i) if factors is None else factors[i - 1]) ** e
    return out


def _match_coefficients(cands, equations):
    """The Poly sum_m c_m t^m over the exponent tuples `cands` whose
    coefficients solve `equations`, or None when they have no solution.

    Each equation is a pair (target, images), images[i] the image of the
    i-th candidate, and is matched monomial by monomial over the union of
    the monomials of both sides.
    """
    rows, rhs = [], []
    for target, images in equations:
        monos = set(target.terms)
        for q in images:
            monos |= set(q.terms)
        for mo in monos:
            rows.append([q.coeff_of(mo) for q in images])
            rhs.append(target.coeff_of(mo))
    sol = liealg.solve(rows, rhs)
    if sol is None:
        return None
    out = Poly()
    for c, m in zip(sol, cands):
        if c:
            out = out + _mono_poly(m) * c
    return out


def potential_from_metrics(g2, eta, degrees, n):
    """Reconstruct the potential from the second metric via

        eta^ik eta^jl d_k d_l F = h / (deg_i + deg_j - 2) g2^ij,

    h = max degree.  The result is the quasihomogeneous solution of
    degree 2h + 2; raises ValueError if the system is inconsistent.
    """
    h = max(degrees)
    # target Hessian: H_kl = eta_ki eta_lj h/(di+dj-2) g2^ij
    H = [[Poly() for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for l in range(n):
            acc = Poly()
            for i in range(n):
                for j in range(n):
                    if eta[k][i] == 0 or eta[l][j] == 0:
                        continue
                    w = Fraction(h) / (degrees[i] + degrees[j] - 2)
                    acc = acc + g2[i][j] * (eta[k][i] * eta[l][j] * w)
            H[k][l] = acc
    cands = [m for m in _monomials(degrees, 2 * h + 2) if sum(m) >= 3]
    polys = [_mono_poly(m) for m in cands]
    F = _match_coefficients(cands, [
        (H[k][l], [p.diff(tvar(k + 1)).diff(tvar(l + 1)) for p in polys])
        for k in range(n) for l in range(k, n)])
    if F is None:
        raise ValueError("metric is not potential")
    # verify
    for k in range(n):
        for l in range(n):
            if not (F.diff(tvar(k + 1)).diff(tvar(l + 1)) - H[k][l]).is_zero():
                raise ValueError("reconstruction check failed")
    return F


# ---------------------------------------------------------------------------
# orbit space of the symmetric group (type A)

def orbit_metrics_a(n):
    """Second metric and its first-coordinate derivative on the space of
    monic polynomials prod (p - w_a), sum w_a = 0, in the coefficient
    coordinates y_1..y_n (y_i multiplies p^(i-1)).

    Returns dict with Poly matrices 'g2', 'g1' in variables ('t', i)
    standing for y_i.
    """
    # w_1..w_n independent, w_{n+1} = -sum
    ws = [Poly.of('w', a) for a in range(1, n + 1)]
    wlast = Poly()
    for w in ws:
        wlast = wlast - w
    allw = ws + [wlast]
    # y_i = coefficient of p^(i-1) in prod (p - w_a)
    prod = Poly.num(1)
    for w in allw:
        prod = prod * (Poly.of('p') - w)
    ys = [prod.coeffs_in(('p', 0, 0)).get(i - 1, Poly()) for i in range(1, n + 1)]
    # Gram of the trace form in the independent coordinates: G_ab = delta + 1
    # so G^ab = delta_ab - 1/(n+1)
    Ginv = [[(Fraction(1) if a == b else Fraction(0)) - Fraction(1, n + 1)
             for b in range(n)] for a in range(n)]
    dy = [[ys[i].diff(('w', a + 1, 0)) for a in range(n)] for i in range(n)]
    g2w = [[Poly() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = Poly()
            for a in range(n):
                for b in range(n):
                    if Ginv[a][b]:
                        acc = acc + dy[i][a] * dy[j][b] * Ginv[a][b]
            g2w[i][j] = acc
    # rewrite the symmetric polynomials in the y's by matching
    # coefficients on quasihomogeneous candidates
    degy = [n + 2 - i for i in range(1, n + 1)]
    g2 = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            cands = _monomials(degy, degy[i] + degy[j] - 2)
            out = _match_coefficients(
                cands, [(g2w[i][j], [_mono_poly(m, ys) for m in cands])])
            if out is None:
                raise ValueError("not a polynomial in the invariants")
            g2[i][j] = g2[j][i] = out
    g1 = [[g2[i][j].diff(tvar(1)) for j in range(n)] for i in range(n)]
    return {'g2': g2, 'g1': g1}
