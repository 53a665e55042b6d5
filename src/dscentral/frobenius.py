"""Flat pencils of metrics from quasihomogeneous potentials and from
reflection group orbit spaces.

Coordinates are the variables ('t', i); vector fields are given by
their component lists (Poly or numbers).  Each metric is one congruence
A M A^T: g2 = eta^-1 E(Hess F) eta^-1 from a potential, the Hessian
eta W eta back from g2, and J G^-1 J^T on the orbit space.  A potential
comes back from its Hessian by Euler's identity, with no linear solve.
"""

from fractions import Fraction

from .algebra import Poly
from . import liealg


def tvar(i):
    return ('t', i, 0)


def _as_poly(x):
    return x if isinstance(x, Poly) else Poly.num(x)


def _sum(polys):
    return sum(polys, Poly())


def vec_apply(vec, f):
    """Derivative of f along the vector field with the given components."""
    return _sum(_as_poly(c) * f.diff(tvar(i)) for i, c in enumerate(vec, start=1))


def _congruence(A, M):
    """The Poly matrix A M A^T, the zero entries of A skipped."""
    rows = [[(k, a) for k, a in enumerate(row) if a] for row in A]
    AM = [[_sum(a * M[k][l] for k, a in row) for l in range(len(M))] for row in rows]
    return [[_sum(ami[l] * a for l, a in row) for row in rows] for ami in AM]


def _symmetric(n, entry):
    """The symmetric n x n matrix with entries entry(k, l), each formed
    once for k <= l and mirrored."""
    out = [[None] * n for _ in range(n)]
    for k in range(n):
        for l in range(k, n):
            out[k][l] = out[l][k] = entry(k, l)
    return out


def _hessian(F, n):
    """The matrix of second derivatives of F in t_1..t_n."""
    grad = [F.diff(tvar(k)) for k in range(1, n + 1)]
    return _symmetric(n, lambda k, l: grad[k].diff(tvar(l + 1)))


def eta_from_potential(F, e, n):
    """eta_ij = third derivative of the potential along the unit field;
    must be a constant matrix."""
    eta = _hessian(vec_apply(e, F), n)
    if not all(d.is_constant() for row in eta for d in row):
        raise ValueError("unit direction not flat for this potential")
    return [[d.constant() for d in row] for row in eta]


def pencil_from_potential(F, E, e, n):
    """Contravariant metrics of the Frobenius pencil:

        g2 = eta^-1 E(Hess F) eta^-1,   g1 = eta^-1.
    """
    F = _as_poly(F)
    eta = eta_from_potential(F, e, n)
    etainv = liealg.inverse(eta)
    H = _hessian(F, n)
    g2 = _congruence(etainv, _symmetric(n, lambda k, l: vec_apply(E, H[k][l])))
    g1 = [[Poly.num(x) for x in row] for row in etainv]
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
    """Reconstruct the potential F from the second metric: its Hessian is

        H = eta W eta,   W^ij = h / (deg_i + deg_j - 2) g2^ij,

    h = max degree.  F is quasihomogeneous of degree c = 2h + 2, so
    Euler's identity gives it from H with no solve:

        d_l F = sum_k deg_k t_k H_kl / (c - deg_l),
        F = sum_l deg_l t_l d_l F / c.

    This equals solving for one coefficient per monomial of degree c and
    total degree >= 3: every degree lies in [1, h], so no monomial of
    degree c has total degree below 3, and on the polynomials of degree c
    the Euler sum is exact.  Both give the same F and refuse the same
    metrics: a ValueError when the Hessian of the result is not H.
    """
    h = max(degrees)
    c = 2 * h + 2
    W = [[g2[i][j] * (Fraction(h) / (degrees[i] + degrees[j] - 2)) for j in range(n)]
         for i in range(n)]
    H = _congruence(eta, W)
    t = [Poly.of('t', k) for k in range(1, n + 1)]
    grad = [_sum(t[k] * H[k][l] * degrees[k] for k in range(n)) / (c - degrees[l])
            for l in range(n)]
    F = _sum(t[l] * grad[l] * degrees[l] for l in range(n)) / c
    if _hessian(F, n) != H:
        raise ValueError("metric is not potential")
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
    allw = ws + [-_sum(ws)]
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
    g2w = _congruence(dy, Ginv)
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
