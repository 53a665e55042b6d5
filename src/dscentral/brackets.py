"""Poisson bracket tables from the symbol calculus.

Both hamiltonian operators of a scalar Lax operator are evaluated on
pairs of linear functionals with densities a_i(x), b_j(x).  The residue
density is brought to the normal form

    sum  C[i, j, s] a_i b_j^(s) eps^s

by integration by parts; C[i, j, s] is then the delta^(s) coefficient of
{u_i(x), u_j(y)} at eps^(s-1), with the coefficient jets suppressed.

Closed-form counterparts of the leading coefficients are provided for
cross-checking; they are exact Laurent polynomials in two auxiliary
variables.
"""

from fractions import Fraction

from .algebra import Poly, _accumulate, antiderivative
from .symbols import Symbol
from .lax import NU, dispersionless_symbol, lambda_xpoly, capital_lambda, \
    capital_lambda_tilde, u_list

FROZEN = frozenset({'u', 'rho', 'p', 'q', 'P', 'Q'})
PQ_FROZEN = frozenset({'p', 'q', 'P', 'Q'})


def variational_symbol(series, n, fam='a', K=4):
    """Symbol of the operator attached to the density sum_i fam_i u_i."""
    if series == 'A':
        f = Symbol({(-i, 0): Poly.of(fam, i) for i in range(1, n + 1)}, K)
        half = False
    else:
        nu = NU[series]
        f = Symbol({(-2 * i + nu, 0): Poly.of(fam, i) for i in range(1, n + 1)}, K)
        half = True
    out = Symbol(dict(f.c), K)
    cur = f
    fact = Fraction(1)
    for k in range(1, K + 1):
        cur = cur.pdiff().xdiff()
        fact = fact / k
        add = cur.eps_shift(k).scale(fact)
        if half:
            add = add.scale(Fraction(1, 2))
        out = out + add
    return out


def gy_exact(lsym, ysym, frozen=frozenset()):
    """Scalar symbol g with eps d_x g = res([L, Y]), via an exact
    antiderivative of the residue."""
    comm = lsym.commutator(ysym, frozen)
    out = Symbol({}, lsym.K)
    for e, pol in comm.residue().items():
        if e >= 1:
            out._merge((0, e - 1), antiderivative(pol, frozen))
        elif not pol.is_zero():
            raise ValueError("residue of [L, Y] has an eps^0 part")
    return out


def bracket_density(series, n, which, K=4):
    """Residue density of the bracket (without the overall 1/eps) as a
    dict eps-power -> Poly, symbolic in u with the u-jets suppressed.

    The density is res(sum of sign * left * right) over a few signed
    pairs; only the p^-1 part of each last product is formed.
    """
    frozen = frozenset({'u', 'rho'})
    lsym = dispersionless_symbol(series, n, K=K)
    X = variational_symbol(series, n, 'a', K)
    Y = variational_symbol(series, n, 'b', K)
    st = lambda A, B: A.star(B, frozen)
    if which == 2:
        pairs = [(1, st(st(lsym, Y).positive(), lsym), X),
                 (-1, st(X, lsym), st(Y, lsym).positive())]
        if series == 'A':
            g = gy_exact(lsym, Y, frozen)
            pairs.append((Fraction(1, n + 1), X, lsym.commutator(g, frozen)))
    elif which == 1:
        if series == 'A':
            pairs = [(1, Y.commutator(X, frozen), lsym)]
        elif series == 'B':
            Ds = Symbol.from_p_poly({1: 1}, K)
            pairs = [(1, lsym, st(st(Y, Ds), X) - st(st(X, Ds), Y))]
        elif series == 'C':
            pairs = [(1, lsym, Y.commutator(X, frozen))]
        elif series == 'D':
            Ds = Symbol.from_p_poly({1: 1}, K)
            Xp, Xm = X.positive(), X.negative()
            Yp, Ym = Y.positive(), Y.negative()
            pairs = [(1, lsym, st(st(Xp, Ds), Yp) - st(st(Yp, Ds), Xp)
                      + st(st(Ym, Ds), Xm) - st(st(Xm, Ds), Ym))]
        else:
            raise ValueError("unknown series %r" % series)
    else:
        raise ValueError("which must be 1 or 2")
    out = {}
    for sign, left, right in pairs:
        for e, pol in left.star_residue(right, frozen).items():
            acc = out.setdefault(e, {})
            for m, c in pol.terms.items():
                _accumulate(acc, m, c * sign)
    return {e: Poly(t) for e, t in out.items() if t}


def ibp_reduce(pol, fam='a', frozen=FROZEN):
    """Move all x-derivatives off the `fam` variables, modulo total
    derivatives."""
    out = {}
    rem = pol.terms
    while rem:
        again = {}
        for m, c in rem.items():
            target = None
            for v, e in m:
                if v[0] == fam and v[2] > 0:
                    target = (v, e)
                    break
            if target is None:
                _accumulate(out, m, c)
                continue
            v, e = target
            if e != 1:
                raise ValueError("nonlinear density in %s" % fam)
            rest = Poly({tuple(x for x in m if x[0] != v): c})
            low = Poly.from_var((v[0], v[1], v[2] - 1))
            for m2, c2 in (low * rest.xdiff(frozen)).terms.items():
                _accumulate(again, m2, -c2)
        rem = again
    return Poly(out)


def bracket_table(series, n, which, K=4):
    """Normal-form coefficient table: dict (i, j, s) -> Poly in u."""
    return normal_form(bracket_density(series, n, which, K))


def normal_form(dens):
    """Coefficient table dict (i, j, s) -> Poly of a residue density.

    Sanity conditions verified on the way: the density is bilinear in the
    two test densities, the eps^0 part cancels, and each a_i b_j^(s)
    coefficient sits at eps power s exactly.
    """
    table = {}
    for e, pol in dens.items():
        nf = ibp_reduce(pol)
        for m, c in nf.terms.items():
            ia = jb = s = None
            rest = []
            for v, ex in m:
                if v[0] == 'a':
                    if ia is not None or ex != 1 or v[2] != 0:
                        raise ValueError("unexpected density term %s" % (m,))
                    ia = v[1]
                elif v[0] == 'b':
                    if jb is not None or ex != 1:
                        raise ValueError("unexpected density term %s" % (m,))
                    jb, s = v[1], v[2]
                else:
                    rest.append((v, ex))
            if ia is None or jb is None:
                raise ValueError("density not bilinear: %s" % (m,))
            if s != e:
                raise ValueError("eps grading violated at %s (eps^%d)" % (m, e))
            _accumulate(table.setdefault((ia, jb, s), {}), tuple(rest), c)
    table = {k: Poly(t) for k, t in table.items() if t}
    if any(s == 0 for (_, _, s) in table):
        raise ValueError("eps^-1 terms did not cancel")
    return table


def small_power(series, i):
    return i - 1 if series == 'A' else 2 * i - 1 - NU[series]


def generating_poly(table, series, n, s, capital=False, pname=None, qname=None):
    """Generating Laurent polynomial of the delta^(s) block of a table."""
    if pname is None:
        pname, qname = ('P', 'Q') if capital else ('p', 'q')
    out = Poly()
    for (i, j, t), pol in table.items():
        if t != s:
            continue
        if capital:
            pi, pj = i - 1, j - 1
        else:
            pi, pj = small_power(series, i), small_power(series, j)
        out = out + pol * Poly.of(pname, 0, 0, pi) * Poly.of(qname, 0, 0, pj)
    return out


class _Frac:
    # num / base**k, where every term of one closed form has the same base;
    # a sum keeps the larger power, so expand() is one exact division
    def __init__(self, num, base=None, k=1):
        self.num = num if isinstance(num, Poly) else Poly.num(num)
        self.base, self.k = base, 0 if base is None else k

    def __add__(self, other):
        lo, hi = sorted((self, other), key=lambda f: f.k)
        num = lo.num * hi.base ** (hi.k - lo.k) if hi.k > lo.k else lo.num
        return _Frac(num + hi.num, hi.base, hi.k)

    def __sub__(self, other):
        return self + _Frac(-other.num, other.base, other.k)

    def expand(self):
        return self.num if self.base is None else self.num.divexact(self.base ** self.k)


def _lam_tower(series, n, u, name, capital=False, tilde=False, depth=4):
    if capital:
        base = capital_lambda_tilde(n, u, name) if tilde else capital_lambda(n, u, name)
    else:
        base = lambda_xpoly(series, n, u, name)
    v = (name, 0, 0)
    tower = [base]
    for _ in range(depth):
        tower.append(tower[-1].diff(v))
    return tower


def closed_form_small(series, n, a, s, u=None):
    """Leading bracket coefficients as exact Laurent polynomials in p, q.

    For the A series all of (a, s) with a = 1, 2 and s = 1, 2, 3 are
    available; for B, C, D only the a = 2 family.
    """
    lp = _lam_tower(series, n, u, 'p')
    lq = _lam_tower(series, n, u, 'q')
    p, q = Poly.of('p'), Poly.of('q')
    qp = q - p
    if series == 'A':
        nn = Fraction(1, n + 1)
        if (a, s) == (1, 1):
            return _Frac(lp[1] - lq[1], p - q).expand()
        if (a, s) == (2, 1):
            return (_Frac(lp[1] * lq[0] - lq[1] * lp[0], p - q)
                    + _Frac(lp[1] * lq[1] * nn)).expand()
        if (a, s) == (1, 2):
            return (_Frac(lq[1] - lp[1], qp, 2)
                    - _Frac((lq[2] + lp[2]) / 2, qp)).expand()
        if (a, s) == (1, 3):
            return (_Frac(lq[1] - lp[1], qp, 3)
                    - _Frac((lq[2] + lp[2]) / 2, qp, 2)
                    + _Frac((lq[3] - lp[3]) / 6, qp)).expand()
        if (a, s) == (2, 2):
            return (_Frac(lq[1] * lp[0] - lq[0] * lp[1], qp, 2)
                    - _Frac((lq[2] * lp[0] - 2 * lq[1] * lp[1] + lq[0] * lp[2]) / 2, qp)
                    - _Frac((lq[2] * lp[1] - lq[1] * lp[2]) * Fraction(1, 2) * nn)).expand()
        if (a, s) == (2, 3):
            return (_Frac(lq[1] * lp[0] - lq[0] * lp[1], qp, 3)
                    - _Frac((lq[2] * lp[0] - 2 * lq[1] * lp[1] + lq[0] * lp[2]) / 2, qp, 2)
                    + _Frac((lq[3] * lp[0] - 3 * lq[2] * lp[1] + 3 * lq[1] * lp[2] - lq[0] * lp[3]) / 6, qp)
                    + _Frac((2 * lq[3] * lp[1] - 3 * lq[2] * lp[2] + 2 * lq[1] * lp[3]) * Fraction(1, 12) * nn)).expand()
        raise ValueError("no closed form for (a, s) = %r" % ((a, s),))
    if a != 2:
        raise ValueError("small-variable closed forms: a = 2 only for %s" % series)
    if s == 1:
        return _Frac(lq[1] * lp[0] - lp[1] * lq[0], qp).expand()
    if s == 2:
        return Poly()
    if s == 3:
        return (_Frac((lq[1] * lp[0] - lp[1] * lq[0]) / 2, qp, 3)
                - _Frac((lq[2] * lp[0] - 2 * lq[1] * lp[1] + lp[2] * lq[0]) / 4, qp, 2)
                + _Frac((lq[1] * lp[2] - lp[1] * lq[2]) / 4, qp)
                + _Frac((lq[3] * lp[0] - lq[0] * lp[3]) / 6, qp)).expand()
    raise ValueError("no closed form for s = %r" % s)


def closed_form_capital(series, n, a, s, u=None):
    """Generating polynomials of the delta' and eps^2 delta''' blocks in
    the capital variables P, Q."""
    L = _lam_tower(series, n, u, 'P', capital=True)
    M = _lam_tower(series, n, u, 'Q', capital=True)
    P, Q = Poly.of('P'), Poly.of('Q')
    PQ = P - Q
    lam0 = u_list(series, n, u)[0]          # Lam(0) = u_1
    if (a, s) == (2, 1):
        return _Frac(2 * (P * L[1] * M[0] - Q * M[1] * L[0]), PQ).expand()
    if (a, s) == (1, 1):
        if series in ('B', 'C'):
            return _Frac(2 * (P * L[1] - Q * M[1]), PQ).expand()
        return _Frac(2 * (P * Q * (L[1] - M[1]) + P * M[0] - Q * L[0]), PQ).expand()
    if s != 3:
        raise ValueError("no closed form for (a, s) = %r" % ((a, s),))
    if series == 'B':
        if a == 2:
            f = (_Frac((P + Q) ** 2 * (L[1] * M[0] - M[1] * L[0]), PQ, 3)
                 + _Frac(4 * (P ** 2 * L[3] * M[0] - Q ** 2 * M[3] * L[0]) / 3, PQ)
                 + _Frac(2 * P * Q * (L[1] * M[2] - M[1] * L[2]), PQ)
                 + _Frac(2 * (P * L[2] * M[0] - Q * M[2] * L[0]), PQ)
                 + _Frac(3 * L[1] * M[1])
                 - _Frac(2 * P * Q * (L[2] * M[0] - 2 * L[1] * M[1] + L[0] * M[2]), PQ, 2))
        else:
            f = (_Frac((P + Q) ** 2 * (L[1] - M[1]), PQ, 3)
                 + _Frac(4 * (P ** 2 * L[3] - Q ** 2 * M[3]) / 3, PQ)
                 + _Frac(2 * (P * L[2] - Q * M[2]), PQ)
                 - _Frac(2 * P * Q * (L[2] + M[2]), PQ, 2))
        return f.expand()
    if series == 'C':
        PQ2 = P ** 2 + 6 * P * Q + Q ** 2
        if a == 2:
            f = (_Frac(PQ2 * (L[1] * M[0] - M[1] * L[0]) / 2, PQ, 3)
                 + _Frac(4 * (P ** 2 * L[3] * M[0] - Q ** 2 * M[3] * L[0]) / 3, PQ)
                 + _Frac(2 * P * Q * (L[1] * M[2] - M[1] * L[2]), PQ)
                 + _Frac(P * L[2] * M[0] - Q * M[2] * L[0], PQ)
                 + _Frac(L[1] * M[1])
                 - _Frac(2 * P * Q * (L[2] * M[0] - 2 * L[1] * M[1] + L[0] * M[2]), PQ, 2))
        else:
            f = (_Frac(PQ2 * (L[1] - M[1]) / 2, PQ, 3)
                 + _Frac(4 * (P ** 2 * L[3] - Q ** 2 * M[3]) / 3, PQ)
                 + _Frac(P * L[2] - Q * M[2], PQ)
                 - _Frac(2 * P * Q * (L[2] + M[2]), PQ, 2))
        return f.expand()
    if series == 'D':
        Lt = _lam_tower(series, n, u, 'P', capital=True, tilde=True)
        Mt = _lam_tower(series, n, u, 'Q', capital=True, tilde=True)
        pq_inv = Poly.of('P', exp=-1) * Poly.of('Q', exp=-1)
        if a == 2:
            f = (_Frac(4 * P * Q * (L[1] * M[0] - M[1] * L[0]), PQ, 3)
                 + _Frac(4 * (P ** 2 * L[3] * M[0] - Q ** 2 * M[3] * L[0]) / 3, PQ)
                 + _Frac(2 * P * Q * (L[1] * M[2] - M[1] * L[2]), PQ)
                 - _Frac(L[1] * M[1])
                 - _Frac(2 * P * Q * (L[2] * M[0] - 2 * L[1] * M[1] + L[0] * M[2]), PQ, 2)
                 + _Frac((P ** 2 * L[1] * M[0] - Q ** 2 * M[1] * L[0]) * pq_inv, PQ)
                 - _Frac(lam0 * (P * L[1] + Q * M[1]) * pq_inv))
        else:
            f = (_Frac(4 * P * Q * (P * L[3] - Q * M[3]) / 3, PQ)
                 - _Frac(2 * P * Q * (P * L[2] + Q * M[2]), PQ, 2)
                 + _Frac(4 * P * Q * (P ** 2 * Lt[1] - Q ** 2 * Mt[1]), PQ, 3)
                 + _Frac(P * Q * (Lt[1] - Mt[1]), PQ)
                 - _Frac(lam0 * (P + Q) * pq_inv))
        return f.expand()
    raise ValueError("unknown series %r" % series)


def dispersionless_pencil(series, n, u=None):
    """delta' and delta coefficients of the dispersionless pencil, as
    generating Laurent polynomials (small variables for A, capital
    variables otherwise).  u-jets of first order appear in the delta
    parts; the delta' parts are the s = 1 closed forms, times 1/(P Q)
    for D."""
    out = {}
    if series == 'A':
        lp = _lam_tower(series, n, u, 'p')
        lq = _lam_tower(series, n, u, 'q')
        lxp, lxq = lp[0].xdiff(PQ_FROZEN), lq[0].xdiff(PQ_FROZEN)
        lxq1 = lq[1].xdiff(PQ_FROZEN)
        p, q = Poly.of('p'), Poly.of('q')
        pq = p - q
        nn = Fraction(1, n + 1)
        out[('delta', 1)] = (_Frac(lxp - lxq, pq, 2) - _Frac(lxq1, pq)).expand()
        out[('delta', 2)] = (_Frac(lxp * lq[0] - lxq * lp[0], pq, 2)
                             + _Frac(lxq * lp[1] - lxq1 * lp[0], pq)
                             + _Frac(lp[1] * lxq1 * nn)).expand()
        for a in (1, 2):
            out[('delta_prime', a)] = closed_form_small(series, n, a, 1, u)
        return out
    tilde = series == 'D'
    L = _lam_tower(series, n, u, 'P', capital=True, tilde=tilde)
    M = _lam_tower(series, n, u, 'Q', capital=True, tilde=tilde)
    Lx, Mx = L[0].xdiff(PQ_FROZEN), M[0].xdiff(PQ_FROZEN)
    Mx1 = M[1].xdiff(PQ_FROZEN)
    P, Q = Poly.of('P'), Poly.of('Q')
    PQ = P - Q
    out[('delta', 1)] = (_Frac((P + Q) * (Lx - Mx), PQ, 2)
                         - _Frac(2 * Q * Mx1, PQ)).expand()
    out[('delta', 2)] = (_Frac((P + Q) * (Lx * M[0] - Mx * L[0]), PQ, 2)
                         + _Frac(2 * (P * L[1] * Mx - Q * Mx1 * L[0]), PQ)).expand()
    unit = Poly.of('P', exp=-1) * Poly.of('Q', exp=-1) if tilde else 1
    for a in (1, 2):
        out[('delta_prime', a)] = closed_form_capital(series, n, a, 1, u) * unit
    return out


def table_coeff(poly, series, i, j, capital=False):
    """Extract the (i, j) table coefficient of a generating polynomial."""
    if capital:
        pi, pj = i - 1, j - 1
    else:
        pi, pj = small_power(series, i), small_power(series, j)
    pv, qv = (('P', 0, 0), ('Q', 0, 0)) if capital else (('p', 0, 0), ('q', 0, 0))
    out = Poly()
    for m, c in poly.terms.items():
        d = dict(m)
        if d.pop(pv, 0) == pi and d.pop(qv, 0) == pj:
            out = out + Poly({tuple(sorted(d.items())): c})
    return out
